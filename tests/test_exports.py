"""Byte-level content of the four CSV artifacts, from small hand-built inputs."""

from types import SimpleNamespace

import numpy as np

from pilotpath import exports
from pilotpath.paths import OverlapGroup, OverlapTable
from pilotpath.protocols import TrackGraph, TrackSet


def _written(tmp_path, write, *args) -> str:
    path = tmp_path / "sub" / "table.csv"
    write(str(path), *args)
    return path.read_bytes().decode("utf-8")


def test_currents_csv_renders_shortest_round_trip_floats(tmp_path):
    density = np.array([[0.1, 1e-300], [-0.0, 1.0 / 3.0]])
    current = np.array([[-0.0, 2.5e-17], [1e300, 0.1 + 0.2]])
    positions = np.array([0.0, 0.1])
    text = _written(tmp_path, exports.write_currents_csv, density, current, positions)
    assert text == (
        "layer,x,j0,j1\n"
        "0,0.0,0.1,-0.0\n"
        "0,0.1,1e-300,2.5e-17\n"
        "1,0.0,-0.0,1e+300\n"
        "1,0.1,0.3333333333333333,0.30000000000000004\n"
    )


def test_trajectories_csv_flags_a_backward_freeze_from_its_layer(tmp_path):
    # Two layers at two substeps: a backward run's record 0 is layer 2 and
    # record 2 is layer 0.  Trajectory 1 froze at substep 1, which the run
    # passes between layers 2 and 1, so it is flagged from the layer whose
    # record the run passes after that substep: (2 - layer) * 2 >= 1.
    positions = np.array(
        [
            [0.5, 0.30000000000000004, 0.1],
            [1e-300, 1e-300, 1e-300],
            [-0.0, 0.5, 1.0],
        ]
    )
    frozen = np.array([-1, 1, -1])

    def fill(write):
        for layer in range(3):
            record = 2 - layer
            write(layer, positions[:, record], (frozen >= 0) & (frozen <= record * 2))
        return "filled"

    path = tmp_path / "sub" / "table.csv"
    assert exports.write_trajectories_csv(str(path), 3, fill) == "filled"
    assert path.read_bytes().decode("utf-8") == (
        "trajectory_id,layer,position,node_flag\n"
        "0,0,0.1,0\n"
        "1,0,1e-300,1\n"
        "2,0,1.0,0\n"
        "0,1,0.30000000000000004,0\n"
        "1,1,1e-300,1\n"
        "2,1,0.5,0\n"
        "0,2,0.5,0\n"
        "1,2,1e-300,0\n"
        "2,2,-0.0,0\n"
    )


def test_overlap_csv_writes_each_upper_triangle_in_endpoint_order(tmp_path):
    # Amplitudes whose magnitudes are sensitive to how the modulus is taken:
    # the last digit of each differs between a vectorised complex modulus and
    # the scalar abs on some builds.
    amps = np.array(
        [
            -0.1321048632913019 - 1.179653489717825j,
            0.6404226504432821 + 1.9878846938120014j,
            -0.535669373161111 - 0.741675878409806j,
            0.1 + 0.0j,
            3.0 + 4.0j,
        ]
    )
    ensemble = SimpleNamespace(amps=amps)
    lam = np.array(
        [
            [1.0 + 0.0j, 0.1 - 0.2j, complex(-0.0, 1e-300)],
            [0.1 + 0.2j, 2.0 + 0.0j, 0.5 - 0.5j],
            [complex(-0.0, -1e-300), 0.5 + 0.5j, 3.0 + 0.0j],
        ]
    )
    table = OverlapTable(
        groups={
            # Inserted out of key order: rows follow the sorted endpoint index.
            9: OverlapGroup(endpoint=(4, 1), path_ids=np.array([3]), overlaps=np.array([[0.25 + 0.0j]])),
            2: OverlapGroup(endpoint=(0, 2), path_ids=np.array([4, 0, 2]), overlaps=lam),
        },
    )
    text = _written(tmp_path, exports.write_overlap_csv, ensemble, table)
    a = [repr(abs(complex(v))) for v in amps]
    assert a[4] == "5.0"
    assert text == (
        "endpoint,p_id,q_id,re_overlap,im_overlap,abs_amp_p,abs_amp_q\n"
        f"0:2,4,4,1.0,0.0,{a[4]},{a[4]}\n"
        f"0:2,4,0,0.1,-0.2,{a[4]},{a[0]}\n"
        f"0:2,4,2,-0.0,1e-300,{a[4]},{a[2]}\n"
        f"0:2,0,0,2.0,0.0,{a[0]},{a[0]}\n"
        f"0:2,0,2,0.5,-0.5,{a[0]},{a[2]}\n"
        f"0:2,2,2,3.0,0.0,{a[2]},{a[2]}\n"
        f"4:1,3,3,0.25,0.0,{a[3]},{a[3]}\n"
    )


def test_branch_edges_csv_marks_loops_and_skips_edgeless_graphs(tmp_path):
    def graph(name, edges, loop_edges=()):
        return TrackGraph(name=name, n_components=[], edges=edges, loop_edges=list(loop_edges))

    joint = graph(
        "joint",
        [((0, 1), (1, 1)), ((0, 1), (1, 2)), ((1, 1), (2, 1)), ((1, 2), (2, 1))],
        loop_edges=[((1, 2), (2, 1))],
    )
    marginal = {1: graph("marginal-1", []), 2: graph("marginal-2", [((3, 2), (4, 1))])}
    tracks = TrackSet(joint=joint, marginal=marginal, world_codes={})
    text = _written(tmp_path, exports.write_branch_edges_csv, tracks)
    assert text == (
        "graph,layer_from,component_from,layer_to,component_to,loop\n"
        "joint,0,1,1,1,0\n"
        "joint,0,1,1,2,0\n"
        "joint,1,1,2,1,0\n"
        "joint,1,2,2,1,1\n"
        "marginal-2,3,2,4,1,0\n"
    )


def test_blocks_are_formatted_and_written_a_slice_at_a_time(tmp_path, monkeypatch):
    """A block longer than a slice is formatted a slice of rows at a time,
    the last slice short, and writes the bytes of the whole block at once:
    trajectory ids from an integer array."""
    positions = np.array([0.5, 1e-300, -0.0, 0.1, 1.0 / 3.0])
    flags = np.array([False, True, False, False, True])

    def fill(write):
        for layer in range(2):
            write(layer, positions + layer, flags)

    path = tmp_path / "sliced.csv"
    formatted = []
    cells = exports._cells
    monkeypatch.setattr(exports, "_cells", lambda column: formatted.append(len(column)) or cells(column))
    monkeypatch.setattr(exports, "_SLICE_ROWS", 2)
    exports.write_trajectories_csv(str(path), 5, fill)
    # Four columns a slice, three slices a layer.
    assert formatted == ([2] * 8 + [1] * 4) * 2
    rows = [
        f"{i},{layer},{x!r},{int(flag)}"
        for layer in range(2)
        for i, (x, flag) in enumerate(zip((positions + layer).tolist(), flags))
    ]
    assert path.read_bytes().decode("utf-8") == "trajectory_id,layer,position,node_flag\n" + "\n".join(rows) + "\n"
