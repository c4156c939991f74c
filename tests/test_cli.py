"""End-to-end command line behavior: exits, artifacts, determinism."""

import copy
import dataclasses
import functools
import json
import operator
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pilotpath
from pilotpath import cli, dirac, exports, kernels, protocols, verify
from pilotpath.circuit import JointState
from pilotpath.dirac import LatticeGrid
from pilotpath.errors import DegenerateDensityError, PilotPathError, ValidationError
from pilotpath.guidance import ks_statistic
from pilotpath.scenario import build_circuit, build_walk, load_scenario, read_scenario, resolve_scenario

from conftest import coupled_free_packet, every_substep


@pytest.fixture()
def scenario_file(tmp_path):
    scn = {
        "engine": "walk",
        "name": "cli-unit",
        "seed": 424242,
        "grid": {"n_sites": 16, "dx": 1.0, "dt": 0.5},
        "n_layers": 3,
        "particles": [{"mass": 0.3}, {"mass": 0.3}],
        "initial": {
            "preset": "gaussian-product",
            "packet1": {"center": 4.0, "sigma": 1.5, "momentum": 0.6, "spinor": "chirality+"},
            "packet2": {"center": 11.0, "sigma": 1.5, "momentum": -0.6, "spinor": "chirality-"},
        },
        "protocol": {"count": 2000, "substeps": 4},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scn), encoding="utf-8")
    return str(path)


def run_cli(args, out):
    return cli.main(args + ["--out", str(out)])


def read_json(root, name, command, filename):
    with open(os.path.join(root, name, command, filename), encoding="utf-8") as fh:
        return json.load(fh)


def artifact_bytes(root):
    found = {}
    for dirpath, _, filenames in os.walk(root):
        for fn in filenames:
            full = os.path.join(dirpath, fn)
            with open(full, "rb") as fh:
                found[os.path.relpath(full, root)] = fh.read()
    return found


# ----------------------------------------------------------------------------
# Happy paths


def test_evolve_writes_its_artifact_set(scenario_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(["evolve", "--scenario", scenario_file], out) == 0
    base = out / "cli-unit" / "evolve"
    names = sorted(os.listdir(base))
    assert names == [
        "currents1.csv",
        "currents2.csv",
        "evolve_summary.json",
        "scenario.resolved.json",
    ]
    summary = read_json(out, "cli-unit", "evolve", "evolve_summary.json")
    assert summary["n_layers"] == 3
    assert summary["norm_drift"] < 1e-10
    assert "artifacts in" in capsys.readouterr().out


def test_paths_command_on_the_bundled_circuit(tmp_path):
    out = tmp_path / "out"
    assert run_cli(["paths", "--scenario", "circuit-demo"], out) == 0
    summary = read_json(out, "circuit-demo", "paths", "paths_summary.json")
    assert summary["window_layers"] == 3
    assert summary["n_paths"] == 6**3
    assert os.path.exists(out / "circuit-demo" / "paths" / "overlaps.csv")


def test_paths_layer_flag_limits_the_window(scenario_file, tmp_path):
    out = tmp_path / "out"
    assert run_cli(["paths", "--scenario", scenario_file, "--layer", "1"], out) == 0
    summary = read_json(out, "cli-unit", "paths", "paths_summary.json")
    assert summary["window_layers"] == 1
    # the window cannot reach past the scenario's own 3 layers
    assert run_cli(["paths", "--scenario", scenario_file, "--layer", "4"], out) == 2


def test_currents_command_matches_direct_evolution(scenario_file, tmp_path):
    out = tmp_path / "out"
    assert run_cli(["currents", "--scenario", scenario_file], out) == 0
    compare = read_json(out, "cli-unit", "currents", "currents_compare.json")
    assert compare["max_gap_density"] < 1e-10
    assert compare["max_gap_current"] < 1e-10
    assert compare["max_gap_marginal"] < 1e-10
    assert compare["diagonal_current_max"] == 0.0


def test_guide_retro_superdet_and_tracks(scenario_file, tmp_path):
    out = tmp_path / "out"
    assert run_cli(["guide", "--scenario", scenario_file], out) == 0
    guide = read_json(out, "cli-unit", "guide", "guide_summary.json")
    assert guide["particle1"]["worst_ks"] < 0.06
    assert guide["particle1"]["flagged"] == 0

    assert run_cli(["retro", "--scenario", scenario_file], out) == 0
    retro = read_json(out, "cli-unit", "retro", "retro_report.json")
    assert retro["particle2"]["worst_ks"] < 0.06
    assert len(retro["particle1"]["ks_per_layer"]) == 4

    assert run_cli(["superdet", "--scenario", scenario_file], out) == 0
    sup = read_json(out, "cli-unit", "superdet", "superdet_report.json")
    assert sup["total_excluded"] == 0
    # coarse scenario substeps; the dedicated replay tests use finer ones
    assert sup["max_deviation"] < 1e-3

    assert run_cli(["tracks", "--scenario", scenario_file], out) == 0
    tracks = read_json(out, "cli-unit", "tracks", "tracks_report.json")
    assert tracks["joint"]["loop_edges"] == 0
    assert tracks["crossings"]["violations"] == 0


def test_retro_and_superdet_use_the_scenario_node_threshold(scenario_file, tmp_path):
    """A high eps_node_rel masks the density tails, and backward runs flag
    the trajectories that meet them, as forward runs do."""
    with open(scenario_file, encoding="utf-8") as fh:
        scn = json.load(fh)
    scn["protocol"]["eps_node_rel"] = 0.3
    high = tmp_path / "high.json"
    high.write_text(json.dumps(scn), encoding="utf-8")
    out = tmp_path / "out"
    for command in ("guide", "retro", "superdet"):
        assert run_cli([command, "--scenario", str(high)], out) == 0, command
    guide = read_json(out, "cli-unit", "guide", "guide_summary.json")
    assert guide["particle1"]["flagged"] > 0
    retro = read_json(out, "cli-unit", "retro", "retro_report.json")
    assert retro["particle1"]["flagged"] > 0
    assert retro["particle2"]["flagged"] > 0
    sup = read_json(out, "cli-unit", "superdet", "superdet_report.json")
    assert sup["total_excluded"] > 0


def test_tracks_reports_its_frozen_forward_trajectories(scenario_file, tmp_path):
    """tracks draws the same forward ensembles as guide, so with a high
    eps_node_rel both report the same flagged trajectories per particle."""
    with open(scenario_file, encoding="utf-8") as fh:
        scn = json.load(fh)
    scn["protocol"]["eps_node_rel"] = 0.3
    high = tmp_path / "high.json"
    high.write_text(json.dumps(scn), encoding="utf-8")
    out = tmp_path / "out"
    for command in ("guide", "tracks"):
        assert run_cli([command, "--scenario", str(high)], out) == 0, command
    guide = read_json(out, "cli-unit", "guide", "guide_summary.json")
    tracks = read_json(out, "cli-unit", "tracks", "tracks_report.json")
    assert tracks["particle1"]["flagged"] > 0
    for particle in ("particle1", "particle2"):
        assert tracks[particle]["flagged"] == guide[particle]["flagged"]


@pytest.mark.parametrize("substeps", [4, 32])
def test_only_round_trips_keep_every_substep(scenario_file, substeps, tmp_path, monkeypatch):
    """guide, retro and tracks fold each layer-boundary record into their
    KS, trajectory CSV or crossing pass as the transport reaches it, and
    both legs of every round trip that superdet and verify make see every
    substep through a fold; no transport returns records.  When the
    scenario's substeps already reach verify's 32, its one forward run is
    the replayed run, not a second transport."""
    with open(scenario_file, encoding="utf-8") as fh:
        scn = json.load(fh)
    scn["protocol"]["substeps"] = substeps
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scn), encoding="utf-8")
    transport = kernels.transport
    calls = []

    def spy(*args, **kwargs):
        records, frozen = transport(*args, **kwargs)
        assert records.shape == (2000, 0)
        calls.append((args[7], "substeps" if args[10] else "layers"))
        return records, frozen

    monkeypatch.setattr(kernels, "transport", spy)
    layers, leg = (substeps, "layers"), (substeps, "substeps")
    expected = {
        "guide": [layers] * 2,
        "retro": [layers] * 2,
        "tracks": [layers] * 2,
        "superdet": [leg] * 4,
        "verify": [leg] * 2 if substeps == 32 else [layers, (32, "substeps"), (32, "substeps")],
    }
    for command, transports in expected.items():
        calls.clear()
        assert run_cli([command, "--scenario", str(path)], tmp_path / "out") == 0, command
        assert calls == transports, command


def test_superdet_holds_one_round_trip_at_a_time(tmp_path):
    """superdet on entangled-mirror (2000 trajectories, 40 layers at 32
    substeps) holds one particle's outbound substep records at a time: not
    its replay's as well, nor both particles' outbound runs."""
    one = 2000 * (40 * 32 + 1) * 8
    tracemalloc.start()
    try:
        code = run_cli(["superdet", "--scenario", "entangled-mirror"], tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    report = read_json(tmp_path, "entangled-mirror", "superdet", "superdet_report.json")
    assert (report["count"], report["substeps"], report["total_excluded"]) == (2000, 32, 0)
    assert peak < 1.5 * one


def test_tracks_holds_one_ensemble_at_a_time(tmp_path):
    """tracks on recombination at 20000 trajectories transports each
    particle's ensemble only when the crossing pass reaches it, and drops it
    before the next: its peak stays below 2.25 runs' layer records, where
    both particles' runs at once would pass 2."""
    scn = read_scenario("recombination")
    scn["protocol"]["count"] = 20000
    path = tmp_path / "crowd.json"
    path.write_text(json.dumps(scn), encoding="utf-8")
    one = 20000 * (scn["n_layers"] + 1) * 8
    tracemalloc.start()
    try:
        code = run_cli(["tracks", "--scenario", str(path)], tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    report = read_json(tmp_path, "recombination", "tracks", "tracks_report.json")
    assert report["crossings"]["n_trajectories"] == 40000
    assert peak < 2.25 * one


def count_growth(command: str, scn: dict, tmp_path) -> float:
    """Bytes per added trajectory by which a serial run of command on scn
    raises its traced peak from 20000 to 40000 trajectories.  A first,
    untraced run at 20000 takes the process's one-time allocations out of
    the comparison, which would otherwise inflate the first traced peak and
    hide growth."""
    peaks = {}
    for run, count in enumerate((20000, 20000, 40000)):
        scn["protocol"]["count"] = count
        path = tmp_path / f"crowd{count}.json"
        path.write_text(json.dumps(scn), encoding="utf-8")
        if run:
            tracemalloc.start()
        try:
            code = run_cli([command, "--scenario", str(path)], tmp_path / str(run))
            if run:
                _, peaks[count] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
    return (peaks[40000] - peaks[20000]) / 20000


def test_tracks_memory_grows_with_count_alone(tmp_path, monkeypatch):
    """Serial tracks on recombination folds each layer into its crossing
    pass as the transport reaches it, so no run's layer records are kept:
    from 20000 to 40000 trajectories its peak grows by less than half of
    one run's layer records per added trajectory."""
    monkeypatch.setattr(protocols, "_can_fork", lambda: False)
    scn = read_scenario("recombination")
    assert count_growth("tracks", scn, tmp_path) < (scn["n_layers"] + 1) * 8 / 2


def test_tracks_memory_grows_with_the_lattice_per_layer(tmp_path, monkeypatch):
    """Serial tracks on recombination hands each layer's joint table to the
    joint branch graph as the walk computes it, which keeps two rows of
    world codes and drops the table and its labels.  From 52 to 104 layers
    its peak grows by less than 32 * n_sites float64s per added layer, half
    of one joint table's n_sites**2: what a layer adds is its marginal
    tables, velocity fields and world codes, a few n_sites each, its branch
    edges and the crossing events of its trajectories.  A first, untraced
    run takes the process's one-time allocations out of the comparison."""
    monkeypatch.setattr(protocols, "_can_fork", lambda: False)
    scn = read_scenario("recombination")
    n_sites = scn["grid"]["n_sites"]
    peaks = {}
    for run, n_layers in enumerate((52, 52, 104)):
        scn["n_layers"] = n_layers
        path = tmp_path / f"long{n_layers}.json"
        path.write_text(json.dumps(scn), encoding="utf-8")
        if run:
            tracemalloc.start()
        try:
            code = run_cli(["tracks", "--scenario", str(path)], tmp_path / str(run))
            if run:
                _, peaks[n_layers] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
    per_layer = (peaks[104] - peaks[52]) / 52
    assert per_layer < 32 * n_sites * 8


def test_guide_memory_grows_with_count_alone(tmp_path, monkeypatch):
    """Serial guide on recombination folds each layer into its KS and its
    trajectory CSV as the transport reaches it, and writes each layer's
    rows a slice at a time, so neither a run's layer records nor a layer's
    text is kept: from 20000 to 40000 trajectories its peak grows by less
    than 128 bytes per added trajectory.  The run is cut to 16 layers, a
    third of the rows whose text tracemalloc follows; growth per trajectory
    does not depend on the layer count, and a run's kept layer records
    would alone add 17 * 8 = 136 bytes."""
    monkeypatch.setattr(protocols, "_can_fork", lambda: False)
    scn = read_scenario("recombination")
    scn["n_layers"] = 16
    assert count_growth("guide", scn, tmp_path) < 128


@pytest.mark.parametrize("forward", [True, False], ids=["guide", "retro"])
def test_trajectory_csv_flags_each_freeze_from_the_layer_it_holds(forward, tmp_path):
    """guide's and retro's consumer writes the trajectory CSV and the KS that
    a reference builds from the every-substep records and the final freeze
    indices.  Its freezes land at record 0, including a periodic start off
    the ring that holds x0 itself, and on a segment's first substep, which
    runs after the fold of the layer whose record the trajectory holds and
    is flagged from."""
    x_min, dx, n_sites, n_layers, substeps = -3.25, 0.3, 8, 3, 4
    values = np.full((n_layers + 1, n_sites), 0.15)  # half a cell per layer
    masks = np.zeros((n_layers + 1, n_sites), dtype=bool)
    masks[0, 2] = masks[2, 6] = True
    x0 = x_min + np.array([2.5 + n_sites, 4.6, 6.5, 3.1]) * dx
    args = (values, masks, x0, x_min, dx, True, 1.0, substeps, forward)
    records, frozen = every_substep(kernels.transport, *args)
    assert frozen.tolist() == ([0, 4, -1, -1] if forward else [8, -1, 0, 8])
    density = np.linspace(1.0, 2.0, (n_layers + 1) * n_sites).reshape(n_layers + 1, n_sites)
    grid = LatticeGrid(n_sites, dx, dx, x_min, "periodic")
    lines, ks = ["trajectory_id,layer,position,node_flag"], []
    for layer in range(n_layers + 1):
        record = (layer if forward else n_layers - layer) * substeps
        positions = records[:, record]
        flags = [int(0 <= f <= record) for f in frozen.tolist()]
        lines += [f"{i},{layer},{x!r},{flag}" for i, (x, flag) in enumerate(zip(positions.tolist(), flags))]
        ks.append(ks_statistic(positions, density[layer], grid))
    path = tmp_path / "trajectories.csv"
    summary = cli._trajectory_summary(
        str(path), density, grid, len(x0), substeps, forward, lambda fold: kernels.transport(*args, fold)[1]
    )
    assert path.read_bytes().decode("utf-8") == "\n".join(lines) + "\n"
    assert summary == {"ks_per_layer": ks, "worst_ks": max(ks), "flagged": int(np.count_nonzero(frozen >= 0))}


def test_verify_command_passes_on_a_clean_scenario(scenario_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(["verify", "--scenario", scenario_file], out) == 0
    report = read_json(out, "cli-unit", "verify", "verify_report.json")
    assert report["passed"] is True
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["no_signaling"]["passed"] and not by_name["no_signaling"]["skipped"]
    assert by_name["path_equivalence"]["passed"]
    stdout = capsys.readouterr().out
    assert "all checks passed" in stdout


def test_verify_runs_the_battery_by_name(scenario_file, tmp_path):
    """The rows verify reports, in order, on a walk and on a circuit scenario."""
    walk = [
        "unitarity_drift",
        "marginal_normalization",
        "no_signaling",
        "continuity_residual",
        "path_equivalence",
        "overlap_magnitude",
        "diagonal_current_zero",
        "reversibility",
        "equivariance_quick",
    ]
    circuit = ["unitarity_drift", "no_signaling", "path_equivalence", "overlap_magnitude"]
    for scenario, name, expected in ((scenario_file, "cli-unit", walk), ("circuit-demo", "circuit-demo", circuit)):
        assert run_cli(["verify", "--scenario", scenario], tmp_path) == 0
        report = read_json(tmp_path, name, "verify", "verify_report.json")
        assert [c["name"] for c in report["checks"]] == expected
        assert not any(c["skipped"] for c in report["checks"])


JSON_TYPES = {dict, list, str, int, float, bool, type(None)}


def non_json(obj, where="") -> list[str]:
    """Where under obj a value's exact type, or a key's, is no JSON type."""
    if type(obj) not in JSON_TYPES:
        return [f"{where or '/'}: {type(obj).__name__}"]
    if type(obj) is dict:
        keys = [f"{where}/{k!r}: {type(k).__name__} key" for k in obj if type(k) is not str]
        return keys + [bad for k, v in obj.items() for bad in non_json(v, f"{where}/{k}")]
    if type(obj) is list:
        return [bad for i, v in enumerate(obj) for bad in non_json(v, f"{where}/{i}")]
    return []


def test_every_command_hands_write_json_json_values(tmp_path, monkeypatch):
    """write_json converts nothing, so every object a command hands it, its
    summary and its scenario echo, is built of JSON values alone, checked by
    exact type: no numpy scalar, tuple or non-string key.  recombination's
    echo carries the 1/sqrt(2) weights its preset expands to; paths and
    currents need a product start, so they run on free-packet."""
    written = []
    write_json = exports.write_json

    def spy(path, obj):
        written.append((os.path.basename(path), obj))
        write_json(path, obj)

    monkeypatch.setattr(exports, "write_json", spy)
    for command in cli.COMMANDS:
        name = "free-packet" if command in ("paths", "currents") else "recombination"
        written.clear()
        assert run_cli([command, "--scenario", name], tmp_path) == 0, command
        assert [filename for filename, _ in written] == [cli.COMMANDS[command].summary, "scenario.resolved.json"]
        for filename, obj in written:
            assert non_json(obj) == [], (command, filename)


# ----------------------------------------------------------------------------
# Failure exits


def expect_error(args, out, capsys):
    code = run_cli(args, out)
    payload = json.loads(capsys.readouterr().err)
    assert set(payload) == {"error", "message", "exit_code"}
    assert payload["exit_code"] == code
    return code, payload


def test_unknown_bundled_name_exits_2(tmp_path, capsys):
    code, payload = expect_error(["evolve", "--scenario", "nope"], tmp_path, capsys)
    assert code == 2
    assert payload["error"] == "ValidationError"
    assert "nope" in payload["message"]


def test_missing_scenario_file_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "gone.json")
    code, payload = expect_error(["evolve", "--scenario", missing], tmp_path, capsys)
    assert code == 2
    assert "not found" in payload["message"]


@pytest.mark.parametrize(
    "content",
    [b'{"engine": "walk", "name": "cut", "grid": {"n_sites"', b'{"engine": "walk", "name": "\xff"}'],
    ids=["truncated", "not-utf8"],
)
def test_scenario_that_is_not_json_exits_2(content, tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_bytes(content)
    code, payload = expect_error(["evolve", "--scenario", str(path)], tmp_path, capsys)
    assert code == 2
    assert payload["error"] == "ValidationError"
    assert payload["message"].startswith(f"scenario file {path} is not UTF-8 JSON: ")


@pytest.mark.parametrize("key", ["eps_node_rel", "equivariance_bound"])
def test_non_finite_protocol_value_exits_2(key, tmp_path, capsys):
    """A bare NaN, which json reads and every bound lets through, is no
    number to the scenario schema."""
    scn = json.loads((Path(pilotpath.__file__).parent / "scenarios" / "free-packet.json").read_text())
    scn.setdefault("protocol", {})[key] = float("nan")
    path = tmp_path / "nan-protocol.json"
    path.write_text(json.dumps(scn), encoding="utf-8")
    assert "NaN" in path.read_text(encoding="utf-8")
    code, payload = expect_error(["guide", "--scenario", str(path)], tmp_path, capsys)
    assert code == 2
    assert payload["message"] == f"scenario schema violation at 'protocol/{key}': nan is not of type 'number'"
    assert not (tmp_path / "free-packet").exists()


def test_entangled_start_cannot_be_path_conditioned(tmp_path, capsys):
    code, payload = expect_error(["paths", "--scenario", "spin-singlet"], tmp_path, capsys)
    assert code == 2
    assert "product" in payload["message"]


def test_path_cap_override_exits_3(tmp_path, capsys):
    code, payload = expect_error(
        ["paths", "--scenario", "circuit-demo", "--path-cap", "10"], tmp_path, capsys
    )
    assert code == 3
    assert payload["error"] == "ResourceCapError"


def test_non_finite_circuit_unitary_exits_2(tmp_path, capsys):
    scn = {
        "engine": "circuit",
        "name": "nan-layer",
        "seed": 7,
        "basis": {"modes_a": 1, "spins_a": 2, "modes_b": 1, "spins_b": 2},
        "layers": [{"u_a": [[float("nan"), 0.0], [0.0, 1.0]], "u_b": [[1.0, 0.0], [0.0, 1.0]]}],
        "initial": {"psi1": {"basis_point": 0}, "psi2": {"basis_point": 1}},
    }
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(scn), encoding="utf-8")
    code, payload = expect_error(["paths", "--scenario", str(path)], tmp_path, capsys)
    assert code == 2
    assert payload["error"] == "ValidationError"
    # NaN is no number to the schema, so no matrix entry of an explicit layer may be NaN.
    assert payload["message"].startswith("scenario schema violation at 'layers/0/u_a/0/0': ")


def test_non_finite_start_factor_exits_2(tmp_path, capsys):
    scn = json.loads((Path(pilotpath.__file__).parent / "scenarios" / "circuit-demo.json").read_text())
    scn["initial"]["psi1"] = [[float("nan"), 0.0], [1.0, 0.0]] + [[0.0, 0.0]] * 4
    path = tmp_path / "nan-start.json"
    path.write_text(json.dumps(scn), encoding="utf-8")
    code, payload = expect_error(["paths", "--scenario", str(path)], tmp_path, capsys)
    assert code == 2
    assert payload["error"] == "ValidationError"
    assert payload["message"].startswith("scenario schema violation at 'initial/psi1/0/0': ")
    assert not (tmp_path / "circuit-demo").exists()


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("psi1", {"basis_point": -1}, "scenario schema violation at 'initial/psi1/basis_point': "),
        ("psi1", {"basis_point": 2.5}, "scenario schema violation at 'initial/psi1/basis_point': "),
        ("psi2", {"basis_point": 10**6}, "psi2 basis point 1000000 is outside 0..5"),
        ("layers", [{"u_a": [[1.0, 0.0], [0.0]], "u_b": [[1.0]]}], "u_a has rows of different lengths"),
    ],
    ids=["negative-basis-point", "fractional-basis-point", "basis-point-past-dim", "ragged-u_a"],
)
def test_malformed_circuit_inputs_exit_2_and_write_nothing(field, value, message, tmp_path, capsys):
    """A start off the basis, and an explicit matrix with rows of unequal
    length, are input errors: the schema rejects a basis point that is not
    a nonnegative integer, and the builder one at or past the factor's
    dimension and a ragged matrix, whose sizes the schema cannot see."""
    scn = read_scenario("circuit-demo")
    if field == "layers":
        scn["basis"] = {"modes_a": 2, "spins_a": 1, "modes_b": 1, "spins_b": 1}
        scn["layers"] = value
    else:
        scn["initial"][field] = value
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(scn), encoding="utf-8")
    code, payload = expect_error(["paths", "--scenario", str(path)], tmp_path / "out", capsys)
    assert (code, payload["error"]) == (2, "ValidationError")
    assert payload["message"].startswith(message)
    assert not (tmp_path / "out").exists()


def test_a_coupling_layer_listed_twice_exits_2(scenario_file, tmp_path, capsys):
    """Listing a layer twice would apply the entry's phase twice there."""
    scn = json.loads(Path(scenario_file).read_text())
    scn["couplings"] = [{"strength": 0.5, "window1": [0.0, 8.0], "window2": [8.0, 16.0], "layers": [0, 0]}]
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(scn), encoding="utf-8")
    code, payload = expect_error(["evolve", "--scenario", str(path)], tmp_path / "out", capsys)
    assert (code, payload["error"]) == (2, "ValidationError")
    assert payload["message"].startswith("scenario schema violation at 'couplings/0/layers': ")
    assert not (tmp_path / "out").exists()


def test_circuit_path_window_follows_the_layer_flag(tmp_path, capsys):
    assert run_cli(["paths", "--scenario", "circuit-demo", "--layer", "2"], tmp_path) == 0
    summary = read_json(tmp_path, "circuit-demo", "paths", "paths_summary.json")
    assert summary["window_layers"] == 2
    assert summary["n_paths"] == 36
    capsys.readouterr()
    code, payload = expect_error(["paths", "--scenario", "circuit-demo", "--layer", "4"], tmp_path, capsys)
    assert code == 2
    assert payload["message"] == "layer count 4 outside 0..3"


def test_circuit_verify_follows_the_path_window(tmp_path, capsys):
    """verify runs the path checks over the scenario's paths.layer window, as
    the paths command does; over all 8 layers this circuit passes the pair cap."""
    scn = {
        "engine": "circuit",
        "name": "deep-circuit",
        "seed": 7,
        "basis": {"modes_a": 4, "spins_a": 2, "modes_b": 4, "spins_b": 2},
        "layers": {"random": {"n_layers": 8, "coupling_scale": 0.8}},
        "initial": {"psi1": {"basis_point": 0}, "psi2": {"basis_point": 3}},
        "paths": {"layer": 2},
    }
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(scn), encoding="utf-8")
    assert run_cli(["paths", "--scenario", str(path)], tmp_path) == 0
    assert run_cli(["verify", "--scenario", str(path)], tmp_path) == 0
    report = read_json(tmp_path, "deep-circuit", "verify", "verify_report.json")
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["path_equivalence"]["note"].endswith("over 2 layers")
    assert by_name["path_equivalence"]["passed"] and not by_name["path_equivalence"]["skipped"]
    assert "all checks passed" in capsys.readouterr().out


def test_walk_path_window_is_range_checked(scenario_file, tmp_path, capsys):
    code, payload = expect_error(["paths", "--scenario", scenario_file, "--layer", "-1"], tmp_path, capsys)
    assert code == 2
    assert payload["message"] == "layer count -1 outside 0..3"


def test_degenerate_density_exits_4(scenario_file, tmp_path, capsys, monkeypatch):
    def boom(scn, system, args, out):
        raise DegenerateDensityError("flat density")

    monkeypatch.setitem(cli.COMMANDS, "evolve", dataclasses.replace(cli.COMMANDS["evolve"], body=boom))
    code, payload = expect_error(["evolve", "--scenario", scenario_file], tmp_path, capsys)
    assert code == 4
    assert payload == {"error": "DegenerateDensityError", "exit_code": 4, "message": "flat density"}


def test_unexpected_errors_exit_1(scenario_file, tmp_path, capsys, monkeypatch):
    def boom(scn, system, args, out):
        raise RuntimeError("wat")

    monkeypatch.setitem(cli.COMMANDS, "evolve", dataclasses.replace(cli.COMMANDS["evolve"], body=boom))
    code, payload = expect_error(["evolve", "--scenario", scenario_file], tmp_path, capsys)
    assert code == 1
    assert payload["error"] == "RuntimeError"


@pytest.mark.parametrize(
    "command, scenario, extra, exit_code",
    [
        ("tracks", "circuit-demo", [], 2),
        ("paths", "spin-singlet", [], 2),
        ("paths", "circuit-demo", ["--path-cap", "10"], 3),
    ],
    ids=["walk-only-on-circuit", "entangled-start", "over-pair-cap"],
)
def test_failed_runs_leave_no_artifact_directory(command, scenario, extra, exit_code, tmp_path, capsys):
    code, _ = expect_error([command, "--scenario", scenario] + extra, tmp_path, capsys)
    assert code == exit_code
    assert not (tmp_path / scenario / command).exists()


@pytest.mark.parametrize(
    "key, value",
    [("center", float("nan")), ("sigma", "wide"), ("center", 10**400)],
    ids=["nan-center", "string-sigma", "integer-center-beyond-float"],
)
def test_malformed_packets_exit_2_and_write_nothing(key, value, scenario_file, tmp_path, capsys):
    """A packet field that is not a finite real number, or an integer too
    large for a float, is an input error, raised before numpy computes with
    it (the tier-1 suite turns numpy's RuntimeWarnings into errors, as CI
    does)."""
    scn = json.loads(Path(scenario_file).read_text())
    scn["initial"]["packet1"][key] = value
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(scn), encoding="utf-8")
    code, payload = expect_error(["guide", "--scenario", str(path)], tmp_path / "out", capsys)
    assert code == 2
    assert payload["error"] == "ValidationError"
    message = f"scenario schema violation at 'initial/packet1/{key}': {value!r} is not of type 'number'"
    assert payload["message"] == message
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "name, sigma, message",
    [
        ("free-packet", 1.3e154, "and momentum 0.6 put sigma**2 (k - momentum)**2 beyond the float range"),
        ("free-packet", 1e160, "and momentum 0.6 put sigma**2 (k - momentum)**2 beyond the float range"),
        ("free-packet", 1e300, "and momentum 0.6 put sigma**2 (k - momentum)**2 beyond the float range"),
        ("free-packet", 1e308, "and momentum 0.6 put sigma**2 (k - momentum)**2 beyond the float range"),
        ("recombination", 1e160, "has a square beyond the float range"),
        ("recombination", 1e300, "has a square beyond the float range"),
        ("recombination", 1e308, "has a square beyond the float range"),
    ],
    ids=["walk-positive-1.3e154", "walk-positive-1e160", "walk-positive-1e300", "walk-positive-1e308",
         "gaussian-1e160", "gaussian-1e300", "gaussian-1e308"],
)
def test_packet_sigmas_beyond_the_float_range_exit_2(name, sigma, message, tmp_path, capsys):
    """A packet sigma the schema admits but whose Gaussian exponent no float
    holds is an input error, raised where the packet is built and before
    numpy computes with it: free-packet's walk-positive packet1 and
    recombination's gaussian sigma1."""
    scn = read_scenario(name)
    if name == "free-packet":
        scn["initial"]["packet1"]["sigma"] = sigma
    else:
        scn["initial"]["sigma1"] = sigma
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(scn), encoding="utf-8")
    code, payload = expect_error(["evolve", "--scenario", str(path)], tmp_path / "out", capsys)
    assert (code, payload["error"]) == (2, "ValidationError")
    assert payload["message"] == f"packet sigma {sigma!r} {message}"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("fault", ["non-finite", "beyond-stage-bound"])
@pytest.mark.parametrize("command", ["guide", "retro", "tracks"])
def test_second_particle_transport_errors_exit_before_any_artifact(command, fault, scenario_file, tmp_path, capsys, monkeypatch):
    """Runs are transported one particle at a time, but a stack that its
    transport would reject fails the command at the draw: particle 2's
    error exits 2 before particle 1's run writes anything."""
    build = protocols.velocity_stack

    def poisoned(history, particle, eps_rel):
        stack = build(history, particle, eps_rel)
        if particle == 1:
            return stack
        values = stack.values.copy()
        values[1, 3] = np.nan if fault == "non-finite" else 1e300
        return dataclasses.replace(stack, values=values)

    monkeypatch.setattr(protocols, "velocity_stack", poisoned)
    code, payload = expect_error([command, "--scenario", scenario_file], tmp_path / "out", capsys)
    assert (code, payload["error"]) == (2, "ValidationError")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["guide", "retro", "tracks", "superdet"])
def test_a_failing_forked_transport_exits_1(command, scenario_file, tmp_path, capsys, monkeypatch):
    """A forked child that ends with no result, here by leaving from
    particle 2's transport, makes the command exit 1 with the JSON error,
    and leaves no child behind."""
    parent = os.getpid()
    transport = protocols.integrate_batch

    def failing(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(1)
        return transport(*args, **kwargs)

    monkeypatch.setattr(protocols, "FORK_MIN_SUBSTEPS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(protocols, "integrate_batch", failing)
    code, payload = expect_error([command, "--scenario", scenario_file], tmp_path / "out", capsys)
    assert (code, payload["error"]) == (1, "RuntimeError")
    assert payload["message"] == "particle 2's run failed in its forked child (exit code 1)"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", [{0, 1}, {0}], ids=["forked", "one-cpu"])
@pytest.mark.parametrize("command", ["guide", "retro", "tracks"])
def test_particle_2_consumer_errors_exit_alike_forked_or_not(command, cpus, scenario_file, tmp_path, capsys, monkeypatch):
    """A ValidationError from particle 2's consumer (its trajectory CSV, or
    its crossing pass) exits 2 with the same JSON error whether a forked
    child or this process ran it, and leaves no child behind."""
    message = "particle 2's consumer rejects its run"
    table = cli.exports.write_trajectories_csv
    layer_pass = protocols._layer_pass

    def rejecting_csv(path, count, fill):
        if path.endswith("trajectories2.csv"):
            raise ValidationError(message)
        return table(path, count, fill)

    def rejecting_pass(particle, *args):
        if particle == 2:
            raise ValidationError(message)
        return layer_pass(particle, *args)

    monkeypatch.setattr(protocols, "FORK_MIN_SUBSTEPS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    monkeypatch.setattr(cli.exports, "write_trajectories_csv", rejecting_csv)
    monkeypatch.setattr(protocols, "_layer_pass", rejecting_pass)
    code, payload = expect_error([command, "--scenario", scenario_file], tmp_path / "out", capsys)
    assert payload == {"error": "ValidationError", "message": message, "exit_code": 2}
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("name", ["abs", "../up", "a/b", ".."], ids=["absolute", "parent", "nested", "dotdot"])
def test_scenario_name_cannot_leave_the_out_root(name, scenario_file, tmp_path, capsys):
    """The name becomes a directory under --out, so it must be one path
    component; an absolute name, "..", or one with a separator is rejected
    before anything is written."""
    scn = json.loads(Path(scenario_file).read_text())
    scn["name"] = str(tmp_path / "work" / name) if name == "abs" else name
    path = tmp_path / "named.json"
    path.write_text(json.dumps(scn), encoding="utf-8")
    code, payload = expect_error(["paths", "--scenario", str(path)], tmp_path / "work" / "out", capsys)
    assert code == 2
    assert "name" in payload["message"]
    assert not (tmp_path / "work").exists()


def test_failing_verify_exits_1(scenario_file, tmp_path, capsys):
    with open(scenario_file, encoding="utf-8") as fh:
        scn = json.load(fh)
    scn["protocol"]["equivariance_bound"] = 1e-9
    strict = tmp_path / "strict.json"
    strict.write_text(json.dumps(scn), encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli(["verify", "--scenario", str(strict)], out) == 1
    report = read_json(out, "cli-unit", "verify", "verify_report.json")
    assert report["passed"] is False
    by_name = {c["name"]: c for c in report["checks"]}
    assert not by_name["equivariance_quick"]["passed"]
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == f"verification FAILED; report in {out / 'cli-unit' / 'verify'}"


def test_overlap_magnitude_reads_the_table(scenario_file, tmp_path, capsys, monkeypatch):
    """One overlap of magnitude 1 + 1e-9 in the table verify reads fails
    overlap_magnitude, and only it, and the report says so."""
    real = verify.pp.overlap_table

    def inflated(ensemble):
        table = real(ensemble)
        group = max(table.groups.values(), key=lambda g: g.overlaps.shape[0])
        assert group.overlaps.shape[0] > 1
        group.overlaps = group.overlaps.copy()
        group.overlaps[0, 1] = (1.0 + 1e-9) * np.exp(0.3j)
        return table

    monkeypatch.setattr(verify.pp, "overlap_table", inflated)
    out = tmp_path / "out"
    assert run_cli(["verify", "--scenario", scenario_file], out) == 1
    report = read_json(out, "cli-unit", "verify", "verify_report.json")
    assert report["passed"] is False
    failed = [c for c in report["checks"] if not (c["passed"] or c["skipped"])]
    assert [c["name"] for c in failed] == ["overlap_magnitude"]
    assert failed[0]["value"] == pytest.approx(1e-9, rel=1e-6)
    assert "FAIL overlap_magnitude" in capsys.readouterr().out


def test_diagonal_current_zero_can_fail(scenario_file, tmp_path, capsys, monkeypatch):
    """One same-path current term of 1e-15 in the current verify reads fails
    diagonal_current_zero, and only it, and the report says so."""
    real = verify.pp.path_sum_current

    def leaking(ensemble):
        current = real(ensemble)
        assert not current.diagonal_term.any()
        current.diagonal_term = current.diagonal_term.copy()
        current.diagonal_term.flat[0] = 1e-15
        return current

    monkeypatch.setattr(verify.pp, "path_sum_current", leaking)
    out = tmp_path / "out"
    assert run_cli(["verify", "--scenario", scenario_file], out) == 1
    report = read_json(out, "cli-unit", "verify", "verify_report.json")
    assert report["passed"] is False
    failed = [c for c in report["checks"] if not (c["passed"] or c["skipped"])]
    assert [c["name"] for c in failed] == ["diagonal_current_zero"]
    assert failed[0]["value"] == 1e-15
    assert "FAIL diagonal_current_zero" in capsys.readouterr().out


def test_drift_checks_can_fail(tmp_path, capsys, monkeypatch):
    """A norm leak in the engine is a result, not an input error: with each
    walk's first stepped state scaled by 1 + 1e-9, verify exits 1 with only
    its two norm rows failing at about 2e-9, and evolve exits 0 and reports
    that drift."""
    step = dirac.apply_layer
    stepped = []

    def leaking(state, layer):
        out = step(state, layer)
        # A state this wrapper did not return starts a walk.
        if not (stepped and state is stepped[-1]):
            out = JointState(out.basis, out.left * (1.0 + 1e-9), out.right)
        stepped[:] = [out]
        return out

    monkeypatch.setattr(dirac, "apply_layer", leaking)
    out = tmp_path / "out"
    assert run_cli(["verify", "--scenario", "free-packet"], out) == 1
    report = read_json(out, "free-packet", "verify", "verify_report.json")
    failed = {c["name"]: c["value"] for c in report["checks"] if not (c["passed"] or c["skipped"])}
    assert sorted(failed) == ["marginal_normalization", "unitarity_drift"]
    assert all(value == pytest.approx(2e-9, rel=1e-3) for value in failed.values())
    assert "FAIL unitarity_drift" in capsys.readouterr().out
    assert run_cli(["evolve", "--scenario", "free-packet"], out) == 0
    summary = read_json(out, "free-packet", "evolve", "evolve_summary.json")
    assert summary["norm_drift"] == pytest.approx(2e-9, rel=1e-3)


# Each potential preset's fields, complete; the schema requires all of them.
PRESET_FIELDS = {
    "constant-a0": {"v0": 0.2},
    "barrier": {"v0": 0.2, "lo": 5.0, "hi": 8.0},
    "tables": {"a0": [0.1] * 16, "a1": [0.0] * 16},
}


@pytest.mark.parametrize("preset", sorted(PRESET_FIELDS))
def test_potential_presets_need_their_fields(preset, scenario_file, tmp_path, capsys):
    """A preset with all its fields runs; without any one of them the
    scenario fails its schema, exits 2 and writes nothing."""
    scn = json.loads(Path(scenario_file).read_text())
    scn["particles"][0]["charge"] = 1.0
    fields = PRESET_FIELDS[preset]
    for missing in [None, *fields]:
        scn["particles"][0]["potential"] = {"preset": preset, **{k: v for k, v in fields.items() if k != missing}}
        path = tmp_path / f"{preset}-{missing}.json"
        path.write_text(json.dumps(scn), encoding="utf-8")
        out = tmp_path / f"out-{missing}"
        if missing is None:
            assert run_cli(["evolve", "--scenario", str(path)], out) == 0
            continue
        code, payload = expect_error(["evolve", "--scenario", str(path)], out, capsys)
        assert (code, payload["error"]) == (2, "ValidationError")
        assert payload["message"] == (
            f"scenario schema violation at 'particles/0/potential': '{missing}' is a required property"
        )
        assert not out.exists()


# ----------------------------------------------------------------------------
# Malformed fields: the fuzz of every scenario's inputs

# Every field under these keys is dropped or retyped, the keys themselves too.
FUZZED = ("initial", "particles", "couplings", "layers", "basis")
# A value of another type than the field's, or a non-finite, fractional,
# negative or zero number: types and presence, not magnitudes, so that no
# mutation asks for a large grid or count.
RETYPED = [None, True, "x", [], {}, [1.0], float("nan"), float("inf"), 1.5, -1, 0]
BUNDLED = sorted(path.stem for path in (Path(pilotpath.__file__).parent / "scenarios").glob("*.json"))
FUZZ_DOCS = {name: read_scenario(name) for name in BUNDLED} | {"coupled-free-packet": coupled_free_packet()}


def fuzz_sites(doc: dict) -> list:
    """(container, key) of every fuzzed field of doc and of every value under it."""
    sites = []

    def visit(node, key):
        sites.append((node, key))
        child = node[key]
        if isinstance(child, (dict, list)):
            for sub in child if isinstance(child, dict) else range(len(child)):
                visit(child, sub)

    for key in FUZZED:
        if key in doc:
            visit(doc, key)
    return sites


def load_and_build(doc: dict) -> int:
    """The exit code of loading doc and building its system."""
    try:
        scn = resolve_scenario(doc)
        (build_walk if scn["engine"] == "walk" else build_circuit)(scn)
    except PilotPathError as exc:
        return exc.exit_code
    return 0


@settings(max_examples=400, derandomize=True, deadline=None)
@given(data=st.data())
def test_no_dropped_or_retyped_field_exits_1(data):
    """Loading and building a scenario with one field dropped or retyped
    exits 0 or with an input error, never 1: the schema types every field,
    and the builders check what needs the sizes the schema cannot see.  A
    numpy RuntimeWarning, a KeyError or a TypeError fails the test."""
    doc = copy.deepcopy(FUZZ_DOCS[data.draw(st.sampled_from(sorted(FUZZ_DOCS)))])
    node, key = data.draw(st.sampled_from(fuzz_sites(doc)))
    if data.draw(st.booleans()):
        del node[key]
    else:
        node[key] = data.draw(st.sampled_from(RETYPED))
    assert load_and_build(doc) != 1


# One mutation per initial-state family, as (scenario, path, value or
# None to drop), with every command's exit code in COMMANDS order (evolve,
# paths, currents, guide, retro, superdet, tracks, verify).  Dropped fields
# with a default leave a run, whose walk-only commands exit 2 on a
# circuit and whose path commands exit 2 on an entangled start; the rest
# exit 2 at load, as each did with 1 before the schema typed its field.
FAMILIES = {
    "gaussian-product": ("free-packet", ("initial", "packet2", "momentum"), None, [0, 0, 0, 0, 0, 0, 0, 0]),
    "entangled-mirror": ("entangled-mirror", ("initial", "sigma"), None, [2] * 8),
    "spin-singlet": ("spin-singlet", ("initial", "centers"), [1.0], [2] * 8),
    "measurement-split": ("no-overlap", ("initial", "pointer", "sigma"), None, [2] * 8),
    "branches": ("spin-singlet", ("initial", "branches", 0, "packet1", "momentum"), None, [0, 2, 2, 0, 0, 0, 0, 0]),
    "circuit": ("circuit-demo", ("layers", "random", "coupling_scale"), None, [2, 0, 2, 2, 2, 2, 2, 0]),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_command_on_a_mutation_of_each_family(family, tmp_path, capsys):
    """Every command on one mutated scenario per initial-state family (the
    branches family as a resolved echo) exits as listed, with 500
    trajectories, and a command that exits 2 leaves no artifact directory."""
    name, (*keys, last), value, expected = FAMILIES[family]
    doc = load_scenario(name) if family == "branches" else read_scenario(name)
    node = functools.reduce(operator.getitem, keys, doc)
    if value is None:
        del node[last]
    else:
        node[last] = value
    doc.setdefault("protocol", {})["count"] = 500
    path = tmp_path / f"{family}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    codes = []
    for command in cli.COMMANDS:
        codes.append(run_cli([command, "--scenario", str(path)], tmp_path / "out"))
        err = capsys.readouterr().err
        assert codes[-1] != 1, err
        if codes[-1] == 2:
            assert not (tmp_path / "out" / name / command).exists()
    assert codes == expected


# ----------------------------------------------------------------------------
# Overrides and determinism


def test_seed_flag_beats_environment(scenario_file, tmp_path, monkeypatch):
    monkeypatch.setenv("PILOTPATH_SEED", "888")
    out_env = tmp_path / "env"
    assert run_cli(["evolve", "--scenario", scenario_file], out_env) == 0
    echo = read_json(out_env, "cli-unit", "evolve", "scenario.resolved.json")
    assert echo["seed"] == 888

    out_flag = tmp_path / "flag"
    assert run_cli(["evolve", "--scenario", scenario_file, "--seed", "777"], out_flag) == 0
    echo = read_json(out_flag, "cli-unit", "evolve", "scenario.resolved.json")
    assert echo["seed"] == 777


@pytest.mark.parametrize(
    "flags, env, hint",
    [
        (["--seed", "-1"], {}, "seed"),
        ([], {"PILOTPATH_SEED": "abc"}, "PILOTPATH_SEED"),
        ([], {"PILOTPATH_PATH_CAP": "1.5"}, "PILOTPATH_PATH_CAP"),
        (["--path-cap", "-3"], {}, "pair_cap"),
    ],
    ids=["negative-seed-flag", "non-integer-seed-env", "non-integer-cap-env", "negative-cap-flag"],
)
def test_overrides_are_validated_like_the_scenario_file(flags, env, hint, scenario_file, tmp_path, capsys, monkeypatch):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code, payload = expect_error(["paths", "--scenario", scenario_file] + flags, tmp_path, capsys)
    assert code == 2
    assert payload["error"] == "ValidationError"
    assert hint in payload["message"]
    assert not (tmp_path / "cli-unit").exists()


@pytest.mark.parametrize(
    "document, flags",
    [([1, 2], ["--seed", "5"]), ({"engine": "walk", "name": "bad", "paths": 5}, ["--path-cap", "10"])],
    ids=["not-an-object", "paths-not-an-object"],
)
def test_overrides_leave_a_malformed_scenario_to_the_schema(document, flags, tmp_path, capsys):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    code, payload = expect_error(["paths", "--scenario", str(path)] + flags, tmp_path, capsys)
    assert code == 2
    assert payload["message"].startswith("scenario schema violation")


def test_out_root_environment_variable(scenario_file, tmp_path, monkeypatch):
    root = tmp_path / "env-root"
    monkeypatch.setenv("PILOTPATH_OUT", str(root))
    assert cli.main(["evolve", "--scenario", scenario_file]) == 0
    assert os.path.exists(root / "cli-unit" / "evolve" / "evolve_summary.json")


def test_reruns_are_byte_identical(scenario_file, tmp_path):
    """Every command, run twice, writes the same files with the same bytes."""
    out1 = tmp_path / "one"
    out2 = tmp_path / "two"
    for out in (out1, out2):
        for command in cli.COMMANDS:
            assert run_cli([command, "--scenario", scenario_file], out) == 0, command
    a = artifact_bytes(out1)
    b = artifact_bytes(out2)
    assert a.keys() == b.keys()
    assert {name.split(os.sep)[1] for name in a} == set(cli.COMMANDS)
    assert len(a) == 25
    for name in a:
        assert a[name] == b[name], name


def test_resolved_echo_reproduces_the_run(scenario_file, tmp_path):
    """Rerunning from the echoed resolved scenario yields the same bytes."""
    out1 = tmp_path / "one"
    assert run_cli(["evolve", "--scenario", scenario_file], out1) == 0
    echo_path = out1 / "cli-unit" / "evolve" / "scenario.resolved.json"
    out2 = tmp_path / "two"
    assert run_cli(["evolve", "--scenario", str(echo_path)], out2) == 0
    with open(out1 / "cli-unit" / "evolve" / "currents1.csv", "rb") as fh:
        first = fh.read()
    with open(out2 / "cli-unit" / "evolve" / "currents1.csv", "rb") as fh:
        second = fh.read()
    assert first == second


def test_import_leaves_scipy_stats_and_ndimage_unloaded(scenario_file, tmp_path):
    """No scipy or jsonschema module is loaded by importing the CLI,
    building a walk, drawing a random circuit or running tracks: walk steps
    are numpy row stencils, circuit unitaries are drawn without
    scipy.stats, branch tracks are labelled by numpy row runs, and
    scenarios are checked against their schema by the scenario module
    itself.  The package root itself loads no submodule."""
    probe = (
        "import sys, pilotpath; "
        "print(sorted(m for m in sys.modules if m.startswith('pilotpath.'))); "
        "import pilotpath.cli; "
        "from pilotpath.scenario import build_circuit, build_walk, load_scenario; "
        "build_walk(load_scenario('free-packet')); "
        "build_circuit(load_scenario('circuit-demo')); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'jsonschema'))); "
        "code = pilotpath.cli.main(['tracks', '--scenario', sys.argv[1], '--out', sys.argv[2]]); "
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'jsonschema')))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(pilotpath.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", probe, scenario_file, str(tmp_path / "out")],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    lines = done.stdout.splitlines()
    assert lines[:2] == ["[]", "[]"] and lines[-1] == "0 []"


def test_commands_run_with_scipy_blocked(scenario_file, tmp_path):
    """verify, paths, guide and tracks run to exit 0 in a process where
    importing scipy or jsonschema fails."""
    probe = (
        "import sys; sys.modules['scipy'] = None; sys.modules['jsonschema'] = None; "
        "from pilotpath import cli; "
        "print([cli.main([c, '--scenario', sys.argv[1], '--out', sys.argv[2]]) "
        "for c in ('verify', 'paths', 'guide', 'tracks')])"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(pilotpath.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", probe, scenario_file, str(tmp_path / "out")],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.split("\n")[-2] == "[0, 0, 0, 0]"
