"""Anchored sampling, forward replay, branch tracks, crossing detection."""

import numpy as np
import pytest

from pilotpath.circuit import JointState
from pilotpath.dirac import LatticeGrid, NAMED_SPINORS, build_dirac_step, run_walk, to_circuit_layers
from pilotpath.errors import ValidationError
from pilotpath.guidance import EnsembleRun, equivariance_test, sample_joint_density, velocity_stack
from pilotpath.protocols import (
    EVENT_COLUMNS,
    STREAM_CIRCUIT_ALTERATION,
    STREAM_FINAL_SAMPLE,
    STREAM_FORWARD_SAMPLE,
    STREAM_SCENARIO_BUILD,
    TrackGraph,
    TrackSet,
    _label_with_wrap,
    anchored_runs,
    build_tracks,
    detect_crossings,
    stream_rng,
    superdet_replay,
)
from pilotpath.scenario import build_walk, bundled_scenario

from conftest import EPS_NODE_REL, TRACK_THRESHOLD_REL


def scenario_history(name):
    scn = bundled_scenario(name)
    system = build_walk(scn)
    history = run_walk(system.state0, system.grid, system.layers, record_joint=range(system.n_layers + 1))
    return scn, system, history


@pytest.fixture(scope="module")
def no_overlap():
    return scenario_history("no-overlap")


@pytest.fixture(scope="module")
def recombination():
    return scenario_history("recombination")


# ----------------------------------------------------------------------------
# Substream generators


def test_stream_rng_is_reproducible():
    a = stream_rng(7, 0).random(8)
    b = stream_rng(7, 0).random(8)
    assert np.array_equal(a, b)


def test_streams_of_one_seed_are_independent():
    draws = [stream_rng(7, s).random(8) for s in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            assert not np.array_equal(draws[i], draws[j])
    assert not np.array_equal(stream_rng(7, 0).random(8), stream_rng(8, 0).random(8))


def test_stream_constants_are_distinct():
    streams = [STREAM_FINAL_SAMPLE, STREAM_FORWARD_SAMPLE, STREAM_SCENARIO_BUILD, STREAM_CIRCUIT_ALTERATION]
    assert len(set(streams)) == len(streams)


# ----------------------------------------------------------------------------
# Anchored runs


def backward_runs(history, seed, count, substeps=4):
    return anchored_runs(history, seed, count, substeps, EPS_NODE_REL, "backward")


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_retro_needs_recorded_joint_tables(no_overlap, direction):
    scn, system, _ = no_overlap
    anchor = 0 if direction == "forward" else system.n_layers
    others = [t for t in range(system.n_layers + 1) if t != anchor]
    history = run_walk(system.state0, system.grid, system.layers, record_joint=others)
    with pytest.raises(ValidationError, match=f"joint table of layer {anchor}; record it with record_joint"):
        anchored_runs(history, scn["seed"], 10, 4, EPS_NODE_REL, direction)


def test_anchored_runs_reject_an_unknown_direction(no_overlap):
    scn, _, history = no_overlap
    with pytest.raises(ValidationError, match="direction"):
        anchored_runs(history, scn["seed"], 10, 4, EPS_NODE_REL, "sideways")


@pytest.mark.parametrize(
    "direction, stream",
    [("forward", STREAM_FORWARD_SAMPLE), ("backward", STREAM_FINAL_SAMPLE)],
    ids=["forward", "backward"],
)
def test_anchored_runs_start_from_the_anchor_draw(no_overlap, direction, stream):
    scn, system, history = no_overlap
    anchor = 0 if direction == "forward" else history.n_layers
    x1, x2 = sample_joint_density(history.joint[anchor], system.grid, 50, stream_rng(scn["seed"], stream))
    runs = anchored_runs(history, scn["seed"], 50, 4, EPS_NODE_REL, direction)
    assert set(runs) == {1, 2}
    for particle, x0 in ((1, x1), (2, x2)):
        run = runs[particle]
        assert run.direction == direction
        assert run.positions.shape == (50, history.n_layers * 4 + 1)
        assert np.array_equal(run.positions[:, 0], x0)
        assert np.array_equal(run.layer_positions(anchor), x0)
        stack = velocity_stack(history, particle, EPS_NODE_REL)
        assert np.array_equal(run.stack.values, stack.values) and np.array_equal(run.stack.masks, stack.masks)


def test_backward_ensembles_track_the_marginals(no_overlap):
    scn, system, history = no_overlap
    runs = backward_runs(history, scn["seed"], 2000)
    assert set(runs) == {1, 2}
    for particle, density in ((1, history.density1), (2, history.density2)):
        assert runs[particle].n_trajectories == 2000
        assert runs[particle].n_flagged == 0
        ks = equivariance_test(runs[particle], density, system.grid)
        assert ks.shape == (history.n_layers + 1,)
        assert float(np.max(ks)) < 0.05


def test_same_seed_reproduces_the_whole_run(no_overlap):
    scn, system, history = no_overlap
    a = backward_runs(history, 31, 40)
    b = backward_runs(history, 31, 40)
    assert np.array_equal(a[1].positions[:, 0], b[1].positions[:, 0])
    assert np.array_equal(a[2].positions, b[2].positions)
    c = backward_runs(history, 32, 40)
    assert not np.array_equal(a[1].positions[:, 0], c[1].positions[:, 0])


# ----------------------------------------------------------------------------
# Forward replay


def test_motionless_state_replays_exactly():
    """A uniform at-rest state has zero flow, so backs and replays agree
    to the bit and nothing ever moves."""
    grid = LatticeGrid(16, 1.0, 0.5)
    step = build_dirac_step(grid, 0.5, 0.0)
    psi = np.kron(np.full(16, 0.25), NAMED_SPINORS["up"])
    amps = np.outer(psi, psi)
    state = JointState(grid.basis(), amps / np.linalg.norm(amps))
    history = run_walk(state, grid, to_circuit_layers(step, step, 6), record_joint={6})
    assert float(np.max(np.abs(history.current1))) == 0.0
    runs = backward_runs(history, 99, 150)
    replay = superdet_replay(runs)
    assert replay.max_deviation == 0.0
    assert replay.total_excluded == 0
    moved = np.abs(runs[1].positions - runs[1].positions[:, :1])
    assert float(np.max(moved)) == 0.0


def test_moving_packets_replay_within_tolerance():
    scn, system, history = scenario_history("entangled-mirror")
    replay = superdet_replay(backward_runs(history, scn["seed"], 200, substeps=32))
    assert replay.total_excluded == 0
    assert replay.max_deviation < 1e-6
    assert set(replay.deviations) == {1, 2}
    for particle in (1, 2):
        assert not np.any(np.isnan(replay.deviations[particle]))


# ----------------------------------------------------------------------------
# Branch tracks


def test_track_threshold_is_validated(no_overlap):
    _, _, history = no_overlap
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValidationError):
            build_tracks(history, threshold_rel=bad)


def test_tracks_need_recorded_joint_tables(no_overlap):
    scn, system, _ = no_overlap
    history = run_walk(system.state0, system.grid, system.layers, record_joint=range(1, system.n_layers + 1))
    with pytest.raises(ValidationError, match="joint table of every layer"):
        build_tracks(history, TRACK_THRESHOLD_REL)


def test_periodic_labels_merge_across_seams_in_root_order():
    """Components joined across a periodic seam share one label; merged
    components are numbered by their smallest original label, from 1."""
    line = np.array([1, 1, 0, 1, 0, 1, 1], dtype=bool)
    labels, n = _label_with_wrap(line, periodic=True)
    assert n == 2 and labels.tolist() == [1, 1, 0, 2, 0, 1, 1]
    labels, n = _label_with_wrap(line, periodic=False)
    assert n == 3 and labels.tolist() == [1, 1, 0, 2, 0, 3, 3]
    square = np.array(
        [
            [0, 1, 0, 0],
            [1, 0, 0, 1],
            [0, 0, 0, 0],
            [0, 1, 0, 0],
        ],
        dtype=bool,
    )
    # Original labels 1 (0, 1), 2 (1, 0), 3 (1, 3), 4 (3, 1): the top/bottom
    # seam joins 1 and 4, the left/right seam joins 2 and 3.
    labels, n = _label_with_wrap(square, periodic=True)
    assert n == 2
    assert labels.tolist() == [[0, 1, 0, 0], [2, 0, 0, 2], [0, 0, 0, 0], [0, 1, 0, 0]]


def test_branch_graphs_on_a_recombining_run(recombination):
    _, _, history = recombination
    tracks = build_tracks(history, TRACK_THRESHOLD_REL)
    m1 = tracks.marginal[1]
    # particle 1 splits and reconverges twice; the joint support never loops
    assert len(m1.loop_edges) == 2
    assert len(tracks.joint.loop_edges) == 0
    assert len(tracks.marginal[2].loop_edges) == 0
    assert m1.n_components[0] == 1 and m1.n_components[-1] == 1
    assert max(m1.n_components) == 2
    assert all(n == 2 for n in tracks.joint.n_components)


def test_graph_accessor_methods(recombination):
    _, system, history = recombination
    tracks = build_tracks(history, TRACK_THRESHOLD_REL)
    m1 = tracks.marginal[1]
    assert m1.n_layers == history.n_layers

    def successors(layer, comp):
        return {b for (t, a), (_, b) in m1.edges if t == layer and a == comp}

    split = next(t for t in range(len(m1.n_components) - 1) if m1.n_components[t + 1] == 2)
    assert successors(split, 1) == {1, 2}
    merge = next(
        t
        for t in range(split, len(m1.n_components) - 1)
        if m1.n_components[t] == 2 and m1.n_components[t + 1] == 1
    )
    assert successors(merge, 1) == {1}
    assert successors(merge, 2) == {1}
    assert m1.labels[0].shape == (system.grid.n_sites,)
    assert tracks.joint.labels[0].shape == (system.grid.n_sites, system.grid.n_sites)


# ----------------------------------------------------------------------------
# World-branch crossings


def test_disjoint_branches_never_cross(no_overlap):
    scn, system, history = no_overlap
    tracks = build_tracks(history, TRACK_THRESHOLD_REL)
    report = detect_crossings(backward_runs(history, scn["seed"], 400), tracks, system.grid)
    assert report.events.shape == (0, len(EVENT_COLUMNS))
    assert report.crossing_fraction == 0.0
    assert report.violations == 0
    # both particles' ensembles are classified
    assert report.n_trajectories == 800


def test_reconverging_branches_are_crossed(recombination):
    scn, system, history = recombination
    tracks = build_tracks(history, TRACK_THRESHOLD_REL)
    report = detect_crossings(backward_runs(history, scn["seed"], 400), tracks, system.grid)
    assert report.crossing_fraction > 0.3
    assert report.violations == 0
    assert 0.0 < report.ambiguous_fraction < 1.0
    layer, particle, trajectory = report.events[:, 0], report.events[:, 1], report.events[:, 2]
    order = np.lexsort((layer, trajectory, particle))
    assert np.array_equal(order, np.arange(len(order)))
    assert set(np.unique(particle)) <= {1, 2}
    assert np.all((0 <= layer) & (layer <= history.n_layers))


# ----------------------------------------------------------------------------
# Crossing oracle: the per-trajectory loop, one layer and one trajectory at a
# time, with breadth-first reachability over the joint branch graph.


def _reachable_ref(edges, start_layer, start_comp, end_layer, end_comp):
    frontier = {start_comp}
    for t in range(start_layer, end_layer):
        frontier = {b for (s, a), (_, b) in edges if s == t and a in frontier}
        if not frontier:
            return False
    return end_comp in frontier


def crossings_reference(runs, tracks, grid):
    """Returns (events, violations, crossing_fraction, ambiguous_fraction,
    n_trajectories) as detect_crossings defines them."""
    joint = tracks.joint
    n_layers = joint.n_layers
    events = []
    violations = crossed = ambiguous = total = 0
    for particle, run in runs.items():
        axis = particle - 1
        # column c: sites inside component c's projection; column 0 stays empty
        proj = [
            np.stack([(lab == c).any(axis=1 - axis) & (c > 0) for c in range(k + 1)], axis=1)
            for lab, k in zip(joint.labels, joint.n_components)
        ]
        for i in range(run.n_trajectories):
            counts, labels = [], []
            for t in range(n_layers + 1):
                x = float(run.layer_positions(t)[i])
                site = int(np.floor((x - grid.x_min) / grid.dx + 0.5))
                if grid.boundary == "periodic":
                    site %= grid.n_sites
                else:
                    site = min(max(site, 0), grid.n_sites - 1)
                row = proj[t][site]
                counts.append(int(row.sum()))
                labels.append(int(np.argmax(row)))
            ambiguous += sum(c > 1 for c in counts)
            total += len(counts)
            last_t, last_c, hit_any = -1, 0, False
            for t in range(n_layers + 1):
                if counts[t] != 1:
                    continue
                c = labels[t]
                if last_t >= 0 and not _reachable_ref(joint.edges, last_t, last_c, t, c):
                    events.append((t, particle, i, last_c, c))
                    hit_any = True
                    if not any(n > 1 for n in counts[last_t : t + 1]):
                        violations += 1
                last_t, last_c = t, c
            crossed += hit_any
    n_traj = sum(run.n_trajectories for run in runs.values())
    events.sort(key=lambda e: (e[1], e[2], e[0]))
    events = np.array(events, dtype=np.int64).reshape(-1, len(EVENT_COLUMNS))
    return events, violations, crossed / n_traj, ambiguous / total, n_traj


def assert_matches_reference(runs, tracks, grid):
    report = detect_crossings(runs, tracks, grid)
    events, violations, crossing_fraction, ambiguous_fraction, n_traj = crossings_reference(
        runs, tracks, grid
    )
    assert report.events.dtype == np.int64
    assert np.array_equal(report.events, events)
    assert report.violations == violations
    assert report.crossing_fraction == crossing_fraction
    assert report.ambiguous_fraction == ambiguous_fraction
    assert report.n_trajectories == n_traj
    return report


@pytest.mark.parametrize("seed", [4242, 1729, 7])
def test_crossings_match_the_reference_on_forward_runs(recombination, seed):
    _, system, history = recombination
    tracks = build_tracks(history, TRACK_THRESHOLD_REL)
    runs = anchored_runs(history, seed, 300, 4, EPS_NODE_REL, "forward")
    report = assert_matches_reference(runs, tracks, system.grid)
    assert len(report.events) > 0


def test_crossings_match_the_reference_on_backward_runs(recombination):
    scn, system, history = recombination
    tracks = build_tracks(history, TRACK_THRESHOLD_REL)
    assert_matches_reference(backward_runs(history, scn["seed"], 200), tracks, system.grid)


def _blocks(n_sites, *blocks):
    """Joint label table: component c covers rows x cols of blocks[c - 1]."""
    lab = np.zeros((n_sites, n_sites), dtype=np.int64)
    for c, (rows, cols) in enumerate(blocks, start=1):
        lab[rows, cols] = c
    return lab


def hand_built_tracks(n_sites=8):
    """Splits at layer 1, keeps two branches through layer 5 and merges them
    at layer 6.  Along particle 1's axis the branches overlap on sites 3-4 at
    layer 2 (ambiguous) and leave sites 3-4 uncovered at layers 3-4."""
    lo, hi, every = slice(0, 4), slice(4, 8), slice(0, 8)
    layers = [
        _blocks(n_sites, (every, every)),
        _blocks(n_sites, (lo, lo), (hi, hi)),
        _blocks(n_sites, (slice(0, 5), slice(0, 3)), (slice(3, 8), slice(5, 8))),
        _blocks(n_sites, (slice(0, 3), lo), (slice(5, 8), hi)),
        _blocks(n_sites, (slice(0, 3), lo), (slice(5, 8), hi)),
        _blocks(n_sites, (lo, lo), (hi, hi)),
        _blocks(n_sites, (every, every)),
        _blocks(n_sites, (every, every)),
    ]
    edges = [((0, 1), (1, 1)), ((0, 1), (1, 2))]
    edges += [((t, c), (t + 1, c)) for t in range(1, 5) for c in (1, 2)]
    edges += [((5, 1), (6, 1)), ((5, 2), (6, 1)), ((6, 1), (7, 1))]
    joint = TrackGraph(
        name="joint",
        labels=layers,
        n_components=[int(lab.max()) for lab in layers],
        edges=edges,
        loop_edges=[((5, 2), (6, 1))],
    )
    return TrackSet(joint=joint, marginal={})


def site_run(sites, direction="forward"):
    """A one-substep run whose trajectories sit on the given sites per layer."""
    positions = np.asarray(sites, dtype=np.float64)
    if direction == "backward":
        positions = positions[:, ::-1]
    return EnsembleRun(
        positions=positions,
        frozen=np.full(positions.shape[0], -1),
        direction=direction,
        substeps=1,
        stack=None,
    )


def test_crossings_on_a_hand_built_branch_graph():
    grid = LatticeGrid(8, 1.0, 1.0)
    tracks = hand_built_tracks()
    runs = {
        1: site_run(
            [
                [0, 0, 0, 0, 0, 0, 0, 0],  # stays on branch 1
                [0, 1, 3, 6, 6, 6, 6, 6],  # bridged crossing 1 -> 2
                [0, 1, 1, 6, 6, 6, 6, 6],  # unbridged crossing: a violation
                [0, 1, 1, 3, 4, 6, 6, 6],  # two unlabelled layers, no bridge
                [0, 1, 3, 3, 4, 6, 6, 6],  # gap with an ambiguous layer in it
                [0, 6, 6, 6, 6, 6, 0, 0],  # branch 2 reconverges into 1
                [3, 3, 1, 7, 1, 1, 1, 1],  # crosses there and back, unbridged
                [0, 1, 3, 1, 6, 6, 6, 6],  # the bridge ends at the next label
                [0, 1, 1, 3, 4, 1, 1, 1],  # same branch across a two-layer gap
            ],
        ),
        2: site_run(
            [
                [0, 0, 0, 0, 0, 0, 0, 0],
                [0, 1, 1, 7, 7, 7, 7, 7],  # unbridged along particle 2's axis
            ],
            direction="backward",
        ),
    }
    report = assert_matches_reference(runs, tracks, grid)
    # columns: layer, particle, trajectory, from_branch, to_branch
    expected = [
        (3, 1, 1, 1, 2),
        (3, 1, 2, 1, 2),
        (5, 1, 3, 1, 2),
        (5, 1, 4, 1, 2),
        (3, 1, 6, 1, 2),
        (4, 1, 6, 2, 1),
        (4, 1, 7, 1, 2),
        (3, 2, 1, 1, 2),
    ]
    assert np.array_equal(report.events, np.array(expected))
    assert report.violations == 6
    assert report.crossing_fraction == 7 / 11
    assert report.n_trajectories == 11


def test_crossings_reject_runs_over_other_layers():
    short = site_run([[0, 0, 0, 0, 0, 0, 0]])
    with pytest.raises(ValidationError, match="same layers"):
        detect_crossings({1: short}, hand_built_tracks(), LatticeGrid(8, 1.0, 1.0))
