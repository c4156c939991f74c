"""Retrocausal sampling, forward replay, branch tracks, crossing detection."""

import numpy as np
import pytest

from pilotpath.circuit import JointState
from pilotpath.dirac import LatticeGrid, NAMED_SPINORS, build_dirac_step, run_walk
from pilotpath.errors import ValidationError
from pilotpath.protocols import (
    build_tracks,
    detect_crossings,
    retro_run,
    stream_rng,
    superdet_replay,
)
from pilotpath.scenario import build_walk, bundled_scenario


def scenario_history(name):
    scn = bundled_scenario(name)
    system = build_walk(scn)
    history = run_walk(
        system.state0, system.grid, system.step1, system.step2, system.n_layers, system.couplings
    )
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


# ----------------------------------------------------------------------------
# Backward runs


def test_retro_needs_recorded_joint_tables(no_overlap):
    scn, system, _ = no_overlap
    history = run_walk(
        system.state0,
        system.grid,
        system.step1,
        system.step2,
        system.n_layers,
        system.couplings,
        record_joint=False,
    )
    with pytest.raises(ValidationError):
        retro_run(history, scn["seed"], count=10)


def test_backward_ensembles_track_the_marginals(no_overlap):
    scn, system, history = no_overlap
    retro = retro_run(history, scn["seed"], count=2000, substeps=4)
    assert retro.final_x1.shape == (2000,)
    assert retro.final_x2.shape == (2000,)
    assert set(retro.runs) == {1, 2}
    for particle in (1, 2):
        assert retro.runs[particle].n_flagged == 0
        assert retro.ks[particle].shape == (history.n_layers + 1,)
        assert float(np.max(retro.ks[particle])) < 0.05


def test_retro_endpoints_and_configurations(no_overlap):
    scn, system, history = no_overlap
    retro = retro_run(history, scn["seed"], count=50, substeps=4)
    for particle in (1, 2):
        assert np.array_equal(
            retro.initial_positions(particle), retro.runs[particle].positions[:, -1]
        )


def test_same_seed_reproduces_the_whole_run(no_overlap):
    scn, system, history = no_overlap
    a = retro_run(history, 31, count=40, substeps=4)
    b = retro_run(history, 31, count=40, substeps=4)
    assert np.array_equal(a.final_x1, b.final_x1)
    assert np.array_equal(a.runs[2].positions, b.runs[2].positions)
    c = retro_run(history, 32, count=40, substeps=4)
    assert not np.array_equal(a.final_x1, c.final_x1)


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
    history = run_walk(state, grid, step, step, 6)
    assert float(np.max(np.abs(history.current1))) == 0.0
    retro = retro_run(history, 99, count=150, substeps=4)
    replay = superdet_replay(retro)
    assert replay.max_deviation == 0.0
    assert replay.total_excluded == 0
    moved = np.abs(retro.runs[1].positions - retro.runs[1].positions[:, :1])
    assert float(np.max(moved)) == 0.0


def test_moving_packets_replay_within_tolerance():
    scn, system, history = scenario_history("entangled-mirror")
    retro = retro_run(history, scn["seed"], count=200, substeps=32)
    replay = superdet_replay(retro)
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
    history = run_walk(
        system.state0,
        system.grid,
        system.step1,
        system.step2,
        system.n_layers,
        system.couplings,
        record_joint=False,
    )
    with pytest.raises(ValidationError):
        build_tracks(history)


def test_branch_graphs_on_a_recombining_run(recombination):
    _, _, history = recombination
    tracks = build_tracks(history)
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
    tracks = build_tracks(history)
    m1 = tracks.marginal[1]
    assert m1.n_layers == history.n_layers
    split = next(t for t in range(len(m1.n_components) - 1) if m1.n_components[t + 1] == 2)
    assert m1.successors(split, 1) == {1, 2}
    merge = next(
        t
        for t in range(split, len(m1.n_components) - 1)
        if m1.n_components[t] == 2 and m1.n_components[t + 1] == 1
    )
    assert m1.successors(merge, 1) == {1}
    assert m1.successors(merge, 2) == {1}
    assert m1.labels[0].shape == (system.grid.n_sites,)
    assert tracks.joint.labels[0].shape == (system.grid.n_sites, system.grid.n_sites)
    assert m1.label_at(0, 3) == m1.labels[0][3]


# ----------------------------------------------------------------------------
# World-branch crossings


def test_disjoint_branches_never_cross(no_overlap):
    scn, system, history = no_overlap
    tracks = build_tracks(history)
    retro = retro_run(history, scn["seed"], count=400, substeps=4)
    report = detect_crossings(retro.runs, tracks, system.grid)
    assert report.events == []
    assert report.crossing_fraction == 0.0
    assert report.violations == 0
    # both particles' ensembles are classified
    assert report.n_trajectories == 800


def test_reconverging_branches_are_crossed(recombination):
    scn, system, history = recombination
    tracks = build_tracks(history)
    retro = retro_run(history, scn["seed"], count=400, substeps=4)
    report = detect_crossings(retro.runs, tracks, system.grid)
    assert report.crossing_fraction > 0.3
    assert report.violations == 0
    assert 0.0 < report.ambiguous_fraction < 1.0
    keys = [(e.particle, e.trajectory, e.layer) for e in report.events]
    assert keys == sorted(keys)
    for event in report.events:
        assert event.from_branch != event.to_branch or event.particle in (1, 2)
        assert 0 <= event.layer <= history.n_layers
