"""Anchored sampling, forward replay, branch tracks, crossing detection."""

import os
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pilotpath import circuit, kernels, protocols
from pilotpath.circuit import (
    STREAM_CIRCUIT_ALTERATION,
    STREAM_FINAL_SAMPLE,
    STREAM_FORWARD_SAMPLE,
    STREAM_SCENARIO_BUILD,
    JointState,
    PhiloxStream,
    stream_rng,
)
from pilotpath.dirac import LatticeGrid, NAMED_SPINORS, build_dirac_step, run_walk, to_circuit_layers
from pilotpath.errors import ValidationError
from pilotpath.guidance import VelocityStack, equivariance_test, integrate_batch, sample_joint_density, velocity_stack
from pilotpath.protocols import (
    EVENT_COLUMNS,
    TrackGraph,
    TrackSet,
    _build_graph,
    _label,
    _label_with_wrap,
    _world_codes,
    anchored_runs,
    anchored_starts,
    build_tracks,
    detect_crossings,
    joint_tracks,
    round_trip,
    superdet_replay,
)
from pilotpath.scenario import build_walk, load_scenario

from conftest import (
    EPS_NODE_REL,
    TRACK_THRESHOLD_REL,
    anchored_layers,
    every_substep,
    layer_records,
    served,
    tracks_of,
    walk_tables,
)
from oracles import ndimage_label


def scenario_history(name):
    scn = load_scenario(name)
    system = build_walk(scn)
    history, joint = walk_tables(system.state0, system.grid, system.layers, range(system.n_layers + 1))
    return scn, system, history, joint


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


# (pass size, draw sizes): at pass sizes 1 and 3 each pass of the block
# function is a Python loop step, so draws stop at 300 blocks (1200
# uniforms), still hundreds of passes; the real pass size draws up to 9000.
PHILOX_PASSES = st.sampled_from([(1, 1200), (3, 1200), (circuit._PHILOX_CHUNK, 9000)]).flatmap(
    lambda plan: st.tuples(st.just(plan[0]), st.lists(st.integers(0, plan[1]), min_size=1, max_size=5))
)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**63 - 1), stream=st.integers(0, 3), passes=PHILOX_PASSES)
@example(seed=2**63 - 1, stream=3, passes=(circuit._PHILOX_CHUNK, [1, 4, 9000]))
def test_philox_stream_draws_the_generators_uniforms(seed, stream, passes):
    """Each call, including those that start mid-block and those that span
    several passes of the block function, returns the Generator's bits."""
    chunk, counts = passes
    ours, theirs = PhiloxStream(seed, stream), stream_rng(seed, stream)
    with warnings.catch_warnings(), mock.patch.object(circuit, "_PHILOX_CHUNK", chunk):
        warnings.simplefilter("error")
        for count in counts:
            got, want = ours.random(count), theirs.random(count)
            assert got.dtype == want.dtype and np.array_equal(got, want)


def test_philox_stream_rejects_a_key_beyond_64_bits():
    for seed in (-1, 2**64):
        with pytest.raises(ValidationError):
            PhiloxStream(seed, 0)


def test_stream_constants_are_distinct():
    streams = [STREAM_FINAL_SAMPLE, STREAM_FORWARD_SAMPLE, STREAM_SCENARIO_BUILD, STREAM_CIRCUIT_ALTERATION]
    assert len(set(streams)) == len(streams)


# ----------------------------------------------------------------------------
# Anchored runs


def gathered(particle, transport):
    """anchored_runs' consumer that gathers each run's layer records."""
    return layer_records(transport)


def backward_runs(history, joint, seed, count, substeps=4):
    return anchored_layers(history, joint, seed, count, substeps, EPS_NODE_REL, "backward")


def substep_runs(starts, direction, substeps):
    """Each particle's (records, frozen) at every substep from the given starts."""
    return {
        particle: every_substep(integrate_batch, stack, x0, direction, substeps)
        for particle, (stack, x0) in starts.items()
    }


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_retro_needs_recorded_joint_tables(no_overlap, direction):
    scn, system, _, _ = no_overlap
    anchor = 0 if direction == "forward" else system.n_layers
    others = [t for t in range(system.n_layers + 1) if t != anchor]
    history, joint = walk_tables(system.state0, system.grid, system.layers, others)
    with pytest.raises(ValidationError, match=f"joint table of layer {anchor}; record it with record_joint"):
        anchored_runs(history, joint, scn["seed"], 10, 4, EPS_NODE_REL, direction, gathered)


def test_anchored_runs_reject_an_unknown_direction(no_overlap):
    scn, _, history, joint = no_overlap
    with pytest.raises(ValidationError, match="direction"):
        anchored_runs(history, joint, scn["seed"], 10, 4, EPS_NODE_REL, "sideways", gathered)


@pytest.mark.parametrize(
    "direction, stream",
    [("forward", STREAM_FORWARD_SAMPLE), ("backward", STREAM_FINAL_SAMPLE)],
    ids=["forward", "backward"],
)
def test_anchored_runs_start_from_the_anchor_draw(no_overlap, direction, stream):
    scn, system, history, joint = no_overlap
    anchor = 0 if direction == "forward" else history.n_layers
    x1, x2 = sample_joint_density(joint[anchor], system.grid, 50, stream_rng(scn["seed"], stream))
    starts = anchored_starts(history, joint, scn["seed"], 50, EPS_NODE_REL, direction)
    runs = anchored_runs(history, joint, scn["seed"], 50, 4, EPS_NODE_REL, direction, gathered)
    assert set(runs) == set(starts) == {1, 2}
    for particle, x0 in ((1, x1), (2, x2)):
        stack, start = starts[particle]
        assert np.array_equal(start, x0)
        own = velocity_stack(history, particle, EPS_NODE_REL)
        assert np.array_equal(stack.values, own.values) and np.array_equal(stack.masks, own.masks)
        records, _ = runs[particle]
        # Record 0 is the anchor layer's, whichever way the run goes.
        assert records.shape == (50, history.n_layers + 1)
        assert np.array_equal(records[:, 0], x0)


def test_anchored_runs_consume_each_run_before_the_next_transport(no_overlap, monkeypatch):
    """Serially, particle 1 is transported and consumed before particle 2
    is transported, and each particle's result is what its consumer
    returned."""
    scn, _, history, joint = no_overlap
    calls = []

    def counted(stack, x0, direction, substeps, fold):
        calls.append("transport")
        return integrate_batch(stack, x0, direction, substeps, fold)

    def consume(particle, transport):
        frozen = transport(lambda record, block, frozen: None)
        calls.append(particle)
        return particle, len(frozen)

    monkeypatch.setattr(protocols, "integrate_batch", counted)
    results = anchored_runs(history, joint, scn["seed"], 30, 4, EPS_NODE_REL, "forward", consume)
    assert calls == ["transport", 1, "transport", 2]
    assert results == {1: (1, 30), 2: (2, 30)}


@pytest.fixture()
def forks(monkeypatch):
    """Every anchored run forks at any size, on two CPUs; returns the list
    of child pids forked."""
    forked = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(protocols, "FORK_MIN_SUBSTEPS", 0)
    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return forked


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def assert_same_runs(a, b):
    assert list(a) == list(b) == [1, 2]
    for (x, x_frozen), (y, y_frozen) in zip(a.values(), b.values()):
        assert x.strides == y.strides
        assert np.array_equal(x, y) and np.array_equal(x_frozen, y_frozen)


@pytest.mark.parametrize(
    "name, direction, eps_rel",
    [("recombination", "forward", 1e-3), ("entangled-mirror", "backward", EPS_NODE_REL)],
    ids=["forward", "backward"],
)
def test_forked_runs_are_the_serial_runs(name, direction, eps_rel, forks):
    """Particle 2 transported and consumed in a forked child gives the
    serial result bit for bit, forward through recombination's nodes
    (masked at 1e-3, where trajectories of particle 2 freeze) and backward
    at entangled-mirror's 32 substeps, and the child is reaped."""
    scn, _, history, joint = scenario_history(name)
    count, substeps = scn["protocol"]["count"], scn["protocol"]["substeps"]

    forked = anchored_runs(history, joint, scn["seed"], count, substeps, eps_rel, direction, gathered)
    assert len(forks) == 1
    assert_no_child_left()
    starts = anchored_starts(history, joint, scn["seed"], count, eps_rel, direction)
    serial = {
        particle: layer_records(integrate_batch, stack, x0, direction, substeps)
        for particle, (stack, x0) in starts.items()
    }
    assert_same_runs(forked, serial)
    assert (np.count_nonzero(forked[2][1] >= 0) > 0) == (name == "recombination")


def test_forked_round_trips_are_the_serial_round_trips(forks):
    """superdet_replay with particle 2's round trip in a forked child gives
    each particle's serial round trip deviations bit for bit, backward on
    entangled-mirror at its 32 substeps, and the child is reaped."""
    scn, _, history, joint = scenario_history("entangled-mirror")
    p = scn["protocol"]
    forked = superdet_replay(history, joint, scn["seed"], p["count"], p["substeps"], p["eps_node_rel"])
    assert len(forks) == 1
    assert_no_child_left()
    starts = anchored_starts(history, joint, scn["seed"], p["count"], p["eps_node_rel"], "backward")
    assert list(forked) == [1, 2]
    for particle, (stack, x0) in starts.items():
        _, serial = round_trip(stack, x0, "backward", p["substeps"])
        assert np.array_equal(forked[particle], serial, equal_nan=True)


def test_anchored_runs_fork_once_the_transport_reaches_the_constant(no_overlap, forks, monkeypatch):
    """A transport of count x n_layers x substeps trajectory-substeps forks
    when that reaches FORK_MIN_SUBSTEPS, and not below; so does a round
    trip of superdet_replay."""
    scn, _, history, joint = no_overlap
    work = 30 * history.n_layers * 4
    for constant, expected in ((work, 1), (work + 1, 0)):
        monkeypatch.setattr(protocols, "FORK_MIN_SUBSTEPS", constant)
        forks.clear()
        runs = anchored_runs(history, joint, scn["seed"], 30, 4, EPS_NODE_REL, "forward", gathered)
        assert len(forks) == expected
        assert [len(frozen) for _, frozen in runs.values()] == [30, 30]
        deviations = superdet_replay(history, joint, scn["seed"], 30, 4, EPS_NODE_REL)
        assert len(forks) == 2 * expected
        assert [len(dev) for dev in deviations.values()] == [30, 30]
    assert_no_child_left()


@pytest.mark.parametrize("cpus", ["affinity", "cpu_count", "no-fork"])
def test_one_cpu_or_no_fork_runs_serially(cpus, no_overlap, forks, monkeypatch):
    """Where the process may use one CPU only, by its affinity or, without
    sched_getaffinity, by cpu_count, or where os.fork is missing, the runs
    are transported serially, and are the same."""
    scn, _, history, joint = no_overlap
    args = (history, joint, scn["seed"], 40, 4, EPS_NODE_REL, "forward", gathered)
    forked = anchored_runs(*args)
    assert len(forks) == 1
    if cpus == "affinity":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    elif cpus == "cpu_count":
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
    else:
        monkeypatch.delattr(os, "fork")
    assert_same_runs(anchored_runs(*args), forked)
    assert len(forks) == 1


@pytest.mark.parametrize("end", ["raise"])
def test_ending_a_forked_generator_early_leaves_no_child(end, no_overlap, forks):
    """Particle 1's consumer raising in this process ends anchored_runs
    early: the error is raised, and the child, still consuming particle 2,
    is killed and reaped."""
    scn, _, history, joint = no_overlap

    def consume(particle, transport):
        if particle == 1:
            raise ZeroDivisionError("particle 1")
        time.sleep(60)

    with pytest.raises(ZeroDivisionError, match="particle 1"):
        anchored_runs(history, joint, scn["seed"], 30, 4, EPS_NODE_REL, "forward", consume)
    assert len(forks) == 1
    assert_no_child_left()


def test_a_result_that_does_not_pickle_raises_runtime_error(no_overlap, forks):
    """A forked child whose result does not pickle leaves with no result, so
    anchored_runs raises RuntimeError with the child's exit code, and no
    child is left."""
    scn, _, history, joint = no_overlap

    def consume(particle, transport):
        frozen = transport(lambda record, block, frozen: None)
        return len(frozen) if particle == 1 else (lambda: frozen)

    with pytest.raises(RuntimeError, match=r"^particle 2's run failed in its forked child \(exit code 1\)$"):
        anchored_runs(history, joint, scn["seed"], 30, 4, EPS_NODE_REL, "forward", consume)
    assert_no_child_left()


# Runs anchored_runs on no-overlap with every transport forked, prints the
# child's pid, then transports particle 1 for seconds while the child
# transports particle 2.
_ORPHAN_PROBE = """
import os
from pilotpath import protocols
from pilotpath.dirac import run_walk
from pilotpath.scenario import build_walk, load_scenario

system = build_walk(load_scenario("no-overlap"))
joint = {}
history = run_walk(system.state0, system.grid, system.layers, record_joint={0}, fold=joint.__setitem__)
fork = os.fork

def announced():
    pid = fork()
    if pid:
        print(pid, flush=True)
    return pid

os.fork = announced
protocols.FORK_MIN_SUBSTEPS = 0
protocols._can_fork = lambda: True

def consume(particle, transport):
    transport(lambda record, block, frozen: None)

protocols.anchored_runs(history, joint, 5, 20, 20000, 1e-4, "forward", consume)
"""


def _process_state(pid):
    """The state letter of /proc/<pid>/stat, or None once there is no such process."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return None


def test_a_killed_parent_takes_its_forked_child_with_it():
    """SIGKILLing the process that forked particle 2's transport ends the
    child within a second: it is a zombie or gone, not still transporting."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(protocols.__file__)))
    proc = subprocess.Popen([sys.executable, "-c", _ORPHAN_PROBE], env=env, stdout=subprocess.PIPE, text=True)
    child = None
    try:
        child = int(proc.stdout.readline())
        proc.kill()
        proc.wait()
        deadline = time.monotonic() + 1.0
        while _process_state(child) not in (None, "Z", "X") and time.monotonic() < deadline:
            time.sleep(0.01)
        assert _process_state(child) in (None, "Z", "X")
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        if child is not None and _process_state(child) not in (None, "Z", "X"):
            os.kill(child, signal.SIGKILL)


def test_backward_ensembles_track_the_marginals(no_overlap):
    scn, system, history, joint = no_overlap
    runs = backward_runs(history, joint, scn["seed"], 2000)
    assert set(runs) == {1, 2}
    for particle, density in history.density.items():
        layers, frozen = runs[particle]
        assert layers.shape[0] == 2000
        assert np.all(frozen < 0)
        ks = equivariance_test(layers.T, density, system.grid)
        assert ks.shape == (history.n_layers + 1,)
        assert float(np.max(ks)) < 0.05


def test_same_seed_reproduces_the_whole_run(no_overlap):
    scn, system, history, joint = no_overlap
    a = substep_runs(anchored_starts(history, joint, 31, 40, EPS_NODE_REL, "backward"), "backward", 4)
    b = substep_runs(anchored_starts(history, joint, 31, 40, EPS_NODE_REL, "backward"), "backward", 4)
    assert np.array_equal(a[1][0][:, 0], b[1][0][:, 0])
    assert np.array_equal(a[2][0], b[2][0])
    assert a[2][0].shape == (40, 4 * history.n_layers + 1)
    # A backward run starts at the final layer.
    c = backward_runs(history, joint, 32, 40)
    assert not np.array_equal(a[1][0][:, 0], c[1][0][:, -1])


# ----------------------------------------------------------------------------
# Forward replay


def test_motionless_state_replays_exactly():
    """A uniform at-rest state has zero flow, so backs and replays agree
    to the bit and nothing ever moves."""
    grid = LatticeGrid(16, 1.0, 0.5, 0.0, "periodic")
    step = build_dirac_step(grid, 0.5, 0.0)
    psi = np.kron(np.full(16, 0.25), NAMED_SPINORS["up"])
    amps = np.outer(psi, psi)
    state = JointState(grid.basis(), amps / np.linalg.norm(amps))
    history, joint = walk_tables(state, grid, to_circuit_layers(step, step, 6), {6})
    assert float(np.max(np.abs(history.current[1]))) == 0.0
    deviations = superdet_replay(history, joint, 99, 150, 4, EPS_NODE_REL)
    for particle in (1, 2):
        assert np.array_equal(deviations[particle], np.zeros(150))
    records, _ = substep_runs(anchored_starts(history, joint, 99, 150, EPS_NODE_REL, "backward"), "backward", 4)[1]
    moved = np.abs(records - records[:, :1])
    assert float(np.max(moved)) == 0.0


def test_moving_packets_replay_within_tolerance():
    scn, system, history, joint = scenario_history("entangled-mirror")
    deviations = superdet_replay(history, joint, scn["seed"], 200, 32, EPS_NODE_REL)
    assert set(deviations) == {1, 2}
    for particle in (1, 2):
        assert not np.any(np.isnan(deviations[particle]))
        assert deviations[particle].max() < 1e-6


def test_forward_runs_replay_backward_within_tolerance():
    """A forward run is replayed backward from its final layer and must
    retrace it at every record."""
    scn = load_scenario("free-packet")
    system = build_walk(scn)
    history, joint = walk_tables(system.state0, system.grid, system.layers, {0})
    for stack, x0 in anchored_starts(history, joint, scn["seed"], 200, EPS_NODE_REL, "forward").values():
        _, deviations = round_trip(stack, x0, "forward", 32)
        assert deviations.shape == (200,)
        assert not np.any(np.isnan(deviations))
        assert deviations.max() < 1e-6


def replay_case(name):
    """Starts, node threshold and substeps of a round trip on a periodic
    free packet, the same packet between reflecting walls, or no-overlap's
    node-masked stack, where some trajectories freeze at record 0 and some
    inside a segment."""
    scn = load_scenario("no-overlap" if name == "no-overlap" else "free-packet")
    if name == "reflecting":
        # Momentum-space packets need a ring; chiral Gaussians do not.
        scn["grid"]["boundary"] = "reflecting"
        (branch,) = scn["initial"]["branches"]
        branch["packet1"] = {"kind": "gaussian", "center": 16.0, "sigma": 4.0, "momentum": 0.6, "spinor": "chirality+"}
        branch["packet2"] = {"kind": "gaussian", "center": 44.0, "sigma": 4.0, "momentum": -0.6, "spinor": "chirality-"}
    system = build_walk(scn)
    history, joint = walk_tables(system.state0, system.grid, system.layers, {0, system.n_layers})
    return scn, history, joint, (0.05 if name == "no-overlap" else EPS_NODE_REL)


@pytest.mark.parametrize("direction", ["forward", "backward"])
@pytest.mark.parametrize("name", ["periodic", "reflecting", "no-overlap"])
def test_replay_deviation_is_the_largest_gap_over_every_record(name, direction, monkeypatch):
    """The segment-by-segment fold gives each trajectory's largest gap over
    all records, and NaN where it is excluded, bit for bit as the replay's
    full array does, with each segment split over several chunks.
    superdet_replay's backward round trips are these."""
    monkeypatch.setattr(kernels, "CHUNK", 64)
    scn, history, joint, eps_rel = replay_case(name)
    starts = anchored_starts(history, joint, scn["seed"], 200, eps_rel, direction)
    opposite = "backward" if direction == "forward" else "forward"
    result = {particle: round_trip(stack, x0, direction, 8)[1] for particle, (stack, x0) in starts.items()}
    if direction == "backward":
        replayed = superdet_replay(history, joint, scn["seed"], 200, 8, eps_rel)
        assert all(np.array_equal(replayed[particle], result[particle], equal_nan=True) for particle in (1, 2))
    off_boundary = 0
    for particle, (stack, x0) in starts.items():
        records, frozen = every_substep(integrate_batch, stack, x0, direction, 8)
        back, back_frozen = every_substep(integrate_batch, stack, records[:, -1], opposite, 8)
        gaps = stack.grid.gap(back, records[:, ::-1])
        ok = (frozen < 0) & (back_frozen < 0)
        expected = np.where(ok, gaps.max(axis=1), np.nan)
        assert np.array_equal(result[particle], expected, equal_nan=True)
        assert np.count_nonzero(np.isnan(result[particle])) == int(np.sum(~ok))
        inner = np.ones(gaps.shape[1], dtype=bool)
        inner[::8] = False
        off_boundary += np.count_nonzero(ok & (gaps[:, inner].max(axis=1) > gaps[:, ~inner].max(axis=1)))
        if name == "no-overlap":
            assert np.any(frozen == 0) and np.any((frozen > 0) & (frozen % 8 != 0))
    # A fold that read only the layer-boundary records would miss these.
    assert off_boundary > 0


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_round_trips_exclude_trajectories_that_reach_a_reflecting_wall(direction):
    """Bounded transport clamps a trajectory at an edge site, which its
    replay cannot undo.  With free-packet's packets moving left between
    reflecting walls, the round trips that reach an edge site in either
    direction are excluded like node-frozen ones, although they deviate by
    whole length units, and every other one retraces its run."""
    scn = load_scenario("free-packet")
    scn["grid"]["boundary"] = "reflecting"
    (branch,) = scn["initial"]["branches"]
    for key, center in (("packet1", 6.0), ("packet2", 44.0)):
        branch[key] = {"kind": "gaussian", "center": center, "sigma": 4.0, "momentum": -0.6, "spinor": "chirality-"}
    system = build_walk(scn)
    history, joint = walk_tables(system.state0, system.grid, system.layers, {0, system.n_layers})
    starts = anchored_starts(history, joint, scn["seed"], 2000, EPS_NODE_REL, direction)
    opposite = "backward" if direction == "forward" else "forward"
    first, last = system.grid.positions()[[0, -1]]
    walled_worst = 0.0
    for stack, x0 in starts.values():
        _, deviations = round_trip(stack, x0, direction, 32)
        records, frozen = every_substep(integrate_batch, stack, x0, direction, 32)
        back, back_frozen = every_substep(integrate_batch, stack, records[:, -1], opposite, 32)
        assert np.all(frozen < 0) and np.all(back_frozen < 0)
        walled = np.any((records <= first) | (records >= last) | (back <= first) | (back >= last), axis=1)
        gaps = system.grid.gap(back, records[:, ::-1]).max(axis=1)
        assert np.any(walled)
        walled_worst = max(walled_worst, gaps[walled].max())
        assert np.count_nonzero(np.isnan(deviations)) == np.count_nonzero(walled)
        assert np.array_equal(deviations, np.where(walled, np.nan, gaps), equal_nan=True)
        assert np.nanmax(deviations) < 1e-6
    assert walled_worst > 1.0


def test_a_replay_that_alone_reaches_a_wall_is_excluded():
    """A uniform field carries a start 2**-60 off the left edge site away
    and back: the outbound run never reaches the edge, but its replay
    lands on it, and that round trip is excluded too."""
    grid = LatticeGrid(16, 1.0, 0.5, 0.0, "reflecting")
    stack = VelocityStack(np.full((5, 16), 0.5), np.zeros((5, 16), dtype=bool), grid)
    x0 = np.array([2.0**-60, 3.0])
    records, _ = every_substep(integrate_batch, stack, x0, "forward", 4)
    back, _ = every_substep(integrate_batch, stack, records[:, -1], "backward", 4)
    assert records.min() > grid.x_min and back[0, -1] == grid.x_min
    _, deviations = round_trip(stack, x0, "forward", 4)
    assert np.array_equal(deviations, [np.nan, 0.0], equal_nan=True)


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_layer_runs_are_the_round_trips_layer_boundaries(no_overlap, direction):
    """With freezes at the start, inside segments and not at all, a run
    holds the substep run's layer-boundary records and freeze indices bit
    for bit, and a round trip's outbound run is that run."""
    scn, _, history, joint = no_overlap
    starts = anchored_starts(history, joint, scn["seed"], 200, 0.05, direction)
    for stack, x0 in starts.values():
        records, frozen = every_substep(integrate_batch, stack, x0, direction, 8)
        assert np.any(frozen == 0) and np.any((frozen > 0) & (frozen % 8 != 0)) and np.any(frozen < 0)
        layers, layer_frozen = layer_records(integrate_batch, stack, x0, direction, 8)
        assert np.array_equal(layers, records[:, ::8])
        assert np.array_equal(layer_frozen, frozen)
        outbound, _ = round_trip(stack, x0, direction, 8)
        assert np.array_equal(outbound.T, layers)


def test_round_trip_memory_stays_near_the_replays_records():
    """A round trip holds its outbound run's substep records only; its
    replay hands them over one segment at a time, and is compared there:
    beyond that one array it allocates a quarter of one at most, neither a
    replay array nor full-size gaps."""
    scn = load_scenario("free-packet")
    system = build_walk(scn)
    history, joint = walk_tables(system.state0, system.grid, system.layers, {0})
    starts = anchored_starts(history, joint, scn["seed"], 2000, EPS_NODE_REL, "forward")
    one = 2000 * (system.n_layers * 32 + 1) * 8
    tracemalloc.start()
    try:
        layers, deviations = round_trip(*starts[1], "forward", 32)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not np.any(np.isnan(deviations))
    assert layers.shape == (system.n_layers + 1, 2000)
    assert peak < 1.25 * one


# ----------------------------------------------------------------------------
# Branch tracks


def test_track_threshold_is_validated(no_overlap):
    _, system, _, _ = no_overlap
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValidationError):
            joint_tracks(bad, system.grid)


def test_tracks_need_recorded_joint_tables(no_overlap):
    """The joint graph's fold rejects a walk that skips layer 0 when the
    walk hands it layer 1, and build_tracks one whose walk stopped short of
    the final layer."""
    _, system, history, _ = no_overlap
    graph = joint_tracks(TRACK_THRESHOLD_REL, system.grid)
    with pytest.raises(ValidationError, match="joint table of every layer"):
        run_walk(system.state0, system.grid, system.layers, record_joint=range(1, system.n_layers + 1), fold=graph)
    graph = joint_tracks(TRACK_THRESHOLD_REL, system.grid)
    run_walk(system.state0, system.grid, system.layers, record_joint=range(system.n_layers), fold=graph)
    with pytest.raises(ValidationError, match="joint table of every layer"):
        build_tracks(history, graph)


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


def test_periodic_seam_merges_keep_int32_labels():
    """Labels stay int32 where components merge across a periodic seam, as
    they are where none do."""
    line = np.array([1, 0, 1, 0, 1], dtype=bool)
    square = np.zeros((4, 4), dtype=bool)
    square[0, 1] = square[3, 1] = square[2, 3] = True
    for mask in (line, square):
        labels, n = _label_with_wrap(mask, periodic=True)
        assert n == 2 and labels.dtype == np.int32
        assert _label_with_wrap(mask, periodic=False)[0].dtype == np.int32


def assert_labels_match_ndimage(mask):
    labels, n = _label(mask)
    ref, ref_n = ndimage_label(mask)
    assert labels.dtype == ref.dtype == np.int32
    assert n == ref_n
    assert np.array_equal(labels, ref)


def snake(size):
    """One component winding through every other row of a square, so each
    row's run joins the previous one at alternating ends."""
    mask = np.zeros((size, size), dtype=bool)
    mask[::2] = True
    mask[1::4, -1] = True
    mask[3::4, 0] = True
    return mask


@settings(max_examples=300, derandomize=True, deadline=None)
@given(mask=hnp.arrays(np.bool_, hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=24)))
@example(mask=np.zeros(9, dtype=bool))
@example(mask=np.ones(9, dtype=bool))
@example(mask=np.zeros((5, 7), dtype=bool))
@example(mask=np.ones((5, 7), dtype=bool))
@example(mask=snake(21))
@example(mask=snake(21).T.copy())
def test_labels_match_scipy_ndimage(mask):
    """Run labels equal ndimage.label's labels, count and int32 dtype."""
    assert_labels_match_ndimage(mask)


@pytest.mark.parametrize("name", ["recombination", "free-packet", "entangled-mirror"])
def test_labels_match_scipy_ndimage_on_every_track_mask(name):
    scn, _, history, joint = scenario_history(name)
    threshold = scn["protocol"]["track_threshold_rel"]
    tables = [joint[t] for t in range(history.n_layers + 1)]
    for table in tables + [*history.density[1], *history.density[2]]:
        assert_labels_match_ndimage(table > threshold * float(table.max()))


def test_branch_graphs_on_a_recombining_run(recombination):
    _, _, history, joint = recombination
    tracks = tracks_of(history, joint)
    m1 = tracks.marginal[1]
    # particle 1 splits and reconverges twice; the joint support never loops
    assert len(m1.loop_edges) == 2
    assert len(tracks.joint.loop_edges) == 0
    assert len(tracks.marginal[2].loop_edges) == 0
    assert m1.n_components[0] == 1 and m1.n_components[-1] == 1
    assert max(m1.n_components) == 2
    assert all(n == 2 for n in tracks.joint.n_components)


def checkerboard_tables(size, n_layers):
    """Alternating cell tables, each layer the last one shifted by two rows:
    every layer has size**2 / 2 one-cell components, each overlapping one
    of the next layer's."""
    cells = (np.add.outer(np.arange(size), np.arange(size)) % 2).astype(float)
    return [np.roll(cells, 2 * t, axis=0) for t in range(n_layers + 1)]


@pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "bounded"])
@pytest.mark.parametrize("case", ["recombination", "checkerboard"])
def test_branch_edges_are_the_overlapping_label_pairs_in_order(case, periodic, recombination):
    """A layer pair's edges are its overlapping (a, b) label pairs, in
    lexicographic order, on recombination's joint layers and on a
    checkerboard of one-cell components."""
    if case == "recombination":
        _, _, history, joint = recombination
        tables = [joint[t] for t in range(history.n_layers + 1)]
    else:
        tables = checkerboard_tables(12, 3)
    graph = _build_graph(tables, "joint", TRACK_THRESHOLD_REL, periodic)
    labels = [_label_with_wrap(table > TRACK_THRESHOLD_REL * table.max(), periodic)[0] for table in tables]
    expected = []
    for t in range(graph.n_layers):
        a, b = labels[t].ravel(), labels[t + 1].ravel()
        pairs = sorted({(int(x), int(y)) for x, y in zip(a, b) if x > 0 and y > 0})
        expected += [((t, x), (t + 1, y)) for x, y in pairs]
    assert graph.edges == expected and expected


def test_graph_accessor_methods(recombination):
    _, _, history, joint = recombination
    tracks = tracks_of(history, joint)
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
    assert tracks.joint.n_layers == history.n_layers
    assert [len(codes) for codes in tracks.world_codes.values()] == [history.n_layers + 1] * 2
    assert all(row.shape == (history.grid.n_sites,) for codes in tracks.world_codes.values() for row in codes)


# ----------------------------------------------------------------------------
# World-branch crossings


def test_disjoint_branches_never_cross(no_overlap):
    scn, system, history, joint = no_overlap
    tracks = tracks_of(history, joint)
    report = detect_crossings(served(backward_runs(history, joint, scn["seed"], 400)), tracks, system.grid)
    assert report.events.shape == (0, len(EVENT_COLUMNS))
    assert report.crossing_fraction == 0.0
    assert report.violations == 0
    # both particles' ensembles are classified
    assert report.n_trajectories == 800


def test_reconverging_branches_are_crossed(recombination):
    scn, system, history, joint = recombination
    tracks = tracks_of(history, joint)
    report = detect_crossings(served(backward_runs(history, joint, scn["seed"], 400)), tracks, system.grid)
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


def crossings_reference(runs, tracks, layer_labels, grid):
    """Returns (events, violations, crossing_fraction, ambiguous_fraction,
    n_trajectories) as detect_crossings defines them, from each layer's
    joint labels."""
    joint = tracks.joint
    n_layers = joint.n_layers
    events = []
    violations = crossed = ambiguous = total = 0
    for particle, (layers, _) in runs.items():
        axis = particle - 1
        # column c: sites inside component c's projection; column 0 stays empty
        proj = [
            np.stack([(lab == c).any(axis=1 - axis) & (c > 0) for c in range(k + 1)], axis=1)
            for lab, k in zip(layer_labels, joint.n_components)
        ]
        for i in range(len(layers)):
            counts, labels = [], []
            for t in range(n_layers + 1):
                x = float(layers[i, t])
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
    n_traj = sum(len(layers) for layers, _ in runs.values())
    events.sort(key=lambda e: (e[1], e[2], e[0]))
    events = np.array(events, dtype=np.int64).reshape(-1, len(EVENT_COLUMNS))
    return events, violations, crossed / n_traj, ambiguous / total, n_traj


def assert_matches_reference(runs, tracks, labels, grid):
    """detect_crossings, served the runs, against the reference."""
    report = detect_crossings(served(runs), tracks, grid)
    events, violations, crossing_fraction, ambiguous_fraction, n_traj = crossings_reference(
        runs, tracks, labels, grid
    )
    assert report.events.dtype == np.int64
    assert np.array_equal(report.events, events)
    assert report.violations == violations
    assert report.crossing_fraction == crossing_fraction
    assert report.ambiguous_fraction == ambiguous_fraction
    assert report.n_trajectories == n_traj
    assert report.flagged == {particle: int(np.count_nonzero(frozen >= 0)) for particle, (_, frozen) in runs.items()}
    return report


def joint_labels(history, joint):
    """Each layer's joint labels, labelled from its table as the joint
    graph's fold labels it."""
    periodic = history.grid.boundary == "periodic"
    tables = (joint[t] for t in range(history.n_layers + 1))
    return [_label_with_wrap(table > TRACK_THRESHOLD_REL * float(table.max()), periodic)[0] for table in tables]


@pytest.mark.parametrize("seed", [4242, 1729, 7])
def test_crossings_match_the_reference_on_forward_runs(recombination, seed):
    _, system, history, joint = recombination
    tracks = tracks_of(history, joint)
    runs = anchored_layers(history, joint, seed, 300, 4, EPS_NODE_REL, "forward")
    report = assert_matches_reference(runs, tracks, joint_labels(history, joint), system.grid)
    assert len(report.events) > 0


def test_crossings_match_the_reference_on_backward_runs(recombination):
    scn, system, history, joint = recombination
    tracks = tracks_of(history, joint)
    runs = backward_runs(history, joint, scn["seed"], 200)
    assert_matches_reference(runs, tracks, joint_labels(history, joint), system.grid)


def _blocks(n_sites, *blocks):
    """Joint label table: component c covers rows x cols of blocks[c - 1]."""
    lab = np.zeros((n_sites, n_sites), dtype=np.int64)
    for c, (rows, cols) in enumerate(blocks, start=1):
        lab[rows, cols] = c
    return lab


def hand_built_labels(n_sites=8):
    """Joint labels that split at layer 1, keep two branches through layer 5
    and merge them at layer 6.  Along particle 1's axis the branches overlap
    on sites 3-4 at layer 2 (ambiguous) and leave sites 3-4 uncovered at
    layers 3-4."""
    lo, hi, every = slice(0, 4), slice(4, 8), slice(0, 8)
    return [
        _blocks(n_sites, (every, every)),
        _blocks(n_sites, (lo, lo), (hi, hi)),
        _blocks(n_sites, (slice(0, 5), slice(0, 3)), (slice(3, 8), slice(5, 8))),
        _blocks(n_sites, (slice(0, 3), lo), (slice(5, 8), hi)),
        _blocks(n_sites, (slice(0, 3), lo), (slice(5, 8), hi)),
        _blocks(n_sites, (lo, lo), (hi, hi)),
        _blocks(n_sites, (every, every)),
        _blocks(n_sites, (every, every)),
    ]


def hand_built_tracks():
    """The branch graph of hand_built_labels, with their world codes."""
    layers = hand_built_labels()
    edges = [((0, 1), (1, 1)), ((0, 1), (1, 2))]
    edges += [((t, c), (t + 1, c)) for t in range(1, 5) for c in (1, 2)]
    edges += [((5, 1), (6, 1)), ((5, 2), (6, 1)), ((6, 1), (7, 1))]
    joint = TrackGraph(
        name="joint",
        n_components=[int(lab.max()) for lab in layers],
        edges=edges,
        loop_edges=[((5, 2), (6, 1))],
    )
    world_codes = {particle: [_world_codes(lab, particle - 1) for lab in layers] for particle in (1, 2)}
    return TrackSet(joint=joint, marginal={}, world_codes=world_codes)


def site_run(sites):
    """(layers, frozen) of a run whose trajectories sit on the given sites
    per layer and never freeze."""
    layers = np.asarray(sites, dtype=np.float64)
    return layers, np.full(layers.shape[0], -1)


def test_crossings_on_a_hand_built_branch_graph():
    grid = LatticeGrid(8, 1.0, 1.0, 0.0, "periodic")
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
        ),
    }
    report = assert_matches_reference(runs, tracks, hand_built_labels(), grid)
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
        detect_crossings(served({1: short}), hand_built_tracks(), LatticeGrid(8, 1.0, 1.0, 0.0, "periodic"))


def test_crossings_reject_runs_over_more_layers():
    """A run that passes a layer beyond the branch graph's is rejected when
    its fold reaches that layer."""
    long = site_run([[0] * 9])
    with pytest.raises(ValidationError, match="same layers"):
        detect_crossings(served({1: long}), hand_built_tracks(), LatticeGrid(8, 1.0, 1.0, 0.0, "periodic"))
