"""Anchored transport protocols and branch-structure analysis.

Three procedures built on the engine and guidance layers:

- anchored_starts / anchored_runs: draw configurations from the joint
  density at one anchor layer, then transport each particle under its own
  marginal velocity field, one particle at a time as the consumer asks for
  its run.  Forward runs anchor at layer 0 and draw from the forward-sample
  stream; backward runs (the retrocausal reading) anchor at the final
  layer and draw from the final-sample stream.  The joint correlations
  enter only through the draw, so the two transports are independent:
  from FORK_MIN_SUBSTEPS trajectory-substeps per particle, on a process
  that may use two CPUs, a forked child transports particle 2 while
  particle 1's run is transported and consumed here.  The claim under
  test is statistical: at every layer the ensemble must match that layer's
  marginal density.

- superdet_replay: transport anchored starts one way, then run the
  endpoints back the other way through the same stack: `superdet` replays
  backward runs forward from layer 0, `verify` replays a forward run
  backward from the final layer.  The integrator is deterministic and
  near-reversible, so each replay must retrace its run at every substep.
  Only a round trip's outbound run keeps every substep's record, and only
  while it runs; the replay hands its records over one segment at a time
  and is compared there.  The maximum deviation is the reported figure of
  merit.  Round trips that froze on a node, or that reached an edge site
  between reflecting walls (a clamp cannot be retraced), are excluded and
  counted.

- build_tracks / detect_crossings: extract connected support components of
  the joint density ("joint" track) and of each marginal density
  ("marginal" track) per layer, labelled from row runs with numpy alone
  (ndimage.label's 4-connectivity and numbering) and merged across
  periodic seams, link them across layers by overlap into a branch graph,
  and classify trajectory transitions between the projections of joint
  components.  A trajectory changing to a component that is not a
  graph descendant/ancestor of its previous one has crossed between worlds;
  such changes can only happen where two projections overlap on the
  particle's axis.  A trajectory's world at a layer is read from one code
  per site: the component whose projection alone covers it, 0 or -1.

RNG policy: one scenario seed, expanded into independent counter-mode
streams (stream index in the Philox counter), all listed below: final-layer
configurations, layer-0 configurations (forward guidance and verify's
ensemble), randomized circuit unitaries, and the alteration in the circuit
no-signaling check.
"""

from __future__ import annotations

import ctypes
import os
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from typing import NoReturn

import numpy as np

from .dirac import LatticeGrid, WalkHistory
from .errors import DegenerateDensityError, ValidationError
from .guidance import EnsembleRun, VelocityStack, check_direction, integrate_batch
from .guidance import sample_joint_density, transport_records, velocity_stack

STREAM_FINAL_SAMPLE = 0
STREAM_FORWARD_SAMPLE = 1
STREAM_SCENARIO_BUILD = 2
STREAM_CIRCUIT_ALTERATION = 3

# anchored_runs transports particle 2 in a forked child, beside particle
# 1's run, once one particle's transport reaches this many
# trajectory-substeps (count x n_layers x substeps).  A fork and reap costs
# about 2 ms and the pipe about 1 ms per MiB of records, and two transports
# at once each run slower than one alone.  On a 2-CPU host the fork broke
# even near 2**18 trajectory-substeps and won 20 of 21 pairs from 2**18.7;
# while the host was contended it lost up to 2**20.  This is above both.
FORK_MIN_SUBSTEPS = 2**20


def stream_rng(seed: int, stream: int) -> np.random.Generator:
    """Independent, reproducible substream of one scenario seed."""
    return np.random.Generator(
        np.random.Philox(key=[int(seed), 0], counter=[0, 0, int(stream), 0])
    )


# ----------------------------------------------------------------------------
# Anchored runs and superdeterministic replay


def anchored_starts(
    history: WalkHistory, seed: int, count: int, eps_rel: float, direction: str
) -> dict[int, tuple[VelocityStack, np.ndarray]]:
    """Each particle's velocity stack and its starts drawn from the anchor
    layer's joint density.

    Forward runs anchor at layer 0 with STREAM_FORWARD_SAMPLE, backward runs
    at the final layer with STREAM_FINAL_SAMPLE.  Each particle follows the
    velocity field of its own marginal flow, with sites below eps_rel times
    the peak density masked as nodes.
    """
    forward = check_direction(direction)
    anchor = 0 if forward else history.n_layers
    if anchor not in history.joint:
        raise ValidationError(f"{direction} runs need the joint table of layer {anchor}; record it with record_joint")
    rng = stream_rng(seed, STREAM_FORWARD_SAMPLE if forward else STREAM_FINAL_SAMPLE)
    x1, x2 = sample_joint_density(history.joint[anchor], history.grid, count, rng)
    return {particle: (velocity_stack(history, particle, eps_rel), x0) for particle, x0 in ((1, x1), (2, x2))}


def anchored_runs(
    history: WalkHistory, seed: int, count: int, substeps: int, eps_rel: float, direction: str
) -> Iterator[tuple[int, EnsembleRun]]:
    """Sample the anchor layer's joint density, then transport each particle
    from there (see anchored_starts), one at a time.

    Both particles' starts are drawn and their stacks built at the call, and
    a built stack is one its transport accepts (see VelocityStack), so no
    input error surfaces after the first run is yielded.  The returned generator yields
    (particle, run) in particle order and transports a particle only when it
    is asked for the next pair, so a consumer that drops each run before it
    asks holds one run at a time.

    When one particle's transport reaches FORK_MIN_SUBSTEPS
    trajectory-substeps, and the process may fork and run on two CPUs, the
    first next() forks a child that transports particle 2 while particle 1
    is transported here and consumed (see _forked_runs).  The runs are the
    same bit for bit either way.  This process still holds one run at a
    time; the child holds the other while it runs.
    """
    starts = anchored_starts(history, seed, count, eps_rel, direction)
    if count * history.n_layers * substeps >= FORK_MIN_SUBSTEPS and _can_fork():
        return _forked_runs(starts, direction, substeps)
    return (
        (particle, integrate_batch(stack, x0, direction, substeps)) for particle, (stack, x0) in starts.items()
    )


def _can_fork() -> bool:
    """Whether this process can fork and may run on at least two CPUs."""
    if not hasattr(os, "fork"):
        return False
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return cpus >= 2


def _forked_runs(
    starts: dict[int, tuple[VelocityStack, np.ndarray]], direction: str, substeps: int
) -> Iterator[tuple[int, EnsembleRun]]:
    """anchored_runs' two runs, the second transported by a forked child.

    The child runs transport_records and writes the records and freeze
    indices to a pipe.  This process reads them into arrays it allocates
    only when it is asked for the second run, once the consumer has dropped
    the first.  A child that failed makes the read raise.  However the
    generator ends (exhausted, closed, raising or collected), the child is
    killed if it still runs and reaped.
    """
    (first, (stack1, x1)), (second, (stack2, x2)) = starts.items()
    shape = (stack2.n_layers + 1, len(x2))
    read_end, write_end = os.pipe()
    forker = os.getpid()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        _transport_in_child(forker, read_end, write_end, stack2, x2, direction, substeps)
    os.close(write_end)
    reaped = False
    try:
        with open(read_end, "rb") as pipe:
            yield first, integrate_batch(stack1, x1, direction, substeps)
            # kernels.transport's layout: records is the transpose of a
            # C-ordered (n_rec, n) array.  A buffered readinto fills its
            # array unless the pipe ends first.
            records = np.empty(shape)
            frozen = np.empty(shape[1], dtype=np.int64)
            complete = pipe.readinto(records) == records.nbytes and pipe.readinto(frozen) == frozen.nbytes
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        reaped = True
        if code != 0 or not complete:
            raise RuntimeError(f"particle {second}'s transport failed in its forked child (exit code {code})")
        yield second, EnsembleRun(records.T, frozen, direction, substeps)
    finally:
        # A child's copy of this generator never reaps its parent's child.
        if not reaped and os.getpid() == forker:
            # Imported only here, on the rare early end: at module level it
            # would add about a millisecond to every command's start-up.
            import signal

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _transport_in_child(
    forker: int, read_end: int, write_end: int, stack: VelocityStack, x0: np.ndarray, direction: str, substeps: int
) -> NoReturn:
    """The forked child's whole life: transport, write the C-ordered records
    and the freeze indices to write_end, and leave through os._exit, with 0
    only if all of it was written.  An error's traceback goes to stderr.
    The child closes the read end first, so a write fails, rather than
    blocks, once its parent has gone.  Where prctl exists, the child first
    asks for SIGKILL when its parent ends (PR_SET_PDEATHSIG), and leaves if
    the forker has already gone; the signal fires when the forking thread
    ends, not its process."""
    status = 1
    try:
        os.close(read_end)
        prctl = getattr(ctypes.CDLL(None), "prctl", None)
        if prctl is not None:
            import signal

            prctl(1, ctypes.c_ulong(signal.SIGKILL))  # 1 is PR_SET_PDEATHSIG
            if os.getppid() != forker:
                return
        records, frozen = transport_records(stack, x0, direction, substeps)
        with open(write_end, "wb") as pipe:
            pipe.write(records.T)
            pipe.write(frozen)
        status = 0
    except BaseException:
        sys.__excepthook__(*sys.exc_info())
        sys.stderr.flush()
    finally:
        os._exit(status)


@dataclass
class ReplayResult:
    """Replays compared against the runs they retrace; runs holds each
    outbound run at its layer boundaries.

    runs stays because verify reads it: at 32 or more substeps (as on
    entangled-mirror) verify's round trip runs at the scenario's own
    substeps, so verify reads replay.runs[1] layer by layer instead of
    making a second transport.
    """

    max_deviation: float
    deviations: dict[int, np.ndarray]
    excluded: dict[int, int]
    runs: dict[int, EnsembleRun]

    @property
    def total_excluded(self) -> int:
        return sum(self.excluded.values())


def _at_wall(grid: LatticeGrid, block: np.ndarray) -> np.ndarray:
    """Per trajectory of a record-major block: whether a record lies at or
    past an edge site, where bounded transport clamps it."""
    top = grid.x_min + (grid.n_sites - 1) * grid.dx
    return (block.min(axis=0) <= grid.x_min) | (block.max(axis=0) >= top)


def _round_trip(stack: VelocityStack, x0: np.ndarray, direction: str, substeps: int):
    """The outbound run from x0 at its layer boundaries, each trajectory's
    largest gap between it and its replay over every substep, and whether
    that gap is kept: neither run froze on a node and, between reflecting
    walls, neither reached an edge site, since a clamp cannot be retraced."""
    opposite = "backward" if direction == "forward" else "forward"
    grid = stack.grid
    records, frozen = transport_records(stack, x0, direction, substeps, substep_records=True)
    # Record-major: replay record k sits at the same time as run record
    # n_rec-1-k.  The replay hands over its records one segment at a time,
    # and each block's gaps go into a running maximum, so only the outbound
    # run keeps every substep's record.
    theirs = records.T
    n_rec = theirs.shape[0]
    worst = np.full(len(frozen), -np.inf)
    bounded = grid.boundary != "periodic"
    walled = _at_wall(grid, theirs) if bounded else np.zeros(len(frozen), dtype=bool)

    def fold(first, block):
        top = n_rec - first
        gaps = grid.gap(block, theirs[top - len(block) : top][::-1])
        np.maximum(worst, gaps.max(axis=0), out=worst)
        if bounded:
            np.logical_or(walled, _at_wall(grid, block), out=walled)

    _, back_frozen = transport_records(stack, records[:, -1].copy(), opposite, substeps, fold=fold)
    # Copied, so the kept layer records do not hold the substep records alive.
    run = EnsembleRun(theirs[::substeps].copy().T, frozen, direction, substeps)
    return run, worst, (frozen < 0) & (back_frozen < 0) & ~walled


def superdet_replay(
    starts: dict[int, tuple[VelocityStack, np.ndarray]], direction: str, substeps: int
) -> ReplayResult:
    """Transport each particle's starts in the given direction, run the
    endpoints back the other way through the same stack and measure path
    deviation at every substep.

    One particle's round trip runs at a time, and only it holds every
    substep's record; unlike anchored_runs, no child overlaps the two, as
    that would hold two substep arrays at once.  Trajectories flagged on a
    node in either direction, or on a bounded grid reaching an edge site in
    either direction, are excluded from the deviation statistic; their
    count is reported instead.
    """
    deviations = {}
    excluded = {}
    runs = {}
    top = 0.0
    for particle, (stack, x0) in starts.items():
        runs[particle], worst, ok = _round_trip(stack, x0, direction, substeps)
        excluded[particle] = int(np.sum(~ok))
        dev = np.where(ok, worst, np.nan)
        deviations[particle] = dev
        if np.any(ok):
            top = max(top, float(np.nanmax(dev)))
    return ReplayResult(max_deviation=top, deviations=deviations, excluded=excluded, runs=runs)


# ----------------------------------------------------------------------------
# Branch tracks


class _UnionFind:
    def __init__(self):
        self.parent: dict = {}

    def find(self, x):
        p = self.parent.setdefault(x, x)
        while p != self.parent[p]:
            self.parent[p] = self.parent[self.parent[p]]
            p = self.parent[p]
        self.parent[x] = p
        return p

    def union(self, a, b) -> bool:
        """Returns True if a and b were already connected."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return True
        self.parent[rb] = ra
        return False


def _label(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """Connected components of a 1-D or 2-D mask under 4-connectivity, as
    int32 labels numbered from 1 in the raster order of their first cell.

    Each row's runs are found in raster order, runs in adjacent rows that
    share a column are joined, and the joins are merged by hooking the
    larger root under the smaller one with pointer jumping, so a
    component's root is its first run.
    """
    rows = np.atleast_2d(mask)
    n_rows, width = rows.shape[0], rows.shape[1] + 1
    padded = np.zeros((n_rows, width + 1), dtype=bool)
    padded[:, 1:-1] = rows
    # Cell changes of each row, keyed row * width + column, alternate
    # between the start of a run and the column after its end.
    change = (padded[:, 1:] != padded[:, :-1]).ravel().nonzero()[0]
    start, stop = change[0::2], change[1::2]
    root = np.arange(len(start))
    # A single row, as in every marginal mask, has no joins to look for.
    if n_rows > 1:
        # The runs of the row above run j that share a column with it are
        # one contiguous range: from the first that ends after j starts to
        # the last that starts before j ends.  The keys keep each range
        # inside that row.
        lo = stop.searchsorted(start - width, side="right")
        count = start.searchsorted(stop - width) - lo
        np.maximum(count, 0, out=count)
        a = root.repeat(count)
        b = (lo - count.cumsum() + count).repeat(count) + np.arange(len(a))
        while len(a):
            ra, rb = root[a], root[b]
            apart = ra != rb
            a, b, ra, rb = a[apart], b[apart], ra[apart], rb[apart]
            np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
            up = root[root]
            while not (up == root).all():
                root, up = up, up[up]
    first = root == np.arange(len(root))
    labels = np.zeros(rows.size, dtype=np.int32)
    labels[rows.ravel()] = first.cumsum(dtype=np.int32)[root].repeat(stop - start)
    return labels.reshape(mask.shape), int(first.sum())


def _label_with_wrap(mask: np.ndarray, periodic: bool) -> tuple[np.ndarray, int]:
    """Connected components of a support mask, merged across periodic seams."""
    labels, n = _label(mask)
    if not periodic or n < 2:
        return labels, int(labels.max())
    uf = _UnionFind()
    for c in range(1, n + 1):
        uf.find(c)
    seams = []
    if mask.ndim == 1:
        seams.append((labels[0], labels[-1]))
    else:
        seams.extend(zip(labels[0, :], labels[-1, :]))
        seams.extend(zip(labels[:, 0], labels[:, -1]))
    for a, b in seams:
        if a > 0 and b > 0:
            uf.union(int(a), int(b))
    # Merged components are numbered in sorted-root order, from 1.
    roots, index = np.unique([uf.find(c) for c in range(1, n + 1)], return_inverse=True)
    remap = np.zeros(n + 1, dtype=np.int64)
    remap[1:] = index + 1
    return remap[labels], len(roots)


@dataclass
class TrackGraph:
    """Layered branch graph of one density history.

    Nodes are (layer, component-label) pairs; edges link components in
    consecutive layers whose supports overlap.  An edge is a loop edge when
    its two nodes were already connected through earlier layers, i.e. the
    branch structure reconverges.
    """

    name: str
    labels: list[np.ndarray]
    n_components: list[int]
    edges: list[tuple[tuple[int, int], tuple[int, int]]]
    loop_edges: list[tuple[tuple[int, int], tuple[int, int]]] = field(default_factory=list)

    @property
    def n_layers(self) -> int:
        return len(self.labels) - 1


@dataclass
class TrackSet:
    """Joint-support and marginal-support branch graphs of one run."""

    joint: TrackGraph
    marginal: dict[int, TrackGraph]


def _build_graph(tables, name: str, threshold_rel: float, periodic: bool) -> TrackGraph:
    """Branch graph of one density table per layer (any sequence of arrays)."""
    if not 0.0 < threshold_rel < 1.0:
        raise ValidationError("track threshold must lie strictly between 0 and 1")
    labels = []
    counts = []
    for t, table in enumerate(tables):
        peak = float(table.max())
        if peak <= 0.0:
            raise DegenerateDensityError(f"{name}: layer {t} density has no support")
        lab, n = _label_with_wrap(table > threshold_rel * peak, periodic)
        if n == 0:
            raise DegenerateDensityError(f"{name}: threshold leaves no components at layer {t}")
        labels.append(lab)
        counts.append(n)
    edges = []
    loop_edges = []
    uf = _UnionFind()
    for t in range(len(labels) - 1):
        # Each cell coded a * (k_next + 1) + b: ascending codes are the
        # overlapping pairs in the lexicographic order of (a, b).
        width = counts[t + 1] + 1
        found = np.unique(labels[t].astype(np.int64) * width + labels[t + 1])
        pa, pb = np.divmod(found, width)
        both = (pa > 0) & (pb > 0)
        for a, b in zip(pa[both].tolist(), pb[both].tolist()):
            edge = ((t, a), (t + 1, b))
            edges.append(edge)
            if uf.union(edge[0], edge[1]):
                loop_edges.append(edge)
    return TrackGraph(
        name=name,
        labels=labels,
        n_components=counts,
        edges=edges,
        loop_edges=loop_edges,
    )


def build_tracks(history: WalkHistory, threshold_rel: float) -> TrackSet:
    """Branch graphs of the joint density and of both marginal densities.

    Components are supports above threshold_rel times the layer's peak,
    linked across layers by overlap.  Joint components live in the two-
    particle configuration square; marginal components on each particle's
    axis.
    """
    layers = range(history.n_layers + 1)
    if any(t not in history.joint for t in layers):
        raise ValidationError("track analysis needs the joint table of every layer; record them with record_joint")
    periodic = history.grid.boundary == "periodic"
    joint = _build_graph([history.joint[t] for t in layers], "joint", threshold_rel, periodic)
    marginal = {
        1: _build_graph(history.density1, "marginal-1", threshold_rel, periodic),
        2: _build_graph(history.density2, "marginal-2", threshold_rel, periodic),
    }
    return TrackSet(joint=joint, marginal=marginal)


# ----------------------------------------------------------------------------
# World membership and crossing detection


EVENT_COLUMNS = ("layer", "particle", "trajectory", "from_branch", "to_branch")


@dataclass
class CrossingReport:
    """Crossing statistics; events has one int64 row per world-branch change,
    columns EVENT_COLUMNS, ordered by particle, trajectory, layer."""

    events: np.ndarray
    crossing_fraction: float
    violations: int
    n_trajectories: int
    ambiguous_fraction: float


def _world_codes(joint: TrackGraph, axis: int) -> list[np.ndarray]:
    """Per layer, per site of one particle's axis: the joint component whose
    axis projection alone contains the site, 0 where no projection does and
    -1 where several do."""
    tables = []
    for lab in joint.labels:
        # One component covers a site exactly when its smallest and largest
        # positive label across the other axis agree.
        hi = lab.max(axis=1 - axis)
        lo = np.where(lab > 0, lab, np.iinfo(lab.dtype).max).min(axis=1 - axis)
        tables.append(np.where(lo == hi, hi, np.where(hi > 0, -1, 0)).astype(np.int64))
    return tables


def _reachability(joint: TrackGraph) -> tuple[np.ndarray, np.ndarray]:
    """Descendant closure of the branch graph.

    Node (t, c) has index offset[t] + c; reach[u, v] says v is u itself or
    a descendant of u along the graph's edges.
    """
    offset = np.concatenate([[0], np.cumsum(np.asarray(joint.n_components) + 1)])
    reach = np.eye(int(offset[-1]), dtype=bool)
    for (t, a), (_, b) in sorted(joint.edges, reverse=True):
        reach[offset[t] + a] |= reach[offset[t + 1] + b]
    return offset, reach


def _layer_pass(particle: int, run: EnsembleRun, codes, offset, reach, grid: LatticeGrid):
    """One run's pass over the layers, vectorised over trajectories: its
    event rows, violations, crossing trajectories and ambiguous layers.

    Each trajectory's world code is gathered from its layer's table at its
    nearest site (the gather's wrap or clip is the site's % n_sites or
    clip), and each trajectory carries its last labeled layer and world,
    whether an ambiguous layer came since, and whether it ever crossed.
    """
    mode = "wrap" if grid.boundary == "periodic" else "clip"
    n = run.n_trajectories
    last_node = np.zeros(n, dtype=np.int64)
    last_c = np.zeros(n, dtype=np.int64)
    labeled = np.zeros(n, dtype=bool)
    bridged = np.zeros(n, dtype=bool)
    crossed = np.zeros(n, dtype=bool)
    events = []
    violations = 0
    ambiguous_counts = 0
    for t, table in enumerate(codes):
        site = np.floor((run.layer_positions(t) - grid.x_min) / grid.dx + 0.5).astype(np.int64)
        c = table.take(site, mode=mode)
        ambiguous = c < 0
        ambiguous_counts += int(np.count_nonzero(ambiguous))
        bridged |= ambiguous
        single = c > 0
        node = offset[t] + c
        i = np.flatnonzero(single & labeled)
        i = i[~reach[last_node[i], node[i]]]
        events.append(np.stack([np.full_like(i, t), np.full_like(i, particle), i, last_c[i], c[i]], axis=1))
        violations += int(np.count_nonzero(~bridged[i]))
        crossed[i] = True
        np.copyto(last_node, node, where=single)
        np.copyto(last_c, c, where=single)
        labeled |= single
        bridged &= ~single
    return np.concatenate(events), violations, int(np.count_nonzero(crossed)), ambiguous_counts


def detect_crossings(
    runs: Iterable[tuple[int, EnsembleRun]], tracks: TrackSet, grid: LatticeGrid
) -> CrossingReport:
    """Classify world-branch changes of transported trajectories.

    A trajectory's world at a layer is the unique joint component whose
    axis projection contains its position; layers where several
    projections contain it are ambiguous and carry no label.  A change
    between consecutive labeled worlds counts as a crossing when the new
    component is not connected to the old one through the joint branch
    graph; such events must be bridged by at least one ambiguous layer
    (projections overlapping), and transitions violating that are counted
    separately as consistency violations.

    runs is any iterable of (particle, run) pairs, such as anchored_runs'
    generator.  Each run's layer pass (see _layer_pass) finishes, and the
    run is dropped, before the next pair is asked for.
    """
    joint = tracks.joint
    n_layers = joint.n_layers
    # Component labels are numbered per layer, so world identity across
    # layers is decided by graph reachability alone, never by comparing
    # label integers from different layers.
    offset, reach = _reachability(joint)

    events = [np.empty((0, len(EVENT_COLUMNS)), dtype=np.int64)]
    violations = 0
    crossed = 0
    ambiguous_counts = 0
    total_traj = 0
    for particle, run in runs:
        if run.n_layers != n_layers:
            raise ValidationError("every run must pass the same layers as the branch graph")
        rows, n_violations, n_crossed, n_ambiguous = _layer_pass(
            particle, run, _world_codes(joint, particle - 1), offset, reach, grid
        )
        events.append(rows)
        violations += n_violations
        crossed += n_crossed
        ambiguous_counts += n_ambiguous
        total_traj += run.n_trajectories
        # The loop's next() transports the next run before run is rebound.
        del run

    events = np.concatenate(events)
    events = events[np.lexsort((events[:, 0], events[:, 2], events[:, 1]))]
    total_counts = total_traj * (n_layers + 1)
    return CrossingReport(
        events=events,
        crossing_fraction=crossed / total_traj if total_traj else 0.0,
        violations=violations,
        n_trajectories=total_traj,
        ambiguous_fraction=ambiguous_counts / total_counts if total_counts else 0.0,
    )
