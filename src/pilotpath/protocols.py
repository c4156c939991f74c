"""Anchored transport protocols and branch-structure analysis.

Three procedures built on the engine and guidance layers:

- anchored_starts / anchored_runs: draw configurations from the joint
  density at one anchor layer, then hand each particle's transport under
  its own marginal velocity field to a per-particle consumer, which folds
  its layers as the transport reaches them, returning each particle's
  result.  Forward runs anchor at layer 0 and draw from the forward-sample
  stream; backward runs (the retrocausal reading) anchor at the final
  layer and draw from the final-sample stream.  The claim under test is
  statistical: at every layer the ensemble must match that layer's
  marginal density.

- round_trip / superdet_replay: transport starts one way, then run the
  endpoints back the other way through the same stack: `superdet` replays
  backward-anchored runs forward from layer 0, `verify` replays a forward
  run backward from the final layer.  The integrator is deterministic and
  near-reversible, so each replay must retrace its run at every substep.
  Both legs go through integrate_batch, which hands a fold every
  substep's record one segment at a time: the outbound run's are kept in
  one array while its round trip runs, and the replay's are compared
  against them there.  The maximum deviation is the reported figure of
  merit.  Round trips that froze on a node, or that reached an edge site
  between reflecting walls (a clamp cannot be retraced), are excluded and
  counted.

  The joint correlations enter only through the draw, so each particle's
  run or round trip is independent work, and all of it goes through one
  rule (_per_particle): from FORK_MIN_SUBSTEPS trajectory-substeps per
  particle, on a process that may use two CPUs, a forked child makes
  particle 2's result while particle 1's is made here.

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
  per site: the component whose projection alone covers it, 0 or -1.  The
  joint graph is a fold of the walk (joint_tracks): each layer's joint
  table is labelled, linked to the previous layer's labels and dropped as
  the walk computes it, and only its two rows of world codes are kept, so
  the analysis holds O(n_sites**2 + layers * n_sites), not a table per
  layer.  Each run's crossing pass is the layer fold of its forward
  transport, so no run's records are kept.
"""

from __future__ import annotations

import ctypes
import os
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import partial
from typing import NoReturn

import numpy as np

from .circuit import STREAM_FINAL_SAMPLE, STREAM_FORWARD_SAMPLE, stream_rng
from .dirac import LatticeGrid, WalkHistory
from .errors import DegenerateDensityError, ValidationError
from .guidance import VelocityStack, check_direction, integrate_batch
from .guidance import sample_joint_density, velocity_stack

# _per_particle makes particle 2's result in a forked child, beside
# particle 1's, once one particle's transport reaches this many
# trajectory-substeps (count x n_layers x substeps).  In a warm 55 MiB
# process on a 2-vCPU Xeon VM (Python 3.11.7, numpy 2.4.6), a bare fork,
# _exit and waitpid took 2.4-3.0 ms and _forked_results with a trivial
# result 6.9-7.6 ms (the medians of two runs of 60 calls each), and two
# transports at once each run slower than one alone.
# On a 2-CPU host the fork broke even near 2**18 trajectory-substeps and
# won 20 of 21 pairs from 2**18.7; while the host was contended it lost up
# to 2**20.  This is above both.
FORK_MIN_SUBSTEPS = 2**20


# ----------------------------------------------------------------------------
# Anchored runs and superdeterministic replay


def anchored_starts(
    history: WalkHistory, joint: Mapping[int, np.ndarray], seed: int, count: int, eps_rel: float, direction: str
) -> dict[int, tuple[VelocityStack, np.ndarray]]:
    """Each particle's velocity stack and its starts drawn from the anchor
    layer's joint density.

    joint maps layers to the joint tables that history's walk handed its
    fold (see run_walk), and must hold the anchor layer's.  Forward runs
    anchor at layer 0 with STREAM_FORWARD_SAMPLE, backward runs at the final
    layer with STREAM_FINAL_SAMPLE.  Each particle follows the velocity
    field of its own marginal flow, with sites below eps_rel times the peak
    density masked as nodes.
    """
    forward = check_direction(direction)
    anchor = 0 if forward else history.n_layers
    if anchor not in joint:
        raise ValidationError(f"{direction} runs need the joint table of layer {anchor}; record it with record_joint")
    rng = stream_rng(seed, STREAM_FORWARD_SAMPLE if forward else STREAM_FINAL_SAMPLE)
    x1, x2 = sample_joint_density(joint[anchor], history.grid, count, rng)
    return {particle: (velocity_stack(history, particle, eps_rel), x0) for particle, x0 in ((1, x1), (2, x2))}


def anchored_runs(
    history: WalkHistory,
    joint: Mapping[int, np.ndarray],
    seed: int,
    count: int,
    substeps: int,
    eps_rel: float,
    direction: str,
    consume,
) -> dict:
    """Sample the anchor layer's joint density and return {particle:
    consume(particle, transport)}, where transport(fold) transports that
    particle's ensemble from there (see anchored_starts) as integrate_batch
    does: it hands fold(record, block, frozen) each layer-boundary record
    as the transport reaches it and returns the freeze indices, so that no
    record array is kept.  Each particle is transported and consumed in
    turn.
    Both particles' starts are drawn and their stacks built first, and a
    built stack is one its transport accepts (see VelocityStack), so no
    input error surfaces after a consumer has run.

    Particle 2's run may be transported and consumed in a forked child
    (see _per_particle), so consume's result must pickle.  The results,
    and any error a transport or consumer raises, are the same either way.
    """
    starts = anchored_starts(history, joint, seed, count, eps_rel, direction)

    def result(particle):
        return consume(particle, partial(integrate_batch, *starts[particle], direction, substeps))

    return _per_particle(result, count * history.n_layers * substeps)


def _per_particle(result, substeps: int) -> dict:
    """{1: result(1), 2: result(2)}, where one particle's work is this many
    trajectory-substeps.  From FORK_MIN_SUBSTEPS, where the process may
    fork and run on two CPUs, a forked child makes result(2) meanwhile (see
    _forked_results); otherwise both are made here, in turn."""
    if substeps >= FORK_MIN_SUBSTEPS and _can_fork():
        return _forked_results(result)
    return {particle: result(particle) for particle in (1, 2)}


def _can_fork() -> bool:
    """Whether this process can fork and may run on at least two CPUs."""
    if not hasattr(os, "fork"):
        return False
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return cpus >= 2


def _forked_results(result) -> dict:
    """{1: result(1), 2: result(2)}, result(2) made by a forked child.

    The child pickles back result(2), or the exception it raised, which is
    raised here once result(1) is made.  A child that ends with no result
    makes this raise RuntimeError.  However this call ends, the child is
    killed if it still runs and reaped.
    """
    import pickle

    read_end, write_end = os.pipe()
    forker = os.getpid()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        _run_in_child(forker, read_end, write_end, lambda: result(2))
    os.close(write_end)
    reaped = False
    try:
        with open(read_end, "rb") as pipe:
            first = result(1)
            sent = pipe.read()
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        reaped = True
        if code != 0:
            raise RuntimeError(f"particle 2's run failed in its forked child (exit code {code})")
        done, second = pickle.loads(sent)
        if not done:
            raise second
        return {1: first, 2: second}
    finally:
        if not reaped:
            # Imported only here, on the rare early end: at module level it
            # would add about a millisecond to every command's start-up.
            import signal

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _run_in_child(forker: int, read_end: int, write_end: int, work) -> NoReturn:
    """The forked child's whole life: pickle (True, work()) to write_end,
    or (False, the exception work raised), and leave through os._exit,
    with 0 only if all of it was written.  An error in that, such as a
    result that does not pickle, has its traceback go to stderr.  The child
    closes the read end first, so a write fails, rather than blocks, once
    its parent has gone.  Where prctl exists, the child first asks for
    SIGKILL when its parent ends (PR_SET_PDEATHSIG), and leaves if the
    forker has already gone; the signal fires when the forking thread
    ends, not its process."""
    import pickle

    status = 1
    try:
        os.close(read_end)
        prctl = getattr(ctypes.CDLL(None), "prctl", None)
        if prctl is not None:
            import signal

            prctl(1, ctypes.c_ulong(signal.SIGKILL))  # 1 is PR_SET_PDEATHSIG
            if os.getppid() != forker:
                return
        try:
            outcome = (True, work())
        except Exception as exc:  # noqa: BLE001 - raised again in the parent
            outcome = (False, exc)
        with open(write_end, "wb") as pipe:
            pickle.dump(outcome, pipe)
        status = 0
    except BaseException:
        sys.__excepthook__(*sys.exc_info())
        sys.stderr.flush()
    finally:
        os._exit(status)


def _at_wall(grid: LatticeGrid, block: np.ndarray) -> np.ndarray:
    """Per trajectory of a record-major block: whether a record lies at or
    past an edge site, where bounded transport clamps it."""
    top = grid.x_min + (grid.n_sites - 1) * grid.dx
    return (block.min(axis=0) <= grid.x_min) | (block.max(axis=0) >= top)


def round_trip(stack: VelocityStack, x0: np.ndarray, direction: str, substeps: int):
    """(layers, deviations): the outbound run from x0 at its layer
    boundaries, a record-major (n_layers + 1, n) view in integration order,
    and each trajectory's largest gap between it and its replay the other
    way over every substep.  A deviation is NaN where the round trip is
    excluded: either run froze on a node or, between reflecting walls,
    reached an edge site, since a clamp cannot be retraced."""
    opposite = "backward" if direction == "forward" else "forward"
    grid = stack.grid
    # Record-major: replay record k sits at the same time as run record
    # n_rec-1-k.  Only the outbound run's substep records are kept, and its
    # layer-boundary records are every substeps-th of them; each replay
    # block's gaps go into a running maximum.
    n_rec = stack.n_layers * substeps + 1
    theirs = np.empty((n_rec, len(x0)))

    def keep(first, block, _):
        theirs[first : first + len(block)] = block

    frozen = integrate_batch(stack, x0, direction, substeps, keep, every_substep=True)
    worst = np.full(len(x0), -np.inf)
    bounded = grid.boundary != "periodic"
    walled = _at_wall(grid, theirs) if bounded else np.zeros(len(x0), dtype=bool)

    def compare(first, block, _):
        top = n_rec - first
        gaps = grid.gap(block, theirs[top - len(block) : top][::-1])
        np.maximum(worst, gaps.max(axis=0), out=worst)
        if bounded:
            np.logical_or(walled, _at_wall(grid, block), out=walled)

    back_frozen = integrate_batch(stack, theirs[-1], opposite, substeps, compare, every_substep=True)
    return theirs[::substeps], np.where((frozen < 0) & (back_frozen < 0) & ~walled, worst, np.nan)


def superdet_replay(
    history: WalkHistory, joint: Mapping[int, np.ndarray], seed: int, count: int, substeps: int, eps_rel: float
) -> dict[int, np.ndarray]:
    """{particle: deviations} of the round trips (see round_trip) from
    backward-anchored starts (see anchored_starts): each particle's
    backward run from the final layer is replayed forward from layer 0 and
    compared at every substep.  Each particle's round trip runs where its
    anchored run would (see _per_particle), so where the work forks, the
    child holds particle 2's substep records and this process particle 1's.
    """
    starts = anchored_starts(history, joint, seed, count, eps_rel, "backward")

    def deviations(particle):
        return round_trip(*starts[particle], "backward", substeps)[1]

    return _per_particle(deviations, count * history.n_layers * substeps)


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
    remap = np.zeros(n + 1, dtype=np.int32)
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
    n_components: list[int]
    edges: list[tuple[tuple[int, int], tuple[int, int]]]
    loop_edges: list[tuple[tuple[int, int], tuple[int, int]]] = field(default_factory=list)

    @property
    def n_layers(self) -> int:
        return len(self.n_components) - 1


@dataclass
class TrackSet:
    """Joint-support and marginal-support branch graphs of one run, with the
    joint world codes that crossing detection reads: world_codes[particle]
    is a list of one int64 row per layer, that layer's codes along the
    particle's axis (see _world_codes)."""

    joint: TrackGraph
    marginal: dict[int, TrackGraph]
    world_codes: dict[int, list[np.ndarray]]


_EVERY_LAYER = "track analysis needs the joint table of every layer; record them with record_joint"


class TrackFold:
    """A branch graph built one density table per layer as a walk computes
    them: fold(t, table), t ascending from 0, labels the layer's support
    above threshold_rel times its peak, links it by overlap to the previous
    layer's labels and keeps those labels only until the next layer is
    linked, so no table is kept.  With world_codes it also takes the layer's
    world codes along both particles' axes (see _world_codes).
    """

    def __init__(self, name: str, threshold_rel: float, periodic: bool, world_codes: bool = False):
        if not 0.0 < threshold_rel < 1.0:
            raise ValidationError("track threshold must lie strictly between 0 and 1")
        self.threshold_rel = threshold_rel
        self.periodic = periodic
        self.graph = TrackGraph(name=name, n_components=[], edges=[])
        self.codes = ([], []) if world_codes else ()
        self._joined = _UnionFind()
        self._last = None

    def __call__(self, t: int, table: np.ndarray) -> None:
        graph = self.graph
        if t != len(graph.n_components):
            raise ValidationError(_EVERY_LAYER)
        peak = float(table.max())
        if peak <= 0.0:
            raise DegenerateDensityError(f"{graph.name}: layer {t} density has no support")
        labels, n = _label_with_wrap(table > self.threshold_rel * peak, self.periodic)
        if n == 0:
            raise DegenerateDensityError(f"{graph.name}: threshold leaves no components at layer {t}")
        for axis, rows in enumerate(self.codes):
            rows.append(_world_codes(labels, axis))
        if t:
            # Each cell coded a * (k_next + 1) + b: ascending codes are the
            # overlapping pairs in the lexicographic order of (a, b).
            width = n + 1
            found = np.unique(self._last.astype(np.int64) * width + labels)
            pa, pb = np.divmod(found, width)
            both = (pa > 0) & (pb > 0)
            for a, b in zip(pa[both].tolist(), pb[both].tolist()):
                edge = ((t - 1, a), (t, b))
                graph.edges.append(edge)
                if self._joined.union(edge[0], edge[1]):
                    graph.loop_edges.append(edge)
        self._last = labels
        graph.n_components.append(n)

    def finish(self, n_layers: int) -> TrackGraph:
        """The graph, once layers 0 through n_layers have been folded; the
        last layer's labels and the graph's connectivity are dropped."""
        if self.graph.n_layers != n_layers:
            raise ValidationError(_EVERY_LAYER)
        self._last = self._joined = None
        return self.graph


def joint_tracks(threshold_rel: float, grid: LatticeGrid) -> TrackFold:
    """The joint branch graph's fold, for run_walk to hand every layer's
    joint table (see TrackFold); build_tracks finishes it."""
    return TrackFold("joint", threshold_rel, grid.boundary == "periodic", world_codes=True)


def _build_graph(tables, name: str, threshold_rel: float, periodic: bool) -> TrackGraph:
    """Branch graph of one density table per layer (any sequence of arrays)."""
    fold = TrackFold(name, threshold_rel, periodic)
    for t, table in enumerate(tables):
        fold(t, table)
    return fold.finish(len(tables) - 1)


def build_tracks(history: WalkHistory, joint: TrackFold) -> TrackSet:
    """Branch graphs of the joint density and of both marginal densities.

    joint is the joint graph's fold (see joint_tracks), handed every layer's
    joint table by the walk that made history.  Components are supports
    above its threshold_rel times the layer's peak, linked across layers by
    overlap.  Joint components live in the two-particle configuration
    square; marginal components on each particle's axis.
    """
    graph = joint.finish(history.n_layers)
    periodic = history.grid.boundary == "periodic"
    marginal = {
        p: _build_graph(density, f"marginal-{p}", joint.threshold_rel, periodic)
        for p, density in history.density.items()
    }
    world_codes = {axis + 1: rows for axis, rows in enumerate(joint.codes)}
    return TrackSet(joint=graph, marginal=marginal, world_codes=world_codes)


# ----------------------------------------------------------------------------
# World membership and crossing detection


EVENT_COLUMNS = ("layer", "particle", "trajectory", "from_branch", "to_branch")


@dataclass
class CrossingReport:
    """Crossing statistics; events has one int64 row per world-branch change,
    columns EVENT_COLUMNS, ordered by particle, trajectory, layer.  flagged
    holds each particle's count of trajectories frozen on a node."""

    events: np.ndarray
    crossing_fraction: float
    violations: int
    n_trajectories: int
    ambiguous_fraction: float
    flagged: dict[int, int]


def _world_codes(labels: np.ndarray, axis: int) -> np.ndarray:
    """Per site of one particle's axis, from one layer's joint labels: the
    joint component whose axis projection alone contains the site, 0 where
    no projection does and -1 where several do."""
    # One component covers a site exactly when its smallest and largest
    # positive label across the other axis agree.
    hi = labels.max(axis=1 - axis)
    lo = np.where(labels > 0, labels, np.iinfo(labels.dtype).max).min(axis=1 - axis)
    return np.where(lo == hi, hi, np.where(hi > 0, -1, 0)).astype(np.int64)


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


_OTHER_LAYERS = "every run must pass the same layers as the branch graph"


def _layer_pass(particle: int, transport, codes: list[np.ndarray], offset, reach, grid: LatticeGrid):
    """One run's pass over the layers, vectorised over trajectories and
    folded into its transport: its event rows, violations, crossing
    trajectories, ambiguous layers, trajectories and flagged trajectories.

    transport(fold) must hand fold(t, block, frozen) each layer t's
    positions as a (1, n) block, t ascending from 0, and return the run's
    freeze indices, as a forward transport does (see anchored_runs).  Each
    trajectory's world code is gathered from codes[t], the particle's world
    codes at layer t, at its nearest site, wrapped round a ring or clipped
    to the edge sites, and each trajectory carries its last labeled layer
    and world, whether an ambiguous layer came since, and whether it ever
    crossed, from one layer to the next.
    """
    mode = "wrap" if grid.boundary == "periodic" else "clip"
    events = []
    violations = ambiguous_counts = 0
    carried = None

    def fold(t, block, _):
        nonlocal violations, ambiguous_counts, carried
        if t >= len(codes):
            raise ValidationError(_OTHER_LAYERS)
        x = block[0]
        if t == 0:
            n = len(x)
            carried = [np.zeros(n, dtype=np.int64) for _ in range(2)] + [np.zeros(n, dtype=bool) for _ in range(3)]
        last_node, last_c, labeled, bridged, crossed = carried
        site = np.floor((x - grid.x_min) / grid.dx + 0.5).astype(np.int64)
        c = codes[t].take(site, mode=mode)
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

    frozen = transport(fold)
    if len(events) != len(codes):
        raise ValidationError(_OTHER_LAYERS)
    crossed = carried[-1]
    n_flagged = int(np.count_nonzero(frozen >= 0))
    return np.concatenate(events), violations, int(np.count_nonzero(crossed)), ambiguous_counts, len(crossed), n_flagged


def detect_crossings(runs, tracks: TrackSet, grid: LatticeGrid) -> CrossingReport:
    """Classify world-branch changes of transported trajectories.

    A trajectory's world at a layer is the unique joint component whose
    axis projection contains its position; layers where several
    projections contain it are ambiguous and carry no label.  A change
    between consecutive labeled worlds counts as a crossing when the new
    component is not connected to the old one through the joint branch
    graph; such events must be bridged by at least one ambiguous layer
    (projections overlapping), and transitions violating that are counted
    separately as consistency violations.

    runs(consume) returns {particle: consume(particle, transport)} over
    one or more forward runs, as anchored_runs does with its other
    arguments bound; each run's consume is its layer pass, folded into its
    transport one layer at a time (see _layer_pass), so no run's records
    are kept.
    """
    joint = tracks.joint
    # Component labels are numbered per layer, so world identity across
    # layers is decided by graph reachability alone, never by comparing
    # label integers from different layers.
    offset, reach = _reachability(joint)

    codes = tracks.world_codes
    passes = runs(lambda particle, transport: _layer_pass(particle, transport, codes[particle], offset, reach, grid))
    rows, violations, crossed, ambiguous, trajectories, flagged = zip(*passes.values())
    events = np.concatenate(rows)
    events = events[np.lexsort((events[:, 0], events[:, 2], events[:, 1]))]
    total_traj = sum(trajectories)
    total_counts = total_traj * (joint.n_layers + 1)
    return CrossingReport(
        events=events,
        crossing_fraction=sum(crossed) / total_traj if total_traj else 0.0,
        violations=sum(violations),
        n_trajectories=total_traj,
        ambiguous_fraction=sum(ambiguous) / total_counts if total_counts else 0.0,
        flagged=dict(zip(passes, flagged)),
    )
