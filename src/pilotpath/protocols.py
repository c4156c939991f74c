"""Anchored transport protocols and branch-structure analysis.

Three procedures built on the engine and guidance layers:

- anchored_runs: draw configurations from the joint density at one anchor
  layer, then transport each particle under its own marginal velocity
  field.  Forward runs anchor at layer 0 and draw from the forward-sample
  stream; backward runs (the retrocausal reading) anchor at the final layer
  and draw from the final-sample stream.  The joint correlations enter only
  through the draw.  The claim under test is statistical: at every layer
  the ensemble must match that layer's marginal density.

- superdet_replay: take backward runs' layer-0 endpoints as initial
  conditions and run them forward through the stack each backward run went
  through.  Because the integrator is deterministic and near-reversible,
  each replay must retrace its backward path; the maximum deviation is the
  reported figure of merit.

- build_tracks / detect_crossings: extract connected support components of
  the joint density ("joint" track) and of each marginal density
  ("marginal" track) per layer, link them across layers by overlap into a
  branch graph, and classify trajectory transitions between the projections
  of joint components.  A trajectory changing to a component that is not a
  graph descendant/ancestor of its previous one has crossed between worlds;
  such changes can only happen where two projections overlap on the
  particle's axis.

RNG policy: one scenario seed, expanded into independent counter-mode
streams (stream index in the Philox counter), all listed below: final-layer
configurations, forward-guidance ensembles, randomized circuit unitaries,
and the alteration in the circuit no-signaling check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dirac import LatticeGrid, WalkHistory
from .errors import DegenerateDensityError, ValidationError
from .guidance import EnsembleRun, check_direction, integrate_batch, sample_joint_density, velocity_stack

STREAM_FINAL_SAMPLE = 0
STREAM_FORWARD_SAMPLE = 1
STREAM_SCENARIO_BUILD = 2
STREAM_CIRCUIT_ALTERATION = 3


def stream_rng(seed: int, stream: int) -> np.random.Generator:
    """Independent, reproducible substream of one scenario seed."""
    return np.random.Generator(
        np.random.Philox(key=[int(seed), 0], counter=[0, 0, int(stream), 0])
    )


# ----------------------------------------------------------------------------
# Anchored runs and superdeterministic replay


def anchored_runs(
    history: WalkHistory, seed: int, count: int, substeps: int, eps_rel: float, direction: str
) -> dict[int, EnsembleRun]:
    """Sample the anchor layer's joint density, transport each particle from there.

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
    return {
        particle: integrate_batch(velocity_stack(history, particle, eps_rel), x0, direction, substeps)
        for particle, x0 in ((1, x1), (2, x2))
    }


@dataclass
class ReplayResult:
    """Forward replays compared against their backward sources."""

    max_deviation: float
    deviations: dict[int, np.ndarray]
    excluded: dict[int, int]

    @property
    def total_excluded(self) -> int:
        return sum(self.excluded.values())


def superdet_replay(runs: dict[int, EnsembleRun]) -> ReplayResult:
    """Run backward endpoints forward through their own stacks and measure
    path deviation.

    Trajectories flagged on a node in either direction are excluded from
    the deviation statistic; their count is reported instead.
    """
    deviations = {}
    excluded = {}
    top = 0.0
    for particle, back in runs.items():
        fwd = integrate_batch(back.stack, back.positions[:, -1].copy(), "forward", back.substeps)
        # Backward record k sits at the same time as forward record n_rec-1-k.
        gaps = back.stack.grid.gap(fwd.positions, back.positions[:, ::-1])
        ok = (back.frozen < 0) & (fwd.frozen < 0)
        excluded[particle] = int(np.sum(~ok))
        dev = np.where(ok, gaps.max(axis=1), np.nan)
        deviations[particle] = dev
        if np.any(ok):
            top = max(top, float(np.nanmax(dev)))
    return ReplayResult(max_deviation=top, deviations=deviations, excluded=excluded)


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


def _label_with_wrap(mask: np.ndarray, periodic: bool) -> tuple[np.ndarray, int]:
    """Connected components of a support mask, merged across periodic seams."""
    from scipy import ndimage

    labels, n = ndimage.label(mask)
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
        a, b = labels[t], labels[t + 1]
        both = (a > 0) & (b > 0)
        pairs = np.unique(np.stack([a[both], b[both]], axis=1), axis=0) if np.any(both) else []
        for pa, pb in pairs:
            edge = ((t, int(pa)), (t + 1, int(pb)))
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


def _site_of(positions: np.ndarray, grid: LatticeGrid) -> np.ndarray:
    u = np.floor((positions - grid.x_min) / grid.dx + 0.5).astype(np.int64)
    if grid.boundary == "periodic":
        return u % grid.n_sites
    return np.clip(u, 0, grid.n_sites - 1)


def _projection_tables(joint: TrackGraph, axis: int):
    """Per layer: (site, component) membership of joint-component projections."""
    tables = []
    for t in range(len(joint.labels)):
        lab = joint.labels[t]
        k = joint.n_components[t]
        n = lab.shape[axis]
        proj = np.zeros((n, k + 1), dtype=bool)
        for c in range(1, k + 1):
            hit = (lab == c).any(axis=1 - axis)
            proj[:, c] = hit
        tables.append(proj)
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


def detect_crossings(
    runs: dict[int, EnsembleRun], tracks: TrackSet, grid: LatticeGrid
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

    One pass over the layers, vectorised over trajectories: each
    trajectory carries its last labeled layer and world, whether an
    ambiguous layer came since, and whether it ever crossed.
    """
    joint = tracks.joint
    n_layers = joint.n_layers
    if any(run.n_layers != n_layers for run in runs.values()):
        raise ValidationError("every run must pass the same layers as the branch graph")
    # Component labels are numbered per layer, so world identity across
    # layers is decided by graph reachability alone, never by comparing
    # label integers from different layers.
    offset, reach = _reachability(joint)

    events = [np.empty((0, len(EVENT_COLUMNS)), dtype=np.int64)]
    violations = 0
    crossed = 0
    ambiguous_counts = 0
    total_counts = 0

    for particle, run in runs.items():
        proj = _projection_tables(joint, axis=particle - 1)
        n = run.n_trajectories
        last_node = np.zeros(n, dtype=np.int64)
        last_c = np.zeros(n, dtype=np.int64)
        labeled = np.zeros(n, dtype=bool)
        bridged = np.zeros(n, dtype=bool)
        traj_crossed = np.zeros(n, dtype=bool)
        for t in range(n_layers + 1):
            site = _site_of(run.layer_positions(t), grid)
            tab = proj[t]
            count = tab.sum(axis=1)[site]
            c = np.argmax(tab, axis=1)[site]
            ambiguous = count > 1
            ambiguous_counts += int(np.count_nonzero(ambiguous))
            total_counts += n
            bridged |= ambiguous
            single = count == 1
            node = offset[t] + c
            event = single & labeled
            event[event] = ~reach[last_node[event], node[event]]
            i = np.flatnonzero(event)
            events.append(
                np.stack(
                    [np.full_like(i, t), np.full_like(i, particle), i, last_c[i], c[i]], axis=1
                )
            )
            violations += int(np.count_nonzero(event & ~bridged))
            traj_crossed |= event
            last_node[single] = node[single]
            last_c[single] = c[single]
            labeled |= single
            bridged[single] = False
        crossed += int(np.count_nonzero(traj_crossed))

    events = np.concatenate(events)
    events = events[np.lexsort((events[:, 0], events[:, 2], events[:, 1]))]
    total_traj = sum(run.n_trajectories for run in runs.values())
    return CrossingReport(
        events=events,
        crossing_fraction=crossed / total_traj if total_traj else 0.0,
        violations=violations,
        n_trajectories=total_traj,
        ambiguous_fraction=ambiguous_counts / total_counts if total_counts else 0.0,
    )
