"""Deterministic artifact writers.

Every writer produces byte-identical output for identical inputs: floats
are rendered with repr (shortest round-trip form), JSON keys are sorted,
newlines are always "\\n", and iteration orders are fixed by the data
structures, never by set or dict insertion accidents.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .guidance import EnsembleRun
from .paths import OverlapTable, PathEnsemble
from .protocols import TrackSet


def fmt(x) -> str:
    return repr(float(x))


def _to_plain(obj):
    """Recursively convert numpy scalars and arrays for JSON output."""
    if isinstance(obj, dict):
        return {str(k): _to_plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_to_plain(v) for v in obj.tolist()]
    # bool precedes int: bool subclasses int and must stay a JSON boolean
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, complex):
        return {"re": float(obj.real), "im": float(obj.imag)}
    return obj


def canonical_json(obj) -> str:
    return json.dumps(_to_plain(obj), sort_keys=True, indent=2) + "\n"


def _open(path: str):
    """Open path for writing text, creating its directory first, so a run
    that fails before it writes anything leaves no directory behind."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    return open(path, "w", encoding="utf-8", newline="\n")


def write_json(path: str, obj) -> None:
    with _open(path) as fh:
        fh.write(canonical_json(obj))


def _write_csv(path: str, header: list[str], rows) -> None:
    with _open(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def write_currents_csv(path: str, density: np.ndarray, current: np.ndarray, positions: np.ndarray) -> None:
    """Per-layer density and current tables: layer, x, j0, j1."""
    n_records, n_sites = density.shape

    def rows():
        for t in range(n_records):
            for i in range(n_sites):
                yield (str(t), fmt(positions[i]), fmt(density[t, i]), fmt(current[t, i]))

    _write_csv(path, ["layer", "x", "j0", "j1"], rows())


def write_overlap_csv(path: str, ensemble: PathEnsemble, table: OverlapTable) -> None:
    """Upper triangle (diagonal included) of every endpoint's overlap matrix.

    Path ids are the ensemble's enumeration ids, so rows can be joined with
    trajectory or amplitude dumps from the same run.
    """
    amps = ensemble.amps

    def rows():
        for flat in sorted(table.groups):
            grp = table.groups[flat]
            loc, spin = grp.endpoint
            ep = f"{loc}:{spin}"
            ids = grp.path_ids
            lam = grp.overlaps
            for i in range(ids.shape[0]):
                for j in range(i, ids.shape[0]):
                    yield (
                        ep,
                        str(int(ids[i])),
                        str(int(ids[j])),
                        fmt(lam[i, j].real),
                        fmt(lam[i, j].imag),
                        fmt(abs(amps[ids[i]])),
                        fmt(abs(amps[ids[j]])),
                    )

    _write_csv(
        path,
        ["endpoint", "p_id", "q_id", "re_overlap", "im_overlap", "abs_amp_p", "abs_amp_q"],
        rows(),
    )


def write_trajectories_csv(path: str, run: EnsembleRun, n_layers: int) -> None:
    """Layer-resolution trajectory table: trajectory_id, layer, position, node_flag.

    node_flag is 1 from the record where the trajectory froze at a masked
    node onward (in the run's own integration order), else 0.
    """
    def rows():
        for layer in range(n_layers + 1):
            if run.direction == "forward":
                rec = layer * run.substeps
            else:
                rec = (n_layers - layer) * run.substeps
            pos = run.positions[:, rec]
            flagged = (run.frozen >= 0) & (run.frozen <= rec)
            for i in range(run.n_trajectories):
                yield (str(i), str(layer), fmt(pos[i]), "1" if flagged[i] else "0")

    _write_csv(path, ["trajectory_id", "layer", "position", "node_flag"], rows())


def write_branch_edges_csv(path: str, tracks: TrackSet) -> None:
    """Edge lists of the joint and marginal branch graphs, loop edges marked."""
    graphs = [tracks.joint, tracks.marginal[1], tracks.marginal[2]]

    def rows():
        for graph in graphs:
            loops = set(graph.loop_edges)
            for edge in graph.edges:
                (t, a), (t1, b) = edge
                yield (
                    graph.name,
                    str(t),
                    str(a),
                    str(t1),
                    str(b),
                    "1" if edge in loops else "0",
                )

    _write_csv(
        path,
        ["graph", "layer_from", "component_from", "layer_to", "component_to", "loop"],
        rows(),
    )
