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

from .paths import OverlapTable, PathEnsemble
from .protocols import TrackSet


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


def _cells(column) -> list[str]:
    """Text of one column: a float array renders with repr, an integer or
    boolean array as integers, and a list of strings as it is."""
    if not isinstance(column, np.ndarray):
        return column
    if column.dtype.kind == "f":
        return list(map(repr, column.tolist()))
    if column.dtype.kind == "b":
        return np.where(column, "1", "0").tolist()
    return list(map(str, column.astype(np.int64).tolist()))


# How many of a block's rows are formatted and written at once, so that a
# block's text is never held whole.
_SLICE_ROWS = 4096


def _write_block(fh, block) -> None:
    """The rows of a block, a list of equal-length columns, _SLICE_ROWS at
    a time."""
    for lo in range(0, len(block[0]), _SLICE_ROWS):
        rows = zip(*(_cells(column[lo : lo + _SLICE_ROWS]) for column in block))
        fh.write("\n".join(map(",".join, rows)) + "\n")


def _write_table(path: str, header: list[str], blocks) -> None:
    """One CSV table: the header, then the rows of each block in turn."""
    with _open(path) as fh:
        fh.write(",".join(header) + "\n")
        for block in blocks:
            _write_block(fh, block)


def write_currents_csv(path: str, density: np.ndarray, current: np.ndarray, positions: np.ndarray) -> None:
    """Per-layer density and current tables: layer, x, j0, j1."""
    blocks = ([np.full(len(positions), t), positions, d, j] for t, (d, j) in enumerate(zip(density, current)))
    _write_table(path, ["layer", "x", "j0", "j1"], blocks)


def write_overlap_csv(path: str, ensemble: PathEnsemble, table: OverlapTable) -> None:
    """Upper triangle (diagonal included) of every endpoint's overlap matrix.

    Path ids are the ensemble's enumeration ids, so rows can be joined with
    trajectory or amplitude dumps from the same run.
    """
    # np.abs of a complex array can differ from the scalar abs in the last
    # place; hypot matches it bit for bit.
    magnitude = np.hypot(ensemble.amps.real, ensemble.amps.imag)

    def block(grp):
        i, j = np.triu_indices(len(grp.path_ids))
        p, q, lam = grp.path_ids[i], grp.path_ids[j], grp.overlaps[i, j]
        return [["{}:{}".format(*grp.endpoint)] * len(i), p, q, lam.real, lam.imag, magnitude[p], magnitude[q]]

    header = ["endpoint", "p_id", "q_id", "re_overlap", "im_overlap", "abs_amp_p", "abs_amp_q"]
    _write_table(path, header, (block(table.groups[flat]) for flat in sorted(table.groups)))


def write_trajectories_csv(path: str, count: int, fill):
    """Layer-resolution trajectory table of count trajectories: trajectory_id,
    layer, position, node_flag.  fill(write) writes the table a layer at a
    time, write(layer, positions, flags), so a run can be written as its
    transport goes; flags is whether each trajectory had frozen at a masked
    node by the substep at which its run passed the layer.  Returns what
    fill returns."""
    ids = np.arange(count)
    with _open(path) as fh:
        fh.write("trajectory_id,layer,position,node_flag\n")
        return fill(lambda layer, positions, flags: _write_block(fh, [ids, [str(layer)] * count, positions, flags]))


def write_branch_edges_csv(path: str, tracks: TrackSet) -> None:
    """Edge lists of the joint and marginal branch graphs, loop edges marked."""

    def block(graph):
        ends = np.array(graph.edges, dtype=np.int64).reshape(-1, 4)
        loops = set(graph.loop_edges)
        is_loop = np.array([edge in loops for edge in graph.edges], dtype=bool)
        return [[graph.name] * ends.shape[0], *ends.T, is_loop]

    header = ["graph", "layer_from", "component_from", "layer_to", "component_to", "loop"]
    _write_table(path, header, map(block, [tracks.joint, tracks.marginal[1], tracks.marginal[2]]))
