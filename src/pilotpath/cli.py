"""Command line entry point.

Every subcommand loads a scenario (a file path or the name of a bundled
one) and applies overrides in the order flag > environment > scenario file >
built-in default, before its one schema validation.  One function,
`run_command`, then builds the scenario's system once, runs the command's
body from `COMMANDS` and writes the body's summary next to an echo of the
fully resolved scenario; a body builds its summary from JSON values
alone, which are written as built.  Artifacts are deterministic: rerunning
with the same scenario and seed reproduces every file byte for byte.  A
transported run is held only where its reader needs it whole: `retro`'s
consumer holds its layer positions until the transport returns, since its
trajectory CSV starts at the layer it reaches last (see
`_trajectory_summary`), and a round trip (`superdet`, `verify`) holds its
outbound run's substep records while the replay runs (see
`protocols.round_trip`).

Failure modes map to distinct exit codes so callers can branch on them:
2 for schema or input violations, 3 for resource-cap aborts, 4 for
degenerate densities, 1 for anything else.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import exports
from . import paths as pp
from .errors import PilotPathError, ValidationError
from .dirac import marginal_fields, run_walk
from .guidance import equivariance_test
from .protocols import anchored_runs, build_tracks, detect_crossings, joint_tracks, superdet_replay
from .scenario import build_circuit, build_walk, read_scenario, resolve_scenario
from .verify import run_verification

ENV_PREFIX = "PILOTPATH_"


def _env(name: str):
    return os.environ.get(ENV_PREFIX + name)


def _int_override(flag, name: str):
    """The flag's value, else the environment variable's as an integer."""
    if flag is not None:
        return flag
    value = _env(name)
    if value is None:
        return None
    try:
        return int(value)
    except ValueError:
        raise ValidationError(f"{ENV_PREFIX}{name} must be an integer, got {value!r}") from None


def load_scenario(arg: str, args: argparse.Namespace) -> dict:
    """The scenario a command runs: the file or bundled scenario named by
    --scenario, with the seed and pair cap overrides written in before its
    one validation, so an override is held to the schema like the file."""
    raw = read_scenario(arg)
    seed = _int_override(args.seed, "SEED")
    cap = _int_override(args.path_cap, "PATH_CAP")
    # A scenario that is not an object, or whose paths is not one, is left
    # for the schema to reject.
    if isinstance(raw, dict):
        if seed is not None:
            raw["seed"] = seed
        if cap is not None and isinstance(raw.setdefault("paths", {}), dict):
            raw["paths"]["pair_cap"] = cap
    return resolve_scenario(raw)


def _walk_history(system, record_joint=(), fold=None):
    return run_walk(system.state0, system.grid, system.layers, record_joint=record_joint, fold=fold)


def _anchored_walk(system, anchor: int):
    """The walk and {anchor: its joint table}, the table an ensemble
    anchored at that layer is drawn from."""
    joint = {}
    return _walk_history(system, {anchor}, joint.__setitem__), joint


def _anchored_runs(scn: dict, history, joint, direction: str, consume):
    """{particle: consume(particle, transport)} over both particles'
    ensembles at the scenario's seed, count, substeps and node threshold,
    anchored at layer 0 (forward) or the final layer (backward), whose
    joint table joint holds; see anchored_runs."""
    p = scn["protocol"]
    return anchored_runs(
        history,
        joint,
        int(scn["seed"]),
        int(p["count"]),
        int(p["substeps"]),
        float(p["eps_node_rel"]),
        direction,
        consume,
    )


def retro_run(system):
    """The walk and {final layer: its joint table}, where `retro` and
    `superdet` anchor their backward ensembles."""
    return _anchored_walk(system, system.n_layers)


def _trajectory_summary(path: str, density, grid, count: int, substeps: int, forward: bool, transport) -> dict:
    """One particle's layer KS, taken in its run's layer fold, and flag count,
    with its trajectory CSV written at path as the run, transport(fold), goes.

    A layer's node_flag covers freezes up to the substep at which the run
    passes it, and the next segment's first substep may still freeze a
    trajectory at the layer's record.  So a forward run writes a layer once
    the next segment has finished, and the last once the transport returns;
    a backward run reaches layer 0 last, so it holds its layers until then.
    """
    n_layers = len(density) - 1
    ks = np.empty(n_layers + 1)
    # The layers not yet written: a forward run's last, a backward run's all.
    held = np.empty((1 if forward else n_layers + 1, count))

    def flags(frozen, layer):
        record = layer if forward else n_layers - layer
        return (frozen >= 0) & (frozen <= record * substeps)

    def run(write):
        def fold(record, block, frozen):
            layer = record if forward else n_layers - record
            ks[layer : layer + 1] = equivariance_test(block, density[layer : layer + 1], grid)
            if forward and layer:
                write(layer - 1, held[0], flags(frozen, layer - 1))
            held[0 if forward else layer] = block[0]

        frozen = transport(fold)
        for layer, positions in enumerate(held, n_layers + 1 - len(held)):
            write(layer, positions, flags(frozen, layer))
        return frozen

    frozen = exports.write_trajectories_csv(path, count, run)
    flagged = int(np.count_nonzero(frozen >= 0))
    return {"ks_per_layer": ks.tolist(), "worst_ks": float(np.max(ks)), "flagged": flagged}


def _ensemble_summary(scn: dict, out: str, history, joint, direction: str):
    """Per-particle KS against the walk's marginals and flag counts, with each
    particle's trajectory CSV written where its run is transported; returns
    the summary and the worst layer KS over both particles."""
    p = scn["protocol"]
    count, substeps = int(p["count"]), int(p["substeps"])
    forward = direction == "forward"

    def summarise(particle, transport):
        path = os.path.join(out, f"trajectories{particle}.csv")
        return _trajectory_summary(path, history.density[particle], history.grid, count, substeps, forward, transport)

    report = {"count": count, "substeps": substeps}
    for particle, summary in _anchored_runs(scn, history, joint, direction, summarise).items():
        report[f"particle{particle}"] = summary
    return report, max(report["particle1"]["worst_ks"], report["particle2"]["worst_ks"])


# ----------------------------------------------------------------------------
# Command bodies: each takes (scenario, built system, parsed args, output
# directory), writes its own CSVs and returns (summary, stdout message).


def _evolve(scn: dict, system, args, out: str):
    history = _walk_history(system)
    x = system.grid.positions()
    summary = {"n_layers": system.n_layers, "n_sites": system.grid.n_sites}
    for p, density in history.density.items():
        exports.write_currents_csv(os.path.join(out, f"currents{p}.csv"), density, history.current[p], x)
        summary[f"mean_x{p}_final"] = float((x * density[-1]).sum() / density[-1].sum())
    norms = history.density[1].sum(axis=1) * system.grid.dx
    summary["norm_drift"] = float(np.abs(norms - 1.0).max())
    return summary, f"evolved {system.n_layers} layers; artifacts in {out}"


def _path_ensemble(scn: dict, system, args):
    """Paths over --layer layers, else the scenario's paths.layer (every layer
    of a circuit when it has none)."""
    context = system.path_context(scn["paths"]["layer"] if args.layer is None else args.layer)
    return context, pp.enumerate_all(context, system.caps)


def _paths(scn: dict, system, args, out: str):
    context, ensemble = _path_ensemble(scn, system, args)
    n = context.n_layers
    exports.write_overlap_csv(os.path.join(out, "overlaps.csv"), ensemble, pp.overlap_table(ensemble))
    counts = ensemble.endpoint_counts()
    n_endpoints = int((counts > 0).sum())
    summary = {
        "window_layers": n,
        "n_paths": ensemble.n_paths,
        "n_endpoints": n_endpoints,
        "pair_count": ensemble.pair_count,
        "max_group": int(counts.max()),
    }
    return summary, f"{ensemble.n_paths} paths over {n} layers, {n_endpoints} endpoints; artifacts in {out}"


def _currents(scn: dict, system, args, out: str):
    context, ensemble = _path_ensemble(scn, system, args)
    n = context.n_layers
    density = pp.path_sum_density(ensemble)
    current = pp.path_sum_current(ensemble)
    marginal = pp.path_sum_marginal(ensemble)

    direct = pp.direct_state(context)
    (direct_density, direct_current), _ = marginal_fields(direct, context.grid)
    direct_marginal = pp.mode_marginal(direct.amps, context.basis)

    exports.write_currents_csv(
        os.path.join(out, "path_currents.csv"),
        np.vstack([density.total, direct_density]),
        np.vstack([current.value, direct_current]),
        context.grid.positions(),
    )
    summary = {
        "window_layers": n,
        "max_gap_density": float(np.abs(density.total - direct_density).max()),
        "max_gap_current": float(np.abs(current.value - direct_current).max()),
        "max_gap_marginal": float(np.abs(marginal - direct_marginal).max()),
        "diagonal_current_max": float(np.abs(current.diagonal_term).max()),
        "cross_term_imag_residue": current.imag_residue,
    }
    message = (
        f"path sums vs direct evolution over {n} layers: density gap {summary['max_gap_density']:.3e}, "
        f"current gap {summary['max_gap_current']:.3e}; artifacts in {out}"
    )
    return summary, message


def _guide(scn: dict, system, args, out: str):
    history, joint = _anchored_walk(system, 0)
    summary, worst = _ensemble_summary(scn, out, history, joint, "forward")
    return summary, f"forward ensembles transported; worst layer KS {worst:.4f}; artifacts in {out}"


def _retro(scn: dict, system, args, out: str):
    history, joint = retro_run(system)
    summary, worst = _ensemble_summary(scn, out, history, joint, "backward")
    return summary, f"backward ensembles anchored at the final layer; worst layer KS {worst:.4f}; artifacts in {out}"


def _superdet(scn: dict, system, args, out: str):
    p = scn["protocol"]
    count = int(p["count"])
    substeps = int(p["substeps"])
    history, joint = retro_run(system)
    deviations = superdet_replay(history, joint, int(scn["seed"]), count, substeps, float(p["eps_node_rel"]))
    kept = {particle: dev[~np.isnan(dev)] for particle, dev in deviations.items()}
    top = max([0.0] + [float(dev.max()) for dev in kept.values() if dev.size])
    excluded = sum(count - dev.size for dev in kept.values())
    report = {"max_deviation": top, "total_excluded": excluded, "count": count, "substeps": substeps}
    for particle, dev in kept.items():
        report[f"particle{particle}"] = {
            "excluded": count - dev.size,
            "max_deviation": float(dev.max()) if dev.size else None,
            "median_deviation": float(np.median(dev)) if dev.size else None,
        }
    message = f"replayed {count} configurations; max deviation {top:.3e}, {excluded} excluded; artifacts in {out}"
    return report, message


def _tracks(scn: dict, system, args, out: str):
    # One walk: every layer's joint table goes into the joint branch graph
    # as the walk computes it, and only layer 0's, where the runs anchor,
    # is kept.
    threshold = float(scn["protocol"]["track_threshold_rel"])
    graph = joint_tracks(threshold, system.grid)
    anchor = {}

    def fold(layer, table):
        if layer == 0:
            anchor[layer] = table
        graph(layer, table)

    history = _walk_history(system, range(system.n_layers + 1), fold)
    tracks = build_tracks(history, graph)
    runs = partial(_anchored_runs, scn, history, anchor, "forward")
    crossings = detect_crossings(runs, tracks, system.grid)
    exports.write_branch_edges_csv(os.path.join(out, "branch_edges.csv"), tracks)
    report = {
        "threshold_rel": threshold,
        "joint": {"components_per_layer": tracks.joint.n_components, "loop_edges": len(tracks.joint.loop_edges)},
        "crossings": {
            "events": len(crossings.events),
            "crossing_fraction": crossings.crossing_fraction,
            "violations": crossings.violations,
            "ambiguous_fraction": crossings.ambiguous_fraction,
            "n_trajectories": crossings.n_trajectories,
        },
    }
    for particle, g in tracks.marginal.items():
        report[f"marginal{particle}"] = {"components_per_layer": g.n_components, "loop_edges": len(g.loop_edges)}
        report[f"particle{particle}"] = {"flagged": crossings.flagged[particle]}
    message = (
        f"joint loop edges {len(tracks.joint.loop_edges)}, marginal loop edges "
        f"{len(tracks.marginal[1].loop_edges)}/{len(tracks.marginal[2].loop_edges)}, "
        f"crossing fraction {crossings.crossing_fraction:.4f}; artifacts in {out}"
    )
    return report, message


def _verify(scn: dict, system, args, out: str):
    report = run_verification(system)
    lines = []
    for c in report.checks:
        tag = "SKIP" if c.skipped else ("pass" if c.passed else "FAIL")
        line = f"{tag:4s} {c.name}"
        if not c.skipped:
            line += f": {c.value:.3e} (bound {c.bound:.3e})"
        if c.note:
            line += f"  [{c.note}]"
        lines.append(line)
    lines.append(("all checks passed" if report.passed else "verification FAILED") + f"; report in {out}")
    return report.to_dict(), "\n".join(lines)


# ----------------------------------------------------------------------------
# The command table and the function that runs its entries


@dataclass(frozen=True)
class Command:
    """A subcommand: help text, body, the summary file run_command writes, whether
    it needs a lattice walk scenario, and whether it takes the --layer flag."""

    help: str
    body: Callable
    summary: str
    walk_only: bool = True
    windowed: bool = False


COMMANDS = {
    "evolve": Command("run the layered evolution and export marginal currents", _evolve, "evolve_summary.json"),
    "paths": Command(
        "enumerate first-particle paths and export pair overlaps",
        _paths, "paths_summary.json", walk_only=False, windowed=True,
    ),
    "currents": Command(
        "rebuild densities and currents from path sums and compare", _currents, "currents_compare.json", windowed=True
    ),
    "guide": Command("transport forward trajectory ensembles along the marginal flow", _guide, "guide_summary.json"),
    "retro": Command("anchor ensembles at the final layer and transport backward", _retro, "retro_report.json"),
    "superdet": Command(
        "replay backward-reached starts forward and measure deviation", _superdet, "superdet_report.json"
    ),
    "tracks": Command("build branch graphs and classify trajectory crossings", _tracks, "tracks_report.json"),
    "verify": Command("run the invariant battery on the scenario", _verify, "verify_report.json", walk_only=False),
}


def run_command(name: str, scn: dict, args: argparse.Namespace) -> int:
    """Build the scenario's system once, run the command body on it, then
    write its summary and the resolved scenario echo and print its message.
    Exits 1 when the summary reports a failed check, else 0."""
    command = COMMANDS[name]
    walk = scn["engine"] == "walk"
    if command.walk_only and not walk:
        raise ValidationError(f"the {name} command needs a lattice walk scenario")
    system = build_walk(scn) if walk else build_circuit(scn)
    base = args.out if args.out is not None else (_env("OUT") or "pilotpath-out")
    out = os.path.join(base, scn["name"], name)
    summary, message = command.body(scn, system, args, out)
    exports.write_json(os.path.join(out, command.summary), summary)
    exports.write_json(os.path.join(out, "scenario.resolved.json"), scn)
    print(message)
    return 1 if summary.get("passed") is False else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pilotpath",
        description="Two-particle lattice evolution with path conditioning, "
        "trajectory transport, and branch analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--scenario", required=True, help="scenario JSON path or bundled name")
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        p.add_argument("--out", default=None, help="artifact root (default pilotpath-out)")
        p.add_argument("--path-cap", type=int, default=None, help="override the endpoint pair cap")
        if command.windowed:
            p.add_argument("--layer", type=int, default=None, help="path window depth in layers")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run_command(args.command, load_scenario(args.scenario, args), args)
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not raises
        code = exc.exit_code if isinstance(exc, PilotPathError) else 1
        payload = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
