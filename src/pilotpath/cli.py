"""Command line entry point.

Every subcommand loads a scenario (a file path or the name of a bundled
one) and applies overrides in the order flag > environment > scenario file >
built-in default, before its one schema validation.  One function,
`run_command`, then builds the scenario's system once, runs the command's
body from `COMMANDS` and writes the body's summary next to an echo of the
fully resolved scenario.  Artifacts are deterministic: rerunning with the
same scenario and seed reproduces every file byte for byte.

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
from typing import Callable

import numpy as np

from . import exports
from . import paths as pp
from .errors import PilotPathError, ValidationError
from .dirac import marginal_fields, run_walk
from .guidance import equivariance_test
from .protocols import anchored_runs, anchored_starts, build_tracks, detect_crossings, superdet_replay
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


def _walk_history(system, record_joint=()):
    return run_walk(system.state0, system.grid, system.layers, record_joint=record_joint)


def _anchored_runs(scn: dict, history, direction: str, consume):
    """{particle: consume(particle, run)} over both particles' ensembles at
    the scenario's seed, count, substeps and node threshold, anchored at
    layer 0 (forward) or the final layer (backward); see anchored_runs."""
    p = scn["protocol"]
    return anchored_runs(
        history,
        int(scn["seed"]),
        int(p["count"]),
        int(p["substeps"]),
        float(p["eps_node_rel"]),
        direction,
        consume,
    )


def retro_run(system):
    """The walk with its final joint table, where `retro` and `superdet`
    anchor their backward ensembles."""
    return _walk_history(system, record_joint={system.n_layers})


def _ensemble_summary(scn: dict, out: str, history, direction: str):
    """Per-particle KS against the walk's marginals and flag counts, with each
    particle's trajectory CSV written where its run is transported; returns
    the summary and the worst layer KS over both particles."""
    densities = {1: history.density1, 2: history.density2}

    def summarise(particle, run):
        ks = equivariance_test(run, densities[particle], history.grid)
        exports.write_trajectories_csv(os.path.join(out, f"trajectories{particle}.csv"), run)
        return {"ks_per_layer": [float(v) for v in ks], "worst_ks": float(np.max(ks)), "flagged": run.n_flagged}

    report = {"count": int(scn["protocol"]["count"]), "substeps": int(scn["protocol"]["substeps"])}
    for particle, summary in _anchored_runs(scn, history, direction, summarise).items():
        report[f"particle{particle}"] = summary
    return report, max(report["particle1"]["worst_ks"], report["particle2"]["worst_ks"])


# ----------------------------------------------------------------------------
# Command bodies: each takes (scenario, built system, parsed args, output
# directory), writes its own CSVs and returns (summary, stdout message).


def _evolve(scn: dict, system, args, out: str):
    history = _walk_history(system)
    x = system.grid.positions()
    exports.write_currents_csv(os.path.join(out, "currents1.csv"), history.density1, history.current1, x)
    exports.write_currents_csv(os.path.join(out, "currents2.csv"), history.density2, history.current2, x)
    norms = history.density1.sum(axis=1) * system.grid.dx
    summary = {
        "n_layers": system.n_layers,
        "n_sites": system.grid.n_sites,
        "norm_drift": float(np.abs(norms - 1.0).max()),
        "mean_x1_final": float((x * history.density1[-1]).sum() / history.density1[-1].sum()),
        "mean_x2_final": float((x * history.density2[-1]).sum() / history.density2[-1].sum()),
    }
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
    history = _walk_history(system, record_joint={0})
    summary, worst = _ensemble_summary(scn, out, history, "forward")
    return summary, f"forward ensembles transported; worst layer KS {worst:.4f}; artifacts in {out}"


def _retro(scn: dict, system, args, out: str):
    history = retro_run(system)
    summary, worst = _ensemble_summary(scn, out, history, "backward")
    return summary, f"backward ensembles anchored at the final layer; worst layer KS {worst:.4f}; artifacts in {out}"


def _superdet(scn: dict, system, args, out: str):
    p = scn["protocol"]
    starts = anchored_starts(retro_run(system), int(scn["seed"]), int(p["count"]), float(p["eps_node_rel"]), "backward")
    replay = superdet_replay(starts, "backward", int(p["substeps"]))
    report = {
        "max_deviation": replay.max_deviation,
        "total_excluded": replay.total_excluded,
        "count": int(p["count"]),
        "substeps": int(p["substeps"]),
    }
    for particle in (1, 2):
        dev = replay.deviations[particle]
        finite = dev[np.isfinite(dev)]
        report[f"particle{particle}"] = {
            "excluded": int(replay.excluded[particle]),
            "max_deviation": float(finite.max()) if finite.size else None,
            "median_deviation": float(np.median(finite)) if finite.size else None,
        }
    message = (
        f"replayed {int(p['count'])} configurations; max deviation "
        f"{replay.max_deviation:.3e}, {replay.total_excluded} excluded; artifacts in {out}"
    )
    return report, message


def _tracks(scn: dict, system, args, out: str):
    history = _walk_history(system, record_joint=range(system.n_layers + 1))
    tracks = build_tracks(history, float(scn["protocol"]["track_threshold_rel"]))
    crossings = detect_crossings(lambda consume: _anchored_runs(scn, history, "forward", consume), tracks, system.grid)
    exports.write_branch_edges_csv(os.path.join(out, "branch_edges.csv"), tracks)
    report = {
        "threshold_rel": float(scn["protocol"]["track_threshold_rel"]),
        "joint": {
            "components_per_layer": [int(k) for k in tracks.joint.n_components],
            "loop_edges": len(tracks.joint.loop_edges),
        },
        "crossings": {
            "events": len(crossings.events),
            "crossing_fraction": crossings.crossing_fraction,
            "violations": crossings.violations,
            "ambiguous_fraction": crossings.ambiguous_fraction,
            "n_trajectories": crossings.n_trajectories,
        },
    }
    for particle in (1, 2):
        g = tracks.marginal[particle]
        report[f"marginal{particle}"] = {
            "components_per_layer": [int(k) for k in g.n_components],
            "loop_edges": len(g.loop_edges),
        }
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
