"""Command line entry point.

Every subcommand loads a scenario (a file path or the name of a bundled
one), applies overrides in the order flag > environment > scenario file >
built-in default, echoes the fully resolved scenario next to its outputs,
and writes deterministic artifacts: rerunning with the same scenario and
seed reproduces every file byte for byte.

Failure modes map to distinct exit codes so callers can branch on them:
2 for schema or input violations, 3 for resource-cap aborts, 4 for
degenerate densities, 1 for anything else.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import exports
from . import paths as pp
from .errors import PilotPathError, ValidationError
from .dirac import marginal_currents, run_walk
from .guidance import equivariance_test, integrate_batch, sample_joint_density, velocity_stack
from .protocols import (
    STREAM_FORWARD_SAMPLE,
    build_tracks,
    detect_crossings,
    retro_run,
    stream_rng,
    superdet_replay,
)
from .scenario import build_circuit, build_walk, bundled_scenario, load_scenario
from .verify import run_verification

ENV_PREFIX = "PILOTPATH_"


def _env(name: str):
    return os.environ.get(ENV_PREFIX + name)


def _resolve_scenario_arg(arg: str) -> dict:
    if os.path.sep in arg or arg.endswith(".json") or os.path.exists(arg):
        if not os.path.exists(arg):
            raise ValidationError(f"scenario file not found: {arg}")
        return load_scenario(arg)
    return bundled_scenario(arg)


def _apply_overrides(scn: dict, args: argparse.Namespace) -> dict:
    seed = args.seed if args.seed is not None else _env("SEED")
    if seed is not None:
        scn["seed"] = int(seed)
    cap = args.path_cap if args.path_cap is not None else _env("PATH_CAP")
    if cap is not None:
        scn["paths"]["pair_cap"] = int(cap)
    return scn


def _out_dir(scn: dict, args: argparse.Namespace, command: str) -> str:
    base = args.out if args.out is not None else (_env("OUT") or "pilotpath-out")
    return exports.ensure_dir(os.path.join(base, scn["name"], command))


def _walk_history(system, record_joint=()):
    return run_walk(system.state0, system.grid, system.layers, record_joint=record_joint)


def _require_walk(scn: dict, command: str) -> None:
    if scn["engine"] != "walk":
        raise ValidationError(f"the {command} command needs a lattice walk scenario")


def _forward_runs(scn, system, history):
    """Forward marginal ensembles for both particles, joint-sampled starts."""
    rng = stream_rng(int(scn["seed"]), STREAM_FORWARD_SAMPLE)
    count = int(scn["protocol"]["count"])
    substeps = int(scn["protocol"]["substeps"])
    eps = float(scn["protocol"]["eps_node_rel"])
    x1, x2 = sample_joint_density(history.joint[0], system.grid, count, rng)
    runs = {}
    for particle, x0 in ((1, x1), (2, x2)):
        stack = velocity_stack(history, particle, eps)
        runs[particle] = integrate_batch(stack, x0, "forward", substeps)
    return runs


# ----------------------------------------------------------------------------
# Subcommands


def cmd_evolve(scn: dict, args) -> int:
    _require_walk(scn, "evolve")
    system = build_walk(scn)
    history = _walk_history(system)
    out = _out_dir(scn, args, "evolve")
    x = system.grid.positions()
    exports.write_currents_csv(os.path.join(out, "currents1.csv"), history.density1, history.current1, x)
    exports.write_currents_csv(os.path.join(out, "currents2.csv"), history.density2, history.current2, x)
    norms = history.density1.sum(axis=1) * system.grid.dx
    exports.write_json(
        os.path.join(out, "evolve_summary.json"),
        {
            "n_layers": system.n_layers,
            "n_sites": system.grid.n_sites,
            "norm_drift": float(np.abs(norms - 1.0).max()),
            "mean_x1_final": float((x * history.density1[-1]).sum() / history.density1[-1].sum()),
            "mean_x2_final": float((x * history.density2[-1]).sum() / history.density2[-1].sum()),
        },
    )
    _echo(scn, out)
    print(f"evolved {system.n_layers} layers; artifacts in {out}")
    return 0


def _path_ensemble(scn: dict, args):
    """Paths over --layer layers, else the scenario's paths.layer (every layer
    of a circuit when it has none)."""
    system = build_walk(scn) if scn["engine"] == "walk" else build_circuit(scn)
    context = system.path_context(scn["paths"]["layer"] if args.layer is None else args.layer)
    return context, pp.enumerate_all(context, system.caps)


def cmd_paths(scn: dict, args) -> int:
    context, ensemble = _path_ensemble(scn, args)
    n = context.n_layers
    table = pp.overlap_table(ensemble)
    out = _out_dir(scn, args, "paths")
    exports.write_overlap_csv(os.path.join(out, "overlaps.csv"), ensemble, table)
    counts = ensemble.endpoint_counts()
    exports.write_json(
        os.path.join(out, "paths_summary.json"),
        {
            "window_layers": n,
            "n_paths": ensemble.n_paths,
            "n_endpoints": int((counts > 0).sum()),
            "pair_count": ensemble.pair_count,
            "max_group": int(counts.max()),
        },
    )
    _echo(scn, out)
    print(f"{ensemble.n_paths} paths over {n} layers, {int((counts > 0).sum())} endpoints; artifacts in {out}")
    return 0


def cmd_currents(scn: dict, args) -> int:
    _require_walk(scn, "currents")
    context, ensemble = _path_ensemble(scn, args)
    n = context.n_layers
    density = pp.path_sum_density(ensemble)
    current = pp.path_sum_current(ensemble)
    marginal = pp.path_sum_marginal(ensemble)

    direct = pp.direct_state(context)
    field = marginal_currents(direct, context.grid)
    direct_marginal = pp.mode_marginal(direct.amps, context.basis)
    gap_density = float(np.abs(density.total - field.j0).max())
    gap_current = float(np.abs(current.value - field.j1).max())
    gap_marginal = float(np.abs(marginal - direct_marginal).max())

    out = _out_dir(scn, args, "currents")
    rows_x = context.grid.positions()
    exports.write_currents_csv(
        os.path.join(out, "path_currents.csv"),
        np.vstack([density.total, field.j0]),
        np.vstack([current.value, field.j1]),
        rows_x,
    )
    exports.write_json(
        os.path.join(out, "currents_compare.json"),
        {
            "window_layers": n,
            "max_gap_density": gap_density,
            "max_gap_current": gap_current,
            "max_gap_marginal": gap_marginal,
            "diagonal_current_max": float(np.abs(current.diagonal_term).max()),
            "cross_term_imag_residue": current.imag_residue,
        },
    )
    _echo(scn, out)
    print(
        f"path sums vs direct evolution over {n} layers: density gap {gap_density:.3e}, "
        f"current gap {gap_current:.3e}; artifacts in {out}"
    )
    return 0


def cmd_guide(scn: dict, args) -> int:
    _require_walk(scn, "guide")
    system = build_walk(scn)
    history = _walk_history(system, record_joint={0})
    runs = _forward_runs(scn, system, history)
    out = _out_dir(scn, args, "guide")
    report = {}
    for particle, run in runs.items():
        stack_density = history.density1 if particle == 1 else history.density2
        ks = equivariance_test(run, stack_density, system.grid)
        exports.write_trajectories_csv(
            os.path.join(out, f"trajectories{particle}.csv"), run, system.n_layers
        )
        report[f"particle{particle}"] = {
            "ks_per_layer": [float(v) for v in ks],
            "worst_ks": float(ks.max()),
            "flagged": run.n_flagged,
        }
    report["count"] = int(scn["protocol"]["count"])
    report["substeps"] = int(scn["protocol"]["substeps"])
    exports.write_json(os.path.join(out, "guide_summary.json"), report)
    _echo(scn, out)
    worst = max(report["particle1"]["worst_ks"], report["particle2"]["worst_ks"])
    print(f"forward ensembles transported; worst layer KS {worst:.4f}; artifacts in {out}")
    return 0


def _retro(scn: dict, system):
    """Backward ensembles anchored at the final layer, at the scenario's node threshold."""
    history = _walk_history(system, record_joint={system.n_layers})
    return retro_run(
        history,
        int(scn["seed"]),
        count=int(scn["protocol"]["count"]),
        substeps=int(scn["protocol"]["substeps"]),
        eps_rel=float(scn["protocol"]["eps_node_rel"]),
    )


def cmd_retro(scn: dict, args) -> int:
    _require_walk(scn, "retro")
    system = build_walk(scn)
    retro = _retro(scn, system)
    out = _out_dir(scn, args, "retro")
    report = {"count": int(scn["protocol"]["count"]), "substeps": retro.substeps}
    for particle in (1, 2):
        run = retro.runs[particle]
        exports.write_trajectories_csv(
            os.path.join(out, f"trajectories{particle}.csv"), run, system.n_layers
        )
        ks = retro.ks[particle]
        report[f"particle{particle}"] = {
            "ks_per_layer": [float(v) for v in ks],
            "worst_ks": float(np.max(ks)),
            "flagged": run.n_flagged,
        }
    exports.write_json(os.path.join(out, "retro_report.json"), report)
    _echo(scn, out)
    worst = max(report["particle1"]["worst_ks"], report["particle2"]["worst_ks"])
    print(f"backward ensembles anchored at the final layer; worst layer KS {worst:.4f}; artifacts in {out}")
    return 0


def cmd_superdet(scn: dict, args) -> int:
    _require_walk(scn, "superdet")
    system = build_walk(scn)
    retro = _retro(scn, system)
    replay = superdet_replay(retro)
    out = _out_dir(scn, args, "superdet")
    report = {
        "max_deviation": replay.max_deviation,
        "total_excluded": replay.total_excluded,
        "count": int(scn["protocol"]["count"]),
        "substeps": retro.substeps,
    }
    for particle in (1, 2):
        dev = replay.deviations[particle]
        finite = dev[np.isfinite(dev)]
        report[f"particle{particle}"] = {
            "excluded": int(replay.excluded[particle]),
            "max_deviation": float(finite.max()) if finite.size else None,
            "median_deviation": float(np.median(finite)) if finite.size else None,
        }
    exports.write_json(os.path.join(out, "superdet_report.json"), report)
    _echo(scn, out)
    print(
        f"replayed {int(scn['protocol']['count'])} configurations; max deviation "
        f"{replay.max_deviation:.3e}, {replay.total_excluded} excluded; artifacts in {out}"
    )
    return 0


def cmd_tracks(scn: dict, args) -> int:
    _require_walk(scn, "tracks")
    system = build_walk(scn)
    history = _walk_history(system, record_joint=range(system.n_layers + 1))
    tracks = build_tracks(history, float(scn["protocol"]["track_threshold_rel"]))
    runs = _forward_runs(scn, system, history)
    crossings = detect_crossings(runs, tracks, system.grid)
    out = _out_dir(scn, args, "tracks")
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
    exports.write_json(os.path.join(out, "tracks_report.json"), report)
    _echo(scn, out)
    print(
        f"joint loop edges {len(tracks.joint.loop_edges)}, marginal loop edges "
        f"{len(tracks.marginal[1].loop_edges)}/{len(tracks.marginal[2].loop_edges)}, "
        f"crossing fraction {crossings.crossing_fraction:.4f}; artifacts in {out}"
    )
    return 0


def cmd_verify(scn: dict, args) -> int:
    report = run_verification(scn)
    out = _out_dir(scn, args, "verify")
    exports.write_json(os.path.join(out, "verify_report.json"), report.to_dict())
    _echo(scn, out)
    for c in report.checks:
        tag = "SKIP" if c.skipped else ("pass" if c.passed else "FAIL")
        line = f"{tag:4s} {c.name}"
        if not c.skipped:
            line += f": {c.value:.3e} (bound {c.bound:.3e})"
        if c.note:
            line += f"  [{c.note}]"
        print(line)
    print(("all checks passed" if report.passed else "verification FAILED") + f"; report in {out}")
    return 0 if report.passed else 1


def _echo(scn: dict, out: str) -> None:
    exports.write_json(os.path.join(out, "scenario.resolved.json"), scn)


COMMANDS = {
    "evolve": cmd_evolve,
    "paths": cmd_paths,
    "currents": cmd_currents,
    "guide": cmd_guide,
    "retro": cmd_retro,
    "superdet": cmd_superdet,
    "tracks": cmd_tracks,
    "verify": cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pilotpath",
        description="Two-particle lattice evolution with path conditioning, "
        "trajectory transport, and branch analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("evolve", "run the layered evolution and export marginal currents"),
        ("paths", "enumerate first-particle paths and export pair overlaps"),
        ("currents", "rebuild densities and currents from path sums and compare"),
        ("guide", "transport forward trajectory ensembles along the marginal flow"),
        ("retro", "anchor ensembles at the final layer and transport backward"),
        ("superdet", "replay backward-reached starts forward and measure deviation"),
        ("tracks", "build branch graphs and classify trajectory crossings"),
        ("verify", "run the invariant battery on the scenario"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--scenario", required=True, help="scenario JSON path or bundled name")
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        p.add_argument("--out", default=None, help="artifact root (default pilotpath-out)")
        p.add_argument(
            "--path-cap", type=int, default=None, help="override the endpoint pair cap"
        )
        if name in ("paths", "currents"):
            p.add_argument("--layer", type=int, default=None, help="path window depth in layers")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scn = _resolve_scenario_arg(args.scenario)
        scn = _apply_overrides(scn, args)
        return COMMANDS[args.command](scn, args)
    except PilotPathError as exc:
        payload = {"error": type(exc).__name__, "message": str(exc), "exit_code": exc.exit_code}
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not raises
        payload = {"error": type(exc).__name__, "message": str(exc), "exit_code": 1}
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
