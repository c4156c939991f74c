"""Invariant battery: structural identities checked on a built scenario.

Each check states what must hold for any correct run of the engines, with
the bound it is held to.  The battery is scenario-driven so the checks run
on the system the user actually configured, not on a toy stand-in; checks
that need a product start are skipped (with the reason recorded) when the
scenario begins entangled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import paths as pp
from .circuit import STREAM_CIRCUIT_ALTERATION, CircuitLayer, evolve_circuit, haar_unitary, stream_rng
from .dirac import PotentialField, build_dirac_step, continuity_residual, run_walk
from .errors import ResourceCapError, ValidationError
from .guidance import equivariance_test, integrate_batch
from .protocols import anchored_starts, round_trip
from .scenario import CircuitSystem, WalkSystem


@dataclass
class CheckResult:
    name: str
    passed: bool
    value: float
    bound: float
    note: str = ""
    skipped: bool = False


@dataclass
class VerifyReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed or c.skipped for c in self.checks)

    def add(self, name: str, value: float, bound: float, note: str = "") -> None:
        self.checks.append(CheckResult(name, bool(value <= bound), float(value), float(bound), note))

    def skip(self, name: str, note: str) -> None:
        self.checks.append(CheckResult(name, False, float("nan"), float("nan"), note, skipped=True))

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "skipped": c.skipped,
                    "value": None if np.isnan(c.value) else c.value,
                    "bound": None if np.isnan(c.bound) else c.bound,
                    "note": c.note,
                }
                for c in self.checks
            ],
        }


def _verify_paths(report: VerifyReport, scn: dict, system, with_current: bool) -> None:
    """Path checks over the scenario's path window.  They are skipped, with
    the reason, where conditioning is undefined or a path cap is reached."""
    names = ["path_equivalence", "overlap_magnitude"]
    if with_current:
        names.append("diagonal_current_zero")
    try:
        context = system.path_context(scn["paths"]["layer"])
        ens = pp.enumerate_all(context, system.caps)
        direct = pp.direct_state(context)
        table = pp.overlap_table(ens)
        cur = pp.path_sum_current(ens) if with_current else None
    except (ValidationError, ResourceCapError) as exc:
        for name in names:
            report.skip(name, str(exc))
        return

    resid = float(np.abs(ens.reconstruct_rows() - direct.amps).max())
    report.add("path_equivalence", resid, 1e-10, f"{ens.n_paths} paths over {context.n_layers} layers")

    worst_mag = max(float(np.abs(grp.overlaps).max()) for grp in table.groups.values())
    report.add("overlap_magnitude", max(worst_mag - 1.0, 0.0), 1e-12)

    if with_current:
        report.add(
            "diagonal_current_zero",
            float(np.abs(cur.diagonal_term).max()),
            0.0,
            "velocity matrix has zero diagonal, so same-path terms vanish identically",
        )


def _verify_walk(scn: dict, system: WalkSystem, report: VerifyReport) -> None:
    grid = system.grid
    n_layers = system.n_layers

    # Altering what happens to the second particle must leave the first
    # particle's marginal density untouched.  Each run reads that marginal
    # through the Gram matrix of its own evolved second-particle factor,
    # recomputed at every layer, so the altered steps reach the comparison.
    # With coupling layers present only alterations after the last coupling
    # are marginal-preserving (a coupling is an interaction, not signaling),
    # so the alteration window shrinks accordingly.
    first_safe = max((t + 1 for t, layer in enumerate(system.layers) if layer.phases is not None), default=0)
    mid = n_layers // 2
    joint = {}
    history = run_walk(system.state0, grid, system.layers, record_joint={0}, fold=joint.__setitem__)
    norms = history.density1.sum(axis=1) * grid.dx
    report.add("unitarity_drift", float(np.abs(norms - 1.0).max()), 1e-10)
    norms2 = history.density2.sum(axis=1) * grid.dx
    report.add("marginal_normalization", float(np.abs(norms2 - 1.0).max()), 1e-10)

    p2 = scn["particles"][1]
    alt_potential = PotentialField.barrier(grid, 0.83, grid.x_min + 0.25 * grid.extent, grid.x_min + 0.6 * grid.extent)
    alt_step2 = build_dirac_step(grid, float(p2["mass"]), 1.0, alt_potential)
    if first_safe >= n_layers:
        report.skip("no_signaling", "a coupling acts at the final layer; no local-change window")
    else:
        # Layers from first_safe on are uncoupled, so their u_a is the first
        # particle's own step.
        alt = CircuitLayer(system.layers[-1].u_a, alt_step2)
        alt_history = run_walk(system.state0, grid, system.layers[:first_safe] + [alt] * (n_layers - first_safe))
        gap = float(np.abs(history.density1 - alt_history.density1).max())
        note = (
            "second particle's potential replaced on every layer"
            if first_safe == 0
            else f"second particle's potential replaced from layer {first_safe} on"
        )
        report.add("no_signaling", gap, 1e-12, note)

    report.add(
        "continuity_residual",
        continuity_residual(history, mid),
        5.0 * grid.dx,
        f"layers {mid}-{mid + 1}; discretization residual, first order in the spacing",
    )

    _verify_paths(report, scn, system, with_current=True)

    # The first particle's ensemble is drawn as forward guidance draws it:
    # from layer 0's joint table on the forward-sample stream.
    substeps = int(scn["protocol"]["substeps"])
    count = min(int(scn["protocol"]["count"]), 2000)
    stack, x0 = anchored_starts(history, joint, int(scn["seed"]), count, scn["protocol"]["eps_node_rel"], "forward")[1]
    # The round trip is run at a fixed fine substep count so the bound does
    # not depend on the scenario's protocol settings.  When the scenario's
    # own run is that fine, the round trip's outbound run is it, and the
    # equivariance check reads its layers; otherwise it folds its own run.
    rev_sub = max(substeps, 32)
    if rev_sub != substeps:
        ks = np.empty(history.n_layers + 1)

        def fold(t, block, _):
            ks[t : t + 1] = equivariance_test(block, history.density1[t : t + 1], grid)

        integrate_batch(stack, x0, "forward", substeps, fold)
    layers, deviations = round_trip(stack, x0, "forward", rev_sub)
    if rev_sub == substeps:
        ks = equivariance_test(layers, history.density1, grid)
    kept = int(np.count_nonzero(~np.isnan(deviations)))
    # Between reflecting walls, round trips that reach an edge site are
    # excluded as well.
    walled = grid.boundary != "periodic"
    if kept:
        flagged = "node-flagged or wall-touching" if walled else "node-flagged"
        report.add(
            "reversibility",
            float(np.nanmax(deviations)),
            5e-6,
            f"{kept}/{count} round trips at {rev_sub} substeps, every record, {flagged} excluded",
        )
    else:
        report.skip("reversibility", "every trajectory hit a node-masked region" + (" or an edge site" if walled else ""))

    report.add(
        "equivariance_quick",
        float(np.max(ks)),
        float(scn["protocol"]["equivariance_bound"]),
        f"{count} samples, worst layer KS; bound set by the scenario's resolution",
    )


def _verify_circuit(scn: dict, system: CircuitSystem, report: VerifyReport) -> None:
    context = system.path_context(None)
    state = context.initial_state()
    drift = 0.0
    for layer in context.layers:
        state = evolve_circuit(state, [layer])
        drift = max(drift, abs(float(np.linalg.norm(state.amps)) - 1.0))
    report.add("unitarity_drift", drift, 1e-10)

    # A local change on the second particle with no coupling acting after
    # it cannot move the first particle's mode probabilities.  Couplings
    # applied in the same layer sit after the one-particle unitaries and
    # are phase-diagonal, so replacing the final layer's second-particle
    # unitary is always a marginal-preserving alteration.
    rng = stream_rng(int(scn["seed"]), STREAM_CIRCUIT_ALTERATION)
    last = context.layers[-1]
    alt_last = CircuitLayer(last.u_a, haar_unitary(context.basis.dim_b, rng), last.phases)
    alt = evolve_circuit(context.initial_state(), context.layers[:-1] + [alt_last])
    gap = np.abs(pp.mode_marginal(state.amps, context.basis) - pp.mode_marginal(alt.amps, context.basis))
    report.add("no_signaling", float(gap.max()), 1e-12, "final-layer alteration")

    _verify_paths(report, scn, system, with_current=False)


def run_verification(system: WalkSystem | CircuitSystem) -> VerifyReport:
    """Run every applicable invariant check on a built scenario system."""
    report = VerifyReport()
    check = _verify_walk if isinstance(system, WalkSystem) else _verify_circuit
    check(system.scenario, system, report)
    return report
