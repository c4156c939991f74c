"""Acceptance battery for the package's headline claims.

One test per claim, in order: path-sum equivalence against direct
evolution, overlap invariants, the exactly vanishing diagonal current,
continuity convergence order, transport equivariance, backward-in-time
marginal preservation, forward replay determinism, branch-track
structure, and engine no-signaling.  Each test prints a single summary
line (visible even under output capture) before asserting its bound.
"""

import numpy as np
import pytest

from pilotpath.circuit import STREAM_FORWARD_SAMPLE, JointState, evolve_circuit, stream_rng
from pilotpath.dirac import (
    LatticeGrid,
    NAMED_SPINORS,
    PotentialField,
    build_dirac_step,
    continuity_residual,
    gaussian_profile,
    marginal_fields,
    run_walk,
    to_circuit_layers,
)
from pilotpath.guidance import equivariance_test, integrate_batch, sample_joint_density, velocity_stack
from pilotpath.paths import (
    PathCaps,
    PathContext,
    direct_state,
    enumerate_all,
    overlap_table,
    path_sum_current,
    path_sum_density,
    path_sum_marginal,
)
from pilotpath.protocols import detect_crossings, superdet_replay
from pilotpath.scenario import build_walk, load_scenario

from conftest import (
    anchored_layers,
    kron_evolve,
    layer_records,
    make_rng,
    random_layers,
    random_state_vector,
    served,
    small_walk_context,
    spinor_field,
    tracks_of,
    truncated_profile,
    walk_tables,
)
from oracles import pair_overlap, scaled, to_path, two_body_continuity_residual

CAPS = PathCaps(pair_cap=5_000_000, memory_cap_bytes=2**31)


def announce(capsys, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")


# ----------------------------------------------------------------------------
# Shared scenario sets


def _circuit_cases():
    from pilotpath.circuit import ModeSpinBasis

    cases = []
    rng = make_rng(811)
    for k in range(20):
        modes_a = 1 + (k % 4)
        modes_b = int(rng.integers(1, 4))
        n = 1 + ((k // 4) % 4)
        if modes_a == 4:
            n = min(n, 3)
        basis = ModeSpinBasis(modes_a, 2, modes_b, 2)
        layers = random_layers(basis, n, rng, coupling_scale=0.8 if k % 2 else 0.0)
        if k % 3 == 0 and basis.dim_a <= 6:
            psi1 = random_state_vector(basis.dim_a, rng)
        else:
            psi1 = np.zeros(basis.dim_a, dtype=np.complex128)
            psi1[int(rng.integers(0, basis.dim_a))] = 1.0
        psi2 = random_state_vector(basis.dim_b, rng)
        context = PathContext(layers, basis, psi1, psi2)
        cases.append(
            {
                "name": f"circuit-{k}",
                "kind": "circuit",
                "context": context,
                "n": n,
                "modes_a": modes_a,
            }
        )
    return cases


def _coupled_walk_context():
    rng = make_rng(905)
    grid = LatticeGrid(12, 1.0, 0.8, 0.0, "periodic")
    step1 = build_dirac_step(grid, 0.3, 0.0)
    step2 = build_dirac_step(grid, 0.2, 0.0)
    table = rng.uniform(-np.pi, np.pi, (48, 48))
    layers = to_circuit_layers(step1, step2, 3, {1: table})
    psi1 = spinor_field(truncated_profile(grid, 4, 1), NAMED_SPINORS["chirality+"])
    psi2 = spinor_field(gaussian_profile(grid, 8.0, 1.5), NAMED_SPINORS["up"])
    return PathContext(layers, grid.basis(), psi1, psi2, grid=grid)


def _reflecting_walk_context():
    grid = LatticeGrid(14, 1.0, 0.8, 0.0, "reflecting")
    step1 = build_dirac_step(grid, 0.2, 0.0)
    step2 = build_dirac_step(grid, 0.4, 0.0)
    layers = to_circuit_layers(step1, step2, 4)
    prof = np.zeros(14)
    prof[7] = 1.0
    psi1 = spinor_field(prof, NAMED_SPINORS["chirality-"])
    psi2 = spinor_field(gaussian_profile(grid, 3.0, 1.2), NAMED_SPINORS["down"])
    return PathContext(layers, grid.basis(), psi1, psi2, grid=grid)


def _walk_cases():
    grid16 = LatticeGrid(16, 1.0, 1.0, 0.0, "periodic")
    a1 = 0.4 * np.sin(2.0 * np.pi * np.arange(16) / 16.0)
    specs = [
        ("walk-massless-point", small_walk_context(12, 5, 0.0, 0.4, make_rng(901)), 5),
        (
            "walk-barrier",
            small_walk_context(
                16,
                4,
                0.35,
                0.2,
                make_rng(902),
                potential1=PotentialField.barrier(grid16, 0.8, 3.0, 9.0),
                radius=1,
            ),
            4,
        ),
        (
            "walk-vector-potential",
            small_walk_context(
                16,
                3,
                0.25,
                0.3,
                make_rng(903),
                potential1=PotentialField(np.full(16, 0.3), a1),
                radius=2,
            ),
            3,
        ),
        ("walk-fine-steps", small_walk_context(12, 4, 0.0, 0.1, make_rng(904), radius=1, dt_ratio=0.5), 4),
        ("walk-coupled", _coupled_walk_context(), 3),
        ("walk-reflecting", _reflecting_walk_context(), 4),
    ]
    return [
        {"name": name, "kind": "walk", "context": ctx, "n": n, "modes_a": None}
        for name, ctx, n in specs
    ]


@pytest.fixture(scope="module")
def path_cases():
    cases = _circuit_cases() + _walk_cases()
    for case in cases:
        assert case["context"].n_layers == case["n"]
        case["ensemble"] = enumerate_all(case["context"], CAPS)
    return cases


@pytest.fixture(scope="module")
def bundled_runs():
    cache = {}

    def get(name: str):
        if name not in cache:
            scn = load_scenario(name)
            system = build_walk(scn)
            history, joint = walk_tables(system.state0, system.grid, system.layers, range(system.n_layers + 1))
            runs = anchored_layers(
                history,
                joint,
                int(scn["seed"]),
                10_000,
                int(scn["protocol"]["substeps"]),
                float(scn["protocol"]["eps_node_rel"]),
                "backward",
            )
            ks = {p: equivariance_test(runs[p][0].T, density, system.grid) for p, density in history.density.items()}
            cache[name] = (scn, system, history, joint, runs, ks)
        return cache[name]

    return get


# ----------------------------------------------------------------------------
# 1. Path sums rebuild the direct evolution


def test_path_sums_match_direct_evolution(path_cases, capsys):
    circuits = [c for c in path_cases if c["kind"] == "circuit"]
    walks = [c for c in path_cases if c["kind"] == "walk"]
    assert len(circuits) >= 20 and len(walks) >= 5
    assert any(c["modes_a"] == 4 for c in circuits)
    assert any(c["n"] == 4 for c in circuits)

    worst = 0.0
    for case in circuits:
        ctx, ens, n = case["context"], case["ensemble"], case["n"]
        direct = kron_evolve(ctx.layers[:n], ctx.psi1, ctx.psi2)
        gap_rows = float(np.abs(ens.reconstruct_rows() - direct).max())
        basis = ctx.basis
        rows = direct.reshape(basis.modes_a, basis.spins_a, basis.dim_b)
        direct_marginal = np.einsum("jsk,jsk->j", rows.conj(), rows).real
        gap_marg = float(np.abs(path_sum_marginal(ens) - direct_marginal).max())
        worst = max(worst, gap_rows, gap_marg)

    for case in walks:
        ctx, ens = case["context"], case["ensemble"]
        direct = direct_state(ctx)
        gap_rows = float(np.abs(ens.reconstruct_rows() - direct.amps).max())
        (density, current), _ = marginal_fields(direct, ctx.grid)
        gap_density = float(np.abs(path_sum_density(ens).total - density).max())
        gap_current = float(np.abs(path_sum_current(ens).value - current).max())
        basis = ctx.basis
        rows = direct.amps.reshape(basis.modes_a, basis.spins_a, basis.dim_b)
        direct_marginal = np.einsum("jsk,jsk->j", rows.conj(), rows).real
        gap_marg = float(np.abs(path_sum_marginal(ens) - direct_marginal).max())
        worst = max(worst, gap_rows, gap_density, gap_current, gap_marg)

    ok = worst <= 1e-10
    announce(
        capsys,
        "path-sum-equivalence",
        ok,
        f"{len(circuits)} circuit + {len(walks)} lattice scenarios, worst gap {worst:.3e} vs 1e-10",
    )
    assert ok


# ----------------------------------------------------------------------------
# 2. Pairwise overlap invariants


def test_overlap_invariants_hold_for_every_pair(path_cases, capsys):
    worst_excess = 0.0
    worst_spot = 0.0
    total_pairs = 0
    for case in path_cases:
        ctx, ens = case["context"], case["ensemble"]
        table = overlap_table(ens)
        spot_done = False
        for group in table.groups.values():
            k = group.overlaps.shape[0]
            total_pairs += k * k
            assert np.array_equal(np.diagonal(group.overlaps), np.ones(k, dtype=complex))
            assert np.array_equal(group.overlaps, group.overlaps.conj().T)
            worst_excess = max(worst_excess, float(np.abs(group.overlaps).max()) - 1.0)
            if not spot_done and k > 1:
                p = to_path(ens, int(group.path_ids[0]))
                q = to_path(ens, int(group.path_ids[1]))
                val_pq, _ = pair_overlap(ctx, p, q)
                val_qp, _ = pair_overlap(ctx, q, p)
                worst_spot = max(
                    worst_spot,
                    abs(val_pq - group.overlaps[0, 1]),
                    abs(val_qp - np.conj(val_pq)),
                )
                spot_done = True
    ok = worst_excess <= 1e-12 and worst_spot <= 1e-12
    announce(
        capsys,
        "overlap-invariants",
        ok,
        f"{total_pairs} pairs; unit diagonal and symmetry exact, magnitude excess "
        f"{max(worst_excess, 0.0):.3e}, spot check {worst_spot:.3e} vs 1e-12",
    )
    assert ok


# ----------------------------------------------------------------------------
# 3. The same-path current term vanishes identically


def test_diagonal_current_is_exactly_zero(path_cases, capsys):
    walks = [c for c in path_cases if c["kind"] == "walk"]
    assert len(walks) >= 5
    worst = 0.0
    for case in walks:
        diag = np.asarray(path_sum_current(case["ensemble"]).diagonal_term)
        worst = max(worst, float(np.abs(diag).max()))
    ok = worst == 0.0
    announce(
        capsys,
        "diagonal-current",
        ok,
        f"max |diagonal term| {worst:.1e} over {len(walks)} lattice scenarios vs exactly 0",
    )
    assert ok


# ----------------------------------------------------------------------------
# 4. Continuity residual converges at first order or better


def _continuity_orders():
    levels = [1.0, 0.5, 0.25, 0.125]
    fulls = []
    marginals = []
    for dx in levels:
        n_sites = int(round(32.0 / dx))
        grid = LatticeGrid(n_sites, dx, dx, 0.0, "periodic")
        step = build_dirac_step(grid, 0.3, 0.0)
        p1 = gaussian_profile(grid, 10.0, 2.5, 0.9)
        p2 = gaussian_profile(grid, 22.0, 2.5, -0.9)
        psi1 = (p1[:, None] * NAMED_SPINORS["chirality+"][None, :]).reshape(-1)
        psi2 = (p2[:, None] * NAMED_SPINORS["chirality-"][None, :]).reshape(-1)
        amps = np.outer(psi1, psi2)
        state = JointState(grid.basis(), amps / np.linalg.norm(amps))
        mid = int(round(3.0 / dx))
        layers = to_circuit_layers(step, step, mid + 1)
        # The marginal law is read from the walk's tables; the two-body law
        # from the pointwise bilinears of the states at mid and mid + 1.
        state_mid = evolve_circuit(state, layers[:mid])
        fulls.append(two_body_continuity_residual(state_mid, evolve_circuit(state_mid, layers[mid:]), grid))
        marginals.append(continuity_residual(run_walk(state, grid, layers), mid))
    lg = np.log(np.asarray(levels))
    orders = {}
    for label, series in (("full", fulls), ("marginal", marginals)):
        y = np.log(np.asarray(series))
        fit = float(np.polyfit(lg, y, 1)[0])
        pairwise = [(y[i] - y[i + 1]) / (lg[i] - lg[i + 1]) for i in range(len(levels) - 1)]
        orders[label] = (fit, min(pairwise))
    return orders


def test_continuity_residual_converges_first_order(capsys):
    orders = _continuity_orders()
    full_fit, full_min = orders["full"]
    marg_fit, marg_min = orders["marginal"]
    ok = min(full_fit, marg_fit, full_min, marg_min) >= 1.0
    announce(
        capsys,
        "continuity-order",
        ok,
        f"orders full {full_fit:.3f} / marginal {marg_fit:.3f} over 3 joint refinements "
        f"(worst pairwise {min(full_min, marg_min):.3f}) vs 1.0",
    )
    assert ok


# ----------------------------------------------------------------------------
# 5. Transported ensembles stay equivariant with the density


def test_forward_transport_equivariance(bundled_runs, capsys):
    scn, system, history, joint, _, _ = bundled_runs("free-packet")
    grid = system.grid
    substeps = int(scn["protocol"]["substeps"])
    rng = stream_rng(int(scn["seed"]), STREAM_FORWARD_SAMPLE)
    x1, x2 = sample_joint_density(joint[0], grid, 10_000, rng)
    worst = 0.0
    flagged = 0
    eps = float(scn["protocol"]["eps_node_rel"])
    stack1 = velocity_stack(history, 1, eps)
    for particle, x0 in ((1, x1), (2, x2)):
        stack = stack1 if particle == 1 else velocity_stack(history, 2, eps)
        layers, frozen = layer_records(integrate_batch, stack, x0, "forward", substeps)
        flagged += int(np.count_nonzero(frozen >= 0))
        worst = max(worst, float(np.max(equivariance_test(layers.T, history.density[particle], grid))))
    control_layers, _ = layer_records(integrate_batch, scaled(stack1, 0.5), x1, "forward", substeps)
    control = float(np.max(equivariance_test(control_layers.T, history.density[1], grid)))
    ok = worst < 0.02 and control > 0.05 and flagged == 0
    announce(
        capsys,
        "equivariance",
        ok,
        f"10000 trajectories, worst layer KS {worst:.4f} vs 0.02; "
        f"halved-velocity control {control:.4f} vs > 0.05",
    )
    assert ok


# ----------------------------------------------------------------------------
# 6. Backward ensembles preserve every earlier marginal


def test_backward_marginal_preservation(bundled_runs, capsys):
    names = ["free-packet", "entangled-mirror", "no-overlap", "recombination", "spin-singlet"]
    worst = 0.0
    worst_name = ""
    for name in names:
        _, _, _, _, runs, ks_per_layer = bundled_runs(name)
        for particle in (1, 2):
            assert np.all(runs[particle][1] < 0)
            ks = float(np.max(ks_per_layer[particle]))
            if ks > worst:
                worst, worst_name = ks, name
    ok = worst < 0.02
    announce(
        capsys,
        "retro-marginals",
        ok,
        f"{len(names)} scenarios at 10000 draws, worst layer KS {worst:.4f} ({worst_name}) vs 0.02",
    )
    assert ok


# ----------------------------------------------------------------------------
# 7. Forward replay reproduces the backward motion


def test_forward_replay_of_backward_endpoints(bundled_runs, capsys):
    scn, system, history, joint, _, _ = bundled_runs("entangled-mirror")
    deviations = superdet_replay(history, joint, int(scn["seed"]), 1000, 32, float(scn["protocol"]["eps_node_rel"]))
    every = np.concatenate([deviations[1], deviations[2]])
    excluded = int(np.count_nonzero(np.isnan(every)))
    worst = float(np.nanmax(every)) if excluded < len(every) else 0.0
    ok = worst < 1e-6 and excluded == 0 and bool(np.all(np.isfinite(every)))
    announce(
        capsys,
        "superdet-replay",
        ok,
        f"1000 configurations, max deviation {worst:.3e} vs 1e-6, {excluded} excluded",
    )
    assert ok


# ----------------------------------------------------------------------------
# 8. Branch structure: marginal loops without joint loops


def test_branch_track_structure(bundled_runs, capsys):
    scn_r, system_r, history_r, joint_r, runs_r, ks_r = bundled_runs("recombination")
    tracks_r = tracks_of(history_r, joint_r, float(scn_r["protocol"]["track_threshold_rel"]))
    report_r = detect_crossings(served(runs_r), tracks_r, system_r.grid)

    scn_n, system_n, history_n, joint_n, runs_n, ks_n = bundled_runs("no-overlap")
    tracks_n = tracks_of(history_n, joint_n, float(scn_n["protocol"]["track_threshold_rel"]))
    report_n = detect_crossings(served(runs_n), tracks_n, system_n.grid)

    preserved = max(float(np.max(ks[p])) for ks in (ks_r, ks_n) for p in (1, 2)) < 0.02

    ok = (
        len(tracks_r.marginal[1].loop_edges) >= 1
        and len(tracks_r.joint.loop_edges) == 0
        and report_r.crossing_fraction > 0.0
        and report_r.violations == 0
        and len(report_n.events) == 0
        and preserved
    )
    announce(
        capsys,
        "track-structure",
        ok,
        f"recombining run: {len(tracks_r.marginal[1].loop_edges)} marginal loop edges, "
        f"{len(tracks_r.joint.loop_edges)} joint loop edges, crossing fraction "
        f"{report_r.crossing_fraction:.4f}; disjoint run: {len(report_n.events)} crossings; "
        f"marginals preserved {preserved}",
    )
    assert ok


# ----------------------------------------------------------------------------
# 9. Local changes to one particle never reach the other's marginal


def test_engine_no_signaling_under_entanglement(capsys):
    rng = make_rng(77)
    worst = 0.0
    control = 0.0
    for _ in range(6):
        grid = LatticeGrid(12, 1.0, 0.7, 0.0, "periodic")
        mass1 = float(rng.uniform(0.0, 0.6))
        mass2 = float(rng.uniform(0.0, 0.6))
        amps = rng.normal(size=(48, 48)) + 1j * rng.normal(size=(48, 48))
        state = JointState(grid.basis(), amps / np.linalg.norm(amps))
        step1 = build_dirac_step(grid, mass1, 0.0)
        histories = []
        for _ in range(2):
            potential = PotentialField(rng.uniform(-1.0, 1.0, 12), rng.uniform(-1.0, 1.0, 12))
            step2 = build_dirac_step(grid, mass2, 1.0, potential)
            histories.append(run_walk(state, grid, to_circuit_layers(step1, step2, 6)))
        h_a, h_b = histories
        worst = max(
            worst,
            float(np.abs(h_a.density[1] - h_b.density[1]).max()),
            float(np.abs(h_a.current[1] - h_b.current[1]).max()),
        )
        control = max(control, float(np.abs(h_a.density[2] - h_b.density[2]).max()))
    ok = worst <= 1e-12 and control > 1e-3
    announce(
        capsys,
        "no-signaling",
        ok,
        f"6 entangled states, max first-marginal change {worst:.3e} vs 1e-12 "
        f"(second marginal moved by {control:.3e})",
    )
    assert ok
