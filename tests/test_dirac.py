"""Lattice walk engine: algebra, split steps, currents, continuity."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from pilotpath.circuit import CircuitLayer, JointState, branch_norm_sq
from pilotpath.dirac import (
    ALPHA1,
    CHIRAL_SIGNS,
    CHIRAL_V,
    GAMMA0,
    GAMMA1,
    NAMED_SPINORS,
    LatticeGrid,
    PotentialField,
    WalkStep,
    bloch_step_matrix,
    build_dirac_step,
    continuity_residual,
    gaussian_profile,
    marginal_fields,
    phase_matrices,
    positive_energy_packet,
    positive_energy_spinors,
    run_walk,
    spinor_from_spec,
    to_circuit_layers,
)
from pilotpath import dirac
from pilotpath.circuit import evolve_circuit
from pilotpath.errors import ValidationError
from pilotpath import circuit
from pilotpath.scenario import build_walk, load_scenario, read_scenario, resolve_scenario

from conftest import (
    coupled_free_packet,
    kron_evolve,
    make_rng,
    random_state_vector,
    scenario_phase_matrices,
    spinor_field,
)
from oracles import (
    centred_gradient,
    csr_step,
    currents_oracle,
    dense,
    dense_unitary,
    dense_walk,
    evolve_two_body,
    positive_energy_spinor,
    two_body_continuity_residual,
)

WALK_SCENARIOS = ["free-packet", "recombination", "entangled-mirror", "no-overlap", "barrier", "spin-singlet"]


def joint_from_fields(grid, psi1, psi2):
    amps = np.outer(psi1.reshape(-1), psi2.reshape(-1))
    return JointState(grid.basis(), amps / np.linalg.norm(amps))


def hop(step, psi):
    """One step of a single-particle (n_sites, 4) spinor field."""
    return step.product(psi.reshape(-1)).reshape(psi.shape)


def split_step_oracle(grid, phase_mats):
    """Dense step matrix built column by column with plain loops.

    Each basis spinor gets its site's phase rotation, goes to the chirality
    basis, moves one site along its chirality sign (periodic wrap, or a
    reflecting wall that hands it to its reflection partner on the same
    site), and comes back.
    """
    n = grid.n_sites
    partner = {0: 2, 1: 3, 2: 0, 3: 1}
    out = np.zeros((4 * n, 4 * n), dtype=complex)
    for col in range(4 * n):
        psi = np.zeros((n, 4), dtype=complex)
        psi[col // 4, col % 4] = 1.0
        chi = np.array([CHIRAL_V.conj().T @ (phase_mats[x] @ psi[x]) for x in range(n)])
        moved = np.zeros_like(chi)
        for x in range(n):
            for c in range(4):
                to = x + CHIRAL_SIGNS[c]
                if 0 <= to < n:
                    moved[to, c] += chi[x, c]
                elif grid.boundary == "periodic":
                    moved[to % n, c] += chi[x, c]
                else:
                    moved[x, partner[c]] += chi[x, c]
        out[:, col] = np.array([CHIRAL_V @ moved[x] for x in range(n)]).reshape(-1)
    return out


# ----------------------------------------------------------------------------
# Algebra and basis structure


def test_gamma_anticommutators():
    """The Dirac-representation gammas: {g_mu, g_nu} = 2 eta_mu_nu with
    eta = diag(+1, -1, -1, -1), g0 = diag(1, 1, -1, -1), and every velocity
    matrix g0 @ g_i with an exactly zero diagonal."""

    def off_block(sigma):
        out = np.zeros((4, 4), dtype=complex)
        out[:2, 2:] = sigma
        out[2:, :2] = -sigma
        return out

    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    gammas = [GAMMA0, GAMMA1, off_block(sy), off_block(sz)]
    assert np.array_equal(GAMMA0, np.diag([1.0, 1.0, -1.0, -1.0]))
    assert np.array_equal(GAMMA1, off_block(np.array([[0.0, 1.0], [1.0, 0.0]])))
    minkowski = (1.0, -1.0, -1.0, -1.0)
    for mu in range(4):
        for nu in range(4):
            anti = gammas[mu] @ gammas[nu] + gammas[nu] @ gammas[mu]
            want = 2.0 * minkowski[mu] * np.eye(4) if mu == nu else np.zeros((4, 4))
            assert np.max(np.abs(anti - want)) <= 1e-14, (mu, nu)
    for g in gammas[1:]:
        assert np.max(np.abs(np.diag(GAMMA0 @ g))) == 0.0


def test_velocity_matrix_has_zero_diagonal():
    assert np.max(np.abs(np.diagonal(ALPHA1))) == 0.0
    assert np.max(np.abs(ALPHA1 - GAMMA0 @ GAMMA1)) == 0.0


def test_chiral_vectors_diagonalize_the_velocity_matrix():
    for c in range(4):
        v = CHIRAL_V[:, c]
        assert np.max(np.abs(ALPHA1 @ v - CHIRAL_SIGNS[c] * v)) < 1e-15
    assert np.max(np.abs(CHIRAL_V.conj().T @ CHIRAL_V - np.eye(4))) < 1e-15


def test_named_spinors_are_normalized():
    for name, vec in NAMED_SPINORS.items():
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-15, name


def test_spinor_from_spec():
    assert np.max(np.abs(spinor_from_spec("up") - NAMED_SPINORS["up"])) == 0.0
    explicit = spinor_from_spec([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    assert abs(np.linalg.norm(explicit) - 1.0) < 1e-15
    assert abs(explicit[1] - 1j / np.sqrt(2)) < 1e-15
    with pytest.raises(ValidationError):
        spinor_from_spec([[0.0, 0.0]] * 4)
    # The schema holds a packet's spinor to a name or four [re, im] pairs.
    for spinor in ("sideways", [[1.0, 0.0]] * 3):
        scn = read_scenario("free-packet")
        scn["initial"]["packet1"] = {"kind": "gaussian", "center": 16.0, "sigma": 4.0, "spinor": spinor}
        with pytest.raises(ValidationError, match="initial/packet1/spinor"):
            resolve_scenario(scn)


# ----------------------------------------------------------------------------
# Grid and potential validation


def test_grid_validation():
    with pytest.raises(ValidationError):
        LatticeGrid(1, 1.0, 1.0, 0.0, "periodic")
    with pytest.raises(ValidationError):
        LatticeGrid(8, 1.0, 1.5, 0.0, "periodic")  # dt must not exceed dx
    with pytest.raises(ValidationError):
        LatticeGrid(8, 1.0, 1.0, 0.0, "absorbing")
    grid = LatticeGrid(8, 0.5, 0.25, -2.0, "periodic")
    assert grid.extent == 4.0
    assert grid.positions()[0] == -2.0


def test_grid_gap_goes_the_shorter_way_round_only_on_a_ring():
    a = np.array([0.0, 0.5, 3.5, 1.0])
    b = np.array([3.5, 3.0, 0.0, 1.0])
    ring = LatticeGrid(8, 0.5, 0.25, 0.0, "periodic")
    wall = LatticeGrid(8, 0.5, 0.25, 0.0, "reflecting")
    assert ring.gap(a, b).tolist() == [0.5, 1.5, 0.5, 0.0]
    assert wall.gap(a, b).tolist() == [3.5, 2.5, 3.5, 0.0]
    assert ring.gap(a, 2.0).tolist() == [2.0, 1.5, 1.5, 1.0]


def test_barrier_window_is_half_open():
    grid = LatticeGrid(8, 1.0, 1.0, 0.0, "periodic")
    pot = PotentialField.barrier(grid, 0.7, 2.0, 5.0)
    assert np.array_equal(np.flatnonzero(pot.a0), [2, 3, 4])


@pytest.mark.parametrize("short", [("a0",), ("a1",), ("a0", "a1")], ids=["a0-short", "a1-short", "both-short"])
def test_potential_tables_need_one_entry_per_site(short):
    """A tables potential whose a0 or a1 misses a site fails the build, which
    knows the grid size; the schema has typed the entries."""
    raw = read_scenario("free-packet")
    n = raw["grid"]["n_sites"]
    tables = {key: [0.1] * (n - 1 if key in short else n) for key in ("a0", "a1")}
    raw["particles"][0]["potential"] = {"preset": "tables", **tables}
    scn = resolve_scenario(raw)
    with pytest.raises(ValidationError) as info:
        build_walk(scn)
    assert str(info.value) == f"potential tables a0 and a1 must each have one entry per site ({n})"


# ----------------------------------------------------------------------------
# Split-step structure


@pytest.mark.parametrize("seed", range(4))
def test_phase_rotation_matches_matrix_exponential(seed):
    """Closed-form per-site rotation equals expm of the on-site generator."""
    rng = make_rng(900 + seed)
    grid = LatticeGrid(6, 1.0, 0.8, 0.0, "periodic")
    mass = float(rng.uniform(0.0, 1.2))
    charge = float(rng.uniform(-1.0, 1.0))
    pot = PotentialField(rng.uniform(-1.0, 1.0, 6), rng.uniform(-1.0, 1.0, 6))
    mats = phase_matrices(grid, mass, charge, pot)
    for i in range(6):
        a = mass + charge * pot.a0[i]
        b = -charge * pot.a1[i]
        gen = a * GAMMA0 + b * ALPHA1
        ref = scipy.linalg.expm(-1j * grid.dt * gen)
        assert np.max(np.abs(mats[i] - ref)) < 1e-13


def test_step_dense_matrix_is_unitary():
    rng = make_rng(5)
    for boundary in ("periodic", "reflecting"):
        grid = LatticeGrid(7, 1.0, 0.9, 0.0, boundary)
        pot = PotentialField(rng.uniform(-1, 1, 7), rng.uniform(-1, 1, 7))
        step = build_dirac_step(grid, 0.4, 0.8, pot)
        full = dense(step)
        assert np.max(np.abs(full.conj().T @ full - np.eye(28))) < 1e-12


@pytest.mark.parametrize("boundary", ["periodic", "reflecting"])
def test_sparse_step_matches_the_split_step_oracle(boundary):
    rng = make_rng(41)
    grid = LatticeGrid(9, 1.0, 0.85, 0.0, boundary)
    pot = PotentialField(rng.uniform(-1, 1, 9), rng.uniform(-1, 1, 9))
    mats = phase_matrices(grid, 0.45, 0.9, pot)
    step = WalkStep(grid, mats)
    full = dense(step)
    assert np.max(np.abs(full - split_step_oracle(grid, mats))) <= 1e-14
    assert step.cols.shape[1] <= 4
    assert np.max(np.bincount(step.entries()[1])) <= 4
    assert np.abs(full.conj().T @ full - np.eye(36)).max() <= 1e-12


def bits(a):
    """The raw 64-bit words of a complex array: equal only bit for bit,
    signed zeros included."""
    return np.ascontiguousarray(a, dtype=np.complex128).view(np.uint64)


def scenario_steps(name):
    """Each particle's grid and phase matrices in a bundled walk scenario."""
    grid, mats = scenario_phase_matrices(load_scenario(name))
    return [(grid, m) for m in mats]


def odd_grid_steps():
    """A reflecting grid, and a two-site ring where both chiralities of a row
    come from one site, with and without a mass term."""
    rng = make_rng(43)
    for grid in (LatticeGrid(9, 1.0, 0.85, 0.0, "reflecting"), LatticeGrid(2, 1.0, 0.85, 0.0, "periodic")):
        pot = PotentialField(rng.uniform(-1, 1, grid.n_sites), rng.uniform(-1, 1, grid.n_sites))
        yield grid, phase_matrices(grid, 0.45, 0.9, pot)
        yield grid, phase_matrices(grid, 0.0, 0.0, PotentialField.free(grid))


@pytest.mark.parametrize("name", WALK_SCENARIOS + ["odd-grids"])
def test_step_stencil_matches_the_csr_step_bit_for_bit(name):
    """The stencil holds the CSR step's entries, in its order, and its
    products on either side equal CSR's at widths 1, 4 and 4N."""
    rng = make_rng(44)
    for grid, mats in odd_grid_steps() if name == "odd-grids" else scenario_steps(name):
        step = WalkStep(grid, mats)
        ref = csr_step(grid, mats)
        rows, cols, vals = step.entries()
        assert np.array_equal(np.diff(ref.indptr), np.bincount(rows, minlength=ref.shape[0]))
        assert np.array_equal(ref.indices, cols)
        assert np.array_equal(bits(ref.data), bits(vals))
        dim = ref.shape[0]
        for shape in ((dim,), (dim, 1), (dim, 4), (dim, dim)):
            x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            x[0] = -0.0
            assert np.array_equal(bits(step.product(x)), bits(ref @ x))
            xt = np.ascontiguousarray(x.reshape(dim, -1).T)
            got = step.product(xt, axis=1)
            assert got.flags.c_contiguous
            assert np.array_equal(bits(got), bits(xt @ ref.T))


def test_massless_unit_ratio_walk_translates_exactly():
    """With no mass and dt = dx each chirality component hops one site."""
    grid = LatticeGrid(16, 1.0, 1.0, 0.0, "periodic")
    step = build_dirac_step(grid, 0.0, 0.0)
    prof = gaussian_profile(grid, 7.0, 1.5)
    psi = spinor_field(prof, NAMED_SPINORS["chirality+"]).reshape(16, 4)
    moved = hop(step, psi)
    expected = np.roll(psi, 1, axis=0)
    assert np.max(np.abs(moved - expected)) < 1e-13
    psi_m = spinor_field(prof, NAMED_SPINORS["chirality-"]).reshape(16, 4)
    assert np.max(np.abs(hop(step, psi_m) - np.roll(psi_m, -1, axis=0))) < 1e-13


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "boundary, sigma, momentum, message",
    [
        ("periodic", 1e-300, 0.0, "packet sigma 1e-300 puts d**2 / (4 sigma**2) beyond the float range"),
        ("reflecting", 1e-200, 0.0, "packet sigma 1e-200 puts d**2 / (4 sigma**2) beyond the float range"),
        ("periodic", 1e-160, 0.0, "packet sigma 1e-160 puts d**2 / (4 sigma**2) beyond the float range"),
        ("periodic", 1.5, 1e308, "packet momentum 1e+308 puts momentum * x beyond the float range"),
    ],
    ids=["sigma-square-underflows", "sigma-square-underflows-bounded", "exponent-overflows", "phase-overflows"],
)
def test_gaussian_exponents_beyond_the_float_range_are_rejected_before_numpy(boundary, sigma, momentum, message):
    """A sigma whose square underflows to zero, or whose largest exponent
    d**2 / (4 sigma**2) overflows, and a momentum whose largest phase
    momentum * x overflows, are input errors, raised before numpy warns."""
    grid = LatticeGrid(16, 1.0, 1.0, 0.0, boundary)
    with pytest.raises(ValidationError) as err:
        gaussian_profile(grid, 7.0, sigma, momentum)
    assert str(err.value) == message


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_narrow_gaussian_within_the_float_range_is_one_site():
    """At sigma 1e-150 every exponent off the centre underflows to a zero
    amplitude, which numpy does not warn of: the packet is its centre site."""
    grid = LatticeGrid(16, 1.0, 1.0, 0.0, "periodic")
    assert np.array_equal(gaussian_profile(grid, 7.0, 1e-150), np.eye(16)[7])


def test_unitarity_drift_over_500_layers():
    rng = make_rng(17)
    grid = LatticeGrid(12, 1.0, 0.7, 0.0, "periodic")
    pot = PotentialField(rng.uniform(-0.5, 0.5, 12), rng.uniform(-0.5, 0.5, 12))
    step = build_dirac_step(grid, 0.35, 1.0, pot)
    psi = rng.normal(size=(12, 4)) + 1j * rng.normal(size=(12, 4))
    psi = psi / np.linalg.norm(psi)
    for _ in range(500):
        psi = hop(step, psi)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-10


def test_reflecting_walls_turn_a_packet_around():
    grid = LatticeGrid(24, 1.0, 1.0, 0.0, "reflecting")
    step = build_dirac_step(grid, 0.0, 0.0)
    prof = np.zeros(24)
    prof[18] = 1.0
    psi = spinor_field(prof, NAMED_SPINORS["chirality+"]).reshape(24, 4)
    x = grid.positions()
    means = []
    for _ in range(14):
        psi = hop(step, psi)
        means.append(float(np.sum(x * np.sum(np.abs(psi) ** 2, axis=1))))
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
    # heads right, hits the wall at site 23, comes back left
    assert means[4] == pytest.approx(23.0)
    assert means[-1] < means[4]


def test_two_body_step_requires_matching_grids():
    grid_a = LatticeGrid(8, 1.0, 1.0, 0.0, "periodic")
    grid_b = LatticeGrid(8, 1.0, 0.5, 0.0, "periodic")
    state = joint_from_fields(
        grid_a,
        spinor_field(gaussian_profile(grid_a, 3.0, 1.0), NAMED_SPINORS["up"]),
        spinor_field(gaussian_profile(grid_a, 5.0, 1.0), NAMED_SPINORS["up"]),
    )
    with pytest.raises(ValidationError, match="run's grid"):
        layers = to_circuit_layers(build_dirac_step(grid_a, 0.1, 0.0), build_dirac_step(grid_b, 0.1, 0.0), 1)
        run_walk(state, grid_a, layers)
    grid_c = LatticeGrid(6, 1.0, 1.0, 0.0, "periodic")
    step_c = build_dirac_step(grid_c, 0.1, 0.0)
    with pytest.raises(ValidationError, match="state basis"):
        run_walk(state, grid_c, to_circuit_layers(step_c, step_c, 1))


def test_run_walk_rejects_layers_built_on_another_grid():
    """Layers on a grid with the run's n_sites but another dt would scale the
    currents by the wrong dx/dt; their steps carry their grid, so the run
    rejects them."""
    grid = LatticeGrid(8, 1.0, 1.0, 0.0, "periodic")
    other = LatticeGrid(8, 1.0, 0.5, 0.0, "periodic")
    state = joint_from_fields(
        grid,
        spinor_field(gaussian_profile(grid, 3.0, 1.0), NAMED_SPINORS["up"]),
        spinor_field(gaussian_profile(grid, 5.0, 1.0), NAMED_SPINORS["up"]),
    )
    step = build_dirac_step(other, 0.1, 0.0)
    with pytest.raises(ValidationError, match="run's grid"):
        run_walk(state, grid, to_circuit_layers(step, step, 2))
    with pytest.raises(ValidationError, match="run's grid"):
        run_walk(state, grid, [CircuitLayer(np.eye(32), np.eye(32))])
    own = build_dirac_step(grid, 0.1, 0.0)
    assert run_walk(state, grid, to_circuit_layers(own, own, 2)).n_layers == 2


def test_each_step_is_checked_once(monkeypatch):
    """With a coupling on every layer, building free-packet checks each of
    its two steps once, when it is built, and no layer checks them again."""
    checked = []
    deviation = circuit._stencil_deviation

    def counted(cols, vals):
        checked.append(cols.shape)
        return deviation(cols, vals)

    monkeypatch.setattr(circuit, "_stencil_deviation", counted)
    system = build_walk(coupled_free_packet())
    assert all(layer.phases is not None for layer in system.layers)
    # One coupling table on every layer: the 40 layers are one CircuitLayer.
    assert system.n_layers == 40
    assert len({id(layer) for layer in system.layers}) == 1
    assert len(checked) == 2


def test_uncoupled_evolution_preserves_product_form():
    rng = make_rng(23)
    grid = LatticeGrid(10, 1.0, 0.8, 0.0, "periodic")
    pot = PotentialField(rng.uniform(-0.5, 0.5, 10), np.zeros(10))
    step1 = build_dirac_step(grid, 0.3, 1.0, pot)
    step2 = build_dirac_step(grid, 0.6, 0.0)
    state = joint_from_fields(
        grid,
        spinor_field(gaussian_profile(grid, 3.0, 1.2), NAMED_SPINORS["chirality+"]),
        spinor_field(gaussian_profile(grid, 7.0, 1.2), NAMED_SPINORS["down"]),
    )
    final = evolve_circuit(state, to_circuit_layers(step1, step2, 10))
    s = np.linalg.svd(final.amps, compute_uv=False)
    assert s[1] < 1e-12


def test_coupling_phases_entangle_a_product_start():
    grid = LatticeGrid(6, 1.0, 1.0, 0.0, "periodic")
    step = build_dirac_step(grid, 0.0, 0.0)
    state = joint_from_fields(
        grid,
        spinor_field(gaussian_profile(grid, 2.0, 0.9), NAMED_SPINORS["chirality+"]),
        spinor_field(gaussian_profile(grid, 4.0, 0.9), NAMED_SPINORS["chirality-"]),
    )
    rng = make_rng(29)
    phases = rng.uniform(-np.pi, np.pi, (24, 24))
    coupled = evolve_circuit(state, to_circuit_layers(step, step, 1, {0: phases}))
    s = np.linalg.svd(coupled.amps, compute_uv=False)
    assert s[1] > 1e-3


# ----------------------------------------------------------------------------
# Currents


def walk_case(n_sites=12, n_layers=6, mass=0.3, seed=61):
    """(grid, state, layers) of a small two-packet walk."""
    rng = make_rng(seed)
    grid = LatticeGrid(n_sites, 1.0, 0.8, 0.0, "periodic")
    step1 = build_dirac_step(grid, mass, 0.0)
    step2 = build_dirac_step(grid, 0.0, 0.0)
    x = grid.positions()
    state = joint_from_fields(
        grid,
        spinor_field(gaussian_profile(grid, x[n_sites // 3], 1.4, 0.5), NAMED_SPINORS["chirality+"]),
        spinor_field(gaussian_profile(grid, x[2 * n_sites // 3], 1.4), NAMED_SPINORS["chirality-"]),
    )
    return grid, state, to_circuit_layers(step1, step2, n_layers)


def walk_history(n_layers=6, record_joint=()):
    """(grid, history, {layer: joint table}) of walk_case's walk, the tables
    of the layers in record_joint gathered through run_walk's fold."""
    grid, state, layers = walk_case(n_layers=n_layers)
    joint = {}
    return grid, run_walk(state, grid, layers, record_joint=record_joint, fold=joint.__setitem__), joint


def test_joint_density_normalization_and_positivity():
    grid, _, joint = walk_history(record_joint=[6])
    d = joint[6]
    assert abs(np.sum(d) * grid.dx * grid.dx - 1.0) < 1e-10
    assert np.min(d) > -1e-12


def test_marginal_currents_match_direct_contraction():
    """The exchange-matrix currents agree with the three-operand contractions
    on entangled states, factored and pushed through coupled layers, for
    both particles."""
    assert np.array_equal(ALPHA1, np.eye(4)[::-1])
    rng = make_rng(83)
    grid = LatticeGrid(10, 1.0, 0.8, 0.0, "periodic")
    pot = PotentialField(rng.uniform(-0.5, 0.5, 10), rng.uniform(-0.5, 0.5, 10))
    step1 = build_dirac_step(grid, 0.3, 1.0, pot)
    step2 = build_dirac_step(grid, 0.6, -1.0, pot)
    left = random_state_vector(40 * 3, rng).reshape(40, 3)
    right = random_state_vector(40 * 3, rng).reshape(40, 3)
    states = [JointState(grid.basis(), left / np.linalg.norm(left @ right.T), right)]
    state = JointState(grid.basis(), random_state_vector(40 * 40, rng).reshape(40, 40))
    for _ in range(4):
        state = evolve_two_body(state, step1, step2, rng.uniform(-np.pi, np.pi, (40, 40)))
        assert np.linalg.svd(state.amps, compute_uv=False)[1] > 1e-2
        states.append(state)
    for state in states:
        _, ref_marginals = currents_oracle(state, grid)
        (rho1, j1), (rho2, j2) = marginal_fields(state, grid)
        for got, want in zip((rho1, j1, rho2, j2), ref_marginals):
            assert np.max(np.abs(got - want)) <= 1e-13
        assert abs(np.sum(rho2) * grid.dx - 1.0) < 1e-10


def test_current_speed_is_bounded_by_the_lattice_ratio():
    grid, hist, _ = walk_history()
    vmax = grid.dx / grid.dt
    for j0, j1 in ((hist.density1, hist.current1), (hist.density2, hist.current2)):
        assert j0.shape == j1.shape == (hist.n_layers + 1, grid.n_sites)
        assert np.all(np.abs(j1) <= vmax * j0 + 1e-12)


def test_continuity_residual_shrinks_under_refinement():
    resids = []
    for n_sites, steps in ((16, 4), (32, 8)):
        grid = LatticeGrid(n_sites, 16.0 / n_sites, 0.5 * 16.0 / n_sites, 0.0, "periodic")
        step = build_dirac_step(grid, 0.3, 0.0)
        state = joint_from_fields(
            grid,
            spinor_field(gaussian_profile(grid, 5.0, 1.8, 0.9), NAMED_SPINORS["chirality+"]),
            spinor_field(gaussian_profile(grid, 11.0, 1.8, -0.9), NAMED_SPINORS["chirality-"]),
        )
        layers = to_circuit_layers(step, step, steps + 1)
        state_t = evolve_circuit(state, layers[:steps])
        full = two_body_continuity_residual(state_t, evolve_circuit(state_t, layers[steps:]), grid)
        resids.append((full, continuity_residual(run_walk(state, grid, layers), steps)))
    assert resids[1][0] < resids[0][0]
    assert resids[1][1] < resids[0][1]


@pytest.mark.parametrize("coupled", [False, True], ids=["uncoupled", "coupled"])
def test_continuity_residual_reads_the_walk_tables(coupled):
    """The residual from the history's marginal tables equals the kept-state
    formula, marginal_fields of the states folded to layers t and t + 1, at
    every layer; layers outside 0..n_layers - 1 have no next table."""
    rng = make_rng(67)
    grid = LatticeGrid(10, 1.0, 0.8, 0.0, "periodic")
    pot = PotentialField(rng.uniform(-0.5, 0.5, 10), rng.uniform(-0.5, 0.5, 10))
    step1 = build_dirac_step(grid, 0.3, 1.0, pot)
    step2 = build_dirac_step(grid, 0.5, 0.0)
    x = grid.positions()
    state0 = joint_from_fields(
        grid,
        spinor_field(gaussian_profile(grid, x[3], 1.4, 0.5), NAMED_SPINORS["chirality+"]),
        spinor_field(gaussian_profile(grid, x[6], 1.4), NAMED_SPINORS["chirality-"]),
    )
    couplings = {1: rng.uniform(-np.pi, np.pi, (40, 40)), 3: rng.uniform(-np.pi, np.pi, (40, 40))}
    layers = to_circuit_layers(step1, step2, 5, couplings if coupled else None)
    hist = run_walk(state0, grid, layers)
    for t in range(hist.n_layers):
        (rho_t, j_t), _ = marginal_fields(evolve_circuit(state0, layers[:t]), grid)
        (rho_n, _), _ = marginal_fields(evolve_circuit(state0, layers[: t + 1]), grid)
        want = np.max(np.abs((rho_n - rho_t) / grid.dt + centred_gradient(j_t, grid.dx)))
        assert abs(continuity_residual(hist, t) - want) <= 1e-13
    for layer in (-1, hist.n_layers):
        with pytest.raises(ValidationError, match="continuity layer"):
            continuity_residual(hist, layer)


# ----------------------------------------------------------------------------
# Spectral constructions


def test_bloch_matrix_is_unitary_and_matches_the_dense_step():
    grid = LatticeGrid(12, 1.0, 0.8, 0.0, "periodic")
    mass = 0.45
    step = build_dirac_step(grid, mass, 0.0)
    for k in (0.0, 2.0 * np.pi / 12.0, -4.0 * np.pi / 12.0):
        bloch = bloch_step_matrix(grid, mass, k)
        assert np.max(np.abs(bloch.conj().T @ bloch - np.eye(4))) < 1e-13
        # plane wave times any spinor is an exact eigenchannel of one step
        wave = np.exp(1j * k * grid.positions())
        for spinor in (NAMED_SPINORS["up"], NAMED_SPINORS["chirality+"]):
            psi = wave[:, None] * spinor[None, :] / np.sqrt(12)
            moved = hop(step, psi)
            expected = wave[:, None] * (bloch @ spinor)[None, :] / np.sqrt(12)
            assert np.max(np.abs(moved - expected)) < 1e-13


def test_positive_energy_spinor_needs_a_mass_gap():
    grid = LatticeGrid(16, 1.0, 0.5, 0.0, "periodic")
    with pytest.raises(ValidationError, match="mass > 0"):
        positive_energy_spinors(grid, 0.0, np.array([0.3]))
    u = positive_energy_spinors(grid, 0.5, np.array([0.3]))
    assert u.shape == (1, 4)
    assert abs(np.linalg.norm(u[0]) - 1.0) < 1e-12
    # at k = 0 and mass * dt = pi all four eigenphases sit at +-pi
    with pytest.raises(ValidationError, match="not isolated"):
        positive_energy_spinors(grid, np.pi / grid.dt, np.array([0.3, 0.0]))
    with pytest.raises(ValidationError, match="not isolated"):
        positive_energy_spinor(grid, np.pi / grid.dt, 0.0)


@pytest.mark.parametrize(
    "n_sites, dx, dt, mass",
    [(128, 0.5, 0.25, 0.5), (64, 1.0, 0.5, 0.3), (96, 0.25, 0.125, 1.7), (16, 1.0, 0.5, 0.05)],
)
def test_batched_spinors_match_one_eigensolve_per_wavenumber(n_sites, dx, dt, mass):
    """One stacked eigensolve gives each wavenumber's spinor bit for bit as
    its own eigensolve does, so packets keep their bytes."""
    grid = LatticeGrid(n_sites, dx, dt, 0.0, "periodic")
    ks = np.concatenate([2.0 * np.pi * np.fft.fftfreq(n_sites, d=dx), make_rng(n_sites).uniform(-3.0, 3.0, 40)])
    stack = bloch_step_matrix(grid, mass, ks)
    spinors = positive_energy_spinors(grid, mass, ks)
    assert spinors.shape == (len(ks), 4)
    for k, matrix, u in zip(ks, stack, spinors):
        assert np.array_equal(matrix, bloch_step_matrix(grid, mass, k))
        assert np.array_equal(u, positive_energy_spinor(grid, mass, k))


def test_positive_energy_packet_moves_with_its_momentum():
    grid = LatticeGrid(48, 0.5, 0.25, 0.0, "periodic")
    psi = positive_energy_packet(grid, 0.35, 8.0, 2.0, 0.8)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
    step = build_dirac_step(grid, 0.35, 0.0)
    x = grid.positions()

    def mean(p):
        return float(np.sum(x * np.sum(np.abs(p) ** 2, axis=1)))

    m0 = mean(psi)
    for _ in range(12):
        psi = hop(step, psi)
    assert mean(psi) > m0 + 0.5


# ----------------------------------------------------------------------------
# Run orchestration


def test_run_walk_records_shapes_and_options():
    """run_walk hands its fold the joint table of each recorded layer,
    layers ascending, and refuses recorded layers out of range or without a
    fold."""
    grid, hist, joint = walk_history(n_layers=5, record_joint=[3, 0, 5, 1, 4, 2])
    assert hist.density1.shape == (6, 12)
    assert list(joint) == list(range(6))
    assert all(table.shape == (12, 12) for table in joint.values())
    _, _, lean = walk_history(n_layers=5, record_joint=[5])
    assert list(lean) == [5]
    assert np.array_equal(lean[5], joint[5])
    _, _, bare = walk_history(n_layers=5)
    assert bare == {}
    _, state, layers = walk_case(n_layers=5)
    with pytest.raises(ValidationError, match="fold"):
        run_walk(state, grid, layers, record_joint=[0])
    with pytest.raises(ValidationError):
        walk_history(n_layers=5, record_joint=[6])
    with pytest.raises(ValidationError):
        walk_history(n_layers=5, record_joint=[-1])


@st.composite
def branch_walks(draw):
    """Random r-branch starts (r = 1, 2, 3) on small periodic or reflecting
    grids, random steps per layer, and phase couplings at random layers."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_sites = draw(st.integers(2, 7))
    boundary = draw(st.sampled_from(["periodic", "reflecting"]))
    grid = LatticeGrid(n_sites, draw(st.sampled_from([1.0, 0.5])), 0.5, 0.0, boundary)
    n_layers = draw(st.integers(1, 5))
    r = draw(st.integers(1, 3))
    dim = 4 * n_sites
    left, right = (rng.normal(size=(dim, r)) + 1j * rng.normal(size=(dim, r)) for _ in range(2))
    left /= np.sqrt(branch_norm_sq(left, right))
    state0 = JointState(grid.basis(), left, right)

    def step():
        pot = PotentialField(rng.uniform(-0.8, 0.8, n_sites), rng.uniform(-0.8, 0.8, n_sites))
        return build_dirac_step(grid, float(rng.uniform(0.0, 0.6)), float(rng.uniform(-1.0, 1.0)), pot)

    steps1 = [step() for _ in range(n_layers)]
    steps2 = [step() for _ in range(n_layers)]
    coupled = draw(st.sets(st.integers(0, n_layers - 1), max_size=2))
    couplings = {t: rng.uniform(-np.pi, np.pi, (dim, dim)) for t in sorted(coupled)}
    record = draw(st.sets(st.integers(0, n_layers)))
    return grid, state0, steps1, steps2, couplings, record


@settings(max_examples=60, derandomize=True, deadline=None)
@given(case=branch_walks())
def test_branch_walk_matches_the_dense_oracle(case):
    """Factored evolution, and its switch to the full matrix at a coupling,
    reproduce the dense U1 @ A @ U2.T walk: marginals at every layer, joint
    tables where requested, and the circuit fold's state at every layer."""
    grid, state0, steps1, steps2, couplings, record = case
    # Built directly: to_circuit_layers repeats one pair of steps.
    layers = [
        CircuitLayer(s1, s2, couplings.get(t))
        for t, (s1, s2) in enumerate(zip(steps1, steps2))
    ]
    tables = {}
    hist = run_walk(state0, grid, layers, record_joint=record, fold=tables.__setitem__)
    dense = dense_walk(JointState(grid.basis(), state0.left @ state0.right.T), steps1, steps2, couplings)
    assert list(tables) == sorted(record)
    for t, state in enumerate(dense):
        (joint, _, _), marginals = currents_oracle(state, grid)
        got = (hist.density1[t], hist.current1[t], hist.density2[t], hist.current2[t])
        for g, want in zip(got, marginals):
            assert np.max(np.abs(g - want)) <= 1e-13
        if t in record:
            assert np.max(np.abs(tables[t] - joint)) <= 1e-13
        assert np.max(np.abs(evolve_circuit(state0, layers[:t]).amps - state.amps)) <= 1e-13
    final = evolve_circuit(state0, layers)
    assert (final.right is None) == bool(couplings)
    assert np.max(np.abs(final.amps - dense[-1].amps)) <= 1e-13


@pytest.mark.parametrize("name", WALK_SCENARIOS)
def test_uncoupled_bundled_walks_form_the_joint_matrix_only_where_asked(name, monkeypatch):
    """Branch starts stay factored: run_walk never reads JointState.amps, so
    the (4N, 4N) amplitude matrix is formed for neither marginals nor joint
    tables, and the stepped states are still branch factors."""
    system = build_walk(load_scenario(name))
    assert system.state0.right is not None
    assert all(layer.phases is None for layer in system.layers)

    def amps(state):
        raise AssertionError("run_walk read the joint amplitude matrix")

    def dense_table(t):
        raise AssertionError("dense joint table built from a factored state")

    n = system.n_layers
    with monkeypatch.context() as patch:
        patch.setattr(JointState, "amps", property(amps))
        patch.setattr(dirac, "_site_probabilities", dense_table)
        tables = {}
        run_walk(system.state0, system.grid, system.layers, record_joint=range(n + 1), fold=tables.__setitem__)
        final = evolve_circuit(system.state0, system.layers)
    assert list(tables) == list(range(n + 1))
    shape = system.state0.right.shape
    assert final.left.shape == shape and final.right.shape == shape


def test_to_circuit_layers_shares_uncoupled_layers():
    """Uncoupled layers are one CircuitLayer object, and so are the layers
    given one coupling table; an equal table of its own is its own layer."""
    grid = LatticeGrid(6, 1.0, 1.0, 0.0, "periodic")
    step1 = build_dirac_step(grid, 0.2, 0.0)
    step2 = build_dirac_step(grid, 0.4, 0.0)
    phases = np.zeros((24, 24))
    layers = to_circuit_layers(step1, step2, 6, {1: phases, 2: phases, 4: phases.copy()})
    assert [layer.phases is None for layer in layers] == [True, False, False, True, False, True]
    assert layers[0] is layers[3] is layers[5]
    assert layers[1] is layers[2]
    assert layers[4] is not layers[1]
    assert len({id(layer) for layer in layers}) == 3
    assert layers[0].u_b is step2 and layers[1].u_b is step2
    assert to_circuit_layers(step1, step2, 0) == []


def test_circuit_view_of_a_walk_reproduces_the_final_state():
    """The walk's layers evolve a state to the one the Kronecker and dense
    joint-space oracles give."""
    rng = make_rng(71)
    grid = LatticeGrid(8, 1.0, 0.9, 0.0, "periodic")
    pot = PotentialField(rng.uniform(-0.4, 0.4, 8), np.zeros(8))
    step1 = build_dirac_step(grid, 0.25, 1.0, pot)
    step2 = build_dirac_step(grid, 0.5, 0.0)
    couplings = {1: rng.uniform(-np.pi, np.pi, (32, 32))}
    state0 = joint_from_fields(
        grid,
        spinor_field(gaussian_profile(grid, 2.0, 1.1), NAMED_SPINORS["chirality+"]),
        spinor_field(gaussian_profile(grid, 6.0, 1.1), NAMED_SPINORS["down"]),
    )
    layers = to_circuit_layers(step1, step2, 3, couplings)
    final = evolve_circuit(state0, layers)
    psi1, psi2 = (gaussian_profile(grid, c, 1.1) for c in (2.0, 6.0))
    psi1 = spinor_field(psi1, NAMED_SPINORS["chirality+"])
    psi2 = spinor_field(psi2, NAMED_SPINORS["down"])
    via_kron = kron_evolve(layers, psi1 / np.linalg.norm(psi1), psi2 / np.linalg.norm(psi2))
    assert np.max(np.abs(via_kron - final.amps)) < 1e-12
    via_dense = dense_unitary(layers, grid.basis()) @ state0.amps.reshape(-1)
    assert np.max(np.abs(via_dense.reshape(32, 32) - final.amps)) < 1e-12
