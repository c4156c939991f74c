"""Path decomposition: enumeration, overlap tables, reconstruction sums."""

import tracemalloc

import numpy as np
import pytest

from pilotpath import paths
from pilotpath.circuit import (
    CircuitLayer,
    JointState,
    ModeSpinBasis,
    branch_norm_sq,
)
from pilotpath.dirac import (
    NAMED_SPINORS,
    LatticeGrid,
    PotentialField,
    WalkStep,
    marginal_fields,
    phase_matrices,
    to_circuit_layers,
)
from pilotpath.errors import PilotPathError, ResourceCapError, ValidationError
from pilotpath.paths import (
    OVERLAP_DIAG_TOL,
    OVERLAP_HERM_TOL,
    PathCaps,
    PathContext,
    PathEnsemble,
    direct_state,
    enumerate_all,
    overlap_table,
    path_sum_current,
    path_sum_density,
    path_sum_marginal,
    _settle_gram,
)

from pilotpath.scenario import build_walk, load_scenario

from conftest import (
    DEFAULT_CAPS,
    coupled_free_packet,
    make_rng,
    random_layers,
    random_state_vector,
    scenario_phase_matrices,
    small_walk_context,
    spinor_field,
    truncated_profile,
)
from oracles import (
    Path,
    conditional_unitary,
    csr_enumeration,
    csr_step,
    dense,
    dense_walk,
    pair_overlap,
    path_levels,
    steps_of,
    svd_product_factors,
    to_path,
)


def circuit_context(seed, modes_a=3, modes_b=2, n=3, coupling_scale=0.8):
    rng = make_rng(seed)
    basis = ModeSpinBasis(modes_a, 2, modes_b, 2)
    layers = random_layers(basis, n, rng, coupling_scale=coupling_scale)
    psi1 = random_state_vector(basis.dim_a, rng)
    psi2 = random_state_vector(basis.dim_b, rng)
    return PathContext(layers, basis, psi1, psi2)


# ----------------------------------------------------------------------------
# Context construction


def test_context_normalizes_and_freezes_the_factors():
    ctx = circuit_context(1)
    assert abs(np.linalg.norm(ctx.psi1) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        ctx.psi1[0] = 0.0


def test_context_rejects_entangled_joint_starts():
    rng = make_rng(2)
    basis = ModeSpinBasis(2, 2, 2, 2)
    layers = random_layers(basis, 1, rng)
    amps = np.zeros((4, 4), dtype=np.complex128)
    amps[0, 0] = amps[1, 1] = 1.0 / np.sqrt(2)

    with pytest.raises(ValidationError):
        PathContext.from_joint_state(JointState(basis, amps), layers)


def test_context_accepts_product_joint_starts():
    rng = make_rng(3)
    basis = ModeSpinBasis(2, 2, 2, 2)
    layers = random_layers(basis, 1, rng)
    psi1 = random_state_vector(4, rng)
    psi2 = random_state_vector(4, rng)

    ctx = PathContext.from_joint_state(JointState(basis, np.outer(psi1, psi2)), layers)
    # factors recovered up to a shared phase; their product exactly
    assert abs(abs(np.vdot(ctx.psi1, psi1)) - 1.0) < 1e-12
    assert abs(abs(np.vdot(ctx.psi2, psi2)) - 1.0) < 1e-12
    assert np.max(np.abs(ctx.initial_state().amps - np.outer(psi1, psi2))) < 1e-12


def test_factored_product_check_accepts_branches_sharing_a_packet():
    """Two branches with the same first-particle packet form a product; the
    QR-and-core check recovers the factors the full SVD would."""
    rng = make_rng(4)
    basis = ModeSpinBasis(3, 2, 3, 2)
    layers = random_layers(basis, 1, rng)
    a, b, c = random_state_vector(6, rng), random_state_vector(6, rng), random_state_vector(6, rng)
    left = np.stack([0.6 * a, 0.8j * a], axis=1)
    right = np.stack([b, c], axis=1)
    left /= np.sqrt(branch_norm_sq(left, right))
    ctx = PathContext.from_joint_state(JointState(basis, left, right), layers)
    psi1, psi2, s = svd_product_factors(left @ right.T)
    assert s[1] <= 1e-12 * s[0]
    assert np.max(np.abs(ctx.psi1 - psi1 / np.linalg.norm(psi1))) < 1e-12
    assert np.max(np.abs(ctx.psi2 - psi2 / np.linalg.norm(psi2))) < 1e-12
    assert np.max(np.abs(ctx.initial_state().amps - left @ right.T)) < 1e-12


def _entangled_branches(basis, rng):
    """(a x c + b x d) / sqrt(2) with a, b and c, d orthonormal pairs."""
    ab = np.linalg.qr(rng.normal(size=(basis.dim_a, 2)) + 1j * rng.normal(size=(basis.dim_a, 2)))[0]
    cd = np.linalg.qr(rng.normal(size=(basis.dim_b, 2)) + 1j * rng.normal(size=(basis.dim_b, 2)))[0]
    return ab / np.sqrt(2.0), cd


def test_factored_product_check_rejects_entangled_branches():
    rng = make_rng(5)
    basis = ModeSpinBasis(3, 2, 3, 2)
    left, right = _entangled_branches(basis, rng)
    s = svd_product_factors(left @ right.T)[2]
    assert f"{s[1]:.3e}" == "7.071e-01"
    with pytest.raises(ValidationError, match=r"product initial state; second singular value is 7\.071e-01"):
        PathContext.from_joint_state(JointState(basis, left, right), random_layers(basis, 1, rng))


def test_dense_entangled_start_is_rejected_the_same_way():
    rng = make_rng(5)
    basis = ModeSpinBasis(3, 2, 3, 2)
    left, right = _entangled_branches(basis, rng)
    with pytest.raises(ValidationError, match=r"product initial state; second singular value is 7\.071e-01"):
        PathContext.from_joint_state(JointState(basis, left @ right.T), random_layers(basis, 1, rng))


# ----------------------------------------------------------------------------
# Enumeration


def test_enumeration_is_exhaustive_for_dense_layers():
    ctx = circuit_context(5, modes_a=2, modes_b=2, n=3)
    ensemble = enumerate_all(ctx, DEFAULT_CAPS)
    # dense one-body layers: every path branches into all dim_a points
    assert ensemble.n_paths == ctx.basis.dim_a**3 * np.count_nonzero(np.abs(ctx.psi1) > 0)
    assert ensemble.pair_count == int(np.sum(ensemble.endpoint_counts() ** 2))


def test_walk_enumeration_has_shift_limited_branching():
    """The walk couples spinor pairs (0,3) and (1,2) only, and the shift
    moves each chirality one site, so every one-body column has exactly
    four nonzero transitions; the path count is starts times 4^layers."""
    rng = make_rng(6)
    ctx = small_walk_context(8, 4, mass1=0.3, mass2=0.0, rng=rng)
    starts = int(np.count_nonzero(np.abs(ctx.psi1) > 0.0))
    ensemble = enumerate_all(ctx, DEFAULT_CAPS)
    assert ensemble.n_paths == starts * 4**4


def test_potential_does_not_widen_the_branching():
    # a1 mixes the same spinor pairs the shift already couples
    rng = make_rng(7)
    grid_pot = PotentialField(np.full(8, 0.3), np.full(8, 0.6))
    ctx = small_walk_context(8, 3, mass1=0.2, mass2=0.0, rng=rng, potential1=grid_pot)
    for layer in ctx.layers:
        per_column = (np.abs(dense(layer.u_a)) > 1e-15).sum(axis=0)
        assert np.max(per_column) == 4
    starts = int(np.count_nonzero(np.abs(ctx.psi1) > 0.0))
    assert enumerate_all(ctx, DEFAULT_CAPS).n_paths == starts * 4**3


def enumeration_case(name):
    """(context, caps, CSR steps) of a walk: free-packet at its paths layer,
    the same with a coupling on every layer, or three layers on a
    reflecting grid with a coupling on the middle one."""
    if name == "reflecting":
        rng = make_rng(45)
        grid = LatticeGrid(12, 1.0, 0.8, 0.0, "reflecting")
        pot = PotentialField(rng.uniform(-0.5, 0.5, 12), rng.uniform(-0.5, 0.5, 12))
        mats = (phase_matrices(grid, 0.3, 1.0, pot), phase_matrices(grid, 0.5, 0.0, PotentialField.free(grid)))
        phases = rng.uniform(-np.pi, np.pi, (48, 48))
        layers = to_circuit_layers(WalkStep(grid, mats[0]), WalkStep(grid, mats[1]), 3, {1: phases})
        psi1 = spinor_field(truncated_profile(grid, 1, 2), NAMED_SPINORS["chirality-"])
        psi2 = spinor_field(truncated_profile(grid, 8, 3), NAMED_SPINORS["up"])
        context = PathContext(layers, grid.basis(), psi1, psi2, grid=grid)
        caps = DEFAULT_CAPS
    else:
        scn = load_scenario("free-packet") if name == "free-packet" else coupled_free_packet()
        system = build_walk(scn)
        grid, mats = scenario_phase_matrices(scn)
        context = system.path_context(scn["paths"]["layer"])
        caps = system.caps
    return context, caps, tuple(csr_step(grid, m) for m in mats)


@pytest.mark.parametrize("name", ["free-packet", "coupled-free-packet", "reflecting"])
def test_enumeration_matches_the_csr_enumeration_bit_for_bit(name):
    """Pushing only the distinct partner states through the step stencil
    gives the final endpoints, partner states and amplitudes exactly as
    every row pushed through CSR steps did, and the dense path oracle that
    tests read path histories from gives every level's endpoints and
    parents as the CSR enumeration does."""
    context, caps, (csr_a, csr_b) = enumeration_case(name)
    ensemble = enumerate_all(context, caps)
    want, amps = csr_enumeration(context, csr_a, csr_b)
    endpoints, _, partner = want[-1]
    assert np.array_equal(ensemble.endpoints, endpoints)
    got = ensemble.partners[ensemble.rows]
    assert np.array_equal(got.view(np.uint64), np.ascontiguousarray(partner).view(np.uint64))
    assert np.array_equal(ensemble.amps.view(np.uint64), amps.view(np.uint64))
    levels = path_levels(context)
    assert len(levels) == len(want) == context.n_layers + 1
    for (got_endpoints, got_parents), (endpoints, parents, _) in zip(levels, want):
        assert np.array_equal(got_endpoints, endpoints)
        assert np.array_equal(got_parents, parents)


@pytest.mark.parametrize("name", ["free-packet", "barrier"])
def test_direct_state_stays_factored_on_uncoupled_windows(name):
    """A product start evolves as one branch of factors through uncoupled
    layers, and its amplitudes are the densely evolved ones."""
    system = build_walk(load_scenario(name))
    ctx = system.path_context(None)
    state = direct_state(ctx)
    assert state.right is not None and state.right.shape == (ctx.basis.dim_b, 1)
    steps1 = [layer.u_a for layer in ctx.layers]
    steps2 = [layer.u_b for layer in ctx.layers]
    start = JointState(ctx.basis, np.outer(ctx.psi1, ctx.psi2))
    want = dense_walk(start, steps1, steps2)[-1].amps
    assert np.max(np.abs(state.amps - want)) <= 1e-13


def test_path_steps_connect_start_to_endpoint():
    ctx = circuit_context(8, modes_a=2, modes_b=2, n=3)
    ensemble = enumerate_all(ctx, DEFAULT_CAPS)
    start_points = set(np.flatnonzero(np.abs(ctx.psi1) > 0.0))
    for pid in range(0, ensemble.n_paths, 7):
        seq = steps_of(ensemble, pid)
        assert seq.shape == (4,)
        assert int(seq[0]) in start_points
        assert int(seq[-1]) == int(ensemble.endpoints[pid])
        path = to_path(ensemble, pid)
        assert len(path) == 4


def test_enumeration_respects_the_pair_cap():
    ctx = circuit_context(9, modes_a=3, modes_b=2, n=3)
    with pytest.raises(ResourceCapError):
        enumerate_all(ctx, PathCaps(pair_cap=10, memory_cap_bytes=DEFAULT_CAPS.memory_cap_bytes))


def test_enumeration_respects_the_memory_cap():
    ctx = circuit_context(10, modes_a=3, modes_b=2, n=3)
    with pytest.raises(ResourceCapError):
        enumerate_all(ctx, PathCaps(pair_cap=DEFAULT_CAPS.pair_cap, memory_cap_bytes=4096))


def test_memory_cap_counts_the_partner_rows_levels_hold():
    """Uncoupled levels hold one partner row, so free-packet's window fits
    in 1 MiB; with a coupling on every layer each path holds its own row
    and the same cap is exceeded."""
    caps = PathCaps(pair_cap=DEFAULT_CAPS.pair_cap, memory_cap_bytes=2**20)
    free = load_scenario("free-packet")
    enumerate_all(build_walk(free).path_context(free["paths"]["layer"]), caps)
    coupled = coupled_free_packet()
    with pytest.raises(ResourceCapError, match="memory cap"):
        enumerate_all(build_walk(coupled).path_context(coupled["paths"]["layer"]), caps)


def test_enumeration_retains_only_its_final_frontier():
    """On coupled-free-packet, where the first layer's table of partner
    states alone is 16 MiB, what stays allocated after the enumeration is
    the final frontier and at most 1 MiB more."""
    scn = coupled_free_packet()
    system = build_walk(scn)
    context = system.path_context(scn["paths"]["layer"])
    tracemalloc.start()
    try:
        ensemble = enumerate_all(context, system.caps)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    frontier = sum(a.nbytes for a in (ensemble.endpoints, ensemble.amps, ensemble.partners, ensemble.rows))
    assert retained <= frontier + 2**20


@pytest.mark.parametrize("name", ["free-packet", "barrier"])
def test_uncoupled_windows_hold_one_partner_row_per_level(name):
    """Without a coupling every path shares one partner state, so the
    final frontier holds a single row and the enumeration's memory stays
    small."""
    scn = load_scenario(name)
    system = build_walk(scn)
    context = system.path_context(scn["paths"]["layer"])
    tracemalloc.start()
    try:
        ensemble = enumerate_all(context, system.caps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ensemble.partners.shape == (1, context.basis.dim_b)
    assert ensemble.rows.shape == ensemble.endpoints.shape
    assert peak < 4 * 2**20


# ----------------------------------------------------------------------------
# Reconstruction identities (unit scale; the acceptance suite sweeps sizes)


@pytest.mark.parametrize("seed", [20, 21, 22])
def test_reconstructed_rows_equal_the_direct_state(seed):
    ctx = circuit_context(seed)
    ensemble = enumerate_all(ctx, DEFAULT_CAPS)
    ref = direct_state(ctx).amps
    assert np.max(np.abs(ensemble.reconstruct_rows() - ref)) < 1e-10


def test_marginal_and_density_sums_match_the_direct_state():
    ctx = circuit_context(23)
    ensemble = enumerate_all(ctx, DEFAULT_CAPS)
    state = direct_state(ctx)
    marg = path_sum_marginal(ensemble)
    ref_marg = (np.abs(state.amps) ** 2).reshape(3, 2, -1).sum(axis=(1, 2))
    assert np.max(np.abs(marg - ref_marg)) < 1e-10
    dens = path_sum_density(ensemble)
    rows = state.amps.reshape(3, 2, -1)
    ref_total = np.einsum("jsk,jsk->j", rows.conj(), rows).real
    assert np.max(np.abs(dens.total - ref_total)) < 1e-10
    assert np.max(np.abs(dens.total - dens.diagonal - dens.cross)) < 1e-14
    assert np.min(dens.diagonal) >= 0.0
    assert abs(path_sum_density(ensemble).total[2] - ref_total[2]) < 1e-10


def test_interference_lives_entirely_in_the_cross_term():
    """A one-point start with one layer has one path per endpoint: no cross."""
    rng = make_rng(24)
    basis = ModeSpinBasis(2, 2, 2, 2)
    layers = random_layers(basis, 1, rng)
    psi1 = np.zeros(4, dtype=np.complex128)
    psi1[2] = 1.0
    ctx = PathContext(layers, basis, psi1, random_state_vector(4, rng))
    dens = path_sum_density(enumerate_all(ctx, DEFAULT_CAPS))
    assert np.max(np.abs(dens.cross)) < 1e-14


def test_current_reconstruction_matches_the_lattice_engine():
    rng = make_rng(25)
    ctx = small_walk_context(8, 4, mass1=0.4, mass2=0.2, rng=rng, radius=1, dt_ratio=0.8)
    ensemble = enumerate_all(ctx, DEFAULT_CAPS)
    cur = path_sum_current(ensemble)
    state = direct_state(ctx)
    (_, ref), _ = marginal_fields(state, ctx.grid)
    assert np.max(np.abs(cur.value - ref)) < 1e-10
    assert np.max(np.abs(cur.diagonal_term)) == 0.0
    assert cur.imag_residue <= 1e-12
    mid = ctx.grid.n_sites // 2
    assert abs(path_sum_current(ensemble).value[mid] - ref[mid]) < 1e-10


def test_diagonal_weights_match_a_per_path_sum():
    walk = small_walk_context(8, 3, mass1=0.3, mass2=0.2, rng=make_rng(27), radius=1)
    for ctx in (circuit_context(28), walk):
        ensemble = enumerate_all(ctx, DEFAULT_CAPS)
        expected = np.zeros(ctx.basis.dim_a)
        for p in range(ensemble.n_paths):
            phi = ensemble.partners[ensemble.rows[p]]
            expected[ensemble.endpoints[p]] += abs(ensemble.amps[p]) ** 2 * np.vdot(phi, phi).real
        assert np.max(np.abs(ensemble.diagonal_weights() - expected)) <= 1e-14


def test_current_reconstruction_requires_lattice_mode():
    ctx = circuit_context(26)
    with pytest.raises(ValidationError):
        path_sum_current(enumerate_all(ctx, DEFAULT_CAPS))


# ----------------------------------------------------------------------------
# Overlap tables


def overlap_fixture(seed=30):
    ctx = circuit_context(seed, modes_a=2, modes_b=2, n=3)
    ensemble = enumerate_all(ctx, DEFAULT_CAPS)
    return ctx, ensemble, overlap_table(ensemble)


def test_overlap_gram_structure():
    ctx, ensemble, table = overlap_fixture()
    seen_pairs = 0
    for group in table.groups.values():
        gram = group.overlaps
        seen_pairs += gram.size
        assert np.array_equal(np.diagonal(gram), np.ones(gram.shape[0]))
        assert np.max(np.abs(gram - gram.conj().T)) == 0.0
        assert np.max(np.abs(gram)) <= 1.0 + 1e-12
    assert seen_pairs == ensemble.pair_count


def test_settle_gram_rejects_each_defect_past_its_tolerance():
    """Each Gram identity fails just past its tolerance, with its own
    message; a Gram just inside every tolerance comes back with an exact
    unit diagonal and exact Hermitian symmetry."""
    base = np.array([[1.0, 0.6 + 0.8j], [0.6 - 0.8j, 1.0]])
    asym = base.copy()
    asym[0, 1] += 1.5 * OVERLAP_HERM_TOL
    diag = base.copy()
    diag[1, 1] += 1.5 * OVERLAP_DIAG_TOL
    big = np.array([[1.0, 1.0 + 1.5e-12], [1.0 + 1.5e-12, 1.0]])
    cases = [(asym, "conjugate symmetry off by"), (diag, "unit diagonal off by"), (big, "overlap magnitude .* exceeds one")]
    for gram, message in cases:
        with pytest.raises(PilotPathError, match=f"^endpoint \\(3, 1\\): {message}"):
            _settle_gram(gram, "endpoint (3, 1)")
    near = np.array(
        [[1.0 - 0.5 * OVERLAP_DIAG_TOL, 1.0 + 0.5e-12], [1.0 + 0.5e-12, 1.0 + 0.5 * OVERLAP_DIAG_TOL]], dtype=complex
    )
    near[0, 1] += 0.5 * OVERLAP_HERM_TOL * (1.0 + 1.0j)
    settled = _settle_gram(near, "endpoint (3, 1)")
    assert np.array_equal(np.diagonal(settled), np.ones(2))
    assert np.array_equal(settled, settled.conj().T)


def test_enumeration_keeps_the_final_frontier():
    """An enumeration is its final frontier, one partner row per path, and
    the table has one group per endpoint that paths reach."""
    ctx = circuit_context(31, modes_a=2, modes_b=2, n=2)
    ensemble = enumerate_all(ctx, DEFAULT_CAPS)
    assert ensemble.amps.shape == ensemble.rows.shape == (ensemble.n_paths,)
    assert ensemble.partners[ensemble.rows].shape == (ensemble.n_paths, ctx.basis.dim_b)
    table = overlap_table(ensemble)
    assert table.groups.keys() == ensemble.group_indices().keys()


def branch_context(name):
    """A path window by name: two bundled walks, whose paths all share one
    partner state; coupled free-packet, where every path has its own;
    free-packet coupled on its first layer only, where the second,
    uncoupled layer spreads each partner state over several paths; and a
    dense circuit from one basis point, coupled on the first of its three
    layers, where each endpoint's paths carry all its distinct states."""
    if name == "first-layer-coupled-circuit":
        rng = make_rng(36)
        basis = ModeSpinBasis(2, 2, 2, 2)
        first, *rest = random_layers(basis, 3, rng, coupling_scale=0.8)
        layers = [first] + [CircuitLayer(layer.u_a, layer.u_b) for layer in rest]
        psi1 = np.eye(basis.dim_a, dtype=np.complex128)[1]
        return PathContext(layers, basis, psi1, random_state_vector(basis.dim_b, rng)), DEFAULT_CAPS
    if name == "coupled-free-packet":
        scn = coupled_free_packet()
    elif name == "first-layer-coupled":
        scn = coupled_free_packet()
        scn["couplings"][0]["layers"] = [0]
        scn["paths"]["layer"] = 2
    else:
        scn = load_scenario(name)
    system = build_walk(scn)
    return system.path_context(scn["paths"]["layer"]), system.caps


@pytest.mark.parametrize(
    "name, shared_rows, distinct",
    [
        ("free-packet", "one", True),
        ("barrier", "one", True),
        ("coupled-free-packet", "none", False),
        ("first-layer-coupled", "some", False),
        ("first-layer-coupled-circuit", "some", True),
    ],
)
def test_path_sum_branches_agree_with_the_oracles(name, shared_rows, distinct, monkeypatch):
    """overlap_table and reconstruct_rows work from the final table of
    distinct partner states where it is small, and group by group otherwise.
    The branch taken is counted: the distinct-row overlap branch settles
    one Gram, the per-group one settles one per group; the distinct-row
    sum never groups the paths.  Either way the overlaps match the pair
    oracle, the rows match direct evolution, and each group's Gram has an
    exact unit diagonal and exact Hermitian symmetry."""
    ctx, caps = branch_context(name)
    ensemble = enumerate_all(ctx, caps)
    n_rows = ensemble.partners.shape[0]
    expected_rows = {"one": n_rows == 1, "none": n_rows == ensemble.n_paths, "some": 1 < n_rows < ensemble.n_paths}
    assert expected_rows[shared_rows]

    calls = {"settle": 0, "group": 0}
    settle, group_indices = paths._settle_gram, PathEnsemble.group_indices

    def counted_settle(gram, what):
        calls["settle"] += 1
        return settle(gram, what)

    def counted_groups(self):
        calls["group"] += 1
        return group_indices(self)

    monkeypatch.setattr(paths, "_settle_gram", counted_settle)
    monkeypatch.setattr(PathEnsemble, "group_indices", counted_groups)
    rows = ensemble.reconstruct_rows()
    assert calls["group"] == (0 if distinct else 1)
    table = overlap_table(ensemble)
    assert calls["settle"] == (1 if distinct else len(table.groups))

    assert np.max(np.abs(rows - direct_state(ctx).amps)) <= 1e-13
    assert sum(g.overlaps.size for g in table.groups.values()) == ensemble.pair_count
    for group in table.groups.values():
        gram = group.overlaps
        assert np.array_equal(np.diagonal(gram), np.ones(gram.shape[0]))
        assert np.array_equal(gram, gram.conj().T)
    flats = sorted(table.groups)
    for flat in (flats[0], flats[len(flats) // 2], flats[-1]):
        group = table.groups[flat]
        k = group.path_ids.shape[0]
        picks = sorted({0, k // 2, k - 1})
        for a in picks:
            for b in picks:
                value, _ = pair_overlap(
                    ctx, to_path(ensemble, int(group.path_ids[a])), to_path(ensemble, int(group.path_ids[b]))
                )
                assert abs(value - group.overlaps[a, b]) <= 1e-12


def test_pair_overlap_agrees_with_the_table():
    ctx, ensemble, table = overlap_fixture(32)
    flat = max(ensemble.group_indices(), key=lambda g: ensemble.group_indices()[g].shape[0])
    group = table.groups[flat]
    ids = group.path_ids
    p = ctx.basis.unflat_a(flat)
    for a in range(min(3, ids.shape[0])):
        for b in range(min(3, ids.shape[0])):
            value, increments = pair_overlap(
                ctx, to_path(ensemble, int(ids[a])), to_path(ensemble, int(ids[b]))
            )
            assert abs(value - group.overlaps[a, b]) < 1e-12
            assert abs(1.0 + increments.sum() - value) < 1e-12


def test_single_coupling_overlap_has_the_hand_value():
    """Two 2-layer mixer paths whose partner states differ by one phase.

    The coupling phases on the second b-point are 0 for the path through
    a-point 0 and 2*pi/3 for the path through a-point 1, so their partner
    overlap is (1 + exp(2i*pi/3)) / 2 = 1/4 + i*sqrt(3)/4.
    """
    h = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
    eye = np.eye(2, dtype=np.complex128)
    theta = np.array([[0.0, 0.0], [0.0, 2.0 * np.pi / 3.0]])
    basis = ModeSpinBasis(2, 1, 2, 1)
    layers = [CircuitLayer(h, eye, phases=theta), CircuitLayer(h, eye)]
    psi1 = np.array([1.0, 0.0], dtype=np.complex128)
    psi2 = np.array([1.0, 1.0], dtype=np.complex128) / np.sqrt(2)
    ctx = PathContext(layers, basis, psi1, psi2)
    ensemble = enumerate_all(ctx, DEFAULT_CAPS)
    table = overlap_table(ensemble)
    group = table.group((0, 0), basis)
    routes = {tuple(steps_of(ensemble, int(i))): k for k, i in enumerate(group.path_ids)}
    a = routes[(0, 0, 0)]
    b = routes[(0, 1, 0)]
    expected = 0.25 + 0.25j * np.sqrt(3.0)
    assert abs(group.overlaps[a, b] - expected) < 1e-14
    assert abs(abs(group.overlaps[a, b]) - 0.5) < 1e-14


def test_opposite_phases_erase_the_cross_term():
    """Phase table [0, pi] makes the two partner states orthogonal.

    With the overlap pinned to zero the endpoint density must equal its
    diagonal part exactly.
    """
    h = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
    eye = np.eye(2, dtype=np.complex128)
    theta = np.array([[0.0, 0.0], [0.0, np.pi]])
    basis = ModeSpinBasis(2, 1, 2, 1)
    layers = [CircuitLayer(h, eye, phases=theta), CircuitLayer(h, eye)]
    psi1 = np.array([1.0, 0.0], dtype=np.complex128)
    psi2 = np.array([1.0, 1.0], dtype=np.complex128) / np.sqrt(2)
    ctx = PathContext(layers, basis, psi1, psi2)
    ensemble = enumerate_all(ctx, DEFAULT_CAPS)
    group = overlap_table(ensemble).group((0, 0), basis)
    off = ~np.eye(group.overlaps.shape[0], dtype=bool)
    assert np.max(np.abs(group.overlaps[off])) < 1e-14
    dens = path_sum_density(ensemble)
    assert np.max(np.abs(dens.cross)) < 1e-14
    assert np.max(np.abs(dens.total - dens.diagonal)) < 1e-14


def test_conditional_unitary_tracks_one_path():
    ctx = circuit_context(33, modes_a=2, modes_b=2, n=2)
    ensemble = enumerate_all(ctx, DEFAULT_CAPS)
    pid = 0
    cond = conditional_unitary(ctx, to_path(ensemble, pid))
    assert np.max(np.abs(cond.conj().T @ cond - np.eye(4))) < 1e-12
    # partner state of the path equals the conditional operator on psi2
    assert np.max(np.abs(cond @ ctx.psi2 - ensemble.partners[ensemble.rows[pid]])) < 1e-12


def test_conditional_unitary_rejects_paths_of_wrong_length():
    ctx = circuit_context(34, n=2)
    with pytest.raises(ValidationError):
        conditional_unitary(ctx, Path(steps=((0, 0), (0, 0), (0, 0), (0, 0))))
