"""Layered two-particle circuit engine: validation, evolution, marginals."""

import numpy as np
import pytest

from pilotpath.circuit import (
    CircuitLayer,
    JointState,
    ModeSpinBasis,
    StepStencil,
    apply_layer,
    branch_norm_sq,
    evolve_circuit,
    haar_unitary,
)
from pilotpath.errors import ValidationError
from pilotpath.paths import PathContext, mode_marginal
from pilotpath.protocols import stream_rng
from scipy.stats import unitary_group

from conftest import (
    kron_evolve,
    make_rng,
    product_joint,
    random_layers,
    random_state_vector,
    random_unitary,
)
from oracles import dense_unitary, inverse_layers


def test_basis_flatten_round_trip():
    basis = ModeSpinBasis(3, 2, 4, 2)
    assert basis.dim_a == 6 and basis.dim_b == 8
    for mode in range(3):
        for spin in range(2):
            assert basis.unflat_a(basis.flat_a(mode, spin)) == (mode, spin)


def test_layer_rejects_non_unitary():
    """Dense input is checked by the layer, step input when the stencil is
    built: non-unitary, non-square and non-finite are rejected either way."""
    good = np.eye(4, dtype=np.complex128)
    bad = good.copy()
    bad[0, 0] = 1.5
    with pytest.raises(ValidationError, match="not unitary"):
        CircuitLayer(bad, good)
    with pytest.raises(ValidationError, match="not unitary"):
        CircuitLayer(good, bad)
    with pytest.raises(ValidationError, match="square"):
        CircuitLayer(good, np.ones((4, 3)))
    nan = good.copy()
    nan[1, 1] = np.nan
    with pytest.raises(ValidationError, match="non-finite"):
        CircuitLayer(nan, good)

    # The same operators as row stencils: the identity, one entry a row.
    cols = np.arange(4)[:, None]
    step = StepStencil(cols, good.diagonal()[:, None])
    assert CircuitLayer(good, step).u_b is step
    with pytest.raises(ValidationError, match="not unitary"):
        StepStencil(cols, bad.diagonal()[:, None])
    with pytest.raises(ValidationError, match="square"):
        StepStencil(cols + 1, good.diagonal()[:, None])
    with pytest.raises(ValidationError, match="non-finite"):
        StepStencil(cols, nan.diagonal()[:, None])
    # A column no row reaches leaves a zero on u^dagger u's diagonal.
    with pytest.raises(ValidationError, match="not unitary"):
        StepStencil(np.zeros((4, 1)), np.full((4, 1), 0.5))


def test_step_stencil_products_match_the_dense_matrix():
    """Both products of a stencil with padded rows agree with the dense
    matrix's, and the stencil's arrays are frozen."""
    rng = make_rng(12)
    u = random_unitary(2, rng)
    # A swap of basis states 0 and 2 (one entry in those rows) beside a
    # 2x2 unitary on states 1 and 3 (two entries each); short rows are padded.
    cols = np.array([[2, 0], [1, 3], [0, 0], [1, 3]])
    vals = np.array([[1.0, 0.0], [u[0, 0], u[0, 1]], [1.0, 0.0], [u[1, 0], u[1, 1]]])
    step = StepStencil(cols, vals)
    full = np.zeros((4, 4), dtype=np.complex128)
    full[[0, 2], [2, 0]] = 1.0
    full[np.ix_([1, 3], [1, 3])] = u
    x = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    assert np.max(np.abs(step.product(x) - full @ x)) < 1e-15
    assert np.max(np.abs(step.product(x.T, axis=1) - x.T @ full.T)) < 1e-15
    assert np.max(np.abs(step.product(x[:, 0]) - full @ x[:, 0])) < 1e-15
    rows, got_cols, got_vals = step.entries()
    assert rows.tolist() == [0, 1, 1, 2, 3, 3] and got_cols.tolist() == [2, 1, 3, 0, 1, 3]
    for arr in (step.cols, step.vals):
        with pytest.raises(ValueError):
            arr[0, 0] = 0


def test_haar_unitary_matches_the_scipy_sampler_bit_for_bit():
    """Sequential draws from one stream, across sizes, equal scipy's
    unitary_group.rvs on a second copy of that stream."""
    ours, theirs = stream_rng(7, 2), stream_rng(7, 2)
    for dim in [2, 3, 4, 6, 8, 16, 32] * 3:
        u = haar_unitary(dim, ours)
        assert np.array_equal(u, unitary_group.rvs(dim, random_state=theirs))
        assert np.allclose(u.conj().T @ u, np.eye(dim), atol=1e-12)


def test_layer_rejects_bad_phase_tables():
    u = np.eye(4, dtype=np.complex128)
    with pytest.raises(ValidationError):
        CircuitLayer(u, u, phases=np.zeros((4, 3)))
    with pytest.raises(ValidationError):
        CircuitLayer(u, u, phases=np.full((4, 4), 1j))
    with pytest.raises(ValidationError):
        CircuitLayer(u, u, phases=np.full((4, 4), np.nan))


def test_coupling_factor_is_pure_phase():
    rng = make_rng(7)
    u = np.eye(4, dtype=np.complex128)
    layer = CircuitLayer(u, u, phases=rng.uniform(-np.pi, np.pi, (4, 4)))
    factor = layer.factor
    assert np.max(np.abs(np.abs(factor) - 1.0)) < 1e-14
    assert CircuitLayer(u, u).factor is None


def test_coupling_factor_is_formed_once_and_frozen():
    """The layer's phase factor is exp(i phases) bit for bit, the same
    read-only array on every read."""
    rng = make_rng(8)
    u = np.eye(4, dtype=np.complex128)
    layer = CircuitLayer(u, u, phases=rng.uniform(-np.pi, np.pi, (4, 4)))
    assert layer.factor is layer.factor
    assert not layer.factor.flags.writeable
    assert np.array_equal(layer.factor.view(np.uint64), np.exp(1j * layer.phases).view(np.uint64))
    with pytest.raises(ValueError):
        layer.factor[0, 0] = 1.0


def test_joint_state_accepts_non_contiguous_amplitudes():
    basis = ModeSpinBasis(2, 1, 3, 1)
    for amps in (np.asfortranarray(np.ones((2, 3))), np.ones((3, 2)).T):
        state = JointState(basis, amps / 6**0.5)
        assert state.amps.flags.c_contiguous
        assert np.array_equal(state.amps, amps / 6**0.5)


@pytest.mark.parametrize("form", ["dense", "factored"])
def test_joint_state_amps_are_immutable(form):
    basis = ModeSpinBasis(2, 2, 2, 2)
    psi1, psi2 = random_state_vector(4, make_rng(1)), random_state_vector(4, make_rng(2))
    state = JointState(basis, np.outer(psi1, psi2)) if form == "dense" else product_joint(basis, psi1, psi2)
    assert (state.right is None) == (form == "dense")
    with pytest.raises(ValueError):
        state.amps[0, 0] = 0.0


def test_branch_state_validates_and_freezes_its_factors():
    rng = make_rng(4)
    basis = ModeSpinBasis(3, 2, 2, 2)
    left = rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))
    right = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    norm = np.sqrt(branch_norm_sq(left, right))
    assert abs(norm - np.linalg.norm(left @ right.T)) < 1e-12
    state = JointState(basis, left / norm, right)
    assert state.left.flags.c_contiguous
    with pytest.raises(ValueError):
        state.right[0, 0] = 0.0
    assert np.array_equal(state.amps, state.left @ state.right.T)
    dense = JointState(basis, (left @ right.T) / norm)
    assert dense.right is None and dense.left.shape == (6, 4)
    assert dense.amps is dense.left
    for args in ((left / norm, right[:, :1]), (left[:4] / norm, right), (np.ones((6, 2)), None)):
        with pytest.raises(ValidationError, match="shapes"):
            JointState(basis, *args)


def test_product_start_is_one_branch():
    """A path context starts from its factors as one branch, whose product
    is the outer product, and evolves it without forming the matrix until a
    coupling acts."""
    rng = make_rng(3)
    basis = ModeSpinBasis(3, 2, 2, 2)
    psi1 = random_state_vector(6, rng)
    psi2 = random_state_vector(4, rng)
    layers = random_layers(basis, 2, rng) + random_layers(basis, 1, rng, coupling_scale=0.5)
    state = PathContext(layers, basis, psi1, psi2).initial_state()
    assert state.left.shape == (6, 1) and state.right.shape == (4, 1)
    assert np.max(np.abs(state.amps - np.outer(psi1, psi2))) < 1e-15
    uncoupled = evolve_circuit(state, layers[:2])
    assert uncoupled.right.shape == (4, 1)
    assert evolve_circuit(uncoupled, layers[2:]).right is None


@pytest.mark.parametrize("seed", range(8))
def test_evolution_matches_flat_kronecker_oracle(seed):
    """Matrix-form evolution equals the flat-vector Kronecker reference."""
    rng = make_rng(1000 + seed)
    modes_a = int(rng.integers(2, 5))
    modes_b = int(rng.integers(2, 5))
    n = int(rng.integers(1, 5))
    basis = ModeSpinBasis(modes_a, 2, modes_b, 2)
    layers = random_layers(basis, n, rng, coupling_scale=0.9)
    psi1 = random_state_vector(basis.dim_a, rng)
    psi2 = random_state_vector(basis.dim_b, rng)
    expected = kron_evolve(layers, psi1, psi2)
    # Both start forms: one branch of factors, and the dense matrix.
    for state0 in (product_joint(basis, psi1, psi2), JointState(basis, np.outer(psi1, psi2))):
        final = evolve_circuit(state0, layers)
        assert np.max(np.abs(final.amps - expected)) < 1e-10


def test_evolution_history_records_every_layer():
    rng = make_rng(11)
    basis = ModeSpinBasis(2, 2, 2, 2)
    layers = random_layers(basis, 3, rng)
    state0 = product_joint(basis, random_state_vector(4, rng), random_state_vector(4, rng))
    history = [state0]
    for layer in layers:
        history.append(apply_layer(history[-1], layer))
    assert len(history) == 4
    for t, state in enumerate(history):
        assert np.array_equal(state.amps, evolve_circuit(state0, layers[:t]).amps)


def test_marginal_probability_matches_direct_sum():
    rng = make_rng(21)
    basis = ModeSpinBasis(3, 2, 2, 2)
    layers = random_layers(basis, 2, rng, coupling_scale=0.5)
    state = evolve_circuit(
        product_joint(basis, random_state_vector(6, rng), random_state_vector(4, rng)), layers
    )
    # The second particle's table is the first particle's of the transposed
    # state, on the basis with the two particles swapped.
    table_a = mode_marginal(state.amps, basis)
    table_b = mode_marginal(state.amps.T, ModeSpinBasis(2, 2, 3, 2))
    t = state.amps.reshape(3, 2, 2, 2)
    ref_a = np.einsum("msjt,msjt->m", t.conj(), t).real
    ref_b = np.einsum("msjt,msjt->j", t.conj(), t).real
    assert np.max(np.abs(table_a - ref_a)) < 1e-14
    assert np.max(np.abs(table_b - ref_b)) < 1e-14
    assert abs(table_a.sum() - 1.0) < 1e-10
    assert abs(table_a[1] - ref_a[1]) < 1e-14


def test_marginal_ignores_other_particles_operations_without_couplings():
    """With no phase tables the first particle's marginal never sees u_b."""
    rng = make_rng(31)
    basis = ModeSpinBasis(3, 2, 3, 2)
    layers = random_layers(basis, 3, rng)
    replaced = [CircuitLayer(l.u_a, random_unitary(basis.dim_b, rng)) for l in layers]
    psi1 = random_state_vector(basis.dim_a, rng)
    psi2 = random_state_vector(basis.dim_b, rng)
    for state0 in (product_joint(basis, psi1, psi2), JointState(basis, np.outer(psi1, psi2))):
        m1 = mode_marginal(evolve_circuit(state0, layers).amps, basis)
        m2 = mode_marginal(evolve_circuit(state0, replaced).amps, basis)
        assert np.max(np.abs(m1 - m2)) < 1e-14


def test_marginal_ignores_final_layer_replacement_even_with_couplings():
    # replacing u_b after the last coupling acts cannot move particle a's marginal
    rng = make_rng(37)
    basis = ModeSpinBasis(2, 2, 3, 2)
    layers = random_layers(basis, 2, rng, coupling_scale=0.8)
    tail = CircuitLayer(random_unitary(basis.dim_a, rng), random_unitary(basis.dim_b, rng))
    tail_alt = CircuitLayer(tail.u_a, random_unitary(basis.dim_b, rng))
    psi1 = random_state_vector(basis.dim_a, rng)
    psi2 = random_state_vector(basis.dim_b, rng)
    m1 = mode_marginal(evolve_circuit(product_joint(basis, psi1, psi2), layers + [tail]).amps, basis)
    m2 = mode_marginal(evolve_circuit(product_joint(basis, psi1, psi2), layers + [tail_alt]).amps, basis)
    assert np.max(np.abs(m1 - m2)) < 1e-14


@pytest.mark.parametrize("seed", range(4))
def test_dense_unitary_composes_the_layers(seed):
    rng = make_rng(500 + seed)
    basis = ModeSpinBasis(int(rng.integers(2, 5)), 2, int(rng.integers(2, 5)), 2)
    n = int(rng.integers(1, 5))
    layers = random_layers(basis, n, rng, coupling_scale=0.7)
    dense = dense_unitary(layers, basis)
    dim = basis.dim_a * basis.dim_b
    assert np.max(np.abs(dense.conj().T @ dense - np.eye(dim))) < 1e-10
    psi1 = random_state_vector(basis.dim_a, rng)
    psi2 = random_state_vector(basis.dim_b, rng)
    final = evolve_circuit(product_joint(basis, psi1, psi2), layers)
    flat = dense @ np.kron(psi1, psi2)
    assert np.max(np.abs(final.amps.reshape(-1) - flat)) < 1e-10


def test_inverse_layers_undo_the_evolution():
    rng = make_rng(41)
    basis = ModeSpinBasis(3, 2, 2, 2)
    layers = random_layers(basis, 3, rng, coupling_scale=1.0)
    state0 = product_joint(basis, random_state_vector(6, rng), random_state_vector(4, rng))
    forward = evolve_circuit(state0, layers)
    back = forward
    for layer in inverse_layers(layers):
        back = apply_layer(back, layer)
    assert np.max(np.abs(back.amps - state0.amps)) < 1e-12


def test_documented_two_layer_circuit_amplitudes():
    """Fixed small circuit against amplitudes frozen from the flat reference.

    Layer 1: mode mixer on particle a, spin rotation (pi/6) on particle b,
    phase table theta[j, k] = (pi/4) * ((j * k) mod 3).  Layer 2: spin mixer
    on a, mode mixer on b, no coupling.  Start: (|0,up> + i |1,down>)/sqrt(2)
    times |0,down>.
    """
    h2 = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
    i2 = np.eye(2, dtype=np.complex128)
    rot = np.array(
        [
            [np.cos(np.pi / 6), -np.sin(np.pi / 6)],
            [np.sin(np.pi / 6), np.cos(np.pi / 6)],
        ],
        dtype=np.complex128,
    )
    theta = (np.pi / 4) * np.fromfunction(lambda j, k: (j * k) % 3, (4, 4))
    layers = [
        CircuitLayer(np.kron(h2, i2), np.kron(i2, rot), phases=theta),
        CircuitLayer(np.kron(i2, h2), np.kron(h2, i2)),
    ]
    basis = ModeSpinBasis(2, 2, 2, 2)
    psi1 = np.zeros(4, dtype=np.complex128)
    psi1[0] = 1.0 / np.sqrt(2)
    psi1[3] = 1j / np.sqrt(2)
    psi2 = np.zeros(4, dtype=np.complex128)
    psi2[1] = 1.0
    final = evolve_circuit(product_joint(basis, psi1, psi2), layers)
    expected = np.array(
        [
            [
                -0.12499999999999994 - 0.12499999999999994j,
                +0.063413242022161032 + 0.15309310892394856j,
                -0.12499999999999994 - 0.12499999999999994j,
                +0.063413242022161032 + 0.15309310892394856j,
            ],
            [
                -0.12499999999999994 + 0.12499999999999994j,
                +0.36959945987005816 - 0.15309310892394856j,
                -0.12499999999999994 + 0.12499999999999994j,
                +0.36959945987005816 - 0.15309310892394856j,
            ],
            [
                -0.12499999999999994 + 0.12499999999999994j,
                +1.3257190484061332e-17 + 0j,
                -0.12499999999999994 + 0.12499999999999994j,
                +1.3257190484061332e-17 + 0j,
            ],
            [
                -0.12499999999999994 - 0.12499999999999994j,
                +1.3257190484061332e-17 + 0.43301270189221919j,
                -0.12499999999999994 - 0.12499999999999994j,
                +1.3257190484061332e-17 + 0.43301270189221919j,
            ],
        ]
    )
    assert np.max(np.abs(final.amps - expected)) < 1e-12
    marg = mode_marginal(final.amps, final.basis)
    assert np.max(np.abs(marg - np.array([0.5, 0.5]))) < 1e-12
