"""Layered two-particle circuit engine.

Each particle carries a (location, spin) index pair; a layer applies one
unitary per particle followed by a diagonal phase coupling on the joint
basis.  A state is a (dim_a, dim_b) amplitude matrix over the flattened
per-particle indices, held either whole or as a pair of branch factors
whose product is that matrix.  All operations are pure; amplitude arrays
are frozen so states behave as immutable snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import ValidationError

UNITARITY_TOL = 1e-12
NORM_TOL = 1e-8


@dataclass(frozen=True)
class ModeSpinBasis:
    """Index bookkeeping for the joint (location, spin) basis of two particles."""

    modes_a: int
    spins_a: int
    modes_b: int
    spins_b: int

    def __post_init__(self) -> None:
        for name in ("modes_a", "spins_a", "modes_b", "spins_b"):
            if int(getattr(self, name)) < 1:
                raise ValidationError(f"{name} must be a positive count")

    @property
    def dim_a(self) -> int:
        return self.modes_a * self.spins_a

    @property
    def dim_b(self) -> int:
        return self.modes_b * self.spins_b

    def flat_a(self, mode: int, spin: int) -> int:
        if not (0 <= mode < self.modes_a and 0 <= spin < self.spins_a):
            raise ValidationError("particle-A (mode, spin) out of range")
        return mode * self.spins_a + spin

    def unflat_a(self, index: int) -> tuple[int, int]:
        if not 0 <= index < self.dim_a:
            raise ValidationError("particle-A flat index out of range")
        return divmod(index, self.spins_a)


def _as_unitary(u, name: str):
    """Square complex unitary, dense or scipy.sparse (kept as CSR), frozen.

    The check forms u^dagger u in the matrix's own format, so a sparse
    layer is checked in O(nnz).
    """
    if sparse.issparse(u):
        u = sparse.csr_array(u, dtype=np.complex128, copy=True)
        u.sum_duplicates()
        frozen = (u.data, u.indices, u.indptr)
    else:
        u = np.array(u, dtype=np.complex128)
        frozen = (u,)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValidationError(f"{name} must be a square matrix, got shape {u.shape}")
    # frozen[0] holds every stored entry.  Checked first, because a NaN
    # deviation would compare False against the tolerance below.
    if not np.all(np.isfinite(frozen[0])):
        raise ValidationError(f"{name} contains non-finite entries")
    err = float(abs(u.conj().T @ u - sparse.eye_array(u.shape[0])).max())
    if err > UNITARITY_TOL:
        raise ValidationError(f"{name} is not unitary: max deviation {err:.3e}")
    for arr in frozen:
        arr.flags.writeable = False
    return u


class CircuitLayer:
    """One evolution layer: per-particle unitaries, then a diagonal phase coupling.

    The unitaries may be dense arrays or scipy.sparse matrices (walk layers
    are sparse); every product below works with either.  The coupling is a
    real phase table over the joint flattened basis; only phase-diagonal
    couplings are representable, by construction.
    """

    def __init__(self, u_a, u_b, phases=None):
        self.u_a = _as_unitary(u_a, "u_a")
        self.u_b = _as_unitary(u_b, "u_b")
        self.dim_a = self.u_a.shape[0]
        self.dim_b = self.u_b.shape[0]
        if phases is None:
            self.phases = None
        else:
            phases = np.asarray(phases)
            if np.iscomplexobj(phases):
                raise ValidationError("coupling phase table must be real-valued")
            phases = phases.astype(np.float64)
            if phases.shape != (self.dim_a, self.dim_b):
                raise ValidationError(
                    "coupling phase table must have shape "
                    f"({self.dim_a}, {self.dim_b}), got {phases.shape}"
                )
            if not np.all(np.isfinite(phases)):
                raise ValidationError("coupling phase table contains non-finite entries")
            phases = phases.copy()
            phases.flags.writeable = False
            self.phases = phases

    def coupling_factor(self) -> np.ndarray | None:
        if self.phases is None:
            return None
        return np.exp(1j * self.phases)


def branch_norm_sq(left: np.ndarray, right: np.ndarray | None) -> float:
    """|left @ right.T|^2 from the two factors' Gram matrices, without the product."""
    if right is None:
        return float(np.vdot(left, left).real)
    return float(((left.conj().T @ left) * (right.conj().T @ right)).sum().real)


@dataclass(frozen=True)
class JointState:
    """Pure two-particle state held as branch factors: amps = left @ right.T.

    Column i of left (dim_a, r) and of right (dim_b, r) are branch i's
    one-particle factors.  right=None stands for the identity, so left is
    then the full (dim_a, dim_b) amplitude matrix: the form of dense starts
    and of states after a coupling layer.
    """

    basis: ModeSpinBasis
    left: np.ndarray
    right: np.ndarray | None = None

    def __post_init__(self) -> None:
        # Private C-ordered copies: any input layout is accepted, and the
        # checks below read contiguous memory.
        left = np.array(self.left, dtype=np.complex128, order="C")
        right = None if self.right is None else np.array(self.right, dtype=np.complex128, order="C")
        b = self.basis
        width = b.dim_b if right is None else right.shape[-1]
        if left.shape != (b.dim_a, width) or (right is not None and right.shape != (b.dim_b, width)):
            raise ValidationError(
                f"amplitude factors must have shapes ({b.dim_a}, r) and ({b.dim_b}, r), got "
                f"{left.shape} and {None if right is None else right.shape}"
            )
        for arr in (left,) if right is None else (left, right):
            if not np.all(np.isfinite(arr)):
                raise ValidationError("amplitudes contain non-finite entries")
            arr.flags.writeable = False
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        norm_err = abs(branch_norm_sq(left, right) - 1.0)
        if norm_err > NORM_TOL:
            raise ValidationError(f"state is not normalized: |norm^2 - 1| = {norm_err:.3e}")

    @property
    def amps(self) -> np.ndarray:
        """The (dim_a, dim_b) amplitude matrix; formed on each read of a factored state."""
        return self.left if self.right is None else self.left @ self.right.T

    @classmethod
    def from_product(cls, basis: ModeSpinBasis, psi_a, psi_b) -> "JointState":
        psi_a = np.asarray(psi_a, dtype=np.complex128).reshape(basis.dim_a)
        psi_b = np.asarray(psi_b, dtype=np.complex128).reshape(basis.dim_b)
        return cls(basis, np.outer(psi_a, psi_b))


def apply_layer(state: JointState, layer: CircuitLayer) -> JointState:
    """Apply the per-particle unitaries, then the diagonal coupling phase.

    A factored state steps each factor with its own particle's unitary,
    u_a @ left and u_b @ right.  A coupling multiplies the full amplitude
    matrix, so the state leaves a coupled layer dense; a dense state steps
    as u_a @ A @ u_b.T.
    """
    b = state.basis
    if (layer.dim_a, layer.dim_b) != (b.dim_a, b.dim_b):
        raise ValidationError(
            f"layer dims ({layer.dim_a}, {layer.dim_b}) do not match state "
            f"dims ({b.dim_a}, {b.dim_b})"
        )
    factor = layer.coupling_factor()
    if state.right is None:
        amps = layer.u_a @ state.left @ layer.u_b.T
    else:
        left, right = layer.u_a @ state.left, layer.u_b @ state.right
        if factor is None:
            return JointState(b, left, right)
        amps = left @ right.T
    if factor is not None:
        amps = amps * factor
    return JointState(b, amps)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """A Haar-random (dim, dim) unitary: the QR factor Q of a complex normal
    draw, with the phases of R's diagonal moved into Q.  Draws and operation
    order are scipy.stats' U(N) sampler's, so rng gives the same bits."""
    z = 1 / np.sqrt(2) * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    q, r = np.linalg.qr(z)
    d = r.diagonal()
    q *= (d / abs(d))[np.newaxis, :]
    return q


def evolve_circuit(state0: JointState, layers) -> JointState:
    """Fold apply_layer over the circuit."""
    state = state0
    for layer in layers:
        state = apply_layer(state, layer)
    return state

