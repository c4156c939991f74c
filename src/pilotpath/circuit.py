"""Layered two-particle circuit engine.

Each particle carries a (location, spin) index pair; a layer applies one
unitary per particle followed by a diagonal phase coupling on the joint
basis.  A state is a (dim_a, dim_b) amplitude matrix over the flattened
per-particle indices, held either whole or as a pair of branch factors
whose product is that matrix.  All operations are pure; amplitude arrays
are frozen so states behave as immutable snapshots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

UNITARITY_TOL = 1e-12


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


class StepStencil:
    """A square one-body operator held row by row: a local step's few
    nonzeros per row, without a sparse-matrix library.

    Row i is sum_t vals[i, t] * e_{cols[i, t]}, columns ascending within the
    row, as CSR stores them; rows shorter than the widest carry zero-valued
    pads.  Products are formed in real arithmetic on the float parts,
    (a*xr - b*xi, a*xi + b*xr), each entry summed term by term from 0 in
    column order.  That is CSR's product arithmetic bit for bit, and a zero
    pad term leaves a finite sum unchanged.  A stencil is checked once, here,
    and frozen, so a CircuitLayer takes it as it is.
    """

    def __init__(self, cols, vals):
        cols = np.array(cols, dtype=np.intp)
        vals = np.array(vals, dtype=np.complex128)
        if cols.ndim != 2 or cols.shape != vals.shape:
            raise ValidationError(
                f"step needs (n, w) column and value tables, got {cols.shape} and {vals.shape}"
            )
        n = cols.shape[0]
        if cols.size and (cols.min() < 0 or cols.max() >= n):
            raise ValidationError(f"step must be a square matrix: a column index lies outside 0..{n - 1}")
        if not np.all(np.isfinite(vals)):
            raise ValidationError("step contains non-finite entries")
        err = _stencil_deviation(cols, vals)
        if err > UNITARITY_TOL:
            raise ValidationError(f"step is not unitary: max deviation {err:.3e}")
        self.cols = cols
        self.vals = vals
        self.shape = (n, n)
        self._re = np.ascontiguousarray(vals.real)
        self._im = np.ascontiguousarray(vals.imag)
        for arr in (self.cols, self.vals, self._re, self._im):
            arr.flags.writeable = False

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, values) of the stored nonzeros, row by row, columns ascending."""
        keep = self.vals != 0
        rows = np.broadcast_to(np.arange(self.shape[0])[:, None], self.cols.shape)
        return rows[keep], self.cols[keep], self.vals[keep]

    def product(self, x: np.ndarray, axis: int = 0) -> np.ndarray:
        """self @ x along axis 0 of x, or x @ self.T along axis 1 (axis=1).

        x has shape (n,) or (n, r) for axis 0, (r, n) for axis 1; the result
        has x's shape and is C-ordered.  It is formed in blocks of output
        rows, so a wide product's temporaries stay in cache.
        """
        x = np.ascontiguousarray(x, dtype=np.complex128)
        out = np.empty(x.shape, dtype=np.complex128)
        rows = max(1, _BLOCK_ENTRIES // max(1, math.prod(x.shape[1:])))
        for lo in range(0, x.shape[0], rows):
            part = slice(lo, lo + rows)
            if axis == 0:
                _stencil_sum(x, self.cols[part], self._re[part], self._im[part], 0, out[part])
            else:
                _stencil_sum(x[part], self.cols, self._re, self._im, 1, out[part])
        return out


# Entries per block of a stencil product: each of its four float
# temporaries then holds w * 4096 entries, 128 KiB at w = 4.
_BLOCK_ENTRIES = 4096


def _stencil_sum(x, cols, re, im, axis: int, out: np.ndarray) -> None:
    """out = sum_t (re + i*im)[:, t] * (x taken at cols[:, t] along axis),
    in real arithmetic, accumulated term by term from 0."""
    # Term axis first: g[t] is x taken at cols[:, t].
    g = np.moveaxis(np.take(x, cols.T, axis=axis), axis, 0)
    shape = [cols.shape[1]] + [1] * x.ndim
    shape[1 + axis] = -1
    a, b = re.T.reshape(shape), im.T.reshape(shape)
    terms_r = a * g.real
    terms_r -= b * g.imag
    terms_i = a * g.imag
    terms_i += b * g.real
    acc_r = np.zeros(out.shape)
    acc_i = np.zeros(out.shape)
    for t in range(cols.shape[1]):
        acc_r += terms_r[t]
        acc_i += terms_i[t]
    out.real = acc_r
    out.imag = acc_i


def _stencil_deviation(cols: np.ndarray, vals: np.ndarray) -> float:
    """max |u^dagger u - 1| of a stencil, in O(nnz * w).

    Entry (j, k) of u^dagger u sums conj(u[i, j]) * u[i, k] over rows i, so
    every pair of one row's entries adds to one cell; the identity's -1 is
    added at each diagonal cell, so a cell no row reaches still counts.
    """
    n = cols.shape[0]
    cells = np.concatenate(
        [(cols[:, :, None] * n + cols[:, None, :]).ravel(), np.arange(n) * (n + 1)]
    )
    terms = np.concatenate([(vals.conj()[:, :, None] * vals[:, None, :]).ravel(), -np.ones(n)])
    _, which = np.unique(cells, return_inverse=True)
    sums = np.bincount(which, terms.real) + 1j * np.bincount(which, terms.imag)
    return float(np.abs(sums).max(initial=0.0))


def _as_unitary(u, name: str):
    """A square complex unitary: a StepStencil as it is, or a dense array
    copied and frozen."""
    if isinstance(u, StepStencil):
        return u
    u = np.array(u, dtype=np.complex128)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValidationError(f"{name} must be a square matrix, got shape {u.shape}")
    # Checked first, because a NaN deviation would compare False against
    # the tolerance below.
    if not np.all(np.isfinite(u)):
        raise ValidationError(f"{name} contains non-finite entries")
    err = float(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max())
    if err > UNITARITY_TOL:
        raise ValidationError(f"{name} is not unitary: max deviation {err:.3e}")
    u.flags.writeable = False
    return u


def apply_left(u, x: np.ndarray) -> np.ndarray:
    """u @ x for a dense u or a StepStencil."""
    return u.product(x) if isinstance(u, StepStencil) else u @ x


def apply_right(x: np.ndarray, u) -> np.ndarray:
    """x @ u.T for a dense u or a StepStencil."""
    return u.product(x, axis=1) if isinstance(u, StepStencil) else x @ u.T


class CircuitLayer:
    """One evolution layer: per-particle unitaries, then a diagonal phase coupling.

    The unitaries may be dense arrays or StepStencils (walk layers are
    stencils); apply_left and apply_right take either.  The coupling is a
    real phase table over the joint flattened basis; only phase-diagonal
    couplings are representable, by construction.  factor = exp(i phases)
    is formed once, here, and frozen with the table.
    """

    def __init__(self, u_a, u_b, phases=None):
        self.u_a = _as_unitary(u_a, "u_a")
        self.u_b = _as_unitary(u_b, "u_b")
        self.dim_a = self.u_a.shape[0]
        self.dim_b = self.u_b.shape[0]
        self.phases = self.factor = None
        if phases is not None:
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
            self.phases = phases.copy()
            self.factor = np.exp(1j * self.phases)
            self.phases.flags.writeable = False
            self.factor.flags.writeable = False


def branch_norm_sq(left: np.ndarray, right: np.ndarray | None) -> float:
    """|left @ right.T|^2 from the two factors' Gram matrices, without the product."""
    if right is None:
        return float(np.vdot(left, left).real)
    return float(((left.conj().T @ left) * (right.conj().T @ right)).sum().real)


@dataclass(frozen=True)
class JointState:
    """Pure two-particle state held as branch factors: amps = left @ right.T.

    Column i of left (dim_a, r) and of right (dim_b, r) are branch i's
    one-particle factors; a product start is one branch, r = 1.
    right=None stands for the identity, so left is then the full
    (dim_a, dim_b) amplitude matrix: the form of states after a coupling
    layer.  Only the shapes are checked here.  A state made from outside
    amplitudes is normalized where it is made, and unitary layers keep the
    norm; verify reports any drift.
    """

    basis: ModeSpinBasis
    left: np.ndarray
    right: np.ndarray | None = None

    def __post_init__(self) -> None:
        # Private C-ordered copies: any input layout is accepted.
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
            arr.flags.writeable = False
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    @property
    def amps(self) -> np.ndarray:
        """The (dim_a, dim_b) amplitude matrix, read-only; formed on each read
        of a factored state."""
        if self.right is None:
            return self.left
        amps = self.left @ self.right.T
        amps.flags.writeable = False
        return amps


def apply_layer(state: JointState, layer: CircuitLayer) -> JointState:
    """Apply the per-particle unitaries, then the diagonal coupling phase.

    A factored state steps each factor with its own particle's unitary,
    u_a @ left and u_b @ right.  A coupling multiplies the full amplitude
    matrix, so the state leaves a coupled layer dense; a dense state steps
    as u_a @ A @ u_b.T.  The layer was checked against the state's basis
    where its system was built.
    """
    b = state.basis
    factor = layer.factor
    if state.right is None:
        amps = apply_right(apply_left(layer.u_a, state.left), layer.u_b)
    else:
        left, right = apply_left(layer.u_a, state.left), apply_left(layer.u_b, state.right)
        if factor is None:
            return JointState(b, left, right)
        amps = left @ right.T
    if factor is not None:
        amps = amps * factor
    return JointState(b, amps)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """A Haar-random (dim, dim) unitary: the QR factor Q of a complex normal
    draw, with the phases of R's diagonal moved into Q.  Draws and operation
    order are those of the usual unitary_group sampler, so rng gives the
    same bits as it does."""
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

