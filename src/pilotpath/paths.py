"""Sum-over-paths decomposition of a layered two-particle evolution.

The first particle's dynamics is unraveled into basis paths through its
mode-and-spin space.  Each path carries a complex amplitude, the product of
the one-body matrix elements along it times the initial amplitude at its
starting point, and a partner state: the second particle's initial vector
pushed through its own one-body layers interleaved with the diagonal
coupling phases sliced at the path's current point.

Inner products between partner states of two paths decide how strongly the
pair interferes when densities and currents are rebuilt from the
decomposition.  An overlap of one restores full single-particle coherence;
zero removes that cross term entirely.  The decomposition is exact: summing
amplitude times partner state over all paths with a given endpoint
reproduces the corresponding row of the directly evolved joint state.

Enumeration is exhaustive over nonzero transitions and guarded by explicit
resource caps; it never truncates silently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circuit import CircuitLayer, JointState, ModeSpinBasis, StepStencil, apply_right, evolve_circuit
from .dirac import ALPHA1, SPINOR_DIM, LatticeGrid
from .errors import PilotPathError, ResourceCapError, ValidationError

OVERLAP_DIAG_TOL = 1e-12
OVERLAP_HERM_TOL = 1e-13
PRODUCT_RANK_TOL = 1e-12


@dataclass(frozen=True)
class PathCaps:
    """Hard limits that turn combinatorial blowup into explicit errors."""

    pair_cap: int
    memory_cap_bytes: int


class PathContext:
    """Layered system prepared for path conditioning.

    Holds the joint layers, the initial one-particle factors (the start must
    be a product state; entangled starts are rejected), and optionally the
    lattice geometry that fixes density and current normalization.
    """

    def __init__(
        self,
        layers: list[CircuitLayer],
        basis: ModeSpinBasis,
        psi1: np.ndarray,
        psi2: np.ndarray,
        grid: LatticeGrid | None = None,
    ):
        psi1 = np.asarray(psi1, dtype=np.complex128).reshape(-1)
        psi2 = np.asarray(psi2, dtype=np.complex128).reshape(-1)
        if psi1.shape[0] != basis.dim_a or psi2.shape[0] != basis.dim_b:
            raise ValidationError("initial factors do not match the basis dimensions")
        # A NaN or infinite entry makes its norm NaN or infinite, which
        # fails these bounds as a zero factor does.
        n1, n2 = np.linalg.norm(psi1), np.linalg.norm(psi2)
        if not (0.0 < n1 < np.inf and 0.0 < n2 < np.inf):
            raise ValidationError("initial factors must be finite and nonzero, with a norm within the float range")
        for t, layer in enumerate(layers):
            if layer.u_a.shape[0] != basis.dim_a or layer.u_b.shape[0] != basis.dim_b:
                raise ValidationError(f"layer {t} does not match the basis dimensions")
        if grid is not None and basis.dim_a != grid.n_sites * SPINOR_DIM:
            raise ValidationError("grid does not match the first particle's dimension")
        self.layers = list(layers)
        self.basis = basis
        self.psi1 = psi1 / n1
        self.psi2 = psi2 / n2
        self.grid = grid
        self.psi1.flags.writeable = False
        self.psi2.flags.writeable = False

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @classmethod
    def from_joint_state(
        cls,
        state: JointState,
        layers: list[CircuitLayer],
        grid: LatticeGrid | None = None,
    ) -> "PathContext":
        """Extract product factors from a joint start; reject entangled ones.

        Branch factors are first reduced by QR, left = Q1 C1 and
        right = Q2 C2, so the singular values come from the r x r core
        C1 @ C2.T instead of the full amplitude matrix.  A dense start (right
        is the identity) is its own core.
        """
        q1 = q2 = None
        core = state.left
        if state.right is not None:
            q1, c1 = np.linalg.qr(state.left)
            q2, c2 = np.linalg.qr(state.right)
            core = c1 @ c2.T
        u, s, vh = np.linalg.svd(core)
        if s.shape[0] > 1 and s[1] > PRODUCT_RANK_TOL * s[0]:
            raise ValidationError(
                "path conditioning needs a product initial state; "
                f"second singular value is {s[1]:.3e}"
            )
        # numpy svd convention: core[j, k] = u[j, 0] * s[0] * vh[0, k], and
        # amps[j, k] = psi1[j] * psi2[k], so vh's row is psi2 as stored.
        psi1 = u[:, 0] if q1 is None else q1 @ u[:, 0]
        psi2 = s[0] * (vh[0, :] if q2 is None else q2 @ vh[0, :])
        lead = int(np.argmax(np.abs(psi1)))
        rot = np.exp(-1j * np.angle(psi1[lead]))
        return cls(layers, state.basis, psi1 * rot, psi2 * np.conj(rot), grid)

    def initial_state(self) -> JointState:
        """The product start as one branch: amps = psi1 psi2^T."""
        return JointState(self.basis, self.psi1[:, None], self.psi2[:, None])

    def density_scale(self) -> float:
        return 1.0 if self.grid is None else 1.0 / self.grid.dx

    def current_scale(self) -> float:
        if self.grid is None:
            return 1.0
        return (self.grid.dx / self.grid.dt) / self.grid.dx


def direct_state(context: PathContext) -> JointState:
    """Reference joint state after the context's layers, evolved without path
    machinery.  It stays one branch of factors until a coupling acts."""
    return evolve_circuit(context.initial_state(), context.layers)


@dataclass(eq=False)
class PathEnsemble:
    """Final frontier of the exhaustive path decomposition over every layer
    of its context.

    Path i ends at endpoints[i] with amplitude amps[i]; its partner state is
    partners[rows[i]], a row of the table of distinct partner states.
    """

    context: PathContext
    endpoints: np.ndarray
    amps: np.ndarray
    partners: np.ndarray
    rows: np.ndarray
    _groups: dict[int, np.ndarray] | None = field(default=None, init=False, repr=False)
    _row_sums: np.ndarray | None = field(default=None, init=False, repr=False)

    @property
    def n_paths(self) -> int:
        return int(self.endpoints.shape[0])

    def endpoint_counts(self) -> np.ndarray:
        return np.bincount(self.endpoints, minlength=self.context.basis.dim_a)

    @property
    def pair_count(self) -> int:
        counts = self.endpoint_counts().astype(np.int64)
        return int(np.sum(counts * counts))

    def group_indices(self) -> dict[int, np.ndarray]:
        """Path ids per flat endpoint, in enumeration order."""
        if self._groups is None:
            order = np.argsort(self.endpoints, kind="stable")
            sorted_eps = self.endpoints[order]
            bounds = np.searchsorted(sorted_eps, np.arange(self.context.basis.dim_a + 1))
            self._groups = {}
            for g in range(self.context.basis.dim_a):
                lo, hi = bounds[g], bounds[g + 1]
                if hi > lo:
                    self._groups[g] = order[lo:hi]
        return self._groups

    def reconstruct_rows(self) -> np.ndarray:
        """Amplitude-weighted partner-state sums per endpoint.

        Row j equals the directly evolved joint state's row j; this is the
        module's defining identity and what every density reconstruction
        reduces to.  When the table of distinct partner states is small, the
        sum is one product: a (dim_a, rows) matrix of summed amplitudes times
        the table.
        """
        if self._row_sums is None:
            d1 = self.context.basis.dim_a
            n_rows = self.partners.shape[0]
            if d1 * n_rows <= self.n_paths:
                weights = np.zeros((d1, n_rows), dtype=np.complex128)
                np.add.at(weights, (self.endpoints, self.rows), self.amps)
                sums = weights @ self.partners
            else:
                sums = np.zeros((d1, self.context.basis.dim_b), dtype=np.complex128)
                for g, idx in self.group_indices().items():
                    sums[g] = (self.amps[idx, None] * self.partners[self.rows[idx]]).sum(axis=0)
            self._row_sums = sums
        return self._row_sums

    def diagonal_weights(self) -> np.ndarray:
        """Per-endpoint sum of |amplitude|^2 times partner-state norm."""
        d1 = self.context.basis.dim_a
        out = np.zeros(d1)
        # re^2 + im^2 over the float view: no conjugated copy of any partner.
        parts = self.partners.view(np.float64)
        norms = np.einsum("pk,pk->p", parts, parts)[self.rows]
        w = np.abs(self.amps) ** 2 * norms
        np.add.at(out, self.endpoints, w)
        return out


def _columns(u) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """u's nonzeros column by column, as CSC stores them: (column starts,
    rows, values).  Rows ascend within each column, which fixes the
    successor order of every path."""
    if isinstance(u, StepStencil):
        rows, cols, vals = u.entries()
    else:
        rows, cols = np.nonzero(u)
        vals = u[rows, cols]
    order = np.argsort(cols, kind="stable")
    starts = np.zeros(u.shape[1] + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols, minlength=u.shape[1]), out=starts[1:])
    return starts, rows[order], vals[order]


def enumerate_all(context: PathContext, caps: PathCaps) -> PathEnsemble:
    """Breadth-first exhaustive enumeration of the first particle's paths.

    Level by level, every path is extended along all transitions with a
    nonzero one-body matrix element; the partner states are advanced by the
    shared one-body layer and then picked up the coupling phase column of
    the path's new point.  Deterministic: successors are emitted in
    ascending basis order for each parent.

    Until a coupling acts, every path has the same partner state, so a
    frontier holds only the table of distinct partner states and each
    path's row in it.  An uncoupled layer pushes the table; a coupled one
    gives every path its own row.  Only the frontier being read and the one
    being built are held; the ensemble is the last.
    """
    d2 = context.basis.dim_b
    endpoints = np.flatnonzero(context.psi1).astype(np.int32)
    amps = context.psi1[endpoints]
    partners = context.psi2[None, :]
    rows = np.zeros(endpoints.shape[0], dtype=np.int64)

    for t, layer in enumerate(context.layers):
        col_start, col_rows, col_vals = _columns(layer.u_a)
        counts = np.diff(col_start)[endpoints]
        total = int(counts.sum())
        # A path always has at least one successor, so the frontier never
        # shrinks and the final pair count is at least the frontier size.
        if total > caps.pair_cap:
            raise ResourceCapError(
                f"path count reached {total} at layer {t + 1}, beyond the pair cap "
                f"{caps.pair_cap}; raise the cap or shrink the scenario"
            )
        # Both frontiers: per path an amplitude, endpoint and row, plus each
        # frontier's table of distinct partner states.
        held = total if layer.factor is not None else partners.shape[0]
        layer_bytes = (endpoints.shape[0] + total) * (16 + 4 + 8) + (partners.shape[0] + held) * 16 * d2
        if layer_bytes > caps.memory_cap_bytes:
            raise ResourceCapError(
                f"path storage would need {layer_bytes} bytes at layer "
                f"{t + 1}, beyond the memory cap {caps.memory_cap_bytes}"
            )
        parent_idx = np.repeat(np.arange(counts.shape[0], dtype=np.int64), counts)
        # Successors are the parents' columns laid end to end, so their
        # positions in the column arrays run on from each column's start.
        column_start = col_start[endpoints] - (np.cumsum(counts) - counts)
        pos = np.repeat(column_start, counts) + np.arange(total)
        endpoints = col_rows[pos].astype(np.int32)
        amps = amps[parent_idx] * col_vals[pos]
        partners = apply_right(partners, layer.u_b)
        rows = rows[parent_idx]
        if layer.factor is not None:
            # Two statements: numpy's temporary elision would swap the operands
            # of partners[rows] * factor[...], and with FMA that moves bits.
            partners = partners[rows]
            partners = partners * layer.factor[endpoints, :]
            rows = np.arange(total)

    ensemble = PathEnsemble(context, endpoints, amps, partners, rows)
    if ensemble.pair_count > caps.pair_cap:
        raise ResourceCapError(
            f"endpoint pair count {ensemble.pair_count} exceeds the cap {caps.pair_cap}"
        )
    return ensemble


# ----------------------------------------------------------------------------
# Overlap tables


@dataclass
class OverlapGroup:
    """Pairwise partner-state overlaps among the paths of one endpoint."""

    endpoint: tuple[int, int]
    path_ids: np.ndarray
    overlaps: np.ndarray


@dataclass
class OverlapTable:
    """Per-endpoint overlap structure of a path ensemble."""

    groups: dict[int, OverlapGroup]


def _settle_gram(gram: np.ndarray, what: str) -> np.ndarray:
    """Validate the structural identities of an overlap Gram, then pin them.

    The diagonal must already be one and the matrix conjugate-symmetric up
    to accumulation noise; deviations beyond tolerance indicate an engine
    defect, not data to be smoothed over.
    """
    asym = np.max(np.abs(gram - gram.conj().T)) if gram.size else 0.0
    if asym > OVERLAP_HERM_TOL:
        raise PilotPathError(f"{what}: conjugate symmetry off by {asym:.3e}")
    gram = 0.5 * (gram + gram.conj().T)
    if gram.size:
        diag_off = np.max(np.abs(np.diagonal(gram) - 1.0))
        if diag_off > OVERLAP_DIAG_TOL:
            raise PilotPathError(f"{what}: unit diagonal off by {diag_off:.3e}")
        np.fill_diagonal(gram, 1.0)
        top = np.max(np.abs(gram))
        if top > 1.0 + 1e-12:
            raise PilotPathError(f"{what}: overlap magnitude {top} exceeds one")
    return gram


def overlap_table(ensemble: PathEnsemble) -> OverlapTable:
    """Gram matrices of final partner states, grouped by path endpoint.

    When the table of distinct partner states has fewer entry pairs than
    the groups together, one Gram of the table is formed and each group
    reads its block; otherwise each group forms its own.
    """
    basis = ensemble.context.basis
    partners = ensemble.partners
    shared = None
    if partners.shape[0] ** 2 < ensemble.pair_count:
        shared = _settle_gram(partners.conj() @ partners.T, "distinct partner states")
    out: dict[int, OverlapGroup] = {}
    for g, ids in ensemble.group_indices().items():
        rows = ensemble.rows[ids]
        if shared is None:
            phi = partners[rows]
            gram = _settle_gram(phi.conj() @ phi.T, f"endpoint {basis.unflat_a(g)}")
        else:
            gram = shared[np.ix_(rows, rows)]
        out[g] = OverlapGroup(endpoint=basis.unflat_a(g), path_ids=ids.copy(), overlaps=gram)
    return OverlapTable(groups=out)


# ----------------------------------------------------------------------------
# Reconstruction sums


@dataclass
class PathDensity:
    """Endpoint density split into its path-diagonal and cross parts."""

    total: np.ndarray
    diagonal: np.ndarray
    cross: np.ndarray


@dataclass
class PathCurrent:
    """Reconstructed spatial current with its vanishing diagonal made explicit."""

    value: np.ndarray
    diagonal_term: np.ndarray
    imag_residue: float


def mode_marginal(amps: np.ndarray, basis: ModeSpinBasis) -> np.ndarray:
    """First-particle mode probabilities of a (dim_a, dim_b) amplitude matrix."""
    rows = amps.reshape(basis.modes_a, basis.spins_a, basis.dim_b)
    return np.einsum("jsk,jsk->j", rows.conj(), rows).real


def path_sum_marginal(ensemble: PathEnsemble) -> np.ndarray:
    """Mode occupation probabilities rebuilt from the decomposition."""
    return mode_marginal(ensemble.reconstruct_rows(), ensemble.context.basis)


def path_sum_density(ensemble: PathEnsemble) -> PathDensity:
    """Endpoint density as diagonal-plus-cross path sums.

    The diagonal part sums |amplitude|^2 and is nonnegative by construction;
    the cross part carries all interference, weighted by partner-state
    overlaps.  In lattice mode values are per unit length.
    """
    basis = ensemble.context.basis
    scale = ensemble.context.density_scale()
    total = path_sum_marginal(ensemble) * scale
    diag = ensemble.diagonal_weights().reshape(basis.modes_a, basis.spins_a).sum(axis=1) * scale
    return PathDensity(total=total, diagonal=diag, cross=total - diag)


def path_sum_current(ensemble: PathEnsemble) -> PathCurrent:
    """Spatial current rebuilt from cross-endpoint path pairs.

    The velocity matrix has a vanishing diagonal, so same-spin pairs drop
    out and the result is a pure cross term; the diagonal contribution is
    still evaluated explicitly and returned (it is exactly zero).
    """
    context = ensemble.context
    if context.basis.spins_a != SPINOR_DIM or context.grid is None:
        raise ValidationError("current reconstruction needs lattice mode with 4-spinors")
    basis = context.basis
    scale = context.current_scale()
    rows = ensemble.reconstruct_rows().reshape(basis.modes_a, SPINOR_DIM, basis.dim_b)
    cur = np.einsum("xak,ac,xck->x", rows.conj(), ALPHA1, rows) * scale
    resid = float(np.max(np.abs(cur.imag))) if cur.size else 0.0
    if resid > 1e-12:
        raise PilotPathError(f"current reconstruction left imaginary residue {resid:.3e}")
    weights = ensemble.diagonal_weights().reshape(basis.modes_a, SPINOR_DIM)
    diag_term = weights @ np.diagonal(ALPHA1).real * scale
    return PathCurrent(value=cur.real, diagonal_term=diag_term, imag_residue=resid)
