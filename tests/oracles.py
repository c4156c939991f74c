"""Reference computations the tests compare the package against.

Each one recomputes a quantity the hard way, path by path or as one dense
joint-space matrix, so that it stays independent of the vectorised code it
checks.  None of them is reached by the command line.
"""

import functools
import math
from dataclasses import dataclass

import jsonschema
import numpy as np
import scipy.ndimage
import scipy.sparse

from pilotpath.circuit import CircuitLayer, JointState, ModeSpinBasis, StepStencil
from pilotpath.dirac import ALPHA1, CHIRAL_SIGNS, CHIRAL_V, NAMED_SPINORS, SPINOR_DIM, bloch_step_matrix
from pilotpath.errors import PilotPathError, ValidationError
from pilotpath.guidance import VelocityStack, cell_edges
from pilotpath.scenario import _schema


def dense(u) -> np.ndarray:
    """A layer factor as a dense array; walk layers hold StepStencils."""
    if not isinstance(u, StepStencil):
        return np.asarray(u)
    out = np.zeros(u.shape, dtype=np.complex128)
    rows, cols, vals = u.entries()
    out[rows, cols] = vals
    return out


# ----------------------------------------------------------------------------
# Single paths of the first particle


@dataclass(frozen=True)
class Path:
    """One basis path of the first particle: (location, spin) per layer."""

    steps: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.steps)


@functools.lru_cache(maxsize=4)
def path_levels(context) -> list[tuple[np.ndarray, np.ndarray]]:
    """(endpoints, parents) of every level of the first particle's paths,
    enumerated one path at a time from each layer's dense u_a: a path's
    successors are the nonzero rows of its endpoint's column, in ascending
    basis order.  Level 0's parents are -1."""
    start = np.flatnonzero(context.psi1)
    levels = [(start, np.full(start.shape[0], -1))]
    for layer in context.layers:
        u = dense(layer.u_a)
        endpoints, parents = [], []
        for parent, e in enumerate(levels[-1][0]):
            for j in np.flatnonzero(u[:, e]):
                endpoints.append(j)
                parents.append(parent)
        levels.append((np.array(endpoints, dtype=np.int64), np.array(parents, dtype=np.int64)))
    return levels


def steps_of(ensemble, path_id: int) -> np.ndarray:
    """Flat endpoint sequence of one path, layer 0 through n, read from
    path_levels; path ids are the ensemble's, since both enumerations
    order a path's successors the same way."""
    levels = path_levels(ensemble.context)
    seq = np.empty(len(levels), dtype=np.int64)
    a = int(path_id)
    for r in range(len(levels) - 1, -1, -1):
        seq[r] = levels[r][0][a]
        a = int(levels[r][1][a])
    return seq


def flat_a(basis: ModeSpinBasis, mode: int, spin: int) -> int:
    """Flat particle-A index of (mode, spin), the inverse of basis.unflat_a."""
    if not (0 <= mode < basis.modes_a and 0 <= spin < basis.spins_a):
        raise ValidationError("particle-A (mode, spin) out of range")
    return mode * basis.spins_a + spin


def to_path(ensemble, path_id: int) -> Path:
    basis = ensemble.context.basis
    return Path(tuple(basis.unflat_a(int(z)) for z in steps_of(ensemble, path_id)))


def _validate_path(context, path: Path) -> list[int]:
    if len(path) == 0 or len(path) > context.n_layers + 1:
        raise ValidationError("path length does not fit the layer stack")
    flat = []
    for loc, spin in path.steps:
        flat.append(flat_a(context.basis, int(loc), int(spin)))
    return flat


def conditional_unitary(context, path: Path) -> np.ndarray:
    """Partner-particle operator given the first particle walks this path.

    Per layer: the shared one-body layer first, then the diagonal phase
    column picked out by the path's post-transition point.  Independent of
    the path wherever the couplings vanish.
    """
    flat = _validate_path(context, path)
    d2 = context.basis.dim_b
    mat = np.eye(d2, dtype=np.complex128)
    for r in range(1, len(flat)):
        layer = context.layers[r - 1]
        mat = dense(layer.u_b) @ mat
        factor = layer.factor
        if factor is not None:
            mat = factor[flat[r], :][:, None] * mat
    defect = np.max(np.abs(mat.conj().T @ mat - np.eye(d2)))
    if defect > 1e-12:
        raise PilotPathError(f"conditional operator lost unitarity by {defect:.3e}")
    return mat


def pair_overlap(context, path_p: Path, path_q: Path):
    """Overlap of the two paths' partner states, with per-layer increments.

    Returns (overlap, increments) where increments[r-1] is the change of the
    truncated overlap from layer r-1 to r; one plus their sum telescopes
    back to the full overlap.
    """
    flat_p = _validate_path(context, path_p)
    flat_q = _validate_path(context, path_q)
    if len(flat_p) != len(flat_q):
        raise ValidationError("paths must share the same layer count")
    vp = context.psi2.copy()
    vq = context.psi2.copy()
    partial = [np.vdot(vp, vq)]
    for r in range(1, len(flat_p)):
        layer = context.layers[r - 1]
        vp = dense(layer.u_b) @ vp
        vq = dense(layer.u_b) @ vq
        factor = layer.factor
        if factor is not None:
            vp = vp * factor[flat_p[r], :]
            vq = vq * factor[flat_q[r], :]
        partial.append(np.vdot(vp, vq))
    partial = np.array(partial)
    return partial[-1], np.diff(partial)


# ----------------------------------------------------------------------------
# Walk steps as scipy.sparse matrices


def csr_step(grid, phase_mats) -> scipy.sparse.csr_array:
    """A walk step as the CSR matrix the engine held before its row stencil:
    the product of the block-diagonal CHIRAL_V, the shift permutation and
    the block-diagonal CHIRAL_V^dagger . phase_x, indices sorted.  The
    stencil's entries and products are pinned to it bit for bit."""
    to_chiral = _block_diagonal(CHIRAL_V.conj().T @ phase_mats)
    from_chiral = _block_diagonal(np.broadcast_to(CHIRAL_V, phase_mats.shape))
    matrix = (from_chiral @ _shift_permutation(grid) @ to_chiral).tocsr()
    matrix.sort_indices()
    return matrix


def _block_diagonal(blocks: np.ndarray) -> scipy.sparse.csr_array:
    """CSR matrix with the given (n, 4, 4) blocks along its diagonal."""
    n = blocks.shape[0]
    dim = n * SPINOR_DIM
    out = scipy.sparse.bsr_array((blocks, np.arange(n), np.arange(n + 1)), shape=(dim, dim)).tocsr()
    out.eliminate_zeros()
    return out


def _shift_permutation(grid) -> scipy.sparse.csr_array:
    """Permutation moving each chirality component one site along its sign."""
    n = grid.n_sites
    site = np.repeat(np.arange(n), SPINOR_DIM)
    comp = np.tile(np.arange(SPINOR_DIM), n)
    to = site + np.asarray(CHIRAL_SIGNS)[comp]
    if grid.boundary == "periodic":
        dest = (to % n) * SPINOR_DIM + comp
    else:
        off = (to < 0) | (to >= n)
        dest = np.where(off, site * SPINOR_DIM + (comp ^ 2), to * SPINOR_DIM + comp)
    dim = n * SPINOR_DIM
    return scipy.sparse.csr_array((np.ones(dim), (dest, np.arange(dim))), shape=(dim, dim))


def csr_enumeration(context, csr_a, csr_b):
    """Every level of the path enumeration as it was formed with CSR steps
    in every layer: successors read from a CSC copy of csr_a, and every
    path's partner state pushed through partner @ csr_b.T, then phased.
    Returns ([(endpoints, parents, partner_states)] per level, final amps)."""
    cols = scipy.sparse.csc_array(csr_a, copy=True)
    cols.eliminate_zeros()
    start = np.flatnonzero(context.psi1).astype(np.int32)
    amps = context.psi1[start]
    partner = np.repeat(context.psi2[None, :], start.shape[0], axis=0)
    levels = [(start, np.full(start.shape[0], -1, dtype=np.int32), partner)]
    for layer in context.layers:
        endpoints = levels[-1][0]
        counts = np.diff(cols.indptr)[endpoints]
        parents = np.repeat(np.arange(endpoints.shape[0]), counts)
        pos = np.concatenate([np.arange(cols.indptr[e], cols.indptr[e + 1]) for e in endpoints])
        new = cols.indices[pos].astype(np.int32)
        amps = amps[parents] * cols.data[pos]
        partner = (partner @ csr_b.T)[parents]
        factor = layer.factor
        if factor is not None:
            partner = partner * factor[new, :]
        levels.append((new, parents.astype(np.int32), partner))
    return levels, amps


# ----------------------------------------------------------------------------
# Whole circuits


def dense_unitary(layers, basis: ModeSpinBasis) -> np.ndarray:
    """Full joint-space matrix of the circuit.

    Joint flat index is i * dim_b + j, matching kron(u_a, u_b) ordering.
    """
    dim = basis.dim_a * basis.dim_b
    total = np.eye(dim, dtype=np.complex128)
    for layer in layers:
        step = np.kron(dense(layer.u_a), dense(layer.u_b))
        factor = layer.factor
        if factor is not None:
            step = factor.reshape(dim, 1) * step
        total = step @ total
    return total


def inverse_layers(layers) -> list[CircuitLayer]:
    """Layer sequence undoing the given circuit.

    Each layer acts as (phases after unitaries), so its inverse needs the
    conjugate phases first; that is expressed as two standard layers, a
    phase-only undo followed by the adjoint unitaries.
    """
    undo: list[CircuitLayer] = []
    for layer in reversed(list(layers)):
        eye_a = np.eye(layer.dim_a)
        eye_b = np.eye(layer.dim_b)
        if layer.phases is not None:
            undo.append(CircuitLayer(eye_a, eye_b, -layer.phases))
        undo.append(CircuitLayer(dense(layer.u_a).conj().T, dense(layer.u_b).conj().T))
    return undo


# ----------------------------------------------------------------------------
# Dense walks


def evolve_two_body(state: JointState, step1, step2, coupling_phases=None) -> JointState:
    """One walk layer on the full amplitude matrix: U1 @ A @ U2.T, then phases."""
    amps = dense(step1) @ state.amps @ dense(step2).T
    if coupling_phases is not None:
        amps = amps * np.exp(1j * np.asarray(coupling_phases, dtype=np.float64))
    return JointState(state.basis, amps)


def dense_walk(state0: JointState, steps1, steps2, couplings=None) -> list[JointState]:
    """The joint state at every layer of a walk, each layer evolved densely."""
    couplings = couplings or {}
    states = [state0]
    for t, (step1, step2) in enumerate(zip(steps1, steps2)):
        states.append(evolve_two_body(states[-1], step1, step2, couplings.get(t)))
    return states


def svd_product_factors(amps: np.ndarray):
    """(psi1, psi2, singular values) of a joint amplitude matrix by full SVD,
    with psi1's largest entry made real and positive."""
    u, s, vh = np.linalg.svd(amps)
    psi1 = u[:, 0]
    psi2 = s[0] * vh[0, :]
    rot = np.exp(-1j * np.angle(psi1[int(np.argmax(np.abs(psi1)))]))
    return psi1 * rot, psi2 * np.conj(rot), s


# ----------------------------------------------------------------------------
# Walk currents and continuity


def currents_oracle(state, grid):
    """Three-operand ALPHA1 contractions: joint tables and both marginals."""
    n = grid.n_sites
    t = state.amps.reshape(n, 4, n, 4)
    scale_d = 1.0 / grid.dx
    scale_j = (grid.dx / grid.dt) * scale_d
    joint = (
        np.einsum("xayb,xayb->xy", t.conj(), t).real * scale_d**2,
        np.einsum("xayb,ac,xcyb->xy", t.conj(), ALPHA1, t) * scale_j * scale_d,
        np.einsum("xayb,bd,xayd->xy", t.conj(), ALPHA1, t) * scale_j * scale_d,
    )
    marginals = (
        np.einsum("xayb,xayb->x", t.conj(), t).real * scale_d,
        np.einsum("xayb,ac,xcyb->x", t.conj(), ALPHA1, t) * scale_j,
        np.einsum("xayb,xayb->y", t.conj(), t).real * scale_d,
        np.einsum("xayb,bd,xayd->y", t.conj(), ALPHA1, t) * scale_j,
    )
    return joint, marginals


def centred_gradient(f: np.ndarray, dx: float, axis: int = 0) -> np.ndarray:
    return (np.roll(f, -1, axis=axis) - np.roll(f, 1, axis=axis)) / (2.0 * dx)


def two_body_continuity_residual(state_t: JointState, state_next: JointState, grid) -> float:
    """Max-norm forward-time, centred-space residual of the two-body
    continuity law between two consecutive joint states, from the pointwise
    bilinears of currents_oracle."""
    (d_t, jx1, jx2), _ = currents_oracle(state_t, grid)
    (d_n, _, _), _ = currents_oracle(state_next, grid)
    resid = (d_n - d_t) / grid.dt
    resid += centred_gradient(jx1.real, grid.dx, axis=0)
    resid += centred_gradient(jx2.real, grid.dx, axis=1)
    return float(np.max(np.abs(resid)))


# ----------------------------------------------------------------------------
# Falsification control for transport


def scaled(stack: VelocityStack, factor: float) -> VelocityStack:
    """Same masks, velocities multiplied; transport along it must fail."""
    return VelocityStack(
        values=stack.values * factor,
        masks=stack.masks,
        grid=stack.grid,
        eps_node=stack.eps_node,
    )


# ----------------------------------------------------------------------------
# Joint sampling before the per-row search


def sample_joint_density_gather(joint, grid, count, rng):
    """The sampler's earlier arithmetic: every draw gathers its whole
    conditional CDF row (a count x n_sites table) and counts the entries
    at or below its uniform.  Same draws, same order."""
    joint = np.maximum(np.asarray(joint, dtype=np.float64), 0.0)
    n = grid.n_sites
    row_mass = joint.sum(axis=1)
    cdf1 = np.cumsum(row_mass / row_mass.sum())
    cdf1[-1] = 1.0
    i1 = np.searchsorted(cdf1, rng.random(count), side="right")
    i1 = np.minimum(i1, n - 1)
    cond = np.cumsum(joint, axis=1)
    row_tot = np.where(cond[:, -1] > 0.0, cond[:, -1], 1.0)
    cond = cond / row_tot[:, None]
    cond[:, -1] = 1.0
    u2 = rng.random(count)
    rows = cond[i1]
    i2 = (rows <= u2[:, None]).sum(axis=1)
    i2 = np.minimum(i2, n - 1)
    edges = cell_edges(grid)
    x1 = edges[i1] + rng.random(count) * grid.dx
    x2 = edges[i2] + rng.random(count) * grid.dx
    return x1, x2


# ----------------------------------------------------------------------------
# Transport kernel before blended stage tables


def _interp_time_lerp(row_a, row_b, mask_a, mask_b, x, wt, x_min, dx, n_sites, periodic):
    u = (x - x_min) / dx
    base = float(math.floor(u))
    frac = u - base
    i0 = int(base)
    if periodic:
        ia = i0 % n_sites
        ib = (i0 + 1) % n_sites
    else:
        ia = min(max(i0, 0), n_sites - 1)
        ib = min(max(i0 + 1, 0), n_sites - 1)
    bad = mask_a[ia] or mask_a[ib] or mask_b[ia] or mask_b[ib]
    va = row_a[ia] + frac * (row_a[ib] - row_a[ia])
    vb = row_b[ia] + frac * (row_b[ib] - row_b[ia])
    return va + wt * (vb - va), bad


def transport_time_lerp(values, masks, x0, x_min, dx, periodic, dt, substeps, forward):
    """The transport kernel's earlier arithmetic, one trajectory at a time:
    positions in x units, four corner values per stage and a time lerp
    between the two layer rows.  It rounds differently from the kernel, so
    it bounds the kernel's floating-point-order change, not its bits."""
    extent = values.shape[1] * dx
    values = [[float(v) for v in row] for row in values]
    masks = [[bool(m) for m in row] for row in masks]
    n_layers = len(values) - 1
    n_sites = len(values[0])
    n_rec = n_layers * substeps + 1
    records = np.empty((len(x0), n_rec), dtype=np.float64)
    frozen = np.full(len(x0), -1, dtype=np.int64)
    h = (dt / substeps) if forward else -(dt / substeps)
    inv_sub = 1.0 / substeps
    for i, x in enumerate(float(v) for v in x0):
        row = [x]
        fro = -1
        rec = 0
        for seg in range(n_layers):
            t = seg if forward else n_layers - 1 - seg
            fields = (values[t], values[t + 1], masks[t], masks[t + 1])
            for s in range(substeps):
                rec += 1
                if fro >= 0:
                    row.append(x)
                    continue
                wt0 = s * inv_sub if forward else 1.0 - s * inv_sub
                wt_half = wt0 + 0.5 * (inv_sub if forward else -inv_sub)
                wt_full = wt0 + (inv_sub if forward else -inv_sub)
                k1, b1 = _interp_time_lerp(*fields, x, wt0, x_min, dx, n_sites, periodic)
                x2 = x + 0.5 * h * k1
                k2, b2 = _interp_time_lerp(*fields, x2, wt_half, x_min, dx, n_sites, periodic)
                x3 = x + 0.5 * h * k2
                k3, b3 = _interp_time_lerp(*fields, x3, wt_half, x_min, dx, n_sites, periodic)
                x4 = x + h * k3
                k4, b4 = _interp_time_lerp(*fields, x4, wt_full, x_min, dx, n_sites, periodic)
                xn = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                if periodic:
                    xn = x_min + ((xn - x_min) % extent)
                else:
                    xn = min(max(xn, x_min), x_min + (n_sites - 1) * dx)
                if b1 or b2 or b3 or b4:
                    fro = rec - 1
                else:
                    x = xn
                row.append(x)
        records[i] = row
        frozen[i] = fro
    return records, frozen


# ----------------------------------------------------------------------------
# Connected support components


def ndimage_label(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """scipy's labels and count of a mask's components under its default
    structure (4-connectivity), numbered in the raster order of each
    component's first cell."""
    labels, n = scipy.ndimage.label(mask)
    return labels, int(n)


# ----------------------------------------------------------------------------
# Forward-energy spinors, one wavenumber at a time


def positive_energy_spinor(grid, mass: float, k: float) -> np.ndarray:
    """Spinor spanning the forward-energy doublet of the free step at
    wavenumber k, from one eigensolve of that wavenumber's Bloch matrix."""
    if mass <= 0.0:
        raise ValidationError("positive-energy projection needs mass > 0")
    vals, vecs = np.linalg.eig(bloch_step_matrix(grid, mass, k))
    pick = np.angle(vals) < 0.0
    if int(np.sum(pick)) != 2:
        raise ValidationError("forward-energy doublet is not isolated at this wavenumber")
    sub = vecs[:, pick]
    u = sub @ (sub.conj().T @ NAMED_SPINORS["up"])
    nrm = np.linalg.norm(u)
    if nrm < 1e-12:
        u = sub @ (sub.conj().T @ NAMED_SPINORS["down"])
        nrm = np.linalg.norm(u)
    u = u / nrm
    lead = np.argmax(np.abs(u))
    return u * np.exp(-1j * np.angle(u[lead]))


# ----------------------------------------------------------------------------
# Scenario schema


@functools.cache
def _validator() -> jsonschema.Draft7Validator:
    return jsonschema.Draft7Validator(_schema())


def schema_errors(doc) -> set[tuple[str, str]]:
    """jsonschema's top-level (path, message) violations of doc against the
    shipped scenario schema, each path joined with '/'."""
    return {("/".join(map(str, err.absolute_path)), err.message) for err in _validator().iter_errors(doc)}
