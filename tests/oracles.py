"""Reference computations the tests compare the package against.

Each one recomputes a quantity the hard way, path by path or as one dense
joint-space matrix, so that it stays independent of the vectorised code it
checks.  None of them is reached by the command line.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from pilotpath.circuit import CircuitLayer, JointState, ModeSpinBasis
from pilotpath.dirac import ALPHA1
from pilotpath.errors import PilotPathError, ValidationError
from pilotpath.guidance import VelocityStack


# ----------------------------------------------------------------------------
# Single paths of the first particle


@dataclass(frozen=True)
class Path:
    """One basis path of the first particle: (location, spin) per layer."""

    steps: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.steps)


def steps_of(ensemble, path_id: int) -> np.ndarray:
    """Flat endpoint sequence of one path, layer 0 through n."""
    seq = np.empty(ensemble.n_layers + 1, dtype=np.int64)
    a = int(path_id)
    for r in range(ensemble.n_layers, -1, -1):
        seq[r] = ensemble.levels[r].endpoints[a]
        a = int(ensemble.levels[r].parents[a])
    return seq


def to_path(ensemble, path_id: int) -> Path:
    basis = ensemble.context.basis
    return Path(tuple(basis.unflat_a(int(z)) for z in steps_of(ensemble, path_id)))


def _validate_path(context, path: Path) -> list[int]:
    if len(path) == 0 or len(path) > context.n_layers + 1:
        raise ValidationError("path length does not fit the layer stack")
    flat = []
    for loc, spin in path.steps:
        flat.append(context.basis.flat_a(int(loc), int(spin)))
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
        mat = layer.u_b @ mat
        factor = layer.coupling_factor()
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
        vp = layer.u_b @ vp
        vq = layer.u_b @ vq
        factor = layer.coupling_factor()
        if factor is not None:
            vp = vp * factor[flat_p[r], :]
            vq = vq * factor[flat_q[r], :]
        partial.append(np.vdot(vp, vq))
    partial = np.array(partial)
    return partial[-1], np.diff(partial)


# ----------------------------------------------------------------------------
# Whole circuits


def dense_unitary(layers, basis: ModeSpinBasis) -> np.ndarray:
    """Full joint-space matrix of the circuit.

    Joint flat index is i * dim_b + j, matching kron(u_a, u_b) ordering.
    """
    dim = basis.dim_a * basis.dim_b
    total = np.eye(dim, dtype=np.complex128)
    for layer in layers:
        step = scipy.sparse.kron(layer.u_a, layer.u_b).toarray()
        factor = layer.coupling_factor()
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
        undo.append(CircuitLayer(layer.u_a.conj().T, layer.u_b.conj().T))
    return undo


# ----------------------------------------------------------------------------
# Dense walks


def evolve_two_body(state: JointState, step1, step2, coupling_phases=None) -> JointState:
    """One walk layer on the full amplitude matrix: U1 @ A @ U2.T, then phases."""
    amps = step1.matrix @ state.amps @ step2.matrix.T
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
