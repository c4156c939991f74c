"""Two-body Dirac engine on a 1D periodic lattice with 4-component spinors.

Natural units, hbar = c = 1.  Each evolution layer is a split-step local
unitary: an on-site phase rotation generated by (m + q*A0)*g0 - q*A1*g0g1,
followed by a spinor-conditioned nearest-neighbor shift.  The step is exactly
unitary and couples a site only to its nearest neighbors; with dt = dx its
continuum limit is the free-plus-potential Dirac Hamiltonian for each
particle separately (the two-body generator carries no interaction term).

Densities and currents are exposed in continuum normalization: the marginal
density integrates to one with weight dx, and the spatial current carries a
dx/dt factor so that the density/current pair satisfies the continuity
equation in the refinement limit.

A run is a fold of circuit.apply_layer over the walk's CircuitLayers, so a
branch-factored state A = L @ R.T steps each factor with its own particle's
layer; see run_walk.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

from .circuit import CircuitLayer, JointState, ModeSpinBasis, StepStencil, apply_layer
from .errors import DegenerateDensityError, ValidationError

SPINOR_DIM = 4

GAMMA0 = np.diag([1.0, 1.0, -1.0, -1.0]).astype(np.complex128)

_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)


def _off_block(sigma: np.ndarray) -> np.ndarray:
    out = np.zeros((4, 4), dtype=np.complex128)
    out[:2, 2:] = sigma
    out[2:, :2] = -sigma
    return out


GAMMA1 = _off_block(_SX)

# Velocity matrix along the lattice axis; its diagonal vanishes identically,
# which is what makes the reconstructed spatial current a pure cross term.
ALPHA1 = GAMMA0 @ GAMMA1

# Chirality eigenbasis of ALPHA1.  Columns 0,1 have eigenvalue +1 and shift
# right; columns 2,3 have eigenvalue -1 and shift left.  Columns (0,2) and
# (1,3) are reflection partners within the same spinor doublet.
_S2 = 1.0 / np.sqrt(2.0)
CHIRAL_V = np.array(
    [
        [_S2, 0.0, _S2, 0.0],
        [0.0, _S2, 0.0, _S2],
        [0.0, _S2, 0.0, -_S2],
        [_S2, 0.0, -_S2, 0.0],
    ],
    dtype=np.complex128,
)
CHIRAL_SIGNS = (1, 1, -1, -1)

for _m in (GAMMA0, GAMMA1, ALPHA1, CHIRAL_V):
    _m.flags.writeable = False

@dataclass(frozen=True)
class LatticeGrid:
    """Shared 1D lattice for both particles."""

    n_sites: int
    dx: float
    dt: float
    x_min: float
    boundary: str

    def __post_init__(self) -> None:
        if self.n_sites < 2:
            raise ValidationError("lattice needs at least 2 sites")
        # dx/dt scales every current, so it must be a float too.
        if not (self.dx > 0.0 and self.dt > 0.0 and np.isfinite(self.dx / self.dt)):
            raise ValidationError("dx and dt must be positive, with dx/dt within the float range")
        if self.dt > self.dx * (1.0 + 1e-12):
            raise ValidationError(
                f"dt/dx = {self.dt / self.dx:.6g} > 1: signal would outrun one site per step"
            )
        if self.boundary not in ("periodic", "reflecting"):
            raise ValidationError("boundary must be 'periodic' or 'reflecting'")

    @property
    def extent(self) -> float:
        return self.n_sites * self.dx

    def positions(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n_sites)

    def gap(self, a, b) -> np.ndarray:
        """|a - b|, taken the shorter way round on a periodic grid."""
        d = np.abs(a - b)
        if self.boundary == "periodic":
            d = np.minimum(d, self.extent - d)
        return d

    def basis(self) -> ModeSpinBasis:
        return ModeSpinBasis(self.n_sites, SPINOR_DIM, self.n_sites, SPINOR_DIM)


@dataclass(frozen=True)
class PotentialField:
    """Static per-site potential tables for one particle, 1D real arrays;
    phase_matrices checks their length against its grid."""

    a0: np.ndarray
    a1: np.ndarray

    @classmethod
    def free(cls, grid: LatticeGrid) -> "PotentialField":
        zeros = np.zeros(grid.n_sites)
        return cls(zeros, zeros.copy())

    @classmethod
    def constant_a0(cls, grid: LatticeGrid, v0: float) -> "PotentialField":
        return cls(np.full(grid.n_sites, float(v0)), np.zeros(grid.n_sites))

    @classmethod
    def barrier(cls, grid: LatticeGrid, v0: float, lo: float, hi: float) -> "PotentialField":
        x = grid.positions()
        a0 = np.where((x >= lo) & (x < hi), float(v0), 0.0)
        return cls(a0, np.zeros(grid.n_sites))


def phase_matrices(grid: LatticeGrid, mass: float, charge: float, potential: PotentialField) -> np.ndarray:
    """Per-site rotation exp(-i dt [(m + q A0) g0 - q A1 g0g1]).

    The generator squares to (a^2 + b^2) * identity because g0 and g0g1
    anticommute, so the exponential has the closed form cos - i sin/w * H.
    """
    if not len(potential.a0) == len(potential.a1) == grid.n_sites:
        raise ValidationError(f"potential tables a0 and a1 must each have one entry per site ({grid.n_sites})")
    a = mass + charge * potential.a0
    b = -charge * potential.a1
    w = np.hypot(a, b)
    ang = grid.dt * w
    cos = np.cos(ang)
    # sin(dt*w)/w, finite at w = 0.
    sinc = np.where(w > 0.0, np.sin(ang) / np.where(w > 0.0, w, 1.0), grid.dt)
    h = a[:, None, None] * GAMMA0[None, :, :] + b[:, None, None] * ALPHA1[None, :, :]
    eye = np.eye(SPINOR_DIM, dtype=np.complex128)
    return cos[:, None, None] * eye[None, :, :] - 1j * sinc[:, None, None] * h


class WalkStep(StepStencil):
    """One-body split-step layer on its grid: on-site phase rotation, then
    chirality shift.

    The layer is the product of the block-diagonal CHIRAL_V, the shift
    permutation and the block-diagonal CHIRAL_V^dagger . phase_x, held as a
    row stencil.  Phase rotations only mix the spinor pairs (0, 3) and
    (1, 2), which are exactly the pairs a chirality doublet spans, so every
    row and every column has at most four nonzeros: one doublet, two sites.
    """

    def __init__(self, grid: LatticeGrid, phase_mats: np.ndarray):
        # phase_mats is phase_matrices' (n_sites, 4, 4) stack for grid.
        self.grid = grid
        super().__init__(*_step_stencil(grid, phase_mats))


# The two chirality components that CHIRAL_V's row a combines.
_ROW_CHIRALITIES = np.array([[2, 0], [3, 1], [3, 1], [2, 0]])


def _step_stencil(grid: LatticeGrid, phase_mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Columns and values of CHIRAL_V . shift . CHIRAL_V^dagger . phase_x, row by row.

    Row (x, a) sums two terms, one per chirality c that CHIRAL_V[a] mixes:
    CHIRAL_V[a, c] times the row of CHIRAL_V^dagger . phase_y for the
    component (y, c') the shift brings to (x, c), over site y's four
    columns.  The terms meet in one column only when both come from one site
    (a periodic grid of two sites), where a sum of two is the same in either
    order.  Entries that come out zero are dropped, the rest sorted by column.
    """
    n = grid.n_sites
    dim = n * SPINOR_DIM
    to_chiral = (CHIRAL_V.conj().T @ phase_mats).reshape(dim, SPINOR_DIM)
    source = np.empty(dim, dtype=np.intp)
    source[_shift_destinations(grid)] = np.arange(dim)
    site, a = np.divmod(np.arange(dim), SPINOR_DIM)
    cols, re, im = [], [], []
    for c in _ROW_CHIRALITIES[a].T:
        j = source[site * SPINOR_DIM + c]
        v = CHIRAL_V[a, c]
        vr, vi = v.real[:, None], v.imag[:, None]
        tr, ti = to_chiral[j].real, to_chiral[j].imag
        cols.append((j // SPINOR_DIM * SPINOR_DIM)[:, None] + np.arange(SPINOR_DIM))
        re.append(vr * tr - vi * ti)
        im.append(vr * ti + vi * tr)
    # Each entry is summed from 0, as a sparse matrix product sums it, which
    # turns a -0 real or imaginary part of a kept entry into +0.
    same = (cols[0] == cols[1])[:, :1]
    for p in (re, im):
        p[0], p[1] = 0.0 + p[0] + np.where(same, p[1], 0.0), 0.0 + np.where(same, 0.0, p[1])
    cols, re, im = (np.concatenate(parts, axis=1) for parts in (cols, re, im))
    zero = (re == 0.0) & (im == 0.0)
    # Dropped entries sort last and are cut, or kept as zero-valued pads.
    order = np.argsort(np.where(zero, dim, cols), axis=1, kind="stable")[:, : int((~zero).sum(axis=1).max())]
    keep = ~np.take_along_axis(zero, order, axis=1)
    vals = np.zeros(order.shape, dtype=np.complex128)
    vals.real = np.where(keep, np.take_along_axis(re, order, axis=1), 0.0)
    vals.imag = np.where(keep, np.take_along_axis(im, order, axis=1), 0.0)
    return np.where(keep, np.take_along_axis(cols, order, axis=1), 0), vals


def _shift_destinations(grid: LatticeGrid) -> np.ndarray:
    """Where the shift moves each chirality component: one site along its sign."""
    n = grid.n_sites
    site = np.repeat(np.arange(n), SPINOR_DIM)
    comp = np.tile(np.arange(SPINOR_DIM), n)
    to = site + np.asarray(CHIRAL_SIGNS)[comp]
    if grid.boundary == "periodic":
        return (to % n) * SPINOR_DIM + comp
    # A component leaving the lattice comes back on the same site as its
    # reflection partner (0 <-> 2, 1 <-> 3), so the map stays a permutation.
    off = (to < 0) | (to >= n)
    return np.where(off, site * SPINOR_DIM + (comp ^ 2), to * SPINOR_DIM + comp)


def build_dirac_step(
    grid: LatticeGrid, mass: float, charge: float, potential: PotentialField | None = None
) -> WalkStep:
    """Split-step one-body layer whose continuum limit is the 1D Dirac generator."""
    if potential is None:
        potential = PotentialField.free(grid)
    return WalkStep(grid, phase_matrices(grid, mass, charge, potential))


# ----------------------------------------------------------------------------
# Densities and currents


def _site_probabilities(t: np.ndarray) -> np.ndarray:
    """Joint (x1, x2) probability table, spinors summed: |A|^2 computed once.

    Sums re^2 + im^2 over the float view, whose last axis interleaves the
    real and imaginary parts of the second particle's spinor.
    """
    parts = t.view(np.float64)
    return np.einsum("xayb,xayb->xy", parts, parts)


def _real_current(j: np.ndarray) -> np.ndarray:
    resid = float(np.max(np.abs(j.imag)))
    if resid > 1e-12:
        raise ValidationError(f"current bilinear acquired an imaginary residue {resid:.3e}")
    return j.real


def _particle_field(own: np.ndarray, partner: np.ndarray | None, grid: LatticeGrid) -> tuple[np.ndarray, np.ndarray]:
    """One particle's per-site (density, current) from its own factor and its
    partner's.

    The joint state is own @ partner.T, own of shape (4N, r) over this
    particle's (site, spinor) rows.  Summing the partner out leaves only the
    partner's r x r Gram matrix G = partner.T @ conj(partner): the density
    sums conj(own) * (own @ G), and the current pairs conj(own) with the
    spinor-reversed own @ G, because ALPHA1 is the exchange matrix.
    partner=None is the identity, whose Gram matrix is the identity.
    """
    n = grid.n_sites
    scale_d = 1.0 / grid.dx
    scale_j = (grid.dx / grid.dt) * scale_d
    weighted = own if partner is None else own @ (partner.T @ partner.conj())
    f = own.reshape(n, SPINOR_DIM, -1).conj()
    w = weighted.reshape(n, SPINOR_DIM, -1)
    rho = np.einsum("xai,xai->x", f, w).real
    j = _real_current(np.einsum("xai,xai->x", f, w[:, ::-1]))
    return rho * scale_d, j * scale_j


def marginal_fields(state: JointState, grid: LatticeGrid) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Both particles' partner-summed (density, current) pairs, read from the
    state's factors.  Their norm is not checked here: verify reports it.

    Particle 2 sees the transposed state right @ left.T; a dense state
    (right=None, the identity) is left.T against the identity.
    """
    left, right = state.left, state.right
    sides = ((left, None), (left.T, None)) if right is None else ((left, right), (right, left))
    return tuple(_particle_field(own, partner, grid) for own, partner in sides)


def _joint_table(left: np.ndarray, right: np.ndarray | None, grid: LatticeGrid) -> np.ndarray:
    """Joint (x1, x2) probability table of left @ right.T, spinors summed.

    For factors, |sum_i L_i R_i|^2 summed over both spinors expands into r^2
    rank-one products of spinor-summed one-particle tables
    P[x, i, j] = sum_a F[x, a, i] conj(F[x, a, j]).
    """
    n = grid.n_sites
    if right is None:
        return _site_probabilities(left.reshape(n, SPINOR_DIM, n, SPINOR_DIM))
    p1, p2 = (
        np.einsum("xai,xaj->xij", f, f.conj()).reshape(n, -1)
        for f in (left.reshape(n, SPINOR_DIM, -1), right.reshape(n, SPINOR_DIM, -1))
    )
    return (p1 @ p2.T).real


def continuity_residual(history: WalkHistory, layer: int) -> float:
    """Forward-time, centered-space residual of the first particle's marginal
    law between the history's tables at layer and layer + 1."""
    if not 0 <= layer < history.n_layers:
        raise ValidationError(f"continuity layer {layer} outside 0..{history.n_layers - 1}")
    grid = history.grid
    density, current = history.density[1], history.current[1][layer]
    gradient = (np.roll(current, -1) - np.roll(current, 1)) / (2.0 * grid.dx)
    resid = (density[layer + 1] - density[layer]) / grid.dt + gradient
    return float(np.max(np.abs(resid)))


# ----------------------------------------------------------------------------
# Run orchestration


@dataclass
class WalkHistory:
    """Per-layer marginal tables of one run: density[p] and current[p] are
    particle p's (n_layers + 1, n_sites) tables, for p in 1 and 2."""

    grid: LatticeGrid
    density: dict[int, np.ndarray]
    current: dict[int, np.ndarray]

    @property
    def n_layers(self) -> int:
        return len(self.density[1]) - 1


def run_walk(
    state0: JointState,
    grid: LatticeGrid,
    layers: list[CircuitLayer],
    record_joint: Iterable[int] = (),
    fold: Callable[[int, np.ndarray], None] | None = None,
) -> WalkHistory:
    """Evolve a joint state through the layers and record per-layer marginal tables.

    Each layer is one apply_layer, so a branch-factored start costs O(r N)
    per uncoupled layer and goes on dense from its first coupling.  Every
    layer's steps must be WalkSteps on grid, which fixes the currents' dx/dt.
    Marginals are read from the factors at every layer.  record_joint names
    the layers (0 through len(layers)), numbered from 0 at state0, whose
    (n_sites, n_sites) joint density tables are computed: each is handed to
    fold(layer, table), layers ascending, as the walk reaches it, and the
    history keeps none, so a caller holds only the tables it keeps itself.
    """
    if state0.basis != grid.basis():
        raise ValidationError("state basis does not match the step grid")
    for layer in layers:
        if not all(isinstance(u, WalkStep) and u.grid == grid for u in (layer.u_a, layer.u_b)):
            raise ValidationError("every step must be built on the run's grid")
    n_layers = len(layers)
    record_joint = {int(k) for k in record_joint}
    for k in record_joint:
        if not 0 <= k <= n_layers:
            raise ValidationError(f"joint table layer {k} out of range")
    if record_joint and fold is None:
        raise ValidationError("recorded joint tables need a fold to receive them")
    shape = (n_layers + 1, grid.n_sites)
    density = {p: np.empty(shape) for p in (1, 2)}
    current = {p: np.empty(shape) for p in (1, 2)}

    state = state0
    for layer in range(n_layers + 1):
        for p, fields in enumerate(marginal_fields(state, grid), 1):
            density[p][layer], current[p][layer] = fields
        if layer in record_joint:
            fold(layer, _joint_table(state.left, state.right, grid) / (grid.dx * grid.dx))
        if layer < n_layers:
            state = apply_layer(state, layers[layer])
    return WalkHistory(grid, density, current)


def to_circuit_layers(
    step1: WalkStep, step2: WalkStep, n_layers: int, couplings: dict[int, np.ndarray] | None = None
) -> list[CircuitLayer]:
    """The walk's n_layers layers as CircuitLayers on the two steps themselves.

    couplings maps a layer index (0-based, checked by build_couplings) to a
    joint phase table applied after that layer's per-particle steps.  Each
    step was checked when it was built, and run_walk checks its grid, so no
    layer checks it again.  Uncoupled layers share one CircuitLayer, and so
    do the layers given one table object.
    """
    couplings = couplings or {}
    uncoupled = CircuitLayer(step1, step2)
    # One layer per table object, keyed by its identity; couplings keeps
    # every table alive.
    tables = {id(table): table for table in couplings.values()}
    coupled = {key: CircuitLayer(step1, step2, table) for key, table in tables.items()}
    return [coupled[id(couplings[t])] if t in couplings else uncoupled for t in range(n_layers)]


# ----------------------------------------------------------------------------
# State constructors


def _finite(value) -> bool:
    """Whether value(), a packet's largest exponent worked out on Python
    floats, is a finite float; asked before numpy computes with it.  A
    float power that overflows raises OverflowError, a quotient by zero
    ZeroDivisionError, and a product or quotient that overflows gives inf."""
    try:
        return abs(value()) < np.inf
    except (OverflowError, ZeroDivisionError):
        return False


def gaussian_profile(grid: LatticeGrid, center: float, sigma: float, momentum: float = 0.0) -> np.ndarray:
    """Spatial Gaussian amplitude, |psi|^2 standard deviation = sigma.

    Uses the minimal-image displacement so the profile respects the periodic
    extent; tails beyond half the ring are negligible for sigma << extent.
    sigma must be positive.
    """
    if not _finite(lambda: sigma**2):
        raise ValidationError(f"packet sigma {sigma!r} has a square beyond the float range")
    x = grid.positions()
    d = x - center
    if grid.boundary == "periodic":
        d = (d + 0.5 * grid.extent) % grid.extent - 0.5 * grid.extent
    far = float(np.max(np.abs(d)))
    if not _finite(lambda: far**2 / (4.0 * sigma**2)):
        raise ValidationError(f"packet sigma {sigma!r} puts d**2 / (4 sigma**2) beyond the float range")
    reach = float(np.max(np.abs(x)))
    if not _finite(lambda: momentum * reach):
        raise ValidationError(f"packet momentum {momentum!r} puts momentum * x beyond the float range")
    amp = np.exp(-(d**2) / (4.0 * sigma**2)) * np.exp(1j * momentum * x)
    norm = np.linalg.norm(amp)
    if norm == 0.0:
        raise DegenerateDensityError("gaussian profile vanished on the grid")
    return amp / norm


NAMED_SPINORS = {
    "up": np.array([1.0, 0.0, 0.0, 0.0], dtype=np.complex128),
    "down": np.array([0.0, 1.0, 0.0, 0.0], dtype=np.complex128),
    "chirality+": CHIRAL_V[:, 0].copy(),
    "chirality+b": CHIRAL_V[:, 1].copy(),
    "chirality-": CHIRAL_V[:, 2].copy(),
    "chirality-b": CHIRAL_V[:, 3].copy(),
}


def bloch_step_matrix(grid: LatticeGrid, mass: float, k) -> np.ndarray:
    """Momentum-space 4x4 matrix of one free walk step at wavenumber k; an
    array of wavenumbers gives the stack of their matrices."""
    phase = np.exp(-1j * grid.dt * mass * np.diag(GAMMA0))
    shift = np.exp(-1j * np.multiply.outer(k, CHIRAL_SIGNS) * grid.dx)
    return (CHIRAL_V * shift[..., None, :]) @ CHIRAL_V.conj().T @ np.diag(phase)


def _row_norms(u: np.ndarray) -> np.ndarray:
    """Norm of each row, summed as np.linalg.norm sums one complex vector
    (two real dot products), so that each equals that norm bit for bit."""
    re, im = u.real[:, None, :], u.imag[:, None, :]
    return np.sqrt((re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1))[:, 0, 0])


def positive_energy_spinors(grid: LatticeGrid, mass: float, ks: np.ndarray) -> np.ndarray:
    """(len(ks), 4) spinors, each spanning the forward-energy doublet of the
    free step at its wavenumber.

    Defined by projecting the rest spinor onto the eigenvectors whose step
    eigenphase is negative (eigenvalue exp(-i E dt) with E > 0).  Requires a
    mass gap so the doublet never touches the zero-phase crossing.  One
    eigensolve covers the whole stack of Bloch matrices.
    """
    if mass <= 0.0:
        raise ValidationError("positive-energy projection needs mass > 0")
    vals, vecs = np.linalg.eig(bloch_step_matrix(grid, mass, ks))
    pick = np.angle(vals) < 0.0
    if np.any(np.sum(pick, axis=1) != 2):
        raise ValidationError("forward-energy doublet is not isolated at this wavenumber")
    # the picked eigenvector pair of each wavenumber as the columns of a 4x2
    # block, laid out in memory like a single matrix's vecs[:, pick]
    sub = vecs.transpose(0, 2, 1)[pick].reshape(-1, 2, SPINOR_DIM).transpose(0, 2, 1)
    sub_h = sub.conj().transpose(0, 2, 1)
    up, down = ((sub @ (sub_h @ NAMED_SPINORS[name])[..., None])[..., 0] for name in ("up", "down"))
    flat = _row_norms(up) < 1e-12
    u = np.where(flat[:, None], down, up)
    u = u / _row_norms(u)[:, None]
    lead = u[np.arange(len(u)), np.argmax(np.abs(u), axis=1)]
    return u * np.exp(-1j * np.angle(lead))[:, None]


def positive_energy_packet(
    grid: LatticeGrid, mass: float, center: float, sigma: float, momentum: float
) -> np.ndarray:
    """Gaussian packet built on the walk's own forward-energy Bloch branch.

    Free of interference between energy branches, so the packet translates
    and spreads smoothly; used by scenarios that need clean guidance fields.
    """
    if grid.boundary != "periodic":
        raise ValidationError("momentum-space construction requires periodic boundaries")
    n = grid.n_sites
    ks = 2.0 * np.pi * np.fft.fftfreq(n, d=grid.dx)
    # The exponent is largest at the wavenumber farthest from momentum.
    far = max(abs(float(ks.min()) - momentum), abs(float(ks.max()) - momentum))
    if not _finite(lambda: sigma**2 * (far * far)):
        raise ValidationError(
            f"packet sigma {sigma!r} and momentum {momentum!r} put sigma**2 (k - momentum)**2 beyond the float range"
        )
    coef = np.exp(-(sigma**2) * (ks - momentum) ** 2) * np.exp(-1j * ks * center)
    # a NaN coefficient is live too, so a NaN packet stays non-finite
    live = np.flatnonzero(~(np.abs(coef) < 1e-300))
    spinors = positive_energy_spinors(grid, mass, ks[live])
    field = np.zeros((n, SPINOR_DIM), dtype=np.complex128)
    # accumulated one wavenumber at a time, in order, for reproducible bytes
    for j, spinor in zip(live, spinors):
        field += coef[j] * np.exp(1j * ks[j] * grid.positions())[:, None] * spinor[None, :]
    nrm = np.linalg.norm(field)
    if nrm == 0.0:
        raise DegenerateDensityError("packet construction produced an empty field")
    return field / nrm


def spinor_from_spec(spec) -> np.ndarray:
    """A NAMED_SPINORS name, or an explicit list of four [re, im] pairs."""
    if isinstance(spec, str):
        return NAMED_SPINORS[spec].copy()
    arr = np.asarray(spec, dtype=np.float64)
    vec = arr[:, 0] + 1j * arr[:, 1]
    nrm = np.linalg.norm(vec)
    if nrm == 0.0:
        raise ValidationError("explicit spinor must be nonzero")
    return vec / nrm
