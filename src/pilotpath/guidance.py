"""Velocity-field kinematics for single-particle subsystems.

The marginal density/current pair of one particle defines a velocity field
v = j1/j0 on the lattice.  This module builds per-layer field stacks from
walk histories, transports positions through them in either time direction
with a fixed-substep 4th-order integrator (see kernels), draws initial
configuration pairs from a two-particle density table by inverse-CDF, and
measures how well transported ensembles track the evolving density
(one-sample KS distance per layer).  A transported run is never kept: it
is handed to a fold as the transport goes, each layer-boundary record, or
every substep's record for a round trip, with the freeze indices so far.

Wavefunction nodes make the velocity singular; sites whose density falls
below a threshold are masked, and any trajectory touching a masked
interpolation corner freezes at its current position and is flagged.  The
policy is deliberate: silent extrapolation across nodes would corrupt the
ensemble statistics that the whole module exists to check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .dirac import LatticeGrid, WalkHistory
from .errors import DegenerateDensityError, ValidationError


@dataclass(frozen=True)
class VelocityStack:
    """Per-layer velocity tables for one particle over a full run.

    Built only if kernels.check_tables accepts the tables at a substep of
    grid.dt, the longest any substep count gives, so kernels.transport
    accepts it: finite, and on a ring no substep moves a whole ring.  A
    walk's stack sits far inside that bound: |v| <= dx/dt to rounding, so
    a substep moves about one cell at most, and the smallest ring has two.
    """

    values: np.ndarray
    masks: np.ndarray
    grid: LatticeGrid

    def __post_init__(self) -> None:
        if self.values.shape != self.masks.shape or self.values.ndim != 2:
            raise ValidationError("stack tables must be matching (layers+1, sites) arrays")
        if self.values.shape[1] != self.grid.n_sites:
            raise ValidationError("stack width must match the grid")
        kernels.check_tables(self.values, self.grid.dx, self.grid.boundary == "periodic", self.grid.dt)

    @property
    def n_layers(self) -> int:
        return self.values.shape[0] - 1

    @classmethod
    def from_tables(
        cls,
        density: np.ndarray,
        current: np.ndarray,
        grid: LatticeGrid,
        eps_rel: float,
    ) -> "VelocityStack":
        density = np.asarray(density, dtype=np.float64)
        current = np.asarray(current, dtype=np.float64)
        if density.shape != current.shape or density.ndim != 2:
            raise ValidationError("density and current stacks must be matching 2D arrays")
        eps_abs = eps_rel * float(np.max(density))
        masks = density < eps_abs
        if np.any(np.all(masks, axis=1)):
            raise DegenerateDensityError("a layer has every site below the node threshold")
        values = np.zeros_like(density)
        np.divide(current, density, out=values, where=~masks)
        return cls(values=values, masks=masks, grid=grid)


def velocity_stack(history: WalkHistory, particle: int, eps_rel: float) -> VelocityStack:
    """Field stack of one particle's marginal flow over a recorded run; sites
    below eps_rel times the run's peak density are masked as nodes."""
    if particle not in history.density:
        raise ValidationError("particle must be 1 or 2")
    return VelocityStack.from_tables(history.density[particle], history.current[particle], history.grid, eps_rel)


def check_direction(direction: str) -> bool:
    if direction not in ("forward", "backward"):
        raise ValidationError("direction must be 'forward' or 'backward'")
    return direction == "forward"


def integrate_batch(
    stack: VelocityStack, x0: np.ndarray, direction: str, substeps: int, fold, every_substep: bool = False
) -> np.ndarray:
    """Hand the run of a batch of positions through the whole stack to fold,
    and return its freeze indices.

    Backward runs start at the last layer and walk the same fields with a
    negated time increment.  fold(first, block, frozen) sees each
    layer-boundary record as the transport reaches it, in the run's
    integration order, or with every_substep every substep's record one
    segment at a time, as a round trip needs, with the freeze indices so far
    (see kernels.transport).  Periodic starts are taken mod the ring,
    bounded ones must lie in the lattice's cells; kernels.transport rejects
    non-finite starts.  Deterministic: the same inputs give the same
    records and freeze indices bit for bit.
    """
    forward = check_direction(direction)
    if substeps < 1:
        raise ValidationError("substeps must be at least 1")
    grid = stack.grid
    x0 = np.asarray(x0, dtype=np.float64)
    if grid.boundary == "periodic":
        # Ring positions are classes mod extent; canonicalize so cell-based
        # samples from the wrap cell (half a cell below x_min) are accepted.
        x0 = grid.x_min + np.mod(x0 - grid.x_min, grid.extent)
    else:
        lo = grid.x_min - 0.5 * grid.dx
        hi = grid.x_min + grid.extent - 0.5 * grid.dx
        if np.any(x0 < lo) or np.any(x0 > hi):
            raise ValidationError("start positions outside the lattice extent")
        x0 = np.clip(x0, grid.x_min, grid.x_min + (grid.n_sites - 1) * grid.dx)
    _, frozen = kernels.transport(
        stack.values,
        stack.masks,
        x0,
        grid.x_min,
        grid.dx,
        grid.boundary == "periodic",
        grid.dt,
        substeps,
        forward,
        fold,
        every_substep,
    )
    return frozen


# ----------------------------------------------------------------------------
# Sampling and distribution comparison
#
# Cell convention shared by sampling and KS: site i owns the cell
# [x_i - dx/2, x_i + dx/2); the CDF is linear within each cell.  Positions on
# periodic grids are wrapped into the cell window before comparison.


def cell_edges(grid: LatticeGrid) -> np.ndarray:
    return grid.x_min - 0.5 * grid.dx + grid.dx * np.arange(grid.n_sites + 1)


def _cell_masses(density: np.ndarray, grid: LatticeGrid) -> np.ndarray:
    masses = np.asarray(density, dtype=np.float64) * grid.dx
    if np.min(masses) < -1e-12:
        raise ValidationError("density must be nonnegative")
    masses = np.maximum(masses, 0.0)
    total = masses.sum()
    if total < 1e-12:
        raise DegenerateDensityError("density has no mass to sample")
    return masses / total


def sample_joint_density(
    joint: np.ndarray, grid: LatticeGrid, count: int, rng
) -> tuple[np.ndarray, np.ndarray]:
    """Draw configuration pairs from a two-particle density table.

    rng is any object whose random(n) returns n uniforms in [0, 1), such as
    a circuit.PhiloxStream or a numpy Generator; the sampler draws nothing
    else from it.

    First particle's cell from the row-summed marginal, second from the
    conditional row, then uniform placement within both cells.  Draw order:
    cells of particle 1, cells of particle 2, then the two placement batches.
    Both cells count the CDF entries at or below their uniform, so no draw
    lands in a cell without mass; each drawn row is searched once for all
    of its draws.
    """
    joint = np.asarray(joint, dtype=np.float64)
    n = grid.n_sites
    if joint.shape != (n, n):
        raise ValidationError("joint density table must be (n_sites, n_sites)")
    if np.min(joint) < -1e-12:
        raise ValidationError("joint density must be nonnegative")
    joint = np.maximum(joint, 0.0)
    row_mass = joint.sum(axis=1)
    total = row_mass.sum()
    if total < 1e-12:
        raise DegenerateDensityError("joint density has no mass to sample")
    cdf1 = np.cumsum(row_mass / total)
    cdf1[-1] = 1.0
    i1 = np.searchsorted(cdf1, rng.random(count), side="right")
    i1 = np.minimum(i1, n - 1)
    cond = np.cumsum(joint, axis=1)
    # Guard all-zero rows; they are never drawn because their marginal mass is 0.
    row_tot = np.where(cond[:, -1] > 0.0, cond[:, -1], 1.0)
    cond = cond / row_tot[:, None]
    cond[:, -1] = 1.0
    u2 = rng.random(count)
    # A conditional row is nondecreasing, so its right search position is
    # the count of entries at or below u2.
    i2 = np.empty(count, dtype=np.int64)
    order = np.argsort(i1, kind="stable")
    drawn, first = np.unique(i1[order], return_index=True)
    for row, sel in zip(drawn, np.split(order, first[1:])):
        i2[sel] = np.searchsorted(cond[row], u2[sel], side="right")
    i2 = np.minimum(i2, n - 1)
    edges = cell_edges(grid)
    x1 = edges[i1] + rng.random(count) * grid.dx
    x2 = edges[i2] + rng.random(count) * grid.dx
    return x1, x2


def ks_statistic(samples: np.ndarray, density: np.ndarray, grid: LatticeGrid) -> float:
    """One-sample KS distance between positions and a lattice density.

    The model CDF is piecewise linear over the site cells, matching the
    sampling convention above.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 0:
        raise ValidationError("need at least one sample")
    masses = _cell_masses(density, grid)
    edges = cell_edges(grid)
    cdf = np.concatenate([[0.0], np.cumsum(masses)])
    cdf[-1] = 1.0
    if grid.boundary == "periodic":
        span = grid.extent
        samples = edges[0] + ((samples - edges[0]) % span)
    s = np.sort(samples)
    f = np.interp(s, edges, cdf)
    n = s.shape[0]
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - f)
    d_minus = np.max(f - (i - 1) / n)
    return float(max(d_plus, d_minus))


def equivariance_test(layers: np.ndarray, density_stack: np.ndarray, grid: LatticeGrid) -> np.ndarray:
    """KS distance between an ensemble and the density at each layer.

    layers and density_stack hold one row per layer, paired row by row: a
    whole run against the whole stack, or a layer fold's one-row block
    against that layer's row, density_stack[t : t + 1].
    """
    density_stack = np.asarray(density_stack, dtype=np.float64)
    if density_stack.shape[0] != len(layers):
        raise ValidationError(f"density stack has {density_stack.shape[0]} rows; the ensemble passes {len(layers)}")
    return np.array([ks_statistic(row, density, grid) for row, density in zip(layers, density_stack)])
