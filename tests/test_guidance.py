"""Guidance fields, trajectory transport, sampling, distribution tests."""

import numpy as np
import pytest

from pilotpath.circuit import JointState
from pilotpath.dirac import (
    LatticeGrid,
    NAMED_SPINORS,
    build_dirac_step,
    gaussian_profile,
    to_circuit_layers,
)
from pilotpath.errors import DegenerateDensityError, ValidationError
from pilotpath.guidance import (
    VelocityStack,
    equivariance_test,
    integrate_batch,
    ks_statistic,
    sample_joint_density,
    velocity_stack,
)
from pilotpath.scenario import build_walk, load_scenario

from conftest import EPS_NODE_REL, every_substep, layer_records, make_rng, spinor_field, walk_tables
from oracles import sample_joint_density_gather, scaled


def smooth_history(n_sites=48, n_layers=10, mass=0.35, momentum=0.7, sigma=3.0):
    """Single right-moving packet per particle, wrap-free over the run."""
    grid = LatticeGrid(n_sites, 0.5, 0.25, 0.0, "periodic")
    step = build_dirac_step(grid, mass, 0.0)
    psi1 = spinor_field(gaussian_profile(grid, 7.0, sigma, momentum), NAMED_SPINORS["chirality+"])
    psi2 = spinor_field(gaussian_profile(grid, 16.0, sigma, -momentum), NAMED_SPINORS["chirality-"])
    amps = np.outer(psi1, psi2)
    state = JointState(grid.basis(), amps / np.linalg.norm(amps))
    return grid, *walk_tables(state, grid, to_circuit_layers(step, step, n_layers), {0, 3})


# ----------------------------------------------------------------------------
# Field construction


def test_velocity_field_masks_node_sites():
    grid = LatticeGrid(8, 1.0, 1.0, 0.0, "periodic")
    j0 = np.array([0.5, 0.3, 0.15, 0.05, 0.0, 0.0, 0.0, 0.0])
    j0 = j0 / (j0.sum() * grid.dx)
    j1 = np.full(8, 0.1)
    stack = VelocityStack.from_tables(j0[None, :], j1[None, :], grid, EPS_NODE_REL)
    mask, values = stack.masks[0], stack.values[0]
    assert np.array_equal(mask, j0 < EPS_NODE_REL * np.max(j0))
    assert np.all(values[mask] == 0.0)
    unmasked = ~mask
    assert np.max(np.abs(values[unmasked] - j1[unmasked] / j0[unmasked])) < 1e-15


def test_velocity_field_rejects_fully_masked_layers():
    grid = LatticeGrid(4, 1.0, 1.0, 0.0, "periodic")
    density = np.stack([np.full(4, 0.25), np.zeros(4)])
    with pytest.raises(DegenerateDensityError):
        VelocityStack.from_tables(density, np.zeros((2, 4)), grid, EPS_NODE_REL)


def test_stack_from_tables_validates_shapes():
    grid = LatticeGrid(8, 1.0, 1.0, 0.0, "periodic")
    with pytest.raises(ValidationError):
        VelocityStack.from_tables(np.ones((3, 8)), np.ones((4, 8)), grid, EPS_NODE_REL)
    with pytest.raises(ValidationError):
        VelocityStack(values=np.ones((3, 7)), masks=np.zeros((3, 7), dtype=bool), grid=grid)


def test_a_stack_is_built_only_if_its_transport_accepts_it():
    """Non-finite values never make a stack, nor, on a ring, values at which
    a substep of the whole time step could move a trajectory once round the
    ring, dt * max|v| >= n_sites * dx; a bounded grid has no ring to cross."""
    masks = np.zeros((2, 8), dtype=bool)
    ring = LatticeGrid(8, 1.0, 0.5, 0.0, "periodic")
    limit = ring.n_sites * ring.dx / ring.dt
    fastest = np.nextafter(limit, 0.0)
    for value, match in ((np.nan, "finite"), (np.inf, "finite"), (limit, "ring")):
        with pytest.raises(ValidationError, match=match):
            VelocityStack(np.full((2, 8), value), masks, ring)
    VelocityStack(np.full((2, 8), 2 * limit), masks, LatticeGrid(8, 1.0, 0.5, 0.0, "reflecting"))
    # The largest stack that is built runs, in one substep as in four.
    stack = VelocityStack(np.full((2, 8), fastest), masks, ring)
    for substeps in (1, 4):
        records, frozen = layer_records(integrate_batch, stack, np.array([3.0]), "forward", substeps)
        assert np.all(np.isfinite(records)) and frozen[0] == -1


def test_velocity_stack_matches_per_layer_fields():
    grid, hist, _ = smooth_history()
    stack = velocity_stack(hist, 1, EPS_NODE_REL)
    assert stack.n_layers == hist.n_layers
    # Nodes are the sites below EPS_NODE_REL times the run's peak density.
    eps_node = EPS_NODE_REL * float(np.max(hist.density[1]))
    for layer in (0, 3, hist.n_layers):
        j0 = hist.density[1][layer]
        j1 = hist.current[1][layer]
        mask = j0 < eps_node
        assert np.array_equal(stack.masks[layer], mask)
        expected = np.zeros_like(j0)
        expected[~mask] = j1[~mask] / j0[~mask]
        assert np.max(np.abs(stack.values[layer] - expected)) < 1e-15


def test_scaled_stack_only_scales_values():
    grid, hist, _ = smooth_history()
    stack = velocity_stack(hist, 2, EPS_NODE_REL)
    half = scaled(stack, 0.5)
    assert np.array_equal(half.masks, stack.masks)
    assert np.max(np.abs(half.values - 0.5 * stack.values)) == 0.0


# ----------------------------------------------------------------------------
# Transport


def test_transport_is_deterministic():
    grid, hist, _ = smooth_history()
    stack = velocity_stack(hist, 1, EPS_NODE_REL)
    x0 = np.linspace(5.0, 9.0, 40)
    a = every_substep(integrate_batch, stack, x0, "forward", 4)
    b = every_substep(integrate_batch, stack, x0, "forward", 4)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


def test_one_dimensional_flow_preserves_ordering():
    """Guidance trajectories of one particle cannot cross in one dimension."""
    grid, hist, _ = smooth_history()
    stack = velocity_stack(hist, 1, EPS_NODE_REL)
    x0 = np.sort(make_rng(50).uniform(4.0, 10.0, 60))
    records, frozen = every_substep(integrate_batch, stack, x0, "forward", 8)
    assert records.shape == (60, 8 * hist.n_layers + 1)
    assert np.all(frozen < 0)
    for rec in range(records.shape[1]):
        col = records[:, rec]
        assert np.all(np.diff(col) > -1e-9)


def test_round_trip_returns_to_the_start():
    grid, hist, _ = smooth_history()
    stack = velocity_stack(hist, 1, EPS_NODE_REL)
    x0 = np.linspace(5.5, 8.5, 25)
    forward, forward_frozen = layer_records(integrate_batch, stack, x0, "forward", 32)
    back, back_frozen = layer_records(integrate_batch, stack, forward[:, -1], "backward", 32)
    assert np.all(forward_frozen < 0) and np.all(back_frozen < 0)
    assert np.max(np.abs(back[:, -1] - x0)) < 1e-6


def test_trajectory_and_run_bookkeeping():
    grid, hist, _ = smooth_history(n_layers=4)
    stack = velocity_stack(hist, 1, EPS_NODE_REL)
    x0 = np.array([6.0, 7.0])
    layers, _ = layer_records(integrate_batch, stack, x0, "forward", 4)
    fine, _ = every_substep(integrate_batch, stack, x0, "forward", 4)
    assert layers.shape == (2, 5) and fine.shape == (2, 17)
    assert np.array_equal(layers[:, 0], fine[:, 0])
    assert np.array_equal(layers[:, 3], fine[:, 12])


def test_backward_run_reads_layers_in_reverse():
    grid, hist, _ = smooth_history(n_layers=4)
    stack = velocity_stack(hist, 1, EPS_NODE_REL)
    x0 = np.array([7.0, 8.0])
    seen = []
    integrate_batch(stack, x0, "backward", 4, lambda record, block, _: seen.append(record))
    layers, _ = layer_records(integrate_batch, stack, x0, "backward", 4)
    fine, _ = every_substep(integrate_batch, stack, x0, "backward", 4)
    # The fold numbers records in integration order: record 0 is x0 at the
    # final layer, and layer k sits at record 4 - k, which is substep record
    # (4 - k) * substeps.
    assert seen == [0, 1, 2, 3, 4]
    assert np.array_equal(layers[:, 0], x0)
    for k in range(5):
        assert np.array_equal(layers[:, 4 - k], fine[:, (4 - k) * 4])


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_integrate_batch_keeps_layer_records_unless_asked(direction):
    """Unless every substep is asked for, the fold is handed the substep
    run's layer-boundary records, bit for bit, with the run's freeze
    indices, and the run keeps none of them."""
    grid, hist, _ = smooth_history(n_layers=4)
    stack = velocity_stack(hist, 1, EPS_NODE_REL)
    x0 = np.linspace(5.0, 9.0, 12)
    fine, fine_frozen = every_substep(integrate_batch, stack, x0, direction, 4)
    layers, frozen = layer_records(integrate_batch, stack, x0, direction, 4)
    assert layers.shape == (12, 5) and fine.shape == (12, 17)
    assert np.array_equal(layers, fine[:, ::4])
    assert np.array_equal(frozen, fine_frozen)


def test_equivariance_rejects_a_stack_of_other_depth():
    grid, hist, _ = smooth_history(n_layers=4)
    stack = velocity_stack(hist, 1, EPS_NODE_REL)
    records, _ = layer_records(integrate_batch, stack, np.array([7.0, 8.0]), "backward", 4)
    layers = records.T[::-1]
    density = hist.density[1]
    assert equivariance_test(layers, density, grid).shape == (5,)
    # A one-row block, as a layer fold is handed, pairs with its layer's row.
    assert equivariance_test(layers[2:3], density[2:3], grid)[0] == ks_statistic(layers[2], density[2], grid)
    # A shorter stack would otherwise pair its rows with the wrong records.
    with pytest.raises(ValidationError, match="rows"):
        equivariance_test(layers, density[:3], grid)


def test_periodic_starts_are_canonicalized():
    grid, hist, _ = smooth_history()
    stack = velocity_stack(hist, 1, EPS_NODE_REL)
    base, _ = every_substep(integrate_batch, stack, np.array([6.0]), "forward", 4)
    wrapped, _ = every_substep(integrate_batch, stack, np.array([6.0 + grid.extent]), "forward", 4)
    assert np.array_equal(base, wrapped)


def test_direction_argument_is_validated():
    grid, hist, _ = smooth_history(n_layers=3)
    stack = velocity_stack(hist, 1, EPS_NODE_REL)
    with pytest.raises(ValidationError):
        layer_records(integrate_batch, stack, np.array([6.0]), "sideways", 4)
    with pytest.raises(ValidationError):
        layer_records(integrate_batch, stack, np.array([np.nan]), "forward", 4)


# ----------------------------------------------------------------------------
# Sampling


def test_joint_sampling_respects_correlations():
    """A perfectly correlated two-site table never yields mixed pairs."""
    grid = LatticeGrid(8, 1.0, 1.0, 0.0, "periodic")
    joint = np.zeros((8, 8))
    joint[2, 6] = 0.5
    joint[5, 1] = 0.5
    x1, x2 = sample_joint_density(joint, grid, 500, make_rng(63))
    cell1 = np.floor(x1 - 0.0 + 0.5).astype(int)
    cell2 = np.floor(x2 - 0.0 + 0.5).astype(int)
    pairs = set(zip(cell1.tolist(), cell2.tolist()))
    assert pairs <= {(2, 6), (5, 1)}
    assert len(pairs) == 2


def test_joint_sampling_marginal_agrees_with_row_sums():
    grid, hist, joint = smooth_history()
    rng = make_rng(64)
    x1, _ = sample_joint_density(joint[3], grid, 20_000, rng)
    marg = joint[3].sum(axis=1)
    marg = marg / (marg.sum() * grid.dx)
    assert ks_statistic(x1, marg, grid) < 0.012


@pytest.fixture(scope="module")
def anchor_tables():
    """Joint tables at layer 0 and the final layer of four bundled walks."""
    tables = {}
    for name in ("recombination", "free-packet", "entangled-mirror", "spin-singlet"):
        system = build_walk(load_scenario(name))
        _, joint = walk_tables(system.state0, system.grid, system.layers, {0, system.n_layers})
        for layer in (0, system.n_layers):
            tables[name, layer] = (joint[layer], system.grid)
    return tables


@pytest.mark.parametrize("seed", range(4))
def test_joint_sampling_draws_what_the_gathered_rows_drew(anchor_tables, seed):
    """Searching each drawn row once gives the cells that gathering every
    draw's row and counting its entries below u2 gave, bit for bit."""
    for joint, grid in anchor_tables.values():
        got = sample_joint_density(joint, grid, 2000, make_rng(seed))
        want = sample_joint_density_gather(joint, grid, 2000, make_rng(seed))
        for a, b in zip(got, want):
            assert np.array_equal(a.view(np.int64), b.view(np.int64))


class FixedUniforms:
    """Hands out the given batches of uniforms in order, as
    Generator.random(count) would."""

    def __init__(self, *batches):
        self.batches = [np.asarray(b, dtype=np.float64) for b in batches]

    def random(self, count):
        batch = self.batches.pop(0)
        assert batch.shape == (count,)
        return batch


def test_joint_sampling_ties_go_to_the_cell_after_the_equal_cdf_entries():
    """Rows with zero cells hold runs of equal CDF entries.  A uniform equal
    to one counts every entry at or below it: u2 = 0.25 on the row
    [0, .25, .25, .25, .5, .5, 1, 1] lands in cell 4, after the last 0.25,
    and u2 = 0.0 in cell 1, never in a cell without mass."""
    grid = LatticeGrid(8, 1.0, 1.0, 0.0, "periodic")
    joint = np.zeros((8, 8))
    joint[3] = [0.0, 0.25, 0.0, 0.0, 0.25, 0.0, 0.5, 0.0]
    joint[6] = [0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5]
    u1 = [0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9]  # rows 3, 3, 3, 3, 6, 6, 6, 6
    u2 = [0.0, 0.25, 0.5, 0.75, 0.0, 0.5, 0.75, 0.999]
    place = [0.5] * 8
    got = sample_joint_density(joint, grid, 8, FixedUniforms(u1, u2, place, place))
    want = sample_joint_density_gather(joint, grid, 8, FixedUniforms(u1, u2, place, place))
    cells = np.floor(got[1] + 0.5).astype(int)
    assert cells.tolist() == [1, 4, 6, 6, 0, 7, 7, 7]
    rows = np.floor(got[0] + 0.5).astype(int)
    assert np.all(joint[rows, cells] > 0)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_joint_sampling_validates_the_table():
    grid = LatticeGrid(8, 1.0, 1.0, 0.0, "periodic")
    with pytest.raises(ValidationError):
        sample_joint_density(np.zeros((8, 7)), grid, 10, make_rng(65))
    with pytest.raises(DegenerateDensityError):
        sample_joint_density(np.zeros((8, 8)), grid, 10, make_rng(65))


# ----------------------------------------------------------------------------
# Distribution distance


def test_ks_statistic_on_a_uniform_density_by_hand():
    """Uniform cells make the model CDF globally linear, so the statistic
    reduces to max(F, 1 - F) for one sample and has a closed form for two."""
    grid = LatticeGrid(4, 1.0, 1.0, 0.0, "periodic")
    density = np.full(4, 0.25)
    lo = -0.5  # first cell edge
    span = 4.0
    x = 0.25
    expected = max((x - lo) / span, 1.0 - (x - lo) / span)
    assert abs(ks_statistic(np.array([x]), density, grid) - expected) < 1e-14
    xs = np.array([0.0, 2.0])
    f = (xs - lo) / span
    expected2 = max(0.5 - f[0], 1.0 - f[1], f[0], f[1] - 0.5)
    assert abs(ks_statistic(xs, density, grid) - expected2) < 1e-14


def test_ks_statistic_wraps_periodic_samples():
    grid = LatticeGrid(4, 1.0, 1.0, 0.0, "periodic")
    density = np.full(4, 0.25)
    inside = ks_statistic(np.array([1.0]), density, grid)
    wrapped = ks_statistic(np.array([1.0 + grid.extent]), density, grid)
    assert inside == wrapped


def test_ks_statistic_requires_samples():
    grid = LatticeGrid(4, 1.0, 1.0, 0.0, "periodic")
    with pytest.raises(ValidationError):
        ks_statistic(np.array([]), np.full(4, 0.25), grid)


# ----------------------------------------------------------------------------
# Equivariance


def test_transported_ensemble_tracks_the_density():
    grid, hist, joint = smooth_history()
    stack = velocity_stack(hist, 1, EPS_NODE_REL)
    rng = make_rng(70)
    x0, _ = sample_joint_density(joint[0], grid, 4000, rng)
    layers, _ = layer_records(integrate_batch, stack, x0, "forward", 4)
    ks = equivariance_test(layers.T, hist.density[1], grid)
    assert ks.shape == (hist.n_layers + 1,)
    assert float(np.max(ks)) < 0.05


def test_halved_velocities_fail_the_same_comparison():
    grid, hist, joint = smooth_history()
    stack = velocity_stack(hist, 1, EPS_NODE_REL)
    half = scaled(stack, 0.5)
    rng = make_rng(71)
    x0, _ = sample_joint_density(joint[0], grid, 4000, rng)
    layers, _ = layer_records(integrate_batch, half, x0, "forward", 4)
    ks = equivariance_test(layers.T, hist.density[1], grid)
    assert float(np.max(ks)) > 0.05
