"""Transport kernel: bit identity with a per-trajectory reference, its
conventions (records, freezing, wrapping, clamping), exact answers, round
trips and the input guard."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pilotpath import kernels
from pilotpath.errors import ValidationError

from conftest import every_substep, layer_records, make_rng
from oracles import transport_time_lerp


def random_stack(rng, n_layers=6, n_sites=24, masked_fraction=0.0):
    values = rng.normal(scale=0.8, size=(n_layers + 1, n_sites))
    masks = np.zeros((n_layers + 1, n_sites), dtype=bool)
    if masked_fraction > 0.0:
        masks = rng.random((n_layers + 1, n_sites)) < masked_fraction
    return values, masks


def _stage_ref(row_a, row_b, mask_a, mask_b, u, wt, inv_dx, n_sites, periodic):
    """Velocity in cell units at cell position u, from the two layer rows
    blended at time weight wt, and whether a corner is node-masked."""
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
    left = (row_a[ia] + wt * (row_b[ia] - row_a[ia])) * inv_dx
    right = (row_a[ib] + wt * (row_b[ib] - row_a[ib])) * inv_dx
    return left + frac * (right - left), bad


def transport_reference(values, masks, x0, x_min, dx, periodic, dt, substeps, forward):
    """Plain-Python port of the transport arithmetic, one trajectory at a
    time, on Python floats with scalar floor, modulo and clamping: rows
    blended at each stage's time weight, positions in cell units."""
    values = [[float(v) for v in row] for row in values]
    masks = [[bool(m) for m in row] for row in masks]
    n_layers = len(values) - 1
    n_sites = len(values[0])
    n_rec = n_layers * substeps + 1
    records = np.empty((len(x0), n_rec), dtype=np.float64)
    frozen = np.full(len(x0), -1, dtype=np.int64)
    h = (dt / substeps) if forward else -(dt / substeps)
    inv_sub = 1.0 / substeps
    inv_dx = 1.0 / dx
    for i, x in enumerate(float(v) for v in x0):
        row = [x]
        u = (x - x_min) * inv_dx
        if periodic:
            u = u % n_sites
        fro = -1
        rec = 0
        for seg in range(n_layers):
            t = seg if forward else n_layers - 1 - seg
            fields = (values[t], values[t + 1], masks[t], masks[t + 1])
            for s in range(substeps):
                rec += 1
                if fro >= 0:
                    row.append(row[-1])
                    continue
                wt0 = s * inv_sub if forward else 1.0 - s * inv_sub
                wt_half = wt0 + 0.5 * (inv_sub if forward else -inv_sub)
                wt_full = wt0 + (inv_sub if forward else -inv_sub)
                k1, b1 = _stage_ref(*fields, u, wt0, inv_dx, n_sites, periodic)
                u2 = u + 0.5 * h * k1
                k2, b2 = _stage_ref(*fields, u2, wt_half, inv_dx, n_sites, periodic)
                u3 = u + 0.5 * h * k2
                k3, b3 = _stage_ref(*fields, u3, wt_half, inv_dx, n_sites, periodic)
                u4 = u + h * k3
                k4, b4 = _stage_ref(*fields, u4, wt_full, inv_dx, n_sites, periodic)
                un = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                if periodic:
                    un = un % n_sites
                else:
                    un = min(max(un, 0.0), n_sites - 1.0)
                if b1 or b2 or b3 or b4:
                    fro = rec - 1
                    row.append(row[-1])
                else:
                    u = un
                    row.append(x_min + u * dx)
        records[i] = row
        frozen[i] = fro
    return records, frozen


def bits(records):
    """The records' IEEE bit patterns, so -0.0 and 0.0 differ."""
    return np.ascontiguousarray(records).view(np.int64)


def run_both(values, masks, x0, periodic=True, dt=0.5, substeps=4, forward=True):
    args = (values, masks, x0, 0.0, 1.0, periodic, dt, substeps, forward)
    return every_substep(kernels.transport, *args), transport_reference(*args)


@pytest.mark.parametrize("seed", range(5))
def test_backends_are_bit_identical_on_smooth_fields(seed):
    rng = make_rng(3000 + seed)
    values, masks = random_stack(rng)
    x0 = rng.uniform(0.0, 24.0, 64)
    (rec_np, fro_np), (rec_ref, fro_ref) = run_both(values, masks, x0)
    assert np.array_equal(rec_np, rec_ref)
    assert np.array_equal(fro_np, fro_ref)


@pytest.mark.parametrize("forward", [True, False])
@pytest.mark.parametrize("periodic", [True, False])
def test_backends_are_bit_identical_with_node_masks(forward, periodic):
    """Freeze decisions and held positions must match exactly as well."""
    rng = make_rng(3100)
    values, masks = random_stack(rng, masked_fraction=0.08)
    x0 = rng.uniform(0.0, 24.0, 128)
    (rec_np, fro_np), (rec_ref, fro_ref) = run_both(
        values, masks, x0, periodic=periodic, forward=forward
    )
    assert np.array_equal(rec_np, rec_ref)
    assert np.array_equal(fro_np, fro_ref)
    assert np.count_nonzero(fro_np >= 0) > 0  # the case actually froze some


def test_numpy_backend_records_every_substep():
    rng = make_rng(3200)
    values, masks = random_stack(rng, n_layers=3)
    x0 = rng.uniform(0.0, 24.0, 8)
    records, frozen = every_substep(
        kernels.transport, values, masks, x0, 0.0, 1.0, True, 0.5, 4, True
    )
    assert records.shape == (8, 13)
    assert np.array_equal(records[:, 0], x0)
    assert np.all(frozen == -1)


def test_frozen_trajectories_hold_their_position():
    rng = make_rng(3300)
    values = np.ones((5, 16)) * 0.4
    masks = np.zeros((5, 16), dtype=bool)
    masks[2, 6:10] = True  # a node wall appears at layer 2
    x0 = np.linspace(1.0, 9.0, 20)
    records, frozen = every_substep(
        kernels.transport, values, masks, x0, 0.0, 1.0, True, 1.0, 2, True
    )
    hit = frozen >= 0
    assert np.count_nonzero(hit) > 0
    for i in np.flatnonzero(hit):
        f = frozen[i]
        assert np.all(records[i, f:] == records[i, f])


def test_layer_records_repeat_a_start_frozen_at_record_0():
    """A periodic start off the ring that freezes on its first substep
    holds x0 itself at every layer, not its wrapped cell position."""
    x_min, dx, n_sites = -3.25, 0.3, 8
    extent = n_sites * dx
    values = np.full((4, n_sites), 0.15)
    masks = np.zeros((4, n_sites), dtype=bool)
    masks[0, 2] = True
    x0 = np.array([x_min + extent + 2.5 * dx, x_min + 5.5 * dx])
    records, frozen = every_substep(kernels.transport, values, masks, x0, x_min, dx, True, 1.0, 4, True)
    layers, layer_frozen = layer_records(kernels.transport, values, masks, x0, x_min, dx, True, 1.0, 4, True)
    assert frozen.tolist() == [0, -1] and layer_frozen.tolist() == [0, -1]
    wrapped = x_min + ((x0[0] - x_min) * (1.0 / dx) % n_sites) * dx
    assert wrapped != x0[0]
    assert np.all(bits(layers[0]) == bits(x0[:1]))
    assert np.all(bits(records[0]) == bits(x0[:1]))
    assert np.array_equal(bits(layers), bits(records[:, ::4]))


def test_layer_record_after_a_freeze_on_a_layers_last_substep():
    """A trajectory that freezes on the last substep of layer 1 -> 2 holds
    its record from the substep before, which no layer boundary keeps."""
    x_min, dx, n_sites = -3.25, 0.3, 16
    values = np.full((4, n_sites), 0.5 * dx)  # half a cell per unit time
    masks = np.zeros((4, n_sites), dtype=bool)
    masks[2, 10] = True  # cells 9 and 10 are bad in segments 1 and 2
    # Stages reach u0 + rec/8 cells at substep rec; u0 = 8.05 first reaches
    # cell 9 at substep 8, the last of segment 1, so it freezes at 7.
    x0 = x_min + np.array([8.05, 2.0]) * dx
    args = (values, masks, x0, x_min, dx, True, 1.0, 4, True)
    records, frozen = every_substep(kernels.transport, *args)
    layers, layer_frozen = layer_records(kernels.transport, *args)
    assert frozen.tolist() == [7, -1] and layer_frozen.tolist() == [7, -1]
    assert bits(layers[0, 2]) == bits(records[0, 7])
    assert records[0, 7] != records[0, 6]
    assert np.array_equal(bits(layers), bits(records[:, ::4]))


@pytest.mark.parametrize("periodic", [True, False])
def test_backward_layer_records_are_the_substep_runs_layer_boundaries(periodic):
    rng = make_rng(3150)
    values, masks = random_stack(rng, masked_fraction=0.08)
    x0 = rng.uniform(0.0, 24.0, 128)
    args = (values, masks, x0, 0.0, 1.0, periodic, 0.5, 4, False)
    records, frozen = every_substep(kernels.transport, *args)
    layers, layer_frozen = layer_records(kernels.transport, *args)
    assert layers.shape == (128, 7)
    assert np.array_equal(bits(layers), bits(records[:, ::4]))
    assert np.array_equal(layer_frozen, frozen)
    assert np.any((frozen > 0) & (frozen % 4 != 0))  # frozen between layer records


def test_constant_field_transports_linearly():
    # v = 0.5 everywhere: x(t) = x0 + 0.5 * t, classical integration is exact
    values = np.full((4, 32), 0.5)
    masks = np.zeros((4, 32), dtype=bool)
    x0 = np.array([3.0, 10.0, 25.0])
    records, frozen = layer_records(kernels.transport, values, masks, x0, 0.0, 1.0, True, 1.0, 4, True)
    assert np.all(frozen == -1)
    expected = x0 + 0.5 * 3.0
    assert np.max(np.abs(records[:, -1] - expected)) < 1e-12


def test_backward_transport_reverses_the_constant_drift():
    values = np.full((4, 32), 0.5)
    masks = np.zeros((4, 32), dtype=bool)
    x0 = np.array([8.0, 16.0])
    records, _ = layer_records(kernels.transport, values, masks, x0, 0.0, 1.0, True, 1.0, 4, False)
    assert np.max(np.abs(records[:, -1] - (x0 - 1.5))) < 1e-12


def test_bounded_domain_clamps_to_edge_sites():
    values = np.full((3, 10), 2.0)
    masks = np.zeros((3, 10), dtype=bool)
    records, frozen = layer_records(
        kernels.transport,
        np.ascontiguousarray(values),
        masks,
        np.array([8.5]),
        0.0,
        1.0,
        False,
        1.0,
        4,
        True,
    )
    assert np.all(frozen == -1)
    assert records[0, -1] == 9.0  # last site position, not the cell edge


@st.composite
def transport_cases(draw):
    """Random stacks, masks, substeps, directions and boundaries.  Bounded
    starts reach three extents beyond the grid on either side, so the end
    cells of the clamp are hit; periodic starts lie on the ring."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_layers = draw(st.integers(1, 4))
    n_sites = draw(st.integers(2, 12))
    periodic = draw(st.booleans())
    x_min = draw(st.sampled_from([0.0, -3.25, 7.5]))
    dx = draw(st.sampled_from([1.0, 0.5, 0.3]))
    dt = draw(st.sampled_from([0.5, 1.0]))
    extent = n_sites * dx
    # Clipped just below the fastest field a ring accepts, n_sites * dx / dt,
    # so short rings often run at that limit; dt is a power of two, so
    # dt * the clip stays below the ring exactly.
    fastest = np.nextafter(extent / dt, 0.0)
    values = np.clip(rng.normal(scale=2.0 * dx / dt, size=(n_layers + 1, n_sites)), -fastest, fastest)
    masks = rng.random((n_layers + 1, n_sites)) < draw(st.sampled_from([0.0, 0.05, 0.2]))
    n = draw(st.integers(1, 24))
    if periodic:
        x0 = x_min + rng.uniform(0.0, extent, n)
    else:
        x0 = x_min + rng.uniform(-3.0 * extent, 4.0 * extent, n)
    args = (values, masks, x0, x_min, dx, periodic, dt)
    return args + (draw(st.integers(1, 4)), draw(st.booleans()))


@settings(max_examples=80, derandomize=True, deadline=None)
@given(case=transport_cases(), chunk=st.sampled_from([1, 5, 8192]))
def test_transport_properties(case, chunk):
    values, masks, x0, x_min, dx, periodic, dt, substeps, forward = case
    extent = values.shape[1] * dx
    blocks, rows = [], []

    def folded(seen):
        """A fold that keeps each block's first record number, a copy of
        the block, and a copy of the freeze indices it was handed."""
        return lambda first, block, frozen: seen.append((first, block.copy(), frozen.copy()))

    with mock.patch.object(kernels, "CHUNK", chunk):
        kept, frozen = kernels.transport(*case, folded(blocks), every_substep=True)
        none, layer_frozen = kernels.transport(*case, folded(rows))
    records = np.concatenate([block for _, block, _ in blocks]).T
    layers = np.concatenate([row for _, row, _ in rows]).T
    ref_records, ref_frozen = transport_reference(*case)
    assert np.array_equal(records, ref_records)
    assert np.array_equal(frozen, ref_frozen)
    # A fold sees record 0, then each segment's substep records in order,
    # or its layer-boundary record; a transport keeps no records.
    assert [first for first, _, _ in blocks] == [0] + list(range(1, records.shape[1], substeps))
    assert [first for first, _, _ in rows] == list(range(values.shape[0]))
    assert kept.shape == none.shape == (len(x0), 0)
    # Layer records are the substep records' layer boundaries, bit for bit.
    assert np.array_equal(bits(layers), bits(records[:, ::substeps]))
    assert np.array_equal(layer_frozen, frozen)
    # Each fold is handed the freezes before its block's last record, and
    # no later one: a freeze numbered f is decided on the substep that
    # writes record f + 1.
    ends = [(first + len(block) - 1, seen) for first, block, seen in blocks]
    ends += [(first * substeps, seen) for first, _, seen in rows]
    for last, seen in ends:
        assert np.array_equal(seen, np.where(frozen < last, frozen, -1))
    assert np.array_equal(records[:, 0], x0)
    moved = records[frozen != 0, 1:]
    if periodic:
        assert np.all((records >= x_min) & (records <= x_min + extent))
    else:
        hi = x_min + (values.shape[1] - 1) * dx
        assert np.all((moved >= x_min) & (moved <= hi))
    # held from the freeze index on; frozen at 0 means never moved at all
    for i in np.flatnonzero(frozen >= 0):
        assert np.all(records[i, frozen[i] :] == records[i, frozen[i]])


def reference_cases():
    """The inputs of the nine bit-identity tests above, by name."""
    cases = {}
    for seed in range(5):
        rng = make_rng(3000 + seed)
        values, masks = random_stack(rng)
        cases[f"smooth-{seed}"] = (values, masks, rng.uniform(0.0, 24.0, 64), True, True)
    for periodic in (True, False):
        for forward in (True, False):
            rng = make_rng(3100)
            values, masks = random_stack(rng, masked_fraction=0.08)
            x0 = rng.uniform(0.0, 24.0, 128)
            cases[f"masked-{periodic}-{forward}"] = (values, masks, x0, periodic, forward)
    return cases


@pytest.mark.parametrize("name", list(reference_cases()))
def test_kernel_stays_within_rounding_of_the_time_lerp_arithmetic(name):
    """Blended stage tables and cell units change only the rounding order:
    positions stay within 1e-12 of the earlier arithmetic, freezes are the
    same."""
    values, masks, x0, periodic, forward = reference_cases()[name]
    args = (values, masks, x0, 0.0, 1.0, periodic, 0.5, 4, forward)
    records, frozen = every_substep(kernels.transport, *args)
    old_records, old_frozen = transport_time_lerp(*args)
    assert np.array_equal(frozen, old_frozen)
    assert np.max(np.abs(records - old_records)) <= 1e-12


@pytest.mark.parametrize("substeps", [1, 2, 3, 4])
@pytest.mark.parametrize("forward", [True, False])
@pytest.mark.parametrize("periodic", [True, False])
def test_uniform_field_linear_in_time_is_integrated_exactly(periodic, forward, substeps):
    """v(x, t) = a(t), linear in t between layers: RK4 is exact, so each
    layer boundary sits at x0 +- dt * sum of (a_t + a_t+1) / 2 so far.  A
    wrong time weight at any stage moves it."""
    rng = make_rng(3400 + substeps)
    n_layers, n_sites, dx, dt = 5, 40, 0.5, 0.25
    levels = rng.uniform(-0.8, 0.8, n_layers + 1) * dx / dt
    values = np.repeat(levels[:, None], n_sites, axis=1)
    masks = np.zeros_like(values, dtype=bool)
    x_min = -3.0
    x0 = x_min + rng.uniform(12.0, 28.0, 16) * dx  # interior: no clamp in 5 layers
    records, frozen = every_substep(
        kernels.transport, values, masks, x0, x_min, dx, periodic, dt, substeps, forward
    )
    assert np.all(frozen == -1)
    segment = dt * 0.5 * (levels[:-1] + levels[1:])
    if not forward:
        segment = -segment[::-1]
    for layer in range(n_layers + 1):
        expected = x0 + np.sum(segment[:layer])
        assert np.max(np.abs(records[:, layer * substeps] - expected)) <= 1e-12


@st.composite
def smooth_ring_fields(draw):
    """Unmasked periodic fields of one or two sine modes in x and t, peak
    speed at most 0.9 dx/dt, and starts anywhere on the ring."""
    n_sites = draw(st.integers(8, 48))
    n_layers = draw(st.integers(1, 6))
    dx = draw(st.sampled_from([1.0, 0.5, 0.3]))
    dt = draw(st.sampled_from([0.5, 1.0]))
    n_modes = draw(st.integers(1, 2))
    amps = [draw(st.floats(-1.0, 1.0)) for _ in range(n_modes)]
    scale = 0.9 * dx / dt / max(1.0, sum(abs(a) for a in amps))
    x = np.arange(n_sites) / n_sites
    t = np.arange(n_layers + 1)[:, None]
    values = np.zeros((n_layers + 1, n_sites))
    for amp in amps:
        mode = draw(st.integers(1, 3))
        phase = draw(st.floats(0.0, 2.0 * np.pi))
        drift = draw(st.floats(-0.3, 0.3))
        values += scale * amp * np.sin(2.0 * np.pi * mode * x[None, :] + phase + drift * t)
    x_min = draw(st.sampled_from([0.0, -2.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x0 = x_min + rng.uniform(0.0, n_sites * dx, 12)
    return values, x0, x_min, dx, dt


@settings(max_examples=100, derandomize=True, deadline=None)
@given(case=smooth_ring_fields())
def test_round_trip_off_nodes_returns_to_the_start(case):
    """Forward then backward through a smooth unmasked ring field returns
    every start to within 1e-4 dx.  Bounded grids are left out: the edge
    clamp merges trajectories and cannot be undone."""
    values, x0, x_min, dx, dt = case
    masks = np.zeros_like(values, dtype=bool)
    extent = values.shape[1] * dx
    grid = (x_min, dx, True, dt, 32)
    fwd, fro_f = layer_records(kernels.transport, values, masks, x0, *grid, True)
    back, fro_b = layer_records(kernels.transport, values, masks, fwd[:, -1], *grid, False)
    assert np.all(fro_f == -1) and np.all(fro_b == -1)
    gap = np.abs(back[:, -1] - x0) % extent
    assert np.max(np.minimum(gap, extent - gap)) <= 1e-4 * dx


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_transport_rejects_non_finite_tables_and_starts(bad):
    values = np.full((3, 8), 0.25)
    masks = np.zeros((3, 8), dtype=bool)
    x0 = np.array([1.0, 2.0])
    poisoned = values.copy()
    poisoned[1, 3] = bad
    with pytest.raises(ValidationError):
        layer_records(kernels.transport, poisoned, masks, x0, 0.0, 1.0, True, 1.0, 2, True)
    with pytest.raises(ValidationError):
        layer_records(kernels.transport, values, masks, np.array([1.0, bad]), 0.0, 1.0, False, 1.0, 2, True)


def test_transport_rejects_a_stage_beyond_the_ring_limit():
    """On a periodic grid a substep must move less than one ring, |h| *
    max|v| < n_sites * dx.  The fastest table below that limit runs, in one
    substep as in four, and matches the reference bit for bit; the limit
    itself and non-finite tables are rejected.  Bounded grids clamp and
    accept any finite table."""
    n_sites, dx, dt = 8, 0.5, 1.0
    masks = np.zeros((2, n_sites), dtype=bool)
    x0 = np.array([0.3, 1.9, 3.95])
    for substeps in (1, 4):
        limit = n_sites * dx * substeps / dt
        fastest = np.full((2, n_sites), np.nextafter(limit, 0.0))
        for forward in (True, False):
            args = (fastest, masks, x0, 0.0, dx, True, dt, substeps, forward)
            records, frozen = every_substep(kernels.transport, *args)
            ref_records, ref_frozen = transport_reference(*args)
            assert np.array_equal(bits(records), bits(ref_records))
            assert np.array_equal(frozen, ref_frozen) and np.all(frozen == -1)
            assert np.all((records >= 0.0) & (records <= n_sites * dx))
        for bad in (limit, np.nan, np.inf):
            with pytest.raises(ValidationError):
                layer_records(kernels.transport, np.full((2, n_sites), bad), masks, x0, 0.0, dx, True, dt, substeps, True)
        layer_records(kernels.transport, np.full((2, n_sites), 2 * limit), masks, x0, 0.0, dx, False, dt, substeps, True)


@pytest.mark.parametrize("rings", [0.4, 0.95])
@pytest.mark.parametrize("forward", [True, False])
def test_stages_crossing_several_rings_match_the_reference(forward, rings):
    """A field far above lattice speed carries every substep 0.8 to 1 times
    the given fraction of a ring round, up to the one-ring limit; the
    wrapped gathers and positions still match bit for bit."""
    rng = make_rng(3500)
    _, masks = random_stack(rng, n_layers=3, n_sites=8, masked_fraction=0.05)
    h, extent = 0.5, 8.0
    values = rng.uniform(0.8, 1.0, masks.shape) * rings * extent / h
    x0 = rng.uniform(0.0, extent, 32)
    args = (values, masks, x0, 0.0, 1.0, True, 1.0, 2, forward)
    records, frozen = every_substep(kernels.transport, *args)
    ref_records, ref_frozen = transport_reference(*args)
    assert np.array_equal(records, ref_records)
    assert np.array_equal(frozen, ref_frozen)


def test_a_position_landing_on_the_ring_end_wraps_to_its_start():
    """x_min + extent is x_min on a ring, as Python's modulo has it."""
    values = np.full((2, 8), 2.0)
    masks = np.zeros((2, 8), dtype=bool)
    x0 = np.array([0.0])
    records, _ = layer_records(kernels.transport, values, masks, x0, -2.0, 0.5, True, 1.0, 1, True)
    assert records[0, 1] == -2.0
