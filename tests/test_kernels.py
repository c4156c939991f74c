"""Transport kernel: bit identity with a per-trajectory reference, and its
conventions (records, freezing, wrapping, clamping)."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pilotpath import kernels

from conftest import make_rng


def random_stack(rng, n_layers=6, n_sites=24, masked_fraction=0.0):
    values = rng.normal(scale=0.8, size=(n_layers + 1, n_sites))
    masks = np.zeros((n_layers + 1, n_sites), dtype=bool)
    if masked_fraction > 0.0:
        masks = rng.random((n_layers + 1, n_sites)) < masked_fraction
    return values, masks


def _interp_ref(row_a, row_b, mask_a, mask_b, x, wt, x_min, dx, n_sites, periodic):
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


def transport_reference(values, masks, x0, x_min, dx, extent, periodic, dt, substeps, forward):
    """Plain-Python port of the transport loop, one trajectory at a time,
    on Python floats with scalar floor, modulo and clamping."""
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
                k1, b1 = _interp_ref(*fields, x, wt0, x_min, dx, n_sites, periodic)
                x2 = x + 0.5 * h * k1
                k2, b2 = _interp_ref(*fields, x2, wt_half, x_min, dx, n_sites, periodic)
                x3 = x + 0.5 * h * k2
                k3, b3 = _interp_ref(*fields, x3, wt_half, x_min, dx, n_sites, periodic)
                x4 = x + h * k3
                k4, b4 = _interp_ref(*fields, x4, wt_full, x_min, dx, n_sites, periodic)
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


def run_both(values, masks, x0, periodic=True, dt=0.5, substeps=4, forward=True):
    args = (values, masks, x0, 0.0, 1.0, float(values.shape[1]), periodic, dt, substeps, forward)
    return kernels.transport(*args), transport_reference(*args)


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
    records, frozen = kernels.transport(
        values, masks, x0, 0.0, 1.0, 24.0, True, 0.5, 4, True
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
    records, frozen = kernels.transport(
        values, masks, x0, 0.0, 1.0, 16.0, True, 1.0, 2, True
    )
    hit = frozen >= 0
    assert np.count_nonzero(hit) > 0
    for i in np.flatnonzero(hit):
        f = frozen[i]
        assert np.all(records[i, f:] == records[i, f])


def test_constant_field_transports_linearly():
    # v = 0.5 everywhere: x(t) = x0 + 0.5 * t, classical integration is exact
    values = np.full((4, 32), 0.5)
    masks = np.zeros((4, 32), dtype=bool)
    x0 = np.array([3.0, 10.0, 25.0])
    records, frozen = kernels.transport(
        values, masks, x0, 0.0, 1.0, 32.0, True, 1.0, 4, True
    )
    assert np.all(frozen == -1)
    expected = x0 + 0.5 * 3.0
    assert np.max(np.abs(records[:, -1] - expected)) < 1e-12


def test_backward_transport_reverses_the_constant_drift():
    values = np.full((4, 32), 0.5)
    masks = np.zeros((4, 32), dtype=bool)
    x0 = np.array([8.0, 16.0])
    records, _ = kernels.transport(
        values, masks, x0, 0.0, 1.0, 32.0, True, 1.0, 4, False
    )
    assert np.max(np.abs(records[:, -1] - (x0 - 1.5))) < 1e-12


def test_bounded_domain_clamps_to_edge_sites():
    values = np.full((3, 10), 2.0)
    masks = np.zeros((3, 10), dtype=bool)
    records, frozen = kernels.transport(
        np.ascontiguousarray(values),
        masks,
        np.array([8.5]),
        0.0,
        1.0,
        10.0,
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
    values = rng.normal(scale=2.0 * dx / dt, size=(n_layers + 1, n_sites))
    masks = rng.random((n_layers + 1, n_sites)) < draw(st.sampled_from([0.0, 0.05, 0.2]))
    extent = n_sites * dx
    n = draw(st.integers(1, 24))
    if periodic:
        x0 = x_min + rng.uniform(0.0, extent, n)
    else:
        x0 = x_min + rng.uniform(-3.0 * extent, 4.0 * extent, n)
    args = (values, masks, x0, x_min, dx, extent, periodic, dt)
    return args + (draw(st.integers(1, 4)), draw(st.booleans()))


@settings(max_examples=80, derandomize=True, deadline=None)
@given(case=transport_cases(), chunk=st.sampled_from([1, 5, 8192]))
def test_transport_properties(case, chunk):
    values, masks, x0, x_min, dx, extent, periodic, dt, substeps, forward = case
    with mock.patch.object(kernels, "CHUNK", chunk):
        records, frozen = kernels.transport(*case)
    ref_records, ref_frozen = transport_reference(*case)
    assert np.array_equal(records, ref_records)
    assert np.array_equal(frozen, ref_frozen)
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
