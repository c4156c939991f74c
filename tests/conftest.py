"""Shared builders for the test suite.

The dense evolution oracle here is deliberately independent of the package:
it flattens the joint state to a single vector and multiplies explicit
Kronecker-product step matrices, whereas the engine keeps the state as a
matrix and applies the factors from either side.
"""

from functools import partial

import numpy as np
import pytest
from scipy.stats import unitary_group

from pilotpath.circuit import CircuitLayer, JointState, ModeSpinBasis
from pilotpath.dirac import (
    LatticeGrid,
    NAMED_SPINORS,
    build_dirac_step,
    gaussian_profile,
    phase_matrices,
    run_walk,
    to_circuit_layers,
)
from pilotpath.paths import PathContext
from pilotpath.protocols import anchored_runs, build_tracks, joint_tracks
from pilotpath.scenario import _DEFAULTS, _path_caps, build_potential, load_scenario

from oracles import dense

# The library takes these values from the scenario; tests use its defaults.
EPS_NODE_REL = _DEFAULTS["protocol"]["eps_node_rel"]
TRACK_THRESHOLD_REL = _DEFAULTS["protocol"]["track_threshold_rel"]
DEFAULT_CAPS = _path_caps(_DEFAULTS)


def _gathered(transport, args, every_substep):
    blocks = []
    result = transport(
        *args, fold=lambda first, block, frozen: blocks.append(block.copy()), every_substep=every_substep
    )
    frozen = result[1] if isinstance(result, tuple) else result
    return np.concatenate(blocks).T, frozen


def layer_records(transport, *args):
    """(records, frozen) of a kernels.transport or integrate_batch call, or
    of an anchored run's transport(fold), with a trajectory-major record at
    every layer boundary, in the run's integration order, gathered through
    its layer fold."""
    return _gathered(transport, args, False)


def every_substep(transport, *args):
    """(records, frozen) of a kernels.transport or integrate_batch call, with
    a trajectory-major record at every substep gathered through its fold."""
    return _gathered(transport, args, True)


def walk_tables(state0, grid, layers, record_joint):
    """(history, {layer: joint table}) of run_walk, the tables of the layers
    in record_joint gathered through its fold."""
    joint = {}
    return run_walk(state0, grid, layers, record_joint=record_joint, fold=joint.__setitem__), joint


def tracks_of(history, joint: dict, threshold_rel: float = TRACK_THRESHOLD_REL):
    """build_tracks of a walk whose every layer's joint table joint holds,
    folded into the joint graph layer by layer as run_walk would."""
    graph = joint_tracks(threshold_rel, history.grid)
    for t in range(history.n_layers + 1):
        graph(t, joint[t])
    return build_tracks(history, graph)


def anchored_layers(history, joint, seed: int, count: int, substeps: int, eps_rel: float, direction: str) -> dict:
    """{particle: (layers, frozen)} of anchored_runs: each run's layer
    records gathered through its layer fold, column t at layer t whichever
    way the run went, and its freeze indices."""
    runs = anchored_runs(
        history, joint, seed, count, substeps, eps_rel, direction, lambda particle, transport: layer_records(transport)
    )
    if direction == "backward":
        runs = {particle: (records[:, ::-1], frozen) for particle, (records, frozen) in runs.items()}
    return runs


def served(runs: dict):
    """Runs already gathered as anchored_layers gives them, as
    detect_crossings' runs(consume) reads them: {particle: consume(particle,
    transport)}, where transport(fold) hands fold each layer's positions,
    layers ascending, and returns the run's freeze indices."""

    def transport(layers, frozen, fold):
        for t in range(layers.shape[1]):
            fold(t, layers[None, :, t], frozen)
        return frozen

    return lambda consume: {particle: consume(particle, partial(transport, *run)) for particle, run in runs.items()}


def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    if dim == 1:
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        return np.array([[phase]], dtype=np.complex128)
    return unitary_group.rvs(dim, random_state=rng)


def random_layers(
    basis: ModeSpinBasis,
    n: int,
    rng: np.random.Generator,
    coupling_scale: float = 0.0,
) -> list[CircuitLayer]:
    """n random layers; coupling_scale > 0 adds a random phase table to each."""
    layers = []
    for _ in range(n):
        phases = None
        if coupling_scale > 0.0:
            phases = coupling_scale * rng.uniform(-np.pi, np.pi, (basis.dim_a, basis.dim_b))
        layers.append(
            CircuitLayer(random_unitary(basis.dim_a, rng), random_unitary(basis.dim_b, rng), phases)
        )
    return layers


def random_state_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def kron_evolve(
    layers: list[CircuitLayer], psi1: np.ndarray, psi2: np.ndarray
) -> np.ndarray:
    """Reference evolution: flat vector times explicit Kronecker factors.

    Returns the final joint amplitudes as a (dim_a, dim_b) matrix.
    """
    d1, d2 = psi1.shape[0], psi2.shape[0]
    vec = np.kron(psi1, psi2)
    for layer in layers:
        step = np.kron(dense(layer.u_a), dense(layer.u_b))
        if layer.phases is not None:
            step = np.exp(1j * layer.phases).reshape(-1)[:, None] * step
        vec = step @ vec
    return vec.reshape(d1, d2)


def product_joint(basis: ModeSpinBasis, psi1: np.ndarray, psi2: np.ndarray) -> JointState:
    """The product start psi1 psi2^T as one branch of factors, the form
    PathContext.initial_state gives."""
    return JointState(basis, psi1[:, None], psi2[:, None])


# ----------------------------------------------------------------------------
# Small lattice systems


def truncated_profile(grid: LatticeGrid, center_site: int, radius: int) -> np.ndarray:
    """Gaussian cut to exact zeros outside center_site +- radius sites.

    Exact sparsity keeps path enumeration narrow: with spinor-diagonal
    phase rotations the per-layer out-degree stays at the shift count.
    """
    x = grid.positions()
    full = gaussian_profile(grid, x[center_site], max(radius / 2.0, 0.75) * grid.dx)
    dist = np.abs(np.arange(grid.n_sites) - center_site)
    dist = np.minimum(dist, grid.n_sites - dist)
    prof = np.where(dist <= radius, full, 0.0)
    return prof / np.linalg.norm(prof)


def spinor_field(profile: np.ndarray, spinor: np.ndarray) -> np.ndarray:
    return (profile[:, None] * spinor[None, :]).reshape(-1)


def small_walk_context(
    n_sites: int,
    n_layers: int,
    mass1: float,
    mass2: float,
    rng: np.random.Generator,
    potential1=None,
    radius: int = 0,
    dt_ratio: float = 1.0,
) -> PathContext:
    """Product-start walk wrapped as circuit layers for path conditioning."""
    grid = LatticeGrid(n_sites, 1.0, dt_ratio, 0.0, "periodic")
    step1 = build_dirac_step(grid, mass1, 1.0 if potential1 is not None else 0.0, potential1)
    step2 = build_dirac_step(grid, mass2, 0.0)
    layers = to_circuit_layers(step1, step2, n_layers)
    c1 = int(rng.integers(0, n_sites))
    c2 = int(rng.integers(0, n_sites))
    spin_names = list(NAMED_SPINORS)
    s1 = NAMED_SPINORS[spin_names[int(rng.integers(0, len(spin_names)))]]
    s2 = NAMED_SPINORS[spin_names[int(rng.integers(0, len(spin_names)))]]
    if radius > 0:
        psi1 = spinor_field(truncated_profile(grid, c1, radius), s1)
    else:
        prof = np.zeros(n_sites)
        prof[c1] = 1.0
        psi1 = spinor_field(prof, s1)
    psi2 = spinor_field(gaussian_profile(grid, grid.positions()[c2], 1.5), s2)
    return PathContext(layers, grid.basis(), psi1, psi2, grid=grid)


def scenario_phase_matrices(scn: dict):
    """A walk scenario's grid and its two particles' per-site phase
    matrices, the input both the step stencil and the CSR oracle build from."""
    g = scn["grid"]
    grid = LatticeGrid(int(g["n_sites"]), float(g["dx"]), float(g["dt"]), float(g["x_min"]), g["boundary"])
    mats = tuple(
        phase_matrices(grid, float(p["mass"]), float(p["charge"]), build_potential(grid, p["potential"]))
        for p in scn["particles"]
    )
    return grid, mats


def coupled_free_packet() -> dict:
    """The bundled free-packet scenario with a window-phase coupling on every layer."""
    scn = load_scenario("free-packet")
    scn["couplings"] = [
        {"kind": "window-phase", "strength": 0.7, "window1": [20.0, 44.0], "window2": [20.0, 44.0], "layers": "all"}
    ]
    return scn


@pytest.fixture
def rng():
    return make_rng(20260817)
