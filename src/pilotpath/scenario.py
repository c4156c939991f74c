"""Scenario files: schema validation, defaults, and system builders.

A scenario JSON picks an engine (lattice walk or abstract circuit), the
initial state as a weighted sum of product branches, per-particle masses
and potentials, optional diagonal phase couplings, and the knobs of the
downstream protocols.  Loading validates against the shipped schema
(schemas/scenario.schema.json) with this module's own checker of the
draft-07 keywords that schema uses.  It words its errors as the tests'
schema oracle does, but NaN, Infinity and integers too large for a float
are no number to it.  It then fills every default explicitly and returns
the resolved dictionary; runs echo that resolved form next to their
artifacts so every output is reproducible from (scenario, seed) alone.

Randomized circuit scenarios draw their unitaries from a dedicated
counter-mode stream of the scenario seed (STREAM_SCENARIO_BUILD; circuit
lists every stream), so artifacts never depend on call order.
"""

from __future__ import annotations

import copy
import functools
import importlib.resources
import json
import math
import operator
import os
import pathlib
import re
from dataclasses import dataclass

import numpy as np

from .circuit import (
    STREAM_SCENARIO_BUILD,
    CircuitLayer,
    JointState,
    ModeSpinBasis,
    branch_norm_sq,
    haar_unitary,
    stream_rng,
)
from .dirac import (
    LatticeGrid,
    PotentialField,
    build_dirac_step,
    gaussian_profile,
    positive_energy_packet,
    spinor_from_spec,
    to_circuit_layers,
)
from .errors import ValidationError
from .paths import PathCaps, PathContext

_DEFAULTS = {
    "seed": 12345,
    "protocol": {
        "count": 10_000,
        "substeps": 4,
        "eps_node_rel": 1e-9,
        "track_threshold_rel": 1e-4,
        # Transport equivariance degrades first-order in the step on rough
        # fields (standing-wave interference); scenarios on coarse grids
        # declare the bound their resolution supports.
        "equivariance_bound": 0.05,
    },
    "paths": {"pair_cap": 2_000_000, "memory_cap_mb": 512, "layer": None},
}


@functools.cache
def _schema() -> dict:
    ref = importlib.resources.files("pilotpath") / "schemas" / "scenario.schema.json"
    return json.loads(ref.read_text(encoding="utf-8"))


def _is_number(value) -> bool:
    # bool is no JSON number; unlike the tests' schema oracle, neither are
    # NaN, +-Infinity and integers too large for a float
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "null": lambda v: v is None,
    "number": _is_number,
    "integer": lambda v: _is_number(v) and (isinstance(v, int) or v.is_integer()),
}


def _no_check(*_):
    return iter(())


def _type(v, types, schema, path):
    types = [types] if isinstance(types, str) else types
    if not any(_TYPES[t](v) for t in types):
        yield path, f"{v!r} is not of type {', '.join(map(repr, types))}"


# The schema's enum and const values are strings, for which == is JSON
# Schema equality.
def _enum(v, values, schema, path):
    if v not in values:
        yield path, f"{v!r} is not one of {values!r}"


def _const(v, value, schema, path):
    if v != value:
        yield path, f"{value!r} was expected"


def _pattern(v, regex, schema, path):
    if isinstance(v, str) and not re.search(regex, v):
        yield path, f"{v!r} does not match {regex!r}"


def _bound(beyond, words: str):
    def check(v, limit, schema, path):
        if _is_number(v) and beyond(v, limit):
            yield path, f"{v!r} is {words} {limit!r}"

    return check


def _required(v, names, schema, path):
    if isinstance(v, dict):
        for name in names:
            if name not in v:
                yield path, f"{name!r} is a required property"


def _properties(v, subschemas, schema, path):
    if isinstance(v, dict):
        for name, sub in subschemas.items():
            if name in v:
                yield from _errors(v[name], sub, path + (name,))


def _no_additional(v, allowed, schema, path):
    # the scenario schema only ever sets additionalProperties to false
    extras = sorted(k for k in v if k not in schema.get("properties", {})) if isinstance(v, dict) else []
    if extras:
        verb = "was" if len(extras) == 1 else "were"
        yield path, f"Additional properties are not allowed ({', '.join(map(repr, extras))} {verb} unexpected)"


def _items(v, sub, schema, path):
    if isinstance(v, list):
        for index, item in enumerate(v):
            yield from _errors(item, sub, path + (index,))


def _min_items(v, count, schema, path):
    if isinstance(v, list) and len(v) < count:
        yield path, f"{v!r} {'should be non-empty' if count == 1 else 'is too short'}"


def _max_items(v, count, schema, path):
    if isinstance(v, list) and len(v) > count:
        yield path, f"{v!r} {'is expected to be empty' if count == 0 else 'is too long'}"


def _any_of(v, subschemas, schema, path):
    if all(next(_errors(v, sub, path), None) for sub in subschemas):
        yield path, f"{v!r} is not valid under any of the given schemas"


def _all_of(v, subschemas, schema, path):
    for sub in subschemas:
        yield from _errors(v, sub, path)


def _if_then(v, condition, schema, path):
    if "then" in schema and next(_errors(v, condition, path), None) is None:
        yield from _errors(v, schema["then"], path)


def _unique_items(v, unique, schema, path):
    if unique and isinstance(v, list) and any(item in v[:i] for i, item in enumerate(v)):
        yield path, f"{v!r} has non-unique elements"


def _ref(v, ref, schema, path):
    # the scenario schema refers only to its own definitions, "#/definitions/<name>"
    yield from _errors(v, _schema()["definitions"][ref.rpartition("/")[2]], path)


# The draft-07 keywords the scenario schema uses, each a generator of
# (instance path, message) violations worded as the tests' schema oracle
# words them.
_KEYWORDS = {
    "$schema": _no_check,
    "title": _no_check,
    "definitions": _no_check,  # reached through "$ref"
    "$ref": _ref,
    "type": _type,
    "enum": _enum,
    "const": _const,
    "pattern": _pattern,
    "minimum": _bound(operator.lt, "less than the minimum of"),
    "maximum": _bound(operator.gt, "greater than the maximum of"),
    "exclusiveMinimum": _bound(operator.le, "less than or equal to the minimum of"),
    "exclusiveMaximum": _bound(operator.ge, "greater than or equal to the maximum of"),
    "required": _required,
    "properties": _properties,
    "additionalProperties": _no_additional,
    "items": _items,
    "minItems": _min_items,
    "maxItems": _max_items,
    "uniqueItems": _unique_items,
    "anyOf": _any_of,
    "allOf": _all_of,
    "if": _if_then,
    "then": _no_check,  # applied by "if"
}


def _errors(value, schema: dict, path: tuple):
    for key, arg in schema.items():
        yield from _KEYWORDS[key](value, arg, schema, path)


def validate_scenario(raw: dict) -> None:
    """Check raw against the shipped schema; raise on its first violation."""
    found = next(_errors(raw, _schema(), ()), None)
    if found:
        path, message = found
        raise ValidationError(f"scenario schema violation at '{'/'.join(map(str, path))}': {message}")


def _merge_defaults(raw: dict, defaults: dict) -> dict:
    out = copy.deepcopy(raw)
    for key, val in defaults.items():
        if key not in out:
            out[key] = copy.deepcopy(val)
        elif isinstance(val, dict) and isinstance(out[key], dict):
            out[key] = _merge_defaults(out[key], val)
    return out


def resolve_scenario(raw: dict) -> dict:
    """Validate and return the scenario with every default made explicit."""
    validate_scenario(raw)
    scn = _merge_defaults(raw, _DEFAULTS)
    if scn["engine"] == "walk":
        grid = scn["grid"]
        grid.setdefault("x_min", 0.0)
        grid.setdefault("boundary", "periodic")
        for particle in scn["particles"]:
            particle.setdefault("charge", 0.0)
            particle.setdefault("potential", {"preset": "free"})
        scn.setdefault("couplings", [])
        if scn["paths"]["layer"] is None:
            scn["paths"]["layer"] = min(4, scn["n_layers"])
        # keep the preset key so a resolved echo is itself a loadable scenario
        scn["initial"] = {"preset": "branches", "branches": expand_initial(scn["initial"])}
    return scn


def read_scenario(arg: str) -> dict:
    """Unvalidated JSON of a scenario file path, or of the bundled scenario
    of that name; resolve_scenario validates it."""
    if os.path.sep in arg or arg.endswith(".json") or os.path.isfile(arg):
        if not os.path.isfile(arg):
            raise ValidationError(f"scenario file not found: {arg}")
        ref = pathlib.Path(arg)
    else:
        ref = importlib.resources.files("pilotpath") / "scenarios" / f"{arg}.json"
        if not ref.is_file():
            raise ValidationError(f"no bundled scenario named {arg!r}")
    try:
        return json.loads(ref.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValidationError(f"scenario file {arg} is not UTF-8 JSON: {exc}") from exc


def load_scenario(arg: str) -> dict:
    """The resolved scenario of a file path or bundled name."""
    return resolve_scenario(read_scenario(arg))


# ----------------------------------------------------------------------------
# Initial-state presets, all expanded to weighted product branches


def _packet_defaults(packet: dict) -> dict:
    out = dict(packet)
    out.setdefault("kind", "gaussian")
    out.setdefault("momentum", 0.0)
    if out["kind"] == "gaussian":
        out.setdefault("spinor", "up")
    return out


def expand_initial(initial: dict) -> list[dict]:
    """Rewrite a named preset as an explicit list of product branches; the
    schema has checked the preset's fields."""
    preset = initial["preset"]
    if preset == "branches":
        return [
            {
                "weight": b.get("weight", 1.0),
                "packet1": _packet_defaults(b["packet1"]),
                "packet2": _packet_defaults(b["packet2"]),
            }
            for b in initial["branches"]
        ]
    if preset == "gaussian-product":
        return [
            {
                "weight": 1.0,
                "packet1": _packet_defaults(initial["packet1"]),
                "packet2": _packet_defaults(initial["packet2"]),
            }
        ]
    w = 1.0 / math.sqrt(2.0)
    if preset == "entangled-mirror":
        c1, c2 = initial["centers"]
        sigma = initial["sigma"]
        k = initial["momentum"]
        kind = initial.get("kind", "walk-positive")
        mk = lambda c, mom: _packet_defaults(
            {"center": c, "sigma": sigma, "momentum": mom, "kind": kind}
        )
        return [
            {"weight": w, "packet1": mk(c1, k), "packet2": mk(c2, -k)},
            {"weight": w, "packet1": mk(c2, -k), "packet2": mk(c1, k)},
        ]
    if preset == "spin-singlet":
        c1, c2 = initial["centers"]
        sigma = initial["sigma"]
        mk = lambda c, sp: _packet_defaults({"center": c, "sigma": sigma, "spinor": sp})
        return [
            {"weight": w, "packet1": mk(c1, "chirality+"), "packet2": mk(c2, "chirality+b")},
            {"weight": -w, "packet1": mk(c1, "chirality+b"), "packet2": mk(c2, "chirality+")},
        ]
    # measurement-split
    c1 = initial["center1"]
    s1 = initial["sigma1"]
    pointer = initial["pointer"]
    ps = pointer["sigma"]
    psp = pointer.get("spinor", "chirality+")
    return [
        {
            "weight": w,
            "packet1": _packet_defaults({"center": c1, "sigma": s1, "spinor": "chirality+"}),
            "packet2": _packet_defaults({"center": pointer["center_a"], "sigma": ps, "spinor": psp}),
        },
        {
            "weight": w,
            "packet1": _packet_defaults({"center": c1, "sigma": s1, "spinor": "chirality-"}),
            "packet2": _packet_defaults({"center": pointer["center_b"], "sigma": ps, "spinor": psp}),
        },
    ]


def build_packet(grid: LatticeGrid, spec: dict, mass: float) -> np.ndarray:
    """(n_sites, 4) spinor field of one product-branch factor.

    An optional support_radius zeroes the field beyond that distance from
    the center (minimal-image for periodic grids) and renormalizes, giving
    path conditioning an exactly sparse start instead of machine-size tails.
    spec is a packet the schema has checked, with its defaults filled.
    """
    if spec["kind"] == "walk-positive":
        field = positive_energy_packet(grid, mass, spec["center"], spec["sigma"], spec["momentum"])
    else:
        profile = gaussian_profile(grid, spec["center"], spec["sigma"], spec["momentum"])
        field = profile[:, None] * spinor_from_spec(spec["spinor"])[None, :]
    radius = spec.get("support_radius")
    if radius is not None:
        d = grid.gap(grid.positions(), float(spec["center"]))
        field = np.where(d[:, None] <= float(radius), field, 0.0)
        nrm = np.linalg.norm(field)
        if nrm < 1e-6:
            raise ValidationError("support_radius leaves the packet with no weight")
        field = field / nrm
    return field


def _weight(value) -> complex:
    if isinstance(value, (list, tuple)):
        return complex(value[0], value[1])
    return complex(value)


def build_initial_state(grid: LatticeGrid, branches: list[dict], masses: tuple[float, float]) -> JointState:
    """The weighted branch sum as branch factors: weights ride on the left factor."""
    left = np.stack(
        [_weight(b["weight"]) * build_packet(grid, b["packet1"], masses[0]).reshape(-1) for b in branches],
        axis=1,
    )
    right = np.stack([build_packet(grid, b["packet2"], masses[1]).reshape(-1) for b in branches], axis=1)
    norm_sq = branch_norm_sq(left, right)
    # The start is normalized here, once.  A field the grid cannot hold (a
    # sigma far below dx, positions that overflow) is NaN and fails the
    # bounds too, as does a weight whose square overflows.
    if not 0.1**2 <= norm_sq < np.inf:
        raise ValidationError(f"initial branches have norm^2 {norm_sq!r}: they nearly cancel or are not finite")
    return JointState(grid.basis(), left / np.sqrt(norm_sq), right)


# ----------------------------------------------------------------------------
# Potentials and couplings


def build_potential(grid: LatticeGrid, spec: dict) -> PotentialField:
    preset = spec["preset"]
    if preset == "free":
        return PotentialField.free(grid)
    if preset == "constant-a0":
        return PotentialField.constant_a0(grid, spec["v0"])
    if preset == "barrier":
        return PotentialField.barrier(grid, spec["v0"], spec["lo"], spec["hi"])
    return PotentialField(np.asarray(spec["a0"], float), np.asarray(spec["a1"], float))


def build_couplings(grid: LatticeGrid, specs: list[dict], n_layers: int) -> dict[int, np.ndarray]:
    """Joint diagonal phase tables per layer, additive across entries.
    Layers under the same entries share one table, summed in entry order."""
    tables = []
    active: dict[int, tuple[int, ...]] = {}
    x = grid.positions()
    for i, spec in enumerate(specs):
        lo1, hi1 = spec["window1"]
        lo2, hi2 = spec["window2"]
        ind1 = np.repeat((x >= lo1) & (x < hi1), 4).astype(np.float64)
        ind2 = np.repeat((x >= lo2) & (x < hi2), 4).astype(np.float64)
        tables.append(float(spec["strength"]) * (ind1[:, None] * ind2))
        layers = spec.get("layers", "all")
        layer_list = range(n_layers) if layers == "all" else [int(t) for t in layers]
        for t in layer_list:
            if not 0 <= t < n_layers:
                raise ValidationError(f"coupling layer {t} out of range")
            active[t] = active.get(t, ()) + (i,)
    sums = {entries: functools.reduce(np.add, [tables[i] for i in entries]) for entries in set(active.values())}
    return {t: sums[entries] for t, entries in active.items()}


# ----------------------------------------------------------------------------
# Built systems


def _path_caps(scenario: dict) -> PathCaps:
    return PathCaps(
        pair_cap=int(scenario["paths"]["pair_cap"]),
        memory_cap_bytes=int(scenario["paths"]["memory_cap_mb"]) * 2**20,
    )


def _path_window(layers: list[CircuitLayer], n: int | None) -> list[CircuitLayer]:
    """The first n layers; every layer when n is None."""
    if n is None:
        return layers
    n = int(n)
    if not 0 <= n <= len(layers):
        raise ValidationError(f"layer count {n} outside 0..{len(layers)}")
    return layers[:n]


@dataclass
class WalkSystem:
    """Everything a walk scenario run needs, constructed and validated."""

    scenario: dict
    grid: LatticeGrid
    state0: JointState
    layers: list[CircuitLayer]
    caps: PathCaps

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    def path_context(self, n: int | None) -> PathContext:
        """Path conditioning over the first n layers, or all of them when n
        is None (product starts only)."""
        return PathContext.from_joint_state(self.state0, _path_window(self.layers, n), grid=self.grid)


def build_walk(scenario: dict) -> WalkSystem:
    g = scenario["grid"]
    grid = LatticeGrid(
        n_sites=int(g["n_sites"]),
        dx=float(g["dx"]),
        dt=float(g["dt"]),
        x_min=float(g["x_min"]),
        boundary=g["boundary"],
    )
    p1, p2 = scenario["particles"]
    masses = (float(p1["mass"]), float(p2["mass"]))
    step1 = build_dirac_step(grid, masses[0], float(p1["charge"]), build_potential(grid, p1["potential"]))
    step2 = build_dirac_step(grid, masses[1], float(p2["charge"]), build_potential(grid, p2["potential"]))
    state0 = build_initial_state(grid, scenario["initial"]["branches"], masses)
    n_layers = int(scenario["n_layers"])
    couplings = build_couplings(grid, scenario.get("couplings", []), n_layers)
    return WalkSystem(
        scenario=scenario,
        grid=grid,
        state0=state0,
        layers=to_circuit_layers(step1, step2, n_layers, couplings),
        caps=_path_caps(scenario),
    )


@dataclass
class CircuitSystem:
    """Everything a circuit scenario run needs: layers and product-start factors."""

    scenario: dict
    basis: ModeSpinBasis
    layers: list[CircuitLayer]
    psi1: np.ndarray
    psi2: np.ndarray
    caps: PathCaps

    def path_context(self, n: int | None) -> PathContext:
        """Path conditioning over the first n layers, or all of them when n is None."""
        return PathContext(_path_window(self.layers, n), self.basis, self.psi1, self.psi2)


def _vector_from_spec(spec, dim: int, what: str) -> np.ndarray:
    # The schema has checked the form, but cannot see dim.
    if isinstance(spec, dict):
        point = int(spec["basis_point"])
        if point >= dim:
            raise ValidationError(f"{what} basis point {point} is outside 0..{dim - 1}")
        v = np.zeros(dim, dtype=np.complex128)
        v[point] = 1.0
        return v
    arr = np.asarray(spec, dtype=np.float64)
    if arr.shape != (dim, 2):
        raise ValidationError(f"{what} must be a basis point or a list of {dim} [re, im] pairs")
    return arr[:, 0] + 1j * arr[:, 1]


def build_circuit(scenario: dict) -> CircuitSystem:
    b = scenario["basis"]
    basis = ModeSpinBasis(
        int(b["modes_a"]), int(b["spins_a"]), int(b["modes_b"]), int(b["spins_b"])
    )
    spec = scenario["layers"]
    layers: list[CircuitLayer] = []
    if isinstance(spec, dict) and "random" in spec:
        cfg = spec["random"]
        rng = stream_rng(int(scenario["seed"]), STREAM_SCENARIO_BUILD)
        scale = float(cfg.get("coupling_scale", 0.0))
        for _ in range(int(cfg["n_layers"])):
            u_a = haar_unitary(basis.dim_a, rng)
            u_b = haar_unitary(basis.dim_b, rng)
            phases = None
            if scale > 0.0:
                phases = scale * rng.uniform(-np.pi, np.pi, size=(basis.dim_a, basis.dim_b))
            layers.append(CircuitLayer(u_a, u_b, phases))
    else:
        for entry in spec:
            for key in ("u_a", "u_b", "phases"):
                # the schema cannot see that a matrix's rows have one length
                if len({len(row) for row in entry.get(key) or ()}) > 1:
                    raise ValidationError(f"{key} has rows of different lengths")
            layers.append(CircuitLayer(entry["u_a"], entry["u_b"], entry.get("phases")))
    init = scenario["initial"]
    psi1 = _vector_from_spec(init["psi1"], basis.dim_a, "psi1")
    psi2 = _vector_from_spec(init["psi2"], basis.dim_b, "psi2")
    system = CircuitSystem(scenario, basis, layers, psi1, psi2, _path_caps(scenario))
    # Checks the start factors and every layer against the basis, whatever
    # window a command asks for later.
    system.path_context(None)
    return system
