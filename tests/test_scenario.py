"""Scenario loading, validation, defaults, and system builders."""

import collections
import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pilotpath.dirac import LatticeGrid
from pilotpath.errors import ValidationError
from pilotpath.exports import canonical_json
from pilotpath.scenario import (
    _KEYWORDS,
    _TYPES,
    _schema,
    build_circuit,
    build_couplings,
    build_initial_state,
    build_packet,
    build_potential,
    build_walk,
    expand_initial,
    load_scenario,
    read_scenario,
    resolve_scenario,
    validate_scenario,
)

from conftest import coupled_free_packet
from oracles import schema_errors

BUNDLED = ["barrier", "circuit-demo", "entangled-mirror", "free-packet", "no-overlap", "recombination", "spin-singlet"]


def walk_raw(**overrides):
    raw = {
        "engine": "walk",
        "name": "unit",
        "grid": {"n_sites": 16, "dx": 1.0, "dt": 0.5},
        "n_layers": 3,
        "particles": [{"mass": 0.2}, {"mass": 0.3}],
        "initial": {
            "preset": "gaussian-product",
            "packet1": {"center": 4.0, "sigma": 1.5},
            "packet2": {"center": 11.0, "sigma": 1.5},
        },
    }
    raw.update(overrides)
    return raw


# ----------------------------------------------------------------------------
# Validation and defaults


def test_resolution_fills_every_default():
    scn = resolve_scenario(walk_raw())
    assert scn["seed"] == 12345
    assert scn["protocol"] == {
        "count": 10_000,
        "substeps": 4,
        "eps_node_rel": 1e-9,
        "track_threshold_rel": 1e-4,
        "equivariance_bound": 0.05,
    }
    assert scn["paths"] == {"pair_cap": 2_000_000, "memory_cap_mb": 512, "layer": 3}
    assert scn["grid"]["x_min"] == 0.0
    assert scn["grid"]["boundary"] == "periodic"
    assert scn["couplings"] == []
    for particle in scn["particles"]:
        assert particle["charge"] == 0.0
        assert particle["potential"] == {"preset": "free"}


def test_path_window_default_caps_at_four_layers():
    scn = resolve_scenario(walk_raw(n_layers=9))
    assert scn["paths"]["layer"] == 4


def test_explicit_values_survive_the_merge():
    raw = walk_raw(seed=7, protocol={"count": 77})
    scn = resolve_scenario(raw)
    assert scn["seed"] == 7
    assert scn["protocol"]["count"] == 77
    assert scn["protocol"]["substeps"] == 4


def test_schema_errors_carry_the_offending_path():
    bad = walk_raw()
    bad["grid"]["n_sites"] = 1
    with pytest.raises(ValidationError) as info:
        resolve_scenario(bad)
    assert str(info.value) == "scenario schema violation at 'grid/n_sites': 1 is less than the minimum of 2"
    with pytest.raises(ValidationError, match="engine"):
        resolve_scenario(walk_raw(engine="tensor"))
    with pytest.raises(ValidationError, match="protocol"):
        resolve_scenario(walk_raw(protocol={"count": 0}))
    with pytest.raises(ValidationError):
        resolve_scenario(walk_raw(protocol={"no_such_knob": 1}))


def test_signal_speed_cap_on_the_grid():
    bad = walk_raw()
    bad["grid"]["dt"] = 2.0
    with pytest.raises(ValidationError, match="outrun"):
        build_walk(resolve_scenario(bad))


def test_unknown_bundled_name_is_rejected():
    with pytest.raises(ValidationError, match="no-such"):
        load_scenario("no-such")


def test_every_bundled_scenario_resolves():
    for name in BUNDLED:
        scn = load_scenario(name)
        assert scn["name"] == name
        assert isinstance(scn["seed"], int)


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("protocol", "eps_node_rel", float("nan")),
        ("protocol", "equivariance_bound", float("nan")),
        ("grid", "dx", float("inf")),
        ("grid", "dx", 10**400),
    ],
    ids=["nan-eps-node-rel", "nan-equivariance-bound", "infinite-dx", "integer-dx-beyond-float"],
)
def test_non_finite_numbers_are_rejected(section, key, value):
    """json.load reads NaN, Infinity and integers beyond the float range,
    which pass every bound jsonschema checks; the scenario checker holds
    them to be no number at all, so no builder meets a float() that
    overflows."""
    raw = walk_raw()
    raw.setdefault(section, {})[key] = value
    assert schema_errors(raw) == set()
    with pytest.raises(ValidationError) as info:
        resolve_scenario(raw)
    assert str(info.value) == f"scenario schema violation at '{section}/{key}': {value!r} is not of type 'number'"


def _subschemas(key, arg):
    if key in ("properties", "definitions"):
        return list(arg.values())
    if key in ("items", "if", "then"):
        return [arg]
    if key in ("allOf", "anyOf"):
        return arg
    return []


def _keyword_args(schema: dict):
    """(keyword, argument) of every keyword of schema and of its subschemas."""
    for key, arg in schema.items():
        yield key, arg
        for sub in _subschemas(key, arg):
            yield from _keyword_args(sub)


def test_the_checker_implements_every_schema_keyword():
    """The schema uses no keyword the checker lacks, and each in the form
    the checker assumes: one schema for items, additionalProperties false,
    only JSON types it knows, strings for enum and const to compare, and
    $ref only to the schema's own definitions."""
    pairs = list(_keyword_args(_schema()))
    used = {key for key, _ in pairs}
    assert used <= set(_KEYWORDS), sorted(used - set(_KEYWORDS))
    assert {"anyOf", "allOf", "if", "additionalProperties", "exclusiveMaximum", "pattern", "$ref", "uniqueItems"} <= used
    for key, arg in pairs:
        if key == "$ref":
            assert arg.startswith("#/definitions/") and arg.rpartition("/")[2] in _schema()["definitions"]
        if key == "uniqueItems":
            assert arg is True
        if key == "items":
            assert isinstance(arg, dict)
        if key == "additionalProperties":
            assert arg is False
        if key == "type":
            assert set([arg] if isinstance(arg, str) else arg) <= set(_TYPES)
        if key in ("enum", "const"):
            assert all(isinstance(each, str) for each in ([arg] if key == "const" else arg))


def _containers(node):
    """node and every object or array inside it."""
    yield node
    for child in node.values() if isinstance(node, dict) else node:
        if isinstance(child, (dict, list)):
            yield from _containers(child)


def _sites(doc) -> list:
    """(container, key) of every value in doc."""
    return [(node, key) for node in _containers(doc) for key in (node if isinstance(node, dict) else range(len(node)))]


def _edges(schema: dict) -> dict:
    """Property name -> values at the edges the schema sets on it: null
    where it names a type, each numeric bound and its neighbours, as int
    and float, and for a pattern strings that match it and that do not."""
    edges = collections.defaultdict(list)
    for key, arg in _keyword_args(schema):
        for name, sub in arg.items() if key == "properties" else ():
            if "type" in sub:
                edges[name].append(None)
            for bound in ("minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum"):
                if bound in sub:
                    edges[name] += [cast(sub[bound] + step) for step in (-1, 0, 1) for cast in (int, float)]
            if "pattern" in sub:
                edges[name] += ["x", "x.y-z", "", "-x", "x y"]
    return edges


def assert_checker_agrees_with_jsonschema(doc):
    """The checker rejects doc exactly when jsonschema does, with one of
    jsonschema's violations."""
    expected = {f"scenario schema violation at '{p}': {m}" for p, m in schema_errors(doc)}
    try:
        validate_scenario(doc)
    except ValidationError as exc:
        assert str(exc) in expected
    else:
        assert expected == set()


# The bundled scenarios, a resolved one with a coupling, which no bundled
# scenario has, and the forms of the schema's other fields that none of
# them uses: explicit circuit layers and start pairs, tables and barrier
# potentials, a pointer spinor of pairs, and branches with a pair weight,
# a support radius and a named spinor.
DOCUMENTS = [read_scenario(name) for name in BUNDLED] + [
    coupled_free_packet(),
    {
        "engine": "circuit",
        "name": "explicit",
        "basis": {"modes_a": 2, "spins_a": 1, "modes_b": 2, "spins_b": 1},
        "layers": [{"u_a": [[0.0, 1.0], [1.0, 0.0]], "u_b": [[1.0, 0.0], [0.0, -1.0]], "phases": [[0.0, 0.5], [0.5, 0.0]]}],
        "initial": {"psi1": [[1.0, 0.0], [0.0, 0.0]], "psi2": {"basis_point": 1}},
    },
    walk_raw(
        particles=[
            {"mass": 0.2, "charge": 1.0, "potential": {"preset": "tables", "a0": [0.0, 0.1], "a1": [0.0, 0.0]}},
            {"mass": 0.3, "potential": {"preset": "barrier", "v0": 0.1, "lo": 2.0, "hi": 4.0}},
        ],
        initial={
            "preset": "measurement-split",
            "center1": 4.0,
            "sigma1": 1.0,
            "pointer": {"center_a": 2.0, "center_b": 10.0, "sigma": 1.0, "spinor": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 1.0]]},
        },
    ),
    walk_raw(
        initial={
            "preset": "branches",
            "branches": [
                {
                    "weight": [0.0, 1.0],
                    "packet1": {"kind": "gaussian", "center": 4.0, "sigma": 1.0, "support_radius": 3.0, "spinor": "down"},
                    "packet2": {"kind": "walk-positive", "center": 9.0, "sigma": 1.0, "momentum": 0.5},
                }
            ],
        }
    ),
]


def test_checker_agrees_with_jsonschema_at_every_edge():
    """Every bounded or patterned value of every scenario set to each edge
    the schema gives it, and every array one item longer and shorter."""
    edges = _edges(_schema())
    for doc in map(copy.deepcopy, DOCUMENTS):
        for node, key in _sites(doc):
            value = node[key]
            for edge in edges.get(key, []):
                node[key] = edge
                assert_checker_agrees_with_jsonschema(doc)
            if isinstance(value, list) and value:
                node[key] = value + value[-1:]
                assert_checker_agrees_with_jsonschema(doc)
                node[key] = value[:-1]
                assert_checker_agrees_with_jsonschema(doc)
            node[key] = value


# Keys the schema names somewhere, so that an added key can meet a
# conditional property, and one it names nowhere.  The values hold no NaN,
# infinity or integer beyond the float range: there the checker deviates
# from jsonschema on purpose (test_non_finite_numbers_are_rejected).
ADDED_KEYS = ["seed", "grid", "n_layers", "particles", "basis", "layers", "random", "phases", "couplings", "layer", "extra"]
VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 70),
    st.sampled_from([0.0, 2.0, 0.5, -0.5, 1e-12, 1e300, 10**30]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(["walk", "circuit", "all", "free", "branches", "window-phase", "", "-x"]),
    st.lists(st.integers(-1, 3), max_size=3),
    st.sampled_from([{}, {"n_layers": 2}, {"preset": "free"}, {"mass": 0.5}]),
)


@settings(max_examples=600, derandomize=True, deadline=None)
@given(data=st.data())
def test_checker_agrees_with_jsonschema_on_mutated_scenarios(data):
    """Drop a key or item, add one, or replace a value anywhere in a
    scenario with a value of another type or range."""
    doc = copy.deepcopy(data.draw(st.sampled_from(DOCUMENTS)))
    kind = data.draw(st.sampled_from(["drop", "add", "replace"]))
    if kind == "add":
        node = data.draw(st.sampled_from(list(_containers(doc))))
        if isinstance(node, dict):
            node[data.draw(st.sampled_from(ADDED_KEYS))] = data.draw(VALUES)
        else:
            node.append(data.draw(VALUES))
    else:
        node, key = data.draw(st.sampled_from(_sites(doc)))
        if kind == "drop":
            del node[key]
        else:
            node[key] = data.draw(VALUES)
    assert_checker_agrees_with_jsonschema(doc)


def test_load_round_trips_through_a_file(tmp_path):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(walk_raw()), encoding="utf-8")
    scn = load_scenario(str(path))
    assert scn["name"] == "unit"
    with pytest.raises(ValidationError, match="not found"):
        load_scenario(str(tmp_path / "missing.json"))


def test_a_directory_is_not_a_scenario_file(tmp_path, monkeypatch):
    """A run with --out . leaves a directory named after the scenario; the
    bundled name still loads there, and a directory path is not found."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "free-packet").mkdir()
    assert load_scenario("free-packet")["name"] == "free-packet"
    with pytest.raises(ValidationError, match="not found"):
        load_scenario(str(tmp_path / "free-packet"))


def test_resolved_echo_is_itself_loadable(tmp_path):
    """The echoed resolved form must reproduce the run it came from."""
    scn = load_scenario("entangled-mirror")
    path = tmp_path / "echo.json"
    path.write_text(canonical_json(scn), encoding="utf-8")
    again = load_scenario(str(path))
    assert canonical_json(again) == canonical_json(scn)


# ----------------------------------------------------------------------------
# Initial-state presets


def test_product_preset_expands_to_one_branch():
    branches = expand_initial(
        {
            "preset": "gaussian-product",
            "packet1": {"center": 4.0, "sigma": 1.0},
            "packet2": {"center": 9.0, "sigma": 1.0, "spinor": "chirality-"},
        }
    )
    assert len(branches) == 1
    b = branches[0]
    assert b["weight"] == 1.0
    assert b["packet1"] == {
        "center": 4.0,
        "sigma": 1.0,
        "kind": "gaussian",
        "momentum": 0.0,
        "spinor": "up",
    }
    assert b["packet2"]["spinor"] == "chirality-"


def test_mirror_preset_swaps_packets_between_branches():
    branches = expand_initial(
        {"preset": "entangled-mirror", "centers": [5.0, 12.0], "sigma": 2.0, "momentum": 0.8}
    )
    assert len(branches) == 2
    w = 1.0 / np.sqrt(2.0)
    assert branches[0]["weight"] == w and branches[1]["weight"] == w
    assert branches[0]["packet1"]["center"] == 5.0
    assert branches[0]["packet1"]["momentum"] == 0.8
    assert branches[0]["packet2"]["center"] == 12.0
    assert branches[0]["packet2"]["momentum"] == -0.8
    # second branch is the swap
    assert branches[1]["packet1"] == branches[0]["packet2"]
    assert branches[1]["packet2"] == branches[0]["packet1"]
    assert branches[0]["packet1"]["kind"] == "walk-positive"


def test_singlet_preset_is_antisymmetric_in_the_spin_labels():
    branches = expand_initial({"preset": "spin-singlet", "centers": [4.0, 10.0], "sigma": 1.5})
    assert branches[0]["weight"] == -branches[1]["weight"]
    assert branches[0]["packet1"]["spinor"] == "chirality+"
    assert branches[0]["packet2"]["spinor"] == "chirality+b"
    assert branches[1]["packet1"]["spinor"] == "chirality+b"
    assert branches[1]["packet2"]["spinor"] == "chirality+"


def test_measurement_split_preset_points_the_pointer_two_ways():
    branches = expand_initial(
        {
            "preset": "measurement-split",
            "center1": 8.0,
            "sigma1": 1.0,
            "pointer": {"center_a": 4.0, "center_b": 12.0, "sigma": 1.0},
        }
    )
    assert len(branches) == 2
    assert branches[0]["packet1"]["center"] == branches[1]["packet1"]["center"] == 8.0
    assert {branches[0]["packet1"]["spinor"], branches[1]["packet1"]["spinor"]} == {
        "chirality+",
        "chirality-",
    }
    assert branches[0]["packet2"]["center"] == 4.0
    assert branches[1]["packet2"]["center"] == 12.0


def test_unknown_preset_is_rejected():
    with pytest.raises(ValidationError, match="initial/preset"):
        resolve_scenario(walk_raw(initial={"preset": "bogus"}))


# ----------------------------------------------------------------------------
# Packet and state construction


def test_truncated_packet_has_exact_zeros_and_unit_norm():
    grid = LatticeGrid(32, 1.0, 1.0, 0.0, "periodic")
    spec = {"center": 10.0, "sigma": 2.0, "kind": "gaussian", "momentum": 0.0, "spinor": "up", "support_radius": 4.0}
    field = build_packet(grid, spec, mass=0.2)
    assert field.shape == (32, 4)
    d = np.abs(grid.positions() - 10.0)
    d = np.minimum(d, grid.extent - d)
    assert np.all(field[d > 4.0] == 0.0)
    assert abs(np.linalg.norm(field) - 1.0) < 1e-12


def test_packet_spec_conflicts_are_rejected():
    # A walk-positive packet fixes its own spinor structure.
    packet = {"kind": "walk-positive", "center": 4.0, "sigma": 1.0, "momentum": 0.0, "spinor": "up"}
    with pytest.raises(ValidationError) as info:
        resolve_scenario(walk_raw(initial={"preset": "gaussian-product", "packet1": packet, "packet2": packet}))
    assert str(info.value) == (
        "scenario schema violation at 'initial/packet1': Additional properties are not allowed ('spinor' was unexpected)"
    )
    packet = {"kind": "hexagonal", "center": 4.0, "sigma": 1.0, "momentum": 0.0}
    with pytest.raises(ValidationError, match="initial/packet1/kind"):
        resolve_scenario(walk_raw(initial={"preset": "gaussian-product", "packet1": packet, "packet2": packet}))
    grid = LatticeGrid(16, 1.0, 1.0, 0.0, "periodic")
    # off-lattice center with a radius smaller than half a cell leaves nothing
    with pytest.raises(ValidationError, match="support_radius"):
        spec = {"kind": "gaussian", "center": 4.5, "sigma": 1.0, "momentum": 0.0, "spinor": "up", "support_radius": 0.1}
        build_packet(grid, spec, 0.2)


def free_packet_with(key, value):
    """free-packet with one field of its first packet replaced."""
    scn = load_scenario("free-packet")
    scn["initial"]["branches"][0]["packet1"][key] = value
    return scn


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("center", float("nan"), "nan is not of type 'number'"),
        ("center", True, "True is not of type 'number'"),
        ("center", None, "None is not of type 'number'"),
        ("sigma", "wide", "'wide' is not of type 'number'"),
        ("sigma", True, "True is not of type 'number'"),
        ("sigma", 0, "0 is less than or equal to the minimum of 0"),
        ("sigma", -2.0, "-2.0 is less than or equal to the minimum of 0"),
        ("momentum", float("inf"), "inf is not of type 'number'"),
        ("momentum", [0.6], "[0.6] is not of type 'number'"),
        ("support_radius", float("-inf"), "-inf is not of type 'number', 'null'"),
        ("support_radius", "4", "'4' is not of type 'number', 'null'"),
    ],
    ids=[
        "nan-center",
        "bool-center",
        "null-center",
        "string-sigma",
        "bool-sigma",
        "zero-sigma",
        "negative-sigma",
        "infinite-momentum",
        "list-momentum",
        "infinite-support-radius",
        "string-support-radius",
    ],
)
def test_malformed_packet_fields_are_rejected(key, value, message):
    """Every preset's packets are held to the schema's packet, which rejects
    a field that is not a finite real number, and a sigma that is not
    positive, before either packet kind builds its field."""
    with pytest.raises(ValidationError) as info:
        resolve_scenario(free_packet_with(key, value))
    assert str(info.value) == f"scenario schema violation at 'initial/branches/0/packet1/{key}': {message}"


@pytest.mark.parametrize("kind", ["walk-positive", "gaussian"])
def test_both_packet_kinds_check_their_fields(kind):
    packet = {"kind": kind, "center": 4.0, "sigma": float("nan"), "momentum": 0.0}
    with pytest.raises(ValidationError) as info:
        resolve_scenario(walk_raw(initial={"preset": "gaussian-product", "packet1": packet, "packet2": packet}))
    assert str(info.value) == "scenario schema violation at 'initial/packet1/sigma': nan is not of type 'number'"


def test_cancelling_branches_are_degenerate():
    grid = LatticeGrid(16, 1.0, 1.0, 0.0, "periodic")
    packet = {"center": 6.0, "sigma": 1.5, "kind": "gaussian", "momentum": 0.0, "spinor": "up"}
    branches = [
        {"weight": 1.0, "packet1": packet, "packet2": packet},
        {"weight": -1.0, "packet1": packet, "packet2": packet},
    ]
    with pytest.raises(ValidationError, match="cancel"):
        build_initial_state(grid, branches, (0.2, 0.2))


def _circuit_start_of_huge_pairs():
    raw = read_scenario("circuit-demo")
    raw["initial"]["psi1"] = [[1e300, 0.0]] * 6
    return raw


def _walk_with(section, key, value):
    raw = walk_raw()
    (raw["initial"]["packet1"] if section == "packet1" else raw[section])[key] = value
    return raw


# Numbers the schema admits whose arithmetic overflows, leaving a NaN start,
# a zero start or an infinite current scale.  Numpy's warnings are off, as
# on a plain CLI run.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "raw, message",
    [
        (_walk_with("grid", "dt", 5e-324), "dx/dt within the float range"),
        (_walk_with("packet1", "sigma", 1e-300), "sigma 1e-300 puts d\\*\\*2 / \\(4 sigma\\*\\*2\\) beyond the float range"),
        (_walk_with("packet1", "momentum", 1e308), "momentum 1e\\+308 puts momentum \\* x beyond the float range"),
        (_circuit_start_of_huge_pairs(), "norm within the float range"),
    ],
    ids=["dt-tiny", "sigma-tiny", "momentum-huge", "psi1-pairs-huge"],
)
def test_starts_that_overflow_are_rejected_where_they_are_built(raw, message):
    """Nothing after the build checks a state again, so the build rejects a
    start or grid that no float arithmetic can hold."""
    scn = resolve_scenario(raw)
    with pytest.raises(ValidationError, match=message):
        (build_walk if scn["engine"] == "walk" else build_circuit)(scn)


def test_complex_branch_weights():
    grid = LatticeGrid(16, 1.0, 1.0, 0.0, "periodic")
    packet = {"center": 6.0, "sigma": 1.5, "kind": "gaussian", "momentum": 0.0, "spinor": "up"}
    state = build_initial_state(grid, [{"weight": [0.0, 1.0], "packet1": packet, "packet2": packet}], (0.2, 0.2))
    p = build_packet(grid, packet, 0.2).reshape(-1)
    expected = 1j * np.outer(p, p)
    expected = expected / np.linalg.norm(expected)
    assert np.max(np.abs(state.left @ state.right.T - expected)) < 1e-12


# ----------------------------------------------------------------------------
# Potentials and couplings


def test_potential_presets():
    grid = LatticeGrid(8, 1.0, 1.0, 0.0, "periodic")
    assert np.all(build_potential(grid, {"preset": "free"}).a0 == 0.0)
    const = build_potential(grid, {"preset": "constant-a0", "v0": 0.7})
    assert np.all(const.a0 == 0.7) and np.all(const.a1 == 0.0)
    barrier = build_potential(grid, {"preset": "barrier", "v0": 2.0, "lo": 2.0, "hi": 5.0})
    x = grid.positions()
    assert np.array_equal(barrier.a0 != 0.0, (x >= 2.0) & (x < 5.0))
    tables = build_potential(grid, {"preset": "tables", "a0": list(range(8)), "a1": [0.0] * 8})
    assert tables.a0[3] == 3.0
    with pytest.raises(ValidationError, match="particles/0/potential/preset"):
        resolve_scenario(walk_raw(particles=[{"mass": 0.2, "potential": {"preset": "moat"}}, {"mass": 0.3}]))


def test_window_coupling_builds_an_indicator_table():
    grid = LatticeGrid(8, 1.0, 1.0, 0.0, "periodic")
    specs = [
        {"window1": [1.0, 3.0], "window2": [5.0, 7.0], "strength": 0.5, "layers": [1]},
    ]
    tables = build_couplings(grid, specs, n_layers=3)
    assert set(tables) == {1}
    table = tables[1]
    assert table.shape == (32, 32)
    x = grid.positions()
    in1 = np.repeat((x >= 1.0) & (x < 3.0), 4)
    in2 = np.repeat((x >= 5.0) & (x < 7.0), 4)
    assert np.array_equal(table != 0.0, np.outer(in1, in2))
    assert np.all(table[np.outer(in1, in2)] == 0.5)


def test_couplings_add_and_spread_over_layers():
    grid = LatticeGrid(8, 1.0, 1.0, 0.0, "periodic")
    one = {"window1": [0.0, 4.0], "window2": [0.0, 4.0], "strength": 0.25}
    tables = build_couplings(grid, [one, dict(one, layers=[0])], n_layers=2)
    assert set(tables) == {0, 1}
    assert np.max(tables[0]) == 0.5
    assert np.max(tables[1]) == 0.25
    with pytest.raises(ValidationError, match="out of range"):
        build_couplings(grid, [dict(one, layers=[5])], n_layers=2)
    with pytest.raises(ValidationError, match="couplings/0/kind"):
        resolve_scenario(walk_raw(couplings=[dict(one, kind="spring")]))
    # A layer listed twice would get the entry's phase twice.
    with pytest.raises(ValidationError, match="couplings/0/layers"):
        resolve_scenario(walk_raw(couplings=[dict(one, layers=[0, 0])]))


def test_layers_under_the_same_couplings_share_one_table():
    """Overlapping entries: layers under the same entries hold one table,
    equal bit for bit to the per-layer sum in entry order."""
    grid = LatticeGrid(8, 1.0, 1.0, 0.0, "periodic")
    a = {"window1": [0.0, 4.0], "window2": [0.0, 4.0], "strength": 0.1}
    b = dict(a, strength=0.2, layers=[1, 2, 4])
    c = dict(a, window2=[2.0, 6.0], strength=0.3, layers=[2])
    tables = build_couplings(grid, [a, b, c], n_layers=5)
    assert sorted(tables) == [0, 1, 2, 3, 4]
    assert tables[0] is tables[3] and tables[1] is tables[4]
    assert len({id(t) for t in tables.values()}) == 3
    ta, tb, tc = (build_couplings(grid, [dict(spec, layers=[0])], n_layers=1)[0] for spec in (a, b, c))
    assert np.array_equal(tables[0], ta)
    assert np.array_equal(tables[1], ta + tb)
    assert np.array_equal(tables[2], (ta + tb) + tc)
    # The order shows in the bits: (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3).
    assert tables[2].max() == (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)
    built = build_walk(dict(load_scenario("free-packet"), couplings=[a, b, c], n_layers=5))
    assert len({id(layer) for layer in built.layers}) == 3
    assert built.layers[1] is built.layers[4] and built.layers[1] is not built.layers[2]


# ----------------------------------------------------------------------------
# Built systems


def test_build_walk_produces_a_runnable_system():
    scn = resolve_scenario(walk_raw())
    system = build_walk(scn)
    assert system.grid.n_sites == 16
    assert abs(np.linalg.norm(system.state0.left @ system.state0.right.T) - 1.0) < 1e-12
    assert system.n_layers == 3
    assert system.caps.pair_cap == 2_000_000
    context = system.path_context(2)
    assert len(context.layers) == 2
    # The schema accepts 2.0 as an integer window.
    assert len(system.path_context(2.0).layers) == 2
    assert len(system.path_context(None).layers) == 3
    with pytest.raises(ValidationError, match=r"layer count 4 outside 0\.\.3"):
        system.path_context(4)


def test_build_circuit_random_layers_are_seed_reproducible():
    raw = {
        "engine": "circuit",
        "name": "c",
        "seed": 5,
        "basis": {"modes_a": 2, "spins_a": 2, "modes_b": 3, "spins_b": 1},
        "layers": {"random": {"n_layers": 3, "coupling_scale": 0.5}},
        "initial": {"psi1": {"basis_point": 1}, "psi2": {"basis_point": 2}},
    }
    a = build_circuit(resolve_scenario(json.loads(json.dumps(raw))))
    b = build_circuit(resolve_scenario(json.loads(json.dumps(raw))))
    assert len(a.layers) == 3
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.u_a, lb.u_a)
        assert np.array_equal(la.phases, lb.phases)
    raw["seed"] = 6
    c = build_circuit(resolve_scenario(raw))
    assert not np.array_equal(a.layers[0].u_a, c.layers[0].u_a)
    context = a.path_context(None)
    assert context.layers == a.layers
    assert context.psi1[1] == 1.0 and context.psi2[2] == 1.0


def test_build_circuit_explicit_layers_and_vectors():
    swap = [[0.0, 1.0], [1.0, 0.0]]
    raw = {
        "engine": "circuit",
        "name": "c",
        "basis": {"modes_a": 2, "spins_a": 1, "modes_b": 2, "spins_b": 1},
        "layers": [{"u_a": swap, "u_b": [[1.0, 0.0], [0.0, -1.0]]}],
        "initial": {
            "psi1": [[1.0, 0.0], [0.0, 0.0]],
            "psi2": [[0.0, 0.0], [0.0, 1.0]],
        },
    }
    system = build_circuit(resolve_scenario(raw))
    assert np.array_equal(system.layers[0].u_a, np.array(swap, dtype=complex))
    assert system.path_context(None).psi2[1] == 1.0j
    bad = json.loads(json.dumps(raw))
    bad["initial"]["psi1"] = [[1.0, 0.0]]
    with pytest.raises(ValidationError, match="psi1"):
        build_circuit(resolve_scenario(bad))
