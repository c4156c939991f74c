"""End-to-end command line behavior: exits, artifacts, determinism."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pilotpath
from pilotpath import cli
from pilotpath.errors import DegenerateDensityError


@pytest.fixture()
def scenario_file(tmp_path):
    scn = {
        "engine": "walk",
        "name": "cli-unit",
        "seed": 424242,
        "grid": {"n_sites": 16, "dx": 1.0, "dt": 0.5},
        "n_layers": 3,
        "particles": [{"mass": 0.3}, {"mass": 0.3}],
        "initial": {
            "preset": "gaussian-product",
            "packet1": {"center": 4.0, "sigma": 1.5, "momentum": 0.6, "spinor": "chirality+"},
            "packet2": {"center": 11.0, "sigma": 1.5, "momentum": -0.6, "spinor": "chirality-"},
        },
        "protocol": {"count": 2000, "substeps": 4},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scn), encoding="utf-8")
    return str(path)


def run_cli(args, out):
    return cli.main(args + ["--out", str(out)])


def read_json(root, name, command, filename):
    with open(os.path.join(root, name, command, filename), encoding="utf-8") as fh:
        return json.load(fh)


def artifact_bytes(root):
    found = {}
    for dirpath, _, filenames in os.walk(root):
        for fn in filenames:
            full = os.path.join(dirpath, fn)
            with open(full, "rb") as fh:
                found[os.path.relpath(full, root)] = fh.read()
    return found


# ----------------------------------------------------------------------------
# Happy paths


def test_evolve_writes_its_artifact_set(scenario_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(["evolve", "--scenario", scenario_file], out) == 0
    base = out / "cli-unit" / "evolve"
    names = sorted(os.listdir(base))
    assert names == [
        "currents1.csv",
        "currents2.csv",
        "evolve_summary.json",
        "scenario.resolved.json",
    ]
    summary = read_json(out, "cli-unit", "evolve", "evolve_summary.json")
    assert summary["n_layers"] == 3
    assert summary["norm_drift"] < 1e-10
    assert "artifacts in" in capsys.readouterr().out


def test_paths_command_on_the_bundled_circuit(tmp_path):
    out = tmp_path / "out"
    assert run_cli(["paths", "--scenario", "circuit-demo"], out) == 0
    summary = read_json(out, "circuit-demo", "paths", "paths_summary.json")
    assert summary["window_layers"] == 3
    assert summary["n_paths"] == 6**3
    assert os.path.exists(out / "circuit-demo" / "paths" / "overlaps.csv")


def test_paths_layer_flag_limits_the_window(scenario_file, tmp_path):
    out = tmp_path / "out"
    assert run_cli(["paths", "--scenario", scenario_file, "--layer", "1"], out) == 0
    summary = read_json(out, "cli-unit", "paths", "paths_summary.json")
    assert summary["window_layers"] == 1
    # the window cannot reach past the scenario's own 3 layers
    assert run_cli(["paths", "--scenario", scenario_file, "--layer", "4"], out) == 2


def test_currents_command_matches_direct_evolution(scenario_file, tmp_path):
    out = tmp_path / "out"
    assert run_cli(["currents", "--scenario", scenario_file], out) == 0
    compare = read_json(out, "cli-unit", "currents", "currents_compare.json")
    assert compare["max_gap_density"] < 1e-10
    assert compare["max_gap_current"] < 1e-10
    assert compare["max_gap_marginal"] < 1e-10
    assert compare["diagonal_current_max"] == 0.0


def test_guide_retro_superdet_and_tracks(scenario_file, tmp_path):
    out = tmp_path / "out"
    assert run_cli(["guide", "--scenario", scenario_file], out) == 0
    guide = read_json(out, "cli-unit", "guide", "guide_summary.json")
    assert guide["particle1"]["worst_ks"] < 0.06
    assert guide["particle1"]["flagged"] == 0

    assert run_cli(["retro", "--scenario", scenario_file], out) == 0
    retro = read_json(out, "cli-unit", "retro", "retro_report.json")
    assert retro["particle2"]["worst_ks"] < 0.06
    assert len(retro["particle1"]["ks_per_layer"]) == 4

    assert run_cli(["superdet", "--scenario", scenario_file], out) == 0
    sup = read_json(out, "cli-unit", "superdet", "superdet_report.json")
    assert sup["total_excluded"] == 0
    # coarse scenario substeps; the dedicated replay tests use finer ones
    assert sup["max_deviation"] < 1e-3

    assert run_cli(["tracks", "--scenario", scenario_file], out) == 0
    tracks = read_json(out, "cli-unit", "tracks", "tracks_report.json")
    assert tracks["joint"]["loop_edges"] == 0
    assert tracks["crossings"]["violations"] == 0


def test_retro_and_superdet_use_the_scenario_node_threshold(scenario_file, tmp_path):
    """A high eps_node_rel masks the density tails, and backward runs flag
    the trajectories that meet them, as forward runs do."""
    with open(scenario_file, encoding="utf-8") as fh:
        scn = json.load(fh)
    scn["protocol"]["eps_node_rel"] = 0.3
    high = tmp_path / "high.json"
    high.write_text(json.dumps(scn), encoding="utf-8")
    out = tmp_path / "out"
    for command in ("guide", "retro", "superdet"):
        assert run_cli([command, "--scenario", str(high)], out) == 0, command
    guide = read_json(out, "cli-unit", "guide", "guide_summary.json")
    assert guide["particle1"]["flagged"] > 0
    retro = read_json(out, "cli-unit", "retro", "retro_report.json")
    assert retro["particle1"]["flagged"] > 0
    assert retro["particle2"]["flagged"] > 0
    sup = read_json(out, "cli-unit", "superdet", "superdet_report.json")
    assert sup["total_excluded"] > 0


def test_tracks_reports_its_frozen_forward_trajectories(scenario_file, tmp_path):
    """tracks draws the same forward ensembles as guide, so with a high
    eps_node_rel both report the same flagged trajectories per particle."""
    with open(scenario_file, encoding="utf-8") as fh:
        scn = json.load(fh)
    scn["protocol"]["eps_node_rel"] = 0.3
    high = tmp_path / "high.json"
    high.write_text(json.dumps(scn), encoding="utf-8")
    out = tmp_path / "out"
    for command in ("guide", "tracks"):
        assert run_cli([command, "--scenario", str(high)], out) == 0, command
    guide = read_json(out, "cli-unit", "guide", "guide_summary.json")
    tracks = read_json(out, "cli-unit", "tracks", "tracks_report.json")
    assert tracks["particle1"]["flagged"] > 0
    for particle in ("particle1", "particle2"):
        assert tracks[particle]["flagged"] == guide[particle]["flagged"]


def test_verify_command_passes_on_a_clean_scenario(scenario_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(["verify", "--scenario", scenario_file], out) == 0
    report = read_json(out, "cli-unit", "verify", "verify_report.json")
    assert report["passed"] is True
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["no_signaling"]["passed"] and not by_name["no_signaling"]["skipped"]
    assert by_name["path_equivalence"]["passed"]
    stdout = capsys.readouterr().out
    assert "all checks passed" in stdout


# ----------------------------------------------------------------------------
# Failure exits


def expect_error(args, out, capsys):
    code = run_cli(args, out)
    payload = json.loads(capsys.readouterr().err)
    assert set(payload) == {"error", "message", "exit_code"}
    assert payload["exit_code"] == code
    return code, payload


def test_unknown_bundled_name_exits_2(tmp_path, capsys):
    code, payload = expect_error(["evolve", "--scenario", "nope"], tmp_path, capsys)
    assert code == 2
    assert payload["error"] == "ValidationError"
    assert "nope" in payload["message"]


def test_missing_scenario_file_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "gone.json")
    code, payload = expect_error(["evolve", "--scenario", missing], tmp_path, capsys)
    assert code == 2
    assert "not found" in payload["message"]


def test_entangled_start_cannot_be_path_conditioned(tmp_path, capsys):
    code, payload = expect_error(["paths", "--scenario", "spin-singlet"], tmp_path, capsys)
    assert code == 2
    assert "product" in payload["message"]


def test_path_cap_override_exits_3(tmp_path, capsys):
    code, payload = expect_error(
        ["paths", "--scenario", "circuit-demo", "--path-cap", "10"], tmp_path, capsys
    )
    assert code == 3
    assert payload["error"] == "ResourceCapError"


def test_non_finite_circuit_unitary_exits_2(tmp_path, capsys):
    scn = {
        "engine": "circuit",
        "name": "nan-layer",
        "seed": 7,
        "basis": {"modes_a": 1, "spins_a": 2, "modes_b": 1, "spins_b": 2},
        "layers": [{"u_a": [[float("nan"), 0.0], [0.0, 1.0]], "u_b": [[1.0, 0.0], [0.0, 1.0]]}],
        "initial": {"psi1": {"basis_point": 0}, "psi2": {"basis_point": 1}},
    }
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(scn), encoding="utf-8")
    code, payload = expect_error(["paths", "--scenario", str(path)], tmp_path, capsys)
    assert code == 2
    assert payload["error"] == "ValidationError"
    assert "non-finite" in payload["message"]


def test_non_finite_start_factor_exits_2(tmp_path, capsys):
    scn = json.loads((Path(pilotpath.__file__).parent / "scenarios" / "circuit-demo.json").read_text())
    scn["initial"]["psi1"] = [[float("nan"), 0.0], [1.0, 0.0]] + [[0.0, 0.0]] * 4
    path = tmp_path / "nan-start.json"
    path.write_text(json.dumps(scn), encoding="utf-8")
    code, payload = expect_error(["paths", "--scenario", str(path)], tmp_path, capsys)
    assert code == 2
    assert payload["error"] == "ValidationError"
    assert "non-finite" in payload["message"]
    assert not (tmp_path / "circuit-demo").exists()


def test_circuit_path_window_follows_the_layer_flag(tmp_path, capsys):
    assert run_cli(["paths", "--scenario", "circuit-demo", "--layer", "2"], tmp_path) == 0
    summary = read_json(tmp_path, "circuit-demo", "paths", "paths_summary.json")
    assert summary["window_layers"] == 2
    assert summary["n_paths"] == 36
    capsys.readouterr()
    code, payload = expect_error(["paths", "--scenario", "circuit-demo", "--layer", "4"], tmp_path, capsys)
    assert code == 2
    assert payload["message"] == "layer count 4 outside 0..3"


def test_circuit_verify_follows_the_path_window(tmp_path, capsys):
    """verify runs the path checks over the scenario's paths.layer window, as
    the paths command does; over all 8 layers this circuit passes the pair cap."""
    scn = {
        "engine": "circuit",
        "name": "deep-circuit",
        "seed": 7,
        "basis": {"modes_a": 4, "spins_a": 2, "modes_b": 4, "spins_b": 2},
        "layers": {"random": {"n_layers": 8, "coupling_scale": 0.8}},
        "initial": {"psi1": {"basis_point": 0}, "psi2": {"basis_point": 3}},
        "paths": {"layer": 2},
    }
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(scn), encoding="utf-8")
    assert run_cli(["paths", "--scenario", str(path)], tmp_path) == 0
    assert run_cli(["verify", "--scenario", str(path)], tmp_path) == 0
    report = read_json(tmp_path, "deep-circuit", "verify", "verify_report.json")
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["path_equivalence"]["note"].endswith("over 2 layers")
    assert by_name["path_equivalence"]["passed"] and not by_name["path_equivalence"]["skipped"]
    assert "all checks passed" in capsys.readouterr().out


def test_walk_path_window_is_range_checked(scenario_file, tmp_path, capsys):
    code, payload = expect_error(["paths", "--scenario", scenario_file, "--layer", "-1"], tmp_path, capsys)
    assert code == 2
    assert payload["message"] == "layer count -1 outside 0..3"


def test_degenerate_density_exits_4(scenario_file, tmp_path, capsys, monkeypatch):
    def boom(scn, system, args, out):
        raise DegenerateDensityError("flat density")

    monkeypatch.setitem(cli.COMMANDS, "evolve", dataclasses.replace(cli.COMMANDS["evolve"], body=boom))
    code, payload = expect_error(["evolve", "--scenario", scenario_file], tmp_path, capsys)
    assert code == 4
    assert payload == {"error": "DegenerateDensityError", "exit_code": 4, "message": "flat density"}


def test_unexpected_errors_exit_1(scenario_file, tmp_path, capsys, monkeypatch):
    def boom(scn, system, args, out):
        raise RuntimeError("wat")

    monkeypatch.setitem(cli.COMMANDS, "evolve", dataclasses.replace(cli.COMMANDS["evolve"], body=boom))
    code, payload = expect_error(["evolve", "--scenario", scenario_file], tmp_path, capsys)
    assert code == 1
    assert payload["error"] == "RuntimeError"


@pytest.mark.parametrize(
    "command, scenario, extra, exit_code",
    [
        ("tracks", "circuit-demo", [], 2),
        ("paths", "spin-singlet", [], 2),
        ("paths", "circuit-demo", ["--path-cap", "10"], 3),
    ],
    ids=["walk-only-on-circuit", "entangled-start", "over-pair-cap"],
)
def test_failed_runs_leave_no_artifact_directory(command, scenario, extra, exit_code, tmp_path, capsys):
    code, _ = expect_error([command, "--scenario", scenario] + extra, tmp_path, capsys)
    assert code == exit_code
    assert not (tmp_path / scenario / command).exists()


def test_failing_verify_exits_1(scenario_file, tmp_path, capsys):
    with open(scenario_file, encoding="utf-8") as fh:
        scn = json.load(fh)
    scn["protocol"]["equivariance_bound"] = 1e-9
    strict = tmp_path / "strict.json"
    strict.write_text(json.dumps(scn), encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli(["verify", "--scenario", str(strict)], out) == 1
    report = read_json(out, "cli-unit", "verify", "verify_report.json")
    assert report["passed"] is False
    by_name = {c["name"]: c for c in report["checks"]}
    assert not by_name["equivariance_quick"]["passed"]
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == f"verification FAILED; report in {out / 'cli-unit' / 'verify'}"


# ----------------------------------------------------------------------------
# Overrides and determinism


def test_seed_flag_beats_environment(scenario_file, tmp_path, monkeypatch):
    monkeypatch.setenv("PILOTPATH_SEED", "888")
    out_env = tmp_path / "env"
    assert run_cli(["evolve", "--scenario", scenario_file], out_env) == 0
    echo = read_json(out_env, "cli-unit", "evolve", "scenario.resolved.json")
    assert echo["seed"] == 888

    out_flag = tmp_path / "flag"
    assert run_cli(["evolve", "--scenario", scenario_file, "--seed", "777"], out_flag) == 0
    echo = read_json(out_flag, "cli-unit", "evolve", "scenario.resolved.json")
    assert echo["seed"] == 777


def test_out_root_environment_variable(scenario_file, tmp_path, monkeypatch):
    root = tmp_path / "env-root"
    monkeypatch.setenv("PILOTPATH_OUT", str(root))
    assert cli.main(["evolve", "--scenario", scenario_file]) == 0
    assert os.path.exists(root / "cli-unit" / "evolve" / "evolve_summary.json")


def test_reruns_are_byte_identical(scenario_file, tmp_path):
    """Every command, run twice, writes the same files with the same bytes."""
    out1 = tmp_path / "one"
    out2 = tmp_path / "two"
    for out in (out1, out2):
        for command in cli.COMMANDS:
            assert run_cli([command, "--scenario", scenario_file], out) == 0, command
    a = artifact_bytes(out1)
    b = artifact_bytes(out2)
    assert a.keys() == b.keys()
    assert {name.split(os.sep)[1] for name in a} == set(cli.COMMANDS)
    assert len(a) == 25
    for name in a:
        assert a[name] == b[name], name


def test_resolved_echo_reproduces_the_run(scenario_file, tmp_path):
    """Rerunning from the echoed resolved scenario yields the same bytes."""
    out1 = tmp_path / "one"
    assert run_cli(["evolve", "--scenario", scenario_file], out1) == 0
    echo_path = out1 / "cli-unit" / "evolve" / "scenario.resolved.json"
    out2 = tmp_path / "two"
    assert run_cli(["evolve", "--scenario", str(echo_path)], out2) == 0
    with open(out1 / "cli-unit" / "evolve" / "currents1.csv", "rb") as fh:
        first = fh.read()
    with open(out2 / "cli-unit" / "evolve" / "currents1.csv", "rb") as fh:
        second = fh.read()
    assert first == second


def test_import_leaves_scipy_stats_and_ndimage_unloaded():
    """scipy.ndimage is imported where tracks are labelled, so commands that
    never use it do not pay its import time, and building a random circuit
    draws its unitaries without scipy.stats.  The package root itself loads
    no submodule."""
    probe = (
        "import sys, pilotpath; "
        "print(sorted(m for m in sys.modules if m.startswith('pilotpath.'))); "
        "import pilotpath.cli; "
        "print(sorted(m for m in ('scipy.stats', 'scipy.ndimage') if m in sys.modules)); "
        "from pilotpath.scenario import build_circuit, bundled_scenario; "
        "build_circuit(bundled_scenario('circuit-demo')); "
        "print('scipy.stats' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(pilotpath.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.split() == ["[]", "[]", "False"]
