"""Self-tests of the benchmark.  Run from the repo root:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from pilotpath import cli  # noqa: E402

from invoke import Invoker, per_layer  # noqa: E402
from tracer import OVERHEAD, PER_LAYER, SITES, Span, Tracer, _covered, layer_stats  # noqa: E402
from workloads import E2E_UNITS, WORKLOADS, Workload, artifact_digest, check_guide  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_names_are_plain_and_match_benchmark_json():
    bench = _benchmark_json()
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    emitted_layer = {m.name: m.unit for m in PER_LAYER} | {OVERHEAD: "s"}
    for name in [*e2e, *layer, *emitted_layer, *E2E_UNITS]:
        assert NAME.fullmatch(name), name
    assert e2e == E2E_UNITS
    assert layer == emitted_layer
    assert {w["name"] for w in bench["workloads"]} <= set(WORKLOADS)


@pytest.fixture()
def tiny(tmp_path):
    """A 16-site, 3-layer guide run that finishes in well under a second."""
    scn = {
        "engine": "walk",
        "name": "bench-unit",
        "seed": 11,
        "grid": {"n_sites": 16, "dx": 1.0, "dt": 0.5},
        "n_layers": 3,
        "particles": [{"mass": 0.3}, {"mass": 0.3}],
        "initial": {
            "preset": "gaussian-product",
            "packet1": {"center": 4.0, "sigma": 1.5, "momentum": 0.6, "spinor": "chirality+"},
            "packet2": {"center": 11.0, "sigma": 1.5, "momentum": -0.6, "spinor": "chirality-"},
        },
        "protocol": {"count": 300, "substeps": 4, "equivariance_bound": 0.2},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scn), encoding="utf-8")
    work = tmp_path / "work"
    work.mkdir()
    return str(path), str(work)


def _invoker(tiny, check=check_guide, main=cli.main):
    scenario, work = tiny
    return Invoker(main, Workload("bench-unit", "guide", "bench-unit", None, check), scenario, 11, work)


def test_two_invocations_hash_to_the_same_artifacts(tiny, tmp_path):
    invoke = _invoker(tiny)
    invoke()
    invoke()
    assert (invoke.attempted, invoke.failed, invoke.problems) == (2, 0, [])
    scenario, _ = tiny
    digests = []
    for k in range(2):
        out = tmp_path / f"direct{k}"
        assert cli.main(["guide", "--scenario", scenario, "--seed", "11", "--out", str(out)]) == 0
        digests.append(artifact_digest(str(out)))
    assert digests[0] == digests[1] == invoke.reference


def test_deliberately_failed_check_counts_in_error_rate(tiny):
    invoke = _invoker(tiny, check=lambda artifacts: ["deliberately failed"])
    invoke()
    invoke()
    assert (invoke.attempted, invoke.failed, invoke.error_rate) == (2, 2, 1.0)
    assert all("deliberately failed" in p for p in invoke.problems)


def test_nonzero_exit_and_changed_artifacts_count_as_failures(tiny):
    calls = []

    def main(argv):
        calls.append(argv)
        code = cli.main(argv)
        if len(calls) == 2:
            out = argv[argv.index("--out") + 1]
            with open(os.path.join(out, "extra.txt"), "w", encoding="utf-8") as fh:
                fh.write("not in the first invocation\n")
        return 3 if len(calls) == 3 else code

    invoke = _invoker(tiny, main=main)
    for _ in range(3):
        invoke()
    assert (invoke.attempted, invoke.failed) == (3, 2)
    assert "artifacts differ" in invoke.problems[0]
    assert "exit code 3" in invoke.problems[1]


def test_tracer_restores_names_and_reports_missing_sites_as_absent(tiny):
    from pilotpath import kernels

    original = kernels.transport
    renamed = [
        ("pilotpath.cli:run_walk_renamed", "dirac.run_walk", None),
        ("pilotpath.cli:no_such_function", "cli.gone", None),
    ]
    tracer = Tracer([s for s in SITES if s[1] != "dirac.run_walk"] + renamed)
    invoke = _invoker(tiny)
    with tracer.patched():
        assert kernels.transport is not original
        invoke(tracer)
    assert kernels.transport is original
    assert tracer.absent_spans() == {"cli.gone", "dirac.run_walk"}
    metrics = per_layer(tracer, 0, [0], 0.0)
    assert "dirac.run_walk.s" not in metrics
    assert metrics["kernels.transport.calls"]["value"] == 2.0
    assert metrics["exports.csv_mb"]["value"] > 0.0
    assert invoke.failed == 0


def test_self_time_excludes_time_covered_by_children():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a", 3.0, 5.0, 0, 0),  # overlaps the first child: cover is 1..5
        Span("b", 6.0, 7.0, 0, 0),
        Span("c", 6.5, 6.8, 3, 0),
    ]
    stats = layer_stats(spans, 0)
    assert stats["root"].self_s == pytest.approx(10.0 - 4.0 - 1.0)
    assert stats["b"].self_s == pytest.approx(1.0 - 0.3)
    assert stats["a"].calls == 2
    assert _covered([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == pytest.approx(3.0)


def test_run_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "guide-export", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
