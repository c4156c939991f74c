"""pilotpath benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its src/.
The seed and the workload's size go into a scenario file written from the
bundled one; the CLI gets only that file, `--seed` and a temporary `--out`.

--trace 0 prints the end-to-end metrics: wall_s (median wall time of one
in-process `cli.main` call after a warm-up), setup_s (median over fresh
interpreters of import + load_scenario + build_walk) and peak_rss_mb (peak
RSS of the fresh process that ran the workload).  --trace 1 prints the
per-layer metrics of a traced run instead.  Both also print error_rate:
failed over attempted invocations, where an invocation fails on a nonzero
exit, a failed correctness check, or artifacts that are not byte-identical
to the first invocation's.  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from workloads import E2E_UNITS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")

# BLAS/OpenMP threads in every child.  One thread ran verify-battery as
# fast as two on a 2-CPU host and is steadier; it never exceeds nproc.
THREADS = 1
# Fresh interpreters timed per run for setup_s; their median is reported.
SETUP_PROBES = 5
# A run must end within 180 s; children are killed past this deadline.
DEADLINE_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(THREADS)
    return env


def run_child(argv: list[str], deadline: float) -> subprocess.CompletedProcess:
    """Run a child to completion; on timeout it is killed and waited for."""
    return subprocess.run(
        [sys.executable, *argv],
        env=child_env(),
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
        check=True,
    )


def setup_times(scenario: str, deadline: float) -> list[float]:
    probe = os.path.join(HERE, "setup_probe.py")
    return [
        float(run_child([probe, scenario], deadline).stdout.strip().splitlines()[-1])
        for _ in range(SETUP_PROBES)
    ]


def report(name: str, value: float, unit: str, note: str = "") -> dict:
    print(f"{name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    return {"value": value, "unit": unit}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "pilotpath", "cli.py")):
        print(f"perfbench: no pilotpath sources in {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    workload = WORKLOADS[args.workload]
    seed = args.seed % 2**32  # the scenario schema takes a nonnegative seed
    os.makedirs(SCRATCH, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=SCRATCH)
    try:
        scenario = os.path.join(work, "scenario.json")
        workload.scenario_file(SRC, seed, scenario)
        result_file = os.path.join(work, "result.json")
        run_child(
            [
                os.path.join(HERE, "invoke.py"),
                "--workload", workload.name,
                "--scenario", scenario,
                "--seed", str(seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--src", SRC,
                "--work", work,
                "--result", result_file,
            ],
            deadline,
        )
        with open(result_file, encoding="utf-8") as fh:
            result = json.load(fh)
        setups = [] if args.trace else setup_times(scenario, deadline)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"perfbench: {workload.name} did not complete: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)  # only when no other run is using it
        except OSError:
            pass

    walls = result["walls"]
    print(
        f"workload {workload.name}: `pilotpath {workload.command}` on {workload.scenario}"
        f" (count {workload.count or 'as bundled'}), seed {seed}, {args.seconds} s,"
        f" BLAS/OpenMP threads {THREADS} of nproc {os.cpu_count()}"
    )
    if args.trace:
        metrics = {}
        for name, m in result["per_layer"].items():
            metrics[name] = report(name, m["value"], m["unit"])
        if result["absent"]:
            print("absent (call site no longer exists): " + ", ".join(result["absent"]))
    else:
        metrics = {
            "wall_s": report(
                "wall_s", statistics.median(walls), E2E_UNITS["wall_s"],
                f"median of n={len(walls)} timed invocations after one warm-up, max "
                f"{max(walls):.6g} s; no percentile above the median has 10 samples beyond it",
            ),
            "setup_s": report(
                "setup_s", statistics.median(setups), E2E_UNITS["setup_s"],
                f"median of {len(setups)} fresh interpreters, range "
                f"{min(setups):.4g}-{max(setups):.4g} s",
            ),
            "peak_rss_mb": report(
                "peak_rss_mb", result["peak_rss_mb"], E2E_UNITS["peak_rss_mb"],
                "ru_maxrss of the fresh process that ran the workload",
            ),
        }
    attempted, failed = result["attempted"], result["failed"]
    print(f"error_rate = {failed / attempted:.6g} ratio  ({failed} of {attempted} invocations failed)")
    for problem in result["problems"]:
        print(f"FAILED {problem}")
    # A completed measurement exits 0; failed invocations show in `correct` and `failed`.
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
