"""Runs one workload's CLI invocations in this process and reports them.

run.py starts this script in a fresh interpreter with PYTHONPATH set to the
checkout's src/ and BLAS/OpenMP threads capped:

    python3 perfbench/invoke.py --workload NAME --scenario FILE --seed N \\
        --seconds S --trace 0|1 --src DIR --work DIR --result FILE

Untraced: one warm-up invocation, then timed invocations until S seconds
have passed.  Traced: the first invocation runs traced (in a fresh process,
so peak-RSS steps are visible), then an untraced loop and a traced loop of
S/2 seconds each.  Every invocation is checked: exit code, the workload's
correctness check, and byte-identity with the first invocation's artifacts.
The result (wall times, peak RSS, failures, per-layer metrics) goes to FILE
as JSON.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import time
from contextlib import redirect_stdout

from tracer import OVERHEAD, PER_LAYER, ROOT, Tracer, layer_stats, maxrss_mb
from workloads import WORKLOADS, Workload, artifact_digest


class Invoker:
    """Calls `cli.main` once per call and judges what it wrote."""

    def __init__(self, cli_main, workload: Workload, scenario: str, seed: int, work: str):
        self.cli_main = cli_main
        self.workload = workload
        self.scenario = scenario
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: str | None = None

    def __call__(self, tracer: Tracer | None = None) -> float:
        """One invocation; returns its wall time in seconds."""
        out = os.path.join(self.work, f"out{self.attempted}")
        argv = self.workload.argv(self.scenario, self.seed, out)
        gc.collect()
        with open(os.devnull, "w", encoding="utf-8") as sink, redirect_stdout(sink):
            if tracer is None:
                start = time.perf_counter()
                code = self.cli_main(argv)
                wall = time.perf_counter() - start
            else:
                tracer.run = self.attempted
                with tracer.span(ROOT) as span:
                    code = self.cli_main(argv)
                wall = span.duration
        problems = self._judge(code, out)
        shutil.rmtree(out, ignore_errors=True)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"invocation {self.attempted}: {p}" for p in problems)
        return wall

    def _judge(self, code: int, out: str) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        try:
            problems = self.workload.check(self.workload.artifact_dir(out))
        except (OSError, KeyError, TypeError, ValueError) as exc:
            return [f"artifacts unreadable: {type(exc).__name__}: {exc}"]
        digest = artifact_digest(out)
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            problems.append("artifacts differ from the first invocation's")
        return problems

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def timed_loop(call, seconds: float) -> list[float]:
    """Invocations until `seconds` have passed, at least one."""
    walls: list[float] = []
    end = time.perf_counter() + seconds
    while not walls or time.perf_counter() < end:
        walls.append(call())
    return walls


def per_layer(tracer: Tracer, first: int, runs: list[int], overhead: float) -> dict:
    """Per-layer metrics: RSS steps from run `first`, the rest as medians over `runs`."""
    absent = tracer.absent_spans()
    stats = {r: layer_stats(tracer.spans, r) for r in [first, *runs]}
    out = {}
    for m in PER_LAYER:
        if m.span in absent or (m.counted and m.span in tracer.counter_errors):
            continue
        picked = [first] if m.first_run else runs
        values = [m.value(stats[r][m.span]) if m.span in stats[r] else 0.0 for r in picked]
        out[m.name] = {"value": float(statistics.median(values)), "unit": m.unit}
    out[OVERHEAD] = {"value": overhead, "unit": "s"}
    return out


def measure(cli_main, workload, scenario, seed, seconds, trace, work) -> dict:
    invoke = Invoker(cli_main, workload, scenario, seed, work)
    tracer = Tracer() if trace else None
    if tracer is None:
        invoke()
    else:
        with tracer.patched():
            invoke(tracer)
    walls = timed_loop(invoke, seconds if tracer is None else seconds / 2)
    result = {"walls": walls, "peak_rss_mb": maxrss_mb()}
    if tracer is not None:
        first_traced = invoke.attempted
        with tracer.patched():
            traced = timed_loop(lambda: invoke(tracer), seconds / 2)
        overhead = statistics.median(traced) - statistics.median(walls)
        runs = list(range(first_traced, invoke.attempted))
        result["per_layer"] = per_layer(tracer, 0, runs, overhead)
        result["absent"] = sorted(tracer.missing)
    result.update(attempted=invoke.attempted, failed=invoke.failed, problems=invoke.problems)
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--scenario", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    import pilotpath
    from pilotpath import cli

    src = os.path.abspath(args.src) + os.sep
    if not os.path.abspath(pilotpath.__file__).startswith(src):
        print(f"pilotpath imported from {pilotpath.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = measure(
        cli.main, WORKLOADS[args.workload], args.scenario, args.seed, args.seconds,
        bool(args.trace), args.work,
    )
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
