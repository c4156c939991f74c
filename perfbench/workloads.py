"""The benchmark's workloads and the correctness check of each.

Every workload is one `pilotpath` CLI command on a bundled scenario, with
the benchmark seed and a size override written into a scenario file of its
own.  The bounds in the checks are the ones `tests/test_acceptance.py` and
the scenario itself hold the engines to; none is loosened here.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Callable

# End-to-end metrics printed by a run with tracing off, with their units.
E2E_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def _read(artifacts: str, name: str) -> dict:
    with open(os.path.join(artifacts, name), encoding="utf-8") as fh:
        return json.load(fh)


def check_verify(artifacts: str) -> list[str]:
    report = _read(artifacts, "verify_report.json")
    if report["passed"] is not True:
        failed = [c["name"] for c in report["checks"] if not (c["passed"] or c["skipped"])]
        return [f"verify_report.json did not pass: {failed}"]
    return []


def check_superdet(artifacts: str) -> list[str]:
    report = _read(artifacts, "superdet_report.json")
    problems = []
    if not report["max_deviation"] < 1e-6:
        problems.append(f"max_deviation {report['max_deviation']!r} is not below 1e-6")
    if report["total_excluded"] != 0:
        problems.append(f"{report['total_excluded']} replays excluded, expected 0")
    return problems


def check_tracks(artifacts: str) -> list[str]:
    report = _read(artifacts, "tracks_report.json")
    problems = []
    if not report["crossings"]["crossing_fraction"] > 0.0:
        problems.append("crossing_fraction is 0 on a recombining scenario")
    if report["joint"]["loop_edges"] != 0:
        problems.append(f"{report['joint']['loop_edges']} joint loop edges, expected 0")
    return problems


def check_guide(artifacts: str) -> list[str]:
    report = _read(artifacts, "guide_summary.json")
    bound = _read(artifacts, "scenario.resolved.json")["protocol"]["equivariance_bound"]
    problems = []
    for particle in ("particle1", "particle2"):
        if not report[particle]["worst_ks"] <= bound:
            problems.append(f"{particle} worst_ks {report[particle]['worst_ks']!r} exceeds {bound!r}")
        if report[particle]["flagged"] != 0:
            problems.append(f"{particle}: {report[particle]['flagged']} trajectories flagged")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    scenario: str
    count: int | None
    check: Callable[[str], list[str]]

    def scenario_file(self, src: str, seed: int, path: str) -> None:
        """Write the bundled scenario with this workload's overrides applied."""
        bundled = os.path.join(src, "pilotpath", "scenarios", f"{self.scenario}.json")
        with open(bundled, encoding="utf-8") as fh:
            raw = json.load(fh)
        raw["seed"] = seed
        if self.count is not None:
            raw["protocol"]["count"] = self.count
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(raw, fh, indent=2, sort_keys=True)

    def argv(self, scenario_path: str, seed: int, out: str) -> list[str]:
        return [self.command, "--scenario", scenario_path, "--seed", str(seed), "--out", out]

    def artifact_dir(self, out: str) -> str:
        return os.path.join(out, self.scenario, self.command)


# Why each workload was chosen is recorded in BENCHMARK.json and notes.md.
# superdet-mirror and guide-export are not in BENCHMARK.json, and stay
# runnable: two workloads leave room for runs long enough to be steady, and
# guide-export fails its check on about 1% of seeds (see notes.md).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-battery", "verify", "free-packet", None, check_verify),
        Workload("superdet-mirror", "superdet", "entangled-mirror", 3000, check_superdet),
        Workload("tracks-crowd", "tracks", "recombination", 20000, check_tracks),
        Workload("guide-export", "guide", "recombination", 10000, check_guide),
    )
}


def artifact_digest(root: str) -> str:
    """One hash over every file below root: relative paths and contents."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for fn in sorted(filenames):
            full = os.path.join(dirpath, fn)
            digest.update(os.path.relpath(full, root).encode() + b"\0")
            with open(full, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    digest.update(block)
            digest.update(b"\0")
    return digest.hexdigest()
