"""Time the trajectory-transport kernel on one synthetic workload.

Batch transport of trajectory ensembles through layered velocity tables is
done by kernels.transport.  This script builds a drift field with a thin
band of node-masked sites, transports a uniform ensemble through it, and
reports the best wall time over a few repeats, the throughput in
M substeps/s (trajectories x layers x substeps per second) and the
fraction of trajectories that froze on a masked node.  A frozen
trajectory still counts every substep but moves no more, so the
throughput figure is only as meaningful as that fraction is small.

Run:  python3 benchmarks/bench_transport.py [--count N] [--substeps K]
"""

import argparse
import time

import numpy as np

from pilotpath import kernels


def synth_tables(n_layers: int, n_sites: int):
    """Layered drift field with a node-masked band of two sites at mid-ring,
    no engine needed."""
    x = np.arange(n_sites) / n_sites
    t = np.arange(n_layers + 1)[:, None] / max(n_layers, 1)
    values = 0.8 * np.sin(2.0 * np.pi * (x[None, :] + 0.07 * t)) + 0.1
    masks = np.zeros(values.shape, dtype=bool)
    masks[:, n_sites // 2 : n_sites // 2 + 2] = True
    values[masks] = 0.0
    return values, masks


def _ignore(first, block, frozen):
    """A fold that reads nothing: only the transport is timed."""


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=200_000, help="trajectories")
    ap.add_argument("--layers", type=int, default=40)
    ap.add_argument("--sites", type=int, default=128)
    ap.add_argument("--substeps", type=int, default=4)
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()

    values, masks = synth_tables(args.layers, args.sites)
    rng = np.random.default_rng(7)
    x0 = rng.uniform(0.0, float(args.sites), args.count)
    steps = args.count * args.layers * args.substeps

    print(f"workload: {args.count} trajectories x {args.layers} layers x {args.substeps} substeps")
    best = np.inf
    for _ in range(args.repeats):
        start = time.perf_counter()
        _, frozen = kernels.transport(
            values, masks, x0, 0.0, 1.0, True, 0.5, args.substeps, True, _ignore
        )
        best = min(best, time.perf_counter() - start)
    n_frozen = int((frozen >= 0).sum())
    print(f"transport: {best:8.3f} s  ({steps / best / 1e6:7.1f} M substeps/s)")
    print(f"frozen:    {n_frozen} of {args.count} trajectories ({n_frozen / args.count:.1%})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
