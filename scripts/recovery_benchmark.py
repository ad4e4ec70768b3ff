#!/usr/bin/env python3
"""Sweep low-rank + sparse recovery across corruption levels.

Prints per-setting recovery error and timing for the default solver
configuration, flagging settings where exact recovery breaks down; exits 1
if any setting breaks down.

Example:
    python3 scripts/recovery_benchmark.py --size 200 --rank 10 --seeds 5
    python3 scripts/recovery_benchmark.py --size 768 --cols 600 --rank 24 --fractions 0.05
"""

import argparse
import sys
import time

import numpy as np

from epkit import rpca, synth


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--size", type=int, default=200, help="rows (and columns unless --cols)")
    ap.add_argument("--cols", type=int, help="columns (default: --size)")
    ap.add_argument("--rank", type=int, default=10)
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument(
        "--fractions", type=float, nargs="+", default=[0.01, 0.05, 0.1, 0.2, 0.3]
    )
    args = ap.parse_args()
    cols = args.size if args.cols is None else args.cols

    broke_down = False
    print(f"{'fraction':>9} {'low-rank err':>13} {'sparse err':>11} {'max iters':>9} {'iters/solve':>11} {'time':>7}")
    for frac in args.fractions:
        errs_l, errs_s, iters, times = [], [], [], []
        for seed in range(args.seeds):
            b = synth.gen_lowrank_sparse(args.size, cols, args.rank, frac, 5.0, seed)
            t0 = time.perf_counter()
            r = rpca.decompose(b.payload["x"])
            times.append(time.perf_counter() - t0)
            low, sp = b.ground_truth["low_rank"], b.ground_truth["sparse"]
            errs_l.append(np.linalg.norm(r.low_rank - low) / np.linalg.norm(low))
            errs_s.append(np.linalg.norm(r.sparse - sp) / np.linalg.norm(sp))
            iters.append(r.iterations)
        flag = "" if max(errs_l) <= 1e-4 and max(errs_s) <= 1e-4 else "  <- breakdown"
        broke_down = broke_down or bool(flag)
        print(
            f"{frac:>9.2f} {max(errs_l):>13.2e} {max(errs_s):>11.2e} "
            f"{max(iters):>9d} {np.mean(iters):>11.1f} {sum(times):>6.1f}s{flag}"
        )
    return 1 if broke_down else 0


if __name__ == "__main__":
    sys.exit(main())
