#!/usr/bin/env python3
"""Generate a scripted driver session, run the full pipeline, score it.

Example:
    python3 scripts/run_synthetic_session.py --seed 21 --out /tmp/session_demo

Besides the scores, it prints the wall time of the pipeline run, the peak RSS
of this process and of the rpca worker, and numpy's OpenBLAS thread count
after the run. The generator writes one frame at a time, so its own peak stays
below the pipeline's.
"""

import argparse
import ctypes
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

from epkit import cli, fileio

DEFAULT_SCHEDULE = [
    ["safe_driving", 300],
    ["texting_left", 300],
    ["drinking", 300],
    ["talking_on_phone_left", 300],
    ["operating_radio", 300],
]


def openblas_threads():
    """numpy's bundled OpenBLAS thread count, or None where it does not report one."""
    try:
        return ctypes.CDLL(np.linalg._umath_linalg.__file__).scipy_openblas_get_num_threads64_()
    except (AttributeError, OSError):
        return None


def peak_rss_mib(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=21)
    ap.add_argument("--out", required=True)
    ap.add_argument("--flip-fraction", type=float, default=0.1)
    ap.add_argument("--schedule", help="JSON list of [label, duration] pairs")
    args = ap.parse_args()

    out = Path(args.out)
    session = out / "session"
    results = out / "results"
    schedule = json.loads(args.schedule) if args.schedule else DEFAULT_SCHEDULE

    rc = cli.main(
        [
            "synth",
            "--generator",
            "driver_session",
            "--seed",
            str(args.seed),
            "--params",
            json.dumps(
                {"episode_schedule": schedule, "side_flip_fraction": args.flip_fraction}
            ),
            "--out",
            str(session),
        ]
    )
    if rc != 0:
        return rc

    t0 = time.perf_counter()
    rc = cli.main(
        [
            "pipeline",
            "--session",
            str(session),
            "--config",
            str(session / "session_config.json"),
            "--out",
            str(results),
        ]
    )
    if rc != 0:
        return rc
    elapsed = time.perf_counter() - t0

    report = fileio.read_json(results / "report.json")
    truth = fileio.read_json(session / "ground_truth.json")
    true_label = {}
    for ep in truth["schedule"]:
        for f in range(ep["start"], ep["end"]):
            true_label[f] = ep["label"]
    hits = [fr["episode_label"] == true_label[fr["frame"]] for fr in report["frames"]]
    flips = truth["flips"]
    records = fileio.read_jsonl(results / "training_records.jsonl")
    side_fixes = sum(1 for r in records if r["kind"] == "hand_side_label")

    print()
    print(f"frames:               {len(report['frames'])}")
    print(f"pipeline time:        {elapsed:.1f}s")
    print(f"episode accuracy:     {np.mean(hits):.3f}")
    print(f"change points:        {report['stages']['segmentation']['change_points']}")
    print(f"injected side flips:  {len(flips)}")
    print(f"side-label records:   {side_fixes}")
    print(f"rpca warning frames:  {len(report['stages'].get('rpca', {}).get('warning_frames', []))}")
    print(f"peak RSS, this process: {peak_rss_mib(resource.RUSAGE_SELF):.1f} MiB")
    print(f"peak RSS, rpca worker:  {peak_rss_mib(resource.RUSAGE_CHILDREN):.1f} MiB")
    print(f"numpy BLAS threads:     {openblas_threads()}")
    print(f"episodes: {[ (e['label'], e['start'], e['end']) for e in report['stages']['episodes'] ][:8]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
