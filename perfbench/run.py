#!/usr/bin/env python3
"""epkit benchmark: one run of one workload.

    python3 perfbench/run.py --workload session_full --seed 1 --seconds 30 --trace 0

Run it from a checkout; epkit is imported from the checkout's ``src/``
(nothing is installed). The run generates its inputs from the seed under
``.perfbench_work/``, then acts as one closed-loop client: it starts one
worker process per round, the next when the previous has ended, until
``--seconds`` are spent. Each worker is a fresh interpreter that sets up as
an epkit CLI invocation does and then runs one timed round.

The last stdout line is the JSON result: the end-to-end metrics with
``--trace 0``; with ``--trace 1`` workers alternate untraced and traced
rounds and the result holds the per-layer metrics. The line before it
records the machine. Metric names and units must match BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
DEADLINE_S = 170.0  # a run must end within 180 s


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def machine_info() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "affinity_count": len(os.sched_getaffinity(0)),
        "threads_env": {k: os.environ.get(k) for k in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def run_worker(argv: list[str], result: str, deadline: float) -> dict:
    """Run one worker to completion and return its result, with the launch time."""
    t_launch = now()
    proc = subprocess.run([sys.executable, WORKER, *argv, "--result", result], cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - now()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-4000:])
        raise RuntimeError(f"worker exited with {proc.returncode}")
    with open(result, encoding="utf-8") as fh:
        out = json.load(fh)
    out["t_launch"] = t_launch
    return out


def run_rounds(common: list[str], work: str, traces: str | None, seconds: float,
               deadline: float) -> list[dict]:
    """Start workers one after another until `seconds` have passed. With
    tracing, odd rounds are traced and at least one round of each kind runs."""
    workers = []
    start = now()
    index = 0
    while True:
        argv = [*common, "--round", str(index)]
        traced = traces is not None and index % 2 == 1
        if traced:
            argv += ["--traced", "--spans", os.path.join(traces, f"round{index}.jsonl")]
        worker = run_worker(argv, os.path.join(work, f"round{index}.json"), deadline)
        worker["traced"] = traced
        workers.append(worker)
        index += 1
        if now() - start >= seconds and (traces is None or index >= 2):
            return workers


def check_repeatable(workers: list[dict]) -> None:
    """Fail any session run whose discrete outputs differ from the first run's."""
    reference = None
    for w in workers:
        for op in w["ops"]:
            if "discrete" not in op:
                continue
            if reference is None:
                reference = op["discrete"]
            differs = [k for k in reference if op["discrete"][k] != reference[k]]
            if differs and op["ok"]:
                op["ok"] = False
                op["error"] = f"outputs differ from the first run: {', '.join(differs)}"


def rate(workers: list[dict], key: str) -> float:
    """Median over rounds of `key` (frames or solves) per second of operation time."""
    values = []
    for w in workers:
        if all("seconds" in op and op["ok"] for op in w["ops"]):
            values.append(sum(op[key] for op in w["ops"]) / sum(op["seconds"] for op in w["ops"]))
    return statistics.median(values) if values else 0.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = now() + DEADLINE_S

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "epkit", "__init__.py")):
        print(f"error: no epkit sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    seed = args.seed % 2**32
    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-seed{seed}-{os.getpid()}")
    traces = None
    if args.trace:
        traces = os.path.join(ROOT, ".perfbench_work", "traces", f"{args.workload}-seed{seed}")
        shutil.rmtree(traces, ignore_errors=True)
        os.makedirs(traces)
    os.makedirs(work)
    try:
        from epkit import cli

        workloads.make_inputs(cli, args.workload, seed, work)
        common = ["--root", ROOT, "--workload", args.workload, "--seed", str(seed), "--work", work]
        workers = run_rounds(common, work, traces, args.seconds, deadline)
    except (OSError, RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    check_repeatable(workers)
    ops = [w["warmup"] for w in workers] + [op for w in workers for op in w["ops"]]
    failed = [op for op in ops if not op["ok"]]
    for op in failed:
        print(f"failed operation: {op['error']}", file=sys.stderr)
    setup = [w["t_ready"] - w["t_launch"] for w in workers]
    untraced = [w for w in workers if not w["traced"]]
    measured = [op for w in workers for op in w["ops"] if "accuracy" in op]

    if args.trace:
        import spans

        traced = [w for w in workers if w["traced"]]
        n_ops = sum(len(w["ops"]) for w in traced)
        layers = spans.layer_metrics(spans.merge([w["summary"] for w in traced]), n_ops)
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
        phases = {"import_s": ("t_launch", "t_import"), "config_s": ("t_import", "t_config"),
                  "first_call_s": ("t_config", "t_ready")}
        for name, (a, b) in phases.items():
            metrics[f"setup.{name}"] = {"value": statistics.median(w[b] - w[a] for w in workers),
                                        "unit": "s"}
        for key in ("frames", "solves"):
            base = rate(untraced, key)
            metrics[f"trace.untraced_{key}_per_s"] = {"value": base, "unit": f"{key}/s"}
            metrics[f"trace.overhead_{key}_per_s"] = {"value": rate(traced, key) - base,
                                                      "unit": f"{key}/s"}
        print(f"# spans written to {traces}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "frames_per_s": {"value": rate(untraced, "frames"), "unit": "frames/s"},
            "solves_per_s": {"value": rate(untraced, "solves"), "unit": "solves/s"},
            "peak_rss_mb": {"value": statistics.median(w["peak_rss_mb"] for w in untraced),
                            "unit": "MiB"},
            "label_accuracy": {"value": statistics.fmean(op["accuracy"] for op in measured)
                               if measured else 0.0, "unit": "ratio"},
        }

    want = {m["name"]: m["unit"] for m in declared}
    have = {name: m["unit"] for name, m in metrics.items()}
    if want != have:
        print(f"error: metrics do not match BENCHMARK.json: missing {sorted(set(want) - set(have))},"
              f" extra {sorted(set(have) - set(want))}", file=sys.stderr)
        return 1

    print(f"# {args.workload} seed {seed}: {len(workers)} rounds, setup_s "
          f"{[round(s, 4) for s in setup]}, round seconds "
          f"{[round(sum(op.get('seconds', 0) for op in w['ops']), 3) for w in workers]}")
    print(json.dumps({"machine": machine_info()}, sort_keys=True))
    print(json.dumps({"correct": not failed, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
