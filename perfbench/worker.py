"""One measured process of a benchmark run; `run.py` starts one per round.

A worker pays what every epkit CLI invocation pays: a fresh interpreter
imports epkit, loads the workload's config and makes one small warm-up call.
That is its set-up. It then runs one timed round (one pipeline run over the
session, or one set of `rpca.decompose` calls) and checks the outputs
outside the timed region. With ``--traced`` the tracer is installed after
set-up and the spans of the round are written to ``--spans``.

Times are CLOCK_MONOTONIC readings, which are comparable across processes,
so `run.py` measures set-up from the moment it launched the worker. Results
go to the ``--result`` JSON file; stdout carries epkit's own messages.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time

import workloads


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def import_epkit(root: str) -> dict:
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import epkit
    from epkit import cli, config, fileio, fusion, gflasso, numkit, optflow, pipeline, rpca, synth

    if os.path.dirname(os.path.abspath(epkit.__file__)) != os.path.join(src, "epkit"):
        raise ImportError(f"epkit was imported from {epkit.__file__}, not from {src}")
    return {
        "cli": cli, "config": config, "fileio": fileio, "fusion": fusion,
        "gflasso": gflasso, "numkit": numkit, "optflow": optflow,
        "pipeline": pipeline, "rpca": rpca, "synth": synth,
    }


class SessionClient:
    """Runs the pipeline over the generated session and checks the run."""

    def __init__(self, mods: dict, work: str):
        self.mods = mods
        self.work = work
        self.session = os.path.join(work, "session")

    def load_config(self) -> None:
        self.mods["config"].load_config(os.path.join(self.session, "session_config.json"))

    def _run(self, session: str, name: str) -> tuple[dict, str | None]:
        out = os.path.join(self.work, "out", f"{name}-{os.getpid()}")
        op = {"frames": workloads.session_frames(session), "ok": False, "error": None}
        try:
            rc, op["seconds"] = workloads.timed(
                self.mods["cli"].main, workloads.pipeline_argv(session, out))
            if rc != 0:
                op["error"] = f"pipeline exited with {rc}"
                return op, None
            return op, out
        except Exception as exc:  # a raising operation is a failed one
            op["error"] = f"{type(exc).__name__}: {exc}"
            shutil.rmtree(out, ignore_errors=True)
            return op, None

    def warmup(self) -> dict:
        op, out = self._run(os.path.join(self.work, "warmup"), "warmup")
        if out is not None:
            op["ok"] = True
            shutil.rmtree(out, ignore_errors=True)
        return op

    def round(self, index: int) -> list[dict]:
        op, out = self._run(self.session, f"round{index}")
        if out is None:
            return [op]
        try:
            accuracy, discrete = workloads.session_outputs(self.session, out)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        # one gflasso.solve per run, plus one rpca.decompose when frames exist
        op["solves"] = 1 + (discrete["rpca_warning_frames"] is not None)
        op["accuracy"] = accuracy
        op["discrete"] = discrete
        if accuracy < workloads.MIN_LABEL_ACCURACY:
            op["error"] = f"label accuracy {accuracy:.4f} < {workloads.MIN_LABEL_ACCURACY}"
        else:
            op["ok"] = True
        return [op]


class RecoveryClient:
    """Solves seeded low-rank plus sparse instances and checks recovery."""

    def __init__(self, mods: dict, seed: int):
        self.mods = mods
        self.seed = seed

    def load_config(self) -> None:
        cfgmod = self.mods["config"]
        self.cfg = cfgmod.rpca_config(cfgmod.load_config(None))

    def _solve(self, rows: int, cols: int, rank: int, seed: int) -> dict:
        bundle = self.mods["synth"].gen_lowrank_sparse(
            rows, cols, rank, workloads.SPARSE_FRACTION, workloads.MAGNITUDE, seed)
        op = {"frames": cols, "solves": 1, "ok": False, "error": None}
        try:
            result, op["seconds"] = workloads.timed(
                self.mods["rpca"].decompose, bundle.payload["x"], self.cfg)
        except Exception as exc:
            op["error"] = f"{type(exc).__name__}: {exc}"
            return op
        problems, op["accuracy"] = workloads.check_recovery(
            result, bundle.ground_truth["low_rank"], bundle.ground_truth["sparse"])
        op["ok"] = not problems
        if problems:
            op["error"] = f"{rows}x{cols} instance seed {seed}: " + "; ".join(problems)
        return op

    def warmup(self) -> dict:
        return self._solve(*workloads.RPCA_WARMUP, workloads.instance_seed(self.seed, -1, 0))

    def round(self, index: int) -> list[dict]:
        return [self._solve(*inst) for inst in workloads.rpca_instances(self.seed, index)]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--round", type=int, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args()

    mods = import_epkit(args.root)
    t_import = now()
    if args.workload in workloads.SESSIONS:
        client = SessionClient(mods, args.work)
    else:
        client = RecoveryClient(mods, args.seed)
    client.load_config()
    t_config = now()
    warmup = client.warmup()
    t_ready = now()

    result = {"t_import": t_import, "t_config": t_config, "t_ready": t_ready,
              "warmup": warmup, "summary": None}
    if args.traced:
        import spans

        tracer = spans.Tracer(run_id=args.round)
        tracer.install(mods)
        try:
            result["ops"] = client.round(args.round)
        finally:
            tracer.uninstall()
        tracer.write(args.spans, {"workload": args.workload, "seed": args.seed, "round": args.round})
        result["summary"] = spans.summarize(tracer.spans)
    else:
        result["ops"] = client.round(args.round)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
