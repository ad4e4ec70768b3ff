"""Workload inputs, operations and output checks.

Inputs come only from the seed. A session workload runs
``cli.main(["pipeline", ...])`` over one generated session; rpca_recovery
calls ``rpca.decompose`` on seeded low-rank plus sparse instances. The
checks read outputs with the standard library, never through epkit, so a
traced run does not record them.
"""

from __future__ import annotations

import csv
import json
import os
import time

import numpy as np

# criterion-10 label order
LABELS = ["safe_driving", "texting_left", "drinking", "talking_on_phone_left", "operating_radio"]

SESSIONS = {
    # 5 labels x 80 frames: flow grouping and RPCA do almost all the work
    "session_full": {"episodes": 5, "episode_frames": 80, "render": True},
    # the labels cycled 4 times x 300 frames, no frames/: rpca and flow are skipped
    "detections_only": {"episodes": 20, "episode_frames": 300, "render": False},
}
FLIP_FRACTION = 0.1
MIN_LABEL_ACCURACY = 0.90

# one rpca_recovery round: (rows, cols, rank, count); 5% spikes of size 5
RPCA_ROUND = [(768, 600, 24, 1), (200, 200, 10, 12)]
RPCA_WARMUP = (200, 200, 10)  # set-up call: the criterion-1 shape
SPARSE_FRACTION = 0.05
MAGNITUDE = 5.0
RECOVERY_TOL = 1e-4
RESIDUAL_TOL = 1e-7

# detections_only runs by name but is not listed in BENCHMARK.json (see README.md)
WORKLOADS = ("session_full", "detections_only", "rpca_recovery")


def make_session(cli, out: str, seed: int, episodes: int, episode_frames: int, render: bool) -> None:
    schedule = [[LABELS[i % len(LABELS)], episode_frames] for i in range(episodes)]
    params = {"episode_schedule": schedule, "side_flip_fraction": FLIP_FRACTION, "render": render}
    rc = cli.main(["synth", "--generator", "driver_session", "--seed", str(seed),
                   "--params", json.dumps(params), "--out", out])
    if rc != 0:
        raise RuntimeError(f"session generator exited with {rc}")


def make_inputs(cli, workload: str, seed: int, work: str) -> None:
    """Write the session and a tiny warm-up session for *workload*."""
    if workload not in SESSIONS:
        return
    spec = SESSIONS[workload]
    make_session(cli, os.path.join(work, "session"), seed, **spec)
    make_session(cli, os.path.join(work, "warmup"), seed, episodes=5, episode_frames=3,
                 render=spec["render"])


def pipeline_argv(session: str, out: str) -> list[str]:
    return ["pipeline", "--session", session,
            "--config", os.path.join(session, "session_config.json"), "--out", out]


def session_frames(session: str) -> int:
    with open(os.path.join(session, "detections.jsonl"), "rb") as fh:
        return sum(1 for line in fh if line.strip())


def session_outputs(session: str, out: str) -> tuple[float, dict]:
    """Label accuracy against ground truth, and the discrete outputs."""
    with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    with open(os.path.join(session, "ground_truth.json"), encoding="utf-8") as fh:
        truth = json.load(fh)
    true_label = {}
    for ep in truth["schedule"]:
        for f in range(ep["start"], ep["end"]):
            true_label[f] = ep["label"]
    labels = [fr["episode_label"] for fr in report["frames"]]
    hits = sum(fr["episode_label"] == true_label[fr["frame"]] for fr in report["frames"])
    accuracy = hits / len(report["frames"])
    partition = None
    groups_csv = os.path.join(out, "flow_groups.csv")
    if os.path.exists(groups_csv):
        members: dict[str, list] = {}
        with open(groups_csv, newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                members.setdefault(row["group"], []).append((int(row["frame"]), int(row["box"])))
        partition = sorted(sorted(m) for m in members.values())
    discrete = {
        "change_points": report["stages"]["segmentation"]["change_points"],
        "episode_labels": labels,
        "flow_partition": partition,
        "rpca_warning_frames": report["stages"].get("rpca", {}).get("warning_frames"),
    }
    return accuracy, discrete


def instance_seed(seed: int, round_index: int, slot: int) -> int:
    """Seed of one rpca_recovery instance; round -1 is the warm-up."""
    return int(np.random.SeedSequence([seed, round_index + 1, slot]).generate_state(1)[0])


def rpca_instances(seed: int, round_index: int):
    """(rows, cols, rank, instance seed) for each solve of one round."""
    slot = 0
    for rows, cols, rank, count in RPCA_ROUND:
        for _ in range(count):
            yield rows, cols, rank, instance_seed(seed, round_index, slot)
            slot += 1


def check_recovery(result, truth_low: np.ndarray, truth_sparse: np.ndarray) -> tuple[list[str], float]:
    """Recovery errors against the planted parts; share of entries whose
    outlier label (|S| above half the spike size) matches the planted support."""
    problems = []
    low_err = np.linalg.norm(result.low_rank - truth_low) / np.linalg.norm(truth_low)
    sparse_err = np.linalg.norm(result.sparse - truth_sparse) / np.linalg.norm(truth_sparse)
    if not result.converged:
        problems.append("did not converge")
    if not low_err <= RECOVERY_TOL:
        problems.append(f"low-rank error {low_err:.3g} > {RECOVERY_TOL}")
    if not sparse_err <= RECOVERY_TOL:
        problems.append(f"sparse error {sparse_err:.3g} > {RECOVERY_TOL}")
    if not result.final_residual <= RESIDUAL_TOL:
        problems.append(f"residual {result.final_residual:.3g} > {RESIDUAL_TOL}")
    labelled = np.abs(result.sparse) > 0.5 * MAGNITUDE
    accuracy = float(np.mean(labelled == (truth_sparse != 0)))
    return problems, accuracy


def timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0
