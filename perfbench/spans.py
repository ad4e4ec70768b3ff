"""In-memory spans around epkit's public functions, recorded from outside.

`Tracer.install` replaces module attributes (``epkit.rpca.decompose`` and so
on) with timing wrappers and `Tracer.uninstall` puts the originals back.
epkit calls across modules through module attributes (``rpca.decompose``,
``numkit.svd``, ``optflow.lk_flow``), so the wrappers see every call the
pipeline makes without any change to the package.

A span is ``[name, start, end, parent, run_id, counters]``: ``parent`` is the
index of the enclosing span (-1 at the top), ``run_id`` the operation the span
belongs to and ``counters`` a dict of counts taken from the call's arguments
and result. Self time is a span's duration minus its children's durations;
calls are single-threaded and nested, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import os
import time

def _lk_counts(result, args, kwargs):
    return {"points": len(result), "valid": sum(1 for f in result if f.valid)}


def _write_counts(result, args, kwargs):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _rpca_counts(result, args, kwargs):
    return {
        "iterations": result.iterations,
        "rank": int((result.singular_values > 1e-6).sum()),
    }


def _group_box_counts(result, args, kwargs):
    boxes_per_frame = args[1]
    cfg = args[3] if len(args) > 3 else kwargs.get("cfg")
    gap_max = cfg.gap_max if cfg is not None else 2
    n = len(boxes_per_frame)
    pairs = 0
    for t in range(n):
        for k in range(1, gap_max + 2):
            if t + k < n:
                pairs += len(boxes_per_frame[t]) * len(boxes_per_frame[t + k])
    return {"pairs": pairs}


def _relabel_counts(result, args, kwargs):
    return {"records": len(result[1])}


def _pose_correction_counts(result, args, kwargs):
    return {"records": len(result)}


# layer -> [(module attribute, counter hook or None)]. A hook gets
# (result, args, kwargs) and returns a dict of counts for the span.
WRAPPED = {
    "cli": [("main", None)],
    "config": [("load_config", None)],
    "pipeline": [
        ("run_pipeline", None),
        ("run_rpca_stage", None),
        ("run_segmentation_stage", None),
        ("run_flow_stage", None),
        ("run_fusion_stage", None),
        ("run_episode_stage", None),
    ],
    "fileio": [
        ("read_detections", None),
        ("read_pgm", None),
        ("write_matrix", _write_counts),
        ("write_json", _write_counts),
        ("write_jsonl", _write_counts),
        ("write_csv", _write_counts),
    ],
    "rpca": [("decompose", _rpca_counts)],
    "numkit": [("svd", None), ("spectral_norm_estimate", None)],
    "gflasso": [
        ("solve", lambda r, a, k: {"iterations": r.iterations}),
        ("extract_change_points", None),
    ],
    "optflow": [
        ("group_boxes", _group_box_counts),
        ("merge_groups", lambda r, a, k: {"groups": len(r)}),
        ("lk_flow", _lk_counts),
        ("good_features", None),
        ("canonical_crop", None),
    ],
    "fusion": [
        ("evaluate_safe_driving", None),
        ("relabel_hands", _relabel_counts),
        ("emit_pose_corrections", _pose_correction_counts),
        ("temporal_verdict", None),
        ("classify_episode", None),
    ],
}


class Tracer:
    """Records spans for calls into the wrapped epkit functions."""

    def __init__(self, run_id: int = 0):
        self.spans: list[list] = []
        self.run_id = run_id
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self, epkit_modules: dict) -> None:
        for layer, entries in WRAPPED.items():
            module = epkit_modules[layer]
            for attr, hook in entries:
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(f"{layer}.{attr}", original, hook))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn, hook):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                span[5] = hook(result, args, kwargs)
            return result

        return traced

    def write(self, path: str, header: dict) -> None:
        """Write the header and one JSON line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for i, (name, start, end, parent, run_id, counters) in enumerate(self.spans):
                rec = {"id": i, "name": name, "start": start, "end": end,
                       "parent": parent, "run": run_id}
                if counters:
                    rec["counters"] = counters
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _add(out: dict, name: str, calls: int, total_s: float, self_s: float, counters: dict) -> None:
    s = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counters": {}})
    s["calls"] += calls
    s["total_s"] += total_s
    s["self_s"] += self_s
    for key, value in counters.items():
        s["counters"][key] = s["counters"].get(key, 0) + value


def summarize(spans: list[list]) -> dict:
    """Per span name: calls, total and self seconds, summed counters."""
    child_time = [0.0] * len(spans)
    for _name, start, end, parent, _run, _c in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, _parent, _run, counters) in enumerate(spans):
        _add(out, name, 1, end - start, end - start - child_time[i], counters or {})
    return out


def merge(summaries: list[dict]) -> dict:
    """Add up the summaries of several processes."""
    out: dict[str, dict] = {}
    for summary in summaries:
        for name, s in summary.items():
            _add(out, name, s["calls"], s["total_s"], s["self_s"], s["counters"])
    return out


def layer_metrics(summary: dict, ops: int) -> dict:
    """The per-layer metrics, each a mean per operation."""

    def get(name):
        return summary.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counters": {}})

    def total(name):
        return get(name)["total_s"] / ops

    def self_s(name):
        return get(name)["self_s"] / ops

    def calls(name):
        return get(name)["calls"] / ops

    def counter(name, key):
        return get(name)["counters"].get(key, 0) / ops

    def layer_self(layer):
        return sum(v["self_s"] for k, v in summary.items() if k.startswith(layer + ".")) / ops

    writes = [f"fileio.{w}" for w in ("write_matrix", "write_json", "write_jsonl", "write_csv")]
    lk_points = counter("optflow.lk_flow", "points")
    decomposes = calls("rpca.decompose")
    m = {
        "cli.self_s": (layer_self("cli"), "s"),
        "config.load_config_s": (total("config.load_config"), "s"),
        "pipeline.self_s": (layer_self("pipeline"), "s"),
        "pipeline.rpca_stage_s": (total("pipeline.run_rpca_stage"), "s"),
        "pipeline.segmentation_stage_s": (total("pipeline.run_segmentation_stage"), "s"),
        "pipeline.flow_stage_s": (total("pipeline.run_flow_stage"), "s"),
        "pipeline.fusion_stage_s": (total("pipeline.run_fusion_stage"), "s"),
        "pipeline.episode_stage_s": (total("pipeline.run_episode_stage"), "s"),
        "fileio.read_detections_s": (total("fileio.read_detections"), "s"),
        "fileio.read_pgm_s": (total("fileio.read_pgm"), "s"),
        "fileio.read_pgm_calls": (calls("fileio.read_pgm"), "count"),
        "fileio.write_s": (sum(total(w) for w in writes), "s"),
        "fileio.bytes_written": (sum(counter(w, "bytes") for w in writes), "B"),
        "rpca.decompose_calls": (decomposes, "count"),
        "rpca.decompose_s": (total("rpca.decompose"), "s"),
        "rpca.decompose_self_s": (self_s("rpca.decompose"), "s"),
        "rpca.iterations": (counter("rpca.decompose", "iterations"), "count"),
        "rpca.rank": (counter("rpca.decompose", "rank") / decomposes if decomposes else 0.0, "count"),
        "numkit.svd_calls": (calls("numkit.svd"), "count"),
        "numkit.svd_s": (total("numkit.svd"), "s"),
        "numkit.spectral_norm_s": (total("numkit.spectral_norm_estimate"), "s"),
        "gflasso.solve_s": (total("gflasso.solve"), "s"),
        "gflasso.iterations": (counter("gflasso.solve", "iterations"), "count"),
        "gflasso.extract_change_points_s": (total("gflasso.extract_change_points"), "s"),
        "optflow.group_boxes_s": (total("optflow.group_boxes"), "s"),
        "optflow.group_boxes_self_s": (self_s("optflow.group_boxes"), "s"),
        "optflow.merge_groups_s": (total("optflow.merge_groups"), "s"),
        "optflow.box_pairs": (counter("optflow.group_boxes", "pairs"), "count"),
        "optflow.lk_flow_calls": (calls("optflow.lk_flow"), "count"),
        "optflow.lk_flow_s": (total("optflow.lk_flow"), "s"),
        "optflow.lk_points": (lk_points, "count"),
        "optflow.lk_valid_ratio": (
            counter("optflow.lk_flow", "valid") / lk_points if lk_points else 0.0, "ratio"),
        "optflow.good_features_calls": (calls("optflow.good_features"), "count"),
        "optflow.good_features_s": (total("optflow.good_features"), "s"),
        "optflow.canonical_crop_calls": (calls("optflow.canonical_crop"), "count"),
        "optflow.canonical_crop_s": (total("optflow.canonical_crop"), "s"),
        "optflow.groups": (counter("optflow.merge_groups", "groups"), "count"),
        "fusion.evaluate_safe_driving_s": (total("fusion.evaluate_safe_driving"), "s"),
        "fusion.relabel_hands_s": (total("fusion.relabel_hands"), "s"),
        "fusion.temporal_verdict_s": (total("fusion.temporal_verdict"), "s"),
        "fusion.classify_episode_s": (total("fusion.classify_episode"), "s"),
        "fusion.records": (
            counter("fusion.relabel_hands", "records")
            + counter("fusion.emit_pose_corrections", "records"), "count"),
    }
    run_s = total("cli.main")
    for stage in ("flow", "rpca"):
        share = total(f"pipeline.run_{stage}_stage") / run_s if run_s else 0.0
        m[f"pipeline.{stage}_share"] = (share, "ratio")
    return m
