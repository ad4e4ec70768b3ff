"""Rule-based combination of pose and hand-detector streams.

The engine scores each frame against an ordered rule list:

  1. the pose estimate is confident (mean arm-joint score);
  2. at least two hands are detected with sufficient score;
  3. each confident wrist lies close to an edge of some hand box;
  4. the elbow-to-wrist direction points at the center of that box;
  5. both associated hand boxes sit inside the steering-wheel region;
  6. (strict) the associated hand scores clear a higher bar;
  7. (strict) the wrist-to-edge distances clear a tighter bar.

Rules 1-5 passing means "safe driving"; 1-7 the strict variant. When
exactly one scored hand is on the wheel, the pose side of its wrist is
trusted over the detector side, mislabels are corrected, and every change
is exported as a training record with the justifying rule trace. Episode
labels are assigned per temporal segment from a data-driven predicate
table; the predicates read the same per-frame verdicts, so each frame's
rules are evaluated once. Predicates declare their parameters, with their
defaults, as keyword arguments; a rule table naming an unknown predicate or
parameter, or giving a parameter a bad value, is rejected when it is built.

Coordinates are normalized to [0, 1] by image size; distances are measured
in units of the image diagonal.
"""

from __future__ import annotations

import inspect
import math
import sys
from dataclasses import dataclass, field, replace
from typing import Sequence

ARM_JOINTS = ("r_shoulder", "r_elbow", "r_wrist", "l_shoulder", "l_elbow", "l_wrist")
_DIAG = math.sqrt(2.0)
_FLOAT_MAX = sys.float_info.max


@dataclass(frozen=True)
class PoseFrame:
    frame_index: int
    joints: dict[str, tuple[float, float, float]]  # name -> (x, y, score)


class _Boxed:
    @property
    def center(self) -> tuple[float, float]:  # of the detection's box (x0, y0, x1, y1)
        x0, y0, x1, y1 = self.box
        return (0.5 * (x0 + x1), 0.5 * (y0 + y1))


@dataclass(frozen=True)
class HandDetection(_Boxed):
    box: tuple[float, float, float, float]  # x0, y0, x1, y1
    score: float
    side: str = "unknown"  # left | right | unknown
    side_score: float = 0.0

    def __post_init__(self):
        check_box("hand box", self.box)
        if self.side not in ("left", "right", "unknown"):
            raise ValueError(f"bad side {self.side!r}")


@dataclass(frozen=True)
class ObjectDetection(_Boxed):
    label: str
    box: tuple[float, float, float, float]
    score: float

    def __post_init__(self):
        check_box("object box", self.box)


@dataclass
class FusionConfig:
    """Thresholds for the rule engine; all geometric values are normalized.

    wheel_region is a box [x0, y0, x1, y1], a polygon [[x, y], ...] or None, which
    fuse and pipeline refuse. consistency_frames=None derives ceil(frame_rate / 2).
    """

    wheel_region: Sequence | None = None
    pose_score_min: float = 0.5
    hand_score_min: float = 0.5
    hand_score_strict: float = 0.8
    wrist_edge_dist_max: float = 0.05
    wrist_edge_dist_strict: float = 0.02
    elbow_angle_max_deg: float = 45.0
    frame_rate: float = 10.0
    consistency_frames: int | None = field(default=None, metadata={"number_rule": 1})

    def __post_init__(self):
        if self.hand_score_strict < self.hand_score_min:
            raise ValueError("hand_score_strict must be at least hand_score_min")
        if self.wrist_edge_dist_strict > self.wrist_edge_dist_max:
            raise ValueError("wrist_edge_dist_strict must not exceed wrist_edge_dist_max")
        if self.frame_rate <= 0:
            raise ValueError("frame_rate must be positive")
        k = self.consistency_frames
        if k is not None and k < 1:
            raise ValueError(f"consistency_frames must be at least 1, got {k!r}")
        if self.wheel_region is not None:
            check_region("wheel_region", self.wheel_region)

    def resolved_consistency_frames(self) -> int:
        if self.consistency_frames is not None:
            return self.consistency_frames
        return max(1, math.ceil(self.frame_rate / 2.0))


@dataclass(frozen=True)
class RuleResult:
    rule: int
    passed: bool
    value: float | None
    detail: str


@dataclass
class RuleVerdict:
    frame_index: int
    rule_results: list[RuleResult]
    safe_driving: bool
    strict_safe_driving: bool
    associations: dict[str, int]  # wrist name -> hand index
    on_wheel: list[int] = field(default_factory=list)  # scored hands whose center is in the wheel region
    relabels: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    stabilized_safe_driving: bool | None = None

    def passed_rules(self) -> list[int]:
        return [r.rule for r in self.rule_results if r.passed]


@dataclass(frozen=True)
class WristAssociation:
    wrist: str
    hand_index: int
    distance: float  # wrist-to-edge distance in diagonal units
    angle_deg: float | None
    angle_waived: bool


@dataclass
class TrainingRecord:
    frame_index: int
    kind: str  # hand_side_label | pose_correction
    payload: dict
    provenance: dict

    def __post_init__(self):
        if self.kind not in ("hand_side_label", "pose_correction"):
            raise ValueError(f"bad record kind {self.kind!r}")
        if not self.provenance.get("rules"):
            raise ValueError("training record requires a justifying rule trace")


def is_number(v) -> bool:
    """The number rule of readers and settings: an int or a float, not a bool, NaN or beyond +-float max."""
    return type(v) in (int, float) and -_FLOAT_MAX <= v <= _FLOAT_MAX


def check_number(name: str, value, default, error=ValueError) -> None:
    """Raise *error* if *value* breaks the number rule of a setting whose default is *default*.

    An int default takes integers, a float default what is_number accepts,
    and bool is neither; other defaults carry no number rule. config applies
    it to every setting, EpisodeRule to every predicate parameter.
    """
    if type(default) is int and type(value) is not int:
        raise error(f"{name} must be an integer, got {value!r}")
    if type(default) is float and not is_number(value):
        raise error(f"{name} must be {'finite' if type(value) in (int, float) else 'a number'}, got {value!r:.30}")


def check_box(name: str, box) -> None:
    """Raise ValueError naming *name* unless the box (x0, y0, x1, y1) has x0 < x1 and y0 < y1."""
    x0, y0, x1, y1 = box
    if not (x1 > x0 and y1 > y0):
        raise ValueError(f"{name} needs x0 < x1 and y0 < y1, got {box!r}")


def region_contains(region: Sequence, point: tuple[float, float]) -> bool:
    """Point-in-region test for a flat box [x0,y0,x1,y1] or a polygon."""
    x, y = point
    flat = list(region)
    if len(flat) == 4 and all(isinstance(c, (int, float)) for c in flat):
        x0, y0, x1, y1 = flat
        return x0 <= x <= x1 and y0 <= y <= y1
    pts = [(float(px), float(py)) for px, py in flat]
    if len(pts) < 3:
        raise ValueError("polygon region needs at least 3 vertices")
    inside = False
    j = len(pts) - 1
    for i in range(len(pts)):
        xi, yi = pts[i]
        xj, yj = pts[j]
        if (yi > y) != (yj > y) and x < (xj - xi) * (y - yi) / (yj - yi) + xi:
            inside = not inside
        j = i
    return inside


def check_region(name: str, region) -> None:
    """Raise ValueError naming *name* unless *region* is a box that check_box takes or a polygon, of numbers."""
    try:
        region_contains(region, (0.0, 0.0))
        for p in region:
            for c in p if isinstance(p, (list, tuple)) else [p]:
                check_number(name, c, 0.0)
        if not isinstance(region[0], (list, tuple)):  # the 4-number box form
            check_box(name, region)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be [x0, y0, x1, y1] with x0 < x1 and y0 < y1, or [[x, y], ...], "
                         f"of finite numbers, got {region!r}") from None


def edge_distance(point: tuple[float, float], box: Sequence) -> float:
    """Unsigned distance from a point to the box boundary, in diagonal units."""
    x, y = point
    x0, y0, x1, y1 = (float(c) for c in box)
    if x0 <= x <= x1 and y0 <= y <= y1:
        d = min(x - x0, x1 - x, y - y0, y1 - y)
    else:
        dx = max(x0 - x, 0.0, x - x1)
        dy = max(y0 - y, 0.0, y - y1)
        d = math.hypot(dx, dy)
    return d / _DIAG


def _angle_deg(u: tuple[float, float], v: tuple[float, float]) -> float:
    nu = math.hypot(*u)
    nv = math.hypot(*v)
    if nu < 1e-12 or nv < 1e-12:
        return 0.0
    c = (u[0] * v[0] + u[1] * v[1]) / (nu * nv)
    return math.degrees(math.acos(max(-1.0, min(1.0, c))))


_WRIST_SPECS = (("l_wrist", "l_elbow", "left"), ("r_wrist", "r_elbow", "right"))


def _associate(pose: PoseFrame, hands, cfg: FusionConfig, enforce_angle: bool) -> list[WristAssociation]:
    """Greedy wrist-to-hand-box assignment.

    A confident wrist is a candidate for a box when it lies within
    wrist_edge_dist_max of the box boundary and, with enforce_angle (unless
    its elbow is unscored, which waives the check), the elbow-to-wrist
    direction points at the box center within elbow_angle_max_deg. Smallest
    distance assigns first; each box is used at most once.
    """
    candidates = []
    for wrist_name, elbow_name, _side in _WRIST_SPECS:
        wj = pose.joints.get(wrist_name)
        if wj is None or wj[2] < cfg.pose_score_min:
            continue
        ej = pose.joints.get(elbow_name)
        elbow_ok = ej is not None and ej[2] >= cfg.pose_score_min
        for idx, hand in enumerate(hands):
            dist = edge_distance((wj[0], wj[1]), hand.box)
            if dist > cfg.wrist_edge_dist_max:
                continue
            angle: float | None = None
            waived = not elbow_ok
            if elbow_ok:
                cx, cy = hand.center
                angle = _angle_deg(
                    (wj[0] - ej[0], wj[1] - ej[1]), (cx - wj[0], cy - wj[1])
                )
                if enforce_angle and angle > cfg.elbow_angle_max_deg:
                    continue
            candidates.append((dist, wrist_name, idx, angle, waived))

    candidates.sort(key=lambda c: (c[0], c[1], c[2]))
    taken_wrists: set[str] = set()
    taken_hands: set[int] = set()
    out: list[WristAssociation] = []
    for dist, wrist_name, idx, angle, waived in candidates:
        if wrist_name in taken_wrists or idx in taken_hands:
            continue
        taken_wrists.add(wrist_name)
        taken_hands.add(idx)
        out.append(WristAssociation(wrist_name, idx, dist, angle, waived))
    out.sort(key=lambda a: a.wrist)
    return out


def evaluate_safe_driving(pose: PoseFrame, hands, cfg: FusionConfig) -> RuleVerdict:
    """Score one frame against rules 1-7; never raises on missing data."""
    results: list[RuleResult] = []
    notes: list[str] = []

    arm_scores = [pose.joints.get(j, (0.0, 0.0, 0.0))[2] for j in ARM_JOINTS]
    mean_score = sum(arm_scores) / len(arm_scores)
    results.append(
        RuleResult(1, mean_score >= cfg.pose_score_min, mean_score, "mean arm joint score")
    )

    n_scored = sum(1 for h in hands if h.score >= cfg.hand_score_min)
    results.append(RuleResult(2, n_scored >= 2, float(n_scored), "scored hand count"))
    if n_scored < 2:
        notes.append(f"rule 2: only {n_scored} hand(s) with score >= {cfg.hand_score_min}")

    edge_assoc = _associate(pose, hands, cfg, enforce_angle=False)
    full_assoc = _associate(pose, hands, cfg, enforce_angle=True)
    edge_by_wrist = {a.wrist: a for a in edge_assoc}
    full_by_wrist = {a.wrist: a for a in full_assoc}

    both_edges = all(w in edge_by_wrist for w in ("l_wrist", "r_wrist"))
    edge_val = (
        max(a.distance for a in edge_assoc) if both_edges and edge_assoc else None
    )
    results.append(RuleResult(3, both_edges, edge_val, "max wrist-to-edge distance"))
    if not both_edges:
        missing = [w for w, _, _ in _WRIST_SPECS if w not in edge_by_wrist]
        notes.append(f"rule 3: no close hand box for {', '.join(missing)}")

    both_full = all(w in full_by_wrist for w in ("l_wrist", "r_wrist"))
    angles = [a.angle_deg for a in full_assoc if a.angle_deg is not None]
    results.append(
        RuleResult(4, both_full, max(angles) if both_full and angles else None, "max arm-to-box angle")
    )

    in_wheel = [region_contains(cfg.wheel_region, h.center) for h in hands]
    both_in = both_full and all(in_wheel[a.hand_index] for a in full_assoc)
    results.append(
        RuleResult(5, both_in, float(both_in) if both_full else None, "both hands in wheel region")
    )
    if both_full and not both_in:
        off = [a.wrist for a in full_assoc if not in_wheel[a.hand_index]]
        notes.append(f"rule 5: hand for {', '.join(off)} outside wheel region")

    scores_ok = both_full and all(
        hands[a.hand_index].score >= cfg.hand_score_strict for a in full_assoc
    )
    min_assoc_score = (
        min(hands[a.hand_index].score for a in full_assoc) if both_full and full_assoc else None
    )
    results.append(RuleResult(6, scores_ok, min_assoc_score, "min associated hand score"))

    tight = both_full and all(a.distance <= cfg.wrist_edge_dist_strict for a in full_assoc)
    max_dist = max((a.distance for a in full_assoc), default=None) if both_full else None
    results.append(RuleResult(7, tight, max_dist, "max associated wrist-to-edge distance"))

    safe = all(r.passed for r in results[:5])
    strict = safe and all(r.passed for r in results[5:])
    return RuleVerdict(
        frame_index=pose.frame_index,
        rule_results=results,
        safe_driving=safe,
        strict_safe_driving=strict,
        associations={a.wrist: a.hand_index for a in full_assoc},
        on_wheel=[i for i, h in enumerate(hands) if in_wheel[i] and h.score >= cfg.hand_score_min],
        notes=notes,
    )


def _opposite(side: str) -> str:
    return "left" if side == "right" else "right"


def _wrist_side(wrist: str) -> str:
    return "left" if wrist.startswith("l_") else "right"


def relabel_hands(
    pose: PoseFrame,
    hands,
    verdict: RuleVerdict,
) -> tuple[list[HandDetection], list[TrainingRecord]]:
    """Correct left/right hand labels using the pose as the side authority.

    Applies only when exactly one scored hand sits in the wheel region
    (verdict.on_wheel) and is associated to a confident wrist with rules 1,
    3 and 4 holding for that wrist: the on-wheel hand takes the wrist's
    side, and any other associated hand sharing that side flips to the
    opposite one. Each change yields a hand_side_label training record.
    Idempotent. *verdict* is the frame's evaluate_safe_driving result;
    relabels and skip reasons are appended to it.
    """
    corrected = list(hands)
    records: list[TrainingRecord] = []

    on_wheel = verdict.on_wheel
    if len(on_wheel) != 1:
        verdict.notes.append(f"relabel skipped: {len(on_wheel)} scored hand(s) in wheel region")
        return corrected, records

    rule1 = any(r.rule == 1 and r.passed for r in verdict.rule_results)
    if not rule1:
        verdict.notes.append("relabel skipped: pose confidence (rule 1) failed")
        return corrected, records

    wheel_idx = on_wheel[0]
    wheel_wrist = next((w for w, i in verdict.associations.items() if i == wheel_idx), None)
    if wheel_wrist is None:
        verdict.notes.append("relabel skipped: on-wheel hand not associated to a wrist")
        return corrected, records

    wheel_side = _wrist_side(wheel_wrist)
    provenance = {
        "frame": pose.frame_index,
        "rules": verdict.passed_rules(),
        "on_wheel_wrist": wheel_wrist,
        "values": {
            str(r.rule): r.value for r in verdict.rule_results if r.passed and r.value is not None
        },
    }

    def relabel(idx: int, new_side: str, reason: str):
        old = corrected[idx]
        corrected[idx] = replace(old, side=new_side)
        change = {
            "hand_index": idx,
            "box": list(old.box),
            "old_side": old.side,
            "new_side": new_side,
            "reason": reason,
        }
        verdict.relabels.append(change)
        records.append(
            TrainingRecord(
                frame_index=pose.frame_index,
                kind="hand_side_label",
                payload=change,
                provenance=provenance,
            )
        )

    if corrected[wheel_idx].side != wheel_side:
        relabel(wheel_idx, wheel_side, "pose side of the on-wheel wrist is trusted")
    for wrist, idx in sorted(verdict.associations.items()):
        if idx == wheel_idx:
            continue
        if corrected[idx].side == wheel_side:
            relabel(idx, _opposite(wheel_side), "only one hand can match the on-wheel side")
    return corrected, records


def emit_pose_corrections(
    pose: PoseFrame,
    corrected_hands,
    side_records: list[TrainingRecord],
) -> list[TrainingRecord]:
    """One wrist-position correction per relabeled hand.

    The corrected side names the wrist, which is pinned to the hand-box
    center; the justifying trace is inherited from the side record.
    """
    out: list[TrainingRecord] = []
    for rec in side_records:
        if rec.kind != "hand_side_label":
            continue
        idx = rec.payload["hand_index"]
        hand = corrected_hands[idx]
        cx, cy = hand.center
        wrist = "l_wrist" if hand.side == "left" else "r_wrist"
        out.append(
            TrainingRecord(
                frame_index=pose.frame_index,
                kind="pose_correction",
                payload={"joint": wrist, "x": cx, "y": cy, "side": hand.side, "hand_index": idx},
                provenance=rec.provenance,
            )
        )
    return out


def temporal_verdict(verdicts: Sequence[RuleVerdict], cfg: FusionConfig) -> list[RuleVerdict]:
    """Stabilize per-frame verdicts over a consistency window.

    The stabilized flag at frame t is true only if the raw flag held for the
    whole trailing window, so a stabilized true never appears on a raw-false
    frame.
    """
    k = cfg.resolved_consistency_frames()
    out = []
    streak = 0
    for v in verdicts:
        streak = streak + 1 if v.safe_driving else 0
        nv = replace(v, stabilized_safe_driving=streak >= k)
        out.append(nv)
    return out


# --------------------------------------------------------------------------
# episode classification


@dataclass(frozen=True)
class EpisodeRule:
    label: str
    predicate: str
    params: dict = field(default_factory=dict)
    with_side: bool = False

    def __post_init__(self):
        if self.predicate not in PREDICATES:
            raise ValueError(f"unknown predicate {self.predicate!r}")
        if not isinstance(self.label, str) or not isinstance(self.params, dict):
            raise ValueError(f"rule label must be a string and params an object: {self!r}")
        if not isinstance(self.with_side, bool):
            raise ValueError(f"rule with_side must be true or false, got {self.with_side!r}")
        _ctx, *declared = inspect.signature(PREDICATES[self.predicate]).parameters.values()
        defaults = {p.name: p.default for p in declared}
        for name, value in self.params.items():
            where = f"rule {self.label!r} parameter {name!r}"
            if name not in defaults:
                raise ValueError(f"{where}: {self.predicate} takes {sorted(defaults) or 'no parameters'}")
            check_number(where, value, defaults[name])
            labels = isinstance(value, list) and all(isinstance(v, str) for v in value)
            if name == "object_labels" and not labels:  # a bare string would match by substring
                raise ValueError(f"{where} must be a list of strings, got {value!r}")
            if name == "region" and value is not None:  # null: the rule never fires
                check_region(where, value)


@dataclass(frozen=True)
class EpisodeRuleTable:
    rules: list[EpisodeRule]

    @classmethod
    def from_dict(cls, data: dict) -> "EpisodeRuleTable":
        if set(data) != {"rules"}:
            raise ValueError(f"a rule table holds one key, 'rules'; got {sorted(data)}")
        return cls(rules=[EpisodeRule(**r) for r in data["rules"]])


@dataclass
class EpisodeLabel:
    segment: int
    start: int
    end: int  # exclusive
    label: str
    votes: dict[str, int]
    notes: list[str] = field(default_factory=list)


@dataclass
class _FrameContext:
    pose: PoseFrame
    hands: Sequence[HandDetection]
    objects: Sequence[ObjectDetection]
    verdict: RuleVerdict

    def off_wheel_assoc(self):
        return [
            (w, i) for w, i in sorted(self.verdict.associations.items()) if i not in self.verdict.on_wheel
        ]


def _pred_both_hands_on_wheel(ctx: _FrameContext):
    return "" if ctx.verdict.safe_driving else None


def _boxes_overlap(a, b) -> bool:
    return a[0] < b[2] and b[0] < a[2] and a[1] < b[3] and b[1] < a[3]


_PHONE_LABELS = ("cell phone", "phone")


def _pred_phone_at_head(ctx: _FrameContext, object_labels=_PHONE_LABELS, head_radius=0.12):
    head = ctx.pose.joints.get("head")
    if head is None:
        return None
    off = ctx.off_wheel_assoc()
    if not off:
        return None
    for obj in ctx.objects:
        if obj.label not in object_labels:
            continue
        cx, cy = obj.center
        if math.hypot(cx - head[0], cy - head[1]) > head_radius:
            continue
        wrist, idx = min(
            off,
            key=lambda wi: math.hypot(
                ctx.hands[wi[1]].center[0] - cx, ctx.hands[wi[1]].center[1] - cy
            ),
        )
        return ctx.hands[idx].side if ctx.hands[idx].side != "unknown" else _wrist_side(wrist)
    return None


def _pred_phone_at_offwheel_wrist(
    ctx: _FrameContext, object_labels=_PHONE_LABELS, wrist_radius=0.10, chest_line=0.45
):
    for wrist, idx in ctx.off_wheel_assoc():
        wj = ctx.pose.joints.get(wrist)
        if wj is None or wj[1] <= chest_line:
            continue
        for obj in ctx.objects:
            if obj.label not in object_labels:
                continue
            cx, cy = obj.center
            if math.hypot(cx - wj[0], cy - wj[1]) <= wrist_radius:
                side = ctx.hands[idx].side
                return side if side != "unknown" else _wrist_side(wrist)
    return None


def _pred_object_in_hand(ctx: _FrameContext, object_labels=("cup", "bottle")):
    for _wrist, idx in sorted(ctx.verdict.associations.items()):
        hand = ctx.hands[idx]
        for obj in ctx.objects:
            if obj.label in object_labels and _boxes_overlap(obj.box, hand.box):
                return hand.side if hand.side != "unknown" else ""
    return None


def _pred_offwheel_wrist_in_region(ctx: _FrameContext, region=None):
    if region is None:
        return None
    for wrist, _idx in ctx.off_wheel_assoc():
        wj = ctx.pose.joints.get(wrist)
        if wj is not None and region_contains(region, (wj[0], wj[1])):
            return _wrist_side(wrist)
    # also allow a confident wrist with no hand box at all
    for wrist, _elbow, _side in _WRIST_SPECS:
        if wrist in ctx.verdict.associations:
            continue
        wj = ctx.pose.joints.get(wrist)
        if wj is not None and wj[2] > 0 and region_contains(region, (wj[0], wj[1])):
            return _wrist_side(wrist)
    return None


# predicate(ctx, **params) -> the side it fired for ("" when it names none),
# or None when it does not fire; its keyword arguments are its rule parameters
PREDICATES = {
    "both_hands_on_wheel": _pred_both_hands_on_wheel,
    "phone_at_head": _pred_phone_at_head,
    "phone_at_offwheel_wrist": _pred_phone_at_offwheel_wrist,
    "object_in_hand": _pred_object_in_hand,
    "offwheel_wrist_in_region": _pred_offwheel_wrist_in_region,
}

DEFAULT_EPISODE_RULES = EpisodeRuleTable(
    rules=[
        EpisodeRule("safe_driving", "both_hands_on_wheel"),
        EpisodeRule("talking_on_phone", "phone_at_head", with_side=True),
        EpisodeRule("texting", "phone_at_offwheel_wrist", with_side=True),
        EpisodeRule("drinking", "object_in_hand"),
        EpisodeRule("operating_radio", "offwheel_wrist_in_region", {"region": [0.66, 0.5, 0.86, 0.68]}),
    ]
)


def classify_episode(
    frames: Sequence[tuple[PoseFrame, Sequence[HandDetection], Sequence[ObjectDetection]]],
    verdicts: Sequence[RuleVerdict],
    segments,
    rule_table: EpisodeRuleTable,
) -> list[EpisodeLabel]:
    """Majority-vote a label per temporal segment from the predicate table.

    verdicts[i] is the evaluate_safe_driving result of frames[i]; the
    predicates read its safe_driving flag, wrist associations and on-wheel
    hands (verdict.on_wheel). Every firing predicate contributes one vote
    per frame; a segment whose top two labels tie is reported unknown with
    the candidates noted, and a segment with no votes is unknown.
    """
    group_ids = list(segments.group_ids)
    if not len(group_ids) == len(verdicts) == len(frames):
        raise ValueError(
            f"{len(frames)} frames but segments cover {len(group_ids)} and {len(verdicts)} verdicts were given"
        )

    votes_per_segment: dict[int, dict[str, int]] = {}
    bounds: dict[int, tuple[int, int]] = {}
    for i, (gid, (pose, hands, objects), verdict) in enumerate(zip(group_ids, frames, verdicts)):
        lo, hi = bounds.get(gid, (i, i))
        bounds[gid] = (min(lo, i), max(hi, i))
        ctx = _FrameContext(pose, hands, objects, verdict)
        tally = votes_per_segment.setdefault(gid, {})
        for rule in rule_table.rules:
            side = PREDICATES[rule.predicate](ctx, **rule.params)
            if side is None:
                continue
            label = f"{rule.label}_{side}" if rule.with_side and side else rule.label
            tally[label] = tally.get(label, 0) + 1

    out: list[EpisodeLabel] = []
    for gid in sorted(bounds):
        lo, hi = bounds[gid]
        tally = votes_per_segment.get(gid, {})
        notes: list[str] = []
        if not tally:
            label = "unknown"
        else:
            ranked = sorted(tally.items(), key=lambda kv: (-kv[1], kv[0]))
            if len(ranked) > 1 and ranked[0][1] == ranked[1][1]:
                tied = [k for k, v in ranked if v == ranked[0][1]]
                label = "unknown"
                notes.append(f"ambiguous: {' vs '.join(sorted(tied))}")
            else:
                label = ranked[0][0]
        out.append(
            EpisodeLabel(segment=gid, start=lo, end=hi + 1, label=label, votes=dict(sorted(tally.items())), notes=notes)
        )
    return out


# --------------------------------------------------------------------------
# serialization helpers (JSON-friendly dicts)


def verdict_to_dict(v: RuleVerdict) -> dict:
    return {
        "frame": v.frame_index,
        "rules": [
            {"rule": r.rule, "passed": r.passed, "value": r.value, "detail": r.detail}
            for r in v.rule_results
        ],
        "safe_driving": v.safe_driving,
        "strict_safe_driving": v.strict_safe_driving,
        "stabilized_safe_driving": v.stabilized_safe_driving,
        "associations": dict(sorted(v.associations.items())),
        "relabels": v.relabels,
        "notes": v.notes,
    }


def record_to_dict(r: TrainingRecord) -> dict:
    return {
        "frame": r.frame_index,
        "kind": r.kind,
        "payload": r.payload,
        "provenance": r.provenance,
    }
