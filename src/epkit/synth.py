"""Seeded synthetic generators with retained ground truth.

Every generator draws from a Philox counter-based generator (4x64-10, via
numpy's Generator) in a fixed order, so a seed pins the payload and the
planted structure bit for bit. Bundles carry both: tests recover the
payload, compare against the truth, and never invent expected values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fusion import HandDetection, ObjectDetection, PoseFrame, check_number
from .gflasso import SegmentLabeling


@dataclass
class SynthBundle:
    seed: int
    payload: dict = field(default_factory=dict)
    ground_truth: dict = field(default_factory=dict)


def rng(seed: int) -> np.random.Generator:
    """The fixed project generator: Philox 4x64-10 keyed by the seed."""
    return np.random.Generator(np.random.Philox(seed))


def gen_lowrank_sparse(
    d: int = 200,
    t: int = 200,
    rank: int = 10,
    sparse_fraction: float = 0.05,
    magnitude: float = 5.0,
    seed: int = 0,
) -> SynthBundle:
    """X = A B^T / sqrt(t) + S with uniform random +-magnitude spikes.

    d and t are at least 1; the 1/sqrt(t) scaling keeps entries O(1). Ground
    truth retains the factors, the sparse part and its support (flat
    row-major indices).
    """
    if min(d, t) < 1:
        raise ValueError(f"d and t must be at least 1, got d={d}, t={t}")
    if rank > min(d, t):
        raise ValueError(f"rank {rank} exceeds min(d, t) = {min(d, t)}")
    if rank < 0:
        raise ValueError("rank must be non-negative")
    if not 0 <= sparse_fraction <= 0.3:
        raise ValueError(f"sparse_fraction must lie in [0, 0.3], got {sparse_fraction}")
    g = rng(seed)
    a = g.standard_normal((d, rank))
    b = g.standard_normal((t, rank))
    low = (a @ b.T) / math.sqrt(t) if rank > 0 else np.zeros((d, t))
    s = np.zeros((d, t))
    n_spikes = int(sparse_fraction * d * t)
    support = np.sort(g.choice(d * t, size=n_spikes, replace=False)) if n_spikes else np.array([], dtype=np.int64)
    if n_spikes:
        signs = np.where(g.random(n_spikes) < 0.5, -1.0, 1.0)
        s.flat[support] = signs * magnitude
    return SynthBundle(
        seed=seed,
        payload={"x": low + s},
        ground_truth={
            "low_rank": low,
            "sparse": s,
            "support": support,
            "left_factor": a,
            "right_factor": b,
        },
    )


def gen_piecewise(
    d: int = 8,
    t: int = 240,
    change_points=(40, 90, 150, 200),
    jump_scale: float = 2.0,
    noise_sigma: float = 0.3,
    seed: int = 0,
) -> SynthBundle:
    """Piecewise-constant rows with shared boundaries plus Gaussian noise.

    A change point c marks the boundary between frames c and c + 1, the
    convention and rule of gflasso.SegmentLabeling, which the extractor
    reports. d and t are at least 1. Jumps are N(0, jump_scale^2) per row
    and boundary.
    """
    if min(d, t) < 1:
        raise ValueError(f"d and t must be at least 1, got d={d}, t={t}")
    segments = SegmentLabeling(list(change_points), t)
    cps = segments.change_points
    g = rng(seed)
    levels = g.standard_normal((d, len(cps) + 1)) * jump_scale
    clean = levels[:, segments.group_ids]
    noise = g.standard_normal((d, t)) * noise_sigma if noise_sigma > 0 else np.zeros((d, t))
    return SynthBundle(
        seed=seed,
        payload={"x": clean + noise, "w": np.ones((d, t))},
        ground_truth={"change_points": cps, "levels": levels, "clean": clean},
    )


def gen_shifted_pair(
    size: int = 64,
    dx: float = 1.0,
    dy: float = 0.0,
    texture_scale: float = 2.0,
    seed: int = 0,
) -> SynthBundle:
    """A textured frame and its copy translated by (dx, dy).

    Texture is Gaussian-smoothed seeded noise; the second frame samples the
    first at (x - dx, y - dy) with bilinear interpolation (reflected
    borders), so content moves by +(dx, dy). Both frames are quantized to
    the 8-bit grid so PGM round trips are exact.
    """
    if abs(dx) > 3 or abs(dy) > 3:
        raise ValueError(f"shift components must satisfy |d| <= 3, got ({dx}, {dy})")
    from scipy.ndimage import gaussian_filter, map_coordinates

    g = rng(seed)
    base = gaussian_filter(g.standard_normal((size, size)), sigma=texture_scale)
    lo, hi = base.min(), base.max()
    frame1 = (base - lo) / (hi - lo) if hi > lo else np.zeros_like(base)
    ys, xs = np.mgrid[0:size, 0:size].astype(np.float64)
    frame2 = map_coordinates(frame1, [ys - dy, xs - dx], order=1, mode="reflect")
    q1 = np.round(frame1 * 255.0) / 255.0
    q2 = np.round(np.clip(frame2, 0.0, 1.0) * 255.0) / 255.0
    return SynthBundle(
        seed=seed,
        payload={"frame1": q1, "frame2": q2},
        ground_truth={"dx": float(dx), "dy": float(dy)},
    )


# --------------------------------------------------------------------------
# driver sessions

WHEEL_REGION = (0.28, 0.58, 0.64, 0.92)
RADIO_REGION = (0.66, 0.50, 0.86, 0.68)
CHEST_LINE = 0.45
HEAD = (0.50, 0.20)
NECK = (0.50, 0.32)
SHOULDER = {"left": (0.64, 0.38), "right": (0.36, 0.38)}
REST_ELBOW = {"left": (0.60, 0.56), "right": (0.40, 0.56)}
REST_WRIST = {"left": (0.54, 0.74), "right": (0.42, 0.74)}
HAND_HALF = 0.05
HAND_AHEAD = 0.03  # hand-box center sits this far beyond the wrist along the arm

_ACTION_POSES = {
    # label base -> (wrist, elbow) for a left acting hand; right mirrors in x,
    # except operating_radio whose target is the fixed radio region
    "drinking": ((0.66, 0.34), (0.64, 0.50)),
    "talking_on_phone": ((0.60, 0.22), (0.66, 0.34)),
    "texting": ((0.78, 0.74), (0.70, 0.56)),
    "operating_radio": ((0.76, 0.59), (0.70, 0.52)),
}
# label base -> (label, half width, half height) of the object box at the acting hand's center
_HELD = {
    "drinking": ("cup", 0.035, 0.05),
    "talking_on_phone": ("cell phone", 0.03, 0.04),
    "texting": ("cell phone", 0.03, 0.04),
}

SESSION_LABELS = (
    "safe_driving",
    "drinking",
    "texting_left",
    "texting_right",
    "talking_on_phone_left",
    "talking_on_phone_right",
    "operating_radio",
)
# gen_driver_session's default: five 120-frame episodes
SESSION_SCHEDULE = tuple(
    (label, 120) for label in ("safe_driving", "texting_left", "drinking", "talking_on_phone_left", "operating_radio")
)


def _mirror(pt):
    return (1.0 - pt[0], pt[1])


def _parse_label(label: str) -> tuple[str, str]:
    if label == "safe_driving":
        return label, "none"
    for base in _ACTION_POSES:
        if label in (base, f"{base}_left"):
            return base, "left"
        if label == f"{base}_right":
            return base, "right"
    raise ValueError(f"unknown episode label {label!r} (known: {', '.join(SESSION_LABELS)})")


def _hand_box(wrist, elbow):
    ux, uy = wrist[0] - elbow[0], wrist[1] - elbow[1]
    norm = math.hypot(ux, uy)
    if norm < 1e-9:
        ux, uy = 0.0, 1.0
    else:
        ux, uy = ux / norm, uy / norm
    cx, cy = wrist[0] + HAND_AHEAD * ux, wrist[1] + HAND_AHEAD * uy
    return (cx - HAND_HALF, cy - HAND_HALF, cx + HAND_HALF, cy + HAND_HALF)


def _render_frame(width, height, head, hands, objects):
    ys, xs = np.mgrid[0:height, 0:width].astype(np.float64)
    img = 0.25 + 0.10 * ys / height
    # head disc with a radial falloff, anchored to the head joint
    hx, hy = head[0] * width, head[1] * height
    rr = (xs - hx) ** 2 + (ys - hy) ** 2
    head_r = 0.07 * width
    img = np.where(rr <= head_r * head_r, 0.62 + 0.10 * np.cos(rr / (head_r * head_r) * math.pi), img)

    def paint_box(box, base, freq):
        x0 = int(round(box[0] * width))
        x1 = int(round(box[2] * width))
        y0 = int(round(box[1] * height))
        y1 = int(round(box[3] * height))
        x0, x1 = max(x0, 0), min(x1, width)
        y0, y1 = max(y0, 0), min(y1, height)
        if x1 <= x0 or y1 <= y0:
            return
        by, bx = np.mgrid[y0:y1, x0:x1].astype(np.float64)
        # texture anchored to the box origin so it travels with the box
        tex = np.sin(2 * math.pi * freq * (bx - x0) / max(x1 - x0, 1)) * np.sin(
            2 * math.pi * freq * (by - y0) / max(y1 - y0, 1)
        )
        img[y0:y1, x0:x1] = np.clip(base + 0.18 * tex, 0.0, 1.0)

    for k, hand in enumerate(hands):
        paint_box(hand.box, 0.80, 2.6 + 0.8 * k)
    for obj in objects:
        paint_box(obj.box, 0.55, 2.0)
    return np.round(np.clip(img, 0.0, 1.0) * 255.0) / 255.0


def render_frames(frames, width: int, height: int):
    """The images of detection frames (pose, hands, objects), rendered one at a time."""
    for pose, hands, objects in frames:
        yield _render_frame(width, height, pose.joints["head"], hands, objects)


def gen_driver_session(
    episode_schedule=SESSION_SCHEDULE,
    frame_rate: float = 10.0,
    score_noise: float = 0.03,
    side_flip_fraction: float = 0.0,
    seed: int = 0,
    pos_jitter: float = 0.004,
    frame_width: int = 96,
    frame_height: int = 72,
) -> SynthBundle:
    """Scripted detector streams per episode; render_frames draws their frames.

    Each schedule entry is (label, duration). One hand always rests on the
    wheel; action labels move the other hand and attach the matching object
    box. A side_flip_fraction of hand detections get the wrong side label;
    the flip positions are retained in the ground truth.
    """
    episodes = []  # (label, base, acting side, duration)
    for label, dur in [(str(lbl), dur) for lbl, dur in episode_schedule]:
        episodes.append((label, *_parse_label(label), dur))
        check_number("episode duration", dur, 0)
        if dur < 0:
            raise ValueError(f"negative episode duration {dur}")
    if frame_width < 1 or frame_height < 1 or not frame_rate > 0:
        raise ValueError(f"need frame size >= 1x1 and frame_rate > 0, got {frame_width}x{frame_height}, {frame_rate}")
    g = rng(seed)

    frames = []
    flips = []
    truth_schedule = []

    def jitter(pt):
        return (
            float(pt[0] + g.normal(0.0, pos_jitter)),
            float(pt[1] + g.normal(0.0, pos_jitter)),
        )

    def score():
        return float(np.clip(0.9 + g.normal(0.0, score_noise), 0.05, 1.0))

    for label, base, act_side, duration in episodes:
        truth_schedule.append({"label": label, "start": len(frames), "end": len(frames) + duration})
        targets = {side: (REST_WRIST[side], REST_ELBOW[side]) for side in ("left", "right")}  # (wrist, elbow)
        if base in _ACTION_POSES:
            wpt, ept = _ACTION_POSES[base]
            mirrored = act_side == "right" and base != "operating_radio"
            targets[act_side] = (_mirror(wpt), _mirror(ept)) if mirrored else (wpt, ept)
        for _ in range(duration):
            joints = {name: (*jitter(pt), score()) for name, pt in (("head", HEAD), ("neck", NECK))}
            arms = {}  # side -> jittered (wrist, elbow)
            for side, (wpt, ept) in targets.items():
                wrist, elbow = arms[side] = jitter(wpt), jitter(ept)
                joints[f"{side[0]}_shoulder"] = (*jitter(SHOULDER[side]), score())
                joints[f"{side[0]}_elbow"] = (*elbow, score())
                joints[f"{side[0]}_wrist"] = (*wrist, score())

            hands = []
            for hand_i, (side, arm) in enumerate(arms.items()):
                reported = side
                if side_flip_fraction > 0 and g.random() < side_flip_fraction:
                    reported = "left" if side == "right" else "right"
                    flips.append({"frame": len(frames), "hand_index": hand_i, "true_side": side})
                hands.append(HandDetection(_hand_box(*arm), score(), reported, score()))

            objects = []
            if base in _HELD:
                name, half_w, half_h = _HELD[base]
                cx, cy = hands[0 if act_side == "left" else 1].center
                objects.append(ObjectDetection(name, (cx - half_w, cy - half_h, cx + half_w, cy + half_h), score()))

            frames.append((PoseFrame(frame_index=len(frames), joints=joints), hands, objects))

    return SynthBundle(
        seed=seed,
        payload={"frames": frames},
        ground_truth={
            "schedule": truth_schedule,
            "flips": flips,
            "wheel_region": list(WHEEL_REGION),
            "radio_region": list(RADIO_REGION),
            "chest_line": CHEST_LINE,
            "frame_rate": frame_rate,
            "frame_size": [frame_width, frame_height],
        },
    )
