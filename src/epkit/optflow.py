"""Windowed optical flow, corner selection, and box grouping over time.

Frames are 2-D arrays, shape (height, width), of floats in [0, 1] or of uint8
pixels, divided by 255 where used; points are (x, y) with x along columns. Flow
is the classic windowed least-squares solution with Newton refinement inside a
single pyramid level, so reliable displacement magnitude is limited to roughly
half the window. One kernel tracks points between images of a stack in two
steps: `_lk_windows` samples each point's source window and structure tensor,
`_lk_refine` solves against a target image; `lk_flow` runs it on two frames.

Box grouping follows the track-then-merge recipe: consecutive (or nearly
consecutive) boxes whose resampled contents move coherently are unioned
into groups, and groups with correlated mean appearance are merged. Frames
are taken in chunks whose lag-1 pairs (boxes of frames t and t + 1) carry
about BATCH_POINTS feature points. A chunk's pairs are solved in lag waves,
lag 1 first, and `group_boxes` unions as pairs are scored: a pair whose two
boxes are already in one set when its wave starts is not scored, since it
cannot change the connected components (about 2,000 of 3,188 pairs are
scored on a 400-frame session of 5 x 80 frames, a few more or fewer when the
pipeline splits the chunks between two processes). `merge_groups` likewise
compares no two groups already merged. Each box's state is built once per
run of consecutive chunks, in batched calls per chunk: its canonical crop
(`_frame_crops`, one gather over the chunk's frames), gradient planes
(`_planes`), corners (`_corners`) and the source windows of those corners
(`_lk_windows`), which every pair the box starts shares. Frames are checked
as their boxes are cropped; all frames with boxes must share one shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np
from scipy.ndimage import maximum_filter, uniform_filter

# Forward feature points solved in one batch. On the 400-frame benchmark
# session (2-CPU host), group_boxes took a median 2.31 s at 256 points,
# 1.86 s at 512, 1.82 s at 768 and 1.91 s at 1024: smaller batches repeat
# the fixed per-round numpy calls more often, larger ones outgrow the L2
# cache. At 512 the (points x window) temporaries are ~330 KB, and a whole
# pipeline run takes ~20k minor page faults (360k with the former per-pair
# windows and 1024-point batches).
BATCH_POINTS = 512


@dataclass
class FlowConfig:
    window: int = 9
    eigen_floor: float | None = field(default=None, metadata={"number_rule": 0.0})  # None: 1e-4 * window area
    max_refinements: int = 20
    step_tol: float = 0.01
    fb_max_error: float = 0.5
    canonical_size: int = 64
    max_features: int = 32
    feature_quality: float = 0.05
    gap_max: int = 2
    group_threshold: float = 0.5  # read by the pipeline's group_boxes call
    merge_threshold: float = 0.9  # read by the pipeline's merge_groups call

    def __post_init__(self):
        if self.window < 3 or self.window % 2 == 0:
            raise ValueError(f"window must be odd and >= 3, got {self.window}")
        if not 0 < self.feature_quality <= 1:
            raise ValueError("feature_quality must lie in (0, 1]")
        if self.gap_max < 0:
            raise ValueError("gap_max must be non-negative")
        if self.max_features < 1:
            raise ValueError(f"max_features must be at least 1, got {self.max_features}")
        if self.canonical_size < 3:
            raise ValueError(f"canonical_size must be at least 3, got {self.canonical_size}")
        if self.max_refinements < 1:
            raise ValueError(f"max_refinements must be at least 1, got {self.max_refinements}")
        if not self.step_tol > 0:
            raise ValueError(f"step_tol must be positive, got {self.step_tol}")
        if not self.fb_max_error >= 0:
            raise ValueError(f"fb_max_error must be non-negative, got {self.fb_max_error}")
        if self.eigen_floor is not None and not self.eigen_floor >= 0:
            raise ValueError(f"eigen_floor must be non-negative, got {self.eigen_floor}")

    def resolved_eigen_floor(self) -> float:
        if self.eigen_floor is not None:
            return self.eigen_floor
        return 1e-4 * self.window * self.window


@dataclass(frozen=True)
class FlowVector:
    origin: tuple[float, float]
    displacement: tuple[float, float]
    valid: bool
    min_eigenvalue: float


@dataclass
class BoxTrackGroup:
    """One track group; members are (frame_index, box_index), sorted."""

    group_id: int
    members: list[tuple[int, int]]


def as_frame(f, name: str = "frame") -> np.ndarray:
    """f as a float frame in [0, 1], checked; uint8 input is an 8-bit image, mapped by / 255."""
    if getattr(f, "dtype", None) == np.uint8 and f.ndim == 2 and f.size:
        return f / 255.0  # finite and in [0, 1] by its type
    a = np.asarray(f, dtype=np.float64)
    if a.ndim != 2 or a.size == 0:
        raise ValueError(f"{name} must be a non-empty 2-D array")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite values")
    if a.min() < -1e-9 or a.max() > 1 + 1e-9:
        raise ValueError(f"{name} values must lie in [0, 1]")
    return np.clip(a, 0.0, 1.0)


def _planes(images: np.ndarray) -> np.ndarray:
    """Image, x-gradient and y-gradient stacks (3, n, h, w) of images (n, h, w).

    Central differences, one-sided at the borders; h, w >= 3.
    """
    iy, ix = np.gradient(images, axis=(1, 2))
    return np.stack([images, ix, iy])


def _bilinear(img: np.ndarray, xs, ys, base=0) -> np.ndarray:
    """Samples at (xs, ys) of img (h, w), or of the stack image (..., h, w) at flat index base.

    The points must lie inside the image. xs and ys are scratch: they are
    overwritten.
    """
    h, w = img.shape[-2:]
    flat = img.reshape(-1)
    # inside the image, truncation is floor and only the upper clip can bind
    x0 = xs.astype(np.int64)
    np.minimum(x0, w - 2, out=x0)
    y0 = ys.astype(np.int64)
    np.minimum(y0, h - 2, out=y0)
    fx = np.subtract(xs, x0, out=xs)
    fy = np.subtract(ys, y0, out=ys)
    y0 *= w
    y0 += x0
    # a base with one more axis (a stack of planes per point) widens the index
    i = np.add(y0, base, out=y0 if np.ndim(base) <= y0.ndim else None)
    wx = 1 - fx
    # the four neighbours of flat index i are i, i + 1, i + w and i + w + 1
    top = flat[i]
    top *= wx
    right = flat[1:][i]
    right *= fx
    top += right
    bot = flat[w:][i]
    bot *= wx
    right = flat[w + 1 :][i]
    right *= fx
    bot += right
    bot *= fy
    np.subtract(1, fy, out=fy)
    top *= fy
    top += bot
    return top


def _check_box(box, shape, name="box"):
    x0, y0, x1, y1 = (float(c) for c in box)
    h, w = shape
    if not (x1 > x0 and y1 > y0):
        raise ValueError(f"{name} is empty: {box}")
    if x0 < 0 or y0 < 0 or x1 > w or y1 > h:
        raise ValueError(f"{name} {box} exceeds frame bounds {w}x{h}")
    return x0, y0, x1, y1


def _crops(stack: np.ndarray, slot, boxes, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resamples (n, out_h, out_w) of box k of image slot[k] of stack, in one gather.

    boxes is (n, 4) of checked (x0, y0, x1, y1).
    """
    _n, h, w = stack.shape
    x0, y0, x1, y1 = np.asarray(boxes, dtype=np.float64).reshape(-1, 4).T
    us = x0[:, None] + (x1 - x0)[:, None] * (np.arange(out_w) + 0.5) / out_w
    vs = y0[:, None] + (y1 - y0)[:, None] * (np.arange(out_h) + 0.5) / out_h
    np.clip(us, 0, w - 1, out=us)
    np.clip(vs, 0, h - 1, out=vs)
    shape = (us.shape[0], out_h, out_w)
    gx = np.broadcast_to(us[:, None, :], shape).copy()
    gy = np.broadcast_to(vs[:, :, None], shape).copy()
    base = np.asarray(slot, dtype=np.int64)[:, None, None] * (h * w)
    return _bilinear(stack, gx, gy, base)


def canonical_rect(frame, box, out_h: int, out_w: int) -> np.ndarray:
    """Resample a box region to out_h x out_w with bilinear interpolation."""
    f = as_frame(frame)
    return _crops(f[None], [0], [_check_box(box, f.shape)], out_h, out_w)[0]


def canonical_crop(frame, box, size: int) -> np.ndarray:
    """Resample a box to size x size with bilinear interpolation."""
    return canonical_rect(frame, box, size, size)


def _corners(planes: np.ndarray, max_count: int, quality: float, window: int) -> list[np.ndarray]:
    """good_features of each image of planes (3, n, h, w), with batched filters."""
    images, ix, iy = planes
    n, h, w = images.shape
    margin = window // 2 + 1
    if 2 * margin >= min(h, w):
        return [np.empty((0, 2)) for _ in range(n)]
    # size 1 along the stack axis: each image is filtered exactly as on its own
    size = (1, window, window)
    area = window * window
    sxx = uniform_filter(ix * ix, size=size, mode="constant") * area
    sxy = uniform_filter(ix * iy, size=size, mode="constant") * area
    syy = uniform_filter(iy * iy, size=size, mode="constant") * area
    trace = sxx + syy
    root = np.sqrt((sxx - syy) ** 2 + 4.0 * sxy * sxy)
    resp = 0.5 * (trace - root)
    inner = np.zeros_like(resp)
    inner[:, margin : h - margin, margin : w - margin] = resp[:, margin : h - margin, margin : w - margin]
    best = inner.max(axis=(1, 2))
    # local maxima prefilter keeps the greedy suppression loop short; flat images have none
    peaks = (inner >= (quality * best)[:, None, None]) & (inner == maximum_filter(inner, size=size))
    peaks &= (best > 0)[:, None, None]
    ks, ys, xs = np.nonzero(peaks)
    order = np.lexsort((xs, ys, -inner[ks, ys, xs], ks))
    ks, ys, xs = ks[order].tolist(), ys[order].tolist(), xs[order].tolist()
    radius = window // 2
    kept: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for k, y, x in zip(ks, ys, xs):
        got = kept[k]
        if len(got) < max_count and all(max(abs(x - kx), abs(y - ky)) > radius for kx, ky in got):
            got.append((x, y))
    return [np.array(got, dtype=np.float64).reshape(-1, 2) for got in kept]


def good_features(frame, max_count: int, quality: float, window: int = 9) -> np.ndarray:
    """Trackable points ranked by the smaller structure-tensor eigenvalue.

    Keeps responses >= quality * best, suppresses non-maxima within the
    window radius, truncates to max_count. Returns an (n, 2) array of
    (x, y); empty on flat frames.
    """
    if max_count < 1:
        raise ValueError(f"max_count must be at least 1, got {max_count}")
    if not 0 < quality <= 1:
        raise ValueError(f"quality must lie in (0, 1], got {quality}")
    f = as_frame(frame)
    if f.shape[0] < 3 or f.shape[1] < 3:
        raise ValueError(f"frame too small for gradients: {f.shape}")
    return _corners(_planes(f[None]), max_count, quality, window)[0]


class _Windows(NamedTuple):
    """Source windows of m points: sample coordinates, samples and structure tensor."""

    pts: np.ndarray  # (m, 2)
    gx: np.ndarray  # (m, window area) sample coordinates
    gy: np.ndarray
    patch: np.ndarray  # (m, window area) image, x-gradient and y-gradient samples
    gxv: np.ndarray
    gyv: np.ndarray
    sxx: np.ndarray  # (m,) structure tensor
    sxy: np.ndarray
    syy: np.ndarray
    det: np.ndarray
    min_eig: np.ndarray
    valid: np.ndarray  # (m,) inside the image, with a well-conditioned tensor


def _lk_windows(planes: np.ndarray, src, pts: np.ndarray, cfg: FlowConfig) -> _Windows:
    """Window and structure tensor of each point pts[k] in image src[k] of planes (3, n, h, w).

    Points too close to the border and points whose structure tensor is
    near-singular are invalid. h, w >= 3.
    """
    _p, _n, h, w = planes.shape
    half = cfg.window // 2
    offs = np.arange(-half, half + 1, dtype=np.float64)
    ox, oy = np.meshgrid(offs, offs)
    gx = pts[:, 0:1] + ox.ravel()[None, :]
    gy = pts[:, 1:2] + oy.ravel()[None, :]
    inb = (
        (pts[:, 0] - half >= 0)
        & (pts[:, 0] + half <= w - 1)
        & (pts[:, 1] - half >= 0)
        & (pts[:, 1] + half <= h - 1)
    )
    # image, x gradient and y gradient of every window in one gather
    base = np.asarray(src)[:, None] * (h * w) + np.arange(3)[:, None, None] * planes[0].size
    sampled = np.zeros((3,) + gx.shape)
    sampled[:, inb] = _bilinear(planes, gx[inb], gy[inb], base[:, inb])
    patch, gxv, gyv = sampled

    sxx = np.sum(gxv * gxv, axis=1)
    sxy = np.sum(gxv * gyv, axis=1)
    syy = np.sum(gyv * gyv, axis=1)
    trace = sxx + syy
    min_eig = 0.5 * (trace - np.sqrt((sxx - syy) ** 2 + 4.0 * sxy * sxy))
    det = sxx * syy - sxy * sxy
    valid = inb & (min_eig >= cfg.resolved_eigen_floor()) & (det > 0)
    return _Windows(pts, gx, gy, patch, gxv, gyv, sxx, sxy, syy, det, min_eig, valid)


def _lk_refine(images: np.ndarray, win: _Windows, rows, dst, cfg: FlowConfig):
    """Flow of window win[rows[k]] into image dst[k] of images (n, h, w).

    Refines by re-sampling the target at the running estimate; points that
    drift out of frame become invalid. Invalid points have zero
    displacement. Returns displacement (m, 2) and validity (m,).
    """
    _n, h, w = images.shape
    valid = win.valid[rows]
    disp = np.zeros((rows.size, 2))
    dst_base = np.asarray(dst)[:, None] * (h * w)
    active = valid.copy()
    for _ in range(cfg.max_refinements):
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        r = rows[idx]
        tx = win.gx[r]
        tx += disp[idx, 0:1]
        ty = win.gy[r]
        ty += disp[idx, 1:2]
        # rounding is monotonic, so the window's first and last samples are its extremes
        out = (tx[:, 0] < 0) | (tx[:, -1] > w - 1) | (ty[:, 0] < 0) | (ty[:, -1] > h - 1)
        if np.any(out):
            gone = idx[out]
            valid[gone] = False
            disp[gone] = 0.0
            active[gone] = False
            keep = ~out
            idx, r, tx, ty = idx[keep], r[keep], tx[keep], ty[keep]
            if idx.size == 0:
                break
        it = _bilinear(images, tx, ty, dst_base[idx])
        it -= win.patch[r]
        prod = win.gxv[r]
        prod *= it
        bx = -np.sum(prod, axis=1)
        prod = win.gyv[r]
        prod *= it
        by = -np.sum(prod, axis=1)
        sxx, sxy, syy = win.sxx[r], win.sxy[r], win.syy[r]
        inv_det = 1.0 / win.det[r]
        dx = (syy * bx - sxy * by) * inv_det
        dy = (sxx * by - sxy * bx) * inv_det
        disp[idx, 0] += dx
        disp[idx, 1] += dy
        settled = np.hypot(dx, dy) < cfg.step_tol
        active[idx[settled]] = False
    return disp, valid


def lk_flow(prev, nxt, points, cfg: FlowConfig | None = None) -> list[FlowVector]:
    """Per-point displacement between two frames.

    Points too close to the border, points whose structure tensor is
    near-singular, and points that drift out of frame are invalid with zero
    displacement. The window and refinement settings come from *cfg*.
    """
    cfg = cfg or FlowConfig()
    a = as_frame(prev, "prev")
    b = as_frame(nxt, "next")
    if a.shape != b.shape:
        raise ValueError(f"frame shapes differ: {a.shape} vs {b.shape}")
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    n = pts.shape[0]
    if n == 0:
        return []
    if min(a.shape) < 3:
        raise ValueError(f"frame too small for gradients: {a.shape}")
    planes = _planes(np.stack([a, b]))
    win = _lk_windows(planes, np.zeros(n, np.int64), pts, cfg)
    disp, valid = _lk_refine(planes[0], win, np.arange(n), np.ones(n, np.int64), cfg)
    return [
        FlowVector(
            origin=(float(pts[i, 0]), float(pts[i, 1])),
            displacement=(float(disp[i, 0]), float(disp[i, 1])),
            valid=bool(valid[i]),
            min_eigenvalue=float(max(win.min_eig[i], 0.0)),
        )
        for i in range(n)
    ]


def _chunks(boxes_per_frame: Sequence[Sequence], cfg: FlowConfig):
    """Frame ranges [t0, t1), each closed once its lag-1 pairs could carry BATCH_POINTS points.

    A frame counts max_features feature points per box and box of the next
    frame (at least one), so a chunk's first wave fills a batch and the chunk
    also bounds the boxes it holds.
    """
    n = len(boxes_per_frame)
    t0 = t1 = 0
    points = 0
    while t1 < n:
        later = len(boxes_per_frame[t1 + 1]) if t1 + 1 < n else 0
        points += len(boxes_per_frame[t1]) * cfg.max_features * max(later, 1)
        t1 += 1
        if points >= BATCH_POINTS:
            yield t0, t1
            t0, points = t1, 0
    if t0 < n:
        yield t0, n


def _check_frames(frames: Sequence, boxes_per_frame: Sequence[Sequence]) -> None:
    if len(frames) != len(boxes_per_frame):
        raise ValueError(f"got {len(frames)} frames but {len(boxes_per_frame)} box lists")
    shapes = {np.shape(frames[t]) for t, boxes in enumerate(boxes_per_frame) if boxes}
    if len(shapes) > 1:
        raise ValueError(f"frames with boxes differ in shape: {sorted(shapes)}")


def _frame_crops(frames: Sequence, boxes_per_frame: Sequence[Sequence], t0: int, t1: int, size: int):
    """Keys (t, i) of the boxes of frames [t0, t1) and their canonical crops, in one gather.

    Validates each of these frames that has boxes, and its boxes.
    """
    ts = [t for t in range(t0, t1) if boxes_per_frame[t]]
    stack = [as_frame(frames[t], f"frame {t}") for t in ts]
    keys, slots, boxes = [], [], []
    for s, t in enumerate(ts):
        for i, box in enumerate(boxes_per_frame[t]):
            keys.append((t, i))
            slots.append(s)
            boxes.append(_check_box(box, stack[s].shape, f"box {i} of frame {t}"))
    if not keys:
        return keys, np.empty((0, size, size))
    return keys, _crops(np.stack(stack), slots, boxes, size, size)


def _scored_pairs(
    frames: Sequence, boxes_per_frame: Sequence[Sequence], cfg: FlowConfig, joined=None, chunks=None
):
    """Motion-coherence score of the compared box pairs: yields (a, b, similarity).

    Boxes in frames t and t + k are compared for k up to gap_max + 1. A pair
    (a, b) scores the fraction of a's valid forward vectors that land inside
    the canvas and track back to within fb_max_error of their origin; a pair
    with no valid vector scores 0. Each box's crop, gradients, corners and
    corner windows are built once and shared by every pair it is in.

    A chunk's pairs are solved in lag waves: those of frames t and t + 1
    first, then those of each longer lag. A pair for which joined(a, b) is
    true when its wave starts is skipped: the generator resumes only after the
    caller has handled every pair yielded before, so joins made from them
    count. Without joined, every pair is scored exactly once. Only the pairs
    whose first box lies in *chunks* (default: all of _chunks, in any order,
    taken one at a time once the last one's pairs are yielded) are compared.
    """
    _check_frames(frames, boxes_per_frame)
    n = len(frames)
    keys: list[tuple[int, int]] = []
    planes = np.empty((3, 0, cfg.canonical_size, cfg.canonical_size))
    built = end = 0
    for t0, t1 in _chunks(boxes_per_frame, cfg) if chunks is None else chunks:
        if t0 != end:  # a chunk that does not follow the last one shares no boxes with it
            keys, planes, built = [], planes[:, :0], t0
        end = t1
        # keep the boxes of frames t0 and later, add those up to the last compared frame
        stale = sum(1 for t, _i in keys if t < t0)
        last = min(t1 + cfg.gap_max + 1, n)
        new_keys, new_crops = _frame_crops(frames, boxes_per_frame, built, last, cfg.canonical_size)
        built = max(built, last)
        keys = keys[stale:] + new_keys
        planes = np.concatenate([planes[:, stale:], _planes(new_crops)], axis=1)
        n_src = sum(1 for t, _i in keys if t < t1)
        lags = range(1, cfg.gap_max + 2)
        if not any(boxes_per_frame[t + k] for t, _i in keys[:n_src] for k in lags if t + k < n):
            continue
        # corners and forward windows of the chunk's source boxes, shared by their pairs
        slot = {key: s for s, key in enumerate(keys)}
        feats = _corners(planes[:, :n_src], cfg.max_features, cfg.feature_quality, cfg.window)
        counts = np.array([len(f) for f in feats], dtype=np.int64)
        win = _lk_windows(planes, np.repeat(np.arange(n_src), counts), np.concatenate(feats), cfg)
        for lag in lags:
            pairs = [
                (a, (a[0] + lag, j))
                for a in keys[:n_src]
                if a[0] + lag < n
                for j in range(len(boxes_per_frame[a[0] + lag]))
                if joined is None or not joined(a, (a[0] + lag, j))
            ]
            if not pairs:
                continue
            src, dst = np.array([(slot[a], slot[b]) for a, b in pairs], dtype=np.int64).T
            # solved in even batches of at most about BATCH_POINTS forward points
            ends = np.cumsum(counts[src])
            n_batches = max(1, -(-int(ends[-1]) // BATCH_POINTS))
            bounds = ends[-1] * np.arange(1, n_batches) / n_batches
            cuts = np.searchsorted(ends, bounds, side="right")
            for lo, hi in zip([0, *cuts.tolist()], [*cuts.tolist(), len(pairs)]):
                if lo < hi:
                    sims = _fb_scores(planes, win, counts, src[lo:hi], dst[lo:hi], cfg)
                    for (a, b), sim in zip(pairs[lo:hi], sims.tolist()):
                        yield a, b, sim


def _fb_scores(planes: np.ndarray, win: _Windows, counts, src, dst, cfg: FlowConfig) -> np.ndarray:
    """Forward-backward score of each pair (src[k], dst[k]) of images of planes.

    Image i's features are the counts[i] consecutive windows of win starting
    after those of images 0 .. i - 1.
    """
    _p, _n, h, w = planes.shape
    per_pair = counts[src]
    pair = np.repeat(np.arange(src.size), per_pair)
    # rows of each pair's source windows, counted from the pair's first row
    rows = np.arange(pair.size) - np.repeat(np.cumsum(per_pair) - per_pair, per_pair)
    rows += np.repeat((np.cumsum(counts) - counts)[src], per_pair)
    disp, valid = _lk_refine(planes[0], win, rows, dst[pair], cfg)
    land = win.pts[rows[valid]] + disp[valid]
    inside = (land[:, 0] >= 0) & (land[:, 0] <= w - 1) & (land[:, 1] >= 0) & (land[:, 1] <= h - 1)
    fwd = disp[valid][inside]
    back_pair = pair[valid][inside]
    back_win = _lk_windows(planes, dst[back_pair], land[inside], cfg)
    back, back_valid = _lk_refine(
        planes[0], back_win, np.arange(back_pair.size), src[back_pair], cfg
    )
    err = np.hypot(fwd[:, 0] + back[:, 0], fwd[:, 1] + back[:, 1])
    kept = back_pair[back_valid & (err <= cfg.fb_max_error)]
    n_valid = np.bincount(pair[valid], minlength=src.size)
    n_kept = np.bincount(kept, minlength=src.size)
    return np.divide(n_kept, n_valid, out=np.zeros(src.size), where=n_valid > 0)


def box_similarity(prev, nxt, box_prev, box_next, cfg: FlowConfig | None = None) -> float:
    """Motion-coherence similarity between two boxes in [0, 1].

    Both boxes are resampled to the canonical size; features picked in the
    first crop are tracked into the second, and the score is the fraction of
    valid features that land inside the canvas with a consistent round trip.
    The two frames must share one shape.
    """
    (_a, _b, sim), = _scored_pairs([prev, nxt], [[box_prev], [box_next]], cfg or FlowConfig())
    return sim


class _UnionFind:
    def __init__(self, items):
        self.parent = {k: k for k in items}

    def find(self, k):
        while self.parent[k] != k:
            self.parent[k] = self.parent[self.parent[k]]
            k = self.parent[k]
        return k

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # smaller root wins, to keep grouping order-independent
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


def _groups_from_union(uf: _UnionFind, keys) -> list[BoxTrackGroup]:
    clusters: dict = {}
    for k in keys:
        clusters.setdefault(uf.find(k), []).append(k)
    roots = sorted(clusters, key=lambda r: min(clusters[r]))
    return [
        BoxTrackGroup(group_id=i, members=sorted(clusters[r])) for i, r in enumerate(roots)
    ]


def group_boxes(
    frames: Sequence,
    boxes_per_frame: Sequence[Sequence],
    threshold: float,
    cfg: FlowConfig | None = None,
    chunks=None,
) -> list[BoxTrackGroup]:
    """Union boxes across time by flow similarity.

    Boxes in frames t and t + k are compared for k up to gap_max + 1 (so a
    track survives up to gap_max frames with missing detections); pairs with
    similarity strictly above *threshold* are joined. Output is always a
    partition of the (frame, box) pairs, in deterministic order. *chunks*,
    if given, limits the compared pairs as in _scored_pairs.
    """
    if cfg is None:
        cfg = FlowConfig()
    keys = [
        (t, i) for t in range(len(boxes_per_frame)) for i in range(len(boxes_per_frame[t]))
    ]
    uf = _UnionFind(keys)
    # a pair whose boxes are already joined cannot change the partition, so it is not scored
    scored = _scored_pairs(frames, boxes_per_frame, cfg, lambda a, b: uf.find(a) == uf.find(b), chunks)
    for a, b, sim in scored:
        if sim > threshold:
            uf.union(a, b)
    return _groups_from_union(uf, keys)


def merge_groups(
    groups: list[BoxTrackGroup],
    frames: Sequence,
    boxes_per_frame: Sequence[Sequence],
    merge_threshold: float,
    cfg: FlowConfig | None = None,
) -> list[BoxTrackGroup]:
    """Merge groups whose mean canonical appearance correlates.

    Descriptor = pixelwise mean of the member crops; groups whose Pearson
    correlation exceeds merge_threshold are joined transitively. The result
    is a coarsening of the input partition in group_boxes' order, whatever
    the order of *groups*.
    """
    if cfg is None:
        cfg = FlowConfig()
    owner = {m: gi for gi, g in enumerate(groups) for m in g.members}
    if len(owner) != sum(len(g.members) for g in groups) or not all(g.members for g in groups):
        raise ValueError("input groups are not a partition (duplicate member or empty group)")
    size = cfg.canonical_size
    acc = np.zeros((len(groups), size, size))
    _check_frames(frames, boxes_per_frame)
    # member crops are summed in frame order, a chunk of frames at a time
    found = 0
    for t0, t1 in _chunks(boxes_per_frame, cfg):
        for key, c in zip(*_frame_crops(frames, boxes_per_frame, t0, t1, size)):
            if key in owner:
                acc[owner[key]] += c
                found += 1
    if found != len(owner):
        raise ValueError("input groups name boxes that are not in boxes_per_frame")
    descs = [(a / len(g.members)).ravel() for a, g in zip(acc, groups)]
    # each descriptor is centred and normalised once
    centred = [d - d.mean() for d in descs]
    norms = [np.linalg.norm(d) for d in centred]

    heads = [g.members[0] for g in groups]  # a group is joined to others through its first member
    uf = _UnionFind(owner)
    for m, gi in owner.items():
        uf.union(heads[gi], m)
    for i in range(len(groups)):
        for j in range(i + 1, len(groups)):
            # a pair already in one merged set cannot change the result
            if uf.find(heads[i]) == uf.find(heads[j]):
                continue
            na, nb = norms[i], norms[j]
            corr = float(np.dot(centred[i], centred[j]) / (na * nb)) if na and nb else 0.0
            if corr > merge_threshold:
                uf.union(heads[i], heads[j])
    return _groups_from_union(uf, sorted(owner))
