"""Windowed optical flow, corner selection, and box grouping over time.

Frames are 2-D float arrays in [0, 1], shape (height, width); points are
(x, y) with x along columns. Flow is the classic windowed least-squares
solution with Newton refinement inside a single pyramid level, so reliable
displacement magnitude is limited to roughly half the window. One kernel
tracks points between images of a stack; `lk_flow` runs it on two frames.

Box grouping follows the track-then-merge recipe: consecutive (or nearly
consecutive) boxes whose resampled contents move coherently are unioned
into groups, and groups with correlated mean appearance are merged. Each
box is cropped once; box pairs are scored forward and backward in batches
of BATCH_POINTS feature points, a fixed budget that bounds their memory.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy.ndimage import maximum_filter, uniform_filter

# About 8 frames of a two-hand driver session. Larger batches save little
# time; at 2048 the peak memory of a 400-frame session rose by a sixth.
BATCH_POINTS = 1024


@dataclass
class FlowConfig:
    window: int = 9
    eigen_floor: float | None = None  # None: 1e-4 * window area
    max_refinements: int = 20
    step_tol: float = 0.01
    fb_max_error: float = 0.5
    canonical_size: int = 64
    max_features: int = 32
    feature_quality: float = 0.05
    gap_max: int = 2

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

    def resolved_eigen_floor(self, window: int | None = None) -> float:
        if self.eigen_floor is not None:
            return self.eigen_floor
        win = self.window if window is None else window
        return 1e-4 * win * win


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
    a = np.asarray(f, dtype=np.float64)
    if a.ndim != 2 or a.size == 0:
        raise ValueError(f"{name} must be a non-empty 2-D array")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite values")
    if a.min() < -1e-9 or a.max() > 1 + 1e-9:
        raise ValueError(f"{name} values must lie in [0, 1]")
    return np.clip(a, 0.0, 1.0)


def image_gradients(frame) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference gradients (one-sided at the borders)."""
    f = as_frame(frame)
    if f.shape[0] < 3 or f.shape[1] < 3:
        raise ValueError(f"frame too small for gradients: {f.shape}")
    return np.gradient(f, axis=1), np.gradient(f, axis=0)


def _bilinear(img: np.ndarray, xs, ys, base=0) -> np.ndarray:
    """Samples at (xs, ys) of img (h, w), or of the stack image (..., h, w) at flat index base."""
    h, w = img.shape[-2:]
    flat = img.reshape(-1)
    # truncation equals floor wherever the clip to [0, size - 2] keeps the value
    x0 = np.clip(xs.astype(np.int64), 0, w - 2)
    y0 = np.clip(ys.astype(np.int64), 0, h - 2)
    fx = xs - x0
    fy = ys - y0
    i = base + y0 * w + x0
    top = (1 - fx) * flat[i] + fx * flat[i + 1]
    bot = (1 - fx) * flat[i + w] + fx * flat[i + w + 1]
    return (1 - fy) * top + fy * bot


def _min_eig_map(frame: np.ndarray, window: int) -> np.ndarray:
    ix, iy = image_gradients(frame)
    area = window * window
    sxx = uniform_filter(ix * ix, size=window, mode="constant") * area
    sxy = uniform_filter(ix * iy, size=window, mode="constant") * area
    syy = uniform_filter(iy * iy, size=window, mode="constant") * area
    trace = sxx + syy
    root = np.sqrt((sxx - syy) ** 2 + 4.0 * sxy * sxy)
    return 0.5 * (trace - root)


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
    resp = _min_eig_map(f, window)
    margin = window // 2 + 1
    h, w = f.shape
    if 2 * margin >= min(h, w):
        return np.empty((0, 2))
    inner = np.zeros_like(resp)
    inner[margin : h - margin, margin : w - margin] = resp[margin : h - margin, margin : w - margin]
    best = inner.max()
    if best <= 0:
        return np.empty((0, 2))
    # local maxima prefilter keeps the greedy suppression loop short
    peaks = (inner >= quality * best) & (inner == maximum_filter(inner, size=window))
    ys, xs = np.nonzero(peaks)
    order = sorted(range(xs.size), key=lambda i: (-inner[ys[i], xs[i]], ys[i], xs[i]))
    radius = window // 2
    kept: list[tuple[int, int]] = []
    for i in order:
        x, y = int(xs[i]), int(ys[i])
        if all(max(abs(x - kx), abs(y - ky)) > radius for kx, ky in kept):
            kept.append((x, y))
            if len(kept) == max_count:
                break
    return np.array(kept, dtype=np.float64).reshape(-1, 2)


def _lk_batch(stack, src, dst, pts, cfg: FlowConfig):
    """Windowed flow of each point pts[k] from image src[k] to dst[k] of stack (n, h, w).

    Solves the 2x2 gradient system and refines by re-sampling the target at
    the running estimate. Points too close to the border, points whose
    structure tensor is near-singular, and points that drift out of frame
    are invalid with zero displacement. h, w >= 3. Returns displacement
    (m, 2), validity (m,) and the smaller structure-tensor eigenvalue (m,).
    """
    _n, h, w = stack.shape
    floor = cfg.resolved_eigen_floor()
    half = cfg.window // 2
    offs = np.arange(-half, half + 1, dtype=np.float64)
    ox, oy = np.meshgrid(offs, offs)
    ox = ox.ravel()
    oy = oy.ravel()

    gx = pts[:, 0:1] + ox[None, :]
    gy = pts[:, 1:2] + oy[None, :]
    inb = (
        (pts[:, 0] - half >= 0)
        & (pts[:, 0] + half <= w - 1)
        & (pts[:, 1] - half >= 0)
        & (pts[:, 1] + half <= h - 1)
    )

    # image, x gradient and y gradient of every source window in one gather
    iy, ix = np.gradient(stack, axis=(1, 2))
    planes = np.stack([stack, ix, iy])
    base = src[:, None] * (h * w) + np.arange(3)[:, None, None] * stack.size
    sampled = np.zeros((3,) + gx.shape)
    sampled[:, inb] = _bilinear(planes, gx[inb], gy[inb], base[:, inb])
    patch, gxv, gyv = sampled

    sxx = np.sum(gxv * gxv, axis=1)
    sxy = np.sum(gxv * gyv, axis=1)
    syy = np.sum(gyv * gyv, axis=1)
    trace = sxx + syy
    min_eig = 0.5 * (trace - np.sqrt((sxx - syy) ** 2 + 4.0 * sxy * sxy))
    det = sxx * syy - sxy * sxy

    valid = inb & (min_eig >= floor) & (det > 0)
    disp = np.zeros((pts.shape[0], 2))
    dst_base = dst[:, None] * (h * w)
    active = valid.copy()
    for _ in range(cfg.max_refinements):
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        tx = gx[idx] + disp[idx, 0:1]
        ty = gy[idx] + disp[idx, 1:2]
        # rounding is monotonic, so the window's first and last samples are its extremes
        out = (tx[:, 0] < 0) | (tx[:, -1] > w - 1) | (ty[:, 0] < 0) | (ty[:, -1] > h - 1)
        if np.any(out):
            gone = idx[out]
            valid[gone] = False
            disp[gone] = 0.0
            active[gone] = False
            idx = idx[~out]
            if idx.size == 0:
                break
            tx = tx[~out]
            ty = ty[~out]
        it = _bilinear(stack, tx, ty, dst_base[idx]) - patch[idx]
        bx = -np.sum(gxv[idx] * it, axis=1)
        by = -np.sum(gyv[idx] * it, axis=1)
        inv_det = 1.0 / det[idx]
        dx = (syy[idx] * bx - sxy[idx] * by) * inv_det
        dy = (sxx[idx] * by - sxy[idx] * bx) * inv_det
        disp[idx, 0] += dx
        disp[idx, 1] += dy
        settled = np.hypot(dx, dy) < cfg.step_tol
        active[idx[settled]] = False
    return disp, valid, min_eig


def lk_flow(prev, nxt, points, window: int = 9, cfg: FlowConfig | None = None) -> list[FlowVector]:
    """Per-point displacement between two frames; see _lk_batch for invalid points."""
    cfg = replace(cfg or FlowConfig(), window=window)
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
    disp, valid, min_eig = _lk_batch(np.stack([a, b]), np.zeros(n, int), np.ones(n, int), pts, cfg)
    return [
        FlowVector(
            origin=(float(pts[i, 0]), float(pts[i, 1])),
            displacement=(float(disp[i, 0]), float(disp[i, 1])),
            valid=bool(valid[i]),
            min_eigenvalue=float(max(min_eig[i], 0.0)),
        )
        for i in range(n)
    ]


def _check_box(box, shape, name="box"):
    x0, y0, x1, y1 = (float(c) for c in box)
    h, w = shape
    if not (x1 > x0 and y1 > y0):
        raise ValueError(f"{name} is empty: {box}")
    if x0 < 0 or y0 < 0 or x1 > w or y1 > h:
        raise ValueError(f"{name} {box} exceeds frame bounds {w}x{h}")
    return x0, y0, x1, y1


def canonical_rect(frame, box, out_h: int, out_w: int) -> np.ndarray:
    """Resample a box region to out_h x out_w with bilinear interpolation."""
    f = as_frame(frame)
    x0, y0, x1, y1 = _check_box(box, f.shape)
    h, w = f.shape
    us = x0 + (x1 - x0) * (np.arange(out_w) + 0.5) / out_w
    vs = y0 + (y1 - y0) * (np.arange(out_h) + 0.5) / out_h
    us = np.clip(us, 0, w - 1)
    vs = np.clip(vs, 0, h - 1)
    gx, gy = np.meshgrid(us, vs)
    return _bilinear(f, gx, gy)


def canonical_crop(frame, box, size: int) -> np.ndarray:
    """Resample a box to size x size with bilinear interpolation."""
    return canonical_rect(frame, box, size, size)


def _fb_similarity(crops, pairs, feats, cfg: FlowConfig) -> np.ndarray:
    """Motion-coherence score of each pair (i, j) of same-size crops, in one batch.

    feats[k] holds the features of crops[i] for pairs[k]. A pair scores the
    fraction of its valid forward vectors that land inside the canvas and
    track back to within fb_max_error of their origin; a pair with no valid
    vector scores 0.
    """
    stack = np.stack(crops)
    _n, h, w = stack.shape
    pair = np.repeat(np.arange(len(pairs)), [len(f) for f in feats])
    src, dst = np.array(pairs, dtype=np.int64).reshape(-1, 2)[pair].T
    pts = np.concatenate(feats)
    disp, valid, _ = _lk_batch(stack, src, dst, pts, cfg)
    land = pts[valid] + disp[valid]
    inside = (land[:, 0] >= 0) & (land[:, 0] <= w - 1) & (land[:, 1] >= 0) & (land[:, 1] <= h - 1)
    fwd = disp[valid][inside]
    back, back_valid, _ = _lk_batch(stack, dst[valid][inside], src[valid][inside], land[inside], cfg)
    err = np.hypot(fwd[:, 0] + back[:, 0], fwd[:, 1] + back[:, 1])
    kept = pair[valid][inside][back_valid & (err <= cfg.fb_max_error)]
    n_valid = np.bincount(pair[valid], minlength=len(pairs))
    n_kept = np.bincount(kept, minlength=len(pairs))
    return np.divide(n_kept, n_valid, out=np.zeros(len(pairs)), where=n_valid > 0)


def box_similarity(prev, nxt, box_prev, box_next, cfg: FlowConfig | None = None) -> float:
    """Motion-coherence similarity between two boxes in [0, 1].

    Both boxes are resampled to the canonical size; features picked in the
    first crop are tracked into the second, and the score is the fraction of
    valid features that land inside the canvas with a consistent round trip.
    """
    if cfg is None:
        cfg = FlowConfig()
    size = cfg.canonical_size
    p = canonical_crop(prev, box_prev, size)
    n = canonical_crop(nxt, box_next, size)
    feats = good_features(p, cfg.max_features, cfg.feature_quality, cfg.window)
    return float(_fb_similarity([p, n], [(0, 1)], [feats], cfg)[0])


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
) -> list[BoxTrackGroup]:
    """Union boxes across time by flow similarity.

    Boxes in frames t and t + k are compared for k up to gap_max + 1 (so a
    track survives up to gap_max frames with missing detections); pairs with
    similarity strictly above *threshold* are joined. Output is always a
    partition of the (frame, box) pairs, in deterministic order.
    """
    if cfg is None:
        cfg = FlowConfig()
    if len(frames) != len(boxes_per_frame):
        raise ValueError(
            f"got {len(frames)} frames but {len(boxes_per_frame)} box lists"
        )
    keys = [
        (t, i) for t in range(len(frames)) for i in range(len(boxes_per_frame[t]))
    ]
    uf = _UnionFind(keys)
    size = cfg.canonical_size
    crops: dict[tuple[int, int], np.ndarray] = {}
    feats: dict[tuple[int, int], np.ndarray] = {}
    pairs: list[tuple[tuple[int, int], tuple[int, int]]] = []

    def score_pairs():
        slot = {key: n for n, key in enumerate(crops)}
        sims = _fb_similarity(
            list(crops.values()),
            [(slot[a], slot[b]) for a, b in pairs],
            [feats[a] for a, _b in pairs],
            cfg,
        )
        for (a, b), sim in zip(pairs, sims):
            if sim > threshold:
                uf.union(a, b)
        pairs.clear()

    n_frames = len(frames)
    n_points = 0
    for t in range(n_frames):
        if not boxes_per_frame[t]:
            continue
        for k in range(1, cfg.gap_max + 2):
            t2 = t + k
            if t2 >= n_frames:
                break
            for i in range(len(boxes_per_frame[t])):
                for j in range(len(boxes_per_frame[t2])):
                    a, b = (t, i), (t2, j)
                    for tk, ik in (a, b):
                        if (tk, ik) not in crops:
                            crops[tk, ik] = canonical_crop(frames[tk], boxes_per_frame[tk][ik], size)
                    if a not in feats:
                        feats[a] = good_features(
                            crops[a], cfg.max_features, cfg.feature_quality, cfg.window
                        )
                    pairs.append((a, b))
                    n_points += len(feats[a])
                    if n_points >= BATCH_POINTS:
                        score_pairs()
                        n_points = 0
                        # later pairs start at frame t or after
                        for cache in (crops, feats):
                            for key in [key for key in cache if key[0] < t]:
                                del cache[key]
    if pairs:
        score_pairs()
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
    is a coarsening of the input partition.
    """
    if cfg is None:
        cfg = FlowConfig()
    members_seen = [m for g in groups for m in g.members]
    if len(set(members_seen)) != len(members_seen):
        raise ValueError("input groups are not a partition (duplicate member)")
    size = cfg.canonical_size
    descs = []
    for g in groups:
        acc = np.zeros((size, size))
        for t, i in g.members:
            acc += canonical_crop(frames[t], boxes_per_frame[t][i], size)
        descs.append((acc / max(len(g.members), 1)).ravel())

    def corr(a, b):
        da = a - a.mean()
        db = b - b.mean()
        na = np.linalg.norm(da)
        nb = np.linalg.norm(db)
        if na == 0 or nb == 0:
            return 0.0
        return float(np.dot(da, db) / (na * nb))

    ids = list(range(len(groups)))
    uf = _UnionFind(ids)
    for i in range(len(groups)):
        for j in range(i + 1, len(groups)):
            if corr(descs[i], descs[j]) > merge_threshold:
                uf.union(i, j)

    clusters: dict[int, list[int]] = {}
    for i in ids:
        clusters.setdefault(uf.find(i), []).append(i)
    merged = []
    for root in sorted(clusters, key=lambda r: min(min(groups[i].members) for i in clusters[r])):
        members = sorted(m for i in clusters[root] for m in groups[i].members)
        merged.append(BoxTrackGroup(group_id=len(merged), members=members))
    return merged
