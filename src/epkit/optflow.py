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
pipeline splits the chunks between two processes). Each box's state is
built once per run of consecutive chunks, in batched calls per chunk: its
canonical crop (`_frame_crops`, one gather over the chunk's frames), gradient
planes (`_planes`), corners (`_corners`) and the source windows of those
corners (`_lk_windows`), which every pair the box starts shares. The live
boxes' planes sit in one buffer, sized for the largest chunk window and
allocated once per call; a chunk's kept planes shift to its front. Crops and
windows are sampled at per-axis coordinates, columns and rows (`_bilinear`),
so only the sample index and its gathers are full-size. Corners are local
maxima of the Shi–Tomasi minimum-eigenvalue response; its window means of the
gradient products (`_box_means`) and its local maxima (`_window_max`) are
numpy that gives `scipy.ndimage`'s bits, so flow grouping imports no scipy.
The union-find sums the crops per set, so `merge_groups` reads no frame; it
joins groups that share a member, such as those of two runs over disjoint
chunks, and compares no two groups already merged. Frames are checked as their
boxes are cropped; all frames with boxes must share one shape.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .fusion import check_box, check_settings
from .numkit import as_matrix

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
    # None: 1e-4 * window area
    eigen_floor: float | None = field(default=None, metadata={"number_rule": 0.0, "min": 0.0})
    max_refinements: int = field(default=20, metadata={"min": 1})
    step_tol: float = field(default=0.01, metadata={"above": 0.0})
    fb_max_error: float = field(default=0.5, metadata={"min": 0.0})
    canonical_size: int = field(default=64, metadata={"min": 3})
    max_features: int = field(default=32, metadata={"min": 1})
    feature_quality: float = field(default=0.05, metadata={"above": 0.0, "max": 1.0})
    gap_max: int = field(default=2, metadata={"min": 0})
    # read by the pipeline's group_boxes call; a box similarity lies in [0, 1]
    group_threshold: float = field(default=0.5, metadata={"min": 0.0, "below": 1.0})
    # read by the pipeline's merge_groups call on both sides' groups; a correlation lies in [-1, 1]
    merge_threshold: float = field(default=0.9, metadata={"min": -1.0, "below": 1.0})

    def __post_init__(self):
        check_settings(self)
        if self.window < 3 or self.window % 2 == 0:
            raise ValueError(f"window must be odd and >= 3, got {self.window}")

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
    # sum of the canonical crops of the members whose chunk the run took; None if it took none
    crop_sum: np.ndarray | None = field(default=None, compare=False, repr=False)


def as_frame(f, name: str = "frame", out: np.ndarray | None = None) -> np.ndarray:
    """f as a float frame in [0, 1], written into *out* (a float array of f's shape) if given.

    uint8 input is an 8-bit image, mapped by / 255. Other input must pass
    as_matrix (2-D, non-empty, finite) and lie in [0, 1]; it is checked before
    out is written.
    """
    if getattr(f, "dtype", None) == np.uint8 and f.ndim == 2 and f.size:
        return np.divide(f, 255.0, out=out)  # finite and in [0, 1] by its type
    a = as_matrix(f, name)
    if a.min() < -1e-9 or a.max() > 1 + 1e-9:
        raise ValueError(f"{name} values must lie in [0, 1]")
    return np.clip(a, 0.0, 1.0, out=out)


def _planes(images: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Image, x-gradient and y-gradient stacks (3, n, h, w) of images (n, h, w), written into *out* if given.

    Central differences, one-sided at the borders; ValueError unless h, w >= 3.
    """
    if min(images.shape[1:]) < 3:
        raise ValueError(f"frame too small for gradients: {images.shape[1:]}")
    if out is None:
        out = np.empty((3,) + images.shape)
    out[0] = images
    out[2], out[1] = np.gradient(images, axis=(1, 2))
    return out


def _bilinear(img: np.ndarray, xs, ys, base) -> np.ndarray:
    """Samples at columns xs and rows ys of the plane of the stack img (..., h, w) that starts at flat index base.

    xs varies along the last axis only and ys along the second-to-last, and
    both broadcast against base; the samples take the broadcast shape. So the
    truncation, the clip and the weights run once per sample column or row,
    and only the index and the four gathers are full-size. The points must
    lie inside the image. xs and ys are scratch: they are overwritten.
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
    i = np.add(y0 + base, x0)  # the flat index of each sample's top-left neighbour
    wx = 1 - fx
    # the four neighbours of flat index i are i, i + 1, i + w and i + w + 1
    top = flat[i]
    top *= wx
    right = flat[1:][i]
    right *= fx
    top += right
    bot = flat[w:][i]
    bot *= wx
    # into right's memory: the indices lie inside, so the clip changes none and take makes no copy
    np.take(flat[w + 1 :], i, out=right, mode="clip")
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
    check_box(name, (x0, y0, x1, y1))
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
    base = np.asarray(slot, dtype=np.int64)[:, None, None] * (h * w)
    return _bilinear(stack, us[:, None, :], vs[:, :, None], base)


def canonical_crop(frame, box, size: int) -> np.ndarray:
    """Resample a box to size x size with bilinear interpolation."""
    f = as_frame(frame)
    return _crops(f[None], [0], [_check_box(box, f.shape)], size, size)[0]


def _running_means(padded: np.ndarray, out: np.ndarray, window: int) -> None:
    """out[i] = the mean of padded[i : i + window] along the first axis, summed as scipy.ndimage sums it.

    uniform_filter1d keeps a running sum: it adds the first window's entries in
    order, then adds (entering - leaving) at each step, and divides each sum by
    the window. With the lines between window // 2 zeros at each end, this is
    its mode="constant" filter bit for bit. Each step adds one whole row.
    """
    m = out.shape[0]
    np.add(padded[0], padded[1], out=out[0])
    for i in range(2, window):
        out[0] += padded[i]
    np.subtract(padded[window : window + m - 1], padded[: m - 1], out=out[1:])
    for i in range(1, m):
        out[i] += out[i - 1]
    out /= window


def _box_means(ix: np.ndarray, iy: np.ndarray, window: int, scratch: np.ndarray) -> np.ndarray:
    """The window x window means of ix * ix, ix * iy and iy * iy (n, h, w), laid out (3, w, n, h).

    scipy.ndimage.uniform_filter(p, (1, window, window), mode="constant") bit
    for bit: a pass along the rows' axis, then one along the columns', each
    with the summed axis outermost. scratch is a flat float array of at least
    (max(h, w) + 2 * (window // 2)) * n * max(h, w) entries; it is written.
    """
    n, h, w = ix.shape
    r = window // 2
    means = np.empty((3, w, n, h))
    for mean, (a, b) in zip(means, ((ix, ix), (ix, iy), (iy, iy))):
        rows = scratch[: (h + 2 * r) * n * w].reshape(h + 2 * r, n, w)
        rows[:r] = rows[r + h :] = 0.0
        np.multiply(a.transpose(1, 0, 2), b.transpose(1, 0, 2), out=rows[r : r + h])
        first = mean.reshape(h, n, w)  # the row pass goes into the product's own memory, laid out (h, n, w)
        _running_means(rows, first, window)
        cols = scratch[: (w + 2 * r) * n * h].reshape(w + 2 * r, n, h)
        cols[:r] = cols[r + w :] = 0.0
        cols[r : r + w] = first.transpose(2, 1, 0)
        _running_means(cols, mean, window)
    return means


def _window_max(a: np.ndarray, window: int, spare) -> np.ndarray:
    """Maximum over each window x window block of a (p, n, q) along axes 0 and 2, where the block fits.

    Returns (p - window + 1, n, q - window + 1). Spans double (1, 2, 4, ...)
    by np.maximum over shifted slices, and a last step closes the span at the
    window. The steps alternate between the two flat float arrays *spare*, of
    at least a.size entries each.
    """
    bufs = itertools.cycle(spare)
    for axis in (0, 2):
        span = 1
        while span < window:
            step = min(span, window - span)
            shape = list(a.shape)
            shape[axis] -= step
            lead = (slice(None),) * axis
            out = next(bufs)[: np.prod(shape)].reshape(shape)
            np.maximum(a[lead + (slice(0, shape[axis]),)], a[lead + (slice(step, None),)], out=out)
            a, span = out, span + step
    return a


def _corners(planes: np.ndarray, max_count: int, quality: float, window: int) -> list[np.ndarray]:
    """good_features of each image of planes (3, n, h, w), with batched filters.

    The filters give scipy.ndimage's bits (_box_means, _window_max). The
    response and its local maxima are laid out (w, n, h).
    """
    images, ix, iy = planes
    n, h, w = images.shape
    r = window // 2
    margin = r + 1
    if 2 * margin >= min(h, w):
        return [np.empty((0, 2)) for _ in range(n)]
    scratch = np.empty((max(h, w) + 2 * r) * n * max(h, w))
    sums = _box_means(ix, iy, window, scratch)
    sums *= window * window
    sxx, sxy, syy = sums
    # 0.5 * ((sxx + syy) - sqrt((sxx - syy) ** 2 + 4.0 * sxy * sxy)), formed in place in that order
    root = np.subtract(sxx, syy, out=scratch[: sxx.size].reshape(sxx.shape))
    inner = np.add(sxx, syy, out=sxx)
    np.multiply(sxy, 4.0, out=syy)
    syy *= sxy
    root **= 2
    root += syy
    np.sqrt(root, out=root)
    inner -= root
    inner *= 0.5
    # the response inside the margin; zero beyond it
    for edge in (np.s_[:margin], np.s_[w - margin :], np.s_[:, :, :margin], np.s_[:, :, h - margin :]):
        inner[edge] = 0.0
    best = inner.max(axis=(0, 2))
    least = quality * best
    # local maxima prefilter keeps the greedy suppression loop short; flat images have none. A candidate
    # (a positive response >= least) lies inside the margin, so its window fits in the image and the
    # maximum is needed only where windows fit; it goes into the spent products' memory
    top = _window_max(inner, window, (sxy.reshape(-1), syy.reshape(-1)))
    fit = inner[r : w - r, :, r : h - r]
    peaks = (fit >= least[:, None]) & (fit > 0) & (fit == top)
    xs, ks, ys = np.nonzero(peaks)
    xs += r
    ys += r
    order = np.lexsort((xs, ys, -inner[xs, ks, ys], ks))
    ks, ys, xs = ks[order].tolist(), ys[order].tolist(), xs[order].tolist()
    kept: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for k, y, x in zip(ks, ys, xs):
        got = kept[k]
        if len(got) < max_count and all(max(abs(x - kx), abs(y - ky)) > r for kx, ky in got):
            got.append((x, y))
    return [np.array(got, dtype=np.float64).reshape(-1, 2) for got in kept]


def good_features(frame, max_count: int, quality: float, window: int = 9) -> np.ndarray:
    """Trackable points ranked by the smaller structure-tensor eigenvalue.

    Keeps positive responses >= quality * best, suppresses non-maxima within the
    window radius, truncates to max_count. Returns an (n, 2) array of
    (x, y); empty on flat frames. window, max_count and quality are checked
    by FlowConfig's rules for window, max_features and feature_quality.
    """
    FlowConfig(window=window, max_features=max_count, feature_quality=quality)
    f = as_frame(frame)
    return _corners(_planes(f[None]), max_count, quality, window)[0]


class _Windows(NamedTuple):
    """Source windows of m points: per-axis sample coordinates, samples and structure tensor."""

    pts: np.ndarray  # (m, 2)
    gx: np.ndarray  # (m, window) sample columns; window row r, column c samples (gx[:, c], gy[:, r])
    gy: np.ndarray  # (m, window) sample rows
    patch: np.ndarray  # (m, window area) image, x-gradient and y-gradient samples, row by row
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
    gx = pts[:, 0:1] + offs
    gy = pts[:, 1:2] + offs
    inb = (
        (pts[:, 0] - half >= 0)
        & (pts[:, 0] + half <= w - 1)
        & (pts[:, 1] - half >= 0)
        & (pts[:, 1] + half <= h - 1)
    )
    # image, x gradient and y gradient of every window in one gather
    # src is masked before the plane axis is added, so the base, the index and the samples are in C order
    base = np.asarray(src)[inb, None, None] * (h * w) + np.arange(3)[:, None, None, None] * planes[0].size
    sampled = np.zeros((3, pts.shape[0], offs.size**2))
    sampled[:, inb] = _bilinear(planes, gx[inb][:, None, :], gy[inb][:, :, None], base).reshape(3, -1, offs.size**2)
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
    dst_base = np.asarray(dst)[:, None, None] * (h * w)
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
        # rounding is monotonic, so the first and last column and row are the window's extremes
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
        it = _bilinear(images, tx[:, None, :], ty[:, :, None], dst_base[idx]).reshape(idx.size, -1)
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
    if not ts:
        return [], np.empty((0, size, size))
    # one float stack, filled in place; _check_frames gave these frames one shape
    stack = np.empty((len(ts),) + np.shape(frames[ts[0]]))
    for s, t in enumerate(ts):
        as_frame(frames[t], f"frame {t}", stack[s])
    keys, slots, boxes = [], [], []
    for s, t in enumerate(ts):
        for i, box in enumerate(boxes_per_frame[t]):
            keys.append((t, i))
            slots.append(s)
            boxes.append(_check_box(box, stack.shape[1:], f"box {i} of frame {t}"))
    return keys, _crops(stack, slots, boxes, size, size)


def _scored_pairs(
    frames: Sequence, boxes_per_frame: Sequence[Sequence], cfg: FlowConfig, uf=None, chunks=None
):
    """Motion-coherence score of the compared box pairs: yields (a, b, similarity).

    Boxes in frames t and t + k are compared for k up to gap_max + 1. A pair
    (a, b) scores the fraction of a's valid forward vectors that land inside
    the canvas and track back to within fb_max_error of their origin; a pair
    with no valid vector scores 0. Each box's crop, gradients, corners and
    corner windows are built once and shared by every pair it is in.

    A chunk's pairs are solved in lag waves: those of frames t and t + 1
    first, then those of each longer lag. A pair already in one set of *uf*
    when its wave starts is skipped: the generator resumes only after the
    caller has handled every pair yielded before. Each chunk adds its boxes'
    crops to uf. Without uf, every pair is scored exactly once. Only the pairs
    whose first box lies in *chunks*, ranges of _chunks (default: all of them,
    in any order, taken one at a time once the last one's pairs are yielded),
    are compared.
    """
    _check_frames(frames, boxes_per_frame)
    n = len(frames)
    size = cfg.canonical_size
    # the planes of the live boxes, keys[k] in slot k: at most those of one chunk's frames and the compared ones after
    cap = max(
        (sum(map(len, boxes_per_frame[t0 : t1 + cfg.gap_max + 1])) for t0, t1 in _chunks(boxes_per_frame, cfg)),
        default=0,
    )
    planes = np.empty((3, cap, size, size))
    keys: list[tuple[int, int]] = []
    built = end = 0
    for t0, t1 in _chunks(boxes_per_frame, cfg) if chunks is None else chunks:
        if t0 != end:  # a chunk that does not follow the last one shares no boxes with it
            keys, built = [], t0
        end = t1
        # keep the boxes of frames t0 and later, add those up to the last compared frame
        stale = sum(1 for t, _i in keys if t < t0)
        last = min(t1 + cfg.gap_max + 1, n)
        new_keys, new_crops = _frame_crops(frames, boxes_per_frame, built, last, size)
        built = max(built, last)
        kept = len(keys) - stale
        for plane in planes.reshape(3, -1):  # 1-D moves to the front, which numpy makes without a temporary
            plane[: kept * size * size] = plane[stale * size * size : len(keys) * size * size]
        keys = keys[stale:] + new_keys
        _planes(new_crops, planes[:, kept : len(keys)])
        del new_crops  # held in the buffer now, so not kept while the next chunk is cropped
        n_src = sum(1 for t, _i in keys if t < t1)
        if uf is not None:
            for key, crop in zip(keys[:n_src], planes[0]):
                uf.add(key, crop)
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
                if uf is None or uf.find(a) != uf.find((a[0] + lag, j))
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
        del win  # not kept while the next chunk's state is built


def _fb_scores(planes: np.ndarray, win: _Windows, counts, src, dst, cfg: FlowConfig) -> np.ndarray:
    """Forward-backward score of each pair (src[k], dst[k]) of images of planes.

    Image i's features are the counts[i] consecutive windows of win starting
    after those of images 0 .. i - 1. A score is n_kept / n_valid, the share
    of the features tracked validly forward that also come back within
    fb_max_error, and 0 when none is tracked: it lies in [0, 1].
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
    """Disjoint sets of keys; the root of a set holds the sum of the crops added to its keys."""

    def __init__(self, items):
        self.parent = {k: k for k in items}
        self.sums: dict = {}

    def find(self, k):
        while self.parent[k] != k:
            self.parent[k] = self.parent[self.parent[k]]
            k = self.parent[k]
        return k

    def add(self, k, crop):
        r = self.find(k)
        self.sums[r] = self.sums[r] + crop if r in self.sums else crop.copy()  # not a view of a chunk's planes

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # smaller root wins, to keep grouping order-independent
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra
            if rb in self.sums:
                self.add(ra, self.sums.pop(rb))


def _groups_from_union(uf: _UnionFind, keys) -> list[BoxTrackGroup]:
    clusters: dict = {}
    for k in keys:
        clusters.setdefault(uf.find(k), []).append(k)
    roots = sorted(clusters, key=lambda r: min(clusters[r]))
    return [
        BoxTrackGroup(group_id=i, members=sorted(clusters[r]), crop_sum=uf.sums.get(r))
        for i, r in enumerate(roots)
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
    if given, limits the compared pairs and crop sums as in _scored_pairs.
    """
    if cfg is None:
        cfg = FlowConfig()
    keys = [
        (t, i) for t in range(len(boxes_per_frame)) for i in range(len(boxes_per_frame[t]))
    ]
    uf = _UnionFind(keys)
    # a pair whose boxes are already joined cannot change the partition, so it is not scored
    for a, b, sim in _scored_pairs(frames, boxes_per_frame, cfg, uf, chunks):
        if sim > threshold:
            uf.union(a, b)
    return _groups_from_union(uf, keys)


def merge_groups(groups: list[BoxTrackGroup], merge_threshold: float) -> list[BoxTrackGroup]:
    """Merge groups whose mean canonical appearance correlates.

    Groups that share a member are first joined into one, whose crop sum is
    the sum of theirs. Descriptor = crop sum / member count; groups whose
    Pearson correlation exceeds merge_threshold are joined transitively. The
    result is a coarsening of the joined partition in group_boxes' order,
    whatever the order of *groups*.
    """
    if not all(g.members for g in groups):
        raise ValueError("input groups must not be empty")
    uf = _UnionFind(m for g in groups for m in g.members)
    for g in groups:
        for m in g.members[1:]:
            uf.union(g.members[0], m)
        if g.crop_sum is not None:
            uf.add(g.members[0], g.crop_sum)
    sizes = Counter(map(uf.find, uf.parent))
    heads = sorted(sizes)  # each joined group's smallest member, its root
    missing = [r for r in heads if r not in uf.sums]
    if missing:
        raise ValueError(f"the group of box {missing[0]} holds no crop sum")
    # each descriptor, crop sum / member count, is centred and normalised once; a flat one
    # (range 0) has norm 0 exactly, though its mean can round off its value
    centred = [d - d.mean() for d in (uf.sums[r].ravel() / sizes[r] for r in heads)]
    norms = [np.linalg.norm(d) if np.ptp(d) else 0.0 for d in centred]

    for i in range(len(heads)):
        for j in range(i + 1, len(heads)):
            # a pair already in one merged set cannot change the result
            if uf.find(heads[i]) == uf.find(heads[j]):
                continue
            na, nb = norms[i], norms[j]
            corr = float(np.dot(centred[i], centred[j]) / (na * nb)) if na and nb else 0.0
            if corr > merge_threshold:
                uf.union(heads[i], heads[j])
    return _groups_from_union(uf, sorted(uf.parent))
