"""Deterministic numeric kernels.

All arrays are 64-bit floats in C order. Every function here is pure: same
inputs give bitwise-identical outputs, and reductions keep a fixed order so
repeated calls agree exactly.
"""
from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ParameterError

EPS_COSINE = 1e-8

_OPENBLAS_SET_THREADS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                         "openblas_set_num_threads64_", "openblas_set_num_threads")


def _pin_openblas_to_one_thread() -> None:
    """Run every OpenBLAS mapped into this process on one thread.

    The kernels here multiply small matrices. OpenBLAS would split them across
    threads whose idle worker then spin-waits on a core; parallelism comes from
    multirun's processes instead. numpy is loaded before this package, too
    late for OPENBLAS_NUM_THREADS, so the loaded library's own setter is
    called. OpenBLAS partitions a GEMM's outputs, not its sums, so results are
    bitwise the same. Without /proc or without OpenBLAS this does nothing.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {f[5].strip() for f in (line.split(None, 5) for line in maps)
                     if len(f) == 6 and "openblas" in f[5].lower()}
    except OSError:
        return
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        name = next((n for n in _OPENBLAS_SET_THREADS if hasattr(lib, n)), None)
        if name is not None:
            setter = getattr(lib, name)
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)


_pin_openblas_to_one_thread()


def as_f64(x) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(x, dtype=np.float64))


# ---------------------------------------------------------------------------
# frozen featurizer
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def _featurizer_banks(feat_seed: int, channels: int) -> tuple[np.ndarray, np.ndarray]:
    """Two 3x3 convolution banks derived only from the seed. No bias terms."""
    rng = np.random.default_rng(np.random.SeedSequence([int(feat_seed) & 0xFFFFFFFFFFFFFFFF, 0xFEA7]))
    mid = max(channels // 4, 1)
    w1 = rng.normal(0.0, 1.0 / 3.0, size=(mid, 1, 3, 3))
    w2 = rng.normal(0.0, 1.0 / np.sqrt(9.0 * mid), size=(channels, mid, 3, 3))
    return as_f64(w1), as_f64(w2)


def conv3x3(x: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Same-padding 3x3 convolution, (Cin,H,W) x (Cout,Cin,3,3) -> (Cout,H,W)."""
    cin, h, w = x.shape
    cout = weights.shape[0]
    if weights.shape != (cout, cin, 3, 3):
        raise ParameterError(f"weight shape {weights.shape} does not match input channels {cin}")
    padded = np.zeros((cin, h + 2, w + 2))
    padded[:, 1:-1, 1:-1] = x
    cols = np.empty((h * w, cin * 9))
    k = 0
    for dy in range(3):
        for dx in range(3):
            cols[:, k * cin:(k + 1) * cin] = padded[:, dy:dy + h, dx:dx + w].reshape(cin, -1).T
            k += 1
    wmat = weights.transpose(2, 3, 1, 0).reshape(cin * 9, cout)
    out = cols @ wmat
    return np.ascontiguousarray(out.T.reshape(cout, h, w))


def avgpool2(x: np.ndarray) -> np.ndarray:
    """2x2 average pooling with stride 2 over (C,H,W)."""
    c, h, w = x.shape
    if h % 2 or w % 2:
        raise ParameterError(f"pooling needs even spatial dims, got {h}x{w}")
    return 0.25 * (x[:, 0::2, 0::2] + x[:, 0::2, 1::2] + x[:, 1::2, 0::2] + x[:, 1::2, 1::2])


def fixed_featurizer(image: np.ndarray, feat_seed: int, channels: int = 32) -> np.ndarray:
    """Frozen random two-layer conv stack: (S,S) image -> (channels, S/4, S/4).

    Rectified, bias-free, stride-2 pooled twice; weights depend only on
    feat_seed, so pretrain and finetune see identical features.
    """
    image = as_f64(image)
    if image.ndim != 2 or image.shape[0] != image.shape[1]:
        raise ParameterError(f"expected square 2-D image, got shape {image.shape}")
    if image.shape[0] % 4 != 0:
        raise ParameterError("image side must be divisible by 4")
    w1, w2 = _featurizer_banks(int(feat_seed), channels)
    x = conv3x3(image[None, :, :], w1)
    x = avgpool2(np.maximum(x, 0.0))
    x = conv3x3(x, w2)
    x = avgpool2(np.maximum(x, 0.0))
    if not np.isfinite(x).all():
        raise NumericError("featurizer output is not finite; the image holds NaN or inf")
    return x


# ---------------------------------------------------------------------------
# dense algebra
# ---------------------------------------------------------------------------

def linear_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """y = x @ w.T + b with strict shape checking."""
    x, w, b = as_f64(x), as_f64(w), as_f64(b)
    if x.ndim != 2 or w.ndim != 2 or b.ndim != 1:
        raise ParameterError("linear_forward expects x(N,Din), w(Dout,Din), b(Dout)")
    if x.shape[1] != w.shape[1] or w.shape[0] != b.shape[0]:
        raise ParameterError(f"shape mismatch: x{x.shape} w{w.shape} b{b.shape}")
    return x @ w.T + b


def sigmoid(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-stable softmax over the last axis."""
    logits = np.asarray(logits, dtype=np.float64)
    if np.isnan(logits).any():
        raise NumericError("softmax received NaN input")
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def smooth_l1(x: np.ndarray) -> np.ndarray:
    """0.5*x^2 inside the unit interval, |x|-0.5 outside."""
    x = np.asarray(x, dtype=np.float64)
    ax = np.abs(x)
    return np.where(ax < 1.0, 0.5 * x * x, ax - 0.5)


def smooth_l1_grad(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return np.clip(x, -1.0, 1.0)


# ---------------------------------------------------------------------------
# box geometry
# ---------------------------------------------------------------------------

def box_area(boxes: np.ndarray) -> np.ndarray:
    boxes = np.asarray(boxes, dtype=np.float64)
    return np.maximum(boxes[..., 2] - boxes[..., 0], 0.0) * np.maximum(boxes[..., 3] - boxes[..., 1], 0.0)


def iou(a, b) -> float:
    """Intersection over union of two (x1,y1,x2,y2) boxes; 0 when the union is empty."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    ix = min(a[2], b[2]) - max(a[0], b[0])
    iy = min(a[3], b[3]) - max(a[1], b[1])
    if ix <= 0.0 or iy <= 0.0:
        inter = 0.0
    else:
        inter = ix * iy
    union = float(box_area(a)) + float(box_area(b)) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU, (N,4) x (M,4) -> (N,M)."""
    a = np.asarray(a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 4)
    ix = np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0])
    iy = np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1])
    inter = np.maximum(ix, 0.0) * np.maximum(iy, 0.0)
    union = box_area(a)[:, None] + box_area(b)[None, :] - inter
    out = np.zeros_like(inter)
    np.divide(inter, union, out=out, where=union > 0.0)
    return out


NMS_BLOCK = 64


def nms(boxes: np.ndarray, scores: np.ndarray, iou_thresh: float,
        max_keep: int | None = None) -> np.ndarray:
    """Greedy suppression by descending score, ties broken by lower index.

    Returns kept indices ordered by (score desc, index asc). With ``max_keep``
    the pass stops once that many boxes are kept, so the result is the first
    ``max_keep`` entries of the unlimited result.

    Boxes are ranked once; IoU is then computed for a block of NMS_BLOCK
    ranked rows against every box ranked at or after the block's first row,
    and each kept row's overlaps are OR-ed into the suppression mask. A block
    whose rows are all suppressed already is skipped. Every IoU element is the
    same elementwise float64 arithmetic as a one-row ``iou_matrix`` call, so
    the kept set does not depend on the block size.
    """
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    n = len(scores)
    if len(boxes) != n:
        raise ParameterError("boxes and scores lengths differ")
    if max_keep is not None and max_keep < 0:
        raise ParameterError(f"max_keep must be >= 0, got {max_keep}")
    limit = n if max_keep is None else min(int(max_keep), n)
    order = np.lexsort((np.arange(n), -scores))
    ranked = boxes[order]
    kept: list[int] = []
    suppressed = np.zeros(n, dtype=bool)
    for s in range(0, n, NMS_BLOCK):
        if len(kept) >= limit:
            break
        e = min(s + NMS_BLOCK, n)
        if suppressed[s:e].all():
            continue
        over = iou_matrix(ranked[s:e], ranked[s:]) > iou_thresh
        tail = suppressed[s:]
        for r in range(e - s):
            if tail[r]:
                continue
            kept.append(s + r)
            if len(kept) >= limit:
                break
            tail |= over[r]
    return order[np.asarray(kept, dtype=np.int64)]


def clip_boxes(boxes: np.ndarray, side: float) -> np.ndarray:
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    return np.clip(boxes, 0.0, float(side))


def encode_boxes(boxes: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """Center/log-size deltas of boxes relative to anchors, (N,4) each."""
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    anchors = np.asarray(anchors, dtype=np.float64).reshape(-1, 4)
    aw = anchors[:, 2] - anchors[:, 0]
    ah = anchors[:, 3] - anchors[:, 1]
    if np.any(aw <= 0) or np.any(ah <= 0):
        raise ParameterError("anchors must have positive width and height")
    acx = anchors[:, 0] + 0.5 * aw
    acy = anchors[:, 1] + 0.5 * ah
    w = boxes[:, 2] - boxes[:, 0]
    h = boxes[:, 3] - boxes[:, 1]
    cx = boxes[:, 0] + 0.5 * w
    cy = boxes[:, 1] + 0.5 * h
    return np.stack([(cx - acx) / aw, (cy - acy) / ah, np.log(w / aw), np.log(h / ah)], axis=1)


def decode_boxes(deltas: np.ndarray, anchors: np.ndarray, side: float | None = None) -> np.ndarray:
    """Inverse of encode_boxes; optionally clips to [0, side]."""
    deltas = np.asarray(deltas, dtype=np.float64).reshape(-1, 4)
    anchors = np.asarray(anchors, dtype=np.float64).reshape(-1, 4)
    aw = anchors[:, 2] - anchors[:, 0]
    ah = anchors[:, 3] - anchors[:, 1]
    if np.any(aw <= 0) or np.any(ah <= 0):
        raise ParameterError("anchors must have positive width and height")
    acx = anchors[:, 0] + 0.5 * aw
    acy = anchors[:, 1] + 0.5 * ah
    cx = deltas[:, 0] * aw + acx
    cy = deltas[:, 1] * ah + acy
    w = np.exp(deltas[:, 2]) * aw
    h = np.exp(deltas[:, 3]) * ah
    boxes = np.stack([cx - 0.5 * w, cy - 0.5 * h, cx + 0.5 * w, cy + 0.5 * h], axis=1)
    if side is not None:
        boxes = clip_boxes(boxes, side)
    return boxes


# ---------------------------------------------------------------------------
# anchors and ROI pooling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnchorGrid:
    """Square anchors on a regular cell lattice.

    Flat ordering is row-major cells, then scales: index = cell * len(scales) + s.
    """

    boxes: np.ndarray  # (A, 4)
    stride: float
    scales: tuple[float, ...]
    grid_h: int
    grid_w: int

    def __len__(self) -> int:
        return self.boxes.shape[0]

    def scale_index(self) -> np.ndarray:
        return np.tile(np.arange(len(self.scales)), self.grid_h * self.grid_w)

    def cell_index(self) -> np.ndarray:
        return np.repeat(np.arange(self.grid_h * self.grid_w), len(self.scales))

    def centers(self) -> np.ndarray:
        """(A, 2) anchor centers as (cx, cy)."""
        return 0.5 * (self.boxes[:, 0:2] + self.boxes[:, 2:4])


def generate_anchors(grid_h: int, grid_w: int, stride: float, scales) -> AnchorGrid:
    if grid_h <= 0 or grid_w <= 0:
        raise ParameterError("anchor grid dims must be positive")
    scales = tuple(float(s) for s in scales)
    rows, cols = np.meshgrid(np.arange(grid_h), np.arange(grid_w), indexing="ij")
    cx = (cols.reshape(-1) + 0.5) * stride
    cy = (rows.reshape(-1) + 0.5) * stride
    boxes = np.empty((grid_h * grid_w, len(scales), 4))
    for s, side in enumerate(scales):
        half = 0.5 * side
        boxes[:, s, 0] = cx - half
        boxes[:, s, 1] = cy - half
        boxes[:, s, 2] = cx + half
        boxes[:, s, 3] = cy + half
    return AnchorGrid(
        boxes=np.ascontiguousarray(boxes.reshape(-1, 4)),
        stride=float(stride),
        scales=scales,
        grid_h=grid_h,
        grid_w=grid_w,
    )


def _bin_edges(lo: np.ndarray, hi: np.ndarray, bins: int) -> tuple[np.ndarray, np.ndarray]:
    """(N, bins) first cell and cell count of each bin of the cell ranges [lo, hi).

    Bin b starts at lo + floor(b*span/bins) and ends at lo + ceil((b+1)*span/bins),
    covering at least one cell.
    """
    span = (hi - lo)[:, None]
    b = np.arange(bins)
    start = lo[:, None] + (b * span) // bins
    end = np.maximum(lo[:, None] + -(-((b + 1) * span) // bins), start + 1)
    return start, end - start


def roi_pool(feat: np.ndarray, boxes, bins: int, stride: float) -> np.ndarray:
    """Adaptive average pooling of image-coordinate boxes over a feature map.

    Each (x1, y1, x2, y2) row is mapped into feature cells, clamped to cover at
    least one cell, split into bins x bins integer cell ranges, and each bin
    averages its cells. Returns (N, C * bins * bins) rows ordered channel,
    bin row, bin column; zero boxes give a (0, C * bins * bins) array.

    A bin's mean is bitwise that of ``feat[:, ys:ye, xs:xe].mean(axis=(1, 2))``:
    numpy sums a window's cells pairwise in row-major order, so the windows are
    grouped by cell count n, each group's cells are gathered into a C-contiguous
    (C, K, n) array and averaged over the last axis. A summed-area table or a
    zero-padded gather would change the low bits.
    """
    feat = np.asarray(feat, dtype=np.float64)
    if feat.ndim != 3:
        raise ParameterError(f"feature map must be (C,H,W), got {feat.shape}")
    if bins < 1:
        raise ParameterError(f"bins must be >= 1, got {bins}")
    c, fh, fw = feat.shape
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    n = len(boxes)
    x1, y1, x2, y2 = (boxes / stride).T
    bad = ~(np.isfinite(boxes).all(axis=1) & (x2 > 0) & (y2 > 0) & (x1 < fw)
            & (y1 < fh) & (x2 > x1) & (y2 > y1))
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise ParameterError(f"box row {i} {tuple(boxes[i].tolist())} is empty after "
                             f"mapping to the feature map or lies outside it")
    cx1 = np.clip(np.floor(x1), 0, fw - 1).astype(np.int64)
    cy1 = np.clip(np.floor(y1), 0, fh - 1).astype(np.int64)
    cx2 = np.maximum(np.minimum(np.ceil(x2), fw).astype(np.int64), cx1 + 1)
    cy2 = np.maximum(np.minimum(np.ceil(y2), fh).astype(np.int64), cy1 + 1)
    ys, hs = _bin_edges(cy1, cy2, bins)
    xs, ws = _bin_edges(cx1, cx2, bins)
    # one window per (box, bin row, bin column), in output order
    first = (ys[:, :, None] * fw + xs[:, None, :]).reshape(-1)
    width = np.broadcast_to(ws[:, None, :], (n, bins, bins)).reshape(-1)
    count = (hs[:, :, None] * ws[:, None, :]).reshape(-1)
    flat = feat.reshape(c, fh * fw)
    out = np.empty((c, len(count)))
    order = np.argsort(count, kind="stable")
    sizes, starts = np.unique(count[order], return_index=True)
    ends = [*starts[1:].tolist(), len(order)]
    for size, a, b in zip(sizes.tolist(), starts.tolist(), ends):
        sel = order[a:b]
        j = np.arange(size)
        w = width[sel, None]
        cells = first[sel, None] + (j // w) * fw + j % w  # row-major within the window
        out[:, sel] = np.take(flat, cells, axis=1).mean(axis=-1)
    pooled = out.reshape(c, n, bins * bins).transpose(1, 0, 2)
    return np.ascontiguousarray(pooled).reshape(n, c * bins * bins)


# ---------------------------------------------------------------------------
# classifiers
# ---------------------------------------------------------------------------

def cosine_logits(feat: np.ndarray, w: np.ndarray, scale: float) -> np.ndarray:
    """scale * cos(feat_i, w_c) with epsilon-smoothed L2 normalization."""
    feat = np.asarray(feat, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    fn = feat / np.sqrt((feat * feat).sum(axis=1, keepdims=True) + EPS_COSINE**2)
    wn = w / np.sqrt((w * w).sum(axis=1, keepdims=True) + EPS_COSINE**2)
    return scale * (fn @ wn.T)
