"""Deterministic numeric kernels.

All arrays are 64-bit floats in C order. Every function here is pure: same
inputs give bitwise-identical outputs, and reductions keep a fixed order so
repeated calls agree exactly.
"""
from __future__ import annotations

import ctypes
import functools

import numpy as np

from .config import FEATURIZER_STRIDE
from .errors import NumericError, ParameterError

EPS_COSINE = 1e-8

_TAG_FEATURIZER = 0xFEA7

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
# seeding
# ---------------------------------------------------------------------------

def _seed_sequence(keys) -> np.random.SeedSequence:
    """Every seeded draw in the package starts here. Each key is an integer in
    [0, 2**64), so two different keys never name one draw."""
    keys = [int(k) for k in keys]
    if not all(0 <= k < 2 ** 64 for k in keys):
        raise ParameterError(f"seed keys must be integers in [0, 2**64), got {keys}")
    return np.random.SeedSequence(keys)


def rng(*keys: int) -> np.random.Generator:
    return np.random.default_rng(_seed_sequence(keys))


def subseed(*keys: int) -> int:
    return int(_seed_sequence(keys).generate_state(1, dtype=np.uint64)[0])


# ---------------------------------------------------------------------------
# frozen featurizer
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def _featurizer_banks(feat_seed: int, channels: int) -> tuple[np.ndarray, np.ndarray]:
    """Two 3x3 convolution banks derived only from the seed. No bias terms."""
    gen = rng(feat_seed, _TAG_FEATURIZER)
    mid = max(channels // 4, 1)
    w1 = gen.normal(0.0, 1.0 / 3.0, size=(mid, 1, 3, 3))
    w2 = gen.normal(0.0, 1.0 / np.sqrt(9.0 * mid), size=(channels, mid, 3, 3))
    return as_f64(w1), as_f64(w2)


def conv3x3(x: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Same-padding 3x3 convolution, (H,W,Cin) x (Cout,Cin,3,3) -> (H*W, Cout):
    the output map's rows in row-major cell order, as the GEMM returns them."""
    h, w, cin = x.shape
    cout = weights.shape[0]
    if weights.shape != (cout, cin, 3, 3):
        raise ParameterError(f"weight shape {weights.shape} does not match input channels {cin}")
    padded = np.zeros((h + 2, w + 2, cin))
    padded[1:-1, 1:-1] = x
    # im2col as one contiguous (Cin, H, W) slab per tap k = 3*dy + dx; the GEMM
    # reads its transposed (H*W, 9*Cin) view, whose column k*Cin + c is tap k
    # of channel c. The slabs stay channels-first: a C-contiguous or swapped
    # operand may send the GEMM to another BLAS kernel and move low bits.
    cols = np.empty((9, cin, h, w))
    for k in range(9):
        dy, dx = divmod(k, 3)
        cols[k] = padded[dy:dy + h, dx:dx + w].transpose(2, 0, 1)
    wmat = weights.transpose(2, 3, 1, 0).reshape(cin * 9, cout)
    return cols.reshape(cin * 9, h * w).T @ wmat


def avgpool2(x: np.ndarray) -> np.ndarray:
    """2x2 average pooling with stride 2 over (H,W,C)."""
    h, w, _ = x.shape
    if h % 2 or w % 2:
        raise ParameterError(f"pooling needs even spatial dims, got {h}x{w}")
    return 0.25 * (x[0::2, 0::2] + x[0::2, 1::2] + x[1::2, 0::2] + x[1::2, 1::2])


def fixed_featurizer(image: np.ndarray, feat_seed: int, channels: int) -> np.ndarray:
    """Frozen random two-layer conv stack: (S,S) image -> (S/4, S/4, channels).

    Rectified, bias-free, stride-2 pooled twice; weights depend only on
    feat_seed, so pretrain and finetune see identical features.
    """
    image = as_f64(image)
    if image.ndim != 2 or image.shape[0] != image.shape[1]:
        raise ParameterError(f"expected square 2-D image, got shape {image.shape}")
    if image.shape[0] % FEATURIZER_STRIDE != 0:
        raise ParameterError(f"image side must be divisible by {FEATURIZER_STRIDE}")
    x = image[:, :, None]
    for weights in _featurizer_banks(int(feat_seed), channels):
        x = avgpool2(np.maximum(conv3x3(x, weights).reshape(*x.shape[:2], -1), 0.0))
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


def _pair_iou(a: np.ndarray, b: np.ndarray, area_a: np.ndarray, area_b: np.ndarray) -> np.ndarray:
    """IoU of (N,4) boxes against (M,4) boxes whose areas are given.

    Bitwise symmetric: ``min``, ``max`` and ``+`` commute, so entry (i, j)
    equals entry (j, i) of the call with the two sides swapped.
    """
    ix = np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0])
    iy = np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1])
    inter = np.maximum(ix, 0.0) * np.maximum(iy, 0.0)
    union = area_a[:, None] + area_b[None, :] - inter
    out = np.zeros_like(inter)
    np.divide(inter, union, out=out, where=union > 0.0)
    return out


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU, (N,4) x (M,4) -> (N,M).

    The longer set goes on the inner axis, where the broadcasts run over long
    contiguous rows: for N > M the (M,N) result is returned as its transposed
    view, bitwise the (N,M) one because ``_pair_iou`` is symmetric.
    """
    a = np.asarray(a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 4)
    if len(a) > len(b):
        return _pair_iou(b, a, box_area(b), box_area(a)).T
    return _pair_iou(a, b, box_area(a), box_area(b))


def rank(scores) -> np.ndarray:
    """Indices by descending score, ties to the lower index: the package's one ranking."""
    return np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")


NMS_BLOCK = 32


def nms(boxes: np.ndarray, scores: np.ndarray, iou_thresh: float,
        max_keep: int, groups: np.ndarray | None = None) -> np.ndarray:
    """Greedy suppression by descending score, ties broken by lower index.

    Returns kept indices ordered by (score desc, index asc). The pass stops
    once ``max_keep`` boxes are kept, so the result is the first ``max_keep``
    entries of the unlimited result. With ``groups`` (one label
    per box) only boxes of the same group suppress each other; the result is
    then every group's own greedy result merged in (score desc, index asc)
    order, because the pass visits each group's boxes in that group's own
    order and a box is only tested against kept boxes of its group.

    Boxes are ranked once and their areas computed once. Each block of
    NMS_BLOCK ranked rows is then one IoU call against the boxes kept so far
    plus the block itself: a row is suppressed by a kept box ranked above it,
    and those are exactly the kept boxes before the block and the rows kept
    earlier in the block. Greedy NMS tests IoU(kept, later); this tests
    IoU(later, kept), which is bitwise the same value because the IoU
    arithmetic is symmetric, so the kept set does not depend on the block size.
    """
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    n = len(scores)
    if len(boxes) != n:
        raise ParameterError("boxes and scores lengths differ")
    if groups is not None and np.shape(groups) != (n,):
        raise ParameterError(f"groups must hold one label per box, got shape {np.shape(groups)}")
    if max_keep < 0:
        raise ParameterError(f"max_keep must be >= 0, got {max_keep}")
    limit = min(int(max_keep), n)
    order = rank(scores)
    ranked = boxes[order]
    area = box_area(ranked)
    group = None if groups is None else np.asarray(groups)[order]
    kept: list[int] = []
    for s in range(0, n, NMS_BLOCK):
        if len(kept) >= limit:
            break
        e = min(s + NMS_BLOCK, n)
        cols = np.concatenate((np.asarray(kept, dtype=np.int64), np.arange(s, e)))
        over = _pair_iou(ranked[s:e], ranked[cols], area[s:e], area[cols]) > iou_thresh
        if group is not None:
            over &= group[s:e, None] == group[None, cols]
        k = len(kept)
        suppressed = over[:, :k].any(axis=1)
        for r in range(e - s):
            if suppressed[r]:
                continue
            kept.append(s + r)
            if len(kept) >= limit:
                break
            suppressed |= over[r, k:]
    return order[np.asarray(kept, dtype=np.int64)]


def clip_boxes(boxes: np.ndarray, side: float) -> np.ndarray:
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    return np.clip(boxes, 0.0, float(side))


def _anchor_frame(anchors: np.ndarray) -> tuple[np.ndarray, ...]:
    """Widths, heights and centre x, y of (N,4) anchors of positive size."""
    anchors = np.asarray(anchors, dtype=np.float64).reshape(-1, 4)
    aw = anchors[:, 2] - anchors[:, 0]
    ah = anchors[:, 3] - anchors[:, 1]
    if np.any(aw <= 0) or np.any(ah <= 0):
        raise ParameterError("anchors must have positive width and height")
    return aw, ah, anchors[:, 0] + 0.5 * aw, anchors[:, 1] + 0.5 * ah


def encode_boxes(boxes: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """Center/log-size deltas of boxes relative to anchors, (N,4) each."""
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    aw, ah, acx, acy = _anchor_frame(anchors)
    w = boxes[:, 2] - boxes[:, 0]
    h = boxes[:, 3] - boxes[:, 1]
    cx = boxes[:, 0] + 0.5 * w
    cy = boxes[:, 1] + 0.5 * h
    return np.stack([(cx - acx) / aw, (cy - acy) / ah, np.log(w / aw), np.log(h / ah)], axis=1)


def decode_boxes(deltas: np.ndarray, anchors: np.ndarray, side: float) -> np.ndarray:
    """Inverse of encode_boxes, clipped to [0, side]."""
    deltas = np.asarray(deltas, dtype=np.float64).reshape(-1, 4)
    aw, ah, acx, acy = _anchor_frame(anchors)
    # huge deltas overflow to inf or NaN quietly: clipping bounds inf rows, and
    # propose drops rows without a positive size
    with np.errstate(over="ignore", invalid="ignore"):
        cx = deltas[:, 0] * aw + acx
        cy = deltas[:, 1] * ah + acy
        w = np.exp(deltas[:, 2]) * aw
        h = np.exp(deltas[:, 3]) * ah
        boxes = np.stack([cx - 0.5 * w, cy - 0.5 * h, cx + 0.5 * w, cy + 0.5 * h], axis=1)
    return clip_boxes(boxes, side)


# ---------------------------------------------------------------------------
# anchors and ROI pooling
# ---------------------------------------------------------------------------

def generate_anchors(grid_h: int, grid_w: int, stride: float, scales) -> np.ndarray:
    """(A, 4) square anchors on a regular cell lattice.

    Flat ordering is row-major cells, then scales: index = cell * len(scales) + s.
    """
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
    return np.ascontiguousarray(boxes.reshape(-1, 4))


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


def _row_sum(a: np.ndarray) -> np.ndarray:
    """Sum of a (n, ...) array over its first axis in the order numpy's
    add.reduce sums a contiguous row of n numbers. Each step is one
    whole-array add in place in a; the sum is returned as the view a[0].

    Under 8 terms: left to right. Up to 128: eight strided partial sums
    r[j] = a[j] + a[j+8] + ..., combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)),
    then the last n % 8 terms. Beyond: the sums of the two halves split at
    n // 2 rounded down to a multiple of 8. Numpy's reduce starts from its
    +0.0 identity, whose only effect is to turn a -0.0 sum into +0.0; adding
    +0.0 at the end of every level has the same effect.
    """
    n = len(a)
    if n > 128:
        h = n // 2 - n // 2 % 8
        s = _row_sum(a[:h])
        s += _row_sum(a[h:])
    else:
        m = n - n % 8
        if m:
            for i in range(8, m, 8):
                a[:8] += a[i:i + 8]
            a[0:8:2] += a[1:8:2]
            a[0:8:4] += a[2:8:4]
            a[0] += a[4]
        s = a[0]
        for x in a[max(m, 1):]:
            s += x
    s += 0.0
    return s


def roi_pool(feat: np.ndarray, boxes, bins: int, stride: float, batch_idx) -> np.ndarray:
    """Adaptive average pooling of image-coordinate boxes over feature maps.

    feat is one (H,W,C) map or a (B,H,W,C) stack of maps. batch_idx holds
    each box's map in the stack, as torchvision's batch index does; it is
    None for one map, a stack of one whose boxes all lie on map 0. Each
    (x1, y1, x2, y2) row is mapped into feature cells, clamped to cover at
    least one cell, split into bins x bins integer cell ranges, and each bin
    averages its cells. Returns (N, C * bins * bins) rows ordered channel,
    bin row, bin column; zero boxes give a (0, C * bins * bins) array.

    A bin's mean is bitwise numpy's mean of each channel's window,
    ``np.moveaxis(feat, -1, 0)[:, ys:ye, xs:xe].mean(axis=(1, 2))``: numpy sums
    a window's n cells in row-major order, pairwise (left to right under 8
    cells, eight strided partial sums up to 128, two halves beyond), then
    divides by n. So the windows are grouped by n, each group's cells are
    gathered from the maps' (cells, C) rows as one (n, K, C) array, and
    ``_row_sum`` adds them in that order with whole (K, C) adds, not one short
    reduction per window; ``test_row_sum_matches_numpy_reduce`` guards the
    order against numpy's.
    A summed-area table or a zero-padded gather would change the low bits.
    Every window is summed on its own, so a box's row has the same bits
    whichever other boxes and maps share the call.
    """
    feat = np.asarray(feat, dtype=np.float64)
    if feat.ndim == 3:
        feat = feat[None]
    elif feat.ndim != 4 or batch_idx is None:
        raise ParameterError(f"feature maps must be one (H,W,C) map or a (B,H,W,C) stack "
                             f"with a batch index per box, got {feat.shape}")
    if bins < 1:
        raise ParameterError(f"bins must be >= 1, got {bins}")
    nb, fh, fw, c = feat.shape
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    n = len(boxes)
    batch = np.zeros(n, dtype=np.int64) if batch_idx is None else np.asarray(batch_idx)
    if batch.shape != (n,) or batch.dtype.kind not in "iu" or (
            n and not 0 <= batch.min() <= batch.max() < nb):
        raise ParameterError(f"batch_idx must hold one map index in [0, {nb}) per box, "
                             f"got {batch.dtype} {batch.shape} for {n} boxes")
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
    # one window per (box, bin row, bin column), in output order; its first
    # cell indexes the stack's cells, map-major then row-major
    first = (batch[:, None, None] * (fh * fw) + ys[:, :, None] * fw + xs[:, None, :]).reshape(-1)
    width = np.broadcast_to(ws[:, None, :], (n, bins, bins)).reshape(-1)
    count = (hs[:, :, None] * ws[:, None, :]).reshape(-1)
    table = feat.reshape(-1, c)  # (B*H*W, C)
    out = np.empty((len(count), c))
    order = np.argsort(count, kind="stable")
    sizes, starts = np.unique(count[order], return_index=True)
    ends = [*starts[1:].tolist(), len(order)]
    for size, a, b in zip(sizes.tolist(), starts.tolist(), ends):
        sel = order[a:b]
        j = np.arange(size)[:, None]
        w = width[sel]
        cells = first[sel] + (j // w) * fw + j % w  # (n, K), row-major within the window
        out[sel] = _row_sum(table[cells]) / size
    pooled = out.reshape(n, bins * bins, c).transpose(0, 2, 1)
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
