"""Independent reference implementations used to check fast paths.

None of them calls the package code it checks, so agreement is evidence
rather than tautology. Most are plain Python loops; ``matrix_nms_oracle`` is a
numpy pass over its own IoU matrix, checked against the list-based NMS
oracles on small cases; ``finite_difference_check`` compares the package's
analytic gradients with central differences of its loss values.
"""

import math

import numpy as np

from retentive.errors import ParameterError
from retentive.losses import compute_gradients


def iou_scalar(a, b) -> float:
    ix1 = max(a[0], b[0])
    iy1 = max(a[1], b[1])
    ix2 = min(a[2], b[2])
    iy2 = min(a[3], b[3])
    iw = max(0.0, ix2 - ix1)
    ih = max(0.0, iy2 - iy1)
    inter = iw * ih
    area_a = max(0.0, a[2] - a[0]) * max(0.0, a[3] - a[1])
    area_b = max(0.0, b[2] - b[0]) * max(0.0, b[3] - b[1])
    union = area_a + area_b - inter
    return 0.0 if union <= 0 else inter / union


def nms_oracle(boxes, scores, iou_thresh) -> list[int]:
    """Greedy keep-best suppression, list-based."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    kept = []
    alive = set(order)
    for i in order:
        if i not in alive:
            continue
        kept.append(i)
        alive.discard(i)
        for j in list(alive):
            if iou_scalar(boxes[i], boxes[j]) > iou_thresh:
                alive.discard(j)
    return kept


def grouped_nms_oracle(boxes, scores, iou_thresh, groups) -> list[int]:
    """``nms_oracle`` run on each group's boxes alone, the kept indices merged
    in (score desc, index asc) order."""
    kept = []
    for g in sorted(set(groups)):
        members = [i for i in range(len(scores)) if groups[i] == g]
        sub = nms_oracle([boxes[i] for i in members], [scores[i] for i in members], iou_thresh)
        kept += [members[j] for j in sub]
    return sorted(kept, key=lambda i: (-scores[i], i))


def iou_matrix_oracle(a, b) -> np.ndarray:
    """(len(a), len(b)) IoU of every pair, in ``iou_scalar``'s arithmetic."""
    a = np.asarray(a, dtype=np.float64).reshape(-1, 1, 4)
    b = np.asarray(b, dtype=np.float64).reshape(1, -1, 4)
    iw = np.maximum(0.0, np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0]))
    ih = np.maximum(0.0, np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1]))
    inter = iw * ih
    area_a = np.maximum(0.0, a[..., 2] - a[..., 0]) * np.maximum(0.0, a[..., 3] - a[..., 1])
    area_b = np.maximum(0.0, b[..., 2] - b[..., 0]) * np.maximum(0.0, b[..., 3] - b[..., 1])
    union = area_a + area_b - inter
    return np.where(union > 0, inter / np.where(union > 0, union, 1.0), 0.0)


def matrix_nms_oracle(boxes, scores, iou_thresh, groups=None) -> list[int]:
    """``nms_oracle`` (``grouped_nms_oracle`` with groups) as one greedy pass
    over a precomputed suppression matrix: a box is kept unless a kept box of
    its group, ranked above it, overlaps it by more than iou_thresh."""
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    over = iou_matrix_oracle(boxes, boxes) > iou_thresh
    if groups is not None:
        labels = np.asarray(groups).reshape(-1)
        over &= labels[:, None] == labels[None, :]
    alive = np.ones(len(scores), dtype=bool)
    kept = []
    for i in sorted(range(len(scores)), key=lambda i: (-scores[i], i)):
        if alive[i]:
            kept.append(i)
            alive &= ~over[i]
    return kept


def conv3x3_oracle(x, weights):
    """Same-padding 3x3 convolution as one GEMM over an im2col matrix filled
    one entry at a time: row y * W + x, column (3 * dy + dx) * Cin + c holds
    input channel c at (y + dy - 1, x + dx - 1), zero outside the image.

    The GEMM is numpy's on a C-contiguous matrix, so its bits match the
    package's only if the package multiplies the same columns in the same
    order, whatever memory layout it fills them in.
    """
    x = np.asarray(x, dtype=np.float64)
    cin, h, w = x.shape
    cout = weights.shape[0]
    cols = np.zeros((h * w, 9 * cin))
    wmat = np.empty((9 * cin, cout))
    for dy in range(3):
        for dx in range(3):
            for c in range(cin):
                col = (3 * dy + dx) * cin + c
                wmat[col] = weights[:, c, dy, dx]
                for yy in range(max(1 - dy, 0), min(h + 1 - dy, h)):
                    for xx in range(max(1 - dx, 0), min(w + 1 - dx, w)):
                        cols[yy * w + xx, col] = x[c, yy + dy - 1, xx + dx - 1]
    return np.ascontiguousarray((cols @ wmat).T.reshape(cout, h, w))


def roi_pool_oracle(feat, box, bins, stride):
    """Adaptive average pooling of one box, one ``ndarray.mean`` per bin.

    Returns a flat (C * bins * bins) vector; raises ValueError for a box that
    is empty after mapping to the feature map or lies outside it.
    """
    feat = np.asarray(feat, dtype=np.float64)
    c, fh, fw = feat.shape
    x1, y1, x2, y2 = (float(v) / stride for v in box)
    if x2 <= 0 or y2 <= 0 or x1 >= fw or y1 >= fh or x2 <= x1 or y2 <= y1:
        raise ValueError(f"box {tuple(box)} is empty after mapping to the feature map")
    cx1 = min(max(int(np.floor(x1)), 0), fw - 1)
    cy1 = min(max(int(np.floor(y1)), 0), fh - 1)
    cx2 = max(min(int(np.ceil(x2)), fw), cx1 + 1)
    cy2 = max(min(int(np.ceil(y2)), fh), cy1 + 1)
    w_span = cx2 - cx1
    h_span = cy2 - cy1
    out = np.empty((c, bins, bins))
    for by in range(bins):
        ys = cy1 + (by * h_span) // bins
        ye = cy1 + -(-((by + 1) * h_span) // bins)  # ceil division
        ye = max(ye, ys + 1)
        for bx in range(bins):
            xs = cx1 + (bx * w_span) // bins
            xe = cx1 + -(-((bx + 1) * w_span) // bins)
            xe = max(xe, xs + 1)
            out[:, by, bx] = feat[:, ys:ye, xs:xe].mean(axis=(1, 2))
    return out.reshape(-1)


def _match_prefix(rows, gt_boxes, iou_thresh, prefix):
    """One-to-one greedy matching of the top-`prefix` detections.

    rows: list of (image_index, score, box) already in arrival order.
    Ranking is score-descending, stable in arrival order. Returns the number
    of true positives in the prefix.
    """
    order = sorted(range(len(rows)), key=lambda i: (-rows[i][1], i))[:prefix]
    claimed = {img: [False] * len(b) for img, b in enumerate(gt_boxes)}
    tp = 0
    for i in order:
        img, _, box = rows[i]
        best_iou, best_j = -1.0, -1
        for j, g in enumerate(gt_boxes[img]):
            if claimed[img][j]:
                continue
            v = iou_scalar(box, g)
            if v > best_iou:
                best_iou, best_j = v, j
        if best_j >= 0 and best_iou >= iou_thresh:
            claimed[img][best_j] = True
            tp += 1
    return tp


def ap_exhaustive_oracle(rows, gt_boxes, iou_thresh) -> float | None:
    """All-points AP by enumerating every score cutoff.

    rows: flat list of (image_index, score, box) for one class, in arrival
    order. gt_boxes: per-image list/array of that class's true boxes.
    Computes a PR point per prefix length and integrates the envelope.
    """
    n_gt = sum(len(b) for b in gt_boxes)
    if n_gt == 0:
        return None
    if not rows:
        return 0.0
    points = []
    for prefix in range(1, len(rows) + 1):
        tp = _match_prefix(rows, gt_boxes, iou_thresh, prefix)
        points.append((tp / n_gt, tp / prefix))
    ap = 0.0
    prev_r = 0.0
    for r in sorted({r for r, _ in points}):
        if r <= prev_r:
            continue
        best_p = max(p for rr, p in points if rr >= r)
        ap += (r - prev_r) * best_p
        prev_r = r
    return ap


def ap_single_threshold_oracle(dets_per_image, records, class_id, iou_thresh) -> float | None:
    """AP of one class at one threshold, the way the evaluator computed it one
    threshold at a time: one greedy claim walk over the ranked detections,
    then the cumulative-sum PR curve with the precision envelope.

    Takes the evaluator's own inputs (per-image ``Detection`` lists and scene
    records), so its result can be compared with the evaluator's exactly.
    """
    gt_boxes = [rec.boxes[rec.labels == class_id] for rec in records]
    n_gt = int(sum(len(b) for b in gt_boxes))
    if n_gt == 0:
        return None
    rows = [(img, float(d.score), np.asarray(d.box, dtype=np.float64))
            for img, dets in enumerate(dets_per_image) for d in dets if d.class_id == class_id]
    if not rows:
        return 0.0
    order = np.argsort(-np.asarray([r[1] for r in rows]), kind="stable")
    claimed = [np.zeros(len(b), dtype=bool) for b in gt_boxes]
    tp = np.zeros(len(rows))
    for rank, det_idx in enumerate(order):
        img, _, box = rows[det_idx]
        if len(gt_boxes[img]) == 0:
            continue
        overlaps = np.array([iou_scalar(box, g) for g in gt_boxes[img]])
        overlaps = np.where(claimed[img], -1.0, overlaps)
        best = int(np.argmax(overlaps))
        if overlaps[best] >= iou_thresh:
            claimed[img][best] = True
            tp[rank] = 1.0
    ctp = np.cumsum(tp)
    cfp = np.cumsum(1.0 - tp)
    recall = ctp / n_gt
    precision = ctp / (ctp + cfp)
    mrec = np.concatenate([[0.0], recall, [1.0]])
    mpre = np.concatenate([[0.0], precision, [0.0]])
    mpre = np.maximum.accumulate(mpre[::-1])[::-1]
    return float(np.sum((mrec[1:] - mrec[:-1]) * mpre[1:]))


def recall_exhaustive_oracle(candidates, gts, k, iou_thresh) -> float | None:
    """Covered-instance fraction by brute-force pair checks.

    candidates: per image (boxes, scores); gts: per image array of boxes.
    The top-k boxes per image by score (ties by position) are eligible.
    """
    matched = 0
    total = 0
    for (boxes, scores), gt in zip(candidates, gts):
        total += len(gt)
        order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))[:k]
        for g in gt:
            if any(iou_scalar(boxes[i], g) >= iou_thresh for i in order):
                matched += 1
    if total == 0:
        return None
    return matched / total


def recall_single_k_oracle(candidates, records, k, iou_thresh, class_filter="all"):
    """Recall at one k, the way the evaluator computed it one k at a time: per
    image, rank the candidates by score with ties in arrival order, keep the
    top k, and count the filtered instances that any kept box covers.

    Takes the evaluator's own inputs (per-image (boxes, scores) and scene
    records), so its result can be compared with the evaluator's exactly.
    """
    matched = 0
    total = 0
    for (boxes, scores), rec in zip(candidates, records):
        keep = {"all": np.ones(len(rec.labels), dtype=bool),
                "unseen": ~rec.annotated}[class_filter]
        gts = rec.boxes[keep]
        total += len(gts)
        if len(gts) == 0 or len(boxes) == 0 or k == 0:
            continue
        order = np.lexsort((np.arange(len(scores)), -np.asarray(scores)))[:k]
        for g in gts:
            if max(iou_scalar(g, boxes[i]) for i in order) >= iou_thresh:
                matched += 1
    if total == 0:
        return None
    return matched / total


def random_ap_instance(rng, max_dets=10, max_gt=5, images=3):
    """A small random evaluation problem with score ties."""
    gt_boxes = []
    for _ in range(images):
        m = int(rng.integers(0, max_gt + 1))
        b = rng.uniform(0, 40, size=(m, 2))
        gt_boxes.append(np.hstack([b, b + rng.uniform(4, 20, size=(m, 2))]))
    rows = []
    n = int(rng.integers(0, max_dets + 1))
    for _ in range(n):
        img = int(rng.integers(0, images))
        if len(gt_boxes[img]) and rng.random() < 0.6:
            g = gt_boxes[img][int(rng.integers(0, len(gt_boxes[img])))]
            jit = rng.uniform(-4, 4, size=4)
            box = g + jit
            box[2] = max(box[2], box[0] + 1.0)
            box[3] = max(box[3], box[1] + 1.0)
        else:
            b = rng.uniform(0, 40, size=2)
            box = np.concatenate([b, b + rng.uniform(4, 20, size=2)])
        score = round(float(rng.random()), 1)  # coarse scores force ties
        rows.append((img, score, box))
    return rows, gt_boxes


def encode_box_scalar(box, anchor) -> list[float]:
    """Center/log-size deltas of one box against one anchor."""
    aw, ah = anchor[2] - anchor[0], anchor[3] - anchor[1]
    w, h = box[2] - box[0], box[3] - box[1]
    acx, acy = anchor[0] + 0.5 * aw, anchor[1] + 0.5 * ah
    cx, cy = box[0] + 0.5 * w, box[1] + 0.5 * h
    return [(cx - acx) / aw, (cy - acy) / ah, math.log(w / aw), math.log(h / ah)]


def decode_box_scalar(delta, anchor, side=None) -> list[float]:
    """The box one delta row encodes against one anchor, clipped to [0, side]."""
    aw, ah = anchor[2] - anchor[0], anchor[3] - anchor[1]
    acx, acy = anchor[0] + 0.5 * aw, anchor[1] + 0.5 * ah
    cx, cy = delta[0] * aw + acx, delta[1] * ah + acy
    w, h = math.exp(delta[2]) * aw, math.exp(delta[3]) * ah
    box = [cx - 0.5 * w, cy - 0.5 * h, cx + 0.5 * w, cy + 0.5 * h]
    if side is not None:
        box = [min(max(v, 0.0), side) for v in box]
    return box


def compute_loss(model, mb, tcfg):
    """The training loss record alone."""
    return compute_gradients(model, mb, tcfg)[0]


def finite_difference_check(model, mb, tcfg, eps: float = 1e-6, max_coords: int = 200,
                            seed: int = 0) -> float:
    """Max relative error between analytic and central-difference gradients.

    Relative error uses max(1, |analytic|, |numeric|) as the denominator. A
    seeded subset of coordinates is swept when the trainable set is large.
    """
    if not 1e-8 <= eps <= 1e-4:
        raise ParameterError(f"eps must lie in [1e-8, 1e-4], got {eps}")
    _, grads = compute_gradients(model, mb, tcfg)
    coords = [(key, flat) for key in sorted(grads) for flat in range(grads[key].size)]
    if len(coords) > max_coords:
        picked = np.random.default_rng(seed).choice(len(coords), size=max_coords, replace=False)
        coords = [coords[int(i)] for i in sorted(picked)]
    worst = 0.0
    for key, flat in coords:
        arr = model.params[key]
        orig = arr.flat[flat]
        arr.flat[flat] = orig + eps
        plus = compute_loss(model, mb, tcfg)["total"]
        arr.flat[flat] = orig - eps
        minus = compute_loss(model, mb, tcfg)["total"]
        arr.flat[flat] = orig
        numeric = (plus - minus) / (2.0 * eps)
        analytic = grads[key].flat[flat]
        err = abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))
        worst = max(worst, err)
    return worst
