"""Independent slow reference implementations used to check fast paths.

Everything here is written with plain Python loops and none of the package's
vectorized code, so agreement is evidence rather than tautology.
"""

import math

import numpy as np


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
