"""Detection metrics: class-wise AP, recall at K, and ROI feature norms,
and the eval stage that scores an adapted model beside its base detector.

AP is the exact area under the precision-recall curve (all score cutoffs)
with the precision envelope applied, computed per class and averaged
unweighted within class groups. Recall at K asks what fraction of instances
any of an image's top-K candidates covers, which makes it usable both for
proposal quality and for final detections, and for instances the training
labels never revealed.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

import numpy as np

from .config import (RPN_STRATEGIES, ExperimentConfig, Rule, canonical_json, read_json_object,
                     write_artifact)
from .detector import (
    STAGE_RETENTIVE,
    Model,
    image_forward,
    roi_rows,
    score_proposals,
    strategy_proposals,
)
from .errors import CorruptArtifactError, ParameterError, StalenessError, StateError
from .synthgen import ClassSplit, Dataset, SceneRecord
from .tensorops import iou_matrix, rank

GROUP_SEEN = "seen"
GROUP_UNSEEN = "unseen"
GROUP_ALL = "all"


def _pr_area(tp: np.ndarray, n_gt: int) -> float:
    """Exact area under the enveloped precision-recall curve of one ranked
    true-positive indicator row."""
    ctp = np.cumsum(tp)
    cfp = np.cumsum(1.0 - tp)
    recall = ctp / n_gt
    precision = ctp / (ctp + cfp)
    mrec = np.concatenate([[0.0], recall, [1.0]])
    mpre = np.concatenate([[0.0], precision, [0.0]])
    mpre = np.maximum.accumulate(mpre[::-1])[::-1]
    return float(np.sum((mrec[1:] - mrec[:-1]) * mpre[1:]))


def average_precision(dets_per_image, records, class_id: int,
                      iou_thresholds) -> dict[float, float | None]:
    """Exact PR-curve area for one class at each IoU threshold; None at every
    threshold when the class has no truth.

    Detections are ranked by score with ties broken by arrival order. At each
    threshold, each detection greedily claims the highest-overlap still-unclaimed
    instance in its image, counting as correct only at overlap >= the threshold.
    One IoU matrix per image, and one walk down the ranking with a claimed mask
    per threshold, serve every threshold.
    """
    if len(dets_per_image) != len(records):
        raise ParameterError(f"{len(dets_per_image)} detection lists vs {len(records)} records")
    thresholds = [float(t) for t in iou_thresholds]
    gt_boxes = [rec.boxes[rec.labels == class_id] for rec in records]
    n_gt = int(sum(len(b) for b in gt_boxes))
    if n_gt == 0:
        return {t: None for t in thresholds}

    # each detection's image and row within that image, in image-major order
    det_img: list[int] = []
    det_row: list[int] = []
    scores: list[float] = []
    overlaps: dict[int, np.ndarray] = {}
    for img, (dets, truths) in enumerate(zip(dets_per_image, gt_boxes)):
        mine = [d for d in dets if d.class_id == class_id]
        det_img += [img] * len(mine)
        det_row += range(len(mine))
        scores += [float(d.score) for d in mine]
        if mine and len(truths):
            overlaps[img] = iou_matrix(np.asarray([d.box for d in mine], dtype=np.float64),
                                       truths)
    if not scores:
        return {t: 0.0 for t in thresholds}
    order = rank(scores)

    levels = np.asarray(thresholds)
    t_idx = np.arange(len(levels))
    claimed = {img: np.zeros((len(levels), m.shape[1]), dtype=bool)
               for img, m in overlaps.items()}
    tp = np.zeros((len(levels), len(scores)))
    for pos, i in enumerate(order):
        img = det_img[i]
        if img not in overlaps:
            continue
        masked = np.where(claimed[img], -1.0, overlaps[img][det_row[i]])
        best = masked.argmax(axis=1)
        hit = masked[t_idx, best] >= levels
        claimed[img][t_idx[hit], best[hit]] = True
        tp[hit, pos] = 1.0
    return {t: _pr_area(tp[k], n_gt) for k, t in enumerate(thresholds)}


def ap_table(dets_per_image, dataset: Dataset,
             iou_thresholds) -> dict[int, dict[float, float | None]]:
    """Per-class AP at every threshold, for every foreground class."""
    classes = dataset.split.base_ids + dataset.split.novel_ids
    return {cid: average_precision(dets_per_image, dataset.records, cid, iou_thresholds)
            for cid in classes}


def _group_mean(table, class_ids, thresholds) -> float | None:
    per_threshold = []
    for t in thresholds:
        vals = [table[c][t] for c in class_ids if c in table and table[c][t] is not None]
        if vals:
            per_threshold.append(float(np.mean(vals)))
    if not per_threshold:
        return None
    return float(np.mean(per_threshold))


def ap_summary(table: dict[int, dict[float, float | None]], split: ClassSplit,
               iou_thresholds) -> dict[str, float]:
    """Group means over classes then thresholds; empty groups stay absent."""
    thresholds = [float(t) for t in iou_thresholds]
    out: dict[str, float] = {}
    groups = {
        "ap": split.base_ids + split.novel_ids,
        "bap": split.base_ids,
        "nap": split.novel_ids,
    }
    for name, ids in groups.items():
        full = _group_mean(table, ids, thresholds)
        if full is not None:
            out[name] = full
        if 0.5 in thresholds:
            at50 = _group_mean(table, ids, [0.5])
            if at50 is not None:
                out[name + "50"] = at50
    return out


def detections_to_candidates(dets_per_image) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-image (boxes, scores) pairs from detection lists."""
    return [(np.asarray([d.box for d in dets], dtype=np.float64).reshape(-1, 4),
             np.asarray([d.score for d in dets], dtype=np.float64)) for dets in dets_per_image]


def _filter_mask(rec: SceneRecord, class_filter: str) -> np.ndarray:
    if class_filter == GROUP_ALL:
        return np.ones(len(rec.labels), dtype=bool)
    if class_filter == GROUP_UNSEEN:
        return ~rec.annotated
    raise ParameterError(f"unknown class filter {class_filter!r}")


def average_recall(candidates, records, ks, iou_thresh: float,
                   class_filter: str) -> dict[int, float | None]:
    """Fraction of filtered instances covered by any of the top-k candidates,
    for each k in ks; None at every k when the filter selects no instance.

    Candidates are (boxes, scores) per image; only the k best-scoring boxes
    per image count, ties resolved by arrival order. The unseen filter
    selects instances whose labels were hidden at training time. Each image
    is ranked once and its IoU taken once against the top max(ks) boxes; an
    instance counts at k when its best-ranked covering box ranks below k.
    """
    if len(candidates) != len(records):
        raise ParameterError(f"{len(candidates)} candidate lists vs {len(records)} records")
    matched = dict.fromkeys(ks, 0)
    if any(k < 0 for k in matched):
        raise ParameterError(f"k must be >= 0, got {min(matched)}")
    top = max(matched, default=0)
    total = 0
    for (boxes, scores), rec in zip(candidates, records):
        gts = rec.boxes[_filter_mask(rec, class_filter)]
        total += len(gts)
        if len(gts) == 0 or len(boxes) == 0:
            continue
        order = rank(scores)[:top]
        covers = iou_matrix(gts, np.asarray(boxes, dtype=np.float64)[order]) >= iou_thresh
        first = np.where(covers, np.arange(len(order)), np.inf).min(axis=1, initial=np.inf)
        for k in matched:
            matched[k] += int((first < k).sum())
    return {k: None if total == 0 else n / total for k, n in matched.items()}


def roi_feature_norms(dataset: Dataset, rois) -> dict:
    """Mean feature magnitude the box head sees per class, with group means.

    rois holds, per dataset image, the ROI feature rows of its ground-truth
    boxes in order; classes the split marks scarce form the unseen group
    regardless of per-instance flags.
    """
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    for rows, rec in zip(rois, dataset.records):
        norms = np.sqrt((rows * rows).sum(axis=1))
        for lbl, nrm in zip(rec.labels, norms):
            cid = int(lbl)
            sums[cid] = sums.get(cid, 0.0) + float(nrm)
            counts[cid] = counts.get(cid, 0) + 1
    per_class = {cid: sums[cid] / counts[cid] for cid in sorted(sums)}
    groups = {}
    split = dataset.split
    for group, ids in ((GROUP_SEEN, split.base_ids), (GROUP_UNSEEN, split.novel_ids)):
        means = [per_class[c] for c in ids if c in per_class]
        if means:
            groups[group] = float(np.mean(means))
    return {"per_class": per_class, "groups": groups}


# ---------------------------------------------------------------------------
# report assembly and serialization
# ---------------------------------------------------------------------------

REPORT_SCHEMA_VERSION = 1
# the report.json sections that hold a run's metrics, with their names' prefix
_METRIC_SECTIONS = (("summary", ""), ("baseline_summary", "baseline_"), ("recall", ""))
NUMBER = Rule(float, False, (), None)  # a metric's value: a finite number, never a bool


def build_report(dets_per_image, dataset: Dataset, iou_thresholds, recall: dict,
                 feature_norms: dict, metadata: dict, baseline_summary: dict) -> dict:
    """report.json of one evaluated model run, class ids and thresholds as string keys."""
    table = ap_table(dets_per_image, dataset, iou_thresholds)
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "split": dataset.split.to_dict(),
        "iou_thresholds": [float(t) for t in iou_thresholds],
        "per_class_ap": {str(cid): {f"{t:.2f}": v for t, v in row.items()}
                         for cid, row in table.items()},
        "summary": ap_summary(table, dataset.split, iou_thresholds),
        "recall": recall,
        "feature_norms": {
            "per_class": {str(c): v for c, v in feature_norms["per_class"].items()},
            "groups": feature_norms["groups"],
        },
        "baseline_summary": baseline_summary,
        "metadata": metadata,
    }


def _infer(base: Model, model: Model, ds: Dataset, cfg: ExperimentConfig):
    """Both detectors and every strategy's proposals from one frozen path per
    image: one forward, one RPN evaluation and one roi_pool call over both
    detectors' proposals and the image's ground-truth boxes. The models share
    their frozen arrays, so the adapted model's projection serves the base
    detector too. Proposals come back per image, keyed by strategy, and so do
    the ground-truth boxes' ROI feature rows."""
    ret, bas, props, gt_rows = [], [], [], []
    for img, rec in zip(ds.images, ds.records):
        fwd = image_forward(model, img)
        per = strategy_proposals(model, fwd, cfg.detect, RPN_STRATEGIES)
        props.append(per)
        mine, theirs = per[model.rpn_strategy], per["base-only"]
        sets = [(0, mine.boxes), (0, theirs.boxes), (0, rec.boxes)]
        mine_rows, their_rows, rows = roi_rows(model, fwd.feat[None], sets)
        ret.append(score_proposals(model, mine, mine_rows, fwd.side, cfg.detect,
                                   ("base", "novel")))
        bas.append(score_proposals(base, theirs, their_rows, fwd.side, cfg.detect, ("base",)))
        gt_rows.append(rows)
    return ret, bas, props, gt_rows


def evaluate(base: Model, model: Model, test_ds: Dataset, uar_ds: Dataset,
             cfg: ExperimentConfig, metadata: dict) -> dict:
    """report.json of an adapted model scored beside its base detector on one test set.

    The adapted model must be finetuned, or StateError. Both detectors share
    one frozen path per image (_infer), so the two models must hold the same
    frozen arrays, or StalenessError. The report's metadata is the given dict
    plus the models' base-subset digests, RPN strategy, classifier and head
    domain.
    """
    if model.stage != STAGE_RETENTIVE:
        raise StateError(f"expected an adapted model, found stage {model.stage!r}")
    subset_digests = {"base": base.base_subset_digest(), "retentive": model.base_subset_digest()}
    if (subset_digests["base"] != subset_digests["retentive"]
            or (base.feat_seed, base.mcfg) != (model.feat_seed, model.mcfg)):
        raise StalenessError("the adapted model does not share the frozen arrays of its "
                             "base detector")
    ecfg = cfg.eval
    ret_dets_test, base_dets_test, props_test, gt_rows = _infer(base, model, test_ds, cfg)
    norms = roi_feature_norms(test_ds, gt_rows)
    ret_dets_uar, base_dets_uar, props_uar, _ = _infer(base, model, uar_ds, cfg)

    # recall key template, candidates, their dataset, instance filter
    recall_rows = [
        ("ar@{k}", detections_to_candidates(ret_dets_test), test_ds, GROUP_ALL),
        ("uar@{k}", detections_to_candidates(ret_dets_uar), uar_ds, GROUP_UNSEEN),
        ("base_detection_uar@{k}", detections_to_candidates(base_dets_uar), uar_ds, GROUP_UNSEEN),
    ] + [(f"proposal_{name}@{{k}}:{s}", [(p[s].boxes, p[s].scores) for p in props], ds, group)
         for s in RPN_STRATEGIES
         for name, props, ds, group in (("ar", props_test, test_ds, GROUP_ALL),
                                        ("uar", props_uar, uar_ds, GROUP_UNSEEN))]
    recall = {key.format(k=k): value
              for key, cand, ds, group in recall_rows
              for k, value in average_recall(cand, ds.records, ecfg.recall_ks,
                                             ecfg.recall_iou, group).items()}

    base_table = ap_table(base_dets_test, test_ds, ecfg.iou_thresholds)
    baseline = ap_summary(base_table, test_ds.split, ecfg.iou_thresholds)
    metadata = {**metadata, "base_subset_digests": subset_digests,
                "rpn_strategy": model.rpn_strategy, "classifier": model.classifier,
                "head_domain": model.head_domain}
    return build_report(ret_dets_test, test_ds, ecfg.iou_thresholds, recall,
                        norms, metadata=metadata, baseline_summary=baseline)


def _csv_text(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["class_id", "group", "iou", "ap"])
    novel = set(report["split"]["novel_ids"])
    for cid in sorted(report["per_class_ap"], key=int):
        group = "novel" if int(cid) in novel else "base"
        row = report["per_class_ap"][cid]
        for t in sorted(row, key=float):
            v = row[t]
            writer.writerow([cid, group, t, "" if v is None else repr(float(v))])
    return buf.getvalue()


def _svg_text(report: dict) -> str:
    """Bar chart of per-class feature norms, scarce classes color-coded."""
    per_class = report["feature_norms"]["per_class"]
    novel = set(report["split"]["novel_ids"])
    classes = sorted(per_class, key=int)
    bar_w, gap, h, pad = 28, 10, 220, 30
    width = pad * 2 + max(len(classes), 1) * (bar_w + gap)
    height = h + 2 * pad + 20
    top = max([per_class[c] for c in classes], default=1.0) or 1.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{pad + h}" x2="{width - pad}" y2="{pad + h}" '
        f'stroke="black" stroke-width="1"/>',
    ]
    for i, cid in enumerate(classes):
        v = per_class[cid]
        bh = h * v / top
        x = pad + i * (bar_w + gap)
        y = pad + h - bh
        color = "#d95f02" if int(cid) in novel else "#1b9e77"
        parts.append(f'<rect x="{x}" y="{y:.3f}" width="{bar_w}" height="{bh:.3f}" '
                     f'fill="{color}"/>')
        parts.append(f'<text x="{x + bar_w / 2}" y="{pad + h + 16}" font-size="11" '
                     f'text-anchor="middle">{cid}</text>')
    parts.append(f'<text x="{pad}" y="{pad - 10}" font-size="12">'
                 f'mean pooled-feature magnitude per class</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_report(report: dict, out_dir) -> dict[str, Path]:
    """Write report.json, metrics.csv, and norms.svg; returns the paths."""
    out = Path(out_dir)
    paths = {"json": out / "report.json", "csv": out / "metrics.csv", "svg": out / "norms.svg"}
    write_artifact(paths["json"], canonical_json(report) + "\n")
    write_artifact(paths["csv"], _csv_text(report))
    write_artifact(paths["svg"], _svg_text(report))
    return paths


def report_metrics(raw: bytes, path) -> dict[str, float]:
    """One run's metrics from raw, its report.json bytes read from path, under the
    names every table and printer uses: the AP summary's keys bare, the base
    detector's summary as baseline_*, and each recall key whose value is not
    None. A file without those three objects of numbers (recall may hold None) is corrupt."""
    report = read_json_object(Path(path), "report", {s: dict for s, _ in _METRIC_SECTIONS}, raw)
    metrics = {prefix + k: v for s, prefix in _METRIC_SECTIONS for k, v in report[s].items()
               if v is not None or s != "recall"}
    bad = [k for k, v in metrics.items() if not NUMBER.admits(v)]
    if bad:
        raise CorruptArtifactError(f"report {path}: {bad[0]!r} is not a number")
    return metrics
