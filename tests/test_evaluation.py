"""Metric correctness against independent oracles and report artifacts."""

import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from oracles import (
    ap_exhaustive_oracle,
    ap_single_threshold_oracle,
    random_ap_instance,
    recall_exhaustive_oracle,
    recall_single_k_oracle,
)
from retentive.config import DatasetConfig, ModelConfig
from retentive.detector import Detection, image_forward, init_base_model, roi_features
from retentive.errors import ParameterError
from retentive.evaluation import (
    GROUP_ALL,
    ap_summary,
    ap_table,
    average_precision,
    average_recall,
    build_report,
    detections_to_candidates,
    emit_report,
    roi_feature_norms,
)
from retentive.synthgen import (
    ClassSplit,
    Dataset,
    SceneRecord,
    build_test_dataset,
    split_classes,
)
from retentive.tensorops import roi_pool


def make_records(gt_boxes, labels=None, annotated=None):
    records = []
    for i, boxes in enumerate(gt_boxes):
        boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
        n = len(boxes)
        lab = np.zeros(n, dtype=np.int64) if labels is None else np.asarray(labels[i], dtype=np.int64)
        ann = np.ones(n, dtype=bool) if annotated is None else np.asarray(annotated[i], dtype=bool)
        records.append(SceneRecord(seed=i, boxes=boxes, labels=lab, annotated=ann))
    return records


def rows_to_eval_inputs(rows, gt_boxes, class_id=0):
    """Split flat (image, score, box) rows into per-image detection lists."""
    rows = sorted(enumerate(rows), key=lambda t: (t[1][0], t[0]))
    dets = [[] for _ in gt_boxes]
    flat = []
    for _, (img, score, box) in rows:
        dets[img].append(Detection(box=tuple(box), class_id=class_id,
                                   score=score, source_head="base"))
        flat.append((img, score, box))
    return dets, flat


# ---------------------------------------------------------------------------
# average precision
# ---------------------------------------------------------------------------

def test_ap_perfect_detections_score_one():
    gts = [np.array([[0.0, 0.0, 10.0, 10.0], [20.0, 20.0, 30.0, 30.0]]),
           np.array([[5.0, 5.0, 15.0, 15.0]])]
    records = make_records(gts)
    dets = [
        [Detection((0.0, 0.0, 10.0, 10.0), 0, 0.9, "base"),
         Detection((20.0, 20.0, 30.0, 30.0), 0, 0.8, "base"),
         Detection((50.0, 50.0, 60.0, 60.0), 0, 0.1, "base")],  # trailing junk
        [Detection((5.0, 5.0, 15.0, 15.0), 0, 0.7, "base")],
    ]
    assert average_precision(dets, records, 0, (0.5,))[0.5] == pytest.approx(1.0, abs=1e-12)


def test_ap_no_detections_is_zero_and_no_truth_is_absent():
    records = make_records([np.array([[0.0, 0.0, 10.0, 10.0]])])
    assert average_precision([[]], records, 0, (0.5,))[0.5] == 0.0
    assert average_precision([[]], records, 3, (0.5,))[0.5] is None


def test_ap_false_positive_outranking_truth_halves_score():
    records = make_records([np.array([[0.0, 0.0, 10.0, 10.0]])])
    dets = [[
        Detection((30.0, 30.0, 40.0, 40.0), 0, 0.9, "base"),
        Detection((0.0, 0.0, 10.0, 10.0), 0, 0.8, "base"),
    ]]
    assert average_precision(dets, records, 0, (0.5,))[0.5] == pytest.approx(0.5, abs=1e-12)


def test_ap_matches_exhaustive_cutoff_oracle():
    rng = np.random.default_rng(424)
    for trial in range(100):
        rows, gts = random_ap_instance(rng)
        dets, flat = rows_to_eval_inputs(rows, gts)
        records = make_records(gts)
        row = average_precision(dets, records, 0, (0.3, 0.5, 0.75))
        for thresh in (0.3, 0.5, 0.75):
            got = row[thresh]
            want = ap_exhaustive_oracle(flat, gts, thresh)
            if want is None:
                assert got is None
            else:
                assert got == pytest.approx(want, abs=1e-12), f"trial {trial} iou {thresh}"


def test_ap_removing_a_false_positive_never_decreases():
    rng = np.random.default_rng(77)
    for _ in range(40):
        rows, gts = random_ap_instance(rng)
        if not rows:
            continue
        junk = (int(rng.integers(0, len(gts))), round(float(rng.random()), 1),
                np.array([1000.0, 1000.0, 1010.0, 1010.0]))
        spiked = rows + [junk]
        dets_with, _ = rows_to_eval_inputs(spiked, gts)
        dets_without, _ = rows_to_eval_inputs(rows, gts)
        records = make_records(gts)
        with_fp = average_precision(dets_with, records, 0, (0.5,))[0.5]
        without_fp = average_precision(dets_without, records, 0, (0.5,))[0.5]
        if with_fp is None:
            assert without_fp is None
        else:
            assert without_fp >= with_fp - 1e-12


def test_ap_stricter_overlap_never_scores_higher():
    rng = np.random.default_rng(99)
    for _ in range(60):
        rows, gts = random_ap_instance(rng)
        dets, _ = rows_to_eval_inputs(rows, gts)
        records = make_records(gts)
        vals = list(average_precision(dets, records, 0, (0.5, 0.75, 0.95)).values())
        if vals[0] is None:
            continue
        assert vals[0] >= vals[1] - 1e-12
        assert vals[1] >= vals[2] - 1e-12


def test_ap_detection_overlapping_at_exactly_the_threshold_is_correct():
    # (0,0,10,10) against (0,0,10,20) overlaps by exactly 100 / 200 = 0.5
    records = make_records([np.array([[0.0, 0.0, 10.0, 20.0]])])
    dets = [[Detection((0.0, 0.0, 10.0, 10.0), 0, 0.9, "base")]]
    assert average_precision(dets, records, 0, [0.5]) == {0.5: 1.0}


def test_ap_rejects_mismatched_inputs():
    records = make_records([np.zeros((0, 4))])
    with pytest.raises(ParameterError):
        average_precision([[], []], records, 0, (0.5,))


COCO_THRESHOLDS = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))


def test_ap_every_threshold_equals_single_threshold_oracle():
    rng = np.random.default_rng(1212)
    thresholds = (0.3,) + COCO_THRESHOLDS
    scored = 0
    for trial in range(150):
        rows, gts = random_ap_instance(rng)
        dets, _ = rows_to_eval_inputs(rows, gts)
        # a second class shares the images, so class filtering is exercised
        for img, extra in enumerate(random_ap_instance(rng)[1]):
            dets[img] += [Detection(tuple(b), 1, 0.5, "novel") for b in extra]
        records = make_records(gts)
        row = average_precision(dets, records, 0, thresholds)
        assert list(row) == list(thresholds)
        for t in thresholds:
            want = ap_single_threshold_oracle(dets, records, 0, t)
            assert row[t] == want, f"trial {trial} iou {t}: {row[t]!r} != {want!r}"
            scored += want is not None and want > 0
    assert scored > 0


def test_ap_truth_claimed_at_low_threshold_stays_free_at_high():
    # the first-ranked detection overlaps the truth at 0.6, the second at 0.8
    records = make_records([np.array([[0.0, 0.0, 10.0, 10.0]])])
    dets = [[
        Detection((0.0, 0.0, 10.0, 6.0), 0, 0.9, "base"),
        Detection((0.0, 0.0, 10.0, 8.0), 0, 0.8, "base"),
    ]]
    row = average_precision(dets, records, 0, (0.5, 0.75))
    assert row == {0.5: 1.0, 0.75: 0.5}
    for t in (0.5, 0.75):
        assert row[t] == ap_single_threshold_oracle(dets, records, 0, t)


# ---------------------------------------------------------------------------
# summary aggregation
# ---------------------------------------------------------------------------

def test_summary_hand_values():
    split = ClassSplit(num_classes=3, base_ids=(0, 1), novel_ids=(2,))
    table = {0: {0.5: 0.5}, 1: {0.5: 0.7}, 2: {0.5: 0.1}}
    s = ap_summary(table, split, [0.5])
    assert s["bap"] == pytest.approx(0.6)
    assert s["nap"] == pytest.approx(0.1)
    assert s["ap"] == pytest.approx((0.5 + 0.7 + 0.1) / 3)
    assert s["ap50"] == s["ap"]


def test_summary_all_ones():
    split = ClassSplit(num_classes=3, base_ids=(0, 2), novel_ids=(1,))
    table = {c: {0.5: 1.0, 0.75: 1.0} for c in range(3)}
    s = ap_summary(table, split, [0.5, 0.75])
    assert s["ap"] == s["bap"] == s["nap"] == 1.0


def test_summary_empty_group_is_absent_not_zero():
    split = ClassSplit(num_classes=3, base_ids=(0, 1), novel_ids=(2,))
    table = {0: {0.5: 0.4}, 1: {0.5: 0.6}, 2: {0.5: None}}
    s = ap_summary(table, split, [0.5])
    assert "nap" not in s
    assert "nap50" not in s
    assert s["ap"] == pytest.approx(0.5)  # only classes with truth count
    assert s["bap"] == pytest.approx(0.5)


def test_summary_is_class_order_invariant():
    split = ClassSplit(num_classes=4, base_ids=(0, 3), novel_ids=(1, 2))
    rng = np.random.default_rng(5)
    vals = {c: {0.5: float(rng.random()), 0.75: float(rng.random())} for c in range(4)}
    orders = [(0, 1, 2, 3), (3, 2, 1, 0), (2, 0, 3, 1)]
    results = []
    for order in orders:
        table = {c: vals[c] for c in order}
        results.append(ap_summary(table, split, [0.5, 0.75]))
    assert results[0] == results[1] == results[2]


def test_summary_mixed_thresholds_mean_over_thresholds():
    split = ClassSplit(num_classes=2, base_ids=(0,), novel_ids=(1,))
    table = {0: {0.5: 1.0, 0.75: 0.0}, 1: {0.5: 0.5, 0.75: 0.5}}
    s = ap_summary(table, split, [0.5, 0.75])
    assert s["bap"] == pytest.approx(0.5)
    assert s["bap50"] == pytest.approx(1.0)
    assert s["ap"] == pytest.approx((0.75 + 0.25) / 2)


# ---------------------------------------------------------------------------
# average recall
# ---------------------------------------------------------------------------

def test_recall_perfect_candidates():
    gts = [np.array([[0.0, 0.0, 10.0, 10.0], [30.0, 30.0, 42.0, 42.0]]),
           np.array([[4.0, 4.0, 16.0, 16.0]])]
    records = make_records(gts)
    candidates = [(g, np.linspace(1.0, 0.5, len(g))) for g in gts]
    assert average_recall(candidates, records, [10], 0.5, GROUP_ALL)[10] == 1.0


def test_recall_zero_candidates_is_zero():
    records = make_records([np.array([[0.0, 0.0, 10.0, 10.0]])])
    candidates = [(np.zeros((0, 4)), np.zeros(0))]
    assert average_recall(candidates, records, [10], 0.5, GROUP_ALL)[10] == 0.0


def test_recall_two_image_hand_case_matches_oracle():
    gts = [np.array([[0.0, 0.0, 10.0, 10.0], [20.0, 0.0, 30.0, 10.0]]),
           np.array([[5.0, 5.0, 17.0, 17.0]])]
    records = make_records(gts)
    candidates = [
        (np.array([[0.0, 0.0, 10.0, 10.0],     # covers first instance
                   [100.0, 100.0, 110.0, 110.0]]),
         np.array([0.9, 0.8])),
        (np.array([[6.0, 6.0, 18.0, 18.0]]),   # near-miss jitter, still >= 0.5
         np.array([0.7])),
    ]
    got = average_recall(candidates, records, [10], 0.5, GROUP_ALL)[10]
    want = recall_exhaustive_oracle(candidates, gts, 10, 0.5)
    assert got == want == pytest.approx(2.0 / 3.0)


def test_recall_matches_oracle_on_random_instances():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n_img = int(rng.integers(1, 4))
        gts, candidates = [], []
        for _ in range(n_img):
            m = int(rng.integers(0, 4))
            b = rng.uniform(0, 40, size=(m, 2))
            gts.append(np.hstack([b, b + rng.uniform(5, 15, size=(m, 2))]))
            p = int(rng.integers(0, 8))
            cb = rng.uniform(0, 40, size=(p, 2))
            boxes = np.hstack([cb, cb + rng.uniform(5, 15, size=(p, 2))])
            candidates.append((boxes, np.round(rng.random(p), 1)))
        records = make_records(gts)
        for k in (1, 3, 100):
            got = average_recall(candidates, records, [k], 0.5, GROUP_ALL)[k]
            want = recall_exhaustive_oracle(candidates, gts, k, 0.5)
            assert got == want


def test_recall_at_every_k_equals_the_single_k_oracle():
    """One ranking per image serves every k: each k's value equals the
    one-k-at-a-time computation exactly, for k of 0 and 1, k past the
    candidate count, tied scores, every filter, and filters that select no
    instance."""
    rng = np.random.default_rng(47)
    ks = (0, 1, 2, 3, 5, 12)
    absent = grew = 0
    for _ in range(40):
        gts, annotated, candidates = [], [], []
        for _ in range(int(rng.integers(1, 4))):
            m = int(rng.integers(0, 4))
            b = rng.uniform(0, 40, size=(m, 2))
            gt = np.hstack([b, b + rng.uniform(5, 15, size=(m, 2))])
            p = int(rng.integers(0, 9))
            cb = rng.uniform(0, 40, size=(p, 2))
            boxes = np.hstack([cb, cb + rng.uniform(5, 15, size=(p, 2))])
            near = rng.random(p) < 0.5 if m else np.zeros(p, dtype=bool)
            boxes[near] = gt[rng.integers(0, max(m, 1), size=int(near.sum()))] \
                + rng.uniform(-3, 3, size=(int(near.sum()), 4))
            gts.append(gt)
            annotated.append(rng.random(m) < 0.5)
            candidates.append((boxes, np.round(rng.random(p), 1)))  # coarse scores tie
        records = make_records(gts, annotated=annotated)
        for group in ("all", "unseen"):
            got = average_recall(candidates, records, ks, 0.5, group)
            assert list(got) == list(ks)
            for k in ks:
                assert got[k] == recall_single_k_oracle(candidates, records, k, 0.5, group)
            absent += got[1] is None
            grew += got[1] is not None and got[1] < got[12]
    assert absent > 0 and grew > 0


def test_recall_rejects_negative_k():
    records = make_records([np.array([[0.0, 0.0, 10.0, 10.0]])])
    with pytest.raises(ParameterError):
        average_recall([(np.zeros((0, 4)), np.zeros(0))], records, [10, -1], 0.5, GROUP_ALL)


def test_recall_candidate_overlapping_at_exactly_the_threshold_covers():
    records = make_records([np.array([[0.0, 0.0, 10.0, 20.0]])])
    cands = [(np.array([[0.0, 0.0, 10.0, 10.0]]), np.array([0.9]))]  # IoU exactly 0.5
    assert average_recall(cands, records, [1], 0.5, GROUP_ALL) == {1: 1.0}


def test_recall_k_cut_uses_scores():
    gt = [np.array([[0.0, 0.0, 10.0, 10.0]])]
    records = make_records(gt)
    boxes = np.array([[50.0, 50.0, 60.0, 60.0], [0.0, 0.0, 10.0, 10.0]])
    scores = np.array([0.9, 0.5])
    assert average_recall([(boxes, scores)], records, [1, 2], 0.5, GROUP_ALL) == {1: 0.0, 2: 1.0}
    swapped = np.array([0.5, 0.9])
    assert average_recall([(boxes, swapped)], records, [1], 0.5, GROUP_ALL)[1] == 1.0


def test_recall_grows_with_k():
    rng = np.random.default_rng(8)
    gts = []
    candidates = []
    for _ in range(4):
        b = rng.uniform(0, 40, size=(3, 2))
        gts.append(np.hstack([b, b + 10.0]))
        cb = rng.uniform(0, 40, size=(30, 2))
        boxes = np.hstack([cb, cb + 10.0])
        candidates.append((boxes, rng.random(30)))
    records = make_records(gts)
    values = [average_recall(candidates, records, [k], 0.5, GROUP_ALL)[k] for k in (1, 5, 10, 30)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_recall_unseen_filter_counts_hidden_instances_only():
    gts = [np.array([[0.0, 0.0, 10.0, 10.0], [20.0, 20.0, 30.0, 30.0]])]
    labels = [np.array([0, 1])]
    annotated = [np.array([True, False])]
    records = make_records(gts, labels, annotated)
    candidates = [(np.array([[20.0, 20.0, 30.0, 30.0]]), np.array([0.9]))]
    assert average_recall(candidates, records, [10], 0.5, "unseen")[10] == 1.0
    assert average_recall(candidates, records, [10], 0.5, "all")[10] == 0.5


def test_recall_absent_when_filter_matches_nothing():
    records = make_records([np.array([[0.0, 0.0, 10.0, 10.0]])])
    candidates = [(np.zeros((0, 4)), np.zeros(0))]
    assert average_recall(candidates, records, [10], 0.5, "unseen")[10] is None
    with pytest.raises(ParameterError):
        average_recall(candidates, records, [10], 0.5, "hidden")


# ---------------------------------------------------------------------------
# feature norms
# ---------------------------------------------------------------------------

def blank_dataset(split, side=48):
    boxes = np.array([[8.0, 8.0, 24.0, 24.0], [28.0, 28.0, 44.0, 44.0]])
    labels = np.array([split.base_ids[0], split.novel_ids[0]], dtype=np.int64)
    rec = SceneRecord(seed=0, boxes=boxes, labels=labels, annotated=np.array([True, False]))
    return Dataset(split=split, mode="test", k=None, seed=0, side=side,
                   images=[np.zeros((side, side))], records=[rec])


def gt_rows(model, ds):
    """Each image's ground-truth ROI feature rows, as the eval stage hands them over."""
    return [roi_features(model, image_forward(model, img).feat, rec.boxes)
            for img, rec in zip(ds.images, ds.records)]


def test_norms_zero_images_give_zero_norms():
    split = ClassSplit(num_classes=4, base_ids=(0, 1), novel_ids=(2, 3))
    ds = blank_dataset(split)
    model = init_base_model(split, ModelConfig(), feat_seed=3, seed=3)
    norms = roi_feature_norms(ds, gt_rows(model, ds))
    assert norms["per_class"] == {0: 0.0, 2: 0.0}
    assert norms["groups"] == {"seen": 0.0, "unseen": 0.0}


def test_norms_duplicate_instance_leaves_mean_unchanged():
    cfg = DatasetConfig(image_side=48, num_classes=4, num_novel=1, test_images=1,
                        min_instances=2, max_instances=2, min_glyph=12, max_glyph=16)
    split = split_classes(4, 1, 3)
    ds = build_test_dataset(cfg, split, seed=5)
    model = init_base_model(split, ModelConfig(), feat_seed=3, seed=3)
    base = roi_feature_norms(ds, gt_rows(model, ds))

    rec = ds.records[0]
    dup = SceneRecord(
        seed=rec.seed,
        boxes=np.vstack([rec.boxes, rec.boxes]),
        labels=np.concatenate([rec.labels, rec.labels]),
        annotated=np.concatenate([rec.annotated, rec.annotated]),
    )
    doubled = Dataset(split=split, mode="test", k=None, seed=0, side=ds.side,
                      images=[ds.images[0]], records=[dup])
    doubled_norms = roi_feature_norms(doubled, gt_rows(model, doubled))
    assert doubled_norms["per_class"] == pytest.approx(base["per_class"])


def test_norms_match_scalar_recomputation():
    cfg = DatasetConfig(image_side=48, num_classes=5, num_novel=2, test_images=3,
                        min_instances=2, max_instances=3, min_glyph=12, max_glyph=18)
    split = split_classes(5, 2, 11)
    ds = build_test_dataset(cfg, split, seed=11)
    model = init_base_model(split, ModelConfig(), feat_seed=11, seed=11)
    got = roi_feature_norms(ds, gt_rows(model, ds))

    proj = model.params["boxhead_proj/W"]
    sums, counts = {}, {}
    for img, rec in zip(ds.images, ds.records):
        feat = image_forward(model, img).feat
        pooled_rows = roi_pool(feat[None], rec.boxes, bins=model.mcfg.roi_pool_bins,
                               stride=float(model.mcfg.feat_stride),
                               batch_idx=np.zeros(len(rec.boxes), dtype=np.int64))
        for pooled, lbl in zip(pooled_rows, rec.labels):
            vec = np.maximum(pooled @ proj.T, 0.0)
            acc = 0.0
            for v in vec:
                acc += float(v) * float(v)
            cid = int(lbl)
            sums[cid] = sums.get(cid, 0.0) + acc ** 0.5
            counts[cid] = counts.get(cid, 0) + 1
    for cid, mean in got["per_class"].items():
        assert mean == pytest.approx(sums[cid] / counts[cid], abs=1e-12)
    seen = [sums[c] / counts[c] for c in split.base_ids if c in sums]
    assert got["groups"]["seen"] == pytest.approx(float(np.mean(seen)), abs=1e-12)


# ---------------------------------------------------------------------------
# report artifacts
# ---------------------------------------------------------------------------

def small_report():
    split = ClassSplit(num_classes=3, base_ids=(0, 1), novel_ids=(2,))
    gts = [np.array([[0.0, 0.0, 10.0, 10.0]]), np.array([[20.0, 20.0, 34.0, 34.0]])]
    labels = [np.array([0]), np.array([2])]
    records = make_records(gts, labels)
    ds = Dataset(split=split, mode="test", k=None, seed=1, side=48,
                 images=[np.zeros((48, 48)), np.zeros((48, 48))], records=records)
    dets = [
        [Detection((0.0, 0.0, 10.0, 10.0), 0, 0.9, "base")],
        [Detection((20.0, 20.0, 34.0, 34.0), 2, 0.6, "novel")],
    ]
    thresholds = (0.5, 0.75)
    cands = detections_to_candidates(dets)
    recall = {
        "ar@10": average_recall(cands, records, [10], 0.5, "all")[10],
        "uar@10": average_recall(cands, records, [10], 0.5, "unseen")[10],
    }
    norms = {"per_class": {0: 1.5, 1: 2.5, 2: 0.5}, "groups": {"seen": 2.0, "unseen": 0.5}}
    return build_report(dets, ds, thresholds, recall, norms,
                        metadata={"seed": 1, "model_digest": "abc"}, baseline_summary={})


def test_report_json_roundtrip(tmp_path):
    report = small_report()
    paths = emit_report(report, tmp_path)
    loaded = json.loads(paths["json"].read_text())
    assert loaded == report
    assert loaded["schema_version"] == 1
    assert loaded["summary"]["ap"] == pytest.approx(1.0)
    first = paths["json"].read_bytes()
    emit_report(report, tmp_path)
    assert paths["json"].read_bytes() == first


def test_report_csv_layout(tmp_path):
    report = small_report()
    paths = emit_report(report, tmp_path)
    lines = paths["csv"].read_text().splitlines()
    assert lines[0] == "class_id,group,iou,ap"
    assert len(lines) == 1 + 3 * 2  # classes x thresholds
    cells = [ln.split(",") for ln in lines[1:]]
    assert [c[0] for c in cells] == ["0", "0", "1", "1", "2", "2"]
    assert {c[1] for c in cells} == {"base", "novel"}
    # class 1 has no truth: absent values serialize as empty fields
    absent = [c for c in cells if c[0] == "1"]
    assert all(c[3] == "" for c in absent)


def test_report_svg_structure(tmp_path):
    report = small_report()
    paths = emit_report(report, tmp_path)
    text = paths["svg"].read_text()
    root = ET.fromstring(text)
    assert root.tag.endswith("svg")
    rects = [el for el in root.iter() if el.tag.endswith("rect")]
    # one backdrop plus one bar per class with a norm
    assert len(rects) == 1 + len(report["feature_norms"]["per_class"])
    assert "href" not in text and "http://www.w3.org/2000/svg" in text


def test_ap_table_covers_all_foreground_classes():
    report = small_report()
    assert sorted(map(int, report["per_class_ap"])) == [0, 1, 2]
    assert report["per_class_ap"]["1"] == {"0.50": None, "0.75": None}


def test_report_side_files_order_classes_numerically(tmp_path):
    """Class ids are string keys in the report; 10 and 11 still come after 9
    in metrics.csv and norms.svg, not between 1 and 2."""
    split = ClassSplit(num_classes=12, base_ids=(0, 1, 3, 4, 5, 6, 8, 9),
                       novel_ids=(2, 7, 10, 11))
    records = make_records([np.array([[0.0, 0.0, 10.0, 10.0]] * 12)],
                           labels=[np.arange(12)])
    ds = Dataset(split=split, mode="test", k=None, seed=1, side=48,
                 images=[np.zeros((48, 48))], records=records)
    norms = {"per_class": {c: 1.0 + c for c in range(12)}, "groups": {}}
    paths = emit_report(build_report([[]], ds, (0.5, 0.75), {}, norms, metadata={},
                                    baseline_summary={}), tmp_path)
    cells = [ln.split(",") for ln in paths["csv"].read_text().splitlines()[1:]]
    assert [c[0] for c in cells] == [str(c) for c in range(12) for _ in range(2)]
    assert [c[2] for c in cells] == ["0.50", "0.75"] * 12
    assert [c[1] for c in cells[::2]] == ["novel" if c in split.novel_ids else "base"
                                          for c in range(12)]
    root = ET.fromstring(paths["svg"].read_text())
    labels = [el.text for el in root.iter() if el.tag.endswith("text")][:-1]
    assert labels == [str(c) for c in range(12)]
    bars = [el for el in root.iter() if el.tag.endswith("rect")][1:]
    assert [b.get("fill") == "#d95f02" for b in bars] == [c in split.novel_ids
                                                           for c in range(12)]
    assert [float(b.get("height")) for b in bars] == sorted(float(b.get("height")) for b in bars)


# norms.svg layout: outer padding, bar width, gap between bars, plot height
_PAD, _BAR, _GAP, _PLOT = 30, 28, 10, 220


@pytest.mark.parametrize("norms", [
    {c: 0.25 + (7 * c) % 5 for c in range(12)},
    {c: 0.0 for c in range(3)},
    {},
], ids=["varied", "all-zero", "empty"])
def test_norms_svg_bars_read_back_against_report_json(tmp_path, norms):
    """Every bar of norms.svg, read back against the report.json beside it:
    one per class in numeric order, its height the class's norm over the
    largest, scarce classes in the novel colour, and the frame around them."""
    split = ClassSplit(num_classes=12, base_ids=(0, 1, 3, 4, 5, 6, 8, 9),
                       novel_ids=(2, 7, 10, 11))
    records = make_records([np.empty((0, 4))])
    ds = Dataset(split=split, mode="test", k=None, seed=1, side=48,
                 images=[np.zeros((48, 48))], records=records)
    paths = emit_report(build_report([[]], ds, (0.5,), {}, {"per_class": norms, "groups": {}},
                                     metadata={}, baseline_summary={}), tmp_path)
    report = json.loads(paths["json"].read_text(encoding="utf-8"))
    per_class = report["feature_norms"]["per_class"]
    novel = set(report["split"]["novel_ids"])
    classes = sorted(per_class, key=int)
    assert classes == [str(c) for c in sorted(norms)]
    top = max(per_class.values(), default=0.0)

    root = ET.fromstring(paths["svg"].read_text(encoding="utf-8"))
    width = 2 * _PAD + max(len(classes), 1) * (_BAR + _GAP)
    height = _PLOT + 2 * _PAD + 20
    assert (root.get("width"), root.get("height"), root.get("viewBox")) == (
        str(width), str(height), f"0 0 {width} {height}")
    backdrop, *bars = [el for el in root.iter() if el.tag.endswith("rect")]
    assert [backdrop.get(a) for a in ("x", "y", "width", "height", "fill")] == [
        "0", "0", str(width), str(height), "white"]
    (axis,) = [el for el in root.iter() if el.tag.endswith("line")]
    assert [axis.get(a) for a in ("x1", "y1", "x2", "y2")] == [
        str(_PAD), str(_PAD + _PLOT), str(width - _PAD), str(_PAD + _PLOT)]
    *labels, title = [el for el in root.iter() if el.tag.endswith("text")]
    assert (title.get("x"), title.get("y")) == (str(_PAD), str(_PAD - 10))

    assert len(bars) == len(labels) == len(classes)
    for i, (cid, bar, label) in enumerate(zip(classes, bars, labels)):
        x = _PAD + i * (_BAR + _GAP)
        bh = _PLOT * per_class[cid] / top if top else 0.0
        assert [bar.get(a) for a in ("x", "y", "width", "height", "fill")] == [
            str(x), f"{_PAD + _PLOT - bh:.3f}", str(_BAR), f"{bh:.3f}",
            "#d95f02" if int(cid) in novel else "#1b9e77"]
        assert (label.text, label.get("x"), label.get("y")) == (
            cid, str(x + _BAR / 2), str(_PAD + _PLOT + 16))
    assert {int(c) for c, b in zip(classes, bars) if b.get("fill") == "#d95f02"} == \
        novel & set(norms)
