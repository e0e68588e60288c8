import numpy as np
import pytest

from oracles import nms_oracle
from retentive import detector as D
from retentive import tensorops as T
from retentive.config import DetectConfig, ModelConfig
from retentive.errors import ParameterError, StateError
from retentive.synthgen import InstanceSpec, SceneSpec, render_scene, split_classes

SPLIT = split_classes(12, 4, seed=3)
MCFG = ModelConfig()


def fresh_base(seed=1) -> D.Model:
    return D.init_base_model(SPLIT, MCFG, feat_seed=7, seed=seed)


def pseudo_trained_base(seed=1) -> D.Model:
    """Untrained weights promoted to the trained stage for forward-pass tests."""
    m = fresh_base(seed)
    m.stage = D.STAGE_BASE
    return m


def scene(seed=5):
    spec = SceneSpec(side=64, instances=tuple(InstanceSpec(class_id=c) for c in (0, 4, 9)))
    img, _ = render_scene(spec, seed=seed)
    return img


# ---------------------------------------------------------------------------
# parameter plumbing
# ---------------------------------------------------------------------------

def test_init_base_model_arrays_and_flags():
    m = fresh_base()
    names = m.params.layer_names()
    assert names == tuple(sorted(D.BASE_LAYERS))
    assert m.params.trainable == set(D.PRETRAIN_TRAINABLE)
    assert m.params.arrays["cls_b/W"].shape == (9, 64)
    assert m.params.arrays["rpn_obj_b/W"].shape == (3, 32)
    assert m.params.arrays["rpn_box/W"].shape == (12, 32)
    assert m.params.arrays["boxhead_proj/W"].shape == (64, 288)


def test_frozen_arrays_depend_only_on_feat_seed():
    a = D.init_base_model(SPLIT, MCFG, feat_seed=7, seed=1)
    b = D.init_base_model(SPLIT, MCFG, feat_seed=7, seed=99)
    assert a.params.arrays["rpn_shared/W"].tobytes() == b.params.arrays["rpn_shared/W"].tobytes()
    assert a.params.arrays["boxhead_proj/W"].tobytes() == b.params.arrays["boxhead_proj/W"].tobytes()
    assert a.params.arrays["cls_b/W"].tobytes() != b.params.arrays["cls_b/W"].tobytes()


def test_extend_for_finetune_adds_three_layers():
    base = pseudo_trained_base()
    m = D.extend_for_finetune(base, seed=2)
    assert m.stage == D.STAGE_RETENTIVE
    assert m.params.trainable == set(D.FINETUNE_TRAINABLE)
    assert m.params.arrays["cls_n/W"].shape == (13, 64)
    assert "cls_n/b" not in m.params.arrays  # cosine head has no bias
    assert m.params.arrays["rpn_obj_n/W"].tobytes() == m.params.arrays["rpn_obj_b/W"].tobytes()
    assert m.base_subset_digest() == base.params.digest()


def test_extend_requires_trained_base():
    with pytest.raises(StateError):
        D.extend_for_finetune(fresh_base(), seed=2)


def test_extend_variants():
    base = pseudo_trained_base()
    fc = D.extend_for_finetune(base, seed=2, classifier="fc")
    assert "cls_n/b" in fc.params.arrays
    novel_only = D.extend_for_finetune(base, seed=2, head_domain="novel-only")
    assert novel_only.params.arrays["cls_n/W"].shape == (5, 64)
    assert novel_only.novel_head_classes() == SPLIT.novel_ids
    rnd = D.extend_for_finetune(base, seed=2, rpn_obj_init="random")
    assert rnd.params.arrays["rpn_obj_n/W"].tobytes() != rnd.params.arrays["rpn_obj_b/W"].tobytes()
    with pytest.raises(ParameterError):
        D.extend_for_finetune(base, seed=2, head_init="copy")  # needs fc over all classes


def test_head_init_copy_pads_base_head():
    base = pseudo_trained_base()
    m = D.extend_for_finetune(base, seed=2, classifier="fc", head_init="copy")
    w = m.params.arrays["cls_n/W"]
    assert np.array_equal(w[:8], m.params.arrays["cls_b/W"][:8])
    assert np.all(w[8:12] == 0.0)
    assert np.array_equal(w[12], m.params.arrays["cls_b/W"][8])
    assert np.array_equal(m.params.arrays["reg_n/W"], m.params.arrays["reg_b/W"])


def test_digest_is_order_independent_and_layer_filtered():
    m = fresh_base()
    full = m.params.digest()
    again = m.params.copy().digest()
    assert full == again
    assert m.params.digest(("cls_b",)) != m.params.digest(("reg_b",))


# ---------------------------------------------------------------------------
# rpn forward
# ---------------------------------------------------------------------------

def test_rpn_forward_shapes_and_range():
    m = pseudo_trained_base()
    feat = D.image_features(m, scene())
    obj, deltas = D.rpn_forward(m, feat, "base")
    assert obj.shape == (768,)
    assert deltas.shape == (768, 4)
    assert np.all(obj > 0.0) and np.all(obj < 1.0)


def test_rpn_heads_share_deltas():
    m = D.extend_for_finetune(pseudo_trained_base(), seed=2, rpn_obj_init="random")
    feat = D.image_features(m, scene())
    _, d_base = D.rpn_forward(m, feat, "base")
    _, d_novel = D.rpn_forward(m, feat, "novel")
    assert d_base.tobytes() == d_novel.tobytes()


def test_rpn_copied_head_matches_base():
    m = D.extend_for_finetune(pseudo_trained_base(), seed=2, rpn_obj_init="copy")
    feat = D.image_features(m, scene())
    o_b, _ = D.rpn_forward(m, feat, "base")
    o_n, _ = D.rpn_forward(m, feat, "novel")
    assert o_b.tobytes() == o_n.tobytes()


def test_rpn_novel_head_missing_is_state_error():
    m = pseudo_trained_base()
    feat = D.image_features(m, scene())
    with pytest.raises(StateError):
        D.rpn_forward(m, feat, "novel")


# ---------------------------------------------------------------------------
# objectness ensembling
# ---------------------------------------------------------------------------

def test_strategy_values():
    o_b = np.array([0.2, 0.0, 0.5])
    o_n = np.array([0.7, 0.9, 0.5])
    assert D.bias_balanced_objectness(o_b, o_n, "max").tolist() == [0.7, 0.9, 0.5]
    assert np.allclose(D.bias_balanced_objectness(o_b, o_n, "arith-avg"), [0.45, 0.45, 0.5])
    geo = D.bias_balanced_objectness(o_b, o_n, "geo-avg")
    assert geo[1] == 0.0  # one dead head zeroes the combination
    assert abs(geo[0] - np.sqrt(0.14)) < 1e-12
    assert D.bias_balanced_objectness(o_b, o_n, "base-only").tolist() == o_b.tolist()


def test_equal_inputs_are_strategy_invariant():
    o = np.linspace(0.01, 0.99, 7)
    for s in ("max", "arith-avg", "geo-avg", "base-only"):
        assert np.allclose(D.bias_balanced_objectness(o, o, s), o, atol=1e-12)


def test_max_strategy_dominates_exactly():
    rng = np.random.default_rng(0)
    o_b, o_n = rng.random(500), rng.random(500)
    m = D.bias_balanced_objectness(o_b, o_n, "max")
    assert np.all(m >= o_b) and np.all(m >= o_n)


def test_unknown_strategy_rejected():
    with pytest.raises(ParameterError):
        D.bias_balanced_objectness(np.ones(2), np.ones(2), "median")


# ---------------------------------------------------------------------------
# proposals
# ---------------------------------------------------------------------------

def test_propose_tie_break_by_index():
    anchors = T.generate_anchors(4, 4, stride=4.0, scales=(8.0,))
    obj = np.full(16, 0.5)
    deltas = np.zeros((16, 4))
    dcfg = DetectConfig(pre_nms_k=16, post_nms_k=16, proposal_nms_iou=0.7)
    props = D.propose(obj, deltas, anchors, dcfg, side=16.0)
    # anchors overlap heavily; survivors must be the earliest-index representatives
    first = props.boxes[0]
    want = T.clip_boxes(anchors.boxes[:1], 16.0)[0]
    assert np.allclose(first, want)


def test_propose_post_nms_k_one():
    anchors = T.generate_anchors(4, 4, stride=4.0, scales=(8.0,))
    rng = np.random.default_rng(1)
    obj = rng.random(16)
    deltas = rng.normal(0.0, 0.05, size=(16, 4))
    dcfg = DetectConfig(pre_nms_k=16, post_nms_k=1)
    props = D.propose(obj, deltas, anchors, dcfg, side=16.0)
    assert len(props) == 1
    assert props.scores[0] == obj.max()


def test_propose_matches_composed_oracle():
    anchors = T.generate_anchors(16, 16, stride=4.0, scales=(8.0, 16.0, 32.0))
    rng = np.random.default_rng(33)
    obj = np.round(rng.random(768), 2)  # ties exercised
    deltas = rng.normal(0.0, 0.1, size=(768, 4))
    dcfg = DetectConfig(pre_nms_k=100, post_nms_k=20, proposal_nms_iou=0.7)
    props = D.propose(obj, deltas, anchors, dcfg, side=64.0)

    idx = sorted(range(768), key=lambda i: (-obj[i], i))[:100]
    boxes, scores = [], []
    for i in idx:
        b = T.decode_boxes(deltas[i:i + 1], anchors.boxes[i:i + 1], side=64.0)[0]
        if b[2] - b[0] > 1e-6 and b[3] - b[1] > 1e-6:
            boxes.append(b)
            scores.append(obj[i])
    alive = list(range(len(boxes)))
    alive.sort(key=lambda i: (-scores[i], i))
    kept = []
    while alive:
        best = alive.pop(0)
        kept.append(best)
        alive = [i for i in alive if T.iou(boxes[best], boxes[i]) <= 0.7]
    kept = kept[:20]
    assert np.allclose(props.boxes, np.asarray([boxes[i] for i in kept]))
    assert np.allclose(props.scores, np.asarray([scores[i] for i in kept]))


def _full_oracle_nms(kept_counts):
    """Stand-in for ``nms`` that ignores ``max_keep``: the whole greedy pass."""
    def full(boxes, scores, iou_thresh, max_keep=None):
        kept = nms_oracle(boxes, scores, iou_thresh)
        kept_counts.append(len(kept))
        return np.asarray(kept, dtype=np.int64)
    return full


def test_propose_early_stop_matches_full_nms_then_cut(monkeypatch):
    anchors = T.generate_anchors(16, 16, stride=4.0, scales=(8.0, 16.0, 32.0))
    rng = np.random.default_rng(8)
    obj = np.round(rng.random(768), 2)
    deltas = rng.normal(0.0, 0.2, size=(768, 4))
    dcfg = DetectConfig(pre_nms_k=256, post_nms_k=12, proposal_nms_iou=0.5)
    got = D.propose(obj, deltas, anchors, dcfg, side=64.0)

    kept_counts = []
    monkeypatch.setattr(D, "nms", _full_oracle_nms(kept_counts))
    full = D.propose(obj, deltas, anchors, dcfg, side=64.0)
    assert kept_counts[0] > dcfg.post_nms_k
    assert len(got) == dcfg.post_nms_k
    assert got.boxes.tobytes() == full.boxes[:dcfg.post_nms_k].tobytes()
    assert got.scores.tobytes() == full.scores[:dcfg.post_nms_k].tobytes()


# ---------------------------------------------------------------------------
# roi heads
# ---------------------------------------------------------------------------

def test_roi_head_duplicate_proposals_identical_rows():
    m = pseudo_trained_base()
    feat = D.image_features(m, scene())
    boxes = np.array([[10.0, 10.0, 30.0, 30.0], [10.0, 10.0, 30.0, 30.0]])
    logits, deltas = D.roi_head_forward(m, feat, boxes, "base")
    assert np.array_equal(logits[0], logits[1])
    assert np.array_equal(deltas[0], deltas[1])
    assert logits.shape == (2, 9)


def test_roi_head_empty_proposals():
    m = pseudo_trained_base()
    feat = D.image_features(m, scene())
    logits, deltas = D.roi_head_forward(m, feat, np.zeros((0, 4)), "base")
    assert logits.shape == (0, 9) and deltas.shape == (0, 4)


def test_novel_head_scale_invariant_base_head_not():
    m = D.extend_for_finetune(pseudo_trained_base(), seed=2)
    rng = np.random.default_rng(3)
    rois = np.abs(rng.normal(size=(4, 64)))
    zb1, _ = D.box_head_scores(m, rois, "base")
    zb2, _ = D.box_head_scores(m, 10.0 * rois, "base")
    zn1, _ = D.box_head_scores(m, rois, "novel")
    zn2, _ = D.box_head_scores(m, 10.0 * rois, "novel")
    assert np.max(np.abs(zn1 - zn2)) < 1e-9
    assert np.max(np.abs(zb1 - zb2)) > 1e-3
    assert zn1.shape == (4, 13)


# ---------------------------------------------------------------------------
# logit padding
# ---------------------------------------------------------------------------

def test_pad_zero_novel_is_identity():
    z = np.array([[1.0, 2.0, 3.0]])
    assert np.array_equal(D.pad_base_logits(z, 0), z)


def test_pad_inserts_zeros_before_background():
    z = np.array([[2.0, -1.0, 0.5]])
    out = D.pad_base_logits(z, 2)
    assert out.tolist() == [[2.0, -1.0, 0.0, 0.0, 0.5]]


def test_pad_softmax_rows_sum_to_one():
    rng = np.random.default_rng(4)
    z = rng.normal(size=(6, 9))
    p = T.softmax(D.pad_base_logits(z, 4))
    assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-12


def test_pad_rejects_bad_input():
    with pytest.raises(StateError):
        D.pad_base_logits(np.zeros((2, 3)), -1)
    with pytest.raises(StateError):
        D.pad_base_logits(np.zeros(3), 2)


# ---------------------------------------------------------------------------
# merged inference
# ---------------------------------------------------------------------------

def test_merge_prefers_base_copy_on_equal_score():
    box = np.array([5.0, 5.0, 20.0, 20.0])
    cands = [(box, 3, 0.6, "novel"), (box, 3, 0.6, "base")]
    dets = D._merge_candidates(cands, DetectConfig())
    assert len(dets) == 1
    assert dets[0].source_head == "base"
    assert dets[0].score == 0.6  # bonus steers ranking only


def test_merge_keeps_distinct_classes():
    box = np.array([5.0, 5.0, 20.0, 20.0])
    cands = [(box, 3, 0.6, "novel"), (box, 7, 0.9, "novel")]
    dets = D._merge_candidates(cands, DetectConfig())
    assert {d.class_id for d in dets} == {3, 7}
    assert dets[0].class_id == 7  # sorted by rank


def test_merge_max_dets_cut_uses_rank():
    # novel candidate with higher raw score loses the cut to a bonused base one
    b1 = np.array([0.0, 0.0, 10.0, 10.0])
    b2 = np.array([30.0, 30.0, 40.0, 40.0])
    cands = [(b1, 1, 0.55, "novel"), (b2, 2, 0.50, "base")]
    dets = D._merge_candidates(cands, DetectConfig(max_dets=1))
    assert len(dets) == 1
    assert dets[0].class_id == 2 and dets[0].source_head == "base"


def test_merge_early_stop_matches_full_nms_then_cut(monkeypatch):
    rng = np.random.default_rng(12)
    cands = []
    for _ in range(120):
        xy = rng.integers(0, 50, size=2).astype(np.float64)
        box = np.concatenate([xy, xy + rng.integers(4, 14, size=2)])
        cid = 3 if rng.random() < 0.7 else int(rng.integers(0, 12))
        head = "base" if rng.random() < 0.5 else "novel"
        cands.append((box, cid, round(float(rng.random()), 1), head))
    dcfg = DetectConfig(max_dets=6)
    got = D._merge_candidates(cands, dcfg)

    kept_counts = []
    monkeypatch.setattr(D, "nms", _full_oracle_nms(kept_counts))
    full = D._merge_candidates(cands, dcfg)
    assert max(kept_counts) > dcfg.max_dets
    assert len(got) == dcfg.max_dets
    assert got == full


def test_detect_requires_stages():
    m = fresh_base()
    img = scene()
    with pytest.raises(StateError):
        D.detect_base(m, img, DetectConfig())
    m.stage = D.STAGE_BASE
    with pytest.raises(StateError):
        D.detect(m, img, DetectConfig())


def test_detect_zero_step_copy_matches_base_inference():
    base = pseudo_trained_base(seed=6)
    # sharpen the classifier so random logits are decisive rather than uniform
    base.params.arrays["cls_b/W"] *= 400.0
    m = D.extend_for_finetune(base, seed=2, classifier="fc", head_init="copy",
                              rpn_obj_init="copy", rpn_strategy="base-only")
    img = scene(seed=9)
    dcfg = DetectConfig()
    got = D.detect(m, img, dcfg)
    want = D.detect_base(base, img, dcfg)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.box == w.box
        assert g.class_id == w.class_id
        assert g.score == w.score
        assert g.source_head == "base"


def test_detection_contract_fields():
    base = pseudo_trained_base(seed=6)
    base.params.arrays["cls_b/W"] *= 400.0
    img = scene(seed=9)
    dets = D.detect_base(base, img, DetectConfig())
    assert dets, "sharpened random model should fire somewhere"
    for d in dets:
        assert 0.0 <= d.score <= 1.0
        assert d.class_id in SPLIT.base_ids
        assert d.source_head == "base"
        x1, y1, x2, y2 = d.box
        assert 0.0 <= x1 <= x2 <= 64.0 and 0.0 <= y1 <= y2 <= 64.0


def test_ensembled_proposals_strategies():
    base = pseudo_trained_base(seed=6)
    img = scene(seed=9)
    dcfg = DetectConfig()
    p_base = D.ensembled_proposals(base, img, dcfg, "base-only")
    assert len(p_base) > 0
    with pytest.raises(StateError):
        D.ensembled_proposals(base, img, dcfg, "max")
    m = D.extend_for_finetune(base, seed=2, rpn_obj_init="copy")
    p_max = D.ensembled_proposals(m, img, dcfg, "max")
    # copied head makes every strategy agree with base-only
    assert np.array_equal(p_max.boxes, p_base.boxes)


def test_detect_deterministic():
    base = pseudo_trained_base(seed=6)
    base.params.arrays["cls_b/W"] *= 400.0
    m = D.extend_for_finetune(base, seed=2)
    img = scene(seed=9)
    a = D.detect(m, img, DetectConfig())
    b = D.detect(m, img, DetectConfig())
    assert a == b
