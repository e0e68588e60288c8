import dataclasses
from hashlib import sha256

import numpy as np
import pytest

from oracles import conv3x3_oracle, grouped_nms_oracle, iou_scalar
from retentive import detector as D
from retentive import tensorops as T
from retentive.config import (
    RPN_STRATEGIES,
    DatasetConfig,
    DetectConfig,
    ExperimentConfig,
    ModelConfig,
    TrainConfig,
)
from retentive.errors import ConfigError, ParameterError, StateError
from retentive.synthgen import (
    build_base_dataset,
    build_kshot_dataset,
    build_test_dataset,
    render_scene,
    split_classes,
)
from retentive.trainer import finetune, pretrain

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
    img, _ = render_scene(DatasetConfig(), (0, 4, 9), seed)
    return img


# ---------------------------------------------------------------------------
# parameter plumbing
# ---------------------------------------------------------------------------

def test_init_base_model_arrays_and_flags():
    m = fresh_base()
    names = {k.split("/")[0] for k in m.params}
    assert names == set(D.BASE_LAYERS)
    assert D.trainable_layers(m) == D.PRETRAIN_TRAINABLE
    assert m.params["cls_b/W"].shape == (9, 64)
    assert m.params["rpn_obj_b/W"].shape == (3, 32)
    assert m.params["rpn_box/W"].shape == (12, 32)
    assert m.params["boxhead_proj/W"].shape == (64, 288)


def test_frozen_arrays_depend_only_on_feat_seed():
    a = D.init_base_model(SPLIT, MCFG, feat_seed=7, seed=1)
    b = D.init_base_model(SPLIT, MCFG, feat_seed=7, seed=99)
    assert a.params["rpn_shared/W"].tobytes() == b.params["rpn_shared/W"].tobytes()
    assert a.params["boxhead_proj/W"].tobytes() == b.params["boxhead_proj/W"].tobytes()
    assert a.params["cls_b/W"].tobytes() != b.params["cls_b/W"].tobytes()


def test_extend_for_finetune_adds_three_layers():
    base = pseudo_trained_base()
    m = D.extend_for_finetune(base, 2, TrainConfig())
    assert m.stage == D.STAGE_RETENTIVE
    assert D.trainable_layers(m) == D.FINETUNE_TRAINABLE
    assert m.params["cls_n/W"].shape == (13, 64)
    assert "cls_n/b" not in m.params  # cosine head has no bias
    assert m.params["rpn_obj_n/W"].tobytes() == m.params["rpn_obj_b/W"].tobytes()
    assert all(m.params[k].tobytes() == a.tobytes() for k, a in base.params.items())


def test_extend_requires_trained_base():
    with pytest.raises(StateError):
        D.extend_for_finetune(fresh_base(), 2, TrainConfig())


def test_extend_variants():
    base = pseudo_trained_base()
    fc = D.extend_for_finetune(base, 2, TrainConfig(classifier="fc"))
    assert "cls_n/b" in fc.params
    novel_only = D.extend_for_finetune(base, 2, TrainConfig(head_domain="novel-only",
                                                            consistency="off"))
    assert novel_only.params["cls_n/W"].shape == (5, 64)
    assert D.head_classes(novel_only, "novel") == SPLIT.novel_ids
    rnd = D.extend_for_finetune(base, 2, TrainConfig(rpn_obj_init="random"))
    assert rnd.params["rpn_obj_n/W"].tobytes() != rnd.params["rpn_obj_b/W"].tobytes()
    with pytest.raises(ConfigError):
        D.extend_for_finetune(base, 2, TrainConfig(head_init="copy"))  # needs fc over all classes


def test_head_init_copy_pads_base_head():
    base = pseudo_trained_base()
    m = D.extend_for_finetune(base, 2, TrainConfig(classifier="fc", head_init="copy"))
    w = m.params["cls_n/W"]
    assert np.array_equal(w[:8], m.params["cls_b/W"][:8])
    assert np.all(w[8:12] == 0.0)
    assert np.array_equal(w[12], m.params["cls_b/W"][8])
    assert np.array_equal(m.params["reg_n/W"], m.params["reg_b/W"])


def test_base_subset_digest_hashes_the_base_layers_by_name():
    base = pseudo_trained_base()
    want = sha256()
    for key in sorted(base.params):  # a base detector holds the base layers only
        want.update(key.encode())
        want.update(str(base.params[key].shape).encode())
        want.update(base.params[key].tobytes())
    m = D.extend_for_finetune(base, 2, TrainConfig())
    assert base.base_subset_digest() == m.base_subset_digest() == want.hexdigest()
    reversed_copy = {k: m.params[k].copy() for k in reversed(m.params)}
    assert dataclasses.replace(m, params=reversed_copy).base_subset_digest() == want.hexdigest()
    m.params["cls_n/W"][0, 0] += 1.0
    assert m.base_subset_digest() == want.hexdigest()
    m.params["reg_b/b"] = m.params["reg_b/b"] + 1.0  # the extended model's own is read-only
    assert m.base_subset_digest() != want.hexdigest()


def test_extended_model_base_arrays_are_read_only():
    """A stray in-place update of a frozen array raises at the write; the
    layers finetuning trains and the base model's own arrays stay writeable."""
    base = pseudo_trained_base()
    m = D.extend_for_finetune(base, 2, TrainConfig())
    for key, arr in m.params.items():
        layer = key.split("/")[0]
        assert layer in D.BASE_LAYERS or layer in D.FINETUNE_TRAINABLE, key
        assert arr.flags.writeable == (layer in D.FINETUNE_TRAINABLE), key
        if layer in D.BASE_LAYERS:
            with pytest.raises(ValueError, match="read-only"):
                arr += 1.0
    m.params["cls_n/W"] += 1.0
    assert all(arr.flags.writeable for arr in base.params.values())
    base.params["reg_b/b"] += 1.0


# ---------------------------------------------------------------------------
# rpn forward
# ---------------------------------------------------------------------------

def rpn_outputs(m, fwd, head):
    """One objectness head's per-anchor probabilities and the shared box deltas."""
    obj = T.sigmoid(D.rpn_objectness_logits(m, fwd.cells, head))
    return obj, D.rpn_box_deltas(m, fwd.cells)


def test_image_forward_is_the_loop_oracle_stack_channels_last():
    """feat is the two oracle convs, each rectified and 2x2-pooled, and cells the
    rectified oracle mixer over feat, both moved channels-last, bit for bit."""
    m = pseudo_trained_base()
    img = scene()
    x = img[None]
    for w in T._featurizer_banks(m.feat_seed, m.mcfg.feat_channels):
        y = np.maximum(conv3x3_oracle(x, w), 0.0)
        x = 0.25 * (y[:, 0::2, 0::2] + y[:, 0::2, 1::2] + y[:, 1::2, 0::2] + y[:, 1::2, 1::2])
    mixed = np.maximum(conv3x3_oracle(x, m.params["rpn_shared/W"]), 0.0)
    fwd = D.image_forward(m, img)
    assert fwd.feat.shape == (16, 16, 32) and fwd.cells.shape == (256, 32)
    assert fwd.feat.tobytes() == np.moveaxis(x, 0, -1).tobytes()
    assert fwd.cells.tobytes() == np.moveaxis(mixed, 0, -1).reshape(256, 32).tobytes()


def test_rpn_forward_shapes_and_range():
    m = pseudo_trained_base()
    fwd = D.image_forward(m, scene())
    assert np.moveaxis(fwd.feat, -1, 0).shape == (32, 16, 16)
    assert fwd.cells.shape == (256, 32) and fwd.side == 64
    obj, deltas = rpn_outputs(m, fwd, "base")
    assert obj.shape == (768,)
    assert deltas.shape == (768, 4)
    assert np.all(obj > 0.0) and np.all(obj < 1.0)


def test_rpn_heads_share_deltas():
    m = D.extend_for_finetune(pseudo_trained_base(), 2, TrainConfig(rpn_obj_init="random"))
    fwd = D.image_forward(m, scene())
    _, d_base = rpn_outputs(m, fwd, "base")
    _, d_novel = rpn_outputs(m, fwd, "novel")
    assert d_base.tobytes() == d_novel.tobytes()


def test_rpn_copied_head_matches_base():
    m = D.extend_for_finetune(pseudo_trained_base(), 2, TrainConfig(rpn_obj_init="copy"))
    fwd = D.image_forward(m, scene())
    o_b, _ = rpn_outputs(m, fwd, "base")
    o_n, _ = rpn_outputs(m, fwd, "novel")
    assert o_b.tobytes() == o_n.tobytes()


def test_rpn_novel_head_missing_is_state_error():
    m = pseudo_trained_base()
    fwd = D.image_forward(m, scene())
    with pytest.raises(StateError):
        D.strategy_proposals(m, fwd, DetectConfig(), ("max",))


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

def test_image_anchors_are_one_read_only_array():
    a = D.image_anchors(64, 4, (8.0, 16.0, 32.0))
    assert a is D.image_anchors(64, 4, (8.0, 16.0, 32.0))
    assert a.tobytes() == T.generate_anchors(16, 16, 4.0, (8.0, 16.0, 32.0)).tobytes()
    with pytest.raises(ValueError):
        a[0, 0] = 1.0


def decoded_proposals(obj, deltas, anchors, dcfg, side):
    """propose() over the top pre_nms_k anchors, each decoded from its own deltas."""
    ranked = T.rank(obj)[:dcfg.pre_nms_k]
    return D.propose(obj, ranked, T.decode_boxes(deltas[ranked], anchors[ranked], side=side),
                     dcfg)


def test_propose_rejects_boxes_not_aligned_with_the_ranking():
    obj = np.linspace(0.0, 1.0, 16)
    ranked = T.rank(obj)[:8]
    boxes = T.generate_anchors(4, 4, stride=4.0, scales=(8.0,))[ranked]
    with pytest.raises(ParameterError):
        D.propose(obj, ranked, boxes[:-1], DetectConfig())


def test_propose_tie_break_by_index():
    anchors = T.generate_anchors(4, 4, stride=4.0, scales=(8.0,))
    obj = np.full(16, 0.5)
    deltas = np.zeros((16, 4))
    dcfg = DetectConfig(pre_nms_k=16, post_nms_k=16, proposal_nms_iou=0.7)
    props = decoded_proposals(obj, deltas, anchors, dcfg, side=16.0)
    # anchors overlap heavily; survivors must be the earliest-index representatives
    first = props.boxes[0]
    want = T.clip_boxes(anchors[:1], 16.0)[0]
    assert np.allclose(first, want)


def test_propose_post_nms_k_one():
    anchors = T.generate_anchors(4, 4, stride=4.0, scales=(8.0,))
    rng = np.random.default_rng(1)
    obj = rng.random(16)
    deltas = rng.normal(0.0, 0.05, size=(16, 4))
    dcfg = DetectConfig(pre_nms_k=16, post_nms_k=1)
    props = decoded_proposals(obj, deltas, anchors, dcfg, side=16.0)
    assert len(props) == 1
    assert props.scores[0] == obj.max()


def test_propose_matches_composed_oracle():
    anchors = T.generate_anchors(16, 16, stride=4.0, scales=(8.0, 16.0, 32.0))
    rng = np.random.default_rng(33)
    obj = np.round(rng.random(768), 2)  # ties exercised
    deltas = rng.normal(0.0, 0.1, size=(768, 4))
    dcfg = DetectConfig(pre_nms_k=100, post_nms_k=20, proposal_nms_iou=0.7)
    props = decoded_proposals(obj, deltas, anchors, dcfg, side=64.0)

    idx = sorted(range(768), key=lambda i: (-obj[i], i))[:100]
    boxes, scores = [], []
    for i in idx:
        b = T.decode_boxes(deltas[i:i + 1], anchors[i:i + 1], side=64.0)[0]
        if b[2] - b[0] > 1e-6 and b[3] - b[1] > 1e-6:
            boxes.append(b)
            scores.append(obj[i])
    alive = list(range(len(boxes)))
    alive.sort(key=lambda i: (-scores[i], i))
    kept = []
    while alive:
        best = alive.pop(0)
        kept.append(best)
        alive = [i for i in alive if iou_scalar(boxes[best], boxes[i]) <= 0.7]
    kept = kept[:20]
    assert np.allclose(props.boxes, np.asarray([boxes[i] for i in kept]))
    assert np.allclose(props.scores, np.asarray([scores[i] for i in kept]))


def _full_oracle_nms(kept_counts):
    """Stand-in for ``nms`` that ignores ``max_keep``: the whole greedy pass,
    per group when ``groups`` is given."""
    def full(boxes, scores, iou_thresh, max_keep=None, groups=None):
        labels = [0] * len(scores) if groups is None else np.asarray(groups).tolist()
        kept = grouped_nms_oracle(boxes, scores, iou_thresh, labels)
        kept_counts.append(len(kept))
        return np.asarray(kept, dtype=np.int64)
    return full


def test_propose_early_stop_matches_full_nms_then_cut(monkeypatch):
    anchors = T.generate_anchors(16, 16, stride=4.0, scales=(8.0, 16.0, 32.0))
    rng = np.random.default_rng(8)
    obj = np.round(rng.random(768), 2)
    deltas = rng.normal(0.0, 0.2, size=(768, 4))
    dcfg = DetectConfig(pre_nms_k=256, post_nms_k=12, proposal_nms_iou=0.5)
    got = decoded_proposals(obj, deltas, anchors, dcfg, side=64.0)

    kept_counts = []
    monkeypatch.setattr(D, "nms", _full_oracle_nms(kept_counts))
    full = decoded_proposals(obj, deltas, anchors, dcfg, side=64.0)
    assert kept_counts[0] > dcfg.post_nms_k
    assert len(got) == dcfg.post_nms_k
    assert got.boxes.tobytes() == full.boxes[:dcfg.post_nms_k].tobytes()
    assert got.scores.tobytes() == full.scores[:dcfg.post_nms_k].tobytes()


# ---------------------------------------------------------------------------
# roi heads
# ---------------------------------------------------------------------------

def test_roi_head_duplicate_proposals_identical_rows():
    m = pseudo_trained_base()
    feat = D.image_forward(m, scene()).feat
    boxes = np.array([[10.0, 10.0, 30.0, 30.0], [10.0, 10.0, 30.0, 30.0]])
    logits, deltas = D.box_head_scores(m, D.roi_features(m, feat, boxes), "base")
    assert np.array_equal(logits[0], logits[1])
    assert np.array_equal(deltas[0], deltas[1])
    assert logits.shape == (2, 9)


def test_roi_head_empty_proposals():
    m = pseudo_trained_base()
    feat = D.image_forward(m, scene()).feat
    logits, deltas = D.box_head_scores(m, D.roi_features(m, feat, np.zeros((0, 4))), "base")
    assert logits.shape == (0, 9) and deltas.shape == (0, 4)


def test_novel_head_scale_invariant_base_head_not():
    m = D.extend_for_finetune(pseudo_trained_base(), 2, TrainConfig())
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

def merge(cands, dcfg):
    """_merge_candidates over (box, class id, probability, head) tuples."""
    boxes = np.array([c[0] for c in cands], dtype=np.float64).reshape(-1, 4)
    classes = np.array([c[1] for c in cands], dtype=np.int64)
    raw = np.array([c[2] for c in cands], dtype=np.float64)
    is_base = np.array([c[3] == "base" for c in cands], dtype=bool)
    return D._merge_candidates(boxes, classes, raw, is_base, dcfg)


def test_merge_prefers_base_copy_on_equal_score():
    box = np.array([5.0, 5.0, 20.0, 20.0])
    cands = [(box, 3, 0.6, "novel"), (box, 3, 0.6, "base")]
    dets = merge(cands, DetectConfig())
    assert len(dets) == 1
    assert dets[0].source_head == "base"
    assert dets[0].score == 0.6  # bonus steers ranking only


def test_merge_of_no_candidates_is_empty():
    assert merge([], DetectConfig()) == []


def test_merge_keeps_distinct_classes():
    box = np.array([5.0, 5.0, 20.0, 20.0])
    cands = [(box, 3, 0.6, "novel"), (box, 7, 0.9, "novel")]
    dets = merge(cands, DetectConfig())
    assert {d.class_id for d in dets} == {3, 7}
    assert dets[0].class_id == 7  # sorted by rank


def test_merge_max_dets_cut_uses_rank():
    # novel candidate with higher raw score loses the cut to a bonused base one
    b1 = np.array([0.0, 0.0, 10.0, 10.0])
    b2 = np.array([30.0, 30.0, 40.0, 40.0])
    cands = [(b1, 1, 0.55, "novel"), (b2, 2, 0.50, "base")]
    dets = merge(cands, DetectConfig(max_dets=1))
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
    got = merge(cands, dcfg)

    kept_counts = []
    monkeypatch.setattr(D, "nms", _full_oracle_nms(kept_counts))
    full = merge(cands, dcfg)
    assert max(kept_counts) > dcfg.max_dets
    assert len(got) == dcfg.max_dets
    assert got == full[:dcfg.max_dets]


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
    base.params["cls_b/W"] *= 400.0
    m = D.extend_for_finetune(base, 2, TrainConfig(classifier="fc", head_init="copy",
                                                   rpn_obj_init="copy", rpn_strategy="base-only"))
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
    base.params["cls_b/W"] *= 400.0
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
    m = D.extend_for_finetune(base, 2, TrainConfig(rpn_obj_init="copy"))
    p_max = D.ensembled_proposals(m, img, dcfg, "max")
    # copied head makes every strategy agree with base-only
    assert np.array_equal(p_max.boxes, p_base.boxes)


def test_detect_deterministic():
    base = pseudo_trained_base(seed=6)
    base.params["cls_b/W"] *= 400.0
    m = D.extend_for_finetune(base, 2, TrainConfig())
    img = scene(seed=9)
    a = D.detect(m, img, DetectConfig())
    b = D.detect(m, img, DetectConfig())
    assert a == b


# ---------------------------------------------------------------------------
# shared image forward
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_finetuned():
    """Base and retentive models briefly trained on a tiny config, test images."""
    cfg = ExperimentConfig(
        dataset=DatasetConfig(image_side=48, num_classes=6, num_novel=2, base_train_images=6,
                              test_images=4, shots=2, min_instances=2, max_instances=3,
                              min_glyph=12, max_glyph=20),
        pretrain=TrainConfig(max_iters=25, convergence_window=8),
        finetune=TrainConfig(max_iters=12, convergence_window=4, rpn_obj_init="random"),
    )
    split = split_classes(6, 2, seed=4)
    base, _ = pretrain(build_base_dataset(cfg.dataset, split, 41), cfg, 4)
    model, _ = finetune(base, build_kshot_dataset(cfg.dataset, split, 42), cfg, 4)
    return base, model, build_test_dataset(cfg.dataset, split, 43).images, cfg.detect


def det_bits(dets):
    """Detections as exact bit patterns of boxes and scores, plus classes and heads."""
    boxes = np.array([d.box for d in dets], dtype=np.float64).reshape(-1, 4)
    scores = np.array([d.score for d in dets], dtype=np.float64)
    return (boxes.view(np.uint64).tolist(), scores.view(np.uint64).tolist(),
            [d.class_id for d in dets], [d.source_head for d in dets])


def scored(model, props, rows, img, dcfg, heads):
    """Detections of the given heads over proposals and their ROI feature rows."""
    return D.score_proposals(model, props, rows, img.shape[0], dcfg, heads)


def prop_bits(props):
    return props.boxes.view(np.uint64).tolist(), props.scores.view(np.uint64).tolist()


@pytest.mark.parametrize("strategy", RPN_STRATEGIES)
def test_shared_forward_matches_per_image_path(tiny_finetuned, strategy):
    base, model, images, dcfg = tiny_finetuned
    model = dataclasses.replace(model, rpn_strategy=strategy)
    n_dets = 0
    for img in images:
        fwd = D.image_forward(model, img)
        shared = D.strategy_proposals(model, fwd, dcfg, RPN_STRATEGIES)
        assert list(shared) == list(RPN_STRATEGIES)
        for s in RPN_STRATEGIES:
            assert prop_bits(shared[s]) == prop_bits(
                D.strategy_proposals(model, fwd, dcfg, (s,))[s])
        assert prop_bits(shared[strategy]) == prop_bits(
            D.ensembled_proposals(model, img, dcfg, strategy))
        # the base model has no finetuned objectness head; "base-only" alone needs none
        assert prop_bits(shared["base-only"]) == prop_bits(
            D.strategy_proposals(base, fwd, dcfg, ("base-only",))["base-only"])
        (rows,) = D.roi_rows(model, fwd.feat[None], [(0, shared[strategy].boxes)])
        got = scored(model, shared[strategy], rows, img, dcfg, ("base", "novel"))
        assert det_bits(got) == det_bits(D.detect(model, img, dcfg))
        alone = D.strategy_proposals(model, fwd, dcfg, (strategy,))[strategy]
        (rows,) = D.roi_rows(model, fwd.feat[None], [(0, alone.boxes)])
        assert det_bits(got) == det_bits(scored(model, alone, rows, img, dcfg, ("base", "novel")))
        # the base detector's own forward and proposals are the retentive model's
        (rows,) = D.roi_rows(model, fwd.feat[None], [(0, shared["base-only"].boxes)])
        got_base = scored(base, shared["base-only"], rows, img, dcfg, ("base",))
        assert det_bits(got_base) == det_bits(D.detect_base(base, img, dcfg))
        n_dets += len(got) + len(got_base)
    assert n_dets > 0


@pytest.mark.parametrize("strategy", RPN_STRATEGIES)
def test_proposal_anchor_ids_name_the_decoded_anchor(tiny_finetuned, strategy):
    # every proposal box is one row of decode_boxes over the strategy's ranked
    # anchors, and no box repeats, so a box's bytes name its anchor
    _, model, images, dcfg = tiny_finetuned
    for img in images:
        fwd = D.image_forward(model, img)
        o_b, o_n = (T.sigmoid(D.rpn_objectness_logits(model, fwd.cells, head))
                    for head in ("base", "novel"))
        ranked = T.rank(D.bias_balanced_objectness(o_b, o_n, strategy))[:dcfg.pre_nms_k]
        anchors = D.image_anchors(fwd.side, model.mcfg.feat_stride, model.mcfg.anchor_scales)
        decoded = T.decode_boxes(D.rpn_box_deltas(model, fwd.cells)[ranked], anchors[ranked],
                                 side=float(fwd.side))
        anchor_of = {row.tobytes(): int(a) for a, row in zip(ranked, decoded)}
        for props in (D.strategy_proposals(model, fwd, dcfg, (strategy,))[strategy],
                      D.strategy_proposals(model, fwd, dcfg, RPN_STRATEGIES)[strategy]):
            ids = [anchor_of.get(box.tobytes()) for box in props.boxes]
            assert len(ids) == len(props) > 0 and None not in ids and len(set(ids)) == len(ids)


@pytest.mark.parametrize("strategy", RPN_STRATEGIES)
def test_detectors_on_shared_pooled_rows_match_their_own_pooling(tiny_finetuned, strategy):
    base, model, images, dcfg = tiny_finetuned
    model = dataclasses.replace(model, rpn_strategy=strategy)
    n_dets = 0
    for img in images:
        fwd = D.image_forward(model, img)
        per = D.strategy_proposals(model, fwd, dcfg, RPN_STRATEGIES)
        mine, theirs = per[strategy], per["base-only"]
        mine_rows, their_rows, no_rows = D.roi_rows(
            model, fwd.feat[None], [(0, mine.boxes), (0, theirs.boxes), (0, np.empty((0, 4)))])
        assert len(no_rows) == 0
        assert mine_rows.tobytes() == D.roi_features(model, fwd.feat, mine.boxes).tobytes()
        # the models share their projection, so the adapted one serves the base detector
        assert their_rows.tobytes() == D.roi_features(base, fwd.feat, theirs.boxes).tobytes()
        side = float(img.shape[0])
        boxes = np.array([[2.0, 3.0, side / 2, side - 5.0], [0.0, 0.0, side, side]])
        *sets, box_rows = D.roi_rows(model, fwd.feat[None],
                                     [(0, mine.boxes), (0, theirs.boxes), (0, boxes)])
        assert [r.tobytes() for r in sets] == [mine_rows.tobytes(), their_rows.tobytes()]
        assert box_rows.tobytes() == D.roi_features(model, fwd.feat, boxes).tobytes()
        got = scored(model, mine, mine_rows, img, dcfg, ("base", "novel"))
        assert det_bits(got) == det_bits(D.detect(model, img, dcfg))
        got_base = scored(base, theirs, their_rows, img, dcfg, ("base",))
        assert det_bits(got_base) == det_bits(D.detect_base(base, img, dcfg))
        n_dets += len(got) + len(got_base)
    assert n_dets > 0


def test_pooled_rows_need_the_proposals_they_pool(tiny_finetuned):
    base, model, images, dcfg = tiny_finetuned
    fwd = D.image_forward(model, images[0])
    props = D.strategy_proposals(model, fwd, dcfg, ("base-only",))["base-only"]
    (rows,) = D.roi_rows(model, fwd.feat[None], [(0, props.boxes)])
    assert len(rows) == len(props) > 0
    for short in (rows[:-1], np.empty((0, rows.shape[1]))):
        with pytest.raises(ParameterError, match="ROI feature rows"):
            scored(base, props, short, images[0], dcfg, ("base",))


def test_roi_rows_pool_each_distinct_map_and_box_once(tiny_finetuned, monkeypatch):
    _, model, images, _ = tiny_finetuned
    feats = [D.image_forward(model, img).feat for img in images[:2]]
    side = float(images[0].shape[0])
    a, b, c = [2.0, 3.0, side / 2, side - 5.0], [0.0, 0.0, side, side], [5.0, 6.0, 20.0, 30.0]
    sets = [(0, np.array([a, b, a])),   # a box repeated within a set
            (1, np.array([a, c])),      # the same box on the other map
            (0, np.array([c, b])),      # boxes repeated across sets
            (1, np.empty((0, 4)))]
    mcfg, proj = model.mcfg, model.params["boxhead_proj/W"]
    alone = []
    for m, boxes in sets:
        (rows,) = D.roi_rows(model, feats[m][None], [(0, boxes)])
        pooled = T.roi_pool(feats[m][None], boxes, bins=mcfg.roi_pool_bins,
                            stride=float(mcfg.feat_stride),
                            batch_idx=np.zeros(len(boxes), dtype=np.int64))
        assert rows.tobytes() == np.maximum(pooled @ proj.T, 0.0).tobytes()
        alone.append(rows)

    calls = []

    def counting(feat, boxes, bins, stride, batch_idx):
        calls.append([(int(m), tuple(box)) for m, box in zip(batch_idx, boxes.tolist())])
        return T.roi_pool(feat, boxes, bins=bins, stride=stride, batch_idx=batch_idx)

    monkeypatch.setattr(D, "roi_pool", counting)
    got = D.roi_rows(model, np.stack(feats), sets)
    assert len(calls) == 1
    assert sorted(calls[0]) == sorted({(0, tuple(a)), (0, tuple(b)), (0, tuple(c)),
                                       (1, tuple(a)), (1, tuple(c))})
    assert [r.tobytes() for r in got] == [r.tobytes() for r in alone]
    assert got[0][0].tobytes() == got[0][2].tobytes()
    assert got[3].shape == (0, mcfg.head_dim)


def test_strategy_proposals_reject_a_forward_off_the_anchor_grid(tiny_finetuned):
    _, model, images, dcfg = tiny_finetuned
    # two anchors per cell where the forward's RPN outputs hold three
    other = dataclasses.replace(model, mcfg=dataclasses.replace(model.mcfg,
                                                                anchor_scales=(8.0, 16.0)))
    with pytest.raises(ParameterError):
        D.strategy_proposals(other, D.image_forward(model, images[0]), dcfg, ("base-only",))


def test_strategies_differ_on_the_fixture(tiny_finetuned):
    _, model, images, dcfg = tiny_finetuned
    fwd = D.image_forward(model, images[0])
    scores = {tuple(D.strategy_proposals(model, fwd, dcfg, (s,))[s].scores.tolist())
              for s in RPN_STRATEGIES}
    assert len(scores) == len(RPN_STRATEGIES)


def test_forward_proposals_rejects_unknown_strategy(tiny_finetuned):
    _, model, images, dcfg = tiny_finetuned
    with pytest.raises(ParameterError):
        D.strategy_proposals(model, D.image_forward(model, images[0]), dcfg, ("median",))


def test_strategy_proposals_rejects_unknown_strategy(tiny_finetuned):
    _, model, images, dcfg = tiny_finetuned
    with pytest.raises(ParameterError):
        D.strategy_proposals(model, D.image_forward(model, images[0]), dcfg, ("max", "median"))


def double_loop_candidates(heads, score_thresh):
    """Candidate tuples built the way detect assembled them one probability at a time."""
    cands = []
    for i in range(len(heads[0][1])):
        for is_base, p, b, ids in heads:
            for slot, cid in enumerate(ids):
                v = float(p[i, slot])
                if v >= score_thresh:
                    cands.append((b[i], cid, v, "base" if is_base else "novel"))
    return cands


@pytest.mark.parametrize("n_heads", [1, 2])
def test_candidate_arrays_match_double_loop_at_threshold(n_heads):
    rng = np.random.default_rng(21)
    thresh = 0.25
    values = [0.0, np.nextafter(thresh, 0.0), thresh, np.nextafter(thresh, 1.0), 0.9]
    base_ids, novel_ids = (0, 2, 5, 7), (0, 2, 5, 7, 1, 3)
    heads = [(True, rng.choice(values, size=(9, len(base_ids) + 1)),
              rng.random((9, 4)) * 40, base_ids),
             (False, rng.choice(values, size=(9, len(novel_ids) + 1)),
              rng.random((9, 4)) * 40, novel_ids)][:n_heads]
    want = double_loop_candidates(heads, thresh)
    boxes, classes, raw, is_base = D._assemble_candidates(heads, thresh)
    assert any(c[2] == thresh for c in want)
    assert not any(c[2] == np.nextafter(thresh, 0.0) for c in want)
    assert boxes.view(np.uint64).tolist() == np.array(
        [c[0] for c in want]).reshape(-1, 4).view(np.uint64).tolist()
    assert classes.tolist() == [c[1] for c in want]
    assert raw.tolist() == [c[2] for c in want]
    assert ["base" if b else "novel" for b in is_base] == [c[3] for c in want]
    dcfg = DetectConfig(max_dets=8)
    assert D._merge_candidates(boxes, classes, raw, is_base, dcfg) == merge(want, dcfg)
