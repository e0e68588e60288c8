"""Optimizer, target assignment, stage loops, and checkpoint format."""

import dataclasses
import json
import pickle
import struct
from hashlib import sha256

import numpy as np
import pytest

from retentive import trainer
from retentive.config import DatasetConfig, ExperimentConfig, TrainConfig, write_framed
from retentive.detector import (
    BASE_LAYERS,
    FINETUNE_TRAINABLE,
    HEAD_LAYERS,
    PRETRAIN_TRAINABLE,
    STAGE_BASE,
    STAGE_RETENTIVE,
    array_shapes,
    extend_for_finetune,
    head_classes,
    init_base_model,
    trainable_layers,
)
from retentive.errors import (
    CorruptArtifactError,
    CorruptCheckpointError,
    ParameterError,
    TrainingError,
)
from retentive.synthgen import build_base_dataset, build_kshot_dataset, split_classes
from retentive.trainer import (
    TrainLog,
    _run_stage,
    assign_targets,
    build_minibatch,
    finetune,
    load_checkpoint,
    pretrain,
    save_checkpoint,
    sgd_step,
    verify_checkpoint,
)


def tiny_cfg(pre_iters=40, ft_iters=20, window=10) -> ExperimentConfig:
    return ExperimentConfig(
        dataset=DatasetConfig(
            image_side=48, num_classes=6, num_novel=2, base_train_images=8,
            test_images=4, shots=2, min_instances=2, max_instances=3,
            min_glyph=12, max_glyph=20,
        ),
        pretrain=TrainConfig(max_iters=pre_iters, convergence_window=window),
        finetune=TrainConfig(max_iters=ft_iters, convergence_window=window),
    )


def tiny_world(seed=7, **kw):
    cfg = tiny_cfg(**kw)
    split = split_classes(cfg.dataset.num_classes, cfg.dataset.num_novel, seed)
    base_ds = build_base_dataset(cfg.dataset, split, seed)
    kshot_ds = build_kshot_dataset(cfg.dataset, split, seed)
    return cfg, split, base_ds, kshot_ds


# ---------------------------------------------------------------------------
# sgd_step
# ---------------------------------------------------------------------------

def test_sgd_matches_hand_recursion_on_quadratic():
    # loss 0.5*w^2 has gradient w; scalar recursion from w=1, lr=0.1, mu=0.9
    params = {"w/W": np.array([1.0])}
    velocity: dict = {}
    w, v = 1.0, 0.0
    for _ in range(6):
        sgd_step(params, {"w/W": params["w/W"].copy()}, velocity, 0.1, 0.9)
        v = 0.9 * v - 0.1 * w
        w = w + v
        assert params["w/W"][0] == w


def test_sgd_two_step_hand_values():
    params = {"w/W": np.array([1.0])}
    velocity: dict = {}
    sgd_step(params, {"w/W": params["w/W"].copy()}, velocity, 0.1, 0.9)
    assert abs(params["w/W"][0] - 0.9) < 1e-15
    sgd_step(params, {"w/W": params["w/W"].copy()}, velocity, 0.1, 0.9)
    assert abs(params["w/W"][0] - 0.72) < 1e-15


def test_sgd_leaves_ungraded_arrays_bitwise_intact():
    params = {"a/W": np.ones((2, 2)), "b/W": np.full((3,), 0.123456789)}
    before = params["b/W"].tobytes()
    sgd_step(params, {"a/W": np.ones((2, 2))}, {}, 0.1, 0.9)
    assert params["b/W"].tobytes() == before
    assert not np.array_equal(params["a/W"], np.ones((2, 2)))


def test_sgd_rejects_bad_gradients():
    params = {"a/W": np.ones((2, 2))}
    with pytest.raises(ParameterError):
        sgd_step(params, {"a/W": np.ones(3)}, {}, 0.1, 0.9)
    with pytest.raises(ParameterError):
        sgd_step(params, {"zz/W": np.ones((2, 2))}, {}, 0.1, 0.9)


# ---------------------------------------------------------------------------
# assign_targets
# ---------------------------------------------------------------------------

def test_rpn_assignment_three_anchor_oracle():
    tcfg = TrainConfig()
    anchors = np.array([
        [0.0, 0.0, 10.0, 10.0],   # IoU 1.0 -> positive
        [0.0, 0.0, 10.0, 20.0],   # IoU 0.5 -> ignored band
        [20.0, 20.0, 30.0, 30.0], # IoU 0.0 -> negative
    ])
    gt = np.array([[0.0, 0.0, 10.0, 10.0]])
    ta = assign_targets(anchors, gt, np.array([3]), "rpn", tcfg, seed=0)
    assert ta.labels.tolist() == [1, -1, 0]
    assert ta.matched_gt.tolist() == [0, 0, 0]
    assert sorted(ta.sample_idx.tolist()) == [0, 2]
    assert ta.sample_pos[list(ta.sample_idx).index(0)]
    assert not ta.sample_pos[list(ta.sample_idx).index(2)]


def test_rpn_best_anchor_forced_positive_below_threshold():
    tcfg = TrainConfig()
    anchors = np.array([
        [0.0, 0.0, 16.0, 16.0],    # IoU 64/256 = 0.25, below negative cut
        [40.0, 40.0, 56.0, 56.0],  # IoU 0
    ])
    gt = np.array([[0.0, 0.0, 8.0, 8.0]])
    ta = assign_targets(anchors, gt, np.array([1]), "rpn", tcfg, seed=0)
    assert ta.labels.tolist() == [1, 0]


# (0,0,10,20) against (0,0,10,10) overlaps by exactly 100 / 200 = 0.5
_HALF = np.array([0.0, 0.0, 10.0, 20.0])
_UNIT = np.array([0.0, 0.0, 10.0, 10.0])


def test_rpn_overlap_equal_to_the_positive_threshold_is_positive():
    tcfg = TrainConfig(rpn_pos_iou=0.5, rpn_neg_iou=0.3)
    # the second anchor equals the annotation, so the best-anchor rule claims
    # it and the first is positive only by the threshold
    ta = assign_targets(np.stack([_HALF, _UNIT]), _UNIT[None], np.array([3]), "rpn", tcfg, 0)
    assert ta.labels.tolist() == [1, 1]


def test_roi_overlap_equal_to_the_positive_threshold_takes_the_class():
    tcfg = TrainConfig(roi_pos_iou=0.5)
    ta = assign_targets(_HALF[None], _UNIT[None], np.array([4]), "roi", tcfg, seed=1)
    assert ta.labels.tolist() == [4]


def test_rpn_assignment_no_annotations_all_negative():
    tcfg = TrainConfig(rpn_per_image=8)
    anchors = np.tile(np.array([[0.0, 0.0, 4.0, 4.0]]), (20, 1)) + np.arange(20)[:, None]
    ta = assign_targets(anchors, np.zeros((0, 4)), np.zeros(0, dtype=int), "rpn", tcfg, 0)
    assert (ta.labels == 0).all()
    assert len(ta.sample_idx) == 8
    assert not ta.sample_pos.any()


def test_roi_assignment_labels_and_background():
    tcfg = TrainConfig()
    boxes = np.array([
        [0.0, 0.0, 10.0, 10.0],   # exact match -> class 4
        [0.0, 0.0, 10.0, 25.0],   # IoU 0.4 -> background
        [30.0, 30.0, 40.0, 40.0], # disjoint -> background
    ])
    gt = np.array([[0.0, 0.0, 10.0, 10.0]])
    ta = assign_targets(boxes, gt, np.array([4]), "roi", tcfg, seed=1)
    assert ta.labels.tolist() == [4, -1, -1]
    assert ta.matched_gt.tolist() == [0, 0, 0]


def test_roi_sampling_respects_budget_and_fraction():
    tcfg = TrainConfig(roi_per_image=32, roi_positive_fraction=0.25)
    dup = np.tile(np.array([[0.0, 0.0, 10.0, 10.0]]), (50, 1))
    far = np.tile(np.array([[30.0, 30.0, 40.0, 40.0]]), (50, 1))
    boxes = np.vstack([dup, far])
    gt = np.array([[0.0, 0.0, 10.0, 10.0]])
    ta = assign_targets(boxes, gt, np.array([2]), "roi", tcfg, seed=3)
    assert len(ta.sample_idx) == 32
    assert ta.sample_pos.sum() == 8
    # positives all come from the duplicate block
    assert (ta.sample_idx[ta.sample_pos] < 50).all()


def test_assignment_sampling_is_seeded():
    tcfg = TrainConfig(rpn_per_image=4)
    rng = np.random.default_rng(0)
    anchors = rng.uniform(0, 30, size=(40, 2))
    anchors = np.hstack([anchors, anchors + 8.0])
    gt = np.array([[5.0, 5.0, 13.0, 13.0]])
    a = assign_targets(anchors, gt, np.array([0]), "rpn", tcfg, seed=11)
    b = assign_targets(anchors, gt, np.array([0]), "rpn", tcfg, seed=11)
    assert a.sample_idx.tolist() == b.sample_idx.tolist()
    seen = {
        tuple(assign_targets(anchors, gt, np.array([0]), "rpn", tcfg, seed=s).sample_idx)
        for s in range(6)
    }
    assert len(seen) > 1


def test_assignment_rejects_unknown_mode_and_mismatched_gt():
    tcfg = TrainConfig()
    boxes = np.array([[0.0, 0.0, 4.0, 4.0]])
    with pytest.raises(ParameterError):
        assign_targets(boxes, boxes, np.array([0]), "anchors", tcfg, 0)
    with pytest.raises(ParameterError):
        assign_targets(boxes, boxes, np.array([0, 1]), "roi", tcfg, 0)


# ---------------------------------------------------------------------------
# minibatch materialization
# ---------------------------------------------------------------------------

def test_minibatch_shapes_and_slots_pretrain():
    cfg, split, base_ds, _ = tiny_world()
    model = init_base_model(split, cfg.model, feat_seed=7, seed=7)
    mb = build_minibatch(model, base_ds, [0, 1], cfg.pretrain,
                         cfg.detect, seed=7, iteration=0, cache={})
    assert mb.anchor_cells.shape[1] == cfg.model.mixer_channels
    assert mb.roi_feats.shape[1] == cfg.model.head_dim
    assert len(mb.anchor_label) == len(mb.anchor_scale) == len(mb.anchor_delta_t)
    assert mb.roi_base_probs is None
    # slots live in [0, num_base] with background last
    assert mb.roi_label.min() >= 0
    assert mb.roi_label.max() <= split.num_base
    assert set(mb.anchor_label.tolist()) <= {0.0, 1.0}
    assert mb.roi_pos.any()  # appended annotations guarantee positives
    assert (mb.roi_label[mb.roi_pos] < split.num_base).all()
    assert (mb.roi_label[~mb.roi_pos] == split.num_base).all()


def test_minibatch_finetune_carries_reference_probs():
    cfg, split, base_ds, kshot_ds = tiny_world()
    base = init_base_model(split, cfg.model, feat_seed=7, seed=7)
    base.stage = STAGE_BASE
    model = extend_for_finetune(base, 9, cfg.finetune)
    mb = build_minibatch(model, kshot_ds, [0, 1], cfg.finetune,
                         cfg.detect, seed=9, iteration=3, cache={})
    width = split.num_classes + 1
    assert mb.roi_base_probs is not None
    assert mb.roi_base_probs.shape == (len(mb.roi_label), width)
    np.testing.assert_allclose(mb.roi_base_probs.sum(axis=1), 1.0, atol=1e-12)
    assert mb.roi_label.max() <= split.num_classes


def test_minibatch_consistency_off_skips_reference_probs():
    cfg, split, _, kshot_ds = tiny_world()
    cfg = dataclasses.replace(cfg, finetune=dataclasses.replace(cfg.finetune, consistency="off"))
    base = init_base_model(split, cfg.model, feat_seed=7, seed=7)
    base.stage = STAGE_BASE
    model = extend_for_finetune(base, 9, cfg.finetune)
    mb = build_minibatch(model, kshot_ds, [0], cfg.finetune,
                         cfg.detect, seed=9, iteration=0, cache={})
    assert mb.roi_base_probs is None


def test_minibatch_novel_only_demotes_base_instances():
    cfg, split, _, kshot_ds = tiny_world()
    cfg = dataclasses.replace(cfg, finetune=dataclasses.replace(
        cfg.finetune, consistency="off", head_domain="novel-only"))
    base = init_base_model(split, cfg.model, feat_seed=7, seed=7)
    base.stage = STAGE_BASE
    model = extend_for_finetune(base, 9, cfg.finetune)
    # the k-shot set contains base-class instances; they must train as
    # background for a head that only scores scarce classes
    labels = []
    for i in range(len(kshot_ds)):
        mb = build_minibatch(model, kshot_ds, [i], cfg.finetune,
                             cfg.detect, seed=9, iteration=0, cache={})
        assert mb.roi_label.max() <= split.num_novel
        labels.extend(mb.roi_label[mb.roi_pos].tolist())
    assert labels, "expected at least one scarce-class positive"
    assert max(labels) < split.num_novel


@pytest.mark.parametrize("head_domain", [None, "all", "novel-only"])
def test_minibatch_slots_match_a_per_row_lookup(monkeypatch, head_domain):
    """The slot array gives, row for row, what a per-row dict lookup of each
    sampled RoI's class gives; None trains the base head of a fresh model."""
    cfg, split, _, kshot_ds = tiny_world()
    model = init_base_model(split, cfg.model, feat_seed=7, seed=7)
    tcfg, head = cfg.pretrain, "base"
    if head_domain is not None:
        model.stage = STAGE_BASE
        tcfg = dataclasses.replace(cfg.finetune, head_domain=head_domain, consistency="off")
        model, head = extend_for_finetune(model, 9, tcfg), "novel"
    drawn = []

    def recorded(*args, **kwargs):
        out = assign_targets(*args, **kwargs)
        if args[3] == "roi":
            drawn.append(out)
        return out

    monkeypatch.setattr(trainer, "assign_targets", recorded)
    mb = build_minibatch(model, kshot_ds, range(len(kshot_ds)), tcfg, cfg.detect, seed=9,
                         iteration=0, cache={})
    slot = {cid: i for i, cid in enumerate(head_classes(model, head))}
    want_label, want_pos, demoted = [], [], 0
    for roi in drawn:
        for c, p in zip(roi.labels[roi.sample_idx], roi.sample_pos):
            inside = bool(p) and int(c) in slot  # a class outside the domain is background
            demoted += bool(p) and not inside
            want_pos.append(inside)
            want_label.append(slot[int(c)] if inside else len(slot))
    assert mb.roi_label.tolist() == want_label
    assert mb.roi_pos.tolist() == want_pos
    assert 0 < sum(want_pos) < len(want_pos)
    assert (demoted > 0) == (head_domain != "all")


def test_minibatch_is_deterministic():
    cfg, split, base_ds, _ = tiny_world()
    model = init_base_model(split, cfg.model, feat_seed=7, seed=7)
    a = build_minibatch(model, base_ds, [2, 5], cfg.pretrain,
                        cfg.detect, seed=7, iteration=11, cache={})
    b = build_minibatch(model, base_ds, [2, 5], cfg.pretrain,
                        cfg.detect, seed=7, iteration=11, cache={})
    assert a.anchor_cells.tobytes() == b.anchor_cells.tobytes()
    assert a.roi_feats.tobytes() == b.roi_feats.tobytes()
    assert a.roi_label.tolist() == b.roi_label.tolist()
    assert a.roi_delta_t.tobytes() == b.roi_delta_t.tobytes()


def test_minibatch_rejects_unknown_stage():
    """Training proposals follow the model's RPN strategy, the one inference
    reads, and not the strategy of the config the minibatch is built under."""
    cfg, split, _, kshot_ds = tiny_world()
    base = init_base_model(split, cfg.model, feat_seed=7, seed=7)
    base.stage = STAGE_BASE
    model = extend_for_finetune(base, 9, TrainConfig(rpn_obj_init="random",
                                                     rpn_strategy="base-only"))

    def rois(rpn_strategy, tcfg_strategy):
        model.rpn_strategy = rpn_strategy
        tcfg = TrainConfig(rpn_strategy=tcfg_strategy)
        return build_minibatch(model, kshot_ds, [0, 1], tcfg, cfg.detect,
                               seed=9, iteration=0, cache={}).roi_feats.tobytes()

    assert rois("base-only", "max") == rois("base-only", "base-only")
    assert rois("max", "base-only") == rois("max", "max")
    assert rois("base-only", "max") != rois("max", "max")


def _stage_world(stage: str):
    """A model, dataset and config of one training stage, on the tiny world."""
    cfg, split, base_ds, kshot_ds = tiny_world()
    model = init_base_model(split, cfg.model, feat_seed=7, seed=7)
    if stage == "pretrain":
        return model, base_ds, cfg.pretrain, cfg
    model.stage = STAGE_BASE
    return extend_for_finetune(model, 9, cfg.finetune), kshot_ds, cfg.finetune, cfg


def _assert_same_arrays(a, b, name: str = "") -> None:
    """Two records equal, arrays bit for bit: every field of a dataclass and
    every item of a tuple, nested records too."""
    if isinstance(a, tuple):
        assert type(b) is tuple and len(a) == len(b), name
        for k, (x, y) in enumerate(zip(a, b)):
            _assert_same_arrays(x, y, f"{name}[{k}]")
    elif dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            _assert_same_arrays(getattr(a, f.name), getattr(b, f.name), f"{name}.{f.name}")
    elif isinstance(a, np.ndarray):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    else:
        assert a == b, name


@pytest.mark.parametrize("stage", ["pretrain", "finetune"])
def test_minibatch_from_a_warm_stage_cache_is_bitwise_a_cold_one(stage):
    model, ds, tcfg, cfg = _stage_world(stage)
    cache = {}
    build_minibatch(model, ds, [0, 1], tcfg, cfg.detect, seed=7, iteration=0, cache=cache)
    records = dict(cache)
    unmoved = build_minibatch(model, ds, [0, 1], tcfg, cfg.detect, seed=7, iteration=1, cache={})
    # move every array the stage trains, as its SGD steps would
    gen = np.random.default_rng(5)
    for key, arr in model.params.items():
        if key.split("/")[0] in trainable_layers(model):
            arr += gen.normal(0.0, 0.5, size=arr.shape)
    warm = build_minibatch(model, ds, [0, 1], tcfg, cfg.detect, seed=7, iteration=1, cache=cache)
    fresh = {}
    cold = build_minibatch(model, ds, [0, 1], tcfg, cfg.detect, seed=7, iteration=1, cache=fresh)
    assert cache.keys() == records.keys() and all(cache[i] is records[i] for i in records)
    assert unmoved.roi_feats.tobytes() != cold.roi_feats.tobytes()  # the move reached the batch
    _assert_same_arrays(warm, cold)
    # an entry, (ImageForward, (anchor labels, matches)), holds nothing that a
    # trainable array feeds
    for i in records:
        _assert_same_arrays(records[i], fresh[i])


def test_finetune_minibatch_leaves_rpn_box_targets_zero():
    """Only the base head trains the RPN box layer, so the finetuned head's
    minibatch keeps anchor_delta_t at its shape, all zeros."""
    for stage in ("pretrain", "finetune"):
        model, ds, tcfg, cfg = _stage_world(stage)
        mb = build_minibatch(model, ds, [0, 1], tcfg, cfg.detect, seed=7, iteration=0, cache={})
        pos = mb.anchor_label > 0.5
        assert pos.any() and mb.anchor_delta_t.shape == (len(mb.anchor_label), 4)
        assert (mb.anchor_delta_t[pos] != 0.0).any() == (stage == "pretrain")
        assert not mb.anchor_delta_t[~pos].any()


# ---------------------------------------------------------------------------
# stage loops
# ---------------------------------------------------------------------------

def test_pretrain_loss_windowed_mean_drops():
    cfg, _, base_ds, _ = tiny_world(pre_iters=120, window=20)
    model, log = pretrain(base_ds, cfg, seed=7)
    assert model.stage == STAGE_BASE
    assert set(trainable_layers(model)) == {"rpn_obj_b", "rpn_box", "cls_b", "reg_b"}
    totals = [r["total"] for r in log.records]
    w = cfg.pretrain.convergence_window
    assert len(totals) >= 2 * w
    start = float(np.mean(totals[:w]))
    stop = float(np.mean(totals[-w:]))
    assert stop <= start
    iters = [r["iteration"] for r in log.records]
    assert iters == sorted(set(iters))
    assert all(r["stage"] == "pretrain" for r in log.records)


def param_bytes(model, layers=None):
    """A model's arrays as (shape, bytes) by name, of the given layers (all by default)."""
    return {k: (a.shape, a.tobytes()) for k, a in model.params.items()
            if layers is None or k.split("/")[0] in layers}


def test_pretrain_is_bitwise_deterministic():
    cfg, _, base_ds, _ = tiny_world(pre_iters=25, window=60)
    m1, log1 = pretrain(base_ds, cfg, seed=13)
    m2, log2 = pretrain(base_ds, cfg, seed=13)
    assert param_bytes(m1) == param_bytes(m2)
    assert [r["total"] for r in log1.records] == [r["total"] for r in log2.records]
    m3, _ = pretrain(base_ds, cfg, seed=14)
    assert param_bytes(m3) != param_bytes(m1)


def test_training_error_on_non_finite_loss():
    cfg, split, base_ds, _ = tiny_world(pre_iters=5)
    model = init_base_model(split, cfg.model, feat_seed=7, seed=7)
    model.params["rpn_obj_b/W"][0, 0] = np.nan
    log = TrainLog(stage="pretrain", seed=7)
    with pytest.raises(TrainingError) as err:
        _run_stage(model, base_ds, cfg.pretrain, cfg.detect, 7, log)
    # the one line names the iteration and the term that went non-finite
    assert "at iteration 0:" in str(err.value) and "'l_obj': nan" in str(err.value)
    # a multirun worker's error reaches the parent by pickle, type and text
    back = pickle.loads(pickle.dumps(err.value))
    assert (type(back), str(back)) == (TrainingError, str(err.value))


def test_finetune_keeps_base_subset_frozen():
    cfg, _, base_ds, kshot_ds = tiny_world(pre_iters=25, ft_iters=15, window=60)
    base, _ = pretrain(base_ds, cfg, seed=7)
    before = param_bytes(base, BASE_LAYERS)
    model, log = finetune(base, kshot_ds, cfg, seed=7)
    assert model.stage == STAGE_RETENTIVE
    assert param_bytes(model, BASE_LAYERS) == before
    assert len(log.records) == 15
    # a window longer than the budget never converges
    assert log.records[-1]["stop_reason"] == "max_iters"
    assert not any("stop_reason" in r for r in log.records[:-1])
    # the adaptation layers actually moved
    fresh = extend_for_finetune(base, 7, cfg.finetune)
    assert param_bytes(model, FINETUNE_TRAINABLE) != param_bytes(fresh, FINETUNE_TRAINABLE)


def test_finetune_zero_iterations_is_extension_only():
    cfg, _, base_ds, kshot_ds = tiny_world(pre_iters=25, ft_iters=0, window=60)
    base, _ = pretrain(base_ds, cfg, seed=7)
    model, log = finetune(base, kshot_ds, cfg, seed=7)
    assert log.records == []
    fresh = extend_for_finetune(base, 7, cfg.finetune)
    assert param_bytes(model) == param_bytes(fresh)


def test_finetune_consistency_gradient_reduces_the_term():
    # descent on one fixed minibatch with a dominant consistency weight must
    # drive the term down; across resampled minibatches the trend only shows
    # once the reference head is converged, which the integration suite covers
    from retentive.losses import compute_gradients

    cfg, split, base_ds, kshot_ds = tiny_world(pre_iters=30, window=60)
    tcfg = TrainConfig(lam=5.0, lr=0.01, momentum=0.0)
    base, _ = pretrain(base_ds, cfg, seed=7)
    model = extend_for_finetune(base, 7, tcfg)
    mb = build_minibatch(model, kshot_ds, [0, 1], tcfg, cfg.detect,
                         seed=7, iteration=0, cache={})
    velocity: dict = {}
    trace = []
    for _ in range(120):
        losses, grads = compute_gradients(model, mb, tcfg)
        trace.append(losses["l_con"])
        sgd_step(model.params, grads, velocity, tcfg.lr, tcfg.momentum)
    assert trace[-1] < trace[0]
    # supervision bumps the term early; from the peak it must come well down
    assert trace[-1] < 0.6 * max(trace)


def test_convergence_uses_windowed_relative_change():
    assert trainer._converged([{"total": 1.0}] * 10, 5, 1e-9)
    assert not trainer._converged([{"total": 1.0}] * 9, 5, 1e9)
    cfg, _, base_ds, _ = tiny_world(pre_iters=400, window=5)
    loose = dataclasses.replace(cfg.pretrain, convergence_rel_tol=1e9)  # first check stops it
    cfg = dataclasses.replace(cfg, pretrain=loose)
    _, log = pretrain(base_ds, cfg, seed=7)
    assert len(log.records) == 10
    assert log.records[-1]["stop_reason"] == "converged@9"
    assert not any("stop_reason" in r for r in log.records[:-1])


def _totals(*totals):
    return [{"total": t} for t in totals]


def test_convergence_boundaries():
    # one record short of two windows never converges, whatever the tolerance
    assert not trainer._converged(_totals(*[1.0] * 7), 4, 1e9)
    assert trainer._converged(_totals(*[1.0] * 8), 4, 1e-9)
    # the relative change must fall strictly below rel_tol: 1.0 -> 1.5 is 0.5 exactly
    assert not trainer._converged(_totals(1.0, 1.0, 1.5, 1.5), 2, 0.5)
    assert trainer._converged(_totals(1.0, 1.0, 1.5, 1.5), 2, 0.5000001)
    # the windows are the last 2 * window records split in half: 1.1 -> 1.4 is 0.2727
    assert trainer._converged(_totals(9.0, 1.0, 1.2, 1.3, 1.5), 2, 0.28)
    assert not trainer._converged(_totals(9.0, 1.0, 1.2, 1.3, 1.5), 2, 0.27)


LOSS_TERMS = ("l_obj", "l_cls", "l_box", "l_box_rpn", "l_con")


def test_a_step_total_sums_its_terms_in_order():
    """total is l_obj + l_cls + l_box + l_box_rpn + lambda * l_con, in that
    order, on a real step of each stage; between the two every term is non-zero."""
    from retentive.losses import compute_gradients

    non_zero = set()
    for stage in ("pretrain", "finetune"):
        model, ds, tcfg, cfg = _stage_world(stage)
        mb = build_minibatch(model, ds, [0, 1], tcfg, cfg.detect, seed=7, iteration=0, cache={})
        rec = compute_gradients(model, mb, tcfg)[0]
        assert rec["lambda"] == (0.1 if stage == "finetune" else 0.0)
        assert rec["total"] == (rec["l_obj"] + rec["l_cls"] + rec["l_box"] + rec["l_box_rpn"]
                                + rec["lambda"] * rec["l_con"])
        non_zero |= {k for k in LOSS_TERMS if rec[k] != 0.0}
        if stage == "finetune":
            assert rec["lambda"] * rec["l_con"] > 1e-9 * rec["total"]
    assert non_zero == set(LOSS_TERMS)


def test_a_log_record_is_the_step_losses_and_its_place():
    """Every record holds the keys TrainLog.load checks, the wall_clock the
    benchmark harness reads and the step's losses; the last adds stop_reason."""
    cfg, _, base_ds, _ = tiny_world(pre_iters=3, window=60)
    _, log = pretrain(base_ds, cfg, seed=7)
    keys = {"iteration", "stage", "seed", "lr", "wall_clock", "lambda", "total", "empty",
            *LOSS_TERMS}
    assert [set(r) for r in log.records] == [keys, keys, keys | {"stop_reason"}]
    assert [(r["iteration"], r["stage"], r["seed"]) for r in log.records] == [
        (0, "pretrain", 7), (1, "pretrain", 7), (2, "pretrain", 7)]
    clocks = [r["wall_clock"] for r in log.records]
    assert clocks == sorted(clocks) and all(type(c) is float for c in clocks)


# ---------------------------------------------------------------------------
# logs on disk
# ---------------------------------------------------------------------------

def test_trainlog_roundtrip(tmp_path):
    cfg, _, base_ds, _ = tiny_world(pre_iters=6, window=60)
    _, log = pretrain(base_ds, cfg, seed=3)
    p = tmp_path / "train.jsonl"
    log.save(p)
    back = TrainLog.load(p)
    assert back.stage == "pretrain"
    assert back.seed == 3
    assert back.records == log.records


def test_trainlog_rejects_defects(tmp_path):
    p = tmp_path / "log.jsonl"
    rec = '{"iteration": 0, "stage": "pretrain", "seed": 1, "total": 1.0}'
    p.write_text(rec + "\n" + rec + "\n")
    with pytest.raises(CorruptArtifactError):
        TrainLog.load(p)
    p.write_text(rec + "\n" + rec.replace('"pretrain"', '"finetune"').replace('n": 0', 'n": 1') + "\n")
    with pytest.raises(CorruptArtifactError):
        TrainLog.load(p)
    p.write_text("")
    with pytest.raises(CorruptArtifactError):
        TrainLog.load(p)
    later = rec.replace('n": 0', 'n": 1')
    for defect in (later[:-5],                          # truncated line
                   "[1, 2]",                            # not an object
                   later.replace('"stage": "pretrain", ', ""),
                   later.replace('"seed": 1, ', ""),
                   later.replace('"iteration": 1, ', "")):
        p.write_text(rec + "\n" + defect + "\n")
        with pytest.raises(CorruptArtifactError):
            TrainLog.load(p)
    p.write_bytes(b"\xff\xfe" + rec.encode())
    with pytest.raises(CorruptArtifactError):
        TrainLog.load(p)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_roundtrip_is_bitwise(tmp_path):
    cfg, _, base_ds, kshot_ds = tiny_world(pre_iters=10, ft_iters=5, window=60)
    base, _ = pretrain(base_ds, cfg, seed=5)
    model, _ = finetune(base, kshot_ds, cfg, seed=5)
    p = tmp_path / "model.ckpt"
    digest = save_checkpoint(model, p)
    assert digest == verify_checkpoint(p)
    back = load_checkpoint(p)
    assert back.stage == STAGE_RETENTIVE
    assert back.feat_seed == model.feat_seed
    assert back.classifier == model.classifier
    assert back.head_domain == model.head_domain
    assert back.rpn_strategy == model.rpn_strategy
    assert back.split.to_dict() == model.split.to_dict()
    assert back.mcfg == model.mcfg
    assert trainable_layers(back) == trainable_layers(model)
    assert sorted(back.params) == sorted(model.params)
    for key, arr in model.params.items():
        assert back.params[key].tobytes() == arr.tobytes(), key
    # saving the loaded model reproduces the digest
    p2 = tmp_path / "again.ckpt"
    assert save_checkpoint(back, p2) == digest


def test_checkpoint_base_stage_roundtrip(tmp_path):
    cfg, _, base_ds, _ = tiny_world(pre_iters=5, window=60)
    base, _ = pretrain(base_ds, cfg, seed=5)
    p = tmp_path / "base.ckpt"
    save_checkpoint(base, p)
    back = load_checkpoint(p)
    assert back.stage == STAGE_BASE
    assert "cls_n/W" not in back.params


def test_checkpoint_whose_model_config_breaks_a_rule_is_corrupt(tmp_path):
    """The header's model config is built like any other config, so a value no
    ModelConfig admits is a corrupt checkpoint even under a valid digest."""
    cfg, split, _, _ = tiny_world()
    p = tmp_path / "m.ckpt"
    save_checkpoint(init_base_model(split, cfg.model, feat_seed=1, seed=1), p)
    blob = p.read_bytes()
    body = blob[:-32].replace(b'"cosine_scale":20.0', b'"cosine_scale":-2.0', 1)
    assert body != blob[:-32]
    p.write_bytes(body + sha256(body[16:]).digest())
    with pytest.raises(CorruptCheckpointError, match="cosine_scale must be"):
        load_checkpoint(p)


def test_checkpoint_rejects_corruption(tmp_path):
    cfg, split, _, _ = tiny_world()
    model = init_base_model(split, cfg.model, feat_seed=1, seed=1)
    p = tmp_path / "m.ckpt"
    save_checkpoint(model, p)
    blob = p.read_bytes()

    assert verify_checkpoint(p) == blob[-32:].hex()
    flipped = bytearray(blob)
    flipped[len(blob) // 2] ^= 0xFF
    versioned = bytearray(blob)
    versioned[8] = 99  # little-endian version field

    def renamed_key(old, new, rehash):
        """The blob with one header key renamed; rehashed, it passes the digest."""
        body = blob[:-32].replace(f'"{old}"'.encode(), f'"{new}"'.encode(), 1)
        return body + (sha256(body[16:]).digest() if rehash else blob[-32:])

    bad = {
        "trunc.ckpt": blob[:len(blob) // 2],
        "flip.ckpt": bytes(flipped),
        "magic.ckpt": b"XXXXXXXX" + blob[8:],
        "ver.ckpt": bytes(versioned),
        "empty.ckpt": b"",
        **{f"{new}-{rehash}.ckpt": renamed_key(old, new, rehash)
           for old, new in (("shape", "shapf"), ("arrays", "arrayz"))
           for rehash in (False, True)},
    }
    for name, data in bad.items():
        (tmp_path / name).write_bytes(data)
    for name in [*bad, "missing.ckpt"]:
        for read in (load_checkpoint, verify_checkpoint):
            with pytest.raises(CorruptCheckpointError):
                read(tmp_path / name)


def _framed(header_len: int, body: bytes) -> bytes:
    """A checkpoint file around body: magic, version, header_len, body and
    body's own digest, so it passes the hash check."""
    return (trainer.CHECKPOINT_MAGIC + struct.pack("<II", trainer.CHECKPOINT_VERSION, header_len)
            + body + sha256(body).digest())


def test_checkpoint_shorter_than_its_fixed_fields_is_truncated(tmp_path):
    cfg, split, _, _ = tiny_world()
    p = tmp_path / "m.ckpt"
    save_checkpoint(init_base_model(split, cfg.model, feat_seed=1, seed=1), p)
    blob = p.read_bytes()
    # every prefix through the magic, the version and length fields and the
    # digest; none may reach struct.unpack_from with too few bytes
    for n in range(len(trainer.CHECKPOINT_MAGIC) + 8 + 32 + 1):
        p.write_bytes(blob[:n])
        for read in (verify_checkpoint, load_checkpoint):
            with pytest.raises(CorruptCheckpointError, match="truncated"):
                read(p)


@pytest.mark.parametrize("past", [1, 2 ** 32 - 3])
def test_header_length_past_the_file_is_truncated(tmp_path, past):
    body = b"{}"
    p = tmp_path / "m.ckpt"
    p.write_bytes(_framed(len(body) + past, body))
    for read in (verify_checkpoint, load_checkpoint):
        with pytest.raises(CorruptCheckpointError, match="truncated"):
            read(p)


def test_empty_header_filling_the_file_exactly_is_unreadable_not_truncated(tmp_path):
    p = tmp_path / "m.ckpt"
    p.write_bytes(_framed(0, b""))
    assert len(p.read_bytes()) == len(trainer.CHECKPOINT_MAGIC) + 8 + 32
    for read in (verify_checkpoint, load_checkpoint):
        with pytest.raises(CorruptCheckpointError, match="unreadable header"):
            read(p)


def _reframed(blob: bytes, edit) -> tuple[dict, bytes]:
    """The header and payload of a framed blob after edit(header, payload)."""
    fixed = len(trainer.CHECKPOINT_MAGIC) + 8
    header_len = struct.unpack_from("<I", blob, fixed - 4)[0]
    return edit(json.loads(blob[fixed:fixed + header_len]), blob[fixed + header_len:-32])


@pytest.mark.parametrize("edit, extra", [
    (lambda h, p: (h, p), 0),
    (lambda h, p: (h, p[:-8]), -8),
    (lambda h, p: (h, p + bytes(8)), 8),
    (lambda h, p: ({**h, "arrays": h["arrays"] + [{"name": "zz/W", "shape": [1],
                                                   "trainable": False}]}, p), -8),
], ids=["exact", "one-float-short", "one-float-long", "one-array-more"])
def test_checkpoint_payload_length_is_checked_at_every_boundary(tmp_path, edit, extra):
    """A hash-valid checkpoint whose payload is one float off the arrays its
    header lists names both lengths; the exact length reads."""
    cfg, split, _, _ = tiny_world()
    p = tmp_path / "m.ckpt"
    save_checkpoint(init_base_model(split, cfg.model, feat_seed=1, seed=1), p)
    header, payload = _reframed(p.read_bytes(), edit)
    digest = write_framed(p, trainer.CHECKPOINT_MAGIC, trainer.CHECKPOINT_VERSION, header, payload)
    if not extra:
        assert verify_checkpoint(p) == digest
        return
    for read in (verify_checkpoint, load_checkpoint):
        with pytest.raises(CorruptCheckpointError) as err:
            read(p)
        assert str(err.value) == (f"checkpoint payload is {len(payload)} bytes; "
                                  f"expected {len(payload) - extra}")


@pytest.mark.parametrize("stage, flagged", [
    (STAGE_BASE, FINETUNE_TRAINABLE),
    (STAGE_RETENTIVE, PRETRAIN_TRAINABLE),
])
def test_checkpoint_rejects_flags_its_stage_would_not_write(tmp_path, monkeypatch, stage, flagged):
    """The stage alone decides what trains: per-array trainable flags that
    disagree with it are corrupt, even under a valid hash."""
    cfg, split, _, _ = tiny_world()
    model = init_base_model(split, cfg.model, feat_seed=1, seed=1)
    model.stage = STAGE_BASE
    if stage == STAGE_RETENTIVE:
        model = extend_for_finetune(model, 1, cfg.finetune)
    p = tmp_path / "m.ckpt"
    with monkeypatch.context() as mp:
        mp.setattr(trainer, "trainable_layers", lambda m: flagged)
        digest = save_checkpoint(model, p)
    assert verify_checkpoint(p) == digest
    with pytest.raises(CorruptCheckpointError, match="would not write"):
        load_checkpoint(p)


# every finetune head form the config admits: (classifier, head_domain, head_init)
_HEAD_FORMS = [("cos", "all", "random"), ("cos", "novel-only", "random"),
               ("fc", "all", "random"), ("fc", "novel-only", "random"), ("fc", "all", "copy")]


@pytest.mark.parametrize("classifier, head_domain, head_init", _HEAD_FORMS)
def test_every_head_form_holds_the_arrays_its_stage_calls_for(tmp_path, classifier,
                                                               head_domain, head_init):
    cfg, split, _, _ = tiny_world()
    base = init_base_model(split, cfg.model, feat_seed=1, seed=1)
    assert {k: v.shape for k, v in base.params.items()} == array_shapes(base)
    base.stage = STAGE_BASE
    tcfg = dataclasses.replace(cfg.finetune, classifier=classifier, head_domain=head_domain,
                               head_init=head_init,
                               consistency="off" if head_domain == "novel-only" else "kldiv")
    model = extend_for_finetune(base, 1, tcfg)
    assert {k: v.shape for k, v in model.params.items()} == array_shapes(model)
    save_checkpoint(model, tmp_path / "m.ckpt")
    assert sorted(load_checkpoint(tmp_path / "m.ckpt").params) == sorted(model.params)


@pytest.mark.parametrize("defect", ["missing", "extra", "misshapen"])
def test_checkpoint_rejects_arrays_its_stage_does_not_call_for(tmp_path, defect):
    """A hash-valid checkpoint whose header lists the arrays it holds still
    fails at load when they are not the arrays its stage, split, config,
    classifier and head domain call for."""
    cfg, split, _, _ = tiny_world()
    model = init_base_model(split, cfg.model, feat_seed=1, seed=1)
    model.stage = STAGE_BASE
    model = extend_for_finetune(model, 1, cfg.finetune)  # cosine: no classifier bias
    cls = HEAD_LAYERS["novel"][1]
    weights = model.params[f"{cls}/W"]
    if defect == "missing":
        del model.params[f"{cls}/W"]
    elif defect == "extra":
        model.params[f"{cls}/b"] = np.zeros(len(weights))
    else:
        model.params[f"{cls}/W"] = weights[:-1]
    p = tmp_path / "m.ckpt"
    assert save_checkpoint(model, p) == verify_checkpoint(p)
    with pytest.raises(CorruptCheckpointError, match="would not write"):
        load_checkpoint(p)
