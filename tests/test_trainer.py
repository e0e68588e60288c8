"""Optimizer, target assignment, stage loops, and checkpoint format."""

import numpy as np
import pytest

from retentive.config import DatasetConfig, ExperimentConfig, TrainConfig
from retentive.detector import (
    BASE_LAYERS,
    NOVEL_LAYERS,
    STAGE_BASE,
    STAGE_RETENTIVE,
    ParamSet,
    extend_for_finetune,
    init_base_model,
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
    windowed_means,
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
    kshot_ds = build_kshot_dataset(cfg.dataset, split, cfg.dataset.shots, seed)
    return cfg, split, base_ds, kshot_ds


# ---------------------------------------------------------------------------
# sgd_step
# ---------------------------------------------------------------------------

def test_sgd_matches_hand_recursion_on_quadratic():
    # loss 0.5*w^2 has gradient w; scalar recursion from w=1, lr=0.1, mu=0.9
    params = ParamSet(arrays={"w/W": np.array([1.0])}, trainable={"w"})
    velocity: dict = {}
    w, v = 1.0, 0.0
    for _ in range(6):
        sgd_step(params, {"w/W": params.arrays["w/W"].copy()}, velocity, 0.1, 0.9)
        v = 0.9 * v - 0.1 * w
        w = w + v
        assert params.arrays["w/W"][0] == w


def test_sgd_two_step_hand_values():
    params = ParamSet(arrays={"w/W": np.array([1.0])}, trainable={"w"})
    velocity: dict = {}
    sgd_step(params, {"w/W": params.arrays["w/W"].copy()}, velocity, 0.1, 0.9)
    assert abs(params.arrays["w/W"][0] - 0.9) < 1e-15
    sgd_step(params, {"w/W": params.arrays["w/W"].copy()}, velocity, 0.1, 0.9)
    assert abs(params.arrays["w/W"][0] - 0.72) < 1e-15


def test_sgd_leaves_ungraded_arrays_bitwise_intact():
    params = ParamSet(
        arrays={"a/W": np.ones((2, 2)), "b/W": np.full((3,), 0.123456789)},
        trainable={"a"},
    )
    before = params.arrays["b/W"].tobytes()
    sgd_step(params, {"a/W": np.ones((2, 2))}, {}, 0.1, 0.9)
    assert params.arrays["b/W"].tobytes() == before
    assert not np.array_equal(params.arrays["a/W"], np.ones((2, 2)))


def test_sgd_rejects_bad_gradients():
    params = ParamSet(arrays={"a/W": np.ones((2, 2))}, trainable={"a"})
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
    mb = build_minibatch(model, base_ds, [0, 1], "pretrain", cfg.pretrain,
                         cfg.detect, seed=7, iteration=0)
    assert mb.anchor_cells.shape[1] == cfg.model.mixer_channels
    assert mb.roi_feats.shape[1] == cfg.model.head_dim
    assert mb.num_anchors == len(mb.anchor_scale) == len(mb.anchor_delta_t)
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
    model = extend_for_finetune(base, seed=9)
    mb = build_minibatch(model, kshot_ds, [0, 1], "finetune", cfg.finetune,
                         cfg.detect, seed=9, iteration=3)
    width = split.num_classes + 1
    assert mb.roi_base_probs is not None
    assert mb.roi_base_probs.shape == (mb.num_rois, width)
    np.testing.assert_allclose(mb.roi_base_probs.sum(axis=1), 1.0, atol=1e-12)
    assert mb.roi_label.max() <= split.num_classes


def test_minibatch_consistency_off_skips_reference_probs():
    cfg, split, _, kshot_ds = tiny_world()
    cfg.finetune.consistency = "off"
    base = init_base_model(split, cfg.model, feat_seed=7, seed=7)
    base.stage = STAGE_BASE
    model = extend_for_finetune(base, seed=9)
    mb = build_minibatch(model, kshot_ds, [0], "finetune", cfg.finetune,
                         cfg.detect, seed=9, iteration=0)
    assert mb.roi_base_probs is None


def test_minibatch_novel_only_demotes_base_instances():
    cfg, split, _, kshot_ds = tiny_world()
    cfg.finetune.consistency = "off"
    cfg.finetune.head_domain = "novel-only"
    base = init_base_model(split, cfg.model, feat_seed=7, seed=7)
    base.stage = STAGE_BASE
    model = extend_for_finetune(base, seed=9, head_domain="novel-only")
    # the k-shot set contains base-class instances; they must train as
    # background for a head that only scores scarce classes
    labels = []
    for i in range(len(kshot_ds)):
        mb = build_minibatch(model, kshot_ds, [i], "finetune", cfg.finetune,
                             cfg.detect, seed=9, iteration=0)
        assert mb.roi_label.max() <= split.num_novel
        labels.extend(mb.roi_label[mb.roi_pos].tolist())
    assert labels, "expected at least one scarce-class positive"
    assert max(labels) < split.num_novel


def test_minibatch_is_deterministic():
    cfg, split, base_ds, _ = tiny_world()
    model = init_base_model(split, cfg.model, feat_seed=7, seed=7)
    a = build_minibatch(model, base_ds, [2, 5], "pretrain", cfg.pretrain,
                        cfg.detect, seed=7, iteration=11)
    b = build_minibatch(model, base_ds, [2, 5], "pretrain", cfg.pretrain,
                        cfg.detect, seed=7, iteration=11)
    assert a.anchor_cells.tobytes() == b.anchor_cells.tobytes()
    assert a.roi_feats.tobytes() == b.roi_feats.tobytes()
    assert a.roi_label.tolist() == b.roi_label.tolist()
    assert a.roi_delta_t.tobytes() == b.roi_delta_t.tobytes()


def test_minibatch_rejects_unknown_stage():
    cfg, split, base_ds, _ = tiny_world()
    model = init_base_model(split, cfg.model, feat_seed=7, seed=7)
    with pytest.raises(ParameterError):
        build_minibatch(model, base_ds, [0], "warmup", cfg.pretrain, cfg.detect, 7, 0)


# ---------------------------------------------------------------------------
# stage loops
# ---------------------------------------------------------------------------

def test_pretrain_loss_windowed_mean_drops():
    cfg, _, base_ds, _ = tiny_world(pre_iters=120, window=20)
    model, log = pretrain(base_ds, cfg, seed=7)
    assert model.stage == STAGE_BASE
    assert set(model.params.trainable) == {"rpn_obj_b", "rpn_box", "cls_b", "reg_b"}
    totals = log.totals()
    w = cfg.pretrain.convergence_window
    assert len(totals) >= 2 * w
    start = float(np.mean(totals[:w]))
    stop = float(np.mean(totals[-w:]))
    assert stop <= start
    iters = [r["iteration"] for r in log.records]
    assert iters == sorted(set(iters))
    assert all(r["stage"] == "pretrain" for r in log.records)


def test_pretrain_is_bitwise_deterministic():
    cfg, _, base_ds, _ = tiny_world(pre_iters=25, window=60)
    m1, log1 = pretrain(base_ds, cfg, seed=13)
    m2, log2 = pretrain(base_ds, cfg, seed=13)
    assert m1.params.digest() == m2.params.digest()
    assert log1.totals() == log2.totals()
    m3, _ = pretrain(base_ds, cfg, seed=14)
    assert m3.params.digest() != m1.params.digest()


def test_training_error_on_non_finite_loss():
    cfg, split, base_ds, _ = tiny_world(pre_iters=5)
    model = init_base_model(split, cfg.model, feat_seed=7, seed=7)
    model.params.arrays["rpn_obj_b/W"][0, 0] = np.nan
    log = TrainLog(stage="pretrain", seed=7)
    with pytest.raises(TrainingError) as err:
        _run_stage(model, base_ds, "pretrain", cfg.pretrain, cfg.detect, 7, log)
    assert err.value.iteration == 0
    assert "l_obj" in err.value.diagnostics


def test_finetune_keeps_base_subset_frozen():
    cfg, _, base_ds, kshot_ds = tiny_world(pre_iters=25, ft_iters=15, window=60)
    base, _ = pretrain(base_ds, cfg, seed=7)
    before = base.params.digest(BASE_LAYERS)
    model, log = finetune(base, kshot_ds, cfg, seed=7)
    assert model.stage == STAGE_RETENTIVE
    assert model.params.digest(BASE_LAYERS) == before
    assert len(log.records) == 15
    # the adaptation layers actually moved
    fresh = extend_for_finetune(base, seed=7)
    assert model.params.digest(NOVEL_LAYERS) != fresh.params.digest(NOVEL_LAYERS)


def test_finetune_zero_iterations_is_extension_only():
    cfg, _, base_ds, kshot_ds = tiny_world(pre_iters=25, ft_iters=0, window=60)
    base, _ = pretrain(base_ds, cfg, seed=7)
    model, log = finetune(base, kshot_ds, cfg, seed=7)
    assert log.records == []
    fresh = extend_for_finetune(base, seed=7, classifier=cfg.finetune.classifier,
                                head_domain=cfg.finetune.head_domain,
                                rpn_obj_init=cfg.finetune.rpn_obj_init,
                                head_init=cfg.finetune.head_init,
                                rpn_strategy=cfg.finetune.rpn_strategy)
    assert model.params.digest() == fresh.params.digest()


def test_finetune_consistency_gradient_reduces_the_term():
    # descent on one fixed minibatch with a dominant consistency weight must
    # drive the term down; across resampled minibatches the trend only shows
    # once the reference head is converged, which the integration suite covers
    from retentive.losses import compute_gradients

    cfg, split, base_ds, kshot_ds = tiny_world(pre_iters=30, window=60)
    tcfg = TrainConfig(lam=5.0, lr=0.01, momentum=0.0)
    base, _ = pretrain(base_ds, cfg, seed=7)
    model = extend_for_finetune(base, seed=7)
    mb = build_minibatch(model, kshot_ds, [0, 1], "finetune", tcfg, cfg.detect,
                         seed=7, iteration=0)
    velocity: dict = {}
    trace = []
    for _ in range(120):
        breakdown, grads = compute_gradients(model, mb, "finetune", tcfg)
        trace.append(breakdown.l_con)
        sgd_step(model.params, grads, velocity, tcfg.lr, tcfg.momentum)
    assert trace[-1] < trace[0]
    # supervision bumps the term early; from the peak it must come well down
    assert trace[-1] < 0.6 * max(trace)


def test_convergence_uses_windowed_relative_change():
    assert windowed_means([1.0] * 10, 5) == (1.0, 1.0)
    assert windowed_means([1.0] * 9, 5) is None
    cfg, _, base_ds, _ = tiny_world(pre_iters=400, window=5)
    cfg.pretrain.convergence_rel_tol = 1e9  # first possible check stops it
    _, log = pretrain(base_ds, cfg, seed=7)
    assert len(log.records) == 10


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
    assert back.params.trainable == model.params.trainable
    assert sorted(back.params.arrays) == sorted(model.params.arrays)
    for key, arr in model.params.arrays.items():
        assert back.params.arrays[key].tobytes() == arr.tobytes(), key
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
    assert "cls_n/W" not in back.params.arrays


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
    bad = {
        "trunc.ckpt": blob[:len(blob) // 2],
        "flip.ckpt": bytes(flipped),
        "magic.ckpt": b"XXXXXXXX" + blob[8:],
        "ver.ckpt": bytes(versioned),
        "empty.ckpt": b"",
    }
    for name, data in bad.items():
        (tmp_path / name).write_bytes(data)
    for name in [*bad, "missing.ckpt"]:
        for read in (load_checkpoint, verify_checkpoint):
            with pytest.raises(CorruptCheckpointError):
                read(tmp_path / name)
