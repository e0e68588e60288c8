import numpy as np
import pytest

from oracles import compute_loss, finite_difference_check
from retentive import detector as D
from retentive import losses as L
from retentive.config import ModelConfig, TrainConfig
from retentive.errors import ConfigError, NumericError, ParameterError, StateError
from retentive.synthgen import split_classes
from retentive.tensorops import smooth_l1, softmax

SPLIT = split_classes(12, 4, seed=3)
MCFG = ModelConfig()


def base_model(seed=1):
    m = D.init_base_model(SPLIT, MCFG, feat_seed=7, seed=seed)
    m.stage = D.STAGE_BASE
    return m


def retentive_model(seed=1, classifier="cos", head_domain="all"):
    # the model keeps no consistency setting; "off" lets every head domain validate
    tcfg = TrainConfig(classifier=classifier, head_domain=head_domain, consistency="off")
    return D.extend_for_finetune(base_model(seed), seed + 1, tcfg)


def random_minibatch(model, rng, na=16, nr=12, with_base_probs=False):
    c = model.mcfg.mixer_channels
    d = model.mcfg.head_dim
    slots = len(D.head_classes(model, "novel")) + 1 if with_base_probs or model.stage == "retentive" \
        else model.num_base + 1
    mb = L.Minibatch(
        anchor_cells=np.abs(rng.normal(0.5, 0.4, size=(na, c))),
        anchor_scale=rng.integers(0, 3, size=na),
        anchor_label=(rng.random(na) < 0.5).astype(np.float64),
        anchor_delta_t=rng.normal(0.0, 0.4, size=(na, 4)),
        roi_feats=np.abs(rng.normal(0.5, 0.5, size=(nr, d))),
        roi_label=rng.integers(0, slots, size=nr),
        roi_pos=rng.random(nr) < 0.4,
        roi_delta_t=rng.normal(0.0, 0.4, size=(nr, 4)),
    )
    if with_base_probs:
        z = rng.normal(0.0, 1.0, size=(nr, model.num_base + 1))
        mb.roi_base_probs = softmax(D.pad_base_logits(z, model.num_novel))
    return mb


def empty_minibatch(model):
    c = model.mcfg.mixer_channels
    d = model.mcfg.head_dim
    return L.Minibatch(
        anchor_cells=np.zeros((0, c)),
        anchor_scale=np.zeros(0, dtype=np.int64),
        anchor_label=np.zeros(0),
        anchor_delta_t=np.zeros((0, 4)),
        roi_feats=np.zeros((0, d)),
        roi_label=np.zeros(0, dtype=np.int64),
        roi_pos=np.zeros(0, dtype=bool),
        roi_delta_t=np.zeros((0, 4)),
    )


# ---------------------------------------------------------------------------
# consistency loss
# ---------------------------------------------------------------------------

BASE_SLOTS = np.arange(2)  # toy layout: 2 base, 1 novel, background


def test_consistency_zero_when_marginals_equal():
    # same base ratios, different novel/background mass
    p_n = np.array([[0.4, 0.1, 0.3, 0.2]])
    p_b = np.array([[0.08, 0.02, 0.5, 0.4]])
    for variant in ("kldiv", "l1", "cos"):
        assert abs(L.consistency_loss(p_n, p_b, BASE_SLOTS, variant)[0]) < 1e-12


def test_consistency_kldiv_hand_value():
    p_n = np.array([[0.4, 0.1, 0.3, 0.2]])   # marginal (0.8, 0.2)
    p_b = np.array([[0.25, 0.25, 0.3, 0.2]])  # marginal (0.5, 0.5)
    want = 0.8 * np.log(1.6) + 0.2 * np.log(0.4)
    got = L.consistency_loss(p_n, p_b, BASE_SLOTS, "kldiv")[0]
    assert abs(got - want) < 1e-12


def test_consistency_l1_and_cos_hand_values():
    p_n = np.array([[0.4, 0.1, 0.3, 0.2]])
    p_b = np.array([[0.25, 0.25, 0.3, 0.2]])
    assert abs(L.consistency_loss(p_n, p_b, BASE_SLOTS, "l1")[0] - (0.3 + 0.3)) < 1e-12
    pt, qt = np.array([0.8, 0.2]), np.array([0.5, 0.5])
    want = 1.0 - pt @ qt / (np.linalg.norm(pt) * np.linalg.norm(qt))
    assert abs(L.consistency_loss(p_n, p_b, BASE_SLOTS, "cos")[0] - want) < 1e-12


def test_consistency_kldiv_nonnegative_random():
    rng = np.random.default_rng(0)
    p_n = rng.dirichlet(np.ones(4), size=1000)
    p_b = rng.dirichlet(np.ones(4), size=1000)
    for i in range(0, 1000, 50):
        v = L.consistency_loss(p_n[i:i + 1], p_b[i:i + 1], BASE_SLOTS, "kldiv")[0]
        assert v >= 0.0
    assert L.consistency_loss(p_n, p_b, BASE_SLOTS, "kldiv")[0] >= 0.0


def test_consistency_invariant_to_novel_mass():
    rng = np.random.default_rng(1)
    p_n = rng.dirichlet(np.ones(4), size=64)
    p_b = rng.dirichlet(np.ones(4), size=64)
    ref = L.consistency_loss(p_n, p_b, BASE_SLOTS, "kldiv")[0]
    # move half the base mass into the novel slot, keeping base ratios
    moved = p_n.copy()
    moved[:, BASE_SLOTS] *= 0.5
    moved[:, 2] += p_n[:, BASE_SLOTS].sum(axis=1) * 0.5
    got = L.consistency_loss(moved, p_b, BASE_SLOTS, "kldiv")[0]
    assert abs(got - ref) < 1e-12


def test_consistency_zero_base_mass_raises():
    p_n = np.array([[0.0, 0.0, 0.6, 0.4]])
    p_b = np.array([[0.25, 0.25, 0.3, 0.2]])
    with pytest.raises(NumericError):
        L.consistency_loss(p_n, p_b, BASE_SLOTS, "kldiv")


def test_consistency_unknown_variant():
    p = np.array([[0.25, 0.25, 0.25, 0.25]])
    with pytest.raises(ParameterError):
        L.consistency_loss(p, p, BASE_SLOTS, "js")


# ---------------------------------------------------------------------------
# loss assembly
# ---------------------------------------------------------------------------

def finetune_step(lam, seed=1):
    """The loss record of one finetuning step with consistency on a random minibatch."""
    r = retentive_model(seed=seed)
    mb = random_minibatch(r, np.random.default_rng(seed), with_base_probs=True)
    return L.compute_gradients(r, mb, TrainConfig(lam=lam))[0]


def test_total_arithmetic():
    b = finetune_step(lam=0.1)
    assert b["lambda"] == 0.1 and b["l_con"] > 0.0
    want = b["l_obj"] + b["l_cls"] + b["l_box"] + b["l_box_rpn"] + 0.1 * b["l_con"]
    assert abs(b["total"] - want) < 1e-12


def test_total_lambda_zero_reports_but_excludes():
    b = finetune_step(lam=0.0)
    assert b["l_con"] == finetune_step(lam=0.1)["l_con"] > 0.0
    assert abs(b["total"] - (b["l_obj"] + b["l_cls"] + b["l_box"] + b["l_box_rpn"])) < 1e-12


def test_total_negative_lambda_rejected():
    with pytest.raises(ConfigError):
        TrainConfig(lam=-0.5)


def test_breakdown_total_recomputes():
    m = base_model()
    b = L.compute_gradients(m, random_minibatch(m, np.random.default_rng(4)), TrainConfig())[0]
    assert b["lambda"] == 0.0 and b["l_box_rpn"] > 0.0
    want = b["l_obj"] + b["l_cls"] + b["l_box"] + b["l_box_rpn"] + b["lambda"] * b["l_con"]
    assert abs(b["total"] - want) < 1e-15


# ---------------------------------------------------------------------------
# supervised pieces
# ---------------------------------------------------------------------------

def one_hot_rows(n, width):
    rows = np.zeros((n, width))
    rows[np.arange(n), np.arange(n)] = 1.0
    return rows


def test_perfect_predictions_give_zero_losses():
    m = base_model()
    a = m.params
    for key in ("rpn_obj_b/W", "rpn_box/W", "rpn_box/b", "cls_b/W", "cls_b/b", "reg_b/W"):
        a[key][...] = 0.0
    a["rpn_obj_b/b"][:] = [100.0, -100.0, 0.0]
    a["cls_b/W"][0, 0] = a["cls_b/W"][1, 1] = 1000.0
    box = np.array([0.1, 0.2, -0.1, 0.0])
    a["reg_b/b"][:] = box
    mb = L.Minibatch(
        anchor_cells=one_hot_rows(2, m.mcfg.mixer_channels),
        anchor_scale=np.array([0, 1]),
        anchor_label=np.array([1.0, 0.0]),
        anchor_delta_t=np.zeros((2, 4)),
        roi_feats=one_hot_rows(2, m.mcfg.head_dim),
        roi_label=np.array([0, 1]),
        roi_pos=np.array([True, True]),
        roi_delta_t=np.vstack([box, box]),
    )
    out = compute_loss(m, mb, TrainConfig())
    assert out["l_cls"] == 0.0
    assert out["l_box"] == 0.0
    assert out["l_box_rpn"] == 0.0
    assert out["l_obj"] < 1e-12
    assert out["empty"] == []


def test_supervised_two_roi_scalar_oracle():
    m = base_model()
    rng = np.random.default_rng(12)
    a = m.params
    for key in D.PRETRAIN_TRAINABLE:
        for part in ("W", "b"):
            a[f"{key}/{part}"][...] = rng.normal(0.0, 0.5, size=a[f"{key}/{part}"].shape)
    c, d = m.mcfg.mixer_channels, m.mcfg.head_dim
    mb = L.Minibatch(
        anchor_cells=rng.normal(0.0, 0.3, size=(3, c)),
        anchor_scale=np.array([2, 0, 1]),
        anchor_label=np.array([1.0, 0.0, 1.0]),
        anchor_delta_t=np.array([[0.1, -0.2, 0.3, 0.0], [0.0] * 4, [-0.4, 0.5, 0.2, 1.6]]),
        roi_feats=rng.normal(0.0, 0.3, size=(2, d)),
        roi_label=np.array([2, 0]),
        roi_pos=np.array([True, True]),
        roi_delta_t=np.array([[0.0, 0.0, 0.5, 0.0], [0.3, 0.7, 0.6, 0.2]]),
    )
    out = compute_loss(m, mb, TrainConfig())

    want_obj = want_rpn_box = 0.0
    for i in range(3):
        s = mb.anchor_scale[i]
        zo = mb.anchor_cells[i] @ a["rpn_obj_b/W"][s] + a["rpn_obj_b/b"][s]
        y = mb.anchor_label[i]
        p = 1 / (1 + np.exp(-zo))
        want_obj += -y * np.log(p) - (1 - y) * np.log(1 - p)
        if y:
            rows = slice(4 * s, 4 * s + 4)
            d_rpn = a["rpn_box/W"][rows] @ mb.anchor_cells[i] + a["rpn_box/b"][rows]
            want_rpn_box += smooth_l1(d_rpn - mb.anchor_delta_t[i]).sum()
    want_obj /= 3.0
    want_rpn_box /= 2.0
    want_cls = want_box = 0.0
    for i in range(2):
        z = a["cls_b/W"] @ mb.roi_feats[i] + a["cls_b/b"]
        want_cls += -np.log(np.exp(z[mb.roi_label[i]]) / np.exp(z).sum())
        box = a["reg_b/W"] @ mb.roi_feats[i] + a["reg_b/b"]
        want_box += smooth_l1(box - mb.roi_delta_t[i]).sum()
    want_cls /= 2.0
    want_box /= 2.0
    assert abs(out["l_obj"] - want_obj) < 1e-12
    assert abs(out["l_cls"] - want_cls) < 1e-12
    assert abs(out["l_box"] - want_box) < 1e-12
    assert abs(out["l_box_rpn"] - want_rpn_box) < 1e-12


def test_empty_targets_flagged():
    m = base_model()
    out = compute_loss(m, empty_minibatch(m), TrainConfig())
    assert set(out["empty"]) == {"obj", "cls", "box", "box_rpn"}
    assert out["l_cls"] == out["l_box"] == out["l_obj"] == out["l_box_rpn"] == 0.0


@pytest.mark.parametrize("variant", ["kldiv", "l1", "cos"])
def test_consistency_loss_is_the_value_training_optimises(variant):
    r = retentive_model(seed=61)
    rng = np.random.default_rng(13)
    mb = random_minibatch(r, rng, with_base_probs=True)
    got = compute_loss(r, mb, TrainConfig(consistency=variant))["l_con"]
    z_cls, _ = D.box_head_scores(r, mb.roi_feats, "novel")
    want = L.consistency_loss(softmax(z_cls), mb.roi_base_probs, np.arange(r.num_base), variant)[0]
    assert got > 0.0
    assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def test_empty_minibatch_zero_gradients():
    cases = [(base_model(), TrainConfig(), {"obj", "cls", "box", "box_rpn"})]
    for classifier in ("cos", "fc"):
        cases.append((retentive_model(classifier=classifier), TrainConfig(),
                      {"obj", "cls", "con", "box"}))
        cases.append((retentive_model(classifier=classifier, head_domain="novel-only"),
                      TrainConfig(consistency="off"), {"obj", "cls", "box"}))
    for m, tcfg, want_empty in cases:
        mb = empty_minibatch(m)
        if tcfg.consistency != "off":
            mb.roi_base_probs = np.zeros((0, m.num_base + m.num_novel + 1))
        losses, grads = L.compute_gradients(m, mb, tcfg)
        assert losses["total"] == 0.0
        assert set(losses["empty"]) == want_empty
        want_keys = {k for k in m.params if k.split("/")[0] in D.trainable_layers(m)}
        assert set(grads) == want_keys, (m.classifier, m.head_domain)
        for key, g in grads.items():
            assert np.all(g == 0.0), key


def test_gradient_keys_cover_only_trainable_layers():
    rng = np.random.default_rng(2)
    m = base_model()
    _, grads = L.compute_gradients(m, random_minibatch(m, rng), TrainConfig())
    layers = {k.split("/")[0] for k in grads}
    assert layers == set(D.PRETRAIN_TRAINABLE)
    r = retentive_model()
    mbf = random_minibatch(r, rng, with_base_probs=True)
    _, grads_f = L.compute_gradients(r, mbf, TrainConfig())
    layers_f = {k.split("/")[0] for k in grads_f}
    assert layers_f == set(D.FINETUNE_TRAINABLE)


def test_softmax_ce_gradient_identity_single_roi():
    m = base_model()
    rng = np.random.default_rng(3)
    mb = empty_minibatch(m)
    f = np.abs(rng.normal(size=(1, 64)))
    mb.roi_feats = f
    mb.roi_label = np.array([4])
    mb.roi_pos = np.array([False])
    mb.roi_delta_t = np.zeros((1, 4))
    _, grads = L.compute_gradients(m, mb, TrainConfig())
    z = f @ m.params["cls_b/W"].T + m.params["cls_b/b"]
    p = softmax(z)
    p[0, 4] -= 1.0
    assert np.max(np.abs(grads["cls_b/W"] - p.T @ f)) < 1e-12
    assert np.max(np.abs(grads["cls_b/b"] - p[0])) < 1e-12


def test_stage_model_mismatch():
    """The model's stage names the head that trains; a head the model lacks is
    a state error rather than a silent update."""
    rng = np.random.default_rng(4)
    m = base_model()
    mb = random_minibatch(m, rng)
    m.stage = D.STAGE_RETENTIVE  # names the finetuned head, which a base model lacks
    with pytest.raises(StateError, match="no novel head"):
        L.compute_gradients(m, mb, TrainConfig())


def test_consistency_requires_base_probs():
    r = retentive_model()
    rng = np.random.default_rng(5)
    mb = random_minibatch(r, rng, with_base_probs=False)
    with pytest.raises(StateError):
        L.compute_gradients(r, mb, TrainConfig(consistency="kldiv"))


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def test_fd_pretrain():
    m = base_model(seed=11)
    rng = np.random.default_rng(6)
    mb = random_minibatch(m, rng)
    err = finite_difference_check(m, mb, TrainConfig(), max_coords=160, seed=1)
    assert err < 1e-4


@pytest.mark.parametrize("variant", ["kldiv", "l1", "cos"])
@pytest.mark.parametrize("lam", [0.0, 0.1])
def test_fd_finetune_consistency_variants(variant, lam):
    r = retentive_model(seed=21)
    rng = np.random.default_rng(7)
    mb = random_minibatch(r, rng, with_base_probs=True)
    cfg = TrainConfig(consistency=variant, lam=lam)
    err = finite_difference_check(r, mb, cfg, max_coords=160, seed=2)
    assert err < 1e-4


def test_fd_finetune_fc_classifier():
    r = retentive_model(seed=31, classifier="fc")
    rng = np.random.default_rng(8)
    mb = random_minibatch(r, rng, with_base_probs=True)
    err = finite_difference_check(r, mb, TrainConfig(), max_coords=160, seed=3)
    assert err < 1e-4


def test_fd_novel_only_domain():
    r = retentive_model(seed=41, head_domain="novel-only")
    rng = np.random.default_rng(9)
    mb = random_minibatch(r, rng)
    mb.roi_label = rng.integers(0, 5, size=len(mb.roi_label))
    err = finite_difference_check(r, mb, TrainConfig(consistency="off"), max_coords=160, seed=4)
    assert err < 1e-4


def test_fd_box_only_convex_toy():
    m = base_model(seed=51)
    rng = np.random.default_rng(10)
    mb = empty_minibatch(m)
    mb.roi_feats = np.abs(rng.normal(0.5, 0.3, size=(6, 64)))
    mb.roi_label = np.full(6, 8)  # background slot: near-zero cls gradients
    mb.roi_pos = np.ones(6, dtype=bool)
    mb.roi_delta_t = rng.normal(0.0, 0.3, size=(6, 4))  # diffs far from the kink
    err = finite_difference_check(m, mb, TrainConfig(), max_coords=200, seed=5)
    assert err < 1e-7


def test_fd_rejects_bad_eps():
    m = base_model()
    with pytest.raises(ParameterError):
        finite_difference_check(m, empty_minibatch(m), TrainConfig(), eps=1e-3)
