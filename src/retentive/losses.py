"""Stage losses and their closed-form gradients.

Only linear layers train, so reverse-mode differentiation is written out by
hand: sigmoid-BCE for objectness, softmax cross-entropy for classification
(through the cosine normalization when that head is cosine), smooth-L1 for
box deltas, and the renormalized base-marginal consistency term.

A minibatch carries every frozen-path activation as a constant, which makes
each stage loss a pure function of the trainable arrays.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import TrainConfig
from .detector import (
    Model,
    _head_layers,
    box_head_scores,
    rpn_box_deltas,
    rpn_objectness_logits,
    trainable_layers,
    trained_head,
)
from .errors import NumericError, ParameterError, StateError
from .tensorops import EPS_COSINE, sigmoid, smooth_l1, smooth_l1_grad, softmax

CONSISTENCY_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# minibatch contract
# ---------------------------------------------------------------------------

@dataclass
class Minibatch:
    """Materialized training targets; frozen activations are baked in.

    anchor_cells rows are mixed-feature vectors at each sampled anchor's cell;
    roi_feats rows are pooled/projected/rectified ROI features. roi_label is
    a slot index in the active head's logit ordering (background last).
    """

    anchor_cells: np.ndarray           # (Na, C)
    anchor_scale: np.ndarray           # (Na,) int
    anchor_label: np.ndarray           # (Na,) float 0/1
    anchor_delta_t: np.ndarray         # (Na, 4)
    roi_feats: np.ndarray              # (Nr, D)
    roi_label: np.ndarray              # (Nr,) int
    roi_pos: np.ndarray                # (Nr,) bool
    roi_delta_t: np.ndarray            # (Nr, 4)
    roi_base_probs: np.ndarray | None = None  # (Nr, C_all+1), finetune only


# ---------------------------------------------------------------------------
# consistency term
# ---------------------------------------------------------------------------

def _base_marginals(p: np.ndarray, base_slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows restricted to base slots, renormalized; returns (marginals, mass)."""
    sub = p[:, base_slots]
    mass = sub.sum(axis=1)
    if not np.all(np.isfinite(mass)) or np.any(mass <= 0.0):
        raise NumericError("a probability row has no base-class mass")
    tilde = sub / mass[:, None]
    tilde = np.maximum(tilde, CONSISTENCY_FLOOR)
    tilde = tilde / tilde.sum(axis=1, keepdims=True)
    return tilde, mass


def consistency_loss(p_n: np.ndarray, p_b: np.ndarray, base_slots: np.ndarray,
                     variant: str) -> tuple[float, np.ndarray]:
    """(value, dL/dp_n) of the divergence between renormalized base-class
    marginals, averaged over rows (at least one).

    Background and novel entries never enter the marginal; any change of
    probability mass that preserves base-class ratios leaves the value
    untouched. Training and its checks call this one function.
    """
    if p_n.shape != p_b.shape:
        raise ParameterError(f"probability shapes differ: {p_n.shape} vs {p_b.shape}")
    n = p_n.shape[0]
    pt, mass = _base_marginals(p_n, base_slots)
    qt, _ = _base_marginals(p_b, base_slots)
    if variant == "kldiv":
        logdiff = np.log(pt) - np.log(qt)
        per_row = np.sum(pt * logdiff, axis=1)
        gprime = logdiff + 1.0
    elif variant == "l1":
        per_row = np.sum(np.abs(pt - qt), axis=1)
        gprime = np.sign(pt - qt)
    elif variant == "cos":
        dot = np.sum(pt * qt, axis=1)
        np_n = np.sqrt(np.sum(pt * pt, axis=1))
        nq = np.sqrt(np.sum(qt * qt, axis=1))
        per_row = 1.0 - dot / (np_n * nq)
        gprime = -(qt / (np_n * nq)[:, None] - (dot / (np_n ** 3 * nq))[:, None] * pt)
    else:
        raise ParameterError(f"unknown consistency variant {variant!r}")
    # renormalization projects out the direction that rescales all base slots
    inner = np.sum(gprime * pt, axis=1, keepdims=True)
    grad = np.zeros_like(p_n)
    grad[:, base_slots] = (gprime - inner) / mass[:, None]
    return float(per_row.mean()), grad / n


# ---------------------------------------------------------------------------
# supervised pieces
# ---------------------------------------------------------------------------

def _bce_with_logits(z: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """(mean loss, dL/dz); stable for large |z|."""
    n = len(z)
    loss = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    return float(loss.mean()), (sigmoid(z) - y) / n


def _softmax_ce(z: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """(mean loss, dL/dz) for integer labels over rows of logits."""
    n = len(labels)
    m = z.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=1))
    loss = lse - z[np.arange(n), labels]
    p = softmax(z)
    p[np.arange(n), labels] -= 1.0
    return float(loss.mean()), p / n


def _smooth_l1_loss(pred: np.ndarray, target: np.ndarray, rows: np.ndarray) -> tuple[float, np.ndarray]:
    """Sum over 4 coordinates, mean over the selected rows (at least one);
    dL/dpred everywhere."""
    grad = np.zeros_like(pred)
    diff = pred[rows] - target[rows]
    loss = smooth_l1(diff).sum(axis=1).mean()
    grad[rows] = smooth_l1_grad(diff) / len(rows)
    return float(loss), grad


# ---------------------------------------------------------------------------
# stage loss with gradients
# ---------------------------------------------------------------------------

def _cosine_backward(dz: np.ndarray, z: np.ndarray, rois: np.ndarray, w: np.ndarray,
                     scale: float) -> np.ndarray:
    """dL/dW given dL/dz for z = scale * fn @ (w/s).T, where fn is rois with unit
    rows and s = sqrt(|w|^2+eps^2), both smoothed as in cosine_logits."""
    fn = rois / np.sqrt((rois * rois).sum(axis=1, keepdims=True) + EPS_COSINE ** 2)
    s = np.sqrt((w * w).sum(axis=1) + EPS_COSINE ** 2)
    dw = (scale / s)[:, None] * (dz.T @ fn)
    dw -= ((dz * z).sum(axis=0) / (s * s))[:, None] * w
    return dw


def compute_gradients(model: Model, mb: Minibatch,
                      tcfg: TrainConfig) -> tuple[dict, dict[str, np.ndarray]]:
    """Training loss and its exact gradients, through the heads inference runs.

    The model's stage names the head that trains: before finetuning, the base
    head and the RPN box layer; after, the finetuned head. Every array of
    trainable_layers(model) gets a gradient, zero where its term has no rows.
    The losses come back as the record a training-log line carries: each term
    (zero where it has no rows, and l_con reported even where lambda is zero),
    the lambda it is weighted by (zero for the base head), their total and the
    names of the terms that had no rows.
    """
    head = trained_head(model)
    obj_layer, cls_layer, reg_layer = _head_layers(model, head)
    a = model.params
    trainable = trainable_layers(model)
    grads = {k: np.zeros_like(v) for k, v in a.items() if k.split("/")[0] in trainable}
    empty: list[str] = []
    na = len(mb.anchor_label)
    nr = len(mb.roi_label)
    n_scales = a[f"{obj_layer}/W"].shape[0]
    scale_rows = [mb.anchor_scale == s_idx for s_idx in range(n_scales)]

    # objectness: per-anchor logit from the scale-specific row
    l_obj = 0.0
    if na:
        z_all = rpn_objectness_logits(model, mb.anchor_cells, head).reshape(na, n_scales)
        l_obj, dz_obj = _bce_with_logits(z_all[np.arange(na), mb.anchor_scale], mb.anchor_label)
        grads[f"{obj_layer}/W"] = np.stack([dz_obj[r] @ mb.anchor_cells[r] for r in scale_rows])
        grads[f"{obj_layer}/b"] = np.array([dz_obj[r].sum() for r in scale_rows])
    else:
        empty.append("obj")

    # rpn box regression trains with the base head only
    l_box_rpn = 0.0
    if head == "base":
        pos_anchor = np.flatnonzero(mb.anchor_label > 0.5)
        if pos_anchor.size:
            d_all = rpn_box_deltas(model, mb.anchor_cells).reshape(na, n_scales, 4)
            l_box_rpn, dd = _smooth_l1_loss(d_all[np.arange(na), mb.anchor_scale],
                                            mb.anchor_delta_t, pos_anchor)
            grads["rpn_box/W"] = np.concatenate([dd[r].T @ mb.anchor_cells[r] for r in scale_rows])
            grads["rpn_box/b"] = np.concatenate([dd[r].sum(axis=0) for r in scale_rows])
        else:
            empty.append("box_rpn")

    # classification over sampled ROIs, plus the consistency between the two
    # heads' base marginals while the finetuned head trains
    consistency = head == "novel" and tcfg.consistency != "off"
    if consistency and model.head_domain == "novel-only":
        raise StateError("consistency needs base-class logits, which a novel-only head lacks")
    if consistency and mb.roi_base_probs is None:
        raise StateError("consistency requested but the minibatch has no base-head probabilities")
    l_cls = l_con = 0.0
    if nr:
        z_cls, d_roi = box_head_scores(model, mb.roi_feats, head)
        l_cls, dz = _softmax_ce(z_cls, mb.roi_label)
        if consistency:
            base_slots = np.arange(model.num_base)
            p_n = softmax(z_cls)
            l_con, dp = consistency_loss(p_n, mb.roi_base_probs, base_slots, tcfg.consistency)
            # softmax backward: dz = p * (dp - <dp, p>)
            inner = np.sum(dp * p_n, axis=1, keepdims=True)
            dz = dz + tcfg.lam * (p_n * (dp - inner))
        if head == "novel" and model.classifier == "cos":
            grads[f"{cls_layer}/W"] = _cosine_backward(
                dz, z_cls, mb.roi_feats, a[f"{cls_layer}/W"], model.mcfg.cosine_scale)
        else:
            grads[f"{cls_layer}/W"] = dz.T @ mb.roi_feats
            grads[f"{cls_layer}/b"] = dz.sum(axis=0)
    else:
        empty += ["cls", "con"] if consistency else ["cls"]

    # box regression over positive ROIs
    l_box = 0.0
    pos_rows = np.flatnonzero(mb.roi_pos)
    if nr and pos_rows.size:
        l_box, dd_roi = _smooth_l1_loss(d_roi, mb.roi_delta_t, pos_rows)
        grads[f"{reg_layer}/W"] = dd_roi.T @ mb.roi_feats
        grads[f"{reg_layer}/b"] = dd_roi.sum(axis=0)
    else:
        empty.append("box")

    lam = tcfg.lam if head == "novel" else 0.0
    return {"l_obj": l_obj, "l_cls": l_cls, "l_box": l_box, "l_con": l_con,
            "l_box_rpn": l_box_rpn, "lambda": lam,
            "total": l_obj + l_cls + l_box + l_box_rpn + lam * l_con, "empty": empty}, grads
