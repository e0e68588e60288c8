"""Two-stage optimization loops with exact-gradient SGD.

The first stage trains the base detector on abundant data; the second adds
the three low-shot layers and trains only those on a balanced adaptation set
while every base array stays frozen bit-for-bit. Both loops materialize
minibatches through the frozen feature path, so the per-iteration loss is a
pure function of the trainable arrays.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .config import (DetectConfig, ExperimentConfig, ModelConfig, TrainConfig, canonical_json,
                     override, read_framed, write_artifact, write_framed)
from .detector import (
    STAGE_BASE,
    Model,
    array_shapes,
    extend_for_finetune,
    head_classes,
    head_probs,
    image_anchors,
    image_forward,
    init_base_model,
    roi_rows,
    strategy_proposals,
    trainable_layers,
    trained_head,
)
from .errors import (
    CorruptArtifactError,
    CorruptCheckpointError,
    ParameterError,
    TrainingError,
)
from .losses import Minibatch, compute_gradients
from .synthgen import ClassSplit, Dataset
from .tensorops import encode_boxes, iou_matrix, rng, subseed

_TAG_PICK = 0x91CC
_TAG_RPN_SAMPLE = 0x54A1
_TAG_ROI_SAMPLE = 0x54A2

CHECKPOINT_MAGIC = b"RETCKPT1"
CHECKPOINT_VERSION = 1


# ---------------------------------------------------------------------------
# target assignment
# ---------------------------------------------------------------------------

@dataclass
class TargetAssignment:
    """Box-level labels plus the seeded subset chosen for the loss.

    In "rpn" mode labels are 1 (object), 0 (background) or -1 (ignored).
    In "roi" mode labels are the matched class id for positives and -1 for
    background rows. matched_gt is the best-overlap annotation index, -1
    where there are no annotations.
    """

    labels: np.ndarray
    matched_gt: np.ndarray
    sample_idx: np.ndarray
    sample_pos: np.ndarray


def _label_boxes(boxes: np.ndarray, gt_boxes: np.ndarray, gt_labels: np.ndarray,
                 mode: str, tcfg: TrainConfig) -> tuple[np.ndarray, np.ndarray]:
    """Labels and best-match annotation indices of candidate boxes, as
    assign_targets describes them; mode is "rpn" or "roi"."""
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    gt_boxes = np.asarray(gt_boxes, dtype=np.float64).reshape(-1, 4)
    gt_labels = np.asarray(gt_labels, dtype=np.int64).reshape(-1)
    if len(gt_boxes) != len(gt_labels):
        raise ParameterError(f"{len(gt_boxes)} annotation boxes vs {len(gt_labels)} labels")
    n = len(boxes)
    if len(gt_boxes) == 0:
        labels = np.zeros(n, dtype=np.int64) if mode == "rpn" else np.full(n, -1, dtype=np.int64)
        return labels, np.full(n, -1, dtype=np.int64)
    overlaps = iou_matrix(boxes, gt_boxes)
    matched = overlaps.argmax(axis=1).astype(np.int64)
    best = overlaps[np.arange(n), matched]
    if mode == "rpn":
        labels = np.full(n, -1, dtype=np.int64)
        labels[best >= tcfg.rpn_pos_iou] = 1
        labels[best <= tcfg.rpn_neg_iou] = 0
        # every annotation claims its best-overlap anchor, ties to the
        # lowest anchor index
        labels[overlaps.argmax(axis=0)] = 1
    else:
        labels = np.where(best >= tcfg.roi_pos_iou, gt_labels[matched], -1)
    return labels, matched


def assign_targets(boxes: np.ndarray, gt_boxes: np.ndarray, gt_labels: np.ndarray,
                   mode: str, tcfg: TrainConfig, seed: int,
                   labelled: tuple[np.ndarray, np.ndarray] | None = None) -> TargetAssignment:
    """Label candidate boxes against annotations and draw a training subset.

    Anchor mode: overlap >= rpn_pos_iou is positive, <= rpn_neg_iou is
    background, the band between is ignored, and each annotation's
    best-overlap anchor is forced positive so no object goes unclaimed.
    ROI mode: overlap >= roi_pos_iou takes the annotation's class, everything
    else is background. Sampling fills a fixed budget with a capped positive
    share; the remainder is background/negative rows.

    A caller that already holds the (labels, matched_gt) these arguments give
    passes them as labelled; only the seeded draw then runs.
    """
    if mode == "rpn":
        budget = tcfg.rpn_per_image
        pos_cap = int(round(budget * tcfg.rpn_positive_fraction))
    elif mode == "roi":
        budget = tcfg.roi_per_image
        pos_cap = int(round(budget * tcfg.roi_positive_fraction))
    else:
        raise ParameterError(f"unknown assignment mode {mode!r}; expected 'rpn' or 'roi'")
    if labelled is None:
        labelled = _label_boxes(boxes, gt_boxes, gt_labels, mode, tcfg)
    labels, matched = labelled
    gen = rng(seed)

    pos_pool = np.flatnonzero(labels >= 1) if mode == "rpn" else np.flatnonzero(labels >= 0)
    neg_pool = np.flatnonzero(labels == 0) if mode == "rpn" else np.flatnonzero(labels == -1)
    n_pos = min(len(pos_pool), pos_cap)
    pos_take = gen.permutation(pos_pool)[:n_pos] if len(pos_pool) else pos_pool
    n_neg = min(len(neg_pool), budget - n_pos)
    neg_take = gen.permutation(neg_pool)[:n_neg] if len(neg_pool) else neg_pool
    sample_idx = np.concatenate([pos_take, neg_take]).astype(np.int64)
    sample_pos = np.concatenate([
        np.ones(len(pos_take), dtype=bool),
        np.zeros(len(neg_take), dtype=bool),
    ])
    return TargetAssignment(labels=labels, matched_gt=matched,
                            sample_idx=sample_idx, sample_pos=sample_pos)


# ---------------------------------------------------------------------------
# minibatch materialization
# ---------------------------------------------------------------------------

def _box_targets(ann_boxes: np.ndarray, matched: np.ndarray, pos: np.ndarray,
                 boxes: np.ndarray) -> np.ndarray:
    """Box-delta targets of candidate rows: zeros, and at each positive row its
    matched annotation encoded against its own candidate box."""
    deltas = np.zeros((len(boxes), 4))
    deltas[pos] = encode_boxes(ann_boxes[matched[pos]], boxes[pos])
    return deltas


def build_minibatch(model: Model, dataset: Dataset, image_indices, tcfg: TrainConfig,
                    dcfg: DetectConfig, seed: int, iteration: int,
                    cache: dict[int, tuple]) -> Minibatch:
    """Materialize one training step's targets and frozen-path activations.

    Proposals are regenerated from the current region network each call, so
    the ROI branch always trains against the boxes the live model would
    produce. Annotated ground-truth boxes are appended to the proposal pool
    to guarantee positive ROI rows from the first iteration. The model's stage
    names the head whose targets are built; the finetuned head trains on
    proposals under the model's own RPN strategy, as inference does. cache
    maps an image index to its ImageForward and its anchors' "rpn" (labels,
    matches) for assign_targets. Both read only frozen arrays, the anchor
    grid, the annotations and the stage's thresholds, so an entry serves
    every step of one stage, but not another stage, whose thresholds may differ.
    """
    image_indices = [int(i) for i in image_indices]
    if not image_indices:
        raise ParameterError("a minibatch needs at least one image")
    anchors = image_anchors(dataset.side, model.mcfg.feat_stride, model.mcfg.anchor_scales)
    n_scales = len(model.mcfg.anchor_scales)
    head = trained_head(model)
    fg = head_classes(model, head)
    # head slot per class id, background outside the head's domain and at the -1 label
    slots = np.full(model.split.num_classes + 1, len(fg), dtype=np.int64)
    slots[list(fg)] = np.arange(len(fg))
    want_base_probs = head == "novel" and tcfg.consistency != "off"
    strategy = model.rpn_strategy if head == "novel" else "base-only"

    parts = []  # per image: its feature map, its sampled ROI boxes and its Minibatch rows
    for img_idx in image_indices:
        rec = dataset.records[img_idx]
        ann_boxes, ann_labels = rec.boxes[rec.annotated], rec.labels[rec.annotated]
        if img_idx not in cache:
            cache[img_idx] = (image_forward(model, dataset.images[img_idx]),
                              _label_boxes(anchors, ann_boxes, ann_labels, "rpn", tcfg))
        fwd, anchor_targets = cache[img_idx]

        rpn = assign_targets(anchors, ann_boxes, ann_labels, "rpn", tcfg,
                             subseed(seed, _TAG_RPN_SAMPLE, iteration, img_idx),
                             labelled=anchor_targets)
        a_idx = rpn.sample_idx
        proposals = strategy_proposals(model, fwd, dcfg, (strategy,))[strategy].boxes
        pool = np.vstack([proposals, ann_boxes])
        roi = assign_targets(pool, ann_boxes, ann_labels, "roi", tcfg,
                             subseed(seed, _TAG_ROI_SAMPLE, iteration, img_idx))
        r_idx = roi.sample_idx
        labels = slots[roi.labels[r_idx]]
        is_pos = roi.sample_pos & (labels < len(fg))
        r_boxes = pool[r_idx]
        parts.append((fwd.feat, r_boxes, {
            "anchor_cells": fwd.cells[a_idx // n_scales],
            "anchor_scale": (a_idx % n_scales).astype(np.int64),
            "anchor_label": rpn.sample_pos.astype(np.float64),
            # the RPN box layer trains with the base head only
            "anchor_delta_t": _box_targets(ann_boxes, rpn.matched_gt[a_idx],
                                           rpn.sample_pos & (head == "base"), anchors[a_idx]),
            "roi_label": labels,
            "roi_pos": is_pos,
            "roi_delta_t": _box_targets(ann_boxes, roi.matched_gt[r_idx], is_pos, r_boxes),
        }))

    maps, boxes, rows = zip(*parts)
    for image_rows, feats in zip(rows, roi_rows(model, np.stack(maps), list(enumerate(boxes)))):
        image_rows["roi_feats"] = feats
        if want_base_probs:
            image_rows["roi_base_probs"] = head_probs(model, image_rows["roi_feats"], "base")[0]
    return Minibatch(**{name: np.concatenate([r[name] for r in rows]) for name in rows[0]})


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def sgd_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
             velocity: dict[str, np.ndarray], lr: float, momentum: float) -> None:
    """Heavy-ball update in place: v <- momentum*v - lr*g; w <- w + v.

    Only arrays named in grads move; everything else stays bitwise intact.
    """
    for key in sorted(grads):
        if key not in params:
            raise ParameterError(f"gradient for unknown array {key!r}")
        w = params[key]
        g = np.asarray(grads[key], dtype=np.float64)
        if g.shape != w.shape:
            raise ParameterError(f"gradient shape {g.shape} does not match {key} {w.shape}")
        v = velocity.get(key)
        if v is None:
            v = np.zeros_like(w)
        v = momentum * v - lr * g
        velocity[key] = v
        w += v


# ---------------------------------------------------------------------------
# training log
# ---------------------------------------------------------------------------

@dataclass
class TrainLog:
    """Per-iteration loss trace for one stage, serializable as JSONL: one
    record per step, compute_gradients' losses plus the step's iteration,
    stage, seed, lr and wall_clock."""

    stage: str
    seed: int
    records: list[dict] = field(default_factory=list)

    def save(self, path) -> None:
        write_artifact(path, *(canonical_json(r) + "\n" for r in self.records))

    @staticmethod
    def load(path) -> "TrainLog":
        try:
            lines = Path(path).read_text(encoding="utf-8").splitlines()
            records = [json.loads(line) for line in lines if line.strip()]
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CorruptArtifactError(f"training log {path} is unreadable: {exc}") from exc
        fields = {"stage": str, "seed": int, "iteration": int}
        if not all(isinstance(r, dict) and all(isinstance(r.get(k), t) for k, t in fields.items())
                   for r in records):
            raise CorruptArtifactError(
                f"training log {path} holds a line that is not a stage, seed and iteration record")
        if not records:
            raise CorruptArtifactError(f"training log {path} is empty")
        stage = records[0]["stage"]
        seed = records[0]["seed"]
        last = -1
        for rec in records:
            if rec["stage"] != stage:
                raise CorruptArtifactError("training log mixes stages")
            if rec["iteration"] <= last:
                raise CorruptArtifactError("training log iterations are not strictly increasing")
            last = rec["iteration"]
        return TrainLog(stage=stage, seed=int(seed), records=records)


# ---------------------------------------------------------------------------
# stage loops
# ---------------------------------------------------------------------------

def _converged(records: list[dict], window: int, rel_tol: float) -> bool:
    """Whether the mean total of the last window records moved by less than
    rel_tol relative to that of the window before; False before two windows."""
    if len(records) < 2 * window:
        return False
    totals = [r["total"] for r in records[-2 * window:]]
    earlier = float(np.mean(totals[:window]))
    recent = float(np.mean(totals[window:]))
    return abs(recent - earlier) / max(abs(earlier), 1e-12) < rel_tol


def _run_stage(model: Model, dataset: Dataset, tcfg: TrainConfig,
               dcfg: DetectConfig, seed: int, log: TrainLog) -> None:
    """Train the model's stage in place; the log's last record states why it
    stopped, "converged@<iteration>" or "max_iters". A stage of zero
    iterations writes no record, so it states no reason."""
    if len(dataset) == 0:
        raise ParameterError("cannot train on an empty dataset")
    velocity: dict[str, np.ndarray] = {}
    cache: dict[int, tuple] = {}
    mb_size = min(tcfg.minibatch_images, len(dataset))
    t0 = time.monotonic()
    for it in range(tcfg.max_iters):
        picks = np.sort(rng(seed, _TAG_PICK, it).choice(len(dataset), size=mb_size,
                                                         replace=False))
        mb = build_minibatch(model, dataset, picks, tcfg, dcfg, seed, it, cache)
        losses, grads = compute_gradients(model, mb, tcfg)
        if not np.isfinite(losses["total"]):
            raise TrainingError(f"{log.stage} loss is not finite at iteration {it}: {losses}")
        sgd_step(model.params, grads, velocity, tcfg.lr, tcfg.momentum)
        log.records.append({"iteration": it, "stage": log.stage, "seed": log.seed,
                            "lr": tcfg.lr, "wall_clock": time.monotonic() - t0, **losses})
        if _converged(log.records, tcfg.convergence_window, tcfg.convergence_rel_tol):
            log.records[-1]["stop_reason"] = f"converged@{it}"
            return
    if log.records:
        log.records[-1]["stop_reason"] = "max_iters"


def pretrain(dataset: Dataset, cfg: ExperimentConfig, seed: int) -> tuple[Model, TrainLog]:
    """Train the base detector from scratch on abundant annotated data."""
    model = init_base_model(dataset.split, cfg.model, feat_seed=seed, seed=seed)
    log = TrainLog(stage="pretrain", seed=seed)
    _run_stage(model, dataset, cfg.pretrain, cfg.detect, seed, log)
    model.stage = STAGE_BASE
    return model, log


def finetune(base: Model, dataset: Dataset, cfg: ExperimentConfig,
             seed: int) -> tuple[Model, TrainLog]:
    """Adapt a pretrained model on the balanced low-shot set.

    Only the three adaptation layers move; the extended model's base arrays
    are read-only, so a write to one raises. Zero iterations is a valid
    configuration and returns the freshly extended model.
    """
    model = extend_for_finetune(base, seed, cfg.finetune)
    log = TrainLog(stage="finetune", seed=seed)
    _run_stage(model, dataset, cfg.finetune, cfg.detect, seed, log)
    return model, log


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def _model_header(model: Model, shapes: dict[str, tuple[int, ...]]) -> dict:
    trainable = trainable_layers(model)
    return {
        "version": CHECKPOINT_VERSION,
        "stage": model.stage,
        "feat_seed": model.feat_seed,
        "classifier": model.classifier,
        "head_domain": model.head_domain,
        "rpn_strategy": model.rpn_strategy,
        "split": model.split.to_dict(),
        "model_config": asdict(model.mcfg),
        "arrays": [{"name": n, "shape": list(shapes[n]), "trainable": n.split("/")[0] in trainable}
                   for n in sorted(shapes)],
    }


def save_checkpoint(model: Model, path) -> str:
    """Write the model to disk; returns the hex digest stored in the file."""
    shapes = {n: a.shape for n, a in model.params.items()}
    return write_framed(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, _model_header(model, shapes),
                        *(np.ascontiguousarray(model.params[n], dtype=np.float64)
                          for n in sorted(model.params)))


def read_checkpoint(path) -> tuple[dict, list[np.ndarray], str]:
    """A checkpoint's verified frame: its header, its arrays and its digest."""
    return read_framed(path, "checkpoint", CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                       CorruptCheckpointError, lambda h: [e["shape"] for e in h["arrays"]])


def decode_checkpoint(frame: tuple, path) -> Model:
    """The model of a frame read_checkpoint read from path. A header other than the
    one that model would write raises: arrays or trainable flags other than its stage,
    split, config, classifier and head domain call for (detector.array_shapes)."""
    header, arrays, _ = frame
    try:
        model = Model(
            params={e["name"]: a.copy() for e, a in zip(header["arrays"], arrays)},
            split=ClassSplit.from_dict(header["split"]),
            mcfg=override(ModelConfig(), header["model_config"]),
            feat_seed=int(header["feat_seed"]),
            **{k: header[k] for k in ("stage", "classifier", "head_domain", "rpn_strategy")},
        )
        want = canonical_json(_model_header(model, array_shapes(model)))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:  # ConfigError too
        raise CorruptCheckpointError(
            f"checkpoint {path} has an unreadable header: {exc!r}") from exc
    if canonical_json(header) != want:
        raise CorruptCheckpointError(
            f"checkpoint {path} has a header its {model.stage} model would not write")
    return model


def load_checkpoint(path) -> Model:
    """The model in a checkpoint file; any defect of its frame or header raises."""
    return decode_checkpoint(read_checkpoint(path), path)
