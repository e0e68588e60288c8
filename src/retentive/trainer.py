"""Two-stage optimization loops with exact-gradient SGD.

The first stage trains the base detector on abundant data; the second adds
the three low-shot layers and trains only those on a balanced adaptation set
while every base array stays frozen bit-for-bit. Both loops materialize
minibatches through the frozen feature path, so the per-iteration loss is a
pure function of the trainable arrays.
"""

from __future__ import annotations

import json
import struct
import time
from dataclasses import asdict, dataclass, field
from hashlib import sha256
from pathlib import Path

import numpy as np

from .config import DetectConfig, ExperimentConfig, ModelConfig, TrainConfig, canonical_json
from .detector import (
    STAGE_BASE,
    ImageForward,
    Model,
    ParamSet,
    box_head_scores,
    extend_for_finetune,
    forward_proposals,
    image_forward,
    init_base_model,
    model_anchors,
    pad_base_logits,
    roi_features,
)
from .errors import (
    CorruptArtifactError,
    CorruptCheckpointError,
    ParameterError,
    StateError,
    TrainingError,
)
from .losses import LossBreakdown, Minibatch, compute_gradients
from .synthgen import ClassSplit, Dataset
from .tensorops import encode_boxes, iou_matrix, softmax

_MASK = 0xFFFFFFFFFFFFFFFF
_TAG_PICK = 0x91CC
_TAG_RPN_SAMPLE = 0x54A1
_TAG_ROI_SAMPLE = 0x54A2

CHECKPOINT_MAGIC = b"RETCKPT1"
CHECKPOINT_VERSION = 1

STAGE_NAMES = ("pretrain", "finetune")


def _rng(*keys: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([k & _MASK for k in keys]))


def _subseed(*keys: int) -> int:
    seq = np.random.SeedSequence([k & _MASK for k in keys])
    return int(seq.generate_state(1, dtype=np.uint64)[0])


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


def assign_targets(boxes: np.ndarray, gt_boxes: np.ndarray, gt_labels: np.ndarray,
                   mode: str, tcfg: TrainConfig, seed: int) -> TargetAssignment:
    """Label candidate boxes against annotations and draw a training subset.

    Anchor mode: overlap >= rpn_pos_iou is positive, <= rpn_neg_iou is
    background, the band between is ignored, and each annotation's
    best-overlap anchor is forced positive so no object goes unclaimed.
    ROI mode: overlap >= roi_pos_iou takes the annotation's class, everything
    else is background. Sampling fills a fixed budget with a capped positive
    share; the remainder is background/negative rows.
    """
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    gt_boxes = np.asarray(gt_boxes, dtype=np.float64).reshape(-1, 4)
    gt_labels = np.asarray(gt_labels, dtype=np.int64).reshape(-1)
    if len(gt_boxes) != len(gt_labels):
        raise ParameterError(f"{len(gt_boxes)} annotation boxes vs {len(gt_labels)} labels")
    n = len(boxes)
    rng = _rng(seed)

    if mode == "rpn":
        budget = tcfg.rpn_per_image
        pos_cap = int(round(budget * tcfg.rpn_positive_fraction))
    elif mode == "roi":
        budget = tcfg.roi_per_image
        pos_cap = int(round(budget * tcfg.roi_positive_fraction))
    else:
        raise ParameterError(f"unknown assignment mode {mode!r}; expected 'rpn' or 'roi'")

    if len(gt_boxes) == 0:
        labels = np.zeros(n, dtype=np.int64) if mode == "rpn" else np.full(n, -1, dtype=np.int64)
        matched = np.full(n, -1, dtype=np.int64)
    else:
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

    pos_pool = np.flatnonzero(labels >= 1) if mode == "rpn" else np.flatnonzero(labels >= 0)
    neg_pool = np.flatnonzero(labels == 0) if mode == "rpn" else np.flatnonzero(labels == -1)
    n_pos = min(len(pos_pool), pos_cap)
    pos_take = rng.permutation(pos_pool)[:n_pos] if len(pos_pool) else pos_pool
    n_neg = min(len(neg_pool), budget - n_pos)
    neg_take = rng.permutation(neg_pool)[:n_neg] if len(neg_pool) else neg_pool
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

def _head_slot_map(model: Model, stage: str) -> tuple[dict[int, int], int]:
    """Class id -> logit slot for the head trained at this stage."""
    if stage == "pretrain":
        fg = model.split.base_ids
    elif model.head_domain == "novel-only":
        fg = model.split.novel_ids
    else:
        fg = model.split.base_ids + model.split.novel_ids
    return {cid: i for i, cid in enumerate(fg)}, len(fg)


def build_minibatch(model: Model, dataset: Dataset, image_indices, stage: str,
                    tcfg: TrainConfig, dcfg: DetectConfig, seed: int, iteration: int,
                    cache: dict[int, ImageForward] | None = None) -> Minibatch:
    """Materialize one training step's targets and frozen-path activations.

    Proposals are regenerated from the current region network each call, so
    the ROI branch always trains against the boxes the live model would
    produce. Annotated ground-truth boxes are appended to the proposal pool
    to guarantee positive ROI rows from the first iteration.
    """
    if stage not in STAGE_NAMES:
        raise ParameterError(f"unknown stage {stage!r}; expected one of {STAGE_NAMES}")
    if cache is None:
        cache = {}
    anchors = model_anchors(model, dataset.side)
    n_scales = len(model.mcfg.anchor_scales)
    slot_map, bg_slot = _head_slot_map(model, stage)
    want_base_probs = stage == "finetune" and tcfg.consistency != "off"
    strategy = "base-only" if stage == "pretrain" else tcfg.rpn_strategy

    a_cells, a_scale, a_label, a_delta = [], [], [], []
    r_feats, r_label, r_pos, r_delta, r_probs = [], [], [], [], []

    for img_idx in image_indices:
        img_idx = int(img_idx)
        fwd = cache.get(img_idx)
        if fwd is None:
            fwd = cache[img_idx] = image_forward(model, dataset.images[img_idx])
        gt = dataset.records[img_idx].gt
        ann_boxes = gt.boxes[gt.annotated]
        ann_labels = gt.labels[gt.annotated]

        rpn = assign_targets(anchors.boxes, ann_boxes, ann_labels, "rpn", tcfg,
                             _subseed(seed, _TAG_RPN_SAMPLE, iteration, img_idx))
        idx = rpn.sample_idx
        a_cells.append(fwd.cells[idx // n_scales])
        a_scale.append((idx % n_scales).astype(np.int64))
        a_label.append(rpn.sample_pos.astype(np.float64))
        deltas = np.zeros((len(idx), 4))
        if rpn.sample_pos.any():
            pos = idx[rpn.sample_pos]
            deltas[rpn.sample_pos] = encode_boxes(ann_boxes[rpn.matched_gt[pos]],
                                                  anchors.boxes[pos])
        a_delta.append(deltas)

        proposals = forward_proposals(model, fwd, dcfg, strategy).boxes
        pool = np.vstack([proposals, ann_boxes]) if len(ann_boxes) else proposals
        roi = assign_targets(pool, ann_boxes, ann_labels, "roi", tcfg,
                             _subseed(seed, _TAG_ROI_SAMPLE, iteration, img_idx))
        idx = roi.sample_idx
        boxes = pool[idx]
        labels = roi.labels[idx]
        is_pos = roi.sample_pos.copy()
        # classes outside the head's domain train as background
        outside = is_pos & np.asarray([int(c) not in slot_map for c in labels], dtype=bool)
        is_pos &= ~outside
        feats = roi_features(model, fwd.feat, boxes)
        r_feats.append(feats)
        r_label.append(np.asarray([slot_map[int(c)] if p else bg_slot
                                   for c, p in zip(labels, is_pos)], dtype=np.int64))
        r_pos.append(is_pos)
        deltas = np.zeros((len(idx), 4))
        if is_pos.any():
            deltas[is_pos] = encode_boxes(ann_boxes[roi.matched_gt[idx[is_pos]]],
                                          boxes[is_pos])
        r_delta.append(deltas)
        if want_base_probs:
            logits_b, _ = box_head_scores(model, feats, "base")
            r_probs.append(softmax(pad_base_logits(logits_b, model.num_novel)))

    d = model.mcfg.head_dim
    c = model.mcfg.mixer_channels
    return Minibatch(
        anchor_cells=np.concatenate(a_cells) if a_cells else np.zeros((0, c)),
        anchor_scale=np.concatenate(a_scale) if a_scale else np.zeros(0, dtype=np.int64),
        anchor_label=np.concatenate(a_label) if a_label else np.zeros(0),
        anchor_delta_t=np.concatenate(a_delta) if a_delta else np.zeros((0, 4)),
        roi_feats=np.concatenate(r_feats) if r_feats else np.zeros((0, d)),
        roi_label=np.concatenate(r_label) if r_label else np.zeros(0, dtype=np.int64),
        roi_pos=np.concatenate(r_pos) if r_pos else np.zeros(0, dtype=bool),
        roi_delta_t=np.concatenate(r_delta) if r_delta else np.zeros((0, 4)),
        roi_base_probs=np.concatenate(r_probs) if want_base_probs else None,
    )


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def sgd_step(params: ParamSet, grads: dict[str, np.ndarray],
             velocity: dict[str, np.ndarray], lr: float, momentum: float) -> None:
    """Heavy-ball update in place: v <- momentum*v - lr*g; w <- w + v.

    Only arrays named in grads move; everything else stays bitwise intact.
    """
    for key in sorted(grads):
        if key not in params.arrays:
            raise ParameterError(f"gradient for unknown array {key!r}")
        w = params.arrays[key]
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
    """Per-iteration loss trace for one stage, serializable as JSONL."""

    stage: str
    seed: int
    records: list[dict] = field(default_factory=list)

    def append(self, iteration: int, breakdown: LossBreakdown, lr: float,
               wall_clock: float) -> None:
        rec = {"iteration": iteration, "stage": self.stage, "seed": self.seed,
               "lr": lr, "wall_clock": wall_clock}
        rec.update(breakdown.to_dict())
        self.records.append(rec)

    def totals(self) -> list[float]:
        return [r["total"] for r in self.records]

    def save(self, path) -> None:
        lines = [canonical_json(r) for r in self.records]
        Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")

    @staticmethod
    def load(path) -> "TrainLog":
        records = []
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            if line.strip():
                records.append(json.loads(line))
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

def windowed_means(totals, window: int) -> tuple[float, float] | None:
    """Means of the two most recent disjoint windows, or None if too short."""
    if window < 1 or len(totals) < 2 * window:
        return None
    recent = float(np.mean(totals[-window:]))
    earlier = float(np.mean(totals[-2 * window:-window]))
    return earlier, recent


def _converged(totals, window: int, rel_tol: float) -> bool:
    pair = windowed_means(totals, window)
    if pair is None:
        return False
    earlier, recent = pair
    return abs(recent - earlier) / max(abs(earlier), 1e-12) < rel_tol


def _run_stage(model: Model, dataset: Dataset, stage: str, tcfg: TrainConfig,
               dcfg: DetectConfig, seed: int, log: TrainLog) -> None:
    if len(dataset) == 0:
        raise ParameterError("cannot train on an empty dataset")
    velocity: dict[str, np.ndarray] = {}
    cache: dict[int, ImageForward] = {}
    mb_size = min(tcfg.minibatch_images, len(dataset))
    totals: list[float] = []
    t0 = time.monotonic()
    for it in range(tcfg.max_iters):
        picks = np.sort(_rng(seed, _TAG_PICK, it).choice(len(dataset), size=mb_size,
                                                         replace=False))
        mb = build_minibatch(model, dataset, picks, stage, tcfg, dcfg, seed, it, cache)
        breakdown, grads = compute_gradients(model, mb, stage, tcfg)
        if not np.isfinite(breakdown.total):
            raise TrainingError(f"{stage} loss is not finite at iteration {it}",
                                iteration=it, diagnostics=breakdown.to_dict())
        sgd_step(model.params, grads, velocity, tcfg.lr, tcfg.momentum)
        log.append(it, breakdown, tcfg.lr, time.monotonic() - t0)
        totals.append(breakdown.total)
        if _converged(totals, tcfg.convergence_window, tcfg.convergence_rel_tol):
            break


def pretrain(dataset: Dataset, cfg: ExperimentConfig, seed: int) -> tuple[Model, TrainLog]:
    """Train the base detector from scratch on abundant annotated data."""
    cfg.validate()
    model = init_base_model(dataset.split, cfg.model, feat_seed=seed, seed=seed)
    log = TrainLog(stage="pretrain", seed=seed)
    _run_stage(model, dataset, "pretrain", cfg.pretrain, cfg.detect, seed, log)
    model.stage = STAGE_BASE
    return model, log


def finetune(base: Model, dataset: Dataset, cfg: ExperimentConfig,
             seed: int) -> tuple[Model, TrainLog]:
    """Adapt a pretrained model on the balanced low-shot set.

    Only the three adaptation layers move; the base subset digest is checked
    after training and any drift is an internal error. Zero iterations is a
    valid configuration and returns the freshly extended model.
    """
    cfg.validate()
    t = cfg.finetune
    model = extend_for_finetune(base, seed=seed, classifier=t.classifier,
                                head_domain=t.head_domain, rpn_obj_init=t.rpn_obj_init,
                                head_init=t.head_init, rpn_strategy=t.rpn_strategy)
    before = model.base_subset_digest()
    log = TrainLog(stage="finetune", seed=seed)
    _run_stage(model, dataset, "finetune", t, cfg.detect, seed, log)
    if model.base_subset_digest() != before:
        raise StateError("frozen base parameters changed during finetuning")
    return model, log


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def _model_header(model: Model, names: list[str]) -> dict:
    return {
        "version": CHECKPOINT_VERSION,
        "stage": model.stage,
        "feat_seed": model.feat_seed,
        "classifier": model.classifier,
        "head_domain": model.head_domain,
        "rpn_strategy": model.rpn_strategy,
        "split": model.split.to_dict(),
        "model_config": asdict(model.mcfg),
        "arrays": [
            {
                "name": name,
                "shape": list(model.params.arrays[name].shape),
                "trainable": name.split("/")[0] in model.params.trainable,
            }
            for name in names
        ],
    }


def save_checkpoint(model: Model, path) -> str:
    """Write the model to disk; returns the hex digest stored in the file."""
    names = sorted(model.params.arrays)
    header = canonical_json(_model_header(model, names)).encode("utf-8")
    payload = b"".join(
        np.ascontiguousarray(model.params.arrays[n], dtype=np.float64).tobytes()
        for n in names
    )
    digest = sha256(header + payload).digest()
    blob = CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(header))
    Path(path).write_bytes(blob + header + payload + digest)
    return digest.hex()


def _verified_parts(path) -> tuple[dict, bytes, bytes]:
    """Header, payload and stored digest of a checkpoint that passes every check."""
    try:
        data = Path(path).read_bytes()
    except FileNotFoundError as exc:
        raise CorruptCheckpointError(f"checkpoint {path} is missing") from exc
    fixed = len(CHECKPOINT_MAGIC) + 8
    if len(data) < fixed + 32:
        raise CorruptCheckpointError(f"checkpoint {path} is truncated")
    if data[:len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CorruptCheckpointError(f"checkpoint {path} has a foreign magic header")
    version, header_len = struct.unpack_from("<II", data, len(CHECKPOINT_MAGIC))
    if version != CHECKPOINT_VERSION:
        raise CorruptCheckpointError(
            f"checkpoint version {version} unsupported; expected {CHECKPOINT_VERSION}")
    if len(data) < fixed + header_len + 32:
        raise CorruptCheckpointError(f"checkpoint {path} is truncated")
    header_bytes = data[fixed:fixed + header_len]
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptCheckpointError(f"checkpoint header is unreadable: {exc}") from exc
    counts = [int(np.prod(e["shape"], dtype=np.int64)) for e in header["arrays"]]
    payload_len = 8 * int(np.sum(counts, dtype=np.int64))
    if len(data) != fixed + header_len + payload_len + 32:
        raise CorruptCheckpointError(
            f"checkpoint payload is {len(data) - fixed - header_len - 32} bytes; "
            f"expected {payload_len}")
    payload = data[fixed + header_len:fixed + header_len + payload_len]
    want = data[-32:]
    if sha256(header_bytes + payload).digest() != want:
        raise CorruptCheckpointError(f"checkpoint {path} failed hash verification")
    return header, payload, want


def verify_checkpoint(path) -> str:
    """Stored digest of a checkpoint; a bad magic, version, length or hash raises."""
    return _verified_parts(path)[2].hex()


def load_checkpoint(path) -> Model:
    """Read a checkpoint; any structural or hash defect raises."""
    header, payload, _ = _verified_parts(path)
    arrays: dict[str, np.ndarray] = {}
    trainable: set[str] = set()
    off = 0
    for entry in header["arrays"]:
        count = int(np.prod(entry["shape"], dtype=np.int64))
        arr = np.frombuffer(payload, dtype=np.float64, count=count, offset=off)
        arrays[entry["name"]] = arr.reshape(entry["shape"]).copy()
        if entry["trainable"]:
            trainable.add(entry["name"].split("/")[0])
        off += 8 * count
    mc = dict(header["model_config"])
    mc["anchor_scales"] = tuple(mc["anchor_scales"])
    return Model(
        params=ParamSet(arrays=arrays, trainable=trainable),
        split=ClassSplit.from_dict(header["split"]),
        mcfg=ModelConfig(**mc),
        feat_seed=int(header["feat_seed"]),
        stage=header["stage"],
        classifier=header["classifier"],
        head_domain=header["head_domain"],
        rpn_strategy=header["rpn_strategy"],
    )
