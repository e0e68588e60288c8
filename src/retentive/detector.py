"""Model assembly and forward passes.

A model is a dict of named arrays over a frozen random featurizer, plus the
stage that alone decides which arrays train. The pretrained ("base")
detector owns one RPN objectness head and one fc box head over base classes
plus background. Finetuning adds a second objectness head and a second box
head over all classes, leaving every base array untouched; inference
ensembles the two objectness maps elementwise and merges both box heads'
candidates in one class-wise NMS.

Canonical logit ordering everywhere: [base..., novel..., background].
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from hashlib import sha256

import numpy as np

from .config import DetectConfig, ModelConfig, RPN_STRATEGIES, TrainConfig
from .errors import ParameterError, StateError
from .synthgen import ClassSplit
from .tensorops import (
    conv3x3,
    cosine_logits,
    decode_boxes,
    fixed_featurizer,
    generate_anchors,
    linear_forward,
    nms,
    rank,
    rng,
    roi_pool,
    sigmoid,
    softmax,
)

_TAG_MIXER = 0x313E
_TAG_PROJ = 0x9203
_TAG_BASE_INIT = 0xBA5E
_TAG_NOVEL_INIT = 0x0E11

# (objectness, classifier, regressor) of each head; rpn_box serves both heads
HEAD_LAYERS = {"base": ("rpn_obj_b", "cls_b", "reg_b"), "novel": ("rpn_obj_n", "cls_n", "reg_n")}
# pretraining fits the base head and the shared rpn_box; finetuning the novel head only
PRETRAIN_TRAINABLE = HEAD_LAYERS["base"] + ("rpn_box",)
FINETUNE_TRAINABLE = HEAD_LAYERS["novel"]
BASE_LAYERS = ("rpn_shared", "boxhead_proj") + PRETRAIN_TRAINABLE

STAGE_INIT = "init"
STAGE_BASE = "base"
STAGE_RETENTIVE = "retentive"


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

@dataclass
class Model:
    params: dict[str, np.ndarray]  # float64 arrays keyed "layer/part"
    split: ClassSplit
    mcfg: ModelConfig
    feat_seed: int
    stage: str
    classifier: str    # novel-head form: cosine or fc
    head_domain: str   # novel-head class domain: all or novel-only
    rpn_strategy: str

    @property
    def num_base(self) -> int:
        return self.split.num_base

    @property
    def num_novel(self) -> int:
        return self.split.num_novel

    def base_subset_digest(self) -> str:
        """SHA-256 over the arrays of the base layers, by name."""
        h = sha256()
        for key in sorted(self.params):
            if key.split("/")[0] in BASE_LAYERS:
                arr = self.params[key]
                h.update(key.encode())
                h.update(str(arr.shape).encode())
                h.update(arr.tobytes())
        return h.hexdigest()


def array_shapes(model: Model) -> dict[str, tuple[int, ...]]:
    """Every array a model of its stage, split, config, classifier and head
    domain holds, with its shape: the base detector's, plus once finetuned
    the novel head's, whose classifier has a bias only in fc form."""
    mcfg = model.mcfg
    c, d, n_scales = mcfg.mixer_channels, mcfg.head_dim, len(mcfg.anchor_scales)
    shapes = {
        "rpn_shared/W": (c, mcfg.feat_channels, 3, 3),
        "boxhead_proj/W": (d, mcfg.feat_channels * mcfg.roi_pool_bins ** 2),
        "rpn_box/W": (4 * n_scales, c), "rpn_box/b": (4 * n_scales,),
    }
    for head in ("base", "novel") if model.stage == STAGE_RETENTIVE else ("base",):
        obj, cls, reg = HEAD_LAYERS[head]
        n_out = len(head_classes(model, head)) + 1
        shapes.update({f"{obj}/W": (n_scales, c), f"{obj}/b": (n_scales,),
                       f"{cls}/W": (n_out, d), f"{reg}/W": (4, d), f"{reg}/b": (4,)})
        if head == "base" or model.classifier == "fc":
            shapes[f"{cls}/b"] = (n_out,)
    return shapes


def init_base_model(split: ClassSplit, mcfg: ModelConfig, feat_seed: int, seed: int) -> Model:
    """Fresh untrained base detector; frozen arrays derive from feat_seed only."""
    model = Model(params={}, split=split, mcfg=mcfg, feat_seed=feat_seed, stage=STAGE_INIT,
                  classifier=TrainConfig.classifier, head_domain=TrainConfig.head_domain,
                  rpn_strategy=TrainConfig.rpn_strategy)
    shape = array_shapes(model)
    a = model.params
    for layer, tag in (("rpn_shared", _TAG_MIXER), ("boxhead_proj", _TAG_PROJ)):
        size = shape[f"{layer}/W"]
        scale = 1.0 / np.sqrt(np.prod(size[1:]))  # of its fan-in
        a[f"{layer}/W"] = rng(feat_seed, tag).normal(0.0, scale, size=size)
    gen = rng(seed, _TAG_BASE_INIT)
    for layer in ("rpn_obj_b", "rpn_box", "cls_b", "reg_b"):  # the draw order
        a[f"{layer}/W"] = gen.normal(0.0, mcfg.init_sigma, size=shape[f"{layer}/W"])
        a[f"{layer}/b"] = np.zeros(shape[f"{layer}/b"])
    return model


def extend_for_finetune(base: Model, seed: int, tcfg: TrainConfig) -> Model:
    """Add the three finetune layers as the finetune config says; base arrays
    are copied bit-for-bit and made read-only."""
    if base.stage != STAGE_BASE:
        raise StateError(f"finetune extension requires a pretrained model, got stage {base.stage!r}")
    model = Model(params={k: v.copy() for k, v in base.params.items()}, split=base.split,
                  mcfg=base.mcfg, feat_seed=base.feat_seed, stage=STAGE_RETENTIVE,
                  classifier=tcfg.classifier, head_domain=tcfg.head_domain,
                  rpn_strategy=tcfg.rpn_strategy)
    for frozen in model.params.values():
        frozen.flags.writeable = False
    shape = array_shapes(model)
    a = model.params
    sig = base.mcfg.init_sigma
    gen = rng(seed, _TAG_NOVEL_INIT)

    if tcfg.rpn_obj_init == "copy":
        a["rpn_obj_n/W"] = a["rpn_obj_b/W"].copy()
        a["rpn_obj_n/b"] = a["rpn_obj_b/b"].copy()
    else:
        a["rpn_obj_n/W"] = gen.normal(0.0, sig, size=shape["rpn_obj_n/W"])
        a["rpn_obj_n/b"] = np.zeros(shape["rpn_obj_n/b"])

    if tcfg.head_init == "copy":  # the base head, zero-padded on novel classes
        a["cls_n/W"] = np.ascontiguousarray(pad_base_logits(a["cls_b/W"].T, base.num_novel).T)
        a["cls_n/b"] = pad_base_logits(a["cls_b/b"][None], base.num_novel)[0]
        a["reg_n/W"] = a["reg_b/W"].copy()
        a["reg_n/b"] = a["reg_b/b"].copy()
    else:
        a["cls_n/W"] = gen.normal(0.0, sig, size=shape["cls_n/W"])
        if "cls_n/b" in shape:
            a["cls_n/b"] = np.zeros(shape["cls_n/b"])
        a["reg_n/W"] = gen.normal(0.0, sig, size=shape["reg_n/W"])
        a["reg_n/b"] = np.zeros(shape["reg_n/b"])
    return model


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=4)
def image_anchors(side: int, stride: int, scales: tuple[float, ...]) -> np.ndarray:
    """The (A, 4) anchors of a side x side image on its feature-map cells.

    Cached, so every caller holds the same array; it is read-only.
    """
    g = side // stride
    anchors = generate_anchors(g, g, float(stride), scales)
    anchors.flags.writeable = False
    return anchors


@dataclass
class ImageForward:
    """The frozen part of one image's forward: feat, the (H,W,C) featurizer map
    the box heads pool from, and cells, the rectified 3x3 mixer output as
    (H*W, C) rows in row-major cell order, which both objectness heads and the
    box-delta layer read. Neither depends on a trainable array, so one record
    serves both detectors, every strategy and every training iteration."""

    feat: np.ndarray
    cells: np.ndarray
    side: int


def image_forward(model: Model, image: np.ndarray) -> ImageForward:
    feat = fixed_featurizer(image, model.feat_seed, model.mcfg.feat_channels)
    cells = np.maximum(conv3x3(feat, model.params["rpn_shared/W"]), 0.0)
    return ImageForward(feat=feat, cells=cells, side=int(image.shape[0]))


def trained_head(model: Model) -> str:
    """The head a model's training fits: the finetuned one once the model is
    extended, the base head before."""
    return "novel" if model.stage == STAGE_RETENTIVE else "base"


def trainable_layers(model: Model) -> tuple[str, ...]:
    """The layers a model's training moves; every other array stays frozen."""
    return FINETUNE_TRAINABLE if trained_head(model) == "novel" else PRETRAIN_TRAINABLE


def head_classes(model: Model, head: str) -> tuple[int, ...]:
    """Foreground class ids one box head scores, in logit order."""
    if head == "base":
        return model.split.base_ids
    if model.head_domain == "novel-only":
        return model.split.novel_ids
    return model.split.base_ids + model.split.novel_ids


def _head_layers(model: Model, head: str) -> tuple[str, str, str]:
    """(objectness, classifier, regressor) layer names of one head of the model."""
    if head not in HEAD_LAYERS:
        raise ParameterError(f"unknown head {head!r}; expected one of {tuple(HEAD_LAYERS)}")
    layers = HEAD_LAYERS[head]
    if f"{layers[1]}/W" not in model.params:
        raise StateError(f"model has no {head} head")
    return layers


def rpn_objectness_logits(model: Model, cells: np.ndarray, head: str) -> np.ndarray:
    """Per-anchor objectness logits, flat in (cell, scale) order."""
    layer = _head_layers(model, head)[0]
    a = model.params
    z = linear_forward(cells, a[f"{layer}/W"], a[f"{layer}/b"])  # (cells, scales)
    return z.reshape(-1)


def rpn_box_deltas(model: Model, cells: np.ndarray) -> np.ndarray:
    """Per-anchor box deltas; one regression layer serves both objectness heads."""
    a = model.params
    d = linear_forward(cells, a["rpn_box/W"], a["rpn_box/b"])  # (cells, 4*scales)
    n_scales = len(model.mcfg.anchor_scales)
    return d.reshape(-1, n_scales, 4).reshape(-1, 4)


def bias_balanced_objectness(o_b: np.ndarray, o_n: np.ndarray | None,
                             strategy: str) -> np.ndarray:
    """The objectness a strategy ranks anchors by; "base-only" is the base
    objectness itself and reads no finetuned objectness (o_n may be None)."""
    o_b = np.asarray(o_b, dtype=np.float64)
    if strategy == "base-only":
        return o_b
    o_n = np.asarray(o_n, dtype=np.float64)
    if o_b.shape != o_n.shape:
        raise ParameterError(f"objectness shapes differ: {o_b.shape} vs {o_n.shape}")
    if strategy == "max":
        return np.maximum(o_b, o_n)
    if strategy == "arith-avg":
        return 0.5 * (o_b + o_n)
    if strategy == "geo-avg":
        return np.sqrt(o_b * o_n)
    raise ParameterError(f"unknown rpn strategy {strategy!r}; expected one of {RPN_STRATEGIES}")


@dataclass
class Proposals:
    boxes: np.ndarray       # (P, 4)
    scores: np.ndarray      # (P,) objectness that survived
    anchor_ids: np.ndarray  # (P,) the anchor each box was decoded from

    def __len__(self) -> int:
        return self.boxes.shape[0]


def propose(objectness: np.ndarray, ranked: np.ndarray, boxes: np.ndarray,
            dcfg: DetectConfig) -> Proposals:
    """Greedy NMS over ranked anchors, stopped at post_nms_k kept.

    ranked holds a prefix of rank(objectness), best first, boxes their
    decoded, clipped boxes row for row, and objectness the score of every anchor.
    Boxes without positive width and height are dropped first.
    """
    objectness = np.asarray(objectness, dtype=np.float64).reshape(-1)
    if boxes.shape != (len(ranked), 4):
        raise ParameterError(f"boxes {boxes.shape} do not hold one row per ranked anchor")
    w = boxes[:, 2] - boxes[:, 0]
    h = boxes[:, 3] - boxes[:, 1]
    ok = (w > 1e-6) & (h > 1e-6)
    ids, boxes = ranked[ok], boxes[ok]
    scores = objectness[ids]
    kept = nms(boxes, scores, dcfg.proposal_nms_iou, max_keep=dcfg.post_nms_k)
    return Proposals(boxes=np.ascontiguousarray(boxes[kept]),
                     scores=np.ascontiguousarray(scores[kept]), anchor_ids=ids[kept])


def strategy_proposals(model: Model, forward: ImageForward, dcfg: DetectConfig,
                       strategies) -> dict[str, Proposals]:
    """Proposals from one image's forward under each objectness strategy given.

    The RPN heads run once for all of them: the base objectness and the box
    deltas always, the finetuned objectness only if some strategy combines
    it. "base-only" reads the base objectness head alone, so it also serves
    models without a finetuned head: pretraining and the base detector.
    Each anchor in some strategy's top pre_nms_k is decoded once.
    """
    o_b = sigmoid(rpn_objectness_logits(model, forward.cells, "base"))
    o_n = (sigmoid(rpn_objectness_logits(model, forward.cells, "novel"))
           if any(s != "base-only" for s in strategies) else None)
    deltas = rpn_box_deltas(model, forward.cells)
    anchors = image_anchors(forward.side, model.mcfg.feat_stride, model.mcfg.anchor_scales)
    if len(o_b) != len(anchors):
        raise ParameterError("RPN outputs not aligned with the anchor grid")
    objectness = {s: bias_balanced_objectness(o_b, o_n, s) for s in strategies}
    ranked = {s: rank(o)[:dcfg.pre_nms_k] for s, o in objectness.items()}
    # one decode of every anchor some strategy ranks; decode_boxes works row by
    # row, so each strategy reads the bits decoding its own rows would give
    wanted = np.zeros(len(anchors), dtype=bool)
    wanted[np.concatenate(list(ranked.values()))] = True
    ids = np.flatnonzero(wanted)
    decoded = decode_boxes(deltas[ids], anchors[ids], side=float(forward.side))
    return {s: propose(objectness[s], r, decoded[np.searchsorted(ids, r)], dcfg)
            for s, r in ranked.items()}


def pool_rois(model: Model, feat: np.ndarray, boxes: np.ndarray,
              batch_idx: np.ndarray | None = None) -> np.ndarray:
    """The roi_pool rows of boxes on a featurizer map, (P, C * bins * bins);
    given a stack of maps, batch_idx names each box's map.

    Each row depends on its own box and map only, so one call may pool the
    boxes of several detectors or images and each takes its rows.
    """
    mcfg = model.mcfg
    return roi_pool(feat, boxes, bins=mcfg.roi_pool_bins, stride=float(mcfg.feat_stride),
                    batch_idx=batch_idx)


def pool_proposals(model: Model, forward: ImageForward, proposal_sets,
                   boxes: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """The ROI feature rows of each proposal set, and those of boxes, in order,
    as roi_features gives them, all from one pool_rois call over the anchors
    any set holds plus boxes. Each set, and boxes, is projected apart, at its
    own row count.

    Proposals of one image with the same anchor id hold the same decoded box,
    so each distinct anchor is pooled once.
    """
    _, first, row = np.unique(np.concatenate([p.anchor_ids for p in proposal_sets]),
                              return_index=True, return_inverse=True)
    distinct = np.concatenate([p.boxes for p in proposal_sets])[first]
    pooled = pool_rois(model, forward.feat, np.concatenate([distinct, boxes]))
    rows = np.split(pooled[row], np.cumsum([len(p) for p in proposal_sets])[:-1])
    return ([project_rois(model, r) for r in rows],
            project_rois(model, pooled[len(first):]))


def project_rois(model: Model, pooled: np.ndarray) -> np.ndarray:
    """Projected, rectified ROI feature rows (P, head_dim) of pooled rows.

    A GEMM row's bits may depend on the row count, so project exactly the
    rows a head scores, never a superset.
    """
    return np.maximum(pooled @ model.params["boxhead_proj/W"].T, 0.0)


def roi_features(model: Model, feat: np.ndarray, boxes: np.ndarray) -> np.ndarray:
    """Pooled, projected, rectified per-ROI feature rows (P, head_dim)."""
    return project_rois(model, pool_rois(model, feat, boxes))


def box_head_scores(model: Model, rois: np.ndarray, head: str) -> tuple[np.ndarray, np.ndarray]:
    """ROI feature rows -> (classification logits, class-agnostic box deltas).

    The finetuned head's classifier is cosine or fc as the model says; the
    base head's is always fc.
    """
    _, cls, reg = _head_layers(model, head)
    a = model.params
    if head == "novel" and model.classifier == "cos":
        logits = cosine_logits(rois, a[f"{cls}/W"], model.mcfg.cosine_scale)
    else:
        logits = linear_forward(rois, a[f"{cls}/W"], a[f"{cls}/b"])
    deltas = linear_forward(rois, a[f"{reg}/W"], a[f"{reg}/b"])
    return logits, deltas


def head_probs(model: Model, rois: np.ndarray,
               head: str) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """ROI feature rows -> (class probabilities, box deltas, foreground class ids).

    The base head's logits are zero-padded on novel entries before softmax,
    so its probabilities are comparable with the finetuned head's. The ids
    name the probability columns in order; background is the last column.
    """
    logits, deltas = box_head_scores(model, rois, head)
    if head == "base":
        logits = pad_base_logits(logits, model.num_novel)
    return softmax(logits), deltas, head_classes(model, head)


def pad_base_logits(logits_b: np.ndarray, num_novel: int) -> np.ndarray:
    """Insert zero logits for novel entries between base block and background."""
    logits_b = np.asarray(logits_b, dtype=np.float64)
    if logits_b.ndim != 2 or logits_b.shape[1] < 1:
        raise StateError(f"base logits must be (N, num_base+1), got {logits_b.shape}")
    if num_novel < 0:
        raise StateError(f"negative novel count {num_novel}")
    n, wb = logits_b.shape
    out = np.zeros((n, wb + num_novel))
    out[:, :wb - 1] = logits_b[:, :-1]
    out[:, -1] = logits_b[:, -1]
    return out


# ---------------------------------------------------------------------------
# inference
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Detection:
    box: tuple[float, float, float, float]
    class_id: int
    score: float        # plain probability; never includes the ranking bonus
    source_head: str    # "base" or "novel"


def _assemble_candidates(heads, score_thresh: float):
    """Every head's (proposal, class) pairs whose probability reaches score_thresh.

    heads holds one (is_base, probs (P, >=K), decoded boxes (P, 4), K class
    ids) entry per box head. Returns the candidates' boxes, class ids,
    probabilities and is-base flags in (proposal, head, slot) order, the
    order the merge breaks ties by.
    """
    probs = np.hstack([p[:, :len(ids)] for _, p, _, ids in heads])
    head_of = np.concatenate([np.full(len(ids), h) for h, (_, _, _, ids) in enumerate(heads)])
    class_of = np.concatenate([np.asarray(ids, dtype=np.int64).reshape(-1) for *_, ids in heads])
    rows, cols = np.nonzero(probs >= score_thresh)
    h = head_of[cols]
    boxes = np.stack([b for _, _, b, _ in heads])[h, rows]
    is_base = np.asarray([base for base, *_ in heads], dtype=bool)[h]
    return boxes, class_of[cols], probs[rows, cols], is_base


def _merge_candidates(boxes: np.ndarray, classes: np.ndarray, raw: np.ndarray,
                      is_base: np.ndarray, dcfg: DetectConfig) -> list[Detection]:
    """Class-wise NMS on bonus-adjusted ranks, then a global top-k cut.

    One NMS pass over all candidates with the class ids as groups: a class's
    boxes are visited in the class's own (rank desc, index asc) order and only
    its own kept boxes suppress them, so each class keeps what a per-class
    NMS would. The pass keeps them in the global (rank desc, index asc) order
    of the cut, so stopping after max_dets kept keeps the global top max_dets.
    """
    ranks = raw + np.where(is_base, dcfg.base_bonus, 0.0)
    kept = nms(boxes, ranks, dcfg.nms_iou, max_keep=dcfg.max_dets, groups=classes)
    return [
        Detection(
            box=tuple(boxes[i].tolist()),
            class_id=int(classes[i]),
            score=float(raw[i]),
            source_head="base" if is_base[i] else "novel",
        )
        for i in kept
    ]


def score_proposals(model: Model, proposals: Proposals, rois: np.ndarray, side: int,
                    dcfg: DetectConfig, heads: tuple[str, ...]) -> list[Detection]:
    """Score proposals with the given box heads and merge their candidates.

    rois holds the proposals' ROI feature rows, one per box, as roi_features
    or pool_proposals gives them; side is the image's.
    """
    if len(rois) != len(proposals):
        raise ParameterError(f"{len(rois)} ROI feature rows for {len(proposals)} proposals")
    if len(rois) == 0:
        return []
    outputs = []
    for head in heads:
        probs, reg, ids = head_probs(model, rois, head)
        boxes = decode_boxes(reg, proposals.boxes, side=float(side))
        outputs.append((head == "base", probs, boxes, ids))
    return _merge_candidates(*_assemble_candidates(outputs, dcfg.score_thresh), dcfg)


def _detect_heads(model: Model, image: np.ndarray, dcfg: DetectConfig,
                  heads: tuple[str, ...], strategy: str) -> list[Detection]:
    """The image's own forward proposes under strategy; its pooled proposals
    are scored with the given box heads."""
    forward = image_forward(model, image)
    proposals = strategy_proposals(model, forward, dcfg, (strategy,))[strategy]
    rois = roi_features(model, forward.feat, proposals.boxes)
    return score_proposals(model, proposals, rois, forward.side, dcfg, heads)


def detect_base(model: Model, image: np.ndarray, dcfg: DetectConfig) -> list[Detection]:
    """Base-detector inference: base RPN head, base box head, base classes.

    Scores come from the padded-logit softmax so they are comparable with
    ensemble inference.
    """
    if model.stage == STAGE_INIT:
        raise StateError("cannot run inference on an untrained model")
    return _detect_heads(model, image, dcfg, ("base",), "base-only")


def detect(model: Model, image: np.ndarray, dcfg: DetectConfig) -> list[Detection]:
    """Full ensemble inference.

    Proposals come from the objectness maps combined elementwise under the
    model's own strategy. Both box heads score every proposal, and the
    finetuned head's base-class predictions stay in the candidate pool.
    Base-head candidates get a rank-only bonus so NMS prefers them on ties.
    """
    if model.stage != STAGE_RETENTIVE:
        raise StateError(f"ensemble inference needs a finetuned model, got stage {model.stage!r}")
    return _detect_heads(model, image, dcfg, ("base", "novel"), model.rpn_strategy)


def ensembled_proposals(model: Model, image: np.ndarray, dcfg: DetectConfig,
                        strategy: str) -> Proposals:
    """Proposal stage only, under an explicit combination strategy."""
    if model.stage == STAGE_INIT:
        raise StateError("cannot run inference on an untrained model")
    return strategy_proposals(model, image_forward(model, image), dcfg, (strategy,))[strategy]
