"""Experiment configuration: dataclasses, YAML loading, canonical digests.

Every knob that shapes an artifact lives here so that a single SHA-256 over
the resolved configuration identifies a run.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .errors import ConfigError, CorruptArtifactError

RPN_STRATEGIES = ("max", "arith-avg", "geo-avg", "base-only")
CONSISTENCY_VARIANTS = ("kldiv", "l1", "cos", "off")
CLASSIFIER_KINDS = ("cos", "fc")
HEAD_DOMAINS = ("all", "novel-only")
MIN_GLYPH = 6  # the smallest glyph raster synthgen draws
FEATURIZER_STRIDE = 4  # the fixed featurizer's downsampling: it pools twice by 2


@dataclass
class DatasetConfig:
    """Synthetic benchmark sizing."""

    image_side: int = 64
    num_classes: int = 12
    num_novel: int = 4
    base_train_images: int = 500
    test_images: int = 100
    uar_eval_images: int = 100
    shots: int = 5
    min_instances: int = 2
    max_instances: int = 5
    min_glyph: int = 12
    max_glyph: int = 28
    novel_frequency: float = 0.3
    overlap_iou_cap: float = 0.3
    placement_retries: int = 50
    noise: float = 0.0


@dataclass
class ModelConfig:
    """Frozen featurizer and head dimensions."""

    feat_channels: int = 32
    feat_stride: int = 4
    mixer_channels: int = 32
    roi_pool_bins: int = 3
    head_dim: int = 64
    anchor_scales: tuple[float, ...] = (8.0, 16.0, 32.0)
    cosine_scale: float = 20.0
    init_sigma: float = 0.01

    def validate(self) -> None:
        for name in ("feat_channels", "mixer_channels", "roi_pool_bins", "head_dim"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, int) or v < 1:
                raise ConfigError(f"model.{name} must be an integer >= 1, got {v!r}")
        if self.feat_stride != FEATURIZER_STRIDE:
            raise ConfigError(f"model.feat_stride must be {FEATURIZER_STRIDE}, the fixed "
                              f"featurizer's downsampling, got {self.feat_stride!r}")
        if not self.anchor_scales or min(self.anchor_scales) <= 0:
            raise ConfigError(f"model.anchor_scales must be positive sizes, "
                              f"got {list(self.anchor_scales)}")


@dataclass
class TrainConfig:
    """One training stage (pretrain or finetune)."""

    lr: float = 0.05
    momentum: float = 0.9
    lam: float = 0.1
    minibatch_images: int = 2
    roi_per_image: int = 32
    roi_positive_fraction: float = 0.25
    rpn_per_image: int = 64
    rpn_positive_fraction: float = 0.5
    rpn_pos_iou: float = 0.7
    rpn_neg_iou: float = 0.3
    roi_pos_iou: float = 0.5
    max_iters: int = 3000
    convergence_window: int = 50
    convergence_rel_tol: float = 1e-4
    consistency: str = "kldiv"
    rpn_strategy: str = "max"
    classifier: str = "cos"
    head_domain: str = "all"
    rpn_obj_init: str = "copy"  # "copy" from base objectness head, or "random"
    head_init: str = "random"   # "copy" seeds the box head from the padded base head

    def validate(self) -> None:
        if self.lam < 0:
            raise ConfigError(f"consistency coefficient must be >= 0, got {self.lam}")
        for name in ("rpn_pos_iou", "rpn_neg_iou", "roi_pos_iou"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {v}")
        if self.rpn_neg_iou > self.rpn_pos_iou:
            raise ConfigError("rpn_neg_iou must not exceed rpn_pos_iou")
        for name in ("minibatch_images", "rpn_per_image", "roi_per_image"):
            v = getattr(self, name)
            if v < 1:
                raise ConfigError(f"{name} must be >= 1, got {v}")
        for name in ("rpn_positive_fraction", "roi_positive_fraction"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {v}")
        if self.consistency not in CONSISTENCY_VARIANTS:
            raise ConfigError(f"unknown consistency variant {self.consistency!r}")
        if self.rpn_strategy not in RPN_STRATEGIES:
            raise ConfigError(f"unknown rpn strategy {self.rpn_strategy!r}")
        if self.classifier not in CLASSIFIER_KINDS:
            raise ConfigError(f"unknown classifier {self.classifier!r}")
        if self.head_domain not in HEAD_DOMAINS:
            raise ConfigError(f"unknown head domain {self.head_domain!r}")
        if self.head_domain == "novel-only" and self.consistency != "off":
            raise ConfigError("novel-only head domain requires consistency='off'")
        if self.rpn_obj_init not in ("copy", "random"):
            raise ConfigError(f"rpn_obj_init must be 'copy' or 'random', got {self.rpn_obj_init!r}")
        if self.head_init not in ("copy", "random"):
            raise ConfigError(f"head_init must be 'copy' or 'random', got {self.head_init!r}")
        if self.head_init == "copy" and (self.classifier != "fc" or self.head_domain != "all"):
            raise ConfigError("head_init='copy' needs classifier='fc' and head_domain='all'")


@dataclass
class DetectConfig:
    """Proposal generation and final inference."""

    pre_nms_k: int = 256
    proposal_nms_iou: float = 0.7
    post_nms_k: int = 64
    score_thresh: float = 0.05
    nms_iou: float = 0.5
    max_dets: int = 20
    base_bonus: float = 0.1

    def validate(self) -> None:
        for name in ("pre_nms_k", "post_nms_k", "max_dets"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, int) or v < 1:
                raise ConfigError(f"detect.{name} must be an integer >= 1, got {v!r}")
        for name in ("proposal_nms_iou", "nms_iou", "score_thresh"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, float)) or not 0.0 <= v <= 1.0:
                raise ConfigError(f"detect.{name} must lie in [0, 1], got {v!r}")


@dataclass
class EvalConfig:
    iou_thresholds: tuple[float, ...] = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))
    recall_ks: tuple[int, ...] = (10, 100)
    recall_iou: float = 0.5

    def validate(self) -> None:
        for k in self.recall_ks:
            if isinstance(k, bool) or not isinstance(k, int) or k < 0:
                raise ConfigError(f"eval.recall_ks must hold integers >= 0, got {k!r}")
        for t in (self.recall_iou, *self.iou_thresholds):
            if isinstance(t, bool) or not isinstance(t, (int, float)) or not 0.0 < t <= 1.0:
                raise ConfigError(f"eval IoU thresholds must lie in (0, 1], got {t!r}")
        labels = [f"{t:.2f}" for t in self.iou_thresholds]  # report.json keys
        if len(set(labels)) != len(labels):
            raise ConfigError(f"eval.iou_thresholds must differ at two decimals, got "
                              f"{list(self.iou_thresholds)}")


@dataclass
class ExperimentConfig:
    """Everything a full gen/pretrain/finetune/eval run depends on."""

    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    pretrain: TrainConfig = field(default_factory=lambda: TrainConfig(max_iters=3000))
    finetune: TrainConfig = field(default_factory=lambda: TrainConfig(max_iters=800))
    detect: DetectConfig = field(default_factory=DetectConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)

    def validate(self) -> None:
        self.model.validate()
        self.pretrain.validate()
        self.finetune.validate()
        self.detect.validate()
        self.eval.validate()
        d = self.dataset
        if not 0 < d.num_novel < d.num_classes:
            raise ConfigError("need 0 < num_novel < num_classes")
        if d.image_side % self.model.feat_stride != 0:
            raise ConfigError("image side must be divisible by the featurizer stride")
        for name in ("base_train_images", "test_images", "uar_eval_images"):
            if getattr(d, name) < 1:
                raise ConfigError(f"dataset.{name} must be >= 1, got {getattr(d, name)}")
        if not MIN_GLYPH <= d.min_glyph <= d.max_glyph:
            raise ConfigError(f"need {MIN_GLYPH} <= dataset.min_glyph <= dataset.max_glyph, "
                              f"got {d.min_glyph} and {d.max_glyph}")
        if d.min_instances > d.max_instances:
            raise ConfigError(f"dataset.min_instances {d.min_instances} exceeds "
                              f"max_instances {d.max_instances}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def digest(self) -> str:
        return canonical_digest(self.to_dict())


def canonical_json(obj) -> str:
    """Canonical serialization: sorted keys, no whitespace, exact float repr."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def canonical_digest(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def read_json_object(path: Path, kind: str, fields: dict[str, type]) -> dict:
    """A JSON object holding the given typed fields; anything else is corrupt."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptArtifactError(f"{kind} {path} is unreadable: {exc}") from exc
    if not isinstance(data, dict) or not all(isinstance(data.get(k), t)
                                             for k, t in fields.items()):
        raise CorruptArtifactError(f"{kind} {path} does not hold a {kind} object")
    return data


def _fits(default, value) -> bool:
    """Whether a YAML value may replace a default: the same type, except that an
    int may stand for a float and a list for a tuple; a bool is never a number."""
    if isinstance(value, bool) != isinstance(default, bool):
        return False
    if isinstance(default, tuple):
        return isinstance(value, list) and all(_fits(default[0], v) for v in value)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    return isinstance(value, type(default))


def _merge_into(cfg, data: dict, path: str) -> None:
    for key, value in data.items():
        if not hasattr(cfg, key):
            raise ConfigError(f"unknown config key {path}{key!r}")
        current = getattr(cfg, key)
        if dataclasses.is_dataclass(current):
            if not isinstance(value, dict):
                raise ConfigError(f"config section {path}{key!r} must be a mapping")
            _merge_into(current, value, f"{path}{key}.")
        else:
            if not _fits(current, value):
                raise ConfigError(f"config value {path}{key} must be a "
                                  f"{type(current).__name__}, got {value!r}")
            setattr(cfg, key, tuple(value) if isinstance(current, tuple) else value)


class _Loader(yaml.SafeLoader):
    """SafeLoader that reads every plain exponent float as a float, as YAML 1.2
    does. YAML 1.1 wants a dot and an exponent sign, so it reads ``1e-5`` or
    ``5e-2`` as a string. Quoted scalars stay strings."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"))


def load_config(path: str | Path | None) -> ExperimentConfig:
    """Build an ExperimentConfig from defaults overlaid with a YAML file."""
    cfg = ExperimentConfig()
    if path is not None:
        try:
            raw = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        try:
            data = yaml.load(raw, Loader=_Loader)
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse config {path}: {exc}") from exc
        if data is None:
            data = {}
        if not isinstance(data, dict):
            raise ConfigError(f"config root of {path} must be a mapping")
        _merge_into(cfg, data, "")
    cfg.validate()
    return cfg
