"""Experiment configuration: dataclasses, YAML loading, canonical digests.

Every knob that shapes an artifact lives here so that a single SHA-256 over
the resolved configuration identifies a run. Sections are frozen and check
themselves when built: ``check`` tests each field's ``Rule`` (its metadata) and
``__post_init__`` the few rules that tie two fields together. ``override``
derives one config from another. A bad value is one ``ConfigError``:
``{field} must be …, got …``; ``override`` names the field by its path.
"""
from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import operator
import os
import re
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .errors import ConfigError, CorruptArtifactError

RPN_STRATEGIES = ("max", "arith-avg", "geo-avg", "base-only")
CONSISTENCY_VARIANTS = ("kldiv", "l1", "cos", "off")
CLASSIFIER_KINDS = ("cos", "fc")
HEAD_DOMAINS = ("all", "novel-only")
INIT_KINDS = ("copy", "random")  # "copy" seeds a finetune layer from its base twin
MIN_GLYPH = 6  # the smallest glyph raster synthgen draws
NUM_GLYPHS = 12  # the classes synthgen can draw: one glyph each
FEATURIZER_STRIDE = 4  # the fixed featurizer's downsampling: it pools twice by 2
# the TrainConfig fields only finetuning reads, which pretrain keeps at their
# defaults; head_domain and head_init precede the fields their rules need, so a
# refusal names the field that was set
_FINETUNE_ONLY = ("lam", "rpn_strategy", "head_domain", "head_init", "consistency",
                  "classifier", "rpn_obj_init")

_OPS = {">=": operator.ge, "<=": operator.le, ">": operator.gt, "<": operator.lt}


@dataclass(frozen=True)
class Rule:
    """What one config field admits. The type is the default's: an int may
    stand for a float, a bool is never a number and a float must be finite. A
    tuple field takes a non-empty list whose items each meet the rule."""

    kind: type
    many: bool
    bounds: tuple[tuple[str, float], ...]  # (comparison, bound) pairs, as in (">=", 0)
    choices: tuple[str, ...] | None

    def admits(self, value) -> bool:
        items = value if self.many else (value,)
        return isinstance(items, tuple) and bool(items) and all(map(self._admits_one, items))

    def _admits_one(self, v) -> bool:
        if isinstance(v, bool) or not isinstance(v, (int, float) if self.kind is float else self.kind):
            return False
        if isinstance(v, str):
            return v in self.choices
        return (not isinstance(v, float) or math.isfinite(v)) and all(
            _OPS[op](v, bound) for op, bound in self.bounds)

    def __str__(self) -> str:
        if self.choices is not None:
            return "one of " + ", ".join(map(repr, self.choices))
        one, many = ("an integer", "integers") if self.kind is int else ("a finite number", "finite numbers")
        text = f"a non-empty list of {many}" if self.many else one
        return text + " and".join(f" {op} {bound:g}" for op, bound in self.bounds)


def rule(default, lo=None, hi=None, *, above=None, below=None, choices=None):
    """A dataclass field holding ``default`` whose values must meet this rule."""
    many = isinstance(default, tuple)
    bounds = tuple((op, b) for op, b in ((">=", lo), (">", above), ("<=", hi), ("<", below))
                   if b is not None)
    return field(default=default, metadata={
        "rule": Rule(type(default[0] if many else default), many, bounds, choices)})


def _need(ok: bool, name: str, must, got) -> None:
    if not ok:
        raise ConfigError(f"{name} must be {must}, got {got!r}")


def field_rules(section_type) -> dict[str, Rule]:
    """Each field of a config section type, with the rule its values must meet."""
    return {f.name: f.metadata["rule"] for f in dataclasses.fields(section_type)}


def check_value(name: str, r: Rule, value) -> None:
    """Test one value against a rule; a miss is the one ConfigError form."""
    _need(r.admits(value), name, r, list(value) if isinstance(value, tuple) else value)


def check(cfg) -> None:
    """Test every field of one config section against the rule it carries, and
    store an integer given for a float as a float: one config, one digest."""
    for name, r in field_rules(cfg).items():
        value = getattr(cfg, name)
        check_value(name, r, value)
        if r.kind is float:
            object.__setattr__(cfg, name, tuple(map(float, value)) if r.many else float(value))


@dataclass(frozen=True)
class DatasetConfig:
    """Synthetic benchmark sizing."""

    image_side: int = rule(64, FEATURIZER_STRIDE)
    num_classes: int = rule(NUM_GLYPHS, 2, NUM_GLYPHS)
    num_novel: int = rule(4, 1)
    base_train_images: int = rule(500, 1)
    test_images: int = rule(100, 1)
    uar_eval_images: int = rule(100, 1)
    shots: int = rule(5, 1)
    min_instances: int = rule(2, 0)
    max_instances: int = rule(5, 1)
    min_glyph: int = rule(12, MIN_GLYPH)
    max_glyph: int = rule(28, MIN_GLYPH)
    novel_frequency: float = rule(0.3, 0, 1)
    overlap_iou_cap: float = rule(0.3, 0, 1)
    placement_retries: int = rule(50, 1)
    noise: float = rule(0.0, 0)

    def __post_init__(self) -> None:
        check(self)
        _need(self.num_novel < self.num_classes, "num_novel",
              f"< num_classes ({self.num_classes})", self.num_novel)
        _need(self.min_glyph <= self.max_glyph, "min_glyph",
              f"<= max_glyph ({self.max_glyph})", self.min_glyph)
        _need(self.min_instances <= self.max_instances, "min_instances",
              f"<= max_instances ({self.max_instances})", self.min_instances)


@dataclass(frozen=True)
class ModelConfig:
    """Frozen featurizer and head dimensions."""

    feat_channels: int = rule(32, 1)
    feat_stride: int = rule(FEATURIZER_STRIDE, FEATURIZER_STRIDE, FEATURIZER_STRIDE)
    mixer_channels: int = rule(32, 1)
    roi_pool_bins: int = rule(3, 1)
    head_dim: int = rule(64, 1)
    anchor_scales: tuple[float, ...] = rule((8.0, 16.0, 32.0), above=0)
    cosine_scale: float = rule(20.0, above=0)
    init_sigma: float = rule(0.01, 0)

    __post_init__ = check


@dataclass(frozen=True)
class TrainConfig:
    """One training stage (pretrain or finetune)."""

    lr: float = rule(0.05, above=0)
    momentum: float = rule(0.9, 0, below=1)
    lam: float = rule(0.1, 0)
    minibatch_images: int = rule(2, 1)
    roi_per_image: int = rule(32, 1)
    roi_positive_fraction: float = rule(0.25, 0, 1)
    rpn_per_image: int = rule(64, 1)
    rpn_positive_fraction: float = rule(0.5, 0, 1)
    rpn_pos_iou: float = rule(0.7, 0, 1)
    rpn_neg_iou: float = rule(0.3, 0, 1)
    roi_pos_iou: float = rule(0.5, 0, 1)
    max_iters: int = rule(3000, 0)
    convergence_window: int = rule(50, 1)
    convergence_rel_tol: float = rule(1e-4, 0)
    consistency: str = rule("kldiv", choices=CONSISTENCY_VARIANTS)
    rpn_strategy: str = rule("max", choices=RPN_STRATEGIES)
    classifier: str = rule("cos", choices=CLASSIFIER_KINDS)
    head_domain: str = rule("all", choices=HEAD_DOMAINS)
    rpn_obj_init: str = rule("copy", choices=INIT_KINDS)  # the novel objectness head
    head_init: str = rule("random", choices=INIT_KINDS)   # the novel box head

    def __post_init__(self) -> None:
        check(self)
        _need(self.rpn_neg_iou <= self.rpn_pos_iou, "rpn_neg_iou",
              f"<= rpn_pos_iou ({self.rpn_pos_iou})", self.rpn_neg_iou)
        _need(self.head_domain != "novel-only" or self.consistency == "off",
              "consistency", "'off' with head_domain 'novel-only'", self.consistency)
        _need(self.head_init != "copy" or (self.classifier, self.head_domain) == ("fc", "all"),
              "head_init", "'random' unless classifier is 'fc' and head_domain 'all'",
              self.head_init)


@dataclass(frozen=True)
class DetectConfig:
    """Proposal generation and final inference."""

    pre_nms_k: int = rule(256, 1)
    proposal_nms_iou: float = rule(0.7, 0, 1)
    post_nms_k: int = rule(64, 1)
    score_thresh: float = rule(0.05, 0, 1)
    nms_iou: float = rule(0.5, 0, 1)
    max_dets: int = rule(20, 1)
    base_bonus: float = rule(0.1)

    __post_init__ = check


@dataclass(frozen=True)
class EvalConfig:
    iou_thresholds: tuple[float, ...] = rule(tuple(round(0.5 + 0.05 * i, 2) for i in range(10)),
                                             above=0, hi=1)
    recall_ks: tuple[int, ...] = rule((10, 100), 0)
    recall_iou: float = rule(0.5, above=0, hi=1)

    def __post_init__(self) -> None:
        check(self)
        labels = {f"{t:.2f}" for t in self.iou_thresholds}  # report.json keys
        _need(len(labels) == len(self.iou_thresholds), "iou_thresholds",
              "distinct at two decimals", list(self.iou_thresholds))


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a full gen/pretrain/finetune/eval run depends on."""

    dataset: DatasetConfig = DatasetConfig()
    model: ModelConfig = ModelConfig()
    pretrain: TrainConfig = TrainConfig(max_iters=3000)
    finetune: TrainConfig = TrainConfig(max_iters=800)
    detect: DetectConfig = DetectConfig()
    eval: EvalConfig = EvalConfig()

    def __post_init__(self) -> None:
        _need(self.dataset.image_side % self.model.feat_stride == 0, "dataset.image_side",
              f"a multiple of model.feat_stride ({self.model.feat_stride})", self.dataset.image_side)
        for name in _FINETUNE_ONLY:
            default = getattr(TrainConfig, name)
            _need(getattr(self.pretrain, name) == default, f"pretrain.{name}",
                  f"{default!r} (only finetune reads it)", getattr(self.pretrain, name))

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


def write_artifact(path: str | Path, *parts) -> None:
    """Write bytes-like parts (a str as UTF-8) to ``<path>.tmp``, made with its
    directory, then move it onto path: path holds its old bytes or all the new."""
    tmp = Path(f"{path}.tmp")
    tmp.parent.mkdir(parents=True, exist_ok=True)
    try:
        with open(tmp, "wb") as fh:
            for part in parts:
                fh.write(part.encode("utf-8") if isinstance(part, str) else part)
        os.replace(tmp, path)
    except BaseException:  # the temporary file goes; path is as it was
        tmp.unlink(missing_ok=True)
        raise


def write_framed(path: str | Path, magic: bytes, version: int, header: dict, *payload) -> str:
    """Write a self-hashing file through write_artifact: magic, version and
    header length (two little-endian uint32), the canonical JSON header, the
    bytes-like payload parts and the SHA-256 of header plus payload, whose hex
    it returns."""
    head = canonical_json(header).encode("utf-8")
    h = hashlib.sha256(head)
    for part in payload:
        h.update(part)
    digest = h.digest()
    write_artifact(path, magic, struct.pack("<II", version, len(head)), head, *payload, digest)
    return digest.hex()


def read_framed(path: str | Path, kind: str, magic: bytes, version: int,
                error: type[Exception], shapes) -> tuple[dict, list[np.ndarray], str]:
    """(header, arrays, digest hex) of a file write_framed wrote: its payload as
    the float64 arrays of the shapes ``shapes(header)`` lists, read-only views of
    the bytes read. A missing or truncated file, a foreign magic, another version,
    a failed hash, an unreadable header or a payload of another length raises
    ``error`` with one line naming ``kind``."""
    try:
        data = memoryview(Path(path).read_bytes())
    except FileNotFoundError as exc:
        raise error(f"{kind} {path} is missing") from exc
    fixed = len(magic) + 8
    if len(data) < fixed + 32:
        raise error(f"{kind} {path} is truncated")
    if data[:len(magic)] != magic:
        raise error(f"{kind} {path} has a foreign magic header")
    found, header_len = struct.unpack_from("<II", data, len(magic))
    if found != version:
        raise error(f"{kind} version {found} unsupported; expected {version}")
    if len(data) < fixed + header_len + 32:
        raise error(f"{kind} {path} is truncated")
    body, want = data[fixed:-32], data[-32:]  # the digest covers header plus payload
    digest = hashlib.sha256(body).digest()
    if digest != want:
        raise error(f"{kind} {path} failed hash verification")
    try:
        header = json.loads(str(body[:header_len], "utf-8"))
        dims = [tuple(map(int, shape)) for shape in shapes(header)]
        if any(n < 0 for shape in dims for n in shape):
            raise ValueError(f"negative array dimension in {dims}")
    except (KeyError, TypeError, ValueError) as exc:  # UnicodeDecodeError and JSONDecodeError too
        raise error(f"{kind} {path} has an unreadable header: {exc!r}") from exc
    sizes = [math.prod(shape) for shape in dims]
    payload = body[header_len:]
    if len(payload) != 8 * sum(sizes):
        raise error(f"{kind} payload is {len(payload)} bytes; expected {8 * sum(sizes)}")
    flat = np.frombuffer(payload, dtype=np.float64)
    return header, [flat[end - n:end].reshape(shape) for shape, n, end
                    in zip(dims, sizes, itertools.accumulate(sizes))], digest.hex()


def override(cfg, data: dict):
    """A new config (or section) like ``cfg`` but with the values of a nested
    mapping, built and checked bottom-up; a list becomes a tuple."""
    return _override(cfg, data, "")


def _override(cfg, data: dict, path: str):
    changes = {}
    for key, value in data.items():
        if key not in {f.name for f in dataclasses.fields(cfg)}:
            raise ConfigError(f"unknown config key {path}{key!r}")
        current = getattr(cfg, key)
        if dataclasses.is_dataclass(current):
            if not isinstance(value, dict):
                raise ConfigError(f"config section {path}{key!r} must be a mapping")
            value = _override(current, value, f"{path}{key}.")
        changes[key] = tuple(value) if isinstance(value, list) else value
    try:
        return dataclasses.replace(cfg, **changes)
    except ConfigError as exc:  # a section names its field; add the path to it
        raise ConfigError(f"{path}{exc}") from None


class _Loader(yaml.SafeLoader):
    """SafeLoader that reads every plain exponent float as a float, as YAML 1.2
    does. YAML 1.1 wants a dot and an exponent sign, so it reads ``1e-5`` or
    ``5e-2`` as a string. Quoted scalars stay strings. A key given twice in one
    mapping is an error, where SafeLoader would keep the last value."""


def _unique_keys(loader: _Loader, node: yaml.MappingNode) -> dict:
    keys = [(loader.construct_object(k, deep=True), k.start_mark.line + 1)
            for k, _ in node.value if k.tag != "tag:yaml.org,2002:merge"]
    for i, (key, line) in enumerate(keys):
        if key in [k for k, _ in keys[:i]]:
            raise ConfigError(f"config key {key!r} given twice, at line {line}")
    return loader.construct_mapping(node, deep=True)


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"))
_Loader.add_constructor(yaml.resolver.BaseResolver.DEFAULT_MAPPING_TAG, _unique_keys)


def load_config(path: str | Path | None) -> ExperimentConfig:
    """Build an ExperimentConfig from defaults overlaid with a YAML file."""
    if path is None:
        return ExperimentConfig()
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = yaml.load(raw, Loader=_Loader)
    except yaml.YAMLError as exc:  # one line: the problem and where it is
        mark = getattr(exc, "problem_mark", None)
        text = (f"{exc.problem}, at line {mark.line + 1}, column {mark.column + 1}" if mark
                else " ".join(str(exc).split()))
        raise ConfigError(f"cannot parse config {path}: {text}") from exc
    if data is not None and not isinstance(data, dict):
        raise ConfigError(f"config root of {path} must be a mapping")
    return override(ExperimentConfig(), data or {})
