"""Seeded micro detection benchmark.

Scenes are 64x64 grayscale rasters of glyphs from a fixed 12-class catalogue.
A seed-driven class split separates abundant ("base") classes from scarce
("novel") ones. Three dataset modes:

  base-train  novel instances drawn but left unannotated
  kshot       exactly k annotated instances of every foreground class
  test        every instance annotated

Every artifact is a pure function of (config, seed); per-image sub-seeds make
parallel and serial generation bitwise identical.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import (MIN_GLYPH, DatasetConfig, canonical_json, read_framed, write_artifact,
                     write_framed)
from .errors import CorruptArtifactError, GenerationError, ParameterError
from .tensorops import iou_matrix, rng, subseed

_TAG_SPLIT = 0x531D
_TAG_IMAGE = 0x1A6E
_TAG_SCENE = 0x5CEE
_TAG_COMPOSE = 0xC0DE

INTENSITY_RANGE = (0.55, 1.0)

IMAGES_MAGIC = b"RRIMG001"
IMAGES_VERSION = 2
MANIFEST_VERSION = 1  # part of the digested manifest: a new value changes every dataset digest

GLYPH_NAMES = (
    "disk", "square", "ring", "cross", "bars", "triangle",
    "diamond", "checker", "ell", "dots", "saltire", "frame",
)


# ---------------------------------------------------------------------------
# class split
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassSplit:
    """Disjoint base/novel partition with a fixed logit ordering.

    Logit axis is [base..., novel..., background]; the mapping never changes
    within a run.
    """

    num_classes: int
    base_ids: tuple[int, ...]
    novel_ids: tuple[int, ...]

    def __post_init__(self):
        if set(self.base_ids) & set(self.novel_ids):
            raise ParameterError("base and novel ids overlap")
        if sorted(self.base_ids + self.novel_ids) != list(range(self.num_classes)):
            raise ParameterError("base and novel ids must cover all foreground classes")

    @property
    def num_base(self) -> int:
        return len(self.base_ids)

    @property
    def num_novel(self) -> int:
        return len(self.novel_ids)

    def to_dict(self) -> dict:
        return {
            "num_classes": self.num_classes,
            "base_ids": list(self.base_ids),
            "novel_ids": list(self.novel_ids),
        }

    @staticmethod
    def from_dict(d: dict) -> "ClassSplit":
        return ClassSplit(int(d["num_classes"]), tuple(d["base_ids"]), tuple(d["novel_ids"]))


def split_classes(num_classes: int, num_novel: int, seed: int) -> ClassSplit:
    """Seed-driven choice of which classes are scarce."""
    if not 0 < num_novel < num_classes:
        raise ParameterError(f"need 0 < num_novel < num_classes, got {num_novel}/{num_classes}")
    gen = rng(seed, _TAG_SPLIT)
    novel = sorted(int(c) for c in gen.choice(num_classes, size=num_novel, replace=False))
    base = sorted(set(range(num_classes)) - set(novel))
    return ClassSplit(num_classes, tuple(base), tuple(novel))


# ---------------------------------------------------------------------------
# glyph catalogue
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def glyph_stamp(class_id: int, size: int) -> np.ndarray:
    """Binary raster of one glyph, evaluated at pixel centers of a (size,
    size) grid and cropped to its occupied rows and columns. Drawn once per
    (class, size) and shared, so the array is read-only; the cache holds one
    raster per class and glyph size drawn (204 for the default config)."""
    if not 0 <= class_id < len(GLYPH_NAMES):
        raise ParameterError(f"unknown glyph class {class_id}")
    if size < MIN_GLYPH:
        raise ParameterError(f"glyph size must be >= {MIN_GLYPH}, got {size}")
    c = (np.arange(size) + 0.5) / size
    u, v = np.meshgrid(c, c, indexing="xy")  # u: column coord, v: row coord
    name = GLYPH_NAMES[class_id]
    r2 = (u - 0.5) ** 2 + (v - 0.5) ** 2
    if name == "disk":
        mask = r2 <= 0.25
    elif name == "square":
        mask = np.ones_like(u, dtype=bool)
    elif name == "ring":
        mask = (r2 <= 0.25) & (r2 >= 0.25 * 0.25)
    elif name == "cross":
        mask = (np.abs(u - 0.5) <= 0.16) | (np.abs(v - 0.5) <= 0.16)
    elif name == "bars":
        mask = (v <= 0.2) | ((v >= 0.4) & (v <= 0.6)) | (v >= 0.8)
    elif name == "triangle":
        mask = v >= np.abs(2.0 * u - 1.0)
    elif name == "diamond":
        mask = np.abs(u - 0.5) + np.abs(v - 0.5) <= 0.5
    elif name == "checker":
        mask = (np.floor(u * 4) + np.floor(v * 4)) % 2 == 0
    elif name == "ell":
        mask = (u <= 0.35) | (v >= 0.65)
    elif name == "dots":
        mask = np.zeros_like(u, dtype=bool)
        for du, dv in ((0.16, 0.16), (0.84, 0.16), (0.16, 0.84), (0.84, 0.84), (0.5, 0.5)):
            mask |= (u - du) ** 2 + (v - dv) ** 2 <= 0.16 ** 2
    elif name == "saltire":
        mask = (np.abs(u - v) <= 0.12) | (np.abs(u + v - 1.0) <= 0.12)
    else:  # frame
        mask = np.minimum(np.minimum(u, 1.0 - u), np.minimum(v, 1.0 - v)) <= 0.12
    stamp = mask.astype(np.float64)
    # crop to the occupied rows/columns so the placement box is always tight
    rows = np.flatnonzero(stamp.any(axis=1))
    cols = np.flatnonzero(stamp.any(axis=0))
    stamp = np.ascontiguousarray(stamp[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1])
    stamp.flags.writeable = False
    return stamp


# ---------------------------------------------------------------------------
# scenes
# ---------------------------------------------------------------------------

@dataclass
class SceneRecord:
    """One scene: its seed and every instance drawn in it, each flagged with
    whether its label is revealed."""

    seed: int
    boxes: np.ndarray      # (M, 4) float64 pixel corners
    labels: np.ndarray     # (M,) int64 foreground class ids
    annotated: np.ndarray  # (M,) bool


def _pairwise_iou_ok(box, others, cap: float) -> bool:
    return not others or bool((iou_matrix(box, others) <= cap).all())


def render_scene(cfg: DatasetConfig, classes, seed: int) -> tuple[np.ndarray, SceneRecord]:
    """Rasterize one glyph per class id, every instance annotated; pure
    function of (cfg, classes, seed). Each glyph draws its size, then its
    intensity, then its placement; the noise is drawn last."""
    gen = rng(seed, _TAG_SCENE)
    side = cfg.image_side
    canvas = np.zeros((side, side))
    boxes: list[tuple[float, float, float, float]] = []
    for class_id in classes:
        size = int(gen.integers(cfg.min_glyph, cfg.max_glyph + 1))
        intensity = float(gen.uniform(*INTENSITY_RANGE))
        stamp = glyph_stamp(class_id, size)
        h, w = stamp.shape
        if h > side or w > side:
            raise GenerationError(f"glyph of size {size} does not fit a {side}px scene")
        for attempt in range(cfg.placement_retries + 1):
            if attempt == cfg.placement_retries:
                raise GenerationError(
                    f"could not place a size-{size} glyph below IoU cap "
                    f"{cfg.overlap_iou_cap} in {cfg.placement_retries} tries"
                )
            x0 = int(gen.integers(0, side - w + 1))
            y0 = int(gen.integers(0, side - h + 1))
            if _pairwise_iou_ok((x0, y0, x0 + w, y0 + h), boxes, cfg.overlap_iou_cap):
                break
        region = canvas[y0:y0 + h, x0:x0 + w]
        np.maximum(region, stamp * intensity, out=region)
        boxes.append((float(x0), float(y0), float(x0 + w), float(y0 + h)))
    if cfg.noise > 0.0:
        canvas = np.clip(canvas + gen.uniform(0.0, cfg.noise, size=canvas.shape), 0.0, 1.0)
    return canvas, SceneRecord(seed=seed,
                               boxes=np.asarray(boxes, dtype=np.float64).reshape(-1, 4),
                               labels=np.asarray(classes, dtype=np.int64),
                               annotated=np.ones(len(boxes), dtype=bool))


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------

@dataclass
class Dataset:
    split: ClassSplit
    mode: str  # base-train | kshot | test
    k: int | None
    seed: int
    side: int
    images: list[np.ndarray]
    records: list[SceneRecord]

    def __len__(self) -> int:
        return len(self.images)

    def manifest_dict(self) -> dict:
        return {
            "version": MANIFEST_VERSION,
            "mode": self.mode,
            "k": self.k,
            "seed": self.seed,
            "side": self.side,
            "split": self.split.to_dict(),
            "items": [
                {
                    "seed": rec.seed,
                    "boxes": [[float(v) for v in row] for row in rec.boxes],
                    "labels": [int(v) for v in rec.labels],
                    "annotated": [bool(v) for v in rec.annotated],
                }
                for rec in self.records
            ],
        }


def _mixed_classes(cfg: DatasetConfig, split: ClassSplit, image_seed: int) -> list[int]:
    """The class ids of one scene, a seed-driven base/novel mix."""
    gen = rng(image_seed, _TAG_COMPOSE)
    count = int(gen.integers(cfg.min_instances, cfg.max_instances + 1))
    classes = []
    for _ in range(count):
        if gen.random() < cfg.novel_frequency:
            classes.append(int(gen.choice(split.novel_ids)))
        else:
            classes.append(int(gen.choice(split.base_ids)))
    return classes


def _dataset(cfg: DatasetConfig, split: ClassSplit, mode: str, k: int | None, seed: int,
             n: int, classes) -> Dataset:
    """n scenes, scene i holding the glyphs classes(i, image_seed) names and
    rendered under its own sub-seed."""
    images, records = [], []
    for i in range(n):
        image_seed = subseed(seed, _TAG_IMAGE, i)
        img, rec = render_scene(cfg, classes(i, image_seed), image_seed)
        images.append(img)
        records.append(rec)
    return Dataset(split=split, mode=mode, k=k, seed=seed,
                   side=cfg.image_side, images=images, records=records)


def build_base_dataset(cfg: DatasetConfig, split: ClassSplit, seed: int,
                       num_images: int | None = None) -> Dataset:
    """Abundant-data stage: novel instances appear but stay unannotated."""
    n = cfg.base_train_images if num_images is None else num_images
    ds = _dataset(cfg, split, "base-train", None, seed, n,
                  lambda _, image_seed: _mixed_classes(cfg, split, image_seed))
    novel = set(split.novel_ids)
    for rec in ds.records:
        rec.annotated = np.asarray([lbl not in novel for lbl in rec.labels], dtype=bool)
    return ds


def build_test_dataset(cfg: DatasetConfig, split: ClassSplit, seed: int) -> Dataset:
    """Held-out scenes with every instance annotated."""
    return _dataset(cfg, split, "test", None, seed, cfg.test_images,
                    lambda _, image_seed: _mixed_classes(cfg, split, image_seed))


def build_kshot_dataset(cfg: DatasetConfig, split: ClassSplit, seed: int) -> Dataset:
    """Balanced adaptation set: exactly cfg.shots annotated instances per class."""
    gen = rng(seed, _TAG_COMPOSE)
    pool = [c for c in split.base_ids + split.novel_ids for _ in range(cfg.shots)]
    order = gen.permutation(len(pool))
    pool = [pool[int(i)] for i in order]
    groups: list[list[int]] = []
    while pool:
        take = int(gen.integers(cfg.min_instances, cfg.max_instances + 1))
        groups.append(pool[:take])
        pool = pool[take:]
    return _dataset(cfg, split, "kshot", cfg.shots, seed, len(groups), lambda i, _: groups[i])


# ---------------------------------------------------------------------------
# on-disk format
# ---------------------------------------------------------------------------

def save_dataset(ds: Dataset, dirpath: str | Path) -> str:
    """Write images.bin, framed with the manifest as its header, then
    manifest.json: the manifest plus the frame's digest, which is the dataset
    digest. Returns it. manifest.json is an export; no module reads it."""
    dirpath = Path(dirpath)
    manifest = ds.manifest_dict()
    digest = write_framed(dirpath / "images.bin", IMAGES_MAGIC, IMAGES_VERSION, manifest,
                          *(np.ascontiguousarray(img, dtype=np.float64) for img in ds.images))
    write_artifact(dirpath / "manifest.json", canonical_json(dict(manifest, digest=digest)))
    return digest


def read_images(dirpath: str | Path) -> tuple[dict, list[np.ndarray], str]:
    """images.bin's verified frame: its manifest, its images and the dataset digest."""
    return read_framed(Path(dirpath) / "images.bin", "images", IMAGES_MAGIC, IMAGES_VERSION,
                       CorruptArtifactError, lambda h: [(h["side"], h["side"])] * len(h["items"]))


def decode_dataset(frame: tuple, dirpath: str | Path) -> Dataset:
    """The dataset of the frame read_images read from dirpath."""
    header, images, _ = frame
    try:
        if header["version"] != MANIFEST_VERSION:
            raise CorruptArtifactError(f"unsupported manifest version {header['version']}")
        records = [SceneRecord(seed=int(item["seed"]),
                               boxes=np.asarray(item["boxes"], dtype=np.float64).reshape(-1, 4),
                               labels=np.asarray(item["labels"], dtype=np.int64),
                               annotated=np.asarray(item["annotated"], dtype=bool))
                   for item in header["items"]]
        return Dataset(split=ClassSplit.from_dict(header["split"]), mode=header["mode"],
                       k=header["k"], seed=int(header["seed"]), side=int(header["side"]),
                       images=[img.copy() for img in images], records=records)
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptArtifactError(f"manifest in {dirpath} is malformed: {exc!r}") from exc


def load_dataset(dirpath: str | Path) -> Dataset:
    """The dataset in images.bin, whose frame header is its manifest."""
    return decode_dataset(read_images(dirpath), dirpath)
