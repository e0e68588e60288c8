import json
from pathlib import Path

import numpy as np
import pytest

from oracles import iou_scalar
from retentive import synthgen as G
from retentive.config import MIN_GLYPH, NUM_GLYPHS, DatasetConfig, write_framed
from retentive.errors import ConfigError, CorruptArtifactError, GenerationError, ParameterError


def small_cfg(**kw) -> DatasetConfig:
    base = dict(base_train_images=30, test_images=10, uar_eval_images=10)
    base.update(kw)
    return DatasetConfig(**base)


# ---------------------------------------------------------------------------
# split_classes
# ---------------------------------------------------------------------------

def test_config_bounds_num_classes_by_the_glyph_catalogue():
    """config cannot import synthgen, so it restates the catalogue's size."""
    assert len(G.GLYPH_NAMES) == NUM_GLYPHS


def test_split_counts_and_disjointness():
    split = G.split_classes(12, 4, seed=3)
    assert len(split.base_ids) == 8
    assert len(split.novel_ids) == 4
    assert not set(split.base_ids) & set(split.novel_ids)
    assert sorted(split.base_ids + split.novel_ids) == list(range(12))


def test_split_two_classes():
    split = G.split_classes(2, 1, seed=5)
    assert len(split.base_ids) == 1 and len(split.novel_ids) == 1


def test_split_deterministic():
    assert G.split_classes(12, 4, seed=9) == G.split_classes(12, 4, seed=9)


def test_split_rejects_bad_counts():
    with pytest.raises(ParameterError):
        G.split_classes(12, 0, seed=1)
    with pytest.raises(ParameterError):
        G.split_classes(12, 12, seed=1)


def test_split_logit_ordering():
    """The all-class logit axis is base ids, then novel ids, then background."""
    split = G.split_classes(12, 4, seed=3)
    order = split.base_ids + split.novel_ids
    assert len(split.base_ids) == split.num_base == 8
    assert len(split.novel_ids) == split.num_novel == 4
    assert list(split.base_ids) == sorted(split.base_ids)
    assert list(split.novel_ids) == sorted(split.novel_ids)
    assert sorted(order) == list(range(split.num_classes))


# ---------------------------------------------------------------------------
# glyphs
# ---------------------------------------------------------------------------

def test_glyph_catalogue_has_twelve_distinct_shapes():
    stamps = [G.glyph_stamp(c, 16) for c in range(12)]
    for i in range(12):
        for j in range(i + 1, 12):
            a, b = stamps[i], stamps[j]
            assert a.shape != b.shape or np.any(a != b), (i, j)


def test_glyph_stamps_are_tight():
    for c in range(12):
        for size in (12, 17, 28):
            stamp = G.glyph_stamp(c, size)
            assert stamp.any(axis=1)[0] and stamp.any(axis=1)[-1]
            assert stamp.any(axis=0)[0] and stamp.any(axis=0)[-1]
            assert stamp.min() >= 0.0 and stamp.max() <= 1.0


def test_glyph_stamp_is_drawn_once_and_read_only():
    stamp = G.glyph_stamp(3, 17)
    assert G.glyph_stamp(3, 17) is stamp
    assert not stamp.flags.writeable
    with pytest.raises(ValueError):
        stamp[0, 0] = 0.5
    with pytest.raises(ValueError):
        stamp *= 2.0


def test_memoized_glyph_stamps_equal_fresh_rasters():
    for c in range(len(G.GLYPH_NAMES)):
        for size in range(MIN_GLYPH, 65):
            fresh = G.glyph_stamp.__wrapped__(c, size)
            memo = G.glyph_stamp(c, size)
            assert memo.dtype == fresh.dtype and memo.shape == fresh.shape, (c, size)
            assert np.array_equal(memo, fresh), (c, size)


def test_glyph_rejects_bad_args():
    with pytest.raises(ParameterError):
        G.glyph_stamp(12, 16)
    with pytest.raises(ParameterError):
        G.glyph_stamp(0, 4)


# ---------------------------------------------------------------------------
# render_scene
# ---------------------------------------------------------------------------

def test_empty_scene_is_blank():
    img, rec = G.render_scene(DatasetConfig(), (), seed=1)
    assert img.shape == (64, 64)
    assert np.all(img == 0.0)
    assert rec.boxes.shape == (0, 4)


def test_one_glyph_box_has_its_stamp_shape():
    img, rec = G.render_scene(DatasetConfig(min_glyph=16, max_glyph=16), (0,), seed=1)
    assert rec.boxes.shape == (1, 4)
    x0, y0, x1, y1 = (int(v) for v in rec.boxes[0])
    assert (y1 - y0, x1 - x0) == G.glyph_stamp(0, 16).shape
    assert rec.labels.tolist() == [0]
    # nothing rendered outside the box
    outside = img.copy()
    outside[y0:y1, x0:x1] = 0.0
    assert np.all(outside == 0.0)


def test_render_bitwise_repeatable():
    a_img, a_rec = G.render_scene(DatasetConfig(), (0, 3, 7), seed=42)
    b_img, b_rec = G.render_scene(DatasetConfig(), (0, 3, 7), seed=42)
    assert a_img.tobytes() == b_img.tobytes()
    assert np.array_equal(a_rec.boxes, b_rec.boxes)


def test_render_respects_overlap_cap():
    cfg = DatasetConfig()
    _, rec = G.render_scene(cfg, [c % 12 for c in range(5)], seed=7)
    n = len(rec.labels)
    for i in range(n):
        for j in range(i + 1, n):
            assert iou_scalar(rec.boxes[i], rec.boxes[j]) <= cfg.overlap_iou_cap + 1e-12


def test_render_boxes_inside_image_and_tight():
    img, rec = G.render_scene(DatasetConfig(), range(4), seed=11)
    assert np.all(rec.boxes >= 0.0) and np.all(rec.boxes <= 64.0)
    assert img.min() >= 0.0 and img.max() <= 1.0


def test_unplaceable_scene_raises():
    # ten max-size squares cannot coexist under a tiny overlap cap
    cfg = DatasetConfig(min_glyph=60, max_glyph=60, overlap_iou_cap=0.01, placement_retries=5)
    with pytest.raises(GenerationError):
        G.render_scene(cfg, (1,) * 10, seed=3)


def test_oversized_glyph_raises():
    cfg = DatasetConfig(image_side=32, min_glyph=40, max_glyph=40)
    with pytest.raises(GenerationError):
        G.render_scene(cfg, (1,), seed=3)


# ---------------------------------------------------------------------------
# dataset builders
# ---------------------------------------------------------------------------

def test_base_dataset_annotates_only_base_classes():
    cfg = small_cfg()
    split = G.split_classes(cfg.num_classes, cfg.num_novel, seed=2)
    ds = G.build_base_dataset(cfg, split, seed=2)
    assert len(ds) == 30
    novel = set(split.novel_ids)
    saw_unannotated = False
    for rec in ds.records:
        for lbl, ann in zip(rec.labels, rec.annotated):
            if int(lbl) in novel:
                assert not ann
                saw_unannotated = True
            else:
                assert ann
    assert saw_unannotated


def test_base_dataset_novel_frequency():
    cfg = small_cfg(base_train_images=120)
    split = G.split_classes(cfg.num_classes, cfg.num_novel, seed=4)
    ds = G.build_base_dataset(cfg, split, seed=4)
    total = sum(len(r.labels) for r in ds.records)
    unann = sum(int((~r.annotated).sum()) for r in ds.records)
    assert total > 200
    assert 0.2 < unann / total < 0.4


def test_base_dataset_digest_stable(tmp_path: Path):
    cfg = small_cfg(base_train_images=8)
    split = G.split_classes(cfg.num_classes, cfg.num_novel, seed=6)
    a = G.build_base_dataset(cfg, split, seed=6)
    b = G.build_base_dataset(cfg, split, seed=6)
    assert G.save_dataset(a, tmp_path / "a") == G.save_dataset(b, tmp_path / "b")
    c = G.build_base_dataset(cfg, split, seed=7)
    assert G.save_dataset(a, tmp_path / "a") != G.save_dataset(c, tmp_path / "c")


def test_kshot_one_shot_counts():
    cfg = small_cfg(shots=1)
    split = G.split_classes(12, 4, seed=1)
    ds = G.build_kshot_dataset(cfg, split, seed=1)
    total = sum(len(r.labels) for r in ds.records)
    assert total == 12
    assert all(r.annotated.all() for r in ds.records)


def _label_histogram(ds):
    counts = {}
    for rec in ds.records:
        for lbl in rec.labels:
            counts[int(lbl)] = counts.get(int(lbl), 0) + 1
    return counts


def test_kshot_balance_histogram():
    cfg = small_cfg(shots=5)
    split = G.split_classes(12, 4, seed=8)
    ds = G.build_kshot_dataset(cfg, split, seed=8)
    counts = _label_histogram(ds)
    assert counts == {c: 5 for c in range(12)}


def test_kshot_seed_changes_layout_not_histogram(tmp_path: Path):
    cfg = small_cfg(shots=3)
    split = G.split_classes(12, 4, seed=8)
    a = G.build_kshot_dataset(cfg, split, seed=1)
    b = G.build_kshot_dataset(cfg, split, seed=2)
    assert _label_histogram(a) == _label_histogram(b) == {c: 3 for c in range(12)}
    assert G.save_dataset(a, tmp_path / "a") != G.save_dataset(b, tmp_path / "b")


def test_builders_check_their_dataset_config():
    # a bad section raises when it is built, so no builder is handed one; a
    # section built directly names the field alone (YAML adds "dataset.")
    split = G.split_classes(12, 4, seed=8)
    with pytest.raises(ConfigError, match=r"^placement_retries must be "):
        G.build_base_dataset(DatasetConfig(placement_retries=-1), split, seed=1)
    with pytest.raises(ConfigError, match=r"^noise must be "):
        G.build_test_dataset(small_cfg(noise=float("nan")), split, seed=1)
    with pytest.raises(ConfigError, match=r"^shots must be "):
        G.build_kshot_dataset(small_cfg(shots=0), split, seed=1)


def test_test_dataset_fully_annotated():
    cfg = small_cfg()
    split = G.split_classes(12, 4, seed=3)
    ds = G.build_test_dataset(cfg, split, seed=3)
    assert len(ds) == 10
    assert all(rec.annotated.all() for rec in ds.records)
    labels = {int(l) for rec in ds.records for l in rec.labels}
    assert labels & set(split.novel_ids)


# ---------------------------------------------------------------------------
# on-disk round trip
# ---------------------------------------------------------------------------

def test_dataset_roundtrip(tmp_path: Path):
    cfg = small_cfg(base_train_images=6)
    split = G.split_classes(12, 4, seed=5)
    ds = G.build_base_dataset(cfg, split, seed=5)
    digest = G.save_dataset(ds, tmp_path / "d")
    back = G.load_dataset(tmp_path / "d")
    assert G.save_dataset(back, tmp_path / "again") == digest
    assert back.mode == ds.mode and back.split == ds.split
    for a, b in zip(ds.images, back.images):
        assert a.tobytes() == b.tobytes()
    for ra, rb in zip(ds.records, back.records):
        assert np.array_equal(ra.boxes, rb.boxes)
        assert np.array_equal(ra.labels, rb.labels)
        assert np.array_equal(ra.annotated, rb.annotated)


def test_dataset_load_detects_tamper(tmp_path: Path):
    cfg = small_cfg(base_train_images=3)
    split = G.split_classes(12, 4, seed=5)
    ds = G.build_base_dataset(cfg, split, seed=5)
    G.save_dataset(ds, tmp_path / "d")
    blob = bytearray((tmp_path / "d" / "images.bin").read_bytes())
    blob[-1] ^= 0xFF
    (tmp_path / "d" / "images.bin").write_bytes(bytes(blob))
    with pytest.raises(CorruptArtifactError):
        G.load_dataset(tmp_path / "d")


# images.bin's fixed part: magic, then version and header length as two uint32
FIXED = len(G.IMAGES_MAGIC) + 8


def test_dataset_load_detects_truncation(tmp_path: Path):
    """A cut payload fails the hash, and every images.bin shorter than its
    fixed part and digest, or than its header and digest, is truncated,
    never a struct.error."""
    cfg = small_cfg(base_train_images=3)
    split = G.split_classes(12, 4, seed=5)
    ds = G.build_base_dataset(cfg, split, seed=5)
    G.save_dataset(ds, tmp_path / "d")
    path = tmp_path / "d" / "images.bin"
    blob = path.read_bytes()
    header_len = int.from_bytes(blob[FIXED - 4:FIXED], "little")
    assert G.IMAGES_MAGIC + G.IMAGES_VERSION.to_bytes(4, "little") == blob[:FIXED - 4]
    cuts = {n: "is truncated" for n in [*range(FIXED + 32 + 1), FIXED + header_len + 31]}
    cuts.update({FIXED + header_len + 32: "failed hash verification",
                 len(blob) - 17: "failed hash verification"})
    for n, match in cuts.items():
        path.write_bytes(blob[:n])
        with pytest.raises(CorruptArtifactError, match=match):
            G.load_dataset(tmp_path / "d")


def _label_edit(text: bytes) -> bytes:
    manifest = json.loads(text)
    manifest["items"][0]["labels"][0] = (manifest["items"][0]["labels"][0] + 1) % 12
    return json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()


@pytest.mark.parametrize("edit", [lambda _: b"\xff\xfe{}", lambda _: b"[]",
                                  lambda _: b'{"version": 1}', _label_edit, None],
                         ids=["non-utf8", "list", "no-items", "one-label", "deleted"])
def test_dataset_load_ignores_an_edited_or_deleted_manifest(tmp_path: Path, edit):
    """manifest.json is an export: the dataset and its digest come from
    images.bin alone, bit for bit, whatever manifest.json holds."""
    cfg = small_cfg(base_train_images=3)
    split = G.split_classes(12, 4, seed=5)
    digest = G.save_dataset(G.build_base_dataset(cfg, split, seed=5), tmp_path / "d")
    before = G.load_dataset(tmp_path / "d")
    manifest = tmp_path / "d" / "manifest.json"
    if edit is None:
        manifest.unlink()
    else:
        manifest.write_bytes(edit(manifest.read_bytes()))
    after = G.load_dataset(tmp_path / "d")
    assert G.read_images(tmp_path / "d")[2] == digest
    assert after.manifest_dict() == before.manifest_dict()
    assert [a.tobytes() for a in after.images] == [b.tobytes() for b in before.images]


def _header_and_payload(path: Path) -> tuple[dict, bytes]:
    """The header and payload of a framed file, read without its checks."""
    blob = path.read_bytes()
    header_len = int.from_bytes(blob[FIXED - 4:FIXED], "little")
    return json.loads(blob[FIXED:FIXED + header_len]), blob[FIXED + header_len:-32]


@pytest.mark.parametrize("edit, extra", [
    (lambda h, p: (h, p), 0),
    (lambda h, p: (h, p[:-8]), -8),
    (lambda h, p: (h, p + bytes(8)), 8),
    (lambda h, p: ({**h, "items": h["items"] + h["items"][:1]}, p),
     -8 * small_cfg().image_side ** 2),
], ids=["exact", "one-float-short", "one-float-long", "one-image-more"])
def test_images_payload_length_is_checked_at_every_boundary(tmp_path: Path, edit, extra):
    """A hash-valid images.bin whose payload is one float off the images its
    header lists names both lengths, for the digest and the load alike; the
    exact length reads."""
    cfg = small_cfg(base_train_images=3)
    split = G.split_classes(12, 4, seed=5)
    G.save_dataset(G.build_base_dataset(cfg, split, seed=5), tmp_path / "d")
    path = tmp_path / "d" / "images.bin"
    header, payload = edit(*_header_and_payload(path))
    digest = write_framed(path, G.IMAGES_MAGIC, G.IMAGES_VERSION, header, payload)
    if not extra:
        assert G.read_images(tmp_path / "d")[2] == digest
        assert len(G.load_dataset(tmp_path / "d")) == 3
        return
    for read in (G.read_images, G.load_dataset):
        with pytest.raises(CorruptArtifactError) as err:
            read(tmp_path / "d")
        assert str(err.value) == (f"images payload is {len(payload)} bytes; "
                                  f"expected {len(payload) - extra}")


def test_images_header_of_another_manifest_version_is_refused(tmp_path: Path):
    """The frame's version is its layout and the header's is its schema: a
    hash-valid frame whose header is another schema is not loaded."""
    cfg = small_cfg(base_train_images=3)
    G.save_dataset(G.build_base_dataset(cfg, G.split_classes(12, 4, seed=5), seed=5),
                   tmp_path / "d")
    path = tmp_path / "d" / "images.bin"
    header, payload = _header_and_payload(path)
    digest = write_framed(path, G.IMAGES_MAGIC, G.IMAGES_VERSION,
                          {**header, "version": G.MANIFEST_VERSION + 1}, payload)
    assert G.read_images(tmp_path / "d")[2] == digest
    with pytest.raises(CorruptArtifactError) as err:
        G.load_dataset(tmp_path / "d")
    assert str(err.value) == f"unsupported manifest version {G.MANIFEST_VERSION + 1}"


def test_a_missing_images_bin_is_missing(tmp_path: Path):
    """The dataset is images.bin: without it there is no dataset, whatever
    manifest.json holds, and the one line names the file."""
    cfg = small_cfg(base_train_images=3)
    G.save_dataset(G.build_base_dataset(cfg, G.split_classes(12, 4, seed=5), seed=5),
                   tmp_path / "d")
    path = tmp_path / "d" / "images.bin"
    path.unlink()
    for read in (G.read_images, G.load_dataset):
        with pytest.raises(CorruptArtifactError) as err:
            read(tmp_path / "d")
        assert str(err.value) == f"images {path} is missing"


def test_images_bin_is_framed_with_the_manifest_as_its_header(tmp_path: Path):
    """The frame's header is manifest.json without its digest, and its hash
    is that digest: one digest for the dataset, the frame and the manifest."""
    cfg = small_cfg(base_train_images=3)
    split = G.split_classes(12, 4, seed=5)
    digest = G.save_dataset(G.build_base_dataset(cfg, split, seed=5), tmp_path / "d")
    blob = (tmp_path / "d" / "images.bin").read_bytes()
    manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
    header_len = int.from_bytes(blob[FIXED - 4:FIXED], "little")
    assert manifest.pop("digest") == digest == blob[-32:].hex()
    assert json.loads(blob[FIXED:FIXED + header_len]) == manifest
    assert len(blob) == FIXED + header_len + 3 * 8 * cfg.image_side ** 2 + 32
