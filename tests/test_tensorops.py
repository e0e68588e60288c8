import ast
import inspect
import json
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    decode_box_scalar,
    encode_box_scalar,
    iou_scalar,
    nms_oracle,
    roi_pool_oracle,
)
from retentive import tensorops as T
from retentive.errors import NumericError, ParameterError


# ---------------------------------------------------------------------------
# BLAS threads
# ---------------------------------------------------------------------------

def _openblas_threads() -> list[int]:
    """Thread count that each OpenBLAS mapped into this process reports."""
    import ctypes
    getters = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
               "openblas_get_num_threads64_", "openblas_get_num_threads")
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {f[5].strip() for f in (line.split(None, 5) for line in maps)
                     if len(f) == 6 and "openblas" in f[5].lower()}
    except OSError:
        return []
    counts = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        name = next((n for n in getters if hasattr(lib, n)), None)
        if name is not None:
            getter = getattr(lib, name)
            getter.argtypes, getter.restype = [], ctypes.c_int
            counts.append(getter())
    return counts


def test_import_after_numpy_pins_openblas_to_one_thread():
    script = inspect.getsource(_openblas_threads) + (
        "import json\nimport numpy\nbefore = _openblas_threads()\n"
        "import retentive\nprint(json.dumps([before, _openblas_threads()]))\n")
    src = str(Path(T.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    before, after = json.loads(done.stdout)
    if not before:
        pytest.skip("numpy here is not linked against OpenBLAS")
    assert after == [1] * len(before)


@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_pool_children_run_openblas_on_one_thread(method):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method here")
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context(method)) as pool:
        counts = pool.submit(_openblas_threads).result(timeout=120)
    if not counts:
        pytest.skip("numpy here is not linked against OpenBLAS")
    assert counts == [1] * len(counts)


# ---------------------------------------------------------------------------
# fixed_featurizer
# ---------------------------------------------------------------------------

def test_featurizer_zero_image_gives_zero_features():
    feats = T.fixed_featurizer(np.zeros((64, 64)), feat_seed=7)
    assert feats.shape == (32, 16, 16)
    assert np.all(feats == 0.0)


def test_featurizer_bitwise_repeatable():
    rng = np.random.default_rng(0)
    img = rng.random((64, 64))
    a = T.fixed_featurizer(img, feat_seed=123)
    b = T.fixed_featurizer(img.copy(), feat_seed=123)
    assert a.tobytes() == b.tobytes()


def test_featurizer_distinct_images_differ():
    img1 = np.zeros((64, 64))
    img1[10:20, 10:20] = 1.0
    img2 = np.zeros((64, 64))
    img2[30:50, 30:50] = 1.0
    a = T.fixed_featurizer(img1, feat_seed=5)
    b = T.fixed_featurizer(img2, feat_seed=5)
    assert np.any(a != b)


def test_featurizer_seed_changes_weights():
    img = np.ones((64, 64))
    a = T.fixed_featurizer(img, feat_seed=1)
    b = T.fixed_featurizer(img, feat_seed=2)
    assert np.any(a != b)


def test_featurizer_rejects_non_finite_image():
    img = np.zeros((64, 64))
    img[10, 20] = np.nan
    with pytest.raises(NumericError):
        T.fixed_featurizer(img, feat_seed=1)


def test_package_has_no_bare_assert():
    """Invariants raise typed errors: ``python -O`` strips assert statements."""
    pkg = Path(T.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(pkg.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_featurizer_rejects_bad_shapes():
    with pytest.raises(ParameterError):
        T.fixed_featurizer(np.zeros((64, 32)), feat_seed=1)
    with pytest.raises(ParameterError):
        T.fixed_featurizer(np.zeros((30, 30)), feat_seed=1)


# ---------------------------------------------------------------------------
# linear_forward
# ---------------------------------------------------------------------------

def test_linear_identity_passthrough():
    x = np.arange(12, dtype=np.float64).reshape(3, 4)
    y = T.linear_forward(x, np.eye(4), np.zeros(4))
    assert np.array_equal(y, x)


def test_linear_zero_input_broadcasts_bias():
    b = np.array([1.0, -2.0, 3.0])
    y = T.linear_forward(np.zeros((5, 7)), np.zeros((3, 7)), b)
    assert np.array_equal(y, np.tile(b, (5, 1)))


def test_linear_matches_scalar_loop_oracle():
    rng = np.random.default_rng(42)
    x = rng.normal(size=(2, 3))
    w = rng.normal(size=(4, 3))
    b = rng.normal(size=4)
    want = np.zeros((2, 4))
    for i in range(2):
        for j in range(4):
            acc = b[j]
            for k in range(3):
                acc += x[i, k] * w[j, k]
            want[i, j] = acc
    got = T.linear_forward(x, w, b)
    assert np.max(np.abs(got - want)) < 1e-12


def test_linear_shape_mismatch():
    with pytest.raises(ParameterError):
        T.linear_forward(np.zeros((2, 3)), np.zeros((4, 5)), np.zeros(4))


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------

def test_softmax_uniform():
    p = T.softmax(np.zeros((2, 5)))
    assert np.allclose(p, 0.2, atol=1e-15)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(4, 6))
    assert np.max(np.abs(T.softmax(z) - T.softmax(z + 100.0))) < 1e-12


def test_softmax_analytic_two_class():
    p = T.softmax(np.array([0.0, np.log(2.0)]))
    assert abs(p[0] - 1.0 / 3.0) < 1e-12
    assert abs(p[1] - 2.0 / 3.0) < 1e-12


def test_softmax_rejects_nan():
    with pytest.raises(NumericError):
        T.softmax(np.array([0.0, np.nan]))


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
@settings(max_examples=50, deadline=None)
def test_softmax_rows_sum_to_one(logits):
    p = T.softmax(np.array(logits))
    assert abs(p.sum() - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# smooth_l1
# ---------------------------------------------------------------------------

def test_smooth_l1_values():
    x = np.array([0.0, 0.5, -2.0, 1.0])
    want = np.array([0.0, 0.125, 1.5, 0.5])
    assert np.allclose(T.smooth_l1(x), want, atol=1e-15)


def test_smooth_l1_grad_matches_finite_difference():
    xs = np.array([-2.0, -0.7, 0.3, 0.99, 1.5])
    h = 1e-7
    num = (T.smooth_l1(xs + h) - T.smooth_l1(xs - h)) / (2 * h)
    assert np.max(np.abs(T.smooth_l1_grad(xs) - num)) < 1e-6


# ---------------------------------------------------------------------------
# iou / nms
# ---------------------------------------------------------------------------

def test_iou_identical_and_disjoint():
    a = (0.0, 0.0, 4.0, 4.0)
    assert T.iou(a, a) == 1.0
    assert T.iou(a, (10.0, 10.0, 12.0, 12.0)) == 0.0


def test_iou_hand_case():
    # overlap 1x1, union 4+4-1=7
    assert abs(T.iou((0, 0, 2, 2), (1, 1, 3, 3)) - 1.0 / 7.0) < 1e-15


def test_iou_zero_union():
    assert T.iou((1, 1, 1, 1), (1, 1, 1, 1)) == 0.0


def test_iou_matrix_agrees_with_scalar():
    rng = np.random.default_rng(11)
    pts = rng.random((6, 2, 2)) * 10
    boxes = np.concatenate([pts.min(axis=1), pts.max(axis=1)], axis=1)
    mat = T.iou_matrix(boxes, boxes)
    for i in range(6):
        for j in range(6):
            assert abs(mat[i, j] - T.iou(boxes[i], boxes[j])) < 1e-12


@st.composite
def grid_box_sets(draw):
    """Two box sets on a small integer grid: zero-area boxes, boxes shared
    between the sets and repeated within a set all occur."""
    corner = st.tuples(st.integers(0, 20), st.integers(0, 20))
    size = st.tuples(st.integers(0, 8), st.integers(0, 8))
    box = st.tuples(corner, size).map(lambda cs: (cs[0][0], cs[0][1],
                                                  cs[0][0] + cs[1][0], cs[0][1] + cs[1][1]))
    a = draw(st.lists(box, max_size=12))
    b = draw(st.lists(box, max_size=12))
    if a and b:
        for dst, src in draw(st.lists(st.tuples(st.integers(0, len(b) - 1),
                                                st.integers(0, len(a) - 1)), max_size=len(b))):
            b[dst] = a[src]
    as_array = lambda boxes: np.array(boxes, dtype=np.float64).reshape(-1, 4)  # noqa: E731
    return as_array(a), as_array(b)


@settings(deadline=None)
@given(grid_box_sets())
def test_iou_matrix_matches_scalar_oracle(pair):
    a, b = pair
    got = T.iou_matrix(a, b)
    want = np.array([[iou_scalar(x, y) for y in b] for x in a],
                    dtype=np.float64).reshape(len(a), len(b))
    assert got.shape == want.shape
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def test_nms_single_box():
    kept = T.nms(np.array([[0, 0, 4, 4.0]]), np.array([0.5]), 0.5)
    assert kept.tolist() == [0]


def test_nms_duplicate_boxes():
    boxes = np.array([[0, 0, 4, 4.0], [0, 0, 4, 4.0]])
    kept = T.nms(boxes, np.array([0.8, 0.9]), 0.5)
    assert kept.tolist() == [1]


def test_nms_tie_break_lower_index():
    boxes = np.array([[0, 0, 4, 4.0], [0, 0, 4, 4.0], [20, 20, 24, 24.0]])
    kept = T.nms(boxes, np.array([0.7, 0.7, 0.7]), 0.5)
    assert kept.tolist() == [0, 2]


def test_nms_matches_oracle_random():
    rng = np.random.default_rng(99)
    for trial in range(200):
        n = int(rng.integers(1, 11))
        pts = rng.random((n, 2, 2)) * 20
        boxes = np.concatenate([pts.min(axis=1), pts.max(axis=1)], axis=1)
        scores = np.round(rng.random(n), 2)  # rounding forces occasional ties
        thresh = float(rng.choice([0.2, 0.5, 0.7]))
        got = T.nms(boxes, scores, thresh).tolist()
        assert got == nms_oracle(boxes, scores, thresh), f"trial {trial}"


@st.composite
def nms_problems(draw):
    """Up to 300 boxes on a coarse integer grid, so zero-area boxes, duplicate
    boxes and tied scores all occur and the ranked boxes span several blocks."""
    n = draw(st.integers(0, 300))
    corner = st.tuples(st.integers(0, 60), st.integers(0, 60))
    size = st.tuples(st.integers(0, 12), st.integers(0, 12))
    raw = draw(st.lists(st.tuples(corner, size), min_size=n, max_size=n))
    if n:
        for dst, src in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                      max_size=n // 2)):
            raw[dst] = raw[src]
    boxes = np.array([(x, y, x + w, y + h) for (x, y), (w, h) in raw], dtype=np.float64).reshape(-1, 4)
    score = st.sampled_from([0.1, 0.5, 0.9]) | st.floats(0.0, 1.0)
    scores = np.array(draw(st.lists(score, min_size=n, max_size=n)), dtype=np.float64)
    thresh = draw(st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0]))
    max_keep = draw(st.none() | st.integers(0, n))
    return boxes, scores, thresh, max_keep


@settings(deadline=None)
@given(nms_problems())
def test_nms_max_keep_is_prefix_of_oracle(problem):
    boxes, scores, thresh, max_keep = problem
    got = T.nms(boxes, scores, thresh, max_keep=max_keep)
    assert got.dtype == np.int64
    assert got.tolist() == nms_oracle(boxes, scores, thresh)[:max_keep]


def test_nms_rejects_negative_max_keep():
    with pytest.raises(ParameterError):
        T.nms(np.zeros((1, 4)), np.zeros(1), 0.5, max_keep=-1)


def test_nms_output_sorted_by_score_desc():
    rng = np.random.default_rng(5)
    pts = rng.random((8, 2, 2)) * 30
    boxes = np.concatenate([pts.min(axis=1), pts.max(axis=1)], axis=1)
    scores = rng.random(8)
    kept = T.nms(boxes, scores, 0.5)
    assert np.all(np.diff(scores[kept]) <= 0)


# ---------------------------------------------------------------------------
# box codec
# ---------------------------------------------------------------------------

def test_codec_box_equals_anchor():
    anchor = np.array([[0, 0, 16, 16.0]])
    deltas = T.encode_boxes(anchor, anchor)
    assert np.allclose(deltas, 0.0, atol=1e-15)


def test_codec_hand_case():
    anchor = np.array([[0, 0, 16, 16.0]])
    box = np.array([[4, 4, 20, 20.0]])
    deltas = T.encode_boxes(box, anchor)
    assert np.allclose(deltas[0], [0.25, 0.25, 0.0, 0.0], atol=1e-12)


def test_codec_roundtrip_random():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        ax, ay = rng.random(2) * 40
        aw, ah = 2 + rng.random(2) * 30
        anchor = np.array([[ax, ay, ax + aw, ay + ah]])
        bx, by = rng.random(2) * 40
        bw, bh = 1 + rng.random(2) * 20
        box = np.array([[bx, by, bx + bw, by + bh]])
        back = T.decode_boxes(T.encode_boxes(box, anchor), anchor)
        assert np.max(np.abs(back - box)) < 1e-9


@st.composite
def codec_problems(draw):
    """Anchors and boxes of positive size, delta rows, and an optional clip side."""
    n = draw(st.integers(1, 12))
    coord, size = st.floats(-50.0, 150.0), st.floats(0.25, 120.0)

    def boxes():
        rows = draw(st.lists(st.tuples(coord, coord, size, size), min_size=n, max_size=n))
        return np.array([[x, y, x + w, y + h] for x, y, w, h in rows])

    anchors, targets = boxes(), boxes()
    shift, log_size = st.floats(-3.0, 3.0), st.floats(-4.0, 4.0)
    deltas = np.array(draw(st.lists(st.tuples(shift, shift, log_size, log_size),
                                    min_size=n, max_size=n)))
    side = draw(st.none() | st.floats(1.0, 128.0))
    return anchors, targets, deltas, side


@settings(deadline=None)
@given(codec_problems())
def test_box_codec_matches_scalar_oracle(problem):
    # numpy's and libm's log/exp may differ by an ulp, so agreement is to a few
    # ulps: relative for the deltas, relative to the largest coordinate for boxes
    anchors, targets, deltas, side = problem
    eps = np.finfo(np.float64).eps
    want = [encode_box_scalar(b, a) for b, a in zip(targets, anchors)]
    np.testing.assert_allclose(T.encode_boxes(targets, anchors), want, rtol=4 * eps, atol=0)
    want = [decode_box_scalar(d, a, side) for d, a in zip(deltas, anchors)]
    scale = 1.0 + max(abs(v) for d, a in zip(deltas, anchors) for v in decode_box_scalar(d, a))
    got = T.decode_boxes(deltas, anchors, side=side)
    np.testing.assert_allclose(got, want, rtol=0, atol=8 * eps * scale)
    if side is not None:
        assert np.all((got >= 0.0) & (got <= side))


def test_codec_degenerate_anchor():
    with pytest.raises(ParameterError):
        T.encode_boxes(np.array([[0, 0, 4, 4.0]]), np.array([[2, 2, 2, 6.0]]))
    with pytest.raises(ParameterError):
        T.decode_boxes(np.zeros((1, 4)), np.array([[2, 2, 2, 6.0]]))


def test_decode_clips_to_bounds():
    anchor = np.array([[0, 0, 16, 16.0]])
    deltas = np.array([[0.0, 0.0, 2.0, 2.0]])  # blows the box up well past the image
    box = T.decode_boxes(deltas, anchor, side=64.0)
    assert np.all(box >= 0.0) and np.all(box <= 64.0)


# ---------------------------------------------------------------------------
# roi_pool
# ---------------------------------------------------------------------------

def test_roi_pool_constant_map():
    feat = np.full((2, 16, 16), 3.5)
    out = T.roi_pool(feat, [(5.0, 5.0, 40.0, 40.0)], bins=3, stride=4.0)
    assert out.shape == (1, 18)
    assert np.allclose(out, 3.5, atol=1e-15)


def test_roi_pool_full_map_single_bin():
    rng = np.random.default_rng(2)
    feat = rng.random((4, 16, 16))
    out = T.roi_pool(feat, [(0.0, 0.0, 64.0, 64.0)], bins=1, stride=4.0)
    assert np.allclose(out[0], feat.mean(axis=(1, 2)), atol=1e-12)


def test_roi_pool_hand_case():
    # 4x4 single-channel map; box covers feature cells [0:2, 0:2] with 2x2 bins
    feat = np.arange(16, dtype=np.float64).reshape(1, 4, 4)
    out = T.roi_pool(feat, [(0.0, 0.0, 2.0, 2.0)], bins=2, stride=1.0)
    # one cell per bin: values 0, 1, 4, 5
    assert np.allclose(out[0], [0.0, 1.0, 4.0, 5.0], atol=1e-15)


def test_roi_pool_subcell_box_clamps():
    feat = np.arange(16, dtype=np.float64).reshape(1, 4, 4)
    out = T.roi_pool(feat, [(4.1, 4.2, 4.3, 4.4)], bins=1, stride=4.0)
    assert out.shape == (1, 1)
    assert out[0, 0] == feat[0, 1, 1]


def test_roi_pool_rejects_outside_box():
    feat = np.zeros((1, 4, 4))
    with pytest.raises(ParameterError):
        T.roi_pool(feat, [(100.0, 100.0, 120.0, 120.0)], bins=2, stride=4.0)
    with pytest.raises(ParameterError):
        T.roi_pool(feat, [(8.0, 8.0, 8.0, 8.0)], bins=2, stride=4.0)


def test_roi_pool_error_names_first_bad_row():
    feat = np.zeros((1, 4, 4))
    boxes = [(0.0, 0.0, 8.0, 8.0), (100.0, 100.0, 120.0, 120.0), (8.0, 8.0, 8.0, 8.0)]
    with pytest.raises(ParameterError, match=r"row 1 \(100\.0, 100\.0, 120\.0, 120\.0\)"):
        T.roi_pool(feat, boxes, bins=2, stride=4.0)
    with pytest.raises(ParameterError, match=r"row 0 \(0\.0, 0\.0, 8\.0, nan\)"):
        T.roi_pool(feat, [(0.0, 0.0, 8.0, np.nan)], bins=2, stride=4.0)
    with pytest.raises(ParameterError, match="row 2"):
        T.roi_pool(feat, boxes[:1] * 2 + [(-np.inf, 0.0, 8.0, 8.0)], bins=2, stride=4.0)


@pytest.mark.parametrize("bins", [0, -1])
def test_roi_pool_rejects_bad_bins(bins):
    with pytest.raises(ParameterError):
        T.roi_pool(np.ones((1, 4, 4)), [(0.0, 0.0, 8.0, 8.0)], bins=bins, stride=4.0)


def test_roi_pool_zero_boxes():
    out = T.roi_pool(np.ones((3, 4, 4)), np.zeros((0, 4)), bins=2, stride=4.0)
    assert out.shape == (0, 12) and out.dtype == np.float64


def test_roi_pool_scalar_loop_oracle():
    rng = np.random.default_rng(8)
    feat = rng.random((3, 16, 16))
    box = (6.0, 3.0, 47.0, 52.0)
    got = T.roi_pool(feat, [box], bins=3, stride=4.0)[0].reshape(3, 3, 3)
    # independent scalar recomputation
    x1, y1, x2, y2 = (v / 4.0 for v in box)
    cx1, cy1 = int(np.floor(x1)), int(np.floor(y1))
    cx2, cy2 = int(np.ceil(x2)), int(np.ceil(y2))
    for by in range(3):
        ys = cy1 + (by * (cy2 - cy1)) // 3
        ye = cy1 + int(np.ceil((by + 1) * (cy2 - cy1) / 3))
        for bx in range(3):
            xs = cx1 + (bx * (cx2 - cx1)) // 3
            xe = cx1 + int(np.ceil((bx + 1) * (cx2 - cx1) / 3))
            for ch in range(3):
                vals = [feat[ch, yy, xx] for yy in range(ys, ye) for xx in range(xs, xe)]
                assert abs(got[ch, by, bx] - sum(vals) / len(vals)) < 1e-12


def _spread_features(seed: int, shape) -> np.ndarray:
    """Values over twelve decades, so a changed summation order changes bits."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape) * 10.0 ** rng.uniform(-6.0, 6.0, size=shape)


def _assert_roi_pool_matches_oracle(feat, boxes, bins, stride):
    got = T.roi_pool(feat, boxes, bins=bins, stride=stride)
    want = np.stack([roi_pool_oracle(feat, box, bins, stride) for box in boxes])
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@st.composite
def roi_pool_problems(draw):
    """Feature maps up to 4x16x16 with boxes that are sub-cell, partly outside or cover it."""
    c, fh, fw = draw(st.integers(1, 4)), draw(st.integers(1, 16)), draw(st.integers(1, 16))
    stride = draw(st.sampled_from([1.0, 2.5, 4.0]))
    bins = draw(st.integers(1, 5))

    def span(kind, cells):
        extent = cells * stride
        if kind == "sub-cell":
            cell = draw(st.integers(0, cells - 1))
            a = draw(st.floats(0.0, 0.9))
            return (cell + a) * stride, (cell + a + draw(st.floats(0.01, 0.1))) * stride
        if kind == "whole":
            return draw(st.floats(-extent, 0.0)), draw(st.floats(extent, 2 * extent))
        lo = draw(st.floats(-extent, extent - 0.01 * stride))
        return lo, max(lo, 0.0) + draw(st.floats(0.01 * stride, 2 * extent))

    boxes = []
    for kind in draw(st.lists(st.sampled_from(["sub-cell", "whole", "any"]), min_size=1,
                              max_size=12)):
        x1, x2 = span(kind, fw)
        y1, y2 = span(kind, fh)
        boxes.append((x1, y1, x2, y2))
    return _spread_features(draw(st.integers(0, 2**32 - 1)), (c, fh, fw)), boxes, bins, stride


@settings(deadline=None)
@given(roi_pool_problems())
def test_roi_pool_bitwise_matches_oracle(problem):
    _assert_roi_pool_matches_oracle(*problem)


@pytest.mark.parametrize("bins", [1, 2, 3])
def test_roi_pool_bitwise_matches_oracle_on_large_windows(bins):
    # windows of 256, 144 and 135 cells at bins=1: numpy's pairwise sum recurses past 128
    feat = _spread_features(bins, (3, 16, 16))
    boxes = [(-3.0, -3.0, 70.0, 70.0), (8.0, 4.0, 56.0, 52.0), (0.0, 0.0, 60.0, 36.0),
             (1.0, 2.0, 3.0, 4.0)]
    _assert_roi_pool_matches_oracle(feat, boxes, bins, 4.0)


# ---------------------------------------------------------------------------
# anchors
# ---------------------------------------------------------------------------

def test_anchor_single_cell():
    grid = T.generate_anchors(1, 1, stride=4.0, scales=(8.0,))
    assert len(grid) == 1
    assert np.allclose(grid.boxes[0], [-2.0, -2.0, 6.0, 6.0], atol=1e-15)


def test_anchor_count_and_ordering():
    grid = T.generate_anchors(16, 16, stride=4.0, scales=(8.0, 16.0, 32.0))
    assert len(grid) == 768
    # index = cell * 3 + scale; check a specific interior anchor
    cell = 5 * 16 + 7  # row 5, col 7
    idx = cell * 3 + 2
    cx, cy = (7 + 0.5) * 4.0, (5 + 0.5) * 4.0
    assert np.allclose(grid.boxes[idx], [cx - 16, cy - 16, cx + 16, cy + 16], atol=1e-15)
    assert grid.scale_index()[idx] == 2
    assert grid.cell_index()[idx] == cell


def test_anchor_centers_follow_cells():
    grid = T.generate_anchors(2, 3, stride=4.0, scales=(8.0, 16.0))
    centers = grid.centers()
    assert centers.shape == (12, 2)
    assert np.allclose(centers[0], [2.0, 2.0], atol=1e-15)
    assert np.allclose(centers[-1], [10.0, 6.0], atol=1e-15)


def test_anchor_rejects_bad_dims():
    with pytest.raises(ParameterError):
        T.generate_anchors(0, 4, stride=4.0, scales=(8.0,))


# ---------------------------------------------------------------------------
# cosine_logits
# ---------------------------------------------------------------------------

def test_cosine_parallel_gives_scale():
    f = np.array([[1.0, 2.0, 3.0]])
    w = np.array([[2.0, 4.0, 6.0]])
    z = T.cosine_logits(f, w, scale=20.0)
    assert abs(z[0, 0] - 20.0) < 1e-9


def test_cosine_orthogonal_gives_zero():
    f = np.array([[1.0, 0.0]])
    w = np.array([[0.0, 5.0]])
    z = T.cosine_logits(f, w, scale=20.0)
    assert abs(z[0, 0]) < 1e-12


def test_cosine_norm_invariance():
    rng = np.random.default_rng(4)
    f = rng.normal(size=(5, 8))
    w = rng.normal(size=(3, 8))
    a = T.cosine_logits(f, w, scale=20.0)
    b = T.cosine_logits(10.0 * f, w, scale=20.0)
    assert np.max(np.abs(a - b)) < 1e-9
    assert np.array_equal(np.argmax(a, axis=1), np.argmax(b, axis=1))


def test_cosine_zero_row_is_finite():
    z = T.cosine_logits(np.zeros((1, 4)), np.ones((2, 4)), scale=20.0)
    assert np.all(np.isfinite(z))
    assert np.allclose(z, 0.0, atol=1e-12)
