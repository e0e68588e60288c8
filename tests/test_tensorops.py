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
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from oracles import (
    conv3x3_oracle,
    decode_box_scalar,
    encode_box_scalar,
    grouped_nms_oracle,
    iou_scalar,
    matrix_nms_oracle,
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
    feats = T.fixed_featurizer(np.zeros((64, 64)), feat_seed=7, channels=32)
    assert np.moveaxis(feats, -1, 0).shape == (32, 16, 16)
    assert np.all(feats == 0.0)


def test_featurizer_bitwise_repeatable():
    rng = np.random.default_rng(0)
    img = rng.random((64, 64))
    a = T.fixed_featurizer(img, feat_seed=123, channels=32)
    b = T.fixed_featurizer(img.copy(), feat_seed=123, channels=32)
    assert a.tobytes() == b.tobytes()


def test_featurizer_distinct_images_differ():
    img1 = np.zeros((64, 64))
    img1[10:20, 10:20] = 1.0
    img2 = np.zeros((64, 64))
    img2[30:50, 30:50] = 1.0
    a = T.fixed_featurizer(img1, feat_seed=5, channels=32)
    b = T.fixed_featurizer(img2, feat_seed=5, channels=32)
    assert np.any(a != b)


def test_featurizer_seed_changes_weights():
    img = np.ones((64, 64))
    a = T.fixed_featurizer(img, feat_seed=1, channels=32)
    b = T.fixed_featurizer(img, feat_seed=2, channels=32)
    assert np.any(a != b)


def test_featurizer_rejects_non_finite_image():
    img = np.zeros((64, 64))
    img[10, 20] = np.nan
    with pytest.raises(NumericError):
        T.fixed_featurizer(img, feat_seed=1, channels=32)


def test_package_has_no_bare_assert():
    """Invariants raise typed errors: ``python -O`` strips assert statements."""
    pkg = Path(T.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(pkg.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def _seed_sequence_uses(node) -> int:
    return sum(isinstance(n, ast.Attribute) and n.attr == "SeedSequence"
               or isinstance(n, ast.Name) and n.id == "SeedSequence"
               or isinstance(n, ast.alias) and n.name == "SeedSequence"
               for n in ast.walk(node))


def test_seed_sequence_is_built_in_one_function():
    """Every seeded draw in the package derives its entropy from one helper."""
    pkg = Path(T.__file__).parent
    funcs, outside = [], 0
    for path in sorted(pkg.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defs = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
                and _seed_sequence_uses(n)]
        funcs += [f"{path.name}:{fn.name}" for fn in defs]
        outside += _seed_sequence_uses(tree) - sum(_seed_sequence_uses(fn) for fn in defs)
    assert funcs == ["tensorops.py:_seed_sequence"]
    assert outside == 0


def test_seed_keys_outside_64_bits_are_refused_not_aliased():
    """Taken mod 2**64, seed -1 drew as 2**64 - 1 and 2**64 as 0: two names
    for one draw. A key outside [0, 2**64) is refused, and the keys named."""
    from retentive.synthgen import split_classes
    with pytest.raises(ParameterError, match=r"in \[0, 2\*\*64\), got \[-1, 21277\]"):
        split_classes(12, 4, -1)  # 21277 is synthgen's split tag, 0x531D
    with pytest.raises(ParameterError, match=r"got \[18446744073709551616, 7\]"):
        T.subseed(2 ** 64, 7)
    with pytest.raises(ParameterError, match=r"got \[7, -1\]"):
        T.rng(7, -1)


def test_seed_keys_at_the_64_bit_edges_still_draw():
    """In-range keys build the SeedSequence they always built."""
    from retentive.synthgen import split_classes
    top = 2 ** 64 - 1
    assert T.subseed(top, 7) == int(np.random.SeedSequence([top, 7]).generate_state(
        1, dtype=np.uint64)[0])
    assert T.subseed(np.uint64(top), 7) == T.subseed(top, 7) != T.subseed(0, 7)
    gen = np.random.default_rng(np.random.SeedSequence([top, 0x531D]))  # the split tag
    assert split_classes(12, 4, top).novel_ids == tuple(
        sorted(int(c) for c in gen.choice(12, size=4, replace=False)))


def test_featurizer_rejects_bad_shapes():
    with pytest.raises(ParameterError):
        T.fixed_featurizer(np.zeros((64, 32)), feat_seed=1, channels=32)
    with pytest.raises(ParameterError):
        T.fixed_featurizer(np.zeros((30, 30)), feat_seed=1, channels=32)


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
    assert T.iou_matrix(a, a).shape == (1, 1)
    assert T.iou_matrix(a, a)[0, 0] == 1.0
    assert T.iou_matrix(a, (10.0, 10.0, 12.0, 12.0))[0, 0] == 0.0


def test_iou_hand_case():
    # overlap 1x1, union 4+4-1=7
    assert abs(T.iou_matrix((0, 0, 2, 2), (1, 1, 3, 3))[0, 0] - 1.0 / 7.0) < 1e-15


def test_iou_zero_union():
    assert T.iou_matrix((1, 1, 1, 1), (1, 1, 1, 1))[0, 0] == 0.0


def test_iou_matrix_agrees_with_scalar():
    rng = np.random.default_rng(11)
    pts = rng.random((6, 2, 2)) * 10
    boxes = np.concatenate([pts.min(axis=1), pts.max(axis=1)], axis=1)
    mat = T.iou_matrix(boxes, boxes)
    for i in range(6):
        for j in range(6):
            # bitwise, which nms's block size independence relies on
            assert mat[i, j] == T.iou_matrix(boxes[i], boxes[j])[0, 0]


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
    kept = T.nms(np.array([[0, 0, 4, 4.0]]), np.array([0.5]), 0.5, max_keep=1)
    assert kept.tolist() == [0]


def test_nms_duplicate_boxes():
    boxes = np.array([[0, 0, 4, 4.0], [0, 0, 4, 4.0]])
    kept = T.nms(boxes, np.array([0.8, 0.9]), 0.5, max_keep=len(boxes))
    assert kept.tolist() == [1]


def test_nms_tie_break_lower_index():
    boxes = np.array([[0, 0, 4, 4.0], [0, 0, 4, 4.0], [20, 20, 24, 24.0]])
    kept = T.nms(boxes, np.array([0.7, 0.7, 0.7]), 0.5, max_keep=len(boxes))
    assert kept.tolist() == [0, 2]


def test_nms_suppresses_only_above_the_threshold():
    # (0,0,10,10) against (0,0,10,20) overlaps by exactly 100 / 200 = 0.5
    boxes = np.array([[0.0, 0.0, 10.0, 20.0], [0.0, 0.0, 10.0, 10.0]])
    assert T.iou_matrix(boxes[:1], boxes[1:])[0, 0] == 0.5
    assert T.nms(boxes, np.array([0.9, 0.8]), 0.5, max_keep=2).tolist() == [0, 1]
    assert T.nms(boxes, np.array([0.9, 0.8]), 0.4999, max_keep=2).tolist() == [0]
    # zero-area boxes overlap by 0, so they suppress nothing even at threshold 0
    flat = np.array([[3.0, 3.0, 3.0, 3.0], [3.0, 3.0, 3.0, 3.0], [3.0, 1.0, 3.0, 5.0]])
    assert T.iou_matrix(flat, flat).tolist() == [[0.0] * 3] * 3
    assert T.nms(flat, np.array([0.9, 0.8, 0.7]), 0.0, max_keep=3).tolist() == [0, 1, 2]


def test_nms_matches_oracle_random():
    rng = np.random.default_rng(99)
    for trial in range(200):
        n = int(rng.integers(1, 11))
        pts = rng.random((n, 2, 2)) * 20
        boxes = np.concatenate([pts.min(axis=1), pts.max(axis=1)], axis=1)
        scores = np.round(rng.random(n), 2)  # rounding forces occasional ties
        thresh = float(rng.choice([0.2, 0.5, 0.7]))
        got = T.nms(boxes, scores, thresh, max_keep=len(boxes)).tolist()
        assert got == nms_oracle(boxes, scores, thresh), f"trial {trial}"


def test_matrix_nms_oracle_matches_list_oracles():
    """The fast oracle the Hypothesis tests use agrees with the list oracles on
    small problems with zero-area boxes, duplicates, ties and both extreme
    thresholds."""
    rng = np.random.default_rng(17)
    for trial in range(300):
        n = int(rng.integers(0, 13))
        corner = rng.integers(0, 16, size=(n, 2))
        boxes = np.hstack([corner, corner + rng.integers(0, 8, size=(n, 2))]).astype(np.float64)
        if n > 1:
            boxes[rng.integers(0, n)] = boxes[rng.integers(0, n)]
        scores = rng.choice([0.1, 0.5, 0.9], size=n)
        thresh = float(rng.choice([0.0, 0.3, 0.5, 0.7, 1.0]))
        groups = rng.integers(0, 3, size=n).tolist()
        assert matrix_nms_oracle(boxes, scores, thresh) == nms_oracle(boxes, scores, thresh), trial
        assert matrix_nms_oracle(boxes, scores, thresh, groups) == \
            grouped_nms_oracle(boxes, scores, thresh, groups), trial


# Shrinking a failing nms_problems example (about 600 choices) took minutes
# per failure, so the first failing example is reported as drawn.
UNSHRUNK = tuple(p for p in Phase if p is not Phase.shrink)


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
    max_keep = draw(st.just(n) | st.integers(0, n))  # n keeps every box NMS would
    return boxes, scores, thresh, max_keep


@settings(deadline=None, phases=UNSHRUNK)
@given(nms_problems())
def test_nms_max_keep_is_prefix_of_oracle(problem):
    boxes, scores, thresh, max_keep = problem
    got = T.nms(boxes, scores, thresh, max_keep=max_keep)
    assert got.dtype == np.int64
    assert got.tolist() == matrix_nms_oracle(boxes, scores, thresh)[:max_keep]


@settings(deadline=None, max_examples=50, phases=UNSHRUNK)
@given(nms_problems())
def test_nms_result_does_not_depend_on_block_size(problem):
    boxes, scores, thresh, max_keep = problem
    results = []
    for block in (1, 3, 64, 300):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(T, "NMS_BLOCK", block)
            results.append(T.nms(boxes, scores, thresh, max_keep=max_keep).tolist())
    assert all(r == results[0] for r in results)
    assert results[0] == matrix_nms_oracle(boxes, scores, thresh)[:max_keep]


@settings(deadline=None, max_examples=50, phases=UNSHRUNK)
@given(nms_problems(), st.data())
def test_nms_groups_match_per_group_oracle(problem, data):
    boxes, scores, thresh, max_keep = problem
    groups = data.draw(st.lists(st.integers(0, 3), min_size=len(scores), max_size=len(scores)))
    got = T.nms(boxes, scores, thresh, max_keep=max_keep, groups=np.asarray(groups))
    assert got.tolist() == matrix_nms_oracle(boxes, scores, thresh, groups)[:max_keep]


def test_nms_rejects_misshapen_groups():
    with pytest.raises(ParameterError):
        T.nms(np.zeros((3, 4)), np.zeros(3), 0.5, max_keep=3, groups=np.zeros(2))


@settings(deadline=None, max_examples=50, phases=UNSHRUNK)
@given(nms_problems())
def test_iou_matrix_is_bitwise_symmetric(problem):
    boxes = problem[0]
    a, b = boxes[:len(boxes) // 3], boxes[len(boxes) // 3:]
    assert T.iou_matrix(a, b).tobytes() == np.ascontiguousarray(T.iou_matrix(b, a).T).tobytes()


def test_nms_rejects_negative_max_keep():
    with pytest.raises(ParameterError):
        T.nms(np.zeros((1, 4)), np.zeros(1), 0.5, max_keep=-1)


def test_nms_output_sorted_by_score_desc():
    rng = np.random.default_rng(5)
    pts = rng.random((8, 2, 2)) * 30
    boxes = np.concatenate([pts.min(axis=1), pts.max(axis=1)], axis=1)
    scores = rng.random(8)
    kept = T.nms(boxes, scores, 0.5, max_keep=len(boxes))
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
        back = T.decode_boxes(T.encode_boxes(box, anchor), anchor, side=64.0)
        assert np.max(np.abs(back - box)) < 1e-9


@st.composite
def codec_problems(draw):
    """Anchors and boxes of positive size, delta rows, and a clip side."""
    n = draw(st.integers(1, 12))
    coord, size = st.floats(-50.0, 150.0), st.floats(0.25, 120.0)

    def boxes():
        rows = draw(st.lists(st.tuples(coord, coord, size, size), min_size=n, max_size=n))
        return np.array([[x, y, x + w, y + h] for x, y, w, h in rows])

    anchors, targets = boxes(), boxes()
    shift, log_size = st.floats(-3.0, 3.0), st.floats(-4.0, 4.0)
    deltas = np.array(draw(st.lists(st.tuples(shift, shift, log_size, log_size),
                                    min_size=n, max_size=n)))
    side = draw(st.floats(1.0, 128.0))
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
    assert np.all((got >= 0.0) & (got <= side))


def test_codec_degenerate_anchor():
    with pytest.raises(ParameterError):
        T.encode_boxes(np.array([[0, 0, 4, 4.0]]), np.array([[2, 2, 2, 6.0]]))
    with pytest.raises(ParameterError):
        T.decode_boxes(np.zeros((1, 4)), np.array([[2, 2, 2, 6.0]]), side=64.0)


def test_decode_clips_to_bounds():
    anchor = np.array([[0, 0, 16, 16.0]])
    deltas = np.array([[0.0, 0.0, 2.0, 2.0]])  # blows the box up well past the image
    box = T.decode_boxes(deltas, anchor, side=64.0)
    assert np.all(box >= 0.0) and np.all(box <= 64.0)


# ---------------------------------------------------------------------------
# conv3x3
# ---------------------------------------------------------------------------

def _hwc(feat):
    """A (C,H,W) map or (B,C,H,W) stack channels-last, as the package holds maps."""
    return np.moveaxis(feat, -3, -1)


@pytest.mark.parametrize("cin,cout,side", [(1, 8, 64), (8, 32, 32), (32, 32, 16)])
def test_conv3x3_bitwise_matches_loop_oracle(cin, cout, side):
    """The featurizer's two convs and the RPN mixer, at the default sizes."""
    gen = np.random.default_rng(cin)
    x = gen.normal(size=(cin, side, side))
    w = gen.normal(size=(cout, cin, 3, 3))
    got = np.moveaxis(T.conv3x3(_hwc(x), w).reshape(side, side, cout), -1, 0)
    assert got.tobytes() == conv3x3_oracle(x, w).tobytes()
    padded = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    direct = sum(np.einsum("oc,chw->ohw", w[:, :, dy, dx], padded[:, dy:dy + side, dx:dx + side])
                 for dy in range(3) for dx in range(3))
    np.testing.assert_allclose(got, direct, rtol=1e-10, atol=1e-10)


# ---------------------------------------------------------------------------
# roi_pool
# ---------------------------------------------------------------------------

def _pool_one_map(feat, boxes, bins, stride):
    """roi_pool over one (H,W,C) map: a stack of one, every box on map 0."""
    return T.roi_pool(feat[None], boxes, bins=bins, stride=stride,
                      batch_idx=np.zeros(len(boxes), dtype=np.int64))


def test_roi_pool_constant_map():
    feat = np.full((2, 16, 16), 3.5)
    out = _pool_one_map(_hwc(feat), [(5.0, 5.0, 40.0, 40.0)], bins=3, stride=4.0)
    assert out.shape == (1, 18)
    assert np.allclose(out, 3.5, atol=1e-15)


def test_roi_pool_full_map_single_bin():
    rng = np.random.default_rng(2)
    feat = rng.random((4, 16, 16))
    out = _pool_one_map(_hwc(feat), [(0.0, 0.0, 64.0, 64.0)], bins=1, stride=4.0)
    assert np.allclose(out[0], feat.mean(axis=(1, 2)), atol=1e-12)


def test_roi_pool_hand_case():
    # 4x4 single-channel map; box covers feature cells [0:2, 0:2] with 2x2 bins
    feat = np.arange(16, dtype=np.float64).reshape(1, 4, 4)
    out = _pool_one_map(_hwc(feat), [(0.0, 0.0, 2.0, 2.0)], bins=2, stride=1.0)
    # one cell per bin: values 0, 1, 4, 5
    assert np.allclose(out[0], [0.0, 1.0, 4.0, 5.0], atol=1e-15)


def test_roi_pool_subcell_box_clamps():
    feat = np.arange(16, dtype=np.float64).reshape(1, 4, 4)
    out = _pool_one_map(_hwc(feat), [(4.1, 4.2, 4.3, 4.4)], bins=1, stride=4.0)
    assert out.shape == (1, 1)
    assert out[0, 0] == feat[0, 1, 1]


def test_roi_pool_rejects_outside_box():
    feat = _hwc(np.zeros((1, 4, 4)))
    with pytest.raises(ParameterError):
        _pool_one_map(feat, [(100.0, 100.0, 120.0, 120.0)], bins=2, stride=4.0)
    with pytest.raises(ParameterError):
        _pool_one_map(feat, [(8.0, 8.0, 8.0, 8.0)], bins=2, stride=4.0)


def test_roi_pool_error_names_first_bad_row():
    feat = _hwc(np.zeros((1, 4, 4)))
    boxes = [(0.0, 0.0, 8.0, 8.0), (100.0, 100.0, 120.0, 120.0), (8.0, 8.0, 8.0, 8.0)]
    with pytest.raises(ParameterError, match=r"row 1 \(100\.0, 100\.0, 120\.0, 120\.0\)"):
        _pool_one_map(feat, boxes, bins=2, stride=4.0)
    with pytest.raises(ParameterError, match=r"row 0 \(0\.0, 0\.0, 8\.0, nan\)"):
        _pool_one_map(feat, [(0.0, 0.0, 8.0, np.nan)], bins=2, stride=4.0)
    with pytest.raises(ParameterError, match="row 2"):
        _pool_one_map(feat, boxes[:1] * 2 + [(-np.inf, 0.0, 8.0, 8.0)], bins=2, stride=4.0)


@pytest.mark.parametrize("bins", [0, -1])
def test_roi_pool_rejects_bad_bins(bins):
    with pytest.raises(ParameterError):
        _pool_one_map(_hwc(np.ones((1, 4, 4))), [(0.0, 0.0, 8.0, 8.0)], bins=bins, stride=4.0)


def test_roi_pool_zero_boxes():
    out = _pool_one_map(_hwc(np.ones((3, 4, 4))), np.zeros((0, 4)), bins=2, stride=4.0)
    assert out.shape == (0, 12) and out.dtype == np.float64


def test_roi_pool_scalar_loop_oracle():
    rng = np.random.default_rng(8)
    feat = rng.random((3, 16, 16))
    box = (6.0, 3.0, 47.0, 52.0)
    got = _pool_one_map(_hwc(feat), [box], bins=3, stride=4.0)[0].reshape(3, 3, 3)
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
    got = _pool_one_map(_hwc(feat), boxes, bins=bins, stride=stride)
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


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_roi_pool_bitwise_matches_oracle_on_rectified_maps(seed):
    # exact zeros as the featurizer's ReLU leaves them; the top-left 4x4 cells are
    # all zero, and the 12x12 box at bins=1 is a window of 144 cells
    raw = _spread_features(seed, (3, 16, 16))
    raw[:, :4, :4] = -np.abs(raw[:, :4, :4])
    feat = np.maximum(raw, 0.0)
    rng = np.random.default_rng(seed)
    x1, y1 = rng.uniform(-4.0, 60.0, (2, 20))
    random_boxes = np.stack([x1, y1, x1 + rng.uniform(5.0, 40.0, 20),
                             y1 + rng.uniform(5.0, 40.0, 20)], axis=1)
    boxes = [(0.0, 0.0, 16.0, 16.0), (1.0, 2.0, 3.0, 4.0), (4.0, 8.0, 52.0, 56.0),
             *random_boxes.tolist()]
    for bins in (1, 2, 3):
        _assert_roi_pool_matches_oracle(feat, boxes, bins, 4.0)
    assert not _pool_one_map(_hwc(feat), boxes[:1], bins=2, stride=4.0).any()


def _stack_problem(seed: int, n_maps: int, boxes_per_map):
    """Spread maps of shape (3, 16, 16) and random boxes, with each box's map index."""
    rng = np.random.default_rng(seed)
    maps = _spread_features(seed, (n_maps, 3, 16, 16))
    counts = list(boxes_per_map)
    x1, y1 = rng.uniform(-4.0, 60.0, (2, sum(counts)))
    boxes = np.stack([x1, y1, x1 + rng.uniform(0.5, 40.0, len(x1)),
                      y1 + rng.uniform(0.5, 40.0, len(x1))], axis=1)
    batch = rng.permutation(np.repeat(np.arange(n_maps), counts))
    return maps, boxes, batch


@pytest.mark.parametrize("boxes_per_map", [(5, 0, 7), (0, 0, 9), (4, 6), (3,)],
                         ids=["empty-middle-map", "last-map-only", "two-maps", "one-map"])
@pytest.mark.parametrize("bins", [1, 3])
def test_roi_pool_over_a_stack_matches_one_call_per_map(boxes_per_map, bins):
    maps, boxes, batch = _stack_problem(len(boxes_per_map) + bins, len(boxes_per_map),
                                        boxes_per_map)
    got = T.roi_pool(_hwc(maps), boxes, bins=bins, stride=4.0, batch_idx=batch)
    want = np.empty_like(got)
    for m, feat in enumerate(maps):
        mine = batch == m
        want[mine] = _pool_one_map(_hwc(feat), boxes[mine], bins=bins, stride=4.0)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("feat, batch", [
    (np.ones((4, 4, 1)), None),                          # a 3-D map is refused
    (np.ones((2, 4, 4, 1)), np.array([0, 2])),           # index past the stack
    (np.ones((2, 4, 4, 1)), np.array([-1, 0])),
    (np.ones((2, 4, 4, 1)), np.array([0])),              # one index per box
    (np.ones((2, 4, 4, 1)), np.array([0.0, 1.0])),       # integer indices only
    (np.ones((4, 4, 1)), np.zeros(2, dtype=np.int64)),   # even with every box on map 0
    (np.ones((4, 4)), None),
])
def test_roi_pool_rejects_bad_stacks_and_batch_indices(feat, batch):
    with pytest.raises(ParameterError):
        T.roi_pool(feat, [(0.0, 0.0, 8.0, 8.0), (4.0, 4.0, 12.0, 12.0)], bins=2, stride=4.0,
                   batch_idx=batch)


def test_iou_matrix_on_anchor_grids_matches_the_unswapped_orientation():
    # 768 anchors against 4 boxes and back: the longer side now runs on the
    # inner axis, and every entry keeps the bits of the (N, M) computation
    anchors = T.generate_anchors(16, 16, 4.0, (8.0, 16.0, 32.0))
    rng = np.random.default_rng(3)
    lo = rng.uniform(0.0, 40.0, (4, 2))
    gt = np.concatenate([lo, lo + rng.uniform(6.0, 24.0, (4, 2))], axis=1)
    for a, b in ((anchors, gt), (gt, anchors)):
        want = T._pair_iou(a, b, T.box_area(a), T.box_area(b))
        got = T.iou_matrix(a, b)
        assert got.shape == want.shape == (len(a), len(b))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("kind", ["spread", "signed zeros"])
def test_row_sum_matches_numpy_reduce(kind):
    # roi_pool's bits rest on _row_sum adding in numpy's own order for a
    # contiguous row; the counts cross 8, 128 and 256, where that order changes
    for n in range(1, 301):
        if kind == "spread":
            rows = _spread_features(n, (n, 3, 4))
        else:
            rows = np.where(np.random.default_rng(n).random((n, 3, 4)) < 0.5, -0.0, 0.0)
            rows[:, 0, 0] = -0.0
        want = np.add.reduce(np.ascontiguousarray(np.moveaxis(rows, 0, -1)), axis=-1)
        got = T._row_sum(rows)
        assert got.tobytes() == want.tobytes(), (
            f"_row_sum of {n} terms differs from numpy {np.__version__}'s add.reduce")


# ---------------------------------------------------------------------------
# anchors
# ---------------------------------------------------------------------------

def test_anchor_single_cell():
    grid = T.generate_anchors(1, 1, stride=4.0, scales=(8.0,))
    assert len(grid) == 1
    assert np.allclose(grid[0], [-2.0, -2.0, 6.0, 6.0], atol=1e-15)


def test_anchor_count_and_ordering():
    grid = T.generate_anchors(16, 16, stride=4.0, scales=(8.0, 16.0, 32.0))
    assert len(grid) == 768
    # index = cell * 3 + scale; check a specific interior anchor
    cell = 5 * 16 + 7  # row 5, col 7
    idx = cell * 3 + 2
    cx, cy = (7 + 0.5) * 4.0, (5 + 0.5) * 4.0
    assert np.allclose(grid[idx], [cx - 16, cy - 16, cx + 16, cy + 16], atol=1e-15)
    # the decomposition build_minibatch uses to find an anchor's scale and cell
    assert idx % 3 == 2
    assert idx // 3 == cell


def test_anchor_centers_follow_cells():
    grid = T.generate_anchors(2, 3, stride=4.0, scales=(8.0, 16.0))
    centers = 0.5 * (grid[:, 0:2] + grid[:, 2:4])
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
