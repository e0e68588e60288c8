"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see every verdict line.
The micro benchmark (8 base + 4 novel classes, 64x64 scenes, 500 base-train
images, k=5, 100 test images) is trained once per session for five seeds and
shared by the report-level criteria; the remaining criteria build their own
small fixtures.
"""

import ctypes
import importlib.util
import json
import os
import sys
import time
from hashlib import sha256
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from retentive.cli import RunPaths, multirun, run_experiment
from retentive.config import DatasetConfig, ModelConfig, TrainConfig, load_config, override
from retentive.detector import (
    bias_balanced_objectness,
    box_head_scores,
    detect,
    detect_base,
    image_anchors,
    image_forward,
    init_base_model,
    pad_base_logits,
    propose,
    roi_features,
    rpn_box_deltas,
    rpn_objectness_logits,
)
from retentive.evaluation import average_precision
from retentive.losses import consistency_loss
from retentive.synthgen import build_base_dataset, build_kshot_dataset, load_dataset, split_classes
from retentive.tensorops import decode_boxes, nms, rank, sigmoid, softmax
from retentive.trainer import build_minibatch, finetune, load_checkpoint

from oracles import ap_exhaustive_oracle, finite_difference_check, nms_oracle, random_ap_instance

BENCH_SEEDS = (0, 1, 2, 3, 4)
GOLDEN_DEFAULT = Path(__file__).with_name("golden_default.json")
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="session")
def bench(tmp_path_factory):
    """Five benchmark seeds trained through the full pipeline, plus aggregate."""
    out = tmp_path_factory.mktemp("bench")
    cfg = load_config(None)
    start = time.monotonic()
    workers = min(len(BENCH_SEEDS), os.cpu_count() or 1)
    aggregate = multirun(cfg, list(BENCH_SEEDS), out, workers=workers)
    elapsed = time.monotonic() - start
    assert not aggregate["incomplete"], f"benchmark seeds failed: {aggregate['failures']}"
    reports = {}
    for s in BENCH_SEEDS:
        path = RunPaths(out, s).eval_dir() / "report.json"
        reports[s] = json.loads(path.read_text(encoding="utf-8"))
    return SimpleNamespace(out=out, cfg=cfg, aggregate=aggregate,
                           reports=reports, elapsed=elapsed)


def _mean(reports, key: str) -> float:
    vals = [r["recall"][key] for r in reports.values()]
    assert all(v is not None for v in vals), f"{key} missing on some seed"
    return float(np.mean(vals))


# ---------------------------------------------------------------------------
# criteria 1-4: report-level directional reproductions over 5 seeds
# ---------------------------------------------------------------------------

def test_criterion_01_non_forgetting(bench):
    margins = []
    digests_ok = True
    for s in BENCH_SEEDS:
        r = bench.reports[s]
        bap_ret = r["summary"].get("bap")
        bap_base = r["baseline_summary"].get("bap")
        assert bap_ret is not None and bap_base is not None
        margins.append(bap_ret - bap_base)
        d = r["metadata"]["base_subset_digests"]
        digests_ok = digests_ok and (d["base"] == d["retentive"])
    ok = all(m >= -0.002 for m in margins) and digests_ok and bench.elapsed <= 25 * 60
    _verdict(1, ok,
             f"per-seed bAP margin min {min(margins):+.4f} (floor -0.002), "
             f"base-subset digests identical: {digests_ok}, "
             f"5-seed wall time {bench.elapsed:.0f}s <= 1500s")


def test_criterion_02_rpn_strategy_direction(bench):
    ar_max = _mean(bench.reports, "proposal_ar@100:max")
    ar_base = _mean(bench.reports, "proposal_ar@100:base-only")
    ar_geo = _mean(bench.reports, "proposal_ar@100:geo-avg")
    ok = (ar_max >= ar_base) and (ar_geo < ar_max)
    _verdict(2, ok,
             f"mean AR@100 max {ar_max:.4f} >= base-only {ar_base:.4f}, "
             f"geo-avg {ar_geo:.4f} < max")


def test_criterion_03_rpn_debiasing(bench):
    uar_ens = _mean(bench.reports, "proposal_uar@100:max")
    uar_base = _mean(bench.reports, "proposal_uar@100:base-only")
    ok = uar_ens > uar_base
    _verdict(3, ok,
             f"mean uAR@100 ensembled proposals {uar_ens:.4f} > base-only {uar_base:.4f}")


def test_criterion_04_rejection_drop(bench):
    uar_dets = _mean(bench.reports, "base_detection_uar@100")
    uar_props = _mean(bench.reports, "proposal_uar@100:base-only")
    ok = uar_dets < uar_props
    _verdict(4, ok,
             f"base detector mean uAR@100: detections {uar_dets:.4f} "
             f"< proposals {uar_props:.4f}")


# ---------------------------------------------------------------------------
# criterion 5: analytic gradients vs central differences
# ---------------------------------------------------------------------------

def _small_world(seed: int = 7):
    ds_cfg = DatasetConfig(image_side=48, num_classes=6, num_novel=2,
                           base_train_images=6, test_images=2, uar_eval_images=2,
                           shots=2, min_instances=2, max_instances=3,
                           min_glyph=12, max_glyph=20)
    split = split_classes(ds_cfg.num_classes, ds_cfg.num_novel, seed)
    base_ds = build_base_dataset(ds_cfg, split, seed)
    kshot_ds = build_kshot_dataset(ds_cfg, split, seed + 1)
    mcfg = ModelConfig()
    model = init_base_model(split, mcfg, feat_seed=seed, seed=seed)
    model.stage = "base"   # gradient checks need no actual pretraining
    return base_ds, kshot_ds, model


def test_criterion_05_gradient_correctness():
    from retentive.config import DetectConfig
    from retentive.detector import extend_for_finetune

    start = time.monotonic()
    base_ds, kshot_ds, base = _small_world()
    dcfg = DetectConfig()
    worst = {}

    tcfg = TrainConfig()
    mb = build_minibatch(base, base_ds, [0, 1], tcfg, dcfg, seed=11,
                         iteration=0, cache={})
    worst["pretrain"] = finite_difference_check(base, mb, tcfg,
                                                max_coords=150, seed=1)

    ret = extend_for_finetune(base, 13, TrainConfig())
    for variant in ("kldiv", "l1", "cos"):
        for lam in (0.0, 0.1):
            tcfg = TrainConfig(consistency=variant, lam=lam)
            mb = build_minibatch(ret, kshot_ds, [0, 1], tcfg, dcfg,
                                 seed=17, iteration=0, cache={})
            worst[f"{variant}/lam={lam}"] = finite_difference_check(
                ret, mb, tcfg, max_coords=150, seed=2)
    elapsed = time.monotonic() - start
    worst_err = max(worst.values())
    ok = worst_err < 1e-4 and elapsed <= 30.0
    _verdict(5, ok,
             f"max FD relative error {worst_err:.2e} < 1e-4 over pretrain + "
             f"3 variants x 2 lambdas, {elapsed:.1f}s <= 30s")


# ---------------------------------------------------------------------------
# criterion 6: consistency loss law on random probability rows
# ---------------------------------------------------------------------------

def _random_rows(rng, n: int, width: int) -> np.ndarray:
    raw = rng.gamma(shape=1.0, scale=1.0, size=(n, width)) + 1e-9
    return raw / raw.sum(axis=1, keepdims=True)


def test_criterion_06_consistency_law():
    rng = np.random.default_rng(606)
    width, num_base = 13, 8
    slots = np.arange(num_base)
    n = 10_000
    p_n = _random_rows(rng, n, width)
    p_b = _random_rows(rng, n, width)

    per_row = np.array([consistency_loss(p_n[i:i + 1], p_b[i:i + 1], slots, "kldiv")[0]
                        for i in range(n)])
    nonneg = bool(np.all(per_row >= 0.0))

    # equal base marginals: scale novel+bg mass, keep base ratios
    eq_ok = True
    for i in range(200):
        q = p_b[i].copy()
        scale = 0.2 + 2.0 * rng.random()
        q[num_base:] *= scale
        q /= q.sum()
        val = consistency_loss(q[None, :], p_b[i][None, :], slots, "kldiv")[0]
        eq_ok = eq_ok and abs(val) <= 1e-12

    # perturbed base ratios must leave zero
    neq_ok = True
    for i in range(200):
        q = p_b[i].copy()
        j = int(rng.integers(num_base))
        q[j] *= 1.5
        q /= q.sum()
        val = consistency_loss(q[None, :], p_b[i][None, :], slots, "kldiv")[0]
        neq_ok = neq_ok and val > 1e-12

    # invariance under novel-mass perturbations preserving base ratios
    inv_ok = True
    for i in range(200):
        ref = consistency_loss(p_n[i][None, :], p_b[i][None, :], slots, "kldiv")[0]
        q = p_n[i].copy()
        q[num_base:] *= 0.1 + 3.0 * rng.random()
        q /= q.sum()
        val = consistency_loss(q[None, :], p_b[i][None, :], slots, "kldiv")[0]
        inv_ok = inv_ok and abs(val - ref) <= 1e-12

    ok = nonneg and eq_ok and neq_ok and inv_ok
    _verdict(6, ok,
             f"kldiv >= 0 on {n} rows: {nonneg}; zero iff equal marginals "
             f"(200 pairs each way): {eq_ok and neq_ok}; novel-mass invariance "
             f"at 1e-12: {inv_ok}")


# ---------------------------------------------------------------------------
# criterion 7: evaluator equals exhaustive oracles
# ---------------------------------------------------------------------------

def test_criterion_07_oracle_equivalence():
    from retentive.detector import Detection
    from retentive.synthgen import SceneRecord

    rng = np.random.default_rng(707)
    worst_ap = 0.0
    for _ in range(100):
        rows, gt_boxes = random_ap_instance(rng, max_dets=10, max_gt=5, images=3)
        iou = float(rng.choice([0.3, 0.5, 0.75]))
        # canonical presentation order is image-major; both sides see it
        rows = [r for _, r in sorted(enumerate(rows), key=lambda t: (t[1][0], t[0]))]
        dets = [[] for _ in gt_boxes]
        for img, score, box in rows:
            dets[img].append(Detection(box=tuple(box), class_id=0,
                                       score=score, source_head="base"))
        records = [
            SceneRecord(seed=i, boxes=np.asarray(b, dtype=np.float64).reshape(-1, 4),
                        labels=np.zeros(len(b), dtype=np.int64),
                        annotated=np.ones(len(b), dtype=bool))
            for i, b in enumerate(gt_boxes)
        ]
        got = average_precision(dets, records, class_id=0, iou_thresholds=(iou,))[iou]
        want = ap_exhaustive_oracle(rows, gt_boxes, iou)
        if got is None:
            ap_ok = want is None
        else:
            ap_ok = want is not None and abs(got - want) <= 1e-12
            worst_ap = max(worst_ap, abs(got - want))
        if not ap_ok:
            _verdict(7, False, f"AP mismatch: got {got} want {want}")

    nms_ok = True
    for _ in range(300):
        m = int(rng.integers(1, 11))
        centers = rng.uniform(8, 56, size=(m, 2))
        sizes = rng.uniform(4, 24, size=(m, 2))
        boxes = np.concatenate([centers - sizes / 2, centers + sizes / 2], axis=1)
        scores = np.round(rng.random(m), 1)
        thresh = float(rng.choice([0.3, 0.5, 0.7]))
        got = nms(boxes, scores, thresh, max_keep=m).tolist()
        want = nms_oracle(boxes, scores, thresh)
        nms_ok = nms_ok and got == want

    ok = worst_ap <= 1e-12 and nms_ok
    _verdict(7, ok,
             f"AP == exhaustive-cutoff oracle to 1e-12 on 100 instances "
             f"(worst {worst_ap:.1e}); nms == greedy oracle on 300 instances: {nms_ok}")


# ---------------------------------------------------------------------------
# criterion 8: exact anchor-level dominance of the max strategy
# ---------------------------------------------------------------------------

def test_criterion_08_anchor_dominance(bench):
    paths = RunPaths(bench.out, 0)
    model = load_checkpoint(paths.checkpoint("retentive"))
    test_ds = load_dataset(paths.dataset_dir("test"))
    anchors = 0
    ok = True
    for img in test_ds.images:
        cells = image_forward(model, img).cells
        o_b = sigmoid(rpn_objectness_logits(model, cells, "base"))
        o_n = sigmoid(rpn_objectness_logits(model, cells, "novel"))
        ens = bias_balanced_objectness(o_b, o_n, "max")
        ok = ok and bool(np.all(ens >= o_b) and np.all(ens >= o_n)
                         and np.all((ens == o_b) | (ens == o_n)))
        anchors += ens.size
    _verdict(8, ok,
             f"max-strategy objectness >= both components exactly on "
             f"{anchors} anchors across {len(test_ds.images)} images")


# ---------------------------------------------------------------------------
# criterion 9: bitwise determinism and aggregate arithmetic
# ---------------------------------------------------------------------------

def test_criterion_09_determinism(bench, tmp_path):
    rerun = tmp_path / "rerun"
    run_experiment(bench.cfg, 0, rerun)
    a, b = RunPaths(bench.out, 0), RunPaths(rerun, 0)
    ckpt_ok = all(a.checkpoint(n).read_bytes() == b.checkpoint(n).read_bytes()
                  for n in ("base", "retentive"))
    report_ok = ((a.eval_dir() / "report.json").read_bytes()
                 == (b.eval_dir() / "report.json").read_bytes())

    # aggregate mean/stddev must equal a from-scratch recomputation
    flat = {}
    for s in BENCH_SEEDS:
        r = bench.reports[s]
        row = dict(r["summary"])
        row.update({f"baseline_{k}": v for k, v in r["baseline_summary"].items()})
        row.update({k: v for k, v in r["recall"].items() if v is not None})
        flat[s] = row
    agg_ok = True
    for name, cell in bench.aggregate["metrics"].items():
        xs = [flat[s][name] for s in sorted(flat) if name in flat[s]]
        agg_ok = agg_ok and abs(cell["mean"] - float(np.mean(xs))) <= 1e-12
        if len(xs) >= 2:
            agg_ok = agg_ok and abs(cell["stddev"] - float(np.std(xs, ddof=1))) <= 1e-12
        else:
            agg_ok = agg_ok and cell["stddev"] is None
        agg_ok = agg_ok and cell["n"] == len(xs)

    ok = ckpt_ok and report_ok and agg_ok
    _verdict(9, ok,
             f"checkpoints bitwise identical: {ckpt_ok}; report.json byte-identical: "
             f"{report_ok}; multirun mean/stddev re-verified to 1e-12: {agg_ok}")


# ---------------------------------------------------------------------------
# criterion 10: zero-step finetune inference contract
# ---------------------------------------------------------------------------

def test_criterion_10_inference_contract(bench):
    paths = RunPaths(bench.out, 0)
    base = load_checkpoint(paths.checkpoint("base"))
    kshot = load_dataset(paths.dataset_dir("kshot"))
    test_ds = load_dataset(paths.dataset_dir("test"))

    cfg = override(bench.cfg, {"finetune": {
        "max_iters": 0, "classifier": "fc", "head_domain": "all", "head_init": "copy",
        "rpn_obj_init": "copy", "rpn_strategy": "base-only", "consistency": "off"}})
    model, log = finetune(base, kshot, cfg, 0)
    assert len(log.records) == 0

    dcfg = cfg.detect
    num_base = len(base.split.base_ids)
    novel_col = {cid: num_base + j for j, cid in enumerate(base.split.novel_ids)}
    base_equal = True
    extras_explained = True
    rows_ok = True
    unbonused = True
    n_extras = 0

    for img in test_ds.images:
        db = detect_base(base, img, dcfg)
        df = detect(model, img, dcfg)

        got_base = [(d.box, d.class_id, d.score, d.source_head) for d in df
                    if d.class_id in base.split.base_ids]
        want = [(d.box, d.class_id, d.score, d.source_head) for d in db]
        base_equal = base_equal and got_base == want
        unbonused = unbonused and all(d.score <= 1.0 for d in df + db)

        # every novel-class extra must carry the frozen base head's own
        # padded-softmax mass for that proposal, nothing learned
        side = float(img.shape[0])
        fwd = image_forward(base, img)
        obj = sigmoid(rpn_objectness_logits(base, fwd.cells, "base"))
        deltas = rpn_box_deltas(base, fwd.cells)
        anchors = image_anchors(img.shape[0], base.mcfg.feat_stride, base.mcfg.anchor_scales)
        ranked = rank(obj)[:dcfg.pre_nms_k]
        props = propose(obj, ranked, decode_boxes(deltas[ranked], anchors[ranked], side=side),
                        dcfg)
        logits, reg = box_head_scores(base, roi_features(base, fwd.feat, props.boxes), "base")
        probs = softmax(pad_base_logits(logits, base.num_novel))
        boxes = decode_boxes(reg, props.boxes, side=side)
        rows_ok = rows_ok and bool(np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-12))
        box_row = {tuple(float(v) for v in boxes[i]): i for i in range(len(boxes))}
        for d in df:
            if d.class_id in novel_col:
                n_extras += 1
                row = box_row.get(d.box)
                if row is None or d.score != float(probs[row, novel_col[d.class_id]]):
                    extras_explained = False

    ok = base_equal and extras_explained and rows_ok and unbonused
    _verdict(10, ok,
             f"base-class detections equal detect_base on all images: {base_equal}; "
             f"{n_extras} novel-slot candidates all carry the base head's padded "
             f"mass: {extras_explained}; padded softmax rows sum to 1 +- 1e-12: "
             f"{rows_ok}; no reported score includes the ranking bonus: {unbonused}")


# ---------------------------------------------------------------------------
# golden digests: the default config's checkpoints and reports stay byte-identical
# ---------------------------------------------------------------------------

_OPENBLAS_CORENAME = ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                      "openblas_get_corename64_", "openblas_get_corename")


def _machine_key() -> dict:
    """The OpenBLAS kernel and numpy's SIMD extensions this process runs on.
    Matrix products and exp/log round differently under another of either, so
    the golden digests hold only where both match the recorded ones."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    core = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = sorted({f[5].strip() for f in (line.split(None, 5) for line in maps)
                           if len(f) == 6 and "openblas" in f[5].lower()})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        name = next((n for n in _OPENBLAS_CORENAME if hasattr(lib, n)), None)
        if name is not None:
            getter = getattr(lib, name)
            getter.argtypes, getter.restype = [], ctypes.c_char_p
            core = getter().decode()
    return {"openblas_core": core,
            "simd_found": sorted(k for k, found in __cpu_features__.items() if found)}


def _check_golden(got: dict, want: dict) -> None:
    recorded = json.loads(GOLDEN_DEFAULT.read_text(encoding="utf-8"))["machine"]
    here = _machine_key()
    if here != recorded:
        pytest.skip(f"machine key {here} is not the recorded {recorded}; "
                    f"digests on this machine: {got}")
    assert got == want


def test_golden_digests_of_the_default_config(bench):
    got = {}
    for s in BENCH_SEEDS:
        paths = RunPaths(bench.out, s)
        got[str(s)] = {name: sha256(path.read_bytes()).hexdigest() for name, path in (
            ("base.ckpt", paths.checkpoint("base")),
            ("retentive.ckpt", paths.checkpoint("retentive")),
            ("report.json", paths.eval_dir() / "report.json"))}
    _check_golden(got, json.loads(GOLDEN_DEFAULT.read_text(encoding="utf-8"))["seeds"])


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_golden_digests_of_two_bench_seeds(tmp_path, monkeypatch):
    """perfbench/golden.json gates every benchmark run; two of its seeds,
    recorded the way perfbench/golden.py records them."""
    monkeypatch.setitem(sys.modules, "run", _load_script("run"))  # golden.py imports run
    golden = _load_script("golden")
    table = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))
    cfg = load_config(PERFBENCH / "bench.yaml")
    assert cfg.digest() == table["config_digest"]
    got = {str(s): golden.record_seed(cfg, s, tmp_path) for s in (0, 31)}
    _check_golden(got, {s: table["seeds"][s] for s in got})
