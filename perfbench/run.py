#!/usr/bin/env python3
"""Benchmark of the retentive pipeline, driven through its public functions.

Run from the repository root:

    python3 perfbench/run.py --workload train --seed 0 --seconds 40 --trace 0

Workloads (see README.md for why each exists); one pass is:

* ``train`` -- pretrain then finetune of one data seed.
* ``infer`` -- the eval stage plus a ``detect()`` loop over the test and
               uar-eval images of one data seed, on checkpoints built first
               (preparation, timed by nothing).

A run's passes cover a window of consecutive data seeds starting at
``--seed``, modulo the seeds in golden.json. Every artifact a pass writes is
compared with its SHA-256 in golden.json; an exception or a mismatch is a
failed operation and is printed by name on standard error.

``--trace 0`` repeats rounds over the window while the next round would end
within ``--seconds`` (at least one) and reports the end-to-end metrics. After
each pass a fresh process does the set-up of that pass's data seed alone, so
the set-up samples are many, short, and spread over the run like the passes;
that process first times the fixed kernel of reference.py. The end-to-end
times are scaled to a machine on which that kernel takes REFERENCE_S, so
that the machine's speed, which drifts by a quarter over minutes on a shared
host, cancels out; the raw times go to the run record.
``--trace 1`` runs the first seed's set-up and pass with spans around the
package's functions (one recorder each), after a warm-up pass and an
untraced pass, and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The harness reads but never sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
RETENTIVE_THREADS, so the BLAS threads' CPU use stays visible.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import pkgutil
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
OUT = HERE / ".out"
CACHE = HERE / ".cache"
WORKLOADS = ("train", "infer")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "RETENTIVE_THREADS")
# Median wall of reference.kernel() on the 2-core x86-64 machine this
# benchmark was written on; end-to-end times are reported at that speed.
REFERENCE_S = 0.14


def import_package():
    """Import ``retentive`` from this checkout's ``src``; exit non-zero if absent."""
    pkg_dir = SRC / "retentive"
    if not (pkg_dir / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {pkg_dir}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import retentive

    if Path(retentive.__file__).resolve().parent != pkg_dir.resolve():
        sys.exit(f"perfbench: imported retentive from {retentive.__file__}, not {pkg_dir}")
    return retentive


def file_digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def detections_digest(dets_per_image) -> str:
    """SHA-256 over one canonical JSON line per image, in image order."""
    from retentive.config import canonical_json

    h = hashlib.sha256()
    for i, dets in enumerate(dets_per_image):
        h.update(canonical_json({
            "image": i,
            "boxes": [list(d.box) for d in dets],
            "classes": [d.class_id for d in dets],
            "scores": [d.score for d in dets],
            "heads": [d.source_head for d in dets],
        }).encode("utf-8") + b"\n")
    return h.hexdigest()


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def thread_count() -> int:
    """Operating-system threads of this process, BLAS pool included."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    except OSError:
        pass
    import threading

    return threading.active_count()


def step_latencies_ms(log_path: Path) -> list[float]:
    """Per-iteration wall times from a training log's cumulative ``wall_clock``."""
    from retentive.trainer import TrainLog

    clocks = [r["wall_clock"] for r in TrainLog.load(log_path).records]
    return [1000.0 * (b - a) for a, b in zip([0.0] + clocks[:-1], clocks)]


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if values else 0.0


def environment() -> dict:
    """What the run depends on but does not control; recorded, never changed."""
    cpu_model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except Exception:  # numpy builds without the dict form of show_config
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# run state: operation and failure accounting
# ---------------------------------------------------------------------------

class Bench:
    """Configuration, golden digests and the attempted/failed tally of one run."""

    def __init__(self, cfg, golden: dict, work: Path, seed: int) -> None:
        self.cfg = cfg
        self.golden = golden
        self.work = work
        self.seed = seed
        h = hashlib.sha256(cfg.digest().encode())
        for f in sorted((SRC / "retentive").glob("*.py")):
            h.update(f.name.encode() + b"\0" + f.read_bytes())
        self.cache = CACHE / h.hexdigest()[:16]
        self.attempted = 0
        self.failed = 0

    def data_seeds(self, n: int) -> list[int]:
        """The run's window of n consecutive data seeds, wrapping at the golden table."""
        return [(self.seed + j) % len(self.golden["seeds"]) for j in range(n)]

    def op(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        print(f"perfbench: FAILED {what}", file=sys.stderr, flush=True)

    def check(self, seed: int, name: str, got: str) -> None:
        """Compare one artifact digest with golden.json; a mismatch is a failure."""
        want = self.golden["seeds"][str(seed)].get(name)
        if got == want:
            self.op()
        else:
            self.fail(f"digest mismatch: {name} for data seed {seed}: got {got}, want {want}")

    def check_run(self, paths, seed: int, names=("base.ckpt", "retentive.ckpt")) -> None:
        files = {
            "base.ckpt": paths.checkpoint("base"),
            "retentive.ckpt": paths.checkpoint("retentive"),
            "report.json": paths.eval_dir() / "report.json",
        }
        for name in names:
            path = files[name]
            self.check(seed, name, file_digest(path) if path.exists() else "missing")


class Pass:
    """One repetition of a workload's timed part."""

    def __init__(self) -> None:
        self.wall = 0.0
        self.cpu = 0.0
        self.detect_ms: list[float] = []
        self.stages: dict[str, float] = {}
        self.steps: dict[str, list[float]] = {}
        self.report: dict = {}
        self.images = 0
        self.item = None


class Timer:
    def __enter__(self):
        self.cpu0 = cpu_seconds()
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self.t0
        self.cpu = cpu_seconds() - self.cpu0
        return False


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------
#
# Training cost depends strongly on the data seed: how many proposals survive
# NMS follows the model's own objectness, and on the benchmark config one seed
# keeps 44% of the boxes it feeds NMS where another keeps 78%. One seed per run
# would measure the seed, not the code, so every run covers a window of
# consecutive data seeds starting at --seed, the same window on every commit.

class Train:
    """Per data seed: gen (set-up), then pretrain and finetune (one pass)."""

    seeds_per_run = 20

    def __init__(self, bench: Bench) -> None:
        self.b = bench
        self.items = bench.data_seeds(self.seeds_per_run)
        self.gen_root = bench.work / "setup"

    def prepare(self, items, args) -> None:
        pass

    def setup(self, where: Path, items) -> None:
        from retentive.cli import run_experiment

        for seed in items:
            run_experiment(self.b.cfg, seed, where, stages=("gen",))

    def run_pass(self, seed: int, i: int) -> Pass:
        from retentive.cli import RunPaths, run_experiment

        out = self.b.work / f"pass-{i}"
        paths = RunPaths(out, seed)
        shutil.copytree(RunPaths(self.gen_root, seed).root, paths.root)
        p = Pass()
        with Timer() as whole:
            for stage in ("pretrain", "finetune"):
                t0 = time.perf_counter()
                run_experiment(self.b.cfg, seed, out, stages=(stage,))
                p.stages[stage] = time.perf_counter() - t0
                self.b.op()
        p.wall, p.cpu = whole.wall, whole.cpu
        self.b.check_run(paths, seed)
        for stage in ("pretrain", "finetune"):
            p.steps[stage] = step_latencies_ms(paths.train_log(stage))
        p.images = sum(len(json.loads((paths.dataset_dir(n) / "manifest.json").read_text())["items"])
                       for n in ("base-train", "kshot"))
        shutil.rmtree(out)
        return p


class Infer:
    """Per data seed: the eval stage, then detect() on every test and uar-eval image.

    The checkpoints are built by a child process, so the training's memory
    does not count in this process's peak, into a cache keyed by the source
    and config digests. The package's own stage stamps verify what the cache
    holds, and the checkpoints are gated on golden.json before use.
    """

    seeds_per_run = 12

    def __init__(self, bench: Bench) -> None:
        self.b = bench
        self.items = bench.data_seeds(self.seeds_per_run)
        self.root = bench.cache / "infer"
        self.models: dict[int, object] = {}
        self.images: dict[int, list] = {}

    def build(self, items) -> None:
        """Datasets and both checkpoints per seed; stages already stamped are skipped."""
        from retentive.cli import run_experiment

        for seed in items:
            run_experiment(self.b.cfg, seed, self.root, stages=("gen", "pretrain", "finetune"))

    def prepare(self, items, args) -> None:
        from retentive.cli import RunPaths

        child(args, "prepare", self.b.work)
        for seed in items:
            self.b.check_run(RunPaths(self.root, seed), seed)

    def setup(self, where: Path, items) -> None:
        from retentive.cli import RunPaths
        from retentive.synthgen import load_dataset
        from retentive.trainer import load_checkpoint

        for seed in items:
            paths = RunPaths(self.root, seed)
            self.models[seed] = load_checkpoint(paths.checkpoint("retentive"))
            self.images[seed] = [img for name in ("test", "uar-eval")
                                 for img in load_dataset(paths.dataset_dir(name)).images]

    def run_pass(self, seed: int, i: int) -> Pass:
        from retentive.cli import RunPaths, run_experiment
        from retentive.detector import detect

        paths = RunPaths(self.root, seed)
        paths.stamp("eval").unlink(missing_ok=True)
        shutil.rmtree(paths.eval_dir(), ignore_errors=True)
        model, images = self.models[seed], self.images[seed]
        p = Pass()
        dets = []
        with Timer() as whole:
            t0 = time.perf_counter()
            run_experiment(self.b.cfg, seed, self.root, stages=("eval",))
            t1 = time.perf_counter()
            self.b.op()
            for img in images:
                s = time.perf_counter()
                dets.append(detect(model, img, self.b.cfg.detect))
                p.detect_ms.append(1000.0 * (time.perf_counter() - s))
            t2 = time.perf_counter()
        self.b.op(len(images))
        p.wall, p.cpu = whole.wall, whole.cpu
        p.stages = {"eval": t1 - t0, "detect_loop": t2 - t1}
        self.b.check_run(paths, seed, names=("report.json",))
        self.b.check(seed, "detections", detections_digest(dets))
        p.report = json.loads((paths.eval_dir() / "report.json").read_text())
        p.images = len(images)
        return p


WORKLOAD_CLASSES = {"train": Train, "infer": Infer}


# ---------------------------------------------------------------------------
# traced run: which functions get spans, and what each counts
# ---------------------------------------------------------------------------

MERGE_PARENTS = ("detector.detect", "detector.detect_base")


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def _count_nms(c, args, kwargs, out):
    c["nms.boxes_in"] += np.size(_arg(args, kwargs, 0, "boxes")) // 4
    c["nms.kept"] += len(out)


def _count_pairs(c, args, kwargs, out):
    c["iou_matrix.pairs"] += out.size


def _count_proposals(c, args, kwargs, out):
    c["propose.proposals_out"] += len(out)


def _count_rows(c, args, kwargs, out):
    c["roi_features.rows"] += len(out)


def _count_positives(c, args, kwargs, out):
    mode = _arg(args, kwargs, 3, "mode")
    c[f"assign_targets.{mode}_pos"] += int(out.sample_pos.sum())


def _count_dataset_bytes(c, args, kwargs, out):
    d = Path(_arg(args, kwargs, 1, "dirpath"))
    c["save_dataset.bytes"] += sum(f.stat().st_size for f in d.iterdir() if f.is_file())


def _count_checkpoint_bytes(c, args, kwargs, out):
    c["save_checkpoint.bytes"] += Path(_arg(args, kwargs, 1, "path")).stat().st_size


def trace_targets():
    """(module, function, span name, counter) for every layer the trace covers."""
    from retentive import detector, evaluation, losses, synthgen, tensorops, trainer

    plain = {
        tensorops: ("roi_pool", "fixed_featurizer", "conv3x3"),
        detector: ("detect", "detect_base", "ensembled_proposals"),
        trainer: ("build_minibatch", "sgd_step", "load_checkpoint"),
        losses: ("compute_gradients",),
        evaluation: ("average_precision", "average_recall", "roi_feature_norms", "emit_report"),
        synthgen: ("build_base_dataset", "build_test_dataset", "build_kshot_dataset",
                   "load_dataset"),
    }
    counted = [
        (tensorops, "nms", _count_nms),
        (tensorops, "iou_matrix", _count_pairs),
        (detector, "propose", _count_proposals),
        (detector, "roi_features", _count_rows),
        (trainer, "assign_targets", _count_positives),
        (trainer, "save_checkpoint", _count_checkpoint_bytes),
        (synthgen, "save_dataset", _count_dataset_bytes),
    ]
    short = lambda mod: mod.__name__.rsplit(".", 1)[1]  # noqa: E731
    out = [(mod, f, f"{short(mod)}.{f}", None) for mod, fs in plain.items() for f in fs]
    out += [(mod, f, f"{short(mod)}.{f}", count) for mod, f, count in counted]
    return out


@contextlib.contextmanager
def traced_layers(rec):
    # Import every module of the package first: a module imported while the
    # wrappers are in place would bind a wrapper by name and keep it after
    # they are removed.
    import retentive

    for info in pkgutil.iter_modules(retentive.__path__):
        importlib.import_module(f"retentive.{info.name}")
    rec.install(trace_targets())
    try:
        yield rec
    finally:
        rec.uninstall()


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def child(args, phase: str, work: Path, probe: Path | None = None,
          probe_seed: int | None = None) -> str:
    """Run one phase of this workload in a fresh interpreter, wait for it and
    return its standard output."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--phase", phase,
           "--workload", args.workload, "--seed", str(args.seed), "--trace", str(args.trace),
           "--config", str(args.config), "--golden", str(args.golden), "--work", str(work)]
    if probe is not None:
        cmd += ["--probe-dir", str(probe), "--probe-seed", str(probe_seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"{phase} process exited {done.returncode}: {done.stderr.strip()}")
    return done.stdout


def probe_setup(args, work: Path, seed: int) -> tuple[float, float]:
    """Set-up wall of a fresh process that does only the set-up of one data
    seed (imports, config, and gen on train or the loads on infer), and the
    wall of the reference kernel that the process runs before the package
    import."""
    probe = work / "setup-probe"
    t0 = time.perf_counter()
    out = child(args, "setup", work, probe, seed)
    wall = time.perf_counter() - t0
    shutil.rmtree(probe, ignore_errors=True)
    reference_s = float(out.strip().splitlines()[-1])
    return wall - reference_s, reference_s


def end_to_end(passes: list[Pass], setup_walls: list[float], reference_walls: list[float]):
    """The end-to-end metrics at reference speed, and the same times as measured."""
    raw = {
        "setup_s": statistics.median(setup_walls),
        "wall_s": statistics.median(p.wall for p in passes),
        "cpu_s": statistics.median(p.cpu for p in passes),
    }
    scale = REFERENCE_S / statistics.median(reference_walls)
    metrics = {name: (value * scale, "s") for name, value in raw.items()}
    rss = resource.getrusage(resource.RUSAGE_SELF)
    metrics["peak_rss_mb"] = (rss.ru_maxrss / 1024.0, "MB")
    return metrics, dict(raw, reference_s=statistics.median(reference_walls))


def log_metrics(stage: str, steps: list[float]) -> dict:
    return {f"trainer.{stage}.iterations": (len(steps), "count"),
            f"trainer.{stage}_step_ms.p50": (percentile(steps, 50), "ms"),
            f"trainer.{stage}_step_ms.p95": (percentile(steps, 95), "ms")}


def per_layer(rec, setup_rec, plain: Pass, traced: Pass | None) -> dict:
    """Per-layer metrics: counts and self times from the traced pass (``rec``)
    and the traced set-up (``setup_rec``), walls and step latencies from the
    untraced pass."""
    s = rec.summary() if rec is not None else {}
    c = rec.counters if rec is not None else {}
    setup = setup_rec.summary() if setup_rec is not None else {}
    setup_c = setup_rec.counters if setup_rec is not None else {}

    def calls(name):
        return (s.get(name, {}).get("calls", 0), "count")

    def self_s(name):
        return (s.get(name, {}).get("self_s", 0.0), "s")

    def total_s(*names, spans=s):
        return (sum(spans.get(n, {}).get("total_s", 0.0) for n in names), "s")

    m = {}
    for layer in ("tensorops.nms", "tensorops.iou_matrix", "tensorops.roi_pool",
                  "tensorops.fixed_featurizer", "tensorops.conv3x3", "detector.propose",
                  "detector.roi_features", "detector.detect", "detector.detect_base",
                  "detector.ensembled_proposals", "trainer.assign_targets",
                  "trainer.build_minibatch", "losses.compute_gradients", "trainer.sgd_step",
                  "evaluation.average_precision", "evaluation.average_recall"):
        m[f"{layer}.calls"] = calls(layer)
        m[f"{layer}.self_s"] = self_s(layer)
    boxes_in = c.get("nms.boxes_in", 0)
    m["tensorops.nms.boxes_in"] = (int(boxes_in), "count")
    m["tensorops.nms.kept_ratio"] = (c.get("nms.kept", 0) / boxes_in if boxes_in else 0.0, "ratio")
    m["tensorops.iou_matrix.pairs"] = (int(c.get("iou_matrix.pairs", 0)), "count")
    m["detector.propose.proposals_out"] = (int(c.get("propose.proposals_out", 0)), "count")
    m["detector.roi_features.rows"] = (int(c.get("roi_features.rows", 0)), "count")
    m["detector.merge_nms_s"] = (rec.total_under("tensorops.nms", MERGE_PARENTS)
                                 if rec is not None else 0.0, "s")
    images = traced.images if traced is not None else 0
    m["detector.featurizer_per_image"] = (
        calls("tensorops.fixed_featurizer")[0] / images if images else 0.0, "ratio")
    m["trainer.assign_targets.rpn_pos"] = (int(c.get("assign_targets.rpn_pos", 0)), "count")
    m["trainer.assign_targets.roi_pos"] = (int(c.get("assign_targets.roi_pos", 0)), "count")
    m["detector.detect_ms.p50"] = (percentile(plain.detect_ms, 50), "ms")
    m["detector.detect_ms.p95"] = (percentile(plain.detect_ms, 95), "ms")
    m.update(log_metrics("pretrain", plain.steps.get("pretrain", [])))
    m.update(log_metrics("finetune", plain.steps.get("finetune", [])))
    m["evaluation.roi_feature_norms.self_s"] = self_s("evaluation.roi_feature_norms")
    m["evaluation.emit_report_s"] = total_s("evaluation.emit_report")
    summary = plain.report.get("summary", {})
    m["evaluation.bap"] = (summary.get("bap", 0.0), "ratio")
    m["evaluation.nap"] = (summary.get("nap", 0.0), "ratio")
    # Set-up: gen on train, the loads on infer.
    m["synthgen.build_s"] = total_s("synthgen.build_base_dataset", "synthgen.build_test_dataset",
                                    "synthgen.build_kshot_dataset", spans=setup)
    m["synthgen.save_dataset_s"] = total_s("synthgen.save_dataset", spans=setup)
    m["synthgen.bytes"] = (int(setup_c.get("save_dataset.bytes", 0)), "bytes")
    m["setup.load_s"] = total_s("synthgen.load_dataset", "trainer.load_checkpoint", spans=setup)
    # The pass: stages load their inputs and save their outputs.
    m["synthgen.load_dataset_s"] = total_s("synthgen.load_dataset")
    m["trainer.save_checkpoint_s"] = total_s("trainer.save_checkpoint")
    m["trainer.load_checkpoint_s"] = total_s("trainer.load_checkpoint")
    m["trainer.checkpoint_bytes"] = (int(c.get("save_checkpoint.bytes", 0)), "bytes")
    for stage in ("pretrain", "finetune", "eval", "detect_loop"):
        m[f"stage.{stage}_s"] = (plain.stages.get(stage, 0.0), "s")
    m["process.threads"] = (thread_count(), "count")
    m["process.cpu_per_wall"] = (plain.cpu / plain.wall if plain.wall else 0.0, "ratio")
    m["trace.spans"] = (len(rec) if rec is not None else 0, "count")
    m["trace.overhead_s"] = (traced.wall - plain.wall if traced is not None else 0.0, "s")
    return m


def run(args) -> dict:
    import_package()
    from retentive.config import load_config

    import spans

    cfg = load_config(args.config)
    golden = json.loads(Path(args.golden).read_text())
    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(cfg, golden, work, args.seed)
    if golden.get("config_digest") != cfg.digest():
        bench.fail(f"golden digests were recorded for config {golden.get('config_digest')}, "
                   f"not {cfg.digest()}; regenerate them with perfbench/golden.py")
    workload = WORKLOAD_CLASSES[args.workload](bench)
    env = environment()
    print("env " + json.dumps(env, sort_keys=True), file=sys.stderr, flush=True)
    passes: list[Pass] = []
    rec = setup_rec = None
    traced = None
    setup_walls: list[float] = []
    reference_walls: list[float] = []
    try:
        items = workload.items[:1] if args.trace else workload.items
        workload.prepare(items, args)
        if args.trace:
            setup_rec = spans.Recorder()
            with traced_layers(setup_rec):
                workload.setup(work / "setup", items)
            workload.run_pass(items[0], 0)  # warm-up, so the overhead excludes first-touch costs
            passes.append(workload.run_pass(items[0], 1))
            rec = spans.Recorder()
            with traced_layers(rec):
                traced = workload.run_pass(items[0], 2)
        else:
            workload.setup(work / "setup", items)
            begin = time.perf_counter()
            while True:
                t0 = time.perf_counter()
                for item in items:
                    passes.append(workload.run_pass(item, len(passes)))
                    passes[-1].item = item
                    setup_s, reference_s = probe_setup(args, work, item)
                    setup_walls.append(setup_s)
                    reference_walls.append(reference_s)
                now = time.perf_counter()
                if now - begin + (now - t0) > args.seconds:
                    break
    except Exception:
        traceback.print_exc()
        bench.fail(f"{args.workload} raised {sys.exc_info()[0].__name__}")
        if not passes:
            passes.append(Pass())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    measured = {}
    if args.trace:
        metrics = per_layer(rec, setup_rec, passes[0], traced)
    else:
        metrics, measured = end_to_end(passes, setup_walls or [0.0],
                                       reference_walls or [REFERENCE_S])
        print("measured " + json.dumps(measured, sort_keys=True), file=sys.stderr)
    result = {
        "correct": bench.failed == 0,
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{int(args.trace)}"
    record = {"workload": args.workload, "seed": args.seed, "environment": env,
              "passes": [{"item": p.item, "wall_s": p.wall, "cpu_s": p.cpu, "stages": p.stages}
                         for p in passes],
              "setup_walls_s": setup_walls,
              "reference_walls_s": reference_walls,
              "measured": measured,
              "result": result}
    if rec is not None:
        record["layers"] = rec.summary()
        record["counters"] = dict(rec.counters)
        record["setup_layers"] = setup_rec.summary()
        rec.write_tsv(OUT / f"{stem}-spans.tsv")
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return result


def run_phase(args) -> int:
    """Entry of a child process: do one phase of the workload, then exit."""
    import reference

    # The reference kernel runs before the package is imported, so nothing the
    # package does in set-up can change its time.
    reference_s = reference.timed() if args.phase == "setup" else 0.0
    import_package()
    from retentive.config import load_config

    cfg = load_config(args.config)
    golden = json.loads(Path(args.golden).read_text())
    workload = WORKLOAD_CLASSES[args.workload](Bench(cfg, golden, Path(args.work), args.seed))
    if args.phase == "setup":
        workload.setup(Path(args.probe_dir), [args.probe_seed])
        print(repr(reference_s))
    else:
        workload.build(workload.items[:1] if args.trace else workload.items)
    return 0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0,
                   help="time budget of the repeated timed part (trace 0)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--config", type=Path, default=HERE / "bench.yaml",
                   help="YAML overrides of the default experiment config")
    p.add_argument("--golden", type=Path, default=HERE / "golden.json",
                   help="golden digests recorded for that config")
    p.add_argument("--phase", choices=("setup", "prepare"), help=argparse.SUPPRESS)
    p.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    p.add_argument("--probe-dir", type=Path, help=argparse.SUPPRESS)
    p.add_argument("--probe-seed", type=int, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.phase:
        return run_phase(args)
    result = run(args)
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
