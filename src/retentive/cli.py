"""Experiment orchestration: datasets, two-stage training, metrics, seeds.

Runs are laid out as one directory per seed. Every stage writes its outputs
plus a stamp file naming the configuration digest and the digests of the
inputs it consumed; a re-run with the same resolved configuration skips
stages whose stamps and outputs are intact. Every stage a command needs,
whether it runs or is only read from, is checked against its stamp before
use, and any digest disagreement
between what a stamp recorded and what is on disk stops the run instead of
silently recomputing or reusing mismatched artifacts.
"""

from __future__ import annotations

import argparse
import copy
import itertools
import os
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from hashlib import sha256
from pathlib import Path

import numpy as np

from .config import (
    RPN_STRATEGIES,
    ExperimentConfig,
    Rule,
    TrainConfig,
    canonical_json,
    check_value,
    field_rules,
    load_config,
    read_json_object,
)
from .detector import (
    STAGE_BASE,
    STAGE_RETENTIVE,
    detect,
    detect_base,
    image_forward,
    pool_proposals,
    strategy_proposals,
)
from .errors import (
    ConfigError,
    CorruptArtifactError,
    GenerationError,
    NumericError,
    ParameterError,
    StalenessError,
    StateError,
    TrainingError,
)
from .evaluation import (
    ap_summary,
    ap_table,
    average_recall,
    build_report,
    detections_to_candidates,
    emit_report,
    proposals_to_candidates,
    roi_feature_norms,
)
from .synthgen import (
    Dataset,
    build_base_dataset,
    build_kshot_dataset,
    build_test_dataset,
    load_dataset,
    save_dataset,
    split_classes,
)
from .tensorops import subseed
from .trainer import finetune, load_checkpoint, pretrain, save_checkpoint, verify_checkpoint

DATASET_NAMES = ("base-train", "kshot", "test", "uar-eval")

_DS_TAGS = {
    "base-train": 0xD5B1,
    "kshot": 0xD5B2,
    "test": 0xD5B3,
    "uar-eval": 0xD5B4,
}


# ---------------------------------------------------------------------------
# run directory layout
# ---------------------------------------------------------------------------

class RunPaths:
    def __init__(self, out_root, seed: int):
        self.root = Path(out_root) / f"seed-{seed}"

    def dataset_dir(self, name: str) -> Path:
        return self.root / "datasets" / name

    def checkpoint(self, name: str) -> Path:
        return self.root / "models" / f"{name}.ckpt"

    def train_log(self, name: str) -> Path:
        return self.root / "models" / f"{name}.jsonl"

    def eval_dir(self) -> Path:
        return self.root / "eval"

    def stamp(self, stage: str) -> Path:
        return self.root / f"{stage}.stamp.json"

    def detections(self) -> Path:
        return self.root / "detections.jsonl"


def _dataset_digest_on_disk(path: Path) -> str:
    manifest = path / "manifest.json"
    if not manifest.exists():
        raise StalenessError(f"dataset missing at {path}")
    return read_json_object(manifest, "manifest", {"digest": str})["digest"]


def _report_digest_on_disk(paths: RunPaths) -> str:
    report = paths.eval_dir() / "report.json"
    if not report.exists():
        raise StalenessError(f"report missing at {report}")
    return sha256(report.read_bytes()).hexdigest()


def _write_stamp(path: Path, stage: str, seed: int, config_digest: str,
                 inputs: dict, outputs: dict) -> None:
    payload = {"stage": stage, "seed": seed, "config_digest": config_digest,
               "inputs": inputs, "outputs": outputs}
    path.write_text(canonical_json(payload) + "\n", encoding="utf-8")


def _read_stamp(path: Path) -> dict:
    """A stamp as _write_stamp wrote it; anything else is a corrupt artifact."""
    return read_json_object(path, "stamp", {"outputs": dict})


def _read_report(path: Path) -> dict:
    return read_json_object(path, "report", {"metadata": dict})


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def _build_datasets(cfg: ExperimentConfig, seed: int) -> dict[str, Dataset]:
    split = split_classes(cfg.dataset.num_classes, cfg.dataset.num_novel, seed)
    return {
        "base-train": build_base_dataset(cfg.dataset, split,
                                         subseed(seed, _DS_TAGS["base-train"])),
        "kshot": build_kshot_dataset(cfg.dataset, split, cfg.dataset.shots,
                                     subseed(seed, _DS_TAGS["kshot"])),
        "test": build_test_dataset(cfg.dataset, split,
                                   subseed(seed, _DS_TAGS["test"])),
        "uar-eval": build_base_dataset(cfg.dataset, split,
                                       subseed(seed, _DS_TAGS["uar-eval"]),
                                       num_images=cfg.dataset.uar_eval_images),
    }


def _run_gen(cfg: ExperimentConfig, seed: int, paths: RunPaths, up: dict) -> dict:
    built = _build_datasets(cfg, seed)
    return {name: save_dataset(built[name], paths.dataset_dir(name)) for name in DATASET_NAMES}


def _run_pretrain(cfg: ExperimentConfig, seed: int, paths: RunPaths, up: dict) -> dict:
    dataset = load_dataset(paths.dataset_dir("base-train"))
    model, log = pretrain(dataset, cfg, seed)
    paths.checkpoint("base").parent.mkdir(parents=True, exist_ok=True)
    digest = save_checkpoint(model, paths.checkpoint("base"))
    log.save(paths.train_log("pretrain"))
    return {"base": digest}


def _run_finetune(cfg: ExperimentConfig, seed: int, paths: RunPaths, up: dict) -> dict:
    base = load_checkpoint(paths.checkpoint("base"))
    if base.stage != STAGE_BASE:
        raise StalenessError(
            f"expected a pretrained checkpoint, found stage {base.stage!r}")
    dataset = load_dataset(paths.dataset_dir("kshot"))
    model, log = finetune(base, dataset, cfg, seed)
    digest = save_checkpoint(model, paths.checkpoint("retentive"))
    log.save(paths.train_log("finetune"))
    return {"retentive": digest}


def _evaluate_models(cfg: ExperimentConfig, seed: int, paths: RunPaths, up: dict) -> dict:
    base = load_checkpoint(paths.checkpoint("base"))
    model = load_checkpoint(paths.checkpoint("retentive"))
    if model.stage != STAGE_RETENTIVE:
        raise StalenessError(f"expected an adapted checkpoint, found stage {model.stage!r}")
    subset_digests = {"base": base.base_subset_digest(), "retentive": model.base_subset_digest()}
    if (subset_digests["base"] != subset_digests["retentive"]
            or (base.feat_seed, base.mcfg) != (model.feat_seed, model.mcfg)):
        raise StalenessError(
            f"{paths.checkpoint('retentive')} does not share the frozen arrays of "
            f"{paths.checkpoint('base')}")
    test_ds = load_dataset(paths.dataset_dir("test"))
    uar_ds = load_dataset(paths.dataset_dir("uar-eval"))
    dcfg = cfg.detect
    ecfg = cfg.eval

    def infer(ds, with_gt: bool):
        """Both detectors and every strategy's proposals from one frozen path per
        image (the frozen arrays are shared, checked above): one forward, one
        RPN evaluation and one roi_pool call over both detectors' proposals.
        With with_gt, that call also pools each image's ground-truth boxes,
        whose rows come back per image."""
        ret, bas, gt_rows = [], [], []
        props = {s: [] for s in RPN_STRATEGIES}
        for img, rec in zip(ds.images, ds.records):
            fwd = image_forward(model, img)
            per = strategy_proposals(model, fwd, dcfg, RPN_STRATEGIES)
            for s in RPN_STRATEGIES:
                props[s].append(per[s])
            (mine, theirs), rows = pool_proposals(
                model, fwd, [per[model.rpn_strategy], per["base-only"]],
                rec.gt.boxes if with_gt else np.empty((0, 4)))
            ret.append(detect(model, img, dcfg, mine))
            bas.append(detect_base(base, img, dcfg, theirs))
            gt_rows.append(rows)
        return ret, bas, props, gt_rows

    ret_dets_test, base_dets_test, props_test, gt_rows = infer(test_ds, with_gt=True)
    norms = roi_feature_norms(base, test_ds, gt_rows)
    del gt_rows
    ret_dets_uar, base_dets_uar, props_uar, _ = infer(uar_ds, with_gt=False)

    # recall key template, candidates, their dataset, instance filter
    recall_rows = [
        ("ar@{k}", detections_to_candidates(ret_dets_test), test_ds, "all"),
        ("uar@{k}", detections_to_candidates(ret_dets_uar), uar_ds, "unseen"),
        ("base_detection_uar@{k}", detections_to_candidates(base_dets_uar), uar_ds, "unseen"),
    ] + [(f"proposal_{name}@{{k}}:{s}", proposals_to_candidates(props[s]), ds, group)
         for s in RPN_STRATEGIES
         for name, props, ds, group in (("ar", props_test, test_ds, "all"),
                                        ("uar", props_uar, uar_ds, "unseen"))]
    recall = {key.format(k=k): value
              for key, cand, ds, group in recall_rows
              for k, value in average_recall(cand, ds.records, ecfg.recall_ks,
                                             ecfg.recall_iou, group).items()}

    base_table = ap_table(base_dets_test, test_ds, ecfg.iou_thresholds)
    baseline = ap_summary(base_table, test_ds.split, ecfg.iou_thresholds)
    metadata = {
        "seed": seed,
        "config_digest": cfg.digest(),
        "dataset_digests": {n: up[n] for n in DATASET_NAMES},
        "checkpoint_digests": {"base": up["base"], "retentive": up["retentive"]},
        "base_subset_digests": subset_digests,
        "rpn_strategy": model.rpn_strategy,
        "classifier": model.classifier,
        "head_domain": model.head_domain,
    }
    report = build_report(ret_dets_test, test_ds, ecfg.iou_thresholds, recall,
                          norms, metadata=metadata, baseline_summary=baseline)
    emit_report(report, paths.eval_dir())
    return {"report": _report_digest_on_disk(paths)}


# stage -> (upstream outputs it reads, its outputs as found on disk, its runner);
# output names are unique across stages, so upstream outputs share one dict
_PIPELINE = {
    "gen": ((), lambda paths: {n: _dataset_digest_on_disk(paths.dataset_dir(n))
                               for n in DATASET_NAMES}, _run_gen),
    "pretrain": (("base-train",),
                 lambda paths: {"base": verify_checkpoint(paths.checkpoint("base"))},
                 _run_pretrain),
    "finetune": (("kshot", "base"),
                 lambda paths: {"retentive": verify_checkpoint(paths.checkpoint("retentive"))},
                 _run_finetune),
    "eval": (("test", "uar-eval", "base", "retentive"),
             lambda paths: {"report": _report_digest_on_disk(paths)}, _evaluate_models),
}
STAGES = tuple(_PIPELINE)


def _checked_stages(stages) -> tuple[str, ...]:
    stages = tuple(stages)
    for s in stages:
        if s not in _PIPELINE:
            raise ConfigError(f"unknown stage {s!r}; expected subset of {STAGES}")
    return stages


def _verified(paths: RunPaths, stage: str, config_digest: str, inputs: dict,
              on_disk) -> dict:
    """A stamped stage's outputs, once its config, inputs and files all agree."""
    stamp = _read_stamp(paths.stamp(stage))
    if stamp.get("config_digest") != config_digest:
        raise StalenessError(
            f"{stage}: artifacts in {paths.root} were produced under a different "
            f"configuration; use a fresh output directory")
    if stamp.get("inputs") != inputs:
        raise StalenessError(f"{stage}: recorded inputs no longer match upstream artifacts")
    if on_disk(paths) != stamp["outputs"]:
        raise StalenessError(
            f"{stage}: outputs on disk do not match what the {stage} stamp recorded")
    return stamp["outputs"]


def _walk(cfg: ExperimentConfig, seed: int, paths: RunPaths, run: tuple[str, ...],
          last: str) -> dict:
    """Every stage through `last` in order: a stamped one is verified, one in
    `run` without a stamp runs and is stamped, and any other stops the walk."""
    config_digest = cfg.digest()
    up: dict[str, str] = {}
    done: dict[str, dict] = {}
    for stage in STAGES[:STAGES.index(last) + 1]:
        reads, on_disk, runner = _PIPELINE[stage]
        inputs = {n: up[n] for n in reads}
        if paths.stamp(stage).exists():
            outputs = _verified(paths, stage, config_digest, inputs, on_disk)
        elif stage in run:
            outputs = runner(cfg, seed, paths, up)
            _write_stamp(paths.stamp(stage), stage, seed, config_digest, inputs, outputs)
        else:
            raise StalenessError(
                f"stage {stage!r} has not been run for seed {seed}; run it first")
        up.update(outputs)
        done[stage] = outputs
    return done


def run_experiment(cfg: ExperimentConfig, seed: int, out_root,
                   stages=STAGES) -> dict:
    """Execute the requested stages for one seed, reusing intact artifacts."""
    stages = _checked_stages(stages)
    cfg.validate()
    config_digest = cfg.digest()
    paths = RunPaths(out_root, seed)
    paths.root.mkdir(parents=True, exist_ok=True)
    cfg_blob = canonical_json({"config": cfg.to_dict(), "digest": config_digest,
                               "seed": seed}) + "\n"
    cfg_path = paths.root / "config.json"
    if not cfg_path.exists() or cfg_path.read_text(encoding="utf-8") != cfg_blob:
        cfg_path.write_text(cfg_blob, encoding="utf-8")
    if not stages:
        return {}
    done = _walk(cfg, seed, paths, stages, max(stages, key=STAGES.index))
    return {s: out for s, out in done.items() if s in stages}


# ---------------------------------------------------------------------------
# multirun aggregation
# ---------------------------------------------------------------------------

def _flatten_metrics(report: dict) -> dict[str, float]:
    out = dict(report.get("summary", {}))
    out.update((f"baseline_{k}", v) for k, v in report.get("baseline_summary", {}).items())
    out.update((k, v) for k, v in report.get("recall", {}).items() if v is not None)
    return out


def aggregate_metrics(per_seed: dict[int, dict[str, float]]) -> dict[str, dict]:
    """Mean and sample standard deviation per metric over sorted seeds."""
    names = sorted({k for vals in per_seed.values() for k in vals})
    table = {}
    for name in names:
        xs = [per_seed[s][name] for s in sorted(per_seed) if name in per_seed[s]]
        mean = float(np.mean(xs))
        std = float(np.std(xs, ddof=1)) if len(xs) >= 2 else None
        table[name] = {"mean": mean, "stddev": std, "n": len(xs)}
    return table


# errors that fail one seed of a multirun without stopping the others (a dead
# pool worker fails every seed still pending with BrokenProcessPool)
_SEED_FAILURES = (ConfigError, ParameterError, GenerationError, TrainingError, NumericError,
                  StalenessError, StateError, CorruptArtifactError, OSError, BrokenProcessPool)


def multirun(cfg: ExperimentConfig, seeds, out_root, stages=STAGES,
             workers: int = 1) -> dict:
    """Run every seed, then fold the per-seed reports into aggregate files."""
    seeds = list(seeds)
    if len(seeds) < 2:
        raise ConfigError(f"multirun needs at least 2 seeds, got {len(seeds)}")
    unique = sorted(set(seeds))
    failures: dict[int, str] = {}
    if workers > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(unique))) as pool:
            futs = {s: pool.submit(run_experiment, cfg, s, out_root, stages)
                    for s in unique}
            for s, fut in futs.items():
                try:
                    fut.result()
                except _SEED_FAILURES as exc:
                    failures[s] = f"{type(exc).__name__}: {exc}"
    else:
        for s in unique:
            try:
                run_experiment(cfg, s, out_root, stages)
            except _SEED_FAILURES as exc:
                failures[s] = f"{type(exc).__name__}: {exc}"

    per_seed: dict[int, dict[str, float]] = {}
    for s in seeds:
        report_path = RunPaths(out_root, s).eval_dir() / "report.json"
        if s not in failures and report_path.exists():
            per_seed[s] = _flatten_metrics(_read_report(report_path))
    aggregate = {
        "seeds": seeds,
        "config_digest": cfg.digest(),
        "incomplete": bool(failures) or len(per_seed) < len(set(seeds)),
        "failures": {str(s): msg for s, msg in sorted(failures.items())},
        "metrics": aggregate_metrics(per_seed) if per_seed else {},
    }
    out = Path(out_root)
    out.mkdir(parents=True, exist_ok=True)
    (out / "aggregate.json").write_text(canonical_json(aggregate) + "\n", encoding="utf-8")
    lines = ["metric,mean,stddev,n"]
    for name in sorted(aggregate["metrics"]):
        row = aggregate["metrics"][name]
        std = "" if row["stddev"] is None else repr(row["stddev"])
        lines.append(f"{name},{row['mean']!r},{std},{row['n']}")
    (out / "aggregate.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return aggregate


# ---------------------------------------------------------------------------
# ablation grid
# ---------------------------------------------------------------------------

# the finetune fields a command line sets by flag and an ablation varies by axis
_ABLATION_AXES = ("rpn_strategy", "consistency", "classifier", "head_domain")
_AXIS_RULE = Rule(str, False, (), _ABLATION_AXES)
_FINETUNE_RULES = field_rules(TrainConfig)


def ablation_cells(axes: dict[str, list[str]]):
    """Lazy cross product of the requested axis values, validated up front:
    each axis is one of _ABLATION_AXES, and each value meets its finetune
    field's rule."""
    for axis, values in axes.items():
        check_value("ablation axis", _AXIS_RULE, axis)
        for v in values:
            check_value(f"finetune.{axis}", _FINETUNE_RULES[axis], v)
    names = sorted(axes)
    for combo in itertools.product(*(axes[n] for n in names)):
        yield dict(zip(names, combo))


def _cell_name(cell: dict[str, str]) -> str:
    return ",".join(f"{k}={cell[k]}" for k in sorted(cell))


def run_ablation(cfg: ExperimentConfig, axes: dict[str, list[str]], seed: int,
                 out_root, stages=STAGES) -> dict:
    """Full pipeline per distinct cell config; rows collected into ablation.json/csv.

    A cell whose resolved config repeats an earlier cell's (novel-only heads
    force consistency off) shares that cell's metrics and gets no directory.
    """
    rows = []
    metrics: dict[str, dict] = {}
    for cell in ablation_cells(axes):
        cell_cfg = copy.deepcopy(cfg)
        for axis, value in cell.items():
            setattr(cell_cfg.finetune, axis, value)
        if cell_cfg.finetune.head_domain == "novel-only":
            cell_cfg.finetune.consistency = "off"
        cell_cfg.validate()
        digest = cell_cfg.digest()
        if digest not in metrics:
            cell_dir = Path(out_root) / _cell_name(cell)
            run_experiment(cell_cfg, seed, cell_dir, stages)
            report = _read_report(RunPaths(cell_dir, seed).eval_dir() / "report.json")
            metrics[digest] = _flatten_metrics(report)
        rows.append({"cell": cell, "config_digest": digest, "metrics": metrics[digest]})
    table = {"seed": seed, "rows": rows}
    out = Path(out_root)
    out.mkdir(parents=True, exist_ok=True)
    (out / "ablation.json").write_text(canonical_json(table) + "\n", encoding="utf-8")
    metric_names = sorted({m for r in rows for m in r["metrics"]})
    lines = ["cell," + ",".join(metric_names)]
    for r in rows:
        vals = [("" if m not in r["metrics"] else repr(r["metrics"][m]))
                for m in metric_names]
        lines.append(f"\"{_cell_name(r['cell'])}\"," + ",".join(vals))
    (out / "ablation.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return table


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, seeds: bool = False) -> None:
    p.add_argument("--config", type=Path, default=None, help="YAML overrides")
    p.add_argument("--out", type=Path, required=True, help="output directory")
    if seeds:
        p.add_argument("--seeds", type=str, required=True,
                       help="comma-separated seed list")
    else:
        p.add_argument("--seed", type=int, default=0)
    for axis in _ABLATION_AXES:
        p.add_argument("--" + axis.replace("_", "-"), choices=_FINETUNE_RULES[axis].choices,
                       default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="consistency loss weight")
    p.add_argument("--shots", type=int, default=None, help="instances per class")


# pipeline command -> (last stage of its default prefix, help)
_PIPELINE_COMMANDS = {
    "gen-data": ("gen", "generate and save the four datasets"),
    "pretrain": ("pretrain", "datasets plus the base-detector training stage"),
    "finetune": ("finetune", "everything through low-shot adaptation"),
    "eval": ("eval", "full pipeline ending in report artifacts"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="retentive",
        description="Few-shot detector that keeps its base-class behavior.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (_, help_text) in _PIPELINE_COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        p.add_argument("--stage", type=str, default=None,
                       help="comma list overriding the default stage prefix")

    p = sub.add_parser("detect", help="run inference and dump detections")
    _add_common(p)

    p = sub.add_parser("ablate", help="grid of finetune variants")
    _add_common(p)
    p.add_argument("--axes", type=str, required=True,
                   help="semicolon-separated axis=v1,v2 pairs, e.g. "
                        "rpn_strategy=max,base-only;consistency=kldiv,off")

    p = sub.add_parser("multirun", help="several seeds plus aggregate statistics")
    _add_common(p, seeds=True)

    p = sub.add_parser("report", help="print metrics from an existing run directory")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--seed", type=int, default=None)
    return parser


def _resolve_config(args) -> ExperimentConfig:
    cfg = load_config(args.config)
    if getattr(args, "shots", None) is not None:
        cfg.dataset.shots = args.shots
    if getattr(args, "lam", None) is not None:
        cfg.finetune.lam = args.lam
    for axis in _ABLATION_AXES:
        v = getattr(args, axis, None)
        if v is not None:
            setattr(cfg.finetune, axis, v)
    cfg.validate()
    return cfg


def _parse_stage_list(text: str | None, default: tuple[str, ...]) -> tuple[str, ...]:
    if text is None:
        return default
    return _checked_stages(s.strip() for s in text.split(",") if s.strip())


def _parse_axes(text: str) -> dict[str, list[str]]:
    axes: dict[str, list[str]] = {}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"axis spec {part!r} must look like name=v1,v2")
        name, values = (x.strip() for x in part.split("=", 1))
        if name in axes:
            raise ConfigError(f"axis {name!r} given twice")
        axes[name] = [v.strip() for v in values.split(",") if v.strip()]
        if not axes[name]:
            raise ConfigError(f"axis {name!r} has no values")
    if not axes:
        raise ConfigError("no ablation axes given")
    return axes


def _parse_seeds(text: str) -> list[int]:
    try:
        seeds = [int(s) for s in text.split(",") if s.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad seed list {text!r}") from exc
    if not seeds:
        raise ConfigError("empty seed list")
    return seeds


def _workers_from_env() -> int:
    raw = os.environ.get("RETENTIVE_THREADS", "1")
    try:
        n = int(raw)
    except ValueError as exc:
        raise ConfigError(f"RETENTIVE_THREADS must be an integer, got {raw!r}") from exc
    return max(1, n)


def _cmd_pipeline(args, command: str) -> int:
    cfg = _resolve_config(args)
    last = _PIPELINE_COMMANDS[command][0]
    stages = _parse_stage_list(args.stage, STAGES[:STAGES.index(last) + 1])
    run_experiment(cfg, args.seed, args.out, stages)
    print(f"{command}: seed {args.seed} complete in {Path(args.out) / f'seed-{args.seed}'}")
    return 0


def _cmd_detect(args) -> int:
    cfg = _resolve_config(args)
    paths = RunPaths(args.out, args.seed)
    ckpt = paths.checkpoint("retentive")
    if not ckpt.exists():
        raise StalenessError(f"no checkpoint at {ckpt}; run finetune for seed {args.seed} first")
    _walk(cfg, args.seed, paths, (), "finetune")
    model = load_checkpoint(ckpt)
    test_ds = load_dataset(paths.dataset_dir("test"))
    lines = []
    for i, img in enumerate(test_ds.images):
        dets = detect(model, img, cfg.detect)
        lines.append(canonical_json({
            "image": i,
            "boxes": [list(d.box) for d in dets],
            "classes": [d.class_id for d in dets],
            "scores": [d.score for d in dets],
            "heads": [d.source_head for d in dets],
        }))
    paths.detections().write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"detect: wrote {len(lines)} image records to {paths.detections()}")
    return 0


def _cmd_ablate(args) -> int:
    cfg = _resolve_config(args)
    axes = _parse_axes(args.axes)
    table = run_ablation(cfg, axes, args.seed, args.out)
    print(f"ablate: {len(table['rows'])} cells written to {Path(args.out) / 'ablation.json'}")
    return 0


def _cmd_multirun(args) -> int:
    cfg = _resolve_config(args)
    seeds = _parse_seeds(args.seeds)
    aggregate = multirun(cfg, seeds, args.out, workers=_workers_from_env())
    status = "incomplete" if aggregate["incomplete"] else "complete"
    print(f"multirun: {len(seeds)} seeds, {status}; aggregate in {Path(args.out)}")
    return 0 if not aggregate["incomplete"] else 3


def _cmd_report(args) -> int:
    out = Path(args.out)
    agg = out / "aggregate.json"
    if args.seed is None and agg.exists():
        data = read_json_object(agg, "aggregate", {"seeds": list, "incomplete": bool,
                                                    "metrics": dict})
        print(f"seeds: {data['seeds']}  incomplete: {data['incomplete']}")
        for name in sorted(data["metrics"]):
            row = data["metrics"][name]
            std = "n/a" if row["stddev"] is None else f"{row['stddev']:.6f}"
            print(f"{name:32s} mean {row['mean']:.6f}  stddev {std}  n {row['n']}")
        return 0
    seed = args.seed if args.seed is not None else 0
    report_path = RunPaths(out, seed).eval_dir() / "report.json"
    if not report_path.exists():
        raise StalenessError(f"no report at {report_path}")
    report = _read_report(report_path)
    print(f"seed {seed}  config {report['metadata'].get('config_digest', '')[:12]}")
    for section in ("summary", "baseline_summary"):
        for key in sorted(report.get(section, {})):
            print(f"{section}.{key:24s} {report[section][key]:.6f}")
    for key in sorted(report.get("recall", {})):
        val = report["recall"][key]
        if val is not None:
            print(f"recall.{key:32s} {val:.6f}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command in _PIPELINE_COMMANDS:
            return _cmd_pipeline(args, args.command)
        if args.command == "detect":
            return _cmd_detect(args)
        if args.command == "ablate":
            return _cmd_ablate(args)
        if args.command == "multirun":
            return _cmd_multirun(args)
        if args.command == "report":
            return _cmd_report(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, ParameterError, GenerationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TrainingError as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except (StalenessError, StateError, CorruptArtifactError, OSError) as exc:
        print(f"artifact error: {exc}", file=sys.stderr)
        return 4
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
