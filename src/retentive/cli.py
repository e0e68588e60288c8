"""Experiment orchestration: datasets, two-stage training, metrics, seeds.

Runs are laid out as one directory per seed. Every stage writes its outputs
plus a stamp file naming the configuration digest and the digests of the
inputs it consumed; a re-run with the same resolved configuration skips
stages whose stamps and outputs are intact, and any digest disagreement
between what a stamp recorded and what is on disk stops the run instead of
silently recomputing or reusing mismatched artifacts.
"""

from __future__ import annotations

import argparse
import copy
import itertools
import json
import os
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from hashlib import sha256
from pathlib import Path

import numpy as np

from .config import (
    CLASSIFIER_KINDS,
    CONSISTENCY_VARIANTS,
    HEAD_DOMAINS,
    RPN_STRATEGIES,
    ExperimentConfig,
    canonical_json,
    load_config,
)
from .detector import (
    STAGE_BASE,
    STAGE_RETENTIVE,
    detect,
    detect_base,
    forward_proposals,
    image_forward,
)
from .errors import (
    ConfigError,
    CorruptArtifactError,
    GenerationError,
    ParameterError,
    StalenessError,
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

STAGES = ("gen", "pretrain", "finetune", "eval")
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
    return _read_object(manifest, "manifest", {"digest": str})["digest"]


def _write_stamp(path: Path, stage: str, seed: int, config_digest: str,
                 inputs: dict, outputs: dict) -> None:
    payload = {"stage": stage, "seed": seed, "config_digest": config_digest,
               "inputs": inputs, "outputs": outputs}
    path.write_text(canonical_json(payload) + "\n", encoding="utf-8")


def _read_object(path: Path, kind: str, fields: dict[str, type]) -> dict:
    """A JSON object holding the given typed fields; anything else is corrupt."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptArtifactError(f"{kind} {path} is unreadable: {exc}") from exc
    if not isinstance(data, dict) or not all(isinstance(data.get(k), t)
                                             for k, t in fields.items()):
        raise CorruptArtifactError(f"{kind} {path} does not hold a {kind} object")
    return data


def _read_stamp(path: Path) -> dict:
    """A stamp as _write_stamp wrote it; anything else is a corrupt artifact."""
    return _read_object(path, "stamp", {"outputs": dict})


def _read_report(path: Path) -> dict:
    return _read_object(path, "report", {"metadata": dict})


def _stamp_under(paths: RunPaths, stage: str, config_digest: str) -> dict:
    """An existing stage stamp, if written under this configuration."""
    stamp = _read_stamp(paths.stamp(stage))
    if stamp.get("config_digest") != config_digest:
        raise StalenessError(
            f"{stage}: artifacts in {paths.root} were produced under a different "
            f"configuration; use a fresh output directory")
    return stamp


def _upstream_outputs(paths: RunPaths, stage: str, seed: int, config_digest: str) -> dict:
    """A finished stage's recorded outputs, if made under this configuration."""
    if not paths.stamp(stage).exists():
        raise StalenessError(
            f"stage {stage!r} has not been run for seed {seed}; run it first")
    return _stamp_under(paths, stage, config_digest)["outputs"]


def _stage_guard(paths: RunPaths, stage: str, seed: int, config_digest: str,
                 inputs: dict, verify_outputs, runner) -> dict:
    """Skip a completed stage, run a fresh one, or stop on any mismatch."""
    stamp_path = paths.stamp(stage)
    if stamp_path.exists():
        stamp = _stamp_under(paths, stage, config_digest)
        if stamp.get("inputs") != inputs:
            raise StalenessError(
                f"{stage}: recorded inputs no longer match upstream artifacts")
        on_disk = verify_outputs()
        if on_disk != stamp.get("outputs"):
            raise StalenessError(
                f"{stage}: outputs on disk do not match what the stamp recorded")
        return stamp["outputs"]
    outputs = runner()
    _write_stamp(stamp_path, stage, seed, config_digest, inputs, outputs)
    return outputs


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


def _stage_gen(cfg: ExperimentConfig, seed: int, paths: RunPaths,
               config_digest: str) -> dict:
    def verify():
        return {name: _dataset_digest_on_disk(paths.dataset_dir(name))
                for name in DATASET_NAMES}

    def run():
        built = _build_datasets(cfg, seed)
        out = {}
        for name in DATASET_NAMES:
            save_dataset(built[name], paths.dataset_dir(name))
            out[name] = built[name].digest()
        return out

    return _stage_guard(paths, "gen", seed, config_digest, {}, verify, run)


def _stage_pretrain(cfg: ExperimentConfig, seed: int, paths: RunPaths,
                    config_digest: str, gen_out: dict) -> dict:
    inputs = {"base-train": gen_out["base-train"]}

    def verify():
        return {"base": verify_checkpoint(paths.checkpoint("base"))}

    def run():
        dataset = load_dataset(paths.dataset_dir("base-train"))
        model, log = pretrain(dataset, cfg, seed)
        paths.checkpoint("base").parent.mkdir(parents=True, exist_ok=True)
        digest = save_checkpoint(model, paths.checkpoint("base"))
        log.save(paths.train_log("pretrain"))
        return {"base": digest}

    return _stage_guard(paths, "pretrain", seed, config_digest, inputs, verify, run)


def _stage_finetune(cfg: ExperimentConfig, seed: int, paths: RunPaths,
                    config_digest: str, gen_out: dict, pre_out: dict) -> dict:
    inputs = {"kshot": gen_out["kshot"], "base": pre_out["base"]}

    def verify():
        return {"retentive": verify_checkpoint(paths.checkpoint("retentive"))}

    def run():
        base = load_checkpoint(paths.checkpoint("base"))
        if base.stage != STAGE_BASE:
            raise StalenessError(
                f"expected a pretrained checkpoint, found stage {base.stage!r}")
        dataset = load_dataset(paths.dataset_dir("kshot"))
        model, log = finetune(base, dataset, cfg, seed)
        digest = save_checkpoint(model, paths.checkpoint("retentive"))
        log.save(paths.train_log("finetune"))
        return {"retentive": digest}

    return _stage_guard(paths, "finetune", seed, config_digest, inputs, verify, run)


def _evaluate_models(cfg: ExperimentConfig, seed: int, paths: RunPaths,
                     gen_out: dict, pre_out: dict, ft_out: dict) -> dict:
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

    def infer(images, feats=None):
        """Both detectors and every strategy's proposals from one forward per image
        (the frozen arrays are shared, checked above); feats collects the maps."""
        ret, bas = [], []
        props = {s: [] for s in RPN_STRATEGIES}
        for img in images:
            fwd = image_forward(model, img)
            per = {s: forward_proposals(model, fwd, dcfg, s) for s in RPN_STRATEGIES}
            for s in RPN_STRATEGIES:
                props[s].append(per[s])
            ret.append(detect(model, img, dcfg, forward=fwd,
                              proposals=per.get(model.rpn_strategy)))
            bas.append(detect_base(base, img, dcfg, forward=fwd, proposals=per["base-only"]))
            if feats is not None:
                feats.append(fwd.feat)
        return ret, bas, props

    test_feats: list[np.ndarray] = []
    ret_dets_test, base_dets_test, props_test = infer(test_ds.images, test_feats)
    norms = roi_feature_norms(base, test_ds, test_feats)
    del test_feats
    ret_dets_uar, base_dets_uar, props_uar = infer(uar_ds.images)

    recall: dict[str, float | None] = {}
    iou = ecfg.recall_iou
    for k in ecfg.recall_ks:
        cand = detections_to_candidates(ret_dets_test)
        recall[f"ar@{k}"] = average_recall(cand, test_ds.records, k, iou, "all")
        cand = detections_to_candidates(ret_dets_uar)
        recall[f"uar@{k}"] = average_recall(cand, uar_ds.records, k, iou, "unseen")
        cand = detections_to_candidates(base_dets_uar)
        recall[f"base_detection_uar@{k}"] = average_recall(cand, uar_ds.records, k,
                                                           iou, "unseen")
        for s in RPN_STRATEGIES:
            cand = proposals_to_candidates(props_test[s])
            recall[f"proposal_ar@{k}:{s}"] = average_recall(cand, test_ds.records, k,
                                                            iou, "all")
            cand = proposals_to_candidates(props_uar[s])
            recall[f"proposal_uar@{k}:{s}"] = average_recall(cand, uar_ds.records, k,
                                                             iou, "unseen")

    base_table = ap_table(base_dets_test, test_ds, ecfg.iou_thresholds)
    baseline = ap_summary(base_table, test_ds.split, ecfg.iou_thresholds)
    metadata = {
        "seed": seed,
        "config_digest": cfg.digest(),
        "dataset_digests": dict(gen_out),
        "checkpoint_digests": {"base": pre_out["base"], "retentive": ft_out["retentive"]},
        "base_subset_digests": subset_digests,
        "rpn_strategy": model.rpn_strategy,
        "classifier": model.classifier,
        "head_domain": model.head_domain,
    }
    report = build_report(ret_dets_test, test_ds, ecfg.iou_thresholds, recall,
                          norms, metadata=metadata, baseline_summary=baseline)
    emit_report(report, paths.eval_dir())
    return {"report": _file_digest(paths.eval_dir() / "report.json")}


def _file_digest(path: Path) -> str:
    return sha256(path.read_bytes()).hexdigest()


def _stage_eval(cfg: ExperimentConfig, seed: int, paths: RunPaths,
                config_digest: str, gen_out: dict, pre_out: dict,
                ft_out: dict) -> dict:
    inputs = {
        "test": gen_out["test"],
        "uar-eval": gen_out["uar-eval"],
        "base": pre_out["base"],
        "retentive": ft_out["retentive"],
    }

    def verify():
        report = paths.eval_dir() / "report.json"
        if not report.exists():
            raise StalenessError(f"report missing at {report}")
        return {"report": _file_digest(report)}

    def run():
        return _evaluate_models(cfg, seed, paths, gen_out, pre_out, ft_out)

    return _stage_guard(paths, "eval", seed, config_digest, inputs, verify, run)


def run_experiment(cfg: ExperimentConfig, seed: int, out_root,
                   stages=STAGES) -> dict:
    """Execute the requested stages for one seed, reusing intact artifacts."""
    for s in stages:
        if s not in STAGES:
            raise ConfigError(f"unknown stage {s!r}; expected subset of {STAGES}")
    stages = tuple(s for s in STAGES if s in stages)
    cfg.validate()
    config_digest = cfg.digest()
    paths = RunPaths(out_root, seed)
    paths.root.mkdir(parents=True, exist_ok=True)
    cfg_blob = canonical_json({"config": cfg.to_dict(), "digest": config_digest,
                               "seed": seed}) + "\n"
    cfg_path = paths.root / "config.json"
    if not cfg_path.exists() or cfg_path.read_text(encoding="utf-8") != cfg_blob:
        cfg_path.write_text(cfg_blob, encoding="utf-8")

    done: dict[str, dict] = {}

    def need(stage: str) -> dict:
        if stage in done:
            return done[stage]
        return _upstream_outputs(paths, stage, seed, config_digest)

    for stage in stages:
        if stage == "gen":
            done["gen"] = _stage_gen(cfg, seed, paths, config_digest)
        elif stage == "pretrain":
            done["pretrain"] = _stage_pretrain(cfg, seed, paths, config_digest,
                                               need("gen"))
        elif stage == "finetune":
            done["finetune"] = _stage_finetune(cfg, seed, paths, config_digest,
                                               need("gen"), need("pretrain"))
        elif stage == "eval":
            done["eval"] = _stage_eval(cfg, seed, paths, config_digest, need("gen"),
                                       need("pretrain"), need("finetune"))
    return done


# ---------------------------------------------------------------------------
# multirun aggregation
# ---------------------------------------------------------------------------

def _flatten_metrics(report: dict) -> dict[str, float]:
    out = {}
    for key, val in report.get("summary", {}).items():
        out[key] = val
    for key, val in report.get("baseline_summary", {}).items():
        out[f"baseline_{key}"] = val
    for key, val in report.get("recall", {}).items():
        if val is not None:
            out[key] = val
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
_SEED_FAILURES = (ConfigError, ParameterError, GenerationError, TrainingError,
                  StalenessError, CorruptArtifactError, OSError, BrokenProcessPool)


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

_ABLATION_AXES = {
    "rpn_strategy": RPN_STRATEGIES,
    "consistency": CONSISTENCY_VARIANTS,
    "classifier": CLASSIFIER_KINDS,
    "head_domain": HEAD_DOMAINS,
}


def ablation_cells(axes: dict[str, list[str]]):
    """Lazy cross product of the requested axis values, validated up front."""
    for axis, values in axes.items():
        if axis not in _ABLATION_AXES:
            raise ConfigError(f"unknown ablation axis {axis!r}")
        for v in values:
            if v not in _ABLATION_AXES[axis]:
                raise ConfigError(f"{axis} value {v!r} not in {_ABLATION_AXES[axis]}")
    names = sorted(axes)
    for combo in itertools.product(*(axes[n] for n in names)):
        yield dict(zip(names, combo))


def _cell_name(cell: dict[str, str]) -> str:
    return ",".join(f"{k}={cell[k]}" for k in sorted(cell))


def run_ablation(cfg: ExperimentConfig, axes: dict[str, list[str]], seed: int,
                 out_root, stages=STAGES) -> dict:
    """Full pipeline per grid cell; rows collected into ablation.json/csv."""
    rows = []
    for cell in ablation_cells(axes):
        cell_cfg = copy.deepcopy(cfg)
        for axis, value in cell.items():
            setattr(cell_cfg.finetune, axis, value)
        if cell_cfg.finetune.head_domain == "novel-only":
            cell_cfg.finetune.consistency = "off"
        cell_cfg.validate()
        cell_dir = Path(out_root) / _cell_name(cell)
        run_experiment(cell_cfg, seed, cell_dir, stages)
        report_path = RunPaths(cell_dir, seed).eval_dir() / "report.json"
        report = _read_report(report_path)
        rows.append({"cell": cell, "config_digest": cell_cfg.digest(),
                     "metrics": _flatten_metrics(report)})
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
    p.add_argument("--rpn-strategy", choices=RPN_STRATEGIES, default=None)
    p.add_argument("--consistency", choices=CONSISTENCY_VARIANTS, default=None)
    p.add_argument("--classifier", choices=CLASSIFIER_KINDS, default=None)
    p.add_argument("--head-domain", choices=HEAD_DOMAINS, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="consistency loss weight")
    p.add_argument("--shots", type=int, default=None, help="instances per class")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="retentive",
        description="Few-shot detector that keeps its base-class behavior.")
    sub = parser.add_subparsers(dest="command", required=True)

    specs = {
        "gen-data": "generate and save the four datasets",
        "pretrain": "datasets plus the base-detector training stage",
        "finetune": "everything through low-shot adaptation",
        "eval": "full pipeline ending in report artifacts",
    }
    for name, help_text in specs.items():
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
    for axis in ("rpn_strategy", "consistency", "classifier", "head_domain"):
        v = getattr(args, axis, None)
        if v is not None:
            setattr(cfg.finetune, axis, v)
    cfg.validate()
    return cfg


_DEFAULT_PREFIX = {
    "gen-data": ("gen",),
    "pretrain": ("gen", "pretrain"),
    "finetune": ("gen", "pretrain", "finetune"),
    "eval": STAGES,
}


def _parse_stage_list(text: str | None, default: tuple[str, ...]) -> tuple[str, ...]:
    if text is None:
        return default
    stages = tuple(s.strip() for s in text.split(",") if s.strip())
    for s in stages:
        if s not in STAGES:
            raise ConfigError(f"unknown stage {s!r}; expected subset of {STAGES}")
    return stages


def _parse_axes(text: str) -> dict[str, list[str]]:
    axes: dict[str, list[str]] = {}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"axis spec {part!r} must look like name=v1,v2")
        name, values = part.split("=", 1)
        axes[name.strip()] = [v.strip() for v in values.split(",") if v.strip()]
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
    stages = _parse_stage_list(getattr(args, "stage", None), _DEFAULT_PREFIX[command])
    run_experiment(cfg, args.seed, args.out, stages)
    print(f"{command}: seed {args.seed} complete in {Path(args.out) / f'seed-{args.seed}'}")
    return 0


def _cmd_detect(args) -> int:
    cfg = _resolve_config(args)
    paths = RunPaths(args.out, args.seed)
    ckpt = paths.checkpoint("retentive")
    if not ckpt.exists():
        raise StalenessError(f"no checkpoint at {ckpt}; run finetune for seed {args.seed} first")
    recorded = _upstream_outputs(paths, "finetune", args.seed, cfg.digest())
    if verify_checkpoint(ckpt) != recorded.get("retentive"):
        raise StalenessError(f"{ckpt} is not the checkpoint the finetune stamp recorded")
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
        data = _read_object(agg, "aggregate", {"seeds": list, "incomplete": bool,
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
        if args.command in _DEFAULT_PREFIX:
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
    except (StalenessError, CorruptArtifactError, OSError) as exc:
        print(f"artifact error: {exc}", file=sys.stderr)
        return 4
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
