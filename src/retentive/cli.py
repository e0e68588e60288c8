"""Experiment orchestration: datasets, two-stage training, metrics, seeds.

Runs are laid out as one directory per seed. Every stage writes its outputs
plus a stamp file naming the configuration digest and the digests of the
inputs it consumed; a re-run with the same resolved configuration skips
stages whose stamps and outputs are intact. Every stage a command needs,
whether it runs or is only read from, is checked against its stamp before
use, and any digest disagreement
between what a stamp recorded and what is on disk stops the run instead of
silently recomputing or reusing mismatched artifacts. A command loads a
stage's training or evaluation code only when it runs or reads that stage.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import sys
import traceback
from contextlib import nullcontext
from hashlib import sha256
from pathlib import Path

import numpy as np

from .config import (
    ExperimentConfig,
    Rule,
    TrainConfig,
    canonical_json,
    check_value,
    field_rules,
    load_config,
    override,
    read_json_object,
    write_artifact,
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
from .synthgen import (
    build_base_dataset,
    build_kshot_dataset,
    build_test_dataset,
    dataset_digest,
    load_dataset,
    save_dataset,
    split_classes,
)
from .tensorops import subseed

_DS_TAGS = {
    "base-train": 0xD5B1,
    "kshot": 0xD5B2,
    "test": 0xD5B3,
    "uar-eval": 0xD5B4,
}
DATASET_NAMES = tuple(_DS_TAGS)


# ---------------------------------------------------------------------------
# run directory layout
# ---------------------------------------------------------------------------

def _check_seed(seed) -> None:
    """A seed is an integer in [0, 2**64), the keys the seeded draws admit;
    refused here, another seed is a config error before any directory exists."""
    if type(seed) is not int or not 0 <= seed < 2 ** 64:
        raise ConfigError(f"seed must be an integer in [0, 2**64), got {seed!r}")


class RunPaths:
    """The files of one seed's run; every command reaches a run directory here."""

    def __init__(self, out_root, seed: int):
        _check_seed(seed)
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


def _checkpoint_digest_on_disk(paths: RunPaths, name: str) -> str:
    from .trainer import verify_checkpoint

    return verify_checkpoint(paths.checkpoint(name))


def _report_digest_on_disk(paths: RunPaths) -> str:
    report = paths.eval_dir() / "report.json"
    if not report.exists():
        raise StalenessError(f"report missing at {report}")
    return sha256(report.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def _run_gen(cfg: ExperimentConfig, seed: int, paths: RunPaths, up: dict) -> None:
    write_artifact(paths.root / "config.json", canonical_json(
        {"config": cfg.to_dict(), "digest": cfg.digest(), "seed": seed}) + "\n")
    split = split_classes(cfg.dataset.num_classes, cfg.dataset.num_novel, seed)
    built = {
        "base-train": build_base_dataset(cfg.dataset, split,
                                         subseed(seed, _DS_TAGS["base-train"])),
        "kshot": build_kshot_dataset(cfg.dataset, split, subseed(seed, _DS_TAGS["kshot"])),
        "test": build_test_dataset(cfg.dataset, split,
                                   subseed(seed, _DS_TAGS["test"])),
        "uar-eval": build_base_dataset(cfg.dataset, split,
                                       subseed(seed, _DS_TAGS["uar-eval"]),
                                       num_images=cfg.dataset.uar_eval_images),
    }
    for name in DATASET_NAMES:
        save_dataset(built[name], paths.dataset_dir(name))


def _run_pretrain(cfg: ExperimentConfig, seed: int, paths: RunPaths, up: dict) -> None:
    from .trainer import pretrain, save_checkpoint

    dataset = load_dataset(paths.dataset_dir("base-train"))
    model, log = pretrain(dataset, cfg, seed)
    save_checkpoint(model, paths.checkpoint("base"))
    log.save(paths.train_log("pretrain"))


def _run_finetune(cfg: ExperimentConfig, seed: int, paths: RunPaths, up: dict) -> None:
    from .trainer import finetune, load_checkpoint, save_checkpoint

    base = load_checkpoint(paths.checkpoint("base"))
    dataset = load_dataset(paths.dataset_dir("kshot"))
    model, log = finetune(base, dataset, cfg, seed)
    save_checkpoint(model, paths.checkpoint("retentive"))
    log.save(paths.train_log("finetune"))


def _evaluate_models(cfg: ExperimentConfig, seed: int, paths: RunPaths, up: dict) -> None:
    from .evaluation import emit_report, evaluate
    from .trainer import load_checkpoint

    base = load_checkpoint(paths.checkpoint("base"))
    model = load_checkpoint(paths.checkpoint("retentive"))
    metadata = {"seed": seed, "config_digest": cfg.digest(),
                "dataset_digests": {n: up[n] for n in DATASET_NAMES},
                "checkpoint_digests": {"base": up["base"], "retentive": up["retentive"]}}
    test_ds = load_dataset(paths.dataset_dir("test"))
    uar_ds = load_dataset(paths.dataset_dir("uar-eval"))
    try:
        report = evaluate(base, model, test_ds, uar_ds, cfg, metadata)
    except StalenessError as exc:  # evaluate is given models; name their files
        raise StalenessError(f"{exc}: {paths.checkpoint('retentive')} and "
                             f"{paths.checkpoint('base')}") from exc
    emit_report(report, paths.eval_dir())


# stage -> (upstream outputs it reads, its outputs as found on disk, its runner);
# output names are unique across stages, so upstream outputs share one dict
_PIPELINE = {
    "gen": ((), lambda paths: {n: dataset_digest(paths.dataset_dir(n)) for n in DATASET_NAMES},
            _run_gen),
    "pretrain": (("base-train",),
                 lambda paths: {"base": _checkpoint_digest_on_disk(paths, "base")},
                 _run_pretrain),
    "finetune": (("kshot", "base"),
                 lambda paths: {"retentive": _checkpoint_digest_on_disk(paths, "retentive")},
                 _run_finetune),
    "eval": (("test", "uar-eval", "base", "retentive"),
             lambda paths: {"report": _report_digest_on_disk(paths)}, _evaluate_models),
}
STAGES = tuple(_PIPELINE)


def _read_stamp(paths: RunPaths, stage: str) -> dict:
    """A stage's stamp as _walk wrote it, once the outputs it records
    are the ones on disk; anything else is a corrupt or stale artifact."""
    stamp = read_json_object(paths.stamp(stage), "stamp",
                             {"config_digest": str, "inputs": dict, "outputs": dict})
    if _PIPELINE[stage][1](paths) != stamp["outputs"]:
        raise StalenessError(
            f"{stage}: outputs on disk do not match what the {stage} stamp recorded "
            f"in {paths.root}")
    return stamp


def _finished_run(paths: RunPaths) -> tuple[str, dict[str, float]]:
    """A seed's config digest and the metrics of the report its eval stamp recorded."""
    from .evaluation import report_metrics

    metrics = report_metrics(paths.eval_dir() / "report.json")
    return _read_stamp(paths, "eval")["config_digest"], metrics


def _verified(paths: RunPaths, stage: str, config_digest: str, inputs: dict) -> dict:
    """A stamped stage's outputs, once its files, config and inputs all agree."""
    stamp = _read_stamp(paths, stage)
    if stamp["config_digest"] != config_digest:
        raise StalenessError(
            f"{stage}: artifacts in {paths.root} were produced under a different "
            f"configuration; use a fresh output directory")
    if stamp["inputs"] != inputs:
        raise StalenessError(f"{stage}: recorded inputs no longer match upstream artifacts")
    return stamp["outputs"]


def _walk(cfg: ExperimentConfig, seed: int, paths: RunPaths, run: tuple[str, ...],
          last: str) -> None:
    """Every stage through `last` in order: a stamped one is verified, one in
    `run` without a stamp runs and is stamped with its outputs as its check
    reads them from disk, and any other stops the walk."""
    config_digest = cfg.digest()
    up: dict[str, str] = {}
    for stage in STAGES[:STAGES.index(last) + 1]:
        reads, on_disk, runner = _PIPELINE[stage]
        inputs = {n: up[n] for n in reads}
        if paths.stamp(stage).exists():
            outputs = _verified(paths, stage, config_digest, inputs)
        elif stage in run:
            runner(cfg, seed, paths, up)
            outputs = on_disk(paths)
            write_artifact(paths.stamp(stage), canonical_json(
                {"stage": stage, "seed": seed, "config_digest": config_digest,
                 "inputs": inputs, "outputs": outputs}) + "\n")
        else:
            raise StalenessError(
                f"stage {stage!r} has not been run for seed {seed}; run it first")
        up.update(outputs)


def run_experiment(cfg: ExperimentConfig, seed: int, out_root, stages=STAGES) -> None:
    """Execute the requested stages for one seed, reusing intact artifacts."""
    stages = tuple(stages)
    if not stages:
        raise ConfigError("no stages given")
    for s in stages:
        if s not in _PIPELINE:
            raise ConfigError(f"unknown stage {s!r}; expected subset of {STAGES}")
    _walk(cfg, seed, RunPaths(out_root, seed), stages, max(stages, key=STAGES.index))


# ---------------------------------------------------------------------------
# multirun and ablation: one runner, one table writer
# ---------------------------------------------------------------------------

def aggregate_metrics(per_seed: dict[int, dict[str, float]]) -> dict[str, dict]:
    """Mean and sample standard deviation per metric over sorted seeds."""
    table = {}
    for name in sorted({k for vals in per_seed.values() for k in vals}):
        xs = [per_seed[s][name] for s in sorted(per_seed) if name in per_seed[s]]
        table[name] = {"mean": float(np.mean(xs)), "n": len(xs),
                       "stddev": float(np.std(xs, ddof=1)) if len(xs) >= 2 else None}
    return table


# package failure -> (message prefix, exit code); each prints one line
_FAILURES = (
    ((ConfigError, ParameterError, GenerationError), "config error", 2),
    ((TrainingError,), "training error", 3),
    ((NumericError,), "numeric error", 3),
    ((MemoryError,), "memory error", 3),
    ((StalenessError, StateError, CorruptArtifactError, OSError), "artifact error", 4),
)
_CODED_ERRORS = tuple(t for types, _, _ in _FAILURES for t in types)


def _run_units(units: dict, workers: int) -> dict:
    """run_experiment(*args) for each unit key -> args; on a process pool
    with more than one worker, in this process, in key order, with one.
    Returns the one-line reason of every unit that failed: a coded error, or
    BrokenProcessPool for every unit still pending when a pool worker dies."""
    import concurrent.futures
    from concurrent.futures.process import BrokenProcessPool

    failures = {}
    workers = min(workers, len(units))
    pool = concurrent.futures.ProcessPoolExecutor(workers) if workers > 1 else None
    with pool or nullcontext():
        calls = {k: pool.submit(run_experiment, *args).result if pool
                 else functools.partial(run_experiment, *args) for k, args in units.items()}
        for k, call in calls.items():
            try:
                call()
            except _CODED_ERRORS + (BrokenProcessPool,) as exc:
                failures[k] = f"{type(exc).__name__}: {exc}"
    return failures


def _write_table(out_root, stem: str, table: dict, rows: list[list]) -> None:
    """{stem}.json, the canonical JSON of table, and {stem}.csv, one line per
    row: a string cell as it is, None empty, a number as its repr."""
    write_artifact(Path(out_root) / f"{stem}.json", canonical_json(table) + "\n")
    write_artifact(Path(out_root) / f"{stem}.csv", *(
        ",".join(v if isinstance(v, str) else "" if v is None else repr(v) for v in r) + "\n"
        for r in rows))


def _check_distinct(what: str, items) -> None:
    """Each item at most once: a repeated seed or axis value would run one
    unit twice and count its metrics twice."""
    seen = set()
    for x in items:
        if x in seen:
            raise ConfigError(f"{what} {x!r} given twice")
        seen.add(x)


def _check_table(written: Path, unit: str, listed: dict, given: dict) -> None:
    """Every unit the table on disk lists (name -> config digest) is given again under
    that config: the table is rewritten whole, so it must not lose a row or mix configs."""
    for name, digest in listed.items():
        if name not in given:
            raise StalenessError(f"{written}: {unit} {name!r} is listed there but not given; "
                                 f"name every {unit} it lists, or use a fresh output directory")
        if given[name] != digest:
            raise StalenessError(f"{written}: {unit} {name!r} was run under a different "
                                 f"configuration; use a fresh output directory")


def _read_aggregate(path: Path) -> dict:
    """aggregate.json as multirun writes it: anything else is corrupt."""
    data = read_json_object(path, "aggregate", {"seeds": list, "incomplete": bool,
                                                "failures": dict, "config_digest": str})
    if not all(type(s) is int for s in data["seeds"]):
        raise CorruptArtifactError(f"aggregate {path} lists a seed that is not an integer")
    return data


def multirun(cfg: ExperimentConfig, seeds, out_root, workers: int) -> dict:
    """Run every seed, then fold the per-seed reports into aggregate files. An
    existing aggregate.json must share the config and list no other seed."""
    seeds = list(seeds)
    if len(seeds) < 2:
        raise ConfigError(f"multirun needs at least 2 seeds, got {len(seeds)}")
    for s in seeds:
        _check_seed(s)
    _check_distinct("seed", seeds)
    written = Path(out_root) / "aggregate.json"
    if written.exists():
        old = _read_aggregate(written)
        _check_table(written, "seed", dict.fromkeys(old["seeds"], old["config_digest"]),
                     dict.fromkeys(seeds, cfg.digest()))
    failures = _run_units({s: (cfg, s, out_root) for s in sorted(seeds)}, workers)
    metrics = aggregate_metrics({s: _finished_run(RunPaths(out_root, s))[1]
                                 for s in seeds if s not in failures})
    aggregate = {"seeds": seeds, "config_digest": cfg.digest(), "incomplete": bool(failures),
                 "failures": {str(s): msg for s, msg in sorted(failures.items())},
                 "metrics": metrics}
    _write_table(out_root, "aggregate", aggregate, [["metric", "mean", "stddev", "n"]] + [
        [name, metrics[name]["mean"], metrics[name]["stddev"], metrics[name]["n"]]
        for name in sorted(metrics)])
    return aggregate


# the finetune fields a command line sets by flag and an ablation varies by axis
_ABLATION_AXES = ("rpn_strategy", "consistency", "classifier", "head_domain")
_AXIS_RULE = Rule(str, False, (), _ABLATION_AXES)
_FINETUNE_RULES = field_rules(TrainConfig)


def ablation_cells(axes: dict[str, list[str]]):
    """Lazy cross product of the requested axis values, validated up front:
    each axis is one of _ABLATION_AXES, and each value meets its finetune
    field's rule and is given once."""
    for axis, values in axes.items():
        check_value("ablation axis", _AXIS_RULE, axis)
        _check_distinct(f"axis {axis!r} value", values)
        for v in values:
            check_value(f"finetune.{axis}", _FINETUNE_RULES[axis], v)
    names = sorted(axes)
    for combo in itertools.product(*(axes[n] for n in names)):
        yield dict(zip(names, combo))


def _cell_name(cell: dict[str, str]) -> str:
    return ",".join(f"{k}={cell[k]}" for k in sorted(cell))


def run_ablation(cfg: ExperimentConfig, axes: dict[str, list[str]], seed: int,
                 out_root, workers: int) -> dict:
    """Full pipeline per distinct cell config; rows collected into ablation.json/csv.

    Every cell's config is built and checked before any cell runs, and each
    row of an existing ablation.json must name a cell of this grid run under
    that cell's config. A cell whose resolved config repeats an earlier
    cell's (novel-only heads force consistency off) shares that cell's
    metrics and gets no directory. A cell that fails is listed under
    failures; it keeps empty metrics and marks the table incomplete. The
    other cells still run.
    """
    _check_seed(seed)
    cells, units = [], {}  # (cell, config digest) in grid order; digest -> run_experiment args
    for cell in ablation_cells(axes):
        finetune = dict(cell)
        if cell.get("head_domain", cfg.finetune.head_domain) == "novel-only":
            finetune["consistency"] = "off"
        cell_cfg = override(cfg, {"finetune": finetune})
        digest = cell_cfg.digest()
        cells.append((cell, digest))
        units.setdefault(digest, (cell_cfg, seed, Path(out_root) / _cell_name(cell)))
    written = Path(out_root) / "ablation.json"
    old = read_json_object(written, "ablation", {"rows": list})["rows"] if written.exists() else []
    if not all(isinstance(r, dict) and isinstance(r.get("cell"), dict)
               and isinstance(r.get("config_digest"), str) for r in old):
        raise CorruptArtifactError(
            f"ablation {written} holds a row without a cell or config digest")
    _check_table(written, "cell", {_cell_name(r["cell"]): r["config_digest"] for r in old},
                 {_cell_name(cell): digest for cell, digest in cells})
    failures = _run_units(units, workers)
    metrics = {d: _finished_run(RunPaths(cell_dir, seed))[1]
               for d, (_, _, cell_dir) in units.items() if d not in failures}
    rows = [{"cell": cell, "config_digest": d, "metrics": metrics.get(d, {})} for cell, d in cells]
    table = {"seed": seed, "rows": rows, "incomplete": bool(failures),
             "failures": {_cell_name(r["cell"]): failures[r["config_digest"]]
                          for r in rows if r["config_digest"] in failures}}
    names = sorted({m for r in rows for m in r["metrics"]})
    _write_table(out_root, "ablation", table, [["cell"] + names] + [
        [f"\"{_cell_name(r['cell'])}\""] + [r["metrics"].get(m) for m in names]
        for r in rows])
    return table


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An argument error is one config error line, not a usage block and exit 2."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


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
    parser = _Parser(
        prog="retentive",
        description="Few-shot detector that keeps its base-class behavior.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (_, help_text) in _PIPELINE_COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        p.add_argument("--stage", dest="stages", type=str, default=None,
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
    """The --config file with the flags that were given laid over it."""
    given = {k: v for k, v in vars(args).items() if v is not None}
    flags = {"dataset": ("shots",), "finetune": ("lam",) + _ABLATION_AXES}  # _add_common's flags
    return override(load_config(args.config), {
        section: {k: given[k] for k in names if k in given} for section, names in flags.items()})


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
    stages = STAGES[:STAGES.index(last) + 1] if args.stages is None else [
        s.strip() for s in args.stages.split(",") if s.strip()]
    run_experiment(cfg, args.seed, args.out, stages)
    print(f"{command}: seed {args.seed} complete in {Path(args.out) / f'seed-{args.seed}'}")
    return 0


def _cmd_detect(args) -> int:
    from .detector import detect
    from .trainer import load_checkpoint

    cfg = _resolve_config(args)
    paths = RunPaths(args.out, args.seed)
    _walk(cfg, args.seed, paths, (), "finetune")
    model = load_checkpoint(paths.checkpoint("retentive"))
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
    write_artifact(paths.detections(), "\n".join(lines) + "\n")
    print(f"detect: wrote {len(lines)} image records to {paths.detections()}")
    return 0


def _finished(command: str, units: str, table: dict, path: Path) -> int:
    """One status line for a multirun or ablation; exit 3 if it is incomplete."""
    status = "incomplete" if table["incomplete"] else "complete"
    print(f"{command}: {units}, {status}; written to {path}")
    return 3 if table["incomplete"] else 0


def _cmd_ablate(args) -> int:
    table = run_ablation(_resolve_config(args), _parse_axes(args.axes), args.seed, args.out,
                         workers=_workers_from_env())
    return _finished("ablate", f"{len(table['rows'])} cells", table,
                     Path(args.out) / "ablation.json")


def _cmd_multirun(args) -> int:
    cfg = _resolve_config(args)
    seeds = _parse_seeds(args.seeds)
    aggregate = multirun(cfg, seeds, args.out, workers=_workers_from_env())
    return _finished("multirun", f"{len(seeds)} seeds", aggregate,
                     Path(args.out) / "aggregate.json")


def _cmd_report(args) -> int:
    """A multirun's finished seeds, or one seed, aggregated from the reports their
    eval stamps recorded: one row per metric, as aggregate_metrics makes it."""
    agg = Path(args.out) / "aggregate.json"
    if args.seed is None and agg.exists():
        data = _read_aggregate(agg)
        runs = {s: _finished_run(RunPaths(args.out, s)) for s in data["seeds"]
                if str(s) not in data["failures"]}
        _check_table(agg, "seed", dict.fromkeys(runs, data["config_digest"]),
                     {s: digest for s, (digest, _) in runs.items()})
        print(f"seeds: {data['seeds']}  incomplete: {data['incomplete']}")
    else:
        seed = 0 if args.seed is None else args.seed
        runs = {seed: _finished_run(RunPaths(args.out, seed))}
        print(f"seed {seed}  config {runs[seed][0][:12]}")
    metrics = aggregate_metrics({s: m for s, (_, m) in runs.items()})
    for name in sorted(metrics):
        row = metrics[name]
        std = "n/a" if row["stddev"] is None else f"{row['stddev']:.6f}"
        print(f"{name:32s} mean {row['mean']:.6f}  stddev {std}  n {row['n']}")
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command in _PIPELINE_COMMANDS:
            return _cmd_pipeline(args, args.command)
        return {"detect": _cmd_detect, "ablate": _cmd_ablate, "multirun": _cmd_multirun,
                "report": _cmd_report}[args.command](args)
    except _CODED_ERRORS as exc:
        prefix, code = next((p, c) for types, p, c in _FAILURES if isinstance(exc, types))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
