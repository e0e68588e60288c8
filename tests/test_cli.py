"""Pipeline orchestration tests: stamps, staleness, aggregation, exit codes."""

import concurrent.futures
import dataclasses
import json
import math
import os
import shutil
import struct
import warnings
from hashlib import sha256
from pathlib import Path

import numpy as np
import pytest
import yaml

from retentive import cli, config, errors
from retentive import detector as D
from retentive import trainer
from retentive.cli import (
    RunPaths,
    STAGES,
    _evaluate_models,
    _parse_axes,
    _parse_seeds,
    ablation_cells,
    aggregate_metrics,
    main,
    multirun,
    run_ablation,
    run_experiment,
)
from retentive.config import (
    MIN_GLYPH,
    RPN_STRATEGIES,
    DatasetConfig,
    DetectConfig,
    EvalConfig,
    ExperimentConfig,
    ModelConfig,
    Rule,
    TrainConfig,
    canonical_json,
    load_config,
    override,
    write_artifact,
)
from retentive.errors import ConfigError, CorruptCheckpointError, StalenessError
from retentive.synthgen import IMAGES_MAGIC, load_dataset
from retentive.trainer import load_checkpoint, save_checkpoint

TINY_YAML = """\
dataset:
  image_side: 48
  num_classes: 6
  num_novel: 2
  base_train_images: 6
  test_images: 3
  uar_eval_images: 6
  shots: 2
  min_instances: 2
  max_instances: 3
  min_glyph: 12
  max_glyph: 20
pretrain:
  max_iters: 25
  convergence_window: 8
finetune:
  max_iters: 12
  convergence_window: 4
"""


@pytest.fixture(scope="module")
def tiny_yaml(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "tiny.yaml"
    path.write_text(TINY_YAML, encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def tiny_cfg(tiny_yaml):
    return load_config(tiny_yaml)


@pytest.fixture(scope="module")
def finished_run(tiny_cfg, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    run_experiment(tiny_cfg, 3, out)
    return out


@pytest.fixture(scope="module")
def finished_multirun(tiny_yaml, tmp_path_factory):
    out = tmp_path_factory.mktemp("multirun")
    assert main(["multirun", "--config", str(tiny_yaml), "--seeds", "1,2", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def other_seed_run(tiny_cfg, tmp_path_factory):
    """Seed 4 through finetune: well-formed artifacts that seed 3's stamps did not record."""
    out = tmp_path_factory.mktemp("run4")
    run_experiment(tiny_cfg, 4, out, stages=("gen", "pretrain", "finetune"))
    return out


def _tree_state(root: Path) -> dict:
    return {str(p.relative_to(root)): (p.stat().st_mtime_ns, p.stat().st_size)
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_run_experiment_writes_expected_artifacts(finished_run):
    paths = RunPaths(finished_run, 3)
    for name in ("base-train", "kshot", "test", "uar-eval"):
        assert (paths.dataset_dir(name) / "manifest.json").exists()
        assert (paths.dataset_dir(name) / "images.bin").exists()
    assert paths.checkpoint("base").exists()
    assert paths.checkpoint("retentive").exists()
    assert paths.train_log("pretrain").exists()
    assert paths.train_log("finetune").exists()
    for stage in STAGES:
        assert paths.stamp(stage).exists()
    assert not list(finished_run.rglob("*.tmp"))  # every write moved its file into place
    report = json.loads((paths.eval_dir() / "report.json").read_text(encoding="utf-8"))
    assert "summary" in report and "baseline_summary" in report
    assert report["metadata"]["seed"] == 3
    assert set(report["metadata"]["checkpoint_digests"]) == {"base", "retentive"}


def test_dataset_seeds_are_distinct(finished_run):
    paths = RunPaths(finished_run, 3)
    digests = set()
    for name in ("base-train", "kshot", "test", "uar-eval"):
        manifest = json.loads((paths.dataset_dir(name) / "manifest.json")
                              .read_text(encoding="utf-8"))
        digests.add(manifest["digest"])
    assert len(digests) == 4


def test_rerun_skips_every_stage(tiny_cfg, finished_run):
    before = _tree_state(finished_run)
    run_experiment(tiny_cfg, 3, finished_run)
    assert _tree_state(finished_run) == before


def test_config_change_raises_staleness(tiny_cfg, finished_run):
    cfg = dataclasses.replace(tiny_cfg, dataset=dataclasses.replace(tiny_cfg.dataset, shots=3))
    with pytest.raises(StalenessError):
        run_experiment(cfg, 3, finished_run)


def test_tampered_output_raises_staleness(tiny_cfg, finished_run, tmp_path):
    import shutil
    clone = tmp_path / "clone"
    shutil.copytree(finished_run, clone)
    ckpt = RunPaths(clone, 3).checkpoint("retentive")
    data = bytearray(ckpt.read_bytes())
    data[-1] ^= 0xFF
    ckpt.write_bytes(bytes(data))
    with pytest.raises(CorruptCheckpointError, match="failed hash verification"):
        run_experiment(tiny_cfg, 3, clone)


def test_stage_without_upstream_raises(tiny_cfg, tmp_path):
    with pytest.raises(StalenessError):
        run_experiment(tiny_cfg, 3, tmp_path / "fresh", stages=("finetune",))


def test_unknown_stage_rejected(tiny_cfg, tmp_path):
    with pytest.raises(ConfigError):
        run_experiment(tiny_cfg, 3, tmp_path, stages=("gen", "deploy"))


def test_two_runs_bitwise_identical(tiny_cfg, finished_run, tmp_path):
    other = tmp_path / "other"
    run_experiment(tiny_cfg, 3, other)
    a, b = RunPaths(finished_run, 3), RunPaths(other, 3)
    for name in ("base", "retentive"):
        assert a.checkpoint(name).read_bytes() == b.checkpoint(name).read_bytes()
    assert ((a.eval_dir() / "report.json").read_bytes()
            == (b.eval_dir() / "report.json").read_bytes())


def test_gen_data_stage_only_builds_datasets(tiny_cfg, tmp_path):
    run_experiment(tiny_cfg, 5, tmp_path, stages=("gen",))
    paths = RunPaths(tmp_path, 5)
    assert paths.stamp("gen").exists()
    assert not paths.checkpoint("base").exists()
    assert not paths.stamp("pretrain").exists()


# ---------------------------------------------------------------------------
# multirun
# ---------------------------------------------------------------------------

def test_multirun_aggregate_matches_reports(tiny_cfg, tmp_path):
    out = tmp_path / "mr"
    agg = multirun(tiny_cfg, [11, 12], out, workers=1)
    assert not agg["incomplete"]
    per_seed = {}
    for s in (11, 12):
        report = json.loads((RunPaths(out, s).eval_dir() / "report.json")
                            .read_text(encoding="utf-8"))
        flat = dict(report["summary"])
        flat.update({f"baseline_{k}": v for k, v in report["baseline_summary"].items()})
        flat.update({k: v for k, v in report["recall"].items() if v is not None})
        per_seed[s] = flat
    for name, row in agg["metrics"].items():
        xs = [per_seed[s][name] for s in (11, 12) if name in per_seed[s]]
        assert abs(row["mean"] - float(np.mean(xs))) <= 1e-12
        if len(xs) >= 2:
            assert abs(row["stddev"] - float(np.std(xs, ddof=1))) <= 1e-12
        else:
            assert row["stddev"] is None
        assert row["n"] == len(xs)
    assert (out / "aggregate.json").exists()
    csv_lines = (out / "aggregate.csv").read_text(encoding="utf-8").strip().split("\n")
    assert csv_lines[0] == "metric,mean,stddev,n"
    assert len(csv_lines) == 1 + len(agg["metrics"])


def test_multirun_needs_two_seeds(tiny_cfg, tmp_path):
    with pytest.raises(ConfigError):
        multirun(tiny_cfg, [7], tmp_path, workers=1)


def test_multirun_rejects_a_repeated_seed(tiny_cfg, tmp_path):
    """[9, 9] would run one seed and aggregate it as two."""
    with pytest.raises(ConfigError, match="seed 9 given twice"):
        multirun(tiny_cfg, [9, 9], tmp_path, workers=1)
    assert not tmp_path.joinpath("seed-9").exists()


def test_multirun_repeated_seed_exits_2_and_writes_nothing(tiny_yaml, tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["multirun", "--config", str(tiny_yaml), "--seeds", "1,2,1",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: seed 1 given twice\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, seed", [
    (["multirun", "--seeds", "0,18446744073709551616"], 2 ** 64),
    (["gen-data", "--seed", "-1"], -1),
    (["ablate", "--seed", "18446744073709551616", "--axes", "rpn_strategy=max,base-only"],
     2 ** 64),
])
def test_a_seed_outside_64_bits_exits_2_and_writes_nothing(tiny_yaml, tmp_path, capsys,
                                                            argv, seed):
    """The seeded draws take a seed mod 2**64: 2**64 would rerun seed 0 and -1
    seed 2**64 - 1, each under another name."""
    out = tmp_path / "o"
    assert main(argv + ["--config", str(tiny_yaml), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: seed must be an integer in [0, 2**64), got {seed}\n")
    assert not out.exists()


def test_a_bool_is_not_a_seed(tiny_cfg, tmp_path):
    """True would name seed-True and draw as seed 1."""
    with pytest.raises(ConfigError, match=r"seed must be an integer in \[0, 2\*\*64\), got True"):
        run_experiment(tiny_cfg, True, tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_the_largest_seed_runs_gen(tiny_yaml, tmp_path):
    seed = 2 ** 64 - 1
    assert main(["gen-data", "--config", str(tiny_yaml), "--seed", str(seed),
                 "--out", str(tmp_path)]) == 0
    assert (RunPaths(tmp_path, seed).stamp("gen")).exists()


def test_multirun_failed_seed_marks_incomplete(tiny_cfg, tmp_path):
    out = tmp_path / "mr"
    # poison one seed dir with a stamp from a different configuration
    paths = RunPaths(out, 21)
    paths.root.mkdir(parents=True)
    paths.stamp("gen").write_text(json.dumps(
        {"stage": "gen", "seed": 21, "config_digest": "deadbeef",
         "inputs": {}, "outputs": {}}), encoding="utf-8")
    agg = multirun(tiny_cfg, [20, 21], out, workers=1)
    assert agg["incomplete"]
    assert "21" in agg["failures"]
    # the healthy seed still produced its full report
    assert (RunPaths(out, 20).eval_dir() / "report.json").exists()
    data = json.loads((out / "aggregate.json").read_text(encoding="utf-8"))
    assert data["incomplete"] is True


def test_multirun_workers_write_identical_bytes(tiny_cfg, tmp_path):
    runs = {w: tmp_path / f"workers-{w}" for w in (1, 2)}
    for w, out in runs.items():
        assert not multirun(tiny_cfg, [13, 14], out, workers=w)["incomplete"]
    assert ((runs[1] / "aggregate.json").read_bytes()
            == (runs[2] / "aggregate.json").read_bytes())
    for s in (13, 14):
        a, b = RunPaths(runs[1], s), RunPaths(runs[2], s)
        for name in ("base", "retentive"):
            assert a.checkpoint(name).read_bytes() == b.checkpoint(name).read_bytes()
        assert ((a.eval_dir() / "report.json").read_bytes()
                == (b.eval_dir() / "report.json").read_bytes())


def _table_bytes(out: Path, stem: str) -> dict[str, bytes]:
    return {name: (out / name).read_bytes() for name in (f"{stem}.json", f"{stem}.csv")}


@pytest.mark.parametrize("command, extra, stem", [
    ("multirun", ["--seeds", "0,1"], "aggregate"),
    ("ablate", ["--seed", "0", "--axes", "rpn_strategy=max"], "ablation"),
])
def test_run_under_another_config_exits_4_and_keeps_the_table(tiny_yaml, tmp_path, capsys,
                                                              command, extra, stem):
    out = tmp_path / "o"
    argv = [command, "--config", str(tiny_yaml), "--out", str(out)] + extra
    assert main(argv) == 0
    before, tree = _table_bytes(out, stem), _tree_state(out)
    capsys.readouterr()
    assert main(argv + ["--lambda", "0.5"]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"artifact error: {out / stem}.json")
    assert "different configuration" in err
    assert _table_bytes(out, stem) == before and _tree_state(out) == tree
    assert main(argv) == 0  # the same config still resumes
    assert _table_bytes(out, stem) == before


@pytest.mark.parametrize("command, first, second, missing", [
    ("multirun", ["--seeds", "0,1"], ["--seeds", "2,3"], "seed 0"),
    ("ablate", ["--seed", "0", "--axes", "rpn_strategy=max"],
     ["--seed", "0", "--axes", "rpn_strategy=base-only"], "cell 'rpn_strategy=max'"),
])
def test_run_that_leaves_out_a_listed_unit_exits_4_and_keeps_the_table(
        tiny_yaml, tmp_path, capsys, command, first, second, missing):
    """The table is rewritten whole from the command's units, so one that left
    out a unit the table lists would drop its row beside its run directory."""
    out = tmp_path / "o"
    argv = [command, "--config", str(tiny_yaml), "--out", str(out)]
    stem = "aggregate" if command == "multirun" else "ablation"
    assert main(argv + first) == 0
    before, tree = _table_bytes(out, stem), _tree_state(out)
    capsys.readouterr()
    assert main(argv + second) == 4
    assert capsys.readouterr().err == (
        f"artifact error: {out / stem}.json: {missing} is listed there but not given; "
        f"name every {missing.split()[0]} it lists, or use a fresh output directory\n")
    assert _table_bytes(out, stem) == before and _tree_state(out) == tree


@pytest.mark.parametrize("command, first, superset", [
    ("multirun", ["--seeds", "5,6"], ["--seeds", "7,6,5"]),
    ("ablate", ["--seed", "0", "--axes", "rpn_strategy=max"],
     ["--seed", "0", "--axes", "rpn_strategy=base-only,max"]),
])
def test_superset_rerun_resumes_the_listed_units_and_lists_every_unit(
        tiny_yaml, tmp_path, command, first, superset):
    out = tmp_path / "o"
    argv = [command, "--config", str(tiny_yaml), "--out", str(out)]
    assert main(argv + first) == 0
    ran = _tree_state(out)
    assert main(argv + superset) == 0
    after = _tree_state(out)
    assert all(after[k] == v for k, v in ran.items() if not k.startswith(("aggregate", "ablation")))
    if command == "multirun":
        table = json.loads((out / "aggregate.json").read_text(encoding="utf-8"))
        assert table["seeds"] == [7, 6, 5]
        assert {row["n"] for row in table["metrics"].values()} == {3}
    else:
        table = json.loads((out / "ablation.json").read_text(encoding="utf-8"))
        assert [r["cell"] for r in table["rows"]] == [{"rpn_strategy": "base-only"},
                                                       {"rpn_strategy": "max"}]
        assert all("ap" in r["metrics"] for r in table["rows"])


# ---------------------------------------------------------------------------
# interrupted writes
# ---------------------------------------------------------------------------

def test_write_artifact_whose_part_fails_leaves_the_old_bytes_or_no_file(tmp_path):
    path = tmp_path / "made" / "a.json"
    write_artifact(path, "old", b"\n")
    assert path.read_bytes() == b"old\n"
    with pytest.raises(UnicodeEncodeError):
        write_artifact(path, "new", "\ud800")  # a lone surrogate has no UTF-8 form
    assert path.read_bytes() == b"old\n"
    fresh = tmp_path / "b.bin"
    with pytest.raises(TypeError):
        write_artifact(fresh, b"new", 3)  # an int is not bytes-like
    assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == ["a.json"]


def _fail_replace_onto(monkeypatch, suffix: str) -> list:
    """os.replace raises OSError the first time its target ends with suffix;
    returns the list of targets it refused."""
    real, refused = os.replace, []

    def replace(src, dst):
        if str(dst).endswith(suffix) and not refused:
            refused.append(Path(dst))
            raise OSError(28, "No space left on device")
        return real(src, dst)

    monkeypatch.setattr(config.os, "replace", replace)
    return refused


def test_interrupted_stamp_write_exits_4_and_the_stage_runs_again(
        tiny_yaml, finished_run, tmp_path, monkeypatch, capsys):
    out = tmp_path / "o"
    argv = ["--config", str(tiny_yaml), "--seed", "3", "--out", str(out)]
    assert main(["gen-data"] + argv) == 0
    paths = RunPaths(out, 3)
    refused = _fail_replace_onto(monkeypatch, ".stamp.json")
    capsys.readouterr()
    assert main(["pretrain"] + argv) == 4
    err = capsys.readouterr().err
    assert refused == [paths.stamp("pretrain")]
    assert err.count("\n") == 1 and err.startswith("artifact error: ")
    assert not paths.stamp("pretrain").exists() and not list(out.rglob("*.tmp"))
    monkeypatch.undo()
    assert main(["pretrain"] + argv) == 0
    assert (paths.checkpoint("base").read_bytes()
            == RunPaths(finished_run, 3).checkpoint("base").read_bytes())


def test_failed_table_replace_keeps_the_previous_table(tiny_yaml, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("RETENTIVE_THREADS", raising=False)
    out = tmp_path / "o"
    argv = ["multirun", "--config", str(tiny_yaml), "--out", str(out)]
    assert main(argv + ["--seeds", "8,9"]) == 0
    before = _table_bytes(out, "aggregate")
    _fail_replace_onto(monkeypatch, "aggregate.json")
    capsys.readouterr()
    assert main(argv + ["--seeds", "8,9,10"]) == 4
    assert capsys.readouterr().err.startswith("artifact error: ")
    assert _table_bytes(out, "aggregate") == before
    assert not list(out.glob("aggregate.*.tmp"))


def _die_on_seed_31(cfg, seed, out_root):
    """Stands in for run_experiment in a pool worker: seed 31's worker dies,
    and any other seed runs, so one that finishes first leaves its report."""
    if seed == 31:
        os._exit(1)
    return run_experiment(cfg, seed, out_root)


def test_multirun_dead_worker_is_a_failed_seed(tiny_yaml, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("RETENTIVE_THREADS", "2")
    monkeypatch.setattr(cli, "run_experiment", _die_on_seed_31)
    out = tmp_path / "mr"
    assert main(["multirun", "--config", str(tiny_yaml), "--seeds", "30,31",
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err == ""
    data = json.loads((out / "aggregate.json").read_text(encoding="utf-8"))
    assert data["incomplete"] is True
    assert data["failures"]["31"].startswith("BrokenProcessPool")


HOT_PRETRAIN_YAML = TINY_YAML.replace("pretrain:\n", "pretrain:\n  lr: 1.0e+3\n")


def test_numeric_error_exits_3_with_one_line(tmp_path, capsys):
    """A pretrain lr of 1e3 leaves a base head with no base-class mass; the
    finetune's consistency term stops on it with a NumericError."""
    cfg = tmp_path / "hot.yaml"
    cfg.write_text(HOT_PRETRAIN_YAML, encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["finetune", "--config", str(cfg), "--seed", "3",
                     "--out", str(tmp_path / "o")])
    assert code == 3
    # numpy's warnings (box decoding overflows under such weights) would
    # print before the message outside pytest
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == "numeric error: a probability row has no base-class mass\n"


def test_multirun_numeric_error_is_a_failed_seed(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("RETENTIVE_THREADS", raising=False)
    cfg = tmp_path / "hot.yaml"
    cfg.write_text(HOT_PRETRAIN_YAML, encoding="utf-8")
    out = tmp_path / "mr"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["multirun", "--config", str(cfg), "--seeds", "0,1", "--out", str(out)])
    assert code == 3
    assert [str(w.message) for w in caught] == []
    assert "Traceback" not in capsys.readouterr().err
    data = json.loads((out / "aggregate.json").read_text(encoding="utf-8"))
    assert data["incomplete"] is True
    assert data["failures"]["0"].startswith("NumericError")
    # the failed seed did not stop the next one
    assert RunPaths(out, 1).stamp("pretrain").exists()


_PACKAGE_ERRORS = sorted(
    (c for c in vars(errors).values()
     if isinstance(c, type) and issubclass(c, Exception) and c.__module__ == errors.__name__),
    key=lambda c: c.__name__)


@pytest.mark.parametrize("exc_type", _PACKAGE_ERRORS + [MemoryError], ids=lambda c: c.__name__)
def test_every_package_error_exits_with_a_code_and_one_line(exc_type, tmp_path, monkeypatch,
                                                            capsys):
    def fail(args, command):
        raise exc_type("injected failure")

    monkeypatch.setattr(cli, "_cmd_pipeline", fail)
    assert main(["gen-data", "--seed", "1", "--out", str(tmp_path / "o")]) in (2, 3, 4)
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.rstrip("\n").endswith("injected failure")
    assert issubclass(exc_type, cli._CODED_ERRORS)


def test_memory_error_exits_3_with_one_line(tmp_path, monkeypatch, capsys):
    def exhausted(*args):
        raise MemoryError("Unable to allocate 7.5 TiB for an array")

    monkeypatch.setattr(cli, "run_experiment", exhausted)
    assert main(["gen-data", "--seed", "1", "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == "memory error: Unable to allocate 7.5 TiB for an array\n"


def test_multirun_memory_error_is_a_failed_seed(tiny_cfg, tmp_path, monkeypatch):
    def exhausted_on_seed_41(cfg, seed, out_root):
        if seed == 41:
            raise MemoryError("Unable to allocate 7.5 TiB for an array")
        return run_experiment(cfg, seed, out_root)

    monkeypatch.setattr(cli, "run_experiment", exhausted_on_seed_41)
    agg = multirun(tiny_cfg, [40, 41], tmp_path, workers=1)
    assert agg["incomplete"]
    assert agg["failures"] == {"41": "MemoryError: Unable to allocate 7.5 TiB for an array"}
    assert (RunPaths(tmp_path, 40).eval_dir() / "report.json").exists()


def test_aggregate_metrics_hand_values():
    table = aggregate_metrics({1: {"m": 2.0, "only": 5.0}, 2: {"m": 4.0}})
    assert table["m"]["mean"] == pytest.approx(3.0, abs=1e-15)
    assert table["m"]["stddev"] == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert table["m"]["n"] == 2
    assert table["only"]["n"] == 1 and table["only"]["stddev"] is None


# ---------------------------------------------------------------------------
# ablation
# ---------------------------------------------------------------------------

def test_ablation_cells_cross_product():
    cells = list(ablation_cells({"rpn_strategy": ["max", "base-only"],
                                 "consistency": ["kldiv", "off"]}))
    assert len(cells) == 4
    assert {tuple(sorted(c.items())) for c in cells} == {
        (("consistency", "kldiv"), ("rpn_strategy", "max")),
        (("consistency", "kldiv"), ("rpn_strategy", "base-only")),
        (("consistency", "off"), ("rpn_strategy", "max")),
        (("consistency", "off"), ("rpn_strategy", "base-only")),
    }


def test_ablation_rejects_unknown_axis_and_value():
    with pytest.raises(ConfigError):
        list(ablation_cells({"optimizer": ["sgd"]}))
    with pytest.raises(ConfigError):
        list(ablation_cells({"rpn_strategy": ["mean"]}))


def test_ablation_reports_a_bad_axis_or_value_in_the_config_form():
    with pytest.raises(ConfigError, match=r"^ablation axis must be one of 'rpn_strategy', "
                                          r"'consistency', 'classifier', 'head_domain', "
                                          r"got 'optimizer'$"):
        list(ablation_cells({"optimizer": ["sgd"]}))
    with pytest.raises(ConfigError, match=r"^finetune\.head_domain must be one of 'all', "
                                          r"'novel-only', got 'base'$"):
        list(ablation_cells({"rpn_strategy": ["max"], "head_domain": ["all", "base"]}))
    with pytest.raises(ConfigError, match=r"^axis 'rpn_strategy' value 'max' given twice$"):
        list(ablation_cells({"rpn_strategy": ["max", "base-only", "max"]}))


def test_run_ablation_distinct_digests(tiny_cfg, tmp_path):
    table = run_ablation(tiny_cfg, {"rpn_strategy": ["max", "base-only"]}, 3, tmp_path, workers=1)
    assert len(table["rows"]) == 2
    digests = {r["config_digest"] for r in table["rows"]}
    assert len(digests) == 2
    assert (tmp_path / "ablation.json").exists()
    assert (tmp_path / "ablation.csv").exists()
    for row in table["rows"]:
        cell_dir = tmp_path / ",".join(f"{k}={v}" for k, v in sorted(row["cell"].items()))
        assert (RunPaths(cell_dir, 3).eval_dir() / "report.json").exists()


def test_ablation_runs_each_distinct_config_once(tiny_cfg, tmp_path, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return run_experiment(*args)

    monkeypatch.setattr(cli, "run_experiment", counted)
    table = run_ablation(tiny_cfg, {"head_domain": ["novel-only"],
                                    "consistency": ["kldiv", "off"]}, 3, tmp_path, workers=1)
    assert len(table["rows"]) == 2 and len(calls) == 1
    first, second = table["rows"]
    assert first["config_digest"] == second["config_digest"]
    assert first["metrics"] == second["metrics"] and "ap" in first["metrics"]
    assert sorted(p.name for p in tmp_path.iterdir() if p.is_dir()) == [
        "consistency=kldiv,head_domain=novel-only"]


def test_novel_only_cell_runs_without_consistency(tiny_cfg, tmp_path):
    table = run_ablation(tiny_cfg, {"head_domain": ["novel-only"]}, 3, tmp_path, workers=1)
    row = table["rows"][0]
    cell_dir = tmp_path / "head_domain=novel-only"
    cfg_blob = json.loads((RunPaths(cell_dir, 3).root / "config.json")
                          .read_text(encoding="utf-8"))
    assert cfg_blob["config"]["finetune"]["consistency"] == "off"
    assert cfg_blob["config"]["finetune"]["head_domain"] == "novel-only"
    assert "ap" in row["metrics"]


def test_run_ablation_workers_write_identical_bytes(tiny_cfg, tmp_path):
    axes = {"rpn_strategy": ["max", "base-only"]}
    runs = {w: tmp_path / f"workers-{w}" for w in (1, 2)}
    for w, out in runs.items():
        assert not run_ablation(tiny_cfg, axes, 3, out, workers=w)["incomplete"]
    for name in ("ablation.json", "ablation.csv", "rpn_strategy=max/seed-3/eval/report.json",
                 "rpn_strategy=base-only/seed-3/eval/report.json"):
        assert (runs[1] / name).read_bytes() == (runs[2] / name).read_bytes(), name


@pytest.mark.parametrize("threads", ["1", "2"])
def test_ablate_failing_cell_leaves_the_others_and_exits_3(tiny_yaml, tmp_path, monkeypatch,
                                                           capsys, threads):
    monkeypatch.setenv("RETENTIVE_THREADS", threads)
    pools = []

    class RecordedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, workers):
            pools.append(workers)
            super().__init__(workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordedPool)
    out = tmp_path / "grid"
    # poison one cell's run with a gen stamp whose datasets are not on disk
    poisoned = RunPaths(out / "rpn_strategy=base-only", 0)
    poisoned.root.mkdir(parents=True)
    poisoned.stamp("gen").write_text(json.dumps(
        {"stage": "gen", "seed": 0, "config_digest": "deadbeef",
         "inputs": {}, "outputs": {}}), encoding="utf-8")
    assert main(["ablate", "--config", str(tiny_yaml), "--axes", "rpn_strategy=max,base-only",
                 "--seed", "0", "--out", str(out)]) == 3
    assert capsys.readouterr().err == ""
    assert pools == ([] if threads == "1" else [2])
    table = json.loads((out / "ablation.json").read_text(encoding="utf-8"))
    assert table["incomplete"] is True
    assert list(table["failures"]) == ["rpn_strategy=base-only"]
    assert table["failures"]["rpn_strategy=base-only"].startswith(
        "CorruptArtifactError: images ")
    healthy, failed = table["rows"]
    assert "ap" in healthy["metrics"] and failed["metrics"] == {}
    assert (RunPaths(out / "rpn_strategy=max", 0).eval_dir() / "report.json").exists()
    csv_rows = (out / "ablation.csv").read_text(encoding="utf-8").splitlines()
    assert csv_rows[2] == '"rpn_strategy=base-only"' + "," * (len(csv_rows[0].split(",")) - 1)


def test_ablate_invalid_cell_exits_2_before_any_cell_runs(tmp_path, capsys):
    """The fc cell is valid and comes first; the cos cell breaks head_init's rule."""
    cfg = tmp_path / "copy-head.yaml"
    cfg.write_text(TINY_YAML + "  head_init: copy\n  classifier: fc\n", encoding="utf-8")
    out = tmp_path / "grid"
    assert main(["ablate", "--config", str(cfg), "--axes", "classifier=fc,cos",
                 "--seed", "0", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error: finetune.head_init")
    assert not out.exists()


# ---------------------------------------------------------------------------
# command line front end
# ---------------------------------------------------------------------------

def test_main_eval_and_report_roundtrip(tiny_yaml, tmp_path, capsys):
    out = tmp_path / "cli"
    code = main(["eval", "--config", str(tiny_yaml), "--seed", "4",
                 "--out", str(out)])
    assert code == 0
    code = main(["report", "--out", str(out), "--seed", "4"])
    assert code == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines() if " mean " in line]
    assert {"ap", "baseline_ap", "ar@100"} <= {row[0] for row in rows}
    assert all(row[1::2] == ["mean", "stddev", "n"] and row[4:] == ["n/a", "n", "1"]
               for row in rows)


def test_report_without_a_seed_or_aggregate_prints_seed_0(tiny_cfg, finished_run, tmp_path,
                                                          capsys):
    out = tmp_path / "copy"
    shutil.copytree(RunPaths(finished_run, 3).root, RunPaths(out, 0).root)
    shutil.copytree(RunPaths(finished_run, 3).root, RunPaths(out, 3).root)
    assert main(["report", "--out", str(out), "--seed", "3"]) == 0
    seed_3 = capsys.readouterr().out.splitlines()
    assert main(["report", "--out", str(out)]) == 0
    seed_0 = capsys.readouterr().out.splitlines()
    assert seed_3[0] == f"seed 3  config {tiny_cfg.digest()[:12]}"
    assert seed_0 == ["seed 0" + seed_3[0][len("seed 3"):]] + seed_3[1:]


def _printed_metric_names(text: str) -> list[str]:
    """The metric column of report's rows, in printed order."""
    return [line.split()[0] for line in text.splitlines() if " mean " in line]


def test_report_on_one_seed_and_on_a_multirun_prints_the_aggregate_names(
        tiny_yaml, tmp_path, capsys):
    out = tmp_path / "cli"
    for seed in ("5", "6"):
        assert main(["eval", "--config", str(tiny_yaml), "--seed", seed, "--out", str(out)]) == 0
    assert main(["multirun", "--config", str(tiny_yaml), "--seeds", "5,6",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    agg = json.loads((out / "aggregate.json").read_text(encoding="utf-8"))
    printed = {}
    for args in (["--seed", "5"], ["--seed", "6"], []):
        assert main(["report", "--out", str(out)] + args) == 0
        printed[" ".join(args)] = _printed_metric_names(capsys.readouterr().out)
    assert printed[""] == sorted(agg["metrics"])
    assert printed["--seed 5"] == printed["--seed 6"] == printed[""]


def test_main_exit_code_for_bad_config(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("dataset:\n  rocket_fuel: 9\n", encoding="utf-8")
    code = main(["eval", "--config", str(bad), "--seed", "1",
                 "--out", str(tmp_path / "o")])
    assert code == 2


_BAD_CONFIGS = {  # test id -> YAML snippet
    **{entry: f"detect:\n  {entry}\n" for entry in (
        "pre_nms_k: 0", "post_nms_k: -1", "post_nms_k: 2.5", "max_dets: 0",
        "proposal_nms_iou: 1.5", "nms_iou: -0.1", "nms_iou: '0.5'", "score_thresh: 2")},
    "dataset.image_side: '48'": "dataset:\n  image_side: '48'\n",
    "dataset.shots: 2.5": "dataset:\n  shots: 2.5\n",
    "finetune.lam: x": "finetune:\n  lam: x\n",
    "pretrain.max_iters: '3'": "pretrain:\n  max_iters: '3'\n",
    "pretrain.max_iters: 1e3": "pretrain:\n  max_iters: 1e3\n",
    "pretrain.convergence_rel_tol: '1e-5'": "pretrain:\n  convergence_rel_tol: '1e-5'\n",
    **{f"{section}.{entry}": f"{section}:\n  {entry}\n" for section, entry in (
        ("dataset", "max_glyph: 5"), ("dataset", "min_glyph: 4"),
        ("dataset", "min_instances: 6"), ("dataset", "base_train_images: -2"),
        ("dataset", "test_images: 0"), ("dataset", "uar_eval_images: 0"),
        ("model", "anchor_scales: []"), ("model", "anchor_scales: [8, 0]"),
        ("eval", "recall_ks: [10, -1]"), ("eval", "iou_thresholds: [0.5, 0.501]"),
        ("eval", "iou_thresholds: [0.0, 0.5]"), ("eval", "recall_iou: 1.5"))},
    **{f"model.{entry}": f"model:\n  {entry}\n" for entry in (
        "feat_stride: 0", "feat_stride: 2", "feat_stride: 8", "feat_channels: 0",
        "mixer_channels: 0", "roi_pool_bins: 0", "head_dim: 0", "head_dim: true")},
}


@pytest.mark.parametrize("snippet", list(_BAD_CONFIGS.values()), ids=list(_BAD_CONFIGS))
def test_bad_detect_config_exits_2(tmp_path, capsys, snippet):
    bad = tmp_path / "bad.yaml"
    bad.write_text(snippet, encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(bad)
    code = main(["eval", "--config", str(bad), "--seed", "1",
                 "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:")
    assert not list(tmp_path.glob("o/**/*.stamp.json"))


def test_eval_config_validation(tmp_path):
    with pytest.raises(ConfigError, match="recall_ks"):
        EvalConfig(recall_ks=(10, True))  # YAML never yields a bool here
    path = tmp_path / "edge.yaml"
    path.write_text("eval:\n  recall_ks: [0, 1]\n  recall_iou: 1\n"
                    "  iou_thresholds: [0.01, 0.5, 0.51, 1.0]\n", encoding="utf-8")
    assert load_config(path).eval.iou_thresholds == (0.01, 0.5, 0.51, 1.0)


def test_detect_config_accepts_boundary_values(tmp_path):
    path = tmp_path / "edge.yaml"
    path.write_text("detect:\n  pre_nms_k: 1\n  post_nms_k: 1\n  max_dets: 1\n"
                    "  proposal_nms_iou: 1.0\n  nms_iou: 0\n  score_thresh: 0.0\n",
                    encoding="utf-8")
    assert load_config(path).detect.post_nms_k == 1


@pytest.mark.parametrize("section,entry", [
    ("pretrain", "minibatch_images: 0"), ("finetune", "rpn_per_image: 0"),
    ("pretrain", "roi_per_image: -1"), ("finetune", "rpn_positive_fraction: 1.5"),
    ("pretrain", "roi_positive_fraction: -0.1")])
def test_bad_sampling_config_exits_2_with_one_line(tmp_path, capsys, section, entry):
    bad = tmp_path / "bad.yaml"
    bad.write_text(f"{section}:\n  {entry}\n", encoding="utf-8")
    assert main(["eval", "--config", str(bad), "--seed", "1",
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:")
    assert entry.split(":")[0] in err
    assert not (tmp_path / "o").exists()


def test_model_config_accepts_its_smallest_sizes(tmp_path):
    path = tmp_path / "edge.yaml"
    path.write_text("model:\n  feat_channels: 1\n  mixer_channels: 1\n  roi_pool_bins: 1\n"
                    "  head_dim: 1\n  feat_stride: 4\n", encoding="utf-8")
    assert load_config(path).model.head_dim == 1


def test_train_config_accepts_sampling_boundary_values(tmp_path):
    path = tmp_path / "edge.yaml"
    path.write_text("pretrain:\n  minibatch_images: 1\n  rpn_per_image: 1\n  roi_per_image: 1\n"
                    "  rpn_positive_fraction: 0\n  roi_positive_fraction: 1.0\n",
                    encoding="utf-8")
    assert load_config(path).pretrain.minibatch_images == 1


@pytest.mark.parametrize("section,entry,want", [
    ("pretrain", "convergence_rel_tol: 1e-5", 1e-5), ("finetune", "lr: 5e-2", 0.05),
    ("finetune", "lr: 5E-2", 0.05), ("pretrain", "lr: .5e1", 5.0),
    ("pretrain", "lr: 1.0e+3", 1000.0)])
def test_exponent_floats_load_as_floats(tmp_path, section, entry, want):
    path = tmp_path / "exp.yaml"
    path.write_text(f"{section}:\n  {entry}\n", encoding="utf-8")
    assert getattr(getattr(load_config(path), section), entry.split(":")[0]) == want


@pytest.mark.parametrize("text, key", [
    ("finetune:\n  lam: 0.5\nfinetune:\n  shots: 3\n", "'finetune' given twice, at line 3"),
    ("dataset:\n  shots: 3\n  shots: 7\n", "'shots' given twice, at line 3"),
])
def test_repeated_yaml_key_exits_2_and_writes_nothing(tmp_path, capsys, text, key):
    """YAML would keep the last value and silently drop the first."""
    path = tmp_path / "twice.yaml"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "o"
    assert main(["gen-data", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: config key {key}\n"
    assert not out.exists()


@pytest.mark.parametrize("text, where", [
    ("dataset:\n  shots: [3", "expected ',' or ']', but got '<stream end>', at line 2, column 12"),
    ("a:\n\t- b", "found character '\\t' that cannot start any token, at line 2, column 1"),
], ids=["open-flow-sequence", "tab-indent"])
def test_yaml_syntax_error_exits_2_with_one_line(tmp_path, capsys, text, where):
    """PyYAML's own message spans five to seven lines; the problem and its
    line and column make one."""
    path = tmp_path / "bad.yaml"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "o"
    assert main(["gen-data", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: cannot parse config {path}: {where}\n"
    assert not out.exists()


def test_an_integer_in_a_float_field_is_stored_as_a_float():
    """The rules let an integer stand for a float; both spellings are one config."""
    cfg = ExperimentConfig()
    as_int = override(cfg, {"finetune": {"lam": 1}, "model": {"anchor_scales": [8, 16, 32]}})
    assert type(as_int.finetune.lam) is float and as_int.finetune.lam == 1.0
    assert [type(v) for v in as_int.model.anchor_scales] == [float] * 3
    assert as_int.digest() == override(cfg, {"finetune": {"lam": 1.0}}).digest()
    assert override(cfg, {"model": {"anchor_scales": [8, 16, 32]}}).digest() == cfg.digest()


def test_an_integer_lambda_in_yaml_resumes_under_the_lambda_flag(tmp_path):
    """argparse gives --lambda 1 as 1.0; the YAML spelling 1 is the same config."""
    path = tmp_path / "lam.yaml"
    path.write_text(TINY_YAML.replace("finetune:\n", "finetune:\n  lam: 1\n"), encoding="utf-8")
    argv = ["gen-data", "--seed", "1", "--out", str(tmp_path / "o")]
    assert main(argv + ["--config", str(path)]) == 0
    tiny = tmp_path / "tiny.yaml"
    tiny.write_text(TINY_YAML, encoding="utf-8")
    assert main(argv + ["--config", str(tiny), "--lambda", "1"]) == 0


@pytest.mark.parametrize("argv", [
    ["eval", "--rpn-strategy", "bogus", "--out", "o"], ["eval", "--seed", "abc", "--out", "o"],
    ["eval", "--lambda", "x", "--out", "o"], ["eval"], ["bogus"]])
def test_argument_error_exits_2_with_one_line(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("config error: retentive")
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# the config rule table
# ---------------------------------------------------------------------------

def _rules() -> list[tuple[str, str, Rule]]:
    """(section, field, rule) for every field of every config section."""
    cfg = ExperimentConfig()
    return [(s.name, f.name, f.metadata.get("rule")) for s in dataclasses.fields(cfg)
            for f in dataclasses.fields(getattr(cfg, s.name))]


def test_every_config_field_has_a_rule_its_default_meets():
    cfg = ExperimentConfig()
    for section, name, rule in _rules():
        assert isinstance(rule, Rule), f"{section}.{name} has no rule"
        assert rule.admits(getattr(getattr(cfg, section), name)), f"{section}.{name}"


_ONE_BAD_VALUE = {  # section type -> (field, a value its rule or a cross-field rule refuses)
    DatasetConfig: ("shots", 0), ModelConfig: ("head_dim", 0), TrainConfig: ("lam", -0.5),
    DetectConfig: ("nms_iou", 1.5), EvalConfig: ("recall_iou", 0.0),
    ExperimentConfig: ("dataset", DatasetConfig(image_side=50)),
}


@pytest.mark.parametrize("section", list(_ONE_BAD_VALUE), ids=lambda t: t.__name__)
def test_a_config_section_is_checked_when_built_and_never_changes(section):
    name, bad = _ONE_BAD_VALUE[section]
    cfg = section()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(cfg, name, getattr(cfg, name))
    field = f"{name}.image_side" if section is ExperimentConfig else name
    with pytest.raises(ConfigError, match=rf"^{field} must be "):
        section(**{name: bad})


def test_override_derives_a_checked_copy_and_keeps_the_original():
    cfg = ExperimentConfig()
    got = override(cfg, {"finetune": {"lam": 0.5}, "model": {"anchor_scales": [8, 16]}})
    assert (got.finetune.lam, got.model.anchor_scales) == (0.5, (8, 16))
    assert got.pretrain is cfg.pretrain and cfg == ExperimentConfig()
    assert override(cfg, {}) == cfg and override(cfg, {}).digest() == cfg.digest()
    with pytest.raises(ConfigError, match=r"^finetune\.lam must be a finite number >= 0, got -1$"):
        override(cfg, {"finetune": {"lam": -1}})
    with pytest.raises(ConfigError, match=r"^unknown config key finetune\.'lambda'$"):
        override(cfg, {"finetune": {"lambda": 1}})
    with pytest.raises(ConfigError, match=r"^config section 'eval' must be a mapping$"):
        override(cfg, {"eval": [0.5]})


@pytest.mark.parametrize("flag, message", [
    (["--lambda", "-1"], "finetune.lam must be a finite number >= 0, got -1.0"),
    (["--shots", "0"], "dataset.shots must be an integer >= 1, got 0"),
    (["--head-domain", "novel-only"],
     "finetune.consistency must be 'off' with head_domain 'novel-only', got 'kldiv'"),
])
def test_bad_flag_exits_2_in_the_config_form(tiny_yaml, tmp_path, capsys, flag, message):
    assert main(["eval", "--config", str(tiny_yaml), "--seed", "1",
                 "--out", str(tmp_path / "o")] + flag) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "o").exists()


# the TrainConfig fields only finetuning reads -> a value other than the default,
# with the fields a cross-field rule needs beside it
PRETRAIN_UNREAD = {
    "lam": {"lam": 0.5}, "consistency": {"consistency": "l1"},
    "rpn_strategy": {"rpn_strategy": "base-only"}, "classifier": {"classifier": "fc"},
    "head_domain": {"head_domain": "novel-only", "consistency": "off"},
    "rpn_obj_init": {"rpn_obj_init": "random"},
    "head_init": {"head_init": "copy", "classifier": "fc"},
}


@pytest.mark.parametrize("name", list(PRETRAIN_UNREAD))
def test_a_field_only_finetune_reads_is_refused_under_pretrain(tmp_path, capsys, name):
    """Pretraining never reads these, so a value there would change the config
    digest and no artifact; the same keys still load under finetune."""
    entries = PRETRAIN_UNREAD[name]
    text = "".join(f"  {k}: {json.dumps(v)}\n" for k, v in entries.items())
    bad = tmp_path / "bad.yaml"
    bad.write_text("pretrain:\n" + text, encoding="utf-8")
    out = tmp_path / "o"
    assert main(["pretrain", "--config", str(bad), "--seed", "0", "--out", str(out)]) == 2
    default = getattr(TrainConfig(), name)
    assert capsys.readouterr().err == (f"config error: pretrain.{name} must be {default!r} "
                                       f"(only finetune reads it), got {entries[name]!r}\n")
    assert not out.exists()
    good = tmp_path / "good.yaml"
    good.write_text("finetune:\n" + text, encoding="utf-8")
    assert getattr(load_config(good).finetune, name) == entries[name]


def test_pretrain_fields_only_finetune_reads_keep_the_digest_at_their_defaults(tmp_path):
    path = tmp_path / "defaults.yaml"
    defaults = TrainConfig()
    path.write_text("pretrain:\n" + "".join(f"  {name}: {json.dumps(getattr(defaults, name))}\n"
                                            for name in PRETRAIN_UNREAD), encoding="utf-8")
    assert load_config(path).digest() == ExperimentConfig().digest()


# a field whose bound value breaks a cross-field rule at the defaults loads with these
_COMPANIONS = {"num_classes": {"num_novel": 1}, "max_glyph": {"min_glyph": MIN_GLYPH},
               "max_instances": {"min_instances": 0}, "rpn_pos_iou": {"rpn_neg_iou": 0.0},
               "rpn_neg_iou": {"rpn_pos_iou": 1.0}}


def _next(rule: Rule, value, direction: int):
    """The closest value of the rule's type above (direction 1) or below (-1) value."""
    return value + direction if rule.kind is int else math.nextafter(value, direction * math.inf)


def _bound_cases():
    """(section, field, rule, value just past a bound, value on the bound's admitted side)."""
    cases = []
    for section, name, rule in _rules():
        for op, bound in rule.bounds:
            inward = 1 if op.startswith(">") else -1
            if op.endswith("="):
                cases.append((section, name, rule, _next(rule, bound, -inward), bound))
            else:
                cases.append((section, name, rule, bound, _next(rule, bound, inward)))
    return cases


def _section_yaml(section: str, name: str, rule: Rule, value) -> str:
    text = repr(float(value)) if rule.kind is float else str(value)
    entries = {name: f"[{text}]" if rule.many else text, **_COMPANIONS.get(name, {})}
    return f"{section}:\n" + "".join(f"  {k}: {v}\n" for k, v in entries.items())


_BOUND_CASES = _bound_cases()


@pytest.mark.parametrize("section,name,rule,outside,inside", _BOUND_CASES,
                         ids=[f"{c[0]}.{c[1]}={c[3]!r}" for c in _BOUND_CASES])
def test_value_past_a_bound_exits_2_and_the_bound_side_loads(tmp_path, capsys, section, name,
                                                            rule, outside, inside):
    bad = tmp_path / "bad.yaml"
    bad.write_text(_section_yaml(section, name, rule, outside), encoding="utf-8")
    assert main(["eval", "--config", str(bad), "--seed", "1", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"config error: {section}.{name} must be ")
    assert not list(tmp_path.glob("o/**/*.stamp.json"))
    # pretrain keeps the defaults of the fields only finetune reads, so their
    # bound side loads in the section that reads them
    if section == "pretrain" and name in PRETRAIN_UNREAD:
        section = "finetune"
    edge = tmp_path / "edge.yaml"
    edge.write_text(_section_yaml(section, name, rule, inside), encoding="utf-8")
    got = getattr(getattr(load_config(edge), section), name)
    assert got == ((inside,) if rule.many else inside)


_FLOAT_FIELDS = [c for c in _rules() if c[2].kind is float]


@pytest.mark.parametrize("section,name,rule", _FLOAT_FIELDS,
                         ids=[f"{s}.{n}" for s, n, _ in _FLOAT_FIELDS])
def test_non_finite_number_is_rejected(tmp_path, section, name, rule):
    path = tmp_path / "nonfinite.yaml"
    for value in (".nan", ".inf", "-.inf"):
        path.write_text(f"{section}:\n  {name}: {f'[{value}]' if rule.many else value}\n",
                        encoding="utf-8")
        with pytest.raises(ConfigError, match=rf"^{section}\.{name} must be "):
            load_config(path)


_MEASURED_HOLES = (  # each once ran a stage: to exit 0, to a traceback, or to exit 3
    "pretrain.lr: -1.0", "pretrain.max_iters: -3", "pretrain.convergence_window: 0",
    "pretrain.convergence_rel_tol: -1.0", "dataset.novel_frequency: 2.0", "dataset.noise: -1.0",
    "dataset.noise: .nan", "model.cosine_scale: 0.0", "model.anchor_scales: [8, .inf]",
    "eval.iou_thresholds: []", "model.init_sigma: -1.0", "dataset.placement_retries: -1",
    "pretrain.momentum: 5.0")


@pytest.mark.parametrize("entry", _MEASURED_HOLES)
def test_measured_config_hole_exits_2_before_any_stamp(tmp_path, capsys, entry):
    key, value = entry.split(": ")
    section, name = key.split(".")
    data = yaml.safe_load(TINY_YAML)
    data.setdefault(section, {})[name] = yaml.safe_load(value)
    path = tmp_path / "hole.yaml"
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    assert main(["eval", "--config", str(path), "--seed", "3", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"config error: {key} must be ")
    assert not list(tmp_path.glob("o/**/*.stamp.json"))


def test_missing_config_file_exits_2(tmp_path, capsys):
    """A config file that is missing or not UTF-8 is a one-line config error."""
    not_utf8 = tmp_path / "latin.yaml"
    not_utf8.write_bytes(b"dataset:\n  shots: 2 # \xff\n")
    for path in (tmp_path / "absent.yaml", not_utf8):
        with pytest.raises(ConfigError):
            load_config(path)
        assert main(["gen-data", "--config", str(path), "--seed", "1",
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error:") and path.name in err


def test_out_under_a_regular_file_exits_4(tiny_yaml, tmp_path, capsys):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("", encoding="utf-8")
    assert main(["gen-data", "--config", str(tiny_yaml), "--seed", "1",
                 "--out", str(blocker / "run")]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("artifact error:") and "not-a-dir" in err


def test_main_exit_code_for_staleness(tiny_yaml, tmp_path):
    out = tmp_path / "s"
    assert main(["gen-data", "--config", str(tiny_yaml), "--seed", "6",
                 "--out", str(out)]) == 0
    assert main(["gen-data", "--config", str(tiny_yaml), "--seed", "6",
                 "--out", str(out), "--shots", "3"]) == 4


def test_main_detect_writes_one_line_per_image(tiny_yaml, tmp_path):
    out = tmp_path / "d"
    assert main(["eval", "--config", str(tiny_yaml), "--seed", "8",
                 "--out", str(out)]) == 0
    assert main(["detect", "--config", str(tiny_yaml), "--seed", "8",
                 "--out", str(out)]) == 0
    lines = RunPaths(out, 8).detections().read_text(encoding="utf-8").strip().split("\n")
    assert len(lines) == 3
    rec = json.loads(lines[0])
    assert set(rec) == {"image", "boxes", "classes", "scores", "heads"}


def test_detect_without_checkpoint_exits_4(tiny_yaml, tmp_path, capsys):
    out = tmp_path / "nock"
    assert main(["gen-data", "--config", str(tiny_yaml), "--seed", "5",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["detect", "--config", str(tiny_yaml), "--seed", "5",
                 "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "stage 'pretrain' has not been run for seed 5" in err


@pytest.mark.parametrize("content", ["truncate", "[1, 2]"])
def test_unreadable_stamp_exits_4(tiny_yaml, finished_run, tmp_path, capsys, content):
    out = tmp_path / "copy"
    shutil.copytree(finished_run, out)
    stamp = RunPaths(out, 3).stamp("eval")
    text = stamp.read_text(encoding="utf-8")
    stamp.write_text(text[:len(text) // 2] if content == "truncate" else content,
                     encoding="utf-8")
    assert main(["eval", "--config", str(tiny_yaml), "--seed", "3",
                 "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "eval.stamp.json" in err


def test_pretrain_on_a_truncated_images_bin_exits_4(tiny_yaml, tmp_path, capsys):
    """Every prefix of base-train's images.bin through its fixed fields and
    digest, and one that cuts the payload, exit 4 with one line, never a
    traceback."""
    out = tmp_path / "t"
    assert main(["gen-data", "--config", str(tiny_yaml), "--seed", "2", "--out", str(out)]) == 0
    paths = RunPaths(out, 2)
    images = paths.dataset_dir("base-train") / "images.bin"
    blob = images.read_bytes()
    fixed = len(IMAGES_MAGIC) + 8  # magic, version and header length
    for data in [blob[:n] for n in range(fixed + 32 + 1)] + [blob[:-1]]:
        images.write_bytes(data)
        capsys.readouterr()
        assert main(["pretrain", "--config", str(tiny_yaml), "--seed", "2",
                     "--out", str(out)]) == 4, len(data)
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("artifact error:"), err
    assert not paths.stamp("pretrain").exists()


def test_a_version_1_images_bin_exits_4_with_one_line(tiny_yaml, tmp_path, capsys):
    """A run directory written before images.bin was framed holds a
    version-1 images.bin: the walk's gen check verifies that frame, so the run
    stops there, before the pretrain stage loads the dataset, and exits 4
    naming the version."""
    out = tmp_path / "t"
    assert main(["gen-data", "--config", str(tiny_yaml), "--seed", "2", "--out", str(out)]) == 0
    paths = RunPaths(out, 2)
    ds = load_dataset(paths.dataset_dir("base-train"))
    (paths.dataset_dir("base-train") / "images.bin").write_bytes(
        IMAGES_MAGIC + struct.pack("<III", 1, ds.side, len(ds)) + b"".join(
            img.tobytes() for img in ds.images))
    capsys.readouterr()
    assert main(["pretrain", "--config", str(tiny_yaml), "--seed", "2", "--out", str(out)]) == 4
    assert capsys.readouterr().err == "artifact error: images version 1 unsupported; expected 2\n"
    assert not paths.stamp("pretrain").exists()


def _flip_payload_byte(images: Path) -> None:
    blob = bytearray(images.read_bytes())
    blob[-100] ^= 0xFF  # a pixel of the last image: the header is intact
    images.write_bytes(bytes(blob))


def test_eval_on_a_finished_run_with_a_flipped_images_byte_exits_4(tiny_yaml, finished_run,
                                                                  tmp_path, capsys):
    """The walk's gen check verifies every images.bin frame, so one flipped
    payload byte stops a finished run at the gen stamp with one line, and
    nothing is written: no stamp changes, and a missing eval stamp stays
    missing."""
    out = tmp_path / "copy"
    shutil.copytree(finished_run, out)
    paths = RunPaths(out, 3)
    images = paths.dataset_dir("test") / "images.bin"
    _flip_payload_byte(images)
    before = _tree_state(out)
    capsys.readouterr()
    assert main(["eval", "--config", str(tiny_yaml), "--seed", "3", "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"artifact error: images {images} failed hash verification\n"
    assert _tree_state(out) == before
    paths.stamp("eval").unlink()
    assert main(["eval", "--config", str(tiny_yaml), "--seed", "3", "--out", str(out)]) == 4
    assert capsys.readouterr().err == f"artifact error: images {images} failed hash verification\n"
    assert not paths.stamp("eval").exists()


def test_multirun_with_a_flipped_images_byte_fails_that_seed(tiny_yaml, finished_multirun,
                                                             tmp_path, capsys):
    out = tmp_path / "copy"
    shutil.copytree(finished_multirun, out)
    images = RunPaths(out, 1).dataset_dir("kshot") / "images.bin"
    _flip_payload_byte(images)
    capsys.readouterr()
    assert main(["multirun", "--config", str(tiny_yaml), "--seeds", "1,2", "--out", str(out)]) == 3
    assert capsys.readouterr().err == ""
    agg = json.loads((out / "aggregate.json").read_text(encoding="utf-8"))
    assert agg["incomplete"] is True and agg["failures"] == {
        "1": f"CorruptArtifactError: images {images} failed hash verification"}


@pytest.mark.parametrize("edit", ["truncate", "[1, 2]", "delete"])
def test_eval_reads_no_manifest(tiny_yaml, finished_run, tmp_path, capsys, edit):
    """manifest.json is an export of each images.bin header: editing or
    deleting it changes nothing a command does."""
    out = tmp_path / "copy"
    shutil.copytree(finished_run, out)
    manifest = RunPaths(out, 3).dataset_dir("test") / "manifest.json"
    text = manifest.read_text(encoding="utf-8")
    if edit == "delete":
        manifest.unlink()
    else:
        manifest.write_text(text[:40] if edit == "truncate" else edit, encoding="utf-8")
    capsys.readouterr()
    assert main(["eval", "--config", str(tiny_yaml), "--seed", "3", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""


def test_foreign_checkpoint_magic_exits_4(tiny_yaml, finished_run, tmp_path, capsys):
    out = tmp_path / "copy"
    shutil.copytree(finished_run, out)
    ckpt = RunPaths(out, 3).checkpoint("base")
    ckpt.write_bytes(b"XXXXXXXX" + ckpt.read_bytes()[8:])
    assert main(["eval", "--config", str(tiny_yaml), "--seed", "3",
                 "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "magic" in err


def test_checkpoint_without_its_finetuned_head_is_corrupt_at_load_and_exits_4(
        tiny_yaml, finished_run, tmp_path, capsys):
    """The finetune stamp records the retentive checkpoint's digest, not what
    the checkpoint holds, so a checkpoint re-saved without its finetuned head,
    its stamp re-recorded, passes the walk; loading it then finds the arrays
    its stage calls for missing, before detect could ask for the head."""
    out = tmp_path / "copy"
    shutil.copytree(finished_run, out)
    paths = RunPaths(out, 3)
    model = load_checkpoint(paths.checkpoint("retentive"))
    for key in [k for k in model.params if k.split("/")[0] in D.FINETUNE_TRAINABLE]:
        del model.params[key]
    stamp = json.loads(paths.stamp("finetune").read_text(encoding="utf-8"))
    stamp["outputs"]["retentive"] = save_checkpoint(model, paths.checkpoint("retentive"))
    paths.stamp("finetune").write_text(canonical_json(stamp) + "\n", encoding="utf-8")
    assert main(["detect", "--config", str(tiny_yaml), "--seed", "3",
                 "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith("header its retentive model would not write\n")
    assert not paths.detections().exists()


@pytest.mark.parametrize("content", [
    "truncate", "[1, 2]", '{"metadata": {}}',
    '{"summary": {"ap": "x"}, "baseline_summary": {}, "recall": {}}',
    '{"summary": {}, "baseline_summary": {"ap": null}, "recall": {}}',
    '{"summary": {}, "baseline_summary": {}, "recall": {"ar@10": true}}'])
def test_unreadable_report_exits_4(finished_run, tmp_path, capsys, content):
    out = tmp_path / "copy"
    shutil.copytree(finished_run, out)
    report = RunPaths(out, 3).eval_dir() / "report.json"
    text = report.read_text(encoding="utf-8")
    report.write_text(text[:len(text) // 2] if content == "truncate" else content,
                      encoding="utf-8")
    assert main(["report", "--out", str(out), "--seed", "3"]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "report.json" in err


def test_report_edited_after_eval_is_stale_for_report_as_for_eval(tiny_yaml, finished_run,
                                                                  tmp_path, capsys):
    """A well-formed report.json whose bytes its eval stamp did not record
    exits 4 with one line from report, as it does from eval."""
    out = tmp_path / "copy"
    shutil.copytree(finished_run, out)
    report = RunPaths(out, 3).eval_dir() / "report.json"
    data = json.loads(report.read_text(encoding="utf-8"))
    data["summary"]["bap"] = 0.9
    report.write_text(json.dumps(data), encoding="utf-8")
    assert main(["report", "--out", str(out), "--seed", "3"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 \
        and "eval: outputs on disk do not match what the eval stamp recorded" in captured.err
    assert main(["eval", "--config", str(tiny_yaml), "--seed", "3", "--out", str(out)]) == 4
    assert capsys.readouterr().err.count("\n") == 1


def test_eval_on_a_truncated_or_overlong_header_checkpoint_exits_4(tiny_yaml, finished_run,
                                                                   tmp_path, capsys):
    """Every prefix of base.ckpt up to its fixed fields plus digest, and a
    header_len pointing past the end, exit 4 with one line, never a
    struct.error traceback."""
    out = tmp_path / "copy"
    shutil.copytree(finished_run, out)
    ckpt = RunPaths(out, 3).checkpoint("base")
    blob = ckpt.read_bytes()
    fixed = len(trainer.CHECKPOINT_MAGIC) + 8
    overlong = blob[:fixed - 4] + struct.pack("<I", len(blob)) + blob[fixed:]
    for data in [blob[:n] for n in range(fixed + 32 + 1)] + [overlong]:
        ckpt.write_bytes(data)
        assert main(["eval", "--config", str(tiny_yaml), "--seed", "3",
                     "--out", str(out)]) == 4, len(data)
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.endswith("is truncated\n"), err


@pytest.mark.parametrize("content", [
    "truncate", "[1, 2]", '{"seeds": [1, 2]}',
    '{"seeds": [[1], 2], "incomplete": false, "failures": {}, "config_digest": "x"}'])
def test_unreadable_aggregate_exits_4(finished_multirun, tmp_path, capsys, content):
    out = tmp_path / "copy"
    shutil.copytree(finished_multirun, out)
    assert main(["report", "--out", str(out)]) == 0
    assert "ap" in capsys.readouterr().out
    agg = out / "aggregate.json"
    text = agg.read_text(encoding="utf-8")
    agg.write_text(text[:len(text) // 2] if content == "truncate" else content,
                   encoding="utf-8")
    assert main(["report", "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "aggregate.json" in err


def test_report_on_a_multirun_prints_the_seed_reports_not_the_stored_means(
        finished_multirun, tmp_path, capsys):
    """aggregate.json's metrics are written for readers of the table and never
    read back: report aggregates the reports the seeds' eval stamps recorded."""
    out = tmp_path / "copy"
    shutil.copytree(finished_multirun, out)
    assert main(["report", "--out", str(out)]) == 0
    untouched = capsys.readouterr().out
    agg = out / "aggregate.json"
    data = json.loads(agg.read_text(encoding="utf-8"))
    data["metrics"]["bap"]["mean"] = 0.99
    agg.write_text(json.dumps(data), encoding="utf-8")
    assert main(["report", "--out", str(out)]) == 0
    assert capsys.readouterr().out == untouched
    assert "0.990000" not in untouched


def test_report_on_a_multirun_with_an_edited_seed_report_exits_4(finished_multirun, tmp_path,
                                                                 capsys):
    out = tmp_path / "copy"
    shutil.copytree(finished_multirun, out)
    report = RunPaths(out, 2).eval_dir() / "report.json"
    data = json.loads(report.read_text(encoding="utf-8"))
    data["summary"]["bap"] = 0.99
    report.write_text(json.dumps(data), encoding="utf-8")
    assert main(["report", "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        f"artifact error: eval: outputs on disk do not match what the eval stamp recorded "
        f"in {RunPaths(out, 2).root}\n")


def test_report_on_a_multirun_under_another_config_exits_4(finished_multirun, tmp_path, capsys):
    out = tmp_path / "copy"
    shutil.copytree(finished_multirun, out)
    agg = out / "aggregate.json"
    data = json.loads(agg.read_text(encoding="utf-8"))
    data["config_digest"] = "0" * 64
    agg.write_text(json.dumps(data), encoding="utf-8")
    assert main(["report", "--out", str(out)]) == 4
    assert capsys.readouterr().err == (
        f"artifact error: {agg}: seed 1 was run under a different configuration; "
        f"use a fresh output directory\n")


@pytest.mark.parametrize("content", ['{"rows": [', '{"rows": [1]}',
                                     '{"rows": [{"cell": "rpn_strategy=max"}]}',
                                     '{"rows": [{"cell": {"rpn_strategy": "max"}}]}',
                                     '{"rows": [{"cell": {"rpn_strategy": "max"}, '
                                     '"config_digest": 7}]}'])
def test_unreadable_ablation_table_exits_4_before_any_cell_runs(tiny_yaml, tmp_path, capsys,
                                                               content):
    out = tmp_path / "o"
    out.mkdir()
    (out / "ablation.json").write_text(content, encoding="utf-8")
    assert main(["ablate", "--config", str(tiny_yaml), "--axes", "rpn_strategy=max",
                 "--seed", "0", "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"artifact error: ablation {out}")
    assert [p.name for p in out.iterdir()] == ["ablation.json"]


def test_detect_under_another_config_exits_4(tiny_yaml, finished_run, tmp_path, capsys):
    out = tmp_path / "copy"
    shutil.copytree(finished_run, out)
    assert main(["detect", "--config", str(tiny_yaml), "--seed", "3", "--out", str(out),
                 "--lambda", "0.9", "--classifier", "fc"]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "different configuration" in err
    assert not RunPaths(out, 3).detections().exists()


def test_refused_command_leaves_the_run_directory_untouched(tiny_yaml, finished_run, tmp_path,
                                                           capsys):
    """eval under a changed config stops at the walk's config check before
    anything is written: config.json and every stamp keep their bytes."""
    out = tmp_path / "copy"
    shutil.copytree(finished_run, out)
    paths = RunPaths(out, 3)
    files = [paths.root / "config.json"] + [paths.stamp(s) for s in STAGES]
    before, state = {p: p.read_bytes() for p in files}, _tree_state(paths.root)
    assert main(["eval", "--config", str(tiny_yaml), "--seed", "3", "--out", str(out),
                 "--lambda", "0.9"]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "different configuration" in err
    assert {p: p.read_bytes() for p in files} == before
    assert _tree_state(paths.root) == state


def test_refused_command_leaves_no_run_directory(tiny_yaml, tmp_path, capsys):
    """The walk refuses eval before gen has run; nothing is created under --out."""
    out = tmp_path / "fresh"
    assert main(["eval", "--stage", "eval", "--config", str(tiny_yaml), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "has not been run" in err
    assert not RunPaths(out, 0).root.exists()


def test_detect_with_replaced_checkpoint_exits_4(tiny_yaml, finished_run, tmp_path, capsys):
    out = tmp_path / "copy"
    shutil.copytree(finished_run, out)
    paths = RunPaths(out, 3)
    shutil.copyfile(paths.checkpoint("base"), paths.checkpoint("retentive"))
    assert main(["detect", "--config", str(tiny_yaml), "--seed", "3", "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "finetune stamp" in err


def test_detect_with_flags_its_stage_would_not_write_exits_4(tiny_yaml, finished_run, tmp_path,
                                                            capsys, monkeypatch):
    """A retentive checkpoint rewritten with the pretraining flags, under a
    valid hash and a stamp that records it, still stops detect at load."""
    out = tmp_path / "copy"
    shutil.copytree(finished_run, out)
    paths = RunPaths(out, 3)
    model = load_checkpoint(paths.checkpoint("retentive"))
    with monkeypatch.context() as mp:
        mp.setattr(trainer, "trainable_layers", lambda m: D.PRETRAIN_TRAINABLE)
        digest = save_checkpoint(model, paths.checkpoint("retentive"))
    stamp = json.loads(paths.stamp("finetune").read_text(encoding="utf-8"))
    stamp["outputs"]["retentive"] = digest
    paths.stamp("finetune").write_text(canonical_json(stamp) + "\n", encoding="utf-8")
    assert main(["detect", "--config", str(tiny_yaml), "--seed", "3", "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "would not write" in err
    assert not paths.detections().exists()


def test_detect_with_an_empty_header_checkpoint_exits_4(tiny_yaml, finished_run, tmp_path,
                                                      capsys):
    """A retentive.ckpt of just its fixed fields, header length 0 and the
    digest of its empty body: no traceback, one line, no detections."""
    out = tmp_path / "copy"
    shutil.copytree(finished_run, out)
    paths = RunPaths(out, 3)
    paths.checkpoint("retentive").write_bytes(
        trainer.CHECKPOINT_MAGIC + struct.pack("<II", trainer.CHECKPOINT_VERSION, 0)
        + sha256(b"").digest())
    assert main(["detect", "--config", str(tiny_yaml), "--seed", "3", "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "unreadable header" in err
    assert not paths.detections().exists()


@pytest.mark.parametrize("replaced, stage", [
    ("datasets/base-train", "pretrain"),
    ("models/base.ckpt", "finetune"),
    ("models/retentive.ckpt", "eval"),
])
def test_replaced_upstream_artifact_exits_4(tiny_yaml, finished_run, other_seed_run, tmp_path,
                                            capsys, replaced, stage):
    out = tmp_path / "copy"
    shutil.copytree(finished_run, out)
    paths = RunPaths(out, 3)
    for s in STAGES[STAGES.index(stage):]:
        paths.stamp(s).unlink()
    target, source = paths.root / replaced, RunPaths(other_seed_run, 4).root / replaced
    if target.is_dir():
        shutil.rmtree(target)
        shutil.copytree(source, target)
    else:
        shutil.copyfile(source, target)
    assert main([stage, "--config", str(tiny_yaml), "--seed", "3", "--out", str(out),
                 "--stage", stage]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "stamp recorded" in err
    assert not paths.stamp(stage).exists()


def _upstream(paths):
    stamps = [json.loads(paths.stamp(s).read_text(encoding="utf-8"))
              for s in ("gen", "pretrain", "finetune")]
    return {name: digest for stamp in stamps for name, digest in stamp["outputs"].items()}


def test_eval_runs_one_image_forward_per_image(tiny_cfg, finished_run, tmp_path, monkeypatch):
    out = tmp_path / "copy"
    shutil.copytree(finished_run, out)
    paths = RunPaths(out, 3)
    calls = {"fixed_featurizer": 0, "propose": 0, "roi_pool": 0}

    def counted(name):
        real = getattr(D, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(D, name, counted(name))
    _evaluate_models(tiny_cfg, 3, paths, _upstream(paths))
    images = sum(len(load_dataset(paths.dataset_dir(n)).images) for n in ("test", "uar-eval"))
    # one pooling per image serves both detectors and, on test images, the
    # feature norms' ground-truth boxes
    assert calls == {"fixed_featurizer": images, "propose": len(RPN_STRATEGIES) * images,
                     "roi_pool": images}
    report = "eval/report.json"
    assert (out / "seed-3" / report).read_bytes() == (finished_run / "seed-3" / report).read_bytes()


def test_eval_rejects_base_without_the_shared_frozen_arrays(tiny_cfg, finished_run, tmp_path):
    out = tmp_path / "copy"
    shutil.copytree(finished_run, out)
    paths = RunPaths(out, 3)
    base = load_checkpoint(paths.checkpoint("base"))
    base.params["rpn_box/b"][0] += 1e-9
    save_checkpoint(base, paths.checkpoint("base"))
    with pytest.raises(StalenessError, match="frozen arrays") as err:
        _evaluate_models(tiny_cfg, 3, paths, _upstream(paths))
    assert str(paths.checkpoint("base")) in str(err.value)
    assert str(paths.checkpoint("retentive")) in str(err.value)


def test_evaluate_gives_the_report_the_eval_stage_writes(tiny_cfg, finished_run):
    from retentive import evaluate

    paths = RunPaths(finished_run, 3)
    up = _upstream(paths)
    metadata = {"seed": 3, "config_digest": tiny_cfg.digest(),
                "dataset_digests": {n: up[n] for n in cli.DATASET_NAMES},
                "checkpoint_digests": {n: up[n] for n in ("base", "retentive")}}
    report = evaluate(load_checkpoint(paths.checkpoint("base")),
                      load_checkpoint(paths.checkpoint("retentive")),
                      load_dataset(paths.dataset_dir("test")),
                      load_dataset(paths.dataset_dir("uar-eval")), tiny_cfg, metadata)
    want = (paths.eval_dir() / "report.json").read_bytes()
    assert (canonical_json(report) + "\n").encode("utf-8") == want


def test_evaluate_rejects_a_model_that_is_not_finetuned(tiny_cfg, finished_run):
    from retentive import evaluate

    paths = RunPaths(finished_run, 3)
    base = load_checkpoint(paths.checkpoint("base"))
    with pytest.raises(errors.StateError, match="expected an adapted model, found stage 'base'"):
        evaluate(base, base, load_dataset(paths.dataset_dir("test")),
                 load_dataset(paths.dataset_dir("uar-eval")), tiny_cfg, {})


@pytest.fixture
def oversized_glyph_yaml(tmp_path):
    path = tmp_path / "big-glyphs.yaml"
    path.write_text(TINY_YAML.replace("min_glyph: 12", "min_glyph: 60")
                    .replace("max_glyph: 20", "max_glyph: 64"), encoding="utf-8")
    return path


def test_generation_error_exits_2(oversized_glyph_yaml, tmp_path, capsys):
    assert main(["gen-data", "--config", str(oversized_glyph_yaml), "--seed", "1",
                 "--out", str(tmp_path / "g")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "does not fit" in err


def test_multirun_generation_error_is_a_failed_seed(oversized_glyph_yaml, tmp_path,
                                                    monkeypatch):
    monkeypatch.delenv("RETENTIVE_THREADS", raising=False)
    out = tmp_path / "mr"
    assert main(["multirun", "--config", str(oversized_glyph_yaml), "--seeds", "1,2",
                 "--out", str(out)]) == 3
    data = json.loads((out / "aggregate.json").read_text(encoding="utf-8"))
    assert data["incomplete"] is True
    assert sorted(data["failures"]) == ["1", "2"]
    assert all(msg.startswith("GenerationError") for msg in data["failures"].values())


def test_override_flags_change_config_digest(tiny_yaml, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["gen-data", "--config", str(tiny_yaml), "--seed", "1",
                 "--out", str(a)]) == 0
    assert main(["gen-data", "--config", str(tiny_yaml), "--seed", "1",
                 "--out", str(b), "--lambda", "0.5"]) == 0
    da = json.loads((RunPaths(a, 1).root / "config.json").read_text(encoding="utf-8"))
    db = json.loads((RunPaths(b, 1).root / "config.json").read_text(encoding="utf-8"))
    assert da["digest"] != db["digest"]
    assert db["config"]["finetune"]["lam"] == 0.5


def test_stage_flag_overrides_prefix(tiny_yaml, tmp_path):
    out = tmp_path / "st"
    assert main(["eval", "--config", str(tiny_yaml), "--seed", "2",
                 "--out", str(out), "--stage", "gen"]) == 0
    paths = RunPaths(out, 2)
    assert paths.stamp("gen").exists()
    assert not paths.stamp("pretrain").exists()


def test_stage_flag_takes_a_comma_list_and_refuses_an_unknown_stage(tiny_yaml, tmp_path, capsys):
    out = tmp_path / "st"
    argv = ["eval", "--config", str(tiny_yaml), "--seed", "2", "--out", str(out)]
    assert main(argv + ["--stage", "gen, pretrain"]) == 0
    paths = RunPaths(out, 2)
    assert paths.stamp("gen").exists() and paths.stamp("pretrain").exists()
    assert not paths.stamp("finetune").exists()
    capsys.readouterr()
    assert main(argv + ["--stage", "gen,launch"]) == 2
    assert capsys.readouterr().err == (
        f"config error: unknown stage 'launch'; expected subset of {STAGES}\n")


@pytest.mark.parametrize("stages", ["", " , "])
def test_empty_stage_list_exits_2_and_runs_nothing(tiny_yaml, tmp_path, capsys, stages):
    out = tmp_path / "st"
    assert main(["eval", "--config", str(tiny_yaml), "--stage", stages, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "config error: no stages given\n")
    assert not out.exists()


# ---------------------------------------------------------------------------
# parsing helpers
# ---------------------------------------------------------------------------

def test_parse_axes():
    axes = _parse_axes("rpn_strategy=max,base-only;consistency=off")
    assert axes == {"rpn_strategy": ["max", "base-only"], "consistency": ["off"]}
    with pytest.raises(ConfigError):
        _parse_axes("justwords")
    with pytest.raises(ConfigError):
        _parse_axes("")


@pytest.mark.parametrize("axes", ["rpn_strategy=", "rpn_strategy= , ;consistency=off",
                                  "rpn_strategy=max;rpn_strategy=base-only",
                                  "rpn_strategy=max,max"])
def test_ablate_rejects_an_empty_or_repeated_axis(tiny_yaml, tmp_path, capsys, axes):
    out = tmp_path / "o"
    assert main(["ablate", "--config", str(tiny_yaml), "--axes", axes, "--seed", "0",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:") and "rpn_strategy" in err
    assert not out.exists()


def test_parse_seeds():
    assert _parse_seeds("3,1,2") == [3, 1, 2]
    with pytest.raises(ConfigError):
        _parse_seeds("a,b")
    with pytest.raises(ConfigError):
        _parse_seeds("")
