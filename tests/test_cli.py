"""Pipeline orchestration tests: stamps, staleness, aggregation, exit codes."""

import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from retentive import cli
from retentive import detector as D
from retentive.cli import (
    RunPaths,
    STAGES,
    _evaluate_models,
    _read_stamp,
    _parse_axes,
    _parse_seeds,
    _parse_stage_list,
    ablation_cells,
    aggregate_metrics,
    main,
    multirun,
    run_ablation,
    run_experiment,
)
from retentive.config import RPN_STRATEGIES, load_config
from retentive.errors import ConfigError, StalenessError
from retentive.synthgen import load_dataset
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
    import copy
    cfg = copy.deepcopy(tiny_cfg)
    cfg.dataset.shots = 3
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
    with pytest.raises((StalenessError, Exception)):
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
    agg = multirun(tiny_cfg, [11, 12], out)
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
        multirun(tiny_cfg, [7], tmp_path)


def test_multirun_duplicate_seeds_collapse(tiny_cfg, tmp_path):
    agg = multirun(tiny_cfg, [9, 9], tmp_path)
    assert agg["seeds"] == [9, 9]
    assert not agg["incomplete"]
    for row in agg["metrics"].values():
        assert row["n"] == 1 and row["stddev"] is None


def test_multirun_failed_seed_marks_incomplete(tiny_cfg, tmp_path):
    out = tmp_path / "mr"
    # poison one seed dir with a stamp from a different configuration
    paths = RunPaths(out, 21)
    paths.root.mkdir(parents=True)
    paths.stamp("gen").write_text(json.dumps(
        {"stage": "gen", "seed": 21, "config_digest": "deadbeef",
         "inputs": {}, "outputs": {}}), encoding="utf-8")
    agg = multirun(tiny_cfg, [20, 21], out)
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


def _die_on_seed_31(cfg, seed, out_root, stages):
    """Stands in for run_experiment in a pool worker: seed 31's worker dies."""
    if seed == 31:
        os._exit(1)


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


def test_run_ablation_distinct_digests(tiny_cfg, tmp_path):
    table = run_ablation(tiny_cfg, {"rpn_strategy": ["max", "base-only"]}, 3, tmp_path)
    assert len(table["rows"]) == 2
    digests = {r["config_digest"] for r in table["rows"]}
    assert len(digests) == 2
    assert (tmp_path / "ablation.json").exists()
    assert (tmp_path / "ablation.csv").exists()
    for row in table["rows"]:
        cell_dir = tmp_path / ",".join(f"{k}={v}" for k, v in sorted(row["cell"].items()))
        assert (RunPaths(cell_dir, 3).eval_dir() / "report.json").exists()


def test_novel_only_cell_runs_without_consistency(tiny_cfg, tmp_path):
    table = run_ablation(tiny_cfg, {"head_domain": ["novel-only"]}, 3, tmp_path)
    row = table["rows"][0]
    cell_dir = tmp_path / "head_domain=novel-only"
    cfg_blob = json.loads((RunPaths(cell_dir, 3).root / "config.json")
                          .read_text(encoding="utf-8"))
    assert cfg_blob["config"]["finetune"]["consistency"] == "off"
    assert cfg_blob["config"]["finetune"]["head_domain"] == "novel-only"
    assert "ap" in row["metrics"]


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
    text = capsys.readouterr().out
    assert "summary.ap" in text and "recall." in text


def test_main_exit_code_for_bad_config(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("dataset:\n  rocket_fuel: 9\n", encoding="utf-8")
    code = main(["eval", "--config", str(bad), "--seed", "1",
                 "--out", str(tmp_path / "o")])
    assert code == 2


@pytest.mark.parametrize("entry", [
    "pre_nms_k: 0", "post_nms_k: -1", "post_nms_k: 2.5", "max_dets: 0",
    "proposal_nms_iou: 1.5", "nms_iou: -0.1", "nms_iou: '0.5'", "score_thresh: 2",
])
def test_bad_detect_config_exits_2(tmp_path, entry):
    bad = tmp_path / "bad.yaml"
    bad.write_text(f"detect:\n  {entry}\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(bad)
    code = main(["eval", "--config", str(bad), "--seed", "1",
                 "--out", str(tmp_path / "o")])
    assert code == 2


def test_detect_config_accepts_boundary_values(tmp_path):
    path = tmp_path / "edge.yaml"
    path.write_text("detect:\n  pre_nms_k: 1\n  post_nms_k: 1\n  max_dets: 1\n"
                    "  proposal_nms_iou: 1.0\n  nms_iou: 0\n  score_thresh: 0.0\n",
                    encoding="utf-8")
    assert load_config(path).detect.post_nms_k == 1


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
    assert err.count("\n") == 1 and "no checkpoint" in err


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


@pytest.mark.parametrize("content", ["truncate", "[1, 2]"])
def test_unreadable_manifest_exits_4(tiny_yaml, finished_run, tmp_path, capsys, content):
    out = tmp_path / "copy"
    shutil.copytree(finished_run, out)
    manifest = RunPaths(out, 3).dataset_dir("test") / "manifest.json"
    text = manifest.read_text(encoding="utf-8")
    manifest.write_text(text[:40] if content == "truncate" else content, encoding="utf-8")
    assert main(["eval", "--config", str(tiny_yaml), "--seed", "3",
                 "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "manifest.json" in err


def test_foreign_checkpoint_magic_exits_4(tiny_yaml, finished_run, tmp_path, capsys):
    out = tmp_path / "copy"
    shutil.copytree(finished_run, out)
    ckpt = RunPaths(out, 3).checkpoint("base")
    ckpt.write_bytes(b"XXXXXXXX" + ckpt.read_bytes()[8:])
    assert main(["eval", "--config", str(tiny_yaml), "--seed", "3",
                 "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "magic" in err


@pytest.mark.parametrize("content", ["truncate", "[1, 2]"])
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


@pytest.mark.parametrize("content", ["truncate", "[1, 2]", '{"seeds": [1, 2]}'])
def test_unreadable_aggregate_exits_4(tmp_path, capsys, content):
    agg = tmp_path / "aggregate.json"
    text = json.dumps({"seeds": [1, 2], "incomplete": False,
                       "metrics": {"ap": {"mean": 0.5, "stddev": 0.1, "n": 2}}})
    agg.write_text(text, encoding="utf-8")
    assert main(["report", "--out", str(tmp_path)]) == 0
    assert "ap" in capsys.readouterr().out
    agg.write_text(text[:len(text) // 2] if content == "truncate" else content,
                   encoding="utf-8")
    assert main(["report", "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "aggregate.json" in err


def test_detect_under_another_config_exits_4(tiny_yaml, finished_run, tmp_path, capsys):
    out = tmp_path / "copy"
    shutil.copytree(finished_run, out)
    assert main(["detect", "--config", str(tiny_yaml), "--seed", "3", "--out", str(out),
                 "--lambda", "0.9", "--classifier", "fc"]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "different configuration" in err
    assert not RunPaths(out, 3).detections().exists()


def test_detect_with_replaced_checkpoint_exits_4(tiny_yaml, finished_run, tmp_path, capsys):
    out = tmp_path / "copy"
    shutil.copytree(finished_run, out)
    paths = RunPaths(out, 3)
    shutil.copyfile(paths.checkpoint("base"), paths.checkpoint("retentive"))
    assert main(["detect", "--config", str(tiny_yaml), "--seed", "3", "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "finetune stamp" in err


def _upstream(paths):
    return [_read_stamp(paths.stamp(s))["outputs"] for s in ("gen", "pretrain", "finetune")]


def test_eval_runs_one_image_forward_per_image(tiny_cfg, finished_run, tmp_path, monkeypatch):
    out = tmp_path / "copy"
    shutil.copytree(finished_run, out)
    paths = RunPaths(out, 3)
    calls = {"fixed_featurizer": 0, "propose": 0}

    def counted(name):
        real = getattr(D, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(D, name, counted(name))
    _evaluate_models(tiny_cfg, 3, paths, *_upstream(paths))
    images = sum(len(load_dataset(paths.dataset_dir(n)).images) for n in ("test", "uar-eval"))
    assert calls == {"fixed_featurizer": images, "propose": len(RPN_STRATEGIES) * images}
    report = "eval/report.json"
    assert (out / "seed-3" / report).read_bytes() == (finished_run / "seed-3" / report).read_bytes()


def test_eval_rejects_base_without_the_shared_frozen_arrays(tiny_cfg, finished_run, tmp_path):
    out = tmp_path / "copy"
    shutil.copytree(finished_run, out)
    paths = RunPaths(out, 3)
    base = load_checkpoint(paths.checkpoint("base"))
    base.params.arrays["rpn_box/b"][0] += 1e-9
    save_checkpoint(base, paths.checkpoint("base"))
    with pytest.raises(StalenessError, match="frozen arrays"):
        _evaluate_models(tiny_cfg, 3, paths, *_upstream(paths))


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


# ---------------------------------------------------------------------------
# parsing helpers
# ---------------------------------------------------------------------------

def test_parse_stage_list():
    assert _parse_stage_list(None, ("gen",)) == ("gen",)
    assert _parse_stage_list("gen, pretrain", STAGES) == ("gen", "pretrain")
    with pytest.raises(ConfigError):
        _parse_stage_list("gen,launch", STAGES)


def test_parse_axes():
    axes = _parse_axes("rpn_strategy=max,base-only;consistency=off")
    assert axes == {"rpn_strategy": ["max", "base-only"], "consistency": ["off"]}
    with pytest.raises(ConfigError):
        _parse_axes("justwords")
    with pytest.raises(ConfigError):
        _parse_axes("")


def test_parse_seeds():
    assert _parse_seeds("3,1,2") == [3, 1, 2]
    with pytest.raises(ConfigError):
        _parse_seeds("a,b")
    with pytest.raises(ConfigError):
        _parse_seeds("")
