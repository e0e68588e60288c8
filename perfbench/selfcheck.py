#!/usr/bin/env python3
"""Fast self-check of the benchmark harness, in about a minute.

    python3 perfbench/selfcheck.py

On the tiny experiment of the CLI tests (6 base images, 25 pretrain and 12
finetune iterations) it records golden digests for three data seeds, then
runs every workload with ``--trace 0`` and ``--trace 1`` and checks that each
run passes its gate and prints exactly the metrics BENCHMARK.json and
layers.json name. It then checks that a tampered golden digest fails the run
and is named on standard error, and that the harness exits non-zero without
a result when the package source is missing. Exits 1 on the first failed
check.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

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


def fail(msg: str) -> None:
    sys.exit(f"selfcheck: FAIL {msg}")


def bench(argv, cwd: Path = run.ROOT, script: Path = run.HERE / "run.py"):
    done = subprocess.run([sys.executable, str(script), *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    lines = done.stdout.strip().splitlines()
    return done, (json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None)


def expect_result(res, names: dict[str, str], label: str) -> None:
    if res is None or set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{label}: last line is not a result object: {res!r}")
    if not (res["correct"] and res["failed"] == 0 and res["attempted"] >= 1):
        fail(f"{label}: gate failed: correct={res['correct']} failed={res['failed']}")
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != names:
        fail(f"{label}: metric names/units differ from BENCHMARK.json: "
             f"missing {sorted(set(names) - set(got))}, extra {sorted(set(got) - set(names))}")
    for k, v in res["metrics"].items():
        if not isinstance(v["value"], (int, float)) or v["value"] != v["value"]:
            fail(f"{label}: {k} is not a number: {v['value']!r}")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    mapping = json.loads((run.HERE / "layers.json").read_text())
    if set(mapping["per_layer"]) != set(layers) or set(mapping["end_to_end"]) != set(e2e):
        fail("layers.json and BENCHMARK.json name different metrics")
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        fail("BENCHMARK.json workloads differ from the harness")

    work = run.WORK / "selfcheck"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        cfg = work / "tiny.yaml"
        cfg.write_text(TINY_YAML)
        golden = work / "golden.json"
        subprocess.run([sys.executable, str(run.HERE / "golden.py"), "--config", str(cfg),
                        "--out", str(golden), "--seeds", "3"],
                       check=True, capture_output=True, timeout=170)
        common = ["--seed", "0", "--seconds", "1", "--config", str(cfg), "--golden", str(golden)]
        for workload in run.WORKLOADS:
            for trace, names in ((0, e2e), (1, layers)):
                done, res = bench(["--workload", workload, "--trace", str(trace), *common])
                label = f"{workload} trace {trace}"
                if done.returncode != 0:
                    fail(f"{label}: exit {done.returncode}\n{done.stderr}")
                expect_result(res, names, label)
                print(f"selfcheck: {label}: ok ({res['attempted']} operations)")

        table = json.loads(golden.read_text())
        table["seeds"]["0"]["report.json"] = "0" * 64
        tampered = work / "tampered.json"
        tampered.write_text(json.dumps(table))
        done, res = bench(["--workload", "infer", "--trace", "0", *common[:-1], str(tampered)])
        if res is None or res["correct"] or res["failed"] < 1:
            fail(f"tampered digest was not caught: {res}")
        if "digest mismatch: report.json" not in done.stderr:
            fail("tampered digest was not named on standard error")
        print(f"selfcheck: tampered report.json digest: caught ({res['failed']} failed)")

        bare = work / "bare"
        bare.mkdir()
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns(".work", ".out", ".cache", "__pycache__"))
        done, res = bench(["--workload", "train", "--trace", "0", "--seed", "0", "--seconds", "1"],
                          cwd=bare, script=bare / run.HERE.name / "run.py")
        if done.returncode == 0 or res is not None:
            fail("a checkout without src/ must exit non-zero without a result")
        print(f"selfcheck: checkout without src/: exit {done.returncode}, no result")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selfcheck: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
