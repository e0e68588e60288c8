#!/usr/bin/env python3
"""Record the golden digests that every benchmark run is gated on.

    python3 perfbench/golden.py                      # seeds 0..31 of bench.yaml
    python3 perfbench/golden.py --seeds 4 --config C --out G

For each data seed this runs the whole pipeline (gen, pretrain, finetune,
eval) through ``cli.run_experiment`` and the ``detect()`` loop the infer
workload runs, and stores the SHA-256 of ``models/base.ckpt``,
``models/retentive.ckpt``, ``eval/report.json`` and of the canonical
detections. Regenerate only in a change that re-baselines those artifacts.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import run


def record_seed(cfg, seed: int, work: Path) -> dict:
    from retentive.cli import RunPaths, run_experiment
    from retentive.detector import detect
    from retentive.synthgen import load_dataset
    from retentive.trainer import load_checkpoint

    root = work / f"golden-{seed}"
    shutil.rmtree(root, ignore_errors=True)
    try:
        run_experiment(cfg, seed, root)
        paths = RunPaths(root, seed)
        model = load_checkpoint(paths.checkpoint("retentive"))
        dets = [detect(model, img, cfg.detect) for name in ("test", "uar-eval")
                for img in load_dataset(paths.dataset_dir(name)).images]
        return {
            "base.ckpt": run.file_digest(paths.checkpoint("base")),
            "retentive.ckpt": run.file_digest(paths.checkpoint("retentive")),
            "report.json": run.file_digest(paths.eval_dir() / "report.json"),
            "detections": run.detections_digest(dets),
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--config", type=Path, default=run.HERE / "bench.yaml")
    p.add_argument("--out", type=Path, default=run.HERE / "golden.json")
    p.add_argument("--seeds", type=int, default=32, help="record data seeds 0..N-1")
    args = p.parse_args(argv)
    run.import_package()
    from retentive.config import load_config

    cfg = load_config(args.config)
    work = run.WORK / "golden"
    work.mkdir(parents=True, exist_ok=True)
    seeds = {str(s): record_seed(cfg, s, work) for s in range(args.seeds)}
    shutil.rmtree(work, ignore_errors=True)
    table = {"config": args.config.name, "config_digest": cfg.digest(), "seeds": seeds}
    args.out.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"golden: {len(seeds)} seeds of {args.config.name} written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
