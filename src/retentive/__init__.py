"""Deterministic desk-scale pipeline for balanced few-shot object detection.

The package splits into dataset synthesis (synthgen), dense float64 kernels
(tensorops), the two-headed detector (detector), training objectives with
closed-form gradients (losses), the two-stage optimizer loop (trainer),
metrics, the eval stage and report emission (evaluation), and experiment
orchestration (cli). The top level exports the library surface, from a config
to the report.json dict; everything else is imported from its module.
Importing the package imports tensorops, which runs numpy's OpenBLAS on one
thread before any matrix product. The training and evaluation code loads on
first use: the module ``__getattr__`` below (PEP 562) imports the module that
defines pretrain, finetune, detect or evaluate when one is first read, so a
command loads a stage's code only when it runs that stage.
"""

import importlib

from . import tensorops  # noqa: F401  (pins OpenBLAS to one thread)
from .config import load_config

__version__ = "0.1.0"

__all__ = ["load_config", "pretrain", "finetune", "detect", "evaluate", "__version__"]

# exported name -> the module that defines it
_LAZY = {"pretrain": "trainer", "finetune": "trainer", "detect": "detector",
         "evaluate": "evaluation"}


def __getattr__(name):
    if name in _LAZY:
        return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
