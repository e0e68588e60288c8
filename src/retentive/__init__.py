"""Deterministic desk-scale pipeline for balanced few-shot object detection.

The package splits into dataset synthesis (synthgen), dense float64 kernels
(tensorops), the two-headed detector (detector), training objectives with
closed-form gradients (losses), the two-stage optimizer loop (trainer),
metrics, the eval stage and report emission (evaluation), and experiment
orchestration (cli). The top level exports the library surface, from a config
to the report.json dict; everything else is imported from its module.
Importing the package imports tensorops, which runs numpy's OpenBLAS on one
thread before any matrix product.
"""

from .config import load_config
from .detector import detect
from .evaluation import evaluate
from .trainer import finetune, pretrain

__version__ = "0.1.0"

__all__ = ["load_config", "pretrain", "finetune", "detect", "evaluate", "__version__"]
