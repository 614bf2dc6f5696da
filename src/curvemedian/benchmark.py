"""Self-contained two-class classification benchmark.

Each class warps its own target with random amplitude and time shift:
rows are A * f(t - C) with A, C uniform per class.  The bundled
configuration (configs/benchmark_2class.json) pins every law and the seed,
so the benchmark is reproducible bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .classify import KnnClassifier, _cutoff, _from_json, _k, evaluate, extract_templates
from .errors import DataFormatError, UsageError
from .models import _check_range, _count, _grid_span, _seed, get_target
from .panel_io import CurvePanel

__all__ = [
    "BenchmarkClass",
    "BenchmarkConfig",
    "load_benchmark_config",
    "generate_benchmark",
    "run_benchmark",
]


@dataclass
class BenchmarkClass:
    label: str
    target: str
    amp_range: Tuple[float, float]
    shift_range: Tuple[float, float]


@dataclass
class BenchmarkConfig:
    classes: List[BenchmarkClass]
    n_train: int = 50
    n_test: int = 100
    m: int = 100
    t_range: Tuple[float, float] = (-10.0, 10.0)
    seed: int = 0
    truncate_at: Optional[float] = None
    knn_k: int = 5


def _plan(cfg: BenchmarkConfig):
    """np.linspace's grid span, the seed and per-class (label, target, amp_range,
    shift_range) of a config, or `UsageError` for the first value a run would refuse."""
    if len(cfg.classes) < 2:
        raise UsageError("benchmark needs at least two classes")
    per_class = _count("n_train", cfg.n_train, 1) + _count("n_test", cfg.n_test, 1)
    span = _grid_span(len(cfg.classes) * per_class, cfg.m, cfg.t_range)
    _cutoff(cfg.truncate_at)
    _k(cfg.knn_k, math.inf)
    classes = []
    for cls in cfg.classes:
        if not isinstance(cls.label, str):
            raise UsageError(f"class label must be a string, got {cls.label!r}")
        amp_range = _check_range(f"class {cls.label!r} amp_range", cls.amp_range)
        shift_range = _check_range(f"class {cls.label!r} shift_range", cls.shift_range)
        classes.append((cls.label, get_target(cls.target), amp_range, shift_range))
    return span, _seed(cfg.seed), classes


def load_benchmark_config(path) -> BenchmarkConfig:
    """The config in a JSON file; a bad file, key or value is a `DataFormatError` naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = _from_json(BenchmarkConfig, json.load(fh), "config")
        if not isinstance(cfg.classes, list):
            raise UsageError(f"config 'classes' must be a list of classes, got {cfg.classes!r}")
        cfg.classes = [_from_json(BenchmarkClass, c, "class") for c in cfg.classes]
        _plan(cfg)
    except (json.JSONDecodeError, UnicodeDecodeError, TypeError, UsageError) as exc:  # TypeError: a missing key
        raise DataFormatError(f"{path}: bad benchmark config ({exc})") from exc
    return cfg


def generate_benchmark(cfg: BenchmarkConfig) -> Tuple[CurvePanel, CurvePanel]:
    """Deterministic train/test panels; per class the draw order is
    train amplitudes, train shifts, test amplitudes, test shifts."""
    span, seed, classes = _plan(cfg)
    grid, rng = np.linspace(*span), np.random.default_rng(seed)
    train_rows, train_labels = [], []
    test_rows, test_labels = [], []
    for label, tgt, amp_range, shift_range in classes:
        for count, rows, labels in (
            (cfg.n_train, train_rows, train_labels),
            (cfg.n_test, test_rows, test_labels),
        ):
            amp = rng.uniform(*amp_range, count)
            shift = rng.uniform(*shift_range, count)
            rows.append(amp[:, None] * np.asarray(tgt.f(grid[None, :] - shift[:, None]), dtype=float))
            labels.extend([label] * count)
    train = CurvePanel(grid=grid, values=np.vstack(train_rows), labels=train_labels)
    test = CurvePanel(grid=grid, values=np.vstack(test_rows), labels=test_labels)
    return train, test


def run_benchmark(
    cfg: BenchmarkConfig,
    methods: Tuple[str, ...] = ("manifold", "mean", "medoid", "knn"),
) -> Dict[str, dict]:
    """Run every requested method on one shared split.

    Returns {method: {"accuracy": float, "confusion": ConfusionMatrix}}.
    """
    train, test = generate_benchmark(cfg)
    out: Dict[str, dict] = {}
    for method in methods:
        if method == "knn":
            classifier = KnnClassifier(train=train, k=cfg.knn_k)
        else:
            classifier = extract_templates(train, method=method)
        cm = evaluate(classifier, test, truncate_at=cfg.truncate_at)
        out[method] = {"accuracy": cm.accuracy(), "confusion": cm}
    return out
