"""Self-contained two-class classification benchmark.

Each class warps its own target with random amplitude and time shift:
rows are A * f(t - C) with A, C uniform per class.  The bundled
configuration (configs/benchmark_2class.json) pins every law and the seed,
so the benchmark is reproducible bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .classify import KnnClassifier, evaluate, extract_templates
from .errors import DataFormatError, UsageError
from .models import CurvePanel, get_target

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


def load_benchmark_config(path) -> BenchmarkConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: invalid JSON ({exc})") from exc
    try:
        classes = [BenchmarkClass(**c) for c in raw.pop("classes")]
        cfg = BenchmarkConfig(classes=classes, **raw)
    except (KeyError, TypeError) as exc:
        raise DataFormatError(f"{path}: bad benchmark config ({exc})") from exc
    if len(cfg.classes) < 2:
        raise UsageError("benchmark needs at least two classes")
    return cfg


def generate_benchmark(cfg: BenchmarkConfig) -> Tuple[CurvePanel, CurvePanel]:
    """Deterministic train/test panels; per class the draw order is
    train amplitudes, train shifts, test amplitudes, test shifts."""
    if cfg.n_train < 1 or cfg.n_test < 1:
        raise UsageError("n_train and n_test must be >= 1")
    grid = np.linspace(cfg.t_range[0], cfg.t_range[1], cfg.m)
    rng = np.random.default_rng(cfg.seed)
    train_rows, train_labels = [], []
    test_rows, test_labels = [], []
    for cls in cfg.classes:
        tgt = get_target(cls.target)
        for count, rows, labels in (
            (cfg.n_train, train_rows, train_labels),
            (cfg.n_test, test_rows, test_labels),
        ):
            amp = rng.uniform(cls.amp_range[0], cls.amp_range[1], count)
            shift = rng.uniform(cls.shift_range[0], cls.shift_range[1], count)
            rows.append(amp[:, None] * np.asarray(tgt.f(grid[None, :] - shift[:, None]), dtype=float))
            labels.extend([cls.label] * count)
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
