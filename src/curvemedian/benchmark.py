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
from .models import _check_range, _count, _grid, _rng, get_target
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


def _matches(value, kinds) -> bool:
    """Whether `value` is of `kinds`, a type, a tuple of types or a list of kinds per list item; no bool is."""
    if isinstance(kinds, list):
        return isinstance(value, list) and len(value) == len(kinds) and all(map(_matches, value, kinds))
    return not isinstance(value, bool) and isinstance(value, kinds)


def _checked(d, types: dict, what: str) -> dict:
    """`d`, refused (`UsageError`) unless a dict whose every key `types` maps to (its value's kinds, description)."""
    if not isinstance(d, dict):
        raise UsageError(f"{what} must be a JSON object, got {type(d).__name__}")
    extra = set(d) - set(types)
    if extra:
        raise UsageError(f"unknown {what} keys: {sorted(extra)}")
    for key, value in d.items():
        kinds, description = types[key]
        if not _matches(value, kinds):
            raise UsageError(f"{what} {key!r} must be {description}, got {value!r}")
    return d


# accepted JSON types of each key of a config file and of each of its classes
_PAIR = ([(int, float)] * 2, "a [lo, hi] pair of numbers")
_CONFIG_TYPES = {
    "classes": (list, "a list of classes"),
    **dict.fromkeys(("n_train", "n_test", "m", "seed", "knn_k"), (int, "an integer")),
    "t_range": _PAIR,
    "truncate_at": ((int, float, type(None)), "a number or null"),
}
_CLASS_TYPES = {"label": (str, "a string"), "target": (str, "a string"), "amp_range": _PAIR, "shift_range": _PAIR}


def load_benchmark_config(path) -> BenchmarkConfig:
    """The config in a JSON file; a bad file, key or value is a `DataFormatError` naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = _checked(json.load(fh), _CONFIG_TYPES, "config")
        classes = [BenchmarkClass(**_checked(c, _CLASS_TYPES, "class")) for c in raw.pop("classes")]
        cfg = BenchmarkConfig(classes=classes, **raw)
    except (json.JSONDecodeError, UnicodeDecodeError, KeyError, TypeError, UsageError) as exc:
        raise DataFormatError(f"{path}: bad benchmark config ({exc})") from exc
    if len(cfg.classes) < 2:
        raise UsageError("benchmark needs at least two classes")
    return cfg


def generate_benchmark(cfg: BenchmarkConfig) -> Tuple[CurvePanel, CurvePanel]:
    """Deterministic train/test panels; per class the draw order is
    train amplitudes, train shifts, test amplitudes, test shifts."""
    _count("n_train", cfg.n_train, 1)
    _count("n_test", cfg.n_test, 1)
    grid = _grid(cfg.m, cfg.t_range)
    rng = _rng(cfg.seed)
    train_rows, train_labels = [], []
    test_rows, test_labels = [], []
    for cls in cfg.classes:
        tgt = get_target(cls.target)
        for count, rows, labels in (
            (cfg.n_train, train_rows, train_labels),
            (cfg.n_test, test_rows, test_labels),
        ):
            amp = rng.uniform(*_check_range(f"class {cls.label!r} amp_range", cls.amp_range), count)
            shift = rng.uniform(*_check_range(f"class {cls.label!r} shift_range", cls.shift_range), count)
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
