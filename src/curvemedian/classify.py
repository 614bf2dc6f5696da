"""Nearest-reference classification of curves: templates and k-NN.

One template per class is extracted from labeled training curves, either as
the intrinsic median over graph-estimated geodesic distances ("manifold"),
the pointwise mean ("mean"), or the Euclidean medoid ("medoid").  A query
takes the majority label of its k Euclidean-nearest reference curves, the
templates (k = 1) or the training curves themselves, optionally after
discarding grid points at or beyond a time cutoff.
"""

from __future__ import annotations

import numbers
from dataclasses import asdict, dataclass, fields
from typing import List, Optional

import numpy as np

from .errors import UsageError
from .geometry import _cross_distances
from .graphs import DEFAULT_CAP, _cap, geodesic_pipeline
from .panel_io import CurvePanel
from .stats import _alpha, cross_sectional_mean, euclidean_medoid, intrinsic_estimate

__all__ = [
    "TEMPLATE_METHODS",
    "KnnClassifier",
    "ClassifierConfig",
    "ConfusionMatrix",
    "extract_templates",
    "predict_labels",
    "confusion_from_predictions",
    "evaluate",
]

TEMPLATE_METHODS = ("manifold", "mean", "medoid")


@dataclass(frozen=True)
class KnnClassifier:
    """A labeled panel of reference curves, of which the k nearest vote:
    the training curves, or one template per class with k = 1."""

    train: CurvePanel
    k: int

    def __post_init__(self):
        _k(self.k, len(_require_labels(self.train, "training")))

    @property
    def labels(self) -> List[str]:
        """The classes in sorted order, the order vote ties resolve in."""
        return sorted(set(self.train.labels))


def _k(k, n) -> None:
    """Refuses (`UsageError`) a k that is a bool, not an integer, or outside [1, n]."""
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or not 1 <= k <= n:
        raise UsageError(f"k must be an integer in [1, {n}], got {k!r}")


@dataclass(frozen=True)
class ClassifierConfig:
    """Flat bundle of classification settings, JSON-friendly; every value is
    checked when it is built, whatever the method."""

    method: str = "manifold"
    alpha: float = 1.0
    k: int = 5
    truncate_at: Optional[float] = None
    cap: Optional[float] = DEFAULT_CAP

    def __post_init__(self):
        if self.method not in TEMPLATE_METHODS + ("knn",):
            raise UsageError(f"unknown method {self.method!r}")
        _alpha(self.alpha)
        _cap(self.cap)
        _k(self.k, np.inf)
        _cutoff(self.truncate_at)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ClassifierConfig":
        """The config of a JSON object's keys; `__post_init__` checks their values."""
        if not isinstance(d, dict):
            raise UsageError(f"classifier config must be a JSON object, got {type(d).__name__}")
        extra = set(d) - {f.name for f in fields(cls)}
        if extra:
            raise UsageError(f"unknown classifier config keys: {sorted(extra)}")
        return cls(**d)


@dataclass
class ConfusionMatrix:
    """Counts with rows indexed by reference label, columns by prediction."""

    labels: List[str]
    counts: np.ndarray

    def accuracy(self) -> float:
        total = int(self.counts.sum())
        if total == 0:
            raise UsageError("empty confusion matrix")
        return float(np.trace(self.counts)) / total


def _require_labels(panel: CurvePanel, who: str) -> List[str]:
    if panel.labels is None:
        raise UsageError(f"{who} panel carries no class labels")
    return panel.labels


def extract_templates(
    train: CurvePanel,
    method: str = "manifold",
    alpha: float = 1.0,
    cap: Optional[float] = DEFAULT_CAP,
) -> KnnClassifier:
    """One template per class of a labeled training panel, as the 1-NN
    classifier over the templates, labeled and ordered by sorted class."""
    labels = _require_labels(train, "training")
    if method not in TEMPLATE_METHODS:
        raise UsageError(f"unknown template method {method!r}; known: {TEMPLATE_METHODS}")
    order = sorted(set(labels))
    curves = np.empty((len(order), train.m))
    lab_arr = np.asarray(labels)
    for row, label in enumerate(order):
        members = train.values[lab_arr == label]
        if method == "mean":
            curves[row] = cross_sectional_mean(members)
            continue
        if method == "manifold":
            result = geodesic_pipeline(members, cap=cap)
            est = intrinsic_estimate(result.distances, alpha=alpha)
        else:  # medoid
            est = euclidean_medoid(members, alpha=alpha)
        curves[row] = members[est.index]
    return KnnClassifier(CurvePanel(train.grid.copy(), curves, labels=order), k=1)


def _cutoff(truncate_at) -> None:
    """Refuses (`UsageError`) a cutoff that is a bool, not a real number or not finite; None passes."""
    if truncate_at is not None and (isinstance(truncate_at, bool) or not isinstance(truncate_at, numbers.Real)):
        raise UsageError(f"truncate_at must be a number or None, got {truncate_at!r}")
    if truncate_at is not None and not -np.inf < truncate_at < np.inf:
        raise UsageError(f"truncate_at must be a finite number or None, got {truncate_at!r}")


def _active_columns(grid: np.ndarray, truncate_at: Optional[float]) -> np.ndarray:
    _cutoff(truncate_at)
    if truncate_at is None:
        return np.ones(grid.size, dtype=bool)
    mask = grid < truncate_at
    if not mask.any():
        raise UsageError(f"truncation at {truncate_at} removes every grid point")
    return mask


def predict_labels(
    classifier: KnnClassifier,
    test: CurvePanel,
    truncate_at: Optional[float] = None,
) -> List[str]:
    """One label per test row, from one Euclidean distance pass over the panel.

    Each row takes the majority label among its k nearest reference curves:
    reference ties at equal distance take the smaller row index, vote ties
    the label earliest in sorted order.  So with one template per class and
    k = 1, an exact tie goes to the template first in sorted label order.
    With `truncate_at`, only grid points strictly before the cutoff enter
    the comparison.  The distances are the pipeline's
    (`geometry._cross_distances`): a distance beyond float64 is `NumericError`.
    """
    train = classifier.train
    if test.values.shape[1:] != train.grid.shape:
        raise UsageError(f"query length {test.values.shape[1:]} does not match the reference grid ({train.grid.size})")
    cols = _active_columns(train.grid, truncate_at)
    d = _cross_distances(test.values[:, cols], train.values[:, cols])
    order = classifier.labels
    code = {label: c for c, label in enumerate(order)}
    codes = np.array([code[label] for label in train.labels])
    nearest = np.argsort(d, axis=1, kind="stable")[:, : classifier.k]
    cells = np.arange(len(d))[:, None] * len(order) + codes[nearest]
    votes = np.bincount(cells.ravel(), minlength=d.shape[0] * len(order)).reshape(-1, len(order))
    # argmax takes the first of equal counts: the earliest label in sorted order
    return [order[c] for c in votes.argmax(axis=1)]


def confusion_from_predictions(labels, references, predictions) -> ConfusionMatrix:
    order = list(labels)
    pos = {lab: i for i, lab in enumerate(order)}
    counts = np.zeros((len(order), len(order)), dtype=int)
    for ref, pred in zip(references, predictions, strict=True):
        if ref not in pos:
            raise UsageError(f"test label {ref!r} never seen in training classes {order}")
        counts[pos[ref], pos[pred]] += 1
    return ConfusionMatrix(labels=order, counts=counts)


def evaluate(
    classifier: KnnClassifier,
    test: CurvePanel,
    truncate_at: Optional[float] = None,
) -> ConfusionMatrix:
    """Confusion matrix of a classifier over a labeled test panel."""
    refs = _require_labels(test, "test")
    return confusion_from_predictions(classifier.labels, refs, predict_labels(classifier, test, truncate_at))
