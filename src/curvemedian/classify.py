"""Nearest-template classification of curves, plus a k-NN benchmark.

One template per class is extracted from labeled training curves, either as
the intrinsic median over graph-estimated geodesic distances ("manifold"),
the pointwise mean ("mean"), or the Euclidean medoid ("medoid").  Queries
are assigned to the class of the Euclidean-nearest template, optionally
after discarding grid points at or beyond a time cutoff.
"""

from __future__ import annotations

import numbers
from dataclasses import asdict, dataclass
from typing import List, Optional, Union

import numpy as np

from .errors import UsageError
from .geometry import _cross_distances
from .graphs import DEFAULT_CAP, geodesic_pipeline
from .models import CurvePanel
from .stats import cross_sectional_mean, euclidean_medoid, intrinsic_estimate

__all__ = [
    "TEMPLATE_METHODS",
    "TemplateSet",
    "KnnClassifier",
    "ClassifierConfig",
    "ConfusionMatrix",
    "extract_templates",
    "predict_labels",
    "confusion_from_predictions",
    "evaluate",
]

TEMPLATE_METHODS = ("manifold", "mean", "medoid")


@dataclass
class TemplateSet:
    """One template curve per class.

    `provenance[k]` is the training-row index the template was copied from,
    or None for the pointwise mean.  labels are kept sorted; ties in later
    nearest-template queries resolve in this order.
    """

    method: str
    grid: np.ndarray
    labels: List[str]
    curves: np.ndarray
    provenance: List[Optional[int]]


@dataclass(frozen=True)
class KnnClassifier:
    train: CurvePanel
    k: int

    def __post_init__(self):
        k, n = self.k, len(_require_labels(self.train, "training"))
        if isinstance(k, bool) or not isinstance(k, numbers.Integral) or not 1 <= k <= n:
            raise UsageError(f"k must be an integer in [1, {n}], got {k!r}")


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


# accepted types of each config key
_CONFIG_TYPES = {
    "method": (str, "a string"),
    "alpha": (numbers.Real, "a number"),
    "k": (numbers.Integral, "an integer"),
    "truncate_at": ((numbers.Real, type(None)), "a number or null"),
    "cap": ((numbers.Real, type(None)), "a number or null"),
}


@dataclass
class ClassifierConfig:
    """Flat bundle of classification settings, JSON-friendly."""

    method: str = "manifold"
    alpha: float = 1.0
    k: int = 5
    truncate_at: Optional[float] = None
    cap: Optional[float] = DEFAULT_CAP

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ClassifierConfig":
        cfg = cls(**_checked(d, _CONFIG_TYPES, "classifier config"))
        if cfg.method not in TEMPLATE_METHODS + ("knn",):
            raise UsageError(f"unknown method {cfg.method!r}")
        return cfg


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


def _class_order(labels) -> List[str]:
    return sorted(set(labels))


def _require_labels(panel: CurvePanel, who: str) -> List[str]:
    if panel.labels is None:
        raise UsageError(f"{who} panel carries no class labels")
    return panel.labels


def extract_templates(
    train: CurvePanel,
    method: str = "manifold",
    alpha: float = 1.0,
    cap: Optional[float] = DEFAULT_CAP,
) -> TemplateSet:
    """Extract one template per class from a labeled training panel."""
    labels = _require_labels(train, "training")
    if method not in TEMPLATE_METHODS:
        raise UsageError(f"unknown template method {method!r}; known: {TEMPLATE_METHODS}")
    order = _class_order(labels)
    curves = np.empty((len(order), train.m))
    provenance: List[Optional[int]] = []
    lab_arr = np.asarray(labels)
    for row, label in enumerate(order):
        member_idx = np.flatnonzero(lab_arr == label)
        members = train.values[member_idx]
        if method == "mean":
            curves[row] = cross_sectional_mean(members)
            provenance.append(None)
            continue
        if method == "manifold":
            result = geodesic_pipeline(members, cap=cap)
            est = intrinsic_estimate(result.distances, alpha=alpha)
        else:  # medoid
            est = euclidean_medoid(members, alpha=alpha)
        curves[row] = members[est.index]
        provenance.append(int(member_idx[est.index]))
    return TemplateSet(
        method=method,
        grid=train.grid.copy(),
        labels=order,
        curves=curves,
        provenance=provenance,
    )


def _active_columns(grid: np.ndarray, truncate_at: Optional[float]) -> np.ndarray:
    if truncate_at is None:
        return np.ones(grid.size, dtype=bool)
    mask = grid < truncate_at
    if not mask.any():
        raise UsageError(f"truncation at {truncate_at} removes every grid point")
    return mask


def predict_labels(
    classifier: Union[TemplateSet, KnnClassifier],
    test: CurvePanel,
    truncate_at: Optional[float] = None,
) -> List[str]:
    """One label per test row, from one Euclidean distance pass over the panel.

    A `TemplateSet` gives each row the label of its nearest template, exact
    ties resolving in template label order.  A `KnnClassifier` gives the
    majority label among the k nearest training curves: neighbour ties at
    equal distance take the smaller row index, vote ties the label earliest
    in sorted order.  With `truncate_at`, only grid points strictly before
    the cutoff enter the comparison.  The distances are the pipeline's
    (`geometry._cross_distances`): a distance beyond float64 is `NumericError`.
    """
    if isinstance(classifier, TemplateSet):
        refs, grid, what = classifier.curves, classifier.grid, "the template grid"
    elif isinstance(classifier, KnnClassifier):
        refs, grid, what = classifier.train.values, classifier.train.grid, "the panel grid"
    else:
        raise UsageError(f"cannot classify with {type(classifier).__name__}")
    if test.values.shape[1:] != grid.shape:
        raise UsageError(f"query length {test.values.shape[1:]} does not match {what} ({grid.size})")
    cols = _active_columns(grid, truncate_at)
    d = _cross_distances(test.values[:, cols], refs[:, cols])
    if isinstance(classifier, TemplateSet):
        return [classifier.labels[c] for c in d.argmin(axis=1)]
    labels = classifier.train.labels
    order = _class_order(labels)
    code = {label: c for c, label in enumerate(order)}
    codes = np.array([code[label] for label in labels])
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
    classifier: Union[TemplateSet, KnnClassifier],
    test: CurvePanel,
    truncate_at: Optional[float] = None,
) -> ConfusionMatrix:
    """Confusion matrix of a classifier over a labeled test panel."""
    refs = _require_labels(test, "test")
    if isinstance(classifier, TemplateSet):
        order = classifier.labels
    else:
        order = _class_order(classifier.train.labels)
    preds = predict_labels(classifier, test, truncate_at)
    return confusion_from_predictions(order, refs, preds)
