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
from .graphs import DEFAULT_CAP, geodesic_pipeline
from .models import CurvePanel
from .stats import cross_sectional_mean, intrinsic_estimate, pairwise_euclidean_matrix

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


# accepted types of each config key; a bool is never a number here
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
        extra = set(d) - set(_CONFIG_TYPES)
        if extra:
            raise UsageError(f"unknown classifier config keys: {sorted(extra)}")
        for key, value in d.items():
            kinds, what = _CONFIG_TYPES[key]
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise UsageError(f"classifier config {key!r} must be {what}, got {value!r}")
        cfg = cls(**d)
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
            est = intrinsic_estimate(pairwise_euclidean_matrix(members), alpha=alpha)
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


def _distances(refs: np.ndarray, queries: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """(queries x refs) Euclidean distances over the active columns.

    One einsum per row of the shorter side.  einsum sums a single row in
    another order than a stack of two or more, so a lone query or a lone
    reference is summed as a one-query call sums it: against the stack of
    references.
    """
    swap = len(queries) > len(refs) > 1
    outer, inner = (refs, queries) if swap else (queries, refs)
    inner = inner[:, cols]
    d, diff = np.empty((len(outer), len(inner))), np.empty_like(inner)
    for r, row in enumerate(outer[:, cols]):
        np.subtract(inner, row, out=diff)  # ref - query or its exact negation: the same squares
        np.einsum("nk,nk->n", diff, diff, out=d[r])
    np.sqrt(d, out=d)
    return d.T if swap else d


def _predict(classifier, queries: np.ndarray, truncate_at: Optional[float]) -> List[str]:
    """Labels of a stack of query rows, from one distance matrix."""
    if isinstance(classifier, TemplateSet):
        refs, grid, what = classifier.curves, classifier.grid, "the template grid"
    elif isinstance(classifier, KnnClassifier):
        train, k = classifier.train, classifier.k
        labels = _require_labels(train, "training")
        if isinstance(k, bool) or not isinstance(k, numbers.Integral):
            raise UsageError(f"k must be an integer, got {k!r}")
        if not 1 <= k <= train.n:
            raise UsageError(f"k must be in [1, {train.n}], got {k}")
        refs, grid, what = train.values, train.grid, "the panel grid"
    else:
        raise UsageError(f"cannot classify with {type(classifier).__name__}")
    if queries.shape[1:] != grid.shape:
        raise UsageError(f"query length {queries.shape[1:]} does not match {what} ({grid.size})")
    d = _distances(refs, queries, _active_columns(grid, truncate_at))
    if isinstance(classifier, TemplateSet):
        return [classifier.labels[c] for c in d.argmin(axis=1)]
    order = _class_order(labels)
    code = {label: c for c, label in enumerate(order)}
    codes = np.array([code[label] for label in labels])
    nearest = np.argsort(d, axis=1, kind="stable")[:, :k]
    cells = np.arange(len(queries))[:, None] * len(order) + codes[nearest]
    votes = np.bincount(cells.ravel(), minlength=d.shape[0] * len(order)).reshape(-1, len(order))
    # argmax takes the first of equal counts: the earliest label in sorted order
    return [order[c] for c in votes.argmax(axis=1)]


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
    the cutoff enter the comparison.
    """
    return _predict(classifier, test.values, truncate_at)


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
        order = _class_order(_require_labels(classifier.train, "training"))
    preds = predict_labels(classifier, test, truncate_at)
    return confusion_from_predictions(order, refs, preds)
