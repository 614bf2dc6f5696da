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
from .graphs import geodesic_pipeline
from .models import CurvePanel
from .stats import cross_sectional_mean, intrinsic_estimate, pairwise_euclidean_matrix

__all__ = [
    "TemplateSet",
    "KnnClassifier",
    "ClassifierConfig",
    "ConfusionMatrix",
    "extract_templates",
    "classify_nearest_template",
    "knn_classify",
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
    "tol": ((numbers.Real, type(None)), "a number or null"),
}


@dataclass
class ClassifierConfig:
    """Flat bundle of classification settings, JSON-friendly."""

    method: str = "manifold"
    alpha: float = 1.0
    k: int = 5
    truncate_at: Optional[float] = None
    tol: Optional[float] = None

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
    tol: Optional[float] = None,
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
            result = geodesic_pipeline(members, tol=tol)
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


def classify_nearest_template(
    templates: TemplateSet, query, truncate_at: Optional[float] = None
) -> str:
    """Label of the template nearest to the query in Euclidean distance.

    With `truncate_at`, only grid points strictly before the cutoff enter
    the comparison.  Exact ties resolve in template label order.
    """
    q = np.asarray(query, dtype=float)
    if q.shape != (templates.grid.size,):
        raise UsageError(
            f"query length {q.shape} does not match the template grid ({templates.grid.size})"
        )
    cols = _active_columns(templates.grid, truncate_at)
    diff = templates.curves[:, cols] - q[cols][None, :]
    d = np.sqrt(np.einsum("lk,lk->l", diff, diff))
    return templates.labels[int(np.argmin(d))]


def knn_classify(
    train: CurvePanel, query, k: int, truncate_at: Optional[float] = None
) -> str:
    """Majority label among the k Euclidean-nearest training curves.

    Neighbor ties at equal distance take the smaller row index; vote ties
    take the label earliest in sorted label order.
    """
    labels = _require_labels(train, "training")
    if not 1 <= k <= train.n:
        raise UsageError(f"k must be in [1, {train.n}], got {k}")
    q = np.asarray(query, dtype=float)
    if q.shape != (train.m,):
        raise UsageError(f"query length {q.shape} does not match the panel grid ({train.m})")
    cols = _active_columns(train.grid, truncate_at)
    diff = train.values[:, cols] - q[cols][None, :]
    d = np.sqrt(np.einsum("nk,nk->n", diff, diff))
    nearest = np.argsort(d, kind="stable")[:k]
    votes: dict = {}
    for idx in nearest:
        lab = labels[int(idx)]
        votes[lab] = votes.get(lab, 0) + 1
    best = max(votes.values())
    for label in _class_order(labels):
        if votes.get(label, 0) == best:
            return label
    raise AssertionError("unreachable: some label must hold the top vote count")


def predict_labels(
    classifier: Union[TemplateSet, KnnClassifier],
    test: CurvePanel,
    truncate_at: Optional[float] = None,
) -> List[str]:
    if isinstance(classifier, TemplateSet):
        return [
            classify_nearest_template(classifier, row, truncate_at)
            for row in test.values
        ]
    if isinstance(classifier, KnnClassifier):
        return [
            knn_classify(classifier.train, row, classifier.k, truncate_at)
            for row in test.values
        ]
    raise UsageError(f"cannot classify with {type(classifier).__name__}")


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
