"""Evaluation quantities: error rates, confusion counts, ROC sweeps, CV, correlation."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from flowbench.features import FeatureMatrix
from flowbench.flow_data import CANONICAL_COLUMNS, CLASS_TOKENS, csv_text


@dataclass
class RocPoints:
    """One-vs-rest ROC sweep for a single class, sorted by descending threshold."""

    thresholds: np.ndarray
    fpr: np.ndarray
    tpr: np.ndarray
    auc: float


@dataclass
class RocCurve:
    """Per-class ROC sweeps plus the unweighted (macro) mean AUC."""

    classes: list[int]
    per_class: list[RocPoints]
    macro_auc: float


@dataclass
class CVResult:
    k: int
    fold_errors: list[float]
    cv_error: float


@dataclass
class CorrelationMatrix:
    """Pearson correlations; constant columns are flagged and zeroed off-diagonal."""

    values: np.ndarray
    column_names: list[str]
    constant: np.ndarray


def mse(y, y_hat) -> float:
    """Mean squared error (1/n) * sum((y_i - y_hat_i)^2)."""
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    if y.shape != y_hat.shape:
        raise ValueError("length mismatch between y and y_hat")
    if y.size == 0:
        raise ValueError("mse requires at least one observation")
    diff = y - y_hat
    return float(np.dot(diff, diff) / y.size)


def confusion(y_true, y_pred, n_classes: int) -> np.ndarray:
    """Exact k x k int64 confusion counts for class codes in [0, n_classes).

    counts[i, j] is the number of samples of true class i predicted as class j.
    """
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape:
        raise ValueError("length mismatch between true and predicted labels")
    for name, arr in (("true", y_true), ("predicted", y_pred)):
        if arr.size and (arr.min() < 0 or arr.max() >= n_classes):
            raise ValueError(f"{name} labels outside [0, {n_classes})")
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(counts, (y_true, y_pred), 1)
    return counts


def _nonempty(counts: np.ndarray) -> np.ndarray:
    if not counts.any():
        raise ValueError("empty confusion matrix")
    return counts


def accuracy(counts: np.ndarray) -> float:
    """Trace over total of confusion counts."""
    counts = _nonempty(counts)
    return float(np.trace(counts) / counts.sum())


def balanced_accuracy(counts: np.ndarray) -> float:
    """Unweighted mean of the recalls of the classes present in the true labels."""
    support = _nonempty(counts).sum(axis=1)
    present = support > 0
    return float((np.diag(counts)[present] / support[present]).mean())


def f1(counts: np.ndarray, averaging: str = "weighted") -> float:
    """Averaged harmonic mean of per-class precision and recall.

    Per-class F1 is 0 when precision + recall is 0. "macro" averages equally
    over the classes present in the true or the predicted labels; "weighted"
    weights by true-class support.
    """
    if averaging not in ("macro", "weighted"):
        raise ValueError("averaging must be 'macro' or 'weighted'")
    counts = _nonempty(counts).astype(np.float64)
    support = counts.sum(axis=1)
    predicted = counts.sum(axis=0)
    diag = np.diag(counts)
    precision = np.divide(diag, predicted, out=np.zeros_like(diag), where=predicted > 0)
    recall = np.divide(diag, support, out=np.zeros_like(diag), where=support > 0)
    pr = precision + recall
    per_class = np.divide(
        2.0 * precision * recall, pr, out=np.zeros_like(diag), where=pr > 0
    )
    if averaging == "macro":
        return float(per_class[(support > 0) | (predicted > 0)].mean())
    return float((per_class * support).sum() / support.sum())


def roc_curve(y_true, scores: np.ndarray, positive_class: int) -> RocPoints:
    """One-vs-rest ROC of score matrix column `positive_class`; AUC by trapezoid rule.

    A descending threshold sweep: tied scores collapse into a single step, which
    credits half a pair for ties, so the AUC equals the Mann-Whitney pair statistic.
    """
    y_true = np.asarray(y_true, dtype=np.int64)
    s = np.asarray(scores, dtype=np.float64)[:, positive_class]
    positive = y_true == positive_class
    n_pos = int(positive.sum())
    n_neg = int(y_true.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC requires both the class and its complement present")
    order = np.argsort(-s, kind="stable")
    sorted_scores = s[order]
    sorted_positive = positive[order]
    group_ends = np.flatnonzero(
        np.append(sorted_scores[1:] != sorted_scores[:-1], True)
    )
    tp = np.cumsum(sorted_positive)[group_ends]
    fp = (group_ends + 1) - tp
    tpr = np.concatenate(([0.0], tp / n_pos))
    fpr = np.concatenate(([0.0], fp / n_neg))
    thresholds = np.concatenate(([np.inf], sorted_scores[group_ends]))
    auc = float(np.sum((fpr[1:] - fpr[:-1]) * (tpr[1:] + tpr[:-1]) / 2.0))
    return RocPoints(thresholds=thresholds, fpr=fpr, tpr=tpr, auc=auc)


def roc_curves(y_true, scores: np.ndarray) -> RocCurve:
    """One-vs-rest ROC of each class in y_true (score column = class code), plus the macro AUC."""
    classes = [int(c) for c in np.unique(np.asarray(y_true))]
    per_class = [roc_curve(y_true, scores, c) for c in classes]
    macro_auc = float(np.mean([entry.auc for entry in per_class]))
    return RocCurve(classes=classes, per_class=per_class, macro_auc=macro_auc)


def fit_and_score(
    model_factory: Callable[[], object], matrix: FeatureMatrix, train, test
):
    """Fit a fresh model on the `train` rows and score the `test` rows.

    Both index sets select from `matrix.rows_for(model)`. Returns the scores,
    one column per class code (a class the fit did not see scores 0), the
    predicted labels and the seconds spent fitting and scoring.
    """
    model = model_factory()
    rows = matrix.rows_for(model)
    started = time.perf_counter()
    model.fit(rows[train], matrix.labels[train])
    scores = model.predict_scores(rows[test])
    predicted = model.labels_from_scores(scores)
    elapsed = time.perf_counter() - started
    by_code = np.zeros((scores.shape[0], matrix.n_classes))
    by_code[:, model.classes_] = scores
    return by_code, predicted, elapsed


def cv_evaluate(
    model_factory: Callable[[], object],
    matrix: FeatureMatrix,
    fold_assignment,
    error_fn: Callable[[np.ndarray, np.ndarray], float],
) -> CVResult:
    """Train on all-but-fold-j, score fold j, for every fold; mean the errors."""
    folds = np.asarray(fold_assignment, dtype=np.int64)
    k = int(folds.max()) + 1
    errors = []
    for j in range(k):
        held_out = folds == j
        try:
            _, predicted, _ = fit_and_score(model_factory, matrix, ~held_out, held_out)
        except Exception as exc:
            raise RuntimeError(f"fold {j}: {exc}") from exc
        errors.append(float(error_fn(matrix.labels[held_out], predicted)))
    return CVResult(k=k, fold_errors=errors, cv_error=float(np.mean(errors)))


def correlation_matrix(values, column_names: Sequence[str]) -> CorrelationMatrix:
    """Pearson correlation of every column pair of a plain numeric matrix.

    Constant columns get correlation 0 against every other column (flagged);
    the diagonal is fixed at 1 and the result is exactly symmetric.
    """
    A = np.asarray(values, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] < 2:
        raise ValueError("correlation requires a 2-D matrix with at least 2 rows")
    constant = A.min(axis=0) == A.max(axis=0)
    centered = A - A.mean(axis=0)
    std = np.sqrt(np.einsum("ij,ij->j", centered, centered) / A.shape[0])
    safe = np.where(constant | (std == 0), 1.0, std)
    z = centered / safe
    corr = (z.T @ z) / A.shape[0]
    corr[constant, :] = 0.0
    corr[:, constant] = 0.0
    corr = np.triu(corr) + np.triu(corr, 1).T
    np.fill_diagonal(corr, 1.0)
    return CorrelationMatrix(
        values=corr, column_names=list(column_names), constant=constant | (std == 0)
    )


def pearson_matrix(matrix: FeatureMatrix) -> CorrelationMatrix:
    """Correlation over the encoded feature columns plus the label column."""
    data = np.column_stack([matrix.encoded, matrix.labels.astype(np.float64)])
    return correlation_matrix(data, CANONICAL_COLUMNS)


def correlation_to_csv(corr: CorrelationMatrix) -> str:
    """One row per unordered column pair (diagonal included)."""
    names = corr.column_names
    rows = [["column_a", "column_b", "correlation", "involves_constant"]]
    for i in range(len(names)):
        for j in range(i, len(names)):
            rows.append(
                [
                    names[i],
                    names[j],
                    repr(float(corr.values[i, j])),
                    int(bool(corr.constant[i] or corr.constant[j])),
                ]
            )
    return csv_text(rows)


def roc_to_csv(curve: RocCurve) -> str:
    """One row per curve point: class token, auc, threshold, fpr, tpr."""
    rows = [["class", "auc", "threshold", "fpr", "tpr"]]
    for code, points in zip(curve.classes, curve.per_class):
        token = CLASS_TOKENS[code]
        for t, x, y in zip(points.thresholds, points.fpr, points.tpr):
            rows.append([token, repr(points.auc), repr(float(t)), repr(float(x)), repr(float(y))])
    return csv_text(rows)
