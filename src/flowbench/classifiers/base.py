"""Uniform fit/predict/score interface shared by the whole model portfolio."""

from __future__ import annotations

import inspect

import numpy as np


class NotFittedError(RuntimeError):
    """predict or predict_scores was called before fit."""


def non_negative_int(value, name: str) -> int:
    """The rule of every seed, epoch cap and feature count: an int, not a bool, not < 0."""
    if type(value) is not int or value < 0:
        raise ValueError(f"{name} must be a non-negative integer")
    return value


class Classifier:
    """Base contract: fit(X, y), then predict / predict_scores.

    `predict_scores` returns one row per input and one column per class seen
    during fit (higher is better); `predict` is its argmax with ties resolved
    to the lowest class code. Fitted models are immutable and safe to share
    across threads.
    """

    name: str = ""
    needs_scaling: bool = False
    # Fitted arrays by the name a model file stores them under, each held in
    # the attribute of that name with a trailing underscore: its element kind
    # (int or float), then its shape by dimension name. k is len(classes) and
    # d is n_features; any other name (knn's m training rows) is a free size,
    # bound by the first declared one-dimensional array that names it.
    # persistence.py writes, reads and checks every declared array.
    _fitted: dict[str, tuple] = {}

    def __init__(self):
        self.classes_: np.ndarray | None = None
        self.n_features_: int | None = None

    def fit(self, X, y) -> "Classifier":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if X.ndim != 2:
            raise ValueError("X must be 2-dimensional")
        if y.shape != (X.shape[0],):
            raise ValueError("y length must match X row count")
        if X.shape[0] == 0:
            raise ValueError("fit requires at least one row")
        if not np.isfinite(X).all():
            raise ValueError("non-finite feature values")
        self.classes_, codes = np.unique(y, return_inverse=True)
        self.n_features_ = X.shape[1]
        self._fit(X, codes)
        return self

    def predict_scores(self, X) -> np.ndarray:
        """`_scores` of the checked input; every model's `_scores` maps zero rows to (0, k)."""
        return self._scores(self._check_predict_input(X))

    def predict(self, X) -> np.ndarray:
        return self.labels_from_scores(self.predict_scores(X))

    def labels_from_scores(self, scores: np.ndarray) -> np.ndarray:
        """Argmax over score columns, ties resolved to the lowest class code."""
        self._require_fitted()
        return self.classes_[np.argmax(scores, axis=1)]

    @property
    def hyperparameters(self) -> dict:
        """Constructor arguments by name; each is stored under the same attribute."""
        return {p: getattr(self, p) for p in inspect.signature(type(self)).parameters}

    # subclass hooks ----------------------------------------------------------
    def _fit(self, X: np.ndarray, codes: np.ndarray) -> None:
        raise NotImplementedError

    def _scores(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _state(self) -> dict[str, np.ndarray]:
        """The declared fitted arrays, by name."""
        return {name: getattr(self, name + "_") for name in self._fitted}

    def _load_state(self, arrays: dict[str, np.ndarray]) -> None:
        """Adopt decoded arrays of the declared kinds and shapes.

        A model overrides this to check invariants of its own.
        """
        for name, array in arrays.items():
            setattr(self, name + "_", array)

    # helpers -----------------------------------------------------------------
    def _require_fitted(self) -> None:
        if self.classes_ is None:
            raise NotFittedError(f"{type(self).__name__} must be fitted before use")

    def _check_predict_input(self, X) -> np.ndarray:
        self._require_fitted()
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("X must be 2-dimensional")
        if X.shape[1] != self.n_features_:
            raise ValueError(
                f"expected {self.n_features_} feature columns, got {X.shape[1]}"
            )
        if not np.isfinite(X).all():
            raise ValueError("non-finite feature values")
        return X
