"""Uniform fit/predict/score interface shared by the whole model portfolio."""

from __future__ import annotations

import inspect

import numpy as np


class NotFittedError(RuntimeError):
    """predict or predict_scores was called before fit."""


class Classifier:
    """Base contract: fit(X, y), then predict / predict_scores.

    `predict_scores` returns one row per input and one column per class seen
    during fit (higher is better); `predict` is its argmax with ties resolved
    to the lowest class code. Fitted models are immutable and safe to share
    across threads.
    """

    name: str = ""
    needs_scaling: bool = False

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
        self.classes_ = np.unique(y)
        self.n_features_ = X.shape[1]
        self._fit(X, np.searchsorted(self.classes_, y))
        return self

    def predict_scores(self, X) -> np.ndarray:
        X = self._check_predict_input(X)
        if X.shape[0] == 0:
            return np.zeros((0, self.classes_.size), dtype=np.float64)
        return self._scores(X)

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

    # persistence hooks -----------------------------------------------------
    def get_state(self) -> dict:
        self._require_fitted()
        state = {
            "classes": [int(c) for c in self.classes_],
            "n_features": int(self.n_features_),
        }
        state.update(self._state())
        return state

    def set_state(self, state: dict) -> "Classifier":
        self.classes_ = np.asarray(state["classes"], dtype=np.int64)
        self.n_features_ = int(state["n_features"])
        self._load_state(state)
        return self

    # subclass hooks ----------------------------------------------------------
    def _fit(self, X: np.ndarray, codes: np.ndarray) -> None:
        raise NotImplementedError

    def _scores(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _state(self) -> dict:
        raise NotImplementedError

    def _load_state(self, state: dict) -> None:
        raise NotImplementedError

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
        return X
