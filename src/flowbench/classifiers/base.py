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
    # Fitted array attributes and their shapes, by dimension name: k is
    # len(classes), d is n_features, and any other name (knn's m training
    # rows) is a size that every array naming it must share. The default
    # _state/_load_state save each array under its name without the trailing
    # underscore, and _load_state checks the shapes.
    _fitted: dict[str, tuple[str, ...]] = {}

    def __init__(self):
        self.classes_: np.ndarray | None = None
        self.n_features_: int | None = None
        for attr in self._fitted:
            setattr(self, attr, None)

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
        self.n_features_ = non_negative_int(state["n_features"], "n_features")
        self._load_state(state)
        return self

    # subclass hooks ----------------------------------------------------------
    def _fit(self, X: np.ndarray, codes: np.ndarray) -> None:
        raise NotImplementedError

    def _scores(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _state(self) -> dict:
        return {a.removesuffix("_"): getattr(self, a).tolist() for a in self._fitted}

    def _load_state(self, state: dict) -> None:
        sizes = {"k": self.classes_.size, "d": self.n_features_}
        for attr, shape in self._fitted.items():
            name = attr.removesuffix("_")
            values = np.asarray(state[name])
            if values.ndim == len(shape):
                for dim, n in zip(shape, values.shape):
                    sizes.setdefault(dim, n)
            # A dimension still unbound stays a name, which no shape equals.
            expected = tuple(sizes.get(dim, dim) for dim in shape)
            if values.shape != expected:
                raise ValueError(
                    f"{name} must have shape ({', '.join(shape)}) = {_shape_text(expected)},"
                    f" found {_shape_text(values.shape)}"
                )
            # JSON keeps ints and floats apart; every fit yields int64 or float64.
            dtype = np.int64 if values.dtype.kind == "i" else np.float64
            setattr(self, attr, values.astype(dtype, copy=False))

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


def _shape_text(sizes) -> str:
    return f"({', '.join(map(str, sizes))})"
