"""One-vs-rest linear models: SGD family (hinge, log, perceptron) and ridge.

The SGD family shares one loop: per-sample updates with a 0.01/sqrt(t)
learning-rate schedule, an L2 penalty where the loss calls for one, and an
early stop when the full-pass objective improves by less than `tol`.
Ridge solves its normal equations in closed form on +/-1 class targets.
"""

from __future__ import annotations

import math

import numpy as np

from flowbench.classifiers.base import Classifier


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -35.0, 35.0)))


def margin(model, class_code: int) -> float:
    """Separation margin 2/||w|| of the one-vs-rest hyperplane for a class."""
    model._require_fitted()
    matches = np.flatnonzero(model.classes_ == class_code)
    if matches.size == 0:
        raise ValueError(f"class {class_code} was not seen during fit")
    w = model.weights_[int(matches[0])]
    norm = float(np.linalg.norm(w))
    if norm == 0.0:
        raise ValueError("margin is undefined for a zero weight vector")
    return 2.0 / norm


class _LinearModel(Classifier):
    """One weight row and one bias per class; scores are X @ W.T + b."""

    needs_scaling = True
    _fitted = ("weights_", "bias_")

    def _scores(self, X):
        return X @ self.weights_.T + self.bias_

    def _targets(self, codes: np.ndarray) -> np.ndarray:
        """One-vs-rest targets: +1 in the column of each row's class, -1 elsewhere."""
        return np.where(codes[:, None] == np.arange(self.classes_.size), 1.0, -1.0)


class _SGDBase(_LinearModel):
    _loss: str

    def __init__(
        self,
        max_epochs: int = 1000,
        learning_rate: float = 0.01,
        l2: float = 1e-4,
        tol: float = 1e-6,
        seed: int = 0,
    ):
        super().__init__()
        self.max_epochs = max_epochs
        self.learning_rate = learning_rate
        self.l2 = l2
        self.tol = tol
        self.seed = seed

    def _fit(self, X, codes):
        if not np.isfinite(X).all():
            raise ValueError("non-finite feature values")
        n, d = X.shape
        k = self.classes_.size
        targets = self._targets(codes)
        W = np.zeros((k, d), dtype=np.float64)
        b = np.zeros(k, dtype=np.float64)
        rng = np.random.default_rng(self.seed)
        lam = self.l2
        loss_kind = self._loss
        step = 0
        previous = math.inf
        for _ in range(self.max_epochs):
            order = rng.permutation(n)
            rates = self.learning_rate / np.sqrt(np.arange(step + 1, step + n + 1))
            step += n
            epoch_rows = X[order]
            epoch_targets = targets[order]
            if loss_kind == "hinge":
                decays = 1.0 - rates * lam
                for x, t, lr, decay in zip(epoch_rows, epoch_targets, rates, decays):
                    pull = (t * (W @ x + b) < 1.0) * (lr * t)
                    W *= decay
                    W += pull[:, None] * x
                    b += pull
            elif loss_kind == "log":
                decays = 1.0 - rates * lam
                for x, t, lr, decay in zip(epoch_rows, epoch_targets, rates, decays):
                    g = _sigmoid(W @ x + b) - (t + 1.0) / 2.0
                    W *= decay
                    W -= (lr * g)[:, None] * x
                    b -= lr * g
            else:  # perceptron
                for x, t, lr in zip(epoch_rows, epoch_targets, rates):
                    pull = (t * (W @ x + b) <= 0.0) * (lr * t)
                    W += pull[:, None] * x
                    b += pull
            loss = self._objective(X, targets, W, b)
            if previous - loss < self.tol:
                break
            previous = loss
        self.weights_ = W
        self.bias_ = b

    def _objective(self, X, targets, W, b) -> float:
        margins = targets * (X @ W.T + b)
        n = X.shape[0]
        if self._loss == "hinge":
            data = np.maximum(0.0, 1.0 - margins).sum() / n
            return float(data + 0.5 * self.l2 * np.sum(W * W))
        if self._loss == "log":
            data = np.logaddexp(0.0, -margins).sum() / n
            return float(data + 0.5 * self.l2 * np.sum(W * W))
        return float(np.maximum(0.0, -margins).sum() / n)


class LinearSVMModel(_SGDBase):
    """Linear SVM: hinge loss plus L2, trained by per-sample SGD."""

    name = "linear_svm_sgd"
    _loss = "hinge"


class LogisticRegressionModel(_SGDBase):
    """One-vs-rest logistic regression; scores are normalized sigmoids."""

    name = "logistic_regression"
    _loss = "log"

    def _scores(self, X):
        p = _sigmoid(X @ self.weights_.T + self.bias_)
        return p / p.sum(axis=1, keepdims=True)


class PerceptronModel(_SGDBase):
    """Classic mistake-driven perceptron updates, one binary problem per class."""

    name = "perceptron"
    _loss = "perceptron"


class RidgeModel(_LinearModel):
    """Regularized least squares on +/-1 one-vs-rest targets, solved exactly."""

    name = "ridge"

    def __init__(self, lam: float = 1.0):
        super().__init__()
        if lam < 0:
            raise ValueError("lam must be non-negative")
        self.lam = lam

    def _fit(self, X, codes):
        d = X.shape[1]
        targets = self._targets(codes)
        system = X.T @ X + self.lam * np.eye(d)
        rhs = X.T @ targets
        try:
            solution = np.linalg.solve(system, rhs)  # (d, k)
        except np.linalg.LinAlgError:
            raise ValueError(
                "normal equations are singular at this lam; use lam > 0"
            ) from None
        if not np.isfinite(solution).all():
            raise ValueError("normal equations are singular at this lam; use lam > 0")
        self.weights_ = solution.T
        self.bias_ = targets.mean(axis=0) - X.mean(axis=0) @ solution
