"""One-vs-rest linear models: SGD family (hinge, log, perceptron) and ridge.

The SGD family takes per-sample steps. Each epoch visits the rows in a fresh
`rng.permutation` order; row t, counted across epochs, gets the rate
lr_t = learning_rate / sqrt(t). Each step first decays the weights by
d_t = 1 - lr_t * l2, where the perceptron's l2 is 0. A row x with +/-1
target y and score z = W.x + b then adds c * x to its class's weights and c
to its bias, where c = lr_t * y if y*z < 1 (hinge) or y*z <= 0
(perceptron), and c = lr_t * (y - tanh(z/2)) / 2 for log loss: that is
-lr_t * (sigmoid(z) - (y+1)/2), written so it cannot overflow. Each epoch
ends with the full-pass objective; training stops when it improves by less
than `tol`. learning_rate, l2 and tol are class constants.

One kernel takes these steps BLOCK_ROWS rows at a time:

* Lazy L2 scale. Inside a block the weights before row j are
  W_j = s_j * (W_0 + sum_{i<j} v_i x_i), where s_j is the product of the
  decays of the earlier rows and v_i = c_i / s_{i+1}, so a decay costs one
  scalar product instead of a pass over W. The scale is folded back into W at
  the end of every block, with the last row's step folded as c itself. With
  lr_t <= 0.01 and l2 = 1e-4, a block's scale stays above 0.9999, so 1/s is
  always finite.
* Block products. One product gives every class's score W_0.x_j at the
  start of the block, a second the block's Gram matrix G_ij = x_i.x_j.
* Scalar recurrence. Classes are independent, so each class walks the rows
  on Python floats. z_j = s_j * (W_0.x_j + sum_{i<j} v_i G_ij) + b is the
  score the row-by-row update sees, because the earlier rows of the block
  move W only along their own x_i; the sum stops at the last earlier row
  that took a step. One more product adds the block's steps.

Only the order of floating-point operations differs from stepping row by
row, so the weights agree with the row-by-row loop to rounding (max |dW|
1.7e-11 after 1000 epochs on 800 rows), and a same-seed refit is
bit-identical.

Ridge solves its normal equations in closed form on +/-1 class targets.
"""

from __future__ import annotations

import math
from operator import mul

import numpy as np

from flowbench.classifiers.base import Classifier, non_negative_int

# Rows per block of the SGD kernel: two small products per block against a
# Python recurrence whose cost grows with the block.
BLOCK_ROWS = 16


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
    _fitted = {"weights": (float, "k", "d"), "bias": (float, "k")}

    def _scores(self, X):
        return X @ self.weights_.T + self.bias_

    def _targets(self, codes: np.ndarray) -> np.ndarray:
        """One-vs-rest targets: +1 in the column of each row's class, -1 elsewhere."""
        return np.where(codes[:, None] == np.arange(self.classes_.size), 1.0, -1.0)


class _SGDBase(_LinearModel):
    _loss: str
    learning_rate = 0.01
    l2 = 1e-4
    tol = 1e-6

    def __init__(self, max_epochs: int = 1000, seed: int = 0):
        super().__init__()
        self.max_epochs = non_negative_int(max_epochs, "max_epochs")
        self.seed = non_negative_int(seed, "seed")

    def _fit(self, X, codes):
        n, d = X.shape
        k = self.classes_.size
        targets = self._targets(codes)
        W = np.zeros((k, d), dtype=np.float64)
        bias = [0.0] * k
        rng = np.random.default_rng(self.seed)
        step = 0
        previous = math.inf
        for _ in range(self.max_epochs):
            order = rng.permutation(n)
            rates = self.learning_rate / np.sqrt(np.arange(step + 1, step + n + 1))
            step += n
            self._sgd_pass(W, bias, X[order], targets[order], rates)
            loss = self._objective(X, targets, W, np.array(bias))
            if previous - loss < self.tol:
                break
            previous = loss
        self.weights_ = W
        self.bias_ = np.array(bias)

    def _sgd_pass(self, W, bias, rows, row_targets, rates):
        """Take one step per row of `rows`, in order; update W and bias in place."""
        lam = self.l2
        log = self._loss == "log"
        # y*z <= 0 is y*z below the smallest positive float, so hinge and
        # perceptron share one comparison.
        edge = 1.0 if self._loss == "hinge" else math.ulp(0.0)
        tanh = math.tanh
        start, n = 0, rows.shape[0]
        while start < n:
            lr = rates[start : start + BLOCK_ROWS].tolist()
            scales, inverse = [], []  # s_j before row j; 1/s_{j+1} after it
            scale = 1.0
            for lr_j in lr:
                scales.append(scale)
                scale *= 1.0 - lr_j * lam
                inverse.append(1.0 / scale)
            m = len(scales)
            inverse[-1] = 1.0  # the last row's step is folded unscaled
            block = rows[start : start + m]
            raw = np.dot(W, block.T).tolist()
            gram = np.dot(block, block.T).tolist()
            block_targets = row_targets[start : start + m].T.tolist()
            steps = []
            for cls in range(W.shape[0]):
                b = bias[cls]
                v, idle = [], 0  # v stops at the last row that took a step
                for r, g, s, lr_j, y, inv in zip(
                    raw[cls], gram, scales, lr, block_targets[cls], inverse
                ):
                    z = s * (r + sum(map(mul, v, g)) if v else r) + b
                    if log:
                        c = lr_j * 0.5 * (y - tanh(0.5 * z))
                    elif y * z < edge:
                        c = lr_j * y
                    else:
                        idle += 1
                        continue
                    b += c
                    if idle:
                        v += [0.0] * idle
                        idle = 0
                    v.append(c * inv)
                bias[cls] = b
                steps.append(v + [0.0] * (m - len(v)))
            # W <- s W_0 + sum_i s v_i x_i, with c itself for the last row.
            steps = np.array(steps)
            steps[:, :-1] *= scale
            W *= scale
            W += np.dot(steps, block)
            start += m

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
    """Classic mistake-driven perceptron updates, one binary problem per class.

    The perceptron has no penalty, as scikit-learn's `Perceptron` has none by
    default, so neither its steps nor its objective decay the weights.
    """

    name = "perceptron"
    _loss = "perceptron"
    l2 = 0.0


class RidgeModel(_LinearModel):
    """Regularized least squares on +/-1 one-vs-rest targets, solved exactly."""

    name = "ridge"
    lam = 1.0

    def _fit(self, X, codes):
        d = X.shape[1]
        targets = self._targets(codes)
        system = X.T @ X + self.lam * np.eye(d)
        rhs = X.T @ targets
        # X'X + lam*I is positive definite; only float64 overflow or rounding
        # can leave it without a finite solution.
        try:
            solution = np.linalg.solve(system, rhs)  # (d, k)
            if not np.isfinite(solution).all():
                raise np.linalg.LinAlgError
        except np.linalg.LinAlgError:
            raise ValueError("the normal equations have no finite solution in float64") from None
        self.weights_ = solution.T
        self.bias_ = targets.mean(axis=0) - X.mean(axis=0) @ solution
