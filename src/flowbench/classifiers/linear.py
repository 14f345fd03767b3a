"""One-vs-rest linear models: SGD (hinge, perceptron), logistic regression and ridge.

The SGD family takes per-sample steps. Each epoch visits the rows in a fresh
`rng.permutation` order; row t, counted across epochs, gets the rate
lr_t = learning_rate / sqrt(t). Each step first decays the weights by
d_t = 1 - lr_t * l2, where the perceptron's l2 is 0. A row x with +/-1
target y and score z = W.x + b then adds c * x to its class's weights and c
to its bias, where c = lr_t * y if y*z < 1 (hinge) or y*z <= 0
(perceptron). Each epoch ends with the full-pass objective. An epoch whose
objective is not below the lowest so far minus `tol` is stale, and training
stops after `n_iter_no_change` stale epochs in a row, keeping the last
epoch's weights, or at `max_epochs`. This is scikit-learn's stop rule for
SGDClassifier and Perceptron, except that scikit-learn measures the running
average of the losses during an epoch, and this the full pass after it.
learning_rate, l2, tol and n_iter_no_change are class constants. The
perceptron stops after 6 epochs on every file measured (README gives the
figures): its objective, mean(max(0, -y z)), scales with weights grown at
0.01/sqrt(t), so it is of order 1e-3 and no epoch beats the best by `tol`.
scikit-learn's Perceptron steps at eta0 = 1, where `tol` measures progress.

One kernel settles these steps WINDOW_ROWS rows at a time. Take W and b at
the start of a window, and let S_j be the product of the decays of the
window's rows before row j. Earlier rows of the window move W only along
their own x_i, so the score row j's step sees is exactly

    z_j = base_j + sum_{i<j} c_i M[j, i],   base_j = S_j (W.x_j) + b,
    M[j, i] = (S_j / S_{i+1}) x_i.x_j + 1,

with c_i = 0 for a row that takes no step.

* Two-sided bound. |c_i| <= lr_i, so y_j z_j lies within
  slack_j = sum_{i<j} lr_i |M[j, i]| of y_j base_j, whatever the decays'
  signs. Where y_j base_j + slack_j is below the edge (1, or the smallest
  positive float for y*z <= 0), row j steps whatever the earlier rows do;
  where y_j base_j - slack_j is at or above it, it cannot step. numpy
  decides these for every class at once.
* Rounding margin. Both comparisons keep 1e-9 * (1 + the window's largest
  |y_j base_j|) from the edge, so float rounding cannot flip a decided row.
* Walk. Only the rows left between are walked on Python floats, in row
  order, with exact sums: one product M @ c gives the decided steps' share
  of their scores, and each walked step joins the later rows' as it is
  taken. One more product ends the window: W <- S_m W + sum_i c_i
  (S_m / S_{i+1}) x_i and b <- b + sum_i c_i.
* Grouped precompute. M, the slack and the per-row factors depend on the
  rows and rates alone, so they are built for GROUP_ROWS rows at a time,
  which bounds their memory. S_j / S_{i+1} is a quotient of the window's
  running products, so a window whose product is 0 or leaves float64's
  normal range raises ValueError; the class constants keep every decay
  within 1e-6 of 1.

Only the order of floating-point operations differs from stepping row by
row, so the weights agree with the row-by-row loop to rounding, and a
same-seed refit is bit-identical. Late in a fit the rates are small and
the bound decides all but a few tenths of a percent of the (row, class)
pairs.

Logistic regression minimizes, for each class, the mean log loss of its
+/-1 targets over the rows [x, 1] plus l2/2 ||w||^2, the bias unpenalized, by
Newton's method: each iteration is one full pass that builds the gradient
and the Hessian, solves for the step and halves it until the objective
falls enough (Armijo). A class stops once its gradient's max norm is below
`tol`, once a step no longer lowers the objective in float64 (rounding can
hold the gradient of rows with large features above `tol`), or at the
`max_epochs` iteration cap with its last iterate.

Ridge solves its normal equations in closed form on +/-1 class targets.
"""

from __future__ import annotations

import math

import numpy as np

from flowbench.classifiers.base import Classifier, non_negative_int

# Rows per window of the SGD kernel: a window's steps are settled together,
# and the bound on a row's score widens with the rows before it in its window.
WINDOW_ROWS = 32
# Rows whose window factors are precomputed at once, which bounds their memory.
GROUP_ROWS = 64 * WINDOW_ROWS


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


def _solved(a, b, message: str) -> np.ndarray:
    """The solution of a x = b, or ValueError(message) if float64 has no finite one."""
    try:
        x = np.linalg.solve(a, b)
        if np.isfinite(x).all():
            return x
    except np.linalg.LinAlgError:
        pass
    raise ValueError(message)


class _LinearModel(Classifier):
    """One weight row and one bias per class; scores are X @ W.T + b."""

    needs_scaling = True
    _fitted = {"weights": (float, "k", "d"), "bias": (float, "k")}

    def _scores(self, X):
        return X @ self.weights_.T + self.bias_

    def _targets(self, codes: np.ndarray) -> np.ndarray:
        """One-vs-rest targets: +1 in the column of each row's class, -1 elsewhere."""
        return np.where(codes[:, None] == np.arange(self.classes_.size), 1.0, -1.0)


def _windows(rows, row_targets, rates, l2):
    """The factors of a run of SGD steps, one tuple per window of WINDOW_ROWS rows.

    `rows` are the rows [x, 1] and a class's weights and bias one row theta =
    [w, b]. Rows are zero-padded to whole windows; a padded row's rate is 0,
    so its step is 0 whatever it decides. With S_j the product of the decays
    of the window's rows before j, and m = WINDOW_ROWS, a window's tuple holds:

    * lead     the rows [S_j x_j, 1]: theta . lead[j] is z_j from the window's start;
    * mixing   M[j, i] = (S_j / S_{i+1}) x_i.x_j + 1 for i < j, else 0;
    * slack    sum_i lr_i |M[j, i]|, or -inf on a padded row, which decides it;
    * tail     the rows [(S_m / S_{i+1}) x_i, 1]: a step's reach to the window's end;
    * decay    [S_m, ..., S_m, 1]: the window's decay of theta, bias unpenalized;
    * targets  and pulls, each class's y_j and lr_j y_j.
    """
    m = WINDOW_ROWS
    n, d = rows.shape[0], rows.shape[1] - 1
    count = -(-n // m)
    X = np.zeros((count * m, d + 1))
    X[:n] = rows
    X = X.reshape(count, m, d + 1)
    lr = np.zeros(count * m)
    lr[:n] = rates
    lr = lr.reshape(count, m)
    after = np.cumprod(1.0 - lr * l2, axis=1)  # S_{j+1}, of either sign
    # S_j / S_{i+1} is taken as a quotient, exact to rounding while every S
    # is a normal float: no decay is 0 and no window's product leaves
    # float64's range. Next to the diagonal it is exactly 1, so a step
    # reaches the next row's score undecayed, as it does row by row.
    if not ((np.abs(after) >= np.finfo(float).tiny) & np.isfinite(after)).all():
        raise ValueError("the L2 decays take a window's weight scale out of float64's range")
    before = np.hstack([np.ones((count, 1)), after[:, :-1]])  # S_j
    features = X[:, :, :d]
    mixing = before[:, :, None] / after[:, None, :]
    mixing *= np.matmul(features, features.transpose(0, 2, 1))
    mixing += 1.0
    mixing = np.tril(mixing, -1)
    slack = np.matmul(np.abs(mixing), lr[:, :, None])[:, :, 0]
    slack.reshape(-1)[n:] = -np.inf
    lead = X.copy()
    lead[:, :, :d] *= before[:, :, None]
    tail = X
    tail[:, :, :d] *= (after[:, -1:] / after)[:, :, None]
    decay = np.ones((count, d + 1))
    decay[:, :d] = after[:, -1:]
    targets = np.zeros((count * m, row_targets.shape[1]))
    targets[:n] = row_targets
    targets = targets.reshape(count, m, -1).transpose(0, 2, 1)
    return zip(lead, mixing, slack, tail, decay, targets, targets * lr[:, None, :])


def _walk(c, z, undecided, mixing, targets, pulls, edge):
    """Settle a window's undecided (class, row) pairs in row order, in place in `c`.

    `z` holds each row's score with the decided steps of `c` in it; each
    step taken here joins the later rows' scores as it is taken.
    """
    taken, current = [], -1
    for cls, j in zip(*np.nonzero(undecided)):
        if cls != current:
            taken, current = [], cls
        z_j = float(z[cls, j]) + sum(c_i * float(mixing[j, i]) for i, c_i in taken)
        if targets[cls, j] * z_j < edge:
            c[cls, j] = pulls[cls, j]
            taken.append((j, float(pulls[cls, j])))


class _SGDBase(_LinearModel):
    _loss: str
    learning_rate = 0.01
    l2 = 1e-4
    tol = 1e-3
    n_iter_no_change = 5

    def __init__(self, max_epochs: int = 1000, seed: int = 0):
        super().__init__()
        self.max_epochs = non_negative_int(max_epochs, "max_epochs")
        self.seed = non_negative_int(seed, "seed")

    def _fit(self, X, codes):
        n, d = X.shape
        rows = np.hstack([X, np.ones((n, 1))])
        targets = self._targets(codes)
        theta = np.zeros((self.classes_.size, d + 1))  # each class's [w, b]
        rng = np.random.default_rng(self.seed)
        step = stale = 0
        best = math.inf
        for _ in range(self.max_epochs):
            order = rng.permutation(n)
            rates = self.learning_rate / np.sqrt(np.arange(step + 1, step + n + 1))
            step += n
            self._sgd_pass(theta, rows[order], targets[order], rates)
            loss = self._objective(X, targets, theta[:, :d], theta[:, d])
            stale = 0 if loss < best - self.tol else stale + 1
            best = min(best, loss)
            if stale >= self.n_iter_no_change:
                break
        self.weights_, self.bias_ = theta[:, :d], theta[:, d]

    def _sgd_pass(self, theta, rows, row_targets, rates):
        """Take one step per row [x, 1] of `rows`, in order; update theta = [W | b] in place."""
        # y*z <= 0 is y*z below the smallest positive float, so hinge and
        # perceptron share one comparison.
        edge = 1.0 if self._loss == "hinge" else math.ulp(0.0)
        for start in range(0, rows.shape[0], GROUP_ROWS):
            group = slice(start, start + GROUP_ROWS)
            for lead, mixing, slack, tail, decay, targets, pulls in _windows(
                rows[group], row_targets[group], rates[group], self.l2
            ):
                base = np.dot(theta, lead.T)  # each row's score before the window's steps
                y_base = targets * base
                # y*z lies within slack of y*base: steps that hold whatever the
                # earlier rows do, and a margin that rounding cannot cross.
                rounding = 1e-9 * (1.0 + float(np.abs(y_base).max()))
                upper = y_base + slack
                c = np.where(upper < edge - rounding, pulls, 0.0)
                undecided = (upper >= edge - rounding) & (y_base - slack < edge + rounding)
                if np.count_nonzero(undecided):
                    _walk(c, base + np.dot(c, mixing.T), undecided, mixing, targets, pulls, edge)
                theta *= decay
                theta += np.dot(c, tail)

    def _objective(self, X, targets, W, b) -> float:
        margins = targets * (X @ W.T + b)
        n = X.shape[0]
        if self._loss == "hinge":
            data = np.maximum(0.0, 1.0 - margins).sum() / n
            return float(data + 0.5 * self.l2 * np.sum(W * W))
        return float(np.maximum(0.0, -margins).sum() / n)


class LinearSVMModel(_SGDBase):
    """Linear SVM: hinge loss plus L2, trained by per-sample SGD."""

    name = "linear_svm_sgd"
    _loss = "hinge"


class LogisticRegressionModel(_LinearModel):
    """One-vs-rest logistic regression fitted by Newton's method; scores are normalized sigmoids.

    `max_epochs` caps the Newton iterations of each class. `seed` is taken
    and stored like the SGD models' seed, but the fit draws nothing.
    """

    name = "logistic_regression"
    l2 = 1e-4
    tol = 1e-9  # a class's fit stops once its gradient's max norm is below this

    def __init__(self, max_epochs: int = 1000, seed: int = 0):
        super().__init__()
        self.max_epochs = non_negative_int(max_epochs, "max_epochs")
        self.seed = non_negative_int(seed, "seed")

    def _fit(self, X, codes):
        n, d = X.shape
        rows = np.hstack([X, np.ones((n, 1))])
        penalty = np.append(np.full(d, self.l2), 0.0)  # the bias is not penalized
        theta = np.array([self._newton(rows, y, penalty) for y in self._targets(codes).T])
        self.weights_, self.bias_ = theta[:, :d], theta[:, d]

    def _newton(self, rows, y, penalty):
        """Minimize the mean of log(1 + exp(-y * rows @ theta)) + penalty/2 . theta**2."""
        n = y.size
        theta = np.zeros(rows.shape[1])

        def objective(theta):
            return np.logaddexp(0.0, -y * (rows @ theta)).mean() + 0.5 * penalty @ theta**2

        loss = objective(theta)
        for _ in range(self.max_epochs):
            margins = y * (rows @ theta)
            log_miss = -np.logaddexp(0.0, margins)  # log sigmoid(-y z)
            gradient = penalty * theta - rows.T @ (y * np.exp(log_miss)) / n
            if np.abs(gradient).max() < self.tol:
                break
            # sigmoid(z) * sigmoid(-z), in log space so it stays accurate at large |z|
            curvature = np.exp(log_miss - np.logaddexp(0.0, -margins))
            hessian = (rows.T * curvature) @ rows / n + np.diag(penalty)
            step = _solved(
                hessian, -gradient, "the Newton step has no finite solution in float64"
            )
            # Halve the step until the objective falls by at least 1e-4 of the
            # fall its slope predicts; a NaN objective never passes. The loop
            # ends at the latest once the step and its predicted fall both
            # vanish in float64, where the trial equals the current objective.
            rate, slope = 1.0, gradient @ step
            while not (trial := objective(theta + rate * step)) <= loss + 1e-4 * rate * slope:
                rate *= 0.5
            theta, gain, loss = theta + rate * step, loss - trial, trial
            # A step that gains nothing has reached float64's resolution of
            # the objective, whatever the gradient's scale: rounding there can
            # hold the gradient above `tol` for good (rows with large features).
            if gain <= 0.0:
                break
        return theta

    def _scores(self, X):
        # The sigmoids normalized, as a softmax of their logs: no sigmoid
        # rounds to 0 or 1, so classes keep their order at any score.
        log_p = -np.logaddexp(0.0, -(X @ self.weights_.T + self.bias_))
        p = np.exp(log_p - log_p.max(axis=1, keepdims=True))
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
        rhs = X.T @ targets  # (d, k), as is the solution
        # X'X + lam*I is positive definite; only float64 overflow or rounding
        # can leave it without a finite solution.
        solution = _solved(system, rhs, "the normal equations have no finite solution in float64")
        self.weights_ = solution.T
        self.bias_ = targets.mean(axis=0) - X.mean(axis=0) @ solution
