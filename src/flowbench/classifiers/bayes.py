"""Naive Bayes variants; scores are softmax-normalized log posteriors."""

from __future__ import annotations

import numpy as np

from flowbench.classifiers.base import Classifier


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


class GaussianNBModel(Classifier):
    """Per-class per-feature Gaussian likelihoods with a shared variance floor."""

    name = "gaussian_nb"
    needs_scaling = True
    _fitted = {
        "means_": ("k", "d"),
        "variances_": ("k", "d"),
        "log_priors_": ("k",),
    }
    var_smoothing = 1e-9

    def _fit(self, X, codes):
        k = self.classes_.size
        floor = self.var_smoothing * float(X.var(axis=0).max())
        if floor <= 0.0:  # all-constant training data
            floor = self.var_smoothing
        means, variances, priors = [], [], []
        for c in range(k):
            rows = X[codes == c]
            means.append(rows.mean(axis=0))
            variances.append(rows.var(axis=0) + floor)
            priors.append(rows.shape[0] / X.shape[0])
        self.means_ = np.stack(means)
        self.variances_ = np.stack(variances)
        self.log_priors_ = np.log(np.asarray(priors))

    def _scores(self, X):
        k = self.classes_.size
        log_posterior = np.empty((X.shape[0], k), dtype=np.float64)
        for c in range(k):
            diff = X - self.means_[c]
            var = self.variances_[c]
            loglik = -0.5 * (np.log(2.0 * np.pi * var) + diff * diff / var).sum(axis=1)
            log_posterior[:, c] = self.log_priors_[c] + loglik
        return _softmax_rows(log_posterior)

    def _load_state(self, state):
        super()._load_state(state)
        # A fit floors every variance above zero; scoring takes their logs.
        if not (np.isfinite(self.variances_).all() and (self.variances_ > 0).all()):
            raise ValueError("variances must be finite and positive")


class BernoulliNBModel(Classifier):
    """Features binarized at zero; Laplace-smoothed per-class activation rates."""

    name = "bernoulli_nb"
    needs_scaling = True
    _fitted = {
        "log_rates_": ("k", "d"),
        "log_complements_": ("k", "d"),
        "log_priors_": ("k",),
    }
    alpha = 1.0

    def _fit(self, X, codes):
        k = self.classes_.size
        binary = X > 0.0
        rates, priors = [], []
        for c in range(k):
            rows = binary[codes == c]
            rates.append((rows.sum(axis=0) + self.alpha) / (rows.shape[0] + 2.0 * self.alpha))
            priors.append(rows.shape[0] / X.shape[0])
        rates = np.stack(rates)
        self.log_rates_ = np.log(rates)
        self.log_complements_ = np.log(1.0 - rates)
        self.log_priors_ = np.log(np.asarray(priors))

    def _scores(self, X):
        binary = (X > 0.0).astype(np.float64)
        log_posterior = (
            binary @ self.log_rates_.T
            + (1.0 - binary) @ self.log_complements_.T
            + self.log_priors_
        )
        return _softmax_rows(log_posterior)
