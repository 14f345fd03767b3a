"""Distance-based models: k-nearest neighbors and nearest centroid."""

from __future__ import annotations

import numpy as np

from flowbench.classifiers.base import Classifier

# Bytes of one block's float64 distance matrix: 512 query rows against 800
# training rows. Query rows per block shrink as the training set grows.
BLOCK_BYTES = 512 * 800 * 8


class KNNModel(Classifier):
    """Majority vote of the k Euclidean-nearest training rows.

    Scores are vote fractions; argmax ties therefore resolve to the lowest
    class code.
    """

    name = "knn"
    needs_scaling = True
    k = 5
    _fitted = {"train_rows_": ("m", "d"), "train_codes_": ("m",)}

    def __init__(self):
        super().__init__()
        self._neighbor_basis: np.ndarray | None = None

    def _fit(self, X, codes):
        self._check_k(X.shape[0])
        self.train_rows_ = X.copy()
        self.train_codes_ = codes.copy()
        self._prepare_lookup()

    def _prepare_lookup(self):
        # One GEMM per query block computes -2*q.b + ||b||^2, which ranks
        # neighbors identically to the full squared distance (the ||q||^2
        # term is constant per row). A row beyond about 1.3e154 squares to
        # inf; _nearest ranks its inf and NaN distances last.
        train = self.train_rows_
        with np.errstate(over="ignore", invalid="ignore"):
            train_sq = np.einsum("ij,ij->i", train, train)
            self._neighbor_basis = np.hstack([-2.0 * train, train_sq[:, None]]).T

    def _scores(self, X):
        n_classes = self.classes_.size
        n_train = self.train_rows_.shape[0]
        block_rows = max(1, BLOCK_BYTES // (8 * n_train))
        out = np.empty((X.shape[0], n_classes), dtype=np.float64)
        ones = np.ones((min(block_rows, X.shape[0]), 1), dtype=np.float64)
        for start in range(0, X.shape[0], block_rows):
            block = X[start : start + block_rows]
            augmented = np.hstack([block, ones[: block.shape[0]]])
            votes = self.train_codes_[self._nearest(augmented @ self._neighbor_basis)]
            counts = (votes[:, :, None] == np.arange(n_classes)).sum(axis=0)
            out[start : start + block_rows] = counts / self.k
        return out

    def _nearest(self, d2):
        """Column indices of each row's k smallest distances, shape (k, rows).

        Equal to ``np.argsort(d2, axis=1, kind="stable")[:, :k].T``: exact ties
        go to the lower training row and NaN ranks last. Overwrites ``d2``.
        """
        flat = d2.reshape(-1)
        offsets = np.arange(0, d2.size, d2.shape[1])
        nearest = np.empty((self.k, d2.shape[0]), dtype=np.intp)
        distances = np.empty((self.k, d2.shape[0]))
        # For a small k, k argmin passes cost less than one argpartition.
        # Each pass takes the first smallest distance and masks it with inf.
        for j in range(self.k):
            nearest[j] = d2.argmin(axis=1)
            at = offsets + nearest[j]
            distances[j] = flat[at]
            flat[at] = np.inf
        if np.isfinite(distances).all():
            return nearest
        # argmin returns a row's first NaN, and with fewer than k finite
        # distances it picks a masked entry again: restore d2 and sort it.
        for j in reversed(range(self.k)):
            flat[offsets + nearest[j]] = distances[j]
        return np.argsort(d2, axis=1, kind="stable")[:, : self.k].T

    def _load_state(self, state):
        super()._load_state(state)
        self._check_k(self.train_rows_.shape[0])
        if not np.isin(self.train_codes_, np.arange(self.classes_.size)).all():
            raise ValueError(f"train_codes must lie in 0..{self.classes_.size - 1}")
        self._prepare_lookup()
        if not np.isfinite(self._neighbor_basis).all():
            raise ValueError("train_rows must square to finite numbers")

    def _check_k(self, n_train):
        if self.k > n_train:
            raise ValueError(f"k={self.k} exceeds the training size ({n_train})")


class NearestCentroidModel(Classifier):
    """Per-class mean vectors; scores are negative Euclidean distances."""

    name = "nearest_centroid"
    needs_scaling = True
    _fitted = {"centroids_": ("k", "d")}

    def _fit(self, X, codes):
        self.centroids_ = np.stack(
            [X[codes == c].mean(axis=0) for c in range(self.classes_.size)]
        )

    def _scores(self, X):
        diff = X[:, None, :] - self.centroids_[None, :, :]
        return -np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
