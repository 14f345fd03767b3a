"""Distance-based models: k-nearest neighbors and nearest centroid."""

from __future__ import annotations

import numpy as np

from flowbench.classifiers.base import Classifier

_CHUNK = 512  # query rows per distance block, bounds the pairwise matrix


class KNNModel(Classifier):
    """Majority vote of the k Euclidean-nearest training rows.

    Scores are vote fractions; argmax ties therefore resolve to the lowest
    class code.
    """

    name = "knn"
    needs_scaling = True

    def __init__(self, k: int = 5):
        super().__init__()
        if k < 1:
            raise ValueError("k must be at least 1")
        self.k = k
        self.train_rows_: np.ndarray | None = None
        self.train_codes_: np.ndarray | None = None
        self._neighbor_basis: np.ndarray | None = None

    def _fit(self, X, codes):
        if self.k > X.shape[0]:
            raise ValueError(f"k={self.k} exceeds the training size ({X.shape[0]})")
        self.train_rows_ = X.copy()
        self.train_codes_ = codes.copy()
        self._prepare_lookup()

    def _prepare_lookup(self):
        # One GEMM per query block computes -2*q.b + ||b||^2, which ranks
        # neighbors identically to the full squared distance (the ||q||^2
        # term is constant per row).
        train = self.train_rows_
        train_sq = np.einsum("ij,ij->i", train, train)
        self._neighbor_basis = np.hstack([-2.0 * train, train_sq[:, None]]).T

    def _scores(self, X):
        n_classes = self.classes_.size
        n_train = self.train_rows_.shape[0]
        out = np.empty((X.shape[0], n_classes), dtype=np.float64)
        ones = np.ones((min(_CHUNK, X.shape[0]), 1), dtype=np.float64)
        for start in range(0, X.shape[0], _CHUNK):
            block = X[start : start + _CHUNK]
            augmented = np.hstack([block, ones[: block.shape[0]]])
            d2 = augmented @ self._neighbor_basis
            if self.k < n_train:
                nearest = np.argpartition(d2, self.k - 1, axis=1)[:, : self.k]
            else:
                nearest = np.broadcast_to(
                    np.arange(n_train), (block.shape[0], n_train)
                )
            votes = self.train_codes_[nearest]
            counts = (votes[:, :, None] == np.arange(n_classes)).sum(axis=1)
            out[start : start + _CHUNK] = counts / self.k
        return out

    def _state(self):
        return {
            "train_rows": self.train_rows_.tolist(),
            "train_codes": self.train_codes_.tolist(),
            "k": self.k,
        }

    def _load_state(self, state):
        self.train_rows_ = np.asarray(state["train_rows"], dtype=np.float64)
        self.train_codes_ = np.asarray(state["train_codes"], dtype=np.int64)
        self._prepare_lookup()


class NearestCentroidModel(Classifier):
    """Per-class mean vectors; scores are negative Euclidean distances."""

    name = "nearest_centroid"
    needs_scaling = True

    def __init__(self):
        super().__init__()
        self.centroids_: np.ndarray | None = None

    def _fit(self, X, codes):
        self.centroids_ = np.stack(
            [X[codes == c].mean(axis=0) for c in range(self.classes_.size)]
        )

    def _scores(self, X):
        diff = X[:, None, :] - self.centroids_[None, :, :]
        return -np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))

    def _state(self):
        return {"centroids": self.centroids_.tolist()}

    def _load_state(self, state):
        self.centroids_ = np.asarray(state["centroids"], dtype=np.float64)
