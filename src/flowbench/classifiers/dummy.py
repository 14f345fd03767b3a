"""Majority-class baseline."""

from __future__ import annotations

import numpy as np

from flowbench.classifiers.base import Classifier


class DummyModel(Classifier):
    """Always predicts the most frequent training class (tie: lowest code).

    Scores are the training class frequencies, repeated for every row.
    """

    name = "dummy"
    _fitted = {"prior": (float, "k")}

    def _fit(self, X, codes):
        counts = np.bincount(codes, minlength=self.classes_.size)
        self.prior_ = counts / codes.size

    def _scores(self, X):
        return np.tile(self.prior_, (X.shape[0], 1))
