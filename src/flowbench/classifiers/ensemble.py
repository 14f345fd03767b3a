"""Tree ensembles: bagging, random forest, extremely randomized trees.

Per-tree randomness derives from (seed, tree index), never from scheduling,
so fits are reproducible regardless of how callers parallelize. Prediction
averages the leaf class distributions of all trees and takes the argmax.
"""

from __future__ import annotations

import math

import numpy as np

from flowbench.classifiers.base import Classifier
from flowbench.classifiers.tree import TreeNode, build_tree, features_used, tree_scores


class _TreeEnsemble(Classifier):
    _default_bootstrap: bool
    _default_features: str  # "all" or "sqrt"
    _splitter: str

    def __init__(
        self,
        n_trees: int = 100,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_impurity_decrease: float = 0.0,
        bootstrap: bool | None = None,
        max_features: int | str | None = None,
        seed: int = 0,
    ):
        super().__init__()
        if n_trees < 1:
            raise ValueError("n_trees must be at least 1")
        if not isinstance(seed, int) or seed < 0:
            raise ValueError("seed must be a non-negative integer")
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_impurity_decrease = min_impurity_decrease
        self.bootstrap = self._default_bootstrap if bootstrap is None else bootstrap
        self.max_features = (
            self._default_features if max_features is None else max_features
        )
        self.seed = seed
        self.trees_: list[TreeNode] | None = None

    @property
    def feature_masks_(self) -> list[list[bool]]:
        """Per tree, which feature columns at least one of its splits uses."""
        return [features_used(root, self.n_features_) for root in self.trees_]

    def _resolve_max_features(self, d: int) -> int | None:
        if self.max_features == "all":
            return None
        if self.max_features == "sqrt":
            return min(d, math.isqrt(d - 1) + 1 if d > 1 else 1)
        count = int(self.max_features)
        if count < 1:
            raise ValueError("max_features must be 'all', 'sqrt', or a positive integer")
        return min(d, count)

    def _fit(self, X, codes):
        n, d = X.shape
        k = self.classes_.size
        per_split = self._resolve_max_features(d)
        trees: list[TreeNode] = []
        for i in range(self.n_trees):
            rng = np.random.default_rng([self.seed, i])
            if self.bootstrap:
                sample = rng.integers(0, n, size=n)
                Xi, yi = X[sample], codes[sample]
            else:
                Xi, yi = X, codes
            root = build_tree(
                Xi,
                yi,
                k,
                splitter=self._splitter,
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_impurity_decrease=self.min_impurity_decrease,
                max_features=per_split,
                rng=rng,
            )
            trees.append(root)
        self.trees_ = trees

    def _scores(self, X):
        k = self.classes_.size
        total = np.zeros((X.shape[0], k), dtype=np.float64)
        for root in self.trees_:
            total += tree_scores(root, X, k)
        return total / len(self.trees_)

    def _state(self):
        return {"trees": [t.to_dict() for t in self.trees_]}

    def _load_state(self, state):
        self.trees_ = [TreeNode.from_dict(doc) for doc in state["trees"]]


class BaggingModel(_TreeEnsemble):
    """Bootstrap-resampled CART trees over the full feature set."""

    name = "bagging"
    _default_bootstrap = True
    _default_features = "all"
    _splitter = "best"


class RandomForestModel(_TreeEnsemble):
    """Bootstrap CART trees with a fresh sqrt-sized feature subset per split."""

    name = "random_forest"
    _default_bootstrap = True
    _default_features = "sqrt"
    _splitter = "best"


class ExtraTreesModel(_TreeEnsemble):
    """No bootstrap; random thresholds over sqrt-sized feature subsets."""

    name = "extra_trees"
    _default_bootstrap = False
    _default_features = "sqrt"
    _splitter = "random"
