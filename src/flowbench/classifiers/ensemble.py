"""Tree ensembles: bagging, random forest, extremely randomized trees.

Each is a `DecisionTreeModel` with more trees: tree i draws from
(seed, tree index), never from scheduling, so fits are reproducible
regardless of how callers parallelize. Prediction averages the leaf class
distributions of all trees and takes the argmax.
"""

from __future__ import annotations

from flowbench.classifiers.base import validated_seed
from flowbench.classifiers.tree import DecisionTreeModel


class _TreeEnsemble(DecisionTreeModel):
    _default_bootstrap: bool
    _default_features: str  # "all" or "sqrt"

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
        super().__init__(max_depth, min_samples_split, min_impurity_decrease)
        if n_trees < 1:
            raise ValueError("n_trees must be at least 1")
        self.n_trees = n_trees
        self.bootstrap = self._default_bootstrap if bootstrap is None else bootstrap
        self.max_features = (
            self._default_features if max_features is None else max_features
        )
        self.seed = validated_seed(seed)


class BaggingModel(_TreeEnsemble):
    """Bootstrap-resampled CART trees over the full feature set."""

    name = "bagging"
    _default_bootstrap = True
    _default_features = "all"


class RandomForestModel(_TreeEnsemble):
    """Bootstrap CART trees with a fresh sqrt-sized feature subset per split."""

    name = "random_forest"
    _default_bootstrap = True
    _default_features = "sqrt"


class ExtraTreesModel(_TreeEnsemble):
    """No bootstrap; random thresholds over sqrt-sized feature subsets."""

    name = "extra_trees"
    _default_bootstrap = False
    _default_features = "sqrt"
    _splitter = "random"
