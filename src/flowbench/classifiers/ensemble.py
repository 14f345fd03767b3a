"""Tree ensembles: bagging, random forest, extremely randomized trees.

Each is a `DecisionTreeModel` with 100 trees: tree i draws from
(seed, tree index), never from scheduling, so fits are reproducible
regardless of how callers parallelize. Prediction averages the leaf class
distributions of all trees and takes the argmax.
"""

from __future__ import annotations

from flowbench.classifiers.tree import SeededTreeModel


class _TreeEnsemble(SeededTreeModel):
    n_trees = 100


class BaggingModel(_TreeEnsemble):
    """Bootstrap-resampled CART trees over the full feature set."""

    name = "bagging"
    bootstrap = True


class RandomForestModel(_TreeEnsemble):
    """Bootstrap CART trees with a fresh sqrt-sized feature subset per split."""

    name = "random_forest"
    bootstrap = True
    max_features = "sqrt"


class ExtraTreesModel(_TreeEnsemble):
    """No bootstrap; random thresholds over sqrt-sized feature subsets."""

    name = "extra_trees"
    max_features = "sqrt"
    _splitter = "random"
