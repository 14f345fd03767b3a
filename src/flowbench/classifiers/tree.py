"""CART decision trees, the base of every tree model in the portfolio.

Split search has two candidate generators. The exhaustive one proposes every
midpoint between consecutive distinct sorted values of each candidate
feature; the random one draws one uniform threshold per non-constant feature
between its node-local min and max (Geurts et al., Extremely randomized
trees, 2006). One scorer keeps the candidate with the lowest weighted child
Gini; ties resolve to the lowest feature index, then the lowest threshold.
Admissibility of the winner is decided in exact integer arithmetic so
zero-gain splits are kept (both children still shrink) and float rounding
can never turn a valid split into a leaf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from flowbench.classifiers.base import Classifier, validated_seed


def gini(dist) -> float:
    """Gini impurity 1 - sum(p_i^2) of a class-probability vector."""
    p = np.asarray(dist, dtype=np.float64)
    return float(1.0 - np.dot(p, p))


@dataclass
class TreeNode:
    """Internal node (feature, threshold, children) or leaf (class distribution).

    Rows route left iff row[feature] <= threshold.
    """

    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    dist: np.ndarray | None = None

    @property
    def is_leaf(self) -> bool:
        return self.dist is not None

    def to_dict(self) -> dict:
        if self.is_leaf:
            return {"dist": self.dist.tolist()}
        return {
            "feature": self.feature,
            "threshold": self.threshold,
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "TreeNode":
        if "dist" in doc:
            return cls(dist=np.asarray(doc["dist"], dtype=np.float64))
        return cls(
            feature=int(doc["feature"]),
            threshold=float(doc["threshold"]),
            left=cls.from_dict(doc["left"]),
            right=cls.from_dict(doc["right"]),
        )


def build_tree(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    *,
    splitter: str = "best",
    max_depth: int | None = None,
    min_samples_split: int = 2,
    min_impurity_decrease: float = 0.0,
    max_features: int | None = None,
    rng: np.random.Generator | None = None,
) -> TreeNode:
    """Grow a CART tree on dense class codes y in [0, n_classes).

    splitter "best" scans every midpoint between consecutive distinct values;
    "random" draws one uniform threshold per candidate feature between its
    node-local min and max and keeps the best of those candidates (requires
    rng). max_features, when smaller than the column count, samples a fresh
    random feature subset at every split (requires rng).
    """
    n, d = X.shape
    columns = np.ascontiguousarray(X.T)
    onehot = np.eye(n_classes, dtype=np.int64)[y]
    root = TreeNode()
    stack = [(root, np.arange(n), 0)]
    while stack:
        node, idx, depth = stack.pop()
        size = idx.size
        counts = np.bincount(y[idx], minlength=n_classes)
        if (
            size < min_samples_split
            or int(counts.max()) == size
            or (max_depth is not None and depth >= max_depth)
        ):
            node.dist = counts / size
            continue

        if max_features is not None and max_features < d:
            feature_ids = np.sort(rng.choice(d, size=max_features, replace=False))
        else:
            feature_ids = np.arange(d)

        values = columns[feature_ids[:, None], idx]
        labels = onehot[idx]
        if splitter == "random":
            candidates = _random_candidates(values, labels, rng)
        else:
            candidates = _exhaustive_candidates(values, labels)
        found = _best_split(*candidates, counts, min_impurity_decrease)
        if found is None:
            node.dist = counts / size
            continue

        row, node.threshold = found
        node.feature = int(feature_ids[row])
        node.left = TreeNode()
        node.right = TreeNode()
        go_left = values[row] <= node.threshold
        stack.append((node.right, idx[~go_left], depth + 1))
        stack.append((node.left, idx[go_left], depth + 1))
    return root


def tree_scores(root: TreeNode, X: np.ndarray, n_classes: int) -> np.ndarray:
    """Route rows to leaves; one class distribution per row."""
    out = np.empty((X.shape[0], n_classes), dtype=np.float64)
    stack = [(root, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if idx.size == 0:
            continue
        if node.is_leaf:
            out[idx] = node.dist
            continue
        go_left = X[idx, node.feature] <= node.threshold
        stack.append((node.left, idx[go_left]))
        stack.append((node.right, idx[~go_left]))
    return out


# Each candidate generator takes the node's feature values, one row per
# candidate feature, and its one-hot labels, and returns parallel arrays: the
# row of each candidate's feature, its threshold, and the class counts of the
# rows it sends left.


def _exhaustive_candidates(values, labels):
    order = np.argsort(values, axis=1, kind="stable")
    ordered = np.take_along_axis(values, order, axis=1)
    rows, cuts = np.nonzero(ordered[:, :-1] != ordered[:, 1:])
    left = np.cumsum(labels[order], axis=1)[rows, cuts]
    lower, upper = ordered[rows, cuts], ordered[rows, cuts + 1]
    return rows, _below_upper((lower + upper) / 2.0, lower, upper), left


def _random_candidates(values, labels, rng):
    lo, hi = values.min(axis=1), values.max(axis=1)
    (rows,) = np.nonzero(lo != hi)
    lo, hi = lo[rows], hi[rows]
    thresholds = _below_upper(rng.uniform(lo, hi), lo, hi)
    left = (values[rows] <= thresholds[:, None]).astype(np.int64) @ labels
    return rows, thresholds, left


def _below_upper(thresholds, lower, upper):
    """Thresholds, with one that rounded onto its upper value moved to the lower.

    A midpoint of adjacent doubles, or a uniform draw, can land on the upper
    value and send every row left; scikit-learn's splitters use the same rule.
    """
    return np.where(thresholds < upper, thresholds, lower)


def _best_split(rows, thresholds, left, counts, min_decrease):
    """(candidate row, threshold) with the lowest weighted child Gini, or None."""
    if rows.size == 0:
        return None
    n = int(counts.sum())
    right = counts - left
    n_left = left.sum(axis=1)
    n_right = n - n_left
    ssq_left = np.einsum("ij,ij->i", left, left)
    ssq_right = np.einsum("ij,ij->i", right, right)
    weighted = ((n_left - ssq_left / n_left) + (n_right - ssq_right / n_right)) / n
    best = int(np.argmin(weighted))
    ssq_parent = int(np.dot(counts, counts))
    if min_decrease <= 0.0:
        # Exact integer form of: weighted child Gini <= parent Gini.
        nl, nr = int(n_left[best]), int(n_right[best])
        lhs = n * (int(ssq_left[best]) * nr + int(ssq_right[best]) * nl)
        admissible = lhs >= ssq_parent * nl * nr
    else:
        parent = (n - ssq_parent / n) / n
        admissible = parent - float(weighted[best]) >= min_decrease
    return (int(rows[best]), float(thresholds[best])) if admissible else None


class DecisionTreeModel(Classifier):
    """Greedy CART classifier with exhaustive Gini split search.

    The base of every tree model. A fit grows `n_trees` trees, tree i with
    rng `default_rng([seed, i])`, each on a bootstrap sample of the rows when
    `bootstrap` is set and over a fresh `max_features` subset of the features
    at every split; scores average the trees' leaf distributions. A single
    tree model grows one tree on all rows and features.
    """

    name = "decision_tree"
    _splitter = "best"
    n_trees = 1
    bootstrap = False
    max_features: int | str = "all"
    seed = 0

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_impurity_decrease: float = 0.0,
    ):
        super().__init__()
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_impurity_decrease = min_impurity_decrease
        self.trees_: list[TreeNode] | None = None

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
        per_split = self._resolve_max_features(d)
        trees: list[TreeNode] = []
        for i in range(self.n_trees):
            rng = np.random.default_rng([self.seed, i])
            sample = rng.integers(0, n, size=n) if self.bootstrap else slice(None)
            root = build_tree(
                X[sample],
                codes[sample],
                self.classes_.size,
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
        return {"trees": [root.to_dict() for root in self.trees_]}

    def _load_state(self, state):
        # Single-tree files written before every tree model stored a list.
        docs = state["trees"] if "trees" in state else [state["tree"]]
        self.trees_ = [TreeNode.from_dict(doc) for doc in docs]


class ExtraTreeModel(DecisionTreeModel):
    """Single extremely randomized tree: one uniform threshold per feature."""

    name = "extra_tree"
    _splitter = "random"

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_impurity_decrease: float = 0.0,
        seed: int = 0,
    ):
        super().__init__(max_depth, min_samples_split, min_impurity_decrease)
        self.seed = validated_seed(seed)
