"""CART decision trees: exact Gini split search plus a randomized variant.

The exhaustive splitter scans every midpoint between consecutive distinct
sorted values of each candidate feature and keeps the (feature, threshold)
pair with the lowest weighted child Gini; ties resolve to the lowest feature
index, then the lowest threshold. Admissibility of the winning candidate is
decided in exact integer arithmetic so zero-gain splits are kept (both
children still shrink) and float rounding can never turn a valid split into
a leaf.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from flowbench.classifiers.base import Classifier


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

        X_node = X[idx]
        y_node = y[idx]
        if splitter == "random":
            found = _best_random_split(X_node, y_node, counts, feature_ids, rng)
        else:
            found = _best_exhaustive_split(X_node, y_node, n_classes, feature_ids)

        if found is None or not _admissible(found, counts, size, min_impurity_decrease):
            node.dist = counts / size
            continue

        node.feature = found.feature
        node.threshold = found.threshold
        node.left = TreeNode()
        node.right = TreeNode()
        go_left = X_node[:, found.feature] <= found.threshold
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


def features_used(root: TreeNode, n_features: int) -> list[bool]:
    """Mask of features appearing in at least one split of the tree."""
    mask = [False] * n_features
    stack = [root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            continue
        mask[node.feature] = True
        stack.append(node.left)
        stack.append(node.right)
    return mask


@dataclass
class _Split:
    weighted_gini: float
    feature: int
    threshold: float
    n_left: int
    ssq_left: int
    n_right: int
    ssq_right: int


def _admissible(
    split: _Split, parent_counts: np.ndarray, n: int, min_decrease: float
) -> bool:
    ssq_parent = int(np.dot(parent_counts, parent_counts))
    if min_decrease <= 0.0:
        # Exact integer form of: weighted child Gini <= parent Gini.
        lhs = n * (split.ssq_left * split.n_right + split.ssq_right * split.n_left)
        return lhs >= ssq_parent * split.n_left * split.n_right
    parent = (n - ssq_parent / n) / n
    return parent - split.weighted_gini >= min_decrease


def _best_exhaustive_split(
    X: np.ndarray, y: np.ndarray, n_classes: int, feature_ids: np.ndarray
) -> _Split | None:
    n = X.shape[0]
    best: _Split | None = None
    for f in feature_ids:
        column = X[:, f]
        order = np.argsort(column, kind="stable")
        sorted_values = column[order]
        cuts = np.flatnonzero(sorted_values[:-1] != sorted_values[1:])
        if cuts.size == 0:
            continue
        sorted_y = y[order]
        # Class counts left of each cut, via per-class prefix positions.
        left = np.stack(
            [
                np.searchsorted(np.flatnonzero(sorted_y == c), cuts, side="right")
                for c in range(n_classes)
            ],
            axis=1,
        )
        totals = np.bincount(sorted_y, minlength=n_classes)
        right = totals[None, :] - left
        n_left = (cuts + 1).astype(np.float64)
        n_right = n - n_left
        ssq_left = np.einsum("ij,ij->i", left, left).astype(np.float64)
        ssq_right = np.einsum("ij,ij->i", right, right).astype(np.float64)
        weighted = ((n_left - ssq_left / n_left) + (n_right - ssq_right / n_right)) / n
        pos = int(np.argmin(weighted))
        if best is None or weighted[pos] < best.weighted_gini:
            cut = int(cuts[pos])
            best = _Split(
                weighted_gini=float(weighted[pos]),
                feature=int(f),
                threshold=float((sorted_values[cut] + sorted_values[cut + 1]) / 2.0),
                n_left=cut + 1,
                ssq_left=int(ssq_left[pos]),
                n_right=n - cut - 1,
                ssq_right=int(ssq_right[pos]),
            )
    return best


def _best_random_split(
    X: np.ndarray,
    y: np.ndarray,
    total_counts: np.ndarray,
    feature_ids: np.ndarray,
    rng: np.random.Generator,
) -> _Split | None:
    n = X.shape[0]
    best: _Split | None = None
    for f in feature_ids:
        column = X[:, f]
        lo = float(column.min())
        hi = float(column.max())
        if lo == hi:
            continue
        threshold = float(rng.uniform(lo, hi))
        go_left = column <= threshold
        n_left = int(np.count_nonzero(go_left))
        left = np.bincount(y[go_left], minlength=total_counts.size)
        right = total_counts - left
        n_right = n - n_left
        ssq_left = int(np.dot(left, left))
        ssq_right = int(np.dot(right, right))
        weighted = ((n_left - ssq_left / n_left) + (n_right - ssq_right / n_right)) / n
        if best is None or weighted < best.weighted_gini:
            best = _Split(
                weighted_gini=weighted,
                feature=int(f),
                threshold=threshold,
                n_left=n_left,
                ssq_left=ssq_left,
                n_right=n_right,
                ssq_right=ssq_right,
            )
    return best


class DecisionTreeModel(Classifier):
    """Greedy CART classifier with exhaustive Gini split search."""

    name = "decision_tree"

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
        self.tree_: TreeNode | None = None

    def _fit(self, X, codes):
        self.tree_ = build_tree(
            X,
            codes,
            self.classes_.size,
            splitter="best",
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_impurity_decrease=self.min_impurity_decrease,
        )

    def _scores(self, X):
        return tree_scores(self.tree_, X, self.classes_.size)

    def _state(self):
        return {"tree": self.tree_.to_dict()}

    def _load_state(self, state):
        self.tree_ = TreeNode.from_dict(state["tree"])


class ExtraTreeModel(Classifier):
    """Single extremely randomized tree: one uniform threshold per feature."""

    name = "extra_tree"

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_impurity_decrease: float = 0.0,
        seed: int = 0,
    ):
        super().__init__()
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_impurity_decrease = min_impurity_decrease
        self.seed = seed
        self.tree_: TreeNode | None = None

    def _fit(self, X, codes):
        self.tree_ = build_tree(
            X,
            codes,
            self.classes_.size,
            splitter="random",
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_impurity_decrease=self.min_impurity_decrease,
            rng=np.random.default_rng(self.seed),
        )

    def _scores(self, X):
        return tree_scores(self.tree_, X, self.classes_.size)

    def _state(self):
        return {"tree": self.tree_.to_dict()}

    def _load_state(self, state):
        self.tree_ = TreeNode.from_dict(state["tree"])
