"""CART decision trees, the base of every tree model in the portfolio.

A fit grows all of its trees in lockstep. Each tree keeps its own generator
and its own depth-first stack. Every step pops the next node to split from
each unfinished tree and scores those nodes' candidate splits together, in
groups of at most BLOCK_ELEMENTS (row, candidate feature) pairs, with one set
of numpy calls per group. A tree draws only at its own nodes, one node per
step, so its draws come in the preorder of growing it alone and its splits do
not depend on the other trees.

Split search has two candidate generators. The exhaustive one proposes every
midpoint between consecutive distinct sorted values of each candidate
feature; it ranks each column once per fit, then sorts each node's
(candidate feature, rank) keys. The random one draws one uniform threshold
per non-constant feature between its node-local min and max (Geurts et al.,
Extremely randomized trees, 2006). One scorer keeps the candidate with the
lowest weighted child Gini; ties resolve to the lowest feature index, then
the lowest threshold. Admissibility of the winner is decided in exact integer
arithmetic so zero-gain splits are kept (both children still shrink) and
float rounding can never turn a valid split into a leaf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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


# Upper bound on the (node row, candidate feature) pairs scored in one group;
# it bounds the group's temporary arrays. A larger node forms a group alone.
BLOCK_ELEMENTS = 1 << 14


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
    rngs: list[np.random.Generator] | None = None,
    bootstrap: bool = False,
) -> list[TreeNode]:
    """Grow CART trees on dense class codes y in [0, n_classes); return their roots.

    Grows one tree per generator in `rngs`, or a single tree when `rngs` is
    None. With `bootstrap`, tree i first draws its rows with
    `rngs[i].integers(0, n, size=n)`; otherwise it grows on every row.
    splitter "best" scans every midpoint between consecutive distinct values;
    "random" draws one uniform threshold per candidate feature between its
    node-local min and max and keeps the best of those candidates (requires
    rngs). max_features, when smaller than the column count, samples a fresh
    random feature subset at every split (requires rngs).
    """
    n, d = X.shape
    grower = _Grower(
        X, y, n_classes, splitter, max_depth, min_samples_split, min_impurity_decrease
    )
    rngs = [None] if rngs is None else list(rngs)
    roots = [TreeNode() for _ in rngs]
    stacks = [[] for _ in rngs]
    every_row = np.arange(n, dtype=grower.row_dtype)  # read-only, so roots share it
    samples = [
        rng.integers(0, n, size=n).astype(grower.row_dtype) if bootstrap else every_row
        for rng in rngs
    ]
    counts = np.array([np.bincount(grower.y[rows], minlength=n_classes) for rows in samples])
    for i in grower.growing(roots, counts, np.zeros(len(rngs), dtype=np.int64)):
        stacks[i].append((roots[i], samples[i], counts[i], 0))
    subset = max_features is not None and max_features < d
    every_feature = np.arange(d)
    while True:
        step = []
        for stack, rng in zip(stacks, rngs):
            if stack:
                if subset:
                    features = rng.choice(d, size=max_features, replace=False)
                    features.sort()
                else:
                    features = every_feature
                step.append(_Pending(*stack.pop(), features, rng, stack))
        if not step:
            return roots
        for group in _groups(step):
            grower.split(group)


def tree_scores(root: TreeNode, X: np.ndarray, n_classes: int) -> np.ndarray:
    """Route rows to leaves; one class distribution per row.

    Each split reads its feature's column, so a Fortran-order X routes fastest.
    Row sets are split with `compress`, not boolean-mask indexing: on a mask
    with no pattern, `idx[mask]` mispredicts a branch per element and costs
    several times as much.
    """
    leaves = []
    leaf_of = np.empty(X.shape[0], dtype=np.intp)
    stack = [(root, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if idx.size == 0:
            continue
        if node.is_leaf:
            leaf_of[idx] = len(leaves)
            leaves.append(node.dist)
            continue
        go_left = X[:, node.feature].take(idx) <= node.threshold
        stack.append((node.left, idx.compress(go_left)))
        stack.append((node.right, idx.compress(~go_left)))
    dists = np.array(leaves, dtype=np.float64).reshape(len(leaves), n_classes)
    return dists.take(leaf_of, axis=0)


class _Pending(NamedTuple):
    """A node waiting for its split search."""

    node: TreeNode
    rows: np.ndarray  # original row numbers, repeated as the bootstrap drew them
    counts: np.ndarray  # class counts of those rows
    depth: int
    features: np.ndarray  # candidate features, ascending
    rng: np.random.Generator | None
    stack: list  # the tree's depth-first stack of _Pending fields, for the children


def _groups(step: list[_Pending]):
    """Consecutive runs of a step's nodes of at most BLOCK_ELEMENTS pairs each."""
    group, elements = [], 0
    for pending in step:
        size = pending.rows.size * pending.features.size
        if group and elements + size > BLOCK_ELEMENTS:
            yield group
            group, elements = [], 0
        group.append(pending)
        elements += size
    yield group


class _Pairs(NamedTuple):
    """A group's (node, candidate feature) pairs, laid out one after another.

    Pair p covers cells start[p]:end[p] of the layout, one per row of its
    node; `rows` and `cells` give each cell's row and its index into the
    fit's flattened columns.
    """

    node: np.ndarray
    feature: np.ndarray
    size: np.ndarray
    start: np.ndarray
    end: np.ndarray
    rows: np.ndarray
    cells: np.ndarray


class _Grower:
    """The rows, stopping rules and batched split search of one fit.

    Each candidate generator takes a group's pairs and returns parallel
    arrays, ordered by pair and then by threshold: the candidate's pair, its
    threshold, and the class counts of the rows it sends left.
    """

    def __init__(self, X, y, n_classes, splitter, max_depth, min_samples_split, min_decrease):
        self.n, d = X.shape
        self.columns = np.ascontiguousarray(X.T)
        self.y = np.asarray(y)
        self.k = n_classes
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_decrease = min_decrease
        self.row_dtype = np.int32 if self.n <= np.iinfo(np.int32).max else np.int64
        self.random = splitter == "random"
        if not self.random:
            # Column j's distinct values, ascending, are self.values[offsets[j]:
            # offsets[j + 1]]. A cell's key is its index into them (its rank)
            # with its row's class code in the low label_bits bits.
            uniques = [np.unique(column, return_inverse=True) for column in self.columns]
            offsets = np.cumsum([0, *(values.size for values, _ in uniques)])
            self.values = np.empty(offsets[-1])
            ranks = np.empty((d, self.n), dtype=np.int64)
            for j, (values, inverse) in enumerate(uniques):
                self.values[offsets[j] : offsets[j + 1]] = values
                ranks[j] = inverse + offsets[j]
            self.label_bits = max(1, (n_classes - 1).bit_length())
            self.keys = (ranks.ravel() << self.label_bits) | np.tile(self.y, d)
            # Class counts of at most n rows take count_bits bits each; one
            # int64 word packs the counts of up to 63 // count_bits classes.
            self.count_bits = self.n.bit_length()
            per_word = 63 // self.count_bits
            self.count_words = []
            for first in range(0, n_classes, per_word):
                classes = np.arange(first, min(first + per_word, n_classes))
                shifts = self.count_bits * (classes - first)
                unit = np.zeros(n_classes, dtype=np.int64)
                unit[classes] = 1 << shifts
                self.count_words.append((classes, shifts, unit))

    def growing(self, nodes, counts, depths) -> list[int]:
        """Make each node that the stopping rules end a leaf; return the others' indices."""
        sizes = counts.sum(axis=1)
        leaf = (sizes < self.min_samples_split) | (counts.max(axis=1) == sizes)
        if self.max_depth is not None:
            leaf |= depths >= self.max_depth
        dists = counts / sizes[:, None]
        for i in leaf.nonzero()[0].tolist():
            nodes[i].dist = dists[i].copy()
        return (~leaf).nonzero()[0].tolist()

    def split(self, group: list[_Pending]) -> None:
        """Split each node of a group at its best admissible candidate, or make it a leaf."""
        pairs = self._pairs(group)
        if self.random:
            candidates, thresholds, left = self._drawn_candidates(group, pairs)
        else:
            candidates, thresholds, left = self._midpoint_candidates(pairs)
        counts = np.concatenate([pending.counts for pending in group]).reshape(-1, self.k)
        won, best = _winners(pairs.node[candidates], left, counts, self.min_decrease)
        for i in set(range(len(group))).difference(won):
            group[i].node.dist = counts[i] / group[i].rows.size
        if won:
            split = [group[i] for i in won]
            features = pairs.feature[candidates[best]]
            self._branch(split, features, thresholds[best], counts[won], left[best])

    def _branch(self, split, features, thresholds, counts, left):
        """Give each split node its children; grow them or make them leaves."""
        children = []
        for pending, feature, threshold in zip(split, features.tolist(), thresholds.tolist()):
            node = pending.node
            node.feature, node.threshold = feature, threshold
            node.left, node.right = TreeNode(), TreeNode()
            children.append(node.right)
        children += [pending.node.left for pending in split]
        rows = np.concatenate([pending.rows for pending in split])
        sizes = counts.sum(axis=1)
        cells = (features * self.n).repeat(sizes)
        cells += rows
        go_left = self.columns.ravel()[cells] <= thresholds.repeat(sizes)
        # Right children first: each tree has one node here, so it pops its
        # left child next. A growing child gets its own copy of its rows.
        child_counts = np.concatenate([counts - left, left])
        child_rows = np.concatenate([rows.compress(~go_left), rows.compress(go_left)])
        depths = np.array([pending.depth + 1 for pending in split] * 2)
        stops = child_counts.sum(axis=1).cumsum().tolist()
        for j in self.growing(children, child_counts, depths):
            own = child_rows[stops[j - 1] if j else 0 : stops[j]].copy()
            split[j % len(split)].stack.append((children[j], own, child_counts[j], int(depths[j])))

    def _pairs(self, group: list[_Pending]) -> _Pairs:
        sizes = np.array([pending.rows.size for pending in group])
        n_features = np.array([pending.features.size for pending in group])
        node = np.arange(len(group)).repeat(n_features)
        feature = np.concatenate([pending.features for pending in group])
        size = sizes[node]
        end = size.cumsum()
        start = end - size
        gather = ((sizes.cumsum() - sizes)[node] - start).repeat(size)
        gather += np.arange(gather.size)
        rows = np.concatenate([pending.rows for pending in group])[gather]
        cells = (feature * self.n).repeat(size)
        cells += rows
        return _Pairs(node, feature, size, start, end, rows, cells)

    def _midpoint_candidates(self, pairs: _Pairs):
        # Sorted (pair, rank, class) keys put each pair's cells in value
        # order; a cut lies wherever the rank changes within a pair.
        keys = self.keys[pairs.cells]
        keys += (np.arange(pairs.size.size) * (self.values.size << self.label_bits)).repeat(
            pairs.size
        )
        keys.sort()
        labels = keys & ((1 << self.label_bits) - 1)
        keys >>= self.label_bits
        change = keys[1:] != keys[:-1]
        change[pairs.end[:-1] - 1] = False
        cuts = change.nonzero()[0]
        candidates = np.searchsorted(pairs.end, cuts, side="right")
        above = cuts + 1
        left = self._counts_between(labels, pairs.start[candidates], above)
        offsets = candidates * self.values.size
        lower = self.values[keys[cuts] - offsets]
        upper = self.values[keys[above] - offsets]
        return candidates, _below_upper((lower + upper) / 2.0, lower, upper), left

    def _counts_between(self, labels, starts, stops):
        """Class counts of labels[starts[i]:stops[i]], one row per i.

        The prefix sums of packed counts may wrap around; their differences,
        at most n per class, are exact.
        """
        out = np.empty((starts.size, self.k), dtype=np.int64)
        seen = np.zeros(labels.size + 1, dtype=np.int64)
        for classes, shifts, unit in self.count_words:
            np.cumsum(unit[labels], out=seen[1:])
            packed = seen[stops] - seen[starts]
            out[:, classes] = (packed[:, None] >> shifts) & ((1 << self.count_bits) - 1)
        return out

    def _drawn_candidates(self, group: list[_Pending], pairs: _Pairs):
        values = self.columns.ravel()[pairs.cells]
        lo = np.minimum.reduceat(values, pairs.start)
        hi = np.maximum.reduceat(values, pairs.start)
        candidates = (lo != hi).nonzero()[0]
        lo, hi = lo[candidates], hi[candidates]
        span = hi - lo
        if not np.isfinite(span).all():
            # The check of Generator.uniform, whose draws these reproduce.
            raise OverflowError("Range exceeds valid bounds")
        draws = np.bincount(pairs.node[candidates], minlength=len(group)).tolist()
        unit = np.concatenate([p.rng.random(m) for p, m in zip(group, draws)])
        thresholds = _below_upper(lo + span * unit, lo, hi)
        pair_threshold = np.full(pairs.size.size, np.nan)
        pair_threshold[candidates] = thresholds
        go_left = values <= pair_threshold.repeat(pairs.size)
        keys = (np.arange(pairs.size.size) * self.k).repeat(pairs.size)
        keys += self.y[pairs.rows]
        left = np.bincount(keys.compress(go_left), minlength=pairs.size.size * self.k)
        return candidates, thresholds, left.reshape(-1, self.k)[candidates]


def _below_upper(thresholds, lower, upper):
    """Thresholds, with one that rounded onto its upper value moved to the lower.

    A midpoint of adjacent doubles, or a uniform draw, can land on the upper
    value and send every row left; scikit-learn's splitters use the same rule.
    """
    return np.where(thresholds < upper, thresholds, lower)


def _run_starts(a):
    """Indices at which a run of equal values of `a` begins."""
    return np.concatenate(([True], a[1:] != a[:-1])).nonzero()[0]


def _winners(nodes, left, counts, min_decrease):
    """The nodes that split, and the candidate each splits at.

    `nodes` gives each candidate's node, ascending, and `left` the class
    counts it sends left. A node's candidate is its first one with the lowest
    weighted child Gini; the node splits when that candidate is admissible.
    """
    if nodes.size == 0:
        return [], []
    n = counts.sum(axis=1)[nodes]
    right = counts[nodes] - left
    n_left = left.sum(axis=1)
    n_right = n - n_left
    ssq_left = (left * left).sum(axis=1)
    ssq_right = (right * right).sum(axis=1)
    weighted = ((n_left - ssq_left / n_left) + (n_right - ssq_right / n_right)) / n
    starts = _run_starts(nodes)
    lowest = np.minimum.reduceat(weighted, starts)
    hits = (weighted == lowest.repeat(np.bincount(nodes)[nodes[starts]])).nonzero()[0]
    first = hits[_run_starts(nodes[hits])]
    ssq_parent = (counts * counts).sum(axis=1).tolist()
    won, best = [], []
    for i, node, nl, nr, sl, sr, w in zip(
        first.tolist(), nodes[first].tolist(), n_left[first].tolist(),
        n_right[first].tolist(), ssq_left[first].tolist(), ssq_right[first].tolist(),
        weighted[first].tolist(),
    ):
        n, sp = nl + nr, ssq_parent[node]
        if min_decrease <= 0.0:
            # Exact integer form of: weighted child Gini <= parent Gini.
            admissible = n * (sl * nr + sr * nl) >= sp * nl * nr
        else:
            admissible = (n - sp / n) / n - w >= min_decrease
        if admissible:
            won.append(node)
            best.append(i)
    return won, best


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
        self.trees_ = build_tree(
            X,
            codes,
            self.classes_.size,
            splitter=self._splitter,
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_impurity_decrease=self.min_impurity_decrease,
            max_features=self._resolve_max_features(X.shape[1]),
            rngs=[np.random.default_rng([self.seed, i]) for i in range(self.n_trees)],
            bootstrap=self.bootstrap,
        )

    def _scores(self, X):
        k = self.classes_.size
        X = np.asfortranarray(X)
        total = np.zeros((X.shape[0], k), dtype=np.float64)
        for root in self.trees_:
            total += tree_scores(root, X, k)
        return total / len(self.trees_)

    def _state(self):
        return {"trees": [root.to_dict() for root in self.trees_]}

    def _load_state(self, state):
        # Single-tree files written before every tree model stored a list.
        docs = state["trees"] if "trees" in state else [state["tree"]]
        if len(docs) != self.n_trees:
            raise ValueError(f"expected {self.n_trees} trees, found {len(docs)}")
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
