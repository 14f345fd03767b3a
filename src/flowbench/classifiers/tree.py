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

A fit's trees form one `Forest`: parallel arrays with one entry per node
(feature, threshold, left child, class fractions), tree after tree, each in
the order the fit created its nodes, as in scikit-learn's `Tree` (Louppe,
Understanding Random Forests, 2014, ch. 5); a right child is numbered left + 1.
The grower records each group's new nodes and splits as arrays and lays the
forest out once growth ends, so a fit makes no Python object per node, scoring
routes row sets by array lookups, and a model file stores each field as one
flat JSON array. `TreeNode` is a read-only view of one node for tree walks.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from flowbench.classifiers.base import Classifier, non_negative_int


def gini(dist) -> float:
    """Gini impurity 1 - sum(p_i^2) of a class-probability vector."""
    p = np.asarray(dist, dtype=np.float64)
    return float(1.0 - np.dot(p, p))


LEAF = -1  # the feature and left child of a leaf


class Forest(NamedTuple):
    """A fit's trees as parallel arrays, one entry per node, tree after tree.

    Tree t's nodes run from roots[t] up to the next tree's root (or the end),
    numbered in the order the fit created them: its root comes first, and a
    node's children come after it in the same tree. A split node sends a row
    to `left` when row[feature] <= threshold, else to `left + 1`. A leaf holds
    LEAF in feature and left, a threshold of 0.0, and in `value` the class
    fractions of the training rows that reached it; a split node's value row
    is zero.
    """

    feature: np.ndarray  # int32
    threshold: np.ndarray  # float64
    left: np.ndarray  # int32, a node number of the whole forest
    value: np.ndarray  # float64, one row of k class fractions per node
    roots: np.ndarray  # int32, each tree's first node, ascending from 0


class TreeNode(NamedTuple):
    """Read-only view of one node of a Forest, for code that walks a tree node by node.

    The models read the arrays; `DecisionTreeModel.trees_` makes root views on
    each read. A leaf's `left` and `right` are None.
    """

    forest: Forest
    node: int = 0

    @property
    def is_leaf(self) -> bool:
        return bool(self.forest.left[self.node] == LEAF)

    @property
    def feature(self) -> int:
        return int(self.forest.feature[self.node])

    @property
    def threshold(self) -> float:
        return float(self.forest.threshold[self.node])

    @property
    def left(self) -> "TreeNode | None":
        return None if self.is_leaf else TreeNode(self.forest, int(self.forest.left[self.node]))

    @property
    def right(self) -> "TreeNode | None":
        left = self.left
        return None if left is None else TreeNode(self.forest, left.node + 1)

    @property
    def dist(self) -> np.ndarray:
        return self.forest.value[self.node]


# Upper bound on the (node row, candidate feature) pairs scored in one group;
# it bounds the group's temporary arrays. A larger node forms a group alone.
BLOCK_ELEMENTS = 1 << 14


def build_tree(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    *,
    splitter: str = "best",
    max_features: int | None = None,
    rngs: list[np.random.Generator] | None = None,
    bootstrap: bool = False,
) -> Forest:
    """Grow a forest of CART trees on dense class codes y in [0, n_classes).

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
    rngs = [None] if rngs is None else list(rngs)
    grower = _Grower(X, y, n_classes, splitter, len(rngs))
    stacks = [[] for _ in rngs]
    every_row = np.arange(n, dtype=grower.row_dtype)  # read-only, so roots share it
    samples = [
        rng.integers(0, n, size=n).astype(grower.row_dtype) if bootstrap else every_row
        for rng in rngs
    ]
    counts = np.array([np.bincount(grower.y[rows], minlength=n_classes) for rows in samples])
    roots = np.arange(len(rngs), dtype=np.int32)
    for i in grower.growing(roots, np.zeros_like(roots), counts):
        stacks[i].append((i, 0, samples[i], counts[i]))
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
            return grower.forest()
        for group in _groups(step):
            grower.split(group)


def tree_scores(forest: Forest, X: np.ndarray) -> np.ndarray:
    """Route rows to leaves; per row, the sum of its leaves' class fractions.

    Trees are routed one at a time, in forest order, from lists of their own
    fields, so no Python list spans the forest. Each split reads its feature's
    column, so a Fortran-order X routes fastest. Row sets are split with
    `compress`, not boolean-mask indexing: on a mask with no pattern,
    `idx[mask]` mispredicts a branch per element and costs several times as
    much.
    """
    every_row = np.arange(X.shape[0])
    leaf_of = np.empty(X.shape[0], dtype=np.intp)
    total = np.zeros((X.shape[0], forest.value.shape[1]))
    bounds = [*forest.roots.tolist(), forest.left.size]
    for start, stop in zip(bounds, bounds[1:]):
        feature = forest.feature[start:stop].tolist()
        threshold = forest.threshold[start:stop].tolist()
        left = (forest.left[start:stop] - start).tolist()  # a leaf's entry is not read
        stack = [(0, every_row)]
        while stack:
            node, idx = stack.pop()
            if idx.size == 0:
                continue
            if feature[node] == LEAF:
                leaf_of[idx] = node
                continue
            go_left = X[:, feature[node]].take(idx) <= threshold[node]
            stack.append((left[node], idx.compress(go_left)))
            stack.append((left[node] + 1, idx.compress(~go_left)))
        total += forest.value[start:stop].take(leaf_of, axis=0)
    return total


class _Pending(NamedTuple):
    """A node waiting for its split search."""

    tree: int  # the tree's position in the fit
    node: int  # the node's number in its tree
    rows: np.ndarray  # original row numbers, repeated as the bootstrap drew them
    counts: np.ndarray  # class counts of those rows
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
    """The rows, stopping rule and batched split search of one fit.

    Each candidate generator takes a group's pairs and returns parallel
    arrays, ordered by pair and then by threshold: the candidate's pair, its
    threshold, and the class counts of the rows it sends left.

    Nodes are recorded a group at a time, as arrays: `created` holds each
    new node's tree, number and class fractions, `splits` each split node's
    tree, number, feature, threshold and left child. `forest` lays them out.
    """

    def __init__(self, X, y, n_classes, splitter, n_trees):
        self.n, d = X.shape
        self.size = np.ones(n_trees, dtype=np.int32)  # nodes numbered per tree, roots first
        self.created = []
        self.splits = []
        self.columns = np.ascontiguousarray(X.T)
        self.y = np.asarray(y)
        self.k = n_classes
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

    def growing(self, trees, nodes, counts) -> list[int]:
        """Record node nodes[i] of tree trees[i], whose rows have class counts
        counts[i]; return the positions of the nodes that are not pure."""
        sizes = counts.sum(axis=1)
        self.created.append((trees, nodes, counts / sizes[:, None]))
        return (counts.max(axis=1) != sizes).nonzero()[0].tolist()

    def split(self, group: list[_Pending]) -> None:
        """Split each node of a group at its best admissible candidate; the rest stay leaves."""
        pairs = self._pairs(group)
        if self.random:
            candidates, thresholds, left = self._drawn_candidates(group, pairs)
        else:
            candidates, thresholds, left = self._midpoint_candidates(pairs)
        counts = np.concatenate([pending.counts for pending in group]).reshape(-1, self.k)
        won, best = _winners(pairs.node[candidates], left, counts)
        if won:
            split = [group[i] for i in won]
            features = pairs.feature[candidates[best]]
            self._branch(split, features, thresholds[best], counts[won], left[best])

    def _branch(self, split, features, thresholds, counts, left):
        """Give each split node its children; grow them or make them leaves."""
        trees = np.array([pending.tree for pending in split], dtype=np.int32)
        lefts = self.size[trees]
        self.size[trees] += 2
        nodes = np.array([pending.node for pending in split], dtype=np.int32)
        self.splits.append((trees, nodes, features.astype(np.int32), thresholds, lefts))
        rows = np.concatenate([pending.rows for pending in split])
        sizes = counts.sum(axis=1)
        cells = (features * self.n).repeat(sizes)
        cells += rows
        go_left = self.columns.ravel()[cells] <= thresholds.repeat(sizes)
        # Right children first: each tree has one node here, so it pops its
        # left child next. A growing child gets its own copy of its rows.
        child_counts = np.concatenate([counts - left, left])
        child_rows = np.concatenate([rows.compress(~go_left), rows.compress(go_left)])
        children = np.concatenate([lefts + 1, lefts])
        stops = child_counts.sum(axis=1).cumsum().tolist()
        for j in self.growing(np.tile(trees, 2), children, child_counts):
            own = child_rows[stops[j - 1] if j else 0 : stops[j]].copy()
            pending = split[j % len(split)]
            pending.stack.append((pending.tree, int(children[j]), own, child_counts[j]))

    def forest(self) -> Forest:
        """The grown trees, laid out tree after tree as one Forest."""
        roots = (self.size.cumsum() - self.size).astype(np.int32)
        total = int(self.size.sum())
        value = np.empty((total, self.k))
        feature = np.full(total, LEAF, dtype=np.int32)
        threshold = np.zeros(total)
        left = feature.copy()
        # Each record is dropped once copied, so no node is held twice over.
        while self.created:
            trees, nodes, values = self.created.pop()
            value[roots[trees] + nodes] = values
        while self.splits:
            trees, nodes, features, thresholds, lefts = self.splits.pop()
            at = roots[trees] + nodes
            feature[at], threshold[at], left[at] = features, thresholds, roots[trees] + lefts
            value[at] = 0.0
        return Forest(feature, threshold, left, value, roots)

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


def _winners(nodes, left, counts):
    """The nodes that split, and the candidate each splits at.

    `nodes` gives each candidate's node, ascending, and `left` the class
    counts it sends left. A node's candidate is its first one with the lowest
    weighted child Gini; the node splits when that candidate is admissible,
    that is when its weighted child Gini is at most the node's Gini.
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
    for i, node, nl, nr, sl, sr in zip(
        first.tolist(), nodes[first].tolist(), n_left[first].tolist(),
        n_right[first].tolist(), ssq_left[first].tolist(), ssq_right[first].tolist(),
    ):
        # Exact integer form of: weighted child Gini <= parent Gini.
        if (nl + nr) * (sl * nr + sr * nl) >= ssq_parent[node] * nl * nr:
            won.append(node)
            best.append(i)
    return won, best


class DecisionTreeModel(Classifier):
    """Greedy CART classifier with exhaustive Gini split search.

    The base of every tree model. A fit grows `n_trees` trees, tree i with
    rng `default_rng([seed, i])`, each on a bootstrap sample of the rows when
    `bootstrap` is set and over a fresh subset of ceil(sqrt(d)) of the d
    features at every split when `max_features` is "sqrt"; scores average the
    trees' leaf distributions. A single tree model grows one tree on all rows
    and features. Every tree grows until its leaves are pure or no split
    lowers its weighted Gini. These settings are class constants: each model
    runs at fixed defaults.

    `forest_` holds the fitted trees as one Forest, whose five fields are the
    model's declared arrays: n nodes and t trees. Loading checks that they
    describe `n_trees` trees.
    """

    name = "decision_tree"
    _splitter = "best"
    n_trees = 1
    bootstrap = False
    max_features = "all"  # or "sqrt"
    seed = 0
    _fitted = {"feature": (int, "n"), "threshold": (float, "n"), "left": (int, "n"),
               "value": (float, "n", "k"), "roots": (int, "t")}

    def __init__(self):
        super().__init__()
        self.forest_: Forest | None = None

    @property
    def trees_(self) -> list[TreeNode] | None:
        """A root view of each tree, for code that walks the trees node by node."""
        if self.forest_ is None:
            return None
        return [TreeNode(self.forest_, root) for root in self.forest_.roots.tolist()]

    def _resolve_max_features(self, d: int) -> int | None:
        if self.max_features == "all":
            return None
        return min(d, math.isqrt(d - 1) + 1 if d > 1 else 1)

    def _fit(self, X, codes):
        self.forest_ = build_tree(
            X,
            codes,
            self.classes_.size,
            splitter=self._splitter,
            max_features=self._resolve_max_features(X.shape[1]),
            rngs=[np.random.default_rng([self.seed, i]) for i in range(self.n_trees)],
            bootstrap=self.bootstrap,
        )

    def _scores(self, X):
        return tree_scores(self.forest_, np.asfortranarray(X)) / self.forest_.roots.size

    def _state(self):
        return self.forest_._asdict()

    def _load_state(self, arrays):
        feature, threshold, left, value, roots = (arrays[field] for field in Forest._fields)
        k, d, n = self.classes_.size, self.n_features_, feature.size
        if roots.size != self.n_trees:
            raise ValueError(f"expected {self.n_trees} trees, found {roots.size}")
        if not (roots[0] == 0 and (roots[1:] > roots[:-1]).all() and roots[-1] < n):
            raise ValueError(f"roots must ascend from 0 and lie below the node count, {n}")
        leaf = left == LEAF
        if not ((feature == LEAF) == leaf).all():
            raise ValueError(f"a leaf must hold {LEAF} in feature and left")
        # A split node's children, left and left + 1, must follow it within its
        # tree, which ends where the next one starts. No root is then a child,
        # and every other node has exactly one parent when the pairs do not
        # overlap and cover n - n_trees nodes.
        parents = (~leaf).nonzero()[0]
        child = left[parents]
        ends = np.append(roots[1:], n)[roots.searchsorted(parents, side="right") - 1]
        if not ((child > parents) & (child < ends - 1)).all():
            raise ValueError("child indices must point forward within their tree")
        child.sort()
        if 2 * child.size != n - roots.size or (np.diff(child) < 2).any():
            raise ValueError("every node but a root must be the child of one node")
        if not ((feature[parents] >= 0) & (feature[parents] < d)).all():
            raise ValueError(f"features must lie in 0..{d - 1}")
        if not np.isfinite(threshold).all():
            raise ValueError("thresholds must be finite")
        if not ((value >= 0) & (value <= 1)).all():
            raise ValueError(f"value must hold {k} class fractions in [0, 1] per node")
        self.forest_ = Forest(
            feature.astype(np.int32), threshold, left.astype(np.int32), value,
            roots.astype(np.int32),
        )


class SeededTreeModel(DecisionTreeModel):
    """A tree model that draws from its generators; its one parameter is the seed."""

    def __init__(self, seed: int = 0):
        super().__init__()
        self.seed = non_negative_int(seed, "seed")


class ExtraTreeModel(SeededTreeModel):
    """Single extremely randomized tree: one uniform threshold per feature."""

    name = "extra_tree"
    _splitter = "random"
