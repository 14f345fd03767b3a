import json
from dataclasses import dataclass

import numpy as np
import pytest

from flowbench import bench as bench_module
from flowbench.bench import BenchOptions, run_benchmark
from flowbench.classifiers import (
    DecisionTreeModel,
    ExtraTreeModel,
    ExtraTreesModel,
    MODEL_CLASSES,
    NotFittedError,
    TreeNode,
    build_tree,
    gini,
    make_model,
    tree_scores,
)
from flowbench.features import fit_transform, stratified_split
from flowbench.synth import generate_records

try:
    from hypothesis import example, given, settings
    from hypothesis import strategies as st
except ImportError:  # CI installs hypothesis; without it only the property test is skipped
    given = None

TREE_MODEL_NAMES = ("decision_tree", "extra_tree", "bagging", "random_forest", "extra_trees")


def brute_force_best_split(X, y, n_classes):
    """Exhaustive scan of every (feature, midpoint) pair by weighted child Gini.

    Counts are accumulated by explicit loops, independent of the production
    split search. Returns (weighted_gini, feature, threshold) or None.
    """
    n, d = X.shape
    best = None
    for f in range(d):
        values = sorted(set(X[:, f].tolist()))
        for lo, hi in zip(values, values[1:]):
            threshold = (lo + hi) / 2.0
            left = [i for i in range(n) if X[i, f] <= threshold]
            right = [i for i in range(n) if X[i, f] > threshold]
            ssq_l = sum(sum(1 for i in left if y[i] == c) ** 2 for c in range(n_classes))
            ssq_r = sum(sum(1 for i in right if y[i] == c) ** 2 for c in range(n_classes))
            n_l, n_r = len(left), len(right)
            weighted = ((n_l - ssq_l / n_l) + (n_r - ssq_r / n_r)) / n
            if best is None or weighted < best[0]:
                best = (weighted, f, threshold)
    return best


def weighted_gini_of_split(X, y, n_classes, feature, threshold):
    n = X.shape[0]
    left = [i for i in range(n) if X[i, feature] <= threshold]
    right = [i for i in range(n) if X[i, feature] > threshold]
    ssq_l = sum(sum(1 for i in left if y[i] == c) ** 2 for c in range(n_classes))
    ssq_r = sum(sum(1 for i in right if y[i] == c) ** 2 for c in range(n_classes))
    return ((len(left) - ssq_l / len(left)) + (len(right) - ssq_r / len(right))) / n


def random_root_split(X, y, n_classes, rng):
    """Root split of the random splitter, drawn one scalar at a time.

    One uniform threshold per non-constant feature, in feature order; the
    lowest weighted child Gini wins and ties go to the lowest feature.
    Returns (weighted_gini, feature, threshold) or None.
    """
    best = None
    for f in range(X.shape[1]):
        lo, hi = float(X[:, f].min()), float(X[:, f].max())
        if lo == hi:
            continue
        threshold = float(rng.uniform(lo, hi))
        if threshold == hi:
            threshold = lo
        weighted = weighted_gini_of_split(X, y, n_classes, f, threshold)
        if best is None or weighted < best[0]:
            best = (weighted, f, threshold)
    return best


def as_dict(node: TreeNode) -> dict:
    """A fitted tree in the layout of `ReferenceNode.to_dict`, walked through its views."""
    if node.is_leaf:
        return {"dist": node.dist.tolist()}
    return {
        "feature": node.feature,
        "threshold": node.threshold,
        "left": as_dict(node.left),
        "right": as_dict(node.right),
    }


def _walked_nodes(node: TreeNode) -> list[int]:
    """The node numbers of a tree, walked through its views."""
    if node.is_leaf:
        return [node.node]
    return [node.node, *_walked_nodes(node.left), *_walked_nodes(node.right)]


# Two rows whose midpoint, (2**52 + 1 + 2**52 + 2) / 2, rounds onto the upper
# value; a uniform draw between them lands on it about half the time.
ADJACENT_ROWS = np.array([[4503599627370497.0, 1.0], [4503599627370498.0, 1.0]])


# gini -------------------------------------------------------------------------


def test_gini_pure_node_is_zero():
    assert gini([1.0, 0.0, 0.0]) == 0.0


def test_gini_even_binary_split():
    assert gini([0.5, 0.5]) == pytest.approx(0.5, abs=1e-12)


def test_gini_maximal_three_class_impurity():
    assert gini([1 / 3, 1 / 3, 1 / 3]) == pytest.approx(2 / 3, abs=1e-12)


def test_gini_bounds_on_random_distributions(rng):
    for _ in range(200):
        k = int(rng.integers(2, 6))
        p = rng.random(k)
        p /= p.sum()
        value = gini(p)
        assert -1e-12 <= value <= 1 - 1 / k + 1e-12
    for k in range(2, 6):
        one_hot = np.zeros(k)
        one_hot[rng.integers(k)] = 1.0
        assert gini(one_hot) == 0.0


# decision tree ------------------------------------------------------------


def test_single_class_data_gives_lone_leaf():
    X = np.array([[1.0], [2.0], [3.0]])
    y = np.array([1, 1, 1])
    model = DecisionTreeModel().fit(X, y)
    assert model.trees_[0].is_leaf
    assert model.predict(X).tolist() == [1, 1, 1]


def test_one_dimensional_toy_split():
    X = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([0, 0, 1, 1])
    model = DecisionTreeModel().fit(X, y)
    assert model.trees_[0].feature == 0
    assert model.trees_[0].threshold == pytest.approx(2.5)
    assert model.predict(X).tolist() == y.tolist()


def test_xor_is_fit_exactly():
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 1, 1, 0])
    model = DecisionTreeModel().fit(X, y)
    assert model.predict(X).tolist() == y.tolist()


def test_conflict_free_data_reaches_perfect_training_accuracy(rng):
    """Lookup-table oracle: unlimited depth must memorize conflict-free data."""
    for _ in range(25):
        n = int(rng.integers(5, 60))
        d = int(rng.integers(1, 4))
        X = rng.integers(0, 4, size=(n, d)).astype(float)
        table = {}
        y = np.empty(n, dtype=np.int64)
        for i in range(n):
            key = tuple(X[i])
            if key not in table:
                table[key] = int(rng.integers(0, 3))
            y[i] = table[key]
        model = DecisionTreeModel().fit(X, y)
        predicted = model.predict(X)
        expected = np.array([table[tuple(row)] for row in X])
        assert np.array_equal(predicted, expected)


def test_root_split_matches_brute_force(rng):
    for _ in range(100):
        n = int(rng.integers(2, 31))
        d = int(rng.integers(1, 4))
        X = rng.integers(0, 5, size=(n, d)).astype(float)
        y = rng.integers(0, 3, size=n)
        model = DecisionTreeModel().fit(X, y)
        oracle = brute_force_best_split(X, np.searchsorted(model.classes_, y), model.classes_.size)
        root = model.trees_[0]
        if root.is_leaf:
            # a leaf root means the node was pure or had no candidate splits
            assert oracle is None or np.unique(y).size == 1
            continue
        assert oracle is not None
        achieved = weighted_gini_of_split(
            X, np.searchsorted(model.classes_, y), model.classes_.size, root.feature, root.threshold
        )
        assert achieved == pytest.approx(oracle[0], abs=1e-12)


def test_tree_predictions_are_permutation_invariant(rng):
    X = rng.integers(0, 6, size=(40, 3)).astype(float)
    y = rng.integers(0, 3, size=40)
    probe = rng.integers(0, 6, size=(25, 3)).astype(float)
    base = DecisionTreeModel().fit(X, y).predict(probe)
    for _ in range(5):
        perm = rng.permutation(40)
        shuffled = DecisionTreeModel().fit(X[perm], y[perm]).predict(probe)
        assert np.array_equal(base, shuffled)


def test_tree_fit_is_bit_identical_across_runs(rng):
    X = rng.integers(0, 6, size=(60, 4)).astype(float)
    y = rng.integers(0, 3, size=60)
    a = DecisionTreeModel().fit(X, y)
    b = DecisionTreeModel().fit(X, y)
    assert json.dumps(as_dict(a.trees_[0])) == json.dumps(as_dict(b.trees_[0]))


def test_prediction_equals_routed_leaf_argmax():
    X = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([0, 0, 1, 1])
    model = DecisionTreeModel().fit(X, y)
    root = model.trees_[0]
    for value in (0.0, 2.4, 2.6, 9.0):
        node = root
        while not node.is_leaf:
            node = node.left if value <= node.threshold else node.right
        expected = int(np.argmax(node.dist))
        assert model.predict(np.array([[value]]))[0] == model.classes_[expected]


def _leaf(root: TreeNode, row) -> TreeNode:
    """The leaf that one row reaches, walking the tree through its views."""
    node = root
    while not node.is_leaf:
        node = node.left if row[node.feature] <= node.threshold else node.right
    return node


def _routed_dists(root, probe):
    """Each probe row's leaf distribution, routing one row at a time."""
    return np.array([_leaf(root, row).dist for row in probe])


def test_tree_scores_match_row_by_row_routing(rng):
    X = rng.normal(size=(300, 5))
    X[:, 2] = rng.integers(0, 4, size=300)  # ties route left at a threshold
    y = rng.integers(0, 3, size=300)
    probe = rng.normal(size=(200, 5))
    probe[:, 2] = rng.integers(-1, 5, size=200)
    # Repeated rows with different labels end in impure leaves, so the order of
    # the forest's sum shows.
    repeated = np.sign(X)
    for rows in (X, repeated):
        model = make_model("random_forest", seed=4).fit(rows, y)
        total = np.zeros((probe.shape[0], 3))
        for root in model.trees_:
            # The forest with this tree's root as its only root.
            tree = model.forest_._replace(roots=np.array([root.node], dtype=np.int32))
            # Every row on the root's threshold routes left and leaves the right
            # subtree without rows; the rows right of it leave the left one empty.
            on_threshold = probe.copy()
            on_threshold[:, root.feature] = root.threshold
            right_only = probe[probe[:, root.feature] > root.threshold]
            for rows in (probe, on_threshold, right_only):
                expected = _routed_dists(root, rows)
                for layout in (rows, np.asfortranarray(rows)):
                    assert np.array_equal(tree_scores(tree, layout), expected)
            total += _routed_dists(root, probe)
        assert np.array_equal(tree_scores(model.forest_, probe), total)
        assert np.array_equal(model.predict_scores(probe), total / len(model.trees_))
    assert (model.predict_scores(repeated).max(axis=1) < 1.0).any()
    assert tree_scores(model.forest_, probe[:0]).shape == (0, 3)


def test_midpoint_rounding_onto_upper_value_still_splits():
    assert (ADJACENT_ROWS[0, 0] + ADJACENT_ROWS[1, 0]) / 2.0 == ADJACENT_ROWS[1, 0]
    model = DecisionTreeModel().fit(ADJACENT_ROWS, np.array([0, 1]))
    assert model.trees_[0].threshold == ADJACENT_ROWS[0, 0]
    assert model.predict(ADJACENT_ROWS).tolist() == [0, 1]


def test_midpoint_overflowing_float64_still_splits():
    # Two values below -max/2 sum to -inf, two above max/2 to +inf; either way
    # the split falls on the lower value, so each row reaches its own leaf.
    for X in (np.array([[-1.7e308], [-1.6e308]]), np.array([[1.6e308], [1.7e308]])):
        model = DecisionTreeModel().fit(X, np.array([0, 1]))
        assert model.trees_[0].threshold == X[0, 0]
        assert model.predict(X).tolist() == [0, 1]


def test_unfitted_predict_raises():
    with pytest.raises(NotFittedError):
        DecisionTreeModel().predict(np.zeros((1, 1)))


def test_column_count_mismatch_raises():
    model = DecisionTreeModel().fit(np.zeros((2, 2)), np.array([0, 1]))
    with pytest.raises(ValueError, match="feature columns"):
        model.predict(np.zeros((1, 3)))


def test_empty_prediction_input_gives_empty_outputs():
    model = DecisionTreeModel().fit(np.zeros((2, 2)), np.array([0, 1]))
    assert model.predict(np.zeros((0, 2))).shape == (0,)
    assert model.predict_scores(np.zeros((0, 2))).shape == (0, 2)


# extra tree -----------------------------------------------------------------


def test_extra_tree_pure_data_is_lone_leaf():
    X = np.array([[1.0], [5.0], [9.0]])
    y = np.array([2, 2, 2])
    for seed in (0, 1, 99):
        model = ExtraTreeModel(seed=seed).fit(X, y)
        assert model.trees_[0].is_leaf


def test_extra_tree_same_seed_same_tree():
    rng = np.random.default_rng(3)
    X = rng.integers(0, 8, size=(50, 3)).astype(float)
    y = rng.integers(0, 3, size=50)
    a = ExtraTreeModel(seed=11).fit(X, y)
    b = ExtraTreeModel(seed=11).fit(X, y)
    assert json.dumps(as_dict(a.trees_[0])) == json.dumps(as_dict(b.trees_[0]))
    c = ExtraTreeModel(seed=12).fit(X, y)
    assert np.array_equal(a.predict(X), b.predict(X))
    assert c.trees_ is not None  # different seed still fits


def test_extra_tree_separable_data_reaches_perfect_accuracy():
    X = np.array([[1.0], [2.0], [3.0], [4.0], [5.0], [6.0]])
    y = np.array([0, 0, 0, 1, 1, 1])
    for seed in range(5):
        model = ExtraTreeModel(seed=seed).fit(X, y)
        assert model.predict(X).tolist() == y.tolist()


def test_random_threshold_drawn_onto_upper_value_still_splits():
    y = np.array([0, 1])
    for seed in range(6):
        for model in (ExtraTreeModel(seed=seed), ExtraTreesModel(seed=seed)):
            model.fit(ADJACENT_ROWS, y)
            assert model.predict(ADJACENT_ROWS).tolist() == [0, 1]


@pytest.mark.parametrize("seed", [0, 7, 2**32, 2**40])
def test_extra_tree_draws_from_its_seed_alone(seed):
    rng = np.random.default_rng(4)
    X = rng.integers(0, 8, size=(60, 4)).astype(float)
    y = rng.integers(0, 3, size=60)
    model = ExtraTreeModel(seed=seed).fit(X, y)
    direct = build_tree(X, y, 3, splitter="random", rngs=[np.random.default_rng(seed)])
    assert as_dict(model.trees_[0]) == as_dict(TreeNode(direct))


def test_random_root_split_matches_scalar_draws(rng):
    for seed in range(100):
        n = int(rng.integers(2, 31))
        d = int(rng.integers(1, 4))
        X = rng.integers(0, 5, size=(n, d)).astype(float)
        y = rng.integers(0, 3, size=n)
        model = ExtraTreeModel(seed=seed).fit(X, y)
        codes = np.searchsorted(model.classes_, y)
        oracle = random_root_split(X, codes, model.classes_.size, np.random.default_rng(seed))
        root = model.trees_[0]
        if root.is_leaf:
            assert oracle is None or np.unique(y).size == 1
            continue
        assert (root.feature, root.threshold) == oracle[1:]
        achieved = weighted_gini_of_split(X, codes, model.classes_.size, root.feature, root.threshold)
        assert achieved == oracle[0]


def test_leaf_distributions_sum_to_one(rng):
    X = rng.integers(0, 5, size=(40, 3)).astype(float)
    y = rng.integers(0, 3, size=40)
    for model in (DecisionTreeModel(), ExtraTreeModel(seed=1)):
        model.fit(X, y)
        scores = model.predict_scores(X)
        np.testing.assert_allclose(scores.sum(axis=1), 1.0, atol=1e-9)


# lockstep growth against the per-tree grower ---------------------------------
#
# The grower below is the depth-first, one-tree-at-a-time CART that built
# every tree before the trees of a fit grew in lockstep. It keeps its node
# class, the node graph that trees were stored as before they became arrays,
# and its own exact-integer test that the winning split does not raise its
# node's Gini, which build_tree omits as one that cannot fail: every tree it
# matches checks that proof too. Every tree of every model must come out
# bit-identical to it.


@dataclass
class ReferenceNode:
    """Internal node (feature, threshold, children) or leaf (class distribution)."""

    feature: int | None = None
    threshold: float | None = None
    left: "ReferenceNode | None" = None
    right: "ReferenceNode | None" = None
    dist: np.ndarray | None = None

    def to_dict(self) -> dict:
        if self.dist is not None:
            return {"dist": self.dist.tolist()}
        return {
            "feature": self.feature,
            "threshold": self.threshold,
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }


def _reference_build_tree(X, y, n_classes, *, splitter="best", max_features=None, rng=None):
    n, d = X.shape
    columns = np.ascontiguousarray(X.T)
    onehot = np.eye(n_classes, dtype=np.int64)[y]
    root = ReferenceNode()
    stack = [(root, np.arange(n))]
    while stack:
        node, idx = stack.pop()
        size = idx.size
        counts = np.bincount(y[idx], minlength=n_classes)
        if int(counts.max()) == size:
            node.dist = counts / size
            continue

        if max_features is not None and max_features < d:
            feature_ids = np.sort(rng.choice(d, size=max_features, replace=False))
        else:
            feature_ids = np.arange(d)

        values = columns[feature_ids[:, None], idx]
        labels = onehot[idx]
        if splitter == "random":
            candidates = _reference_random_candidates(values, labels, rng)
        else:
            candidates = _reference_exhaustive_candidates(values, labels)
        found = _reference_best_split(*candidates, counts)
        if found is None:
            node.dist = counts / size
            continue

        row, node.threshold = found
        node.feature = int(feature_ids[row])
        node.left = ReferenceNode()
        node.right = ReferenceNode()
        go_left = values[row] <= node.threshold
        stack.append((node.right, idx[~go_left]))
        stack.append((node.left, idx[go_left]))
    return root


def _reference_exhaustive_candidates(values, labels):
    order = np.argsort(values, axis=1, kind="stable")
    ordered = np.take_along_axis(values, order, axis=1)
    rows, cuts = np.nonzero(ordered[:, :-1] != ordered[:, 1:])
    left = np.cumsum(labels[order], axis=1)[rows, cuts]
    lower, upper = ordered[rows, cuts], ordered[rows, cuts + 1]
    with np.errstate(over="ignore"):
        midpoints = (lower + upper) / 2.0
    return rows, _reference_below_upper(midpoints, lower, upper), left


def _reference_random_candidates(values, labels, rng):
    lo, hi = values.min(axis=1), values.max(axis=1)
    (rows,) = np.nonzero(lo != hi)
    lo, hi = lo[rows], hi[rows]
    thresholds = _reference_below_upper(rng.uniform(lo, hi), lo, hi)
    left = (values[rows] <= thresholds[:, None]).astype(np.int64) @ labels
    return rows, thresholds, left


def _reference_below_upper(thresholds, lower, upper):
    return np.where((lower <= thresholds) & (thresholds < upper), thresholds, lower)


def _reference_best_split(rows, thresholds, left, counts):
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
    nl, nr = int(n_left[best]), int(n_right[best])
    sl, sr = int(ssq_left[best]), int(ssq_right[best])
    # Exact integer form of: weighted child Gini <= node Gini.
    admissible = n * (sl * nr + sr * nl) >= ssq_parent * nl * nr
    return (int(rows[best]), float(thresholds[best])) if admissible else None


def _reference_forest(X, codes, n_classes, *, splitter, max_features, seeds, bootstrap):
    """The tree documents that build_tree grows, grown one tree at a time.

    Tree i draws from `default_rng(seeds[i])`, first its bootstrap sample when
    `bootstrap` is set.
    """
    n = X.shape[0]
    docs = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        sample = rng.integers(0, n, size=n) if bootstrap else slice(None)
        root = _reference_build_tree(
            X[sample], codes[sample], n_classes,
            splitter=splitter, max_features=max_features, rng=rng,
        )
        docs.append(root.to_dict())
    return docs


def _reference_trees(model, X, y):
    """The tree documents of `model` fit on (X, y), grown one tree at a time."""
    X = np.asarray(X, dtype=np.float64)
    classes, codes = np.unique(np.asarray(y, dtype=np.int64), return_inverse=True)
    return _reference_forest(
        X, codes, classes.size,
        splitter=model._splitter,
        max_features=model._resolve_max_features(X.shape[1]),
        seeds=[[model.seed, i] for i in range(model.n_trees)],
        bootstrap=model.bootstrap,
    )


def _assert_matches_reference(model, X, y):
    expected = _reference_trees(model, X, y)
    model.fit(X, y)
    assert [as_dict(root) for root in model.trees_] == expected


def _random_problem(rng):
    """A small problem with ties, sometimes constant columns or one class."""
    n = int(rng.choice([1, 2, *range(3, 61)]))
    d = int(rng.choice([0, *range(1, 6)]))
    X = rng.integers(0, int(rng.integers(2, 8)), size=(n, d)).astype(float)
    if d and rng.random() < 0.3:
        X[:, rng.integers(d)] = rng.normal()
    if rng.random() < 0.3:
        X += rng.normal(size=(n, d))
    classes = int(rng.integers(1, 5))
    y = rng.integers(0, classes, size=n) * 3 - 2
    return X, y


def _random_tree_settings(rng, name):
    """build_tree settings of the model's splitter: for an ensemble, a random
    tree count, bootstrap flag and feature-subset size."""
    cls = MODEL_CLASSES[name]
    seed = int(rng.integers(0, 2**40))
    if cls.n_trees == 1:
        return {"splitter": cls._splitter, "max_features": None, "seeds": [[seed, 0]],
                "bootstrap": False}
    return {
        "splitter": cls._splitter,
        "max_features": [None, *range(1, 6)][rng.integers(6)],
        "seeds": [[seed, i] for i in range(int(rng.choice([1, 7])))],
        "bootstrap": bool(rng.integers(2)),
    }


def _assert_build_tree_matches_reference(settings, X, y):
    classes, codes = np.unique(y, return_inverse=True)
    expected = _reference_forest(X, codes, classes.size, **settings)
    forest = build_tree(
        X, codes, classes.size,
        splitter=settings["splitter"],
        max_features=settings["max_features"],
        rngs=[np.random.default_rng(seed) for seed in settings["seeds"]],
        bootstrap=settings["bootstrap"],
    )
    roots = forest.roots.tolist()
    assert [as_dict(TreeNode(forest, root)) for root in roots] == expected
    # Tree after tree: each tree's walk visits the nodes up to the next root.
    for root, end in zip(roots, [*roots[1:], forest.left.size]):
        assert sorted(_walked_nodes(TreeNode(forest, root))) == list(range(root, end))


EDGE_PROBLEMS = [
    (np.array([[3.0, 1.0]]), np.array([1])),  # one row
    (np.array([[3.0, 1.0], [2.0, 1.0]]), np.array([0, 1])),  # two rows, a constant column
    (np.array([[3.0], [2.0], [3.0], [2.0]]), np.array([5, 5, 5, 5])),  # one class
    (np.ones((6, 3)), np.array([0, 1, 2, 0, 1, 2])),  # every column constant
    (np.zeros((4, 0)), np.array([0, 1, 0, 1])),  # no columns
    # More classes than one int64 packs counts of (10 at 6 bits for 40 rows).
    (np.arange(120.0).reshape(40, 3) % 7, np.arange(40) % 12),
]


@pytest.mark.parametrize("name", TREE_MODEL_NAMES)
def test_lockstep_trees_match_reference_on_random_problems(name):
    rng = np.random.default_rng(list(TREE_MODEL_NAMES).index(name))
    for X, y in EDGE_PROBLEMS:
        _assert_build_tree_matches_reference(_random_tree_settings(rng, name), X, y)
    for _ in range(60):
        X, y = _random_problem(rng)
        _assert_build_tree_matches_reference(_random_tree_settings(rng, name), X, y)


@pytest.mark.parametrize("name", TREE_MODEL_NAMES)
def test_lockstep_trees_match_reference_on_adjacent_rows(name):
    for seed in range(4):
        model = make_model(name, seed=seed)
        if name not in ("decision_tree", "extra_tree"):
            model.n_trees = 7
        _assert_matches_reference(model, ADJACENT_ROWS, np.array([0, 1]))


@pytest.mark.parametrize("name", TREE_MODEL_NAMES)
def test_lockstep_trees_match_reference_on_synthetic_flows(name):
    matrix = fit_transform(generate_records(1000, seed=3, signal_strength=0.6), scale=True)
    model = make_model(name, seed=5)
    # 20 trees keep the per-tree reference quick; the first steps still
    # span several groups of BLOCK_ELEMENTS cells.
    model.n_trees = min(model.n_trees, 20)
    _assert_matches_reference(model, matrix.rows_for(model), matrix.labels)


def _leaf_rows(root: TreeNode, X) -> list[list[int]]:
    """The row numbers of X that reach each leaf."""
    leaves = {}
    for i, row in enumerate(X):
        leaves.setdefault(_leaf(root, row).node, []).append(i)
    return list(leaves.values())


# XOR of columns 1 and 2 below a root split on column 0: the root's left child
# has no split that lowers its Gini, yet its rows differ.
XOR_BELOW_ROOT = (
    np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0], [0, 1, 1], [1, 0, 0], [1, 1, 1]], dtype=float),
    np.array([0, 1, 1, 0, 2, 2]),
)


def test_every_leaf_is_pure_or_its_rows_agree_on_every_feature():
    # The stop rule: a node splits whenever its rows differ on some feature,
    # even when no split lowers its Gini, so every level of the tree obeys it.
    rng = np.random.default_rng(26)
    problems = [XOR_BELOW_ROOT, *EDGE_PROBLEMS, *(_random_problem(rng) for _ in range(30))]
    for X, y in problems:
        model = DecisionTreeModel().fit(X, y)
        for rows in _leaf_rows(model.trees_[0], X):
            assert np.unique(y[rows]).size == 1 or (X[rows] == X[rows[0]]).all()


if given is not None:

    @st.composite
    def _child_counts(draw):
        """Class counts of a split's left and right child, each holding a row."""
        classes = draw(st.integers(1, 12))  # as many as EDGE_PROBLEMS holds at most
        counts = st.lists(st.integers(0, 10**6), min_size=classes, max_size=classes)
        return draw(counts.filter(any)), draw(counts.filter(any))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_child_counts())
    @example(([1, 1], [1, 1]))  # XOR's root: zero gain, equality
    def test_no_split_raises_its_nodes_gini(children):
        # build_tree splits every node at its winner without testing this, the
        # exact integer form of: weighted child Gini <= node Gini.
        left, right = children
        nl, nr = sum(left), sum(right)
        sl, sr = sum(c * c for c in left), sum(c * c for c in right)
        ssq_parent = sum((a + b) ** 2 for a, b in zip(left, right))
        assert (nl + nr) * (sl * nr + sr * nl) >= ssq_parent * nl * nr


@pytest.mark.parametrize("name", ["extra_tree", "extra_trees"])
def test_random_splitter_rejects_a_range_beyond_float64(name):
    X = np.array([[-1e308, 0.0], [1e308, 1.0], [0.0, 2.0]])
    y = np.array([0, 1, 0])
    with np.errstate(over="ignore"), pytest.raises(OverflowError):
        _reference_trees(make_model(name, seed=1), X, y)
    with np.errstate(over="ignore"), pytest.raises(OverflowError):
        make_model(name, seed=1).fit(X, y)


def test_tree_fits_are_identical_at_one_and_two_workers(monkeypatch):
    matrix = fit_transform(generate_records(300, seed=9, signal_strength=0.6), scale=True)
    plan = stratified_split(matrix.labels, 0.2, 42)
    fits = {}

    def recording_make_model(name, **kwargs):
        model = make_model(name, **kwargs)
        fits.setdefault(name, []).append(model)
        return model

    monkeypatch.setattr(bench_module, "make_model", recording_make_model)
    trees = []
    for workers in (1, 2):
        fits.clear()
        run_benchmark(matrix, plan, TREE_MODEL_NAMES, BenchOptions(workers=workers))
        trees.append({name: [as_dict(r) for r in models[0].trees_] for name, models in fits.items()})
    assert trees[0] == trees[1]
    assert sorted(trees[0]) == sorted(TREE_MODEL_NAMES)
