import json

import numpy as np
import pytest

from flowbench.classifiers import (
    DecisionTreeModel,
    ExtraTreeModel,
    ExtraTreesModel,
    NotFittedError,
    build_tree,
    gini,
)


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
    assert json.dumps(a.trees_[0].to_dict()) == json.dumps(b.trees_[0].to_dict())


def test_max_depth_limits_tree():
    X = np.arange(8, dtype=float).reshape(-1, 1)
    y = np.array([0, 1, 0, 1, 0, 1, 0, 1])
    model = DecisionTreeModel(max_depth=1).fit(X, y)
    assert model.trees_[0].left.is_leaf and model.trees_[0].right.is_leaf


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


def test_midpoint_rounding_onto_upper_value_still_splits():
    assert (ADJACENT_ROWS[0, 0] + ADJACENT_ROWS[1, 0]) / 2.0 == ADJACENT_ROWS[1, 0]
    model = DecisionTreeModel(max_depth=3).fit(ADJACENT_ROWS, np.array([0, 1]))
    assert model.trees_[0].threshold == ADJACENT_ROWS[0, 0]
    assert model.predict(ADJACENT_ROWS).tolist() == [0, 1]


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
    assert json.dumps(a.trees_[0].to_dict()) == json.dumps(b.trees_[0].to_dict())
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
        for model in (ExtraTreeModel(seed=seed), ExtraTreesModel(n_trees=5, seed=seed)):
            model.fit(ADJACENT_ROWS, y)
            assert model.predict(ADJACENT_ROWS).tolist() == [0, 1]


@pytest.mark.parametrize("seed", [0, 7, 2**32, 2**40])
def test_extra_tree_draws_from_its_seed_alone(seed):
    rng = np.random.default_rng(4)
    X = rng.integers(0, 8, size=(60, 4)).astype(float)
    y = rng.integers(0, 3, size=60)
    model = ExtraTreeModel(seed=seed).fit(X, y)
    direct = build_tree(X, y, 3, splitter="random", rng=np.random.default_rng(seed))
    assert model.trees_[0].to_dict() == direct.to_dict()


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
