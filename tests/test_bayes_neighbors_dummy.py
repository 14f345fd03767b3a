import hashlib

import numpy as np
import pytest

from flowbench.classifiers import neighbors
from flowbench.classifiers import (
    BernoulliNBModel,
    DummyModel,
    GaussianNBModel,
    KNNModel,
    NearestCentroidModel,
)
from flowbench.metrics import balanced_accuracy, confusion


def test_gaussian_nb_separates_distant_classes():
    rng = np.random.default_rng(0)
    X = np.concatenate([rng.normal(-5, 1, 100), rng.normal(5, 1, 100)]).reshape(-1, 1)
    y = np.array([0] * 100 + [1] * 100)
    model = GaussianNBModel().fit(X, y)
    assert np.mean(model.predict(X) == y) >= 0.99


def test_gaussian_nb_uniform_posterior_under_symmetry():
    X = np.zeros((4, 2))
    y = np.array([0, 0, 1, 1])
    model = GaussianNBModel().fit(X, y)
    scores = model.predict_scores(np.zeros((3, 2)))
    np.testing.assert_allclose(scores, 0.5, atol=1e-9)


@pytest.mark.parametrize("cls", [GaussianNBModel, BernoulliNBModel])
def test_nb_posteriors_sum_to_one(cls, rng):
    X = rng.normal(size=(60, 5))
    y = rng.integers(0, 3, size=60)
    model = cls().fit(X, y)
    scores = model.predict_scores(rng.normal(size=(25, 5)))
    np.testing.assert_allclose(scores.sum(axis=1), 1.0, atol=1e-9)


def test_bernoulli_nb_uses_sign_pattern():
    rng = np.random.default_rng(1)
    n = 200
    y = rng.integers(0, 2, size=n)
    X = np.where(y[:, None] == 1, 1.0, -1.0) + rng.normal(0, 0.2, size=(n, 3))
    model = BernoulliNBModel().fit(X, y)
    assert np.mean(model.predict(X) == y) >= 0.95


def _knn(k):
    """A KNNModel voting over k neighbors instead of the fixed 5."""
    model = KNNModel()
    model.k = k
    return model


def test_knn_k1_memorizes_conflict_free_data(rng):
    X = rng.normal(size=(30, 3))
    y = rng.integers(0, 3, size=30)
    model = _knn(1).fit(X, y)
    assert np.array_equal(model.predict(X), y)


def test_knn_tie_with_k_equal_n_resolves_to_class_zero():
    X = np.arange(10, dtype=float).reshape(-1, 1)
    y = np.array([0, 1] * 5)
    model = _knn(10).fit(X, y)
    predicted = model.predict(np.array([[3.3], [7.7]]))
    assert predicted.tolist() == [0, 0]


@pytest.mark.parametrize("n", [1, 7, 40])
def test_knn_with_k_equal_n_scores_the_class_shares_of_all_rows(n, rng):
    X = rng.normal(size=(n, 3))
    y = rng.integers(0, 3, size=n)
    model = _knn(n).fit(X, y)
    shares = np.bincount(np.unique(y, return_inverse=True)[1]) / n
    scores = model.predict_scores(rng.normal(size=(9, 3)))
    assert np.array_equal(scores, np.broadcast_to(shares, scores.shape))


def test_knn_rejects_k_above_training_size():
    with pytest.raises(ValueError, match="exceeds"):
        KNNModel().fit(np.zeros((3, 2)), np.array([0, 1, 0]))


def test_knn_vote_fractions_sum_to_one(rng):
    X = rng.normal(size=(40, 4))
    y = rng.integers(0, 3, size=40)
    model = KNNModel().fit(X, y)
    scores = model.predict_scores(rng.normal(size=(17, 4)))
    np.testing.assert_allclose(scores.sum(axis=1), 1.0, atol=1e-12)


def test_knn_scores_do_not_depend_on_the_block_size(rng, monkeypatch):
    # Small-integer rows repeat and make every distance exact in any BLAS
    # kernel, so many training rows tie at each query's k-th distance.
    X = rng.integers(0, 3, size=(300, 4)).astype(float)
    y = rng.integers(0, 3, size=300)
    queries = rng.integers(0, 3, size=(600, 4)).astype(float)
    d2 = ((queries[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
    kth = np.sort(d2, axis=1)[:, 4:5]
    assert ((d2 <= kth).sum(axis=1) > 5).mean() > 0.5
    model = KNNModel().fit(X, y)
    digests = set()
    for rows in (1, 3, 7, 512):
        monkeypatch.setattr(neighbors, "BLOCK_BYTES", rows * 8 * X.shape[0])
        digests.add(hashlib.sha256(model.predict_scores(queries).tobytes()).hexdigest())
    assert len(digests) == 1


def _oracle_nearest(model, queries):
    """Each query's k nearest training rows by a stable sort of the computed distances."""
    augmented = np.hstack([queries, np.ones((queries.shape[0], 1))])
    d2 = augmented @ model._neighbor_basis
    return np.argsort(d2, axis=1, kind="stable")[:, : model.k]


def _oracle_scores(model, queries):
    votes = model.train_codes_[_oracle_nearest(model, queries)]
    return np.stack(
        [(votes == c).sum(axis=1) / model.k for c in range(model.classes_.size)], axis=1
    )


@pytest.mark.parametrize("rows", [1, 3, 7, 512])
@pytest.mark.parametrize("k", [1, 5, 40])
def test_knn_scores_match_the_stable_sort_oracle(k, rows, rng, monkeypatch):
    # Small-integer rows make every distance exact in any BLAS kernel, so
    # the oracle's ties are the model's ties at every block size.
    X = rng.integers(0, 3, size=(40, 4)).astype(float)
    y = rng.integers(0, 3, size=40)
    queries = rng.integers(0, 3, size=(50, 4)).astype(float)
    model = _knn(k).fit(X, y)
    monkeypatch.setattr(neighbors, "BLOCK_BYTES", rows * 8 * X.shape[0])
    assert np.array_equal(model.predict_scores(queries), _oracle_scores(model, queries))


def test_knn_tie_at_equal_distance_goes_to_the_lower_training_row(rng):
    X = np.ones((10, 3))
    y = np.array([2] * 5 + [0] * 5)
    model = KNNModel().fit(X, y)
    scores = model.predict_scores(rng.normal(size=(6, 3)))
    assert model.classes_.tolist() == [0, 2]
    assert scores[:, 1].tolist() == [1.0] * 6


@pytest.mark.parametrize(
    "far_rows, query_far",
    [([1, 2, 4, 6, 7], False), ([1, 2, 4, 6, 7], True), ([3], True)],
    ids=["five-inf", "five-nan", "one-nan"],
)
def test_knn_rows_with_non_finite_distances_get_k_distinct_neighbors(
    far_rows, query_far, rng
):
    # A 1e200 coordinate squares to inf, so those training rows sit at an
    # infinite computed distance, or at NaN (inf - inf) from a query that
    # shares the coordinate.
    X = rng.integers(0, 3, size=(8, 3)).astype(float)
    X[far_rows, 0] = 1e200
    y = np.array([0, 1, 2, 0, 1, 2, 0, 1])
    queries = rng.integers(0, 3, size=(4, 3)).astype(float)
    if query_far:
        queries[1:3, 0] = 1e200
    with np.errstate(over="ignore", invalid="ignore"):
        model = KNNModel().fit(X, y)
        augmented = np.hstack([queries, np.ones((4, 1))])
        d2 = augmented @ model._neighbor_basis
        assert np.isnan(d2).any() == query_far and np.isinf(d2).any()
        nearest = model._nearest(d2.copy()).T
        assert np.array_equal(nearest, _oracle_nearest(model, queries))
        assert all(len(set(row)) == model.k for row in nearest.tolist())
        assert np.array_equal(model.predict_scores(queries), _oracle_scores(model, queries))


def test_nearest_centroid_hand_case():
    X = np.array([[0.0, 0.0], [10.0, 10.0]])
    y = np.array([0, 1])
    model = NearestCentroidModel().fit(X, y)
    assert model.predict(np.array([[1.0, 1.0]]))[0] == 0
    assert model.predict(np.array([[9.0, 9.0]]))[0] == 1


def test_nearest_centroid_uses_class_means(rng):
    X = rng.normal(size=(50, 2))
    y = rng.integers(0, 2, size=50)
    model = NearestCentroidModel().fit(X, y)
    np.testing.assert_allclose(model.centroids_[0], X[y == 0].mean(axis=0))
    np.testing.assert_allclose(model.centroids_[1], X[y == 1].mean(axis=0))


def test_dummy_predicts_majority_class():
    X = np.zeros((3, 2))
    y = np.array([0, 0, 1])
    model = DummyModel().fit(X, y)
    assert model.predict(np.zeros((5, 2))).tolist() == [0] * 5


def test_dummy_majority_tie_resolves_to_lowest_code():
    X = np.zeros((4, 1))
    y = np.array([0, 1, 0, 1])
    model = DummyModel().fit(X, y)
    assert model.predict(np.zeros((2, 1))).tolist() == [0, 0]


def test_dummy_test_accuracy_equals_majority_prevalence(rng):
    y_train = rng.integers(0, 3, size=90)
    y_test = rng.integers(0, 3, size=60)
    model = DummyModel().fit(np.zeros((90, 2)), y_train)
    predicted = model.predict(np.zeros((60, 2)))
    majority = np.argmax(np.bincount(y_train))
    expected = np.mean(y_test == majority)
    accuracy = np.mean(predicted == y_test)
    assert accuracy == expected


def test_dummy_balanced_accuracy_is_one_third_on_three_classes(rng):
    y_train = np.array([0] * 5 + [1] * 3 + [2] * 2)
    y_test = rng.integers(0, 3, size=45)
    model = DummyModel().fit(np.zeros((10, 1)), y_train)
    predicted = model.predict(np.zeros((45, 1)))
    cm = confusion(y_test, predicted, 3)
    assert balanced_accuracy(cm) == pytest.approx(1 / 3, abs=1e-9)
