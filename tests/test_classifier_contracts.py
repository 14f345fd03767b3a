"""Interface properties every portfolio model must satisfy."""

import numpy as np
import pytest

from flowbench.classifiers import MODEL_NAMES, NotFittedError, make_model

PROBABILISTIC = {
    "decision_tree",
    "extra_tree",
    "bagging",
    "random_forest",
    "extra_trees",
    "knn",
    "gaussian_nb",
    "bernoulli_nb",
    "logistic_regression",
    "dummy",
}


def _random_problem(seed, n=60, d=4, k=3):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = rng.integers(0, k, size=n)
    y[:k] = np.arange(k)  # every class present
    probe = rng.normal(size=(25, d))
    return X, y, probe


@pytest.fixture(scope="module", params=MODEL_NAMES)
def fitted(request):
    X, y, probe = _random_problem(seed=101)
    model = make_model(request.param, seed=2)
    model.fit(X, y)
    return model, X, y, probe


def test_unfitted_models_refuse_to_predict():
    for name in MODEL_NAMES:
        model = make_model(name, seed=0)
        with pytest.raises(NotFittedError):
            model.predict(np.zeros((2, 4)))
        with pytest.raises(NotFittedError):
            model.predict_scores(np.zeros((2, 4)))


def test_predict_is_argmax_of_scores(fitted):
    model, X, y, probe = fitted
    scores = model.predict_scores(probe)
    predicted = model.predict(probe)
    expected = model.classes_[np.argmax(scores, axis=1)]
    assert np.array_equal(predicted, expected)


def test_predictions_have_row_count_and_known_codes(fitted):
    model, X, y, probe = fitted
    predicted = model.predict(probe)
    assert predicted.shape == (probe.shape[0],)
    assert set(predicted.tolist()) <= set(model.classes_.tolist())


def test_scores_shape_and_probability_rows(fitted):
    model, X, y, probe = fitted
    scores = model.predict_scores(probe)
    assert scores.shape == (probe.shape[0], model.classes_.size)
    assert np.isfinite(scores).all()
    if model.name in PROBABILISTIC:
        np.testing.assert_allclose(scores.sum(axis=1), 1.0, atol=1e-9)


def test_empty_input_gives_empty_outputs(fitted):
    model, X, y, probe = fitted
    empty = np.zeros((0, X.shape[1]))
    assert model.predict(empty).shape == (0,)
    assert model.predict_scores(empty).shape == (0, model.classes_.size)


def test_column_mismatch_rejected(fitted):
    model, X, y, probe = fitted
    with pytest.raises(ValueError, match="feature columns"):
        model.predict(np.zeros((3, X.shape[1] + 1)))


def test_refit_with_same_seed_is_deterministic(fitted):
    model, X, y, probe = fitted
    again = make_model(model.name, seed=2)
    again.fit(X, y)
    np.testing.assert_array_equal(
        model.predict_scores(probe), again.predict_scores(probe)
    )


def test_models_handle_two_class_subproblems():
    X, y, probe = _random_problem(seed=55, k=2)
    for name in MODEL_NAMES:
        model = make_model(name, seed=1)
        model.fit(X, y)
        predicted = model.predict(probe)
        assert set(predicted.tolist()) <= {0, 1}


_TREE_DEFAULTS = {"max_depth": None, "min_samples_split": 2, "min_impurity_decrease": 0.0}
_SGD_DEFAULTS = {"max_epochs": 1000, "learning_rate": 0.01, "l2": 0.0001, "tol": 1e-06}
_ENSEMBLE = {"n_trees": 100, **_TREE_DEFAULTS}
EXPECTED_HYPERPARAMETERS = {
    "decision_tree": _TREE_DEFAULTS,
    "extra_tree": {**_TREE_DEFAULTS, "seed": 3},
    "bagging": {**_ENSEMBLE, "bootstrap": True, "max_features": "all", "seed": 3},
    "random_forest": {**_ENSEMBLE, "bootstrap": True, "max_features": "sqrt", "seed": 3},
    "extra_trees": {**_ENSEMBLE, "bootstrap": False, "max_features": "sqrt", "seed": 3},
    "knn": {"k": 5},
    "gaussian_nb": {"var_smoothing": 1e-09},
    "bernoulli_nb": {"alpha": 1.0},
    "nearest_centroid": {},
    "ridge": {"lam": 1.0},
    "linear_svm_sgd": {**_SGD_DEFAULTS, "seed": 3},
    "logistic_regression": {**_SGD_DEFAULTS, "seed": 3},
    "perceptron": {**_SGD_DEFAULTS, "seed": 3},
    "dummy": {},
}


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_hyperparameters_of_each_default_model(name):
    # Items, not the dict, so the key order model files are written in is pinned too.
    expected = EXPECTED_HYPERPARAMETERS[name]
    assert list(make_model(name, seed=3).hyperparameters.items()) == list(expected.items())
