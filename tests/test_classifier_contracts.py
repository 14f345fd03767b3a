"""Interface properties every portfolio model must satisfy."""

import inspect
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from flowbench.classifiers import MODEL_CLASSES, MODEL_NAMES, NotFittedError, make_model

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


_SEED = {"seed": 3}
_SGD = {"max_epochs": 1000, "seed": 3}
EXPECTED_HYPERPARAMETERS = {
    "decision_tree": {},
    "extra_tree": _SEED,
    "bagging": _SEED,
    "random_forest": _SEED,
    "extra_trees": _SEED,
    "knn": {},
    "gaussian_nb": {},
    "bernoulli_nb": {},
    "nearest_centroid": {},
    "ridge": {},
    "linear_svm_sgd": _SGD,
    "logistic_regression": _SGD,
    "perceptron": _SGD,
    "dummy": {},
}

# The settings every run uses, held as class constants.
_TREE = {"n_trees": 1, "bootstrap": False, "max_features": "all"}
_SGD_CONSTANTS = {"learning_rate": 0.01, "l2": 1e-4, "tol": 1e-3, "n_iter_no_change": 5}
FIXED_SETTINGS = {
    "decision_tree": _TREE,
    "extra_tree": _TREE,
    "bagging": {"n_trees": 100, "bootstrap": True, "max_features": "all"},
    "random_forest": {"n_trees": 100, "bootstrap": True, "max_features": "sqrt"},
    "extra_trees": {"n_trees": 100, "bootstrap": False, "max_features": "sqrt"},
    "knn": {"k": 5},
    "gaussian_nb": {"var_smoothing": 1e-9},
    "bernoulli_nb": {"alpha": 1.0},
    "nearest_centroid": {},
    "ridge": {"lam": 1.0},
    "linear_svm_sgd": _SGD_CONSTANTS,
    "logistic_regression": {"l2": 1e-4, "tol": 1e-9},
    "perceptron": {**_SGD_CONSTANTS, "l2": 0.0},
    "dummy": {},
}


@pytest.mark.parametrize("name", MODEL_NAMES)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_features_rejected_by_every_model(name, bad):
    X, y, probe = _random_problem(seed=5)
    model = make_model(name, seed=0).fit(X, y)
    probe[3, 1] = bad
    for predict in (model.predict, model.predict_scores):
        with pytest.raises(ValueError, match="^non-finite feature values$"):
            predict(probe)
    X[3, 1] = bad
    with pytest.raises(ValueError, match="^non-finite feature values$"):
        make_model(name, seed=0).fit(X, y)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_hyperparameters_of_each_default_model(name):
    # Items, not the dict, so the key order model files are written in is pinned too.
    expected = EXPECTED_HYPERPARAMETERS[name]
    assert list(make_model(name, seed=3).hyperparameters.items()) == list(expected.items())


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_fixed_settings_of_each_model(name):
    model = make_model(name, seed=3)
    expected = FIXED_SETTINGS[name]
    assert {key: getattr(model, key) for key in expected} == expected


def test_constructors_take_only_seed_and_max_epochs():
    parameters = Counter(
        name for cls in MODEL_CLASSES.values() for name in inspect.signature(cls).parameters
    )
    assert parameters == {"seed": 7, "max_epochs": 3}


def test_first_fit_imports_no_numpy_ma():
    # Plain np.unique imports numpy.ma on its first call in numpy 2.x, which
    # charged the import to the Time Taken of whichever model fit first.
    code = (
        "import sys\n"
        "from flowbench.classifiers import DummyModel\n"
        "before = 'numpy.ma' in sys.modules\n"
        "DummyModel().fit([[0.0], [1.0], [2.0]], [3, 1, 3])\n"
        "print(before, 'numpy.ma' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    before, after = proc.stdout.split()
    assert after == before
