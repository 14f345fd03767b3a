import inspect

import numpy as np
import pytest

from flowbench.classifiers import (
    MODEL_CLASSES,
    BaggingModel,
    DecisionTreeModel,
    ExtraTreeModel,
    ExtraTreesModel,
    LinearSVMModel,
    RandomForestModel,
)


@pytest.fixture
def toy():
    X = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([0, 0, 1, 1])
    return X, y


def test_single_tree_without_bootstrap_equals_plain_cart(rng):
    X = rng.integers(0, 6, size=(60, 3)).astype(float)
    y = rng.integers(0, 3, size=60)
    probe = rng.integers(0, 6, size=(30, 3)).astype(float)
    single = DecisionTreeModel().fit(X, y)
    degenerate = BaggingModel()
    degenerate.n_trees, degenerate.bootstrap = 1, False
    degenerate.fit(X, y)
    assert np.array_equal(single.predict(probe), degenerate.predict(probe))
    np.testing.assert_array_equal(
        single.predict_scores(probe), degenerate.predict_scores(probe)
    )


def test_single_extra_tree_without_subsets_matches_tree_variant(rng):
    X = rng.integers(0, 6, size=(50, 3)).astype(float)
    y = rng.integers(0, 3, size=50)
    ensemble = ExtraTreesModel(seed=5)
    ensemble.n_trees, ensemble.max_features = 1, "all"
    ensemble.fit(X, y)
    single = ExtraTreeModel(seed=5).fit(X, y)
    np.testing.assert_array_equal(single.predict_scores(X), ensemble.predict_scores(X))


def test_same_seed_gives_identical_predictions(rng):
    X = rng.integers(0, 6, size=(80, 4)).astype(float)
    y = rng.integers(0, 3, size=80)
    probe = rng.integers(0, 6, size=(40, 4)).astype(float)
    for cls in (BaggingModel, RandomForestModel, ExtraTreesModel):
        a = cls(seed=7).fit(X, y)
        b = cls(seed=7).fit(X, y)
        np.testing.assert_array_equal(a.predict_scores(probe), b.predict_scores(probe))
        c = cls(seed=8).fit(X, y)
        assert c.trees_ is not None


def test_ensembles_match_single_tree_on_toy_data(toy):
    X, y = toy
    baseline = DecisionTreeModel().fit(X, y)
    baseline_accuracy = np.mean(baseline.predict(X) == y)
    for cls in (BaggingModel, RandomForestModel, ExtraTreesModel):
        model = cls(seed=0).fit(X, y)
        accuracy = np.mean(model.predict(X) == y)
        assert accuracy >= baseline_accuracy


def test_ensemble_scores_average_to_distributions(rng):
    X = rng.integers(0, 5, size=(50, 3)).astype(float)
    y = rng.integers(0, 3, size=50)
    model = ExtraTreesModel(seed=2).fit(X, y)
    scores = model.predict_scores(X)
    np.testing.assert_allclose(scores.sum(axis=1), 1.0, atol=1e-9)


def test_seed_must_be_non_negative_integer():
    seeded = [cls for cls in MODEL_CLASSES.values()
              if "seed" in inspect.signature(cls).parameters]
    assert {LinearSVMModel, ExtraTreeModel, BaggingModel} <= set(seeded)
    for cls in seeded:
        for bad in (-1, 1.5, [5, 0], True):
            with pytest.raises(ValueError, match="seed"):
                cls(seed=bad)
