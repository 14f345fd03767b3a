import json

import numpy as np
import pytest

from flowbench.classifiers import (
    MODEL_NAMES,
    ModelFormatError,
    load_model,
    make_model,
    save_model,
)
from flowbench.features import CATEGORICAL_COLUMNS, fit_transform, transform
from flowbench.synth import generate_records

# A loadable file maps every text column to codes; the hand-built files below
# test the state, so their encoders are empty.
ENCODERS = {name: {} for name in CATEGORICAL_COLUMNS}


@pytest.fixture(scope="module")
def trained_setup():
    records = generate_records(250, seed=21, signal_strength=0.8)
    matrix = fit_transform(records, scale=True)
    probe = generate_records(60, seed=22, signal_strength=0.8)
    return records, matrix, probe


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_round_trip_reproduces_predictions_exactly(name, trained_setup, tmp_path):
    records, matrix, probe = trained_setup
    model = make_model(name, seed=3)
    rows = matrix.rows_for(model)
    model.fit(rows, matrix.labels)
    path = tmp_path / f"{name}.json"
    save_model(
        path,
        model,
        encoders=matrix.encoders,
        scaler=matrix.scaler,
        column_names=matrix.column_names,
    )
    artifact = load_model(path)
    assert artifact.model.name == name
    assert artifact.model.hyperparameters == model.hyperparameters
    assert artifact.column_names == matrix.column_names
    assert artifact.encoders == matrix.encoders

    probe_rows = transform(matrix, probe)
    if not model.needs_scaling:
        from flowbench.features import encode_records

        probe_rows = encode_records(probe, matrix.encoders)
    np.testing.assert_array_equal(
        model.predict(probe_rows), artifact.model.predict(probe_rows)
    )
    np.testing.assert_array_equal(
        model.predict_scores(probe_rows), artifact.model.predict_scores(probe_rows)
    )
    for attr in model._fitted:
        before, after = getattr(model, attr), getattr(artifact.model, attr)
        assert after.dtype == before.dtype, attr
        assert after.shape == before.shape, attr
        np.testing.assert_array_equal(after, before)


def test_unknown_format_version_rejected(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"format_version": 2, "model": "dummy"}))
    with pytest.raises(ModelFormatError, match="format_version"):
        load_model(path)


def test_unknown_model_name_rejected(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"format_version": 1, "model": "mystery"}))
    with pytest.raises(ModelFormatError, match="unknown model"):
        load_model(path)


def test_scaler_round_trips(trained_setup, tmp_path):
    records, matrix, probe = trained_setup
    model = make_model("ridge", seed=0)
    model.fit(matrix.rows, matrix.labels)
    path = tmp_path / "ridge.json"
    save_model(
        path,
        model,
        encoders=matrix.encoders,
        scaler=matrix.scaler,
        column_names=matrix.column_names,
    )
    artifact = load_model(path)
    np.testing.assert_array_equal(artifact.scaler.mean, matrix.scaler.mean)
    np.testing.assert_array_equal(artifact.scaler.std, matrix.scaler.std)


def test_model_file_with_stored_feature_masks_still_loads(tmp_path):
    # Earlier writers of format 1 also saved each ensemble's feature masks.
    leaf = {"dist": [1.0, 0.0]}
    document = {
        "format_version": 1,
        "model": "random_forest",
        "hyperparameters": {
            "n_trees": 2,
            "max_depth": None,
            "min_samples_split": 2,
            "min_impurity_decrease": 0.0,
            "bootstrap": True,
            "max_features": "sqrt",
            "seed": 0,
        },
        "state": {
            "classes": [0, 1],
            "n_features": 2,
            "trees": [
                {"feature": 1, "threshold": 0.5, "left": leaf,
                 "right": {"dist": [0.0, 1.0]}},
                leaf,
            ],
            "feature_masks": [[False, True], [False, False]],
        },
        "encoders": ENCODERS,
        "scaler": None,
        "column_names": ["a", "b"],
    }
    path = tmp_path / "old.json"
    path.write_text(json.dumps(document))
    artifact = load_model(path)
    np.testing.assert_array_equal(
        artifact.model.predict_scores([[0.0, 0.0], [0.0, 1.0]]),
        [[1.0, 0.0], [0.5, 0.5]],
    )
    resaved = tmp_path / "new.json"
    save_model(resaved, artifact.model, encoders={}, scaler=None,
               column_names=["a", "b"])
    assert "feature_masks" not in json.loads(resaved.read_text())["state"]


@pytest.mark.parametrize("name", ["decision_tree", "extra_tree"])
def test_single_tree_file_with_one_stored_tree_still_loads(name, tmp_path):
    # Earlier writers of format 1 saved a single tree model's one tree
    # under "tree"; every tree model now stores a "trees" list.
    hyperparameters = make_model(name).hyperparameters
    document = {
        "format_version": 1,
        "model": name,
        "hyperparameters": hyperparameters,
        "state": {
            "classes": [0, 2],
            "n_features": 1,
            "tree": {"feature": 0, "threshold": 0.5, "left": {"dist": [1.0, 0.0]},
                     "right": {"dist": [0.0, 1.0]}},
        },
        "encoders": ENCODERS,
        "scaler": None,
        "column_names": ["a"],
    }
    path = tmp_path / "old.json"
    path.write_text(json.dumps(document))
    model = load_model(path).model
    assert model.hyperparameters == hyperparameters
    np.testing.assert_array_equal(model.predict([[0.2], [0.9]]), [0, 2])
    resaved = tmp_path / "new.json"
    save_model(resaved, model, encoders={}, scaler=None, column_names=["a"])
    state = json.loads(resaved.read_text())["state"]
    assert "tree" not in state
    assert state["trees"] == [document["state"]["tree"]]


def test_knn_model_file_with_stored_k_still_loads(tmp_path):
    # Earlier writers of format 1 also saved k in the knn state.
    document = {
        "format_version": 1,
        "model": "knn",
        "hyperparameters": {"k": 1},
        "state": {
            "classes": [0, 2],
            "n_features": 1,
            "train_rows": [[0.0], [1.0]],
            "train_codes": [0, 1],
            "k": 1,
        },
        "encoders": ENCODERS,
        "scaler": None,
        "column_names": ["a"],
    }
    path = tmp_path / "old.json"
    path.write_text(json.dumps(document))
    model = load_model(path).model
    assert model.k == 1
    assert model.train_codes_.dtype == np.int64
    np.testing.assert_array_equal(model.predict([[0.2], [0.9]]), [0, 2])
    resaved = tmp_path / "new.json"
    save_model(resaved, model, encoders={}, scaler=None, column_names=["a"])
    assert "k" not in json.loads(resaved.read_text())["state"]
