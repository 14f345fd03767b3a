import json

import numpy as np
import pytest

from flowbench.classifiers import (
    FORMAT_VERSION,
    MODEL_NAMES,
    ModelFormatError,
    load_model,
    make_model,
    save_model,
)
from flowbench.features import CATEGORICAL_COLUMNS, FEATURE_COLUMNS, fit_transform, transform
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
    save_model(path, model, encoders=matrix.encoders, scaler=matrix.scaler)
    assert json.loads(path.read_text())["column_names"] == FEATURE_COLUMNS
    artifact = load_model(path)
    assert artifact.model.name == name
    assert artifact.model.hyperparameters == model.hyperparameters
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
    restored = artifact.model._state()
    for name, before in model._state().items():
        after = restored[name]
        assert after.dtype == before.dtype, name
        assert after.shape == before.shape, name
        np.testing.assert_array_equal(after, before)


def test_unknown_format_version_rejected(tmp_path):
    # Format 1 files also stored each model's tunable hyperparameters,
    # format 2 files stored each tree as nested node objects, format 3
    # files stored each tree's arrays, a right child array among them, and
    # format 4 files stored each two-dimensional non-tree array as nested lists.
    path = tmp_path / "model.json"
    for version in (1, 2, 3, 4, 6):
        path.write_text(json.dumps({"format_version": version, "model": "dummy"}))
        with pytest.raises(
            ModelFormatError, match=f"^unsupported model format_version: {version}$"
        ):
            load_model(path)


def test_unknown_model_name_rejected(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"format_version": FORMAT_VERSION, "model": "mystery"}))
    with pytest.raises(ModelFormatError, match="unknown model"):
        load_model(path)


def test_scaler_round_trips(trained_setup, tmp_path):
    records, matrix, probe = trained_setup
    model = make_model("ridge", seed=0)
    model.fit(matrix.rows, matrix.labels)
    path = tmp_path / "ridge.json"
    save_model(path, model, encoders=matrix.encoders, scaler=matrix.scaler)
    artifact = load_model(path)
    np.testing.assert_array_equal(artifact.scaler.mean, matrix.scaler.mean)
    np.testing.assert_array_equal(artifact.scaler.std, matrix.scaler.std)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_save_load_save_writes_identical_bytes(name, trained_setup, tmp_path):
    records, matrix, probe = trained_setup
    model = make_model(name, seed=3)
    model.fit(matrix.rows_for(model), matrix.labels)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_model(first, model, encoders=matrix.encoders, scaler=matrix.scaler)
    artifact = load_model(first)
    save_model(second, artifact.model, encoders=artifact.encoders, scaler=artifact.scaler)
    assert second.read_bytes() == first.read_bytes()
    if hasattr(model, "forest_"):
        for field, before in model.forest_._asdict().items():
            after = getattr(artifact.model.forest_, field)
            assert (after.dtype, after.shape) == (before.dtype, before.shape), field
            np.testing.assert_array_equal(after, before)
