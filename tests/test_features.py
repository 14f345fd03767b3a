import numpy as np
import pytest

from flowbench.features import (
    CATEGORICAL_COLUMNS,
    FEATURE_COLUMNS,
    UNSEEN_CODE,
    fit_transform,
    k_folds,
    stratified_split,
    transform,
)
from flowbench.flow_data import parse_dataset

from conftest import FIGURE_ROW, csv_bytes


def _rows(*overrides: dict) -> list:
    base = FIGURE_ROW.split(",")
    header_fields = (
        "Time,Protocol,Flag,Family,Clusters,SeedAddress,ExpAddress,"
        "BTC,USD,Netflow_Bytes,IPaddress,Threats,Port,Prediction"
    ).split(",")
    rows = []
    for spec in overrides:
        cells = list(base)
        for column, value in spec.items():
            cells[header_fields.index(column)] = str(value)
        rows.append(",".join(cells))
    return parse_dataset(csv_bytes(*rows))


def test_label_codes_cover_the_three_tokens():
    records = _rows(
        {"Prediction": "A"}, {"Prediction": "S"}, {"Prediction": "SS"}
    )
    matrix = fit_transform(records)
    assert matrix.labels.tolist() == [0, 1, 2]


def test_categorical_codes_are_lexicographic():
    records = _rows(
        {"Protocol": "UDP"}, {"Protocol": "TCP"}, {"Protocol": "TCP"}
    )
    matrix = fit_transform(records)
    column = FEATURE_COLUMNS.index("Protocol")
    assert matrix.rows[:, column].tolist() == [1.0, 0.0, 0.0]
    assert matrix.encoders["Protocol"] == {"TCP": 0, "UDP": 1}


def test_single_record_scaled_matrix_is_all_zero():
    records = _rows({})
    matrix = fit_transform(records, scale=True)
    assert matrix.rows.shape == (1, len(FEATURE_COLUMNS))
    assert np.all(matrix.rows == 0.0)


def test_fit_transform_requires_records():
    with pytest.raises(ValueError):
        fit_transform([])


def test_unseen_category_maps_to_reserved_code():
    train = _rows({"Family": "X"}, {"Family": "Y"})
    matrix = fit_transform(train)
    new = _rows({"Family": "Zed"})
    rows = transform(matrix, new)
    column = FEATURE_COLUMNS.index("Family")
    assert rows[0, column] == UNSEEN_CODE


def test_transform_matches_fit_transform_rows(synth_records):
    for scale in (False, True):
        matrix = fit_transform(synth_records, scale=scale)
        again = transform(matrix, synth_records)
        np.testing.assert_array_equal(again, matrix.rows)


def test_encoders_are_injective_and_decodable(synth_matrix):
    for name in CATEGORICAL_COLUMNS:
        encoder = synth_matrix.encoders[name]
        decoder = {code: value for value, code in encoder.items()}
        assert len(decoder) == len(encoder)
        for value, code in encoder.items():
            assert decoder[code] == value


def test_scaled_columns_have_zero_mean_unit_std(synth_matrix):
    nonconstant = synth_matrix.scaler.std > 0
    means = synth_matrix.rows.mean(axis=0)
    stds = synth_matrix.rows.std(axis=0)
    assert np.all(np.abs(means[nonconstant]) < 1e-9)
    assert np.all(np.abs(stds[nonconstant] - 1.0) < 1e-9)
    assert np.all(synth_matrix.rows[:, ~nonconstant] == 0.0)


def test_scaling_is_idempotent(synth_matrix):
    rows = synth_matrix.rows
    nonconstant = synth_matrix.scaler.std > 0
    refit_mean = rows.mean(axis=0)
    refit_std = rows.std(axis=0)
    assert np.all(np.abs(refit_mean[nonconstant]) < 1e-9)
    assert np.all(np.abs(refit_std[nonconstant] - 1.0) < 1e-9)


def test_stratified_split_proportional_counts():
    labels = np.repeat([0, 1, 2], [40, 40, 20])
    plan = stratified_split(labels, 0.2, seed=0)
    test_labels = labels[plan.test_indices]
    assert np.count_nonzero(test_labels == 0) == 8
    assert np.count_nonzero(test_labels == 1) == 8
    assert np.count_nonzero(test_labels == 2) == 4


def test_stratified_split_partitions_all_indices():
    labels = np.repeat([0, 1, 2], [40, 40, 20])
    plan = stratified_split(labels, 0.2, seed=0)
    combined = np.concatenate([plan.train_indices, plan.test_indices])
    assert np.array_equal(np.sort(combined), np.arange(labels.size))
    assert np.intersect1d(plan.train_indices, plan.test_indices).size == 0


def test_stratified_split_half_of_two_pairs():
    labels = np.array([0, 0, 1, 1])
    plan = stratified_split(labels, 0.5, seed=9)
    test_labels = labels[plan.test_indices]
    assert sorted(test_labels.tolist()) == [0, 1]


def test_stratified_split_is_deterministic():
    labels = np.repeat([0, 1, 2], [15, 10, 5])
    a = stratified_split(labels, 0.3, seed=17)
    b = stratified_split(labels, 0.3, seed=17)
    assert np.array_equal(a.train_indices, b.train_indices)
    assert np.array_equal(a.test_indices, b.test_indices)
    c = stratified_split(labels, 0.3, seed=18)
    assert not np.array_equal(a.test_indices, c.test_indices)


def test_stratified_split_proportions_within_one_sample(rng):
    for _ in range(20):
        counts = rng.integers(2, 40, size=3)
        labels = rng.permutation(np.repeat([0, 1, 2], counts))
        fraction = float(rng.uniform(0.1, 0.9))
        plan = stratified_split(labels, fraction, seed=int(rng.integers(1000)))
        test_labels = labels[plan.test_indices]
        for cls, count in zip([0, 1, 2], counts):
            got = np.count_nonzero(test_labels == cls)
            assert abs(got - fraction * count) <= 1.0


def test_stratified_split_rejects_tiny_class():
    labels = np.array([0, 0, 1])
    with pytest.raises(ValueError, match="class 1"):
        stratified_split(labels, 0.5, seed=0)


def test_stratified_split_rejects_bad_fraction():
    labels = np.array([0, 0, 1, 1])
    with pytest.raises(ValueError):
        stratified_split(labels, 1.0, seed=0)


def test_k_folds_even_sizes():
    labels = np.zeros(10, dtype=int)
    assignment = k_folds(labels, 5, seed=0)
    sizes = np.bincount(assignment, minlength=5)
    assert sizes.tolist() == [2, 2, 2, 2, 2]


def test_k_folds_stratified_hand_case():
    labels = np.array([0] * 6 + [1] * 3)
    assignment = k_folds(labels, 2, seed=4)
    sizes = sorted(np.bincount(assignment).tolist())
    assert sizes == [4, 5]
    class0 = np.bincount(assignment[labels == 0], minlength=2).tolist()
    class1 = sorted(np.bincount(assignment[labels == 1], minlength=2).tolist())
    assert class0 == [3, 3]
    assert class1 == [1, 2]


def test_k_folds_deterministic_and_covering():
    labels = np.repeat([0, 1, 2], [12, 9, 6])
    a = k_folds(labels, 3, seed=5)
    b = k_folds(labels, 3, seed=5)
    assert np.array_equal(a, b)
    assert set(a.tolist()) == {0, 1, 2}
    assert a.size == labels.size
    sizes = np.bincount(a)
    assert sizes.max() - sizes.min() <= 1


def test_k_folds_rejects_k_above_smallest_class():
    labels = np.array([0] * 10 + [1] * 2)
    with pytest.raises(ValueError, match="smallest class"):
        k_folds(labels, 3, seed=0)
    with pytest.raises(ValueError):
        k_folds(labels, 1, seed=0)
