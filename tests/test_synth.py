import hashlib
import itertools

import numpy as np
import pytest

from flowbench.classifiers import DummyModel, KNNModel
from flowbench.features import fit_transform, stratified_split
from flowbench.flow_data import records_to_csv, summarize
from flowbench.synth import generate_records


def test_generator_is_deterministic():
    a = generate_records(150, seed=8, signal_strength=0.5)
    b = generate_records(150, seed=8, signal_strength=0.5)
    assert a == b
    assert records_to_csv(a) == records_to_csv(b)
    c = generate_records(150, seed=9, signal_strength=0.5)
    assert a != c


@pytest.mark.parametrize(
    "n, seed, strength, digest",
    [
        (1000, 7, 0.9, "d0ae4e102abaeb20bc85c7d8be53745443722f576e33a0e39aac45bcfebedd7c"),
        (1000, 7, 0.6, "c5f1392114a8c1ba16dfcdb8fb3704cd3a33d03e30cd0109caf456b2362dee72"),
        (1, 1, 1.0, "5615e1b6917905ddb8162a1a1baada721503be00ee95f27c73964059a8f3ddff"),
        (1, 8, 1.0, "7700debcb4d474b2c7140115f56e7e3e64bf031aa4f5e36892ffc853c09e5c7d"),
        (4097, 8, 0.0, "21e770b47b9681fb3f2063a1ffe522dcb4f9120d92e7f69220661ef5919a1fe3"),
        (1000, 1, 1.0, "a32c17c3dc17182f7e7bf953224eae29c6d922402481e6855d5ceb1d6a4757e5"),
    ],
)
def test_generated_csv_bytes_are_pinned(n, seed, strength, digest):
    # perfbench/references.json records outputs computed from these bytes.
    text = records_to_csv(generate_records(n, seed=seed, signal_strength=strength))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_generated_rows_share_their_text_objects():
    records = generate_records(300, seed=4, signal_strength=0.5)
    for field in ("protocol", "flag", "family", "seed_address", "threat"):
        values = [getattr(r, field) for r in records]
        assert len({id(v) for v in values}) == len(set(values))


def test_generator_validates_arguments():
    with pytest.raises(ValueError):
        generate_records(0, seed=1)
    with pytest.raises(ValueError):
        generate_records(10, seed=1, signal_strength=1.5)


def test_generated_records_are_schema_valid():
    records = generate_records(500, seed=2, signal_strength=0.7)
    summary = summarize(records)
    assert summary.row_count == 500
    assert sum(summary.class_counts.values()) == 500
    for r in itertools.islice(records, 50):
        assert r.protocol in ("TCP", "UDP", "ICMP")
        assert 0 <= r.port <= 65535
        assert r.btc >= 0 and r.usd >= 0 and r.netflow_bytes >= 0


def test_classes_roughly_balanced():
    records = generate_records(3000, seed=3, signal_strength=0.5)
    counts = np.array(list(summarize(records).class_counts.values()))
    assert counts.min() > 0.25 * 3000


def test_zero_signal_gives_chance_level_classifiers():
    records = generate_records(4000, seed=17, signal_strength=0.0)
    matrix = fit_transform(records, scale=True)
    plan = stratified_split(matrix.labels, 0.2, seed=42)
    test_labels = matrix.labels[plan.test_indices]
    prevalence = float(np.bincount(test_labels).max() / test_labels.size)

    dummy = DummyModel().fit(
        matrix.encoded[plan.train_indices], matrix.labels[plan.train_indices]
    )
    dummy_accuracy = float(np.mean(dummy.predict(matrix.encoded[plan.test_indices]) == test_labels))
    assert abs(dummy_accuracy - prevalence) <= 1e-12  # majority class matches

    knn = KNNModel().fit(
        matrix.rows[plan.train_indices], matrix.labels[plan.train_indices]
    )
    knn_accuracy = float(np.mean(knn.predict(matrix.rows[plan.test_indices]) == test_labels))
    assert abs(knn_accuracy - prevalence) <= 0.05


def test_full_signal_separates_classes():
    records = generate_records(2000, seed=19, signal_strength=1.0)
    matrix = fit_transform(records, scale=False)
    plan = stratified_split(matrix.labels, 0.2, seed=42)
    from flowbench.classifiers import DecisionTreeModel

    tree = DecisionTreeModel().fit(
        matrix.encoded[plan.train_indices], matrix.labels[plan.train_indices]
    )
    predicted = tree.predict(matrix.encoded[plan.test_indices])
    assert float(np.mean(predicted == matrix.labels[plan.test_indices])) >= 0.95
