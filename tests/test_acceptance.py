"""End-to-end acceptance checks.

Hermetic criteria (6-12) run everywhere. Dataset-bound criteria (1-5) need
the full UGRansome CSV and run only when UGRANSOME_DATA points at it; they
are skipped otherwise. Each check prints one PASS/FAIL line.
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from flowbench.bench import BenchOptions, run_benchmark, to_json_dict
from flowbench.classifiers import (
    DecisionTreeModel,
    LinearSVMModel,
    MODEL_NAMES,
    load_model,
    make_model,
    margin,
    save_model,
    gini,
)
from flowbench.features import fit_transform, stratified_split
from flowbench.flow_data import parse_dataset, summarize
from flowbench.metrics import (
    accuracy,
    balanced_accuracy,
    confusion,
    mse,
    roc_curve,
)
from flowbench.synth import generate_records

from test_metrics import mann_whitney_auc
from test_tree import brute_force_best_split, weighted_gini_of_split

DATA_PATH = os.environ.get("UGRANSOME_DATA", "")
needs_dataset = pytest.mark.skipif(
    not DATA_PATH or not Path(DATA_PATH).is_file(),
    reason="UGRANSOME_DATA does not point at the full dataset CSV",
)

TREE_FAMILY = ["decision_tree", "extra_tree", "bagging", "random_forest", "extra_trees"]
LINEAR_AND_BAYES = [
    "ridge",
    "linear_svm_sgd",
    "logistic_regression",
    "perceptron",
    "gaussian_nb",
    "bernoulli_nb",
]


def check(criterion: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}" + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


# dataset-bound criteria ------------------------------------------------------


@pytest.fixture(scope="module")
def dataset_leaderboard():
    records = parse_dataset(DATA_PATH)
    matrix = fit_transform(records, scale=True)
    plan = stratified_split(matrix.labels, 0.2, seed=42)
    leaderboard = run_benchmark(matrix, plan, "all", BenchOptions(seed=42))
    return leaderboard


@needs_dataset
def test_criterion_1_tree_family_headline_metrics(dataset_leaderboard):
    by_name = {r.model: r for r in dataset_leaderboard.reports}
    worst_acc = min(by_name[m].accuracy for m in TREE_FAMILY)
    worst_f1 = min(by_name[m].f1_weighted for m in TREE_FAMILY)
    check(
        "criterion 1: tree family accuracy and weighted F1 >= 0.95",
        worst_acc >= 0.95 and worst_f1 >= 0.95,
        f"min accuracy {worst_acc:.3f}, min weighted F1 {worst_f1:.3f}",
    )


@needs_dataset
def test_criterion_2_dummy_prevalence_and_balanced_accuracy(dataset_leaderboard):
    report = next(r for r in dataset_leaderboard.reports if r.model == "dummy")
    counts = np.asarray(report.confusion)
    majority_prevalence = counts.sum(axis=1).max() / counts.sum()
    ok = (
        report.accuracy == pytest.approx(majority_prevalence, abs=0)
        and abs(report.accuracy - 0.39) <= 0.05
        and abs(report.balanced_accuracy - 1 / 3) <= 1e-9
    )
    check(
        "criterion 2: dummy accuracy = majority prevalence (~0.39), balanced = 1/3",
        ok,
        f"accuracy {report.accuracy:.4f}, balanced {report.balanced_accuracy:.10f}",
    )


@needs_dataset
def test_criterion_3_knn_and_family_ordering(dataset_leaderboard):
    by_name = {r.model: r for r in dataset_leaderboard.reports}
    positions = {r.model: i for i, r in enumerate(dataset_leaderboard.reports)}
    knn_ok = by_name["knn"].accuracy >= 0.93
    ordering_ok = max(positions[m] for m in TREE_FAMILY) < min(
        positions[m] for m in LINEAR_AND_BAYES
    )
    check(
        "criterion 3: knn >= 0.93 and tree family outranks linear/Bayes models",
        knn_ok and ordering_ok,
        f"knn accuracy {by_name['knn'].accuracy:.3f}",
    )


@needs_dataset
def test_criterion_4_inspect_counts():
    summary = summarize(parse_dataset(DATA_PATH))
    ok = (
        summary.row_count == 149043
        and len(summary.distinct_counts) == 14
        and summary.family_count == 17
    )
    check(
        "criterion 4: 149043 rows, 14 data columns, 17 families",
        ok,
        f"rows {summary.row_count}, families {summary.family_count}",
    )


@needs_dataset
def test_criterion_5_predicted_totals_near_true_totals(dataset_leaderboard):
    failures = []
    for report in dataset_leaderboard.reports:
        if report.status != "ok" or report.accuracy < 0.95:
            continue
        counts = np.asarray(report.confusion)
        true_totals = counts.sum(axis=1)
        predicted_totals = counts.sum(axis=0)
        for cls in range(counts.shape[0]):
            if abs(predicted_totals[cls] - true_totals[cls]) > 0.05 * true_totals[cls]:
                failures.append((report.model, cls))
    check(
        "criterion 5: per-class predicted totals within 5% for accurate models",
        not failures,
        f"violations: {failures}",
    )


# hermetic criteria ------------------------------------------------------------


def test_criterion_6_hand_derivable_formula_values():
    svm = LinearSVMModel()
    svm.classes_ = np.array([0, 1])
    svm.n_features_ = 2
    svm.weights_ = np.array([[2.0, 0.0], [1.0, 0.0]])
    svm.bias_ = np.zeros(2)

    # drive cv_evaluate with a controlled per-fold error sequence
    from flowbench.classifiers import DummyModel
    from flowbench.features import FeatureMatrix
    from flowbench.metrics import cv_evaluate

    rows = np.zeros((9, 2))
    labels = np.array([0, 1, 0, 1, 0, 1, 0, 1, 0], dtype=np.int64)
    matrix = FeatureMatrix(
        rows=rows, labels=labels, column_names=["a", "b"],
        encoders={}, scaler=None, encoded=rows,
    )
    fold_errors = iter([0.1, 0.2, 0.3])
    cv = cv_evaluate(
        DummyModel, matrix, np.repeat([0, 1, 2], 3),
        lambda yt, yp: next(fold_errors),
    )

    checks = [
        abs(gini([1.0, 0.0, 0.0]) - 0.0) < 1e-12,
        abs(gini([0.5, 0.5]) - 0.5) < 1e-12,
        abs(gini([1 / 3, 1 / 3, 1 / 3]) - 2 / 3) < 1e-12,
        abs(mse([1, 2, 3], [1, 2, 4]) - 1 / 3) < 1e-12,
        mse([1.0, 2.0], [1.0, 2.0]) == 0.0,
        abs(margin(svm, 0) - 1.0) < 1e-12,
        abs(margin(svm, 1) - 2.0) < 1e-12,
        cv.fold_errors == [0.1, 0.2, 0.3],
        abs(cv.cv_error - 0.2) < 1e-12,
    ]
    check("criterion 6: gini/MSE/margin/CV hand values at 1e-12", all(checks))


def test_criterion_7_cart_root_matches_exhaustive_search():
    rng = np.random.default_rng(2024)
    mismatches = 0
    for _ in range(100):
        n = int(rng.integers(2, 31))
        d = int(rng.integers(1, 4))
        X = rng.integers(0, 5, size=(n, d)).astype(float)
        y = rng.integers(0, 3, size=n)
        model = DecisionTreeModel().fit(X, y)
        codes = np.searchsorted(model.classes_, y)
        oracle = brute_force_best_split(X, codes, model.classes_.size)
        root = model.trees_[0]
        if root.is_leaf:
            if oracle is not None and np.unique(y).size > 1:
                mismatches += 1
            continue
        achieved = weighted_gini_of_split(
            X, codes, model.classes_.size, root.feature, root.threshold
        )
        if abs(achieved - oracle[0]) > 1e-12:
            mismatches += 1
    check("criterion 7: CART root split equals brute force on 100 instances",
          mismatches == 0, f"{mismatches} mismatches")


def test_criterion_8_auc_matches_pair_counting():
    rng = np.random.default_rng(77)
    mismatches = 0
    for _ in range(100):
        n = int(rng.integers(4, 51))
        y = rng.integers(0, 3, size=n)
        while np.unique(y).size < 2:
            y = rng.integers(0, 3, size=n)
        scores = rng.integers(0, 8, size=(n, 3)).astype(float)
        present = np.unique(y)
        c = int(present[int(rng.integers(present.size))])
        auc = roc_curve(y, scores, c).auc
        oracle = mann_whitney_auc(y, scores[:, c], c)
        if abs(auc - oracle) > 1e-12:
            mismatches += 1
    check("criterion 8: ROC AUC equals Mann-Whitney pair counting on 100 instances",
          mismatches == 0, f"{mismatches} mismatches")


def test_criterion_9_metric_identities():
    rng = np.random.default_rng(5)
    ok = True
    # constant predictor balanced accuracy = 1/k
    for k in (2, 3, 4):
        y = rng.integers(0, k, size=150)
        while np.unique(y).size < k:
            y = rng.integers(0, k, size=150)
        cm = confusion(y, np.full(150, k - 1), k)
        ok = ok and abs(balanced_accuracy(cm) - 1 / k) < 1e-12
    # accuracy = trace/total against a loop oracle
    for _ in range(25):
        y = rng.integers(0, 3, size=60)
        p = rng.integers(0, 3, size=60)
        counted = sum(int(a == b) for a, b in zip(y, p)) / 60
        ok = ok and accuracy(confusion(y, p, 3)) == counted
    # AUC(s) + AUC(-s) = 1 on tie-free scores
    for _ in range(25):
        y = rng.integers(0, 2, size=40)
        y[:2] = [0, 1]
        s = rng.permutation(np.arange(40, dtype=float))  # distinct scores
        forward = roc_curve(y, np.column_stack([-s, s]), 1).auc
        backward = roc_curve(y, np.column_stack([s, -s]), 1).auc
        ok = ok and abs(forward + backward - 1.0) < 1e-12
    check("criterion 9: balanced-accuracy, trace/total, and AUC complement identities", ok)


def test_criterion_10_bench_determinism_across_workers():
    records = generate_records(400, seed=13, signal_strength=0.8)
    matrix = fit_transform(records, scale=True)
    plan = stratified_split(matrix.labels, 0.2, seed=42)

    def snapshot(workers: int) -> str:
        leaderboard = run_benchmark(
            matrix, plan, "all", BenchOptions(seed=42, workers=workers)
        )
        doc = to_json_dict(leaderboard)
        for report in doc["reports"]:
            report.pop("time_taken_s")
        return json.dumps(doc)

    first = snapshot(1)
    second = snapshot(1)
    third = snapshot(4)
    fourth = snapshot(4)
    ok = first == second == third == fourth
    check("criterion 10: identical leaderboards (ex-time) at 1 and 4 workers", ok)


def test_criterion_11_synthetic_separability():
    strong = generate_records(10_000, seed=31, signal_strength=1.0)
    matrix = fit_transform(strong, scale=False)
    plan = stratified_split(matrix.labels, 0.2, seed=42)
    tree = DecisionTreeModel().fit(
        matrix.encoded[plan.train_indices], matrix.labels[plan.train_indices]
    )
    predicted = tree.predict(matrix.encoded[plan.test_indices])
    strong_accuracy = float(np.mean(predicted == matrix.labels[plan.test_indices]))

    chance = generate_records(10_000, seed=32, signal_strength=0.0)
    matrix0 = fit_transform(chance, scale=False)
    plan0 = stratified_split(matrix0.labels, 0.2, seed=42)
    tree0 = DecisionTreeModel().fit(
        matrix0.encoded[plan0.train_indices], matrix0.labels[plan0.train_indices]
    )
    predicted0 = tree0.predict(matrix0.encoded[plan0.test_indices])
    test_labels0 = matrix0.labels[plan0.test_indices]
    chance_accuracy = float(np.mean(predicted0 == test_labels0))
    prevalence = float(np.bincount(test_labels0).max() / test_labels0.size)

    ok = strong_accuracy >= 0.95 and abs(chance_accuracy - prevalence) <= 0.05
    check(
        "criterion 11: signal 1 tree >= 0.95; signal 0 within 0.05 of prevalence",
        ok,
        f"strong {strong_accuracy:.3f}, chance {chance_accuracy:.3f} vs prevalence {prevalence:.3f}",
    )


def test_criterion_12_persistence_fidelity(tmp_path):
    records = generate_records(250, seed=41, signal_strength=0.8)
    matrix = fit_transform(records, scale=True)
    probe_records = generate_records(80, seed=42, signal_strength=0.8)
    failures = []
    for name in MODEL_NAMES:
        model = make_model(name, seed=9)
        rows = matrix.rows_for(model)
        model.fit(rows, matrix.labels)
        path = tmp_path / f"{name}.json"
        save_model(path, model, encoders=matrix.encoders, scaler=matrix.scaler,
                   column_names=matrix.column_names)
        restored = load_model(path).model
        from flowbench.features import encode_records

        probe = encode_records(probe_records, matrix.encoders)
        if model.needs_scaling and matrix.scaler is not None:
            probe = matrix.scaler.apply(probe)
        if not np.array_equal(model.predict(probe), restored.predict(probe)):
            failures.append(name)
    check("criterion 12: save/load/predict identical for every portfolio model",
          not failures, f"failures: {failures}")
