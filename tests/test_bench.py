import json
import threading
import time

import numpy as np
import pytest

import flowbench.bench as bench_module
from flowbench.bench import (
    BenchOptions,
    EvalReport,
    Leaderboard,
    leaderboard_from_json,
    render,
    run_benchmark,
    to_json_dict,
)
from flowbench.classifiers import ExtraTreeModel, RandomForestModel, make_model
from flowbench.features import FeatureMatrix, fit_transform, stratified_split
from flowbench.metrics import CVResult, accuracy, balanced_accuracy, confusion, f1
from flowbench.synth import generate_records

FAST_MODELS = ["decision_tree", "extra_tree", "knn", "gaussian_nb", "dummy"]


def _matrix(rows, labels):
    rows = np.asarray(rows, dtype=float)
    return FeatureMatrix(
        rows=rows,
        labels=np.asarray(labels, dtype=np.int64),
        encoders={},
        scaler=None,
        encoded=rows,
    )


@pytest.fixture(scope="module")
def bench_setup():
    records = generate_records(300, seed=5, signal_strength=0.9)
    matrix = fit_transform(records, scale=True)
    plan = stratified_split(matrix.labels, 0.2, seed=42)
    return matrix, plan


def test_dummy_only_leaderboard_accuracy_is_majority_prevalence(bench_setup):
    matrix, plan = bench_setup
    leaderboard = run_benchmark(matrix, plan, ["dummy"], BenchOptions(seed=42))
    assert len(leaderboard.reports) == 1
    report = leaderboard.reports[0]
    test_labels = matrix.labels[plan.test_indices]
    train_labels = matrix.labels[plan.train_indices]
    majority = int(np.argmax(np.bincount(train_labels)))
    assert report.accuracy == float(np.mean(test_labels == majority))


def test_all_resolves_to_the_full_portfolio():
    from flowbench.bench import resolve_model_names
    from flowbench.classifiers import MODEL_NAMES

    assert resolve_model_names("all") == MODEL_NAMES
    assert len(MODEL_NAMES) == 14


def test_empty_model_set_rejected(bench_setup):
    matrix, plan = bench_setup
    with pytest.raises(ValueError, match="empty"):
        run_benchmark(matrix, plan, [], BenchOptions())
    with pytest.raises(ValueError, match="unknown model"):
        run_benchmark(matrix, plan, ["nope"], BenchOptions())


def test_duplicate_model_names_rejected(bench_setup):
    matrix, plan = bench_setup
    with pytest.raises(ValueError, match=r"^duplicate model name\(s\): dummy$"):
        run_benchmark(matrix, plan, ["dummy", "knn", "dummy"], BenchOptions())


@pytest.mark.parametrize(
    "options, message",
    [
        ({"folds": 2.5}, "folds must be a non-negative integer"),
        ({"folds": True}, "folds must be a non-negative integer"),
        ({"folds": -1}, "folds must be a non-negative integer"),
        ({"folds": 1}, "folds must be 0 or at least 2"),
        ({"workers": 1.5}, "workers must be a non-negative integer"),
        ({"workers": True}, "workers must be a non-negative integer"),
        ({"workers": 0}, "workers must be at least 1"),
    ],
)
def test_options_hold_folds_and_workers_to_integers(options, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        BenchOptions(**options)


def test_options_accept_folds_0_or_at_least_2_and_workers_at_least_1():
    for folds, workers in ((0, 1), (2, 1), (5, 4)):
        options = BenchOptions(folds=folds, workers=workers)
        assert (options.folds, options.workers) == (folds, workers)


def test_leaderboard_is_sorted_by_the_rule(bench_setup):
    matrix, plan = bench_setup
    leaderboard = run_benchmark(matrix, plan, FAST_MODELS, BenchOptions(seed=42))
    keys = [
        (-r.accuracy, -r.balanced_accuracy, r.model) for r in leaderboard.reports
    ]
    assert keys == sorted(keys)
    assert leaderboard.metadata["fingerprint"]["rows"] == matrix.labels.size


def test_report_metrics_lie_in_unit_interval_and_time_positive(bench_setup):
    matrix, plan = bench_setup
    leaderboard = run_benchmark(matrix, plan, FAST_MODELS, BenchOptions(seed=42))
    for r in leaderboard.reports:
        assert r.status == "ok"
        for value in (r.accuracy, r.balanced_accuracy, r.roc_auc_macro,
                      r.f1_weighted, r.f1_macro):
            assert 0.0 <= value <= 1.0
        assert r.time_taken_s > 0.0


def test_report_metrics_recompute_from_stored_state(bench_setup):
    matrix, plan = bench_setup
    leaderboard = run_benchmark(matrix, plan, FAST_MODELS, BenchOptions(seed=42))
    from flowbench.bench import macro_auc
    from flowbench.classifiers import make_model
    from flowbench.metrics import fit_and_score

    test_labels = matrix.labels[plan.test_indices]
    for r in leaderboard.reports:
        counts = np.asarray(r.confusion)
        assert abs(accuracy(counts) - r.accuracy) < 1e-12
        assert abs(balanced_accuracy(counts) - r.balanced_accuracy) < 1e-12
        assert abs(f1(counts, "weighted") - r.f1_weighted) < 1e-12
        assert abs(f1(counts, "macro") - r.f1_macro) < 1e-12
        scores, _, _ = fit_and_score(
            lambda: make_model(r.model, seed=42),
            matrix,
            plan.train_indices,
            plan.test_indices,
        )
        assert abs(macro_auc(test_labels, scores) - r.roc_auc_macro) < 1e-12


def test_model_failure_becomes_error_row():
    rows = np.tile(np.arange(8, dtype=float).reshape(-1, 1), (1, 2))
    labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    matrix = _matrix(rows, labels)
    plan = stratified_split(labels, 0.5, seed=0)  # train has only 4 rows; knn k=5 fails
    leaderboard = run_benchmark(matrix, plan, ["knn", "dummy"], BenchOptions(seed=1))
    by_name = {r.model: r for r in leaderboard.reports}
    assert by_name["knn"].status.startswith("error:")
    assert by_name["knn"].accuracy is None
    assert by_name["dummy"].status == "ok"
    assert leaderboard.reports[-1].model == "knn"  # error rows sink to the bottom


def test_cv_fold_failure_becomes_error_row():
    # knn (k=5) fits the 5-row holdout train split but not a 4-row CV fold.
    labels = np.array([0, 0, 1, 1, 2, 2, 2, 2])
    matrix = _matrix(np.arange(16, dtype=float).reshape(8, 2), labels)
    plan = stratified_split(labels, 0.1, 42)
    leaderboard = run_benchmark(matrix, plan, ["knn", "dummy"], BenchOptions(folds=2))
    by_name = {r.model: r for r in leaderboard.reports}
    assert by_name["knn"].status.startswith("error: fold")
    assert by_name["knn"].accuracy is None and by_name["knn"].cv is None
    assert by_name["dummy"].status == "ok"
    assert by_name["dummy"].cv.k == 2


def test_benchmark_deterministic_across_runs_and_workers(bench_setup):
    matrix, plan = bench_setup

    def snapshot(workers):
        lb = run_benchmark(
            matrix, plan, FAST_MODELS, BenchOptions(seed=42, workers=workers)
        )
        doc = to_json_dict(lb)
        for report in doc["reports"]:
            report.pop("time_taken_s")
        return json.dumps(doc)

    assert snapshot(1) == snapshot(1) == snapshot(4)


def test_four_workers_start_no_thread_and_match_one_worker(bench_setup, monkeypatch):
    matrix, plan = bench_setup
    fit_threads = []

    def recording_make_model(name, **kwargs):
        model = make_model(name, **kwargs)
        fit = model.fit

        def recording_fit(X, y):
            fit_threads.append((threading.current_thread(), threading.active_count()))
            return fit(X, y)

        model.fit = recording_fit
        return model

    monkeypatch.setattr(bench_module, "make_model", recording_make_model)
    threads_before = threading.active_count()
    boards = [
        to_json_dict(run_benchmark(matrix, plan, FAST_MODELS, BenchOptions(workers=workers)))
        for workers in (4, 1)
    ]
    assert len(fit_threads) == 2 * len(FAST_MODELS)
    assert set(fit_threads) == {(threading.main_thread(), threads_before)}
    for board in boards:
        for report in board["reports"]:
            report.pop("time_taken_s")
    assert boards[0] == boards[1]


def test_cv_attached_when_folds_requested(bench_setup):
    matrix, plan = bench_setup
    leaderboard = run_benchmark(
        matrix, plan, ["decision_tree", "dummy"], BenchOptions(seed=42, folds=3)
    )
    for r in leaderboard.reports:
        assert r.cv is not None
        assert r.cv.k == 3
        assert len(r.cv.fold_errors) == 3
        assert r.cv.cv_error == pytest.approx(np.mean(r.cv.fold_errors), abs=1e-12)


def test_render_empty_leaderboard_is_header_only():
    empty = Leaderboard(reports=[], metadata={"seed": 0})
    table = render(empty, "table")
    lines = table.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("Model")
    csv_text = render(empty, "csv")
    assert len(csv_text.strip().splitlines()) == 1


# Holdout confusion matrices of the 14 default models on bench_setup's data,
# recorded before the models' hyperparameters became class constants;
# logistic_regression's since its fit became Newton's method, and
# linear_svm_sgd's since it stops by scikit-learn's patience rule.
DEFAULT_MODEL_CONFUSIONS = {
    "bagging": [[19, 0, 2], [0, 18, 1], [0, 0, 21]],
    "bernoulli_nb": [[21, 0, 0], [2, 17, 0], [0, 0, 21]],
    "decision_tree": [[20, 0, 1], [0, 18, 1], [0, 0, 21]],
    "dummy": [[21, 0, 0], [19, 0, 0], [21, 0, 0]],
    "extra_tree": [[19, 1, 1], [1, 18, 0], [0, 0, 21]],
    "extra_trees": [[20, 0, 1], [0, 19, 0], [0, 0, 21]],
    "gaussian_nb": [[21, 0, 0], [1, 18, 0], [0, 0, 21]],
    "knn": [[20, 1, 0], [0, 19, 0], [0, 0, 21]],
    "linear_svm_sgd": [[21, 0, 0], [1, 17, 1], [0, 0, 21]],
    "logistic_regression": [[21, 0, 0], [0, 18, 1], [0, 0, 21]],
    "nearest_centroid": [[20, 1, 0], [0, 19, 0], [0, 0, 21]],
    "perceptron": [[21, 0, 0], [1, 17, 1], [0, 0, 21]],
    "random_forest": [[20, 0, 1], [0, 19, 0], [0, 0, 21]],
    "ridge": [[20, 0, 1], [1, 18, 0], [0, 0, 21]],
}


def test_every_default_model_keeps_its_pinned_holdout_confusion(bench_setup):
    matrix, plan = bench_setup
    leaderboard = run_benchmark(matrix, plan, "all", BenchOptions(seed=42))
    assert {r.model: r.confusion for r in leaderboard.reports} == (
        DEFAULT_MODEL_CONFUSIONS
    )


def test_render_table_uses_two_decimals(bench_setup):
    matrix, plan = bench_setup
    leaderboard = run_benchmark(matrix, plan, ["dummy"], BenchOptions(seed=42))
    lines = render(leaderboard, "table").strip().splitlines()
    assert len(lines) == 2
    cells = lines[1].split()
    assert cells[0] == "dummy"
    for cell in cells[1:]:
        whole, _, frac = cell.partition(".")
        assert len(frac) == 2


def test_render_rejects_unknown_format(bench_setup):
    matrix, plan = bench_setup
    leaderboard = run_benchmark(matrix, plan, ["dummy"], BenchOptions(seed=42))
    with pytest.raises(ValueError):
        render(leaderboard, "yaml")


def test_json_round_trip(bench_setup):
    matrix, plan = bench_setup
    leaderboard = run_benchmark(matrix, plan, FAST_MODELS, BenchOptions(seed=42))
    text = render(leaderboard, "json")
    assert leaderboard_from_json(text) == leaderboard
    with pytest.raises(ValueError, match="schema_version"):
        leaderboard_from_json(json.dumps({"schema_version": 99, "reports": []}))


def test_extra_tree_fits_faster_than_random_forest():
    records = generate_records(800, seed=11, signal_strength=0.8)
    matrix = fit_transform(records, scale=False)
    X, y = matrix.encoded, matrix.labels

    def median_fit_seconds(factory):
        samples = []
        for _ in range(3):
            model = factory()
            started = time.perf_counter()
            model.fit(X, y)
            samples.append(time.perf_counter() - started)
        return sorted(samples)[1]

    single = median_fit_seconds(lambda: ExtraTreeModel(seed=0))
    forest = median_fit_seconds(lambda: RandomForestModel(seed=0))
    assert single < forest


def _golden_leaderboard():
    return Leaderboard(
        reports=[
            EvalReport(
                model="random_forest",
                accuracy=0.9375,
                balanced_accuracy=0.9166666666666666,
                roc_auc_macro=0.98,
                f1_weighted=0.9371428571428572,
                f1_macro=0.9,
                time_taken_s=12.345,
                confusion=[[5, 0, 0], [1, 4, 0], [0, 0, 6]],
                cv=CVResult(k=3, fold_errors=[0.1, 0.05, 0.0], cv_error=0.05),
            ),
            EvalReport(
                model="dummy",
                accuracy=0.375,
                balanced_accuracy=1 / 3,
                roc_auc_macro=0.5,
                f1_weighted=0.20454545454545456,
                f1_macro=0.18181818181818182,
                time_taken_s=0.0001,
                confusion=[[0, 0, 5], [0, 0, 5], [0, 0, 6]],
            ),
            EvalReport(
                model="knn", status="error: fold 1: k=5 exceeds the training size (4)"
            ),
        ],
        metadata={
            "seed": 42,
            "test_fraction": 0.2,
            "folds": 3,
            "fingerprint": {"rows": 16, "column_hash": "0123456789abcdef"},
            "roc_auc_averaging": "macro one-vs-rest",
            "table_f1_averaging": "weighted",
        },
    )


def test_render_table_golden():
    assert render(_golden_leaderboard(), "table") == (
        "Model                                                  Accuracy"
        "  Balanced Accuracy  ROC AUC  F1 Score  Time Taken\n"
        "random_forest                                              0.94"
        "               0.92     0.98      0.94       12.35\n"
        "dummy                                                      0.38"
        "               0.33     0.50      0.20        0.00\n"
        "knn            error: fold 1: k=5 exceeds the training size (4)"
        "                                                  \n"
    )


def test_render_csv_golden():
    assert render(_golden_leaderboard(), "csv") == (
        "model,status,accuracy,balanced_accuracy,roc_auc_macro,f1_weighted,"
        "f1_macro,time_taken_s,cv_error\n"
        "random_forest,ok,0.9375,0.9166666666666666,0.98,0.9371428571428572,"
        "0.9,12.345,0.05\n"
        "dummy,ok,0.375,0.3333333333333333,0.5,0.20454545454545456,"
        "0.18181818181818182,0.0001,\n"
        "knn,error: fold 1: k=5 exceeds the training size (4),,,,,,,\n"
    )


def test_render_json_golden():
    # json.dumps of this literal pins the key order as well as the values.
    expected = {
        "schema_version": 1,
        "metadata": _golden_leaderboard().metadata,
        "reports": [
            {
                "model": "random_forest",
                "status": "ok",
                "accuracy": 0.9375,
                "balanced_accuracy": 0.9166666666666666,
                "roc_auc_macro": 0.98,
                "f1_weighted": 0.9371428571428572,
                "f1_macro": 0.9,
                "time_taken_s": 12.345,
                "confusion": [[5, 0, 0], [1, 4, 0], [0, 0, 6]],
                "cv": {"k": 3, "fold_errors": [0.1, 0.05, 0.0], "cv_error": 0.05},
            },
            {
                "model": "dummy",
                "status": "ok",
                "accuracy": 0.375,
                "balanced_accuracy": 0.3333333333333333,
                "roc_auc_macro": 0.5,
                "f1_weighted": 0.20454545454545456,
                "f1_macro": 0.18181818181818182,
                "time_taken_s": 0.0001,
                "confusion": [[0, 0, 5], [0, 0, 5], [0, 0, 6]],
            },
            {
                "model": "knn",
                "status": "error: fold 1: k=5 exceeds the training size (4)",
                "accuracy": None,
                "balanced_accuracy": None,
                "roc_auc_macro": None,
                "f1_weighted": None,
                "f1_macro": None,
                "time_taken_s": None,
                "confusion": None,
            },
        ],
    }
    text = render(_golden_leaderboard(), "json")
    assert text == json.dumps(expected, indent=2)
    assert leaderboard_from_json(text) == _golden_leaderboard()


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda reports: reports[1].pop("status"), "report 1 is not an object"),
        (lambda reports: reports[1].update(fit_s=0.1), "report 1 is not an object"),
        (lambda reports: reports.append("knn"), "report 3 is not an object"),
        (lambda reports: reports[0].update(cv=[0.1, 0.05, 0.0]), "report 0 cv is not"),
        (lambda reports: reports[0]["cv"].pop("k"), "report 0 cv is not"),
        (lambda reports: reports[1].update(accuracy="high"), "report 1 field accuracy is 'high'"),
        (lambda reports: reports[1].update(f1_macro=True), "report 1 field f1_macro is True"),
        (lambda reports: reports[1].update(model=7), "report 1 field model is 7"),
        (lambda reports: reports[2].update(status=None), "report 2 field status is None"),
        (lambda reports: reports[0]["cv"].update(k=False), "report 0 cv field k is False"),
    ],
    ids=["missing field", "unknown field", "report not an object", "cv not an object",
         "cv missing a field", "metric not a number", "metric a bool", "model not a string",
         "status not a string", "cv k a bool"],
)
def test_malformed_leaderboard_report_is_value_error(damage, message):
    document = json.loads(render(_golden_leaderboard(), "json"))
    damage(document["reports"])
    with pytest.raises(ValueError, match=message):
        leaderboard_from_json(json.dumps(document))


def _without(document: dict, key: str) -> dict:
    return {name: value for name, value in document.items() if name != key}


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda document: [], "is a JSON object"),
        (lambda document: _without(document, "reports"), "reports must be a list"),
        (lambda document: {**document, "reports": 5}, "reports must be a list"),
        (lambda document: _without(document, "metadata"), "metadata must be an object"),
        (lambda document: {**document, "metadata": [1]}, "metadata must be an object"),
    ],
    ids=["document a list", "no reports", "reports a number", "no metadata",
         "metadata not an object"],
)
def test_malformed_leaderboard_document_is_value_error(damage, message):
    document = json.loads(render(_golden_leaderboard(), "json"))
    with pytest.raises(ValueError, match=message):
        leaderboard_from_json(json.dumps(damage(document)))
