import numpy as np
import pytest

from flowbench.classifiers import KNNModel
from flowbench.features import FeatureMatrix
from flowbench.metrics import (
    accuracy,
    balanced_accuracy,
    confusion,
    correlation_matrix,
    correlation_to_csv,
    cv_evaluate,
    f1,
    mse,
    roc_curve,
    roc_curves,
    roc_to_csv,
)


def mann_whitney_auc(y_true, scores, positive_class):
    """Pair-counting oracle: fraction of (positive, negative) pairs ranked
    correctly, ties counted half."""
    y_true = np.asarray(y_true)
    s = np.asarray(scores, dtype=float)
    positives = s[y_true == positive_class]
    negatives = s[y_true != positive_class]
    wins = 0.0
    for p in positives:
        for q in negatives:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(positives) * len(negatives))


def _plain_matrix(rows, labels):
    rows = np.asarray(rows, dtype=float)
    labels = np.asarray(labels, dtype=np.int64)
    return FeatureMatrix(
        rows=rows,
        labels=labels,
        encoders={},
        scaler=None,
        encoded=rows,
    )


# mse ---------------------------------------------------------------------------


def test_mse_zero_when_equal():
    assert mse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0


def test_mse_hand_value():
    assert mse([1, 2, 3], [1, 2, 4]) == pytest.approx(1 / 3, abs=1e-12)


def test_mse_constant_shift_identity(rng):
    y = rng.normal(size=50)
    for c in (0.5, -2.0, 7.0):
        assert mse(y, y + c) == pytest.approx(c * c, rel=1e-12)


def test_mse_length_mismatch():
    with pytest.raises(ValueError):
        mse([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        mse([], [])


# confusion and derived metrics ---------------------------------------------


def test_confusion_perfect_predictions_are_diagonal():
    cm = confusion([0, 1, 2, 1], [0, 1, 2, 1], 3)
    assert cm.dtype == np.int64
    assert np.array_equal(cm, np.diag([1, 2, 1]))


def test_confusion_hand_case():
    cm = confusion([0, 0, 1], [0, 1, 1], 2)
    assert cm.tolist() == [[1, 1], [0, 1]]
    assert accuracy(cm) == pytest.approx(2 / 3, abs=1e-12)
    assert balanced_accuracy(cm) == pytest.approx(3 / 4, abs=1e-12)
    assert f1(cm, "macro") == pytest.approx(2 / 3, abs=1e-12)


def test_confusion_rejects_out_of_range_codes():
    with pytest.raises(ValueError):
        confusion([0, 3], [0, 1], 3)
    with pytest.raises(ValueError):
        confusion([0, 1], [0], 2)


def test_perfect_matrix_scores_one():
    cm = confusion([0, 1, 2], [0, 1, 2], 3)
    assert accuracy(cm) == 1.0
    assert balanced_accuracy(cm) == 1.0
    assert f1(cm, "macro") == 1.0
    assert f1(cm, "weighted") == 1.0


def test_accuracy_matches_loop_oracle(rng):
    for _ in range(30):
        n = int(rng.integers(1, 80))
        y = rng.integers(0, 4, size=n)
        p = rng.integers(0, 4, size=n)
        counted = sum(1 for a, b in zip(y, p) if a == b) / n
        assert accuracy(confusion(y, p, 4)) == counted


def test_constant_predictor_balanced_accuracy_is_one_over_k(rng):
    for k in (2, 3, 5):
        y = rng.integers(0, k, size=120)
        while np.unique(y).size < k:
            y = rng.integers(0, k, size=120)
        predicted = np.full(120, int(rng.integers(0, k)))
        cm = confusion(y, predicted, k)
        assert balanced_accuracy(cm) == pytest.approx(1 / k, abs=1e-12)


def test_balanced_accuracy_and_macro_f1_average_over_classes_present():
    cm = confusion([0, 0], [0, 1], 2)
    # Recall of class 0 only: class 1 never occurs in the truth.
    assert balanced_accuracy(cm) == 0.5
    # Class 1 is predicted, so it counts with F1 0: mean(2/3, 0).
    assert f1(cm, "macro") == pytest.approx(1 / 3, abs=1e-15)
    assert f1(cm, "weighted") == pytest.approx(2 / 3, abs=1e-15)
    # A class in neither the truth nor the predictions drops out of both.
    wide = confusion([1, 1, 2, 2], [1, 2, 2, 2], 3)
    assert balanced_accuracy(wide) == 0.75
    assert f1(wide, "macro") == pytest.approx((2 / 3 + 0.8) / 2, abs=1e-15)


def test_present_class_averages_match_loop_oracle(rng):
    for _ in range(40):
        n = int(rng.integers(1, 40))
        y = rng.integers(0, 4, size=n)
        p = rng.integers(0, 4, size=n)
        cm = confusion(y, p, 5)
        truth = sorted(set(y.tolist()))
        recalls = [np.mean(p[y == c] == c) for c in truth]
        assert balanced_accuracy(cm) == pytest.approx(np.mean(recalls), abs=1e-12)
        scores = []
        for c in sorted(set(y.tolist()) | set(p.tolist())):
            tp = np.sum((y == c) & (p == c))
            denominator = np.sum(y == c) + np.sum(p == c)
            scores.append(2 * tp / denominator)
        assert f1(cm, "macro") == pytest.approx(np.mean(scores), abs=1e-12)


def test_f1_zero_when_precision_and_recall_are_zero():
    # class 0 is never predicted and never hit: precision = recall = 0 -> F1 0
    cm = confusion([0, 0, 1, 1, 1], [1, 1, 1, 1, 1], 2)
    per_class_1 = 2 * (3 / 5) * 1.0 / ((3 / 5) + 1.0)
    assert f1(cm, "macro") == pytest.approx(per_class_1 / 2, abs=1e-12)
    assert f1(cm, "weighted") == pytest.approx(per_class_1 * 3 / 5, abs=1e-12)


def test_empty_matrix_errors():
    cm = confusion([], [], 2)
    for fn in (accuracy, balanced_accuracy):
        with pytest.raises(ValueError, match="empty"):
            fn(cm)
    with pytest.raises(ValueError, match="empty"):
        f1(cm)


# roc -------------------------------------------------------------------------


def test_roc_perfect_ranking_has_auc_one():
    y = [1, 1, 0, 0]
    scores = np.array([[0.1, 0.9], [0.2, 0.8], [0.9, 0.1], [0.7, 0.3]])
    entry = roc_curve(y, scores, 1)
    assert entry.auc == pytest.approx(1.0, abs=1e-12)


def test_roc_constant_scores_have_auc_half():
    y = [0, 1, 0, 1, 1]
    scores = np.zeros((5, 2))
    entry = roc_curve(y, scores, 1)
    assert entry.auc == pytest.approx(0.5, abs=1e-12)


def test_roc_curve_shape_and_monotonicity(rng):
    y = rng.integers(0, 2, size=40)
    y[:2] = [0, 1]
    scores = rng.normal(size=(40, 2))
    entry = roc_curve(y, scores, 1)
    assert entry.fpr[0] == 0.0 and entry.tpr[0] == 0.0
    assert entry.fpr[-1] == 1.0 and entry.tpr[-1] == 1.0
    assert np.all(np.diff(entry.fpr) >= 0)
    assert np.all(np.diff(entry.tpr) >= 0)
    assert 0.0 <= entry.auc <= 1.0


def test_roc_matches_mann_whitney_oracle(rng):
    for _ in range(100):
        n = int(rng.integers(4, 51))
        y = rng.integers(0, 3, size=n)
        while np.unique(y).size < 2:
            y = rng.integers(0, 3, size=n)
        # small score vocabulary to exercise tie handling
        scores = rng.integers(0, 6, size=(n, 3)).astype(float)
        present = np.unique(y)
        c = int(present[int(rng.integers(present.size))])
        entry = roc_curve(y, scores, c)
        oracle = mann_whitney_auc(y, scores[:, c], c)
        assert entry.auc == pytest.approx(oracle, abs=1e-12)


def test_roc_negated_scores_complement_auc(rng):
    y = rng.integers(0, 2, size=30)
    y[:2] = [0, 1]
    scores = rng.normal(size=30)  # continuous, ties almost surely absent
    forward = roc_curve(y, np.column_stack([-scores, scores]), 1)
    backward = roc_curve(y, np.column_stack([scores, -scores]), 1)
    assert forward.auc + backward.auc == pytest.approx(1.0, abs=1e-12)


def test_roc_single_class_errors():
    with pytest.raises(ValueError):
        roc_curve([1, 1, 1], np.zeros((3, 2)), 1)


def test_roc_curves_macro_is_mean_of_per_class(rng):
    y = rng.integers(0, 3, size=60)
    while np.unique(y).size < 3:
        y = rng.integers(0, 3, size=60)
    scores = rng.normal(size=(60, 3))
    curve = roc_curves(y, scores)
    aucs = [points.auc for points in curve.per_class]
    assert curve.macro_auc == pytest.approx(float(np.mean(aucs)), abs=1e-15)
    text = roc_to_csv(curve, ["A", "S", "SS"])
    assert text.splitlines()[0] == "class,auc,threshold,fpr,tpr"
    assert text.count("\nA,") >= 1


# cross-validation -------------------------------------------------------------


def test_cv_identical_fold_errors():
    result_errors = [0.25, 0.25, 0.25]
    from flowbench.metrics import CVResult

    result = CVResult(k=3, fold_errors=result_errors, cv_error=float(np.mean(result_errors)))
    assert result.cv_error == 0.25


def test_cv_error_is_mean_of_fold_errors():
    assert float(np.mean([0.1, 0.2, 0.3])) == pytest.approx(0.2, abs=1e-12)


def test_cv_evaluate_leave_one_out_matches_brute_force_1nn():
    x = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0]).reshape(-1, 1)
    y = np.array([0, 0, 1, 1, 0, 0, 1, 1])
    matrix = _plain_matrix(x, y)
    folds = np.arange(x.shape[0])
    result = cv_evaluate(
        lambda: KNNModel(k=1),
        matrix,
        folds,
        lambda yt, yp: float(np.mean(yt != yp)),
    )
    expected = []
    for i in range(x.shape[0]):
        others = [j for j in range(x.shape[0]) if j != i]
        nearest = min(others, key=lambda j: (abs(x[j, 0] - x[i, 0]), j))
        expected.append(float(y[nearest] != y[i]))
    assert result.fold_errors == expected
    assert result.cv_error == pytest.approx(float(np.mean(expected)), abs=1e-12)


def test_cv_error_invariant_under_fold_relabeling(rng):
    x = rng.normal(size=(30, 2))
    y = rng.integers(0, 2, size=30)
    matrix = _plain_matrix(x, y)
    folds = np.repeat(np.arange(3), 10)
    base = cv_evaluate(lambda: KNNModel(k=3), matrix, folds,
                       lambda yt, yp: float(np.mean(yt != yp)))
    relabeled = (folds + 1) % 3
    again = cv_evaluate(lambda: KNNModel(k=3), matrix, relabeled,
                        lambda yt, yp: float(np.mean(yt != yp)))
    assert base.cv_error == pytest.approx(again.cv_error, abs=1e-15)
    assert sorted(base.fold_errors) == sorted(again.fold_errors)


def test_cv_evaluate_attaches_fold_index_to_failures():
    x = np.zeros((6, 1))
    y = np.array([0, 0, 0, 1, 1, 1])
    matrix = _plain_matrix(x, y)
    folds = np.array([0, 0, 0, 1, 1, 1])

    def factory():
        return KNNModel(k=5)  # training folds have only 3 rows

    with pytest.raises(RuntimeError, match="fold 0"):
        cv_evaluate(factory, matrix, folds, lambda yt, yp: 0.0)


# correlation ---------------------------------------------------------------


def test_correlation_self_and_linear_map(rng):
    x = rng.normal(size=100)
    data = np.column_stack([x, 2.0 * x + 3.0, rng.normal(size=100)])
    corr = correlation_matrix(data, ["x", "y", "z"])
    assert corr.values[0, 0] == 1.0
    assert corr.values[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert not corr.constant.any()


def test_correlation_is_symmetric_with_unit_diagonal(rng):
    data = rng.normal(size=(50, 5))
    corr = correlation_matrix(data, list("abcde"))
    assert np.array_equal(corr.values, corr.values.T)
    assert np.all(np.diag(corr.values) == 1.0)
    assert np.all(np.abs(corr.values) <= 1.0 + 1e-12)


def test_correlation_matches_numpy_on_clean_data(rng):
    data = rng.normal(size=(80, 4))
    corr = correlation_matrix(data, list("abcd"))
    np.testing.assert_allclose(corr.values, np.corrcoef(data, rowvar=False), atol=1e-12)


def test_constant_column_is_flagged_and_zeroed(rng):
    data = np.column_stack([np.full(20, 7.0), rng.normal(size=20)])
    corr = correlation_matrix(data, ["const", "x"])
    assert corr.constant.tolist() == [True, False]
    assert corr.values[0, 1] == 0.0
    assert corr.values[1, 0] == 0.0
    assert corr.values[0, 0] == 1.0


def test_correlation_requires_two_rows():
    with pytest.raises(ValueError):
        correlation_matrix(np.zeros((1, 3)), list("abc"))


def test_correlation_csv_lists_all_pairs(rng):
    data = rng.normal(size=(10, 3))
    corr = correlation_matrix(data, list("abc"))
    lines = correlation_to_csv(corr).strip().splitlines()
    assert lines[0] == "column_a,column_b,correlation,involves_constant"
    assert len(lines) - 1 == 6  # 3 diagonal + 3 upper-triangle pairs
