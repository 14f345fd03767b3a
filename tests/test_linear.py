import math
import warnings

import numpy as np
import pytest

from flowbench.classifiers import (
    LinearSVMModel,
    LogisticRegressionModel,
    PerceptronModel,
    RidgeModel,
    linear,
    margin,
)
from flowbench.features import fit_transform, stratified_split
from flowbench.synth import generate_records

try:
    from hypothesis import assume, given, settings
    from hypothesis import strategies as st
    from hypothesis.extra.numpy import arrays
except ImportError:  # CI installs hypothesis; without it only the property test is skipped
    given = None

SGD_CLASSES = (LinearSVMModel, PerceptronModel)
# Every model whose fit iterates up to max_epochs: the SGD pair and Newton's logistic regression.
ITERATIVE_CLASSES = (LinearSVMModel, LogisticRegressionModel, PerceptronModel)


def _blobs(rng, n_per_class=30, spread=0.3):
    a = rng.normal(loc=(-2.0, -2.0), scale=spread, size=(n_per_class, 2))
    b = rng.normal(loc=(2.0, 2.0), scale=spread, size=(n_per_class, 2))
    X = np.vstack([a, b])
    y = np.array([0] * n_per_class + [1] * n_per_class)
    return X, y


@pytest.mark.parametrize("cls", ITERATIVE_CLASSES)
def test_separable_blobs_reach_perfect_training_accuracy(cls, rng):
    X, y = _blobs(rng)
    model = cls(max_epochs=200, seed=1).fit(X, y)
    assert np.mean(model.predict(X) == y) == 1.0


@pytest.mark.parametrize("cls", ITERATIVE_CLASSES)
def test_constant_labels_predict_that_label(cls):
    X = np.array([[0.1, -0.3], [0.4, 0.2], [-0.5, 0.6]])
    y = np.array([2, 2, 2])
    model = cls(max_epochs=5, seed=0).fit(X, y)
    assert model.predict(X).tolist() == [2, 2, 2]


@pytest.mark.parametrize("cls", ITERATIVE_CLASSES)
def test_non_finite_features_rejected(cls):
    X = np.array([[0.0, np.nan], [1.0, 2.0]])
    y = np.array([0, 1])
    with pytest.raises(ValueError, match="non-finite"):
        cls().fit(X, y)


@pytest.mark.parametrize("cls", ITERATIVE_CLASSES)
def test_same_seed_gives_identical_weights(cls, rng):
    X, y = _blobs(rng, n_per_class=20)
    a = cls(max_epochs=30, seed=9).fit(X, y)
    b = cls(max_epochs=30, seed=9).fit(X, y)
    np.testing.assert_array_equal(a.weights_, b.weights_)
    np.testing.assert_array_equal(a.bias_, b.bias_)


def test_fitted_svm_margin_is_positive(rng):
    X, y = _blobs(rng)
    model = LinearSVMModel(max_epochs=200, seed=2).fit(X, y)
    for cls in (0, 1):
        assert margin(model, cls) > 0.0


def test_margin_hand_values():
    model = LinearSVMModel()
    model.classes_ = np.array([0, 1])
    model.n_features_ = 2
    model.weights_ = np.array([[2.0, 0.0], [0.6, 0.8]])
    model.bias_ = np.zeros(2)
    assert margin(model, 0) == pytest.approx(1.0, abs=1e-12)
    assert margin(model, 1) == pytest.approx(2.0, abs=1e-12)


def test_margin_scales_inversely_with_weight_scale():
    model = LinearSVMModel()
    model.classes_ = np.array([0])
    model.n_features_ = 3
    base = np.array([[1.0, 2.0, 2.0]])
    model.weights_ = base
    model.bias_ = np.zeros(1)
    reference = margin(model, 0)
    for c in (2.0, 5.0, 10.0):
        model.weights_ = c * base
        assert margin(model, 0) == pytest.approx(reference / c, rel=1e-12)


def test_margin_rejects_zero_weights_and_unknown_class():
    model = LinearSVMModel()
    model.classes_ = np.array([0])
    model.n_features_ = 2
    model.weights_ = np.zeros((1, 2))
    model.bias_ = np.zeros(1)
    with pytest.raises(ValueError, match="zero weight"):
        margin(model, 0)
    with pytest.raises(ValueError, match="not seen"):
        margin(model, 5)


def test_logistic_scores_are_normalized(rng):
    X, y = _blobs(rng, n_per_class=15)
    model = LogisticRegressionModel(max_epochs=20, seed=0).fit(X, y)
    scores = model.predict_scores(X)
    np.testing.assert_allclose(scores.sum(axis=1), 1.0, atol=1e-9)


# window SGD kernel against the row-by-row loop --------------------------------


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -35.0, 35.0)))


def _log_objective(X, targets, W, b, l2=1e-4) -> float:
    """README's logistic objective, summed over the one-vs-rest problems: each
    class's mean log loss of its +/-1 targets plus l2/2 ||w||^2, bias unpenalized."""
    margins = targets * (X @ W.T + b)
    return float(np.logaddexp(0.0, -margins).sum() / X.shape[0] + 0.5 * l2 * np.sum(W * W))


def _reference_fit(model, X, y, ties=None):
    """The row-by-row SGD loop that the window kernel replaced, as an oracle.

    Runs `model`'s settings on (X, y) without touching the kernel and
    returns the weights, the biases and the number of epochs run. Every loss
    decays the weights by 1 - lr_t * l2 before its step; the perceptron's l2
    is 0. A model whose `_loss` is set to "log" runs per-sample logistic
    SGD, which the kernel does not implement: the weights logistic_regression's
    Newton fit must match or beat on its objective. A `ties` list gets, for
    each hinge or perceptron epoch, whether a score in it tied at the edge
    (see `_reference_pass`).
    """
    model.classes_, codes = np.unique(y, return_inverse=True)
    n, d = X.shape
    k = model.classes_.size
    targets = model._targets(codes)
    W = np.zeros((k, d), dtype=np.float64)
    b = np.zeros(k, dtype=np.float64)
    rng = np.random.default_rng(model.seed)
    lam = model.l2
    loss_kind = model._loss
    step = 0
    best = math.inf
    stale = epochs = 0
    for _ in range(model.max_epochs):
        epochs += 1
        order = rng.permutation(n)
        rates = model.learning_rate / np.sqrt(np.arange(step + 1, step + n + 1))
        step += n
        epoch_rows = X[order]
        epoch_targets = targets[order]
        decays = 1.0 - rates * lam
        if loss_kind == "log":
            for x, t, lr, decay in zip(epoch_rows, epoch_targets, rates, decays):
                g = _sigmoid(W @ x + b) - (t + 1.0) / 2.0
                W *= decay
                W -= (lr * g)[:, None] * x
                b -= lr * g
        else:
            tied = _reference_pass(loss_kind, W, b, epoch_rows, epoch_targets, rates, decays)
            if ties is not None:
                ties.append(tied)
        if loss_kind == "log":
            loss = _log_objective(X, targets, W, b, lam)
        else:
            loss = model._objective(X, targets, W, b)
        # scikit-learn's patience rule: stop after n_iter_no_change epochs in
        # a row whose objective is not below the best so far minus tol.
        if loss < best - model.tol:
            stale = 0
        else:
            stale += 1
        if loss < best:
            best = loss
        if stale == model.n_iter_no_change:
            break
    return W, b, epochs


def _reference_pass(loss_kind, W, b, rows, row_targets, rates, decays):
    """One hinge or perceptron step per row, in order, on W and b in place.

    Returns whether some score was a tie: within 1e-9 of the edge relative
    to the size of the terms it sums, so that rounding alone decided its step.
    """
    edge = 1.0 if loss_kind == "hinge" else 0.0
    tied = False
    for x, t, lr, decay in zip(rows, row_targets, rates, decays):
        z = t * (W @ x + b)
        tied |= bool(np.any(np.abs(z - edge) < 1e-9 * (np.abs(W) @ np.abs(x) + np.abs(b))))
        pull = ((z < 1.0) if loss_kind == "hinge" else (z <= 0.0)) * (lr * t)
        W *= decay
        W += pull[:, None] * x
        b += pull
    return tied


def _sgd(cls, max_epochs=1000, seed=0, **constants):
    """An SGD model with some of its class constants replaced on the instance.

    The kernel reads learning_rate, l2 and tol from the model, so this
    exercises it beyond the fixed defaults.
    """
    model = cls(max_epochs=max_epochs, seed=seed)
    for name, value in constants.items():
        setattr(model, name, value)
    return model


def _assert_matches_reference(model, W, b):
    np.testing.assert_allclose(model.weights_, W, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(model.bias_, b, rtol=1e-9, atol=1e-12)


def _portfolio_rows(seed, scale):
    """The training rows of the portfolio-1k benchmark at a data seed: 1,000
    synthetic records (signal 0.9), minus the default 20% holdout (seed 42)."""
    records = generate_records(1000, seed=seed, signal_strength=0.9)
    matrix = fit_transform(records, scale=scale)
    plan = stratified_split(matrix.labels, 0.2, 42)
    return matrix.rows[plan.train_indices], matrix.labels[plan.train_indices]


@pytest.fixture(scope="module")
def portfolio_train_rows():
    """portfolio-1k's z-scored training rows at its default data seed, 7."""
    return _portfolio_rows(7, scale=True)


def _small_case(name):
    rng = np.random.default_rng(3)
    if name == "n17":  # part of one window
        return rng.normal(size=(17, 4)), rng.integers(0, 3, size=17)
    if name == "n1":
        return rng.normal(size=(1, 3)), np.array([2])
    if name == "one_class":
        return rng.normal(size=(20, 3)), np.full(20, 1)
    X, y = _blobs(rng, n_per_class=15, spread=1.5)  # two overlapping classes
    return X, y


@pytest.mark.parametrize("cls", SGD_CLASSES)
def test_kernel_matches_reference_on_portfolio_rows(cls, portfolio_train_rows):
    X, y = portfolio_train_rows
    model = cls(max_epochs=50).fit(X, y)
    W, b, _ = _reference_fit(cls(max_epochs=50), X, y)
    _assert_matches_reference(model, W, b)


@pytest.mark.parametrize("case", ["n17", "n1", "one_class", "two_classes"])
@pytest.mark.parametrize("cls", SGD_CLASSES)
def test_kernel_matches_reference_on_small_inputs(cls, case):
    X, y = _small_case(case)
    model = cls(max_epochs=300, seed=4).fit(X, y)
    W, b, _ = _reference_fit(cls(max_epochs=300, seed=4), X, y)
    _assert_matches_reference(model, W, b)


@pytest.mark.parametrize("cls", SGD_CLASSES)
def test_kernel_matches_reference_when_rows_clear_the_margin_under_strong_l2(cls):
    # Separable classes under strong L2: runs of rows take no step while the
    # lazy scale shrinks, so their scores come from the scale alone.
    X, y = _blobs(np.random.default_rng(1), n_per_class=20, spread=0.5)
    model = _sgd(cls, 60, l2=5.0).fit(X, y)
    W, b, _ = _reference_fit(_sgd(cls, 60, l2=5.0), X, y)
    _assert_matches_reference(model, W, b)


@pytest.fixture(scope="module")
def portfolio_reference_fits(portfolio_train_rows):
    """The oracle's default fit of each SGD model on portfolio-1k's training rows."""
    X, y = portfolio_train_rows
    return {cls: _reference_fit(cls(), X, y) for cls in SGD_CLASSES}


def _counting_passes(monkeypatch):
    """Wrap `_sgd_pass` so that each call, one per epoch, is counted in the returned list."""
    passes = []
    real_pass = linear._SGDBase._sgd_pass

    def counting_pass(self, *args):
        passes.append(1)
        real_pass(self, *args)

    monkeypatch.setattr(linear._SGDBase, "_sgd_pass", counting_pass)
    return passes


def test_tol_stops_at_the_reference_epoch(
    portfolio_train_rows, portfolio_reference_fits, monkeypatch
):
    X, y = portfolio_train_rows
    passes = _counting_passes(monkeypatch)
    for cls, pinned in ((LinearSVMModel, 91), (PerceptronModel, 6)):
        W, b, epochs = portfolio_reference_fits[cls]
        assert epochs == pinned  # the patience rule, not the cap, ended the reference run
        passes.clear()
        model = cls().fit(X, y)
        assert len(passes) == epochs
        _assert_matches_reference(model, W, b)
        # One epoch more or less gives weights the tolerance tells apart.
        for other in (epochs - 1, epochs + 1):
            W_other = _sgd(cls, other, tol=-math.inf).fit(X, y).weights_
            assert not np.allclose(model.weights_, W_other, rtol=1e-9, atol=1e-12)


def test_linear_svm_stops_well_before_the_epoch_cap(
    portfolio_train_rows, portfolio_reference_fits, monkeypatch
):
    # The 1e-6 stop of earlier versions never fired on these rows, so every
    # fit ran all 1,000 epochs; a rule that stops late fails here.
    X, y = portfolio_train_rows
    passes = _counting_passes(monkeypatch)
    LinearSVMModel().fit(X, y)
    assert len(passes) == portfolio_reference_fits[LinearSVMModel][2] < 200


@pytest.mark.parametrize(
    "objectives, stop",
    [
        # the five epochs after the first are stale, though each but the
        # first of them is below the one before it
        ([5.0, 6.0, 5.5, 5.9, 5.2, 5.1, 1.0], 6),
        # worse epochs inside the patience window do not stop the fit, and
        # an epoch below best - tol starts the count again
        ([5.0, 6.0, 6.0, 6.0, 6.0, 4.0, 4.0, 4.0, 4.0, 4.0, 4.0, 1.0], 11),
        # an epoch below the best by less than tol is stale, but lowers the
        # best: 4.9988 is below 5.0 - tol, yet not below 4.9996 - tol
        ([5.0, 4.9996, 4.9988, 4.9988, 4.9988, 4.9988, 1.0], 6),
    ],
    ids=["stale", "reset", "best-moves"],
)
@pytest.mark.parametrize("cls", SGD_CLASSES)
def test_fit_stops_after_five_stale_epochs_in_a_row(cls, objectives, stop, monkeypatch):
    X, y = _small_case("two_classes")
    cap = len(objectives) + 20

    def script_objectives():
        script = iter(objectives + [1.0] * 20)
        monkeypatch.setattr(cls, "_objective", lambda self, *args: next(script))

    script_objectives()
    passes = _counting_passes(monkeypatch)
    model = cls(max_epochs=cap).fit(X, y)
    assert len(passes) == stop
    script_objectives()
    assert _reference_fit(cls(max_epochs=cap), X, y)[2] == stop
    # The weights at the stop are the last epoch's.
    monkeypatch.undo()
    _assert_matches_reference(model, *_reference_fit(_sgd(cls, stop, tol=-math.inf), X, y)[:2])


@pytest.mark.parametrize(
    "params",
    [
        {"l2": 150.0},  # the first decays are negative: the scale changes sign
        {"l2": 0.0},
        {"max_epochs": 0},
    ],
    ids=["l2=150", "l2=0", "max_epochs=0"],
)
@pytest.mark.parametrize("cls", SGD_CLASSES)
def test_edge_hyperparameters_fit_finite_reference_weights(cls, params):
    rng = np.random.default_rng(8)
    X = rng.normal(size=(40, 5))
    y = rng.integers(0, 3, size=40)
    params = {"max_epochs": 60, **params}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = _sgd(cls, **params).fit(X, y)
        W, b, _ = _reference_fit(_sgd(cls, **params), X, y)
    assert np.isfinite(model.weights_).all() and np.isfinite(model.bias_).all()
    _assert_matches_reference(model, W, b)


@pytest.mark.parametrize(
    "n", [linear.WINDOW_ROWS + extra for extra in (-1, 0, 1)] + [2 * linear.WINDOW_ROWS + 1]
)
@pytest.mark.parametrize("cls", SGD_CLASSES)
def test_kernel_matches_reference_around_window_sizes(cls, n):
    rng = np.random.default_rng(n)
    X, y = rng.normal(size=(n, 4)), rng.integers(0, 3, size=n)
    model = cls(max_epochs=100, seed=6).fit(X, y)
    W, b, _ = _reference_fit(cls(max_epochs=100, seed=6), X, y)
    _assert_matches_reference(model, W, b)


def test_late_training_pass_is_decided_by_the_bound(portfolio_train_rows, monkeypatch):
    # One pass at the rates of step 800,000 on, the last epoch of a
    # 1,000-epoch fit on these 800 rows, from fitted weights.
    X, y = portfolio_train_rows
    fitted = LinearSVMModel(max_epochs=100).fit(X, y)
    targets = fitted._targets(y)
    order = np.random.default_rng(11).permutation(y.size)
    rates = LinearSVMModel.learning_rate / np.sqrt(np.arange(800_001, 800_001 + y.size))
    W, b = fitted.weights_.copy(), fitted.bias_.copy()
    _reference_pass("hinge", W, b, X[order], targets[order], rates, 1.0 - rates * fitted.l2)

    walked = []
    real_walk = linear._walk

    def counting_walk(c, z, undecided, *rest):
        walked.append(np.count_nonzero(undecided))
        real_walk(c, z, undecided, *rest)

    monkeypatch.setattr(linear, "_walk", counting_walk)
    theta = np.hstack([fitted.weights_, fitted.bias_[:, None]])
    rows = np.hstack([X, np.ones((y.size, 1))])
    fitted._sgd_pass(theta, rows[order], targets[order], rates)
    fitted.weights_, fitted.bias_ = theta[:, :-1], theta[:, -1]
    _assert_matches_reference(fitted, W, b)
    assert sum(walked) <= 0.01 * targets.size  # Python walks at most 1% of the pairs


def test_a_decay_of_zero_is_a_value_error():
    # l2 = 100 gives the first row the decay 1 - 0.01 * 100 = 0.
    X, y = _blobs(np.random.default_rng(2), n_per_class=5)
    with pytest.raises(ValueError, match="out of float64's range"):
        _sgd(LinearSVMModel, 5, l2=100.0).fit(X, y)


if given is not None:

    @st.composite
    def _drawn_rows(draw):
        """Rows on an integer grid or not, some duplicated, so scores can tie at the edge."""
        n = draw(st.integers(1, 3 * linear.WINDOW_ROWS + 1))
        d = draw(st.integers(1, 6))
        values = st.integers(-2, 2).map(float) if draw(st.booleans()) else st.floats(-3, 3)
        X = draw(arrays(np.float64, (n, d), elements=values))
        row = st.integers(0, n - 1)
        for target, source in draw(st.lists(st.tuples(row, row), max_size=6)):
            X[target] = X[source]
        y = draw(arrays(np.int64, n, elements=st.integers(0, draw(st.integers(0, 2)))))
        return X, y

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        st.sampled_from(SGD_CLASSES),
        _drawn_rows(),
        st.sampled_from([0.0, 1e-4, 5.0, 150.0]),
        st.sampled_from([0.01, 0.5]),
        st.integers(1, 30),
    )
    def test_kernel_matches_reference_on_drawn_inputs(cls, rows, l2, learning_rate, epochs):
        # Every epoch runs (tol -inf): objectives equal to rounding may fall
        # either side of tol, and test_tol_stops_at_the_reference_epoch covers the stop.
        X, y = rows
        constants = {"l2": l2, "learning_rate": learning_rate, "tol": -math.inf}
        ties = []
        with np.errstate(over="ignore", invalid="ignore"):  # l2=150 at rate 0.5 overflows
            model = _sgd(cls, epochs, seed=3, **constants).fit(X, y)
            W, b, _ = _reference_fit(_sgd(cls, epochs, seed=3, **constants), X, y, ties)
        assume(np.isfinite(W).all() and np.isfinite(b).all())  # no weights to compare
        try:
            _assert_matches_reference(model, W, b)
        except AssertionError:
            # Rounding decided a tied score's step in the loop; any other
            # order of the same sums may decide it the other way.
            assume(not any(ties))
            raise


# logistic regression: Newton's method against its objective -------------------


def _log_gradient(X, targets, W, b, l2=1e-4) -> np.ndarray:
    """The gradient of `_log_objective`: one row per class, the weights then the bias."""
    margins = targets * (X @ W.T + b)
    pull = targets * np.exp(-np.logaddexp(0.0, margins)) / X.shape[0]  # y * sigmoid(-y z) / n
    return np.hstack([l2 * W - pull.T @ X, -pull.sum(axis=0)[:, None]])


def _newton_case(name):
    rng = np.random.default_rng(5)
    if name.startswith("portfolio"):
        _, seed, scaling = name.split("_")
        return _portfolio_rows(int(seed), scaling == "scaled")
    if name == "near_separable":  # two tight blobs, one row of each on the other side
        X, y = _blobs(rng, n_per_class=30, spread=0.3)
        return X, np.where(np.arange(60) % 30 == 0, 1 - y, y)
    if name == "two_row_class":
        X = rng.normal(size=(42, 4))
        return X, np.array([0] * 20 + [1] * 20 + [2] * 2)
    return _small_case(name)


NEWTON_CASES = [
    "portfolio_7_scaled",
    "portfolio_8_scaled",
    "portfolio_7_raw",
    "near_separable",
    "two_row_class",
    "n17",
    "one_class",
    "n1",
]


@pytest.mark.parametrize("case", NEWTON_CASES)
def test_newton_gradient_vanishes_at_the_fitted_weights(case):
    X, y = _newton_case(case)
    model = LogisticRegressionModel().fit(X, y)
    targets = model._targets(np.unique(y, return_inverse=True)[1])
    gradient = _log_gradient(X, targets, model.weights_, model.bias_)
    assert np.abs(gradient).max() <= 1e-8


@pytest.mark.parametrize(
    ("case", "epochs"),
    [("portfolio_7_scaled", 30), ("near_separable", 300), ("two_classes", 300), ("n17", 300)],
)
def test_newton_objective_is_at_most_the_log_sgd_objective(case, epochs):
    X, y = _newton_case(case)
    model = LogisticRegressionModel().fit(X, y)
    W, b, _ = _reference_fit(_sgd(LinearSVMModel, epochs, seed=42, _loss="log"), X, y)
    targets = model._targets(np.unique(y, return_inverse=True)[1])
    newton = _log_objective(X, targets, model.weights_, model.bias_)
    assert newton <= _log_objective(X, targets, W, b)


def test_newton_iteration_cap(portfolio_train_rows):
    X, y = portfolio_train_rows
    targets = np.where(y[:, None] == np.arange(3), 1.0, -1.0)
    none = LogisticRegressionModel(max_epochs=0).fit(X, y)
    assert not none.weights_.any() and not none.bias_.any()
    one = LogisticRegressionModel(max_epochs=1).fit(X, y)  # the cap keeps the iterate
    full = LogisticRegressionModel().fit(X, y)
    objectives = [
        _log_objective(X, targets, model.weights_, model.bias_) for model in (none, one, full)
    ]
    assert objectives[0] > objectives[1] > objectives[2]
    assert np.abs(_log_gradient(X, targets, one.weights_, one.bias_)).max() > 1e-8


def test_newton_refit_is_bit_identical_at_any_seed(portfolio_train_rows):
    X, y = portfolio_train_rows
    first = LogisticRegressionModel(seed=0).fit(X, y)
    for seed in (0, 42):
        again = LogisticRegressionModel(seed=seed).fit(X, y)
        assert again.weights_.tobytes() == first.weights_.tobytes()
        assert again.bias_.tobytes() == first.bias_.tobytes()


def test_newton_without_a_finite_step_is_a_value_error():
    # The Hessian of rows near 1e200 overflows to inf, so no finite step exists.
    X = np.array([[1.0, 2.0], [2.0, 1.0], [0.5, 0.5]]) * 1e200
    y = np.array([0, 1, 0])
    with np.errstate(all="ignore"), pytest.raises(
        ValueError, match="^the Newton step has no finite solution in float64$"
    ):
        LogisticRegressionModel().fit(X, y)


def test_newton_stops_once_a_step_gains_nothing_in_float64(monkeypatch):
    # On these unscaled rows, features near 2e4 hold one class's gradient
    # just above tol through rounding; its fit once ran to the 1000-iteration cap.
    matrix = fit_transform(generate_records(1000, seed=9, signal_strength=0.9), scale=False)
    X, y = matrix.rows, matrix.labels
    solves = []
    real_solve = np.linalg.solve

    def counting_solve(a, b):
        solves.append(1)
        return real_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    full = LogisticRegressionModel().fit(X, y)
    assert len(solves) < 3 * 50
    capped = LogisticRegressionModel(max_epochs=50).fit(X, y)
    assert capped.weights_.tobytes() == full.weights_.tobytes()
    assert capped.bias_.tobytes() == full.bias_.tobytes()


def test_logistic_scores_order_classes_past_the_sigmoids_range():
    # Every z is below -35, where the sigmoids once clipped to one value and tied.
    model = LogisticRegressionModel()
    model.classes_ = np.array([0, 1, 2])
    model.n_features_ = 1
    model.weights_ = np.array([[-1.0], [-1.0], [-1.0]])
    model.bias_ = np.array([-10.0, 0.0, -5.0])
    x = np.array([[50.0]])  # z = (-60, -50, -55)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scores = model.predict_scores(x)
    assert scores[0, 1] > scores[0, 2] > scores[0, 0]
    assert scores.sum() == pytest.approx(1.0, abs=1e-12)
    assert model.predict(x).tolist() == [1]


# ridge -------------------------------------------------------------------------


def _ridge(lam):
    """A RidgeModel with lam in place of the fixed 1."""
    model = RidgeModel()
    model.lam = lam
    return model


def test_ridge_interpolates_invertible_square_system():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(3, 3))
    y = np.array([0, 1, 2])
    model = _ridge(0.0).fit(X, y)
    targets = np.where(np.arange(3)[:, None] == np.arange(3)[None, :], 1.0, -1.0)
    residual = model.predict_scores(X) - targets
    assert float(np.mean(residual**2)) == pytest.approx(0.0, abs=1e-16)


def test_ridge_normal_equation_residual(rng):
    X = rng.normal(size=(40, 6))
    y = rng.integers(0, 3, size=40)
    model = RidgeModel().fit(X, y)
    targets = np.where(y[:, None] == np.arange(3)[None, :], 1.0, -1.0)
    system = X.T @ X + np.eye(6)
    residual = system @ model.weights_.T - X.T @ targets
    assert np.linalg.norm(residual) < 1e-6


def test_ridge_shrinks_with_lambda(rng):
    X = rng.normal(size=(30, 4))
    y = rng.integers(0, 2, size=30)
    norms = [
        float(np.linalg.norm(_ridge(lam).fit(X, y).weights_))
        for lam in (1.0, 10.0, 1000.0)
    ]
    assert norms[0] > norms[1] > norms[2]


@pytest.mark.parametrize("scale", [1e10, 1e300])
def test_ridge_without_a_finite_solution_is_a_value_error(scale):
    # At 1e10, X'X + I rounds to a singular matrix; at 1e300, X'X overflows.
    X = np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]]) * scale
    y = np.array([0, 1, 0])
    with np.errstate(over="ignore"), pytest.raises(
        ValueError, match="^the normal equations have no finite solution in float64$"
    ):
        RidgeModel().fit(X, y)
