import dataclasses
import json
import warnings

import numpy as np
import pytest

from invarbin import (
    AdditiveSplineModel,
    DegenerateResponseError,
    InsufficientDataError,
    LinearModel,
    LogisticModel,
    ValidationError,
    draw_benchmark_config,
    fit_logistic,
    fit_ols,
    fit_spline_additive,
    gen_benchmark,
    model_to_dict,
    predict,
    training_subset,
)
from invarbin.regression import (
    SplineTerm,
    _log_likelihood,
    _natural_spline_basis,
    _plan_term,
    _sigmoid,
    _spline_plan,
    _spline_solve,
    ols_columns,
)
from oracles import clip_power_basis, log_likelihood, unique_plan


def normal_equations(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    design = np.column_stack([np.ones(len(X)), X])
    return np.linalg.solve(design.T @ design, design.T @ y)


def test_ols_matches_normal_equations():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(20, 200))
        p = int(rng.integers(1, 6))
        X = rng.normal(size=(n, p))
        y = rng.normal(size=n)
        model = fit_ols(X, y)
        oracle = normal_equations(X, y)
        assert np.max(np.abs(np.asarray(model.coef) - oracle)) < 1e-8


def test_ols_empty_feature_matrix_gives_mean():
    y = np.array([1.0, 3.0, 5.0])
    model = fit_ols(np.zeros((3, 0)), y)
    assert model.coef == pytest.approx((3.0,))


def test_ols_prediction_invariant_to_feature_affine_map():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(80, 3))
    y = X @ np.array([1.0, -2.0, 0.5]) + rng.normal(size=80)
    base = predict(fit_ols(X, y), X)
    shifted = X * np.array([2.0, 0.5, 10.0]) + np.array([1.0, -7.0, 3.0])
    again = predict(fit_ols(shifted, y), shifted)
    assert np.max(np.abs(base - again)) < 1e-8


def test_ols_rank_deficient_still_predicts():
    rng = np.random.default_rng(5)
    x = rng.normal(size=60)
    X = np.column_stack([x, x])  # duplicated column
    y = 2.0 * x + rng.normal(size=60) * 0.1
    model = fit_ols(X, y)
    oracle = predict(fit_ols(x[:, None], y), x[:, None])
    assert np.max(np.abs(predict(model, X) - oracle)) < 1e-8


def test_ols_insufficient_rows():
    with pytest.raises(InsufficientDataError):
        fit_ols(np.ones((1, 1)), np.ones(1))
    with pytest.raises(InsufficientDataError):
        fit_ols(np.ones((3, 3)), np.ones(3))  # needs n >= p + 1


def test_ols_rejects_non_finite():
    with pytest.raises(ValidationError):
        fit_ols(np.array([[1.0], [np.nan]]), np.array([0.0, 1.0]))


def test_spline_recovers_linear_function():
    rng = np.random.default_rng(6)
    x = rng.uniform(-2, 2, size=400)
    y = 3.0 * x - 1.0
    exact = fit_spline_additive(x[:, None], y, lam=0.0)
    assert np.max(np.abs(predict(exact, x[:, None]) - y)) < 1e-8
    # the default ridge penalty shrinks the slope a hair
    default = fit_spline_additive(x[:, None], y)
    assert np.max(np.abs(predict(default, x[:, None]) - y)) < 5e-4


def test_spline_fits_smooth_nonlinearity():
    rng = np.random.default_rng(7)
    x = rng.uniform(-3, 3, size=2000)
    y = np.sin(x)
    model = fit_spline_additive(x[:, None], y, n_knots=8)
    inside = np.abs(x) < 2.5
    assert np.max(np.abs(predict(model, x[:, None])[inside] - y[inside])) < 0.05


def test_spline_sse_monotone_in_penalty():
    rng = np.random.default_rng(8)
    x = rng.uniform(-1, 1, size=200)
    y = np.cos(3 * x) + rng.normal(size=200) * 0.1
    sses = []
    for lam in (1e-6, 1e-2, 1e2):
        model = fit_spline_additive(x[:, None], y, lam=lam)
        sses.append(float(np.sum((predict(model, x[:, None]) - y) ** 2)))
    assert sses[0] <= sses[1] + 1e-9 <= sses[2] + 2e-9


def test_spline_extrapolates_linearly():
    rng = np.random.default_rng(9)
    x = rng.uniform(0, 1, size=500)
    y = (x - 0.5) ** 2
    model = fit_spline_additive(x[:, None], y)
    grid = np.array([2.0, 3.0, 4.0])
    vals = predict(model, grid[:, None])
    second_diff = vals[2] - 2 * vals[1] + vals[0]
    assert abs(second_diff) < 1e-8


def test_spline_binary_column_acts_linear():
    rng = np.random.default_rng(10)
    b = rng.integers(0, 2, size=300).astype(float)
    y = 2.0 * b + 1.0
    model = fit_spline_additive(b[:, None], y)
    preds = predict(model, np.array([[0.0], [1.0]]))
    assert preds == pytest.approx([1.0, 3.0], abs=1e-4)
    assert model.terms[0].kind == "linear"


def test_spline_constant_column_reduces_to_intercept():
    y = np.array([1.0, 2.0, 3.0, 4.0])
    model = fit_spline_additive(np.full((4, 1), 7.0), y)
    assert model.terms[0].kind == "constant"
    assert predict(model, np.full((2, 1), 7.0)) == pytest.approx([2.5, 2.5])


def test_spline_shift_equivariant_in_response():
    # the intercept is unpenalized, so adding a constant to y shifts
    # predictions by exactly that constant
    rng = np.random.default_rng(11)
    x = rng.uniform(-1, 1, size=150)
    y = np.sin(2 * x) + rng.normal(size=150) * 0.05
    base = predict(fit_spline_additive(x[:, None], y), x[:, None])
    moved = predict(fit_spline_additive(x[:, None], y + 100.0), x[:, None])
    assert np.max(np.abs(moved - base - 100.0)) < 1e-6


def _converging_logistic_data():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(500, 3))
    logits = X @ np.array([1.0, -1.0, 0.5])
    return X, (rng.uniform(size=500) < 1.0 / (1.0 + np.exp(-logits))).astype(np.int64)


def test_logistic_loss_path_non_increasing():
    model = fit_logistic(*_converging_logistic_data())
    diffs = np.diff(np.asarray(model.loss_path))
    assert np.all(diffs <= 1e-9)
    assert model.converged


def test_logistic_recovers_coefficients():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(40_000, 2))
    truth = np.array([0.5, 1.5, -1.0])
    logits = truth[0] + X @ truth[1:]
    y = (rng.uniform(size=len(X)) < 1.0 / (1.0 + np.exp(-logits))).astype(np.int64)
    model = fit_logistic(X, y)
    assert np.asarray(model.coef) == pytest.approx(truth, abs=0.08)


def test_logistic_separable_data_stays_finite():
    x = np.linspace(-1, 1, 50)
    y = (x > 0).astype(np.int64)
    model = fit_logistic(x[:, None], y)
    probs = predict(model, x[:, None])
    assert np.all(probs >= 1e-12)
    assert np.all(probs <= 1.0 - 1e-12)
    assert np.all(np.isfinite(probs))


_LINE = np.linspace(-1, 1, 50)


@pytest.mark.parametrize(
    "X, y, expected",
    [
        # the starting gradient is exactly zero: converged before any step
        (np.array([[1.0], [-1.0], [1.0], [-1.0]]), np.array([1, 1, 0, 0]), (True, 0, 1)),
        # separable: the gradient decays below the tolerance as the slope grows
        (_LINE[:, None], (_LINE > 0).astype(np.int64), (True, 23, 24)),
        (*_converging_logistic_data(), (True, 5, 6)),
    ],
    ids=["zero-gradient", "separable", "converging"],
)
def test_logistic_iteration_counts_are_pinned(X, y, expected):
    model = fit_logistic(X, y)
    assert (model.converged, model.n_iter, len(model.loss_path)) == expected


def test_logistic_optimum_matches_scipy_bfgs():
    scipy_optimize = pytest.importorskip("scipy.optimize")
    scipy_special = pytest.importorskip("scipy.special")
    X, y = _converging_logistic_data()
    design = np.column_stack([np.ones(len(X)), X])

    def loss_and_grad(w):
        z = design @ w
        return -log_likelihood(z, y), -design.T @ (y - scipy_special.expit(z))

    ref = scipy_optimize.minimize(
        loss_and_grad, np.zeros(design.shape[1]), jac=True, method="BFGS",
        options={"gtol": 1e-10},
    )
    model = fit_logistic(X, y)
    assert np.max(np.abs(np.asarray(model.coef) - ref.x)) < 1e-6


def _large_n_training(seed, cols):
    """Pooled training rows of a large-n benchmark sample (16,000 rows)."""
    cfg = dataclasses.replace(draw_benchmark_config(2, m=7, n_per_env=8000), seed=seed)
    train = training_subset(gen_benchmark(cfg))
    return train.features[:, list(cols)], train.response


# Where the iteration sat after its cap of 100 steps on the sample below: it
# reaches the optimum at step 4 with a gradient norm of 1.2e-8, which rounding
# kept from falling under the 1e-8 tolerance.  That gradient leaves each
# coefficient up to 8.5e-12 relative from the point where the gradient norm
# is 3e-13, so the loss cannot tell these digits apart below about 1e-11.
_FLOOR_COEF = (
    0.017317256798183203,
    0.18822314712590735,
    0.15140858354983097,
    -0.049815867349025544,
    0.2102838367938313,
    0.036463151004988155,
)


def test_logistic_stops_when_a_step_cannot_move_the_coefficients():
    model = fit_logistic(*_large_n_training(72000, (0, 1, 2, 3, 5)))
    assert model.converged
    assert model.n_iter <= 10
    assert np.asarray(model.coef) == pytest.approx(_FLOOR_COEF, rel=1e-11, abs=0.0)


def test_logistic_failed_line_search_at_the_floor_is_converged():
    # all 21 trial points of step 21 lower the log-likelihood
    model = fit_logistic(*_large_n_training(7000, (1, 4)))
    assert model.converged


def test_logistic_prediction_clipped():
    model = LogisticModel(coef=(0.0, 100.0), converged=True, n_iter=1, loss_path=(0.0,))
    probs = predict(model, np.array([[-10.0], [10.0]]))
    assert probs[0] == pytest.approx(1e-12)
    assert probs[1] == pytest.approx(1.0 - 1e-12)


def test_logistic_needs_both_classes():
    from invarbin import DegenerateResponseError

    with pytest.raises(DegenerateResponseError):
        fit_logistic(np.ones((4, 1)), np.ones(4, dtype=np.int64))


@pytest.mark.parametrize(
    "y, error, message",
    [
        ([0, 1, 2, 1], ValidationError, "requires y in {0, 1}"),
        ([0, 1, 0.5, 1], ValidationError, "requires y in {0, 1}"),
        ([1, 1, 1, 1], DegenerateResponseError, "both classes"),
        ([0, 0, 0, 0], DegenerateResponseError, "both classes"),
        ([], DegenerateResponseError, "both classes"),
    ],
    ids=["label-2", "label-half", "only-ones", "only-zeros", "empty"],
)
def test_logistic_refuses_a_response_without_both_binary_classes(y, error, message):
    y = np.asarray(y, dtype=float)
    with pytest.raises(error, match=message):
        fit_logistic(np.ones((y.size, 1)), y)


def test_predict_checks_column_count():
    model = LinearModel(coef=(0.0, 1.0, 2.0))
    with pytest.raises(ValidationError):
        predict(model, np.ones((3, 1)))


def model_from_json(text: str):
    # rebuilds a model from what an ensemble's JSON holds for it
    payload = json.loads(text)
    if payload["type"] == "linear":
        return LinearModel(coef=tuple(payload["coef"]))
    return AdditiveSplineModel(
        intercept=payload["intercept"],
        lam=payload["lam"],
        terms=tuple(
            SplineTerm(kind=t["kind"], knots=tuple(t["knots"]), coef=tuple(t["coef"]))
            for t in payload["terms"]
        ),
    )


def test_model_dict_round_trip():
    rng = np.random.default_rng(14)
    X = rng.normal(size=(100, 2))
    y = X @ np.array([1.0, -1.0]) + rng.normal(size=100) * 0.1
    for model in (fit_ols(X, y), fit_spline_additive(X, y)):
        clone = model_from_json(json.dumps(model_to_dict(model)))
        assert np.max(np.abs(predict(clone, X) - predict(model, X))) < 1e-12


def test_model_dict_rejects_unknown_type():
    # ensembles hold linear and spline fits only
    logistic = LogisticModel(coef=(0.0, 1.0), converged=True, n_iter=1, loss_path=())
    for model in (logistic, "forest"):
        with pytest.raises(ValidationError):
            model_to_dict(model)


def test_spline_model_repr_types():
    rng = np.random.default_rng(15)
    x = rng.uniform(size=50)
    model = fit_spline_additive(x[:, None], x)
    assert isinstance(model, AdditiveSplineModel)
    assert len(model.terms) == 1


def planned_spline_columns(X, Y):
    """Every column of Y on X: one plan per column of X, then one ridge solve."""
    return _spline_solve([_spline_plan(X[:, j]) for j in range(X.shape[1])], Y)


def test_column_fits_match_one_column_fits():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(150, 3))
    Y = X @ rng.normal(size=(3, 4)) + np.sin(3.0 * X[:, :1]) + rng.normal(size=(150, 4))
    for columns, single in ((ols_columns, fit_ols), (planned_spline_columns, fit_spline_additive)):
        fit, design = columns(X, Y)
        fitted = design @ fit.coef
        for j in range(Y.shape[1]):
            want = predict(single(X, Y[:, j]), X)
            assert np.max(np.abs(predict(fit.model(j), X) - want)) < 1e-12
            assert np.max(np.abs(fitted[:, j] - want)) < 1e-12


def two_branch_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_matches_two_branch_formula_bitwise():
    edges = np.array([0.0, -0.0, 1e-320, -1e-320, 700.0, -700.0, 800.0, -800.0, 1.0, -1.0])
    z = np.concatenate([edges, np.random.default_rng(21).normal(scale=40.0, size=1000)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = _sigmoid(z)
    assert got.tobytes() == two_branch_sigmoid(z).tobytes()


def test_log_likelihood_matches_logaddexp_oracle():
    edges = np.array([0.0, 1e-300, -1e-300, 36.0, -36.0, 745.0, -745.0, 1e6, -1e6])
    grid = np.concatenate([edges, np.linspace(-40.0, 40.0, 801)])
    for z in [*edges[:, None], grid]:
        for y in (np.zeros_like(z), np.ones_like(z), np.arange(z.size) % 2.0):
            got, _ = _log_likelihood(z, y)
            want = log_likelihood(z, y)
            assert abs(got - want) <= 4 * np.spacing(abs(want))


def test_planned_spline_solve_matches_one_target_fits_bitwise():
    rng = np.random.default_rng(17)
    n = 120
    X = np.column_stack([
        np.full(n, 0.25),  # constant
        rng.integers(0, 2, size=n).astype(float),  # binary
        np.where(np.arange(n) < n - 6, 0.0, np.arange(n) - n + 7.0),  # knots collapse
        rng.normal(size=n),  # continuous
    ])
    Y = np.sin(X[:, 3:]) + X[:, 1:2] + rng.normal(size=(n, 3))
    fit, basis = planned_spline_columns(X, Y)
    planned = [_spline_plan(X[:, j]) for j in range(X.shape[1])]
    assert [term.kind for term, _ in planned] == ["constant", "linear", "linear", "spline"]
    # the plans are made once and reused for every target, as the pair fits do
    for j in range(Y.shape[1]):
        again, again_basis = _spline_solve(planned, Y[:, j : j + 1])
        assert again.terms == fit.terms
        assert again.lam == fit.lam
        assert again_basis.tobytes() == basis.tobytes()
        assert repr(again.model(0)) == repr(fit_spline_additive(X, Y[:, j]))


@pytest.mark.parametrize(
    "knots",
    [(-1.0, 0.0, 1.0, 2.0), (0.0, 1e-5, 3.0), (-2.5, -0.5, 0.0, 0.75, 4.0)],
    ids=["four", "three", "five"],
)
def test_spline_basis_matches_clip_and_power_bytewise(knots):
    rng = np.random.default_rng(23)
    x = np.concatenate([
        knots,  # exactly at every knot
        [-0.0, 0.0],  # -0.0 - 0.0 is -0.0: a clip gives +0.0, so must the kernel
        [knots[0] - 1.0, -7.0, -1e50],  # below every knot
        [1e-300, 1e-110, 1e-105],  # cubes that underflow to zero or to subnormals
        [1e50, -3e49, 2e49],  # cubes near 1e150, far below overflow
        rng.normal(scale=3.0, size=64),
    ])
    knots = np.asarray(knots)
    got = _natural_spline_basis(x, knots)
    want = clip_power_basis(x, knots)
    assert got.shape == want.shape == (x.size, knots.size - 1)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "x, kind",
    [
        (np.full(9, 0.3), "constant"),
        (np.array([-0.0, 0.0, 0.0, -0.0]), "constant"),
        (np.array([1.0, -2.0, 1.0, 1.0, -2.0]), "linear"),
        (np.array([0.0, 1.0, 2.0, 1.0, 0.0]), "spline"),
        (np.r_[np.zeros(40), 1.0, 2.0, 3.0], "linear"),  # quantiles collapse to one knot
        (np.r_[np.zeros(30), np.ones(30), 2.0], "linear"),  # ... and to two
        (np.random.default_rng(4).normal(size=50), "spline"),
    ],
)
def test_plan_term_matches_the_unique_reference(x, kind):
    term = _plan_term(x, 5)
    assert term == unique_plan(x, 5)
    assert term.kind == kind
