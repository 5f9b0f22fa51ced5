import dataclasses

import numpy as np
import pytest

from invarbin import (
    DegenerateResponseError,
    Environment,
    MultiEnvDataset,
    ROLE_TEST,
    ROLE_TRAIN,
    ValidationError,
    deviance_residuals,
    draw_benchmark_config,
    feature_groups,
    fit_icp,
    fit_logistic,
    fit_lr_baseline,
    gen_benchmark,
    philox_generator,
    predict,
    predict_baseline,
    training_subset,
)
from invarbin import baselines
from invarbin import test_subset as held_out_subset
from invarbin.regression import _logistic_start
from oracles import adult_like_dataset, icp_reference, one_hot_dataset


def test_lr_baseline_learns_pooled_logit():
    rng = philox_generator(1, stream=1)
    n = 5000
    feats, resp, env_of, envs = [], [], [], []
    for label in ("a", "b", "t"):
        x = rng.standard_normal((n, 2))
        logits = 1.0 * x[:, 0] - 2.0 * x[:, 1]
        y = (rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-logits))).astype(np.int64)
        feats.append(x)
        resp.append(y)
        env_of.extend([label] * n)
        envs.append(Environment(label, ROLE_TEST if label == "t" else ROLE_TRAIN))
    d = MultiEnvDataset(
        features=np.vstack(feats),
        response=np.concatenate(resp),
        env_of=np.asarray(env_of, dtype=object),
        environments=tuple(envs),
        column_names=("x0", "x1"),
    )
    model = fit_lr_baseline(d)
    assert np.asarray(model.coef) == pytest.approx([0.0, 1.0, -2.0], abs=0.12)
    labels = predict(model, held_out_subset(d).features) >= 0.5
    truth = held_out_subset(d).response
    # logit scale sqrt(5) puts the oracle itself near 0.79 here
    assert float((labels == truth).mean()) > 0.75


def test_deviance_residuals_formula():
    probs = np.array([0.2, 0.9, 0.5])
    y = np.array([1, 0, 1])
    got = deviance_residuals(probs, y)
    expected = np.array(
        [
            np.sqrt(-2.0 * np.log(0.2)),
            -np.sqrt(-2.0 * np.log(0.1)),
            np.sqrt(-2.0 * np.log(0.5)),
        ]
    )
    assert got == pytest.approx(expected, abs=1e-12)


def test_deviance_residuals_reject_degenerate_probs():
    with pytest.raises(ValidationError):
        deviance_residuals(np.array([0.0, 0.5]), np.array([0, 1]))


def stable_predictor_dataset(proxy: bool = False) -> MultiEnvDataset:
    # y depends on x0 through an environment-constant logit; x0 shifts MILDLY
    # across environments (enough to change the class rate and reject the
    # empty set, not enough to disturb the residual law given x0), and x1 is
    # an effect of y whose link changes per environment, failing every set
    # that contains it; with ``proxy`` x1 is instead a near-copy of x0, so
    # {x0} and {x1} are both invariant
    rng = philox_generator(2, stream=1)
    n = 2500
    shift = {"a": -0.1, "b": 0.1, "t": 0.0}
    gain = {"a": 1.0, "b": 3.0, "t": 2.0}
    feats, resp, env_of, envs = [], [], [], []
    for label in ("a", "b", "t"):
        x0 = shift[label] + rng.standard_normal(n)
        y = (rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-2.0 * x0))).astype(np.int64)
        noise = rng.standard_normal(n)
        x1 = x0 + 0.01 * noise if proxy else gain[label] * y + 0.3 * noise
        feats.append(np.column_stack([x0, x1]))
        resp.append(y)
        env_of.extend([label] * n)
        envs.append(Environment(label, ROLE_TEST if label == "t" else ROLE_TRAIN))
    return MultiEnvDataset(
        features=np.vstack(feats),
        response=np.concatenate(resp),
        env_of=np.asarray(env_of, dtype=object),
        environments=tuple(envs),
        column_names=("x0", "x1"),
    )


def test_icp_accepts_stable_predictor_and_uses_it():
    d = stable_predictor_dataset()
    fitted = fit_icp(d, alpha=0.05)
    assert not fitted.abstained
    assert (0,) in fitted.accepted
    assert fitted.intersection == (0,)
    labels = predict_baseline(fitted, held_out_subset(d).features)
    assert float((labels == held_out_subset(d).response).mean()) > 0.75


@pytest.mark.parametrize("width", [0, 4])
def test_icp_prediction_rejects_another_width(width):
    d = stable_predictor_dataset()
    fitted = fit_icp(d, alpha=0.05)
    assert fitted.intersection == (0,)
    with pytest.raises(ValidationError, match="fitted on 2 columns"):
        predict_baseline(fitted, np.zeros((5, width)))


def recording_newton(monkeypatch) -> list:
    """Make ``fit_icp``'s Newton fits record (design, start, model), in call order."""
    calls = []
    newton = baselines._newton

    def recording(design, y, start):
        model, probs = newton(design, y, start)
        calls.append((design, start, model))
        return model, probs

    monkeypatch.setattr(baselines, "_newton", recording)
    return calls


def test_icp_reuses_the_intersection_fit(monkeypatch):
    d = stable_predictor_dataset()
    calls = recording_newton(monkeypatch)
    fitted = fit_icp(d, alpha=0.05)
    assert not fitted.abstained
    assert len(calls) == len(fitted.pvals)
    # the intersection's model is the one its subset's fit returned: no refit
    design, _, model = dict(zip(fitted.pvals, calls))[fitted.intersection]
    train = training_subset(d)
    X = train.features[:, list(fitted.intersection)]
    assert np.array_equal(design, np.column_stack([np.ones(len(X)), X]))
    assert fitted.model is model
    # The sliced start rounds apart from the subset's own in the last bits,
    # so only the Newton path can differ from the public fit, not its optimum.
    public = fit_logistic(X, train.response)
    assert fitted.model.converged == public.converged
    got, want = np.asarray(fitted.model.coef), np.asarray(public.coef)
    assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(1.0, np.abs(want)))


def test_every_fit_converges_on_census_scale_columns(monkeypatch):
    d = adult_like_dataset(31)
    assert fit_lr_baseline(d).converged
    calls = recording_newton(monkeypatch)
    fitted = fit_icp(d)
    assert len(calls) == len(fitted.pvals) > 0
    unconverged = [cols for cols, (_, _, model) in zip(fitted.pvals, calls) if not model.converged]
    assert unconverged == []


_REFERENCE_DATASETS = [
    *(
        pytest.param(gen_benchmark(draw_benchmark_config(seed, n_per_env=300)), id=f"benchmark-{seed}")
        for seed in range(12)
    ),
    pytest.param(one_hot_dataset(), id="one-hot"),
]


@pytest.mark.parametrize("d", _REFERENCE_DATASETS)
def test_icp_matches_the_per_subset_reference(d):
    accepted, intersection, abstained, pvals, models = icp_reference(d)
    fitted = fit_icp(d)
    assert (fitted.accepted, fitted.intersection, fitted.abstained) == (accepted, intersection, abstained)
    assert list(fitted.pvals) == list(pvals)
    for cols, want in pvals.items():
        assert fitted.pvals[cols] == pytest.approx(want, rel=0.0, abs=1e-9), cols
    if not abstained:
        X = held_out_subset(d).features
        got = predict(fitted.model, X[:, list(intersection)])
        want = predict(models[intersection], X[:, list(intersection)])
        assert np.max(np.abs(got - want)) <= 1e-9
        assert np.array_equal(predict_baseline(fitted, X), (want >= 0.5).astype(np.int64))


@pytest.mark.parametrize(
    "d",
    [gen_benchmark(draw_benchmark_config(3, m=5, n_per_env=300)), one_hot_dataset()],
    ids=["continuous", "one-hot"],
)
def test_sliced_start_matches_each_subsets_own_start(d, monkeypatch):
    # A wrong slice only changes the Newton path, not the optimum, so the
    # fitted p-values cannot show it: compare each start with the subset's own.
    calls = recording_newton(monkeypatch)
    fitted = fit_icp(d, max_subset_size=len(feature_groups(d)))
    assert len(calls) == len(fitted.pvals)
    train = training_subset(d)
    y = train.response.astype(float)
    for cols, (design, (ll, p, grad, hess), _) in zip(fitted.pvals, calls):
        own_design = np.column_stack([np.ones(len(y)), train.features[:, list(cols)]])
        assert design.tobytes() == own_design.tobytes(), cols
        own_ll, own_p, own_grad, own_hess = _logistic_start(own_design, y)
        assert ll == own_ll and p.tobytes() == own_p.tobytes(), cols
        for got, want in ((grad, own_grad), (hess, own_hess)):
            assert got.shape == want.shape, cols
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), cols


@pytest.mark.parametrize("cls", [0, 1])
def test_one_class_training_rows_are_refused(cls):
    d = stable_predictor_dataset()
    train = np.isin(d.env_of, d.train_labels)
    one_class = dataclasses.replace(d, response=np.where(train, cls, d.response))
    for fit in (fit_icp, fit_lr_baseline):
        with pytest.raises(DegenerateResponseError, match="both classes"):
            fit(one_class)


def test_icp_abstains_on_benchmark_shift():
    cfg = draw_benchmark_config(0, m=4)
    d = gen_benchmark(cfg)
    fitted = fit_icp(d, max_subset_size=3)
    assert fitted.abstained
    assert predict_baseline(fitted, held_out_subset(d).features) is None


def test_icp_abstains_when_accepted_subsets_share_no_column():
    d = stable_predictor_dataset(proxy=True)
    fitted = fit_icp(d, alpha=0.05)
    assert fitted.accepted == ((0,), (1,), (0, 1))
    assert fitted.intersection == ()
    assert fitted.abstained
    assert fitted.model is None
    assert predict_baseline(fitted, held_out_subset(d).features) is None


def test_icp_pvals_cover_every_candidate_subset():
    cfg = draw_benchmark_config(1, m=3)
    d = gen_benchmark(cfg)
    fitted = fit_icp(d, max_subset_size=2)
    # subsets of two columns: empty, both singletons, the full pair
    assert set(fitted.pvals) == {(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2)}
    assert all(0.0 <= p <= 1.0 for p in fitted.pvals.values())


def test_icp_pvals_match_scipy_welch():
    scipy_stats = pytest.importorskip("scipy.stats")
    d = gen_benchmark(draw_benchmark_config(5, m=4))
    fitted = fit_icp(d)
    train = training_subset(d)
    labels = train.train_labels
    assert len(fitted.pvals) == 15  # every subset of at most three of four columns
    for cols, got in fitted.pvals.items():
        X = train.features[:, list(cols)]
        residuals = deviance_residuals(predict(fit_logistic(X, train.response), X), train.response)
        per_env = [
            scipy_stats.ttest_ind(
                residuals[train.env_of == label], residuals[train.env_of != label], equal_var=False
            ).pvalue
            for label in labels
        ]
        assert got == pytest.approx(min(1.0, len(labels) * min(per_env)), rel=0.0, abs=1e-9), cols
