import numpy as np
import pytest

from invarbin import (
    Environment,
    MultiEnvDataset,
    ROLE_TEST,
    ROLE_TRAIN,
    ValidationError,
    deviance_residuals,
    draw_benchmark_config,
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
    labels = predict_baseline(model, held_out_subset(d).features)
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


def test_icp_reuses_the_intersection_fit(monkeypatch):
    d = stable_predictor_dataset()
    calls = []

    def counting(X, y, *args, **kwargs):
        calls.append(X.shape[1])
        return fit_logistic(X, y, *args, **kwargs)

    monkeypatch.setattr(baselines, "fit_logistic", counting)
    fitted = fit_icp(d, alpha=0.05)
    assert not fitted.abstained
    assert len(calls) == len(fitted.pvals)
    train = training_subset(d)
    refit = fit_logistic(train.features[:, list(fitted.intersection)], train.response)
    assert fitted.model == refit


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
