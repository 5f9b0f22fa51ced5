"""The batched post-screen path of fit_bimp against a per-pair reference.

``reference_fit`` below spells out the matching-pairs formulas one pair at a
time: its own least-squares solves for h0, h1 and each marginal, the
per-environment score as a mean over concatenated errors, the (1 + tau)
filter, the majority-degenerate drop and the ensemble average.  fit_bimp
solves each conditioning set once for all its pairs; both must agree to
rounding.
"""

import math

import numpy as np
import pytest

from invarbin import (
    ROLE_TEST,
    ROLE_TRAIN,
    Environment,
    InsufficientDataError,
    MultiEnvDataset,
    draw_benchmark_config,
    fit_bimp,
    fit_spline_additive,
    gen_benchmark,
    predict,
    predict_bimp,
)
from invarbin import bimp, regression
from oracles import one_hot_dataset, screen_oracle

SCORE_RTOL = 1e-12
PROB_ATOL = 1e-12


def _ols(X, y):
    design = np.column_stack([np.ones(X.shape[0]), X])
    if X.shape[0] < max(2, design.shape[1]):
        raise InsufficientDataError("too few rows")
    coef = np.linalg.lstsq(design, y, rcond=None)[0]
    return lambda Z: coef[0] + Z @ coef[1:]


def _marginal(variant, X, y):
    if variant == "linear":
        return _ols(X, y)
    model = fit_spline_additive(X, y)
    return lambda Z: predict(model, Z)


def _ratio(mv, h0v, h1v, eps_abs):
    den = h1v - h0v
    ok = np.abs(den) > eps_abs
    probs = np.full(mv.shape, np.nan)
    probs[ok] = np.clip((mv[ok] - h0v[ok]) / den[ok], 0.0, 1.0)
    return probs, ok


def reference_fit(d, accepted, variant, tau=0.1, eps_den=1e-6):
    """Per-pair post-screen pipeline: (scores, kept pairs, target probabilities)."""
    train = np.array([e in d.train_labels for e in d.env_of])
    target = d.features[np.array([e == d.test_label for e in d.env_of])]
    X, y, env = d.features[train], d.response[train], d.env_of[train]

    fitted = []
    for pair in accepted:
        s = list(pair.s)
        h0, h1 = (_ols(X[y == c][:, s], X[y == c, pair.k]) for c in (0, 1))
        spread = float(np.std(X[:, pair.k]))
        eps_abs = eps_den * spread if spread > 0.0 else eps_den
        try:
            marginal = _marginal(variant, target[:, s], target[:, pair.k])
        except InsufficientDataError:
            continue
        fitted.append((pair, h0, h1, marginal, eps_abs))

    scores = {}
    for pair, h0, h1, _, eps_abs in fitted:
        s = list(pair.s)
        errors = []
        for label in d.train_labels:
            rows = env == label
            Xe, ye = X[rows], y[rows]
            try:
                env_marginal = _marginal(variant, Xe[:, s], Xe[:, pair.k])
            except InsufficientDataError:
                continue
            block = Xe[:, s]
            probs, ok = _ratio(env_marginal(block), h0(block), h1(block), eps_abs)
            if ok.any():
                errors.append((probs[ok] - ye[ok]) ** 2)
        scores[pair] = float(np.concatenate(errors).mean()) if errors else math.inf

    best = min(scores.values())
    threshold = (1.0 + tau) * best
    total = np.zeros(target.shape[0])
    votes = np.zeros(target.shape[0])
    kept = []
    for pair, h0, h1, marginal, eps_abs in fitted:
        if scores[pair] > threshold:
            continue
        block = target[:, list(pair.s)]
        probs, ok = _ratio(marginal(block), h0(block), h1(block), eps_abs)
        if 1.0 - ok.mean() > 0.5:
            continue
        kept.append(pair)
        total[ok] += probs[ok]
        votes[ok] += 1.0
    base_rate = float(y.mean())
    probabilities = np.where(votes == 0, base_rate, total / np.maximum(votes, 1.0))
    return scores, tuple(kept), probabilities


def benchmark_dataset():
    cfg = draw_benchmark_config(2, n_per_env=500)
    assert cfg.m == 7
    return gen_benchmark(cfg), cfg.m - 1


def one_hot_case():
    return one_hot_dataset(), 2


CASES = {"benchmark-m7": benchmark_dataset, "one-hot": one_hot_case}


@pytest.mark.parametrize("variant", ["linear", "gam"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_batched_fit_matches_per_pair_reference(case, variant):
    d, cap = CASES[case]()
    model = fit_bimp(d, variant=variant, max_subset_size=cap)
    reference = screen_oracle(d, [report.pair for report in model.reports])
    for report in model.reports:
        assert report.verdict == reference[report.pair][0], report.pair
    accepted = [r.pair for r in model.reports if r.accepted]
    assert len(accepted) > len({p.s for p in accepted})  # some S is shared

    scores, kept, probabilities = reference_fit(d, accepted, variant)
    assert model.pairs == kept
    assert model.scores.keys() == scores.keys()
    for pair, want in scores.items():
        assert model.scores[pair] == pytest.approx(want, rel=SCORE_RTOL, abs=0.0), pair
    got = predict_bimp(model, d.features[d.rows_in(d.test_label)]).probabilities
    assert np.max(np.abs(got - probabilities)) <= PROB_ATOL


@pytest.mark.parametrize("variant", ["linear", "gam"])
def test_post_screen_solves_scale_with_conditioning_sets(monkeypatch, variant):
    d = one_hot_dataset()
    real_lstsq, real_screen = np.linalg.lstsq, bimp.batched_residual_tests
    calls = {"all": 0, "screen": 0}

    def counting_lstsq(*args, **kwargs):
        calls["all"] += 1
        return real_lstsq(*args, **kwargs)

    def screen(*args, **kwargs):
        reports = real_screen(*args, **kwargs)
        calls["screen"] = calls["all"]
        return reports

    monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
    monkeypatch.setattr(bimp, "batched_residual_tests", screen)
    model = fit_bimp(d, variant=variant, max_subset_size=2)
    accepted = model.counts["accepted"]
    groups = len({r.pair.s for r in model.reports if r.accepted})
    # per S: h0 and h1, the target marginal, one marginal per training env
    bound = (3 + len(d.train_labels)) * groups
    assert calls["all"] - calls["screen"] <= bound
    assert accepted > bound  # a per-pair path would exceed the bound


@pytest.mark.parametrize("case", sorted(CASES))
def test_spline_plans_made_once_per_block_and_column(monkeypatch, case):
    d, cap = CASES[case]()
    real_plan = regression._plan_term
    calls = []

    def counting_plan(*args, **kwargs):
        calls.append(1)
        return real_plan(*args, **kwargs)

    monkeypatch.setattr(regression, "_plan_term", counting_plan)
    model = fit_bimp(d, variant="gam", max_subset_size=cap)
    assert model.counts["accepted"] > 0
    # one block per training environment plus the target rows
    assert len(calls) <= (len(d.train_labels) + 1) * d.m


def block_kind_dataset(n_per_env=240, seed=3):
    """Column ``c`` is constant in e1, two-valued in e2 and continuous in the target."""
    rng = np.random.default_rng(seed)
    labels = ("e1", "e2", "test")
    env = np.repeat(np.array(labels, dtype=object), n_per_env)
    y = rng.integers(0, 2, size=env.size)
    c = np.concatenate([
        np.full(n_per_env, 0.5),
        rng.integers(0, 2, size=n_per_env).astype(float),
        rng.normal(size=n_per_env),
    ])
    a = y + 0.5 * rng.standard_normal(env.size)
    b = np.sin(2.0 * c) + 0.8 * y + 0.5 * rng.standard_normal(env.size)
    return MultiEnvDataset(
        features=np.column_stack([c, a, b]),
        response=y,
        env_of=env,
        environments=(
            Environment("e1", ROLE_TRAIN),
            Environment("e2", ROLE_TRAIN),
            Environment("test", ROLE_TEST),
        ),
        column_names=("c", "a", "b"),
    )


def test_spline_plans_are_per_block():
    d = block_kind_dataset()
    kinds = [
        regression._plan_term(d.features[d.rows_in(label), 0], 5).kind
        for label in ("e1", "e2", "test")
    ]
    assert kinds == ["constant", "linear", "spline"]
    model = fit_bimp(d, variant="gam")
    accepted = [r.pair for r in model.reports if r.accepted]
    assert any(0 in pair.s for pair in accepted)

    scores, kept, probabilities = reference_fit(d, accepted, "gam")
    assert model.pairs == kept
    assert model.scores.keys() == scores.keys()
    for pair, want in scores.items():
        assert model.scores[pair] == pytest.approx(want, rel=SCORE_RTOL, abs=0.0), pair
    got = predict_bimp(model, d.features[d.rows_in(d.test_label)]).probabilities
    assert np.max(np.abs(got - probabilities)) <= PROB_ATOL
