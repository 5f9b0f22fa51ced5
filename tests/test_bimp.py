import json
import math

import numpy as np
import pytest

from invarbin import (
    BimpModel,
    DegeneratePairError,
    DegenerateResponseError,
    Environment,
    InsufficientDataError,
    LinearModel,
    MultiEnvDataset,
    Pair,
    PairModel,
    ROLE_TEST,
    ROLE_TRAIN,
    ValidationError,
    bimp_ratio,
    bimp_to_dict,
    draw_benchmark_config,
    enumerate_pairs,
    fit_bimp,
    fit_pair_model,
    gen_anchor,
    gen_benchmark,
    normal_cdf,
    philox_generator,
    predict_bimp,
    predict_pair,
    score_filter,
)
from invarbin import test_subset as held_out_subset


def test_enumerate_counts_default_cap():
    # per k: C(6,0)+C(6,1)+C(6,2)+C(6,3) subsets of the other six columns
    assert len(enumerate_pairs(7)) == 7 * (1 + 6 + 15 + 20)
    assert len(enumerate_pairs(3)) == 3 * (1 + 2 + 1)


def test_enumerate_counts_full_cap():
    assert len(enumerate_pairs(7, max_subset_size=6)) == 7 * 2**6


def test_enumerate_contains_empty_set_and_orders_by_size():
    pairs = enumerate_pairs(3, max_subset_size=2)
    per_k0 = [p for p in pairs if p.k == 0]
    assert per_k0[0].s == ()
    sizes = [len(p.s) for p in per_k0]
    assert sizes == sorted(sizes)


def test_enumerate_is_deterministic():
    assert enumerate_pairs(5) == enumerate_pairs(5)


def test_enumerate_with_groups_keeps_units():
    pairs = enumerate_pairs(3, groups=((0, 1), (2,)))
    assert len(pairs) == 6
    subsets = {p.s for p in pairs if p.k == 2}
    assert subsets == {(), (0, 1)}
    # a grouped column never appears without its sibling
    assert all(p.s in ((), (0, 1), (2,)) for p in pairs)


def test_enumerate_rejects_overlapping_groups():
    with pytest.raises(ValidationError):
        enumerate_pairs(3, groups=((0, 1), (1, 2)))


def test_enumerate_rejects_partial_cover():
    with pytest.raises(ValidationError):
        enumerate_pairs(3, groups=((0,), (2,)))


def test_ratio_basic_cases():
    assert bimp_ratio(0.5, 0.0, 1.0, 1e-9) == 0.5
    assert bimp_ratio(2.0, 0.0, 1.0, 1e-9) == 1.0  # clamped above
    assert bimp_ratio(-1.0, 0.0, 1.0, 1e-9) == 0.0  # clamped below
    assert bimp_ratio(0.3, 1.0, 1.0, 1e-9) is None  # vanished denominator
    assert bimp_ratio(0.3, 1.0, 1.0 + 5e-10, 1e-9) is None  # inside tolerance


def test_ratio_validates_inputs():
    with pytest.raises(ValidationError):
        bimp_ratio(float("nan"), 0.0, 1.0, 1e-9)
    with pytest.raises(ValidationError):
        bimp_ratio(0.5, 0.0, 1.0, -1.0)


def test_ratio_recovers_gaussian_posterior_exactly():
    # in the three-variable family, E[x3 | x1] = g0*x1*(1-p) + g1*x1*p with
    # p the class posterior given x1, and h(x1, y) = g_y*x1, so the ratio
    # must return p identically wherever (g1 - g0)*x1 is away from zero
    rng = philox_generator(0, stream=2)
    g0, g1 = 1.0, 3.0
    for x1 in rng.uniform(0.2, 3.0, size=100) * rng.choice([-1.0, 1.0], size=100):
        p = normal_cdf(2.0 * x1)
        marginal = g0 * x1 * (1.0 - p) + g1 * x1 * p
        got = bimp_ratio(marginal, g0 * x1, g1 * x1, 1e-12)
        assert got == pytest.approx(p, abs=1e-12)


def anchor_data(n=4000, seed=0):
    return gen_anchor(n, seed)


def test_fit_pair_model_recovers_slopes():
    d = anchor_data()
    model = fit_pair_model(d, Pair(k=2, s=(0,)))
    # h0: x3 = g0*x1 within class 0; h1 likewise with g1
    assert model.h0.coef[1] == pytest.approx(1.0, abs=0.1)
    assert model.h1.coef[1] == pytest.approx(3.0, abs=0.1)
    assert model.eps_abs > 0.0


def test_predict_pair_probabilities_in_range():
    d = anchor_data()
    model = fit_pair_model(d, Pair(k=2, s=(0,)))
    probs, degenerate = predict_pair(model, held_out_subset(d).features)
    ok = ~degenerate
    assert np.all(probs[ok] >= 0.0)
    assert np.all(probs[ok] <= 1.0)
    assert np.all(np.isnan(probs[degenerate]))


def test_pair_model_single_class_training_raises():
    d = anchor_data(n=500)
    forced = MultiEnvDataset(
        features=d.features,
        response=np.zeros(d.n, dtype=np.int64),
        env_of=d.env_of,
        environments=d.environments,
        column_names=d.column_names,
    )
    with pytest.raises(DegenerateResponseError):
        fit_pair_model(forced, Pair(k=2, s=(0,)))


def test_predict_pair_all_degenerate_raises():
    model = PairModel(
        pair=Pair(k=1, s=(0,)),
        h0=LinearModel(coef=(0.0, 1.0)),
        h1=LinearModel(coef=(0.0, 1.0)),  # identical: denominator always 0
        marginal=LinearModel(coef=(0.0, 1.0)),
        eps_abs=1e-9,
        variant="linear",
    )
    with pytest.raises(DegeneratePairError):
        predict_pair(model, np.array([[1.0, 2.0], [3.0, 4.0]]))


def test_score_filter_ranks_by_training_error():
    # on this family the x2 pair tracks the class posterior given x1 almost
    # perfectly on training data (its instability only shows after the test
    # shift), while the x3 pair suffers from the linear approximation of a
    # nonlinear marginal; the filter sees training error only and must
    # therefore prefer the x2 pair here
    d = anchor_data()
    stable = fit_pair_model(d, Pair(k=2, s=(0,)))
    train_optimal = fit_pair_model(d, Pair(k=1, s=(0,)))
    result = score_filter([stable, train_optimal], d, tau=0.1)
    assert result.scores[train_optimal.pair] < result.scores[stable.pair]
    assert train_optimal in result.kept
    assert result.threshold == pytest.approx(1.1 * result.scores[train_optimal.pair])
    kept_scores = [result.scores[m.pair] for m in result.kept]
    assert all(s <= result.threshold for s in kept_scores)


def test_score_filter_always_keeps_argmin():
    d = anchor_data(n=1000)
    only = fit_pair_model(d, Pair(k=1, s=(0,)))
    result = score_filter([only], d, tau=0.0)
    assert result.kept == (only,)


def test_fit_bimp_bookkeeping_on_anchor():
    # the two training environments here are identically distributed, so the
    # invariance filter has little to reject and selection falls to the
    # score filter; this checks the accounting, not the selection quality
    d = anchor_data(n=3000, seed=2)
    model = fit_bimp(d)
    assert not model.abstained
    counts = model.counts
    assert counts["enumerated"] == len(enumerate_pairs(3))
    assert counts["enumerated"] == counts["accepted"] + counts["rejected"] + counts["skipped"]
    assert counts["kept"] == len(model.pair_models)
    assert counts["kept"] >= 1
    prediction = predict_bimp(model, held_out_subset(d).features)
    assert prediction.probabilities.shape == (3000,)
    ok = ~prediction.fallback
    assert np.all(prediction.probabilities[ok] >= 0.0)
    assert np.all(prediction.probabilities[ok] <= 1.0)
    assert set(np.unique(prediction.labels)) <= {0, 1}


def all_rejected_data():
    # with two training environments a pooled line can always match two
    # class-conditional cluster centers, so total rejection needs three
    # environments whose offset vectors are not collinear
    rng = philox_generator(13, stream=1)
    offsets = {"p": (0.0, 0.0), "q": (3.0, 6.0), "r": (9.0, 12.0), "t": (1.0, 1.0)}
    feats, resp, env_of, envs = [], [], [], []
    for label, (off0, off1) in offsets.items():
        n = 600
        y = (rng.uniform(size=n) < 0.5).astype(np.int64)
        x0 = off0 + y + 0.2 * rng.standard_normal(n)
        x1 = off1 + y + 0.2 * rng.standard_normal(n)
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


def test_fit_bimp_abstains_when_everything_is_rejected():
    d = all_rejected_data()
    model = fit_bimp(d, alpha=0.1)
    assert model.abstained
    assert model.counts["accepted"] == 0
    with pytest.raises(ValidationError):
        predict_bimp(model, held_out_subset(d).features)


@pytest.mark.parametrize(
    "name, value", [("tau", -1.0), ("tau", math.nan), ("eps_den", -1.0)]
)
def test_fit_bimp_checks_tau_and_eps_den_when_nothing_is_accepted(name, value):
    # the screen rejects all four pairs, so no score filter or pair fit runs
    with pytest.raises(ValidationError, match=name):
        fit_bimp(all_rejected_data(), alpha=0.1, **{name: value})


def test_fit_bimp_requires_test_environment():
    d = anchor_data(n=300)
    train_only = d.take(~d.rows_in("test"))
    no_test = MultiEnvDataset(
        features=train_only.features,
        response=train_only.response,
        env_of=train_only.env_of,
        environments=tuple(e for e in d.environments if e.role == ROLE_TRAIN),
        column_names=d.column_names,
    )
    with pytest.raises(ValidationError):
        fit_bimp(no_test)


def test_predict_bimp_fallback_rows_use_base_rate():
    pm = PairModel(
        pair=Pair(k=1, s=(0,)),
        h0=LinearModel(coef=(0.0, 0.0)),
        h1=LinearModel(coef=(0.0, 1.0)),  # denominator = x0
        marginal=LinearModel(coef=(0.0, 0.5)),
        eps_abs=1e-6,
        variant="linear",
    )
    model = BimpModel(
        variant="linear",
        alpha=0.1,
        tau=0.1,
        eps_den=1e-6,
        m=2,
        pair_models=(pm,),
        scores={pm.pair: 0.1},
        threshold=0.11,
        base_rate=0.25,
        abstained=False,
        reports=(),
        counts={},
    )
    X = np.array([[0.0, 9.0], [2.0, 9.0]])
    prediction = predict_bimp(model, X)
    assert prediction.fallback.tolist() == [True, False]
    assert prediction.probabilities[0] == 0.25
    assert prediction.probabilities[1] == pytest.approx(0.5)
    assert prediction.labels.tolist() == [0, 1]


def test_predict_bimp_needs_the_fitted_column_count():
    d = gen_benchmark(draw_benchmark_config(1, m=4, n_per_env=300))
    model = fit_bimp(d, max_subset_size=3)
    assert not model.abstained
    X = held_out_subset(d).features
    for other in (X[:, :2], np.column_stack([X, X[:, :1]])):
        with pytest.raises(ValidationError, match="fitted on 4"):
            predict_bimp(model, other)


def test_bimp_to_dict_serializes():
    d = anchor_data(n=1500, seed=5)
    model = fit_bimp(d)
    payload = bimp_to_dict(model, d.column_names)
    text = json.dumps(payload, sort_keys=True)
    parsed = json.loads(text)
    assert parsed["variant"] == "linear"
    assert parsed["counts"]["kept"] == len(model.pair_models)


def thin_target(n_test):
    """Benchmark family seed 2 (m = 7) with the test environment cut to n_test rows."""
    d = gen_benchmark(draw_benchmark_config(2))
    test = d.rows_in(d.test_label)
    return d.take(~test | (test & (np.cumsum(test) <= n_test)))


@pytest.mark.parametrize("variant", ["linear", "gam"])
def test_fit_bimp_skips_pairs_the_target_rows_cannot_fit(variant):
    # four target rows cannot carry an OLS marginal on |S| >= 4 columns
    d = thin_target(4)
    model = fit_bimp(d, variant=variant, max_subset_size=5)
    counts = model.counts
    if variant == "linear":
        assert counts["skipped_target"] > 0
    assert counts["kept"] + counts["dropped_degenerate"] <= counts["accepted"] - counts["skipped_target"]
    assert not model.abstained
    prediction = predict_bimp(model, held_out_subset(d).features)
    assert np.all((prediction.probabilities >= 0.0) & (prediction.probabilities <= 1.0))


@pytest.mark.parametrize("variant", ["linear", "gam"])
def test_fit_bimp_abstains_when_no_accepted_pair_fits_the_target(variant):
    d = thin_target(1)
    model = fit_bimp(d, variant=variant, max_subset_size=5)
    assert model.abstained
    assert model.counts["skipped_target"] == model.counts["accepted"] > 0
    with pytest.raises(InsufficientDataError):
        fit_pair_model(d, Pair(k=0, s=()), variant=variant)
