import json
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import norm

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
    bimp_to_dict,
    draw_benchmark_config,
    enumerate_pairs,
    fit_bimp,
    fit_pair_model,
    gen_anchor,
    gen_benchmark,
    philox_generator,
    predict_bimp,
    predict_pair,
    predict,
    score_filter,
    training_subset,
)
from invarbin import bimp
from invarbin import test_subset as held_out_subset
from invarbin.bimp import TrainingView, _matching_ratio
from invarbin.invariance import conditioning_sets
from oracles import one_hot_dataset
from oracles import training_scores as oracle_training_scores


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
    probs, degenerate = _matching_ratio(
        np.array([0.5, 2.0, -1.0, 0.3, 0.3]),
        np.array([0.0, 0.0, 0.0, 1.0, 1.0]),
        # the last two denominators vanish: exactly, and inside the tolerance
        np.array([1.0, 1.0, 1.0, 1.0, 1.0 + 5e-10]),
        1e-9,
    )
    assert probs[:3].tolist() == [0.5, 1.0, 0.0]  # plain, clamped above, clamped below
    assert degenerate.tolist() == [False, False, False, True, True]
    assert np.isnan(probs[3:]).all()


def test_ratio_recovers_gaussian_posterior_exactly():
    # in the three-variable family, E[x3 | x1] = g0*x1*(1-p) + g1*x1*p with
    # p the class posterior given x1, and h(x1, y) = g_y*x1, so the ratio
    # must return p identically wherever (g1 - g0)*x1 is away from zero
    rng = philox_generator(0, stream=2)
    g0, g1 = 1.0, 3.0
    x1 = rng.uniform(0.2, 3.0, size=100) * rng.choice([-1.0, 1.0], size=100)
    p = norm.cdf(2.0 * x1)
    marginal = g0 * x1 * (1.0 - p) + g1 * x1 * p
    got, degenerate = _matching_ratio(marginal, g0 * x1, g1 * x1, 1e-12)
    assert not degenerate.any()
    np.testing.assert_allclose(got, p, rtol=0, atol=1e-12)


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


@pytest.mark.parametrize("width", [2, 5])
def test_predict_pair_rejects_another_width(width):
    d = gen_benchmark(draw_benchmark_config(1, m=4, n_per_env=300))
    model = fit_pair_model(d, Pair(k=3, s=(0, 2)))
    with pytest.raises(ValidationError, match="fitted on 4"):
        predict_pair(model, np.ones((5, width)))


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
        m=2,
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
        m=2,
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


def test_enumerate_with_groups_out_of_column_order():
    # groups listed in another order than their columns: k still ascends,
    # and each k is matched against the sets of the groups without it
    groups = ((3, 4), (0,), (1, 2))
    want = tuple(
        Pair(k=k, s=s)
        for k in range(5)
        for s in conditioning_sets([g for g in groups if k not in g], 2)
    )
    assert enumerate_pairs(5, max_subset_size=2, groups=groups) == want


def continuous_dataset():
    return gen_benchmark(draw_benchmark_config(2, n_per_env=500))


def shared_column_gam(eps_den):
    """A gam fit on the benchmark family (m = 7) whose kept pairs share columns."""
    d = continuous_dataset()
    return d, fit_bimp(d, variant="gam", max_subset_size=6, eps_den=eps_den)


def per_pair_average(pair_models, X, base_rate):
    """predict_bimp's average, taken from each pair's own predict_pair."""
    total = np.zeros(X.shape[0])
    contributors = np.zeros(X.shape[0])
    for pm in pair_models:
        probs, degenerate = predict_pair(pm, X)
        total[~degenerate] += probs[~degenerate]
        contributors[~degenerate] += 1.0
    return np.where(contributors == 0, base_rate, total / np.maximum(contributors, 1.0))


def test_predict_bimp_shares_bases_bitwise():
    d, model = shared_column_gam(1e-6)
    X = held_out_subset(d).features
    shared, uses = Counter(j for p in model.pairs for j in p.s).most_common(1)[0]
    assert uses >= 3
    got = predict_bimp(model, X).probabilities
    assert got.tobytes() == per_pair_average(model.pair_models, X, model.base_rate).tobytes()
    # one more pair whose marginal plans the shared column with other knots
    # must read its own basis, not the one the other pairs share
    pm = next(pm for pm in model.pair_models if shared in pm.pair.s)
    at = pm.pair.s.index(shared)
    term = pm.marginal.terms[at]
    assert term.kind == "spline"
    moved = replace(term, knots=tuple(k + 0.25 for k in term.knots))
    terms = pm.marginal.terms[:at] + (moved,) + pm.marginal.terms[at + 1 :]
    odd = replace(pm, marginal=replace(pm.marginal, terms=terms))
    extended = replace(model, pair_models=model.pair_models + (odd,))
    got = predict_bimp(extended, X).probabilities
    want = per_pair_average(extended.pair_models, X, model.base_rate)
    assert got.tobytes() == want.tobytes()
    assert got.tobytes() != predict_bimp(model, X).probabilities.tobytes()


@pytest.mark.parametrize("variant", ["linear", "gam"])
@pytest.mark.parametrize(
    "make, cap", [(one_hot_dataset, None), (continuous_dataset, 6)], ids=["one-hot", "continuous"]
)
def test_pair_model_does_not_depend_on_its_s_group(make, cap, variant):
    # every kept pair equals its standalone fit bit for bit, whichever
    # other accepted pairs share its conditioning set
    d = make()
    model = fit_bimp(d, variant=variant, max_subset_size=cap)
    per_s = Counter(r.pair.s for r in model.reports if r.accepted)
    assert max(per_s.values()) >= 3 and model.pair_models
    for pm in model.pair_models:
        assert fit_pair_model(d, pm.pair, variant, model.eps_den) == pm, pm.pair


def test_degenerate_drop_matches_the_per_pair_path():
    eps_den = 0.2
    d, model = shared_column_gam(eps_den)
    view = TrainingView(d)
    accepted = [r.pair for r in model.reports if r.accepted]
    fitted = [fit_pair_model(d, p, variant="gam", eps_den=eps_den, view=view) for p in accepted]
    kept = score_filter(fitted, d, view=view).kept
    target = held_out_subset(d).features
    dropped = []
    for pm in kept:
        block = target[:, list(pm.pair.s)]
        den = predict(pm.h1, block) - predict(pm.h0, block)
        if np.mean(np.abs(den) <= pm.eps_abs) > 0.5:
            dropped.append(pm)
    assert model.counts["dropped_degenerate"] == len(dropped) > 0
    assert model.pairs == tuple(pm.pair for pm in kept if pm not in dropped)


@pytest.mark.parametrize("variant", ["linear", "gam"])
@pytest.mark.parametrize(
    "make", [one_hot_dataset, continuous_dataset], ids=["one-hot", "continuous"]
)
def test_training_scores_match_the_array_oracle_bitwise(make, variant):
    d = make()
    view = TrainingView(d)
    s = (0, 1) if make is continuous_dataset else (0, 1, 2, 3)
    members = [
        fit_pair_model(d, Pair(k=k, s=s), variant=variant, eps_den=1e-6, view=view)
        for k in range(d.m)
        if k not in s
    ]
    train = np.concatenate(view.env_features)
    design = np.column_stack([np.ones(train.shape[0]), train[:, list(s)]])
    den = [np.abs(design @ (np.array(pm.h1.coef) - np.array(pm.h0.coef))) for pm in members]
    # half of each member's training rows degenerate, every row of the last
    members = [replace(pm, eps_abs=float(np.median(g))) for pm, g in zip(members, den)]
    members[-1] = replace(members[-1], eps_abs=2.0 * float(den[-1].max()))
    got = bimp._training_scores(view, s, variant, members)
    want = oracle_training_scores(view, s, variant, members)
    assert got == want
    assert got[-1] == math.inf and all(math.isfinite(v) for v in got[:-1])


@pytest.mark.parametrize("variant", ["linear", "gam"])
def test_score_filter_scores_the_models_own_h_fits_without_a_target(variant):
    # models fitted on d, scored on d's training rows alone (no test environment):
    # each model is scored with its own h0/h1, even ones that no fit on the data gave
    d = one_hot_dataset()
    s = (0, 1, 2, 3)
    models = [fit_pair_model(d, Pair(k=k, s=s), variant=variant) for k in range(d.m) if k not in s]
    train_envs = tuple(e for e in d.environments if e.role == ROLE_TRAIN)
    no_test = replace(training_subset(d), environments=train_envs)
    assert no_test.test_label is None
    assert score_filter(models, no_test).scores == score_filter(models, d).scores
    swapped = [replace(pm, h0=pm.h1, h1=pm.h0) for pm in models]
    got = score_filter(swapped, no_test).scores
    want = oracle_training_scores(TrainingView(no_test), s, variant, swapped)
    assert got == {pm.pair: v for pm, v in zip(swapped, want)}
    assert got != score_filter(models, d).scores
