import json

import numpy as np
import pytest

from invarbin import (
    Environment,
    InvarianceReport,
    MultiEnvDataset,
    Pair,
    ROLE_TEST,
    ROLE_TRAIN,
    SCOPE_ENV,
    SCOPE_ENV_AND_CLASS,
    ValidationError,
    batched_residual_tests,
    draw_benchmark_config,
    enumerate_pairs,
    feature_groups,
    gen_benchmark,
    philox_generator,
    report_to_dict,
    residual_distribution_test,
)
from invarbin import invariance
from invarbin.stats import student_t_tail
from oracles import one_hot_dataset, screen_oracle


def build_dataset(slopes: dict[str, float], n: int = 400, seed: int = 0) -> MultiEnvDataset:
    """Two training envs with shifted x_s and a per-env slope for x_k.

    Equal slopes give an environment-constant mechanism; unequal slopes
    leave a location difference in the pooled-fit residuals.
    """
    rng = philox_generator(seed, stream=1)
    shift = {"p": -1.0, "q": 1.0, "t": 0.5}
    feats, resp, env_of, envs = [], [], [], []
    for label, slope in slopes.items():
        x_s = shift[label] + rng.standard_normal(n)
        y = (rng.uniform(size=n) < 0.5).astype(np.int64)
        x_k = slope * x_s + (0.5 + y) + 0.3 * rng.standard_normal(n)
        feats.append(np.column_stack([x_s, x_k]))
        resp.append(y)
        env_of.extend([label] * n)
        envs.append(Environment(label, ROLE_TEST if label == "t" else ROLE_TRAIN))
    return MultiEnvDataset(
        features=np.vstack(feats),
        response=np.concatenate(resp),
        env_of=np.asarray(env_of, dtype=object),
        environments=tuple(envs),
        column_names=("s", "k"),
    )


def test_pair_normalizes_subset():
    pair = Pair(k=0, s=(3, 1, 3))
    assert pair.s == (1, 3)


def test_pair_rejects_k_inside_s():
    with pytest.raises(ValidationError):
        Pair(k=1, s=(0, 1))


def test_pair_rejects_negative_index():
    with pytest.raises(ValidationError):
        Pair(k=-1, s=())


def test_invariant_mechanism_accepted():
    d = build_dataset({"p": 2.0, "q": 2.0, "t": 2.0}, n=500, seed=4)
    report = residual_distribution_test(d, Pair(k=1, s=(0,)), alpha=0.1)
    assert report.verdict == "accepted"
    assert report.accepted
    assert set(report.pvals) == {"p", "q"}


def intercept_shift_dataset(seed: int = 5, shift: float = 1.0, n: int = 500) -> MultiEnvDataset:
    """x_k = 2 x_s + y + noise, with an intercept ``shift`` in training env q."""
    rng = philox_generator(seed, stream=1)
    feats, resp, env_of, envs = [], [], [], []
    for label, offset in (("p", 0.0), ("q", shift), ("t", 0.0)):
        x_s = rng.standard_normal(n)
        y = (rng.uniform(size=n) < 0.5).astype(np.int64)
        x_k = 2.0 * x_s + offset + y + 0.3 * rng.standard_normal(n)
        feats.append(np.column_stack([x_s, x_k]))
        resp.append(y)
        env_of.extend([label] * n)
        envs.append(Environment(label, ROLE_TEST if label == "t" else ROLE_TRAIN))
    return MultiEnvDataset(
        features=np.vstack(feats),
        response=np.concatenate(resp),
        env_of=np.asarray(env_of, dtype=object),
        environments=tuple(envs),
        column_names=("s", "k"),
    )


def test_varying_mechanism_rejected():
    # an environment-specific intercept in the x_k assignment shifts the
    # pooled residual means apart; slope flips alone would mostly change the
    # residual shape, which a location test is not meant to see
    report = residual_distribution_test(intercept_shift_dataset(), Pair(k=1, s=(0,)), alpha=0.1)
    assert report.verdict == "rejected"
    assert not report.accepted


def test_small_intercept_shift_rejected_with_high_power():
    # a shift of a third of the noise scale in one environment: a screen
    # that accepts everything (or has lost its power) cannot pass
    pair = Pair(k=1, s=(0,))
    rejected = sum(
        residual_distribution_test(intercept_shift_dataset(seed, shift=0.1), pair).verdict
        == "rejected"
        for seed in range(200)
    )
    assert rejected >= 190


def test_empty_conditioning_set_compares_marginals():
    # with S empty the residuals are demeaned x_k values; the env shift in
    # x_s propagates into x_k and must be caught
    d = build_dataset({"p": 2.0, "q": 2.0, "t": 2.0}, n=500, seed=6)
    report = residual_distribution_test(d, Pair(k=1, s=()), alpha=0.1)
    assert report.verdict == "rejected"


@pytest.mark.parametrize("verdict", ["accepted", "rejected"])
def test_tiny_scale_column_keeps_its_verdict(verdict):
    # x_k * 2**-270: its residual variances square below the smallest float
    if verdict == "accepted":
        d = build_dataset({"p": 2.0, "q": 2.0, "t": 2.0}, n=500, seed=4)
    else:
        d = intercept_shift_dataset()
    tiny = MultiEnvDataset(
        features=d.features * np.array([1.0, 2.0**-270]),
        response=d.response,
        env_of=d.env_of,
        environments=d.environments,
        column_names=d.column_names,
    )
    pair = Pair(k=1, s=(0,))
    want, got = residual_distribution_test(d, pair), residual_distribution_test(tiny, pair)
    assert want.verdict == got.verdict == verdict
    for label, by in want.raw_pvals.items():
        for y, p in by.items():
            assert got.raw_pvals[label][y] == pytest.approx(p, rel=1e-8)


def test_thin_class_cell_skips():
    d = build_dataset({"p": 2.0, "q": 2.0, "t": 2.0}, n=300, seed=7)
    # rewrite one environment's responses to a single class
    response = d.response.copy()
    response[d.env_of == "q"] = 0
    thin = MultiEnvDataset(
        features=d.features,
        response=response,
        env_of=d.env_of,
        environments=d.environments,
        column_names=d.column_names,
    )
    report = residual_distribution_test(thin, Pair(k=1, s=(0,)), alpha=0.1)
    assert report.verdict == "skipped"
    assert "class 1" in report.reason


def test_single_training_environment_raises():
    d = build_dataset({"p": 2.0, "t": 2.0}, n=100, seed=8)
    with pytest.raises(ValidationError):
        residual_distribution_test(d, Pair(k=1, s=(0,)), alpha=0.1)


def test_out_of_range_pair_raises():
    d = build_dataset({"p": 2.0, "q": 2.0, "t": 2.0}, n=100, seed=9)
    with pytest.raises(ValidationError):
        residual_distribution_test(d, Pair(k=5, s=(0,)))


def test_alpha_must_be_inside_unit_interval():
    d = build_dataset({"p": 2.0, "q": 2.0, "t": 2.0}, n=100, seed=10)
    with pytest.raises(ValidationError):
        residual_distribution_test(d, Pair(k=1, s=(0,)), alpha=1.5)


def test_scope_doubles_the_correction():
    d = build_dataset({"p": 2.0, "q": 2.0, "t": 2.0}, n=400, seed=11)
    pair = Pair(k=1, s=(0,))
    by_env = residual_distribution_test(d, pair, bonferroni_scope=SCOPE_ENV)
    both = residual_distribution_test(d, pair, bonferroni_scope=SCOPE_ENV_AND_CLASS)
    for label in by_env.raw_pvals:
        for y, raw in by_env.raw_pvals[label].items():
            assert by_env.pvals[label][y] == pytest.approx(min(1.0, 2 * raw))
            assert both.pvals[label][y] == pytest.approx(min(1.0, 4 * raw))


@pytest.mark.parametrize("case", ["benchmark-m4", "one-hot"])
def test_batched_matches_independent_screen_oracle(case):
    if case == "benchmark-m4":
        d = gen_benchmark(draw_benchmark_config(3, m=4))
        pairs = enumerate_pairs(4, max_subset_size=3)
    else:
        d = one_hot_dataset()
        pairs = enumerate_pairs(d.m, max_subset_size=2, groups=feature_groups(d))
    reports = batched_residual_tests(d, pairs, alpha=0.1)
    assert [r.pair for r in reports] == list(pairs)
    assert {r.verdict for r in reports} == {"accepted", "rejected"}
    assert_matches_oracle(reports, screen_oracle(d, pairs, alpha=0.1), 1e-8)


def assert_matches_oracle(reports, reference, tol):
    for report in reports:
        verdict, pvals = reference[report.pair]
        assert report.verdict == verdict, report.pair
        assert report.pvals.keys() == pvals.keys()
        for label, by in pvals.items():
            for y, want in by.items():
                assert report.pvals[label][y] == pytest.approx(want, rel=0.0, abs=tol)


def test_screen_matches_oracle_at_large_n():
    # the large-n benchmark shape: m = 7, 8,000 rows per environment
    d = gen_benchmark(draw_benchmark_config(2, m=7, n_per_env=8000))
    pairs = enumerate_pairs(7, max_subset_size=6)
    reports = batched_residual_tests(d, pairs)
    sample = reports[::7]
    assert {r.verdict for r in sample} == {"accepted", "rejected"}
    assert_matches_oracle(sample, screen_oracle(d, [r.pair for r in sample]), 1e-8)


def degenerate_dataset(n: int = 900, seed: int = 0) -> MultiEnvDataset:
    """Columns with exact linear relations, none of them grouped.

    A complete one-hot block (its levels sum to one), a duplicated column,
    ``a + y`` (an exact function of ``a`` within each class), a constant,
    ``b`` shifted in e2, ``b + 100`` and an unrelated ``c``.
    """
    rng = np.random.default_rng(seed)
    level = rng.integers(0, 4, size=n)
    a, b, c, noise = rng.standard_normal((4, n))
    y = (a + 0.3 * level + noise > 1.0).astype(np.int64)
    env = np.array([("e1", "e2", "test")[i % 3] for i in range(n)], dtype=object)
    b = b + (env == "e2")
    one_hot = (level[:, None] == np.arange(4)).astype(float)
    features = np.column_stack([one_hot, a, a, a + y, np.full(n, 0.1), b, b + 100.0, c])
    return MultiEnvDataset(
        features=features,
        response=y,
        env_of=env,
        environments=(
            Environment("e1", ROLE_TRAIN),
            Environment("e2", ROLE_TRAIN),
            Environment("test", ROLE_TEST),
        ),
        column_names=("lv0", "lv1", "lv2", "lv3", "a", "a_dup", "a_plus_y", "const", "b", "b100", "c"),
    )


def exactly_determined(d: MultiEnvDataset, pair: Pair, y: int) -> bool:
    """Whether x_k is a linear function of [1, x_S] on the training rows of class y."""
    rows = np.isin(d.env_of, d.train_labels) & (d.response == y)
    design = np.column_stack([np.ones(rows.sum()), d.features[rows][:, list(pair.s)]])
    target = d.features[rows, pair.k]
    residuals = target - design @ np.linalg.lstsq(design, target, rcond=None)[0]
    return bool(np.linalg.norm(residuals) <= 1e-9 * np.linalg.norm(target))


def test_exactly_determined_columns_get_p_one():
    d = degenerate_dataset()
    pairs = enumerate_pairs(d.m, max_subset_size=2)
    reports = batched_residual_tests(d, pairs)
    undetermined = []
    for report in reports:
        exact = [exactly_determined(d, report.pair, y) for y in (0, 1)]
        for y in (0, 1):
            if exact[y]:
                assert all(by[y] == 1.0 for by in report.raw_pvals.values()), report.pair
        if not any(exact):
            undetermined.append(report)
    # the oracle only sees pairs whose residuals are not rounding noise
    assert 400 < len(undetermined) < len(reports) - 100
    assert_matches_oracle(undetermined, screen_oracle(d, [r.pair for r in undetermined]), 1e-8)


def test_near_collinear_columns_match_oracle():
    # b is a up to 1e-7 noise; every conditioning set holding both is
    # nearly singular, and the residuals of b given a are 1e-7-sized
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = 900
        a, c, d_noise, noise, tiny = rng.standard_normal((5, n))
        y = (a + noise > 0.5).astype(np.int64)
        env = np.array([("e1", "e2", "test")[i % 3] for i in range(n)], dtype=object)
        features = np.column_stack(
            [a, a + 1e-7 * tiny, c + 0.3 * (env == "e2"), a + y + 0.5 * d_noise]
        )
        d = MultiEnvDataset(
            features=features,
            response=y,
            env_of=env,
            environments=(
                Environment("e1", ROLE_TRAIN),
                Environment("e2", ROLE_TRAIN),
                Environment("test", ROLE_TEST),
            ),
            column_names=("a", "b", "c", "d"),
        )
        pairs = enumerate_pairs(4, max_subset_size=3)
        assert_matches_oracle(batched_residual_tests(d, pairs), screen_oracle(d, pairs), 1e-6)


def counting_solves(monkeypatch):
    """Record the row count of every lstsq and (stacked) pinv system."""
    rows = {"lstsq": [], "pinv": []}
    for name in rows:
        solve = getattr(np.linalg, name)

        def counting(a, *args, _solve=solve, _rows=rows[name], **kwargs):
            _rows.append(np.shape(a)[-2])
            return _solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return rows


def test_screen_solves_no_tall_least_squares(monkeypatch):
    # after one pass over the rows, every solve is on (m + 1)-row factors
    d = gen_benchmark(draw_benchmark_config(3, m=4))
    pairs = enumerate_pairs(4, max_subset_size=3)
    rows = counting_solves(monkeypatch)
    batched_residual_tests(d, pairs)
    seen = rows["lstsq"] + rows["pinv"]
    assert seen
    assert max(seen) <= d.m + 1


def test_screen_solves_once_per_class_and_size(monkeypatch):
    d = gen_benchmark(draw_benchmark_config(3, m=4))
    pairs = enumerate_pairs(4, max_subset_size=3)
    rows = counting_solves(monkeypatch)
    tails = []

    def counting_tail(t, df):
        tails.append(np.size(t))
        return student_t_tail(t, df)

    monkeypatch.setattr(invariance, "student_t_tail", counting_tail)
    reports = batched_residual_tests(d, pairs)
    sizes = {len(r.pair.s) for r in reports if r.verdict != "skipped"}
    assert rows["lstsq"] == []
    assert len(rows["pinv"]) == 2 * len(sizes)
    assert tails == [2 * len(d.train_labels) * len(pairs)]


def test_single_pair_is_the_batched_case():
    d = build_dataset({"p": 2.0, "q": 2.0, "t": 2.0}, n=300, seed=13)
    pair = Pair(k=1, s=(0,))
    assert residual_distribution_test(d, pair) == batched_residual_tests(d, [pair])[0]


def test_batched_preserves_input_order():
    cfg = draw_benchmark_config(4, m=3)
    d = gen_benchmark(cfg)
    pairs = list(reversed(enumerate_pairs(3, max_subset_size=2)))
    reports = batched_residual_tests(d, pairs)
    assert [r.pair for r in reports] == pairs


def test_report_dict_is_json_ready():
    d = build_dataset({"p": 2.0, "q": 2.0, "t": 2.0}, n=300, seed=12)
    report = residual_distribution_test(d, Pair(k=1, s=(0,)))
    payload = report_to_dict(report)
    text = json.dumps(payload)
    assert json.loads(text)["verdict"] == report.verdict


def test_report_default_maps_empty():
    report = InvarianceReport(pair=Pair(k=0, s=()), verdict="skipped", alpha=0.1)
    assert report.pvals == {}
    assert report.raw_pvals == {}
    assert not report.accepted
