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
    chunk = 128  # below the rows of each block, so every block's factor takes 2 or more updates
    monkeypatch.setattr(bimp, "_FACTOR_CHUNK_ROWS", chunk)
    real = {"lstsq": np.linalg.lstsq, "qr": np.linalg.qr}
    real_screen = bimp.batched_residual_tests
    calls = {name: 0 for name in real}
    at_screen = {}

    def counting(name):
        def call(*args, **kwargs):
            calls[name] += 1
            return real[name](*args, **kwargs)

        return call

    def screen(*args, **kwargs):
        reports = real_screen(*args, **kwargs)
        at_screen.update(calls)
        return reports

    for name in real:
        monkeypatch.setattr(np.linalg, name, counting(name))
    monkeypatch.setattr(bimp, "batched_residual_tests", screen)
    model = fit_bimp(d, variant=variant, max_subset_size=2)
    accepted = model.counts["accepted"]
    groups = len({r.pair.s for r in model.reports if r.accepted})
    # per S: h0 and h1, the target marginal, one marginal per training env
    bound = (3 + len(d.train_labels)) * groups
    assert calls["lstsq"] - at_screen["lstsq"] <= bound
    assert accepted > bound  # a per-pair path would exceed the bound
    # every block of rows (each class for h0 and h1, the target and each
    # training environment for the marginals) is factored once, whatever
    # the number of S
    train = np.isin(d.env_of, d.train_labels)
    blocks = [int(np.sum(train & (d.response == y))) for y in (0, 1)]
    blocks += [int(d.rows_in(label).sum()) for label in (*d.train_labels, d.test_label)]
    updates = sum(math.ceil(n / chunk) for n in blocks)
    assert calls["qr"] - at_screen["qr"] == updates
    assert groups > updates  # a factor per S would exceed the count


def tall_ridge(basis, Y, lam):
    """The ridge formula spelled out: every coefficient but the intercept's is penalised."""
    q = basis.shape[1]
    penalty = np.diag(np.r_[0.0, np.full(q - 1, np.sqrt(lam))])
    augmented = np.vstack([basis, penalty])
    return np.linalg.lstsq(augmented, np.vstack([Y, np.zeros((q, Y.shape[1]))]), rcond=None)[0]


def factor_dataset(seed=5, near_copy=False):
    """Three blocks of rows for the R-factor path of the post-screen fits.

    The target spans three factor updates and a remainder, e1 has fewer rows
    than its full basis has columns, e2 lies between.  Columns: continuous
    (a spline term), binary (linear), constant, and the indicators of levels
    1-3 of a categorical whose levels 0 and 3 never occur: indicators 1 and
    2 sum to the intercept, so every block's full basis is rank-deficient.
    ``near_copy`` adds x2, which is x plus noise of size 1e-14 outside e1
    and an exact copy of x inside it.
    """
    chunk = bimp._FACTOR_CHUNK_ROWS
    rng = np.random.default_rng(seed)
    sizes = {"e1": 6, "e2": 300, "test": 3 * chunk + 101}
    env = np.concatenate([np.full(n, label, dtype=object) for label, n in sizes.items()])
    n = env.size
    level = rng.integers(1, 3, size=n)
    binary = rng.integers(0, 2, size=n).astype(float)
    binary[:6] = [0.0, 1.0, 1.0, 0.0, 1.0, 0.0]  # e1's rows hold both values
    x = rng.normal(size=n)
    columns = [x, binary, np.full(n, 0.5), *(level[:, None] == np.arange(1, 4)).T.astype(float)]
    names = ["x", "b", "c", "lv1", "lv2", "lv3"]
    if near_copy:
        columns.append(x + np.where(env == "e1", 0.0, 1e-14 * rng.normal(size=n)))
        names.append("x2")
    return MultiEnvDataset(
        features=np.column_stack(columns),
        response=(x + binary + rng.normal(size=n) > 0.5).astype(np.int64),
        env_of=env,
        environments=(
            Environment("e1", ROLE_TRAIN),
            Environment("e2", ROLE_TRAIN),
            Environment("test", ROLE_TEST),
        ),
        column_names=tuple(names),
    )


def test_factor_ols_matches_the_tall_solve(monkeypatch):
    d = factor_dataset(near_copy=True)
    view = bimp.TrainingView(d)
    chunk = bimp._FACTOR_CHUNK_ROWS
    train = np.isin(d.env_of, d.train_labels)
    target, thin, wide = view.target, view.env_features[0], view.env_features[1]
    assert target.shape[0] > 3 * chunk and target.shape[0] % chunk
    assert thin.shape[0] < d.m + 1  # e1 is thinner than [1 | every column]
    # Only the tall cut-off drops x2 - x from [1, x, x2]: where x2 is not an
    # exact copy, the smallest singular value ratio lies above the default
    # cut-off of the reduced system, eps * (m + 1), and below the tall one.
    eps = np.finfo(float).eps
    for rows in (target, wide, *(d.features[train & (d.response == y)] for y in (0, 1))):
        sv = np.linalg.svd(np.column_stack([np.ones(len(rows)), rows[:, [0, 6]]]), compute_uv=False)
        assert eps * (d.m + 1) < sv[-1] / sv[0] < eps * len(rows)
    real_lstsq = np.linalg.lstsq
    shapes = []

    def recording(a, b, *args, **kwargs):
        shapes.append(a.shape)
        return real_lstsq(a, b, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", recording)

    def check(got, rows, s, ks):
        want = regression.ols_columns(rows[:, list(s)], rows[:, ks])[0]
        assert got.terms is None and got.lam == 0.0
        scale = np.abs(want.coef).max(axis=0)
        assert np.all(np.abs(got.coef[:, ks] - want.coef) <= 1e-12 * scale), s

    # a constant column, a complete one-hot group (with and without the
    # constant), a zero column, and x with its near copy
    sets = [(), (0,), (1, 3), (0, 2, 4, 5), (1, 3, 4), (0, 6)]
    for s in sets:
        ks = [k for k in range(d.m) if k not in s]
        for block, rows in {bimp.TARGET: target, 0: thin, 1: wide}.items():
            shapes.clear()
            got = view.fit(block, s, "linear")
            # one solve on the factor's rows, not on the block's
            assert shapes == [(min(rows.shape[0], d.m + 1), len(s) + 1)]
            check(got, rows, s, ks)
        for y in (0, 1):  # h0 and h1 are OLS in either variant
            h = view.fit(("class", y), s, "linear")
            check(h, d.features[train & (d.response == y)], s, ks)
    # a set too large for e1's 6 rows is refused as the tall fit refuses it
    s = (0, 1, 2, 3, 4, 5)
    with pytest.raises(InsufficientDataError) as tall:
        regression.ols_columns(thin[:, list(s)], thin[:, [6]])
    with pytest.raises(InsufficientDataError) as factor:
        view.fit(0, s, "linear")
    assert str(factor.value) == str(tall.value)


def test_factor_solve_matches_the_tall_spline_solve(monkeypatch):
    d = factor_dataset()
    view = bimp.TrainingView(d)
    chunk = bimp._FACTOR_CHUNK_ROWS
    blocks = {bimp.TARGET: view.target, 0: view.env_features[0], 1: view.env_features[1]}
    assert blocks[bimp.TARGET].shape[0] > 3 * chunk and blocks[bimp.TARGET].shape[0] % chunk
    real_lstsq = np.linalg.lstsq
    shapes = []

    def recording(a, b, *args, **kwargs):
        shapes.append(a.shape)
        return real_lstsq(a, b, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", recording)
    # the last set holds both present indicators: its own design is rank-deficient
    sets = [(), (0,), (1, 3), (0, 2, 4, 5), (1, 3, 4)]
    for block, rows in blocks.items():
        n = rows.shape[0]
        planned = [regression._spline_plan(column) for column in rows.T]
        assert {term.kind for term, _ in planned} == {"constant", "linear", "spline"}
        full = np.hstack([np.ones((n, 1))] + [basis for _, basis in planned])
        width = full.shape[1]
        assert np.linalg.matrix_rank(full) < width  # the present indicators sum to 1
        assert 2 <= n < width if block == 0 else n > width  # e1 is thinner than its basis
        for s in sets:
            ks = [k for k in range(d.m) if k not in s]
            shapes.clear()
            got = view.fit(block, s, "gam")
            basis = view.basis(block, s)
            # one ridge solve on the factor's rows, not on the block's
            assert shapes == [(min(n, width) + basis.shape[1], basis.shape[1])]
            want, tall = regression._spline_solve([planned[j] for j in s], rows[:, ks])
            assert want.coef.tobytes() == tall_ridge(tall, rows[:, ks], want.lam).tobytes()
            assert basis.tobytes() == tall.tobytes()
            assert (got.terms, got.lam) == (want.terms, want.lam)
            scale = np.abs(rows[:, ks]).max(axis=0)
            assert np.all(np.abs(basis @ got.coef[:, ks] - tall @ want.coef) <= 1e-10 * scale), (block, s)
            if np.linalg.matrix_rank(tall) < tall.shape[1]:
                # Along the design's null direction only the penalty fixes the
                # coefficients: against the exact rational ridge solution both
                # solves are off there by 1e-10 to 1e-8 of the largest one.
                # The fitted values above are still compared.
                assert s == sets[-1]
                continue
            scale = np.abs(want.coef).max(axis=0)
            assert np.all(np.abs(got.coef[:, ks] - want.coef) <= 1e-10 * scale), (block, s)


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
