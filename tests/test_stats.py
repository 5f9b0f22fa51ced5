import math

import numpy as np
import pytest

from invarbin import (
    InsufficientDataError,
    ValidationError,
    bonferroni_combine,
    student_t_two_sided_p,
    welch_t_test,
)
from invarbin.stats import _incomplete_beta, student_t_tail, welch_moments
from oracles import betacf, incomplete_beta, t_two_sided_p

scipy_integrate = pytest.importorskip("scipy.integrate")
scipy_special = pytest.importorskip("scipy.special")
scipy_stats = pytest.importorskip("scipy.stats")


def t_density(x: float, df: float) -> float:
    # Student t density written out from the gamma function, so the
    # quadrature oracle shares no code with the implementation under test.
    log_c = (
        math.lgamma((df + 1.0) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * math.log(df * math.pi)
    )
    return math.exp(log_c - ((df + 1.0) / 2.0) * math.log1p(x * x / df))


def two_sided_p_by_quadrature(t: float, df: float) -> float:
    tail, _ = scipy_integrate.quad(t_density, abs(t), np.inf, args=(df,))
    return 2.0 * tail


def test_incomplete_beta_against_scipy_grid():
    rng = np.random.default_rng(7)
    a, b, x = np.array(
        [(rng.uniform(0.2, 30.0), rng.uniform(0.2, 30.0), rng.uniform()) for _ in range(200)]
    ).T
    want = scipy_special.betainc(a, b, x)
    np.testing.assert_allclose(_incomplete_beta(a, b, x), want, rtol=0, atol=1e-10)


def test_incomplete_beta_endpoints():
    got = _incomplete_beta(np.array([2.0, 2.0]), np.array([3.0, 3.0]), np.array([0.0, 1.0]))
    assert got.tolist() == [0.0, 1.0]


def test_t_two_sided_p_matches_quadrature():
    # criterion 8 tolerance
    for t in (0.0, 0.31, 1.0, 2.5, 7.0):
        for df in (1.0, 2.7, 10.0, 120.0):
            assert student_t_two_sided_p(t, df) == pytest.approx(
                two_sided_p_by_quadrature(t, df), abs=1e-6
            )


def test_t_two_sided_p_edge_values():
    assert student_t_two_sided_p(0.0, 5.0) == 1.0
    assert student_t_two_sided_p(float("inf"), 5.0) == 0.0
    assert student_t_two_sided_p(-float("inf"), 5.0) == 0.0


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def tail_draws(count: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(t, df) pairs spanning the screen's and ICP's range, with edge cases."""
    rng = np.random.default_rng(seed)
    df = np.exp(rng.uniform(math.log(1.5), math.log(1e5), size=count))
    t = rng.standard_normal(count) * np.exp(rng.uniform(math.log(1e-3), math.log(30.0), size=count))
    special_df = np.array([1.5, 2.0, 7.3, 100.0, 1e4, 1e5])
    # t = 0, infinite, overflowing t * t, and t putting x at the branch
    # switch (a + 1) / (a + b + 2) of the continued fraction and one ulp off
    a = 0.5 * special_df
    switch = np.sqrt(special_df / ((a + 1.0) / (a + 2.5)) - special_df)
    edges = [np.zeros(6), np.full(6, np.inf), np.full(6, -np.inf), np.full(6, 1e200),
             switch, np.nextafter(switch, 0.0), np.nextafter(switch, np.inf), -switch]
    t = np.concatenate([t, *edges])
    df = np.concatenate([df, *[special_df] * len(edges)])
    return t, df


def test_tail_matches_scalar_recurrence_bitwise():
    t, df = tail_draws(25_000)
    want = [t_two_sided_p(ti, di) for ti, di in zip(t.tolist(), df.tolist())]
    assert bits(student_t_tail(t, df)) == bits(want)
    picks = range(0, len(t), 97)
    scalar = [student_t_two_sided_p(t[i], df[i]) for i in picks]
    assert bits(scalar) == bits([want[i] for i in picks])


def test_incomplete_beta_kernel_matches_scalar_recurrence_bitwise():
    rng = np.random.default_rng(5)
    a = np.exp(rng.uniform(math.log(0.2), math.log(1e4), size=3000))
    b = np.exp(rng.uniform(math.log(0.2), math.log(1e4), size=3000))
    x = rng.uniform(size=3000)
    switch = (a + 1.0) / (a + b + 2.0)
    # a = b = 1e6 at x = 1/2 takes 420 steps; 1e7 stops at the 500-step cap
    assert [betacf(v, v, 0.5)[1] for v in (1e6, 1e7)] == [420, 500]
    a = np.concatenate([a, a, [1e6, 1e7, 2.0, 2.0]])
    b = np.concatenate([b, b, [1e6, 1e7, 3.0, 3.0]])
    x = np.concatenate([x, switch, [0.5, 0.5, 0.0, 1.0]])
    want = [incomplete_beta(*v) for v in zip(a.tolist(), b.tolist(), x.tolist())]
    assert bits(_incomplete_beta(a, b, x)) == bits(want)


def test_tail_is_batch_invariant():
    t, df = tail_draws(3000, seed=1)
    whole = student_t_tail(t, df)
    order = np.random.default_rng(2).permutation(len(t))
    assert bits(student_t_tail(t[order], df[order])) == bits(whole[order])
    half = order[: len(t) // 2]
    assert bits(student_t_tail(t[half], df[half])) == bits(whole[half])
    alone = [student_t_tail(t[i : i + 1], df[i : i + 1])[0] for i in range(0, len(t), 29)]
    assert bits(alone) == bits(whole[::29])
    assert student_t_tail(np.empty(0), np.empty(0)).shape == (0,)


def test_tail_rejects_bad_input():
    with pytest.raises(ValidationError):
        student_t_tail([1.0, 2.0], [3.0, 0.0])
    with pytest.raises(ValidationError):
        student_t_tail([1.0, float("nan")], [3.0, 3.0])
    with pytest.raises(ValidationError):
        student_t_two_sided_p(1.0, -2.0)


def test_welch_is_exact_under_power_of_two_scaling():
    # var / n near 1e-165 squares below the smallest float
    rng = np.random.default_rng(9)
    a, b = rng.standard_normal((2, 50))
    small = welch_t_test(a * 2.0**-270, b * 2.0**-270)
    assert small == welch_t_test(a, b)
    assert math.isfinite(small.degrees_of_freedom)


def test_welch_matches_scipy_on_random_samples():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = rng.normal(0.0, 1.0, size=int(rng.integers(3, 40)))
        b = rng.normal(0.3, 2.0, size=int(rng.integers(3, 40)))
        ours = welch_t_test(list(a), list(b))
        ref = scipy_stats.ttest_ind(a, b, equal_var=False)
        assert ours.t_statistic == pytest.approx(float(ref.statistic), abs=1e-10)
        assert ours.p_value == pytest.approx(float(ref.pvalue), abs=1e-10)


def test_welch_moments_match_scipy_from_stats():
    rng = np.random.default_rng(3)
    n_in, n_out = 40, 95
    mean_in, mean_out = rng.normal(size=5), rng.normal(size=5)
    var_in, var_out = rng.uniform(0.1, 4.0, size=(2, 5))
    t, df = welch_moments((n_in, mean_in, var_in), (n_out, mean_out, var_out))
    p = student_t_tail(t, df)
    want = scipy_stats.ttest_ind_from_stats(
        mean_in, np.sqrt(var_in), n_in, mean_out, np.sqrt(var_out), n_out, equal_var=False
    )
    assert t == pytest.approx(want.statistic, rel=1e-12)
    assert p == pytest.approx(want.pvalue, rel=1e-6, abs=1e-12)
    assert np.all((n_in - 1 <= df + 1e-9) & (df <= n_in + n_out - 2))


def test_welch_identical_constant_samples():
    result = welch_t_test([2.0, 2.0, 2.0], [2.0, 2.0])
    assert result.p_value == 1.0


def test_welch_distinct_constant_samples():
    result = welch_t_test([1.0, 1.0, 1.0], [2.0, 2.0])
    assert result.p_value == 0.0
    assert math.isinf(result.t_statistic)


def test_welch_needs_two_per_side():
    with pytest.raises(InsufficientDataError):
        welch_t_test([1.0], [2.0, 3.0])
    with pytest.raises(InsufficientDataError):
        welch_t_test([1.0, 2.0], [])


def test_welch_rejects_non_finite():
    with pytest.raises(ValidationError):
        welch_t_test([1.0, float("nan")], [2.0, 3.0])


def test_bonferroni_exact_examples():
    assert bonferroni_combine([0.01, 0.2, 0.5]) == pytest.approx(0.03, abs=0.0)
    assert bonferroni_combine([0.5]) == 0.5
    assert bonferroni_combine([0.4, 0.6]) == pytest.approx(0.8, abs=0.0)
    # clipped at one
    assert bonferroni_combine([0.9, 0.8]) == 1.0


def test_bonferroni_rejects_bad_input():
    with pytest.raises(ValidationError):
        bonferroni_combine([])
    with pytest.raises(ValidationError):
        bonferroni_combine([1.5])
