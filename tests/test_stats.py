import math

import numpy as np
import pytest

from invarbin import (
    InsufficientDataError,
    ValidationError,
    bonferroni_combine,
    normal_cdf,
    regularized_incomplete_beta,
    student_t_two_sided_p,
    welch_t_test,
)
from invarbin.stats import welch_moments

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


def test_normal_cdf_at_zero_is_exactly_half():
    assert normal_cdf(0.0) == 0.5


def test_normal_cdf_symmetry_and_known_values():
    for x in (0.5, 1.0, 1.96, 3.2):
        assert normal_cdf(x) + normal_cdf(-x) == pytest.approx(1.0, abs=1e-15)
    assert normal_cdf(1.0) == pytest.approx(0.8413447460685429, abs=1e-12)
    assert normal_cdf(-2.0) == pytest.approx(0.022750131948179195, abs=1e-12)


def test_normal_cdf_matches_quadrature():
    def density(x):
        return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)

    for x in (-3.0, -0.7, 0.3, 1.5, 4.0):
        target, _ = scipy_integrate.quad(density, -np.inf, x)
        assert normal_cdf(x) == pytest.approx(target, abs=1e-10)


def test_normal_cdf_rejects_non_finite():
    with pytest.raises(ValidationError):
        normal_cdf(float("nan"))


def test_incomplete_beta_against_scipy_grid():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a = float(rng.uniform(0.2, 30.0))
        b = float(rng.uniform(0.2, 30.0))
        x = float(rng.uniform(0.0, 1.0))
        assert regularized_incomplete_beta(a, b, x) == pytest.approx(
            float(scipy_special.betainc(a, b, x)), abs=1e-10
        )


def test_incomplete_beta_endpoints():
    assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
    assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0


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
    t, df, p = welch_moments((n_in, mean_in, var_in), (n_out, mean_out, var_out))
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
