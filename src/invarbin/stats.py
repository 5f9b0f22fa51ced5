"""Statistics: normal CDF, Welch's t-test, Bonferroni.

The Student-t tail probability is computed through the regularized
incomplete beta function, evaluated with a modified Lentz continued fraction
driven to a 1e-10 convergence target, which is more than enough headroom
for the 1e-6 agreement the test suite demands.  Welch's test has one
kernel, :func:`welch_moments`, which tests many columns at once from each
side's row count, means and variances.  :func:`welch_columns` feeds it the
sample moments of two blocks of observations (ICP's path, through its
checked one-column case :func:`welch_t_test`); the residual screen feeds it
moments computed from per-cell summaries, without the residuals
themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, ValidationError

_BETAINC_TOL = 1e-10
_BETAINC_MAX_ITER = 500
_TINY = 1e-300


def normal_cdf(x: float) -> float:
    """Standard normal CDF Phi(x).

    Uses erfc for full relative accuracy in both tails; absolute error is at
    the level of float rounding.  Non-finite input is rejected.
    """
    if not math.isfinite(x):
        raise ValidationError(f"normal_cdf requires finite x, got {x!r}")
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _BETAINC_MAX_ITER + 1):
        m2 = 2 * m
        # even step
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        # odd step
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETAINC_TOL:
            return h
    # Worst realistic case (tiny df, x near the switch point) still converges
    # well before this; return the partial sum rather than looping forever.
    return h


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if not (a > 0.0 and b > 0.0):
        raise ValidationError("incomplete beta requires a > 0 and b > 0")
    if not (0.0 <= x <= 1.0):
        raise ValidationError(f"incomplete beta requires 0 <= x <= 1, got {x!r}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # The continued fraction converges fast only on one side of the mean;
    # use the symmetry I_x(a,b) = 1 - I_{1-x}(b,a) on the other side.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_two_sided_p(t: float, df: float) -> float:
    """P(|T| >= |t|) for T Student-t with ``df`` degrees of freedom.

    Equals I_{df/(df+t^2)}(df/2, 1/2).  ``df`` must be positive; ``t`` may be
    infinite (probability 0).
    """
    if not df > 0.0:
        raise ValidationError(f"degrees of freedom must be positive, got {df!r}")
    if math.isnan(t):
        raise ValidationError("t statistic is NaN")
    if math.isinf(t):
        return 0.0
    x = df / (df + t * t)
    return regularized_incomplete_beta(0.5 * df, 0.5, x)


@dataclass(frozen=True)
class TTestResult:
    """Outcome of a two-sided Welch t-test."""

    t_statistic: float
    degrees_of_freedom: float
    p_value: float


def welch_moments(inside, outside) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two-sided Welch t-tests from moments: (t, df, p) arrays.

    Each side is ``(n, mean, variance)``: a row count of at least two and
    arrays of per-column means and unbiased (ddof = 1) variances.  Degrees
    of freedom follow Welch-Satterthwaite.  A column whose two variances
    are both zero is decided by its means: p = 1 (t = 0) when they agree,
    p = 0 (t infinite, signed by the difference) when they do not, with
    df = n_inside + n_outside - 2.
    """
    n_in, mean_in, var_in = inside
    n_out, mean_out, var_out = outside
    diff = mean_in - mean_out
    va = var_in / n_in
    vb = var_out / n_out
    se2 = va + vb
    t = np.where(diff == 0.0, 0.0, np.copysign(np.inf, diff))
    df = np.full(diff.shape, float(n_in + n_out - 2))
    p = np.where(diff == 0.0, 1.0, 0.0)
    live = se2 > 0.0
    t[live] = diff[live] / np.sqrt(se2[live])
    df[live] = se2[live] ** 2 / (va[live] ** 2 / (n_in - 1) + vb[live] ** 2 / (n_out - 1))
    p[live] = [student_t_two_sided_p(float(ti), float(di)) for ti, di in zip(t[live], df[live])]
    return t, df, p


def welch_columns(
    inside: np.ndarray, outside: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two-sided Welch t-tests, column by column: (t, df, p) arrays.

    Column j of ``inside`` is compared with column j of ``outside``; both
    blocks need at least two rows and finite entries, which callers
    guarantee.  The sample means and variances are taken in two passes and
    handed to :func:`welch_moments`.
    """
    return welch_moments(
        (inside.shape[0], inside.mean(axis=0), inside.var(axis=0, ddof=1)),
        (outside.shape[0], outside.mean(axis=0), outside.var(axis=0, ddof=1)),
    )


def welch_t_test(a, b) -> TTestResult:
    """Two-sided Welch t-test for equality of means of two samples.

    Variances are not assumed equal; degrees of freedom follow the
    Welch-Satterthwaite approximation.  Each sample needs at least two
    observations, all finite.  If both sample variances are exactly zero the
    test is decided by the means alone: p = 1 when they agree, p = 0 when
    they do not (reported with an infinite t statistic).
    """
    a = np.asarray(a, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    if a.size < 2 or b.size < 2:
        raise InsufficientDataError(
            f"welch_t_test needs >= 2 observations per sample, got {a.size} and {b.size}"
        )
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValidationError("welch_t_test requires finite samples")
    t, df, p = welch_columns(a[:, None], b[:, None])
    return TTestResult(float(t[0]), float(df[0]), float(p[0]))


def bonferroni_combine(p_values) -> float:
    """Bonferroni combination: min(1, n * min(p_values))."""
    p_values = [float(p) for p in p_values]
    if not p_values:
        raise ValidationError("bonferroni_combine requires at least one p-value")
    for p in p_values:
        if not (0.0 <= p <= 1.0):
            raise ValidationError(f"p-values must lie in [0, 1], got {p!r}")
    return min(1.0, len(p_values) * min(p_values))
