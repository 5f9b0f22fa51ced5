"""Statistics: the Student-t tail, Welch's t-test, Bonferroni.

The Student-t tail probability is computed through the regularized
incomplete beta function, evaluated with a modified Lentz continued fraction
driven to a 1e-10 convergence target, which is more than enough headroom
for the 1e-6 agreement the test suite demands.  The continued fraction runs
on arrays (:func:`student_t_tail`).  Welch's test is split in two:
:func:`welch_moments` turns each side's row count, means and variances
into (t, df) for many columns at once, and the tail is taken afterwards,
so a caller running many tests
(the residual screen, ICP's subset loop) makes one tail call for all of
them.  :func:`welch_columns` feeds the kernel the sample moments of two
blocks of observations; the residual screen feeds it moments computed from
per-cell summaries, without the residuals themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, ValidationError

_BETAINC_TOL = 1e-10
_BETAINC_MAX_ITER = 500
_TINY = 1e-300


def _clamp(v: np.ndarray) -> np.ndarray:
    return np.where(np.abs(v) < _TINY, _TINY, v)


def _continued_fraction(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Continued fraction for the incomplete beta function (modified Lentz).

    Runs the recurrence on every element at once.  Each element leaves the
    live set at the step where its own |delta - 1| falls below the
    tolerance, so its value is the one a loop over that element alone would
    return; an element still live after the iteration cap keeps its partial
    sum.
    """
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = np.ones_like(x)
    d = 1.0 - qab * x / qap
    d = 1.0 / _clamp(d)
    h = d
    out = np.empty_like(x)
    live = np.arange(x.size)
    for m in range(1, _BETAINC_MAX_ITER + 1):
        m2 = 2 * m
        # even step
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 / _clamp(1.0 + aa * d)
        c = _clamp(1.0 + aa / c)
        h = h * (d * c)
        # odd step
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 / _clamp(1.0 + aa * d)
        c = _clamp(1.0 + aa / c)
        delta = d * c
        h = h * delta
        done = np.abs(delta - 1.0) < _BETAINC_TOL
        if done.any():
            out[live[done]] = h[done]
            keep = ~done
            live = live[keep]
            if not live.size:
                return out
            a, b, x, qab, qap, qam, c, d, h = (
                v[keep] for v in (a, b, x, qab, qap, qam, c, d, h)
            )
    # Worst realistic case (tiny df, x near the switch point) still converges
    # well before this; keep the partial sum rather than looping forever.
    out[live] = h
    return out


def _incomplete_beta(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """I_x(a, b) element by element on 1-d arrays, for a, b > 0 and x in [0, 1]."""
    if not (np.all(a > 0.0) and np.all(b > 0.0)):
        raise ValidationError("incomplete beta requires a > 0 and b > 0")
    outside = ~((0.0 <= x) & (x <= 1.0))
    if outside.any():
        raise ValidationError(
            f"incomplete beta requires 0 <= x <= 1, got {float(x[outside][0])!r}"
        )
    result = x.copy()  # I_0 = 0 and I_1 = 1
    inner = np.flatnonzero((x > 0.0) & (x < 1.0))
    a, b, x = a[inner], b[inner], x[inner]
    front = np.array(
        [
            math.exp(
                math.lgamma(ai + bi)
                - math.lgamma(ai)
                - math.lgamma(bi)
                + ai * math.log(xi)
                + bi * math.log1p(-xi)
            )
            for ai, bi, xi in zip(a.tolist(), b.tolist(), x.tolist())
        ]
    )
    # The continued fraction converges fast only on one side of the mean;
    # use the symmetry I_x(a,b) = 1 - I_{1-x}(b,a) on the other side.
    low = x < (a + 1.0) / (a + b + 2.0)
    cf = _continued_fraction(
        np.where(low, a, b), np.where(low, b, a), np.where(low, x, 1.0 - x)
    )
    result[inner] = np.where(low, front * cf / a, 1.0 - front * cf / b)
    return result


def student_t_tail(t, df) -> np.ndarray:
    """P(|T| >= |t|) for T Student-t with ``df`` degrees of freedom, elementwise.

    Equals I_{df/(df+t^2)}(df/2, 1/2).  Every ``df`` must be positive and
    no ``t`` NaN; an infinite ``t`` has probability 0.  The whole array is
    one continued-fraction run, so a caller with many tests makes one call.
    """
    t = np.asarray(t, dtype=float)
    shape = t.shape
    t = t.reshape(-1)
    df = np.asarray(df, dtype=float).reshape(-1)
    bad = ~(df > 0.0)
    if bad.any():
        raise ValidationError(f"degrees of freedom must be positive, got {float(df[bad][0])!r}")
    if np.isnan(t).any():
        raise ValidationError("t statistic is NaN")
    # t * t may overflow to inf, which gives x = 0 and p = 0; an infinite df
    # gives x = NaN, which the incomplete beta rejects.
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.where(np.isinf(t), 0.0, df / (df + t * t))
    return _incomplete_beta(0.5 * df, np.full(df.shape, 0.5), x).reshape(shape)


def student_t_two_sided_p(t: float, df: float) -> float:
    """P(|T| >= |t|) for T Student-t with ``df`` degrees of freedom.

    The one-value case of :func:`student_t_tail`.
    """
    return float(student_t_tail(np.array([t], dtype=float), np.array([df], dtype=float))[0])


@dataclass(frozen=True)
class TTestResult:
    """Outcome of a two-sided Welch t-test."""

    t_statistic: float
    degrees_of_freedom: float
    p_value: float


def welch_moments(inside, outside) -> tuple[np.ndarray, np.ndarray]:
    """Two-sided Welch t statistics from moments: (t, df) arrays.

    Each side is ``(n, mean, variance)``: a row count of at least two and
    arrays of per-column means and unbiased (ddof = 1) variances.  Degrees
    of freedom follow Welch-Satterthwaite.  A column whose two variances
    are both zero is decided by its means: t = 0 when they agree, t
    infinite (signed by the difference) when they do not, with
    df = n_inside + n_outside - 2.  The p-values are
    :func:`student_t_tail` of the result, which a caller with many tests
    takes once for all of them.
    """
    n_in, mean_in, var_in = inside
    n_out, mean_out, var_out = outside
    diff = mean_in - mean_out
    va = var_in / n_in
    vb = var_out / n_out
    se2 = va + vb
    t = np.where(diff == 0.0, 0.0, np.copysign(np.inf, diff))
    df = np.full(diff.shape, float(n_in + n_out - 2))
    live = se2 > 0.0
    t[live] = diff[live] / np.sqrt(se2[live])
    # Squaring a variance below about 1e-154 (or above 1e154) leaves the
    # normal float range.  Scaling both by one power of two is exact, so df
    # is unchanged wherever it did not.
    exponent = np.frexp(np.maximum(va[live], vb[live]))[1]
    va, vb = np.ldexp(va[live], -exponent), np.ldexp(vb[live], -exponent)
    df[live] = (va + vb) ** 2 / (va**2 / (n_in - 1) + vb**2 / (n_out - 1))
    return t, df


def welch_columns(inside: np.ndarray, outside: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two-sided Welch t statistics, column by column: (t, df) arrays.

    Column j of ``inside`` is compared with column j of ``outside``.  Both
    blocks need at least two rows and finite entries.  The sample means
    and variances are taken in two passes and handed to
    :func:`welch_moments`.
    """
    if inside.shape[0] < 2 or outside.shape[0] < 2:
        raise InsufficientDataError(
            "Welch test needs >= 2 observations per sample, "
            f"got {inside.shape[0]} and {outside.shape[0]}"
        )
    if not (np.all(np.isfinite(inside)) and np.all(np.isfinite(outside))):
        raise ValidationError("Welch test requires finite samples")
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
    a = np.asarray(a, dtype=float).reshape(-1, 1)
    b = np.asarray(b, dtype=float).reshape(-1, 1)
    t, df = welch_columns(a, b)
    return TTestResult(float(t[0]), float(df[0]), student_t_two_sided_p(t[0], df[0]))


def bonferroni_combine(p_values) -> float:
    """Bonferroni combination: min(1, n * min(p_values))."""
    p_values = [float(p) for p in p_values]
    if not p_values:
        raise ValidationError("bonferroni_combine requires at least one p-value")
    for p in p_values:
        if not (0.0 <= p <= 1.0):
            raise ValidationError(f"p-values must lie in [0, 1], got {p!r}")
    return min(1.0, len(p_values) * min(p_values))
