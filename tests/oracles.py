"""Independent references shared by the test modules.

``screen_oracle`` recomputes the residual screen from its definition with
numpy's ``lstsq`` and scipy's Welch test, sharing no code with
``invarbin.invariance``.  ``one_hot_dataset`` is a small table shaped like
the census one-hot benchmark.  ``incomplete_beta`` and ``t_two_sided_p``
are the scalar modified-Lentz recurrence, one value at a time in Python
floats, that the array kernel in ``invarbin.stats`` must match bit for bit.
``log_likelihood`` is the Bernoulli log-likelihood through
``numpy.logaddexp``, against which the logistic fit's fused form is checked.
"""

import math

import numpy as np
import pytest

from invarbin import Environment, MultiEnvDataset, ROLE_TEST, ROLE_TRAIN


_BETAINC_TOL = 1e-10
_BETAINC_MAX_ITER = 500
_TINY = 1e-300


def betacf(a: float, b: float, x: float) -> tuple[float, int]:
    """Continued fraction for the incomplete beta function and its step count."""
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
            return h, m
    return h, _BETAINC_MAX_ITER


def incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
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
    if x < (a + 1.0) / (a + b + 2.0):
        return front * betacf(a, b, x)[0] / a
    return 1.0 - front * betacf(b, a, 1.0 - x)[0] / b


def t_two_sided_p(t: float, df: float) -> float:
    """P(|T| >= |t|) for T Student-t with ``df`` degrees of freedom."""
    if math.isinf(t):
        return 0.0
    return incomplete_beta(0.5 * df, 0.5, df / (df + t * t))


def log_likelihood(z, y) -> float:
    """sum(y * z - log(1 + e^z)): log sigma(z) for y = 1, log(1 - sigma(z)) for y = 0."""
    return float(np.sum(y * z - np.logaddexp(0.0, z)))


def screen_oracle(d, pairs, alpha=0.1):
    """Reference screen: {pair: (verdict, {env: {class: adjusted p}})}.

    Per class, column k is fitted on [1, X_S] over the pooled training rows
    by ``numpy.linalg.lstsq``; per training environment, scipy's Welch test
    compares inside against outside residuals, and the p-values are
    multiplied by the number of training environments (capped at 1).  A
    pair is accepted when every adjusted p-value exceeds ``alpha``.
    """
    scipy_stats = pytest.importorskip("scipy.stats")
    train = np.isin(d.env_of, d.train_labels)
    X, y, env = d.features[train], d.response[train], d.env_of[train]
    labels = d.train_labels
    out = {}
    for pair in pairs:
        adjusted = {label: {} for label in labels}
        for cls in (0, 1):
            rows = y == cls
            design = np.column_stack([np.ones(rows.sum()), X[rows][:, list(pair.s)]])
            target = X[rows, pair.k]
            coef = np.linalg.lstsq(design, target, rcond=None)[0]
            residuals = target - design @ coef
            for label in labels:
                inside = env[rows] == label
                p = scipy_stats.ttest_ind(
                    residuals[inside], residuals[~inside], equal_var=False
                ).pvalue
                adjusted[label][cls] = min(1.0, len(labels) * float(p))
        worst = min(p for by in adjusted.values() for p in by.values())
        out[pair] = ("accepted" if worst > alpha else "rejected", adjusted)
    return out


def one_hot_dataset(n=900, categoricals=3, levels=5, seed=0):
    """A small table shaped like the census one-hot benchmark.

    Rows cycle through environments e1, e2, test.  Each categorical becomes
    levels - 1 indicator columns sharing one raw origin; ``a`` is a + y and
    ``b`` is shifted by one in e2, so pairs with k = b are not invariant.
    """
    rng = np.random.default_rng(seed)
    level = rng.integers(0, levels, size=(n, categoricals))
    a, b, noise = rng.standard_normal((3, n))
    y = (a + 0.3 * level[:, 0] + noise > 1.0).astype(np.int64)
    env = np.array([("e1", "e2", "test")[i % 3] for i in range(n)], dtype=object)
    blocks = [(level[:, [j]] == np.arange(1, levels)).astype(float) for j in range(categoricals)]
    features = np.column_stack([*blocks, a + y, b + (env == "e2")])
    names = [f"c{j}=lv{v}" for j in range(categoricals) for v in range(1, levels)]
    origin = {name: name.split("=")[0] for name in names}
    origin.update(a="a", b="b")
    return MultiEnvDataset(
        features=features,
        response=y,
        env_of=env,
        environments=(
            Environment("e1", ROLE_TRAIN),
            Environment("e2", ROLE_TRAIN),
            Environment("test", ROLE_TEST),
        ),
        column_names=(*names, "a", "b"),
        column_origin=origin,
    )


