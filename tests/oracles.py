"""Independent references shared by the test modules.

``screen_oracle`` recomputes the residual screen from its definition with
numpy's ``lstsq`` and scipy's Welch test, sharing no code with
``invarbin.invariance``.  ``one_hot_dataset`` is a small table shaped like
the census one-hot benchmark.
"""

import numpy as np
import pytest

from invarbin import Environment, MultiEnvDataset, ROLE_TEST, ROLE_TRAIN


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


