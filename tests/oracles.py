"""Independent references shared by the test modules.

``screen_oracle`` recomputes the residual screen from its definition with
numpy's ``lstsq`` and scipy's Welch test, sharing no code with
``invarbin.invariance``.  ``one_hot_dataset`` is a small table shaped like
the census one-hot benchmark.  ``incomplete_beta`` and ``t_two_sided_p``
are the scalar modified-Lentz recurrence, one value at a time in Python
floats, that the array kernel in ``invarbin.stats`` must match bit for bit.
``log_likelihood`` is the Bernoulli log-likelihood through
``numpy.logaddexp``, against which the logistic fit's fused form is checked.
``encode_rows`` and ``sniff_rows`` are the row-by-row CSV encoder and
schema sniffer that ``invarbin.data``'s column-wise ``encode_table`` and
``sniff_table`` must match in every dataset bit, schema entry and refusal.
``icp_reference`` is the invariant-set search with one public logistic fit
and one prediction per subset, against which ``fit_icp``'s shared start is
checked.  ``clip_power_basis`` and ``unique_plan`` are the natural-spline
basis through ``np.clip(x - k, 0, None) ** 3`` and the term plan through
``np.unique``, which the regression kernels must match byte for byte and
decision for decision.  ``training_scores`` is the score filter's
per-conditioning-set training error through NaN-filled ratios and
``np.where``, from the members' own h0/h1 coefficients, which
``bimp._training_scores`` must match bit for bit.
"""

import math

import numpy as np
import pytest

from invarbin import (
    CsvParseError,
    EncodingSpec,
    Environment,
    InsufficientDataError,
    MultiEnvDataset,
    ROLE_DROP,
    ROLE_TEST,
    ROLE_TRAIN,
    SchemaError,
    ValidationError,
    bonferroni_combine,
    deviance_residuals,
    feature_groups,
    fit_logistic,
    predict,
    training_subset,
)
from invarbin.bimp import VARIANT_LINEAR
from invarbin.invariance import conditioning_sets
from invarbin.regression import SplineTerm
from invarbin.stats import student_t_tail, welch_columns


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


def clip_power_basis(x, knots) -> np.ndarray:
    """Natural cubic basis [x, N_1(x), ..., N_{K-2}(x)] with clipped truncated cubes."""
    last, second_last = knots[-1], knots[-2]
    cube_last = np.clip(x - last, 0.0, None) ** 3

    def scaled(k):
        return (np.clip(x - k, 0.0, None) ** 3 - cube_last) / (last - k)

    anchor = scaled(second_last)
    return np.column_stack([x] + [scaled(k) - anchor for k in knots[:-2]])


def unique_plan(x, n_knots) -> SplineTerm:
    """One column's spline term, its distinct values counted by ``np.unique``."""
    distinct = np.unique(x)
    if distinct.size <= 1:
        return SplineTerm(kind="constant", knots=())
    if distinct.size == 2:
        return SplineTerm(kind="linear", knots=())
    knots = np.unique(np.quantile(x, [(i + 1) / (n_knots + 1) for i in range(n_knots)]))
    if knots.size < 3:
        return SplineTerm(kind="linear", knots=())
    return SplineTerm(kind="spline", knots=tuple(float(k) for k in knots))


def training_scores(view, s, variant, members) -> list[float]:
    """Mean squared training error of pair models sharing S, one array per step.

    The ratio is NaN where |h1 - h0| <= eps_abs, and those entries are
    replaced by zero before the sum, per training environment; members
    with no contributing row score infinity.
    """
    ks = [pm.pair.k for pm in members]
    h0 = np.array([pm.h0.coef for pm in members]).T
    h1 = np.array([pm.h1.coef for pm in members]).T
    eps = np.array([pm.eps_abs for pm in members])
    total = np.zeros(len(members))
    count = np.zeros(len(members))
    for block, (env, observed) in enumerate(zip(view.env_features, view.env_response)):
        try:
            coef = view.fit(block, s, variant).coef[:, ks]
        except InsufficientDataError:
            continue
        design = np.column_stack([np.ones(env.shape[0]), env[:, list(s)]])
        marginal = (design if variant == VARIANT_LINEAR else view.basis(block, s)) @ coef
        low, high = design @ h0, design @ h1
        den = high - low
        degenerate = np.abs(den) <= eps
        ratio = np.divide(marginal - low, den, out=np.full(den.shape, np.nan), where=~degenerate)
        probs = np.clip(ratio, 0.0, 1.0)
        total += np.where(degenerate, 0.0, (probs - observed[:, None]) ** 2).sum(axis=0)
        count += (~degenerate).sum(axis=0)
    mean = np.divide(total, count, out=np.full(len(members), math.inf), where=count > 0)
    return [float(v) for v in mean]


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


def icp_reference(d, alpha=0.1, max_subset_size=None):
    """Reference invariant-set search: (accepted, intersection, abstained, pvals, models).

    Each subset is fitted on its own columns by the public ``fit_logistic``
    and scored on ``predict``'s clipped probabilities; the per-environment
    Welch statistics of the deviance residuals go through one Student-t
    tail call and are Bonferroni-combined per subset.
    """
    train = training_subset(d)
    masks = [(train.env_of == label, train.env_of != label) for label in train.train_labels]
    subsets = conditioning_sets(feature_groups(d), max_subset_size)
    models, t, df = {}, [], []
    for cols in subsets:
        X = train.features[:, list(cols)]
        models[cols] = fit_logistic(X, train.response)
        residuals = deviance_residuals(predict(models[cols], X), train.response)
        for inside, outside in masks:
            t_env, df_env = welch_columns(residuals[inside][:, None], residuals[outside][:, None])
            t.append(t_env)
            df.append(df_env)
    p = student_t_tail(np.concatenate(t), np.concatenate(df)).reshape(len(subsets), len(masks))
    pvals = {cols: bonferroni_combine(by_env) for cols, by_env in zip(subsets, p)}
    accepted = tuple(cols for cols in subsets if pvals[cols] > alpha)
    intersection = tuple(sorted(set.intersection(*map(set, accepted)))) if accepted else ()
    return accepted, intersection, not intersection, pvals, models


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


def adult_like_dataset(seed, n_per_env=2000):
    """Four numeric census columns at their raw scales, in environments e1, e2, test.

    age is 17-89, fnlwgt about exp(N(12, 0.5)) (around 1.6e5), capital-gain
    is 0 on nine rows in ten and otherwise up to 99,999, and hours-per-week
    is around 40; the label follows age, gain and hours, not fnlwgt.
    """
    rng = np.random.default_rng(seed)
    labels = ("e1", "e2", "test")
    n = n_per_env * len(labels)
    age = rng.integers(17, 90, n).astype(float)
    fnlwgt = np.round(np.exp(rng.normal(12.0, 0.5, n)))
    gain = np.round(np.exp(rng.uniform(np.log(100.0), np.log(99_999.0), n)))
    gain[rng.uniform(size=n) < 0.9] = 0.0
    hours = np.clip(np.round(rng.normal(40.0, 12.0, n)), 1.0, 99.0)
    logits = -1.5 + 0.04 * (age - 38.0) + 0.03 * (hours - 40.0) + 2e-4 * gain
    y = (rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-logits))).astype(np.int64)
    return MultiEnvDataset(
        features=np.column_stack([age, fnlwgt, gain, hours]),
        response=y,
        env_of=np.repeat(np.asarray(labels, dtype=object), n_per_env),
        environments=(
            Environment("e1", ROLE_TRAIN),
            Environment("e2", ROLE_TRAIN),
            Environment("test", ROLE_TEST),
        ),
        column_names=("age", "fnlwgt", "capital-gain", "hours-per-week"),
    )




def encode_rows(header, rows, spec) -> MultiEnvDataset:
    """Reference encoder: one row at a time, each refusal raised as its row is met.

    Within a row the environment is checked first, then the response, then
    the feature columns in spec order; a row dropped by its environment's
    role or by a missing cell is left before its later cells are read.
    """
    positions = {name: i for i, name in enumerate(header)}
    for col in (*spec.columns, spec.response_column, spec.env_column):
        if col not in positions:
            raise SchemaError(f"column {col!r} not present in header")
    encoded = spec.encoded_columns()
    features, responses, env_labels = [], [], []
    for line_no, row in rows:
        if len(row) != len(header):
            raise CsvParseError(f"expected {len(header)} fields, found {len(row)}", line=line_no)
        cells = [c.strip() for c in row]
        raw_env = cells[positions[spec.env_column]]
        if raw_env not in spec.env_map:
            raise SchemaError(f"line {line_no}: unmapped environment value {raw_env!r}")
        if spec.env_map[raw_env]["role"] == ROLE_DROP:
            continue
        raw_y = cells[positions[spec.response_column]]
        if raw_y not in spec.response_map:
            raise SchemaError(f"line {line_no}: unmapped response value {raw_y!r}")
        values = []
        for col in spec.columns:
            cell = cells[positions[col]]
            missing = cell in ("", spec.missing_token)
            if spec.kinds[col] == "numeric":
                if missing:
                    break
                try:
                    values.append(float(cell))
                except ValueError:
                    raise SchemaError(
                        f"line {line_no}: column {col!r} has non-numeric value {cell!r}"
                    ) from None
                if not math.isfinite(values[-1]):
                    raise SchemaError(
                        f"line {line_no}: column {col!r} has non-finite value {cell!r}"
                    )
            else:
                if missing and spec.missing_policy == "drop_row":
                    break
                values.extend(float(cell == cat) for cat in spec.categories[col][1:])
        else:
            features.append(values)
            responses.append(spec.response_map[raw_y])
            env_labels.append(spec.env_map[raw_env]["label"])
    declared = {}
    for record in spec.env_map.values():
        if record["role"] != ROLE_DROP:
            declared.setdefault(record["label"], record["role"])
    empty = [label for label in declared if label not in env_labels]
    if empty:
        raise ValidationError(f"declared environments ended up empty: {empty}")
    return MultiEnvDataset(
        features=np.array(features, dtype=float).reshape(len(features), len(encoded)),
        response=np.array(responses, dtype=np.int64),
        env_of=np.array(env_labels, dtype=object),
        environments=tuple(Environment(label, role) for label, role in declared.items()),
        column_names=tuple(name for name, _ in encoded),
        column_origin=dict(encoded),
    )


def sniff_rows(header, rows, env_column, response_column, test_env=None, response_map=None):
    """Reference sniffer: one row at a time, reading every stripped cell.

    A feature column is numeric when it has a non-missing cell ("" and "?"
    are missing) and every such cell parses as a float; otherwise it is
    categorical over its sorted non-missing values.
    """
    for col in (env_column, response_column):
        if col not in header:
            raise SchemaError(f"column {col!r} not present in header")
    positions = {name: i for i, name in enumerate(header)}
    features = [c for c in header if c not in (env_column, response_column)]
    seen = {col: set() for col in features}
    numeric = {col: True for col in features}
    env_values, response_values = set(), set()
    for line_no, row in rows:
        if len(row) != len(header):
            raise CsvParseError(f"expected {len(header)} fields, found {len(row)}", line=line_no)
        cells = [c.strip() for c in row]
        env_values.add(cells[positions[env_column]])
        response_values.add(cells[positions[response_column]])
        for col in features:
            cell = cells[positions[col]]
            if cell in ("", "?"):
                continue
            seen[col].add(cell)
            try:
                float(cell)
            except ValueError:
                numeric[col] = False
    if response_map is None:
        distinct = sorted(response_values)
        if len(distinct) != 2:
            raise SchemaError(
                f"response column {response_column!r} has {len(distinct)} distinct "
                "values; pass an explicit response_map"
            )
        response_map = {distinct[0]: 0, distinct[1]: 1}
    if test_env is not None and test_env not in env_values:
        raise SchemaError(f"test environment {test_env!r} never appears in {env_column!r}")
    return EncodingSpec(
        columns=tuple(features),
        kinds={c: "numeric" if numeric[c] and seen[c] else "categorical" for c in features},
        categories={c: tuple(sorted(seen[c])) for c in features if not (numeric[c] and seen[c])},
        response_column=response_column,
        response_map=dict(response_map),
        env_column=env_column,
        env_map={
            v: {"label": v, "role": ROLE_TEST if v == test_env else ROLE_TRAIN}
            for v in sorted(env_values)
        },
    )
