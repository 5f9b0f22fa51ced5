"""Matching-pairs classifier for an unseen environment.

A pair (k, S) predicts the class probability at x through the ratio

    (E[X_k | X_S = x] - h(x, 0)) / (h(x, 1) - h(x, 0))

where h(x, y) estimates the class-conditional expectation of column k given
the columns in S, fitted once on pooled training data, and the leading term
is refit on the target environment's features alone.  Pairs whose
class-conditional mechanism is not environment-constant are weeded out by
the residual-distribution test; the survivors are ranked by their training
prediction error and averaged.

The ratio is undefined where its denominator vanishes; such rows are
tracked explicitly (degenerate mask) rather than silently clamped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .data import MultiEnvDataset, feature_groups, test_subset, training_subset
from .errors import (
    DegeneratePairError,
    DegenerateResponseError,
    InsufficientDataError,
    ValidationError,
)
from .invariance import (
    SCOPE_ENV,
    InvarianceReport,
    Pair,
    batched_residual_tests,
    conditioning_sets,
)
# fit_ols is not called here any more; it stays importable as bimp.fit_ols
# because the benchmark's tracer self-test checks that binding.
from .regression import (
    _SPLINE_LAMBDA,
    ColumnsFit,
    SplineTerm,
    _additive_values,
    _check_design,
    _check_rows,
    _ridge_solve,
    _spline_plan,
    _term_columns,
    fit_ols,  # noqa: F401
    model_to_dict,
    predict,
)

VARIANT_LINEAR = "linear"
VARIANT_GAM = "gam"

_DEGENERATE_DROP_FRACTION = 0.5
TARGET = -1  # the target rows' block index in TrainingView.fit
# Rows per Householder update of a block's R factor.  The chunking bounds the
# QR workspace (about three copies of the stacked rows), and with it peak
# memory: 2,048 rows raised the peak RSS of a fit on a 95-column design by
# about 1 MB, 512 rows did not, and ran no slower.
_FACTOR_CHUNK_ROWS = 512


def _matching_ratio(marginal, h0, h1, eps) -> tuple[np.ndarray, np.ndarray]:
    """The matching ratio (marginal - h0) / (h1 - h0), clipped to [0, 1].

    Elementwise and in place: ``marginal`` becomes the ratio and ``h1`` the
    denominator, float arrays of the result's shape.  Entries whose
    denominator is at most ``eps`` in absolute value are degenerate: NaN in
    the first result and True in the second.
    """
    den = np.subtract(h1, h0, out=h1)
    degenerate = np.abs(den) <= eps
    np.copyto(den, np.nan, where=degenerate)
    ratio = np.divide(np.subtract(marginal, h0, out=marginal), den, out=marginal)
    return np.clip(ratio, 0.0, 1.0, out=ratio), degenerate


def _as_groups(m: int, groups: Sequence[Sequence[int]] | None) -> tuple[tuple[int, ...], ...]:
    if groups is None:
        return tuple((j,) for j in range(m))
    seen: set[int] = set()
    out = []
    for group in groups:
        g = tuple(int(j) for j in group)
        if not g:
            raise ValidationError("feature groups must be non-empty")
        for j in g:
            if j < 0 or j >= m:
                raise ValidationError(f"group column {j} outside range(0, {m})")
            if j in seen:
                raise ValidationError(f"column {j} appears in two groups")
            seen.add(j)
        out.append(g)
    if len(seen) != m:
        raise ValidationError("feature groups must cover every column")
    return tuple(out)


def enumerate_pairs(
    m: int,
    max_subset_size: int | None = None,
    groups: Sequence[Sequence[int]] | None = None,
) -> tuple[Pair, ...]:
    """All candidate pairs in deterministic graded-lexicographic order.

    k sweeps the columns in ascending order; for each k the conditioning
    sets are the :func:`invarbin.invariance.conditioning_sets` of the
    groups not containing k (empty set first).  Without explicit groups
    every column is its own group.  ``max_subset_size`` bounds the number of
    groups in a conditioning set; the default is min(3, available groups).
    """
    if m < 1:
        raise ValidationError(f"need at least one column, got m = {m}")
    grouped = _as_groups(m, groups)
    # every column of a group is matched against the same conditioning sets
    sets = {g: conditioning_sets([h for h in grouped if h != g], max_subset_size) for g in grouped}
    return tuple(Pair(k=k, s=s) for k in range(m) for g in grouped if k in g for s in sets[g])


@dataclass(frozen=True)
class PairModel:
    """Everything needed to evaluate one pair on target rows.

    ``h0``/``h1`` are pooled-training least-squares fits of column k on the
    conditioning columns within each class; ``marginal`` is the fit of k on
    the conditioning columns over the target environment's features (least
    squares or additive splines, per ``variant``).  ``eps_abs`` is the
    realized absolute degeneracy tolerance.  ``m`` is the column count of
    the fitted dataset; predictions need the same width.
    """

    pair: Pair
    h0: object
    h1: object
    marginal: object
    eps_abs: float
    variant: str
    m: int


def _check_variant(variant: str) -> None:
    if variant not in (VARIANT_LINEAR, VARIANT_GAM):
        raise ValidationError(f"unknown variant {variant!r}")


def _check_eps_den(eps_den: float) -> None:
    if not eps_den > 0.0:
        raise ValidationError(f"eps_den must be positive, got {eps_den!r}")


def _check_tau(tau: float) -> None:
    if not tau >= 0.0:
        raise ValidationError(f"tau must be non-negative, got {tau!r}")


@dataclass(frozen=True)
class _BlockFactor:
    """One block of rows' spline plans and the R factor of its design.

    The design is [1 | every column's planned basis | the raw columns] for
    splines, and [1 | the raw columns] for OLS, which plans nothing.  Column
    j's regressors are design columns ``start[j]:start[j + 1]``.  ``r``
    keeps the top ``start[-1]`` rows of the factor (fewer when the block has
    fewer rows), every row for OLS: the rows below are zero on every basis
    column, so they add only a constant to each target's objective.
    """

    planned: tuple[tuple[SplineTerm, np.ndarray], ...]
    start: np.ndarray
    r: np.ndarray


class TrainingView:
    """The arrays a matching-pairs fit reads for every pair, gathered once.

    ``response`` holds the training classes, ``class_rows[y]`` the
    training features of class y, ``env_features[i]`` and
    ``env_response[i]`` the rows of training environment
    ``d.train_labels[i]``, and ``spread`` the per-column standard deviation
    of the training features.  ``target`` is the test environment's feature
    block, gathered on first use.  Every fit after the screen depends on a
    block of rows and on S alone, never on k: :meth:`fit` keeps one fit per
    (block, S, variant), shared by every pair with that S.  Each block (a
    class, the target or one training environment) is planned and factored
    once per kind of fit, with one R factor of the block's design taken
    chunk by chunk, so there is one spline basis per (block, column).  Each
    fit then reads that factor, a few dozen rows, instead of the block's
    rows.  The caches live as long as the view, one fit.  Training rows
    that lack a class raise :class:`DegenerateResponseError`.
    """

    def __init__(self, d: MultiEnvDataset):
        train = training_subset(d)
        self.response = train.response
        self.class_rows = tuple(train.features[train.response == y] for y in (0, 1))
        if any(rows.shape[0] == 0 for rows in self.class_rows):
            raise DegenerateResponseError("training rows contain a single class")
        env_masks = [train.rows_in(label) for label in train.train_labels]
        self.env_features = tuple(train.features[mask] for mask in env_masks)
        self.env_response = tuple(train.response[mask] for mask in env_masks)
        self.spread = np.array([np.std(column) for column in train.features.T])
        self._dataset = d
        self._fits: dict[tuple[object, tuple[int, ...], str], ColumnsFit] = {}
        self._factors: dict[tuple[object, bool], _BlockFactor] = {}

    @cached_property
    def target(self) -> np.ndarray:
        return test_subset(self._dataset).features

    def _rows(self, block) -> np.ndarray:
        if block == TARGET:
            return self.target
        return self.class_rows[block[1]] if isinstance(block, tuple) else self.env_features[block]

    def fit(self, block, s: tuple[int, ...], variant: str) -> ColumnsFit:
        """Fit of every column outside S on the columns in S over one block of rows.

        ``block`` is ``("class", y)`` for the training rows of class y (h0
        and h1, fitted with ``VARIANT_LINEAR``), an index into
        ``env_features``, or ``TARGET`` for the target rows.  Column k of
        the coefficients is column k's fit; the columns in S are NaN.  The
        fit is :func:`~invarbin.regression._ridge_solve` on the columns of
        the block's R factor that hold S's regressors and the raw columns,
        so it equals :func:`~invarbin.regression.ols_columns`'s or
        :func:`~invarbin.regression._spline_solve`'s (whose basis
        :meth:`basis` gives), minimum-norm answers included, up to rounding.
        """
        key = (block, s, variant)
        fit = self._fits.get(key)
        if fit is not None:
            return fit
        _check_variant(variant)
        spline = variant == VARIANT_GAM
        n, m = self._rows(block).shape
        _check_rows("fit_spline_additive" if spline else "fit_ols", n, 0 if spline else len(s))
        factor = self._factor(block, spline)
        start = factor.start
        design = [0] + [i for j in s for i in range(start[j], start[j + 1])]
        outside = np.ones(m, dtype=bool)
        outside[list(s)] = False
        lam = _SPLINE_LAMBDA if spline else 0.0
        targets = factor.r[:, -m:][:, outside]  # the raw columns come last
        coef = np.full((len(design), m), np.nan)
        coef[:, outside] = _ridge_solve(factor.r[:, design], targets, lam, n)
        terms = tuple(factor.planned[j][0] for j in s) if spline else None
        fit = self._fits[key] = ColumnsFit(coef=coef, terms=terms, lam=lam)
        return fit

    def basis(self, block: int, s: tuple[int, ...]) -> np.ndarray:
        """[1 | the planned spline basis of every column in S] over one block of rows."""
        planned = self._factor(block, spline=True).planned
        return np.hstack([np.ones((self._rows(block).shape[0], 1))] + [planned[j][1] for j in s])

    def _factor(self, block, spline: bool) -> _BlockFactor:
        """The block's spline plans (none for OLS) and R factor, made on first use."""
        factor = self._factors.get((block, spline))
        if factor is not None:
            return factor
        rows = self._rows(block)
        n, m = rows.shape
        planned = tuple(_spline_plan(column) for column in rows.T) if spline else ()
        widths = [basis.shape[1] for _, basis in planned]
        start = np.cumsum([1] + widths) if spline else np.arange(1, m + 2)
        r = np.empty((0, 1 + sum(widths) + m))
        for lo in range(0, n, _FACTOR_CHUNK_ROWS):
            hi = min(lo + _FACTOR_CHUNK_ROWS, n)
            chunk = [np.ones((hi - lo, 1))] + [basis[lo:hi] for _, basis in planned] + [rows[lo:hi]]
            # the chunk's design is freed before qr copies the stacked rows
            r = np.linalg.qr(np.vstack([r, np.hstack(chunk)]), mode="r")[: start[-1]]
        factor = _BlockFactor(planned=planned, start=start, r=r)
        self._factors[(block, spline)] = factor
        return factor


def fit_pair_model(
    d: MultiEnvDataset,
    pair: Pair,
    variant: str = VARIANT_LINEAR,
    eps_den: float = 1e-6,
    view: TrainingView | None = None,
) -> PairModel:
    """Fit h0, h1 on pooled training rows and the marginal on target rows.

    The target rows are the features of the dataset's test environment.
    ``eps_den`` is relative: the absolute degeneracy
    tolerance becomes eps_den times the pooled-training standard deviation
    of column k (or eps_den itself when that deviation is zero).  Raises
    :class:`InsufficientDataError` when the target rows are too few for the
    marginal on S.

    ``view`` is a :class:`TrainingView` of ``d`` shared by many pairs; the
    three fits are column k of the view's fits for S, so a pair's model is
    the same whichever other pairs share its S.
    """
    _check_variant(variant)
    _check_eps_den(eps_den)
    if pair.k >= d.m or (pair.s and max(pair.s) >= d.m):
        raise ValidationError(f"pair {pair} references columns beyond m = {d.m}")
    if view is None:
        view = TrainingView(d)
    h0 = view.fit(("class", 0), pair.s, VARIANT_LINEAR)
    h1 = view.fit(("class", 1), pair.s, VARIANT_LINEAR)
    marginal = view.fit(TARGET, pair.s, variant)
    spread = float(view.spread[pair.k])
    eps_abs = eps_den * spread if spread > 0.0 else eps_den
    return PairModel(
        pair=pair,
        h0=h0.model(pair.k),
        h1=h1.model(pair.k),
        marginal=marginal.model(pair.k),
        eps_abs=eps_abs,
        variant=variant,
        m=d.m,
    )


def _pair_values(model: PairModel, X: np.ndarray, bases: dict) -> tuple[np.ndarray, np.ndarray]:
    """One pair's ratios on X; gam marginals share basis blocks through ``bases``."""
    s_block = X[:, list(model.pair.s)]
    if model.variant != VARIANT_GAM:
        marginal = predict(model.marginal, s_block)
    else:
        plans = list(zip(model.pair.s, model.marginal.terms))
        for j, term in plans:
            if (j, term) not in bases:
                bases[j, term] = _term_columns(term, X[:, j])
        marginal = _additive_values(model.marginal, [bases[p] for p in plans], X.shape[0])
    return _matching_ratio(
        marginal, predict(model.h0, s_block), predict(model.h1, s_block), model.eps_abs
    )


def predict_pair(model: PairModel, X) -> tuple[np.ndarray, np.ndarray]:
    """Per-row ratio predictions and the degenerate-row mask.

    Degenerate rows carry NaN in the first array and True in the second.
    Raises when every row is degenerate, since the pair then says nothing.
    ``X`` must have the fitted column count.
    """
    X = _check_design(X)
    if X.shape[1] != model.m:
        raise ValidationError(f"X has {X.shape[1]} columns; the pair was fitted on {model.m}")
    probs, degenerate = _pair_values(model, X, {})
    if X.shape[0] and bool(np.all(degenerate)):
        raise DegeneratePairError(f"all {X.shape[0]} rows are degenerate for pair {model.pair}")
    return probs, degenerate


@dataclass(frozen=True)
class ScoreFilterResult:
    kept: tuple[PairModel, ...]
    scores: Mapping[Pair, float]
    threshold: float


def _training_scores(
    view: TrainingView, s: tuple[int, ...], variant: str, members: Sequence[PairModel]
) -> list[float]:
    """Mean squared training error of each pair model sharing S and variant.

    Inside each training environment every member reads its column of the
    view's marginal fit for S; an environment too thin for that fit is left
    out.  The ratio, clip and squared error are taken in place; degenerate
    entries add zero.
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
        error, degenerate = _matching_ratio(marginal, design @ h0, design @ h1, eps)
        np.square(np.subtract(error, observed[:, None], out=error), out=error)
        np.copyto(error, 0.0, where=degenerate)
        total += error.sum(axis=0)
        count += (~degenerate).sum(axis=0)
    mean = np.divide(total, count, out=np.full(len(members), math.inf), where=count > 0)
    return [float(v) for v in mean]


def score_filter(
    models: Sequence[PairModel],
    d: MultiEnvDataset,
    tau: float = 0.1,
    view: TrainingView | None = None,
) -> ScoreFilterResult:
    """Keep the pairs whose training error is within a factor of the best.

    Each pair is scored by the mean squared difference between its ratio
    predictions and the observed classes over all training rows, with the
    marginal term refit inside each training environment (the h fits stay
    pooled).  Degenerate rows do not contribute.  Pairs score infinity when
    no row contributes; the filter keeps scores at most (1 + tau) times the
    minimum and always keeps an argmin, so the result is never empty.
    Pairs sharing a conditioning set are scored together; ``view`` is a
    :class:`TrainingView` of ``d``, built here when not given.
    """
    if not models:
        raise ValidationError("score_filter needs at least one pair model")
    _check_tau(tau)
    if view is None:
        view = TrainingView(d)
    by_group: dict[tuple[tuple[int, ...], str], list[PairModel]] = {}
    for model in models:
        by_group.setdefault((model.pair.s, model.variant), []).append(model)
    group_scores: dict[Pair, float] = {}
    for (s, variant), members in by_group.items():
        values = _training_scores(view, s, variant, members)
        group_scores.update((pm.pair, v) for pm, v in zip(members, values))
    scores = {model.pair: group_scores[model.pair] for model in models}

    best = min(scores.values())
    if not math.isfinite(best):
        # nothing scored; keep the first model to stay deterministic
        return ScoreFilterResult(kept=(models[0],), scores=scores, threshold=math.inf)
    threshold = (1.0 + tau) * best
    kept = tuple(m for m in models if scores[m.pair] <= threshold)
    return ScoreFilterResult(kept=kept, scores=scores, threshold=threshold)


@dataclass(frozen=True)
class BimpModel:
    """Fitted ensemble over the accepted, score-filtered pairs.

    ``abstained`` is True when no pair survived; such a model refuses to
    predict.  ``m`` is the column count of the fitted dataset; predictions
    need the same width.  ``base_rate`` (pooled training class-1
    frequency) backs rows where every kept pair is degenerate.  ``counts``
    records how many pairs were enumerated, accepted, skipped, rejected,
    skipped after acceptance because the target rows could not fit their
    marginal, dropped as mostly degenerate on the target, and finally kept.
    """

    variant: str
    alpha: float
    tau: float
    eps_den: float
    m: int
    pair_models: tuple[PairModel, ...]
    scores: Mapping[Pair, float]
    threshold: float | None
    base_rate: float
    abstained: bool
    reports: tuple[InvarianceReport, ...]
    counts: Mapping[str, int]

    @property
    def pairs(self) -> tuple[Pair, ...]:
        return tuple(m.pair for m in self.pair_models)


@dataclass(frozen=True)
class BimpPrediction:
    """Ensemble predictions: probabilities, hard labels, fallback rows.

    ``fallback`` flags rows where no kept pair contributed (all degenerate)
    and the probability is the training base rate.
    """

    probabilities: np.ndarray
    labels: np.ndarray
    fallback: np.ndarray


def fit_bimp(
    d: MultiEnvDataset,
    alpha: float = 0.1,
    variant: str = VARIANT_LINEAR,
    max_subset_size: int | None = None,
    tau: float = 0.1,
    eps_den: float = 1e-6,
    bonferroni_scope: str = SCOPE_ENV,
) -> BimpModel:
    """Run the full pipeline on a dataset with training and test environments.

    Enumerate candidate pairs (the one-hot columns of a categorical feature
    enter conditioning sets as one unit), keep those accepted by the
    residual-distribution test at level ``alpha``, fit h0, h1 and the target
    marginal of each, skip the pairs whose conditioning set the target rows
    are too few to fit (counted as ``skipped_target``), drop the pairs
    whose training error exceeds (1 + tau) times the best, and drop any
    survivor degenerate on more than half of the target rows.  Every fit
    after the screen is one solve per block of rows and conditioning set,
    shared by all the pairs with that set.  The model abstains when nothing
    remains.
    """
    _check_variant(variant)
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must lie in (0, 1), got {alpha!r}")
    _check_tau(tau)
    _check_eps_den(eps_den)
    if len(d.train_labels) < 2:
        raise ValidationError("need at least two training environments")
    if d.test_label is None:
        raise ValidationError("dataset declares no test environment")

    pairs = enumerate_pairs(d.m, max_subset_size=max_subset_size, groups=feature_groups(d))

    reports = tuple(
        batched_residual_tests(d, pairs, alpha=alpha, bonferroni_scope=bonferroni_scope)
    )
    counts = {
        "enumerated": len(pairs),
        "accepted": sum(r.verdict == "accepted" for r in reports),
        "rejected": sum(r.verdict == "rejected" for r in reports),
        "skipped": sum(r.verdict == "skipped" for r in reports),
        "skipped_target": 0,
        "dropped_degenerate": 0,
        "kept": 0,
    }
    accepted = [r.pair for r in reports if r.accepted]

    view = TrainingView(d)
    fitted: list[PairModel] = []
    for pair in accepted:
        try:
            fitted.append(fit_pair_model(d, pair, variant=variant, eps_den=eps_den, view=view))
        except InsufficientDataError:
            # the target rows are too few for a marginal on this S
            counts["skipped_target"] += 1

    survivors: list[PairModel] = []
    scores: Mapping[Pair, float] = {}
    threshold = None
    if fitted:
        filtered = score_filter(fitted, d, tau=tau, view=view)
        scores, threshold = filtered.scores, filtered.threshold
        for model in filtered.kept:
            # a target row is degenerate where |h1 - h0| <= eps_abs; the marginal plays no part
            s_block = view.target[:, list(model.pair.s)]
            gap = np.abs(predict(model.h1, s_block) - predict(model.h0, s_block))
            if gap.size and np.mean(gap <= model.eps_abs) > _DEGENERATE_DROP_FRACTION:
                counts["dropped_degenerate"] += 1
                continue
            survivors.append(model)
    counts["kept"] = len(survivors)
    return BimpModel(
        variant=variant,
        alpha=alpha,
        tau=tau,
        eps_den=eps_den,
        m=d.m,
        pair_models=tuple(survivors),
        scores=scores,
        threshold=threshold,
        base_rate=float(view.response.mean()),
        abstained=not survivors,
        reports=reports,
        counts=counts,
    )


def predict_bimp(model: BimpModel, X) -> BimpPrediction:
    """Average the kept pairs' ratios row by row.

    Rows where a pair is degenerate simply lose that pair's vote; rows where
    every pair is degenerate fall back to the training base rate and are
    flagged.  Hard labels threshold the probability at 1/2, with ties going
    to class 1.  An abstaining model refuses to predict, and ``X`` must have
    the fitted column count.
    """
    if model.abstained:
        raise ValidationError("model abstained; no pairs available for prediction")
    X = _check_design(X)
    if X.shape[1] != model.m:
        raise ValidationError(f"X has {X.shape[1]} columns; the model was fitted on {model.m}")
    n = X.shape[0]
    total = np.zeros(n)
    contributors = np.zeros(n)
    bases: dict = {}  # one basis block per column and planned term, for this call only
    for pm in model.pair_models:
        probs, degenerate = _pair_values(pm, X, bases)
        ok = ~degenerate
        total[ok] += probs[ok]
        contributors[ok] += 1.0
    fallback = contributors == 0
    probabilities = np.where(fallback, model.base_rate, total / np.maximum(contributors, 1.0))
    labels = (probabilities >= 0.5).astype(np.int64)
    return BimpPrediction(probabilities=probabilities, labels=labels, fallback=fallback)


def bimp_to_dict(model: BimpModel, column_names: Sequence[str] | None = None) -> dict:
    """JSON-ready description of a fitted ensemble (reports excluded)."""
    names = list(column_names) if column_names is not None else None

    def col(j: int):
        return names[j] if names else j

    return {
        "variant": model.variant,
        "alpha": model.alpha,
        "tau": model.tau,
        "eps_den": model.eps_den,
        "abstained": model.abstained,
        "base_rate": model.base_rate,
        "threshold": model.threshold,
        "counts": dict(model.counts),
        "pairs": [
            {
                "k": col(pm.pair.k),
                "s": [col(j) for j in pm.pair.s],
                "eps_abs": pm.eps_abs,
                "score": model.scores.get(pm.pair),
                "h0": model_to_dict(pm.h0),
                "h1": model_to_dict(pm.h1),
                "marginal": model_to_dict(pm.marginal),
            }
            for pm in model.pair_models
        ],
    }
