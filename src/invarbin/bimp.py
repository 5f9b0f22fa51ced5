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
    ColumnsFit,
    SplineTerm,
    _check_design,
    _spline_plan,
    _spline_solve,
    fit_ols,  # noqa: F401
    model_to_dict,
    ols_columns,
    predict,
)

VARIANT_LINEAR = "linear"
VARIANT_GAM = "gam"

_DEGENERATE_DROP_FRACTION = 0.5
TARGET = -1  # the target rows' block index in TrainingView.fit_marginal


def _matching_ratio(marginal, h0, h1, eps) -> tuple[np.ndarray, np.ndarray]:
    """The matching ratio (marginal - h0) / (h1 - h0), clipped to [0, 1].

    Elementwise over broadcastable arrays.  Entries whose denominator is at
    most ``eps`` in absolute value are degenerate: NaN in the first result
    and True in the second.
    """
    den = np.subtract(h1, h0)
    degenerate = np.abs(den) <= eps
    ratio = np.divide(
        np.subtract(marginal, h0), den, out=np.full(den.shape, np.nan), where=~degenerate
    )
    return np.clip(ratio, 0.0, 1.0), degenerate


def bimp_ratio(marginal: float, h0: float, h1: float, eps_den: float) -> float | None:
    """Scalar matching ratio, clamped to [0, 1]; None when degenerate.

    ``eps_den`` is the absolute tolerance below which the denominator
    h1 - h0 counts as vanished.
    """
    for name, v in (("marginal", marginal), ("h0", h0), ("h1", h1)):
        if not math.isfinite(v):
            raise ValidationError(f"{name} must be finite, got {v!r}")
    if not (math.isfinite(eps_den) and eps_den >= 0.0):
        raise ValidationError(f"eps_den must be a non-negative float, got {eps_den!r}")
    prob, degenerate = _matching_ratio(marginal, h0, h1, eps_den)
    return None if degenerate else float(prob)


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
    return tuple(
        Pair(k=k, s=s)
        for k in range(m)
        for s in conditioning_sets([g for g in grouped if k not in g], max_subset_size)
    )


@dataclass(frozen=True)
class PairModel:
    """Everything needed to evaluate one pair on target rows.

    ``h0``/``h1`` are pooled-training least-squares fits of column k on the
    conditioning columns within each class; ``marginal`` is the fit of k on
    the conditioning columns over the target environment's features (least
    squares or additive splines, per ``variant``).  ``eps_abs`` is the
    realized absolute degeneracy tolerance.
    """

    pair: Pair
    h0: object
    h1: object
    marginal: object
    eps_abs: float
    variant: str


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
class _GroupFit:
    """h0, h1 and the target marginal for one conditioning set S.

    Every k fitted with S is one column of each fit (``column`` maps k to
    it).  ``thin`` says why the target rows could not carry the marginal,
    in which case ``marginal`` is None.
    """

    column: Mapping[int, int]
    h: tuple[ColumnsFit, ColumnsFit]
    marginal: ColumnsFit | None
    thin: str | None


class TrainingView:
    """The arrays a matching-pairs fit reads for every pair, gathered once.

    ``response`` holds the training classes, ``class_rows[y]`` the
    training features of class y, ``env_features[i]`` and
    ``env_response[i]`` the rows of training environment
    ``d.train_labels[i]``, and ``spread`` the per-column standard deviation
    of the training features.  ``target`` is the test environment's feature
    block, gathered on first use.  :meth:`solve` keeps the
    per-conditioning-set fits, so that all pairs sharing S cost one solve,
    and :meth:`fit_marginal` keeps each column's spline plan per block of
    rows, so that all conditioning sets share it.
    """

    def __init__(self, d: MultiEnvDataset):
        train = training_subset(d)
        self.response = train.response
        self.class_rows = tuple(train.features[train.response == y] for y in (0, 1))
        env_masks = [train.rows_in(label) for label in train.train_labels]
        self.env_features = tuple(train.features[mask] for mask in env_masks)
        self.env_response = tuple(train.response[mask] for mask in env_masks)
        self.spread = np.array([np.std(column) for column in train.features.T])
        self._dataset = d
        self._groups: dict[tuple[tuple[int, ...], str], _GroupFit] = {}
        self._planned: dict[tuple[int, int], tuple[SplineTerm, np.ndarray]] = {}

    @cached_property
    def target(self) -> np.ndarray:
        return test_subset(self._dataset).features

    def solve(self, s: tuple[int, ...], ks: Sequence[int], variant: str) -> _GroupFit:
        """Fits of h0, h1 and the target marginal for S, with every k in ``ks``.

        Each fit is one least-squares solve with all the k columns as
        right-hand sides; the result is kept and reused for later calls
        whose k it covers.
        """
        group = self._groups.get((s, variant))
        if group is not None and set(ks) <= group.column.keys():
            return group
        if any(rows.shape[0] == 0 for rows in self.class_rows):
            raise DegenerateResponseError("training rows contain a single class")
        cols, ks = list(s), list(ks)
        h0, h1 = (ols_columns(rows[:, cols], rows[:, ks])[0] for rows in self.class_rows)
        marginal = thin = None
        try:
            marginal, _ = self.fit_marginal(TARGET, s, ks, variant)
        except InsufficientDataError as exc:
            thin = str(exc)
        column = {k: j for j, k in enumerate(ks)}
        group = _GroupFit(column=column, h=(h0, h1), marginal=marginal, thin=thin)
        self._groups[(s, variant)] = group
        return group

    def fit_marginal(
        self, block: int, s: tuple[int, ...], ks: Sequence[int], variant: str
    ) -> tuple[ColumnsFit, np.ndarray]:
        """Fit of every column in ``ks`` on the columns in S over one block of rows.

        ``block`` indexes ``env_features``, or is ``TARGET`` for the target
        rows.  Returns the fits and their design or spline basis, as
        :func:`ols_columns` and :func:`~invarbin.regression.spline_columns`
        do.  A column's spline term and basis depend only on its rows in the
        block, so each (block, column) is planned once and reused by every S.
        """
        _check_variant(variant)
        rows = self.target if block == TARGET else self.env_features[block]
        cols, ks = list(s), list(ks)
        if variant == VARIANT_LINEAR:
            return ols_columns(rows[:, cols], rows[:, ks])
        planned = []
        for j in cols:
            key = (block, j)
            if key not in self._planned:
                self._planned[key] = _spline_plan(rows[:, j])
            planned.append(self._planned[key])
        return _spline_solve(planned, rows[:, ks])


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
    three fits are this pair's columns of the view's solve for S.
    """
    _check_variant(variant)
    _check_eps_den(eps_den)
    if pair.k >= d.m or (pair.s and max(pair.s) >= d.m):
        raise ValidationError(f"pair {pair} references columns beyond m = {d.m}")
    if view is None:
        view = TrainingView(d)
    group = view.solve(pair.s, (pair.k,), variant)
    if group.thin is not None:
        raise InsufficientDataError(group.thin)
    j = group.column[pair.k]
    spread = float(view.spread[pair.k])
    eps_abs = eps_den * spread if spread > 0.0 else eps_den
    return PairModel(
        pair=pair,
        h0=group.h[0].model(j),
        h1=group.h[1].model(j),
        marginal=group.marginal.model(j),
        eps_abs=eps_abs,
        variant=variant,
    )


def _pair_values(model: PairModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    s_block = X[:, list(model.pair.s)]
    return _matching_ratio(
        predict(model.marginal, s_block),
        predict(model.h0, s_block),
        predict(model.h1, s_block),
        model.eps_abs,
    )


def predict_pair(model: PairModel, X) -> tuple[np.ndarray, np.ndarray]:
    """Per-row ratio predictions and the degenerate-row mask.

    Degenerate rows carry NaN in the first array and True in the second.
    Raises when every row is degenerate, since the pair then says nothing.
    """
    X = _check_design(X)
    probs, degenerate = _pair_values(model, X)
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

    Inside each training environment one marginal solve covers every
    member's k; an environment too thin for that solve is left out.
    """
    cols = list(s)
    ks = [pm.pair.k for pm in members]
    h0 = np.array([pm.h0.coef for pm in members]).T
    h1 = np.array([pm.h1.coef for pm in members]).T
    eps = np.array([pm.eps_abs for pm in members])
    total = np.zeros(len(members))
    count = np.zeros(len(members))
    for block, (env, observed) in enumerate(zip(view.env_features, view.env_response)):
        try:
            fit, basis = view.fit_marginal(block, s, ks, variant)
        except InsufficientDataError:
            continue
        marginal = basis @ fit.coef
        design = np.column_stack([np.ones(env.shape[0]), env[:, cols]])
        probs, degenerate = _matching_ratio(marginal, design @ h0, design @ h1, eps)
        total += np.where(degenerate, 0.0, (probs - observed[:, None]) ** 2).sum(axis=0)
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
    after the screen is one solve per conditioning set, shared by all the
    pairs with that set.  The model abstains when nothing remains.
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
    by_s: dict[tuple[int, ...], list[int]] = {}
    for pair in accepted:
        by_s.setdefault(pair.s, []).append(pair.k)
    for s, ks in by_s.items():
        view.solve(s, ks, variant)
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
            _, degenerate = _pair_values(model, view.target)
            if view.target.shape[0] and degenerate.mean() > _DEGENERATE_DROP_FRACTION:
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
    for pm in model.pair_models:
        probs, degenerate = _pair_values(pm, X)
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
