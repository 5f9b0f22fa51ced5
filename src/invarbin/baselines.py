"""Reference methods: pooled logistic regression and an invariant-set search.

The pooled baseline ignores environments entirely.  The invariant-set
search mirrors the classical approach of keeping every feature subset whose
pooled logistic fit leaves environment-indistinguishable deviance
residuals, then intersecting the accepted subsets; it abstains rather than
guess when the intersection is empty or nothing is accepted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .data import MultiEnvDataset, feature_groups, training_subset
from .errors import ValidationError
from .invariance import conditioning_sets
from .regression import LogisticModel, fit_logistic, predict
from .stats import bonferroni_combine, student_t_tail, welch_columns


def fit_lr_baseline(d: MultiEnvDataset) -> LogisticModel:
    """Logistic regression on all features over pooled training rows."""
    train = training_subset(d)
    return fit_logistic(train.features, train.response)


def deviance_residuals(probs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Signed square-root deviance contributions of a binary fit."""
    probs = np.asarray(probs, dtype=float)
    y = np.asarray(y, dtype=float)
    if probs.shape != y.shape:
        raise ValidationError("probs and y must have the same shape")
    if np.any((probs <= 0.0) | (probs >= 1.0)):
        raise ValidationError("probs must lie strictly inside (0, 1)")
    inner = y * np.log(probs) + (1.0 - y) * np.log(1.0 - probs)
    return np.sign(y - probs) * np.sqrt(-2.0 * inner)


@dataclass(frozen=True)
class IcpResult:
    """Outcome of the invariant-set search.

    ``accepted`` lists the subsets (as column-index tuples) that passed;
    ``intersection`` is their common part and ``model`` the final logistic
    fit on it, or None when the search abstained.  ``pvals`` maps each
    tested subset to its combined p-value; ``m`` is the number of feature
    columns the search ran on.
    """

    accepted: tuple[tuple[int, ...], ...]
    intersection: tuple[int, ...]
    model: LogisticModel | None
    abstained: bool
    alpha: float
    pvals: Mapping[tuple[int, ...], float]
    m: int


def fit_icp(
    d: MultiEnvDataset,
    alpha: float = 0.1,
    max_subset_size: int | None = None,
) -> IcpResult:
    """Search feature subsets whose pooled fit is environment-invariant.

    For each subset (including the empty one, up to ``max_subset_size``
    groups), a pooled logistic model is fit and its deviance residuals are
    compared per environment (inside vs outside) with Welch t-tests,
    Bonferroni-combined over environments; the p-values of every subset
    come from one Student-t tail call.  Subsets with combined p-value
    above ``alpha`` are accepted.  The final predictor uses the intersection
    of accepted subsets; an empty intersection or empty acceptance list
    means abstention.
    """
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must lie in (0, 1), got {alpha!r}")
    train = training_subset(d)
    labels = train.train_labels
    if len(labels) < 2:
        raise ValidationError("invariant-set search needs at least two training environments")

    subsets = conditioning_sets(feature_groups(d), max_subset_size)
    env_arr = train.env_of
    masks = [(env_arr == label, env_arr != label) for label in labels]

    models: dict[tuple[int, ...], LogisticModel] = {}
    t, df = [], []
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

    # an empty acceptance list has an empty intersection
    intersection = tuple(sorted(set.intersection(*map(set, accepted)))) if accepted else ()
    # The intersection is a union of at most ``max_subset_size`` whole
    # groups, so it is one of the subsets already fitted.
    return IcpResult(
        accepted=accepted,
        intersection=intersection,
        model=models[intersection] if intersection else None,
        abstained=not intersection,
        alpha=alpha,
        pvals=pvals,
        m=d.m,
    )


def predict_baseline(fitted, X) -> np.ndarray | None:
    """Hard labels from a baseline fit; None when the fit abstained.

    Accepts a LogisticModel (thresholds its probabilities at 1/2, ties to
    class 1) or an IcpResult (predicts on the intersection columns).  X
    must have as many columns as the data the model was fitted on.
    """
    X = np.asarray(X, dtype=float)
    if isinstance(fitted, LogisticModel):
        return (predict(fitted, X) >= 0.5).astype(np.int64)
    if isinstance(fitted, IcpResult):
        if X.ndim != 2 or X.shape[1] != fitted.m:
            raise ValidationError(
                f"X has shape {X.shape}; the search was fitted on {fitted.m} columns"
            )
        if fitted.abstained:
            return None
        cols = list(fitted.intersection)
        return (predict(fitted.model, X[:, cols]) >= 0.5).astype(np.int64)
    raise ValidationError(f"unknown baseline fit: {type(fitted).__name__}")
