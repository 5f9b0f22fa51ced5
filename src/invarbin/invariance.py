"""Residual-distribution test for candidate (k, S) pairs.

For each class, the candidate column k is regressed on the columns in S over
the pooled training data; the test then asks, environment by environment,
whether that single pooled fit leaves residuals with the same mean inside
and outside the environment.  A genuinely environment-constant
class-conditional mechanism passes; a mechanism that shifts across
environments leaves environment-dependent residual means and fails.

Verdicts are three-valued: accepted, rejected, or skipped.  Skipping happens
when some (environment, class) cell is too thin to test; a skipped pair is
never treated as accepted downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .data import MultiEnvDataset, training_subset
from .errors import InsufficientDataError, ValidationError
from .regression import fit_ols, fit_spline_additive, ols_columns, predict
from .stats import student_t_two_sided_p, welch_t_test
from ._workers import map_ordered

SCOPE_ENV = "env"
SCOPE_ENV_AND_CLASS = "env-and-class"

_MIN_CELL = 2


@dataclass(frozen=True, order=True)
class Pair:
    """A candidate column index k with a disjoint conditioning set S."""

    k: int
    s: tuple[int, ...]

    def __post_init__(self):
        if self.k < 0:
            raise ValidationError(f"pair column must be non-negative, got {self.k}")
        s = tuple(sorted(set(int(j) for j in self.s)))
        if any(j < 0 for j in s):
            raise ValidationError("conditioning set entries must be non-negative")
        if self.k in s:
            raise ValidationError(f"column {self.k} cannot appear in its own conditioning set")
        object.__setattr__(self, "s", s)


@dataclass(frozen=True)
class InvarianceReport:
    """Outcome of the residual-distribution test for one pair.

    ``pvals`` maps environment label -> class -> Bonferroni-adjusted
    p-value; ``raw_pvals`` holds the unadjusted values for diagnostics.  On
    a skipped pair both maps are empty and ``reason`` says why.
    """

    pair: Pair
    verdict: str
    alpha: float
    pvals: Mapping[str, Mapping[int, float]] = field(default_factory=dict)
    raw_pvals: Mapping[str, Mapping[int, float]] = field(default_factory=dict)
    reason: str | None = None

    @property
    def accepted(self) -> bool:
        return self.verdict == "accepted"


def report_to_dict(report: InvarianceReport) -> dict:
    """JSON-ready form of a report."""
    return {
        "pair": {"k": report.pair.k, "s": list(report.pair.s)},
        "verdict": report.verdict,
        "alpha": report.alpha,
        "pvals": {env: {str(y): p for y, p in by.items()} for env, by in report.pvals.items()},
        "raw_pvals": {
            env: {str(y): p for y, p in by.items()} for env, by in report.raw_pvals.items()
        },
        "reason": report.reason,
    }


def residual_distribution_test(
    d: MultiEnvDataset,
    pair: Pair,
    alpha: float = 0.1,
    regressor: str = "ols",
    bonferroni_scope: str = SCOPE_ENV,
) -> InvarianceReport:
    """Test one pair on the training environments of ``d``.

    The pooled per-class regression uses OLS by default ("spline" switches
    to the additive model).  Per environment and class, a two-sided Welch
    t-test compares in-environment against out-of-environment residuals;
    p-values are Bonferroni-adjusted by the number of training environments
    ("env" scope) or by twice that ("env-and-class").  The pair is accepted
    only if every adjusted p-value exceeds ``alpha``.
    """
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must lie in (0, 1), got {alpha!r}")
    if regressor not in ("ols", "spline"):
        raise ValidationError(f"unknown regressor {regressor!r}")
    if bonferroni_scope not in (SCOPE_ENV, SCOPE_ENV_AND_CLASS):
        raise ValidationError(f"unknown bonferroni scope {bonferroni_scope!r}")

    train = training_subset(d)
    labels = train.train_labels
    if len(labels) < 2:
        raise ValidationError("residual test needs at least two training environments")
    if pair.k >= train.m or (pair.s and max(pair.s) >= train.m):
        raise ValidationError(f"pair {pair} references columns beyond m = {train.m}")

    env_arr = train.env_of
    y_arr = train.response
    for label in labels:
        for y in (0, 1):
            count = int(np.sum((env_arr == label) & (y_arr == y)))
            if count < _MIN_CELL:
                return InvarianceReport(
                    pair=pair,
                    verdict="skipped",
                    alpha=alpha,
                    reason=f"environment {label!r} has {count} samples of class {y}",
                )

    factor = len(labels) if bonferroni_scope == SCOPE_ENV else 2 * len(labels)
    s_cols = list(pair.s)
    fit = fit_ols if regressor == "ols" else fit_spline_additive

    residuals: dict[int, np.ndarray] = {}
    class_envs: dict[int, np.ndarray] = {}
    for y in (0, 1):
        mask = y_arr == y
        X_s = train.features[np.ix_(mask, s_cols)] if s_cols else train.features[mask][:, :0]
        x_k = train.features[mask, pair.k]
        try:
            g_hat = fit(X_s, x_k)
        except InsufficientDataError as exc:
            return InvarianceReport(
                pair=pair, verdict="skipped", alpha=alpha, reason=str(exc)
            )
        residuals[y] = x_k - predict(g_hat, X_s)
        class_envs[y] = env_arr[mask]

    pvals: dict[str, dict[int, float]] = {}
    raw: dict[str, dict[int, float]] = {}
    for label in labels:
        pvals[label] = {}
        raw[label] = {}
        for y in (0, 1):
            inside = residuals[y][class_envs[y] == label]
            outside = residuals[y][class_envs[y] != label]
            try:
                result = welch_t_test(inside, outside)
            except InsufficientDataError as exc:
                return InvarianceReport(
                    pair=pair, verdict="skipped", alpha=alpha, reason=str(exc)
                )
            raw[label][y] = result.p_value
            pvals[label][y] = min(1.0, factor * result.p_value)

    worst = min(p for by in pvals.values() for p in by.values())
    verdict = "accepted" if worst > alpha else "rejected"
    return InvarianceReport(
        pair=pair, verdict=verdict, alpha=alpha, pvals=pvals, raw_pvals=raw
    )


def _welch_columns(inside: np.ndarray, outside: np.ndarray) -> np.ndarray:
    """Column-wise two-sided Welch p-values for two residual blocks.

    Matches :func:`invarbin.stats.welch_t_test` up to float summation
    order; zero-variance columns are decided by their means.
    """
    n_in, n_out = inside.shape[0], outside.shape[0]
    mean_in = inside.mean(axis=0)
    mean_out = outside.mean(axis=0)
    va = inside.var(axis=0, ddof=1) / n_in
    vb = outside.var(axis=0, ddof=1) / n_out
    se2 = va + vb
    p = np.empty(inside.shape[1])
    flat = se2 == 0.0
    p[flat] = np.where(mean_in[flat] == mean_out[flat], 1.0, 0.0)
    live = ~flat
    t = (mean_in[live] - mean_out[live]) / np.sqrt(se2[live])
    df = se2[live] ** 2 / (va[live] ** 2 / (n_in - 1) + vb[live] ** 2 / (n_out - 1))
    p[live] = [student_t_two_sided_p(float(ti), float(di)) for ti, di in zip(t, df)]
    return p


def batched_residual_tests(
    d: MultiEnvDataset,
    pairs,
    alpha: float = 0.1,
    bonferroni_scope: str = SCOPE_ENV,
    n_workers: int = 1,
) -> list[InvarianceReport]:
    """Run the residual-distribution test for many pairs at once.

    Semantically equivalent to calling :func:`residual_distribution_test`
    (with the default OLS regressor) on every pair, but pairs sharing a
    conditioning set S reuse one least-squares factorization with all their
    k columns as simultaneous right-hand sides, which is what makes wide
    one-hot searches affordable.  Reports come back in input order.
    """
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must lie in (0, 1), got {alpha!r}")
    if bonferroni_scope not in (SCOPE_ENV, SCOPE_ENV_AND_CLASS):
        raise ValidationError(f"unknown bonferroni scope {bonferroni_scope!r}")
    pairs = list(pairs)
    train = training_subset(d)
    labels = train.train_labels
    if len(labels) < 2:
        raise ValidationError("residual test needs at least two training environments")
    for pair in pairs:
        if pair.k >= train.m or (pair.s and max(pair.s) >= train.m):
            raise ValidationError(f"pair {pair} references columns beyond m = {train.m}")

    factor = len(labels) if bonferroni_scope == SCOPE_ENV else 2 * len(labels)
    env_arr = train.env_of
    y_arr = train.response
    thin: str | None = None
    for label in labels:
        for y in (0, 1):
            count = int(np.sum((env_arr == label) & (y_arr == y)))
            if count < _MIN_CELL:
                thin = f"environment {label!r} has {count} samples of class {y}"
                break
        if thin:
            break
    if thin is not None:
        return [
            InvarianceReport(pair=pair, verdict="skipped", alpha=alpha, reason=thin)
            for pair in pairs
        ]

    class_mask = {y: y_arr == y for y in (0, 1)}
    class_n = {y: int(class_mask[y].sum()) for y in (0, 1)}
    class_envs = {y: env_arr[class_mask[y]] for y in (0, 1)}
    class_rows = {y: train.features[class_mask[y]] for y in (0, 1)}

    by_s: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for position, pair in enumerate(pairs):
        by_s.setdefault(pair.s, []).append((position, pair.k))

    reports: list[InvarianceReport | None] = [None] * len(pairs)

    def run_group(s: tuple[int, ...]) -> list[tuple[int, InvarianceReport]]:
        members = by_s[s]
        ks = [k for _, k in members]
        out: list[tuple[int, InvarianceReport]] = []
        needed = len(s) + 1
        short = [y for y in (0, 1) if class_n[y] < max(2, needed)]
        if short:
            reason = (
                f"class {short[0]} has {class_n[short[0]]} pooled samples, "
                f"fewer than {max(2, needed)} required for |S| = {len(s)}"
            )
            for position, pair_k in members:
                out.append(
                    (
                        position,
                        InvarianceReport(
                            pair=Pair(k=pair_k, s=s),
                            verdict="skipped",
                            alpha=alpha,
                            reason=reason,
                        ),
                    )
                )
            return out

        raw_by_k: dict[int, dict[str, dict[int, float]]] = {
            k: {label: {} for label in labels} for k in ks
        }
        for y in (0, 1):
            rows = class_rows[y]
            targets = rows[:, ks]
            fit, design = ols_columns(rows[:, list(s)], targets)
            residuals = targets - design @ fit.coef
            envs_here = class_envs[y]
            for label in labels:
                inside = residuals[envs_here == label]
                outside = residuals[envs_here != label]
                p_cols = _welch_columns(inside, outside)
                for k, p in zip(ks, p_cols):
                    raw_by_k[k][label][y] = float(p)
        for position, k in members:
            raw = raw_by_k[k]
            adjusted = {
                label: {y: min(1.0, factor * raw[label][y]) for y in (0, 1)}
                for label in labels
            }
            worst = min(p for by in adjusted.values() for p in by.values())
            verdict = "accepted" if worst > alpha else "rejected"
            out.append(
                (
                    position,
                    InvarianceReport(
                        pair=Pair(k=k, s=s),
                        verdict=verdict,
                        alpha=alpha,
                        pvals=adjusted,
                        raw_pvals=raw,
                    ),
                )
            )
        return out

    groups = sorted(by_s)
    for chunk in map_ordered(run_group, groups, n_workers):
        for position, report in chunk:
            reports[position] = report
    return [r for r in reports if r is not None]
