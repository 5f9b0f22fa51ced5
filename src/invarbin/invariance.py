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

import itertools
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .data import MultiEnvDataset, feature_groups, training_subset
from .errors import ValidationError
# fit_ols is not called here any more; it stays importable as
# invariance.fit_ols because the benchmark's tracer self-test checks that
# binding.
from .regression import fit_ols, ols_columns  # noqa: F401
from .stats import welch_columns

SCOPE_ENV = "env"
SCOPE_ENV_AND_CLASS = "env-and-class"

_MIN_CELL = 2
_DEFAULT_SUBSET_CAP = 3


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


def search_groups(d: MultiEnvDataset, group_one_hot: bool = True) -> tuple[tuple[int, ...], ...]:
    """The column groups a search moves as units.

    With ``group_one_hot`` these are the raw-column groups of
    :func:`invarbin.data.feature_groups` (a one-hot block is one group);
    otherwise every column is its own group.
    """
    if group_one_hot:
        return feature_groups(d)
    return tuple((j,) for j in range(d.m))


def conditioning_sets(
    groups: Sequence[Sequence[int]], max_subset_size: int | None = None
) -> list[tuple[int, ...]]:
    """Unions of whole groups, in graded-lexicographic order.

    Sets are enumerated by group count (empty set first) and
    lexicographically within a count, each as a sorted column tuple.
    ``max_subset_size`` bounds the number of groups in a set; the default
    is min(3, number of groups).
    """
    if max_subset_size is not None and max_subset_size < 0:
        raise ValidationError(f"max_subset_size must be non-negative, got {max_subset_size}")
    cap = _DEFAULT_SUBSET_CAP if max_subset_size is None else max_subset_size
    return [
        tuple(sorted(j for group in chosen for j in group))
        for size in range(min(cap, len(groups)) + 1)
        for chosen in itertools.combinations(groups, size)
    ]


def residual_distribution_test(
    d: MultiEnvDataset,
    pair: Pair,
    alpha: float = 0.1,
    bonferroni_scope: str = SCOPE_ENV,
) -> InvarianceReport:
    """Test one pair on the training environments of ``d``.

    The one-pair case of :func:`batched_residual_tests`.
    """
    return batched_residual_tests(d, [pair], alpha=alpha, bonferroni_scope=bonferroni_scope)[0]


def batched_residual_tests(
    d: MultiEnvDataset,
    pairs,
    alpha: float = 0.1,
    bonferroni_scope: str = SCOPE_ENV,
) -> list[InvarianceReport]:
    """Run the residual-distribution test on every pair, in input order.

    Per class, column k is regressed on the columns in S by OLS over the
    pooled training rows.  Per training environment and class, a two-sided
    Welch t-test compares in-environment against out-of-environment
    residuals; p-values are Bonferroni-adjusted by the number of training
    environments ("env" scope) or by twice that ("env-and-class").  A pair
    is accepted only if every adjusted p-value exceeds ``alpha``.  Pairs
    are skipped when an (environment, class) cell has fewer than two rows or
    a class has too few pooled rows for |S| + 1 coefficients.

    Pairs sharing a conditioning set S are fitted with one least-squares
    solve, all their k columns as right-hand sides, and tested together.
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

    def skipped(pair: Pair, reason: str) -> InvarianceReport:
        return InvarianceReport(pair=pair, verdict="skipped", alpha=alpha, reason=reason)

    env_arr = train.env_of
    y_arr = train.response
    for label in labels:
        for y in (0, 1):
            count = int(np.sum((env_arr == label) & (y_arr == y)))
            if count < _MIN_CELL:
                reason = f"environment {label!r} has {count} samples of class {y}"
                return [skipped(pair, reason) for pair in pairs]

    factor = len(labels) if bonferroni_scope == SCOPE_ENV else 2 * len(labels)
    classes = [(train.features[y_arr == y], env_arr[y_arr == y]) for y in (0, 1)]
    by_s: dict[tuple[int, ...], list[Pair]] = {}
    for pair in pairs:
        by_s.setdefault(pair.s, []).append(pair)

    reports: dict[Pair, InvarianceReport] = {}
    for s, members in by_s.items():
        needed = max(2, len(s) + 1)
        short = [y for y, (rows, _) in enumerate(classes) if rows.shape[0] < needed]
        if short:
            reason = (
                f"class {short[0]} has {classes[short[0]][0].shape[0]} pooled samples, "
                f"fewer than {needed} required for |S| = {len(s)}"
            )
            reports.update((pair, skipped(pair, reason)) for pair in members)
            continue
        ks = [pair.k for pair in members]
        raw = [{label: {} for label in labels} for _ in members]
        for y, (rows, envs) in enumerate(classes):
            targets = rows[:, ks]
            fit, design = ols_columns(rows[:, list(s)], targets)
            residuals = targets - design @ fit.coef
            for label in labels:
                inside = envs == label
                _, _, p_cols = welch_columns(residuals[inside], residuals[~inside])
                for by_env, p in zip(raw, p_cols):
                    by_env[label][y] = float(p)
        for pair, by_env in zip(members, raw):
            adjusted = {
                label: {y: min(1.0, factor * p) for y, p in by.items()}
                for label, by in by_env.items()
            }
            worst = min(p for by in adjusted.values() for p in by.values())
            reports[pair] = InvarianceReport(
                pair=pair,
                verdict="accepted" if worst > alpha else "rejected",
                alpha=alpha,
                pvals=adjusted,
                raw_pvals=by_env,
            )
    return [reports[pair] for pair in pairs]
