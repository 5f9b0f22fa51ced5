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
from .regression import fit_ols  # noqa: F401
from .stats import student_t_tail, welch_moments

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

    One pass over the training rows reduces each (environment, class) cell
    to its row count, column means and the R factor of its centred block.
    Per class and conditioning-set size, every S of that size is then
    fitted by one stacked solve on those factors, every column as a
    right-hand side, and the residual moments give each pair's Welch
    (t, df); no step after the pass touches the rows.  The p-values of the
    whole screen come from one :func:`~invarbin.stats.student_t_tail` call.
    A k that is an exact linear function of x_S within a class gets p = 1
    in that class.
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
    cells = []
    for label in labels:
        inside = env_arr == label
        for y in (0, 1):
            rows = inside & (y_arr == y)
            count = int(np.sum(rows))
            if count < _MIN_CELL:
                reason = f"environment {label!r} has {count} samples of class {y}"
                return [skipped(pair, reason) for pair in pairs]
            cells.append(rows)
    classes = [_ClassSummary.of(train.features, cells[y::2]) for y in (0, 1)]

    factor = len(labels) if bonferroni_scope == SCOPE_ENV else 2 * len(labels)
    by_s: dict[tuple[int, ...], list[Pair]] = {}
    for pair in pairs:
        by_s.setdefault(pair.s, []).append(pair)
    by_size: dict[int, list[tuple[int, ...]]] = {}
    for s in by_s:
        by_size.setdefault(len(s), []).append(s)

    reports: dict[Pair, InvarianceReport] = {}
    tested: list[Pair] = []
    t_parts, df_parts = [], []
    for size, sets in by_size.items():
        needed = max(2, size + 1)
        short = [y for y, summary in enumerate(classes) if summary.count < needed]
        if short:
            reason = (
                f"class {short[0]} has {classes[short[0]].count} pooled samples, "
                f"fewer than {needed} required for |S| = {size}"
            )
            reports.update((pair, skipped(pair, reason)) for s in sets for pair in by_s[s])
            continue
        members = [(g, pair) for g, s in enumerate(sets) for pair in by_s[s]]
        g_idx = [g for g, _ in members]
        k_idx = [pair.k for _, pair in members]
        tested.extend(pair for _, pair in members)
        stacks = np.array(sets, dtype=np.intp).reshape(len(sets), size)
        t, df = zip(*(summary.welch(stacks) for summary in classes))
        t_parts.append(np.stack(t)[:, :, g_idx, k_idx])
        df_parts.append(np.stack(df)[:, :, g_idx, k_idx])

    # One tail call for the whole screen: tails[y, e, j] for the j-th tested pair.
    empty = np.empty((2, len(labels), 0))
    tails = student_t_tail(
        np.concatenate([empty, *t_parts], axis=2), np.concatenate([empty, *df_parts], axis=2)
    )
    for pair, by_cell in zip(tested, tails.transpose(2, 1, 0).tolist()):
        raw = {label: dict(enumerate(by_y)) for label, by_y in zip(labels, by_cell)}
        adjusted = {
            label: {y: min(1.0, factor * p) for y, p in by.items()} for label, by in raw.items()
        }
        worst = min(p for by in adjusted.values() for p in by.values())
        reports[pair] = InvarianceReport(
            pair=pair,
            verdict="accepted" if worst > alpha else "rejected",
            alpha=alpha,
            pvals=adjusted,
            raw_pvals=raw,
        )
    return [reports[pair] for pair in pairs]


@dataclass(frozen=True)
class _ClassSummary:
    """One class's training rows, reduced to what the screen needs.

    Per training environment (a cell): the row count, the offset of the
    cell's column means from the class means, and the R factor of the
    cell's centred block.  ``full`` is an R factor of the class block with
    an intercept column in front, [1, X].
    """

    counts: np.ndarray
    shifts: np.ndarray
    factors: tuple[np.ndarray, ...]
    full: np.ndarray

    @property
    def count(self) -> int:
        return int(self.counts.sum())

    @classmethod
    def of(cls, features: np.ndarray, cells) -> "_ClassSummary":
        blocks = [features[rows] for rows in cells]
        counts = np.array([block.shape[0] for block in blocks], dtype=float)
        means = np.array([block.mean(axis=0) for block in blocks])
        mean = counts @ means / counts.sum()
        shifts = means - mean
        factors = tuple(
            np.linalg.qr(block - cell_mean, mode="r") for block, cell_mean in zip(blocks, means)
        )
        # Centred on the class means, cell e's rows are its own centred rows
        # plus shifts[e], and their cross term vanishes: stacking each
        # cell's R with sqrt(n_e) * shifts[e] has the class's centred
        # scatter, and the row sqrt(n) * [1, mean] puts the intercept back.
        centred = np.linalg.qr(np.vstack([*factors, np.sqrt(counts)[:, None] * shifts]), mode="r")
        full = np.vstack(
            [
                np.sqrt(counts.sum()) * np.concatenate([[1.0], mean]),
                np.column_stack([np.zeros(len(centred)), centred]),
            ]
        )
        return cls(counts, shifts, factors, full)

    def welch(self, stacks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Welch (t, df) of every column's residuals on [1, x_S], per cell and S.

        ``stacks`` holds G conditioning sets of one size as rows; both
        results have shape (cells, G, m), column k holding the test of
        k given S (a k inside S is a zero residual and meaningless).  One
        stacked pseudo-inverse of the columns of ``full`` solves all G fits:
        those columns have the singular values, hence the cut-off and the
        minimum-norm solution, of the tall fit on [1, X_S], with the same
        relative cut-off as ``lstsq``'s ``rcond``.  A residual's cell mean
        is then shift_k - shift_S @ beta (up to the pooled residual mean,
        which every Welch difference cancels) and its sum of squares within
        the cell is |R_e[:, k] - R_e[:, S] @ beta|^2; the cells outside are
        combined by the within-plus-between decomposition.  A k whose
        pooled residual sum of squares is within that cut-off (squared) of
        its sum of squares is an exact linear function of x_S: its
        residuals count as zero, so every cell gets t = 0 and p = 1.  The
        sum of squares is taken before centring, because centring a
        constant column such as 0.1 leaves rounding-sized values, not
        zeros.
        """
        g, size = stacks.shape
        cutoff = np.finfo(float).eps * max(self.count, size + 1)
        columns = np.column_stack([np.zeros(g, np.intp), stacks + 1])
        design = np.moveaxis(self.full[:, columns], 1, 0)
        beta = (np.linalg.pinv(design, rcond=cutoff) @ self.full)[:, 1:, 1:]

        def residuals(block: np.ndarray) -> np.ndarray:
            # block - block[:, S] @ beta for every S: shape (G, rows, m)
            return block - np.moveaxis(block[:, stacks], 1, 0) @ beta

        def residual_ss(block: np.ndarray) -> np.ndarray:
            return np.sum(residuals(block) ** 2, axis=1)

        exact = residual_ss(self.full[1:, 1:]) <= cutoff**2 * np.sum(self.full[:, 1:] ** 2, axis=0)
        means = np.where(exact[:, None], 0.0, residuals(self.shifts))
        sums = np.where(exact[:, None], 0.0, np.stack([residual_ss(r) for r in self.factors], 1))
        t, df = [], []
        for e, n_in in enumerate(self.counts):
            out = np.arange(len(self.counts)) != e
            n_out = self.counts[out].sum()
            mean_out = self.counts[out] @ means[:, out] / n_out
            between = self.counts[out] @ (means[:, out] - mean_out[:, None]) ** 2
            sum_out = sums[:, out].sum(axis=1) + between
            t_e, df_e = welch_moments(
                (n_in, means[:, e], sums[:, e] / (n_in - 1)),
                (n_out, mean_out, sum_out / (n_out - 1)),
            )
            t.append(t_e)
            df.append(df_e)
        return np.stack(t), np.stack(df)
