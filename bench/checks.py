"""Correctness checks run after the timed rounds of a workload.

Every check recomputes something the program produced by an independent
route (its own least-squares solve, scipy's Welch test, the normal
equations, the ratio formula on exported coefficients) or tests a property
the method must have.  Each returns a list of failure messages; an empty
list means the check passed.
"""

from __future__ import annotations

import math
import statistics

import numpy as np
import scipy.linalg
import scipy.stats

from invarbin import bimp

P_RTOL = 1e-6
P_ATOL = 1e-12
COEF_RTOL = 1e-8
PROB_ATOL = 1e-9


def _train_mask(d) -> np.ndarray:
    train = set(d.train_labels)
    return np.array([e in train for e in d.env_of], dtype=bool)


def _test_mask(d) -> np.ndarray:
    return np.array([e == d.test_label for e in d.env_of], dtype=bool)


def _design(X: np.ndarray, s) -> np.ndarray:
    return np.column_stack([np.ones(X.shape[0]), X[:, list(s)]])


def check_ingest(table, d) -> list[str]:
    """The encoded dataset equals the generator's arrays bit for bit."""
    failures = []
    if d.features.dtype != np.float64 or d.features.shape != table.features.shape:
        failures.append(f"features shape/dtype {d.features.shape}/{d.features.dtype}")
    elif d.features.tobytes() != np.ascontiguousarray(table.features, dtype=np.float64).tobytes():
        failures.append("ingested features differ from the generated arrays")
    if not np.array_equal(d.response, table.response):
        failures.append("ingested labels differ from the generated labels")
    if list(d.env_of) != list(table.env_of):
        failures.append("ingested environments differ from the generated ones")
    if tuple(d.column_names) != tuple(table.column_names):
        failures.append(f"column names {d.column_names} != {table.column_names}")
    return failures


def check_screen(d, model, rng, sample: int) -> list[str]:
    """Recompute a seeded sample of screened pairs from scratch.

    Per-class residuals come from a pivoted-QR least-squares solve (not the
    program's SVD ``lstsq``) and the Welch p-values from scipy.  Then the raw
    p-values, the Bonferroni factor (number of training environments) and
    the verdict are compared with the report.
    """
    failures = []
    train = _train_mask(d)
    X, y, env = d.features[train], d.response[train], d.env_of[train]
    labels = d.train_labels
    factor = len(labels)
    tested = [r for r in model.reports if r.verdict != "skipped"]
    if not tested:
        return ["no screened pair to check"]
    picks = rng.choice(len(tested), size=min(sample, len(tested)), replace=False)
    for i in sorted(picks):
        report = tested[int(i)]
        pair = report.pair
        worst = math.inf
        for cls in (0, 1):
            rows = y == cls
            design = _design(X[rows], pair.s)
            target = X[rows, pair.k]
            coef = scipy.linalg.lstsq(design, target, lapack_driver="gelsy")[0]
            residuals = target - design @ coef
            env_here = env[rows]
            for label in labels:
                inside = residuals[env_here == label]
                outside = residuals[env_here != label]
                ref = float(scipy.stats.ttest_ind(inside, outside, equal_var=False).pvalue)
                raw = report.raw_pvals[label][cls]
                adjusted = report.pvals[label][cls]
                if not abs(raw - ref) <= P_RTOL * ref + P_ATOL:
                    failures.append(f"{pair}: raw p[{label}][{cls}] {raw!r} vs scipy {ref!r}")
                if adjusted != min(1.0, factor * raw):
                    failures.append(f"{pair}: adjusted p[{label}][{cls}] {adjusted!r} != min(1, {factor}*{raw!r})")
                worst = min(worst, min(1.0, factor * ref))
        reported_worst = min(p for by in report.pvals.values() for p in by.values())
        verdict = "accepted" if reported_worst > report.alpha else "rejected"
        ref_verdict = "accepted" if worst > report.alpha else "rejected"
        near_alpha = abs(worst - report.alpha) <= P_RTOL * report.alpha
        if report.verdict != verdict or (report.verdict != ref_verdict and not near_alpha):
            failures.append(f"{pair}: verdict {report.verdict} (reference {ref_verdict})")
    return failures


def check_linear_h(d, model, rng, sample: int) -> list[str]:
    """h0/h1 of sampled kept pairs equal the min-norm normal-equation solution."""
    failures = []
    train = _train_mask(d)
    X, y = d.features[train], d.response[train]
    kept = model.pair_models
    picks = rng.choice(len(kept), size=min(sample, len(kept)), replace=False) if kept else []
    for i in sorted(picks):
        pm = kept[int(i)]
        for cls, fitted in ((0, pm.h0), (1, pm.h1)):
            rows = y == cls
            design = _design(X[rows], pm.pair.s)
            gram = design.T @ design
            beta = np.linalg.pinv(gram, hermitian=True) @ (design.T @ X[rows, pm.pair.k])
            got = np.asarray(fitted.coef)
            scale = max(1.0, float(np.max(np.abs(beta))))
            if got.shape != beta.shape or not np.all(np.abs(got - beta) <= COEF_RTOL * scale):
                failures.append(f"{pm.pair}: h{cls} coef {got.tolist()} vs normal equations {beta.tolist()}")
    return failures


def _contributions(pairs, X: np.ndarray, marginal_linear: bool):
    """Per-row ratio sum and contributor count from exported coefficients."""
    total = np.zeros(X.shape[0])
    count = np.zeros(X.shape[0])
    for p in pairs:
        block = X[:, list(p["s"])]

        def evaluate(coef):
            coef = np.asarray(coef)
            return coef[0] + block @ coef[1:]

        h0v, h1v = evaluate(p["h0"]["coef"]), evaluate(p["h1"]["coef"])
        den = h1v - h0v
        ok = np.abs(den) > p["eps_abs"]
        count += ok
        if marginal_linear:
            mv = evaluate(p["marginal"]["coef"])
            total[ok] += np.clip((mv[ok] - h0v[ok]) / den[ok], 0.0, 1.0)
    return total, count


def check_prediction(d, model, pred) -> list[str]:
    """Probability range, labels, fallback rows and (linear) the ensemble value."""
    failures = []
    if model.abstained:
        return failures
    X = d.features[_test_mask(d)]
    probs, labels, fallback = pred.probabilities, pred.labels, pred.fallback
    if not np.all((probs >= 0.0) & (probs <= 1.0)):
        failures.append("probability outside [0, 1]")
    if not np.array_equal(labels, (probs >= 0.5).astype(labels.dtype)):
        failures.append("labels differ from p >= 0.5")
    exported = bimp.bimp_to_dict(model)
    linear = model.variant == bimp.VARIANT_LINEAR
    total, count = _contributions(exported["pairs"], X, marginal_linear=linear)
    if not np.array_equal(fallback, count == 0):
        failures.append(f"fallback rows {int(fallback.sum())} != rows without a contributing pair {int((count == 0).sum())}")
    if np.any(probs[fallback] != model.base_rate):
        failures.append("fallback row differs from the base rate")
    if linear:
        expected = np.where(count == 0, model.base_rate, total / np.maximum(count, 1.0))
        gap = float(np.max(np.abs(expected - probs))) if probs.size else 0.0
        if not gap <= PROB_ATOL:
            failures.append(f"ensemble probability off the ratio formula by {gap:.3g}")
    accepted = {r.pair for r in model.reports if r.accepted}
    stray = [p for p in model.pairs if p not in accepted]
    if stray:
        failures.append(f"kept pairs never accepted by the screen: {stray[:3]}")
    return failures


def check_fig2(results) -> list[str]:
    """The median bimp-linear accuracy beats pooled LR's (test rule flipped)."""
    acc = {
        method: [r.accuracy for r in results if r.method == method and r.accuracy is not None]
        for method in ("bimp-linear", "lr")
    }
    if not acc["bimp-linear"] or not acc["lr"]:
        return ["no scored bimp-linear or lr replicate"]
    ours, theirs = statistics.median(acc["bimp-linear"]), statistics.median(acc["lr"])
    return [] if ours > theirs else [f"median accuracy bimp-linear {ours} <= lr {theirs}"]


def check_wide(d, model, result, shifted_column: str) -> list[str]:
    """Pairs with k = the shifted column are rejected; bimp beats the majority rate."""
    failures = []
    k = d.column_names.index(shifted_column)
    bad = [r.pair for r in model.reports if r.pair.k == k and r.verdict != "rejected"]
    if bad:
        failures.append(f"{len(bad)} pairs with k = {shifted_column} not rejected, e.g. {bad[0]}")
    y_test = d.response[_test_mask(d)]
    majority = max(float(y_test.mean()), 1.0 - float(y_test.mean()))
    if result.accuracy is None or not result.accuracy > majority:
        failures.append(f"bimp-linear accuracy {result.accuracy} <= majority rate {majority}")
    return failures


def check_large_n(model, expected_pairs: int) -> list[str]:
    """Fewer than 10% of the pairs are accepted at large n."""
    counts = model.counts
    if counts["enumerated"] != expected_pairs:
        return [f"{counts['enumerated']} pairs enumerated, expected {expected_pairs}"]
    if not counts["accepted"] < 0.1 * expected_pairs:
        return [f"{counts['accepted']} of {expected_pairs} pairs accepted (>= 10%)"]
    return []
