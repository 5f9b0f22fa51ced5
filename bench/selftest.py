"""Self-tests for the benchmark: checks catch corrupted outputs, traces count exactly.

    python3 -m pytest -q bench/selftest.py

Every check must pass on the program's true outputs and fail on an output
corrupted in one small way (a flipped verdict, a probability moved by 1e-6,
one bit of one feature).  The tracer's counters must equal counts derived
from the fitted models on a tiny input.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from invarbin import bimp, regression, simgen  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def tiny():
    cfg = simgen.draw_benchmark_config(0, m=4, n_per_env=300)
    table = workloads._table_from_dataset(simgen.gen_benchmark(cfg), cap=3)
    (d,) = run.ingest([table])
    results = {r.method: r for r in (run.run_op(0, m, d, 3) for m in run.METHODS)}
    return table, d, results


def _replace_report(model, index, **changes):
    reports = list(model.reports)
    reports[index] = dataclasses.replace(reports[index], **changes)
    return dataclasses.replace(model, reports=tuple(reports))


def _rng():
    return np.random.default_rng(0)


def test_checks_pass_on_true_outputs(tiny):
    table, d, results = tiny
    lin = results["bimp-linear"]
    assert not lin.model.abstained
    assert checks.check_ingest(table, d) == []
    assert checks.check_screen(d, lin.model, _rng(), 10_000) == []
    assert checks.check_linear_h(d, lin.model, _rng(), 10_000) == []
    for method in ("bimp-linear", "bimp-gam"):
        r = results[method]
        assert checks.check_prediction(d, r.model, r.prediction) == []


def test_ingest_check_catches_one_bit_and_one_label(tiny):
    table, d, _ = tiny
    features = table.features.copy()
    features[5, 1] = np.nextafter(features[5, 1], np.inf)
    assert checks.check_ingest(dataclasses.replace(table, features=features), d)
    response = table.response.copy()
    response[7] = 1 - response[7]
    assert checks.check_ingest(dataclasses.replace(table, response=response), d)


def test_screen_check_catches_flipped_verdict(tiny):
    _, d, results = tiny
    model = results["bimp-linear"].model
    i = next(i for i, r in enumerate(model.reports) if r.verdict == "rejected")
    bad = _replace_report(model, i, verdict="accepted")
    assert checks.check_screen(d, bad, _rng(), 10_000)


def test_screen_check_catches_shifted_raw_p_and_wrong_adjustment(tiny):
    _, d, results = tiny
    model = results["bimp-linear"].model
    i = next(i for i, r in enumerate(model.reports) if r.accepted)
    report = model.reports[i]
    label = next(iter(report.raw_pvals))
    raw = {env: dict(by) for env, by in report.raw_pvals.items()}
    raw[label][0] *= 1.0 + 1e-4
    assert checks.check_screen(d, _replace_report(model, i, raw_pvals=raw), _rng(), 10_000)
    adjusted = {env: dict(by) for env, by in report.pvals.items()}
    adjusted[label][1] = min(1.0, adjusted[label][1] * 0.5 + 0.01)
    assert checks.check_screen(d, _replace_report(model, i, pvals=adjusted), _rng(), 10_000)


def test_h_check_catches_coefficient_shift(tiny):
    _, d, results = tiny
    model = results["bimp-linear"].model
    pm = model.pair_models[0]
    coef = list(pm.h1.coef)
    coef[0] += 1e-6
    moved = dataclasses.replace(pm, h1=regression.LinearModel(coef=tuple(coef)))
    bad = dataclasses.replace(model, pair_models=(moved, *model.pair_models[1:]))
    assert checks.check_linear_h(d, bad, _rng(), 10_000)


def test_prediction_check_catches_shifted_probability(tiny):
    _, d, results = tiny
    r = results["bimp-linear"]
    probs = r.prediction.probabilities.copy()
    row = int(np.argmin(np.abs(probs - 0.3)))
    probs[row] += 1e-6
    bad = dataclasses.replace(r.prediction, probabilities=probs)
    assert checks.check_prediction(d, r.model, bad)


def test_prediction_check_catches_label_fallback_and_unaccepted_pair(tiny):
    _, d, results = tiny
    for method in ("bimp-linear", "bimp-gam"):
        r = results[method]
        labels = r.prediction.labels.copy()
        labels[0] = 1 - labels[0]
        assert checks.check_prediction(d, r.model, dataclasses.replace(r.prediction, labels=labels))
        fallback = r.prediction.fallback.copy()
        fallback[0] = not fallback[0]
        assert checks.check_prediction(d, r.model, dataclasses.replace(r.prediction, fallback=fallback))
        kept = r.model.pairs[0]
        i = next(i for i, rep in enumerate(r.model.reports) if rep.pair == kept)
        bad = _replace_report(r.model, i, verdict="rejected")
        assert checks.check_prediction(d, bad, r.prediction)


def test_workload_checks_catch_their_failures(tiny):
    _, d, results = tiny
    lin, lr = results["bimp-linear"], results["lr"]
    good = [dataclasses.replace(lin, accuracy=0.8), dataclasses.replace(lr, accuracy=0.4)]
    assert checks.check_fig2(good) == []
    flipped = [dataclasses.replace(lin, accuracy=0.4), dataclasses.replace(lr, accuracy=0.8)]
    assert checks.check_fig2(flipped)

    model = lin.model
    counts = dict(model.counts, enumerated=448, accepted=44)
    assert checks.check_large_n(dataclasses.replace(model, counts=counts), 448) == []
    counts["accepted"] = 45
    assert checks.check_large_n(dataclasses.replace(model, counts=counts), 448)

    wide = workloads.build_wide_onehot(0, n=600)
    (wd,) = run.ingest(wide.tables)
    r = run.run_op(0, "bimp-linear", wd, workloads.WIDE_CAP)
    assert checks.check_ingest(wide.tables[0], wd) == []
    b = workloads.WIDE_SHIFTED_COLUMN
    assert checks.check_wide(wd, r.model, r, b) == []
    k = wd.column_names.index(b)
    i = next(i for i, rep in enumerate(r.model.reports) if rep.pair.k == k)
    assert checks.check_wide(wd, _replace_report(r.model, i, verdict="accepted"), r, b)
    assert checks.check_wide(wd, r.model, dataclasses.replace(r, accuracy=0.0), b)


def test_tracer_counts_are_exact(tiny):
    _, d, _ = tiny
    with Tracer() as tracer:
        run.install_tracer(tracer)
        _, results, failed = run.run_round([d], [3], tracer)
    assert failed == 0
    assert run.check_trace_counts(tracer, results) == []
    by = {r.method: r.model for r in results}
    lin, gam, icp = by["bimp-linear"], by["bimp-gam"], by["icp"]
    a_lin, a_gam = lin.counts["accepted"], gam.counts["accepted"]
    subsets = len(icp.pvals)
    groups = len({r.pair.s for r in lin.reports})
    calls = tracer.calls
    # linear: h0 + h1 + target marginal per accepted pair, and one marginal
    # per training environment in the score filter; gam swaps the marginals.
    assert calls["regression.fit_ols"] == 5 * a_lin + 2 * a_gam
    assert calls["regression.fit_spline_additive"] == 3 * a_gam
    assert calls["bimp.fit_pair_model"] == a_lin + a_gam
    assert calls["stats.welch_t_test"] == 2 * subsets
    tested = lin.counts["enumerated"] + gam.counts["enumerated"]
    assert calls["stats.student_t_two_sided_p"] == 4 * tested + 2 * subsets
    assert calls["kernel.lstsq"] == (
        calls["regression.fit_ols"] + calls["regression.fit_spline_additive"] + 2 * 2 * groups
    )
    assert calls["regression.fit_logistic"] == subsets + (not icp.abstained) + 1
    assert tracer.counters["invariance.s_groups"] == 2 * groups
    assert len(tracer.ops) == len(run.METHODS)
    # Self times of all spans add up to the time covered by top-level spans.
    top = sum(end - start for _, start, end, parent, _ in tracer.spans if parent == -1)
    assert sum(tracer.self_time.values()) == pytest.approx(top, rel=1e-9)


def test_tracer_restores_every_binding():
    from invarbin import invariance

    original, lstsq = regression.fit_ols, np.linalg.lstsq
    with Tracer() as tracer:
        run.install_tracer(tracer)
        assert bimp.fit_ols is not original and invariance.fit_ols is not original
        assert np.linalg.lstsq is not lstsq
    assert bimp.fit_ols is original and invariance.fit_ols is original
    assert regression.fit_ols is original and np.linalg.lstsq is lstsq
