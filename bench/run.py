"""End-to-end and per-layer benchmark for invarbin.

    python3 bench/run.py --workload wide-onehot --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Workloads (see workloads.py and README.md) are ingested from raw
string tables, then fitted, predicted and scored by all four methods in
whole rounds, serially in this process with BLAS pinned to one thread, until
``--seconds`` have passed.  Metrics are medians over the rounds; a method
that takes under a second a round is timed again after the round, so that
its median has enough samples.  After the rounds the outputs of the last
round are checked for correctness.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced round and prints the per-layer metrics, taken from
outside the program by wrapping its public functions (tracer.py); the spans
are written to ``bench/results/``.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: OpenBLAS's default of one thread per core costs
# CPU time and run-to-run stability with no wall-time gain (README.md).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gzip
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
RESULTS = HERE / "results"
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])  # what `--workload all` runs
METHODS = ("bimp-linear", "bimp-gam", "lr", "icp")
RESPONSE_MAP = {"0": 0, "1": 1}
SETUP_SLOT = (2, 0.5)  # ingests per slot: at least 2, and at least 0.5 s
METHOD_METRICS = {"bimp-linear": "bimp_linear_s", "bimp-gam": "bimp_gam_s", "icp": "icp_s"}
METHOD_SAMPLE_SECONDS = 1.0
CHECK_SAMPLE = 12


def _import_program():
    """Import invarbin from this checkout's src/, never from elsewhere."""
    init = SRC / "invarbin" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"bench: {init} not found; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import invarbin

    if Path(invarbin.__file__).resolve() != init.resolve():
        raise SystemExit(f"bench: imported invarbin from {invarbin.__file__}, not {init}")


@dataclass
class OpResult:
    dataset: int
    method: str
    model: object
    prediction: object
    labels: object
    accuracy: float | None
    mse: float | None
    seconds: float


def ingest(tables):
    """The fit-predict ingest path: sniff a schema, then encode the cells."""
    from invarbin import data

    out = []
    for t in tables:
        spec = data.sniff_table(
            t.header, t.rows, env_column="env", response_column="y",
            test_env="test", response_map=RESPONSE_MAP,
        )
        out.append(data.encode_table(t.header, t.rows, spec))
    return out


def timed_ingest(tables, min_count: int, min_seconds: float):
    """Ingest at least ``min_count`` times and ``min_seconds``; return the times."""
    times = []
    while len(times) < min_count or sum(times) < min_seconds:
        start = time.perf_counter()
        datasets = ingest(tables)
        times.append(time.perf_counter() - start)
    return datasets, times


def run_op(dataset: int, method: str, d, cap: int):
    """One operation: fit, predict the test environment and score one method."""
    from invarbin import baselines, bimp, data, evaluation, regression

    test = data.test_subset(d)
    start = time.perf_counter()
    prediction = labels = probs = None
    if method.startswith("bimp-"):
        model = bimp.fit_bimp(d, variant=method[5:], max_subset_size=cap)
        if not model.abstained:
            prediction = bimp.predict_bimp(model, test.features)
            labels, probs = prediction.labels, prediction.probabilities
    elif method == "lr":
        model = baselines.fit_lr_baseline(d)
        probs = regression.predict(model, test.features)
        labels = (probs >= 0.5).astype(int)
    else:
        model = baselines.fit_icp(d, max_subset_size=cap)
        labels = baselines.predict_baseline(model, test.features)
        if labels is not None:
            probs = regression.predict(model.model, test.features[:, list(model.intersection)])
    seconds = time.perf_counter() - start
    acc = err = None
    if labels is not None:
        acc = evaluation.accuracy(labels, test.response)
        err = evaluation.mse(probs, test.response)
    return OpResult(dataset, method, model, prediction, labels, acc, err, seconds)


def run_round(datasets, caps, tracer=None, methods=METHODS):
    """Every method on every dataset once; returns timings, results, failures."""
    from invarbin.errors import InvarbinError

    per_method = dict.fromkeys(methods, 0.0)
    results, failed = [], 0
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for i, (d, cap) in enumerate(zip(datasets, caps)):
        for method in methods:
            if tracer is not None:
                tracer.begin_op(f"{i}/{method}")
            try:
                r = run_op(i, method, d, cap)
            except InvarbinError as exc:
                print(f"bench: dataset {i} {method} failed: {exc!r}", file=sys.stderr)
                failed += 1
                continue
            per_method[method] += r.seconds
            results.append(r)
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    return {"wall": wall, "cpu": cpu, **per_method}, results, failed


def _fingerprint(results):
    return [
        (r.dataset, r.method, None if r.labels is None else r.labels.tobytes(),
         None if r.prediction is None else r.prediction.probabilities.tobytes())
        for r in results
    ]


def run_checks(workload, datasets, results, seed: int) -> list[str]:
    import numpy as np

    import checks
    from workloads import WIDE_SHIFTED_COLUMN

    rng = np.random.default_rng(seed)
    failures = []
    for table, d in zip(workload.tables, datasets):
        failures += _tagged("ingest", checks.check_ingest(table, d))
    for r in results:
        if not r.method.startswith("bimp-"):
            continue
        d = datasets[r.dataset]
        tag = f"dataset {r.dataset} {r.method}"
        failures += _tagged(tag, checks.check_prediction(d, r.model, r.prediction))
        if r.method == "bimp-linear":
            failures += _tagged(tag, checks.check_screen(d, r.model, rng, CHECK_SAMPLE))
            failures += _tagged(tag, checks.check_linear_h(d, r.model, rng, CHECK_SAMPLE))
            if workload.name == "wide-onehot":
                failures += _tagged(tag, checks.check_wide(d, r.model, r, WIDE_SHIFTED_COLUMN))
        if workload.name == "large-n":
            failures += _tagged(tag, checks.check_large_n(r.model, expected_pairs=448))
    if workload.name == "fig2":
        failures += _tagged("fig2", checks.check_fig2(results))
    return failures


def _tagged(tag: str, failures: list[str]) -> list[str]:
    return [f"{tag}: {f}" for f in failures]


def layer_metrics(tracer, results, traced_wall: float) -> dict[str, float]:
    """Per-layer values of one traced round, named as in BENCHMARK.json."""
    calls, inc, own, counters = tracer.calls, tracer.inclusive, tracer.self_time, tracer.counters
    bimp_models = [r.model for r in results if r.method.startswith("bimp-")]
    accepted = sum(m.counts["accepted"] for m in bimp_models)
    screen = inc["invariance.screen"]
    bimp_total = inc["bimp.fit_bimp"] + inc["bimp.predict_bimp"]
    m = {
        "data.take.calls": calls["data.take"],
        "data.take.s": inc["data.take"],
        "data.take.mb_copied": counters["data.take.bytes"] / 1e6,
        "data.training_subset.calls": calls["data.training_subset"],
        "data.training_subset.s": inc["data.training_subset"],
        "invariance.screen.s": screen,
        "invariance.screen.self_s": own["invariance.screen"],
        "invariance.pairs_tested": counters["invariance.pairs_tested"],
        "invariance.s_groups": counters["invariance.s_groups"],
        "invariance.accepted_ratio": counters["invariance.accepted"] / max(1.0, counters["invariance.pairs_tested"]),
        "bimp.fit_pair_model.calls": calls["bimp.fit_pair_model"],
        "bimp.fit_pair_model.s": inc["bimp.fit_pair_model"],
        "bimp.fit_pair_model.self_s": own["bimp.fit_pair_model"],
        "bimp.score_filter.s": inc["bimp.score_filter"],
        "bimp.score_filter.self_s": own["bimp.score_filter"],
        "bimp.score_filter.models": counters["bimp.score_filter.models"],
        "bimp.kept_ratio": sum(m.counts["kept"] for m in bimp_models) / max(1, accepted),
        "bimp.enumerate_pairs.s": inc["bimp.enumerate_pairs"],
        "bimp.predict_bimp.s": inc["bimp.predict_bimp"],
        "bimp.post_screen_share": (bimp_total - screen - inc["bimp.enumerate_pairs"]) / bimp_total,
        "regression.fit_ols.calls": calls["regression.fit_ols"],
        "regression.fit_ols.s": inc["regression.fit_ols"],
        "regression.fit_spline_additive.calls": calls["regression.fit_spline_additive"],
        "regression.fit_spline_additive.s": inc["regression.fit_spline_additive"],
        "regression.fit_logistic.calls": calls["regression.fit_logistic"],
        "regression.fit_logistic.s": inc["regression.fit_logistic"],
        "regression.fit_logistic.newton_iters": counters["regression.fit_logistic.newton_iters"],
        "regression.predict.calls": calls["regression.predict"],
        "regression.predict.s": inc["regression.predict"],
        "stats.welch_t_test.calls": calls["stats.welch_t_test"],
        "stats.welch_t_test.s": inc["stats.welch_t_test"],
        "stats.student_t_two_sided_p.calls": calls["stats.student_t_two_sided_p"],
        "stats.student_t_two_sided_p.s": inc["stats.student_t_two_sided_p"],
        "baselines.fit_icp.self_s": own["baselines.fit_icp"],
        "baselines.fit_icp.wall_share": inc["baselines.fit_icp"] / traced_wall,
        "baselines.icp.subsets": counters["baselines.icp.subsets"],
        "baselines.fit_lr_baseline.s": inc["baselines.fit_lr_baseline"],
        "kernel.lstsq.calls": calls["kernel.lstsq"],
        "kernel.lstsq.s": inc["kernel.lstsq"],
    }
    return {k: float(v) for k, v in m.items()}


def install_tracer(tracer) -> None:
    """Wrap the public functions each per-layer metric is taken from."""
    import numpy as np

    from invarbin import baselines, bimp, data, invariance, regression, stats

    def add(key, value):
        tracer.counters[key] += value

    def on_take(result, args, kwargs):
        add("data.take.bytes", result.features.nbytes + result.response.nbytes + result.env_of.nbytes)

    def on_screen(reports, args, kwargs):
        add("invariance.pairs_tested", len(reports))
        add("invariance.s_groups", len({r.pair.s for r in reports}))
        add("invariance.accepted", sum(r.accepted for r in reports))

    tracer.wrap("data.sniff_table", data, "sniff_table")
    tracer.wrap("data.encode_table", data, "encode_table")
    tracer.wrap("data.take", data.MultiEnvDataset, "take", on_take)
    tracer.wrap("data.training_subset", data, "training_subset")
    tracer.wrap("invariance.screen", invariance, "batched_residual_tests", on_screen)
    tracer.wrap("bimp.fit_bimp", bimp, "fit_bimp")
    tracer.wrap("bimp.enumerate_pairs", bimp, "enumerate_pairs")
    tracer.wrap("bimp.fit_pair_model", bimp, "fit_pair_model")
    tracer.wrap("bimp.score_filter", bimp, "score_filter",
                lambda r, a, k: add("bimp.score_filter.models", len(a[0] if a else k["models"])))
    tracer.wrap("bimp.predict_bimp", bimp, "predict_bimp")
    tracer.wrap("regression.fit_ols", regression, "fit_ols")
    tracer.wrap("regression.fit_spline_additive", regression, "fit_spline_additive")
    tracer.wrap("regression.fit_logistic", regression, "fit_logistic",
                lambda r, a, k: add("regression.fit_logistic.newton_iters", r.n_iter))
    tracer.wrap("regression.predict", regression, "predict")
    tracer.wrap("stats.welch_t_test", stats, "welch_t_test")
    tracer.wrap("stats.student_t_two_sided_p", stats, "student_t_two_sided_p")
    tracer.wrap("baselines.fit_icp", baselines, "fit_icp",
                lambda r, a, k: add("baselines.icp.subsets", len(r.pvals)))
    tracer.wrap("baselines.fit_lr_baseline", baselines, "fit_lr_baseline")
    tracer.wrap("kernel.lstsq", np.linalg, "lstsq")


def check_trace_counts(tracer, results) -> list[str]:
    """The traced counters equal the counts the fitted models report."""
    bimp_models = [r.model for r in results if r.method.startswith("bimp-")]
    icp_models = [r.model for r in results if r.method == "icp"]
    expect = {
        "bimp.fit_pair_model.calls": (tracer.calls["bimp.fit_pair_model"], sum(m.counts["accepted"] for m in bimp_models)),
        "invariance.pairs_tested": (tracer.counters["invariance.pairs_tested"], sum(m.counts["enumerated"] for m in bimp_models)),
        "baselines.icp.subsets": (tracer.counters["baselines.icp.subsets"], sum(len(m.pvals) for m in icp_models)),
    }
    return [f"trace: {k} = {got} but the models report {want}" for k, (got, want) in expect.items() if got != want]


def write_spans(tracer, workload: str, seed: int) -> None:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"spans-{workload}-seed{seed}.json.gz"
    payload = {"fields": ["name", "start", "end", "parent", "op"], "ops": tracer.ops, "spans": tracer.spans}
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump(payload, fh)


def traced_round(workload, datasets, caps):
    """One round with every traced function wrapped; per-layer values and wall."""
    from tracer import Tracer

    with Tracer() as tracer:
        install_tracer(tracer)
        ingest(workload.tables)
        setup = {k: tracer.inclusive[k] for k in ("data.sniff_table", "data.encode_table")}
        timing, results, failed = run_round(datasets, caps, tracer)
    layer = layer_metrics(tracer, results, timing["wall"])
    layer["data.sniff_table.s"] = setup["data.sniff_table"]
    layer["data.encode_table.s"] = setup["data.encode_table"]
    return tracer, layer, timing["wall"], results, failed


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import BUILDERS

    workload = BUILDERS[name](seed)
    caps = [t.cap for t in workload.tables]
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

    rounds, setup_times, layers, untraced_walls, traced_walls = [], [], [], [], []
    method_times = {method: [] for method in METHOD_METRICS}
    failures, attempted, failed = [], 0, 0
    first = None
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < seconds:
        # Ingest is timed in a slot before every round, not all up front, so
        # that its median spans the same stretch of time as the rounds'.
        datasets, times = timed_ingest(workload.tables, *((1, 0.0) if trace else SETUP_SLOT))
        setup_times += times
        timing, results, n_failed = run_round(datasets, caps)
        rounds.append(timing)
        attempted += len(datasets) * len(METHODS)
        failed += n_failed
        # A method faster than METHOD_SAMPLE_SECONDS a round (ICP on
        # wide-onehot: ~0.15 s) is timed again until its samples of this
        # round add up to that, so its median rests on more than a few
        # short, noise-prone intervals.
        for method, times in method_times.items():
            times.append(timing[method])
            spent = timing[method]
            while not trace and spent < METHOD_SAMPLE_SECONDS:
                extra, _, n_failed = run_round(datasets, caps, methods=(method,))
                times.append(extra[method])
                spent += extra[method]
                attempted += len(datasets)
                failed += n_failed
        first = first or _fingerprint(results)
        if _fingerprint(results) != first:
            failures.append("outputs differ between rounds")
        if trace:
            tracer, layer, wall, results, n_failed = traced_round(workload, datasets, caps)
            attempted += len(datasets) * len(METHODS)
            failed += n_failed
            failures += check_trace_counts(tracer, results)
            if _fingerprint(results) != first:
                failures.append("tracing changed the outputs")
            untraced_walls.append(timing["wall"])
            traced_walls.append(wall)
            layers.append(layer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures += run_checks(workload, datasets, results, seed)
    for f in failures:
        print(f"bench: check failed: {f}", file=sys.stderr)

    if trace:
        values = {key: statistics.median(layer[key] for layer in layers) for key in layers[0]}
        values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced_walls)
        write_spans(tracer, name, seed)
    else:
        values = {
            "wall_s": statistics.median(r["wall"] for r in rounds),
            "cpu_s": statistics.median(r["cpu"] for r in rounds),
            **{metric: statistics.median(method_times[m]) for m, metric in METHOD_METRICS.items()},
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
    print(f"{name} seed {seed}: {len(rounds)} round(s), {attempted} operations, {failed} failed, "
          f"{len(failures)} check failure(s)")
    for key, value in values.items():
        print(f"  {key} = {value:.6g} {units[key]}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own child process, so each has its own peak RSS."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"bench: workload {name} exited with code {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"] |= {f"{name}.{k}": v for k, v in result["metrics"].items()}
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("fig2", "wide-onehot", "large-n", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
