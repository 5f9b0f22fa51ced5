"""End-to-end acceptance checks.

Each test prints one PASS/FAIL/SKIP line (bypassing capture) so a plain
``pytest -v`` run shows the whole scorecard.  The two real-data checks skip
with download instructions when the UCI files are not present locally.
"""

import itertools
import math
import os
import time

import numpy as np
import pytest
import scipy.integrate

from invarbin import (
    DiscreteOracle,
    Pair,
    accuracy,
    bonferroni_combine,
    draw_benchmark_config,
    fit_bimp,
    fit_icp,
    fit_lr_baseline,
    fit_ols,
    fit_pair_model,
    gen_anchor,
    gen_benchmark,
    normal_cdf,
    predict,
    predict_baseline,
    predict_bimp,
    predict_pair,
    random_matching_spec,
    random_violating_spec,
    residual_distribution_test,
    training_subset,
    welch_t_test,
)
from invarbin import test_subset as held_out_subset
from invarbin.cli import CENSUS_INSTRUCTIONS, MUSHROOM_INSTRUCTIONS, main


def announce(capsys, number, label, ok, detail):
    with capsys.disabled():
        print(f"[acceptance {number}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


def skip_with_line(capsys, number, label, why):
    with capsys.disabled():
        print(f"[acceptance {number}] {label}: SKIP ({why.splitlines()[0]})")
    pytest.skip(why)


def dataset_path(env_var, name):
    candidates = [os.environ.get(env_var), name,
                  os.path.join(os.path.dirname(__file__), "..", name)]
    for c in candidates:
        if c and os.path.exists(c):
            return c
    return None


def read_tree(root):
    out = {}
    for dirpath, _, filenames in os.walk(root):
        for fname in filenames:
            path = os.path.join(dirpath, fname)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def test_exact_ratio_identity_across_environments(capsys):
    started = time.perf_counter()
    worst_ratio = worst_h = 0.0
    for seed in range(50):
        spec = random_matching_spec(seed)
        oracle = DiscreteOracle(spec)
        worst_ratio = max(worst_ratio, ratio_identity_gap_direct(oracle, spec))
        worst_h = max(worst_h, h_gap_direct(oracle, spec))
    elapsed = time.perf_counter() - started
    ok = worst_ratio <= 1e-12 and worst_h <= 1e-12 and elapsed <= 60.0
    announce(
        capsys, 1, "exact ratio identity on 50 matching models", ok,
        f"max |ratio - posterior| {worst_ratio:.1e}, max cross-env h gap {worst_h:.1e}, "
        f"{elapsed:.1f}s",
    )


def ratio_identity_gap_direct(oracle, spec):
    """Worst |(E[x_k|x_S] - h0)/(h1 - h0) - E[y|x_S]|, recomputed from scratch."""
    worst = 0.0
    for env in spec.envs:
        for x_s in oracle.support_s(env):
            h0 = oracle.h_given_s(env, x_s, 0)
            h1 = oracle.h_given_s(env, x_s, 1)
            if h0 is None or h1 is None or h1 == h0:
                continue
            ratio = (oracle.e_k_given_s(env, x_s) - h0) / (h1 - h0)
            worst = max(worst, abs(float(ratio - oracle.e_y_given_s(env, x_s))))
    return worst


def h_gap_direct(oracle, spec):
    worst = 0.0
    for env_a, env_b in itertools.combinations(spec.envs, 2):
        shared = set(oracle.support_s(env_a)) & set(oracle.support_s(env_b))
        for x_s in shared:
            for y in (0, 1):
                ha = oracle.h_given_s(env_a, x_s, y)
                hb = oracle.h_given_s(env_b, x_s, y)
                if ha is None or hb is None:
                    continue
                worst = max(worst, abs(float(ha - hb)))
    return worst


def test_violating_models_break_cross_env_ratio_equality(capsys):
    gaps = []
    for seed in range(10):
        spec = random_violating_spec(seed)
        oracle = DiscreteOracle(spec)
        worst = 0.0
        # ratio built from one environment's class-conditional tables,
        # evaluated against another environment's posterior
        for env_a, env_b in itertools.permutations(spec.envs, 2):
            shared = set(oracle.support_s(env_a)) & set(oracle.support_s(env_b))
            for x_s in shared:
                h0 = oracle.h_given_s(env_a, x_s, 0)
                h1 = oracle.h_given_s(env_a, x_s, 1)
                if h0 is None or h1 is None or h1 == h0:
                    continue
                ratio = (oracle.e_k_given_s(env_b, x_s) - h0) / (h1 - h0)
                worst = max(worst, abs(float(ratio - oracle.e_y_given_s(env_b, x_s))))
        gaps.append(worst)
    ok = all(g >= 0.05 for g in gaps)
    announce(
        capsys, 2, "cross-env ratio equality fails on 10 violating models", ok,
        f"min gap {min(gaps):.3f} (need >= 0.05)",
    )


def test_anchor_pair_choice_changes_test_accuracy(capsys):
    started = time.perf_counter()
    d = gen_anchor(10_000, 0)
    test = held_out_subset(d)
    base_rate = float(training_subset(d).response.mean())
    accs = {}
    for name, pair in (("x3|x1", Pair(k=2, s=(0,))), ("x2|x1", Pair(k=1, s=(0,)))):
        model = fit_pair_model(d, pair, variant="linear")
        probs, degenerate = predict_pair(model, test.features)
        filled = np.where(degenerate, base_rate, probs)
        accs[name] = accuracy((filled >= 0.5).astype(np.int64), test.response)
    elapsed = time.perf_counter() - started
    gap = accs["x3|x1"] - accs["x2|x1"]
    ok = gap >= 0.10 and elapsed <= 30.0
    announce(
        capsys, 3, "invariant anchor pair beats the unstable one", ok,
        f"x3|x1 {accs['x3|x1']:.3f} vs x2|x1 {accs['x2|x1']:.3f}, "
        f"gap {gap:.3f} (need >= 0.10), {elapsed:.1f}s",
    )


def _benchmark_replicate(r):
    cfg = draw_benchmark_config(r, n_per_env=1000)
    d = gen_benchmark(cfg)
    test = held_out_subset(d)
    majority = int(training_subset(d).response.mean() >= 0.5)
    out = {"fallback": accuracy(np.full(test.n, majority, dtype=np.int64), test.response)}
    for variant in ("linear", "gam"):
        model = fit_bimp(d, variant=variant, max_subset_size=cfg.m - 1)
        out[variant] = (
            None if model.abstained
            else accuracy(predict_bimp(model, test.features).labels, test.response)
        )
    lr = fit_lr_baseline(d)
    out["lr"] = accuracy((predict(lr, test.features) >= 0.5).astype(np.int64), test.response)
    icp = fit_icp(d, max_subset_size=cfg.m - 1)
    out["icp"] = (
        None if icp.abstained
        else accuracy(predict_baseline(icp, test.features), test.response)
    )
    return out


@pytest.mark.slow
def test_benchmark_median_accuracy_ordering(capsys):
    started = time.perf_counter()
    rows = [_benchmark_replicate(r) for r in range(200)]
    elapsed = time.perf_counter() - started

    def median_of(key):
        vals = [r[key] for r in rows if r[key] is not None]
        return float(np.median(vals)) if vals else None

    linear, gam, lr = median_of("linear"), median_of("gam"), median_of("lr")
    # an abstaining ICP replicate is scored as the majority-class fallback
    icp_or = float(
        np.median([r["icp"] if r["icp"] is not None else r["fallback"] for r in rows])
    )
    ok = (
        linear is not None
        and gam is not None
        and linear > lr
        and linear > icp_or
        and linear >= gam - 0.02
        and elapsed <= 900.0
    )
    announce(
        capsys, 4, "benchmark medians over 200 replicates", ok,
        f"linear {linear:.4f} > lr {lr:.4f}, > icp-or-abstention {icp_or:.4f}, "
        f">= gam {gam:.4f} - 0.02, {elapsed:.0f}s",
    )


@pytest.mark.slow
def test_invariance_test_calibration_on_invariant_data(capsys):
    rejected = 0
    for seed in range(200):
        cfg = draw_benchmark_config(seed, n_per_env=1000)
        d = gen_benchmark(cfg)
        report = residual_distribution_test(d, Pair(k=0, s=tuple(range(1, cfg.m))), alpha=0.1)
        rejected += report.verdict == "rejected"
    rate = rejected / 200.0
    ok = rate <= 0.2
    announce(
        capsys, 5, "residual test calibration on invariant data", ok,
        f"rejection rate {rate:.3f} over 200 seeds at alpha 0.1 (need <= 0.2)",
    )


CENSUS_TARGETS = {
    # experiment -> (bimp-linear, bimp-gam, lr)
    "born-us": (85.0, 84.9, 78.2),
    "overtime": (68.4, 59.1, 77.0),
    "caucasian": (85.0, 85.2, 78.1),
}

MUSHROOM_TARGETS = {
    "meadows": (76.0, 87.5, 46.2),
    "paths": (88.1, 90.9, 11.8),
}


def load_table(path):
    rows = {}
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        for line in fh:
            rec = dict(zip(header, line.rstrip("\n").split(",")))
            acc = None if rec["accuracy"] == "" else float(rec["accuracy"]) * 100.0
            rows[(rec["experiment"], rec["method"])] = (acc, rec["abstained"] == "true")
    return rows


def test_census_orderings_and_targets(capsys, tmp_path):
    path = dataset_path("INVARBIN_CENSUS_PATH", "adult.data")
    if path is None:
        skip_with_line(
            capsys, 6, "census orderings",
            CENSUS_INSTRUCTIONS.format(path="adult.data")
            + "\nSet INVARBIN_CENSUS_PATH or place the file in the repo root.",
        )
    started = time.perf_counter()
    out = tmp_path / "table1"
    code = main(["reproduce", "table1", "--out", str(out), "--census-path", path])
    elapsed = time.perf_counter() - started
    assert code == 0
    table = load_table(out / "table1.csv")
    problems = []
    for exp, (t_lin, t_gam, t_lr) in CENSUS_TARGETS.items():
        lin, _ = table[(exp, "bimp-linear")]
        gam, _ = table[(exp, "bimp-gam")]
        lr, _ = table[(exp, "lr")]
        _, icp_abstained = table[(exp, "icp")]
        if not icp_abstained:
            problems.append(f"{exp}: icp did not abstain")
        for name, got, want in (("linear", lin, t_lin), ("gam", gam, t_gam), ("lr", lr, t_lr)):
            if got is None or abs(got - want) > 4.0:
                problems.append(f"{exp}/{name}: {got} vs target {want} (+-4)")
        if exp == "overtime":
            if not (lr > lin and lr > gam):
                problems.append(f"{exp}: lr {lr} should beat both ensemble variants")
        elif not (lin > lr):
            problems.append(f"{exp}: linear {lin} should beat lr {lr}")
    if elapsed > 600.0:
        problems.append(f"runtime {elapsed:.0f}s over 600s budget")
    announce(
        capsys, 6, "census orderings and targets",
        not problems, "; ".join(problems) or f"all three splits within +-4, {elapsed:.0f}s",
    )


def test_mushroom_orderings_and_targets(capsys, tmp_path):
    path = dataset_path("INVARBIN_MUSHROOM_PATH", "agaricus-lepiota.data")
    if path is None:
        skip_with_line(
            capsys, 7, "mushroom orderings",
            MUSHROOM_INSTRUCTIONS.format(path="agaricus-lepiota.data")
            + "\nSet INVARBIN_MUSHROOM_PATH or place the file in the repo root.",
        )
    out = tmp_path / "table2"
    code = main(["reproduce", "table2", "--out", str(out), "--mushroom-path", path])
    assert code == 0
    table = load_table(out / "table2.csv")
    problems = []
    for exp, (t_lin, t_gam, t_lr) in MUSHROOM_TARGETS.items():
        lin, _ = table[(exp, "bimp-linear")]
        gam, _ = table[(exp, "bimp-gam")]
        lr, _ = table[(exp, "lr")]
        if not (gam > lin > lr):
            problems.append(f"{exp}: want gam > linear > lr, got {gam}/{lin}/{lr}")
        for name, got, want in (("linear", lin, t_lin), ("gam", gam, t_gam), ("lr", lr, t_lr)):
            if got is None or abs(got - want) > 6.0:
                problems.append(f"{exp}/{name}: {got} vs target {want} (+-6)")
    announce(
        capsys, 7, "mushroom orderings and targets",
        not problems, "; ".join(problems) or "both habitats within +-6",
    )


def t_density(x, df):
    log_num = math.lgamma((df + 1.0) / 2.0)
    log_den = math.lgamma(df / 2.0) + 0.5 * math.log(df * math.pi)
    return math.exp(log_num - log_den) * (1.0 + x * x / df) ** (-(df + 1.0) / 2.0)


def test_unit_level_numeric_oracles(capsys):
    rng = np.random.default_rng(11)
    worst_ols = 0.0
    for _ in range(25):
        n, p = int(rng.integers(12, 60)), int(rng.integers(1, 6))
        X = rng.standard_normal((n, p))
        y = rng.standard_normal(n)
        model = fit_ols(X, y)
        Z = np.column_stack([np.ones(n), X])
        ref = np.linalg.solve(Z.T @ Z, Z.T @ y)
        worst_ols = max(worst_ols, float(np.max(np.abs(np.asarray(model.coef) - ref))))

    worst_p = 0.0
    for seed in range(10):
        r = np.random.default_rng(seed)
        a = r.standard_normal(int(r.integers(8, 40))) + 0.3
        b = 1.4 * r.standard_normal(int(r.integers(8, 40)))
        res = welch_t_test(a, b)
        tail, _ = scipy.integrate.quad(
            t_density, abs(res.t_statistic), np.inf,
            args=(res.degrees_of_freedom,), limit=200,
        )
        worst_p = max(worst_p, abs(res.p_value - 2.0 * tail))

    cdf_exact = normal_cdf(0.0) == 0.5
    bonf_exact = (
        bonferroni_combine([0.01, 0.2, 0.5]) == 0.03
        and bonferroni_combine([0.4, 0.6]) == 0.8
        and bonferroni_combine([0.9, 0.8]) == 1.0
    )
    ok = worst_ols <= 1e-8 and worst_p <= 1e-6 and cdf_exact and bonf_exact
    announce(
        capsys, 8, "numeric oracles", ok,
        f"ols vs normal equations {worst_ols:.1e} (<= 1e-8), "
        f"t-test p vs quadrature {worst_p:.1e} (<= 1e-6), "
        f"normal_cdf(0)==0.5 {cdf_exact}, bonferroni exact {bonf_exact}",
    )


def test_rerun_outputs_are_byte_identical(capsys, tmp_path):
    data_dir = tmp_path / "data"
    assert main(["simulate", "--out", str(data_dir), "--seed", "7", "--replicates", "1",
                 "--m", "3", "--n-per-env", "120"]) == 0
    data_files = [str(data_dir / f"rep000_{label}.csv") for label in ("env1", "env2", "test")]
    commands = {
        "simulate": ["simulate", "--seed", "7", "--replicates", "2", "--m", "4",
                     "--n-per-env", "60"],
        "fit-predict": ["fit-predict", "--data", *data_files,
                        "--methods", "bimp-linear,bimp-gam,lr,icp", "--max-subset-size", "2"],
        "fig1": ["reproduce", "fig1", "--n-per-env", "1500", "--svg"],
    }
    compared = 0
    mismatched = []
    for name, argv in commands.items():
        first, second = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        tree_a, tree_b = read_tree(str(first)), read_tree(str(second))
        compared += len(tree_a)
        if tree_a != tree_b:
            mismatched.append(name)
    ok = not mismatched and compared > 0
    announce(
        capsys, 9, "rerun determinism", ok,
        f"{compared} files byte-compared across {len(commands)} commands"
        + (f"; mismatches in {mismatched}" if mismatched else ""),
    )
