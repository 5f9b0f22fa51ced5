"""Command-line interface: simulate, fit-predict, reproduce.

All outputs are CSV/JSON (plus optional static SVG) written with fixed
field ordering, repr-formatted floats and newline line endings, so rerunning
a command with the same configuration and seed produces byte-identical
files.  Wall-clock columns are written as 0.0 unless --timing is passed,
keeping the default outputs reproducible.

Exit codes: 0 success, 1 validation or data error, 2 I/O or usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import asdict, astuple, fields

import numpy as np

from . import __version__
from .baselines import fit_icp, fit_lr_baseline
from .bimp import (
    VARIANT_LINEAR,
    bimp_to_dict,
    fit_bimp,
    fit_pair_model,
    predict_bimp,
    predict_pair,
)
from .data import (
    EncodingSpec,
    MultiEnvDataset,
    encode_table,
    sniff_table,
    test_subset,
    training_subset,
    _read_csv,
)
from .errors import InvarbinError, ValidationError
from .evaluation import MethodAggregate, RunSummary, accuracy, aggregate_replicates, mse
from .invariance import SCOPE_ENV, SCOPE_ENV_AND_CLASS, Pair, report_to_dict
from .regression import predict
from .simgen import draw_benchmark_config, gen_anchor, gen_benchmark

METHODS = ("bimp-linear", "bimp-gam", "lr", "icp")

CENSUS_COLUMNS = (
    "age",
    "workclass",
    "fnlwgt",
    "education",
    "education-num",
    "marital-status",
    "occupation",
    "relationship",
    "race",
    "sex",
    "capital-gain",
    "capital-loss",
    "hours-per-week",
    "native-country",
    "income",
)

MUSHROOM_COLUMNS = (
    "class",
    "cap-shape",
    "cap-surface",
    "cap-color",
    "bruises",
    "odor",
    "gill-attachment",
    "gill-spacing",
    "gill-size",
    "gill-color",
    "stalk-shape",
    "stalk-root",
    "stalk-surface-above-ring",
    "stalk-surface-below-ring",
    "stalk-color-above-ring",
    "stalk-color-below-ring",
    "veil-type",
    "veil-color",
    "ring-number",
    "ring-type",
    "spore-print-color",
    "population",
    "habitat",
)

CENSUS_INSTRUCTIONS = (
    "census file not found at {path!r}.\n"
    "Download 'adult.data' from the UCI Adult dataset\n"
    "(https://archive.ics.uci.edu/dataset/2/adult) and pass its location\n"
    "with --census-path."
)

MUSHROOM_INSTRUCTIONS = (
    "mushroom file not found at {path!r}.\n"
    "Download 'agaricus-lepiota.data' from the UCI Mushroom dataset\n"
    "(https://archive.ics.uci.edu/dataset/73/mushroom) and pass its location\n"
    "with --mushroom-path."
)


# -- deterministic writers ----------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_records(path: str, cls, records) -> None:
    """One row per dataclass instance, with the class's fields as the header."""
    _write_csv(path, [f.name for f in fields(cls)], [astuple(r) for r in records])


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _svg_header(width: int, height: int) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]


def _write_scatter_svg(path: str, series: list[tuple[str, str, np.ndarray, np.ndarray]]) -> None:
    """Scatter of (label, color, x, y) series on shared axes."""
    width, height, margin = 640, 420, 50
    xs = np.concatenate([s[2] for s in series])
    lo, hi = float(xs.min()), float(xs.max())
    span = hi - lo or 1.0

    def px(x: float) -> float:
        return margin + (x - lo) / span * (width - 2 * margin)

    def py(y: float) -> float:
        return height - margin - y * (height - 2 * margin)

    parts = _svg_header(width, height)
    parts.append(
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>'
    )
    for i, (label, color, x, y) in enumerate(series):
        for xi, yi in zip(x, y):
            parts.append(
                f'<circle cx="{px(float(xi)):.2f}" cy="{py(float(yi)):.2f}" r="2" '
                f'fill="{color}" fill-opacity="0.5"/>'
            )
        parts.append(
            f'<text x="{margin + 10}" y="{margin + 16 * (i + 1)}" fill="{color}" '
            f'font-size="13">{label}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def _write_box_svg(path: str, boxes: list[tuple[str, list[float]]]) -> None:
    """One box (min, q1, median, q3, max) per labeled group of values."""
    width, height, margin = 640, 420, 50
    parts = _svg_header(width, height)

    def py(y: float) -> float:
        return height - margin - y * (height - 2 * margin)

    parts.append(
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>'
    )
    for grid in (0.0, 0.25, 0.5, 0.75, 1.0):
        parts.append(
            f'<line x1="{margin - 4}" y1="{py(grid):.2f}" x2="{margin}" '
            f'y2="{py(grid):.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{margin - 40}" y="{py(grid) + 4:.2f}" font-size="11">{grid:.2f}</text>'
        )
    slot = (width - 2 * margin) / max(1, len(boxes))
    for i, (label, values) in enumerate(boxes):
        cx = margin + slot * (i + 0.5)
        if values:
            arr = np.asarray(values, dtype=float)
            vmin, q1, med, q3, vmax = (
                float(arr.min()),
                *(float(q) for q in np.percentile(arr, [25.0, 50.0, 75.0])),
                float(arr.max()),
            )
            half = min(30.0, slot * 0.3)
            parts.append(
                f'<line x1="{cx:.2f}" y1="{py(vmin):.2f}" x2="{cx:.2f}" '
                f'y2="{py(vmax):.2f}" stroke="black"/>'
            )
            parts.append(
                f'<rect x="{cx - half:.2f}" y="{py(q3):.2f}" width="{2 * half:.2f}" '
                f'height="{py(q1) - py(q3):.2f}" fill="steelblue" fill-opacity="0.6" '
                f'stroke="black"/>'
            )
            parts.append(
                f'<line x1="{cx - half:.2f}" y1="{py(med):.2f}" x2="{cx + half:.2f}" '
                f'y2="{py(med):.2f}" stroke="black" stroke-width="2"/>'
            )
        else:
            parts.append(
                f'<text x="{cx - 20:.2f}" y="{py(0.5):.2f}" font-size="11">abstained</text>'
            )
        parts.append(
            f'<text x="{cx - 28:.2f}" y="{height - margin + 18}" font-size="12">{label}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


# -- shared method runner -----------------------------------------------------


def _resolve_methods(raw: str) -> list[str]:
    out = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        if token not in METHODS:
            raise ValidationError(f"unknown method {token!r}; choose from {METHODS}")
        if token not in out:
            out.append(token)
    if not out:
        raise ValidationError("no methods requested")
    return out


def _run_method(
    method: str, d: MultiEnvDataset, args, cap=None, replicate: int = 0
) -> tuple[object, np.ndarray | None, np.ndarray | None, RunSummary]:
    """Fit one method, predict the test environment, score the predictions.

    Returns ``(model, probs, fallback, summary)``.  ``probs`` is None when
    the method abstained; ``fallback`` flags bimp's base-rate rows and is
    None for the baselines.  Labels are ``probs >= 0.5``, ties to class 1.
    ``cap`` bounds the conditioning sets when ``--max-subset-size`` is unset.
    """
    cap = cap if args.max_subset_size is None else args.max_subset_size
    test = test_subset(d)
    started = time.perf_counter()
    probs = fallback = None
    n_pairs = 0
    if method == "lr":
        model = fit_lr_baseline(d)
        probs = predict(model, test.features)
    elif method == "icp":
        model = fit_icp(d, alpha=args.alpha, max_subset_size=cap)
        if not model.abstained:
            probs = predict(model.model, test.features[:, list(model.intersection)])
    else:
        model = fit_bimp(
            d,
            alpha=args.alpha,
            variant=method.split("-", 1)[1],
            max_subset_size=cap,
            tau=args.tau,
            eps_den=args.eps_den,
            bonferroni_scope=args.bonferroni_scope,
        )
        n_pairs = len(model.pair_models)
        if not model.abstained:
            prediction = predict_bimp(model, test.features)
            probs, fallback = prediction.probabilities, prediction.fallback
    elapsed = time.perf_counter() - started

    acc = err = None
    if probs is not None:
        acc = accuracy((probs >= 0.5).astype(np.int64), test.response)
        err = mse(probs, test.response)
    summary = RunSummary(
        method=method,
        replicate=replicate,
        accuracy=acc,
        mse=err,
        abstained=probs is None,
        n_pairs=n_pairs,
        seconds=elapsed if args.timing else 0.0,
    )
    return model, probs, fallback, summary


def _write_predictions(path: str, probs, fallback) -> None:
    """One row per test row, none when the method abstained."""
    probs = () if probs is None else probs
    flags = np.zeros(len(probs), dtype=bool) if fallback is None else fallback
    rows = [[i, p, int(p >= 0.5), bool(f)] for i, (p, f) in enumerate(zip(probs, flags))]
    _write_csv(path, ["row", "prob", "label", "fallback"], rows)


# -- simulate -----------------------------------------------------------------


def _write_env_csvs(d: MultiEnvDataset, out: str, prefix: str) -> list[str]:
    names = list(d.column_names)
    written = []
    for env in d.environments:
        mask = d.rows_in(env.label)
        rows = []
        for x_row, y in zip(d.features[mask], d.response[mask]):
            rows.append([env.label, int(y), *[float(v) for v in x_row]])
        path = os.path.join(out, f"{prefix}_{env.label}.csv")
        _write_csv(path, ["env", "y", *names], rows)
        written.append(path)
    return written


def cmd_simulate(args) -> int:
    if args.replicates < 1:
        raise ValidationError(f"--replicates must be at least 1, got {args.replicates}")
    for r in range(args.replicates):
        cfg = draw_benchmark_config(args.seed + r, m=args.m, n_per_env=args.n_per_env)
        d = gen_benchmark(cfg)
        os.makedirs(args.out, exist_ok=True)
        prefix = f"rep{r:03d}"
        files = _write_env_csvs(d, args.out, prefix)
        manifest = {
            "replicate": r,
            "config": asdict(cfg),
            "files": [os.path.basename(f) for f in files],
            "columns": list(d.column_names),
        }
        _write_json(os.path.join(args.out, f"{prefix}_manifest.json"), manifest)
    print(f"wrote {args.replicates} replicate(s) to {args.out}")
    return 0


# -- fit-predict ---------------------------------------------------------------


def _load_datafiles(paths: list[str], args) -> MultiEnvDataset:
    header = None
    merged: list[tuple[int | str, list[str]]] = []
    for path in paths:
        file_header, rows = _read_csv(path)
        if header is None:
            header = file_header
        elif file_header != header:
            raise ValidationError(f"{path}: header differs from {paths[0]}")
        if len(paths) > 1:
            # a refusal names the row's line as given: "line 3 of b.csv"
            rows = [(f"{line} of {path}", row) for line, row in rows]
        merged.extend(rows)
    if args.schema:
        with open(args.schema, encoding="utf-8") as fh:
            spec = EncodingSpec.from_json(fh.read())
    else:
        spec = sniff_table(
            header,
            merged,
            env_column=args.env_column,
            response_column=args.response_column,
            test_env=args.test_env,
        )
    return encode_table(header, merged, spec)


def cmd_fit_predict(args) -> int:
    methods = _resolve_methods(args.methods)
    d = _load_datafiles(args.data, args)
    runs = [_run_method(method, d, args) for method in methods]
    os.makedirs(args.out, exist_ok=True)
    for method, (model, probs, fallback, summary) in zip(methods, runs):
        _write_predictions(os.path.join(args.out, f"predictions_{method}.csv"), probs, fallback)
        if method.startswith("bimp-"):
            _write_json(
                os.path.join(args.out, f"ensemble_{method}.json"),
                bimp_to_dict(model, d.column_names),
            )
            _write_json(
                os.path.join(args.out, f"reports_{method}.json"),
                [report_to_dict(r) for r in model.reports],
            )
        status = "abstained" if summary.abstained else f"acc={summary.accuracy:.4f}"
        print(f"{method}: {status}")
    _write_records(os.path.join(args.out, "summary.csv"), RunSummary, [run[-1] for run in runs])
    return 0


# -- reproduce: simulated figures ----------------------------------------------


def cmd_reproduce_fig1(args) -> int:
    d = gen_anchor(args.n_per_env, args.seed)
    test = test_subset(d)
    base_rate = float(training_subset(d).response.mean())
    pair_probs = {}
    rows_acc = []
    for name, pair in (("x3|x1", Pair(k=2, s=(0,))), ("x2|x1", Pair(k=1, s=(0,)))):
        model = fit_pair_model(d, pair, variant=VARIANT_LINEAR, eps_den=args.eps_den)
        probs, degenerate = predict_pair(model, test.features)
        filled = np.where(degenerate, base_rate, probs)
        labels = (filled >= 0.5).astype(np.int64)
        pair_probs[name] = filled
        rows_acc.append([name, accuracy(labels, test.response)])
    sample_rows = []
    for i in range(test.n):
        sample_rows.append(
            [
                *[float(v) for v in test.features[i]],
                int(test.response[i]),
                pair_probs["x3|x1"][i],
                pair_probs["x2|x1"][i],
            ]
        )
    os.makedirs(args.out, exist_ok=True)
    _write_csv(
        os.path.join(args.out, "fig1_samples.csv"),
        ["x1", "x2", "x3", "y", "prob_x3_x1", "prob_x2_x1"],
        sample_rows,
    )
    _write_csv(os.path.join(args.out, "fig1_accuracy.csv"), ["pair", "accuracy"], rows_acc)
    if args.svg:
        keep = slice(0, min(300, test.n))
        x1 = test.features[keep, 0]
        _write_scatter_svg(
            os.path.join(args.out, "fig1.svg"),
            [
                ("pair (x3, {x1})", "steelblue", x1, pair_probs["x3|x1"][keep]),
                ("pair (x2, {x1})", "firebrick", x1, pair_probs["x2|x1"][keep]),
            ],
        )
    for name, acc in rows_acc:
        print(f"pair {name}: accuracy {acc:.4f}")
    return 0


def cmd_reproduce_fig2(args) -> int:
    if args.replicates < 1:
        raise ValidationError(f"--replicates must be at least 1, got {args.replicates}")
    summaries = []
    for r in range(args.replicates):
        cfg = draw_benchmark_config(args.seed + r, n_per_env=args.n_per_env)
        d = gen_benchmark(cfg)
        summaries.extend(
            _run_method(method, d, args, cap=cfg.m - 1, replicate=r)[-1]
            for method in METHODS
        )
    os.makedirs(args.out, exist_ok=True)
    _write_records(os.path.join(args.out, "fig2_replicates.csv"), RunSummary, summaries)
    aggregates = aggregate_replicates(summaries)
    _write_records(os.path.join(args.out, "fig2_summary.csv"), MethodAggregate, aggregates)
    if args.svg:
        boxes = []
        for method in METHODS:
            values = [s.accuracy for s in summaries if s.method == method and not s.abstained]
            boxes.append((method, values))
        _write_box_svg(os.path.join(args.out, "fig2.svg"), boxes)
    for a in aggregates:
        med = "abstained" if a.acc_median is None else f"median acc {a.acc_median:.4f}"
        print(f"{a.method}: {med} (abstention rate {a.abstention_rate:.2f})")
    return 0


# -- reproduce: real data --------------------------------------------------------


def _read_raw_table(path: str, columns: tuple[str, ...], instructions: str):
    if not os.path.exists(path):
        raise FileNotFoundError(instructions.format(path=path))
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = []
        for i, row in enumerate(reader, start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(columns):
                raise ValidationError(
                    f"{path}:{i}: expected {len(columns)} fields, found {len(row)}"
                )
            rows.append((i, [c.strip() for c in row]))
    return rows


def _census_experiments():
    return (
        ("born-us", "native-country", lambda v: v == "United-States"),
        ("overtime", "hours-per-week", lambda v: float(v) > 40.0),
        ("caucasian", "race", lambda v: v == "White"),
    )


def _derived_dataset(columns: tuple[str, ...], derived, **sniff) -> MultiEnvDataset:
    """Encode raw rows whose extra last cell names the environment ("test" is held out)."""
    header = [*columns, "__env__"]
    spec = sniff_table(header, derived, env_column="__env__", test_env="test", **sniff)
    return encode_table(header, derived, spec)


def _check_census_numbers(path: str, rows) -> None:
    """Refuse a complete row (no "?" cell) whose numeric census cells are not finite numbers."""
    for line_no, cells in rows:
        if "?" in cells:
            continue
        for column in ("education-num", "hours-per-week"):
            value = cells[CENSUS_COLUMNS.index(column)]
            try:
                number = float(value)
            except ValueError:
                raise ValidationError(
                    f"{path}:{line_no}: {column} is not numeric: {value!r}"
                ) from None
            if not math.isfinite(number):
                raise ValidationError(f"{path}:{line_no}: {column} is not finite: {value!r}")


def _census_dataset(rows, split_column: str, predicate) -> MultiEnvDataset:
    """Rows with any missing cell are dropped; higher education forms the test env."""
    pos = {c: i for i, c in enumerate(CENSUS_COLUMNS)}
    derived = []
    for line_no, cells in rows:
        if "?" in cells:
            continue
        if float(cells[pos["education-num"]]) >= 13.0:
            env = "test"
        else:
            env = "env_yes" if predicate(cells[pos[split_column]]) else "env_no"
        derived.append((line_no, cells + [env]))
    return _derived_dataset(
        CENSUS_COLUMNS,
        derived,
        response_column="income",
        response_map={">50K": 1, "<=50K": 0, ">50K.": 1, "<=50K.": 0},
        exclude=("income", "education", "education-num", split_column),
    )


def _run_table(args, path: str, experiments) -> int:
    """Every method on each (experiment name, dataset) pair; one CSV row each."""
    table_rows = []
    for name, d in experiments:
        for method in METHODS:
            s = _run_method(method, d, args)[-1]
            table_rows.append([name, method, s.accuracy, s.abstained, s.n_pairs])
            shown = "abstained" if s.abstained else f"{s.accuracy:.4f}"
            print(f"{name} / {method}: {shown}")
    os.makedirs(args.out, exist_ok=True)
    _write_csv(path, ["experiment", "method", "accuracy", "abstained", "n_pairs"], table_rows)
    return 0


def cmd_reproduce_table1(args) -> int:
    rows = _read_raw_table(args.census_path, CENSUS_COLUMNS, CENSUS_INSTRUCTIONS)
    _check_census_numbers(args.census_path, rows)
    experiments = (
        (name, _census_dataset(rows, split_column, predicate))
        for name, split_column, predicate in _census_experiments()
    )
    return _run_table(args, os.path.join(args.out, "table1.csv"), experiments)


def _mushroom_dataset(rows, test_habitat: str) -> MultiEnvDataset:
    """Habitats form the environments; anything outside the three is dropped."""
    pos = {c: i for i, c in enumerate(MUSHROOM_COLUMNS)}
    env_of_habitat = {"g": "grasses", "u": "urban", test_habitat: "test"}
    derived = []
    for line_no, cells in rows:
        env = env_of_habitat.get(cells[pos["habitat"]])
        if env is None:
            continue
        derived.append((line_no, cells + [env]))
    return _derived_dataset(
        MUSHROOM_COLUMNS,
        derived,
        response_column="class",
        response_map={"e": 1, "p": 0},
        exclude=("class", "habitat", "veil-type", "stalk-root"),
    )


def cmd_reproduce_table2(args) -> int:
    rows = _read_raw_table(args.mushroom_path, MUSHROOM_COLUMNS, MUSHROOM_INSTRUCTIONS)
    experiments = (
        (name, _mushroom_dataset(rows, habitat))
        for name, habitat in (("meadows", "m"), ("paths", "p"))
    )
    return _run_table(args, os.path.join(args.out, "table2.csv"), experiments)


# -- argument parsing -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invarbin",
        description="Binary classification in an unseen environment via invariant matching pairs.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")

    # Flag groups shared between commands, attached as argparse parents.
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", required=True, help="output directory")
    eps_den = argparse.ArgumentParser(add_help=False)
    eps_den.add_argument(
        "--eps-den",
        type=float,
        default=1e-6,
        help="relative degeneracy tolerance for the ratio denominator (default 1e-6)",
    )
    model = argparse.ArgumentParser(add_help=False, parents=[eps_den])
    model.add_argument("--alpha", type=float, default=0.1, help="test level (default 0.1)")
    model.add_argument(
        "--max-subset-size",
        type=int,
        default=None,
        help="cap on conditioning-set size in groups (default: min(3, available); fig2: m - 1)",
    )
    model.add_argument("--tau", type=float, default=0.1, help="score-filter slack (default 0.1)")
    model.add_argument(
        "--bonferroni-scope",
        choices=(SCOPE_ENV, SCOPE_ENV_AND_CLASS),
        default=SCOPE_ENV,
        help="multiplicity correction scope (default: env)",
    )
    model.add_argument("--timing", action="store_true", help="record wall-clock seconds in outputs")

    sub = parser.add_subparsers(dest="command", required=True)
    p_sim = sub.add_parser(
        "simulate", parents=[out], help="write benchmark replicates as CSV + manifest"
    )
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--replicates", type=int, default=1)
    p_sim.add_argument("--m", type=int, default=None, help="feature count (default: drawn in 3..7)")
    p_sim.add_argument("--n-per-env", type=int, default=1000)
    p_sim.set_defaults(func=cmd_simulate)

    p_fit = sub.add_parser(
        "fit-predict", parents=[out, model], help="fit methods on CSV data and predict the test env"
    )
    p_fit.add_argument("--data", nargs="+", required=True, help="input CSV file(s)")
    p_fit.add_argument("--schema", default=None, help="EncodingSpec JSON (default: sniff)")
    p_fit.add_argument("--env-column", default="env")
    p_fit.add_argument("--response-column", default="y")
    p_fit.add_argument("--test-env", default="test", help="environment label with the test role")
    p_fit.add_argument(
        "--methods", default="bimp-linear", help=f"comma-separated subset of {','.join(METHODS)}"
    )
    p_fit.set_defaults(func=cmd_fit_predict)

    p_rep = sub.add_parser("reproduce", help="rebuild the reference figures and tables")
    targets = p_rep.add_subparsers(dest="target", required=True, help="artifact to reproduce")
    p_fig1 = targets.add_parser("fig1", parents=[out, eps_den], help="the two anchor pairs")
    p_fig1.add_argument("--seed", type=int, default=0)
    p_fig1.add_argument("--n-per-env", type=int, default=10_000)
    p_fig1.add_argument("--svg", action="store_true", help="also write a static SVG")
    p_fig1.set_defaults(func=cmd_reproduce_fig1)

    p_fig2 = targets.add_parser("fig2", parents=[out, model], help="the synthetic benchmark")
    p_fig2.add_argument("--seed", type=int, default=0)
    p_fig2.add_argument("--replicates", type=int, default=200)
    p_fig2.add_argument("--n-per-env", type=int, default=1000)
    p_fig2.add_argument("--svg", action="store_true", help="also write a static SVG")
    p_fig2.set_defaults(func=cmd_reproduce_fig2)

    p_t1 = targets.add_parser("table1", parents=[out, model], help="the census experiments")
    p_t1.add_argument("--census-path", default="adult.data")
    p_t1.set_defaults(func=cmd_reproduce_table1)

    p_t2 = targets.add_parser("table2", parents=[out, model], help="the mushroom experiments")
    p_t2.add_argument("--mushroom-path", default="agaricus-lepiota.data")
    p_t2.set_defaults(func=cmd_reproduce_table2)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvarbinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
