import csv
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from invarbin import (
    cli,
    encode_table,
    fit_bimp,
    fit_icp,
    fit_lr_baseline,
    predict,
    predict_bimp,
    sniff_table,
)
from invarbin import test_subset as held_out_subset
from invarbin.cli import main
from invarbin.data import _read_csv
from test_baselines import stable_predictor_dataset


def read_tree(root: str) -> dict[str, bytes]:
    out = {}
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def test_simulate_writes_replicates_and_manifest(tmp_path):
    out = tmp_path / "sim"
    code = main(
        ["simulate", "--out", str(out), "--seed", "3", "--replicates", "2", "--m", "3",
         "--n-per-env", "50"]
    )
    assert code == 0
    names = sorted(os.listdir(out))
    assert names == [
        "rep000_env1.csv",
        "rep000_env2.csv",
        "rep000_manifest.json",
        "rep000_test.csv",
        "rep001_env1.csv",
        "rep001_env2.csv",
        "rep001_manifest.json",
        "rep001_test.csv",
    ]
    manifest = json.loads((out / "rep000_manifest.json").read_text())
    assert manifest["config"]["m"] == 3
    assert manifest["columns"] == ["x1", "x2", "x3"]
    header = (out / "rep000_env1.csv").read_text().splitlines()[0]
    assert header == "env,y,x1,x2,x3"


def test_simulate_rerun_is_byte_identical(tmp_path):
    args = ["simulate", "--seed", "5", "--replicates", "1", "--m", "4", "--n-per-env", "40"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert read_tree(str(a)) == read_tree(str(b))


@pytest.fixture()
def simulated(tmp_path):
    out = tmp_path / "data"
    main(["simulate", "--out", str(out), "--seed", "1", "--m", "3", "--n-per-env", "150"])
    return [
        str(out / "rep000_env1.csv"),
        str(out / "rep000_env2.csv"),
        str(out / "rep000_test.csv"),
    ]


def test_fit_predict_end_to_end(simulated, tmp_path, capsys):
    out = tmp_path / "run"
    code = main(
        [
            "fit-predict",
            "--data", *simulated,
            "--out", str(out),
            "--methods", "bimp-linear,lr,icp",
            "--max-subset-size", "2",
        ]
    )
    assert code == 0
    files = set(os.listdir(out))
    assert {"summary.csv", "predictions_bimp-linear.csv", "predictions_lr.csv",
            "predictions_icp.csv", "ensemble_bimp-linear.json",
            "reports_bimp-linear.json"} <= files
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0] == "method,replicate,accuracy,mse,abstained,n_pairs,seconds"
    assert len(summary) == 4
    # wall clock is zeroed without --timing so reruns stay byte-identical
    assert all(line.endswith(",0.0") for line in summary[1:])
    ensemble = json.loads((out / "ensemble_bimp-linear.json").read_text())
    assert ensemble["variant"] == "linear"
    shown = capsys.readouterr().out
    assert "bimp-linear" in shown


def test_fit_predict_rerun_is_byte_identical(simulated, tmp_path):
    args = [
        "fit-predict", "--data", *simulated, "--methods", "bimp-linear,bimp-gam",
        "--max-subset-size", "2",
    ]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert read_tree(str(a)) == read_tree(str(b))


def read_rows(paths):
    """The header and the numbered rows of these files, as fit-predict merges them."""
    rows = []
    for path in paths:
        header, file_rows = _read_csv(path)
        rows += file_rows
    return header, rows


def sniffed_spec(paths, test_env="test"):
    """The spec fit-predict sniffs from these files when given no --schema."""
    header, rows = read_rows(paths)
    return sniff_table(header, rows, env_column="env", response_column="y", test_env=test_env)


def test_fit_predict_with_the_sniffed_schema_is_byte_identical(simulated, tmp_path, capsys):
    schema = tmp_path / "schema.json"
    schema.write_text(sniffed_spec(simulated).to_json(), encoding="utf-8")
    args = ["fit-predict", "--data", *simulated, "--methods", ",".join(cli.METHODS),
            "--max-subset-size", "2"]
    assert main(args + ["--out", str(tmp_path / "sniffed")]) == 0
    sniffed_stdout = capsys.readouterr().out
    assert main(args + ["--out", str(tmp_path / "given"), "--schema", str(schema)]) == 0
    assert capsys.readouterr().out == sniffed_stdout
    files = read_tree(str(tmp_path / "given"))
    assert len(files) == 1 + 4 + 2 * 2  # summary, predictions, bimp ensembles and reports
    assert files == read_tree(str(tmp_path / "sniffed"))


def test_fit_predict_schema_with_an_unknown_kind_exits_one(simulated, tmp_path, capsys):
    payload = json.loads(sniffed_spec(simulated).to_json())
    payload["kinds"]["x1"] = "ordinal"
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps(payload), encoding="utf-8")
    code = main(["fit-predict", "--data", *simulated, "--out", str(tmp_path / "o"),
                 "--schema", str(schema)])
    assert code == 1
    assert "unknown kind 'ordinal'" in capsys.readouterr().err


def test_fit_predict_bimp_gam_writes_its_predictions(simulated, tmp_path):
    out = tmp_path / "run"
    code = main(
        ["fit-predict", "--data", *simulated, "--out", str(out),
         "--methods", "bimp-gam", "--max-subset-size", "2"]
    )
    assert code == 0
    assert "predictions_bimp-gam.csv" in os.listdir(out)


def library_predictions(d, alpha):
    """Each method's (probabilities, fallback flags) on the test rows; None if it abstained."""
    X = held_out_subset(d).features
    no_fallback = np.zeros(len(X), dtype=bool)
    out = {"lr": (predict(fit_lr_baseline(d), X), no_fallback), "icp": None}
    icp = fit_icp(d, alpha=alpha)
    if not icp.abstained:
        out["icp"] = (predict(icp.model, X[:, list(icp.intersection)]), no_fallback)
    for variant in ("linear", "gam"):
        model = fit_bimp(d, alpha=alpha, variant=variant)
        out[f"bimp-{variant}"] = None
        if not model.abstained:
            prediction = predict_bimp(model, X)
            out[f"bimp-{variant}"] = (prediction.probabilities, prediction.fallback)
    return out


def test_fit_predict_writes_the_library_predictions(tmp_path):
    # both bimp variants abstain on the two-column stable-predictor data, so a
    # simulated replicate, where all four methods predict, carries their rows
    stable = tmp_path / "stable.csv"
    d = stable_predictor_dataset()
    with open(stable, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["env", "y", *d.column_names])
        for env, y, x in zip(d.env_of, d.response, d.features):
            writer.writerow([env, int(y), *(repr(float(v)) for v in x)])
    sim = tmp_path / "sim"
    assert main(["simulate", "--out", str(sim), "--seed", "4", "--m", "3",
                 "--n-per-env", "200"]) == 0
    simulated = sorted(str(p) for p in sim.glob("rep000_*.csv"))
    predicted = set()
    for name, paths, test_env in (("stable", [str(stable)], "t"), ("sim", simulated, "test")):
        out = tmp_path / f"run-{name}"
        assert main(["fit-predict", "--data", *paths, "--test-env", test_env, "--alpha", "0.05",
                     "--methods", ",".join(cli.METHODS), "--out", str(out)]) == 0
        d = encode_table(*read_rows(paths), sniffed_spec(paths, test_env))
        for method, expected in library_predictions(d, alpha=0.05).items():
            with open(out / f"predictions_{method}.csv", newline="", encoding="utf-8") as fh:
                header, *rows = list(csv.reader(fh))
            assert header == ["row", "prob", "label", "fallback"]
            if expected is None:
                assert rows == [], (name, method)
                continue
            predicted.add(method)
            probs, fallback = expected
            assert [row[0] for row in rows] == [str(i) for i in range(len(probs))]
            assert [row[1] for row in rows] == [repr(float(p)) for p in probs], (name, method)
            assert all(label == str(int(float(p) >= 0.5)) for _, p, label, _ in rows)
            assert [row[3] for row in rows] == ["true" if f else "false" for f in fallback]
    assert predicted == set(cli.METHODS)


def test_fit_predict_unknown_method_exits_one(simulated, tmp_path, capsys):
    code = main(
        ["fit-predict", "--data", *simulated, "--out", str(tmp_path / "x"),
         "--methods", "forest"]
    )
    assert code == 1
    assert "unknown method" in capsys.readouterr().err


def test_fit_predict_missing_data_exits_two(tmp_path, capsys):
    code = main(
        ["fit-predict", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "y")]
    )
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_fit_predict_mismatched_headers_exit_one(simulated, tmp_path, capsys):
    crooked = tmp_path / "other.csv"
    crooked.write_text("env,y,a,b,c\n", encoding="utf-8")
    code = main(
        ["fit-predict", "--data", simulated[0], str(crooked), "--out", str(tmp_path / "z")]
    )
    assert code == 1
    assert "header" in capsys.readouterr().err


def test_fit_predict_blank_test_responses_exit_one(simulated, tmp_path, capsys):
    # test rows need their labels: they are read only for scoring, but a
    # blank cell is a third response value
    test_csv = tmp_path / "blank_test.csv"
    with open(simulated[2], newline="", encoding="utf-8") as src:
        rows = list(csv.reader(src))
    with open(test_csv, "w", newline="", encoding="utf-8") as dst:
        csv.writer(dst).writerows([rows[0], *([env, "", *x] for env, _, *x in rows[1:])])
    code = main(
        ["fit-predict", "--data", *simulated[:2], str(test_csv), "--out", str(tmp_path / "b")]
    )
    assert code == 1
    assert "response column 'y'" in capsys.readouterr().err


def test_reproduce_fig1(tmp_path, capsys):
    out = tmp_path / "fig1"
    code = main(
        ["reproduce", "fig1", "--out", str(out), "--n-per-env", "400", "--svg"]
    )
    assert code == 0
    files = set(os.listdir(out))
    assert files == {"fig1_samples.csv", "fig1_accuracy.csv", "fig1.svg"}
    accuracy_rows = (out / "fig1_accuracy.csv").read_text().splitlines()
    assert accuracy_rows[0] == "pair,accuracy"
    assert accuracy_rows[1].startswith("x3|x1,")
    assert accuracy_rows[2].startswith("x2|x1,")
    svg = (out / "fig1.svg").read_text()
    assert svg.startswith("<svg")
    assert "pair (x3, {x1})" in svg
    shown = capsys.readouterr().out
    assert "pair x3|x1" in shown


def test_reproduce_fig1_zero_rows_exit_one(tmp_path, capsys):
    code = main(["reproduce", "fig1", "--out", str(tmp_path / "f"), "--n-per-env", "0"])
    assert code == 1
    assert "n_per_env must be positive" in capsys.readouterr().err


def test_reproduce_fig2_small(tmp_path):
    out = tmp_path / "fig2"
    code = main(
        ["reproduce", "fig2", "--out", str(out), "--replicates", "2",
         "--n-per-env", "300", "--svg"]
    )
    assert code == 0
    files = set(os.listdir(out))
    assert files == {"fig2_replicates.csv", "fig2_summary.csv", "fig2.svg"}
    rows = (out / "fig2_replicates.csv").read_text().splitlines()
    assert len(rows) == 1 + 2 * 4  # two replicates, four methods
    summary = (out / "fig2_summary.csv").read_text().splitlines()
    assert summary[0].startswith("method,n_replicates,")
    assert len(summary) == 5


def test_reproduce_fig2_rerun_byte_identical(tmp_path):
    args = ["reproduce", "fig2", "--replicates", "2", "--n-per-env", "200"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert read_tree(str(a)) == read_tree(str(b))


def test_reproduce_table1_missing_file_exits_two(tmp_path, capsys):
    code = main(
        ["reproduce", "table1", "--out", str(tmp_path / "t"),
         "--census-path", str(tmp_path / "absent.data")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "adult.data" in err
    assert "archive.ics.uci.edu" in err


def test_reproduce_table2_missing_file_exits_two(tmp_path, capsys):
    code = main(
        ["reproduce", "table2", "--out", str(tmp_path / "t"),
         "--mushroom-path", str(tmp_path / "absent.data")]
    )
    assert code == 2
    assert "agaricus-lepiota.data" in capsys.readouterr().err


def write_census_fixture(path, n=240, seed=0):
    """A small adult.data in the UCI layout: no header, ", " separators, "?" for missing."""
    rng = np.random.default_rng(seed)
    lines = []
    for i in range(n):
        age = int(rng.integers(20, 65))
        years = int(rng.integers(9, 16))
        rich = rng.random() < 1.0 / (1.0 + np.exp(-(age - 40) / 8.0 - (years - 12) / 2.0))
        cells = [
            age,
            rng.choice(["Private", "Self-emp-not-inc"]),
            int(rng.integers(10_000, 400_000)),
            "Bachelors" if years >= 13 else "HS-grad",
            years,
            rng.choice(["Married-civ-spouse", "Never-married"]),
            "?" if i % 20 == 0 else rng.choice(["Sales", "Tech-support"]),
            rng.choice(["Husband", "Not-in-family"]),
            rng.choice(["White", "White", "Black"]),
            rng.choice(["Male", "Female"]),
            int(rng.choice([0, 0, 0, 5178])),
            0,
            int(rng.choice([35, 40, 45, 50])),
            rng.choice(["United-States", "United-States", "Mexico"]),
            ">50K" if rich else "<=50K",
        ]
        lines.append(", ".join(str(c) for c in cells))
    path.write_text("\n".join(lines) + "\n\n", encoding="utf-8")


def write_mushroom_fixture(path, n=200, seed=0):
    """A small agaricus-lepiota.data: one-letter codes, "?" only in stalk-root."""
    rng = np.random.default_rng(seed)
    lines = []
    for _ in range(n):
        cells = {name: rng.choice(["a", "b"]) for name in cli.MUSHROOM_COLUMNS}
        cells["odor"] = rng.choice(["n", "f", "a"])
        cells["class"] = "e" if (cells["odor"] != "f") ^ (rng.random() < 0.1) else "p"
        cells["veil-type"] = "p"
        cells["stalk-root"] = rng.choice(["b", "e", "?"])
        cells["habitat"] = rng.choice(["g", "u", "m", "p", "d"])
        lines.append(",".join(cells[name] for name in cli.MUSHROOM_COLUMNS))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_table(path):
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["experiment", "method", "accuracy", "abstained", "n_pairs"]
    for _, _, acc, abstained, n_pairs in rows:
        assert abstained in ("true", "false")
        assert (acc == "") == (abstained == "true")
        assert acc == "" or 0.0 <= float(acc) <= 1.0
        assert int(n_pairs) >= 0
    return [(experiment, method) for experiment, method, *_ in rows]


def test_reproduce_table1_end_to_end(tmp_path):
    raw = tmp_path / "adult.data"
    write_census_fixture(raw)
    rows = cli._read_raw_table(str(raw), cli.CENSUS_COLUMNS, cli.CENSUS_INSTRUCTIONS)
    complete = [cells for _, cells in rows if "?" not in cells]
    assert 0 < len(complete) < len(rows) == 240
    for name, split_column, predicate in cli._census_experiments():
        d = cli._census_dataset(rows, split_column, predicate)
        assert d.n == len(complete)
        expected = {"test": 0, "env_yes": 0, "env_no": 0}
        for cells in complete:
            if float(cells[4]) >= 13.0:
                expected["test"] += 1
            else:
                split = predicate(cells[cli.CENSUS_COLUMNS.index(split_column)])
                expected["env_yes" if split else "env_no"] += 1
        assert Counter(d.env_of) == expected
        origins = set(d.column_origin.values())
        for excluded in ("income", "education", "education-num", split_column):
            assert excluded not in origins

    out = tmp_path / "t1"
    args = ["reproduce", "table1", "--out", str(out), "--census-path", str(raw)]
    assert main(args + ["--max-subset-size", "1"]) == 0
    assert read_table(out / "table1.csv") == [
        (experiment, method)
        for experiment in ("born-us", "overtime", "caucasian")
        for method in cli.METHODS
    ]


def test_reproduce_table2_end_to_end(tmp_path):
    raw = tmp_path / "agaricus-lepiota.data"
    write_mushroom_fixture(raw)
    rows = cli._read_raw_table(str(raw), cli.MUSHROOM_COLUMNS, cli.MUSHROOM_INSTRUCTIONS)
    habitat = cli.MUSHROOM_COLUMNS.index("habitat")
    assert any("?" in cells for _, cells in rows)
    for test_habitat in ("m", "p"):
        d = cli._mushroom_dataset(rows, test_habitat)
        kept = [cells[habitat] for _, cells in rows if cells[habitat] in ("g", "u", test_habitat)]
        assert Counter(d.env_of) == {
            "grasses": kept.count("g"),
            "urban": kept.count("u"),
            "test": kept.count(test_habitat),
        }
        origins = set(d.column_origin.values())
        for excluded in ("class", "habitat", "veil-type", "stalk-root"):
            assert excluded not in origins

    out = tmp_path / "t2"
    args = ["reproduce", "table2", "--out", str(out), "--mushroom-path", str(raw)]
    assert main(args + ["--max-subset-size", "1"]) == 0
    assert read_table(out / "table2.csv") == [
        (experiment, method) for experiment in ("meadows", "paths") for method in cli.METHODS
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["fit-predict", "--seed", "1"],
        ["fit-predict", "--methods", "bimp", "--variant", "gam"],
        ["reproduce", "fig1", "--n-per-env", "200", "--alpha", "0.2"],
        ["reproduce", "fig2", "--replicates", "1", "--n-per-env", "200", "--census-path", "x"],
        ["reproduce", "table1", "--svg"],
        ["reproduce", "table2", "--seed", "3"],
    ],
    ids=["fit-predict-seed", "fit-predict-variant", "fig1-alpha", "fig2-census-path",
         "table1-svg", "table2-seed"],
)
def test_flag_the_command_does_not_read_exits_two(argv, simulated, tmp_path, capsys):
    # every other argument is valid and small, so only the stray flag can fail
    census, mushroom = tmp_path / "adult.data", tmp_path / "agaricus-lepiota.data"
    write_census_fixture(census)
    write_mushroom_fixture(mushroom)
    inputs = {
        "fit-predict": ["--data", *simulated, "--max-subset-size", "1"],
        "table1": ["--census-path", str(census), "--max-subset-size", "1"],
        "table2": ["--mushroom-path", str(mushroom), "--max-subset-size", "1"],
    }
    command = argv[1] if argv[0] == "reproduce" else argv[0]
    extra = inputs.get(command, [])
    with pytest.raises(SystemExit) as info:
        main([*argv, "--out", str(tmp_path / "out"), *extra])
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


ONE_TRAINING_ENV = "env,y,x1\n" + "".join(
    f"{env},{i % 2},{i / 10}\n" for env in ("env1", "test") for i in range(8)
)
# line 14 is env2's fifth row
NON_FINITE_CELL = "env,y,x1\n" + "".join(
    f"{env},{i % 2},{'nan' if (env, i) == ('env2', 4) else i / 10}\n"
    for env in ("env1", "env2", "test")
    for i in range(8)
)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "--seed", "-1"], "seed must be non-negative, got -1"),
        (["reproduce", "fig1", "--seed", "-1"], "seed must be non-negative, got -1"),
        (["reproduce", "fig2", "--seed", "-2"], "seed must be non-negative, got -2"),
        (["fit-predict", "--schema", "{not json"], "schema is not valid JSON"),
        (["fit-predict", "--schema", '{"columns": ["x1"]}'], "schema has no 'kinds' entry"),
        (["fit-predict", "--schema", "[1, 2]"], "schema must be a JSON object, not list"),
        (["fit-predict", "--schema", '{"columns": 5}'], "schema entry has the wrong type"),
        (["simulate", "--replicates", "-2"], "--replicates must be at least 1, got -2"),
        (["reproduce", "fig2", "--replicates", "0"], "--replicates must be at least 1, got 0"),
        (["simulate", "--n-per-env", "0"], "n_per_env must be positive"),
        (["simulate", "--m", "1"], "benchmark family needs m >= 2"),
        (["reproduce", "fig1", "--n-per-env", "0"], "n_per_env must be positive"),
        (["reproduce", "fig2", "--replicates", "1", "--n-per-env", "0"],
         "n_per_env must be positive"),
        (["fit-predict", "--data", "env,y,x1\nenv1,0,1.5\nenv1,1\n"],
         "line 3: expected 3 fields, found 2"),
        (["fit-predict", "--data", ONE_TRAINING_ENV], "at least two training environments"),
        (["fit-predict", "--methods", "forest"], "unknown method 'forest'"),
        (["reproduce", "table1", "hours-per-week", "forty"],
         "adult.data:2: hours-per-week is not numeric: 'forty'"),
        (["reproduce", "table1", "education-num", "ten"],
         "adult.data:2: education-num is not numeric: 'ten'"),
        (["fit-predict", "--data", NON_FINITE_CELL],
         "line 14: column 'x1' has non-finite value 'nan'"),
        (["reproduce", "table1", "hours-per-week", "inf"],
         "adult.data:2: hours-per-week is not finite: 'inf'"),
        (["reproduce", "table1", "education-num", "nan"],
         "adult.data:2: education-num is not finite: 'nan'"),
    ],
    ids=["simulate-seed", "fig1-seed", "fig2-seed", "schema-not-json", "schema-no-kinds",
         "schema-a-list", "schema-wrong-type", "simulate-replicates", "fig2-replicates",
         "simulate-rows", "simulate-m", "fig1-rows", "fig2-rows", "data-short-row",
         "data-one-training-env", "unknown-method", "table1-hours", "table1-education",
         "data-non-finite", "table1-hours-inf", "table1-education-nan"],
)
def test_bad_outside_input_exits_one_with_one_error_line(argv, message, simulated, tmp_path):
    # a separate interpreter, so an exception that escapes main shows as a traceback
    if argv[0] == "fit-predict":
        flag, value = argv[1:]
        data = [] if flag == "--data" else ["--data", *simulated]
        if flag in ("--data", "--schema"):
            path = tmp_path / "input"
            path.write_text(value, encoding="utf-8")
            value = str(path)
        argv = ["fit-predict", *data, flag, value]
    elif argv[1] == "table1":
        # line 2 of the fixture is a complete row; one of its numeric cells is replaced
        column, value = argv[2:]
        census = tmp_path / "adult.data"
        write_census_fixture(census)
        lines = census.read_text(encoding="utf-8").split("\n")
        cells = lines[1].split(", ")
        cells[cli.CENSUS_COLUMNS.index(column)] = value
        lines[1] = ", ".join(cells)
        census.write_text("\n".join(lines), encoding="utf-8")
        argv = ["reproduce", "table1", "--census-path", str(census), "--max-subset-size", "1"]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "invarbin.cli", *argv, "--out", str(tmp_path / "out")],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 1
    errors = [line for line in done.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and message in errors[0], done.stderr
    assert "Traceback" not in done.stderr
    assert done.stdout == ""
    # a refused run leaves no output directory behind
    assert not (tmp_path / "out").exists()


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2
