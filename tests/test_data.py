import dataclasses
from collections import Counter

import numpy as np
import pytest

from invarbin import (
    CsvParseError,
    EncodingSpec,
    Environment,
    MultiEnvDataset,
    ROLE_DROP,
    ROLE_TEST,
    ROLE_TRAIN,
    SchemaError,
    UnknownEnvironmentError,
    ValidationError,
    encode_table,
    feature_groups,
    sniff_table,
    training_subset,
)
from invarbin import test_subset as held_out_subset
from invarbin.data import _read_csv


def small_dataset() -> MultiEnvDataset:
    features = np.array(
        [
            [0.0, 1.0],
            [1.0, 2.0],
            [2.0, 3.0],
            [3.0, 4.0],
            [4.0, 5.0],
            [5.0, 6.0],
        ]
    )
    return MultiEnvDataset(
        features=features,
        response=np.array([0, 1, 0, 1, 0, 1]),
        env_of=np.array(["a", "a", "b", "b", "t", "t"], dtype=object),
        environments=(
            Environment("a", ROLE_TRAIN),
            Environment("b", ROLE_TRAIN),
            Environment("t", ROLE_TEST),
        ),
        column_names=("u", "v"),
    )


def test_dataset_basic_properties():
    d = small_dataset()
    assert d.n == 6
    assert d.m == 2
    assert d.train_labels == ("a", "b")
    assert d.test_label == "t"
    assert Counter(d.env_of) == {"a": 2, "b": 2, "t": 2}


def test_dataset_arrays_are_read_only():
    d = small_dataset()
    with pytest.raises(ValueError):
        d.features[0, 0] = 9.0


def test_rows_in_unknown_label():
    d = small_dataset()
    with pytest.raises(UnknownEnvironmentError):
        d.rows_in("nope")


def test_take_keeps_invariants_and_checks_the_mask():
    d = small_dataset()
    sub = d.take(d.response == 1)
    assert sub.n == 3 and Counter(sub.env_of) == {"a": 1, "b": 1, "t": 1}
    assert sub.environments == d.environments and sub.column_names == d.column_names
    with pytest.raises(ValueError):
        sub.features[0, 0] = 9.0
    with pytest.raises(ValidationError):
        d.take(np.ones(d.n - 1, dtype=bool))


def test_training_and_test_subsets():
    d = small_dataset()
    train = training_subset(d)
    test = held_out_subset(d)
    assert train.n == 4
    assert set(train.env_of) == {"a", "b"}
    assert test.n == 2
    assert set(test.env_of) == {"t"}


def test_rejects_two_test_environments():
    with pytest.raises(ValidationError):
        MultiEnvDataset(
            features=np.zeros((2, 1)),
            response=np.array([0, 1]),
            env_of=np.array(["s", "t"], dtype=object),
            environments=(Environment("s", ROLE_TEST), Environment("t", ROLE_TEST)),
            column_names=("x",),
        )


def test_rejects_non_binary_response():
    with pytest.raises(ValidationError):
        MultiEnvDataset(
            features=np.zeros((2, 1)),
            response=np.array([0, 2]),
            env_of=np.array(["a", "a"], dtype=object),
            environments=(Environment("a", ROLE_TRAIN),),
            column_names=("x",),
        )


def test_rejects_unregistered_env_label():
    with pytest.raises(UnknownEnvironmentError):
        MultiEnvDataset(
            features=np.zeros((2, 1)),
            response=np.array([0, 1]),
            env_of=np.array(["a", "mystery"], dtype=object),
            environments=(Environment("a", ROLE_TRAIN),),
            column_names=("x",),
        )


def test_feature_groups_default_identity():
    d = small_dataset()
    assert feature_groups(d) == ((0,), (1,))


def test_feature_groups_from_origin():
    d = MultiEnvDataset(
        features=np.zeros((2, 3)),
        response=np.array([0, 1]),
        env_of=np.array(["a", "a"], dtype=object),
        environments=(Environment("a", ROLE_TRAIN),),
        column_names=("c=x", "c=y", "n"),
        column_origin={"c=x": "c", "c=y": "c", "n": "n"},
    )
    assert feature_groups(d) == ((0, 1), (2,))


SPEC = EncodingSpec(
    columns=("size", "color"),
    kinds={"size": "numeric", "color": "categorical"},
    categories={"color": ("blue", "green", "red")},
    response_column="label",
    response_map={"no": 0, "yes": 1},
    env_column="env",
    env_map={
        "one": {"label": "one", "role": ROLE_TRAIN},
        "two": {"label": "two", "role": ROLE_TRAIN},
        "hold": {"label": "hold", "role": ROLE_TEST},
        "junk": {"label": "", "role": ROLE_DROP},
    },
)

HEADER = ["size", "color", "label", "env"]


def rows(*cells):
    return [(i + 2, list(r)) for i, r in enumerate(cells)]


def test_encode_one_hot_reference_dropped():
    d = encode_table(
        HEADER,
        rows(
            ["1.0", "blue", "no", "one"],
            ["2.0", "green", "yes", "one"],
            ["3.0", "red", "no", "two"],
            ["4.0", "blue", "yes", "hold"],
        ),
        SPEC,
    )
    assert d.column_names == ("size", "color=green", "color=red")
    # blue is the reference level: both indicator columns zero
    assert d.features[0].tolist() == [1.0, 0.0, 0.0]
    assert d.features[1].tolist() == [2.0, 1.0, 0.0]
    assert d.features[2].tolist() == [3.0, 0.0, 1.0]
    assert feature_groups(d) == ((0,), (1, 2))


def test_encode_drop_role_removes_rows():
    d = encode_table(
        HEADER,
        rows(
            ["1", "blue", "no", "one"],
            ["2", "red", "yes", "junk"],
            ["3", "green", "yes", "two"],
            ["4", "blue", "no", "hold"],
        ),
        SPEC,
    )
    assert d.n == 3
    assert "junk" not in set(d.env_of)


def test_encode_missing_numeric_always_drops():
    d = encode_table(
        HEADER,
        rows(
            ["?", "blue", "no", "one"],
            ["2", "red", "yes", "one"],
            ["3", "green", "no", "two"],
            ["4", "blue", "no", "hold"],
        ),
        SPEC,
    )
    assert d.n == 3


def test_encode_missing_token_that_parses_still_drops():
    # every size cell parses as a float, "-1" included
    spec = dataclasses.replace(SPEC, missing_token="-1")
    d = encode_table(
        HEADER,
        rows(
            ["-1", "blue", "no", "one"],
            ["2", "red", "yes", "one"],
            ["3", "green", "no", "two"],
            ["4", "blue", "no", "hold"],
        ),
        spec,
    )
    assert d.features[:, 0].tolist() == [2.0, 3.0, 4.0]


def test_encode_missing_categorical_policy():
    table = rows(
        ["1", "?", "no", "one"],
        ["2", "red", "yes", "one"],
        ["3", "green", "no", "two"],
        ["4", "blue", "no", "hold"],
    )
    dropped = encode_table(HEADER, table, SPEC)
    assert dropped.n == 3

    keep = EncodingSpec(
        columns=SPEC.columns,
        kinds=SPEC.kinds,
        categories={"color": ("?", "blue", "green", "red")},
        response_column=SPEC.response_column,
        response_map=SPEC.response_map,
        env_column=SPEC.env_column,
        env_map=SPEC.env_map,
        missing_policy="missing_as_category",
    )
    kept = encode_table(HEADER, table, keep)
    assert kept.n == 4
    # "?" is now the reference level of the four categories
    assert kept.column_names == ("size", "color=blue", "color=green", "color=red")
    assert kept.features[0, 1:].tolist() == [0.0, 0.0, 0.0]


def test_encode_unseen_category_is_all_zeros():
    d = encode_table(
        HEADER,
        rows(
            ["1", "purple", "no", "one"],
            ["2", "red", "yes", "one"],
            ["3", "green", "no", "two"],
            ["4", "blue", "no", "hold"],
        ),
        SPEC,
    )
    assert d.features[0, 1:].tolist() == [0.0, 0.0]


def test_encode_unmapped_env_raises_with_line():
    with pytest.raises(SchemaError, match="line 2"):
        encode_table(HEADER, rows(["1", "blue", "no", "elsewhere"]), SPEC)


def test_encode_unmapped_response_raises():
    with pytest.raises(SchemaError, match="maybe"):
        encode_table(
            HEADER,
            rows(
                ["1", "blue", "maybe", "one"],
                ["1", "blue", "no", "two"],
                ["1", "blue", "no", "hold"],
            ),
            SPEC,
        )


def test_encode_field_count_mismatch():
    with pytest.raises(CsvParseError) as info:
        encode_table(HEADER, [(5, ["1", "blue", "no"])], SPEC)
    assert info.value.line == 5


# spec order (b, color, a) differs from header order (a, b, color)
TWO_NUMERIC = EncodingSpec(
    columns=("b", "color", "a"),
    kinds={"b": "numeric", "a": "numeric", "color": "categorical"},
    categories={"color": ("blue", "red")},
    response_column="label",
    response_map=SPEC.response_map,
    env_column="env",
    env_map=SPEC.env_map,
)
TWO_NUMERIC_HEADER = ["a", "b", "color", "label", "env"]
GOOD_ROWS = (
    ["1", "2", "red", "no", "one"],
    ["3", "4", "blue", "yes", "two"],
    ["5", "6", "red", "no", "hold"],
)


def refusal(*cells):
    with pytest.raises(SchemaError) as info:
        encode_table(TWO_NUMERIC_HEADER, rows(*cells), TWO_NUMERIC)
    return str(info.value)


def test_encode_refusal_before_a_short_row_names_its_own_line():
    message = refusal(["1", "2", "red", "no", "elsewhere"], *GOOD_ROWS[1:], ["1", "2"])
    assert message == "line 2: unmapped environment value 'elsewhere'"
    with pytest.raises(CsvParseError) as info:
        encode_table(TWO_NUMERIC_HEADER, rows(*GOOD_ROWS, ["1", "2"]), TWO_NUMERIC)
    assert info.value.line == 5


def test_encode_names_the_line_of_a_non_numeric_cell():
    message = refusal(
        ["big", "2", "red", "no", "junk"],  # dropped by its environment's role
        ["1", "?", "red", "no", "one"],  # dropped by its missing b, before a
        *GOOD_ROWS,
        ["1", " x ", "red", "no", "two"],
    )
    assert message == "line 7: column 'b' has non-numeric value 'x'"


@pytest.mark.parametrize("cell", ["nan", " -inf "])
def test_encode_names_the_line_of_a_non_finite_cell(cell):
    value = repr(cell.strip())
    # "?" sends column b through the row-by-row parse; column a parses in one pass
    per_row = refusal(
        ["1", cell, "red", "no", "junk"],  # dropped by its environment's role
        [cell, "?", "red", "no", "one"],  # dropped by its missing b, before a
        *GOOD_ROWS,
        ["1", cell, "red", "no", "two"],
    )
    assert per_row == f"line 7: column 'b' has non-finite value {value}"
    # file order first: a's line 5 comes before b's non-numeric line 6
    one_pass = refusal(*GOOD_ROWS, [cell, "2", "red", "no", "two"], ["1", "x", "red", "no", "one"])
    assert one_pass == f"line 5: column 'a' has non-finite value {value}"


def test_encode_names_the_line_of_an_unmapped_response():
    message = refusal(
        ["1", "2", "red", "maybe", "junk"],  # dropped by its environment's role
        *GOOD_ROWS,
        ["1", "2", "red", "perhaps", "one"],
    )
    assert message == "line 6: unmapped response value 'perhaps'"


def test_encode_dropped_rows_never_raise_for_their_later_cells():
    d = encode_table(
        TWO_NUMERIC_HEADER,
        rows(
            ["big", "small", "red", "maybe", "junk"],
            ["huge", "?", "red", "no", "one"],
            ["huge", "1", "?", "no", "two"],
            *GOOD_ROWS,
        ),
        TWO_NUMERIC,
    )
    assert d.n == 3 and list(d.env_of) == ["one", "two", "hold"]
    # a cell before the one that drops the row still raises
    message = refusal(*GOOD_ROWS, ["1", "small", "?", "no", "one"])
    assert message == "line 5: column 'b' has non-numeric value 'small'"


def test_encode_refuses_a_row_by_environment_response_then_spec_order():
    cells = ["x", "y", "red", "maybe", "elsewhere"]
    assert refusal(*GOOD_ROWS, cells) == "line 5: unmapped environment value 'elsewhere'"
    cells[4] = "one"
    assert refusal(*GOOD_ROWS, cells) == "line 5: unmapped response value 'maybe'"
    cells[3] = "no"
    assert refusal(*GOOD_ROWS, cells) == "line 5: column 'b' has non-numeric value 'y'"
    cells[1] = "2"
    assert refusal(*GOOD_ROWS, cells) == "line 5: column 'a' has non-numeric value 'x'"


def test_sniff_names_the_line_of_a_short_row():
    with pytest.raises(CsvParseError) as info:
        sniff_table(HEADER, rows(["1", "blue", "no", "one"], ["2", "red"]), "env", "label")
    assert info.value.line == 3


def test_sniff_and_encode_refuse_a_repeated_column():
    # the second "size" would otherwise replace the first without a word
    header = ["size", "color", "label", "env", "size"]
    table = rows(
        ["1", "blue", "no", "one", "9"],
        ["2", "red", "yes", "two", "8"],
        ["3", "green", "no", "hold", "7"],
    )
    with pytest.raises(CsvParseError, match="line 1: header repeats column 'size'"):
        sniff_table(header, table, "env", "label", test_env="hold")
    with pytest.raises(CsvParseError, match="line 1: header repeats column 'size'"):
        encode_table(header, table, SPEC)


def test_encode_empty_declared_environment():
    with pytest.raises(ValidationError, match="empty"):
        encode_table(
            HEADER,
            rows(["1", "blue", "no", "one"], ["2", "red", "no", "one"]),
            SPEC,
        )


def test_spec_json_round_trip():
    clone = EncodingSpec.from_json(SPEC.to_json())
    assert clone == SPEC


def test_spec_validates_roles():
    with pytest.raises(ValidationError):
        EncodingSpec(
            columns=("x",),
            kinds={"x": "numeric"},
            categories={},
            response_column="y",
            response_map={"0": 0, "1": 1},
            env_column="e",
            env_map={"a": {"label": "a", "role": "sideways"}},
        )


@pytest.mark.parametrize("column, role", [("label", "response"), ("env", "environment")])
def test_spec_refuses_its_response_or_environment_column_as_a_feature(column, role):
    message = f"the {role} column '{column}' is listed as a feature"
    with pytest.raises(ValidationError, match=message):
        dataclasses.replace(
            SPEC, columns=(*SPEC.columns, column), kinds={**SPEC.kinds, column: "numeric"}
        )


def test_sniff_detects_kinds_and_maps():
    header = ["x", "c", "y", "env"]
    table = rows(
        ["1.5", "m", "0", "train1"],
        ["2.0", "f", "1", "train2"],
        ["0.5", "m", "1", "test"],
    )
    spec = sniff_table(header, table, env_column="env", response_column="y", test_env="test")
    assert spec.kinds == {"x": "numeric", "c": "categorical"}
    assert spec.categories["c"] == ("f", "m")
    assert spec.response_map == {"0": 0, "1": 1}
    assert spec.env_map["test"]["role"] == ROLE_TEST
    assert spec.env_map["train1"]["role"] == ROLE_TRAIN


def test_sniff_excludes_columns():
    header = ["x", "leak", "y", "env"]
    table = rows(["1", "9", "0", "a"], ["2", "8", "1", "a"])
    spec = sniff_table(
        header, table, env_column="env", response_column="y", exclude=("leak",)
    )
    assert spec.columns == ("x",)


def test_sniff_rejects_nonbinary_response_without_map():
    header = ["x", "y", "env"]
    table = rows(["1", "a", "e"], ["2", "b", "e"], ["3", "c", "e"])
    with pytest.raises(SchemaError, match="distinct"):
        sniff_table(header, table, env_column="env", response_column="y")


def test_sniff_missing_test_env_value():
    header = ["x", "y", "env"]
    table = rows(["1", "0", "a"], ["2", "1", "a"])
    with pytest.raises(SchemaError, match="never appears"):
        sniff_table(header, table, env_column="env", response_column="y", test_env="t")


def test_load_csv_round_trip(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text(
        "size,color,label,env\n"
        "1.0,blue,no,one\n"
        "2.5,green,yes,two\n"
        "0.5,red,yes,hold\n",
        encoding="utf-8",
    )
    d1 = encode_table(*_read_csv(str(path)), SPEC)
    d2 = encode_table(*_read_csv(str(path)), SPEC)
    assert np.array_equal(d1.features, d2.features)
    assert np.array_equal(d1.response, d2.response)
    assert d1.column_names == d2.column_names

    header, table = _read_csv(str(path))
    sniffed = sniff_table(
        header, table, env_column="env", response_column="label", test_env="hold"
    )
    d3 = encode_table(header, table, sniffed)
    assert d3.n == 3


def test_load_csv_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(CsvParseError):
        _read_csv(str(path))
