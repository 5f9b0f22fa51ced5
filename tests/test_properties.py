"""Property tests: the fits survive small, badly scaled multi-environment data.

Each example is a dataset with 2-3 training environments (both classes in
each), 1-25 test rows and 1-4 columns.  A column is Gaussian at scale 0,
1e-3, 1 or 100, binary, or a near-duplicate of the column before it.

The ingest properties draw small raw tables instead: padded, missing,
non-numeric and unmapped cells, rows of the wrong width, environments that
are dropped, unmapped or left empty, and both missing-value policies.  The
column-wise ``encode_table`` and ``sniff_table`` must agree with the
row-by-row references in ``oracles`` on every bit or refusal.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from invarbin import (  # noqa: E402
    EncodingSpec,
    Environment,
    MultiEnvDataset,
    ROLE_TEST,
    ROLE_TRAIN,
    VARIANT_GAM,
    VARIANT_LINEAR,
    ValidationError,
    encode_table,
    fit_bimp,
    fit_icp,
    fit_spline_additive,
    predict_bimp,
    predict_pair,
    sniff_table,
)
from invarbin import test_subset as held_out_subset  # noqa: E402
from invarbin.regression import predict  # noqa: E402
from oracles import encode_rows, sniff_rows  # noqa: E402

COLUMN_KINDS = (0.0, 1e-3, 1.0, 100.0, "binary", "near-duplicate")
FEW = settings(max_examples=30, deadline=None)
TABLES = settings(max_examples=100, deadline=None)


def build_dataset(seed, train_sizes, n_test, kinds, train_labels) -> MultiEnvDataset:
    """Labels follow the standardized column sum plus noise; draws depend on ``seed`` only."""
    rng = np.random.default_rng(seed)
    sizes = (*train_sizes, n_test)
    n = sum(sizes)
    columns = []
    for kind in kinds:
        if kind == "binary":
            column = rng.integers(0, 2, size=n).astype(float)
        elif kind == "near-duplicate":
            base = columns[-1] if columns else rng.standard_normal(n)
            column = base + 1e-9 * rng.standard_normal(n)
        else:
            column = kind * rng.standard_normal(n)
        columns.append(column)
    signal = sum(column / (column.std() or 1.0) for column in columns)
    y = (signal + rng.standard_normal(n) > 0).astype(np.int64)
    first_rows = np.cumsum([0, *train_sizes[:-1]])
    y[first_rows], y[first_rows + 1] = 0, 1
    return MultiEnvDataset(
        features=np.column_stack(columns),
        response=y,
        env_of=np.repeat(np.array([*train_labels, "test"], dtype=object), sizes),
        environments=(
            *(Environment(label, ROLE_TRAIN) for label in train_labels),
            Environment("test", ROLE_TEST),
        ),
        column_names=tuple(f"x{j}" for j in range(len(kinds))),
    )


@st.composite
def dataset_recipes(draw):
    n_train = draw(st.integers(2, 3))
    return dict(
        seed=draw(st.integers(0, 2**32 - 1)),
        train_sizes=tuple(draw(st.lists(st.integers(2, 30), min_size=n_train, max_size=n_train))),
        n_test=draw(st.integers(1, 25)),
        kinds=tuple(draw(st.lists(st.sampled_from(COLUMN_KINDS), min_size=1, max_size=4))),
    )


def dataset(recipe, prefix="e") -> MultiEnvDataset:
    labels = tuple(f"{prefix}{i}" for i in range(len(recipe["train_sizes"])))
    return build_dataset(train_labels=labels, **recipe)


def scaled_first_column(scale) -> MultiEnvDataset:
    d = build_dataset(0, (30, 30), 20, (1.0, 1.0), ("e0", "e1"))
    features = d.features.copy()
    features[:, 0] *= scale
    return replace(d, features=features)


@pytest.mark.parametrize("scale", [1e103, 1e110])
def test_spline_fits_refuse_a_column_whose_cubes_overflow(scale):
    # column 0 spans about 4 * scale, beyond the cube root of the largest float
    d = scaled_first_column(scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="too wide for cubic splines"):
            fit_bimp(d, variant=VARIANT_GAM)
        with pytest.raises(ValidationError, match="too wide for cubic splines"):
            fit_spline_additive(d.features, d.response)


def test_spline_fits_keep_a_column_whose_cubes_stay_finite():
    d = scaled_first_column(1e102)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = fit_bimp(d, variant=VARIANT_GAM)
        spline = fit_spline_additive(d.features, d.response)
    assert not model.abstained and spline.terms[0].kind == "spline"
    assert np.all(np.isfinite(predict(spline, d.features)))


@FEW
@given(dataset_recipes())
def test_fits_return_or_abstain_with_probabilities_in_unit_interval(recipe):
    # fallback rows are exactly those where every kept pair is degenerate
    d = dataset(recipe)
    target = held_out_subset(d).features
    for variant in (VARIANT_LINEAR, VARIANT_GAM):
        model = fit_bimp(d, variant=variant)
        if model.abstained:
            continue
        prediction = predict_bimp(model, target)
        probs = prediction.probabilities
        assert np.all((probs >= 0.0) & (probs <= 1.0))
        degenerate = np.array([predict_pair(pm, target)[1] for pm in model.pair_models])
        assert np.array_equal(prediction.fallback, degenerate.all(axis=0))
        assert np.all(probs[prediction.fallback] == model.base_rate)
    icp = fit_icp(d)
    if not icp.abstained:
        probs = predict(icp.model, target[:, list(icp.intersection)])
        assert np.all((probs >= 0.0) & (probs <= 1.0))


@FEW
@given(dataset_recipes())
def test_renaming_training_environments_changes_no_bit(recipe):
    # "e0" < "e1" < "e2" and "site0" < "site1" < "site2": the order is kept
    d, renamed = dataset(recipe), dataset(recipe, prefix="site")
    target = held_out_subset(d).features
    for variant in (VARIANT_LINEAR, VARIANT_GAM):
        a, b = fit_bimp(d, variant=variant), fit_bimp(renamed, variant=variant)
        assert a.pairs == b.pairs
        assert [(p, s.hex()) for p, s in a.scores.items()] == [
            (p, s.hex()) for p, s in b.scores.items()
        ]
        if not a.abstained:
            assert (
                predict_bimp(a, target).probabilities.tobytes()
                == predict_bimp(b, target).probabilities.tobytes()
            )


# Half the tables hold only values that encode (missing cells included);
# the other half mix in a few that are refused.
NUMBERS = ("1", " 2.5 ", "-0", "3", "7e-3")
LEVELS = ("a", " b", "c", "?", "")
ODD_NUMBERS = ("nan", "1e400", "1_0", "", " x ", "\u20037\u3000")
ODD_LEVELS = ("1", "x y", " ? ")
ODD_ENVS = ("zz", "", " e1 ")
ODD_RESPONSES = ("maybe", "", "?")
ROLES = ("train",) * 6 + ("test", "drop", "unmapped")


@st.composite
def raw_tables(draw):
    """(header, rows, spec): a raw table and a schema that may not fit it."""
    env_map = {}
    for raw in ("e1", "e2", "t", "junk"):
        role = draw(st.sampled_from(ROLES))
        if role != "unmapped":
            label = draw(st.sampled_from(("A", "A", "B"))) if role == "train" else raw
            env_map[raw] = {"label": label, "role": role}
    names = draw(st.lists(st.sampled_from("abcd"), max_size=3, unique=True))
    kinds = {name: draw(st.sampled_from(("numeric", "categorical"))) for name in names}
    odd = draw(st.booleans())

    def cells(common, uncommon):
        return common * 2 + uncommon if odd else common

    pools = {}
    for name in names:
        # without "?" a column parses in one pass even where a token such as
        # "-0" marks some of its cells missing
        if kinds[name] == "numeric":
            pools[name] = cells(NUMBERS + draw(st.sampled_from(((), ("?",)))), ODD_NUMBERS)
        else:
            pools[name] = cells(LEVELS, ODD_LEVELS)
    pools.update(env=cells(tuple(env_map) or ("e1",), ODD_ENVS),
                 y=cells(("0", "1", " 1"), ODD_RESPONSES))
    header = draw(st.permutations([*names, "y", "env"]))
    row_cells = st.tuples(*(st.sampled_from(pools[name]) for name in header))
    widths = st.sampled_from((0,) * 30 + (-1, 1) if odd else (0,))
    rows = []
    for i in range(draw(st.sampled_from(range(12, -1, -1)))):
        row, width = list(draw(row_cells)), draw(widths)
        rows.append((i + 2, row[:width] if width < 0 else row + ["extra"] * width))
    columns = draw(st.permutations(names))
    columns = columns[: draw(st.integers(0, len(columns)))]
    spec = EncodingSpec(
        columns=tuple(columns),
        kinds=kinds,
        categories={
            col: tuple(draw(st.lists(st.sampled_from(("a", "b", "c", "?", "", "1")),
                                     min_size=1, max_size=4, unique=True)))
            for col in columns
            if kinds[col] == "categorical"
        },
        response_column="y",
        response_map=draw(st.sampled_from(({"0": 0, "1": 1},) * 4 + ({"0": 0, "1": 1, "?": 1},))),
        env_column="env",
        env_map=env_map,
        missing_policy=draw(st.sampled_from(("drop_row", "missing_as_category"))),
        missing_token=draw(st.sampled_from(("?", "", "nan", "-0", "a"))),
    )
    return header, rows, spec


def outcome(ingest, *args, **kwargs):
    """What ``ingest`` returns, bit for bit, or the type, message and line of its refusal."""
    try:
        result = ingest(*args, **kwargs)
    except Exception as exc:  # every refusal is compared, whatever its type
        return type(exc), str(exc), getattr(exc, "line", None)
    if isinstance(result, EncodingSpec):
        return result.to_json()
    return (
        result.features.shape,
        result.features.tobytes(),
        result.response.tobytes(),
        list(result.env_of),
        result.environments,
        result.column_names,
        result.column_origin,
    )


@TABLES
@given(raw_tables())
def test_encode_table_matches_the_row_wise_reference(table):
    assert outcome(encode_table, *table) == outcome(encode_rows, *table)


@TABLES
@given(raw_tables(), st.sampled_from((None, "t", "zz")), st.booleans())
def test_sniff_table_matches_the_row_wise_reference(table, test_env, given_map):
    header, rows, _ = table
    kwargs = dict(env_column="env", response_column="y", test_env=test_env,
                  response_map={"0": 0, "1": 1} if given_map else None)
    expected = outcome(sniff_rows, header, rows, **kwargs)
    assert outcome(sniff_table, header, rows, **kwargs) == expected
