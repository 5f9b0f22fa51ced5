"""Property tests: the fits survive small, badly scaled multi-environment data.

Each example is a dataset with 2-3 training environments (both classes in
each), 1-25 test rows and 1-4 columns.  A column is Gaussian at scale 0,
1e-3, 1 or 100, binary, or a near-duplicate of the column before it.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from invarbin import (  # noqa: E402
    Environment,
    MultiEnvDataset,
    ROLE_TEST,
    ROLE_TRAIN,
    VARIANT_GAM,
    VARIANT_LINEAR,
    fit_bimp,
    fit_icp,
    predict_bimp,
    predict_pair,
)
from invarbin import test_subset as held_out_subset  # noqa: E402
from invarbin.regression import predict  # noqa: E402

COLUMN_KINDS = (0.0, 1e-3, 1.0, 100.0, "binary", "near-duplicate")
FEW = settings(max_examples=30, deadline=None)


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
