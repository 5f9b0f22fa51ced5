import numpy as np
import pytest

from invarbin import (
    MethodAggregate,
    RunSummary,
    ValidationError,
    accuracy,
    aggregate_replicates,
    mse,
)


def test_accuracy_and_mse_basics():
    labels = np.array([1, 0, 1, 1])
    truth = np.array([1, 0, 0, 1])
    assert accuracy(labels, truth) == 0.75
    probs = np.array([1.0, 0.0, 1.0, 0.5])
    assert mse(probs, truth) == pytest.approx((1.0 + 0.25) / 4.0)


def test_metrics_validate_shapes():
    with pytest.raises(ValidationError):
        accuracy(np.array([1, 0]), np.array([1]))
    with pytest.raises(ValidationError):
        mse(np.array([]), np.array([]))


def summaries():
    out = []
    for r, acc in enumerate((0.9, 0.8, 0.7)):
        out.append(
            RunSummary(
                method="alpha",
                replicate=r,
                accuracy=acc,
                mse=1.0 - acc,
                abstained=False,
            )
        )
    out.append(
        RunSummary(method="beta", replicate=0, accuracy=None, mse=None, abstained=True)
    )
    out.append(
        RunSummary(method="beta", replicate=1, accuracy=0.5, mse=0.25, abstained=False)
    )
    return out


def test_aggregate_groups_and_medians():
    aggs = {a.method: a for a in aggregate_replicates(summaries())}
    assert aggs["alpha"].n_replicates == 3
    assert aggs["alpha"].n_abstained == 0
    assert aggs["alpha"].acc_median == pytest.approx(0.8)
    assert aggs["alpha"].acc_q1 == pytest.approx(0.75)
    assert aggs["alpha"].acc_q3 == pytest.approx(0.85)
    assert aggs["beta"].n_abstained == 1
    assert aggs["beta"].abstention_rate == pytest.approx(0.5)
    # quartiles computed over the non-abstaining replicate only
    assert aggs["beta"].acc_median == pytest.approx(0.5)


def test_aggregate_all_abstained_gives_none():
    rows = [
        RunSummary(method="m", replicate=r, accuracy=None, mse=None, abstained=True)
        for r in range(3)
    ]
    (agg,) = aggregate_replicates(rows)
    assert agg.acc_median is None
    assert agg.mse_median is None
    assert agg.abstention_rate == 1.0


def test_aggregate_is_permutation_invariant():
    rows = summaries()
    forward = aggregate_replicates(rows)
    backward = aggregate_replicates(list(reversed(rows)))
    assert forward == backward


def test_aggregate_output_sorted_by_method():
    methods = [a.method for a in aggregate_replicates(summaries())]
    assert methods == sorted(methods)


def test_run_summary_default_seconds_zero():
    s = RunSummary(method="m", replicate=0, accuracy=1.0, mse=0.0, abstained=False)
    assert s.seconds == 0.0
    assert s.n_pairs == 0


def test_method_aggregate_is_frozen():
    (agg,) = aggregate_replicates(
        [RunSummary(method="m", replicate=0, accuracy=0.5, mse=0.25, abstained=False)]
    )
    assert isinstance(agg, MethodAggregate)
    with pytest.raises(AttributeError):
        agg.acc_median = 0.9
