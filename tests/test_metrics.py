import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedpart.metrics import band, moving_avg_violations


def naive_moving_average(flags, window):
    """Mean of the last ``window`` flags up to each step, or of all of them."""
    return [sum(flags[max(0, t - window):t]) / min(t, window) for t in range(1, len(flags) + 1)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.booleans(), max_size=60))
def test_matches_a_naive_sliding_mean(flags):
    for window in range(1, len(flags) + 2):
        got = moving_avg_violations(np.array(flags, dtype=bool), window)
        assert got.tolist() == naive_moving_average(flags, window)


def two_branch_moving_average(history, window):
    """The head/tail form the one-expression version replaced, kept as its reference."""
    flags = np.asarray(history)
    if flags.size == 0:
        return np.empty(0)
    prefix = np.concatenate(([0], np.cumsum(flags.astype(np.int64))))
    t = np.arange(1, flags.size + 1)
    out = np.empty(flags.size)
    head = t < window
    out[head] = prefix[t[head]] / t[head]
    tail = ~head
    if tail.any():
        out[tail] = (prefix[t[tail]] - prefix[t[tail] - window]) / window
    return out


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 3000), st.integers(1, 1500), st.integers(0, 2**32 - 1))
@example(0, 1, 0)  # empty history
def test_has_the_bits_of_the_two_branch_form(length, window, seed):
    flags = np.random.default_rng(seed).random(length) < 0.3
    got = moving_avg_violations(flags, window)
    expected = two_branch_moving_average(flags, window)
    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


def test_window_must_be_positive():
    with pytest.raises(ValueError):
        moving_avg_violations([True], 0)


finite = st.floats(-1e6, 1e6, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(finite, max_size=12), min_size=1, max_size=5))
def test_band_cuts_ragged_runs_to_the_shortest(runs):
    n = min(len(r) for r in runs)
    got = band(runs)
    expected = band([r[:n] for r in runs])
    for a, b in zip(got, expected):
        assert a.size == n and a.tolist() == b.tolist()
    stacked = np.array([r[:n] for r in runs], dtype=np.float64).reshape(len(runs), n)
    assert got[1].tolist() == stacked.min(axis=0).tolist()
    assert got[2].tolist() == stacked.max(axis=0).tolist()


@given(st.lists(finite, max_size=12))
def test_band_of_one_run_is_that_run(run):
    mean, mn, mx = band([run])
    assert mean.tolist() == mn.tolist() == mx.tolist() == run


def test_band_needs_a_run():
    with pytest.raises(ValueError):
        band([])
