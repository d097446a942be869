import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedpart.metrics import moving_avg_violations


def naive_moving_average(flags, window):
    """Mean of the last ``window`` flags up to each step, or of all of them."""
    return [sum(flags[max(0, t - window):t]) / min(t, window) for t in range(1, len(flags) + 1)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.booleans(), max_size=60))
def test_matches_a_naive_sliding_mean(flags):
    for window in range(1, len(flags) + 2):
        got = moving_avg_violations(np.array(flags, dtype=bool), window)
        assert got.tolist() == naive_moving_average(flags, window)


def test_window_must_be_positive():
    with pytest.raises(ValueError):
        moving_avg_violations([True], 0)
