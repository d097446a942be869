"""Evaluation measures: sliding-window violation averages and multi-run
min/mean/max bands."""

from __future__ import annotations

import numpy as np


def moving_avg_violations(history, window: int) -> np.ndarray:
    """Moving average of a 0/1 violation history.

    For step t (1-based) the value is the mean of the first t entries while
    t < window, then the mean of the trailing ``window`` entries. Integer
    prefix sums keep the incremental computation exact; division happens
    only at read-out.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    flags = np.asarray(history)
    prefix = np.concatenate(([0], np.cumsum(flags.astype(np.int64))))
    t = np.arange(1, flags.size + 1)
    return (prefix[t] - prefix[np.maximum(t - window, 0)]) / np.minimum(t, window)


class MovingViolations:
    """``moving_avg_violations`` of a history that arrives in pieces.

    It carries the last ``window`` flags, and ``steps`` counts the flags so
    far. Each piece's values equal, bit for bit, those of the whole history
    at the same steps: before step ``window`` the carried flags are the whole
    history, and from then on each of the piece's values averages the last
    ``window`` flags, which the carried flags and the piece hold.
    """

    def __init__(self, window: int = 1000):
        self.window = window
        self.steps = 0
        self._last = np.zeros(0, dtype=bool)

    def extend(self, flags) -> np.ndarray:
        """The moving averages at the steps of ``flags``, the next flags of the history."""
        history = np.concatenate((self._last, flags))
        values = moving_avg_violations(history, self.window)[self._last.size :]
        self._last = history[-self.window :].copy()
        self.steps += values.size
        return values


def band(runs: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pointwise (mean, min, max) across per-run series, cut to the shortest."""
    if not runs:
        raise ValueError("need at least one run")
    n = min(len(r) for r in runs)
    stacked = np.stack([np.asarray(r[:n], dtype=np.float64) for r in runs])
    return stacked.mean(axis=0), stacked.min(axis=0), stacked.max(axis=0)
