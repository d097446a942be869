import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fedpart.agent import DQNAgent
from fedpart.federation import (
    AggregationState,
    FederationConfig,
    aggregate_incremental,
    aggregate_mean,
    run_federation,
)

from conftest import make_tiny_env


@st.composite
def vector_sets(draw):
    length = draw(st.integers(1, 16))
    values = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    vectors = draw(st.lists(arrays(np.float64, length, elements=values), min_size=1, max_size=12))
    return draw(st.permutations(vectors))


class TestAggregation:
    @settings(max_examples=200, deadline=None)
    @given(vector_sets())
    def test_incremental_fold_equals_mean(self, vectors):
        state = AggregationState(vectors[0].copy(), 1)
        for theta in vectors[1:]:
            state = aggregate_incremental(state, theta)
        assert state.contributor_count == len(vectors)
        # Each fold rounds three times (scale, add, divide), each within eps of
        # a value bounded by the largest magnitude, or within half the
        # smallest subnormal; earlier errors shrink by count / (count + 1).
        # np.mean's own error is below one fold's.
        info = np.finfo(np.float64)
        scale = max(float(np.abs(v).max()) for v in vectors)
        tol = 4 * len(vectors) * (info.eps * scale + info.smallest_subnormal)
        assert np.abs(state.current - aggregate_mean(vectors)).max() <= tol


class _Builder:
    """Tiny agents; agent ``poisoned`` returns a NaN weight after its second phase."""

    def __init__(self, profile, settings, poisoned):
        self.profile = profile
        self.settings = settings
        self.poisoned = poisoned

    def build(self, index, seq):
        agent = DQNAgent(make_tiny_env(self.profile, seed=index), self.settings, seed=seq)
        if index == self.poisoned:
            train = agent.run_training_phase

            def run_training_phase(steps):
                train(steps)
                if agent.total_steps > steps:
                    agent.net.flat[3] = np.nan

            agent.run_training_phase = run_training_phase
        return agent

    def network_spec(self):
        return {
            "n_actions": self.profile.n_configs + 1,
            "hidden": self.settings.hidden,
            "dropout_rates": self.settings.dropout_rates,
            "dtype": np.dtype(self.settings.dtype),
        }


class TestRunFederation:
    @pytest.mark.parametrize("mode, slow", [("sync", 0.0), ("async", 0.34)])
    def test_non_finite_weights_name_agent_and_iteration(
        self, tiny_profile, tiny_settings, mode, slow
    ):
        config = FederationConfig(m_agents=3, n_iterations=3, freq_updates=20, mode=mode,
                                  proportion_slow=slow, master_seed=2)
        builder = _Builder(tiny_profile, tiny_settings, poisoned=1)
        with pytest.raises(FloatingPointError, match=r"agent 1 .* iteration 1$"):
            run_federation(config, builder)

    def test_finite_run_completes(self, tiny_profile, tiny_settings):
        config = FederationConfig(m_agents=3, n_iterations=3, freq_updates=20, master_seed=2)
        result = run_federation(config, _Builder(tiny_profile, tiny_settings, poisoned=None))
        assert np.isfinite(result.final_weights).all()
        assert len(result.schedule_rows) == 9
