"""Self-contained DQN learner: replay buffer, TD updates, target network.

One agent owns one environment, one replay buffer (persistent across
federation rounds) and two networks (online and frozen target). Rewards are
negated environment costs. An optional validation probe runs a greedy,
learning-free evaluation episode on a separate environment at a fixed
training-step schedule, leaving the training trajectory untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .env import STEP_LOG, OffloadEnv, log_step
from .network import QNetwork, make_optimizer


class ReplayBuffer:
    """Fixed-capacity FIFO ring over preallocated arrays."""

    def __init__(self, capacity: int = 10000, state_dim: int = 5, dtype=np.float32):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.states = np.zeros((capacity, state_dim), dtype=dtype)
        self.actions = np.zeros(capacity, dtype=np.int64)
        self.rewards = np.zeros(capacity, dtype=dtype)
        self.next_states = np.zeros((capacity, state_dim), dtype=dtype)
        self.size = 0
        self._head = 0

    def __len__(self) -> int:
        return self.size

    def push(self, state, action: int, reward: float, next_state) -> None:
        i = self._head
        self.states[i] = state
        self.actions[i] = action
        self.rewards[i] = reward
        self.next_states[i] = next_state
        self._head = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator):
        """Uniform sample with replacement as (states, actions, rewards, next_states)."""
        if batch_size > self.size:
            raise ValueError(f"batch size {batch_size} exceeds buffer size {self.size}")
        idx = rng.integers(0, self.size, size=batch_size)
        return (
            self.states[idx],
            self.actions[idx],
            self.rewards[idx],
            self.next_states[idx],
        )


def select_action(
    net: QNetwork, state: np.ndarray, epsilon: float, rng: np.random.Generator
) -> int:
    """Epsilon-greedy over eval-mode q-values; argmax ties go to the lowest index."""
    if not (0.0 <= epsilon <= 1.0):
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(0, net.n_actions))
    return int(np.argmax(net.forward(state)))


def td_loss(net: QNetwork, target_net: QNetwork, batch, gamma: float) -> float:
    """Mean squared TD error of a batch, eval-mode (no dropout), no update."""
    states, actions, rewards, next_states = batch
    q_next = target_net.forward(np.asarray(next_states, dtype=target_net.dtype))
    targets = np.asarray(rewards, dtype=net.dtype) + gamma * q_next.max(axis=1)
    q = net.forward(np.asarray(states, dtype=net.dtype))
    chosen = q[np.arange(len(actions)), actions]
    return float(np.mean((chosen - targets) ** 2))


def train_step(
    net: QNetwork,
    target_net: QNetwork,
    batch,
    gamma: float,
    optimizer,
    rng: np.random.Generator | None = None,
) -> float:
    """One gradient step on the squared TD error; returns the pre-update loss.

    Targets come from the frozen target network (eval mode, treated as
    constant); the online forward runs in training mode so dropout is
    active. The task is continuing, so targets always bootstrap.
    """
    states, actions, rewards, next_states = batch
    states = np.asarray(states, dtype=net.dtype)
    actions = np.asarray(actions)
    q_next, _ = target_net.forward_cached(
        np.asarray(next_states, dtype=target_net.dtype), train=False
    )
    targets = np.asarray(rewards, dtype=net.dtype) + net.dtype.type(gamma) * q_next.max(axis=1)

    q, cache = net.forward_cached(states, train=True, rng=rng)
    rows = np.arange(len(actions))
    td = q[rows, actions] - targets
    loss = float(np.mean(td.astype(np.float64) ** 2))

    grad_q = net.output_grad_buffer(len(actions))
    grad_q[rows, actions] = (2.0 / len(actions)) * td
    grad = net.backward(cache, grad_q)
    optimizer.step(net.flat, grad)
    return loss


@dataclass(frozen=True)
class AgentSettings:
    """DQN hyperparameters (defaults match the experiment parameter table)."""

    hidden: tuple[int, ...] = (100, 100, 60)
    dropout_rates: tuple[float, ...] = (0.4, 0.3, 0.0)
    lr: float = 0.04
    gamma: float = 0.99
    epsilon: float = 0.05
    batch_size: int = 512
    buffer_capacity: int = 10000
    target_update_freq: int = 400
    train_every: int = 1
    optimizer: str = "adam"
    dtype: str = "float32"

    def __post_init__(self) -> None:
        if not (0.0 <= self.gamma <= 1.0):
            raise ValueError("gamma must be in [0, 1]")
        if not (0.0 <= self.epsilon <= 1.0):
            raise ValueError("epsilon must be in [0, 1]")
        if self.batch_size < 1 or self.buffer_capacity < self.batch_size:
            raise ValueError("need buffer_capacity >= batch_size >= 1")
        if self.target_update_freq < 1 or self.train_every < 1:
            raise ValueError("target_update_freq and train_every must be >= 1")


class ValidationProbe:
    """Greedy evaluation episodes on a dedicated environment.

    Runs ``steps`` greedy (epsilon = 0) decisions every ``interval``
    training steps. No exploration, no gradient updates, no buffer writes:
    training RNG streams and state are bit-identical with or without the
    probe attached.
    """

    def __init__(
        self,
        env: OffloadEnv,
        steps: int = 300,
        interval: int = 250,
        include_initial: bool = True,
    ):
        if steps < 1 or interval < 1:
            raise ValueError("steps and interval must be >= 1")
        self.env = env
        self.steps = steps
        self.interval = interval
        self.include_initial = include_initial
        self.phase_indices: list[int] = []
        self.steps_trained: list[int] = []
        self.rates: list[float] = []
        self._last_run_at = -1

    def due(self, total_steps: int) -> bool:
        if total_steps % self.interval != 0 or total_steps == self._last_run_at:
            return False
        if total_steps == 0 and not self.include_initial:
            return False
        return True

    def run(self, net: QNetwork, total_steps: int) -> float:
        violations = 0
        for _ in range(self.steps):
            action = int(np.argmax(net.forward(self.env.observe())))
            outcome = self.env.step(action)
            violations += int(outcome.violated)
        rate = violations / self.steps
        self.phase_indices.append(total_steps // self.interval)
        self.steps_trained.append(total_steps)
        self.rates.append(rate)
        self._last_run_at = total_steps
        return rate


class DQNAgent:
    """Per-agent inner training loop with persistent buffer and counters.

    ``log`` holds one ``STEP_LOG`` row per training step, across phases.
    """

    def __init__(
        self,
        env: OffloadEnv,
        settings: AgentSettings = AgentSettings(),
        seed=0,
        validation: ValidationProbe | None = None,
    ):
        seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        net_seq, action_seq, dropout_seq, sample_seq = seq.spawn(4)
        self.env = env
        self.settings = settings
        dtype = np.dtype(settings.dtype)
        self.net = QNetwork(
            env.n_actions,
            hidden=settings.hidden,
            dropout_rates=settings.dropout_rates,
            rng=np.random.default_rng(net_seq),
            dtype=dtype,
        )
        self.target_net = self.net.clone()
        self.optimizer = make_optimizer(settings.optimizer, self.net.flat, settings.lr)
        self.buffer = ReplayBuffer(settings.buffer_capacity, state_dim=5, dtype=dtype)
        self.validation = validation
        self._action_rng = np.random.default_rng(action_seq)
        self._dropout_rng = np.random.default_rng(dropout_seq)
        self._sample_rng = np.random.default_rng(sample_seq)
        self._state_vec = env.observe()
        self.total_steps = 0
        self.grad_updates = 0
        self.log = np.zeros(0, dtype=STEP_LOG)

    def get_weights(self) -> np.ndarray:
        return self.net.get_weights()

    def set_weights(self, flat: np.ndarray) -> None:
        """Install weights into both networks and restart optimizer moments."""
        self.net.set_weights(flat)
        self.target_net.set_weights(flat)
        self.optimizer.reset()

    def sync_target(self) -> None:
        self.target_net.copy_weights_from(self.net)

    def run_training_phase(self, steps: int) -> None:
        """Interact, store, and learn for ``steps`` environment decisions.

        Learning starts as soon as the buffer can fill a batch: a gradient
        update follows every step whose total step count is divisible by
        ``train_every`` once the buffer holds ``batch_size`` transitions.
        With ``train_every = 1`` the first update therefore comes on the step
        whose push brings the buffer to ``batch_size`` (a fresh agent takes
        ``batch_size - 1`` steps without one). The target network is synced
        after every ``target_update_freq`` updates.
        """
        settings = self.settings
        self.log = np.concatenate((self.log[: self.total_steps], np.zeros(steps, dtype=STEP_LOG)))
        for _ in range(steps):
            if self.validation is not None and self.validation.due(self.total_steps):
                self.validation.run(self.net, self.total_steps)
            state = self._state_vec
            action = select_action(self.net, state, settings.epsilon, self._action_rng)
            outcome = self.env.step(action)
            next_state = self.env.observe()
            self.buffer.push(state, action, -outcome.cost, next_state)
            self._state_vec = next_state
            log_step(self.log, self.total_steps, outcome)
            self.total_steps += 1
            if (
                len(self.buffer) >= settings.batch_size
                and self.total_steps % settings.train_every == 0
            ):
                batch = self.buffer.sample(settings.batch_size, self._sample_rng)
                train_step(
                    self.net,
                    self.target_net,
                    batch,
                    settings.gamma,
                    self.optimizer,
                    self._dropout_rng,
                )
                self.grad_updates += 1
                if self.grad_updates % settings.target_update_freq == 0:
                    self.sync_target()

    def finalize_validation(self) -> None:
        """Run the probe at the final step count if the schedule lands on it."""
        if self.validation is not None and self.validation.due(self.total_steps):
            self.validation.run(self.net, self.total_steps)
