"""Self-contained DQN learner: replay buffer, TD updates, target network.

One agent owns one environment, one replay buffer (persistent across
federation rounds) and two networks (online and frozen target). Rewards are
negated environment costs. The agent's validation probe runs a greedy,
learning-free evaluation episode on a separate environment at a fixed
training-step schedule, leaving the training trajectory untouched.

TD targets bootstrap from ``max_a Q_target(s')``, which the replay buffer
caches per slot. The target weights change only when the agent syncs them
from the online network or installs new weights, and the agent invalidates
the cache at exactly those two points. The cached values equal, bit for bit,
those of one eval-mode target forward over a batch of 512 sampled rows,
because they are computed in zero-padded blocks of ``TARGET_BLOCK`` = 128
rows: with NumPy's bundled OpenBLAS 0.3.31 (``DYNAMIC_ARCH``) on a 2-core
x86-64 Xeon, a row's result is the same in blocks of 128, 256 and 512 rows,
while unpadded forwards of a few rows take other kernels and differ in the
last bits. On another CPU or BLAS the equality has to be checked again
(``tests/test_agent.py`` pins it).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .env import OBS_DIM, STEP_LOG, OffloadEnv
from .network import AdamOptimizer, QNetwork, drop_threshold


TARGET_BLOCK = 128  # rows per zero-padded target forward that refreshes the cache


class ReplayBuffer:
    """Fixed-capacity FIFO ring of transitions, each state stored once, with cached targets.

    ``push`` takes transitions of one continuing trajectory: each push's
    ``state`` equals the previous push's ``next_state``. So a slot's next
    state is the state of the slot written after it, and only the newest
    transition's next state needs a row of its own: ``states`` has
    ``capacity + 1`` rows, the last of them that one. ``states[:len(buffer)]``
    are the stored transitions' states.

    Next to each slot, ``next_q`` holds the target network's
    ``max_a Q_target(s')`` for its next state, valid where ``stale`` is False.
    ``push`` marks the slot it writes stale, and ``invalidate`` marks every slot stale;
    call it whenever the target weights change. When ``sample`` draws a stale
    slot, it first recomputes every stale slot in eval-mode forwards of
    ``TARGET_BLOCK`` rows, zero-padded. Blocks of at least 128 rows give the
    same bits as a 512-row forward on the OpenBLAS this was measured with
    (module docstring); unpadded small batches do not. Actions are stored in
    the smallest unsigned type that holds ``n_actions - 1``. The arrays start
    uninitialised: ``sample`` reads only slots below ``len(buffer)``, and
    ``next_q`` only where a refresh wrote it.
    """

    def __init__(self, capacity: int, state_dim: int, n_actions: int, dtype):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.states = np.empty((capacity + 1, state_dim), dtype=dtype)
        self.actions = np.empty(capacity, dtype=np.min_scalar_type(n_actions - 1))
        self.rewards = np.empty(capacity, dtype=dtype)
        self.next_q = np.empty(capacity, dtype=dtype)
        self.stale = np.ones(capacity, dtype=bool)
        self.size = 0
        self._head = 0

    def __len__(self) -> int:
        return self.size

    def push(self, state, action: int, reward: float, next_state) -> None:
        """Store a transition; ``state`` must equal the previous push's ``next_state``."""
        i = self._head
        self.states[i] = state
        self.actions[i] = action
        self.rewards[i] = reward
        self.states[self.capacity] = next_state
        self.stale[i] = True
        self._head = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def invalidate(self) -> None:
        self.stale.fill(True)

    def sample(self, batch_size: int, rng: np.random.Generator, target_net: QNetwork):
        """Uniform sample with replacement as (states, actions, rewards, next_q).

        ``next_q`` is ``max_a Q_target(s')`` under ``target_net``, whose
        weights must not have changed since the last ``invalidate``.
        """
        if batch_size > self.size:
            raise ValueError(f"batch size {batch_size} exceeds buffer size {self.size}")
        idx = rng.integers(0, self.size, size=batch_size)
        if self.stale[idx].any():
            stale = np.flatnonzero(self.stale[: self.size])
            next_rows = (stale + 1) % self.capacity
            next_rows[stale == (self._head - 1) % self.capacity] = self.capacity
            block_shape = (TARGET_BLOCK, self.states.shape[1])
            for start in range(0, stale.size, TARGET_BLOCK):
                rows = stale[start : start + TARGET_BLOCK]
                block = np.zeros(block_shape, dtype=self.states.dtype)
                block[: rows.size] = self.states[next_rows[start : start + TARGET_BLOCK]]
                q, _ = target_net.forward_cached(block, train=False)
                self.next_q[rows] = q[: rows.size].max(axis=1)
            self.stale[stale] = False
        return self.states[idx], self.actions[idx], self.rewards[idx], self.next_q[idx]


def select_action(
    net: QNetwork, state: np.ndarray, epsilon: float, rng: np.random.Generator
) -> int:
    """Epsilon-greedy over eval-mode q-values; argmax ties go to the lowest index."""
    if not (0.0 <= epsilon <= 1.0):
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(0, net.n_actions))
    return int(np.argmax(net.forward(state)))


def train_step(
    net: QNetwork,
    batch,
    gamma: float,
    optimizer,
    rng: np.random.Generator,
) -> float:
    """One gradient step on the squared TD error; returns the pre-update loss.

    ``batch`` is (states, actions, rewards, next_q), where ``next_q`` holds
    ``max_a Q_target(s')`` per row from the frozen target network, as
    ``ReplayBuffer.sample`` returns it from its cache. The target is a
    constant here; the online forward runs in training mode so dropout is
    active. The task is continuing, so targets always bootstrap.
    """
    states, actions, rewards, next_q = batch
    states = np.asarray(states, dtype=net.dtype)
    actions = np.asarray(actions)
    next_q = np.asarray(next_q, dtype=net.dtype)
    targets = np.asarray(rewards, dtype=net.dtype) + net.dtype.type(gamma) * next_q

    q, cache = net.forward_cached(states, train=True, rng=rng)
    rows = np.arange(len(actions))
    td = q[rows, actions] - targets
    # The same bits as np.mean of the float64 squares, without its overhead.
    loss = float(np.add.reduce(np.square(td, dtype=np.float64))) / len(td)

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
        if not self.lr > 0.0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if any(width < 1 for width in self.hidden):
            raise ValueError(f"hidden widths must be >= 1, got {self.hidden}")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"dtype must be float32 or float64, got {self.dtype!r}")
        if len(self.dropout_rates) != len(self.hidden):
            raise ValueError(
                f"dropout_rates needs one rate per hidden layer ({len(self.hidden)}), "
                f"got {len(self.dropout_rates)}"
            )
        for rate in self.dropout_rates:
            drop_threshold(rate)

    def dims(self, n_actions: int) -> tuple[int, ...]:
        """Network layer widths, input to output, as a checkpoint records them."""
        return (OBS_DIM, *self.hidden, n_actions)

    def network(self, n_actions: int, rng: np.random.Generator) -> QNetwork:
        """A fresh online network over the env's observation, its weights drawn from ``rng``."""
        return QNetwork(self.dims(n_actions), self.dropout_rates, rng=rng, dtype=self.dtype)


class ValidationProbe:
    """Greedy evaluation episodes on a dedicated environment.

    Runs ``steps`` greedy (epsilon = 0) decisions every ``interval``
    training steps. No exploration, no gradient updates, no buffer writes:
    training RNG streams and state are bit-identical whatever the probe's
    schedule.
    """

    def __init__(self, env: OffloadEnv, steps: int, interval: int):
        if steps < 1 or interval < 1:
            raise ValueError("steps and interval must be >= 1")
        self.env = env
        self.steps = steps
        self.interval = interval
        self.steps_trained: list[int] = []
        self.rates: list[float] = []

    def due(self, total_steps: int) -> bool:
        return total_steps % self.interval == 0

    def run(self, net: QNetwork, total_steps: int) -> float:
        violations = 0
        for _ in range(self.steps):
            action = int(np.argmax(net.forward(self.env.observe())))
            violations += int(self.env.step(action).violated)
        rate = violations / self.steps
        self.steps_trained.append(total_steps)
        self.rates.append(rate)
        return rate


class DQNAgent:
    """Per-agent inner training loop with persistent buffer and counters.

    ``log`` holds one ``STEP_LOG`` row per step of the last training phase;
    keeping the whole history is the caller's choice. ``set_weights`` builds
    the target network afresh from the installed weights, so a caller may
    drop ``target_net`` between a phase and the next ``set_weights``.
    """

    def __init__(
        self,
        env: OffloadEnv,
        settings: AgentSettings,
        seed: np.random.SeedSequence,
        validation: ValidationProbe,
    ):
        net_seq, action_seq, dropout_seq, sample_seq = seed.spawn(4)
        self.env = env
        self.settings = settings
        self.net = settings.network(env.n_actions, np.random.default_rng(net_seq))
        self.target_net = self.net.clone()
        self.optimizer = AdamOptimizer(self.net.flat, lr=settings.lr)
        self.buffer = ReplayBuffer(settings.buffer_capacity, OBS_DIM, env.n_actions, self.net.dtype)
        self.validation = validation
        self._action_rng = np.random.default_rng(action_seq)
        self._dropout_rng = np.random.default_rng(dropout_seq)
        self._sample_rng = np.random.default_rng(sample_seq)
        self._state_vec = env.observe()
        self.total_steps = 0
        self.grad_updates = 0
        self.log = np.zeros(0, dtype=STEP_LOG)

    def set_weights(self, flat: np.ndarray) -> None:
        """Install weights into both networks and restart optimizer moments.

        The target network is a fresh clone of the online one, which holds
        the same bits as ``flat`` cast into its own.
        """
        self.net.set_weights(flat)
        self.target_net = self.net.clone()
        self.buffer.invalidate()
        self.optimizer.reset()

    def sync_target(self) -> None:
        self.target_net.set_weights(self.net.flat)
        self.buffer.invalidate()

    def run_training_phase(self, steps: int) -> None:
        """Interact, store, and learn for ``steps`` environment decisions.

        Learning starts as soon as the buffer can fill a batch: a gradient
        update follows every step whose total step count is divisible by
        ``train_every`` once the buffer holds ``batch_size`` transitions.
        With ``train_every = 1`` the first update therefore comes on the step
        whose push brings the buffer to ``batch_size`` (a fresh agent takes
        ``batch_size - 1`` steps without one). The target network is synced
        after every ``target_update_freq`` updates.

        ``log`` then holds the phase's ``STEP_LOG`` rows. Both networks free
        their scratch buffers on return: agents train one at a time, so only
        the training agent holds a batch's worth, and the next phase
        allocates them again.
        """
        settings = self.settings
        self.log = np.zeros(steps, dtype=STEP_LOG)
        for i in range(steps):
            if self.validation.due(self.total_steps):
                self.validation.run(self.net, self.total_steps)
            state = self._state_vec
            action = select_action(self.net, state, settings.epsilon, self._action_rng)
            step = self.env.step(action)
            self.log[i] = step
            next_state = self.env.observe()
            self.buffer.push(state, action, -step.cost, next_state)
            self._state_vec = next_state
            self.total_steps += 1
            if (
                len(self.buffer) >= settings.batch_size
                and self.total_steps % settings.train_every == 0
            ):
                batch = self.buffer.sample(settings.batch_size, self._sample_rng, self.target_net)
                train_step(self.net, batch, settings.gamma, self.optimizer, self._dropout_rng)
                self.grad_updates += 1
                if self.grad_updates % settings.target_update_freq == 0:
                    self.sync_target()
        self.net.release_scratch()
        self.target_net.release_scratch()

    def finalize_validation(self) -> None:
        """Run the probe at the final step count if the schedule lands on it."""
        if self.validation.due(self.total_steps):
            self.validation.run(self.net, self.total_steps)
