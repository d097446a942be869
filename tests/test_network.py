import copy

import numpy as np
import pytest

from fedpart.network import (
    CHECKPOINT_CHUNK,
    AdamOptimizer,
    QNetwork,
    expected_weight_count,
    load_checkpoint,
    save_checkpoint,
)

from conftest import make_net, paper_net, subnormal_count


def td_loss(net: QNetwork, target_net: QNetwork, batch, gamma: float) -> float:
    """Mean squared TD error of a batch, eval-mode (no dropout), no update."""
    states, actions, rewards, next_states = batch
    q_next, _ = target_net.forward_cached(next_states, train=False)
    targets = np.asarray(rewards, dtype=net.dtype) + gamma * q_next.max(axis=1)
    q, _ = net.forward_cached(states, train=False)
    chosen = q[np.arange(len(actions)), actions]
    return float(np.mean((chosen - targets) ** 2))


NO_DROPOUT = (0.0, 0.0, 0.0)


class TestForward:
    def test_zero_weights_give_zero_q(self):
        net = make_net((5, 4, 4, 3, 3), NO_DROPOUT, 0, np.float64)
        net.set_weights(np.zeros(net.flat.size))
        q = net.forward(np.array([0.3, 0.2, 0.9, 0.1, 0.5]))
        assert np.array_equal(q, np.zeros(net.n_actions))

    def test_eval_mode_deterministic(self):
        net = paper_net(7, 1)
        x = np.random.default_rng(2).random(5)
        assert np.array_equal(net.forward(x), net.forward(x))

    def test_hand_computed_two_unit_net(self):
        """2-2-2 toy (one hidden ReLU layer of width 2) checked by hand."""
        net = make_net((2, 2, 2), (0.0,), 0, np.float64)
        w1 = np.array([[1.0, -1.0], [0.5, 2.0]])
        b1 = np.array([0.1, -0.2])
        w2 = np.array([[2.0, 0.0], [1.0, -1.0]])
        b2 = np.array([0.0, 0.5])
        net.set_weights(np.concatenate([w1.ravel(), b1, w2.ravel(), b2]))
        x = np.array([1.0, 2.0])
        # z1 = [1*1+2*0.5+0.1, 1*-1+2*2-0.2] = [2.1, 2.8]; relu keeps both
        # q = [2.1*2+2.8*1, 2.1*0+2.8*-1+0.5] = [7.0, -2.3]
        assert np.allclose(net.forward(x), [7.0, -2.3])

    def test_dimension_mismatch_rejected(self):
        net = make_net((5, 4, 4, 3, 3), NO_DROPOUT, 0, np.float64)
        with pytest.raises(ValueError):
            net.forward(np.zeros(4))

    def test_a_batch_is_rejected(self):
        """``forward`` is one state; batches go through ``forward_cached``."""
        net = make_net((5, 4, 4, 3, 3), NO_DROPOUT, 0, np.float64)
        with pytest.raises(ValueError, match="one state"):
            net.forward(np.zeros((2, 5)))
        with pytest.raises(ValueError, match="one state"):
            net.forward(np.zeros((1, 5)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dropout_mask_is_inverted(self, dtype):
        """Train-mode masks take only {0, 1/(1-r)} and average 1 per layer."""
        rates = (0.4, 0.3, 0.0)
        net = make_net((5, 64, 64, 32, 4), rates, 3, dtype)
        x = np.random.default_rng(4).random((8, 5))
        rng = np.random.default_rng(5)
        masks = {layer: [] for layer, r in enumerate(rates) if r > 0}
        for _ in range(200):
            _, (_, _, dropout_masks) = net.forward_cached(x, train=True, rng=rng)
            for layer in masks:
                masks[layer].append(dropout_masks[layer].copy())
        assert dropout_masks[2] is None
        one = net.dtype.type(1.0)
        for layer, drawn in masks.items():
            r = rates[layer]
            values = np.concatenate([m.ravel() for m in drawn]).astype(np.float64)
            assert set(np.unique(values)) == {0.0, float(one / net.dtype.type(1.0 - r))}
            # each entry has mean 1 and variance r / (1 - r)
            stderr = np.sqrt(r / (1.0 - r) / values.size)
            assert abs(values.mean() - 1.0) < 4.0 * stderr

    def test_dropout_inverted_scaling(self):
        """Dropout feeding the linear head leaves the mean output unbiased.

        Dropout on an earlier layer feeds a ReLU, and Jensen's inequality
        biases the mean output, so only the layer feeding the head is dropped
        here. The bound is in standard errors of the Monte-Carlo mean (|q| is
        about 0.01, below the noise of a relative bound).
        """
        x = np.random.default_rng(4).random((8, 5))

        def max_z(dropout_rates, draws=2000):
            net = make_net((5, 64, 64, 32, 4), dropout_rates, 3, np.float64)
            eval_q = net.forward_cached(x, train=False)[0].copy()
            rng = np.random.default_rng(5)
            q = np.stack([net.forward_cached(x, train=True, rng=rng)[0].copy()
                          for _ in range(draws)])
            stderr = q.std(axis=0, ddof=1) / np.sqrt(draws)
            return np.max(np.abs(q.mean(axis=0) - eval_q) / stderr)

        assert max_z((0.0, 0.0, 0.3)) < 4.5
        # the same statistic does see the bias of dropout ahead of a ReLU
        assert max_z((0.4, 0.3, 0.0)) > 10.0


def raw_keep(rng: np.random.Generator, rate: float, shape) -> np.ndarray:
    """The keep mask the documented rule gives: ``ceil(n / 4)`` raw words read
    as little-endian 16-bit words, kept where ``>= round(rate * 65536)``."""
    n = int(np.prod(shape))
    words = rng.bit_generator.random_raw(-(-n // 4)).astype("<u8")
    return (words.view("<u2")[:n] >= round(rate * 65536)).reshape(shape)


class TestDropoutMaskStream:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_odd_sized_masks_follow_the_raw_word_rule(self, dtype):
        """Batch 7 x width 3: 21 units take 6 words, the last one in part."""
        rates = (0.4, 0.3, 0.0)
        net = make_net((5, 3, 3, 3, 2), rates, 1, dtype)
        x = np.random.default_rng(2).random((7, 5))
        rng, twin = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(3):
            _, (_, _, dropout_masks) = net.forward_cached(x, train=True, rng=rng)
            for layer, rate in enumerate(rates[:2]):
                expected = raw_keep(twin, rate, (7, 3))
                scale = net.dtype.type(1.0) / net.dtype.type(1.0 - rate)
                assert dropout_masks[layer].dtype == dtype
                assert np.array_equal(dropout_masks[layer], np.where(expected, scale, 0.0))
            assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("rate", [0.4, 0.3, 0.1])
    def test_keep_fraction_is_the_quantised_rate(self, rate):
        net = make_net((5, 64, 4), (rate,), 3, np.float32)
        x = np.random.default_rng(4).random((512, 5))
        rng = np.random.default_rng(5)
        kept = [net.forward_cached(x, train=True, rng=rng)[1][2][0] > 0 for _ in range(20)]
        p = 1.0 - round(rate * 65536) / 65536
        n = 20 * 512 * 64
        assert abs(np.mean(kept) - p) < 4.0 * np.sqrt(p * (1.0 - p) / n)

    def test_eval_forward_draws_nothing(self):
        net = make_net((5, 8, 8, 4), (0.4, 0.3), 3, np.float32)
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        net.forward_cached(np.ones((7, 5)), train=False, rng=rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("rates", [(1.5, 0.3), (0.4, float("nan")), (0.999995, 0.0)])
    def test_bad_rates_are_rejected(self, rates):
        with pytest.raises(ValueError, match="dropout_rates"):
            make_net((5, 8, 8, 4), rates, 0, np.float32)


class TestGradients:
    @pytest.mark.parametrize("seed", range(5))
    def test_analytic_matches_central_differences(self, seed):
        rng = np.random.default_rng(seed)
        net = make_net((5, 6, 5, 4, 3), NO_DROPOUT, seed, np.float64)
        target = net.clone()
        target.set_weights(net.get_weights() + 0.1 * rng.standard_normal(net.flat.size))
        batch = (
            rng.random((7, 5)),
            rng.integers(0, 3, size=7),
            rng.standard_normal(7),
            rng.random((7, 5)),
        )
        gamma = 0.9

        q, cache = net.forward_cached(np.asarray(batch[0], dtype=np.float64), train=True)
        q_next, _ = target.forward_cached(np.asarray(batch[3], dtype=np.float64), train=False)
        targets = batch[2] + gamma * q_next.max(axis=1)
        rows = np.arange(7)
        td = q[rows, batch[1]] - targets
        grad_q = net.output_grad_buffer(7)
        grad_q[rows, batch[1]] = 2.0 * td / 7
        analytic = net.backward(cache, grad_q).copy()

        h = 1e-6
        flat = net.flat
        numeric = np.empty_like(analytic)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = td_loss(net, target, batch, gamma)
            flat[i] = orig - h
            down = td_loss(net, target, batch, gamma)
            flat[i] = orig
            numeric[i] = (up - down) / (2 * h)
        denom = np.maximum(np.abs(numeric), 1e-8)
        rel = np.abs(analytic - numeric) / denom
        mask = np.abs(numeric) > 1e-7  # ignore dead-unit zero gradients
        assert rel[mask].max() < 1e-4

    @pytest.mark.parametrize("seed", range(3))
    def test_dropout_gradients_match_central_differences(self, seed):
        """With dropout on, every evaluation replays the same masks.

        Each loss is computed from a copy of one dropout generator, so the
        masks are fixed and the loss is a smooth function of the weights away
        from ReLU kinks. Biases are drawn too: with zero biases, a row whose
        inputs are all dropped sits exactly on a kink.
        """
        rng = np.random.default_rng(seed)
        net = make_net((5, 6, 5, 4, 3), (0.4, 0.3, 0.0), seed, np.float64)
        net.set_weights(rng.uniform(-0.5, 0.5, net.flat.size))
        states = rng.random((7, 5))
        actions = rng.integers(0, 3, size=7)
        targets = rng.standard_normal(7)
        dropout_rng = np.random.default_rng(100 + seed)
        rows = np.arange(7)

        def loss() -> float:
            q, _ = net.forward_cached(states, train=True, rng=copy.deepcopy(dropout_rng))
            return float(np.mean((q[rows, actions] - targets) ** 2))

        q, cache = net.forward_cached(states, train=True, rng=copy.deepcopy(dropout_rng))
        assert (cache[2][0] == 0).any() and (cache[2][1] == 0).any()
        grad_q = net.output_grad_buffer(7)
        grad_q[rows, actions] = 2.0 * (q[rows, actions] - targets) / 7
        analytic = net.backward(cache, grad_q).copy()

        h = 1e-6
        flat = net.flat
        numeric = np.empty_like(analytic)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss()
            flat[i] = orig - h
            down = loss()
            flat[i] = orig
            numeric[i] = (up - down) / (2 * h)
        denom = np.maximum(np.abs(numeric), 1e-8)
        rel = np.abs(analytic - numeric) / denom
        mask = np.abs(numeric) > 1e-7
        assert rel[mask].max() < 1e-4
        assert np.all(np.abs(analytic[~mask]) < 1e-6)


class TestScratchLifetime:
    DIMS = (5, 16, 12, 8, 6)
    RATES = (0.4, 0.3, 0.0)

    def train_forward(self, net, x, seed):
        return net.forward_cached(x, train=True, rng=np.random.default_rng(seed))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_cache_survives_another_networks_forward(self, dtype):
        """Scratch belongs to one network: a twin of the same dims, dtype and
        batch runs a forward and backward without touching it."""
        rng = np.random.default_rng(4)
        net = make_net(self.DIMS, self.RATES, 1, dtype)
        twin = make_net(self.DIMS, self.RATES, 2, dtype)
        x = rng.random((9, 5))
        grad_q = rng.standard_normal((9, self.DIMS[-1])).astype(dtype)
        q, cache = self.train_forward(net, x, seed=7)
        held_q = q.copy()
        _, cache_twin = self.train_forward(twin, rng.random((9, 5)), seed=8)
        twin.backward(cache_twin, grad_q)
        assert np.array_equal(q, held_q)
        held_grad = net.backward(cache, grad_q).copy()
        _, fresh = self.train_forward(net, x, seed=7)
        assert np.array_equal(held_grad, net.backward(fresh, grad_q))

    def test_release_keeps_results_and_hands_storage_to_them(self):
        rng = np.random.default_rng(5)
        net = make_net(self.DIMS, self.RATES, 3, np.float32)
        x = rng.random((9, 5))
        grad_q = rng.standard_normal((9, self.DIMS[-1])).astype(np.float32)
        q, cache = self.train_forward(net, x, seed=7)
        held_q = q.copy()
        held_grad = net.backward(cache, grad_q).copy()
        net.release_scratch()
        q_again, cache_again = self.train_forward(net, x, seed=7)
        assert not np.shares_memory(q_again, q) and np.array_equal(q, held_q)
        assert np.array_equal(q_again, held_q)
        assert np.array_equal(net.backward(cache_again, grad_q), held_grad)


    def test_only_backward_allocates_a_gradient_and_release_drops_it(self):
        net = make_net(self.DIMS, self.RATES, 3, np.float32)
        target = net.clone()
        x = np.random.default_rng(6).random((9, 5))
        target.forward_cached(x, train=False)
        assert net.flat_grad is None and target.flat_grad is None
        _, cache = self.train_forward(net, x, seed=7)
        grad = net.backward(cache, np.ones((9, self.DIMS[-1]), np.float32))
        assert grad is net.flat_grad and grad.size == net.flat.size
        net.release_scratch()
        assert net.flat_grad is None


class TestWeightVector:
    def test_round_trip_identity(self):
        net = paper_net(9, 7)
        x = np.random.default_rng(8).random((4, 5))
        before = net.forward_cached(x, train=False)[0].copy()
        net.set_weights(net.get_weights())
        assert np.array_equal(net.forward_cached(x, train=False)[0], before)

    def test_two_nets_same_weights_same_outputs(self):
        a = paper_net(6, 1)
        b = paper_net(6, 2)
        b.set_weights(a.get_weights())
        x = np.random.default_rng(3).random((10, 5))
        q_a, _ = a.forward_cached(x, train=False)
        q_b, _ = b.forward_cached(x, train=False)
        assert np.array_equal(q_a, q_b)

    def test_length_formula(self):
        net = paper_net(106, 0)
        dims = (5, 100, 100, 60, 106)
        expected = sum(i * o + o for i, o in zip(dims[:-1], dims[1:]))
        assert net.get_weights().size == expected == expected_weight_count(dims)

    def test_length_mismatch_rejected(self):
        net = make_net((5, 4, 4, 3, 3), NO_DROPOUT, 0, np.float64)
        with pytest.raises(ValueError):
            net.set_weights(np.zeros(net.flat.size + 1))

    def test_clone_is_independent(self):
        net = make_net((5, 4, 4, 3, 3), NO_DROPOUT, 0, np.float64)
        twin = net.clone()
        net.flat[...] += 1.0
        assert not np.array_equal(net.flat, twin.flat)


class TestOptimizers:
    def test_adam_first_step_magnitude(self):
        # bias-corrected first step moves each coordinate by ~lr in -sign(grad)
        params = np.zeros(3)
        opt = AdamOptimizer(params, lr=0.1)
        opt.step(params, np.array([1.0, -2.0, 0.5]))
        assert np.allclose(params, [-0.1, 0.1, -0.1], atol=1e-6)

    def test_reset_clears_moments(self):
        params = np.zeros(2)
        opt = AdamOptimizer(params, lr=0.1)
        opt.step(params, np.ones(2))
        opt.reset()
        assert opt.t == 0
        assert not opt.m.any() and not opt.v.any()

    def test_adam_flushes_subnormal_moments_without_moving_weights(self):
        """Moments decaying past finfo.tiny under zero gradients are zeroed.

        Two cases: one gradient then 1500 zero ones, where the first moment
        gets there; and 1000 zero gradients from a small first moment and a
        second moment of 1.5 * tiny. Plain float32 Adam, written out here
        with the same operation order, leaves that moment stuck at a few ulp
        of subnormal. The parameters must agree bit for bit.
        """
        rng = np.random.default_rng(8)
        start = rng.uniform(-1.0, 1.0, size=64).astype(np.float32)
        zeros = np.zeros(64, np.float32)
        tiny = np.finfo(np.float32).tiny
        lr, b1, b2, eps = 0.04, 0.9, 0.999, 1e-8
        cases = [
            ("m", zeros, zeros, [rng.normal(size=64).astype(np.float32)] + [zeros] * 1500),
            ("v", rng.normal(scale=1e-12, size=64).astype(np.float32),
             np.full(64, 1.5 * tiny, np.float32), [zeros] * 1000),
        ]
        for stuck, m0, v0, grads in cases:
            params = start.copy()
            opt = AdamOptimizer(params, lr=lr, beta1=b1, beta2=b2, eps=eps)
            opt.m[...] = m0
            opt.v[...] = v0
            for g in grads:
                opt.step(params, g)

            ref, m, v = start.copy(), m0.copy(), v0.copy()
            for t, g in enumerate(grads, start=1):
                m = m * b1 + g * (1.0 - b1)
                v = v * b2 + np.square(g) * (1.0 - b2)
                mhat = m / (1.0 - b1**t)
                vhat = np.sqrt(v / (1.0 - b2**t)) + eps
                ref -= mhat / vhat * lr

            # the reference does reach the slow range
            assert subnormal_count({"m": m, "v": v}[stuck]) > 0, stuck
            assert subnormal_count(opt.m) == 0, stuck
            assert subnormal_count(opt.v) == 0, stuck
            assert not np.array_equal(ref, start), stuck
            assert np.array_equal(params.view(np.uint32), ref.view(np.uint32)), stuck


class BufferedAdam(AdamOptimizer):
    """Reference for ``AdamOptimizer.step``: the same operations into preallocated work arrays."""

    def __init__(self, params, lr):
        super().__init__(params, lr=lr)
        self._mhat = np.empty_like(params)
        self._vhat = np.empty_like(params)
        self._keep = np.empty(params.shape, dtype=bool)
        self.flushed = 0  # nonzero moment entries the flushes have zeroed

    def step(self, params, grad):
        self.t += 1
        b1, b2, tiny = self.beta1, self.beta2, np.finfo(params.dtype).tiny
        self.m *= b1
        self.m += np.multiply(grad, 1.0 - b1, out=self._mhat)
        np.greater_equal(np.abs(self.m, out=self._mhat), tiny, out=self._keep)
        self.flushed += int(np.count_nonzero(self.m[~self._keep]))
        self.m *= self._keep
        self.v *= b2
        self.v += np.multiply(np.square(grad, out=self._vhat), 1.0 - b2, out=self._vhat)
        np.greater_equal(self.v, tiny, out=self._keep)
        self.flushed += int(np.count_nonzero(self.v[~self._keep]))
        self.v *= self._keep
        np.divide(self.m, 1.0 - b1**self.t, out=self._mhat)
        np.divide(self.v, 1.0 - b2**self.t, out=self._vhat)
        np.sqrt(self._vhat, out=self._vhat)
        self._vhat += self.eps
        self._mhat /= self._vhat
        self._mhat *= self.lr
        params -= self._mhat


@pytest.mark.parametrize("dtype, small", [(np.float32, 1e-20), (np.float64, 1e-155)])
def test_adam_step_has_the_bits_of_the_buffered_step(dtype, small):
    """600 steps: ordinary gradients, then ones whose squares are subnormal,
    then zeros while both moments decay through the flush; a reset midway."""
    rng = np.random.default_rng(3)
    params = rng.uniform(-1.0, 1.0, size=257).astype(dtype)
    ref_params = params.copy()
    opt, ref = AdamOptimizer(params, lr=0.04), BufferedAdam(ref_params, lr=0.04)
    for t in range(600):
        scale = 10.0 ** rng.uniform(-3, 1) if t < 100 else small if t < 200 else 0.0
        grad = (rng.standard_normal(257) * scale * (rng.random(257) < 0.6)).astype(dtype)
        if t == 150:
            opt.reset()
            ref.reset()
        opt.step(params, grad)
        ref.step(ref_params, grad)
        for got, want in ((params, ref_params), (opt.m, ref.m), (opt.v, ref.v)):
            assert got.tobytes() == want.tobytes(), t
    assert ref.flushed > 0


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        net = paper_net(11, 4)
        path = tmp_path / "weights.ckpt"
        save_checkpoint(path, net.dims, net.get_weights())
        dims, weights = load_checkpoint(path)
        assert dims == net.dims
        assert np.array_equal(weights, net.get_weights())

        # Longer than one chunk: the text is one shortest repr per line.
        assert weights.size > CHECKPOINT_CHUNK
        expected = "dims=5,100,100,60,11\n" + "".join(f"{float(w)!r}\n" for w in weights)
        assert path.read_text(encoding="utf-8") == expected

    def test_wrong_count_rejected(self, tmp_path):
        net = make_net((5, 4, 4, 4, 3), (0.4, 0.3, 0.0), 0, np.float32)
        with pytest.raises(ValueError):
            save_checkpoint(tmp_path / "x.ckpt", net.dims, np.zeros(10))

    def test_corrupt_header_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text("nope\n1.0\n")
        with pytest.raises(ValueError, match="dims"):
            load_checkpoint(path)
