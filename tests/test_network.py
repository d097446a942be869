import numpy as np
import pytest

from fedpart.agent import td_loss
from fedpart.network import (
    CHECKPOINT_CHUNK,
    AdamOptimizer,
    QNetwork,
    SGDOptimizer,
    expected_weight_count,
    load_checkpoint,
    make_optimizer,
    save_checkpoint,
)

from conftest import subnormal_count


def toy_net(n_actions=3, hidden=(4, 4, 3), dropout=(0.0, 0.0, 0.0), seed=0, dtype=np.float64):
    return QNetwork(
        n_actions,
        hidden=hidden,
        dropout_rates=dropout,
        input_dim=5,
        rng=np.random.default_rng(seed),
        dtype=dtype,
    )


class TestForward:
    def test_zero_weights_give_zero_q(self):
        net = toy_net()
        net.set_weights(np.zeros(net.flat.size))
        q = net.forward(np.array([0.3, 0.2, 0.9, 0.1, 0.5]))
        assert np.array_equal(q, np.zeros(net.n_actions))

    def test_eval_mode_deterministic(self):
        net = QNetwork(7, rng=np.random.default_rng(1))
        x = np.random.default_rng(2).random((16, 5))
        assert np.array_equal(net.forward(x), net.forward(x))

    def test_hand_computed_two_unit_net(self):
        """2-2-2 toy (one hidden ReLU layer of width 2) checked by hand."""
        net = QNetwork(2, hidden=(2,), dropout_rates=(0.0,), input_dim=2,
                       rng=np.random.default_rng(0), dtype=np.float64)
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
        net = toy_net()
        with pytest.raises(ValueError):
            net.forward(np.zeros(4))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dropout_mask_is_inverted(self, dtype):
        """Train-mode masks take only {0, 1/(1-r)} and average 1 per layer."""
        rates = (0.4, 0.3, 0.0)
        net = QNetwork(4, hidden=(64, 64, 32), dropout_rates=rates,
                       rng=np.random.default_rng(3), dtype=dtype)
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
            net = QNetwork(4, hidden=(64, 64, 32), dropout_rates=dropout_rates,
                           rng=np.random.default_rng(3), dtype=np.float64)
            eval_q = net.forward(x)
            rng = np.random.default_rng(5)
            q = np.stack([net.forward(x, train=True, rng=rng) for _ in range(draws)])
            stderr = q.std(axis=0, ddof=1) / np.sqrt(draws)
            return np.max(np.abs(q.mean(axis=0) - eval_q) / stderr)

        assert max_z((0.0, 0.0, 0.3)) < 4.5
        # the same statistic does see the bias of dropout ahead of a ReLU
        assert max_z((0.4, 0.3, 0.0)) > 10.0


class TestGradients:
    @pytest.mark.parametrize("seed", range(5))
    def test_analytic_matches_central_differences(self, seed):
        rng = np.random.default_rng(seed)
        net = toy_net(n_actions=3, hidden=(6, 5, 4), seed=seed)
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


class TestWeightVector:
    def test_round_trip_identity(self):
        net = QNetwork(9, rng=np.random.default_rng(7))
        x = np.random.default_rng(8).random((4, 5))
        before = net.forward(x)
        net.set_weights(net.get_weights())
        assert np.array_equal(net.forward(x), before)

    def test_two_nets_same_weights_same_outputs(self):
        a = QNetwork(6, rng=np.random.default_rng(1))
        b = QNetwork(6, rng=np.random.default_rng(2))
        b.set_weights(a.get_weights())
        x = np.random.default_rng(3).random((10, 5))
        assert np.array_equal(a.forward(x), b.forward(x))

    def test_length_formula(self):
        net = QNetwork(106)
        dims = (5, 100, 100, 60, 106)
        expected = sum(i * o + o for i, o in zip(dims[:-1], dims[1:]))
        assert net.get_weights().size == expected == expected_weight_count(dims)

    def test_length_mismatch_rejected(self):
        net = toy_net()
        with pytest.raises(ValueError):
            net.set_weights(np.zeros(net.flat.size + 1))

    def test_clone_is_independent(self):
        net = toy_net()
        twin = net.clone()
        net.flat[...] += 1.0
        assert not np.array_equal(net.flat, twin.flat)


class TestOptimizers:
    def test_sgd_step(self):
        params = np.array([1.0, 2.0])
        SGDOptimizer(params, lr=0.5).step(params, np.array([1.0, -2.0]))
        assert np.allclose(params, [0.5, 3.0])

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

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_optimizer("rmsprop", np.zeros(1), 0.1)


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        net = QNetwork(11, rng=np.random.default_rng(4))
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
        net = QNetwork(3, hidden=(4, 4, 4))
        with pytest.raises(ValueError):
            save_checkpoint(tmp_path / "x.ckpt", net.dims, np.zeros(10))

    def test_corrupt_header_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text("nope\n1.0\n")
        with pytest.raises(ValueError, match="dims"):
            load_checkpoint(path)
