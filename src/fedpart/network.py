"""Feed-forward action-value network with manual backprop.

Small fully-connected net (ReLU hidden layers, identity output) kept free of
ML frameworks so gradients, dropout and weight flattening stay transparent
and checkable against finite differences.

All parameters live in one flat buffer with per-layer views (canonical
layer-major W-then-b order), so weight exchange is a single copy and the
optimizer updates one contiguous array. Forward/backward reuse per-batch
scratch buffers: ``forward_cached`` and ``backward`` return arrays that are
overwritten by the next call on the same network; copy them to keep them.
float32 by default for speed; pass ``dtype=np.float64`` where precision
matters (e.g. gradient checks).
"""

from __future__ import annotations

import numpy as np

WeightVector = np.ndarray  # flat float64 parameter vector, layer-major (W then b)


def expected_weight_count(layer_dims: tuple[int, ...]) -> int:
    """Number of parameters for the given dims: sum of fan_in*fan_out + fan_out."""
    return sum(
        fan_in * fan_out + fan_out
        for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:])
    )


class QNetwork:
    """MLP mapping a state vector to one value per action.

    ``dropout_rates`` apply inverted dropout to the hidden activations in
    training-mode forwards only; eval forwards are deterministic. Kept units
    are scaled by ``1 / (1 - rate)``, so each layer's activations keep their
    mean over masks. The output's mean over masks equals the eval output only
    when the linear head directly follows the dropped layer: a ReLU after a
    dropped layer biases it (Jensen's inequality).
    """

    def __init__(
        self,
        n_actions: int,
        hidden: tuple[int, ...] = (100, 100, 60),
        dropout_rates: tuple[float, ...] = (0.4, 0.3, 0.0),
        input_dim: int = 5,
        rng: np.random.Generator | None = None,
        dtype=np.float32,
    ):
        if len(dropout_rates) != len(hidden):
            raise ValueError("need one dropout rate per hidden layer")
        if any(not (0.0 <= r < 1.0) for r in dropout_rates):
            raise ValueError("dropout rates must be in [0, 1)")
        self.dims = (input_dim, *hidden, n_actions)
        self.dropout_rates = tuple(float(r) for r in dropout_rates)
        self.dtype = np.dtype(dtype)
        self._allocate()
        rng = rng or np.random.default_rng()
        for w, fan_in in zip(self.weights, self.dims[:-1]):
            bound = 1.0 / np.sqrt(fan_in)
            w[...] = rng.uniform(-bound, bound, size=w.shape)
        for b in self.biases:
            b[...] = 0.0

    def _allocate(self) -> None:
        total = expected_weight_count(self.dims)
        self.flat = np.zeros(total, dtype=self.dtype)
        self.flat_grad = np.zeros(total, dtype=self.dtype)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        self._weight_grads: list[np.ndarray] = []
        self._bias_grads: list[np.ndarray] = []
        offset = 0
        for fan_in, fan_out in zip(self.dims[:-1], self.dims[1:]):
            self.weights.append(self.flat[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out))
            self._weight_grads.append(
                self.flat_grad[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out)
            )
            offset += fan_in * fan_out
            self.biases.append(self.flat[offset : offset + fan_out])
            self._bias_grads.append(self.flat_grad[offset : offset + fan_out])
            offset += fan_out
        self._scratch: dict[int, dict[str, np.ndarray]] = {}

    @property
    def n_actions(self) -> int:
        return self.dims[-1]

    @property
    def n_hidden_layers(self) -> int:
        return len(self.dims) - 2

    def _scratch_for(self, batch: int) -> dict[str, np.ndarray]:
        s = self._scratch.get(batch)
        if s is None:
            s = {}
            n_layers = len(self.weights)
            for layer in range(n_layers):
                width = self.dims[layer + 1]
                s[f"z{layer}"] = np.empty((batch, width), dtype=self.dtype)
                s[f"g{layer}"] = np.empty((batch, width), dtype=self.dtype)
            for layer in range(self.n_hidden_layers):
                width = self.dims[layer + 1]
                s[f"relu{layer}"] = np.empty((batch, width), dtype=bool)
                s[f"drop{layer}"] = np.empty((batch, width), dtype=self.dtype)
            self._scratch[batch] = s
        return s

    # -- forward / backward -------------------------------------------------

    def _forward(self, x: np.ndarray, train: bool, rng: np.random.Generator | None):
        """Returns (q, cache) backed by scratch buffers for this batch size."""
        scratch = self._scratch_for(x.shape[0])
        inputs = [x]
        relu_masks = []
        dropout_masks = []
        h = x
        one = self.dtype.type(1.0)
        for layer in range(self.n_hidden_layers):
            z = scratch[f"z{layer}"]
            np.dot(h, self.weights[layer], out=z)
            z += self.biases[layer]
            np.maximum(z, 0.0, out=z)
            relu_masks.append(np.greater(z, 0.0, out=scratch[f"relu{layer}"]))
            rate = self.dropout_rates[layer]
            if train and rate > 0.0:
                if rng is None:
                    raise ValueError("training-mode forward with dropout needs an rng")
                keep = scratch[f"drop{layer}"]
                rng.random(out=keep, dtype=self.dtype)
                np.greater_equal(keep, self.dtype.type(rate), out=keep, casting="unsafe")
                keep *= one / self.dtype.type(1.0 - rate)
                z *= keep
                dropout_masks.append(keep)
            else:
                dropout_masks.append(None)
            inputs.append(z)
            h = z
        out = scratch[f"z{self.n_hidden_layers}"]
        np.dot(h, self.weights[-1], out=out)
        out += self.biases[-1]
        return out, (inputs, relu_masks, dropout_masks)

    def forward(
        self,
        x: np.ndarray,
        train: bool = False,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Q-values for one state (1-D input) or a batch (2-D input).

        Returns a fresh array safe to keep across calls.
        """
        arr = np.asarray(x, dtype=self.dtype)
        single = arr.ndim == 1
        if single:
            arr = arr[None, :]
        if arr.shape[1] != self.dims[0]:
            raise ValueError(f"state dimension {arr.shape[1]} != {self.dims[0]}")
        q, _ = self._forward(arr, train, rng)
        return q[0].copy() if single else q.copy()

    def forward_cached(self, x: np.ndarray, train: bool, rng=None):
        """(q, cache) for a 2-D batch; both reuse scratch storage (no copies)."""
        arr = np.asarray(x, dtype=self.dtype)
        if arr.ndim != 2 or arr.shape[1] != self.dims[0]:
            raise ValueError(f"expected a (batch, {self.dims[0]}) array")
        return self._forward(arr, train, rng)

    def backward(self, cache, grad_q: np.ndarray) -> np.ndarray:
        """Gradient of the cached forward w.r.t. the flat parameter vector.

        Writes into (and returns) ``self.flat_grad``; the per-layer views
        stay aligned with the flat layout.
        """
        inputs, relu_masks, dropout_masks = cache
        scratch = self._scratch_for(grad_q.shape[0])
        last = len(self.weights) - 1
        g = grad_q
        np.dot(inputs[-1].T, g, out=self._weight_grads[last])
        g.sum(axis=0, out=self._bias_grads[last])
        for layer in range(self.n_hidden_layers - 1, -1, -1):
            g_prev = scratch[f"g{layer}"]
            np.dot(g, self.weights[layer + 1].T, out=g_prev)
            g = g_prev
            keep = dropout_masks[layer]
            if keep is not None:
                g *= keep
            g *= relu_masks[layer]
            np.dot(inputs[layer].T, g, out=self._weight_grads[layer])
            g.sum(axis=0, out=self._bias_grads[layer])
        return self.flat_grad

    def output_grad_buffer(self, batch: int) -> np.ndarray:
        """Zeroed scratch array shaped like a batch of q-values."""
        buf = self._scratch_for(batch)[f"g{self.n_hidden_layers}"]
        buf.fill(0.0)
        return buf

    # -- flat parameter exchange ---------------------------------------------

    def get_weights(self) -> WeightVector:
        """Flat float64 snapshot in canonical layer-major (W, b) order."""
        return self.flat.astype(np.float64)

    def set_weights(self, flat: WeightVector) -> None:
        flat = np.asarray(flat)
        if flat.ndim != 1 or flat.size != self.flat.size:
            raise ValueError(
                f"weight vector length {flat.size} != expected {self.flat.size} "
                f"for dims {self.dims}"
            )
        self.flat[...] = flat

    def copy_weights_from(self, other: "QNetwork") -> None:
        if other.dims != self.dims:
            raise ValueError(f"dims mismatch: {other.dims} vs {self.dims}")
        self.flat[...] = other.flat

    def clone(self) -> "QNetwork":
        twin = QNetwork.__new__(QNetwork)
        twin.dims = self.dims
        twin.dropout_rates = self.dropout_rates
        twin.dtype = self.dtype
        twin._allocate()
        twin.flat[...] = self.flat
        return twin


class AdamOptimizer:
    """Adaptive moment estimation over the flat parameter vector.

    Moment entries smaller in magnitude than the dtype's smallest normal
    number (``finfo.tiny``) are set to zero after each update. With
    mostly-zero gradients, moments otherwise decay into the subnormal range
    and stop there at a few ulp (``beta1 * m`` rounds back to ``m``), and
    subnormal arithmetic makes every step several times slower. The flush
    does not change the trained weights in practice: a first moment below
    ``tiny`` moves a parameter by less than ``10 * lr * tiny / eps`` (the 10
    bounds the bias correction; 5e-31 at the defaults in float32), under
    half an ulp of any parameter larger in magnitude than about 1e-23. A
    second moment below ``tiny`` enters the step as ``sqrt(v_hat) + eps``
    with ``sqrt(v_hat) < sqrt(tiny / (1 - beta2))`` (the bias correction
    divides by at least ``1 - beta2``): at the defaults about 3e-18 in
    float32 and 5e-153 in float64, far below half an ulp of ``eps``, so the
    sum, and the parameters, are unchanged. Arithmetic on normal numbers is the same, operation for
    operation, as in plain Adam.
    """

    def __init__(self, params: np.ndarray, lr: float = 0.04, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._shape = params.shape
        self._dtype = params.dtype
        self._tiny = np.finfo(self._dtype).tiny
        self.m = np.zeros(self._shape, dtype=self._dtype)
        self.v = np.zeros(self._shape, dtype=self._dtype)
        self._mhat = np.empty(self._shape, dtype=self._dtype)
        self._vhat = np.empty(self._shape, dtype=self._dtype)
        self._keep = np.empty(self._shape, dtype=bool)
        self.t = 0

    def reset(self) -> None:
        self.t = 0
        self.m.fill(0.0)
        self.v.fill(0.0)

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        # _mhat and _vhat serve as scratch until the bias corrections below.
        self.m *= b1
        self.m += np.multiply(grad, 1.0 - b1, out=self._mhat)
        # Multiplying by the mask is branch-free; a masked write (copyto with
        # where=) is several times slower when the mask has no regular pattern.
        np.greater_equal(np.abs(self.m, out=self._mhat), self._tiny, out=self._keep)
        self.m *= self._keep
        self.v *= b2
        self.v += np.multiply(np.square(grad, out=self._vhat), 1.0 - b2, out=self._vhat)
        np.greater_equal(self.v, self._tiny, out=self._keep)  # v is never negative
        self.v *= self._keep
        np.divide(self.m, 1.0 - b1**self.t, out=self._mhat)
        np.divide(self.v, 1.0 - b2**self.t, out=self._vhat)
        np.sqrt(self._vhat, out=self._vhat)
        self._vhat += self.eps
        self._mhat /= self._vhat
        self._mhat *= self.lr
        params -= self._mhat


class SGDOptimizer:
    """Plain gradient descent, selectable instead of Adam."""

    def __init__(self, params: np.ndarray, lr: float = 0.04):
        self.lr = lr

    def reset(self) -> None:
        pass

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        params -= self.lr * grad


def make_optimizer(name: str, params: np.ndarray, lr: float):
    if name == "adam":
        return AdamOptimizer(params, lr=lr)
    if name == "sgd":
        return SGDOptimizer(params, lr=lr)
    raise ValueError(f"unknown optimizer {name!r} (expected 'adam' or 'sgd')")


CHECKPOINT_CHUNK = 4096  # values converted to Python floats at a time


def save_checkpoint(path, dims: tuple[int, ...], weights: WeightVector) -> None:
    """Write a weight checkpoint: a dims header line then one value per line."""
    weights = np.asarray(weights, dtype=np.float64)
    expected = expected_weight_count(tuple(dims))
    if weights.size != expected:
        raise ValueError(f"weight count {weights.size} != expected {expected} for dims {dims}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("dims=" + ",".join(str(d) for d in dims) + "\n")
        # tolist() yields Python floats: repr is their shortest exact text,
        # where a NumPy 2 scalar would print as "np.float64(...)".
        for start in range(0, weights.size, CHECKPOINT_CHUNK):
            fh.writelines(f"{v!r}\n" for v in weights[start : start + CHECKPOINT_CHUNK].tolist())


def load_checkpoint(path) -> tuple[tuple[int, ...], WeightVector]:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header.startswith("dims="):
            raise ValueError(f"{path}: expected a 'dims=' header line")
        dims = tuple(int(d) for d in header[len("dims=") :].split(","))
        values = [float(line) for line in fh if line.strip()]
    weights = np.asarray(values, dtype=np.float64)
    expected = expected_weight_count(dims)
    if weights.size != expected:
        raise ValueError(
            f"{path}: {weights.size} values do not match dims {dims} (need {expected})"
        )
    return dims, weights
