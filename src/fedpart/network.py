"""Feed-forward action-value network with manual backprop.

Small fully-connected net (ReLU hidden layers, identity output) kept free of
ML frameworks so gradients, dropout and weight flattening stay transparent
and checkable against finite differences.

All parameters live in one flat buffer with per-layer views (canonical
layer-major W-then-b order), so weight exchange is a single copy and the
optimizer updates one contiguous array. Forward/backward reuse per-batch
scratch buffers, one set per batch size and network, and one flat gradient
buffer, each allocated on first use and kept until ``release_scratch`` frees
them: ``forward_cached`` and ``backward`` return arrays that are overwritten
by the next call on the same network (a call on another network never
touches them); copy them to keep them. Gradient buffers exist only for batch
sizes that train, and a training forward keeps a dropped layer's mask in
that layer's gradient buffer, which backward overwrites.
The caller chooses the dtype: runs take it from ``[agent] dtype`` (float32
unless set), and gradient checks use float64.
"""

from __future__ import annotations

import math

import numpy as np

WeightVector = np.ndarray  # flat float64 parameter vector, layer-major (W then b)


def drop_threshold(rate: float) -> int:
    """A dropout rate as a 16-bit threshold: units whose word is below it drop.

    Rejects a rate that is not finite and in [0, 1), and one that rounds to
    65536, which would drop every unit.
    """
    if not (0.0 <= rate < 1.0):
        raise ValueError(f"dropout_rates must be finite and in [0, 1), got {rate}")
    threshold = round(rate * 65536)
    if threshold == 65536:
        raise ValueError(f"dropout_rates: {rate} rounds to 65536/65536 and would drop every unit")
    return threshold


def expected_weight_count(layer_dims: tuple[int, ...]) -> int:
    """Number of parameters for the given dims: sum of fan_in*fan_out + fan_out."""
    return sum(
        fan_in * fan_out + fan_out
        for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:])
    )


class QNetwork:
    """MLP mapping a state vector to one value per action.

    ``dims`` are the layer widths as a checkpoint records them: ``dims[0]``
    state entries, the hidden widths, then ``dims[-1]`` actions. ``forward``
    takes one 1-D state of ``dims[0]`` entries and runs in eval mode;
    batches, and every training-mode forward, go through ``forward_cached``.

    ``dropout_rates`` apply inverted dropout to the hidden activations in
    training-mode forwards only; eval forwards are deterministic. Kept units
    are scaled by ``1 / (1 - rate)``, so each layer's activations keep their
    mean over masks. The output's mean over masks equals the eval output only
    when the linear head directly follows the dropped layer: a ReLU after a
    dropped layer biases it (Jensen's inequality).

    Mask rule: for a dropped layer of ``n = batch * width`` units, the
    forward draws ``ceil(n / 4)`` raw 64-bit words from the generator's bit
    generator (``random_raw``, in one draw), reads them as little-endian
    16-bit words, and keeps unit ``i`` (row-major) where word ``i`` is at
    least ``round(rate * 65536)``. A unit is thus kept with probability
    ``1 - round(rate * 65536) / 65536``; the scale stays ``1 / (1 - rate)``. The masks depend only on the generator's state, on
    any host. The cached ReLU mask is taken after dropout, so backward
    multiplies a dropped layer's gradient by that one mask and the scale.
    """

    def __init__(
        self,
        dims: tuple[int, ...],
        dropout_rates: tuple[float, ...],
        *,
        rng: np.random.Generator,
        dtype,
    ):
        if len(dropout_rates) != len(dims) - 2:
            raise ValueError("need one dropout rate per hidden layer")
        thresholds = [drop_threshold(r) for r in dropout_rates]
        self.dims = tuple(dims)
        self.dropout_rates = tuple(float(r) for r in dropout_rates)
        self.dtype = np.dtype(dtype)
        one = self.dtype.type(1.0)
        # Per hidden layer: (16-bit keep threshold, scale) if it is dropped, else None.
        self._dropout = tuple(
            (np.uint16(t), one / self.dtype.type(1.0 - r)) if r > 0.0 else None
            for r, t in zip(self.dropout_rates, thresholds)
        )
        self._allocate()
        for w, fan_in in zip(self.weights, self.dims[:-1]):
            bound = 1.0 / np.sqrt(fan_in)
            w[...] = rng.uniform(-bound, bound, size=w.shape)
        for b in self.biases:
            b[...] = 0.0

    def _allocate(self) -> None:
        self.flat = np.zeros(expected_weight_count(self.dims), dtype=self.dtype)
        self.weights, self.biases = self._layer_views(self.flat)
        self.flat_grad = self._grads = None  # allocated by backward
        self._scratch: dict[int, dict[str, np.ndarray]] = {}

    def _layer_views(self, flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-layer (W, b) views of a flat vector in the canonical layout."""
        weights, biases = [], []
        offset = 0
        for fan_in, fan_out in zip(self.dims[:-1], self.dims[1:]):
            weights.append(flat[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out))
            offset += fan_in * fan_out
            biases.append(flat[offset : offset + fan_out])
            offset += fan_out
        return weights, biases

    @property
    def n_actions(self) -> int:
        return self.dims[-1]

    @property
    def n_hidden_layers(self) -> int:
        return len(self.dims) - 2

    def _scratch_for(self, batch: int, train: bool) -> dict[str, np.ndarray]:
        """This batch size's forward buffers, and with ``train`` its gradient
        buffers too: a batch size used only in eval mode holds none."""
        s = self._scratch.setdefault(batch, {})
        if not s:
            for layer, width in enumerate(self.dims[1:]):
                s[f"z{layer}"] = np.empty((batch, width), dtype=self.dtype)
                if layer < self.n_hidden_layers:
                    s[f"relu{layer}"] = np.empty((batch, width), dtype=bool)
        if train and "g0" not in s:
            for layer, width in enumerate(self.dims[1:]):
                s[f"g{layer}"] = np.empty((batch, width), dtype=self.dtype)
        return s

    # -- forward / backward -------------------------------------------------

    def _forward(self, x: np.ndarray, train: bool, rng: np.random.Generator | None):
        """Returns (q, cache) backed by scratch buffers for this batch size."""
        scratch = self._scratch_for(x.shape[0], train)
        inputs = [x]
        relu_masks = []
        dropout_masks = []
        h = x
        zero = self.dtype.type(0.0)
        for layer in range(self.n_hidden_layers):
            z = scratch[f"z{layer}"]
            np.dot(h, self.weights[layer], out=z)
            z += self.biases[layer]
            np.maximum(z, zero, out=z)
            keep = None
            if train and self._dropout[layer] is not None:
                if rng is None:
                    raise ValueError("training-mode forward with dropout needs an rng")
                threshold, scale = self._dropout[layer]
                # The layer's gradient buffer: backward overwrites it before reading it.
                keep = scratch[f"g{layer}"]
                words = rng.bit_generator.random_raw(-(-keep.size // 4))
                bits = words.astype("<u8", copy=False).view("<u2")[: keep.size]
                np.greater_equal(bits.reshape(keep.shape), threshold, out=keep, casting="unsafe")
                keep *= scale
                z *= keep
            relu_masks.append(np.greater(z, zero, out=scratch[f"relu{layer}"]))
            dropout_masks.append(keep)
            inputs.append(z)
            h = z
        out = scratch[f"z{self.n_hidden_layers}"]
        np.dot(h, self.weights[-1], out=out)
        out += self.biases[-1]
        return out, (inputs, relu_masks, dropout_masks)

    def forward(self, state: np.ndarray) -> np.ndarray:
        """Eval-mode Q-values for one 1-D state, as a fresh array."""
        x = np.asarray(state, dtype=self.dtype)
        if x.shape != (self.dims[0],):
            raise ValueError(f"expected one state of shape ({self.dims[0]},), got {x.shape}")
        q, _ = self._forward(x[None, :], False, None)
        return q[0].copy()

    def forward_cached(self, x: np.ndarray, train: bool, rng=None):
        """(q, cache) for a 2-D batch; both reuse scratch storage (no copies).

        They stay valid until the next forward or backward on this network
        (``backward`` also overwrites the cache's dropout masks);
        ``release_scratch`` hands the storage to them alone.
        """
        arr = np.asarray(x, dtype=self.dtype)
        if arr.ndim != 2 or arr.shape[1] != self.dims[0]:
            raise ValueError(f"expected a (batch, {self.dims[0]}) array")
        return self._forward(arr, train, rng)

    def backward(self, cache, grad_q: np.ndarray) -> np.ndarray:
        """Gradient of the cached forward w.r.t. the flat parameter vector.

        Writes into (and returns) ``self.flat_grad``, scratch like the batch
        buffers: allocated by the first backward after ``release_scratch``
        (a network that never runs backward holds none), with per-layer
        views aligned with the flat layout.
        """
        inputs, relu_masks, dropout_masks = cache
        scratch = self._scratch_for(grad_q.shape[0], True)
        if self.flat_grad is None:
            self.flat_grad = np.empty_like(self.flat)
            self._grads = self._layer_views(self.flat_grad)
        weight_grads, bias_grads = self._grads
        last = len(self.weights) - 1
        g = grad_q
        np.dot(inputs[-1].T, g, out=weight_grads[last])
        g.sum(axis=0, out=bias_grads[last])
        for layer in range(self.n_hidden_layers - 1, -1, -1):
            g_prev = scratch[f"g{layer}"]
            np.dot(g, self.weights[layer + 1].T, out=g_prev)
            g = g_prev
            g *= relu_masks[layer]
            if dropout_masks[layer] is not None:
                g *= self._dropout[layer][1]
            np.dot(inputs[layer].T, g, out=weight_grads[layer])
            g.sum(axis=0, out=bias_grads[layer])
        return self.flat_grad

    def release_scratch(self) -> None:
        """Drop this network's scratch buffers and gradient; the next call allocates afresh."""
        self._scratch = {}
        self.flat_grad = None
        self._grads = None

    def output_grad_buffer(self, batch: int) -> np.ndarray:
        """Zeroed scratch array shaped like a batch of q-values."""
        buf = self._scratch_for(batch, True)[f"g{self.n_hidden_layers}"]
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

    def clone(self) -> "QNetwork":
        twin = QNetwork.__new__(QNetwork)
        twin.dims = self.dims
        twin.dropout_rates = self.dropout_rates
        twin.dtype = self.dtype
        twin._dropout = self._dropout
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
    bounds the bias correction; 5e-31 at lr 0.04 and eps 1e-8 in float32), under
    half an ulp of any parameter larger in magnitude than about 1e-23. A
    second moment below ``tiny`` enters the step as ``sqrt(v_hat) + eps``
    with ``sqrt(v_hat) < sqrt(tiny / (1 - beta2))`` (the bias correction
    divides by at least ``1 - beta2``): at the defaults about 3e-18 in
    float32 and 5e-153 in float64, far below half an ulp of ``eps``, so the
    sum, and the parameters, are unchanged. Arithmetic on normal numbers is the same, operation for
    operation, as in plain Adam. The optimizer holds only ``m`` and ``v``
    between steps: the bias-corrected moments and the flush masks are
    temporaries of ``step``.
    """

    def __init__(self, params: np.ndarray, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._tiny = np.finfo(params.dtype).tiny
        self.m = np.zeros(params.shape, dtype=params.dtype)
        self.v = np.zeros(params.shape, dtype=params.dtype)
        self.t = 0

    def reset(self) -> None:
        self.t = 0
        self.m.fill(0.0)
        self.v.fill(0.0)

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        m, v = self.m, self.v
        m *= b1
        m += grad * (1.0 - b1)
        # Multiplying by the mask is branch-free; a masked write (copyto with
        # where=) is several times slower when the mask has no regular pattern.
        m *= np.abs(m) >= self._tiny
        v *= b2
        v += np.square(grad) * (1.0 - b2)
        v *= v >= self._tiny  # v is never negative
        m_hat = m / (1.0 - b1**self.t)
        v_hat = v / (1.0 - b2**self.t)
        np.sqrt(v_hat, out=v_hat)
        v_hat += self.eps
        m_hat /= v_hat
        m_hat *= self.lr
        params -= m_hat


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


class CheckpointError(ValueError):
    """A checkpoint file that cannot be read; the message names the file and line."""


def load_checkpoint(path) -> tuple[tuple[int, ...], WeightVector]:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header.startswith("dims="):
            raise CheckpointError(f"{path}:1: expected a 'dims=' header line")
        try:
            dims = tuple(int(d) for d in header[len("dims=") :].split(","))
        except ValueError:
            raise CheckpointError(f"{path}:1: dims must be integers, got {header!r}") from None
        values = []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                value = float(line)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise CheckpointError(f"{path}:{lineno}: not a finite number: {line.strip()!r}")
            values.append(value)
    weights = np.asarray(values, dtype=np.float64)
    expected = expected_weight_count(dims)
    if weights.size != expected:
        raise CheckpointError(
            f"{path}: {weights.size} values do not match dims {dims} (need {expected})"
        )
    return dims, weights
