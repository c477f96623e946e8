"""Minimal reverse-mode kernels for the sentence CNN: embedding lookup,
valid 1-D convolution, ReLU, non-overlapping max pooling, inverted-dropout
masks, a sigmoid dense head, binary cross-entropy, and Adam.

Everything runs in float64. Each forward function has a matching backward
that consumes the upstream gradient and the forward inputs. The kernels take
an optional leading batch axis; backward passes sum parameter gradients over
it. Each kernel can write its large outputs into caller-owned buffers
(``out=`` and the like), so a training loop can reuse one set of buffers
for every pass. ``gradient_check``
verifies any parameterized scalar-loss model against central differences.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError

CHECKPOINT_VERSION = "figphm-ckpt-1"
BCE_EPS = 1e-7
ADAM_BLOCK = 1 << 16        # entries per in-place Adam block


class Parameter:
    """A trainable array with its gradient accumulator. The gradient is
    allocated, zeroed, the first time it is read, so a parameter nothing
    differentiates (a frozen or just-loaded embedding) holds none."""

    __slots__ = ("name", "value", "_grad")

    def __init__(self, value: np.ndarray, name: str = ""):
        # contiguous, so Adam can update it in place through a flat view
        self.value = np.ascontiguousarray(value, dtype=np.float64)
        self._grad = None
        self.name = name

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            # np.zeros, not zeros_like: pages nothing writes stay untouched
            self._grad = np.zeros(self.value.shape)
        return self._grad

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        self._grad = value          # None frees it

    def zero_grad(self) -> None:
        """Zero the gradient; an unallocated gradient is zero already."""
        if self._grad is not None:
            self._grad.fill(0.0)


def uniform_init(shape: tuple[int, ...], bound: float, rng: np.random.Generator) -> np.ndarray:
    return rng.uniform(-bound, bound, size=shape).astype(np.float64)


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.maximum(x, 0.0, out=out)


def relu_backward(dout: np.ndarray, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.multiply(dout, x > 0.0, out=out)


def sigmoid(x):
    """Numerically stable logistic function (branch form, no overflow)."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out if out.ndim else float(out)


def conv1d(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray,
           windows: np.ndarray | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """Valid-padding stride-1 convolution over the last two axes, as one
    GEMM for the whole batch.

    x: (..., T, d) sequences, kernels: (F, w, d), bias: (F,) -> output
    (..., T-w+1, F) with out[..., t, f] = bias[f] + sum_{i,j} x[..., t+i, j] * kernels[f, i, j].
    The im2col matrix (..., T-w+1, w*d) is built in ``windows`` when given,
    so ``conv1d_backward`` can reuse it, and the output goes to ``out``.
    """
    seq_len, width = x.shape[-2], kernels.shape[1]
    if seq_len < width:
        raise ValueError(f"sequence shorter than kernel: {seq_len} < {width}")
    view = _windows(x, width)                        # (..., T-w+1, w*d)
    if windows is not None:
        windows[...] = view
        view = windows
    n_filters = kernels.shape[0]
    flat_out = np.matmul(view.reshape(-1, view.shape[-1]), kernels.reshape(n_filters, -1).T,
                         out=None if out is None else out.reshape(-1, n_filters))
    flat_out += bias
    return flat_out.reshape(view.shape[:-1] + (n_filters,))


def conv1d_backward(dout: np.ndarray, x: np.ndarray, kernels: np.ndarray,
                    input_grad: bool = True, windows: np.ndarray | None = None,
                    dkernels: np.ndarray | None = None, contrib: np.ndarray | None = None,
                    dx: np.ndarray | None = None):
    """Gradients of conv1d w.r.t. input, kernels, and bias, summed over the
    batch; the input gradient is None when ``input_grad`` is false.

    ``windows`` is the forward's im2col matrix of ``x`` (built again when
    absent). ``dkernels`` (the kernels' shape), ``contrib`` ((..., T-w+1, w,
    d)) and ``dx`` (x's shape) are buffers for the kernel gradient, the input
    gradient's GEMM and its sum. The kernel gradient is formed first, so
    ``contrib`` may be the ``windows`` buffer.
    """
    n_filters, width, dim = kernels.shape
    flat_dout = dout.reshape(-1, n_filters)
    dbias = flat_dout.sum(axis=0)
    if windows is None:
        windows = _windows(x, width)
    dkernels = np.matmul(flat_dout.T, windows.reshape(-1, width * dim),
                         out=None if dkernels is None else dkernels.reshape(n_filters, -1)
                         ).reshape(n_filters, width, dim)
    if not input_grad:
        return None, dkernels, dbias
    flat_contrib = None if contrib is None else contrib.reshape(-1, width * dim)
    contrib = np.matmul(flat_dout, kernels.reshape(n_filters, -1), out=flat_contrib).reshape(
        dout.shape[:-1] + (width, dim))
    if dx is None:
        dx = np.zeros_like(x)
    else:
        dx.fill(0.0)
    out_len = dout.shape[-2]
    for i in range(width):
        dx[..., i:i + out_len, :] += contrib[..., i, :]
    return dx, dkernels, dbias


def _windows(x: np.ndarray, width: int) -> np.ndarray:
    """(..., T, d) -> (..., T-w+1, w*d) view whose row t is x[..., t:t+w, :]
    flattened. The strides come from the shape, not from ``x.strides``: a
    size-1 axis may carry any stride."""
    x = np.ascontiguousarray(x)
    strides, step = [], x.itemsize
    for size in reversed(x.shape):
        strides.insert(0, step)
        step *= size
    seq_len, dim = x.shape[-2:]
    return np.ndarray(x.shape[:-2] + (seq_len - width + 1, width * dim), dtype=x.dtype,
                      buffer=x, strides=tuple(strides[:-1]) + (x.itemsize,))


def maxpool1d(x: np.ndarray, pool: int, out: np.ndarray | None = None) -> np.ndarray:
    """Non-overlapping max pooling along axis -2 with stride = pool; the
    tail beyond floor(T/pool)*pool is dropped."""
    return _pool_view(x, pool).max(axis=-2, out=out)


def maxpool1d_backward(dout: np.ndarray, x: np.ndarray, pool: int,
                       out: np.ndarray | None = None) -> np.ndarray:
    """Routes each window's gradient to its argmax (first index on ties),
    found by comparison: entry i wins if no earlier entry won and it is at
    least the maximum of the entries after it."""
    view = _pool_view(x, pool)
    covered = view.shape[-3] * pool
    if out is None:
        dx = np.zeros_like(x)
    else:
        dx = out
        dx[..., covered:, :] = 0.0                  # the tail no window reaches
    dwindows = dx[..., :covered, :].reshape(view.shape)   # a view of dx
    unrouted = np.ones(dout.shape, dtype=bool)
    for i in range(pool - 1):
        rest = view[..., i + 1, :] if i + 2 == pool else view[..., i + 1:, :].max(axis=-2)
        wins = (view[..., i, :] >= rest) & unrouted
        np.multiply(dout, wins, out=dwindows[..., i, :])
        unrouted &= ~wins
    np.multiply(dout, unrouted, out=dwindows[..., pool - 1, :])
    return dx


def _pool_view(x: np.ndarray, pool: int) -> np.ndarray:
    """x (..., T, F) as non-overlapping windows (..., T // pool, pool, F)."""
    seq_len = x.shape[-2]
    if pool < 1:
        raise ValueError(f"pool must be >= 1, got {pool}")
    if seq_len < pool:
        raise ValueError(f"sequence shorter than pool window: {seq_len} < {pool}")
    n_windows = seq_len // pool
    return x[..., :n_windows * pool, :].reshape(
        x.shape[:-2] + (n_windows, pool, x.shape[-1]))


def make_dropout_mask(shape, rate, rng: np.random.Generator,
                      out: np.ndarray | None = None, keep: np.ndarray | None = None) -> np.ndarray:
    """Inverted-dropout mask: zeros with probability rate, survivors scaled
    by 1/(1-rate) so the expectation matches the input. ``rate`` may be an
    array of per-column rates along the last axis. The mask is drawn into
    ``out`` (C-contiguous, of ``shape``) when given, from the same stream,
    and ``keep`` is a bool buffer of ``shape`` for the survivor test."""
    rate = np.asarray(rate, dtype=np.float64)
    if not np.all((0.0 <= rate) & (rate < 1.0)):
        raise ValueError(f"dropout rate must lie in [0, 1), got {rate}")
    if not rate.any():
        mask = np.empty(shape) if out is None else out
        mask.fill(1.0)
        return mask
    mask = rng.random(shape) if out is None else rng.random(out=out)
    return np.divide(np.greater_equal(mask, rate, out=keep), 1.0 - rate, out=mask)


def dense(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """sigmoid(W @ x + b) over the last axis of x."""
    if weights.shape[1] != x.shape[-1]:
        raise ValueError(f"shape mismatch: W is {weights.shape}, x is {x.shape}")
    return sigmoid(x @ weights.T + bias)


def dense_backward(dout: np.ndarray, x: np.ndarray, weights: np.ndarray, out: np.ndarray,
                   dx: np.ndarray | None = None):
    """Gradients of dense(), summed over the batch; ``out`` is the forward
    output (used for the sigmoid derivative) and ``dx`` a buffer of x's
    shape for the input gradient."""
    dout = dout * out * (1.0 - out)
    flat_dout = dout.reshape(-1, weights.shape[0])
    dweights = flat_dout.T @ x.reshape(-1, weights.shape[1])
    return np.matmul(dout, weights, out=dx), dweights, flat_dout.sum(axis=0)


def bce_loss(p, y):
    """Binary cross-entropy -(y ln p + (1-y) ln(1-p)), elementwise; p is
    clamped to [1e-7, 1-1e-7] before the logs."""
    p = np.clip(p, BCE_EPS, 1.0 - BCE_EPS)
    return -(y * np.log(p) + (1 - y) * np.log(1.0 - p))


def bce_grad(p, y):
    """dL/dp for bce_loss, elementwise; zero outside the clamp region (the
    loss is flat there)."""
    p = np.asarray(p, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        grad = np.where((p < BCE_EPS) | (p > 1.0 - BCE_EPS), 0.0,
                        (p - y) / (p * (1.0 - p)))
    return float(grad) if grad.ndim == 0 else grad


class Adam:
    """Bias-corrected Adam over a list of Parameters.

    Defaults lr=1e-3, beta1=0.9, beta2=0.999, epsilon=1e-8; epsilon is added
    outside the square root. ``step`` updates the moments and the values in
    place, one block of ADAM_BLOCK entries at a time through two scratch
    buffers, with the same floating-point operations as the textbook form
    m = b1 m + (1-b1) g;  v = b2 v + (1-b2) g**2;
    p -= lr (m / c1) / (sqrt(v / c2) + eps).

    An entry whose gradient has been zero at every step so far has m = v = 0,
    so its update is value - 0.0: with a finite lr and epsilon > 0 it is
    bitwise unchanged, -0.0 included. ``phm.train`` relies on this to step a
    table of the embedding rows its corpus holds, some of which a minibatch
    has not used yet.
    """

    def __init__(self, params: list[Parameter], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, epsilon: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.step_count = 0
        self.m = [np.zeros(p.value.shape) for p in params]
        self.v = [np.zeros(p.value.shape) for p in params]
        block = min(ADAM_BLOCK, max((p.value.size for p in params), default=0))
        self._scratch = (np.empty(block), np.empty(block))

    def step(self) -> None:
        """One update of every parameter, ADAM_BLOCK entries at a time."""
        self.step_count += 1
        correction1 = 1.0 - self.beta1 ** self.step_count
        correction2 = 1.0 - self.beta2 ** self.step_count
        for p, m, v in zip(self.params, self.m, self.v):
            value, grad, m, v = (a.reshape(-1) for a in (p.value, p.grad, m, v))
            for start in range(0, value.size, ADAM_BLOCK):
                block = slice(start, start + ADAM_BLOCK)
                self._update(value[block], grad[block], m[block], v[block],
                             correction1, correction2)

    def _update(self, value, grad, m, v, correction1, correction2) -> None:
        a, b = (buf[:value.size] for buf in self._scratch)
        np.multiply(m, self.beta1, out=m)
        np.multiply(grad, 1.0 - self.beta1, out=a)
        np.add(m, a, out=m)
        np.multiply(v, self.beta2, out=v)
        np.square(grad, out=a)
        np.multiply(a, 1.0 - self.beta2, out=a)
        np.add(v, a, out=v)
        np.divide(m, correction1, out=a)
        np.multiply(a, self.lr, out=a)
        np.divide(v, correction2, out=b)
        np.sqrt(b, out=b)
        np.add(b, self.epsilon, out=b)
        np.divide(a, b, out=a)
        np.subtract(value, a, out=value)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


def gradient_check(model, inputs, target, epsilon: float = 1e-4) -> float:
    """Max relative error between backprop and central finite differences.

    ``model`` must expose parameters() and two dropout-free evaluations:
    loss(inputs, target) and loss_and_grad(inputs, target); for a batch of
    inputs the loss is the sum over its examples. The relative
    error per parameter entry is |a - n| / max(1e-8, |a| + |n|). Call this
    only at safe points (no ReLU kink or pooling near-tie within epsilon;
    see the models' activation_margins()).
    """
    model.loss_and_grad(inputs, target)
    analytic = [p.grad.copy() for p in model.parameters()]
    max_err = 0.0
    for param, grads in zip(model.parameters(), analytic):
        flat = param.value.ravel()
        gflat = grads.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            f_plus = model.loss(inputs, target)
            flat[i] = orig - epsilon
            f_minus = model.loss(inputs, target)
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * epsilon)
            err = abs(gflat[i] - numeric) / max(1e-8, abs(gflat[i]) + abs(numeric))
            if err > max_err:
                max_err = err
    return max_err


@dataclass
class Checkpoint:
    manifest: dict
    arrays: list[np.ndarray] = field(default_factory=list)


def save_checkpoint(manifest: dict, params: list[Parameter], path: str | Path) -> None:
    """Write a manifest line (JSON) followed by the parameter arrays as raw
    little-endian float64 in declaration order."""
    manifest = dict(manifest)
    manifest["version"] = CHECKPOINT_VERSION
    manifest["shapes"] = [list(p.value.shape) for p in params]
    manifest["param_names"] = [p.name for p in params]
    header = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with Path(path).open("wb") as handle:
        handle.write(struct.pack("<Q", len(header)))
        handle.write(header)
        for p in params:
            handle.write(p.value.astype("<f8").tobytes())


def load_checkpoint(path: str | Path) -> Checkpoint:
    path = Path(path)
    try:
        handle = path.open("rb")
    except FileNotFoundError:
        raise DataError(f"checkpoint not found: {path}") from None
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc.strerror or exc}") from None
    with handle:
        size = path.stat().st_size
        raw_len = handle.read(8)
        if len(raw_len) != 8:
            raise DataError(f"{path}: truncated checkpoint header")
        (header_len,) = struct.unpack("<Q", raw_len)
        if header_len > size - 8:
            raise DataError(f"{path}: truncated checkpoint header")
        try:
            manifest = json.loads(handle.read(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise DataError(f"{path}: bad checkpoint manifest ({exc})") from None
        if not isinstance(manifest, dict):
            raise DataError(f"{path}: checkpoint manifest is not a JSON object")
        if manifest.get("version") != CHECKPOINT_VERSION:
            raise DataError(f"{path}: unsupported checkpoint version "
                            f"{manifest.get('version')!r}")
        shapes = manifest.get("shapes")
        if not (isinstance(shapes, list) and all(
                isinstance(shape, list) and all(
                    type(n) is int and n >= 0 for n in shape) for shape in shapes)):
            raise DataError(f"{path}: checkpoint 'shapes' is not a list of integer shapes")
        counts = [math.prod(shape) for shape in shapes]
        data_len = 8 * sum(counts)
        if data_len > size - 8 - header_len:
            raise DataError(f"{path}: truncated parameter data")
        if data_len < size - 8 - header_len:
            raise DataError(f"{path}: trailing bytes after the last parameter array")
        try:
            arrays = [np.empty(shape, dtype="<f8") for shape in shapes]
        except ValueError as exc:  # an empty shape numpy cannot represent
            raise DataError(f"{path}: bad checkpoint shape ({exc})") from None
        for array in arrays:  # read in place: no array is held twice
            handle.readinto(array)
    names = manifest.get("param_names")
    for index, array in enumerate(arrays):
        if not np.isfinite(array).all():
            name = names[index] if isinstance(names, list) and index < len(names) else index
            raise DataError(f"{path}: parameter array {name!r} has non-finite values")
    return Checkpoint(manifest=manifest, arrays=arrays)
