"""Minimal reverse-mode kernels for the sentence CNN: embedding lookup,
valid 1-D convolution, ReLU, non-overlapping max pooling, inverted dropout,
dense layers, sigmoid + binary cross-entropy, and Adam.

Everything runs in float64. Each forward function has a matching backward
that consumes the upstream gradient and the forward inputs; ``gradient_check``
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


class Parameter:
    """A trainable array with its gradient accumulator."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, value: np.ndarray, name: str = ""):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)
        self.name = name

    def zero_grad(self) -> None:
        self.grad.fill(0.0)


def uniform_init(shape: tuple[int, ...], bound: float, rng: np.random.Generator) -> np.ndarray:
    return rng.uniform(-bound, bound, size=shape).astype(np.float64)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(dout: np.ndarray, x: np.ndarray) -> np.ndarray:
    return dout * (x > 0.0)


def sigmoid(x):
    """Numerically stable logistic function (branch form, no overflow)."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out if out.ndim else float(out)


def conv1d(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Valid-padding stride-1 convolution.

    x: (T, d) sequence, kernels: (F, w, d), bias: (F,) -> output (T-w+1, F)
    with out[t, f] = bias[f] + sum_{i,j} x[t+i, j] * kernels[f, i, j].
    """
    seq_len, width = x.shape[0], kernels.shape[1]
    if seq_len < width:
        raise ValueError(f"sequence shorter than kernel: {seq_len} < {width}")
    windows = _windows(x, width)                     # (T-w+1, w*d)
    return windows @ kernels.reshape(kernels.shape[0], -1).T + bias


def conv1d_backward(dout: np.ndarray, x: np.ndarray, kernels: np.ndarray):
    """Gradients of conv1d w.r.t. input, kernels, and bias."""
    n_filters, width, dim = kernels.shape
    windows = _windows(x, width)
    dbias = dout.sum(axis=0)
    dkernels = (dout.T @ windows).reshape(n_filters, width, dim)
    contrib = (dout @ kernels.reshape(n_filters, -1)).reshape(-1, width, dim)
    dx = np.zeros_like(x)
    out_len = dout.shape[0]
    for i in range(width):
        dx[i:i + out_len] += contrib[:, i, :]
    return dx, dkernels, dbias


def _windows(x: np.ndarray, width: int) -> np.ndarray:
    view = np.lib.stride_tricks.sliding_window_view(x, (width, x.shape[1]))
    return view.reshape(x.shape[0] - width + 1, width * x.shape[1])


def maxpool1d(x: np.ndarray, pool: int) -> np.ndarray:
    """Non-overlapping max pooling with stride = pool; the tail beyond
    floor(T/pool)*pool is dropped."""
    out, _ = _maxpool_with_argmax(x, pool)
    return out


def maxpool1d_backward(dout: np.ndarray, x: np.ndarray, pool: int) -> np.ndarray:
    """Routes each window's gradient to its argmax (first index on ties)."""
    _, argmax = _maxpool_with_argmax(x, pool)
    n_windows = argmax.shape[0]
    dwindows = np.zeros((n_windows, pool, x.shape[1]))
    np.put_along_axis(dwindows, argmax[:, None, :], dout[:, None, :], axis=1)
    dx = np.zeros_like(x)
    dx[:n_windows * pool] = dwindows.reshape(n_windows * pool, x.shape[1])
    return dx


def _maxpool_with_argmax(x: np.ndarray, pool: int):
    seq_len = x.shape[0]
    if pool < 1:
        raise ValueError(f"pool must be >= 1, got {pool}")
    if seq_len < pool:
        raise ValueError(f"sequence shorter than pool window: {seq_len} < {pool}")
    n_windows = seq_len // pool
    view = x[:n_windows * pool].reshape(n_windows, pool, x.shape[1])
    return view.max(axis=1), view.argmax(axis=1)


def make_dropout_mask(shape, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted-dropout mask: zeros with probability rate, survivors scaled
    by 1/(1-rate) so the expectation matches the input."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must lie in [0, 1), got {rate}")
    if rate == 0.0:
        return np.ones(shape)
    return (rng.random(shape) >= rate) / (1.0 - rate)


def dropout(x: np.ndarray, rate: float, mode: str = "train",
            seed: int | np.random.Generator | None = None) -> np.ndarray:
    """Inverted dropout; eval mode is a pure identity."""
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown dropout mode: {mode!r}")
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must lie in [0, 1), got {rate}")
    if mode == "eval" or rate == 0.0:
        return x
    return x * make_dropout_mask(x.shape, rate, np.random.default_rng(seed))


def dense(x: np.ndarray, weights: np.ndarray, bias: np.ndarray,
          activation: str = "none") -> np.ndarray:
    """activation(W @ x + b) with activation in {relu, sigmoid, none}."""
    if weights.shape[1] != x.shape[0]:
        raise ValueError(f"shape mismatch: W is {weights.shape}, x is {x.shape}")
    z = weights @ x + bias
    if activation == "none":
        return z
    if activation == "relu":
        return relu(z)
    if activation == "sigmoid":
        return sigmoid(z)
    raise ValueError(f"unknown activation: {activation!r}")


def dense_backward(dout: np.ndarray, x: np.ndarray, weights: np.ndarray,
                   activation: str, out: np.ndarray):
    """Gradients of dense(); ``out`` is the forward output (used for the
    activation derivative)."""
    if activation == "relu":
        dout = dout * (out > 0.0)
    elif activation == "sigmoid":
        dout = dout * out * (1.0 - out)
    elif activation != "none":
        raise ValueError(f"unknown activation: {activation!r}")
    dweights = np.outer(dout, x)
    dx = weights.T @ dout
    return dx, dweights, dout.copy()


def bce_loss(p: float, y: int) -> float:
    """Binary cross-entropy -(y ln p + (1-y) ln(1-p)); p is clamped to
    [1e-7, 1-1e-7] before the logs."""
    p = min(max(float(p), BCE_EPS), 1.0 - BCE_EPS)
    return -(y * np.log(p) + (1 - y) * np.log(1.0 - p))


def bce_grad(p: float, y: int) -> float:
    """dL/dp for bce_loss; zero outside the clamp region (the loss is flat there)."""
    p = float(p)
    if p < BCE_EPS or p > 1.0 - BCE_EPS:
        return 0.0
    return (p - y) / (p * (1.0 - p))


class Adam:
    """Bias-corrected Adam over a list of Parameters.

    Defaults lr=1e-3, beta1=0.9, beta2=0.999, epsilon=1e-8; epsilon is added
    outside the square root.
    """

    def __init__(self, params: list[Parameter], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, epsilon: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.step_count = 0
        self.m = [np.zeros_like(p.value) for p in params]
        self.v = [np.zeros_like(p.value) for p in params]

    def step(self) -> None:
        self.step_count += 1
        correction1 = 1.0 - self.beta1 ** self.step_count
        correction2 = 1.0 - self.beta2 ** self.step_count
        for i, p in enumerate(self.params):
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * p.grad
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * p.grad ** 2
            m_hat = self.m[i] / correction1
            v_hat = self.v[i] / correction2
            p.value -= self.lr * m_hat / (np.sqrt(v_hat) + self.epsilon)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


def gradient_check(model, inputs, target, epsilon: float = 1e-4) -> float:
    """Max relative error between backprop and central finite differences.

    ``model`` must expose parameters() and two dropout-free evaluations:
    loss(inputs, target) and loss_and_grad(inputs, target). The relative
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
    if not path.exists():
        raise DataError(f"checkpoint not found: {path}")
    size = path.stat().st_size
    with path.open("rb") as handle:
        raw_len = handle.read(8)
        if len(raw_len) != 8:
            raise DataError(f"{path}: truncated checkpoint header")
        (header_len,) = struct.unpack("<Q", raw_len)
        if header_len > size - 8:
            raise DataError(f"{path}: truncated checkpoint header")
        try:
            manifest = json.loads(handle.read(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
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
        arrays = [np.frombuffer(handle.read(count * 8), dtype="<f8").reshape(shape).copy()
                  for shape, count in zip(shapes, counts)]
    return Checkpoint(manifest=manifest, arrays=arrays)
