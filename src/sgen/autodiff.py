"""Dense 4-D tensors with reverse-mode automatic differentiation.

Every tensor is a float64 array of shape (batch, channels, height, width);
scalars live in shape (1, 1, 1, 1). Operations executed while a Graph is
active are appended to that graph's tape in execution order, which makes the
tape itself a topological order: one reversed sweep propagates gradients and
visits each recorded node exactly once. Gradients accumulate (+=) into any
tensor consumed by several ops.

Nothing here is specific to one network; the op set is just large enough to
express a gated convolutional encoder-decoder, a convolutional classifier and
the usual GAN/MSE training losses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, NumericsError, UsageError

LOG_FLOOR = 1e-12  # clamp for log() arguments, keeps losses finite


class Tensor:
    """A float64 (batch, channels, height, width) array, optionally tracked for grad."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 4:
            raise ConfigError(f"tensors are 4-D (n, c, h, w); got shape {arr.shape}")
        self.data = np.ascontiguousarray(arr)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise UsageError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        """A view of the same data with no grad tracking."""
        return Tensor(self.data, requires_grad=False)

    @staticmethod
    def scalar(value: float) -> "Tensor":
        return Tensor(np.full((1, 1, 1, 1), float(value)))

    @staticmethod
    def zeros(shape: Sequence[int], requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(tuple(shape)), requires_grad=requires_grad)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


@dataclass
class _Node:
    op: str
    inputs: tuple[Tensor, ...]
    output: Tensor
    # called with d(loss)/d(output); returns one gradient array (or None) per input
    backward: Callable[[np.ndarray], tuple[np.ndarray | None, ...]]


_GRAPH_STACK: list["Graph"] = []


class Graph:
    """Tape of recorded operations; reusable as a context manager (enter to resume)."""

    def __init__(self):
        self.nodes: list[_Node] = []
        self._recorded: set[int] = set()

    def __enter__(self) -> "Graph":
        _GRAPH_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _GRAPH_STACK.pop()
        if popped is not self:
            raise UsageError("graph context exited out of order")

    def owns(self, t: Tensor) -> bool:
        return id(t) in self._recorded

    def backward(self, loss: Tensor) -> None:
        """Populate .grad for every requires_grad tensor contributing to `loss`."""
        if not self.owns(loss):
            raise UsageError("backward target was not produced on this graph")
        if loss.data.size != 1:
            raise UsageError(f"backward needs a scalar loss, got shape {loss.shape}")
        for node in self.nodes:
            node.output.grad = None
            for t in node.inputs:
                t.grad = None
        loss.grad = np.ones((1, 1, 1, 1))
        for node in reversed(self.nodes):
            gout = node.output.grad
            if gout is None:
                continue  # not on the path to the loss
            for t, g in zip(node.inputs, node.backward(gout)):
                if g is None or not t.requires_grad:
                    continue
                if t.grad is None:
                    t.grad = g
                else:
                    t.grad += g


def _record(op: str, inputs: tuple[Tensor, ...], out_data: np.ndarray,
            backward: Callable[[np.ndarray], tuple[np.ndarray | None, ...]]) -> Tensor:
    out = Tensor(out_data)
    graph = _GRAPH_STACK[-1] if _GRAPH_STACK else None
    if graph is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        graph.nodes.append(_Node(op, inputs, out, backward))
        graph._recorded.add(id(out))
    return out


# ---------------------------------------------------------------------------
# im2col / col2im plumbing shared by conv2d and deconv2d


def _conv_out_size(size: int, k: int, stride: int, pad: int) -> int:
    return (size + 2 * pad - k) // stride + 1


def _im2col(a: np.ndarray, kh: int, kw: int, stride: int, ph: int, pw: int) -> np.ndarray:
    """(n, c, h, w) -> (n, c*kh*kw, oh*ow) patch matrix; ph/pw pad rows/columns."""
    n, c, h, w = a.shape
    if ph or pw:
        a = np.pad(a, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    oh = _conv_out_size(h, kh, stride, ph)
    ow = _conv_out_size(w, kw, stride, pw)
    s0, s1, s2, s3 = a.strides
    view = np.lib.stride_tricks.as_strided(
        a, (n, c, kh, kw, oh, ow), (s0, s1, s2, s3, s2 * stride, s3 * stride))
    return view.reshape(n, c * kh * kw, oh * ow)  # reshape copies out of the view


def _col2im(cols: np.ndarray, shape: tuple[int, int, int, int], kh: int, kw: int,
            stride: int, ph: int, pw: int, oh: int, ow: int) -> np.ndarray:
    """Adjoint of _im2col: scatter-add patches back onto an (n, c, h, w) canvas."""
    n, c, h, w = shape
    buf = np.zeros((n, c, h + 2 * ph, w + 2 * pw))
    cols = cols.reshape(n, c, kh, kw, oh, ow)
    for i in range(kh):
        for j in range(kw):
            buf[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += cols[:, :, i, j]
    if ph or pw:
        buf = np.ascontiguousarray(buf[:, :, ph:ph + h, pw:pw + w])
    return buf


# ---------------------------------------------------------------------------
# Convolution


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D convolution (cross-correlation), kernel (out_c, in_c, kh, kw), bias (1, out_c, 1, 1).

    Output spatial size is floor((size + 2*padding - k) / stride) + 1 and must
    be positive; strided windows that do not fit are dropped.
    """
    n, c, h, w = x.shape
    oc, ic, kh, kw = kernel.shape
    if c != ic:
        raise ConfigError(f"conv2d: input has {c} channels but kernel {kernel.shape} expects {ic}")
    if bias.shape != (1, oc, 1, 1):
        raise ConfigError(f"conv2d: bias shape {bias.shape} != (1, {oc}, 1, 1)")
    if stride < 1 or padding < 0:
        raise ConfigError(f"conv2d: bad stride/padding ({stride}, {padding})")
    oh = _conv_out_size(h, kh, stride, padding)
    ow = _conv_out_size(w, kw, stride, padding)
    if oh < 1 or ow < 1:
        raise ConfigError(
            f"conv2d: kernel {kh}x{kw} stride {stride} pad {padding} gives empty output "
            f"for input {h}x{w}")

    cols = _im2col(x.data, kh, kw, stride, padding, padding)  # (n, ic*kh*kw, L)
    kmat = kernel.data.reshape(oc, -1)
    out = np.matmul(kmat, cols).reshape(n, oc, oh, ow)
    out += bias.data

    def backward(gout: np.ndarray):
        gmat = gout.reshape(n, oc, oh * ow)
        dx = dk = db = None
        if x.requires_grad:
            dcols = np.matmul(kmat.T, gmat)
            dx = _col2im(dcols, x.shape, kh, kw, stride, padding, padding, oh, ow)
        if kernel.requires_grad:
            dk = np.matmul(gmat, cols.transpose(0, 2, 1)).sum(axis=0).reshape(kernel.shape)
        if bias.requires_grad:
            db = gout.sum(axis=(0, 2, 3)).reshape(1, oc, 1, 1)
        return dx, dk, db

    return _record("conv2d", (x, kernel, bias), out, backward)


def deconv2d(x: Tensor, kernel: Tensor, bias: Tensor, factor: int = 1) -> Tensor:
    """Transposed convolution upsampling spatial dims by exactly `factor`.

    Kernel layout is (in_c, out_c, kh, kw) with stride = factor and implied
    padding (k - factor) / 2 per axis, so (k - factor) must be even and >= 0;
    the forward map is the exact adjoint of conv2d with the same kernel,
    stride and padding.
    """
    n, c, h, w = x.shape
    ic, oc, kh, kw = kernel.shape
    if c != ic:
        raise ConfigError(f"deconv2d: input has {c} channels but kernel {kernel.shape} expects {ic}")
    if bias.shape != (1, oc, 1, 1):
        raise ConfigError(f"deconv2d: bias shape {bias.shape} != (1, {oc}, 1, 1)")
    if factor < 1:
        raise ConfigError(f"deconv2d: factor must be >= 1, got {factor}")
    if (kh - factor) % 2 or (kw - factor) % 2 or kh < factor or kw < factor:
        raise ConfigError(
            f"deconv2d: kernel {kh}x{kw} cannot upsample by exactly x{factor}; "
            f"kernel size minus factor must be even and non-negative")
    ph, pw = (kh - factor) // 2, (kw - factor) // 2
    out_shape = (n, oc, h * factor, w * factor)

    kmat = kernel.data.reshape(ic, -1)                   # (ic, oc*kh*kw)
    z = x.data.reshape(n, ic, h * w)
    cols = np.matmul(kmat.T, z)                          # (n, oc*kh*kw, h*w)
    out = _col2im(cols, out_shape, kh, kw, factor, ph, pw, h, w)
    out += bias.data

    def backward(gout: np.ndarray):
        dx = dk = db = None
        gcols = _im2col(gout, kh, kw, factor, ph, pw)   # (n, oc*kh*kw, h*w)
        if x.requires_grad:
            dx = np.matmul(kmat, gcols).reshape(x.shape)
        if kernel.requires_grad:
            dk = np.matmul(z, gcols.transpose(0, 2, 1)).sum(axis=0).reshape(kernel.shape)
        if bias.requires_grad:
            db = gout.sum(axis=(0, 2, 3)).reshape(1, oc, 1, 1)
        return dx, dk, db

    return _record("deconv2d", (x, kernel, bias), out, backward)


# ---------------------------------------------------------------------------
# Pointwise ops


def relu(x: Tensor) -> Tensor:
    # NaN fails `<= 0` and passes through, where `> 0` would zero it unseen
    out = np.where(x.data <= 0, 0.0, x.data)
    return _record("relu", (x,), out, lambda g: (g * (x.data > 0),))


def lrelu(x: Tensor, alpha: float = 0.2) -> Tensor:
    mask = x.data > 0
    out = np.where(mask, x.data, alpha * x.data)
    return _record("lrelu", (x,), out, lambda g: (g * np.where(mask, 1.0, alpha),))


def sigmoid(x: Tensor) -> Tensor:
    # evaluate via exp(-|x|) so neither branch can overflow
    d = x.data
    e = np.exp(-np.abs(d))
    out = np.where(d >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return _record("sigmoid", (x,), out, lambda g: (g * out * (1.0 - out),))


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)
    return _record("tanh", (x,), out, lambda g: (g * (1.0 - out * out),))


def _check_same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ConfigError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape("add", a, b)
    return _record("add", (a, b), a.data + b.data, lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape("sub", a, b)
    return _record("sub", (a, b), a.data - b.data, lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape("mul", a, b)
    return _record("mul", (a, b), a.data * b.data, lambda g: (g * b.data, g * a.data))


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise max; on ties the gradient goes to the first argument."""
    _check_same_shape("maximum", a, b)
    take_a = a.data >= b.data
    out = np.where(take_a, a.data, b.data)
    return _record("maximum", (a, b), out,
                   lambda g: (g * take_a, g * ~take_a))


def affine(x: Tensor, scale: float, shift: float) -> Tensor:
    """scale * x + shift with python-float coefficients."""
    s = float(scale)
    return _record("affine", (x,), s * x.data + float(shift), lambda g: (g * s,))


def log_clamped(x: Tensor, floor: float = LOG_FLOOR) -> Tensor:
    """log(max(x, floor)); gradient is zero where the clamp is active."""
    clamped = np.maximum(x.data, floor)
    live = x.data > floor
    return _record("log", (x,), np.log(clamped), lambda g: (g * live / clamped,))


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
        raise ConfigError(f"concat_channels: incompatible shapes {a.shape} vs {b.shape}")
    ca = a.shape[1]
    out = np.concatenate([a.data, b.data], axis=1)
    return _record("concat", (a, b), out,
                   lambda g: (np.ascontiguousarray(g[:, :ca]), np.ascontiguousarray(g[:, ca:])))


def global_avg_pool(x: Tensor) -> Tensor:
    """(n, c, h, w) -> (n, c, 1, 1) per-plane means."""
    n, c, h, w = x.shape
    out = x.data.mean(axis=(2, 3), keepdims=True)
    return _record("gap", (x,), out,
                   lambda g: (np.broadcast_to(g / (h * w), x.shape).copy(),))


def sum_all(x: Tensor) -> Tensor:
    """Reduce every element to one scalar tensor."""
    out = np.full((1, 1, 1, 1), x.data.sum())
    return _record("sum", (x,), out,
                   lambda g: (np.full(x.shape, g.reshape(())),))


def mean_all(x: Tensor) -> Tensor:
    size = x.data.size
    out = np.full((1, 1, 1, 1), x.data.mean())
    return _record("mean", (x,), out,
                   lambda g: (np.full(x.shape, g.reshape(()) / size),))


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    """Per-parameter first/second moment buffers plus the shared step counter."""

    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(params: Mapping[str, Tensor], grads: Mapping[str, np.ndarray],
              state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update, in place, over a named parameter set."""
    state.step += 1
    t = state.step
    c1 = 1.0 - state.beta1 ** t
    c2 = 1.0 - state.beta2 ** t
    for path, p in params.items():
        g = grads.get(path)
        if g is None:
            raise ConfigError(f"adam_step: no gradient supplied for '{path}'")
        if g.shape != p.data.shape:
            raise ConfigError(
                f"adam_step: gradient shape {g.shape} != parameter shape {p.data.shape} at '{path}'")
        if not np.isfinite(g).all():
            raise NumericsError(f"adam_step: non-finite gradient for parameter '{path}'")
        m = state.m.setdefault(path, np.zeros_like(p.data))
        v = state.v.setdefault(path, np.zeros_like(p.data))
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + state.eps)


def collect_grads(params: Mapping[str, Tensor]) -> dict[str, np.ndarray]:
    """Snapshot .grad for every named parameter (missing grads become zeros)."""
    out = {}
    for path, p in params.items():
        out[path] = np.zeros_like(p.data) if p.grad is None else p.grad
    return out
