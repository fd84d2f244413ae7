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

Convolution kernels.  Strided conv2d (encoder trunk, base-encoders,
discriminator) runs one GEMM over an im2col patch matrix, and its input
gradient scatters back through col2im.  Every stride-1 correlation -- the
conv2d forward, the conv2d input gradient (a correlation of the output
gradient with the flipped, transposed kernel) and the deconv2d forward (one
correlation with out_c * factor^2 sub-pixel phase outputs) -- picks its
kernel by a fixed rule on shapes alone: with c input and oc output
channels, the shifted GEMM runs when

    oc <= c  and  its im2col matrix would take >= SHIFTED_MIN_BYTES (2 MiB),

and im2col plus one GEMM runs otherwise.  The shifted GEMM accumulates one
(oc, c) GEMM per kernel tap over contiguous slices of the padded input, so
it builds no patch matrix; it loses when oc > c, where its per-tap output
traffic exceeds the patch matrix (9x slower for c = 1), and on small inputs,
where the patch matrix stays in cache.  Timing forward plus kernel gradient
of 3x3 layers (2-core Xeon VM, one BLAS thread), im2col won up to 0.84 MiB,
the two tied at 1.3-1.4 MiB and the shifted GEMM won from 1.7 MiB on.

The deconv2d forward then places the phases by depth-to-space, which is
col2im with non-overlapping factor x factor windows and so one transposed
copy.  deconv2d's backward gathers through im2col.
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
# Convolution kernels: im2col/col2im, shifted GEMM, sub-pixel phases

SHIFTED_MIN_BYTES = 2 * 2**20  # see the module docstring


def _conv_out_size(size: int, k: int, stride: int, pad: int) -> int:
    return (size + 2 * pad - k) // stride + 1


def _padded(a: np.ndarray, top: int, bottom: int, side: int) -> np.ndarray:
    """Zero-pad the rows of (n, c, h, w) by top/bottom and the columns by side.

    Cheaper than np.pad on the small arrays most layers see.
    """
    n, c, h, w = a.shape
    out = np.zeros((n, c, h + top + bottom, w + 2 * side))
    out[:, :, top:top + h, side:side + w] = a
    return out


def _im2col(a: np.ndarray, kh: int, kw: int, stride: int, ph: int, pw: int) -> np.ndarray:
    """(n, c, h, w) -> (n, c*kh*kw, oh*ow) patch matrix; ph/pw pad rows/columns."""
    n, c, h, w = a.shape
    if ph or pw:
        a = _padded(a, ph, ph, pw)
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
    if (kh, kw, ph, pw) == (stride, stride, 0, 0) and (h, w) == (stride * oh, stride * ow):
        # the windows tile the canvas without overlap, so the scatter is a
        # permutation (depth-to-space): one transposed copy, no adds
        return cols.reshape(n, c, kh, kw, oh, ow).transpose(0, 1, 4, 2, 5, 3).reshape(shape)
    buf = np.zeros((n, c, h + 2 * ph, w + 2 * pw))
    cols = cols.reshape(n, c, kh, kw, oh, ow)
    for i in range(kh):
        for j in range(kw):
            buf[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += cols[:, :, i, j]
    if ph or pw:
        buf = np.ascontiguousarray(buf[:, :, ph:ph + h, pw:pw + w])
    return buf


def _use_shifted(n: int, c: int, oc: int, kh: int, kw: int, oh: int, ow: int) -> bool:
    """The shape rule for stride-1 correlations (see the module docstring)."""
    return oc <= c and 8 * n * c * kh * kw * oh * ow >= SHIFTED_MIN_BYTES


def _flat_padded(a: np.ndarray, ph: int, pw: int) -> np.ndarray:
    """(n, c, h, w) -> (n, c, (h + 2*ph + 1) * (w + 2*pw)), zero-padded and flattened.

    The spare bottom row keeps every shifted slice of _conv_shifted in bounds.
    """
    n, c, _, _ = a.shape
    return _padded(a, ph, ph + 1, pw).reshape(n, c, -1)


def _conv_shifted(a: np.ndarray, kernel: np.ndarray, ph: int, pw: int) -> np.ndarray:
    """Stride-1 correlation as kh*kw GEMMs over shifted slices, with no patch matrix.

    In the flattened padded input, tap (i, j) of every output pixel sits at
    offset i*wp + j from the pixel's own index, so one contiguous slice per tap
    feeds an (oc, c) GEMM.  Each output row then carries wp - ow columns that
    straddle the row end; they are cropped at the end.
    """
    n, c, h, w = a.shape
    oc, _, kh, kw = kernel.shape
    oh, ow, wp = h + 2 * ph - kh + 1, w + 2 * pw - kw + 1, w + 2 * pw
    flat = _flat_padded(a, ph, pw)
    span = oh * wp
    out = np.matmul(kernel[:, :, 0, 0], flat[:, :, :span])
    tmp = np.empty_like(out)
    for tap in range(1, kh * kw):
        off = (tap // kw) * wp + tap % kw
        np.matmul(kernel[:, :, tap // kw, tap % kw], flat[:, :, off:off + span], out=tmp)
        out += tmp
    return np.ascontiguousarray(out.reshape(n, oc, oh, wp)[:, :, :, :ow])


def _conv_shifted_kernel_grad(a: np.ndarray, gout: np.ndarray, kh: int, kw: int,
                              ph: int, pw: int) -> np.ndarray:
    """Kernel gradient of _conv_shifted, one GEMM per tap over the same slices."""
    n, c, h, w = a.shape
    _, oc, oh, ow = gout.shape
    wp = w + 2 * pw
    span = oh * wp
    flat = _flat_padded(a, ph, pw)
    g = np.zeros((n, oc, oh, wp))
    g[:, :, :, :ow] = gout  # zeros where the forward's cropped columns were
    g = g.reshape(n, oc, span)
    dk = np.empty((oc, c, kh, kw))
    for tap in range(kh * kw):
        off = (tap // kw) * wp + tap % kw
        part = np.matmul(g, flat[:, :, off:off + span].transpose(0, 2, 1))
        dk[:, :, tap // kw, tap % kw] = part.sum(axis=0)
    return dk


def _correlate(a: np.ndarray, kernel: np.ndarray, stride: int, ph: int, pw: int):
    """Cross-correlate (n, c, h, w) with an (oc, c, kh, kw) kernel, no bias.

    Returns (out, cols): cols is the im2col patch matrix when that kernel
    ran (conv2d keeps it for the kernel gradient), else None.  A negative
    padding, which only stride-1 input gradients ask for, crops instead.
    """
    if ph < 0 or pw < 0:
        _, _, h, w = a.shape
        a = a[:, :, max(-ph, 0):h - max(-ph, 0), max(-pw, 0):w - max(-pw, 0)]
        ph, pw = max(ph, 0), max(pw, 0)
    n, c, h, w = a.shape
    oc, _, kh, kw = kernel.shape
    oh = _conv_out_size(h, kh, stride, ph)
    ow = _conv_out_size(w, kw, stride, pw)
    if stride == 1 and _use_shifted(n, c, oc, kh, kw, oh, ow):
        return _conv_shifted(a, kernel, ph, pw), None
    cols = _im2col(a, kh, kw, stride, ph, pw)
    return np.matmul(kernel.reshape(oc, -1), cols).reshape(n, oc, oh, ow), cols


def _phase_span(k: int, factor: int, pad: int, d: int, u: int) -> tuple[int, int, int]:
    """Phases r in [lo, hi) that phase-kernel tap u reads, and the kernel tap of r = lo.

    Output pixel factor*q + r of a transposed convolution sums input q - d'
    times kernel tap factor*d' + r + pad; tap u of the phase kernel is d' = d - u.
    """
    t0 = factor * (d - u) + pad
    lo, hi = max(0, -t0), min(factor, k - t0)
    return lo, hi, t0 + lo


def _phase_kernel(kernel: np.ndarray, factor: int) -> tuple[np.ndarray, int, int]:
    """(ic, oc, kh, kw) deconv kernel -> ((oc*f*f, ic, uh, uw) stride-1 kernel, dh, dw).

    Output channel (o, rh, rw) of the stride-1 correlation, with padding
    (dh, dw), is output phase (rh, rw) of channel o of the deconvolution.
    """
    ic, oc, kh, kw = kernel.shape
    f = factor
    ph, pw = (kh - f) // 2, (kw - f) // 2
    dh, dw = (f - 1 + ph) // f, (f - 1 + pw) // f
    uh, uw = 2 * dh + 1, 2 * dw + 1
    taps = np.zeros((ic, uh, uw, oc, f, f))
    for i in range(uh):
        rlo, rhi, ti = _phase_span(kh, f, ph, dh, i)
        for j in range(uw):
            clo, chi, tj = _phase_span(kw, f, pw, dw, j)
            if rlo < rhi and clo < chi:
                taps[:, i, j, :, rlo:rhi, clo:chi] = \
                    kernel[:, :, ti:ti + rhi - rlo, tj:tj + chi - clo]
    # a transposed view: _correlate's kernel.reshape(oc, -1) does not copy it
    return taps.reshape(ic, uh, uw, oc * f * f).transpose(3, 0, 1, 2), dh, dw


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

    out, cols = _correlate(x.data, kernel.data, stride, padding, padding)
    out += bias.data

    def backward(gout: np.ndarray):
        dx = dk = db = None
        if x.requires_grad and stride == 1:
            # the adjoint of a stride-1 correlation is a correlation of gout
            # with the flipped, transposed kernel
            flipped = kernel.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
            dx = _correlate(gout, flipped, 1, kh - 1 - padding, kw - 1 - padding)[0]
        elif x.requires_grad:
            dcols = np.matmul(kernel.data.reshape(oc, -1).T, gout.reshape(n, oc, oh * ow))
            dx = _col2im(dcols, x.shape, kh, kw, stride, padding, padding, oh, ow)
        if kernel.requires_grad and cols is None:
            dk = _conv_shifted_kernel_grad(x.data, gout, kh, kw, padding, padding)
        elif kernel.requires_grad:
            gmat = gout.reshape(n, oc, oh * ow)
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
    f = factor

    # sub-pixel form: one stride-1 correlation computes every output phase,
    # then depth-to-space -- col2im with f x f windows at stride f -- places
    # phase (rh, rw) of pixel q at f*q + (rh, rw)
    phases, dh, dw = _phase_kernel(kernel.data, f)
    y = _correlate(x.data, phases, 1, dh, dw)[0]
    out = _col2im(y, (n, oc, h * f, w * f), f, f, f, 0, 0, h, w)
    out += bias.data

    def backward(gout: np.ndarray):
        dx = dk = db = None
        gcols = _im2col(gout, kh, kw, f, ph, pw)   # (n, oc*kh*kw, h*w)
        if x.requires_grad:
            dx = np.matmul(kernel.data.reshape(ic, -1), gcols).reshape(x.shape)
        if kernel.requires_grad:
            z = x.data.reshape(n, ic, h * w)
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
    # for alpha in [0, 1) this is where(x > 0, x, alpha * x), and NaN passes through
    out = np.maximum(x.data, alpha * x.data)
    return _record("lrelu", (x,), out, lambda g: (g * np.where(x.data > 0, 1.0, alpha),))


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
