"""Dense 4-D tensors with reverse-mode automatic differentiation.

Every tensor is a float64 array of shape (batch, channels, height, width);
scalars live in shape (1, 1, 1, 1). Operations executed while a Graph is
active are appended to that graph's tape in execution order, which makes the
tape itself a topological order: one reversed sweep propagates gradients and
visits each recorded node exactly once. `Graph.backward(loss, wrt)` returns
d(loss)/d(t) for each leaf tensor t in `wrt`, zeros for one off the loss's
path; no tensor stores a gradient.  A tensor consumed by several ops gets the
sum of their contributions, and the gradient of each recorded output is
dropped once its node's backward has read it.

Nothing here is specific to one network; the op set is just large enough to
express a gated convolutional encoder-decoder, a convolutional classifier and
the usual GAN/MSE training losses.

Convolution kernels.  Strided conv2d (encoder trunk, base-encoders,
discriminator) runs one GEMM over an im2col patch matrix.  Its adjoint, the
transposed convolution, has one implementation, _conv_transpose: it is
conv2d's input gradient at every stride and deconv2d's forward.  In
sub-pixel form, pixel s*q + r of the padded input sums output-gradient
pixel q - d times kernel tap s*d + r, so one stride-1 correlation with
in_c * s^2 phase outputs and ceil(k / s) taps per axis computes every phase
(no zero taps when s divides k), and depth-to-space -- the adjoint of im2col
for non-overlapping s x s windows, _col2im -- places them.  Where a stride
drops windows, the pixels past the last window are reached by zero rows and
columns appended to the gradient.  Phase rows and columns that lie wholly
in the conv padding are not computed (at stride 1 this leaves the
correlation of the gradient with the flipped kernel).  _col2im skips the
rest of the padding: it writes each phase (rh, rw) with one strided copy
straight into the rows and columns of the result that phase owns, so no
padded canvas is built and nothing is cropped.  A transposed convolution
then holds the phase correlation's output and its result, 2.0x the result,
where a canvas and its crop took 3.0x.  For x2 from 184x152 with 8 channels
(2-core Xeon VM, one BLAS thread) the phase copies take 2.5-2.6 ms, where
the canvas's 6-D transposed copy, whose inner loop ran over s = 2 elements,
took 4.5-4.8 ms and the crop another ~1.4 ms.  At s = 8 the 64 copies take
1.0 ms against the transposed copy's 0.6 ms, and the dropped crop pays that
back.  The pair runs both ways: one tape node, _conv_node, computes conv2d
with _correlate forward and _conv_transpose backward, and deconv2d with the
two swapped, so deconv2d's input gradient is a strided correlation of its
output gradient.

All zero-padding goes through _padded, which returns its input when nothing
is added: the conv padding, the shifted GEMM's spare row and cropped
columns, the zero rows and columns of the gradient and the zero taps of the
phase kernel.  _im2col gathers from an array that is already padded.

Every stride-1 correlation -- the conv2d forward and the phase correlation
of _conv_transpose -- picks its kernel by a fixed rule on shapes alone:
with c input and oc output channels, the shifted GEMM runs when

    oc <= c  and  its im2col matrix would take >= SHIFTED_MIN_BYTES (2 MiB),

and im2col plus one GEMM runs otherwise.  The shifted GEMM accumulates one
(oc, c) GEMM per kernel tap over contiguous slices of the padded input, so
it builds no patch matrix; it loses when oc > c, where its per-tap output
traffic exceeds the patch matrix (9x slower for c = 1), and on small inputs,
where the patch matrix stays in cache.  Timing forward plus kernel gradient
of 3x3 layers (2-core Xeon VM, one BLAS thread), im2col won up to 0.84 MiB,
the two tied at 1.3-1.4 MiB and the shifted GEMM won from 1.7 MiB on.

The tape rule.  A conv2d or deconv2d node keeps its input, its kernel and
its activated output, and no patch matrix.  The activation that follows a
layer (`act`: relu, lrelu, sigmoid or tanh) runs on the layer's fresh
output, in place, and its gradient is read from the activated output, so
the pre-activation array is never kept.  Both ops have one kernel gradient,
_kernel_grad.  Where no patch matrix is at hand (conv2d, whose forward
dropped it, or a deconv2d with an untracked input) it pads the batch once
and gathers the patches again, one image at a time, so that each image's
matrix is still in cache when its GEMM reads it; deconv2d otherwise reuses
the matrix its input gradient gathered.  In the adversarial batch-8
benchmark (2-core Xeon VM, one BLAS thread) gathering per image cost less
step time than gathering the whole batch again or in 2 MiB chunks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, TypeVar

import numpy as np

from .errors import ConfigError, NumericsError, UsageError

LOG_FLOOR = 1e-12  # clamp for log() arguments, keeps losses finite
_K = TypeVar("_K")


class Tensor:
    """A float64 (batch, channels, height, width) array, optionally tracked for grad."""

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 4:
            raise ConfigError(f"tensors are 4-D (n, c, h, w); got shape {arr.shape}")
        self.data = np.ascontiguousarray(arr)
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

    def __enter__(self) -> "Graph":
        _GRAPH_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _GRAPH_STACK.pop()
        if popped is not self:
            raise UsageError("graph context exited out of order")

    def backward(self, loss: Tensor, wrt: Mapping[_K, Tensor]) -> dict[_K, np.ndarray]:
        """{key: d(loss)/d(wrt[key])} for leaf tensors; zeros for one off the loss's path.

        The tape is left in place.  Each recorded output's gradient is dropped
        as soon as its node's backward has read it.
        """
        outputs = {id(node.output) for node in self.nodes}
        if id(loss) not in outputs:
            raise UsageError("backward target was not produced on this graph")
        if loss.data.size != 1:
            raise UsageError(f"backward needs a scalar loss, got shape {loss.shape}")
        recorded = [key for key, t in wrt.items() if id(t) in outputs]
        if recorded:
            raise UsageError(f"backward differentiates leaf tensors; {recorded} were recorded here")
        grads = {id(loss): np.ones((1, 1, 1, 1))}
        for node in reversed(self.nodes):
            gout = grads.pop(id(node.output), None)
            if gout is None:
                continue  # not on the path to the loss
            for t, g in zip(node.inputs, node.backward(gout)):
                if g is None or not t.requires_grad:
                    continue
                prev = grads.get(id(t))
                # out of place: a node may return one array for several inputs
                grads[id(t)] = g if prev is None else prev + g
        return {key: grads[id(t)] if id(t) in grads else np.zeros_like(t.data)
                for key, t in wrt.items()}


def _record(op: str, inputs: tuple[Tensor, ...], out_data: np.ndarray,
            backward: Callable[[np.ndarray], tuple[np.ndarray | None, ...]]) -> Tensor:
    out = Tensor(out_data)
    graph = _GRAPH_STACK[-1] if _GRAPH_STACK else None
    if graph is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        graph.nodes.append(_Node(op, inputs, out, backward))
    return out


# ---------------------------------------------------------------------------
# Convolution kernels: im2col/col2im, shifted GEMM, the transposed convolution

SHIFTED_MIN_BYTES = 2 * 2**20  # see the module docstring


def _conv_out_size(size: int, k: int, stride: int, pad: int) -> int:
    return (size + 2 * pad - k) // stride + 1


def _padded(a: np.ndarray, top: int, bottom: int, left: int, right: int) -> np.ndarray:
    """Zero-pad the last two axes of a 4-D array; `a` itself when nothing is added.

    The one zero-padding of this module: cheaper than np.pad on the small
    arrays most layers see.
    """
    if not (top or bottom or left or right):
        return a
    n, c, h, w = a.shape
    out = np.zeros((n, c, h + top + bottom, w + left + right))
    out[:, :, top:top + h, left:left + w] = a
    return out


def _im2col(a: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """Padded (n, c, h, w) -> (n, c*kh*kw, oh*ow) patch matrix of the windows that fit."""
    n, c, h, w = a.shape
    oh = _conv_out_size(h, kh, stride, 0)
    ow = _conv_out_size(w, kw, stride, 0)
    s0, s1, s2, s3 = a.strides
    view = np.lib.stride_tricks.as_strided(
        a, (n, c, kh, kw, oh, ow), (s0, s1, s2, s3, s2 * stride, s3 * stride))
    return view.reshape(n, c * kh * kw, oh * ow)  # reshape copies out of the view


def _col2im(cols: np.ndarray, shape: tuple[int, int, int, int], kh: int, kw: int,
            top: int, left: int) -> np.ndarray:
    """Adjoint of _im2col for kh x kw windows that tile a canvas, cropped to `shape`.

    cols is (n, c*kh*kw, qh, qw): entry ((c, rh, rw), q, p) is canvas pixel
    (kh*q + rh, kw*p + rw).  With stride (kh, kw) the windows do not overlap,
    so the adjoint is a permutation (depth-to-space) and needs no adds.  The
    (n, c, h, w) output is the canvas from row `top` and column `left` on,
    written one strided copy per phase (rh, rw), so no canvas is built.
    """
    n, c, h, w = shape
    phases = cols.reshape(n, c, kh, kw, *cols.shape[-2:])
    out = np.empty(shape)
    for rh in range(kh):
        y0 = (rh - top) % kh  # first output row of phase rh
        q0, rows = (y0 + top) // kh, len(range(y0, h, kh))
        for rw in range(kw):
            x0 = (rw - left) % kw
            p0, ncols = (x0 + left) // kw, len(range(x0, w, kw))
            out[:, :, y0::kh, x0::kw] = phases[:, :, rh, rw, q0:q0 + rows, p0:p0 + ncols]
    return out


def _use_shifted(n: int, c: int, oc: int, kh: int, kw: int, oh: int, ow: int) -> bool:
    """The shape rule for stride-1 correlations (see the module docstring)."""
    return oc <= c and 8 * n * c * kh * kw * oh * ow >= SHIFTED_MIN_BYTES


def _conv_shifted(a: np.ndarray, kernel: np.ndarray, ph: int, pw: int) -> np.ndarray:
    """Stride-1 correlation as kh*kw GEMMs over shifted slices, with no patch matrix.

    In the flattened padded input, tap (i, j) of every output pixel sits at
    offset i*wp + j from the pixel's own index, so one contiguous slice per tap
    feeds an (oc, c) GEMM.  Each output row then carries wp - ow columns that
    straddle the row end; they are cropped at the end.  A spare bottom row of
    padding keeps the last tap's slice in bounds.
    """
    n, c, h, w = a.shape
    oc, _, kh, kw = kernel.shape
    oh, ow, wp = h + 2 * ph - kh + 1, w + 2 * pw - kw + 1, w + 2 * pw
    flat = _padded(a, ph, ph + 1, pw, pw).reshape(n, c, -1)
    span = oh * wp
    out = np.matmul(kernel[:, :, 0, 0], flat[:, :, :span])
    tmp = np.empty_like(out)
    for tap in range(1, kh * kw):
        off = (tap // kw) * wp + tap % kw
        np.matmul(kernel[:, :, tap // kw, tap % kw], flat[:, :, off:off + span], out=tmp)
        out += tmp
    return np.ascontiguousarray(out.reshape(n, oc, oh, wp)[:, :, :, :ow])


def _correlate(a: np.ndarray, kernel: np.ndarray, stride: int, ph: int, pw: int):
    """Cross-correlate (n, c, h, w) with an (oc, c, kh, kw) kernel, no bias.

    Returns (out, cols): cols is the im2col patch matrix when that kernel
    ran (conv2d keeps it for the kernel gradient), else None.
    """
    n, c, h, w = a.shape
    oc, _, kh, kw = kernel.shape
    oh = _conv_out_size(h, kh, stride, ph)
    ow = _conv_out_size(w, kw, stride, pw)
    if stride == 1 and _use_shifted(n, c, oc, kh, kw, oh, ow):
        return _conv_shifted(a, kernel, ph, pw), None
    cols = _im2col(_padded(a, ph, ph, pw, pw), kh, kw, stride)
    return np.matmul(kernel.reshape(oc, -1), cols).reshape(n, oc, oh, ow), cols


def _kernel_grad(a: np.ndarray, g: np.ndarray, kh: int, kw: int, stride: int, ph: int, pw: int,
                 cols: np.ndarray | None = None) -> np.ndarray:
    """Kernel gradient of _correlate(a, kernel, stride, ph, pw) for output gradient g.

    Takes the shifted GEMM's taps where _correlate's shape rule picks them.
    Otherwise it works one image at a time, on cols[i] when the caller has
    a's im2col matrix, else on a fresh gather of that image from the batch
    padded once, which is still in cache for its GEMM; starting from zeros,
    the images add in the order of matmul(...).sum(axis=0).
    """
    n, c, _, w = a.shape
    _, oc, oh, ow = g.shape
    if stride == 1 and _use_shifted(n, c, oc, kh, kw, oh, ow):
        wp = w + 2 * pw
        span = oh * wp
        flat = _padded(a, ph, ph + 1, pw, pw).reshape(n, c, -1)
        # zeros where the forward's cropped columns were
        gw = _padded(g, 0, 0, 0, wp - ow).reshape(n, oc, span)
        dk = np.empty((oc, c, kh, kw))
        for tap in range(kh * kw):
            off = (tap // kw) * wp + tap % kw
            part = np.matmul(gw, flat[:, :, off:off + span].transpose(0, 2, 1))
            dk[:, :, tap // kw, tap % kw] = part.sum(axis=0)
        return dk
    gmat = g.reshape(n, oc, oh * ow)
    if cols is None:
        a = _padded(a, ph, ph, pw, pw)
    dk = np.zeros((oc, c * kh * kw))
    for i in range(n):
        ci = _im2col(a[i:i + 1], kh, kw, stride)[0] if cols is None else cols[i]
        dk += np.matmul(gmat[i], ci.T)
    return dk.reshape(oc, c, kh, kw)


def _conv_transpose(g: np.ndarray, kernel: np.ndarray, stride: int, ph: int, pw: int,
                    h: int, w: int) -> np.ndarray:
    """Adjoint of _correlate(., kernel, stride, ph, pw) on an (n, ic, h, w) input.

    Sub-pixel form: pixel s*q + r of the padded canvas sums g[q - d] times
    kernel tap s*d + r, so one stride-1 correlation of g with the phase
    kernel -- entry ((c, rh, rw), o, uh, uw) is tap (s*(dh-1-uh) + rh,
    s*(dw-1-uw) + rw) of kernel[o, c], zero past the kernel -- computes
    every phase r of every q, and depth-to-space places them straight into
    the (n, ic, h, w) input, skipping the canvas's padding.  Canvas pixels
    past the last window get zero rows and columns of g.
    """
    n, _, oh, ow = g.shape
    oc, ic, kh, kw = kernel.shape
    s = stride
    dh, dw = -(-kh // s), -(-kw // s)
    kernel = _padded(kernel, 0, s * dh - kh, 0, s * dw - kw)  # zero taps past the kernel's edge
    phases = kernel.reshape(oc, ic, dh, s, dw, s)[:, :, ::-1, :, ::-1]
    # contiguous: for a 1x1 kernel the transpose is a view, which the GEMM
    # would read in another order and round differently
    phases = np.ascontiguousarray(phases.transpose(1, 3, 5, 0, 2, 4))
    phases = phases.reshape(ic * s * s, oc, dh, dw)
    # phase rows (columns) that lie wholly in the top (left) padding are not computed
    th, tw = min(ph // s, dh - 1), min(pw // s, dw - 1)
    # zero rows and columns of g, so that the phases reach the last pixel of the input
    eh = max(-(-(ph + h) // s) + th - (oh + dh - 1), 0)
    ew = max(-(-(pw + w) // s) + tw - (ow + dw - 1), 0)
    y = _correlate(_padded(g, 0, eh, 0, ew), phases, 1, dh - 1 - th, dw - 1 - tw)[0]
    return _col2im(y, (n, ic, h, w), s, s, ph - s * th, pw - s * tw)


# ---------------------------------------------------------------------------
# Activations


def _relu(a: np.ndarray, alpha: float) -> np.ndarray:
    # where(x <= 0, 0.0, x): maximum lets NaN through, and adding 0.0 turns
    # the -0.0 it may keep into 0.0
    np.maximum(a, 0.0, out=a)
    a += 0.0
    return a


def _sigmoid(a: np.ndarray, alpha: float) -> np.ndarray:
    # evaluate via e = exp(-|x|) so neither branch can overflow: the numerator
    # is 1 where x >= 0 and e elsewhere (e <= 1; NaN stays NaN), over 1 + e
    e = np.abs(a)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.maximum(e, a >= 0, out=a)
    e += 1.0
    return np.divide(a, e, out=a)


# name -> (forward of a fresh array, which it may overwrite and return;
# input gradient from the output gradient g and the output).  Each gradient
# reads the activation's output, never its input, which a fused
# conv2d/deconv2d does not keep: for relu, and for lrelu with alpha in
# [0, 1), out > 0 exactly where x > 0.  NaN passes through every forward, so
# _check_finite can name the layer.
_ACTIVATIONS: dict[str, tuple[Callable, Callable]] = {
    "relu": (_relu, lambda g, out, alpha: g * (out > 0)),
    # for alpha in [0, 1) this is where(x > 0, x, alpha * x)
    "lrelu": (lambda a, alpha: np.maximum(a, alpha * a, out=a),
              lambda g, out, alpha: g * np.where(out > 0, 1.0, alpha)),
    "sigmoid": (_sigmoid, lambda g, out, alpha: g * out * (1.0 - out)),
    "tanh": (lambda a, alpha: np.tanh(a, out=a),
             lambda g, out, alpha: g * (1.0 - out * out)),
}
_IDENTITY = (lambda a, alpha: a, lambda g, out, alpha: g)


def _activation(act: str | None) -> tuple[Callable, Callable]:
    if act is None:
        return _IDENTITY
    if act not in _ACTIVATIONS:
        raise ConfigError(f"unknown activation {act!r}; expected one of {sorted(_ACTIVATIONS)}")
    return _ACTIVATIONS[act]


def _pointwise_activation(act: str, x: Tensor, alpha: float = 0.2) -> Tensor:
    activate, act_grad = _ACTIVATIONS[act]
    out = activate(x.data.copy(), alpha)
    return _record(act, (x,), out, lambda g: (act_grad(g, out, alpha),))


def relu(x: Tensor) -> Tensor:
    return _pointwise_activation("relu", x)


def lrelu(x: Tensor, alpha: float = 0.2) -> Tensor:
    return _pointwise_activation("lrelu", x, alpha)


def sigmoid(x: Tensor) -> Tensor:
    return _pointwise_activation("sigmoid", x)


def tanh(x: Tensor) -> Tensor:
    return _pointwise_activation("tanh", x)


# ---------------------------------------------------------------------------
# Convolution


def _conv_node(op: str, x: Tensor, kernel: Tensor, bias: Tensor, stride: int, ph: int, pw: int,
               transposed: bool, act: str | None, alpha: float) -> Tensor:
    """conv2d (transposed False) or deconv2d (transposed True), stride and padding checked.

    The two are adjoint: each one's forward is the other's input gradient.
    _correlate maps conv2d's input to its output and deconv2d's output to
    its input, so deconv2d's kernel gradient is conv2d's with the input and
    the output gradient swapped, on the patch matrix of its input gradient.
    """
    _, c, h, w = x.shape
    oc, ic, kh, kw = kernel.shape
    if transposed:  # deconv2d's kernel is (in_c, out_c, kh, kw)
        oc, ic = ic, oc
    if c != ic:
        raise ConfigError(f"{op}: input has {c} channels but kernel {kernel.shape} expects {ic}")
    if bias.shape != (1, oc, 1, 1):
        raise ConfigError(f"{op}: bias shape {bias.shape} != (1, {oc}, 1, 1)")
    activate, act_grad = _activation(act)
    if transposed:
        out = _conv_transpose(x.data, kernel.data, stride, ph, pw,
                              (h - 1) * stride + kh - 2 * ph, (w - 1) * stride + kw - 2 * pw)
    else:
        out = _correlate(x.data, kernel.data, stride, ph, pw)[0]  # the patch matrix is not kept
    out += bias.data
    out = activate(out, alpha)

    def backward(gout: np.ndarray):
        gout = act_grad(gout, out, alpha)
        dx = dk = db = cols = None
        if x.requires_grad and transposed:
            dx, cols = _correlate(gout, kernel.data, stride, ph, pw)
        elif x.requires_grad:
            dx = _conv_transpose(gout, kernel.data, stride, ph, pw, h, w)
        if kernel.requires_grad:
            a, g = (gout, x.data) if transposed else (x.data, gout)
            dk = _kernel_grad(a, g, kh, kw, stride, ph, pw, cols)
        if bias.requires_grad:
            db = gout.sum(axis=(0, 2, 3)).reshape(bias.shape)
        return dx, dk, db

    return _record(op, (x, kernel, bias), out, backward)


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor, stride: int = 1, padding: int = 0,
           act: str | None = None, alpha: float = 0.2) -> Tensor:
    """2-D convolution (cross-correlation), kernel (out_c, in_c, kh, kw), bias (1, out_c, 1, 1).

    Output spatial size is floor((size + 2*padding - k) / stride) + 1 and must
    be positive; strided windows that do not fit are dropped.  `act` ("relu",
    "lrelu" with slope `alpha`, "sigmoid" or "tanh") applies that activation
    to the biased output within this node, with exactly the values and
    gradients of the separate op.
    """
    _, _, h, w = x.shape
    kh, kw = kernel.shape[2:]
    if stride < 1 or padding < 0:
        raise ConfigError(f"conv2d: bad stride/padding ({stride}, {padding})")
    oh = _conv_out_size(h, kh, stride, padding)
    ow = _conv_out_size(w, kw, stride, padding)
    if oh < 1 or ow < 1:
        raise ConfigError(
            f"conv2d: kernel {kh}x{kw} stride {stride} pad {padding} gives empty output "
            f"for input {h}x{w}")
    return _conv_node("conv2d", x, kernel, bias, stride, padding, padding, False, act, alpha)


def deconv2d(x: Tensor, kernel: Tensor, bias: Tensor, factor: int = 1,
             act: str | None = None, alpha: float = 0.2) -> Tensor:
    """Transposed convolution upsampling spatial dims by exactly `factor`.

    Kernel layout is (in_c, out_c, kh, kw) with stride = factor and implied
    padding (k - factor) / 2 per axis, so (k - factor) must be even and >= 0;
    the forward map is the exact adjoint of conv2d with the same kernel,
    stride and padding.  `act` and `alpha` fuse an activation as in conv2d.
    """
    kh, kw = kernel.shape[2:]
    if factor < 1:
        raise ConfigError(f"deconv2d: factor must be >= 1, got {factor}")
    if (kh - factor) % 2 or (kw - factor) % 2 or kh < factor or kw < factor:
        raise ConfigError(
            f"deconv2d: kernel {kh}x{kw} cannot upsample by exactly x{factor}; "
            f"kernel size minus factor must be even and non-negative")
    return _conv_node("deconv2d", x, kernel, bias, factor, (kh - factor) // 2,
                      (kw - factor) // 2, True, act, alpha)


# ---------------------------------------------------------------------------
# Pointwise ops


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


def log_clamped(x: Tensor) -> Tensor:
    """log(max(x, LOG_FLOOR)); gradient is zero where the clamp is active."""
    clamped = np.maximum(x.data, LOG_FLOOR)
    live = x.data > LOG_FLOOR
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

ADAM_BETA1 = 0.9  # first-moment decay
ADAM_BETA2 = 0.999  # second-moment decay
ADAM_EPS = 1e-8  # added to the denominator's square root


@dataclass
class AdamState:
    """Per-parameter first/second moment buffers plus the shared step counter."""

    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(params: Mapping[str, Tensor], grads: Mapping[str, np.ndarray],
              state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update, in place, over a named parameter set.

    Every gradient is checked before anything changes, so a failed step
    leaves the parameters and the state as they were.
    """
    for path, p in params.items():
        g = grads.get(path)
        if g is None:
            raise ConfigError(f"adam_step: no gradient supplied for '{path}'")
        if g.shape != p.data.shape:
            raise ConfigError(
                f"adam_step: gradient shape {g.shape} != parameter shape {p.data.shape} at '{path}'")
        if not np.isfinite(g).all():
            raise NumericsError(f"adam_step: non-finite gradient for parameter '{path}'")
    state.step += 1
    t = state.step
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    for path, p in params.items():
        g = grads[path]
        m = state.m.setdefault(path, np.zeros_like(p.data))
        v = state.v.setdefault(path, np.zeros_like(p.data))
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)

