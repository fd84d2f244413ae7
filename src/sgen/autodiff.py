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
discriminator) runs GEMMs over an im2col patch matrix, gathered in bands
(below).  Its adjoint, the transposed convolution, has one implementation,
_conv_transpose: it is conv2d's input gradient at every stride and
deconv2d's forward.  In sub-pixel form, pixel s*q + r of the padded input
sums output-gradient pixel q - d times kernel tap s*d + r, so one stride-1
correlation with in_c * s^2 phase outputs and ceil(k / s) taps per axis
computes every phase (no zero taps when s divides k), and depth-to-space --
the adjoint of im2col for non-overlapping s x s windows, _col2im -- places
them.  Where a stride drops windows, the pixels past the last window are
reached by zero rows and columns appended to the gradient.  Phase rows and
columns that lie wholly in the conv padding are not computed (at stride 1
this leaves the correlation of the gradient with the flipped kernel).
_col2im skips the rest of the padding: it writes each phase (rh, rw) with
one strided copy straight into the rows and columns of the result that
phase owns, so no padded canvas is built and nothing is cropped.  The phase
correlation hands each band of phase rows (see Bands) to _col2im as soon as
the band is computed, so no whole phase output exists either: a transposed
convolution holds its result and one band, 1.28x the result for x2 from
184x152 with 8 channels.  At stride 1 with nothing to crop (every 3x3,
pad-1 conv2d's input gradient) the phase correlation is the result, and
_col2im is not called.  For that x2 (2-core Xeon VM, one BLAS thread) the
phase copies take 2.5-2.6 ms, against 4.5-4.8 ms for one 6-D transposed
copy of the whole canvas, whose inner loop runs over s = 2 elements, and
~1.4 ms more for its crop.  At s = 8 the 64 copies take 1.0 ms against the
transposed copy's 0.6 ms, and the crop they skip pays that back.  The pair runs both ways: one
tape node, _conv_node, computes conv2d with _correlate forward and
_conv_transpose backward, and deconv2d with the two swapped, so deconv2d's
input gradient is a strided correlation of its output gradient.

The phase kernel.  phase_kernel turns a kernel into that stride-1
correlation's kernel: a zero-pad to whole phases, a reshape, a flip and one
transposed copy.  conv2d's input gradient builds it on every call, and so
does deconv2d's forward unless its caller passes one prebuilt.  Inference
over fixed weights does: generator_forward fills a dict its caller owns
with each deconv layer's phase kernel, keyed by layer path, on first use,
and model_restorer keeps one such dict for its life, so each restorer
builds the six of the default generator once, not once per forward.  Timed
alone they take 0.33-0.35 ms per forward (base3's x8 kernel 170 us; 2-core
Xeon VM, one BLAS thread, min of 7 x 500); in traced eval-heldout runs
deconv2d's time per eval_model call, 5 forwards, fell from 14.6 to 10.6 ms.
A restorer therefore reads the weights once; build a new one after
changing them, as training's validation does.  The cache is no global
keyed by a kernel's id(), which an in-place Adam step would leave stale,
and deconv2d refuses a prebuilt kernel while a Graph is active: training,
gate dumps and every tape build their own.

All zero-padding goes through _padded, which returns its input when nothing
is added: the conv padding and the shifted GEMM's spare row, one band's
rows at a time (_band_rows), the zero rows and columns of the gradient and
the zero taps of the phase kernel.  _im2col gathers from a band that is already padded.

Every correlation -- the conv2d forward, the phase correlation of
_conv_transpose and both ops' kernel gradients -- goes through _correlate,
one walk over bands (see Bands) that runs one of two band kernels on each,
picked by a fixed rule on shapes alone: with c input and oc output channels,

    the shifted GEMM for a stride-1 correlation with oc < c whose kernel
    gradient is not asked,

and im2col with its GEMMs otherwise, so every kernel gradient is taken from
gathered patches.  The shifted GEMM accumulates one (oc, c) GEMM per kernel
tap over contiguous slices of a band's padded rows, so it gathers nothing,
but it passes over the input and adds into the output once per tap.  That pays
only where the output is narrower than the input.  The program's narrowing
correlations are the forwards of gen.out.conv (8 -> 1) and disc.fc
(64 -> 1) and the input-gradient phase correlation of disc.conv1 (8 -> 4
phases).  None of them is asked for a kernel gradient: the first two take
theirs from their input gradient's walk (see The tape rule), which widens.
Timed in-process against im2col (2-core Xeon VM, one BLAS thread, min of
9 runs), forwards in us: gen.out.conv at 1x8x48x48 103 against 187, at
1x8x64x48 100 against 172; disc.fc at batch 8 6.3 against 11.1;
disc.conv1's phase correlation of a batch-8 24x16 gradient 73 against 100.
At 368x304 gen.out.conv's forward ties (5.9 ms).  A channel-preserving SGU
gate (8 -> 8 at 184x152) takes 4.5 ms shifted and 1.8 ms on im2col.

Bands.  _correlate cuts its work into bands of output rows (_bands) by the
size of what a band reads: the patch matrix for im2col, the padded input
rows (c * wp elements per output row) for the shifted GEMM.  One smaller
than CACHE_BYTES (2 MiB, the L2 cache of the 2-core Xeon VM) stays in cache
and is one band.  A larger one is never built whole: it is walked in bands
of at most BAND_BYTES (768 KiB) -- whole images per band while one image
fits, else rows of one image -- and each band's GEMMs run while it is still
in cache.  im2col gathers every band into the same buffer.  Each band
zero-pads its own input rows, so no padded copy of the whole input is made
either: gen.enc.stem2's forward on a 368x304 restore peaks at 3.4 MiB traced
(0.50x its input), and gen.out.conv on a 384x352 restore copies none of its
8.3 MiB input.  Both sizes were chosen by timing every correlation and
kernel-gradient shape that each benchmark workload runs (the 48 requests of
a restore pool, one eval_model call, three adversarial batch-8 train
steps), interleaved with the single gather in one process, min of 5 per
shape, summed per workload. Against the single gather, 768 KiB bands with
no threshold took 0.78-0.82x on restore, 1.00-1.07x on eval and 0.92-0.97x
on training; with the 2 MiB threshold 0.80-0.81x, 0.99-1.02x and 0.89-0.91x
(1.5 and 3 MiB did no better).  512 KiB bands tied on restore and lost on
training, 1 MiB bands lost on restore.  Whole-image bands run the very
GEMMs of the single gather; a row band is a narrower GEMM, which BLAS may
round differently in the last bits (by up to ~1e-14 with OpenBLAS's
SkylakeX kernels).

The tape rule.  A conv2d or deconv2d node keeps its input, its kernel and
its activated output, and no patch matrix or band.  Without a Graph nothing
is kept: a layer's output lives as long as its caller holds it, and
generator_forward drops each feature map once its last reader has run.  The
activation that follows a layer (`act`: relu, lrelu, sigmoid or tanh) runs
on the layer's fresh output, in place, and its gradient is read from the
activated output, so the pre-activation array is never kept.  A gradient is
taken from the patches of whichever array one walk gathers anyway.
deconv2d's input gradient is a correlation over the very patches its kernel
gradient reads, so one _correlate call computes both.  So does a stride-1
conv2d asked for both whose padding is at most k - 1 and whose output is
no wider than its input (every SGU gate, gen.out.conv and disc.fc): its
input gradient is the stride-1 correlation of the output
gradient with the flipped kernel, and the kernel gradient is the flipped,
transposed kernel gradient of that correlation for the input x, so one walk
over the output gradient's bands gives both.  Timed per node backward at
batch 8 (2-core Xeon VM, one BLAS thread, min of 9 x 40 calls) the one walk
took an 8 -> 8 gate at 40x32 from 2.02 to 1.29 ms and gen.out.conv at
80x64 from 2.42 to 1.02 ms; the input gradient is bitwise the two-walk one.
Every other conv2d takes its kernel gradient from a _correlate call over
the forward correlation's bands, gathering the input's patches again: the
strided layers, because a prototype that shared their input gradient's
phase walk was slower (stem2 3.26 -> 3.65 ms, base1 1.33 -> 1.68 ms,
disc.conv2 1.57 -> 1.89 ms), a node asked for the kernel gradient alone
(stem1, whose input is the image), a padding past k - 1, whose input
gradient crops the phase correlation, and a widening layer, whose input
gradient's correlation narrows and so runs the shifted GEMM, which gives no
kernel gradient: one im2col walk would round that input gradient
differently from the shifted one.  A node asked for neither -- conv2d in the generator step's
frozen discriminator, where x is tracked and the kernel is not -- gathers
nothing for its kernel.

Elementwise passes.  Past CHUNK elements (256 KiB) the leaky ReLU and the
sigmoid run piece by piece through reused chunk-sized scratch (_pieces),
so they make no temporary of their array's size, and gate -- a sequential
gating unit's junction, ga * a + gp * b, as one node -- adds its second
product into its first the same way, so the junction holds its four inputs
and its output.  Each is bit for bit the whole-array form."""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Callable, TypeVar

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
# Convolution kernels: the band walk, im2col/col2im, the transposed convolution

CACHE_BYTES = 2 * 2**20  # see the module docstring
BAND_BYTES = 768 * 2**10  # the largest im2col band; see the module docstring
CHUNK = 2**15  # elements, 256 KiB: a pass over this much keeps its temporaries in cache


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


def _band_rows(a: np.ndarray, lo: int, hi: int, pw: int) -> np.ndarray:
    """Rows lo:hi of `a` with pw zero columns per side, zero rows outside [0, h).

    One band's slice of the padded input, so no padded copy of the whole
    input is made.
    """
    h = a.shape[2]
    start = min(max(lo, 0), h)
    rows = a[:, :, start:max(min(hi, h), start)]
    top = min(max(-lo, 0), hi - lo)  # a band may lie wholly in the padding
    return _padded(rows, top, hi - lo - top - rows.shape[2], pw, pw)


def _im2col(a: np.ndarray, kh: int, kw: int, stride: int, buf: np.ndarray) -> np.ndarray:
    """Padded (n, c, h, w) -> (n, c*kh*kw, oh*ow) patch matrix of the windows that fit.

    Written into the front of the flat array `buf`.
    """
    n, c, h, w = a.shape
    oh = _conv_out_size(h, kh, stride, 0)
    ow = _conv_out_size(w, kw, stride, 0)
    s0, s1, s2, s3 = a.strides
    view = np.lib.stride_tricks.as_strided(
        a, (n, c, kh, kw, oh, ow), (s0, s1, s2, s3, s2 * stride, s3 * stride))
    cols = buf[:view.size].reshape(view.shape)
    np.copyto(cols, view)
    return cols.reshape(n, c * kh * kw, oh * ow)


def _bands(n: int, oh: int, row: int) -> list[tuple[int, int, int, int]]:
    """(first image, end image, first row, end row) bands of an im2col matrix.

    The matrix has n images of oh output rows, `row` elements per output row.
    A matrix smaller than CACHE_BYTES is one band.  A larger one is cut into
    bands of at most BAND_BYTES, or of one output row of one image where a
    row alone is larger: whole images per band while an image fits,
    otherwise rows of one image.
    """
    if 8 * n * oh * row < CACHE_BYTES:
        return [(0, n, 0, oh)]
    if 8 * oh * row <= BAND_BYTES:
        step = BAND_BYTES // (8 * oh * row)
        return [(i, min(i + step, n), 0, oh) for i in range(0, n, step)]
    step = max(1, BAND_BYTES // (8 * row))
    return [(i, i + 1, r, min(r + step, oh)) for i in range(n) for r in range(0, oh, step)]


def _col2im(cols: np.ndarray, shape: tuple[int, int, int, int], kh: int, kw: int,
            top: int, left: int, out: np.ndarray) -> None:
    """Adjoint of _im2col for kh x kw windows that tile a canvas, cropped to `shape`.

    cols is (n, c*kh*kw, qh, qw): entry ((c, rh, rw), q, p) is canvas pixel
    (kh*q + rh, kw*p + rw).  With stride (kh, kw) the windows do not overlap,
    so the adjoint is a permutation (depth-to-space) and needs no adds.  The
    canvas from row `top` and column `left` on is written into `out`, of
    shape (n, c, h, w), one strided copy per phase (rh, rw), so no canvas is
    built.
    """
    n, c, h, w = shape
    phases = cols.reshape(n, c, kh, kw, *cols.shape[-2:])
    for rh in range(kh):
        y0 = (rh - top) % kh  # first output row of phase rh
        q0, rows = (y0 + top) // kh, len(range(y0, h, kh))
        for rw in range(kw):
            x0 = (rw - left) % kw
            p0, ncols = (x0 + left) // kw, len(range(x0, w, kw))
            out[:, :, y0::kh, x0::kw] = phases[:, :, rh, rw, q0:q0 + rows, p0:p0 + ncols]


_Place = Callable[[int, int, int, int, np.ndarray], None]


def _correlate(a: np.ndarray, kernel: np.ndarray | None, g: np.ndarray | None,
               kh: int, kw: int, stride: int, ph: int, pw: int, place: _Place | None = None):
    """(correlation of (n, c, h, w) with an (oc, c, kh, kw) kernel, no bias; kernel gradient).

    The kernel gradient is taken for g, a gradient of the correlation's
    output.  Either of kernel and g may be None and its result is then None;
    with both None nothing is gathered.  Given `place`, the correlation is
    handed over band by band instead of returned: place(i0, i1, r0, r1, y)
    gets output rows r0:r1 of images i0:i1, in a buffer the next band
    overwrites.

    One loop walks _bands' bands, each padding its own input rows, with one
    of two band kernels; the shape rule here is the only place one is
    chosen.  A stride-1 correlation alone with oc < c runs the shifted GEMM:
    in a band's flattened padded rows, tap (i, j) of every output pixel sits
    at offset i*wp + j from the pixel's own index, so one contiguous slice
    per tap feeds an (oc, c) GEMM.  Each output row then carries wp - ow
    columns that straddle the row end, cropped as the band is placed, and a
    spare bottom row keeps the last tap's slice in bounds.  Every other call
    gathers each band once into one reused buffer (_im2col), and both GEMMs
    read it while it is in cache: one for the correlation, written straight
    into its slice of the output when there is no `place`, and one per image
    added to the kernel gradient.  That starts from zeros and adds the
    images in order, as matmul(...).sum(axis=0) would.  A shifted band, and
    any band given `place`, goes through one band buffer to `place` or to
    the output.
    """
    if kernel is None and g is None:
        return None, None
    n, c, h, w = a.shape
    oh = _conv_out_size(h, kh, stride, ph)
    ow = _conv_out_size(w, kw, stride, pw)
    oc = g.shape[1] if kernel is None else len(kernel)
    shifted = g is None and stride == 1 and oc < c
    # columns of a band's correlation rows; the shifted GEMM's straddle the row end
    width = w + 2 * pw if shifted else ow
    bands = _bands(n, oh, c * width if shifted else c * kh * kw * ow)
    i0, i1, r0, r1 = bands[0]  # no band is larger than the first
    out = dk = ybuf = None
    if kernel is not None and place is None:
        out = np.empty((n, oc, oh, ow))
    if kernel is not None and (shifted or place is not None):
        ybuf = np.empty((i1 - i0) * oc * (r1 - r0) * width)
    if shifted:
        tmp = np.empty_like(ybuf)
    else:
        buf = np.empty((i1 - i0) * (r1 - r0) * c * kh * kw * ow)
    if g is not None:
        gmat = g.reshape(n, oc, oh * ow)
        dk = np.zeros((oc, c * kh * kw))
    for i0, i1, r0, r1 in bands:
        rows = _band_rows(a[i0:i1], r0 * stride - ph, (r1 - 1) * stride + kh - ph + shifted, pw)
        if ybuf is not None:
            y = ybuf[:(i1 - i0) * oc * (r1 - r0) * width].reshape(i1 - i0, oc, -1)
        if shifted:
            flat, t = rows.reshape(i1 - i0, c, -1), tmp[:y.size].reshape(y.shape)
            for tap in range(kh * kw):
                i, j = divmod(tap, kw)
                src = flat[:, :, i * width + j:i * width + j + y.shape[2]]
                if tap:
                    y += np.matmul(kernel[:, :, i, j], src, out=t)
                else:
                    np.matmul(kernel[:, :, i, j], src, out=y)
        else:
            cols = _im2col(rows, kh, kw, stride, buf)
            if kernel is not None:
                np.matmul(kernel.reshape(oc, -1), cols, out=y if ybuf is not None else
                          out.reshape(n, oc, -1)[i0:i1, :, r0 * ow:r1 * ow])
            if dk is not None:
                for gi, ci in zip(gmat[i0:i1, :, r0 * ow:r1 * ow], cols):
                    dk += np.matmul(gi, ci.T)
        if ybuf is not None:
            y = y.reshape(i1 - i0, oc, r1 - r0, width)[:, :, :, :ow]
            if out is None:
                place(i0, i1, r0, r1, y)
            else:
                out[i0:i1, :, r0:r1] = y
    return out, None if dk is None else dk.reshape(oc, c, kh, kw)


def phase_kernel(kernel: np.ndarray, stride: int) -> np.ndarray:
    """The (ic*s*s, oc, ceil(kh/s), ceil(kw/s)) phase kernel of an (oc, ic, kh, kw) kernel.

    Entry ((c, rh, rw), o, uh, uw) is tap (s*(dh-1-uh) + rh, s*(dw-1-uw) +
    rw) of kernel[o, c], zero past the kernel's edge: the stride-1
    correlation kernel of _conv_transpose.  A deconv2d kernel, laid out
    (in_c, out_c, kh, kw), is already in this layout.
    """
    oc, ic, kh, kw = kernel.shape
    s = stride
    dh, dw = -(-kh // s), -(-kw // s)
    kernel = _padded(kernel, 0, s * dh - kh, 0, s * dw - kw)  # zero taps past the kernel's edge
    phases = kernel.reshape(oc, ic, dh, s, dw, s)[:, :, ::-1, :, ::-1]
    # contiguous: for a 1x1 kernel the transpose is a view, which the GEMM
    # would read in another order and round differently
    phases = np.ascontiguousarray(phases.transpose(1, 3, 5, 0, 2, 4))
    return phases.reshape(ic * s * s, oc, dh, dw)


def _conv_transpose(g: np.ndarray, kernel: np.ndarray, stride: int, ph: int, pw: int,
                    h: int, w: int, phases: np.ndarray | None = None) -> np.ndarray:
    """Adjoint of _correlate(., kernel, stride, ph, pw) on an (n, ic, h, w) input.

    Sub-pixel form: pixel s*q + r of the padded canvas sums g[q - d] times
    kernel tap s*d + r, so one stride-1 correlation of g with the phase
    kernel (phase_kernel(kernel, s), built here unless `phases` holds it)
    computes every phase r of every q, and depth-to-space places each band of
    phase rows straight into the (n, ic, h, w) input as soon as the band is
    computed, skipping the canvas's padding, so no whole phase output exists.
    Canvas pixels past the last window get zero rows and columns of g.  At
    stride 1 with no crop the correlation is the input itself.
    """
    n, _, oh, ow = g.shape
    ic, s = kernel.shape[1], stride
    if phases is None:
        phases = phase_kernel(kernel, s)
    dh, dw = phases.shape[2:]
    # phase rows (columns) that lie wholly in the top (left) padding are not computed
    th, tw = min(ph // s, dh - 1), min(pw // s, dw - 1)
    # zero rows and columns of g, so that the phases reach the last pixel of the input
    eh = max(-(-(ph + h) // s) + th - (oh + dh - 1), 0)
    ew = max(-(-(pw + w) // s) + tw - (ow + dw - 1), 0)
    g = _padded(g, 0, eh, 0, ew)
    args = (phases, None, dh, dw, 1, dh - 1 - th, dw - 1 - tw)
    top, left = ph - s * th, pw - s * tw
    if s == 1 and top == left == 0:
        return _correlate(g, *args)[0]
    out = np.empty((n, ic, h, w))

    def place(i0, i1, r0, r1, y):
        # phase rows r0:r1 are canvas rows s*r0:s*r1, input rows s*r0 - top on
        y0, y1 = max(s * r0 - top, 0), min(s * r1 - top, h)
        if y0 < y1:
            band = out[i0:i1, :, y0:y1]
            _col2im(y, band.shape, s, s, y0 + top - s * r0, left, band)

    _correlate(g, *args, place)
    return out


# ---------------------------------------------------------------------------
# Activations


def _relu(a: np.ndarray, alpha: float) -> np.ndarray:
    # where(x <= 0, 0.0, x): maximum lets NaN through, and adding 0.0 turns
    # the -0.0 it may keep into 0.0
    np.maximum(a, 0.0, out=a)
    a += 0.0
    return a


def _pieces(arrays: tuple[np.ndarray, ...], *scratch: type):
    """Matching pieces of equal-shaped arrays, then scratch arrays of the piece's shape.

    Past one chunk the pieces are CHUNK-element slices of the arrays' flat
    views and each scratch is one reused array of that size, so an
    elementwise pass keeps its temporaries in cache and makes none of the
    arrays' size (stem1's output and the gate maps of a large restore).
    Otherwise, or if an array is not contiguous, each array is one piece.
    """
    size = arrays[0].size
    if size <= CHUNK or not all(a.flags.c_contiguous for a in arrays):
        pieces = [arrays]
    else:
        flats = [a.reshape(-1) for a in arrays]
        pieces = [[flat[lo:lo + CHUNK] for flat in flats] for lo in range(0, size, CHUNK)]
    bufs = [np.empty(pieces[0][0].shape, dtype) for dtype in scratch]
    for parts in pieces:
        yield (*parts, *(buf[:len(parts[0])] for buf in bufs))


def _lrelu(a: np.ndarray, alpha: float) -> np.ndarray:
    # for alpha in [0, 1) this is where(x > 0, x, alpha * x)
    for part, tmp in _pieces((a,), float):
        np.maximum(part, np.multiply(part, alpha, out=tmp), out=part)
    return a


def _sigmoid(a: np.ndarray, alpha: float) -> np.ndarray:
    # evaluate via e = exp(-|x|) so neither branch can overflow: the numerator
    # is 1 where x >= 0 and e elsewhere (e <= 1; NaN stays NaN), over 1 + e
    for part, e, nonneg in _pieces((a,), float, bool):
        np.abs(part, out=e)
        np.negative(e, out=e)
        np.exp(e, out=e)
        np.maximum(e, np.greater_equal(part, 0, out=nonneg), out=part)
        e += 1.0
        np.divide(part, e, out=part)
    return a


# name -> (forward of a fresh array, which it may overwrite and return,
# lrelu and sigmoid chunk by chunk; input gradient from the output gradient
# g and the output).  Each gradient
# reads the activation's output, never its input, which a fused
# conv2d/deconv2d does not keep: for relu, and for lrelu with alpha in
# [0, 1), out > 0 exactly where x > 0.  NaN passes through every forward, so
# _check_finite can name the layer.
_ACTIVATIONS: dict[str, tuple[Callable, Callable]] = {
    "relu": (_relu, lambda g, out, alpha: g * (out > 0)),
    "lrelu": (_lrelu,
              # maximum(out > 0, alpha) is where(out > 0, 1.0, alpha) for alpha in
              # [0, 1), without where's branch per element
              lambda g, out, alpha: g * np.maximum(out > 0, alpha)),
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
               transposed: bool, act: str | None, alpha: float,
               phases: np.ndarray | None = None) -> Tensor:
    """conv2d (transposed False) or deconv2d (transposed True), stride and padding checked.

    The two are adjoint: each one's forward is the other's input gradient.
    _correlate maps conv2d's input to its output and deconv2d's output to
    its input, so deconv2d's kernel gradient is conv2d's with the input and
    the output gradient swapped, over the patches its input gradient reads:
    one walk over their bands gives both.  A stride-1 conv2d whose input
    gradient crops nothing (padding at most k - 1) and whose output is no
    wider than its input does the same from its input gradient's
    correlation, whose kernel gradient for x is the kernel gradient flipped
    and transposed.  `phases`, deconv2d's prebuilt phase kernel, skips
    building it for the forward.
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
                              (h - 1) * stride + kh - 2 * ph, (w - 1) * stride + kw - 2 * pw,
                              phases)
    else:
        out = _correlate(x.data, kernel.data, None, kh, kw, stride, ph, pw)[0]
    out += bias.data
    out = activate(out, alpha)

    def backward(gout: np.ndarray):
        gout = act_grad(gout, out, alpha)
        want_x, want_k = x.requires_grad, kernel.requires_grad
        if transposed:
            dx, dk = _correlate(gout, kernel.data if want_x else None,
                                x.data if want_k else None, kh, kw, stride, ph, pw)
        elif want_x and want_k and stride == 1 and ph < kh and pw < kw and oc <= c:
            # one walk: _conv_transpose's correlation, with x as its output gradient
            dx, dk = _correlate(gout, phase_kernel(kernel.data, 1), x.data,
                                kh, kw, 1, kh - 1 - ph, kw - 1 - pw)
            dk = np.ascontiguousarray(dk[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
        else:
            dk = _correlate(x.data, None, gout if want_k else None, kh, kw, stride, ph, pw)[1]
            dx = _conv_transpose(gout, kernel.data, stride, ph, pw, h, w) if want_x else None
        db = gout.sum(axis=(0, 2, 3)).reshape(bias.shape) if bias.requires_grad else None
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
             act: str | None = None, alpha: float = 0.2,
             phases: np.ndarray | None = None) -> Tensor:
    """Transposed convolution upsampling spatial dims by exactly `factor`.

    Kernel layout is (in_c, out_c, kh, kw) with stride = factor and implied
    padding (k - factor) / 2 per axis, so (k - factor) must be even and >= 0;
    the forward map is the exact adjoint of conv2d with the same kernel,
    stride and padding.  `act` and `alpha` fuse an activation as in conv2d.
    `phases`, if given, is phase_kernel(kernel.data, factor), built once by
    the caller for a kernel that does not change; it is refused while a
    Graph is active, since an optimizer step would leave it stale.
    """
    kh, kw = kernel.shape[2:]
    if factor < 1:
        raise ConfigError(f"deconv2d: factor must be >= 1, got {factor}")
    if (kh - factor) % 2 or (kw - factor) % 2 or kh < factor or kw < factor:
        raise ConfigError(
            f"deconv2d: kernel {kh}x{kw} cannot upsample by exactly x{factor}; "
            f"kernel size minus factor must be even and non-negative")
    if phases is not None and _GRAPH_STACK:
        raise UsageError("deconv2d: a prebuilt phase kernel cannot be used while a Graph records")
    return _conv_node("deconv2d", x, kernel, bias, factor, (kh - factor) // 2,
                      (kw - factor) // 2, True, act, alpha, phases)


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


def gate(ga: Tensor, a: Tensor, gp: Tensor, b: Tensor) -> Tensor:
    """ga * a + gp * b in one node: a sequential gating unit's junction.

    The first product is the fresh output, and the second is added to it
    piece by piece through one CHUNK-sized scratch (_pieces), so the node
    holds its four inputs and one map of their size; no input is written.  Its value and gradients
    are bit for bit those of add(mul(ga, a), mul(gp, b)).
    """
    for t in (a, gp, b):
        _check_same_shape("gate", ga, t)
    out = np.multiply(ga.data, a.data, out=np.empty(ga.shape))
    for part, gp_part, b_part, tmp in _pieces((out, gp.data, b.data), float):
        part += np.multiply(gp_part, b_part, out=tmp)
    return _record("gate", (ga, a, gp, b), out,
                   lambda g: (g * a.data, g * ga.data, g * b.data, g * gp.data))


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


class Arena(Mapping[str, np.ndarray]):
    """Named arrays that are consecutive C-contiguous views, in order, of one vector.

    `flat` is that float64 vector, zeros of the shapes' total size at first.
    """

    def __init__(self, shapes: Mapping[str, tuple[int, ...]]):
        sizes = [math.prod(shape) for shape in shapes.values()]
        self.flat = np.zeros(sum(sizes))
        self._views, at = {}, 0
        for (path, shape), size in zip(shapes.items(), sizes):
            self._views[path] = self.flat[at:at + size].reshape(shape)
            at += size

    def __getitem__(self, path: str) -> np.ndarray:
        return self._views[path]

    def __iter__(self):
        return iter(self._views)

    def __len__(self) -> int:
        return len(self._views)


@dataclass
class AdamState:
    """First and second moments, flat and per parameter path, and the shared step counter.

    m and v are laid out like `arena`, the arena of the parameters the last
    step updated (all empty before the first step).
    """

    step: int = 0
    m: Arena = field(default_factory=lambda: Arena({}))
    v: Arena = field(default_factory=lambda: Arena({}))
    arena: Arena = field(default_factory=lambda: Arena({}), repr=False)


def _param_arena(params: Mapping[str, Tensor], state: AdamState) -> Arena:
    """state.arena, after copying `params` into a new one if they are not its views.

    The copy makes each Tensor's data the arena's view, and lays the moments
    out to match, keeping each path's values.  adam_step is the only place
    parameters enter an arena: init_params and load_checkpoint give each
    tensor an array of its own, and a state's first step copies them in.
    """
    arena = state.arena
    if len(arena) == len(params) and all(
            path == known and p.data is view
            for (path, p), (known, view) in zip(params.items(), arena._views.items())):
        return arena
    shapes = {path: p.data.shape for path, p in params.items()}
    arena = Arena(shapes)
    for p, view in zip(params.values(), arena.values()):
        view[...] = p.data
        p.data = view
    m, v = Arena(shapes), Arena(shapes)
    for new, old in ((m, state.m), (v, state.v)):
        for path, view in new.items():
            if path in old:
                view[...] = old[path]
    state.arena, state.m, state.v = arena, m, v
    return arena


def adam_step(params: Mapping[str, Tensor], grads: Mapping[str, np.ndarray],
              state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update, in place, over a named parameter set.

    The step's gradient is assembled into one vector and checked before
    anything changes, so a failed step leaves the parameters and the state
    as they were.  The update runs over the parameters' arena (see
    _param_arena) in chunks of CHUNK elements, with per element the very
    ufuncs of a per-tensor update, so each chunk's temporaries stay in cache.
    """
    g_flat = np.empty(sum(p.data.size for p in params.values()))
    at = 0
    for path, p in params.items():
        g = grads.get(path)
        if g is None:
            raise ConfigError(f"adam_step: no gradient supplied for '{path}'")
        if g.shape != p.data.shape:
            raise ConfigError(
                f"adam_step: gradient shape {g.shape} != parameter shape {p.data.shape} at '{path}'")
        g_flat[at:at + g.size] = g.reshape(-1)
        at += g.size
    if not np.isfinite(g_flat).all():
        bad = next(path for path in params if not np.isfinite(grads[path]).all())
        raise NumericsError(f"adam_step: non-finite gradient for parameter '{bad}'")
    p_flat = _param_arena(params, state).flat
    state.step += 1
    t = state.step
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    for lo in range(0, g_flat.size, CHUNK):
        p, m, v, g = (a[lo:lo + CHUNK] for a in (p_flat, state.m.flat, state.v.flat, g_flat))
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        p -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
