"""Property tests: any input file gives a value or the module's typed error,
and the convolution walk agrees with the naive loops at any shape.

Each file example is built from byte fragments that the parser knows mixed
with arbitrary bytes, so the search reaches past the first header check.
Each walk example draws a correlation's shapes, what it is asked for and
the band budgets, so band edges that one fixed case reaches (a band wholly
in the padding, a partial last band, row bands of a strided layer, the crop
offsets of a transposed convolution) are met in many combinations.
Derandomized and database-free, so a run is repeatable and stores no examples.
"""

import json
import struct
from contextlib import contextmanager
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgen import autodiff as ad
from sgen.config import parse_config_file
from sgen.data import read_netpbm
from sgen.errors import CheckpointError, ConfigError, ImageFormatError
from sgen.model import (COMBINERS, SgenConfig, init_params, load_checkpoint, param_layout,
                        save_checkpoint)

from oracles import conv2d_kernel_grad_naive, conv2d_naive, deconv2d_adjoint_naive, same_sums

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=200)

TINY = SgenConfig(levels=2, base_channels=2)


def fragments(*known):
    pieces = st.one_of(st.binary(max_size=12), st.sampled_from(known))
    return st.lists(pieces, max_size=24).map(b"".join)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def tiny_checkpoint(scratch):
    path = scratch / "tiny.ckpt"
    save_checkpoint(init_params(TINY), TINY, path)
    return path.read_bytes()


SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 10), st.integers(),
                    st.integers(-3, 10).map(float), st.floats(), st.text(max_size=8),
                    st.sampled_from(COMBINERS))
NAMES = [f.name for f in fields(SgenConfig)]
# an arbitrary small block, or the tiny model's block with one value replaced
BLOCKS = st.one_of(st.dictionaries(st.sampled_from(NAMES), SCALARS, max_size=3),
                   st.builds(lambda k, v: {**asdict(TINY), k: v}, st.sampled_from(NAMES), SCALARS))


@FUZZ
@given(block=BLOCKS)
def test_checkpoint_config_block_fuzz(block, scratch, tiny_checkpoint):
    # the tiny model's tensor table behind an arbitrary config block
    (size,) = struct.unpack("<I", tiny_checkpoint[8:12])
    blob = json.dumps(block).encode()
    path = scratch / "block.ckpt"
    path.write_bytes(tiny_checkpoint[:8] + struct.pack("<I", len(blob)) + blob
                     + tiny_checkpoint[12 + size:])
    try:
        params, config = load_checkpoint(path)
    except CheckpointError:
        return
    assert config == SgenConfig(**block)
    assert params.keys() == param_layout(config).keys()


# edits of a real checkpoint: (offset, cut) truncates, (offset, mask) flips
# bits of one byte, (offset, length, bytes) replaces a span; offsets wrap
# around the file, so every byte is in reach, the tensor table included
EDITS = st.lists(st.one_of(
    st.tuples(st.just("cut"), st.integers(0, 2**32)),
    st.tuples(st.just("flip"), st.integers(0, 2**32), st.integers(1, 255)),
    st.tuples(st.just("splice"), st.integers(0, 2**32), st.integers(0, 16),
              st.binary(max_size=16))), min_size=1, max_size=4)


def _edit(raw: bytes, edits) -> bytes:
    for kind, at, *rest in edits:
        at %= len(raw) + 1
        if kind == "cut":
            raw = raw[:at]
        elif kind == "flip" and at < len(raw):
            raw = raw[:at] + bytes([raw[at] ^ rest[0]]) + raw[at + 1:]
        elif kind == "splice":
            length, new = rest
            raw = raw[:at] + new + raw[at + length:]
    return raw


@FUZZ
@given(edits=EDITS)
def test_checkpoint_bytes_fuzz(edits, scratch, tiny_checkpoint):
    path = scratch / "edited.ckpt"
    path.write_bytes(_edit(tiny_checkpoint, edits))
    try:
        params, config = load_checkpoint(path)
    except CheckpointError:
        return
    layout = param_layout(config)
    assert params.keys() == layout.keys()
    assert all(params[name].shape == shape for name, (shape, _) in layout.items())


@FUZZ
@given(raw=fragments(b"levels", b"sigma", b"mse_only", b"scales", b" = ", b"=", b"\n",
                     b"#", b"3", b"2.5", b"true", b"48x32", b"\xe9", b"\xff"))
def test_config_file_fuzz(raw, scratch):
    path = scratch / "run.cfg"
    path.write_bytes(raw)
    try:
        assert isinstance(parse_config_file(path), dict)
    except ConfigError:
        pass


@FUZZ
@given(raw=fragments(b"P5", b"P6", b" ", b"\n", b"#c\n", b"1", b"2", b"255", b"0", b"-1",
                     b"99999999999"))
def test_read_netpbm_fuzz(raw, scratch):
    path = scratch / "img.pgm"
    path.write_bytes(raw)
    try:
        raster = read_netpbm(path)
    except ImageFormatError:
        return
    assert raster.dtype.name == "uint8" and raster.ndim in (2, 3)


# ---------------------------------------------------------------------------
# The convolution walk: _correlate and _conv_transpose against the naive loops

# a CACHE_BYTES or BAND_BYTES value: 0 and 1 byte, two output rows' patches
# plus one byte (row bands with a partial last band when the rows are odd),
# one image's patches, and the module's own
BUDGETS = st.sampled_from(("0", "1", "rows", "image", "module"))


@contextmanager
def _budgets(cache: str, band: str, oh: int, row: int):
    """The module's band sizes set by name, for n images of oh rows of `row` elements."""
    sizes = {"0": 0, "1": 1, "rows": 16 * row + 1, "image": 8 * oh * row}
    with pytest.MonkeyPatch.context() as mp:
        for name, budget in (("CACHE_BYTES", cache), ("BAND_BYTES", band)):
            if budget != "module":
                mp.setattr(ad, name, sizes[budget])
        yield


def _randn(seed: int, *shapes):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=shape) for shape in shapes]


@st.composite
def correlations(draw):
    """(n, c, oc, h, w, kh, kw, stride, pad) with at least one output pixel."""
    kh, kw, pad = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(0, 3))
    h = draw(st.integers(max(kh - 2 * pad, 1), kh + 6))
    w = draw(st.integers(max(kw - 2 * pad, 1), kw + 6))
    return (draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 4)),
            h, w, kh, kw, draw(st.integers(1, 3)), pad)


@settings(FUZZ, max_examples=1000)
@given(case=correlations(), asked=st.sampled_from(("kernel", "gradient", "both")),
       placed=st.booleans(), cache=BUDGETS, band=BUDGETS, prebuilt=st.booleans(),
       seed=st.integers(0, 2**16))
def test_correlation_walk_fuzz(case, asked, placed, cache, band, prebuilt, seed):
    # the correlation and its kernel gradient against the naive loops, in
    # any bands; whole-image bands bitwise one band, row bands the same sums
    # in another order.  The transposed convolution at the same shapes is
    # the correlation's adjoint and sums what its one band sums.
    n, c, oc, h, w, kh, kw, s, p = case
    oh, ow = (h + 2 * p - kh) // s + 1, (w + 2 * p - kw) // s + 1
    x, k, g = _randn(seed, (n, c, h, w), (oc, c, kh, kw), (n, oc, oh, ow))
    kernel, grad = (k if asked != "gradient" else None), (g if asked != "kernel" else None)
    # one output row's elements in the walk the shape rule picks
    shifted = grad is None and s == 1 and oc < c
    row = c * (w + 2 * p) if shifted else c * kh * kw * ow
    whole, dk_whole = ad._correlate(x, kernel, grad, kh, kw, s, p, p)  # one band here
    abs_out, abs_dk = ad._correlate(np.abs(x), np.abs(k), np.abs(g), kh, kw, s, p, p)
    with _budgets(cache, band, oh, row):
        bands = ad._bands(n, oh, row)
        out, dk = ad._correlate(x, kernel, grad, kh, kw, s, p, p)
        if placed and kernel is not None:
            got, covered = np.empty_like(out), np.zeros((n, oh), int)

            def place(i0, i1, r0, r1, y):
                assert y.shape == (i1 - i0, oc, r1 - r0, ow)
                got[i0:i1, :, r0:r1] = y
                covered[i0:i1, r0:r1] += 1

            none, dk_placed = ad._correlate(x, kernel, grad, kh, kw, s, p, p, place)
            assert none is None and (covered == 1).all() and np.array_equal(got, out)
            assert dk_placed is None if grad is None else np.array_equal(dk_placed, dk)
        phases = ad.phase_kernel(k, s) if prebuilt else None
        dx = ad._conv_transpose(g, k, s, p, p, h, w, phases)
    exact = all(r1 - r0 == oh for _, _, r0, r1 in bands)
    if kernel is None:
        assert out is None
    else:
        assert same_sums(out, conv2d_naive(x, k, np.zeros(oc), s, p), c * kh * kw, abs_out)
        assert np.array_equal(out, whole) if exact else same_sums(out, whole, c * kh * kw, abs_out)
    if grad is None:
        assert dk is None
    else:
        dk_ref = conv2d_kernel_grad_naive(x, g, kh, kw, s, p)
        assert same_sums(dk, dk_ref, n * oh * ow, abs_dk)
        assert np.array_equal(dk, dk_whole) if exact else same_sums(dk, dk_whole, n * oh * ow,
                                                                      abs_dk)
    # <correlate(x), g> == <x, conv_transpose(g)>: both sum every product x * k * g
    y = whole if kernel is not None else ad._correlate(x, k, None, kh, kw, s, p, p)[0]
    lhs, rhs, scale = (y * g).sum(), (x * dx).sum(), (abs_out * np.abs(g)).sum()
    assert abs(lhs - rhs) <= 1e-10 * scale
    dh, dw = -(-kh // s), -(-kw // s)  # phase taps per axis
    abs_dx = ad._conv_transpose(np.abs(g), np.abs(k), s, p, p, h, w)
    assert same_sums(dx, ad._conv_transpose(g, k, s, p, p, h, w), oc * dh * dw, abs_dx)


# float32 walks against the naive loops run in float64 over the same
# float32-rounded values: a float32 sum of `terms` products, in any order, is
# within terms * u32 * sum(|product|) of the exact sum, and the float64 one
# far closer, so their difference is within terms * EPS32 * sum(|product|)
EPS32 = np.finfo(np.float32).eps


@settings(FUZZ, max_examples=500)
@given(case=correlations(), asked=st.sampled_from(("kernel", "gradient", "both")),
       cache=BUDGETS, band=BUDGETS, prebuilt=st.booleans(), seed=st.integers(0, 2**16))
def test_correlation_walk_float32_fuzz(case, asked, cache, band, prebuilt, seed):
    # the correlation, its kernel gradient and the transposed convolution of
    # float32 arrays: float32 out, within the float32 tolerance, in any bands
    n, c, oc, h, w, kh, kw, s, p = case
    oh, ow = (h + 2 * p - kh) // s + 1, (w + 2 * p - kw) // s + 1
    x, k, g = (a.astype(np.float32).astype(np.float64)
               for a in _randn(seed, (n, c, h, w), (oc, c, kh, kw), (n, oc, oh, ow)))
    x32, k32, g32 = (a.astype(np.float32) for a in (x, k, g))
    kernel, grad = (k32 if asked != "gradient" else None), (g32 if asked != "kernel" else None)
    shifted = grad is None and s == 1 and oc < c
    row = c * (w + 2 * p) if shifted else c * kh * kw * ow
    with _budgets(cache, band, oh, row):
        out, dk = ad._correlate(x32, kernel, grad, kh, kw, s, p, p)
        phases = ad.phase_kernel(k32, s) if prebuilt else None
        dx = ad._conv_transpose(g32, k32, s, p, p, h, w, phases)
    abs_out, abs_dk = ad._correlate(np.abs(x), np.abs(k), np.abs(g), kh, kw, s, p, p)
    if kernel is not None:
        assert out.dtype == np.float32
        assert same_sums(out, conv2d_naive(x, k, np.zeros(oc), s, p), c * kh * kw, abs_out,
                         EPS32)
    if grad is not None:
        assert dk.dtype == np.float32
        assert same_sums(dk, conv2d_kernel_grad_naive(x, g, kh, kw, s, p), n * oh * ow, abs_dk,
                         EPS32)
    dh, dw = -(-kh // s), -(-kw // s)  # phase taps per axis
    assert dx.dtype == np.float32
    assert same_sums(dx, ad._conv_transpose(g, k, s, p, p, h, w), oc * dh * dw,
                     ad._conv_transpose(np.abs(g), np.abs(k), s, p, p, h, w), EPS32)


@settings(FUZZ, max_examples=400)
@given(n=st.integers(1, 2), ic=st.integers(1, 4), oc=st.integers(1, 4),
       qh=st.integers(1, 4), qw=st.integers(1, 4), factor=st.integers(1, 4),
       extra=st.tuples(st.integers(0, 2), st.integers(0, 2)), cache=BUDGETS, band=BUDGETS,
       prebuilt=st.booleans(), seed=st.integers(0, 2**16))
def test_deconv_walk_fuzz(n, ic, oc, qh, qw, factor, extra, cache, band, prebuilt, seed):
    # a transposed convolution upsampling by exactly `factor` (kernel size
    # factor + 2 * pad per axis) against the explicit adjoint loop, in any
    # bands of its phase correlation
    kh, kw = (factor + 2 * e for e in extra)
    z, k = _randn(seed, (n, ic, qh, qw), (ic, oc, kh, kw))
    ref = deconv2d_adjoint_naive(z, k, factor)
    # rows of the phase correlation are at most kh * kw * (qw + kw) elements per channel
    with _budgets(cache, band, qh, ic * kh * kw * (qw + kw)):
        phases = ad.phase_kernel(k, factor) if prebuilt else None
        out = ad._conv_transpose(z, k, factor, *extra, qh * factor, qw * factor, phases)
    abs_out = deconv2d_adjoint_naive(np.abs(z), np.abs(k), factor)
    assert same_sums(out, ref, ic * kh * kw, abs_out)


@settings(FUZZ, max_examples=400)
@given(n=st.integers(1, 2), ic=st.integers(1, 4), oc=st.integers(1, 4),
       qh=st.integers(1, 4), qw=st.integers(1, 4), factor=st.integers(1, 4),
       extra=st.tuples(st.integers(0, 2), st.integers(0, 2)), cache=BUDGETS, band=BUDGETS,
       prebuilt=st.booleans(), seed=st.integers(0, 2**16))
def test_deconv_walk_float32_fuzz(n, ic, oc, qh, qw, factor, extra, cache, band, prebuilt, seed):
    # the float32 transposed convolution against the float64 adjoint loop
    kh, kw = (factor + 2 * e for e in extra)
    z, k = (a.astype(np.float32) for a in _randn(seed, (n, ic, qh, qw), (ic, oc, kh, kw)))
    with _budgets(cache, band, qh, ic * kh * kw * (qw + kw)):
        phases = ad.phase_kernel(k, factor) if prebuilt else None
        out = ad._conv_transpose(z, k, factor, *extra, qh * factor, qw * factor, phases)
    z, k = z.astype(np.float64), k.astype(np.float64)
    assert out.dtype == np.float32
    assert same_sums(out, deconv2d_adjoint_naive(z, k, factor), ic * kh * kw,
                     deconv2d_adjoint_naive(np.abs(z), np.abs(k), factor), EPS32)
