import numpy as np
import pytest

from sgen import autodiff as ad
from sgen.autodiff import (AdamState, Graph, Tensor, adam_step, add, affine,
                           concat_channels, conv2d, deconv2d, gate, global_avg_pool,
                           log_clamped, lrelu, maximum, mean_all, mul, relu, sigmoid,
                           sub, sum_all, tanh)
from sgen.errors import ConfigError, NumericsError, UsageError

from oracles import (conv2d_kernel_grad_naive, conv2d_naive, deconv2d_adjoint_naive, numeric_grad,
                     nudge_off_kinks, rel_err, same_sums)


def t4(arr, requires_grad=False):
    arr = np.asarray(arr, dtype=np.float64)
    while arr.ndim < 4:
        arr = arr[None]
    return Tensor(arr, requires_grad=requires_grad)


# ---------------------------------------------------------------------------
# Tensor / graph basics


def test_tensor_requires_4d():
    with pytest.raises(ConfigError):
        Tensor(np.zeros((2, 3)))


def test_backward_on_ungraphed_tensor_rejected():
    g = Graph()
    with pytest.raises(UsageError):
        g.backward(Tensor(np.ones((1, 1, 1, 1))), {})


def test_backward_requires_scalar_loss():
    x = t4(np.ones((1, 1, 2, 2)), requires_grad=True)
    with Graph() as g:
        y = add(x, x)
    with pytest.raises(UsageError):
        g.backward(y, {"x": x})


def test_backward_sum_gives_ones():
    x = t4(np.random.default_rng(0).normal(size=(2, 3, 4, 5)), requires_grad=True)
    with Graph() as g:
        loss = sum_all(x)
    grads = g.backward(loss, {"x": x})
    np.testing.assert_array_equal(grads["x"], np.ones_like(x.data))


def test_backward_sum_of_squares():
    x = t4([3.0], requires_grad=True)
    with Graph() as g:
        loss = sum_all(mul(x, x))
    grads = g.backward(loss, {"x": x})
    assert grads["x"].reshape(()) == pytest.approx(6.0)


def test_backward_accumulates_on_diamond():
    # x feeds two branches; gradient must be the sum of both contributions
    rng = np.random.default_rng(7)
    xd = nudge_off_kinks(rng.normal(size=(1, 2, 3, 3)))
    x = t4(xd, requires_grad=True)
    with Graph() as g:
        loss = sum_all(add(mul(x, x), relu(x)))
    grads = g.backward(loss, {"x": x})

    def f(a):
        return float((a * a + np.maximum(a, 0.0)).sum())

    (num,) = numeric_grad(f, [xd.copy()])
    assert rel_err(grads["x"], num) < 1e-6


@pytest.mark.parametrize("build,dx", [(lambda a, b: add(add(a, b), a), 2.0),
                                      (lambda a, b: add(sub(b, a), a), 0.0)])
def test_backward_sums_a_shared_gradient_out_of_place(build, dx):
    # add and sub pass their output gradient on to an input unchanged; adding
    # a's second contribution into that array in place would change b's too
    x = t4(np.zeros((1, 1, 2, 2)), requires_grad=True)
    w = t4(np.zeros((1, 1, 2, 2)), requires_grad=True)
    with Graph() as g:
        loss = sum_all(build(affine(x, 1.0, 0.0), affine(w, 1.0, 0.0)))
    grads = g.backward(loss, {"x": x, "w": w})
    np.testing.assert_array_equal(grads["w"], np.ones((1, 1, 2, 2)))
    np.testing.assert_array_equal(grads["x"], np.full((1, 1, 2, 2), dx))


def test_backward_gives_zeros_off_the_loss_path():
    x = t4(np.ones((1, 1, 2, 2)), requires_grad=True)
    unused = t4(np.ones((1, 2, 3, 3)), requires_grad=True)
    frozen = t4(np.ones((1, 1, 2, 2)))
    with Graph() as g:
        loss = sum_all(mul(x, frozen))
    grads = g.backward(loss, {"x": x, "unused": unused, "frozen": frozen})
    np.testing.assert_array_equal(grads["x"], np.ones((1, 1, 2, 2)))
    np.testing.assert_array_equal(grads["unused"], np.zeros((1, 2, 3, 3)))
    np.testing.assert_array_equal(grads["frozen"], np.zeros((1, 1, 2, 2)))


def test_backward_rejects_a_recorded_tensor_in_wrt():
    x = t4(np.ones((1, 1, 2, 2)), requires_grad=True)
    with Graph() as g:
        y = mul(x, x)
        loss = sum_all(y)
    with pytest.raises(UsageError, match="'y'"):
        g.backward(loss, {"x": x, "y": y})


def test_backward_leaves_the_tape_in_place():
    x = t4(np.full((1, 1, 2, 2), 3.0), requires_grad=True)
    with Graph() as g:
        loss = sum_all(mul(x, x))
    first = g.backward(loss, {"x": x})
    assert len(g.nodes) == 2
    np.testing.assert_array_equal(g.backward(loss, {"x": x})["x"], first["x"])


def test_forward_without_graph_is_detached():
    x = t4(np.ones((1, 1, 2, 2)), requires_grad=True)
    y = add(x, x)  # no active graph
    assert y.requires_grad is False


# ---------------------------------------------------------------------------
# conv2d forward oracles


def test_conv2d_identity_kernel():
    x = t4(np.ones((1, 1, 4, 4)))
    k = t4(np.ones((1, 1, 1, 1)))
    b = t4(np.zeros((1, 1, 1, 1)))
    out = conv2d(x, k, b)
    np.testing.assert_array_equal(out.data, np.ones((1, 1, 4, 4)))


def test_conv2d_full_window_sums_entries():
    x = t4(np.array([[1.0, 2.0], [3.0, 4.0]]))
    k = t4(np.ones((1, 1, 2, 2)))
    b = t4(np.zeros((1, 1, 1, 1)))
    out = conv2d(x, k, b)
    assert out.shape == (1, 1, 1, 1)
    assert out.item() == 10.0


def test_conv2d_matches_naive_loop_reference():
    rng = np.random.default_rng(42)
    xd = rng.normal(size=(2, 3, 8, 8))
    kd = rng.normal(size=(4, 3, 3, 3))
    bd = rng.normal(size=4)
    out = conv2d(t4(xd), t4(kd), Tensor(bd.reshape(1, 4, 1, 1)), stride=2, padding=1)
    ref = conv2d_naive(xd, kd, bd, stride=2, pad=1)
    assert out.shape == (2, 4, 4, 4)
    assert np.abs(out.data - ref).max() < 1e-10


def test_conv2d_shape_errors():
    x = t4(np.zeros((1, 2, 4, 4)))
    k = t4(np.zeros((1, 3, 3, 3)))
    b = t4(np.zeros((1, 1, 1, 1)))
    with pytest.raises(ConfigError, match="channels"):
        conv2d(x, k, b)
    with pytest.raises(ConfigError, match="empty output"):
        conv2d(t4(np.zeros((1, 1, 2, 2))), t4(np.zeros((1, 1, 5, 5))), b)


def test_conv2d_deterministic():
    rng = np.random.default_rng(3)
    xd = rng.normal(size=(2, 2, 6, 6))
    kd = rng.normal(size=(3, 2, 3, 3))
    b = Tensor(np.zeros((1, 3, 1, 1)))
    a1 = conv2d(t4(xd), t4(kd), b, stride=1, padding=1).data
    a2 = conv2d(t4(xd), t4(kd), b, stride=1, padding=1).data
    assert np.array_equal(a1, a2)


# ---------------------------------------------------------------------------
# deconv2d forward oracles


def test_deconv2d_factor1_identity():
    x = t4(np.arange(9.0).reshape(1, 1, 3, 3))
    k = t4(np.ones((1, 1, 1, 1)))
    b = t4(np.zeros((1, 1, 1, 1)))
    out = deconv2d(x, k, b, factor=1)
    np.testing.assert_array_equal(out.data, x.data)


def test_deconv2d_stamps_kernel():
    x = t4(np.array([[1.0]]))
    k = t4(np.ones((1, 1, 2, 2)))
    b = t4(np.zeros((1, 1, 1, 1)))
    out = deconv2d(x, k, b, factor=2)
    np.testing.assert_array_equal(out.data, np.ones((1, 1, 2, 2)))


def test_deconv2d_matches_adjoint_reference():
    rng = np.random.default_rng(5)
    zd = rng.normal(size=(1, 2, 3, 3))
    # square kernel, then a rectangular one (row padding 1, column padding 0)
    for kshape in [(2, 4, 4, 4), (2, 3, 4, 2)]:
        kd = rng.normal(size=kshape)
        out = deconv2d(t4(zd), t4(kd), Tensor(np.zeros((1, kshape[1], 1, 1))), factor=2)
        ref = deconv2d_adjoint_naive(zd, kd, 2)
        assert out.shape == (1, kshape[1], 6, 6)
        assert np.abs(out.data - ref).max() < 1e-10


def test_deconv2d_is_exact_conv2d_adjoint():
    # <conv(x), y> == <x, deconv(y)> with the same kernel array
    rng = np.random.default_rng(11)
    for factor, k in [(2, 4), (4, 8), (8, 16)]:
        xd = rng.normal(size=(2, 3, 16, 16))
        kd = rng.normal(size=(5, 3, k, k))
        yd = rng.normal(size=(2, 5, 16 // factor, 16 // factor))
        zero_oc = Tensor(np.zeros((1, 5, 1, 1)))
        zero_ic = Tensor(np.zeros((1, 3, 1, 1)))
        cx = conv2d(t4(xd), t4(kd), zero_oc, stride=factor, padding=(k - factor) // 2)
        dy = deconv2d(t4(yd), t4(kd), zero_ic, factor=factor)
        lhs = float((cx.data * yd).sum())
        rhs = float((xd * dy.data).sum())
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_deconv2d_prebuilt_phase_kernel():
    # a prebuilt phase kernel gives exactly the forward that builds its own,
    # and is refused while a Graph records, since Adam would change the
    # kernel in place
    rng = np.random.default_rng(8)
    x = t4(rng.normal(size=(2, 3, 5, 4)))
    b = t4(rng.normal(size=(1, 2, 1, 1)))
    for factor, k in [(2, 4), (4, 8)]:
        kernel = Tensor(rng.normal(size=(3, 2, k, k)), requires_grad=True)
        built = ad.phase_kernel(kernel.data, factor)
        assert np.array_equal(deconv2d(x, kernel, b, factor, act="relu", phases=built).data,
                              deconv2d(x, kernel, b, factor, act="relu").data)
        with Graph(), pytest.raises(UsageError, match="Graph"):
            deconv2d(x, kernel, b, factor, phases=built)


def test_deconv2d_bad_kernel_factor_combo():
    x = t4(np.zeros((1, 1, 3, 3)))
    b = t4(np.zeros((1, 1, 1, 1)))
    with pytest.raises(ConfigError, match="factor"):
        deconv2d(x, t4(np.zeros((1, 1, 3, 3))), b, factor=2)  # k - factor odd
    with pytest.raises(ConfigError, match="factor"):
        deconv2d(x, t4(np.zeros((1, 1, 2, 2))), b, factor=4)  # kernel smaller than factor


# ---------------------------------------------------------------------------
# the stride-1 kernels, each called directly


STRIDE1_CASES = [  # (n, ic, oc, h, w, k, pad)
    (2, 3, 2, 5, 6, 3, 1), (1, 4, 4, 7, 5, 3, 0), (2, 3, 3, 4, 4, 1, 1),
    (1, 2, 1, 6, 6, 5, 2), (1, 1, 1, 4, 5, 3, 1), (1, 3, 5, 4, 4, 3, 1)]


def _row_bands(monkeypatch):
    # every im2col matrix in bands of one output row of one image
    monkeypatch.setattr(ad, "CACHE_BYTES", 0)
    monkeypatch.setattr(ad, "BAND_BYTES", 1)


def _band_budgets(monkeypatch):
    # the module's sizes, which gather these small matrices whole, then row bands
    yield
    _row_bands(monkeypatch)
    yield


def _correlate(a, kernel, stride, pad, g=None):
    # the correlation and, for an output gradient g, its kernel gradient
    return ad._correlate(a, kernel, g, *kernel.shape[2:], stride, pad, pad)


@pytest.mark.parametrize("case", STRIDE1_CASES, ids=lambda c: "x".join(map(str, c)))
def test_stride1_kernels_match_naive(case, monkeypatch, band_kernels):
    n, ic, oc, h, w, k, pad = case
    rng = np.random.default_rng(sum(case))
    xd = rng.normal(size=(n, ic, h, w))
    kd = rng.normal(size=(oc, ic, k, k))
    ref = conv2d_naive(xd, kd, np.zeros(oc), stride=1, pad=pad)
    gout = rng.normal(size=ref.shape)
    dk_ref = conv2d_kernel_grad_naive(xd, gout, k, k, 1, pad)

    for _ in _band_budgets(monkeypatch):
        # the correlation and its kernel gradient, together and each alone;
        # the correlation alone of a narrowing layer runs the shifted GEMM
        out, dk = _correlate(xd, kd, 1, pad, gout)
        assert np.abs(out - ref).max() < 1e-10
        assert np.abs(dk - dk_ref).max() < 1e-10
        alone = _correlate(xd, kd, 1, pad)[0]
        assert np.abs(alone - ref).max() < 1e-10
        assert oc < ic or np.array_equal(alone, out)
        assert np.array_equal(ad._correlate(xd, None, gout, k, k, 1, pad, pad)[1], dk)
    # the shape rule: the shifted GEMM exactly for a narrowing correlation
    # alone, im2col bands for every call with a kernel gradient, and with
    # nothing asked no band kernel runs
    band_kernels.clear()
    _correlate(xd, kd, 1, pad, gout)
    _correlate(xd, kd, 1, pad)
    ad._correlate(xd, None, gout, k, k, 1, pad, pad)
    assert ad._correlate(xd, None, None, k, k, 1, pad, pad) == (None, None)
    assert [kernel for kernel, *_ in band_kernels] == [
        "im2col", "shifted" if oc < ic else "im2col", "im2col"]


ONE_WALK_CASES = STRIDE1_CASES + [  # and the program's gate shapes: narrowing, widening, same
    (2, 8, 1, 6, 5, 3, 1), (2, 1, 8, 6, 5, 3, 1), (2, 8, 8, 6, 5, 3, 1)]


@pytest.mark.parametrize("case", ONE_WALK_CASES, ids=lambda c: "x".join(map(str, c)))
def test_stride1_conv2d_backward_is_one_walk(case, band_kernels):
    # with x and the kernel both tracked, padding <= k - 1 and oc <= ic, the
    # backward's one correlation gives both gradients: the input gradient
    # bitwise the transposed convolution's, the kernel gradient the naive
    # loop's.  A padding past k - 1 or a widening layer keeps the two walks.
    n, ic, oc, h, w, k, pad = case
    rng = np.random.default_rng(sum(case))
    xd, kd = rng.normal(size=(n, ic, h, w)), rng.normal(size=(oc, ic, k, k))
    x, kernel = t4(xd, requires_grad=True), t4(kd, requires_grad=True)
    with Graph() as g:
        out = conv2d(x, kernel, t4(np.zeros((1, oc, 1, 1))), stride=1, padding=pad)
        gout = rng.normal(size=out.shape)
        loss = sum_all(mul(out, t4(gout)))
    band_kernels.clear()
    grads = g.backward(loss, {"x": x, "k": kernel})
    assert len(band_kernels) == (1 if pad < k and oc <= ic else 2)
    assert np.array_equal(grads["x"], ad._conv_transpose(gout, kd, 1, pad, pad, h, w))
    if 2 * pad == k - 1:
        assert np.abs(grads["x"] - deconv2d_adjoint_naive(gout, kd, 1)).max() < 1e-10
    dk_ref = conv2d_kernel_grad_naive(xd, gout, k, k, 1, pad)
    assert grads["k"].flags.c_contiguous
    assert np.abs(grads["k"] - dk_ref).max() <= 1e-12 * np.abs(dk_ref).max()


TRANSPOSE_CASES = [  # (k, stride, padding, h, w): the program's strided layers, then edge cases
    (3, 2, 1, 9, 8), (5, 4, 2, 12, 9), (7, 8, 3, 22, 19), (4, 2, 1, 8, 7),
    (2, 2, 0, 7, 5),  # the stride drops a row and a column of windows
    (1, 1, 2, 3, 3), (3, 1, 4, 4, 5),  # padding >= k at stride 1
    (4, 3, 0, 10, 8),  # the stride does not divide k
    (5, 2, 3, 9, 8),  # the padding spans a whole phase row
    (1, 1, 0, 4, 5),  # a 1x1 kernel, as in the concat combiner
]


@pytest.mark.parametrize("case", TRANSPOSE_CASES, ids=lambda c: "k{}s{}p{}_{}x{}".format(*c))
def test_conv_transpose_is_correlate_adjoint(case, monkeypatch):
    # <correlate(x), g> == <x, conv_transpose(g)>, in one band and in row
    # bands; the phase correlation in row bands sums what the one band sums
    k, stride, pad, h, w = case
    rng = np.random.default_rng(sum(case))
    xd = rng.normal(size=(2, 3, h, w))
    kd = rng.normal(size=(4, 3, k, k))
    gd = rng.normal(size=_correlate(xd, kd, stride, pad)[0].shape)
    abs_sums = ad._conv_transpose(np.abs(gd), np.abs(kd), stride, pad, pad, h, w)
    dh = -(-k // stride)  # phase taps per axis
    whole = None
    for _ in _band_budgets(monkeypatch):
        y, _ = _correlate(xd, kd, stride, pad)
        dx = ad._conv_transpose(gd, kd, stride, pad, pad, h, w)
        assert dx.shape == xd.shape
        lhs, rhs = float((y * gd).sum()), float((xd * dx).sum())
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)
        whole = dx if whole is None else whole
        assert same_sums(dx, whole, 4 * dh * dh, abs_sums)


def test_bands_split_images_then_rows(monkeypatch):
    row = 10  # elements of one output row's patches: 80 bytes, 400 per 5-row image
    monkeypatch.setattr(ad, "CACHE_BYTES", 1200)  # three images leave the cache
    monkeypatch.setattr(ad, "BAND_BYTES", 800)  # two images
    assert ad._bands(2, 5, row) == [(0, 2, 0, 5)]
    assert ad._bands(3, 5, row) == [(0, 2, 0, 5), (2, 3, 0, 5)]
    monkeypatch.setattr(ad, "BAND_BYTES", 2 * 80 + 79)  # two rows, not a whole image
    assert ad._bands(3, 5, row) == [(i, i + 1, r, min(r + 2, 5)) for i in range(3)
                                    for r in (0, 2, 4)]
    _row_bands(monkeypatch)  # less than a row: one row per band
    assert ad._bands(1, 3, row) == [(0, 1, 0, 1), (0, 1, 1, 2), (0, 1, 2, 3)]


BAND_CASES = [  # (n, c, oc, h, w, k, stride, pad)
    (1, 8, 8, 23, 19, 3, 1, 1),  # an SGU gate
    (3, 8, 8, 23, 19, 3, 2, 1),  # stem2 and the trunk
    (2, 8, 32, 30, 21, 7, 8, 3),  # the level-3 base-encoder
    (1, 16, 32, 29, 22, 5, 4, 2),  # the level-2 base-encoder
    (3, 3, 5, 9, 11, 3, 1, 0),  # no padding
    (2, 1, 8, 21, 33, 5, 4, 2),
]


@pytest.mark.parametrize("case", BAND_CASES, ids=lambda c: "n{}c{}o{}_{}x{}_k{}s{}p{}".format(*c))
def test_bands_are_exact(case, monkeypatch):
    n, c, oc, h, w, k, stride, pad = case
    rng = np.random.default_rng(sum(case))
    xd = rng.normal(size=(n, c, h, w))
    kd = rng.normal(size=(oc, c, k, k))
    oh, ow = (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1
    gd = rng.normal(size=(n, oc, oh, ow))
    whole, dk_whole = _correlate(xd, kd, stride, pad, gd)
    abs_sums = _correlate(np.abs(xd), np.abs(kd), stride, pad)[0]
    dk_ref = conv2d_kernel_grad_naive(xd, gd, k, k, stride, pad)
    assert np.abs(dk_whole - dk_ref).max() < 1e-10
    row_bytes = 8 * c * k * k * ow
    # whole images per band (a partial last band when n = 3), rows of one
    # image with a partial last band, and one row per band
    monkeypatch.setattr(ad, "CACHE_BYTES", 0)
    for budget in [(n - 1 or 1) * oh * row_bytes, 2 * row_bytes, 1]:
        monkeypatch.setattr(ad, "BAND_BYTES", budget)
        bands = ad._bands(n, oh, c * k * k * ow)
        assert len(bands) > 1 or n == 1
        out, dk = _correlate(xd, kd, stride, pad, gd)
        assert np.abs(dk - dk_ref).max() < 1e-10
        if all(r1 - r0 == oh for _, _, r0, r1 in bands):
            # the same per-image GEMMs, and the kernel gradient adds the images in order
            assert np.array_equal(out, whole) and np.array_equal(dk, dk_whole)
        else:  # a row band is a narrower GEMM, which BLAS may round differently
            assert same_sums(out, whole, c * k * k, abs_sums)


def test_strided_conv2d_gathers_in_bands(traced_peak):
    # stem2 on a 368x304 restore: its whole patch matrix would be 2.25x the
    # input, and a padded copy of the input 1.0x; with bands that pad their
    # own rows the peak is the output, its lrelu scratch and one band,
    # under 0.50x the input (1.36x with the padded copy)
    rng = np.random.default_rng(0)
    x, k = t4(rng.normal(size=(1, 8, 368, 304))), t4(rng.normal(size=(8, 8, 3, 3)))
    b = t4(np.zeros((1, 8, 1, 1)))
    out, peak = traced_peak(conv2d, x, k, b, stride=2, padding=1, act="lrelu")
    assert out.shape == (1, 8, 184, 152)
    assert peak < 0.6 * x.data.nbytes, f"{peak / x.data.nbytes:.2f}x the input"


def _col2im_canvas_then_crop(cols, shape, kh, kw, top, left, out):
    # depth-to-space of the whole canvas as one 6-D transposed copy, then a crop
    n, c, h, w = shape
    qh, qw = cols.shape[-2:]
    canvas = cols.reshape(n, c, kh, kw, qh, qw).transpose(0, 1, 4, 2, 5, 3)
    canvas = canvas.reshape(n, c, kh * qh, kw * qw)
    out[...] = canvas[:, :, top:top + h, left:left + w]


@pytest.mark.parametrize("stride", [1, 2, 3, 4, 8])
def test_conv_transpose_writes_phases_as_canvas_then_crop(stride, monkeypatch):
    # paddings 0..2s cover every residue of the crop offsets; sizes with
    # h + 2p - k not divisible by s drop windows, so g gets zero rows
    rng = np.random.default_rng(61 + stride)
    cases = []
    for k in sorted({stride, stride + 2, 2 * stride + 1}):
        for pad in range(2 * stride + 1):
            for h, w in [(2 * stride + 3, 3 * stride + 1), (k + 1, k + stride - 1)]:
                if h + 2 * pad >= k and w + 2 * pad >= k:
                    kd = rng.normal(size=(3, 2, k, k))
                    y, _ = _correlate(rng.normal(size=(2, 2, h, w)), kd, stride, pad)
                    cases.append((rng.normal(size=y.shape), kd, stride, pad, pad, h, w))
    real_col2im, offsets = ad._col2im, []
    monkeypatch.setattr(ad, "_col2im", lambda *a: offsets.append(a[4:6]) or real_col2im(*a))
    got = [ad._conv_transpose(*case) for case in cases]
    assert {top % stride for top, _ in offsets} == set(range(stride))
    # at stride 1 with nothing to crop the phase correlation is the result itself
    assert stride > 1 or (0, 0) not in offsets
    monkeypatch.setattr(ad, "_col2im", _col2im_canvas_then_crop)
    for case, out in zip(cases, got):
        assert out.flags.c_contiguous and np.array_equal(out, ad._conv_transpose(*case))


def test_deconv2d_forward_builds_no_canvas(traced_peak):
    # x2 from 184x152, 8 -> 8 channels: each band of the phase correlation is
    # placed into the result as it is computed, so the result and one band
    # are live, ~1.28x the result; the whole phase output made 2.0x, a canvas
    # and its crop 3.0x
    rng = np.random.default_rng(0)
    x, k = t4(rng.normal(size=(1, 8, 184, 152))), t4(rng.normal(size=(8, 8, 4, 4)))
    b = t4(np.zeros((1, 8, 1, 1)))
    out, peak = traced_peak(deconv2d, x, k, b, factor=2)
    assert out.shape == (1, 8, 368, 304)
    assert peak < 1.4 * out.data.nbytes, f"{peak / out.data.nbytes:.2f}x the output"


PHASE_CASES = {  # the phase correlation's band kernel -> [(deconv2d kernel shape, factor)]
    # ic * s^2 phases from oc channels: narrowing only at factor 1 here
    "im2col": [((3, 2, 4, 4), 2), ((3, 2, 4, 2), 2), ((3, 2, 8, 8), 4), ((3, 2, 16, 16), 8),
               ((3, 2, 5, 3), 3)],
    "shifted": [((3, 2, 1, 1), 1), ((3, 2, 3, 3), 1), ((3, 2, 5, 3), 1)],
}


@pytest.mark.parametrize("kernel", list(PHASE_CASES))
def test_deconv2d_phases_match_adjoint_reference(kernel, band_kernels):
    rng = np.random.default_rng(43)
    zd = rng.normal(size=(2, 3, 3, 4))
    for kshape, factor in PHASE_CASES[kernel]:
        kd = rng.normal(size=kshape)
        ph, pw = (kshape[2] - factor) // 2, (kshape[3] - factor) // 2
        band_kernels.clear()
        out = ad._conv_transpose(zd, kd, factor, ph, pw, 3 * factor, 4 * factor)
        assert [kind for kind, *_ in band_kernels] == [kernel]
        assert np.abs(out - deconv2d_adjoint_naive(zd, kd, factor)).max() < 1e-10


@pytest.mark.parametrize("factor", [1, 2, 4, 8])
def test_deconv2d_kernel_grad_reuses_the_input_gradients_patches(factor, monkeypatch):
    # with x tracked, the input gradient's walk over the bands of its patch
    # matrix also gives the kernel gradient, so each band is gathered once;
    # without, the kernel gradient walks the same bands alone.  Either way
    # each band pads its own rows once and the two give the same array.
    rng = np.random.default_rng(53 + factor)
    xd = rng.normal(size=(2, 3, 3, 4))
    kd = rng.normal(size=(3, 2, factor + 2, factor + 2))
    wd = rng.normal(size=(2, 2, 3 * factor, 4 * factor))
    real_im2col, real_padded, gathered, padded = ad._im2col, ad._padded, [], []
    monkeypatch.setattr(ad, "_im2col", lambda a, *rest: gathered.append(a.shape[0])
                        or real_im2col(a, *rest))
    monkeypatch.setattr(ad, "_padded", lambda a, *rest: padded.append(a.shape[0])
                        or real_padded(a, *rest))

    def kernel_grad(track_x):
        x, k = t4(xd, requires_grad=track_x), t4(kd, requires_grad=True)
        with Graph() as g:
            loss = sum_all(mul(deconv2d(x, k, t4(np.zeros((1, 2, 1, 1))), factor, act="relu"),
                               t4(wd)))
        gathered.clear()  # count the backward's gathers and paddings only
        padded.clear()
        return g.backward(loss, {"k": k})["k"], list(gathered), list(padded)

    # one band of both images, then one band per row of x's 3 per image
    for _, bands in zip(_band_budgets(monkeypatch), ([2], [1] * 6)):
        reused, reused_gathers, reused_pads = kernel_grad(True)
        fresh, fresh_gathers, fresh_pads = kernel_grad(False)
        assert reused_gathers == fresh_gathers == bands
        assert reused_pads == fresh_pads == bands
        assert np.array_equal(reused, fresh)


def test_grad_conv2d_shifted_kernel(band_kernels):
    # every narrowing stride-1 conv2d runs its forward on the shifted GEMM;
    # its backward takes both gradients from one walk over the output
    # gradient's im2col bands, a widening correlation
    cases = [(3, 2, 3), (4, 3, 3), (2, 1, 3), (3, 2, 1)]
    rng = np.random.default_rng(47)
    for ic, oc, k in cases:
        x = rng.normal(size=(2, ic, 5, 4))
        kd = rng.normal(size=(oc, ic, k, k))
        b = rng.normal(size=(1, oc, 1, 1))
        _gradcheck(lambda xs, ks, bs, p=k // 2: conv2d(xs, ks, bs, stride=1, padding=p),
                   [x, kd, b])
    assert set(band_kernels) == {("shifted", True, False), ("im2col", True, True)}
    assert band_kernels.count(("im2col", True, True)) == len(cases)


def test_grad_conv_in_row_bands(monkeypatch):
    # the forwards, the input gradients' phase correlations and both kernel
    # gradients, every im2col matrix gathered one output row per band
    _row_bands(monkeypatch)
    rng = np.random.default_rng(59)
    for stride, k in [(1, 3), (2, 3), (4, 5)]:
        x = rng.normal(size=(2, 3, 9, 8))
        kd = rng.normal(size=(4, 3, k, k))
        b = rng.normal(size=(1, 4, 1, 1))
        _gradcheck(lambda xs, ks, bs, s=stride, p=k // 2: conv2d(xs, ks, bs, stride=s, padding=p),
                   [x, kd, b])
    x = rng.normal(size=(2, 3, 3, 4))
    kd = rng.normal(size=(3, 2, 4, 4))
    b = rng.normal(size=(1, 2, 1, 1))
    _gradcheck(lambda xs, ks, bs: deconv2d(xs, ks, bs, factor=2), [x, kd, b])


# ---------------------------------------------------------------------------
# pointwise ops


def test_relu_values():
    out = relu(t4([-1.0, 0.0, 2.0]))
    np.testing.assert_array_equal(out.data.reshape(-1), [0.0, 0.0, 2.0])


def test_sigmoid_at_zero():
    assert sigmoid(t4([0.0])).item() == 0.5


def test_sigmoid_is_bitwise_its_definition():
    # the np.where formula is the reference: NaN, signed zeros, infinities,
    # subnormals, the edges of exp's range and random values at three scales
    rng = np.random.default_rng(7)
    tiny = np.finfo(np.float64).smallest_subnormal
    special = [np.nan, 0.0, -0.0, np.inf, -np.inf, tiny, -tiny, 1e-310, -1e-310,
               709.78, -709.78, 745.2, -745.2, 1000.0, -1000.0]
    x = np.concatenate([special] + [scale * rng.normal(size=200) for scale in (1, 30, 800)])
    out = sigmoid(t4(x)).data.reshape(-1)
    want = _sigmoid_definition(x)
    assert np.array_equal(out, want, equal_nan=True)
    assert np.array_equal(out.view(np.int64), want.view(np.int64))  # signs of zero and NaN


def test_lrelu_definition():
    assert lrelu(t4([-5.0]), alpha=0.2).item() == pytest.approx(-1.0)
    out = lrelu(t4([np.nan, 3.0, -0.0]), alpha=0.2).data.reshape(-1)
    assert np.isnan(out[0]) and out[1] == 3.0 and out[2] == 0.0


def test_elementwise_identities():
    rng = np.random.default_rng(1)
    xd = rng.normal(size=(1, 2, 3, 3))
    x = t4(xd)
    np.testing.assert_array_equal(add(x, Tensor(np.zeros_like(xd))).data, xd)
    np.testing.assert_array_equal(mul(x, Tensor(np.ones_like(xd))).data, xd)
    out = mul(t4([2.0, 3.0]), t4([4.0, 5.0]))
    np.testing.assert_array_equal(out.data.reshape(-1), [8.0, 15.0])
    with pytest.raises(ConfigError):
        add(x, t4(np.zeros((1, 2, 3, 4))))


def test_global_avg_pool_values():
    assert global_avg_pool(t4(np.full((1, 1, 3, 3), 7.0))).item() == 7.0
    assert global_avg_pool(t4(np.array([[1.0, 2.0], [3.0, 4.0]]))).item() == 2.5


def test_global_avg_pool_matches_direct_sum():
    rng = np.random.default_rng(9)
    xd = rng.normal(size=(2, 512, 4, 4))
    out = global_avg_pool(t4(xd))
    ref = xd.sum(axis=(2, 3), keepdims=True) / 16.0
    assert out.shape == (2, 512, 1, 1)
    assert np.abs(out.data - ref).max() < 1e-12


def test_log_clamped_floor():
    out = log_clamped(t4([0.0]))
    assert out.item() == pytest.approx(np.log(1e-12))


# ---------------------------------------------------------------------------
# gradient checks: every op kind vs central finite differences


def _gradcheck(build, arrays, tol=1e-4, eps=1e-4):
    """build(tensors...) -> output tensor; compares backward grads to numeric."""
    tensors = [t4(a, requires_grad=True) for a in arrays]
    rng = np.random.default_rng(123)

    with Graph() as g:
        out = build(*tensors)
        w = Tensor(rng.normal(size=out.shape))  # random projection to a scalar
        loss = sum_all(mul(out, w))
    grads = g.backward(loss, dict(enumerate(tensors)))

    def f(*arrs):
        outs = build(*[t4(a) for a in arrs])
        return float((outs.data * w.data).sum())

    numeric = numeric_grad(f, [a.copy() for a in arrays], eps=eps)
    for i, num in enumerate(numeric):
        assert rel_err(grads[i], num) < tol


@pytest.mark.parametrize("seed", range(3))
def test_grad_conv2d(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, 2, 5, 5))
    k = rng.normal(size=(3, 2, 3, 3))
    b = rng.normal(size=(1, 3, 1, 1))
    _gradcheck(lambda xs, ks, bs: conv2d(xs, ks, bs, stride=2, padding=1), [x, k, b])


def test_grad_conv2d_stride1_same():
    rng = np.random.default_rng(31)
    # (ic, oc, k): the input gradient is a correlation with the flipped,
    # transposed kernel, also for one output channel, one input channel and
    # a 1x1 kernel
    for ic, oc, k in [(3, 2, 3), (3, 1, 3), (1, 2, 3), (3, 2, 1)]:
        x = rng.normal(size=(1, ic, 4, 4))
        kd = rng.normal(size=(oc, ic, k, k))
        b = rng.normal(size=(1, oc, 1, 1))
        _gradcheck(lambda xs, ks, bs, p=k // 2: conv2d(xs, ks, bs, stride=1, padding=p),
                   [x, kd, b])


@pytest.mark.parametrize("factor,k", [(1, 1), (2, 4), (4, 8), (8, 16),
                                      pytest.param(2, (4, 2), id="2-4x2")])
def test_grad_deconv2d(factor, k):
    rng = np.random.default_rng(factor)
    x = rng.normal(size=(2, 2, 3, 3))
    kd = rng.normal(size=(2, 3) + (k if isinstance(k, tuple) else (k, k)))
    b = rng.normal(size=(1, 3, 1, 1))
    _gradcheck(lambda xs, ks, bs: deconv2d(xs, ks, bs, factor=factor), [x, kd, b])


@pytest.mark.parametrize("act", [relu, lrelu, sigmoid, tanh], ids=lambda f: f.__name__)
def test_grad_activations(act):
    rng = np.random.default_rng(17)
    x = nudge_off_kinks(rng.normal(size=(2, 3, 4, 4)))
    _gradcheck(act, [x])


def test_grad_add_sub_mul_maximum():
    rng = np.random.default_rng(23)
    a = rng.normal(size=(2, 2, 3, 3))
    b = a + nudge_off_kinks(rng.normal(size=a.shape))  # keep max() away from ties
    _gradcheck(add, [a, b])
    _gradcheck(sub, [a, b])
    _gradcheck(mul, [a, b])
    _gradcheck(maximum, [a, b])


def test_grad_concat_gap_affine_reductions():
    rng = np.random.default_rng(29)
    a = rng.normal(size=(2, 2, 3, 3))
    b = rng.normal(size=(2, 3, 3, 3))
    _gradcheck(concat_channels, [a, b])
    _gradcheck(global_avg_pool, [a])
    _gradcheck(lambda xs: affine(xs, -2.5, 0.75), [a])
    _gradcheck(sum_all, [a])
    _gradcheck(mean_all, [a])


def test_grad_log_clamped():
    rng = np.random.default_rng(37)
    x = rng.uniform(0.1, 0.9, size=(1, 2, 3, 3))
    _gradcheck(log_clamped, [x])


def test_grad_many_random_shapes():
    # conv/deconv pairs across a spread of shapes, one fixed seed per case
    cases = [
        ((1, 1, 4, 4), (2, 1, 3, 3), 1, 1),
        ((2, 3, 6, 6), (1, 3, 3, 3), 3, 1),
        ((1, 2, 8, 8), (2, 2, 5, 5), 2, 2),
        ((3, 1, 5, 5), (2, 1, 1, 1), 1, 0),
        # kernel == stride: the windows tile 6x4 but leave a row of 7x4
        # uncovered, which the input gradient fills with zeros
        ((1, 2, 6, 4), (2, 2, 2, 2), 2, 0),
        ((1, 2, 7, 4), (2, 2, 2, 2), 2, 0),
        # stride 1 with padding > k - 1: the input gradient crops most of the canvas
        ((1, 2, 3, 3), (2, 2, 1, 1), 1, 2),
    ]
    for i, (xs, ks, stride, pad) in enumerate(cases):
        rng = np.random.default_rng(100 + i)
        x = rng.normal(size=xs)
        k = rng.normal(size=ks)
        b = rng.normal(size=(1, ks[0], 1, 1))
        _gradcheck(lambda xt, kt, bt, s=stride, p=pad: conv2d(xt, kt, bt, stride=s, padding=p),
                   [x, k, b])


# ---------------------------------------------------------------------------
# conv2d/deconv2d with a fused activation

ACTS = {"relu": relu, "lrelu": lambda t: lrelu(t, 0.3), "sigmoid": sigmoid, "tanh": tanh}
FUSED_CASES = {  # name -> (x shape, kernel shape, build(x, k, b, act, alpha))
    "conv-s1": ((2, 3, 5, 4), (2, 3, 3, 3),  # narrowing: the shifted GEMM runs
                lambda *a, act, alpha=0.3: conv2d(*a, stride=1, padding=1, act=act, alpha=alpha)),
    "conv-gate": ((2, 3, 5, 4), (3, 3, 3, 3),  # channel-preserving, as an SGU gate: im2col
                  lambda *a, act, alpha=0.3: conv2d(*a, stride=1, padding=1, act=act,
                                                    alpha=alpha)),
    "conv-s2": ((2, 2, 6, 5), (3, 2, 4, 4),
                lambda *a, act, alpha=0.3: conv2d(*a, stride=2, padding=1, act=act, alpha=alpha)),
    "deconv-f2": ((2, 3, 3, 2), (3, 2, 4, 4),
                  lambda *a, act, alpha=0.3: deconv2d(*a, factor=2, act=act, alpha=alpha)),
    "deconv-f4": ((1, 2, 2, 3), (2, 3, 8, 8),
                  lambda *a, act, alpha=0.3: deconv2d(*a, factor=4, act=act, alpha=alpha)),
}


def _fused_arrays(case, seed=0):
    xs, ks, _ = FUSED_CASES[case]
    rng = np.random.default_rng(seed)
    oc = ks[1] if case.startswith("deconv") else ks[0]
    return [rng.normal(size=xs), rng.normal(size=ks), rng.normal(size=(1, oc, 1, 1))]


def _sigmoid_definition(x):
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


ACT_DEFINITIONS = {"relu": lambda x: np.where(x <= 0, 0.0, x),
                   "lrelu": lambda x: np.where(x > 0, x, 0.3 * x),
                   "sigmoid": _sigmoid_definition, "tanh": np.tanh}


@pytest.mark.parametrize("act", list(ACTS))
def test_activation_bits_match_definition(act):
    # signed zeros, infinities and NaN included: the fused and the separate
    # ops share these formulas, so this pins both
    x = np.random.default_rng(3).normal(size=(2, 3, 4, 5)) * 30.0
    x.flat[::7] = -0.0
    x.flat[1::11] = 0.0
    x.flat[2:5] = [np.inf, -np.inf, np.nan]
    out = ACTS[act](t4(x)).data
    assert np.array_equal(out.view(np.int64), ACT_DEFINITIONS[act](x).view(np.int64))


@pytest.mark.parametrize("size", [ad.CHUNK, 3 * ad.CHUNK + 17])
@pytest.mark.parametrize("act,ufunc", [("lrelu", "multiply"), ("sigmoid", "exp")],
                         ids=["lrelu", "sigmoid"])
def test_lrelu_in_chunks_is_bitwise_one_call(act, ufunc, size, monkeypatch):
    # past one chunk the activation runs chunk by chunk through reused
    # scratch; every bit, signed zeros and NaN included, is the definition's
    x = np.random.default_rng(size).normal(size=(1, 1, 1, size)) * 30.0
    x.flat[::7] = -0.0
    x.flat[-3:] = [np.inf, -np.inf, np.nan]
    want = ACT_DEFINITIONS[act](x)
    chunks = []
    real = getattr(np, ufunc)
    monkeypatch.setattr(np, ufunc, lambda *a, **k: chunks.append(a[0].size) or real(*a, **k))
    out = ad._ACTIVATIONS[act][0](x.copy(), 0.3)
    assert np.array_equal(out.view(np.int64), want.view(np.int64))
    assert chunks == ([size] if size <= ad.CHUNK else [ad.CHUNK] * 3 + [17])


@pytest.mark.parametrize("size", [ad.CHUNK - 5, ad.CHUNK, 2 * ad.CHUNK + 17])
def test_gate_is_bitwise_the_composed_ops(size):
    # value and all four gradients, with NaN, infinities and signed zeros
    # among the operands, below, at and above one chunk; no input is written
    rng = np.random.default_rng(size)
    arrays = rng.normal(size=(4, 1, 1, 1, size)) * 30.0
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0, -1.0]
    arrays[:, 0, 0, 0, :64] = rng.choice(special, size=(4, 64))  # inf * 0, -0.0 + -0.0, ...
    w = Tensor(rng.normal(size=(1, 1, 1, size)))
    results = []
    with np.errstate(invalid="ignore"):  # inf * 0 and inf - inf make NaN on both sides
        for build in (gate, lambda ga, a, gp, b: add(mul(ga, a), mul(gp, b))):
            tensors = [Tensor(arr.copy(), requires_grad=True) for arr in arrays]
            with Graph() as g:
                out = build(*tensors)
                loss = sum_all(mul(out, w))
            grads = g.backward(loss, dict(enumerate(tensors)))
            results.append([out.data] + [grads[i] for i in range(4)])
            for t, arr in zip(tensors, arrays):
                assert np.array_equal(t.data.view(np.int64), arr.view(np.int64))
    for got, want in zip(*results):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_gate_shape_mismatch():
    x = t4(np.zeros((1, 2, 3, 3)))
    for i in range(1, 4):
        args = [x] * 4
        args[i] = t4(np.zeros((1, 2, 3, 4)))
        with pytest.raises(ConfigError, match="gate: shape mismatch"):
            gate(*args)


@pytest.mark.parametrize("act", list(ACTS))
@pytest.mark.parametrize("case", list(FUSED_CASES))
def test_grad_fused_activation(case, act):
    build = FUSED_CASES[case][2]
    _gradcheck(lambda *a: build(*a, act=act), _fused_arrays(case))


def _values_and_grads(build, arrays, nan_at=None):
    tensors = [t4(a.copy(), requires_grad=True) for a in arrays]
    if nan_at is not None:
        tensors[0].data[nan_at] = np.nan
    with Graph() as g:
        out = build(*tensors)
        w = Tensor(np.random.default_rng(5).normal(size=out.shape))
        loss = sum_all(mul(out, w))
    grads = g.backward(loss, dict(enumerate(tensors)))
    return [out.data] + [grads[i] for i in range(len(tensors))], len(g.nodes)


@pytest.mark.parametrize("act", list(ACTS))
@pytest.mark.parametrize("case,kernel", (
    [pytest.param(c, "im2col", id=f"{c}-False") for c in FUSED_CASES]
    + [pytest.param(c, "row-bands", id=f"{c}-row-bands") for c in FUSED_CASES]))
def test_fused_activation_is_bitwise_the_composed_ops(monkeypatch, case, kernel, act):
    if kernel == "row-bands":
        _row_bands(monkeypatch)
    build, arrays = FUSED_CASES[case][2], _fused_arrays(case, seed=1)
    fused, fused_nodes = _values_and_grads(lambda *a: build(*a, act=act), arrays)
    composed, composed_nodes = _values_and_grads(lambda *a: ACTS[act](build(*a, act=None)), arrays)
    assert fused_nodes == composed_nodes - 1
    for f, c in zip(fused, composed):
        assert np.array_equal(f, c)


@pytest.mark.parametrize("alpha", [0.0, 0.2, 0.37])
@pytest.mark.parametrize("case", list(FUSED_CASES))
def test_fused_lrelu_is_bitwise_the_composed_ops_at_any_slope(case, alpha):
    # slopes in [0, 1), zero included, with a NaN input; the gradient's
    # maximum(out > 0, alpha) is where(out > 0, 1.0, alpha) bit for bit,
    # NaN, signed zeros and infinities included
    build, arrays = FUSED_CASES[case][2], _fused_arrays(case, seed=3)
    fused, _ = _values_and_grads(lambda *a: build(*a, act="lrelu", alpha=alpha), arrays,
                                 nan_at=(0, 0, 0, 0))
    composed, _ = _values_and_grads(lambda *a: lrelu(build(*a, act=None), alpha), arrays,
                                    nan_at=(0, 0, 0, 0))
    assert np.isnan(fused[0]).any()
    for f, c in zip(fused, composed):
        assert np.array_equal(f, c, equal_nan=True)
    out = np.random.default_rng(4).normal(size=(2, 3, 4, 5))
    out.flat[:6] = [np.nan, 0.0, -0.0, np.inf, -np.inf, 1e-300]
    g = np.random.default_rng(5).normal(size=out.shape)
    got = ad._ACTIVATIONS["lrelu"][1](g, out, alpha)
    assert np.array_equal(got.view(np.int64), (g * np.where(out > 0, 1.0, alpha)).view(np.int64))


@pytest.mark.parametrize("act", ["relu", "lrelu"])
@pytest.mark.parametrize("case", list(FUSED_CASES))
def test_fused_activation_passes_nan(case, act):
    # a NaN input reaches the output as NaN, where _check_finite names the layer
    build, arrays = FUSED_CASES[case][2], _fused_arrays(case, seed=2)
    fused, _ = _values_and_grads(lambda *a: build(*a, act=act), arrays, nan_at=(0, 0, 0, 0))
    composed, _ = _values_and_grads(lambda *a: ACTS[act](build(*a, act=None)), arrays,
                                    nan_at=(0, 0, 0, 0))
    assert np.isnan(fused[0]).any()
    for f, c in zip(fused, composed):
        assert np.array_equal(f, c, equal_nan=True)


def test_unknown_activation_rejected():
    x, k, b = (t4(a) for a in _fused_arrays("conv-s1"))
    with pytest.raises(ConfigError, match="activation"):
        conv2d(x, k, b, act="softplus")


# ---------------------------------------------------------------------------
# Adam


def _param(val):
    return {"w": t4(np.asarray(val, dtype=np.float64), requires_grad=True)}


def test_adam_zero_gradient_keeps_params():
    p = _param([[1.5, -2.0]])
    state = AdamState()
    adam_step(p, {"w": np.zeros_like(p["w"].data)}, state, lr=0.1)
    np.testing.assert_array_equal(p["w"].data.reshape(-1), [1.5, -2.0])
    assert state.step == 1


def test_adam_first_step_magnitude_is_lr():
    # after bias correction the first step is lr * g / (|g| + eps) ~= lr * sign(g)
    for g0 in (0.003, -4.2, 17.0):
        p = _param([[1.0]])
        adam_step(p, {"w": np.full((1, 1, 1, 1), g0)}, AdamState(), lr=0.05)
        update = 1.0 - p["w"].data.reshape(())
        assert np.sign(update) == np.sign(g0)
        assert abs(update) == pytest.approx(0.05, rel=1e-4)


def test_adam_converges_on_quadratic():
    p = _param([[1.0]])
    state = AdamState()
    for _ in range(100):
        g = 2.0 * p["w"].data
        adam_step(p, {"w": g.copy()}, state, lr=0.1)
    assert abs(p["w"].data.reshape(())) < 0.5
    assert state.step == 100


def test_adam_rejects_nan_gradient():
    p = _param([[1.0]])
    bad = np.full((1, 1, 1, 1), np.nan)
    with pytest.raises(NumericsError, match="'w'"):
        adam_step(p, {"w": bad}, AdamState(), lr=0.1)


def test_adam_failed_step_changes_nothing():
    params = {"a": t4([[1.0]], requires_grad=True), "b": t4([[2.0]], requires_grad=True)}
    state = AdamState()
    one = np.ones((1, 1, 1, 1))
    adam_step(params, {"a": one, "b": one}, state, lr=0.1)
    arrays = lambda: [{k: p.data for k, p in params.items()}, state.m, state.v]
    saved = [{k: a.copy() for k, a in d.items()} for d in arrays()]
    with pytest.raises(NumericsError, match="'b'"):
        adam_step(params, {"a": one, "b": np.full_like(one, np.nan)}, state, lr=0.1)
    for was, now in zip(saved, arrays()):
        assert was.keys() == now.keys()
        assert all(np.array_equal(was[k], now[k]) for k in was)
    assert state.step == 1


def test_adam_reports_missing_and_mismatched():
    p = _param([[1.0]])
    with pytest.raises(ConfigError, match="'w'"):
        adam_step(p, {}, AdamState(), lr=0.1)
    with pytest.raises(ConfigError, match="'w'"):
        adam_step(p, {"w": np.zeros((1, 1, 1, 2))}, AdamState(), lr=0.1)
