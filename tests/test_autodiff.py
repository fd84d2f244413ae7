import numpy as np
import pytest

from sgen import autodiff as ad
from sgen.autodiff import (AdamState, Graph, Tensor, adam_step, add, affine,
                           concat_channels, conv2d, deconv2d, global_avg_pool,
                           log_clamped, lrelu, maximum, mean_all, mul, relu, sigmoid,
                           sub, sum_all, tanh)
from sgen.errors import ConfigError, NumericsError, UsageError

from oracles import conv2d_naive, deconv2d_adjoint_naive, numeric_grad, nudge_off_kinks, rel_err


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
        g.backward(Tensor.scalar(1.0))


def test_backward_requires_scalar_loss():
    x = t4(np.ones((1, 1, 2, 2)), requires_grad=True)
    with Graph() as g:
        y = add(x, x)
    with pytest.raises(UsageError):
        g.backward(y)


def test_backward_sum_gives_ones():
    x = t4(np.random.default_rng(0).normal(size=(2, 3, 4, 5)), requires_grad=True)
    with Graph() as g:
        loss = sum_all(x)
    g.backward(loss)
    np.testing.assert_array_equal(x.grad, np.ones_like(x.data))


def test_backward_sum_of_squares():
    x = t4([3.0], requires_grad=True)
    with Graph() as g:
        loss = sum_all(mul(x, x))
    g.backward(loss)
    assert x.grad.reshape(()) == pytest.approx(6.0)


def test_backward_accumulates_on_diamond():
    # x feeds two branches; gradient must be the sum of both contributions
    rng = np.random.default_rng(7)
    xd = nudge_off_kinks(rng.normal(size=(1, 2, 3, 3)))
    x = t4(xd, requires_grad=True)
    with Graph() as g:
        loss = sum_all(add(mul(x, x), relu(x)))
    g.backward(loss)

    def f(a):
        return float((a * a + np.maximum(a, 0.0)).sum())

    (num,) = numeric_grad(f, [xd.copy()])
    assert rel_err(x.grad, num) < 1e-6


def test_forward_without_graph_is_detached():
    x = t4(np.ones((1, 1, 2, 2)), requires_grad=True)
    y = add(x, x)  # no active graph
    assert y.requires_grad is False
    assert y.grad is None


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


@pytest.mark.parametrize("case", STRIDE1_CASES, ids=lambda c: "x".join(map(str, c)))
def test_stride1_kernels_match_naive(case):
    n, ic, oc, h, w, k, pad = case
    rng = np.random.default_rng(sum(case))
    xd = rng.normal(size=(n, ic, h, w))
    kd = rng.normal(size=(oc, ic, k, k))
    ref = conv2d_naive(xd, kd, np.zeros(oc), stride=1, pad=pad)
    shifted = ad._conv_shifted(xd, kd, pad, pad)
    gemm, cols = ad._correlate(xd, kd, 1, pad, pad)  # im2col at these sizes
    assert cols is not None
    assert np.abs(shifted - ref).max() < 1e-10
    assert np.abs(gemm - ref).max() < 1e-10
    # kernel gradient: the same contraction as the im2col path's
    gout = rng.normal(size=ref.shape)
    dk_ref = np.matmul(gout.reshape(n, oc, -1), cols.transpose(0, 2, 1)).sum(axis=0)
    dk = ad._conv_shifted_kernel_grad(xd, gout, k, k, pad, pad)
    assert np.abs(dk - dk_ref.reshape(kd.shape)).max() < 1e-10


def test_correlate_negative_padding_crops():
    # the input gradient of a conv whose padding exceeds k - 1 crops gout
    rng = np.random.default_rng(41)
    gd = rng.normal(size=(1, 2, 7, 7))
    kd = rng.normal(size=(3, 2, 1, 1))
    out, _ = ad._correlate(gd, kd, 1, -2, -2)
    ref = conv2d_naive(gd[:, :, 2:5, 2:5], kd, np.zeros(3))
    assert np.abs(out - ref).max() < 1e-12


@pytest.mark.parametrize("kernel", ["im2col", "shifted"])
def test_deconv2d_phases_match_adjoint_reference(kernel):
    rng = np.random.default_rng(43)
    zd = rng.normal(size=(2, 3, 3, 4))
    for kshape, factor in [((3, 2, 4, 4), 2), ((3, 2, 4, 2), 2), ((3, 2, 8, 8), 4),
                           ((3, 2, 16, 16), 8), ((3, 2, 1, 1), 1), ((3, 2, 5, 3), 3)]:
        kd = rng.normal(size=kshape)
        phases, dh, dw = ad._phase_kernel(kd, factor)
        if kernel == "shifted":
            y = ad._conv_shifted(zd, phases, dh, dw)
        else:
            y, cols = ad._correlate(zd, phases, 1, dh, dw)
            assert cols is not None
        oc, f = kshape[1], factor
        out = ad._col2im(y, (2, oc, 3 * f, 4 * f), f, f, f, 0, 0, 3, 4)  # depth-to-space
        assert np.abs(out - deconv2d_adjoint_naive(zd, kd, factor)).max() < 1e-10


def test_grad_conv2d_shifted_kernel(monkeypatch):
    # every stride-1 correlation takes the shifted GEMM, forward and backward
    monkeypatch.setattr(ad, "SHIFTED_MIN_BYTES", 0)
    calls = []
    real = ad._conv_shifted
    monkeypatch.setattr(ad, "_conv_shifted", lambda *a: calls.append(1) or real(*a))
    rng = np.random.default_rng(47)
    for ic, oc, k in [(3, 2, 3), (3, 3, 3), (2, 1, 3), (2, 2, 1)]:
        x = rng.normal(size=(2, ic, 5, 4))
        kd = rng.normal(size=(oc, ic, k, k))
        b = rng.normal(size=(1, oc, 1, 1))
        _gradcheck(lambda xs, ks, bs, p=k // 2: conv2d(xs, ks, bs, stride=1, padding=p),
                   [x, kd, b])
    assert calls


# ---------------------------------------------------------------------------
# pointwise ops


def test_relu_values():
    out = relu(t4([-1.0, 0.0, 2.0]))
    np.testing.assert_array_equal(out.data.reshape(-1), [0.0, 0.0, 2.0])


def test_sigmoid_at_zero():
    assert sigmoid(t4([0.0])).item() == 0.5


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
    g.backward(loss)

    def f(*arrs):
        outs = build(*[t4(a) for a in arrs])
        return float((outs.data * w.data).sum())

    numeric = numeric_grad(f, [a.copy() for a in arrays], eps=eps)
    for t, num in zip(tensors, numeric):
        assert rel_err(t.grad, num) < tol


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
        # kernel == stride: the windows tile 6x4 (col2im's transposed copy)
        # but leave a row of 7x4 uncovered (its scatter-add loop)
        ((1, 2, 6, 4), (2, 2, 2, 2), 2, 0),
        ((1, 2, 7, 4), (2, 2, 2, 2), 2, 0),
    ]
    for i, (xs, ks, stride, pad) in enumerate(cases):
        rng = np.random.default_rng(100 + i)
        x = rng.normal(size=xs)
        k = rng.normal(size=ks)
        b = rng.normal(size=(1, ks[0], 1, 1))
        _gradcheck(lambda xt, kt, bt, s=stride, p=pad: conv2d(xt, kt, bt, stride=s, padding=p),
                   [x, k, b])


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


def test_adam_reports_missing_and_mismatched():
    p = _param([[1.0]])
    with pytest.raises(ConfigError, match="'w'"):
        adam_step(p, {}, AdamState(), lr=0.1)
    with pytest.raises(ConfigError, match="'w'"):
        adam_step(p, {"w": np.zeros((1, 1, 1, 2))}, AdamState(), lr=0.1)
