"""Independent reference implementations used as test oracles.

Everything here is written the slow, obvious way (explicit loops, direct
summation) and never calls into the package's fast paths.
"""

import numpy as np


def conv2d_naive(x, kernel, bias, stride=1, pad=0):
    """Direct 6-nested-loop convolution. x (n,c,h,w), kernel (oc,ic,kh,kw), bias (oc,)."""
    n, c, h, w = x.shape
    oc, ic, kh, kw = kernel.shape
    assert c == ic
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    out = np.zeros((n, oc, oh, ow))
    for b_i in range(n):
        for o in range(oc):
            for y in range(oh):
                for xx in range(ow):
                    acc = 0.0
                    for i in range(kh):
                        for j in range(kw):
                            acc += (kernel[o, :, i, j]
                                    * xp[b_i, :, y * stride + i, xx * stride + j]).sum()
                    out[b_i, o, y, xx] = acc + bias[o]
    return out


def conv2d_kernel_grad_naive(x, g, kh, kw, stride=1, pad=0):
    """d(sum(conv2d_naive(x, kernel) * g)) / d(kernel), one kernel tap at a time."""
    n, c, h, w = x.shape
    _, oc, oh, ow = g.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    dk = np.zeros((oc, c, kh, kw))
    for i in range(kh):
        for j in range(kw):
            taps = xp[:, :, i:i + stride * (oh - 1) + 1:stride, j:j + stride * (ow - 1) + 1:stride]
            for o in range(oc):
                for ci in range(c):
                    dk[o, ci, i, j] = (g[:, o] * taps[:, ci]).sum()
    return dk


def deconv2d_adjoint_naive(z, kernel, factor):
    """Transposed convolution as the explicit adjoint of conv2d.

    kernel (ic, oc, kh, kw) where ic matches z's channels; stride = factor,
    pad = (k - factor) // 2. Output (n, oc, h*factor, w*factor). This scatters
    each input value through the kernel, i.e. it computes the gradient of the
    matching conv2d with respect to its input.
    """
    n, ic, h, w = z.shape
    _, oc, kh, kw = kernel.shape
    ph, pw = (kh - factor) // 2, (kw - factor) // 2
    oh, ow = h * factor, w * factor
    buf = np.zeros((n, oc, oh + 2 * ph, ow + 2 * pw))
    for b_i in range(n):
        for y in range(h):
            for xx in range(w):
                for i in range(kh):
                    for j in range(kw):
                        buf[b_i, :, y * factor + i, xx * factor + j] += (
                            kernel[:, :, i, j].T @ z[b_i, :, y, xx])
    return buf[:, :, ph:ph + oh, pw:pw + ow]


def same_sums(got, want, terms, abs_sums, eps=np.finfo(np.float64).eps):
    """Whether got and want can be two summation orders of the same `terms` products.

    Each order, with its own rounding, is within terms * u * sum(|product|) of
    the exact sum (u = eps / 2), so the two differ by at most twice that;
    abs_sums holds sum(|product|) per entry.  `eps` is that of the coarser
    of the two types the sums ran in.
    """
    return bool(np.all(np.abs(got - want) <= terms * eps * abs_sums))


def numeric_grad(f, arrays, eps=1e-4):
    """Central finite differences of scalar f(*arrays) w.r.t. each array."""
    grads = []
    for a in arrays:
        g = np.zeros_like(a)
        flat = a.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            hi = f(*arrays)
            flat[i] = keep - eps
            lo = f(*arrays)
            flat[i] = keep
            gflat[i] = (hi - lo) / (2 * eps)
        grads.append(g)
    return grads


def rel_err(analytic, numeric):
    """Max abs difference normalized by the largest numeric-gradient magnitude."""
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    scale = max(np.abs(numeric).max(), 1e-8)
    return np.abs(analytic - numeric).max() / scale


def nudge_off_kinks(a, margin=2e-2):
    """Move values away from 0 so finite differences never straddle a relu kink."""
    a = a.copy()
    small = np.abs(a) < margin
    a[small] = margin * np.where(a[small] >= 0, 1.0, -1.0)
    return a


def adam_step_per_tensor(params, grads, state, lr, beta1, beta2, eps):
    """Bias-corrected Adam one tensor at a time; state has `step` and dicts `m`, `v`."""
    state.step += 1
    c1 = 1.0 - beta1 ** state.step
    c2 = 1.0 - beta2 ** state.step
    for path, p in params.items():
        g = grads[path]
        m = state.m.setdefault(path, np.zeros_like(p.data))
        v = state.v.setdefault(path, np.zeros_like(p.data))
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


def gaussian_window(size=11, sigma=1.5):
    half = size // 2
    coords = np.arange(size) - half
    g1 = np.exp(-(coords ** 2) / (2.0 * sigma ** 2))
    win = np.outer(g1, g1)
    return win / win.sum()


def ssim_windowed_naive(a, b, size=11, sigma=1.5, k1=0.01, k2=0.03, max_val=255.0):
    """Direct per-window SSIM: loop over every valid window position."""
    win = gaussian_window(size, sigma)
    h, w = a.shape
    c1 = (k1 * max_val) ** 2
    c2 = (k2 * max_val) ** 2
    vals = []
    for y in range(h - size + 1):
        for x in range(w - size + 1):
            pa = a[y:y + size, x:x + size]
            pb = b[y:y + size, x:x + size]
            mu_a = (win * pa).sum()
            mu_b = (win * pb).sum()
            va = (win * pa * pa).sum() - mu_a ** 2
            vb = (win * pb * pb).sum() - mu_b ** 2
            cov = (win * pa * pb).sum() - mu_a * mu_b
            vals.append(((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                        / ((mu_a ** 2 + mu_b ** 2 + c1) * (va + vb + c2)))
    return float(np.mean(vals))
