"""PSNR/SSIM image quality metrics and per-scale model evaluation.

Evaluation restores the images of one scale in batches of

    max(1, BATCH_PIXELS // (h * w))   with   BATCH_PIXELS = 2 * 80 * 64,

a rule on the image size alone.  A batch-1 generator forward at the small
eval sizes is mostly per-call overhead (about 0.015 GFLOP per image, but
2.2-4.0 ms), which a batch shares.  Per-image forward time in-process (2-core
Xeon VM, one BLAS thread), batch 1 -> the batch this rule gives (best batch):

    48x32    2.24 -> 1.37 ms at 6  (1.19 at 4)
    64x48    3.20 -> 2.68 ms at 3  (2.38 at 2)
    80x64    4.01 -> 3.48 ms at 2  (3.26 at 3)
    128x128  9.8 ms at 1; every batch of 2 to 8 took 11.4-12.9 ms per image

Larger batches gain little: with every layer on im2col the per-image time
levels off at 10-15k pixels per call.  In a held-out eval run (4 images per
scale) twice this budget was 6% slower and took 10% more peak memory.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .data import degrade, to_bytes, to_unit
from .errors import ConfigError, NumericsError
from .model import generator_forward

BATCH_PIXELS = 2 * 80 * 64  # see the module docstring

PSNR_CAP = 99.0  # sentinel for zero/negligible error, keeps tables finite

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03
SSIM_L = 255.0


def psnr(a, b, max_val: float = 255.0) -> float:
    """Peak signal-to-noise ratio in dB over 8-bit-scale arrays, capped at 99."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ConfigError(f"psnr: shape mismatch {a.shape} vs {b.shape}")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return PSNR_CAP
    return min(10.0 * math.log10(max_val * max_val / mse), PSNR_CAP)


def _as_gray(img) -> np.ndarray:
    img = np.asarray(img, dtype=np.float64)
    if img.ndim == 2:
        return img
    if img.ndim == 3:
        return img.mean(axis=0)
    raise ConfigError(f"ssim expects (h, w) or (c, h, w), got shape {img.shape}")


def _gaussian_taps() -> np.ndarray:
    half = SSIM_WINDOW // 2
    coords = np.arange(SSIM_WINDOW) - half
    g = np.exp(-(coords ** 2) / (2.0 * SSIM_SIGMA ** 2))
    return g / g.sum()


_TAPS = _gaussian_taps()  # the normalized 11x11 window is outer(_TAPS, _TAPS)


def _window_means(maps: np.ndarray) -> np.ndarray:
    """Gaussian-weighted means of (k, h, w) maps over every fully valid window.

    The window is separable, so one pass of shifted-slice multiply-adds runs
    down the rows and one along the columns.
    """
    _, h, w = maps.shape
    oh, ow = h - SSIM_WINDOW + 1, w - SSIM_WINDOW + 1
    rows = _TAPS[0] * maps[:, :oh]
    for u in range(1, SSIM_WINDOW):
        rows += _TAPS[u] * maps[:, u:u + oh]
    out = _TAPS[0] * rows[:, :, :ow]
    for v in range(1, SSIM_WINDOW):
        out += _TAPS[v] * rows[:, :, v:v + ow]
    return out


def _ssim_batch(a: np.ndarray, b: np.ndarray) -> list[float]:
    """Mean local SSIM of each image pair of two (n, h, w) grayscale stacks.

    Every map of every pair goes through one _window_means call; each image's
    value is exactly the one a call on that pair alone gives.
    """
    n, h, w = a.shape
    if h < SSIM_WINDOW or w < SSIM_WINDOW:
        raise ConfigError(f"ssim: image {h}x{w} is smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} window")
    maps = np.stack([a, b, a * a, b * b, a * b]).reshape(5 * n, h, w)
    mu_a, mu_b, e_aa, e_bb, e_ab = _window_means(maps).reshape(5, n, h - SSIM_WINDOW + 1, -1)
    var_a = e_aa - mu_a * mu_a
    var_b = e_bb - mu_b * mu_b
    cov = e_ab - mu_a * mu_b
    c1 = (SSIM_K1 * SSIM_L) ** 2
    c2 = (SSIM_K2 * SSIM_L) ** 2
    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    return [float(np.mean(m)) for m in num / den]


def ssim(a, b) -> float:
    """Mean local SSIM over fully valid 11x11 Gaussian windows (8-bit scale).

    Color inputs are reduced to grayscale by channel mean first.
    """
    a = _as_gray(a)
    b = _as_gray(b)
    if a.shape != b.shape:
        raise ConfigError(f"ssim: shape mismatch {a.shape} vs {b.shape}")
    return _ssim_batch(a[None], b[None])[0]


# ---------------------------------------------------------------------------
# per-scale evaluation


@dataclass
class ScaleRow:
    scale: tuple
    psnr: float
    ssim: float
    count: int


@dataclass
class MetricReport:
    rows: list

    @property
    def mean_psnr(self) -> float:
        total = sum(r.count for r in self.rows)
        return sum(r.psnr * r.count for r in self.rows) / total

    @property
    def mean_ssim(self) -> float:
        total = sum(r.count for r in self.rows)
        return sum(r.ssim * r.count for r in self.rows) / total

    def to_csv(self) -> str:
        lines = ["scale,psnr,ssim,n"]
        for r in self.rows:
            lines.append(f"{r.scale[0]}x{r.scale[1]},{r.psnr:.4f},{r.ssim:.6f},{r.count}")
        total = sum(r.count for r in self.rows)
        lines.append(f"all,{self.mean_psnr:.4f},{self.mean_ssim:.6f},{total}")
        return "\n".join(lines) + "\n"


def pad_to_divisor(img: np.ndarray, divisor: int) -> np.ndarray:
    """Edge-pad the last two axes at the bottom and right to multiples of `divisor`."""
    h, w = img.shape[-2:]
    ph = (divisor - h % divisor) % divisor
    pw = (divisor - w % divisor) % divisor
    if ph or pw:
        img = np.pad(img, [(0, 0)] * (img.ndim - 2) + [(0, ph), (0, pw)], mode="edge")
    return img


def model_restorer(params: dict, config, dtype=np.float64) -> Callable[[np.ndarray], np.ndarray]:
    """Wrap generator parameters as a restore function over image batches.

    The returned callable maps a [-1, 1] float batch (n, c, h, w) to its
    restored version of the same shape, edge-padding to the generator
    divisor and cropping back, so any size at or above the divisor works.
    It builds each deconv layer's phase kernel on its first call and keeps
    it (see generator_forward), so it reads the weights once: build a new
    restorer after changing them.

    With dtype float32 the generator's weights are cast once, here, and
    each batch is restored in float32 and returned as float32: half the
    bytes per map and twice the arithmetic per SIMD instruction.  Over the
    96 images of perfbench's two restore pools, 65 of 5.07 M output bytes
    differ from the float64 restorer's, each by one gray level
    (tools/float32_restore_bytes.py).  Where float32 cannot hold the
    values, the result is the float64 one: a float32 call that ends in
    NumericsError (a weight that casts to inf, or an overflow the float64
    forward may not meet) is run again in float64, which returns or raises
    exactly as the float64 restorer does.
    """
    weights, phases, wide_phases = params, {}, {}
    if dtype != np.float64:
        with np.errstate(over="ignore"):  # a weight past float32's range casts to inf
            weights = {name: Tensor(p.data.astype(dtype)) for name, p in params.items()
                       if name.startswith("gen.")}

    def restore(s):
        arr = np.asarray(s, dtype=np.float64)
        if arr.ndim != 4:
            raise ConfigError(f"restore expects an (n, c, h, w) batch, got shape {arr.shape}")
        h, w = arr.shape[-2:]
        padded = pad_to_divisor(arr, config.divisor)
        if weights is params:
            out = generator_forward(Tensor(padded), params, config, phases)
        else:
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    out = generator_forward(Tensor(padded.astype(dtype)), weights, config,
                                            phases)
            except NumericsError:
                out = generator_forward(Tensor(padded), params, config, wide_phases)
        return out.data[:, :, :h, :w]

    return restore


def eval_batch(h: int, w: int) -> int:
    """How many (h, w) images eval_model restores per call (see BATCH_PIXELS)."""
    return max(1, BATCH_PIXELS // (h * w))


def eval_model(restore, corpus, scales, spec, seed: int = 0, limit: int | None = None) -> MetricReport:
    """Restore every corpus image at every scale and average PSNR/SSIM.

    `restore` maps a degraded [-1, 1] batch (n, c, h, w) to a restored one
    (see model_restorer; the identity lambda gives the degraded baseline); it
    gets the images of one scale eval_batch(h, w) at a time.  Each (scale,
    image) pair gets its own derived rng, so results do not depend on
    iteration order or batching.  Metrics are computed per image on
    quantized 8-bit values, the SSIM maps of a whole batch in one pass.
    """
    if not scales:
        raise ConfigError("eval_model needs at least one scale")
    rows = []
    count = len(corpus) if limit is None else min(limit, len(corpus))
    if count == 0:
        raise ConfigError("eval_model needs a non-empty corpus")
    for si, scale in enumerate(scales):
        h, w = scale
        psnrs, ssims = [], []
        step = eval_batch(h, w)
        for first in range(0, count, step):
            ids = range(first, min(first + step, count))
            clean = [corpus.image(i, h, w) for i in ids]
            s = np.stack([degrade(img8, spec, np.random.default_rng([seed, si, i]))
                          for i, img8 in zip(ids, clean)])
            out = np.asarray(restore(s), dtype=np.float64)
            if out.shape != s.shape:
                raise ConfigError(f"restore returned shape {out.shape} for a batch of {s.shape}")
            a = to_bytes(out).astype(np.float64)
            b = to_bytes(to_unit(np.stack(clean))).astype(np.float64)
            psnrs.extend(psnr(ai, bi) for ai, bi in zip(a, b))
            ssims.extend(_ssim_batch(a.mean(axis=1), b.mean(axis=1)))
        rows.append(ScaleRow(scale, float(np.mean(psnrs)), float(np.mean(ssims)), count))
    return MetricReport(rows)
