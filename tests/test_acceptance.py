"""Acceptance suite: one test per system-level criterion.

`pytest -v` prints a pass/fail line per criterion and the terminal summary
(see conftest) repeats them as a compact table.  The training-trend criteria
share a module fixture that trains six small models (sgu and max combiners,
three seeds each) on the procedural face corpus and evaluates them on held-out
images; everything else runs on purpose-built small inputs.
"""

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import numeric_grad, nudge_off_kinks, rel_err, ssim_windowed_naive
from refnets import force_gates, reference_forward
from sgen.autodiff import (Graph, Tensor, add, affine, concat_channels, conv2d,
                           deconv2d, gate, global_avg_pool, log_clamped, lrelu, maximum,
                           mean_all, mul, relu, sigmoid, sub, sum_all, tanh)
from sgen.data import (DegradationSpec, SyntheticCorpus, degrade, make_batch,
                       read_netpbm, to_unit)
from sgen.metrics import eval_model, model_restorer, psnr, ssim
from sgen.model import (SgenConfig, discriminator_forward, generator_forward,
                        init_params, load_checkpoint, save_checkpoint)
from sgen.train import TrainConfig, init_state, train, train_step

SCALES = [(48, 32), (64, 48), (80, 64)]
SPEC = DegradationSpec()
SEEDS = (0, 1, 2)
TRAIN_CORPUS = SyntheticCorpus(2000)
VAL_CORPUS = SyntheticCorpus(200, offset=2000)
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def desk_run(comb, seed, out_dir):
    """Train and evaluate one desk model; the fixture runs each in a worker process."""
    mcfg = SgenConfig(combiner=comb, seed=seed)
    tcfg = TrainConfig(steps=2000, batch_size=4, lr=1e-3, mse_only=True,
                       seed=seed, val_every=0)
    began = time.time()
    state = train(tcfg, mcfg, TRAIN_CORPUS, SCALES, SPEC, out_dir)
    elapsed = time.time() - began
    report = eval_model(model_restorer(state.params, mcfg), VAL_CORPUS,
                        SCALES, SPEC, seed=0)
    return SimpleNamespace(params=state.params, mcfg=mcfg, report=report, elapsed=elapsed)


@pytest.fixture(scope="module")
def desk_runs(tmp_path_factory):
    """Six trained models: {sgu, max} x seeds {0, 1, 2}, plus the no-op baseline.

    The six seeded runs are independent, so they train in a pool of
    min(6, cpu count) spawned workers.  Each worker starts with one BLAS
    thread, set in its environment before it loads numpy, so the workers do
    not oversubscribe the cores.
    """
    root = tmp_path_factory.mktemp("acceptance")
    keys = [(comb, seed) for comb in ("sgu", "max") for seed in SEEDS]
    # spawn, not fork: forking a process that runs BLAS threads is unsafe
    spawn = multiprocessing.get_context("spawn")
    with (pytest.MonkeyPatch.context() as env,
          ProcessPoolExecutor(min(len(keys), os.cpu_count() or 1), mp_context=spawn) as pool):
        for var in BLAS_THREAD_VARS:  # the workers start at the first submit
            env.setenv(var, "1")
        futures = {(comb, seed): pool.submit(desk_run, comb, seed, root / f"{comb}_seed{seed}")
                   for comb, seed in keys}
        runs = {key: future.result() for key, future in futures.items()}
    baseline = eval_model(lambda s: s, VAL_CORPUS, SCALES, SPEC, seed=0)
    return SimpleNamespace(baseline=baseline, runs=runs, val_corpus=VAL_CORPUS)


# ---------------------------------------------------------------------------
# criterion 1: gradients


def _fd_suite_check(build, arrays, tol):
    tensors = [Tensor(np.asarray(a, dtype=np.float64), requires_grad=True)
               for a in arrays]
    with Graph() as g:
        out = build(*tensors)
        w = Tensor(np.random.default_rng(99).normal(size=out.shape))
        loss = sum_all(mul(out, w))
    grads = g.backward(loss, dict(enumerate(tensors)))

    def f(*arrs):
        return float((build(*[Tensor(a) for a in arrs]).data * w.data).sum())

    numeric = numeric_grad(f, [np.array(a, dtype=np.float64) for a in arrays])
    for i, num in enumerate(numeric):
        assert rel_err(grads[i], num) < tol


def test_criterion_01_gradient_suite():
    began = time.time()
    rng = np.random.default_rng(0)

    def r(*shape):
        return rng.normal(size=shape)

    # the sgu junction's operands, from a generator of their own so that
    # rng's later draws stay as they were
    junction = list(np.random.default_rng(1).normal(size=(4, 1, 2, 3, 3)))
    smooth = [
        (lambda x, k, b: conv2d(x, k, b, stride=2, padding=1),
         [r(1, 2, 4, 4), r(3, 2, 3, 3), r(1, 3, 1, 1)]),
        (lambda x, k, b: conv2d(x, k, b, stride=1, padding=1),
         [r(1, 2, 3, 3), r(2, 2, 3, 3), r(1, 2, 1, 1)]),
        (lambda x, k, b: deconv2d(x, k, b, factor=2),
         [r(1, 2, 3, 3), r(2, 2, 4, 4), r(1, 2, 1, 1)]),
        (lambda x, k, b: deconv2d(x, k, b, factor=4),
         [r(1, 1, 2, 2), r(1, 2, 8, 8), r(1, 2, 1, 1)]),
        (sigmoid, [r(1, 2, 3, 3)]),
        (tanh, [r(1, 2, 3, 3)]),
        (add, [r(1, 2, 3, 3), r(1, 2, 3, 3)]),
        (sub, [r(1, 2, 3, 3), r(1, 2, 3, 3)]),
        (mul, [r(1, 2, 3, 3), r(1, 2, 3, 3)]),
        (gate, junction),
        (lambda x: affine(x, 1.7, -0.3), [r(1, 2, 3, 3)]),
        (concat_channels, [r(1, 2, 3, 3), r(1, 3, 3, 3)]),
        (global_avg_pool, [r(1, 3, 4, 4)]),
        (sum_all, [r(1, 2, 3, 3)]),
        (mean_all, [r(1, 2, 3, 3)]),
        (log_clamped, [np.abs(r(1, 2, 3, 3)) + 0.5]),
    ]
    for build, arrays in smooth:
        _fd_suite_check(build, arrays, tol=1e-4)
    kinked = nudge_off_kinks(r(1, 2, 4, 4))
    _fd_suite_check(relu, [kinked], tol=1e-4)
    _fd_suite_check(lambda x: lrelu(x, 0.2), [kinked], tol=1e-4)
    apart = nudge_off_kinks(r(1, 2, 3, 3))
    _fd_suite_check(maximum, [apart, apart + nudge_off_kinks(r(1, 2, 3, 3))], tol=1e-4)

    # end-to-end: sampled 1% of all model parameters against a composite loss
    cfg = SgenConfig(levels=2, base_channels=2)
    params = init_params(cfg, seed=0)
    s = Tensor(rng.uniform(-1, 1, (1, 1, 16, 16)))
    t = Tensor(rng.uniform(-1, 1, (1, 1, 16, 16)))

    def composite():
        from sgen.train import disc_loss, gen_adv_loss, mse_loss

        fake = generator_forward(s, params, cfg)
        d_real = discriminator_forward(t, params, cfg)
        d_fake = discriminator_forward(fake, params, cfg)
        return disc_loss(d_real, d_fake), gen_adv_loss(d_fake), mse_loss(fake, t)

    with Graph() as g:
        d_loss, g_adv, g_mse = composite()
        total = add(add(d_loss, g_adv), affine(g_mse, 10.0, 0.0))
    grads = g.backward(total, params)

    paths = sorted(params)
    sizes = [params[p].data.size for p in paths]
    edges = np.cumsum(sizes)
    n_sample = max(1, int(edges[-1]) // 100)
    picks = np.random.default_rng(1).choice(int(edges[-1]), n_sample, replace=False)
    eps = 1e-4
    for flat in picks:
        pi = int(np.searchsorted(edges, flat, side="right"))
        arr = params[paths[pi]].data
        idx = np.unravel_index(int(flat - (edges[pi - 1] if pi else 0)), arr.shape)
        keep = arr[idx]
        arr[idx] = keep + eps
        hi = sum(v.item() * w for v, w in zip(composite(), (1.0, 1.0, 10.0)))
        arr[idx] = keep - eps
        lo = sum(v.item() * w for v, w in zip(composite(), (1.0, 1.0, 10.0)))
        arr[idx] = keep
        fd = (hi - lo) / (2 * eps)
        an = grads[paths[pi]][idx]
        assert abs(fd - an) / max(abs(fd), abs(an), 1e-6) < 1e-3, (paths[pi], idx)
    assert time.time() - began < 120.0


# ---------------------------------------------------------------------------
# criterion 2: gate degeneracy


def test_criterion_02_gate_degeneracy():
    cfg = SgenConfig(seed=5)
    params = init_params(cfg)
    cases = [("skip", {"enc": (1.0, 0.0), "dec": (1.0, 1.0)}),
             ("residual", {"enc": (1.0, 1.0), "dec": (1.0, 1.0)})]
    for seed in range(5):
        s = Tensor(np.random.default_rng(seed).uniform(-1, 1, (1, 1, 48, 32)))
        for mode, override in cases:
            forced = generator_forward(s, force_gates(params, cfg, **override), cfg)
            ref = reference_forward(s, params, cfg, mode)
            assert np.array_equal(forced.data, ref.data), (mode, seed)


# ---------------------------------------------------------------------------
# criterion 3: arbitrary sizes


def test_criterion_03_arbitrary_sizes():
    cfg = SgenConfig()
    params = init_params(cfg)
    sizes = [(128 + 16 * z, 96 + 16 * z) for z in range(6)]
    sizes += [(48 + 16 * z, 32 + 16 * z) for z in range(9)]
    for i, (h, w) in enumerate(sizes):
        s = Tensor(np.random.default_rng(i).uniform(-1, 1, (1, 1, h, w)))
        out = generator_forward(s, params, cfg)
        assert out.shape == (1, 1, h, w)
        assert np.all(np.isfinite(out.data))
        assert out.data.min() > -1.0 and out.data.max() < 1.0
        d = discriminator_forward(s, params, cfg)
        assert d.shape == (1, 1, 1, 1)
        assert np.isfinite(d.item()) and 0.0 < d.item() < 1.0


# ---------------------------------------------------------------------------
# criteria 4-6: desk-scale training trends


def test_criterion_04_training_gain(desk_runs):
    for run in desk_runs.runs.values():
        assert run.elapsed < 1800.0
    base = {row.scale: row.psnr for row in desk_runs.baseline.rows}
    good = 0
    for seed in SEEDS:
        rows = desk_runs.runs["sgu", seed].report.rows
        good += all(row.psnr >= base[row.scale] + 2.0 for row in rows)
    assert good >= 2, {s: [(r.scale, r.psnr - base[r.scale])
                           for r in desk_runs.runs["sgu", s].report.rows]
                       for s in SEEDS}


def test_criterion_05_combiner_ordering(desk_runs):
    wins = sum(desk_runs.runs["sgu", s].report.mean_psnr
               >= desk_runs.runs["max", s].report.mean_psnr for s in SEEDS)
    assert wins >= 2, {s: (desk_runs.runs["sgu", s].report.mean_psnr,
                           desk_runs.runs["max", s].report.mean_psnr) for s in SEEDS}


def test_criterion_06_noise_monotonicity(desk_runs):
    run = desk_runs.runs["sgu", 0]
    restore = model_restorer(run.params, run.mcfg)
    means = []
    for sigma in (20.0, 30.0, 40.0, 50.0):
        rep = eval_model(restore, desk_runs.val_corpus, SCALES,
                         replace(SPEC, sigma=sigma), seed=0, limit=64)
        means.append(rep.mean_psnr)
    assert all(a > b for a, b in zip(means, means[1:])), means
    uniform = eval_model(restore, desk_runs.val_corpus, SCALES,
                         DegradationSpec(noise="uniform"), seed=0, limit=64)
    assert np.isfinite(uniform.mean_psnr) and np.isfinite(uniform.mean_ssim)
    assert all(np.isfinite(r.psnr) and np.isfinite(r.ssim) for r in uniform.rows)


# ---------------------------------------------------------------------------
# criteria 7-8: metric and degradation ground truths


def test_criterion_07_metric_unit_truths():
    rng = np.random.default_rng(3)
    img = rng.uniform(0, 255, (32, 32))
    assert ssim(img, img) == 1.0
    assert psnr(img, img) == 99.0
    assert psnr(np.zeros((16, 16)), np.full((16, 16), 255.0)) == pytest.approx(0.0, abs=1e-12)
    a = rng.uniform(0, 255, (24, 28))
    b = np.clip(a + rng.normal(0, 10, a.shape), 0, 255)
    assert abs(ssim(a, b) - ssim_windowed_naive(a, b)) < 1e-8


def test_criterion_08_degradation_statistics():
    canvas = np.full((1, 1000, 1000), 128.0)
    noisy = degrade(canvas, DegradationSpec(down_factor=1, noise="gaussian", sigma=30.0),
                    np.random.default_rng(11))
    noise = (noisy + 1.0) * 127.5 - 128.0
    assert abs(noise.std() / 30.0 - 1.0) < 0.01
    raw = np.random.default_rng(0).integers(0, 256, (1, 64, 48)).astype(np.float64)
    ident = degrade(raw, DegradationSpec(down_factor=1, noise="none"),
                    np.random.default_rng(1))
    assert np.array_equal(ident, to_unit(raw))


# ---------------------------------------------------------------------------
# criterion 9: reproducibility and persistence


def test_criterion_09_reproducibility(tmp_path):
    mcfg = SgenConfig()
    corpus = SyntheticCorpus(16)
    results = []
    for _ in range(2):
        state = init_state(mcfg, seed=4)
        rng = np.random.default_rng(4)
        cfg = TrainConfig(batch_size=2, lr=1e-4, seed=4)
        for _ in range(10):
            train_step(make_batch(corpus, (48, 32), 2, SPEC, rng), state, cfg)
        results.append(state)
    assert results[0].history == results[1].history
    for k in results[0].params:
        assert np.array_equal(results[0].params[k].data, results[1].params[k].data), k

    save_checkpoint(results[0].params, mcfg, tmp_path / "rt.ckpt")
    loaded, lcfg = load_checkpoint(tmp_path / "rt.ckpt")
    assert lcfg == mcfg
    s = Tensor(np.random.default_rng(8).uniform(-1, 1, (1, 1, 48, 32)))
    direct = generator_forward(s, results[0].params, mcfg)
    reloaded = generator_forward(s, loaded, lcfg)
    assert np.array_equal(direct.data, reloaded.data)


# ---------------------------------------------------------------------------
# criterion 10: adversarial smoke


def test_criterion_10_adversarial_smoke(tmp_path):
    mcfg = SgenConfig()
    tcfg = TrainConfig(steps=500, batch_size=4, lr=1e-4, lam=10.0,
                       loss_variant="minimax", seed=0, val_every=0, grid_every=250)
    state = train(tcfg, mcfg, SyntheticCorpus(2000), [(48, 32)], SPEC, tmp_path)
    assert state.step == 500
    for rec in state.history:
        for key in ("d_loss", "g_adv", "g_mse"):
            assert np.isfinite(rec[key]), rec
    for rec in state.history[100:]:
        assert 0.0 < rec["d_loss"] < 10.0, rec
    for name in ("grid_step000250.ppm", "grid_step000500.ppm", "grid_final.ppm"):
        raster = read_netpbm(tmp_path / name)
        assert raster.ndim == 3 and raster.shape[2] == 3
