import numpy as np
import pytest

from sgen.data import DegradationSpec, SyntheticCorpus, to_unit
from sgen.errors import ConfigError
import sgen.metrics as metrics
from sgen.metrics import (MetricReport, ScaleRow, eval_batch, eval_model, model_restorer,
                          psnr, ssim)
import sgen.model as model
from sgen.autodiff import Tensor, phase_kernel
from sgen.model import SgenConfig, generator_forward, init_params

from oracles import ssim_windowed_naive


def test_psnr_identical_hits_cap():
    img = np.arange(64, dtype=np.float64).reshape(8, 8)
    assert psnr(img, img) == 99.0


def test_psnr_full_scale_error_is_zero():
    a = np.zeros((8, 8))
    b = np.full((8, 8), 255.0)
    assert psnr(a, b) == pytest.approx(0.0, abs=1e-12)


def test_psnr_known_value():
    # mse of a constant 25.5 offset is 650.25, 10*log10(255^2/650.25) = 20
    a = np.full((16, 16), 100.0)
    assert psnr(a, a + 25.5) == pytest.approx(20.0, abs=1e-12)


def test_psnr_monotone_in_mse():
    rng = np.random.default_rng(0)
    a = rng.uniform(0, 255, (32, 32))
    assert psnr(a, a + 5.0) > psnr(a, a + 10.0) > psnr(a, a + 20.0)


def test_psnr_shape_mismatch():
    with pytest.raises(ConfigError):
        psnr(np.zeros((4, 4)), np.zeros((4, 5)))


def test_ssim_identity_is_exactly_one():
    rng = np.random.default_rng(1)
    img = rng.uniform(0, 255, (24, 24))
    assert ssim(img, img) == 1.0


def test_ssim_penalizes_inversion():
    rng = np.random.default_rng(2)
    a = rng.uniform(0, 255, (32, 32))
    assert ssim(a, 255.0 - a) < 0.2


@pytest.mark.parametrize("shape", [(1, 1, 20, 26), (4, 1, 48, 32), (3, 1, 64, 48),
                                   (2, 1, 80, 64), (2, 3, 48, 32)],
                         ids=["1x20x26", "4x48x32", "3x64x48", "2x80x64", "2x3x48x32-colour"])
def test_ssim_matches_windowed_oracle(shape):
    # the first image against the per-window loop; the batched core that
    # eval_model runs on each (n, c, h, w) batch, at its batch shapes, gives
    # every image exactly its per-image value
    rng = np.random.default_rng(3)
    a = rng.uniform(0, 255, shape)
    b = np.clip(a + rng.normal(0, 12, a.shape), 0, 255)
    per_image = [ssim(ai, bi) for ai, bi in zip(a, b)]
    assert metrics._ssim_batch(a.mean(axis=1), b.mean(axis=1)) == per_image
    oracle = ssim_windowed_naive(a[0].mean(axis=0), b[0].mean(axis=0))
    assert per_image[0] == pytest.approx(oracle, abs=1e-8)


def test_ssim_symmetric():
    rng = np.random.default_rng(4)
    a = rng.uniform(0, 255, (16, 16))
    b = rng.uniform(0, 255, (16, 16))
    assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-12)


def test_ssim_rejects_small_images():
    with pytest.raises(ConfigError):
        ssim(np.zeros((8, 8)), np.zeros((8, 8)))


def test_metrics_accept_color_images():
    rng = np.random.default_rng(5)
    a = rng.uniform(0, 255, (3, 16, 16))
    assert psnr(a, a) == 99.0
    assert ssim(a, a) == 1.0
    b = np.clip(a + rng.normal(0, 8, a.shape), 0, 255)
    assert 0.0 < ssim(a, b) < 1.0


# ---------------------------------------------------------------------------
# reports


def test_report_aggregate_weighted_by_count():
    rows = [ScaleRow((48, 32), 20.0, 0.5, 1), ScaleRow((64, 48), 30.0, 1.0, 3)]
    rep = MetricReport(rows)
    assert rep.mean_psnr == pytest.approx(27.5)
    assert rep.mean_ssim == pytest.approx(0.875)


def test_report_csv_layout():
    rep = MetricReport([ScaleRow((48, 32), 20.0, 0.5, 2)])
    lines = rep.to_csv().strip().split("\n")
    assert lines[0] == "scale,psnr,ssim,n"
    assert lines[1].startswith("48x32,20.0")
    assert lines[-1].startswith("all,")


# ---------------------------------------------------------------------------
# evaluation loop


def test_eval_perfect_model_saturates():
    corpus = SyntheticCorpus(4)
    spec = DegradationSpec(down_factor=1, noise="none")
    rep = eval_model(lambda s: s, corpus, [(32, 32), (48, 32)], spec)
    assert len(rep.rows) == 2
    for row in rep.rows:
        assert row.psnr == 99.0
        assert row.ssim == 1.0
        assert row.count == 4


def test_eval_deterministic_and_limited():
    corpus = SyntheticCorpus(6)
    spec = DegradationSpec()
    rep1 = eval_model(lambda s: np.clip(s, -1, 1), corpus, [(48, 32)], spec, seed=3)
    rep2 = eval_model(lambda s: np.clip(s, -1, 1), corpus, [(48, 32)], spec, seed=3)
    assert rep1.rows[0].psnr == rep2.rows[0].psnr
    assert rep1.rows[0].ssim == rep2.rows[0].ssim
    rep3 = eval_model(lambda s: np.clip(s, -1, 1), corpus, [(48, 32)], spec, seed=3, limit=2)
    assert rep3.rows[0].count == 2


def test_eval_identity_baseline_is_degraded_quality():
    # the identity restorer scores the degradation itself: far below cap
    corpus = SyntheticCorpus(4)
    rep = eval_model(lambda s: s, corpus, [(48, 32)], DegradationSpec(), seed=0)
    assert 5.0 < rep.rows[0].psnr < 40.0
    assert rep.rows[0].ssim < 0.99


def test_eval_rejects_a_restore_of_the_wrong_shape():
    with pytest.raises(ConfigError, match="restore returned"):
        eval_model(lambda s: s[:1], SyntheticCorpus(4), [(48, 32)], DegradationSpec())


def test_eval_rejects_empty_scales():
    # an empty report has no mean to take
    with pytest.raises(ConfigError, match="at least one scale"):
        eval_model(lambda s: s, SyntheticCorpus(2), [], DegradationSpec())


def test_eval_batch_sizes():
    # the default scales restore 6, 3 and 2 images per call; 128x128 stays at 1
    assert [eval_batch(h, w) for h, w in ((48, 32), (64, 48), (80, 64), (128, 128))] \
        == [6, 3, 2, 1]


def test_eval_report_does_not_depend_on_batching(monkeypatch):
    cfg = SgenConfig(levels=2, base_channels=2)
    restore = model_restorer(init_params(cfg, seed=0), cfg)
    scales = [(48, 32), (80, 64)]

    def report():
        return eval_model(restore, SyntheticCorpus(7), scales, DegradationSpec(), seed=5)

    batched = report()
    monkeypatch.setattr(metrics, "BATCH_PIXELS", 1)
    assert eval_batch(48, 32) == 1
    single = report()
    for b, s in zip(batched.rows, single.rows):
        assert b.scale == s.scale and b.count == s.count == 7
        assert abs(b.psnr - s.psnr) <= 1e-6
        assert abs(b.ssim - s.ssim) <= 1e-8


def test_model_restorer_pads_odd_sizes():
    cfg = SgenConfig(levels=2, base_channels=2)
    params = init_params(cfg, seed=0)
    restore = model_restorer(params, cfg)
    out = restore(to_unit(SyntheticCorpus(1).image(0, 50, 34))[None])
    assert out.shape == (1, 1, 50, 34)
    assert np.all(np.isfinite(out))
    assert out.min() >= -1.0 and out.max() <= 1.0
    with pytest.raises(ConfigError, match="batch"):
        restore(np.zeros((1, 50, 34)))


@pytest.mark.parametrize("levels", [2, 3])
def test_restorer_reuses_its_phase_kernels_bitwise(levels, monkeypatch):
    # one restorer over several sizes and batch sizes gives exactly what a
    # fresh restorer gives each call, and builds each deconv's phase kernel
    # on its first call only
    builds = []
    monkeypatch.setattr(model, "phase_kernel",
                        lambda k, s: builds.append(k.shape) or phase_kernel(k, s))
    cfg = SgenConfig(levels=levels, base_channels=2)
    params = init_params(cfg, seed=1)
    restore = model_restorer(params, cfg)
    rng = np.random.default_rng(0)
    cases = [(1, 48, 32), (3, 64, 48), (2, 50, 34), (1, 80, 64), (4, 48, 32)]
    for n, h, w in cases:
        s = rng.uniform(-1.0, 1.0, (n, 1, h, w))
        assert np.array_equal(restore(s), model_restorer(params, cfg)(s))
    assert len(builds) == 2 * levels * (1 + len(cases))


def test_restorer_built_after_a_weight_change_uses_it():
    # training changes the weights in place between validations and builds
    # a new restorer for each; the phase kernels must come from the new weights
    cfg = SgenConfig(levels=2, base_channels=2)
    params = init_params(cfg, seed=0)
    s = np.random.default_rng(1).uniform(-1.0, 1.0, (2, 1, 48, 32))
    before = model_restorer(params, cfg)(s)
    for name, p in params.items():
        if name.startswith("gen.dec.") and name.endswith(".w"):
            p.data *= -1.5
    after = model_restorer(params, cfg)(s)
    assert not np.array_equal(after, before)
    uncached = generator_forward(Tensor(s), params, cfg)
    assert np.array_equal(after, uncached.data)


def test_batch_restore_matches_single_restores():
    cfg = SgenConfig(levels=2, base_channels=2)
    restore = model_restorer(init_params(cfg, seed=0), cfg)
    corpus = SyntheticCorpus(3)
    batch = np.stack([to_unit(corpus.image(i, 50, 34)) for i in range(3)])
    out = restore(batch)
    assert out.shape == batch.shape
    for img, restored in zip(batch, out):
        np.testing.assert_allclose(restored, restore(img[None])[0], rtol=0, atol=1e-12)


def test_restore_holds_only_live_tensors(traced_peak):
    # a 384x352 restore: the forward drops each feature map once its last
    # reader has run, every convolution pads, gathers and places in bands,
    # and an sgu junction is one gate node, which holds its four inputs, its
    # output and one chunk of scratch.  So the traced peak is gen.dec.merge3,
    # the transposed convolution into the largest activation: 1.48x its
    # output.  The junction's two products and their sum took 1.75x, gate
    # maps kept past their junction 2.00x, keeping every activation and
    # whole-array scratch 4.9x.
    cfg = SgenConfig()
    restore = model_restorer(init_params(cfg, seed=0), cfg)
    s = np.random.default_rng(2).uniform(-1.0, 1.0, (1, 1, 384, 352))
    restore(s)  # builds the phase kernels, which the restorer keeps
    out, peak = traced_peak(restore, s)
    merge3 = cfg.base_channels * 384 * 352 * 8
    assert out.shape == s.shape
    assert peak < 1.6 * merge3, f"{peak / merge3:.2f}x gen.dec.merge3's output"
