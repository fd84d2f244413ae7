import json
import struct

import numpy as np
import pytest

import sgen.autodiff as ad
import sgen.model as model
from sgen.autodiff import Graph, Tensor, mean_all, mul, sub, sum_all
from sgen.errors import CheckpointError, ConfigError, NumericsError
from sgen.model import (COMBINERS, SgenConfig, combine, discriminator_forward,
                        dump_gates, generator_forward, init_params,
                        load_checkpoint, save_checkpoint, split_params)

from oracles import numeric_grad, rel_err
from refnets import force_gates, gate_params, reference_forward

TINY = SgenConfig(levels=2, base_channels=2, seed=7)
DESK = SgenConfig()


def rand_input(cfg, h, w, n=1, seed=0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.uniform(-1.0, 1.0, (n, cfg.image_channels, h, w)))


# ---------------------------------------------------------------------------
# config


def test_config_validation():
    with pytest.raises(ConfigError):
        SgenConfig(levels=1)
    with pytest.raises(ConfigError):
        SgenConfig(base_channels=0)
    with pytest.raises(ConfigError):
        SgenConfig(combiner="mean")
    with pytest.raises(ConfigError):
        SgenConfig(image_channels=4)
    with pytest.raises(ConfigError):
        SgenConfig(levels=9)
    with pytest.raises(ConfigError, match="seed"):
        SgenConfig(seed=-1)


def test_config_channel_plan():
    cfg = SgenConfig(levels=5, base_channels=8)
    assert [cfg.trunk_channels(k) for k in range(1, 6)] == [8, 16, 32, 64, 64]
    assert cfg.bottleneck_channels == 64
    assert cfg.divisor == 64
    assert cfg.decoder_channels(cfg.levels + 1) == 8


# ---------------------------------------------------------------------------
# init_params


def test_init_deterministic_per_seed():
    a = init_params(DESK, seed=3)
    b = init_params(DESK, seed=3)
    c = init_params(DESK, seed=4)
    assert a.keys() == b.keys() == c.keys()
    for k in a:
        assert np.array_equal(a[k].data, b[k].data)
    assert any(not np.array_equal(a[k].data, c[k].data) for k in a)


def test_init_gate_convs_preserve_channels():
    params = init_params(DESK)
    bneck = DESK.bottleneck_channels
    for k in (2, 3):
        for g in ("ga", "gp"):
            w = params[f"gen.enc.sgu{k}.{g}.w"]
            assert w.shape == (bneck, bneck, 3, 3)
        m = DESK.decoder_channels(k)
        assert params[f"gen.dec.sgu{k}.ga.w"].shape == (m, m, 3, 3)


def test_init_biases_zero_and_disc_widths():
    params = init_params(DESK)
    for name, p in params.items():
        if name.endswith(".b"):
            assert not p.data.any(), name
    w = DESK.disc_channels
    assert params["disc.conv4.w"].shape[0] == 8 * w
    assert params["disc.fc.w"].shape == (1, 8 * w, 1, 1)


def test_combiner_specific_params():
    sgu_keys = set(init_params(DESK))
    cat_keys = set(init_params(SgenConfig(combiner="concat")))
    max_keys = set(init_params(SgenConfig(combiner="max")))
    assert any(".sgu" in k for k in sgu_keys)
    assert not any(".sgu" in k for k in cat_keys)
    assert any(".cat" in k for k in cat_keys)
    assert not any((".sgu" in k or ".cat" in k) for k in max_keys)


# ---------------------------------------------------------------------------
# sgu / combine


def test_sgu_forced_selection_identities():
    rng = np.random.default_rng(0)
    xa = Tensor(rng.normal(size=(2, 3, 4, 4)))
    xp = Tensor(rng.normal(size=(2, 3, 4, 4)))
    out = combine("sgu", xa, xp, gate_params("j", 3, 1.0, 0.0), "j")[0]
    np.testing.assert_array_equal(out.data, xa.data)
    out = combine("sgu", xa, xp, gate_params("j", 3, 0.0, 1.0), "j")[0]
    np.testing.assert_array_equal(out.data, xp.data)


def test_sgu_zero_preactivation_averages():
    # sigmoid(0) = 0.5 on both gates: f = 0.5*2 + 0.5*4 = 3
    xa = Tensor(np.full((1, 1, 2, 2), 2.0))
    xp = Tensor(np.full((1, 1, 2, 2), 4.0))
    out = combine("sgu", xa, xp, gate_params("j", 1, 0.5, 0.5), "j")[0]
    np.testing.assert_array_equal(out.data, np.full((1, 1, 2, 2), 3.0))


def test_sgu_shape_mismatch():
    with pytest.raises(ConfigError):
        combine("sgu", Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 2, 3))),
                gate_params("j", 1, 0.5, 0.5), "j")


def test_combine_max_and_avg():
    a = Tensor(np.array([1.0, 5.0]).reshape(1, 1, 1, 2))
    b = Tensor(np.array([4.0, 2.0]).reshape(1, 1, 1, 2))
    np.testing.assert_array_equal(combine("max", a, b)[0].data.reshape(-1), [4.0, 5.0])
    x = Tensor(np.random.default_rng(1).normal(size=(1, 2, 3, 3)))
    np.testing.assert_array_equal(combine("avg", x, x)[0].data, x.data)


def test_combine_concat_identity_kernel():
    c = 3
    a = Tensor(np.ones((1, c, 4, 4)))
    w = np.zeros((c, 2 * c, 1, 1))
    for i in range(c):  # pick the first (active) half of the stack
        w[i, i, 0, 0] = 1.0
    params = {"j.w": Tensor(w), "j.b": Tensor(np.zeros((1, c, 1, 1)))}
    out = combine("concat", a, a, params, "j")[0]
    np.testing.assert_array_equal(out.data, np.ones((1, c, 4, 4)))


def test_combiner_shape_uniformity():
    cfgs = {kind: SgenConfig(combiner=kind) for kind in COMBINERS}
    shapes = set()
    for kind, cfg in cfgs.items():
        out, _ = generator_forward(rand_input(cfg, 48, 32), init_params(cfg), cfg)
        shapes.add(out.shape)
    assert shapes == {(1, 1, 48, 32)}


def test_combine_unknown_kind():
    x = Tensor(np.zeros((1, 1, 2, 2)))
    with pytest.raises(ConfigError):
        combine("median", x, x)


# ---------------------------------------------------------------------------
# generator forward


def test_generator_output_shape_and_range():
    params = init_params(DESK)
    for h, w in [(48, 32), (64, 48), (80, 64)]:
        out, _ = generator_forward(rand_input(DESK, h, w, n=2), params, DESK)
        assert out.shape == (2, 1, h, w)
        assert np.isfinite(out.data).all()
        assert (np.abs(out.data) < 1.0).all()


def test_generator_level_shapes():
    params = init_params(DESK)
    _, acts = generator_forward(rand_input(DESK, 48, 32), params, DESK)
    assert list(acts) == [
        "gen.enc.stem2", "gen.enc.trunk2", "gen.enc.trunk3",
        "gen.enc.base1", "gen.enc.base2", "gen.enc.base3",
        "gen.enc.sgu2.ga", "gen.enc.sgu2.gp", "gen.enc.junction2",
        "gen.enc.sgu3.ga", "gen.enc.sgu3.gp", "gen.enc.junction3",
        "gen.dec.base1", "gen.dec.base2", "gen.dec.base3", "gen.dec.merge1",
        "gen.dec.sgu2.ga", "gen.dec.sgu2.gp", "gen.dec.junction2", "gen.dec.merge2",
        "gen.dec.sgu3.ga", "gen.dec.sgu3.gp", "gen.dec.junction3", "gen.dec.merge3"]
    for path in ("gen.enc.base1", "gen.enc.base3", "gen.enc.junction3", "gen.enc.sgu2.ga"):
        assert acts[path].shape == (1, 32, 3, 2), path
    assert acts["gen.dec.merge3"].shape == (1, 8, 48, 32)
    cfg = SgenConfig(combiner="concat")
    _, acts = generator_forward(rand_input(cfg, 48, 32), init_params(cfg), cfg)
    assert not any(".sgu" in path for path in acts)
    assert acts["gen.dec.junction3"].shape == (1, 8, 24, 16)


def test_generator_rejects_indivisible_input():
    params = init_params(DESK)
    with pytest.raises(ConfigError, match="pad"):
        generator_forward(rand_input(DESK, 48, 36), params, DESK)


def test_generator_rejects_wrong_channels():
    params = init_params(DESK)
    bad = Tensor(np.zeros((1, 3, 48, 32)))
    with pytest.raises(ConfigError, match="channels"):
        generator_forward(bad, params, DESK)


def test_generator_nan_abort_names_layer():
    # a NaN weight is reported under the first activation it reaches
    cases = {"gen.enc.trunk2.w": "gen.enc.trunk2", "gen.dec.merge1.w": "gen.dec.merge1",
             "gen.enc.sgu2.ga.w": "gen.enc.junction2"}
    for param, layer in cases.items():
        params = init_params(DESK)
        params[param].data[0, 0, 0, 0] = np.nan
        with pytest.raises(NumericsError, match=f"'{layer}'"):
            generator_forward(rand_input(DESK, 48, 32), params, DESK)


@pytest.mark.parametrize("mode,override", [
    ("skip", {"enc": (1.0, 0.0), "dec": (1.0, 1.0)}),
    ("residual", {"enc": (1.0, 1.0), "dec": (1.0, 1.0)}),
])
def test_gate_degeneracy_bitwise(mode, override):
    params = init_params(DESK)
    forced_params = force_gates(params, DESK, **override)
    for seed in range(2):
        s = rand_input(DESK, 48, 32, seed=seed)
        forced, _ = generator_forward(s, forced_params, DESK)
        ref = reference_forward(s, params, DESK, mode)
        assert np.array_equal(forced.data, ref.data)


# ---------------------------------------------------------------------------
# discriminator


def test_discriminator_probability_range_and_scales():
    params = init_params(DESK)
    for h, w in [(48, 32), (80, 64)]:
        out = discriminator_forward(rand_input(DESK, h, w, n=3, seed=h), params, DESK)
        assert out.shape == (3, 1, 1, 1)
        assert ((out.data > 0.0) & (out.data < 1.0)).all()


def test_discriminator_zero_head_gives_half():
    params = init_params(DESK)
    params["disc.fc.w"].data[:] = 0.0
    out = discriminator_forward(rand_input(DESK, 48, 32), params, DESK)
    np.testing.assert_array_equal(out.data, np.full((1, 1, 1, 1), 0.5))


def test_discriminator_minimum_size():
    params = init_params(DESK)
    with pytest.raises(ConfigError):
        discriminator_forward(Tensor(np.zeros((1, 1, 8, 8))), params, DESK)


# ---------------------------------------------------------------------------
# end-to-end differentiability (tiny model)


def test_end_to_end_gradients_match_finite_differences():
    cfg = TINY
    params = init_params(cfg)
    rng = np.random.default_rng(11)
    s = Tensor(rng.uniform(-1, 1, (1, 1, 16, 16)))
    t = Tensor(rng.uniform(-1, 1, (1, 1, 16, 16)))

    def loss_value():
        out, _ = generator_forward(s, params, cfg)
        d = out.data - t.data
        return float((d * d).mean())

    g = Graph()
    with g:
        out, _ = generator_forward(s, params, cfg)
        diff = sub(out, t)
        loss = mean_all(mul(diff, diff))
    gen, _ = split_params(params)
    grads = g.backward(loss, gen)

    names = sorted(gen)
    picks = rng.choice(len(names), size=6, replace=False)
    eps = 1e-5
    for pi in picks:
        p = gen[names[pi]]
        flat = rng.integers(0, p.data.size)
        idx = np.unravel_index(flat, p.data.shape)
        keep = p.data[idx]
        p.data[idx] = keep + eps
        up = loss_value()
        p.data[idx] = keep - eps
        down = loss_value()
        p.data[idx] = keep
        numeric = (up - down) / (2 * eps)
        analytic = grads[names[pi]][idx]
        denom = max(abs(numeric), abs(analytic), 1e-8)
        assert abs(analytic - numeric) / denom < 1e-3, names[pi]


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip_bitwise(tmp_path):
    params = init_params(DESK, seed=5)
    path = tmp_path / "m.ckpt"
    save_checkpoint(params, DESK, path)
    loaded, cfg2 = load_checkpoint(path)
    assert cfg2 == DESK
    assert loaded.keys() == params.keys()
    s = rand_input(DESK, 48, 32, seed=9)
    a, _ = generator_forward(s, params, DESK)
    b, _ = generator_forward(s, loaded, cfg2)
    assert np.array_equal(a.data, b.data)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(init_params(TINY), TINY, path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="bad magic"):
        load_checkpoint(path)


def test_checkpoint_version_bump(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(init_params(TINY), TINY, path)
    raw = bytearray(path.read_bytes())
    raw[4:8] = (2).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_checkpoint_truncation(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(init_params(TINY), TINY, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) - 7])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_checkpoint_trailing_garbage(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(init_params(TINY), TINY, path)
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(path)


def _save_renamed(path, params, name, raw_name):
    """Save `params` with tensor `name` stored under the name bytes `raw_name`."""
    placeholder = name[:-1] + "~"  # same length as `name`, sorts after its neighbours
    assert len(raw_name) == len(placeholder.encode())
    params = dict(params)
    params[placeholder] = params.pop(name)
    save_checkpoint(params, TINY, path)
    path.write_bytes(path.read_bytes().replace(placeholder.encode(), raw_name))


def test_checkpoint_missing_tensor(tmp_path):
    params = init_params(TINY)
    del params["gen.out.conv.b"]
    save_checkpoint(params, TINY, tmp_path / "m.ckpt")
    with pytest.raises(CheckpointError, match="lacks.*gen.out.conv.b"):
        load_checkpoint(tmp_path / "m.ckpt")


def test_checkpoint_extra_tensor(tmp_path):
    params = init_params(TINY)
    params["gen.extra.w"] = Tensor(np.zeros((1, 1, 1, 1)))
    save_checkpoint(params, TINY, tmp_path / "m.ckpt")
    with pytest.raises(CheckpointError, match="unexpected.*gen.extra.w"):
        load_checkpoint(tmp_path / "m.ckpt")


def test_checkpoint_misshaped_tensor(tmp_path):
    params = init_params(TINY)
    params["gen.out.conv.w"] = Tensor(np.zeros((1, 2, 5, 5)))
    save_checkpoint(params, TINY, tmp_path / "m.ckpt")
    with pytest.raises(CheckpointError, match="gen.out.conv.w.*shape"):
        load_checkpoint(tmp_path / "m.ckpt")


def test_checkpoint_duplicate_name(tmp_path):
    path = tmp_path / "m.ckpt"
    _save_renamed(path, init_params(TINY), "gen.out.conv.b", b"gen.out.conv.w")
    with pytest.raises(CheckpointError, match="duplicate.*gen.out.conv.w"):
        load_checkpoint(path)


def test_checkpoint_hostile_levels_rejected(tmp_path):
    # tensor-less files whose config asks for an enormous layout, passes
    # validation with a value param_layout cannot use, holds a seed numpy
    # refuses, or nests too deep to parse
    path = tmp_path / "m.ckpt"
    cases = [(json.dumps(b).encode(), "levels")
             for b in ({"levels": 30000}, {"levels": 3.0}, {"levels": True})]
    cases.append((json.dumps({"seed": -1}).encode(), "seed"))
    cases.append((b"[" * 100000 + b"]" * 100000, "recursion"))
    for blob, what in cases:
        path.write_bytes(b"SGEN" + struct.pack("<II", 1, len(blob)) + blob + struct.pack("<I", 0))
        with pytest.raises(CheckpointError, match=f"invalid config block.*{what}"):
            load_checkpoint(path)


def test_checkpoint_write_failing_midway_keeps_old_file(tmp_path):
    path = tmp_path / "m.ckpt"
    params = init_params(TINY)
    save_checkpoint(params, TINY, path)
    before = path.read_bytes()
    broken = dict(params, **{"gen.zz": None})  # sorts after every real tensor
    with pytest.raises(AttributeError):
        save_checkpoint(broken, TINY, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]


def test_checkpoint_undecodable_name(tmp_path):
    path = tmp_path / "m.ckpt"
    _save_renamed(path, init_params(TINY), "gen.out.conv.b", b"gen.out.conv\xff\xfe")
    with pytest.raises(CheckpointError, match="UTF-8"):
        load_checkpoint(path)


# ---------------------------------------------------------------------------
# gate dumps


def test_dump_gates_file_count_and_values(tmp_path):
    params = init_params(DESK)
    stats = dump_gates(params, DESK, rand_input(DESK, 48, 32), tmp_path)
    bneck = DESK.bottleneck_channels
    expected = 2 * (2 * bneck) + 2 * (DESK.decoder_channels(2) + DESK.decoder_channels(3))
    files = sorted(tmp_path.glob("*.pgm"))
    assert len(files) == expected
    assert set(stats) == {"enc.sgu2", "enc.sgu3", "dec.sgu2", "dec.sgu3"}
    for junction, value in stats.items():
        assert 0.0 < value < 2.0, junction
    from sgen.data import read_netpbm
    raster = read_netpbm(files[0])
    assert raster.dtype == np.uint8 and raster.ndim == 2


def test_dump_gates_requires_sgu(tmp_path):
    cfg = SgenConfig(combiner="avg")
    with pytest.raises(ConfigError):
        dump_gates(init_params(cfg), cfg, rand_input(cfg, 48, 32), tmp_path)


# ---------------------------------------------------------------------------
# convolution kernel choice


# layers of the default model whose forward correlation takes the shifted
# GEMM; every other conv2d/deconv2d layer builds an im2col patch matrix
SHIFTED_LAYERS = {
    (1, 48, 32): set(),
    (8, 80, 64): {"gen.dec.sgu2.ga", "gen.dec.sgu2.gp", "gen.dec.sgu3.ga",
                  "gen.dec.sgu3.gp", "gen.out.conv"},
    (1, 384, 384): {"gen.dec.sgu2.ga", "gen.dec.sgu2.gp", "gen.dec.sgu3.ga",
                    "gen.dec.sgu3.gp", "gen.out.conv"},
}


@pytest.mark.parametrize("n,h,w", list(SHIFTED_LAYERS))
def test_kernel_choice_per_layer(monkeypatch, n, h, w):
    params = init_params(DESK)
    names = {id(t): path[:-2] for path, t in params.items() if path.endswith(".w")}
    current, seen, shifted = [None], set(), set()

    def named(op):
        def run(x, kernel, *args, **kwargs):
            current[0] = names[id(kernel)]
            seen.add(current[0])
            return op(x, kernel, *args, **kwargs)
        return run

    real_shifted = ad._conv_shifted

    def spy(*args):
        shifted.add(current[0])
        return real_shifted(*args)

    monkeypatch.setattr(model, "conv2d", named(model.conv2d))
    monkeypatch.setattr(model, "deconv2d", named(model.deconv2d))
    monkeypatch.setattr(ad, "_conv_shifted", spy)
    out, _ = generator_forward(rand_input(DESK, h, w, n=n), params, DESK)
    discriminator_forward(out, params, DESK)
    assert seen == set(names.values())
    assert shifted == SHIFTED_LAYERS[(n, h, w)]
