import json
import struct

import numpy as np
import pytest

import sgen.model as model
from sgen.autodiff import Graph, Tensor, mean_all, mul, sub, sum_all
from sgen.errors import CheckpointError, ConfigError, NumericsError, UsageError
from sgen.model import (COMBINERS, Layer, SgenConfig, discriminator_forward,
                        dump_gates, generator_forward, init_params, layer_table,
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
    width = {row.path: row.cout for row in layer_table(cfg)[0]}
    trunk = ["gen.enc.stem2"] + [f"gen.enc.trunk{k}" for k in range(2, 6)]
    assert [width[path] for path in trunk] == [8, 16, 32, 64, 64]
    assert {width[f"gen.enc.base{k}"] for k in range(1, 6)} == {64}  # the bottleneck
    assert cfg.divisor == 64
    assert width["gen.dec.merge5"] == 8


@pytest.mark.parametrize("combiner", COMBINERS)
def test_layer_table_wiring(combiner):
    # every map is made before it is read and read unless last, each conv
    # reads the channels its inputs make, and the parameters are exactly
    # the conv and deconv rows', at every level (forwards cover 2 and 3 only)
    for levels in range(2, 9):
        for c, w in ((8, 8), (3, 5)):
            cfg = SgenConfig(levels=levels, base_channels=c, disc_channels=w, combiner=combiner)
            weights = []
            for rows in layer_table(cfg):
                width = {"": cfg.image_channels}
                for row in rows:
                    widths = [width[path] for path in row.inputs]  # KeyError: read before made
                    if row.op in ("conv", "deconv"):
                        assert row.cin == sum(widths), row.path
                        weights.append((row.prefix or row.path) + ".w")
                    else:
                        assert set(widths) == {row.cin} and row.cout == row.cin, row.path
                    width[row.path] = row.cout
                assert len(width) == len(rows) + 1  # no path is made twice
                read = {path for row in rows for path in row.inputs}
                assert read == {""} | {row.path for row in rows[:-1]}
            assert sorted(weights) == sorted(k for k in model.param_layout(cfg) if k.endswith(".w"))


def test_default_generator_conv_rows():
    # perfbench pins 16 conv2d calls per default restore, one per conv row:
    # 8 layers and the 8 SGU gates
    assert sum(row.op == "conv" for row in layer_table(DESK)[0]) == 16


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


def _draw_order(junction):
    # the weights of the default levels-3 model in the order init_params
    # draws them, written out apart from the layer table: every decoder
    # junction draws before the first merge, the discriminator last
    return (["gen.enc.stem1", "gen.enc.stem2", "gen.enc.trunk2", "gen.enc.trunk3",
             "gen.enc.base1", "gen.enc.base2", "gen.enc.base3"]
            + junction("enc", 2) + junction("enc", 3)
            + ["gen.dec.base1", "gen.dec.base2", "gen.dec.base3"]
            + junction("dec", 2) + junction("dec", 3)
            + ["gen.dec.merge1", "gen.dec.merge2", "gen.dec.merge3", "gen.out.conv",
               "disc.conv1", "disc.conv2", "disc.conv3", "disc.conv4", "disc.fc"])


DRAW_ORDER = {
    "sgu": _draw_order(lambda stage, k: [f"gen.{stage}.sgu{k}.ga", f"gen.{stage}.sgu{k}.gp"]),
    "concat": _draw_order(lambda stage, k: [f"gen.{stage}.cat{k}"]),
}


@pytest.mark.parametrize("combiner", list(DRAW_ORDER))
def test_init_draw_order_is_pinned(combiner):
    # every checkpoint's seed meant these draws: rebuilt from the written-out
    # order, the weights are bitwise init_params', and the biases zero
    cfg = SgenConfig(combiner=combiner)
    layout = model.param_layout(cfg)
    rng = np.random.default_rng(11)
    want = {}
    for layer in DRAW_ORDER[combiner]:
        shape, bound = layout[layer + ".w"]
        want[layer + ".w"] = rng.uniform(-bound, bound, size=shape)
    got = init_params(cfg, seed=11)
    assert sorted(want) == sorted(k for k in got if k.endswith(".w"))
    assert all(np.array_equal(got[k].data, a) for k, a in want.items())
    assert all(not p.data.any() for k, p in got.items() if k.endswith(".b"))


def test_init_gate_convs_preserve_channels():
    params = init_params(DESK)
    for k, m in ((2, 16), (3, 8)):  # the bottleneck is 32 wide, decoder junction k is m
        for g in ("ga", "gp"):
            w = params[f"gen.enc.sgu{k}.{g}.w"]
            assert w.shape == (32, 32, 3, 3)
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
# junctions


def run_junction(rows, a, params, passive_stride=1):
    """Run `rows` on the active map `a` and return the last row's output.

    A 1x1 conv row "p" in front reverses the channels of `a`; its output is
    the passive map."""
    c = a.shape[1]
    params = dict(params, **{"p.w": Tensor(np.eye(c)[::-1].reshape(c, c, 1, 1)),
                             "p.b": Tensor(np.zeros((1, c, 1, 1)))})
    rows = (Layer("p", "conv", ("",), c, c, stride=passive_stride),) + rows
    return model._run(rows, a, params, DESK).data


def sgu_rows(c):
    gates = tuple(Layer(f"j.{g}", "conv", ("",), c, c, 3, 1, 1, "sigmoid") for g in ("ga", "gp"))
    return gates + (Layer("j", "sgu", ("j.ga", "", "j.gp", "p"), c, c),)


def test_sgu_forced_selection_identities():
    xa = np.random.default_rng(0).normal(size=(2, 3, 4, 4))
    out = run_junction(sgu_rows(3), Tensor(xa), gate_params("j", 3, 1.0, 0.0))
    np.testing.assert_array_equal(out, xa)
    out = run_junction(sgu_rows(3), Tensor(xa), gate_params("j", 3, 0.0, 1.0))
    np.testing.assert_array_equal(out, xa[:, ::-1])


def test_sgu_zero_preactivation_averages():
    # sigmoid(0) = 0.5 on both gates: f = 0.5*2 + 0.5*4 = 3 on both channels
    xa = Tensor(np.array([2.0, 4.0]).reshape(1, 2, 1, 1).repeat(2, 2).repeat(2, 3))
    out = run_junction(sgu_rows(2), xa, gate_params("j", 2, 0.5, 0.5))
    np.testing.assert_array_equal(out, np.full((1, 2, 2, 2), 3.0))


def test_sgu_shape_mismatch():
    with pytest.raises(ConfigError, match="gate: shape mismatch"):
        run_junction(sgu_rows(1), Tensor(np.zeros((1, 1, 2, 2))), gate_params("j", 1, 0.5, 0.5),
                     passive_stride=2)


def test_sgu_junction_is_one_tape_node():
    # the default generator records its 16 conv rows, 6 deconv rows and one
    # gate node per sgu junction, two in each stage
    params = init_params(DESK)
    with Graph() as g:
        generator_forward(Tensor(np.zeros((1, 1, 16, 16))), params, DESK)
    ops = [node.op for node in g.nodes]
    assert (ops.count("conv2d"), ops.count("deconv2d"), ops.count("gate")) == (16, 6, 4)
    assert len(ops) == 26


def test_combine_max_and_avg():
    a = Tensor(np.array([1.0, 5.0]).reshape(1, 2, 1, 1))  # the passive map is [5, 1]
    out = run_junction((Layer("j", "max", ("", "p"), 2, 2),), a, {})
    np.testing.assert_array_equal(out.reshape(-1), [5.0, 5.0])
    out = run_junction((Layer("j", "avg", ("", "p"), 2, 2),), a, {})
    np.testing.assert_array_equal(out.reshape(-1), [3.0, 3.0])


def test_combine_concat_identity_kernel():
    # a 1x1 conv over the stacked (active, passive) channels, its parameters
    # under the row's prefix, picks either half exactly
    c = 3
    a = np.random.default_rng(1).normal(size=(1, c, 4, 4))
    rows = (Layer("j", "conv", ("", "p"), 2 * c, c, prefix="cat"),)
    for half, want in ((0, a), (1, a[:, ::-1])):
        w = np.zeros((c, 2 * c, 1, 1))
        w[np.arange(c), half * c + np.arange(c)] = 1.0
        params = {"cat.w": Tensor(w), "cat.b": Tensor(np.zeros((1, c, 1, 1)))}
        np.testing.assert_array_equal(run_junction(rows, Tensor(a), params), want)


def test_combiner_shape_uniformity():
    cfgs = {kind: SgenConfig(combiner=kind) for kind in COMBINERS}
    shapes = set()
    for kind, cfg in cfgs.items():
        out = generator_forward(rand_input(cfg, 48, 32), init_params(cfg), cfg)
        shapes.add(out.shape)
    assert shapes == {(1, 1, 48, 32)}


# ---------------------------------------------------------------------------
# generator forward


def test_generator_output_shape_and_range():
    params = init_params(DESK)
    for h, w in [(48, 32), (64, 48), (80, 64)]:
        out = generator_forward(rand_input(DESK, h, w, n=2), params, DESK)
        assert out.shape == (2, 1, h, w)
        assert np.isfinite(out.data).all()
        assert (np.abs(out.data) < 1.0).all()


def test_generator_level_shapes():
    # a caller's dict gets every kept activation, and filling it changes no output
    params = init_params(DESK)
    acts = {}
    out = generator_forward(rand_input(DESK, 48, 32), params, DESK, acts=acts)
    assert np.array_equal(out.data, generator_forward(rand_input(DESK, 48, 32), params, DESK).data)
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
    acts = {}
    generator_forward(rand_input(cfg, 48, 32), init_params(cfg), cfg, acts=acts)
    assert not any(".sgu" in path for path in acts)
    assert acts["gen.dec.junction3"].shape == (1, 8, 24, 16)


def test_generator_phase_kernels_by_layer_path():
    # a caller's dict gets each deconv's phase kernel under its path on first
    # use; a forward that reuses them is bitwise one that builds its own, and
    # under a recording Graph the dict is refused
    params = init_params(TINY)
    s = rand_input(TINY, 48, 32, n=2)
    phases = {}
    first = generator_forward(s, params, TINY, phases)
    assert sorted(phases) == [f"gen.dec.{kind}{k}" for kind in ("base", "merge") for k in (1, 2)]
    kept = dict(phases)
    again = generator_forward(s, params, TINY, phases)
    assert all(phases[path] is kept[path] for path in kept)
    uncached = generator_forward(s, params, TINY)
    assert np.array_equal(first.data, uncached.data) and np.array_equal(again.data, uncached.data)
    with Graph(), pytest.raises(UsageError, match="Graph"):
        generator_forward(s, params, TINY, phases)


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
             "gen.enc.sgu2.ga.w": "gen.enc.sgu2.ga"}
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
        forced = generator_forward(s, forced_params, DESK)
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
        out = generator_forward(s, params, cfg)
        d = out.data - t.data
        return float((d * d).mean())

    g = Graph()
    with g:
        out = generator_forward(s, params, cfg)
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
    a = generator_forward(s, params, DESK)
    b = generator_forward(s, loaded, cfg2)
    assert np.array_equal(a.data, b.data)


def test_checkpoint_save_load_save_is_byte_identical(tmp_path):
    params = init_params(DESK, seed=5)
    save_checkpoint(params, DESK, tmp_path / "a.ckpt")
    loaded, cfg = load_checkpoint(tmp_path / "a.ckpt")
    save_checkpoint(loaded, cfg, tmp_path / "b.ckpt")
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_params_come_in_layout_order_as_arrays_of_their_own(tmp_path):
    # init_params and load_checkpoint return the tensors in param_layout
    # order; each loaded one is a writeable array that views none of the
    # file's bytes (adam_step copies them into its arena on first use)
    params = init_params(DESK, seed=5)
    save_checkpoint(params, DESK, tmp_path / "m.ckpt")
    loaded = load_checkpoint(tmp_path / "m.ckpt")[0]
    for got in (params, loaded):
        assert list(got) == list(model.param_layout(DESK))
    for p in loaded.values():
        assert p.data.flags.writeable and p.data.flags.owndata and p.data.base is None
    loaded["gen.enc.stem1.w"].data[...] = 0.0
    assert load_checkpoint(tmp_path / "m.ckpt")[0]["gen.enc.stem1.w"].data.any()


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
    expected = 2 * (2 * 32) + 2 * (16 + 8)  # a file per gate channel: bottleneck 32, decoder 16, 8
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
# GEMM, the narrowing ones, at every size; every other conv2d/deconv2d layer
# gathers im2col bands
SHIFTED_LAYERS = {"gen.out.conv", "disc.fc"}


@pytest.mark.parametrize("n,h,w", [(1, 48, 32), (8, 80, 64), (1, 384, 384)])
def test_kernel_choice_per_layer(monkeypatch, band_kernels, n, h, w):
    params = init_params(DESK)
    names = {id(t): path[:-2] for path, t in params.items() if path.endswith(".w")}
    seen, shifted = set(), set()

    def named(op):
        def run(x, kernel, *args, **kwargs):
            seen.add(names[id(kernel)])
            start = len(band_kernels)
            out = op(x, kernel, *args, **kwargs)
            if any(kind == "shifted" for kind, *_ in band_kernels[start:]):
                shifted.add(names[id(kernel)])
            return out
        return run

    monkeypatch.setattr(model, "conv2d", named(model.conv2d))
    monkeypatch.setattr(model, "deconv2d", named(model.deconv2d))
    out = generator_forward(rand_input(DESK, h, w, n=n), params, DESK)
    discriminator_forward(out, params, DESK)
    assert seen == set(names.values())
    assert shifted == SHIFTED_LAYERS
