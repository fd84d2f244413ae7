import copy
from types import SimpleNamespace

import numpy as np
import pytest

import sgen.train as train_mod
from sgen.autodiff import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, AdamState, Tensor, adam_step
from sgen.data import (DegradationSpec, Subset, SyntheticCorpus, make_batch,
                       read_netpbm)
from sgen.errors import ConfigError, DivergenceError, NumericsError
from sgen.metrics import psnr
from sgen.model import (SgenConfig, discriminator_forward, generator_forward,
                        load_checkpoint, split_params)
from sgen.train import (TrainConfig, _fmt, disc_loss, gen_adv_loss, init_state,
                        mse_loss, train, train_step, write_grid)

from oracles import adam_step_per_tensor

TINY = SgenConfig(levels=2, base_channels=2)
SCALE = (32, 32)
SPEC = DegradationSpec()


def tiny_batch(seed=0, k=2):
    return make_batch(SyntheticCorpus(8), SCALE, k, SPEC, np.random.default_rng(seed))


def snapshot(params):
    return {k: v.data.copy() for k, v in params.items()}


def test_train_config_validation():
    nan, inf = float("nan"), float("inf")
    for kwargs in ({"steps": -1}, {"batch_size": 0}, {"val_count": 0}, {"lr": -1e-4},
                   {"lam": -1.0}, {"loss_variant": "wasserstein"}, {"lr": nan},
                   {"lam": inf}, {"divergence_limit": nan}, {"divergence_limit": 0.0},
                   {"seed": -1}, {"val_every": -3}, {"grid_every": -1}):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)


# ---------------------------------------------------------------------------
# losses


def test_mse_loss_values():
    zero = Tensor(np.zeros((2, 1, 4, 4)))
    one = Tensor(np.ones((2, 1, 4, 4)))
    assert mse_loss(zero, zero).item() == 0.0
    assert mse_loss(zero, one).item() == 1.0


def test_mse_loss_matches_direct_sum():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 2, 5, 7))
    b = rng.normal(size=(3, 2, 5, 7))
    got = mse_loss(Tensor(a), Tensor(b)).item()
    want = float(np.sum((a - b) ** 2) / a.size)
    assert got == pytest.approx(want, rel=1e-12)
    assert mse_loss(Tensor(b), Tensor(a)).item() == pytest.approx(got, rel=1e-12)


def test_mse_loss_shape_mismatch():
    with pytest.raises(ConfigError):
        mse_loss(Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros((1, 1, 4, 5))))


def test_gan_losses_at_half():
    half = Tensor(np.full((4, 1, 1, 1), 0.5))
    assert disc_loss(half, half).item() == pytest.approx(2.0 * np.log(2.0), rel=1e-12)
    assert gen_adv_loss(half, "minimax").item() == pytest.approx(np.log(0.5), rel=1e-12)
    g_ns = gen_adv_loss(half, "nonsaturating")
    assert g_ns.item() == pytest.approx(np.log(2.0), rel=1e-12)


def test_gan_losses_near_perfect_discriminator():
    real = Tensor(np.full((2, 1, 1, 1), 1.0 - 1e-12))
    fake = Tensor(np.full((2, 1, 1, 1), 1e-12))
    assert abs(disc_loss(real, fake).item()) < 1e-9


def test_gan_losses_clamped_at_extremes():
    zero = Tensor(np.zeros((2, 1, 1, 1)))
    one = Tensor(np.ones((2, 1, 1, 1)))
    assert np.isfinite(disc_loss(zero, one).item())
    assert np.isfinite(gen_adv_loss(one, "minimax").item())
    assert np.isfinite(gen_adv_loss(zero, "nonsaturating").item())


def test_gan_losses_without_real_branch():
    # the generator's term reads only the discriminator's scores of fakes
    fake = Tensor(np.full((2, 1, 1, 1), 0.3))
    assert gen_adv_loss(fake, "minimax").item() == pytest.approx(np.log(0.7), rel=1e-12)


def test_gan_losses_rejects_unknown_variant():
    half = Tensor(np.full((1, 1, 1, 1), 0.5))
    with pytest.raises(ConfigError):
        gen_adv_loss(half, "hinge")


# ---------------------------------------------------------------------------
# train_step


def test_train_step_zero_lr_keeps_params():
    state = init_state(TINY, seed=1)
    before = snapshot(state.params)
    losses = train_step(tiny_batch(), state, TrainConfig(lr=0.0, batch_size=2))
    assert state.step == 1
    for key in ("d_loss", "g_adv", "g_mse"):
        assert np.isfinite(losses[key])
    for k, v in state.params.items():
        assert np.array_equal(v.data, before[k]), k


def test_train_step_mse_only_skips_discriminator():
    state = init_state(TINY, seed=1)
    before = snapshot(state.params)
    losses = train_step(tiny_batch(), state, TrainConfig(lr=1e-3, mse_only=True))
    assert losses["d_loss"] is None and losses["g_adv"] is None
    assert np.isfinite(losses["g_mse"])
    gen, disc = split_params(state.params)
    assert all(np.array_equal(v.data, before[k]) for k, v in disc.items())
    assert any(not np.array_equal(v.data, before[k]) for k, v in gen.items())


def test_train_step_adversarial_updates_both_nets():
    state = init_state(TINY, seed=2)
    before = snapshot(state.params)
    train_step(tiny_batch(), state, TrainConfig(lr=1e-3))
    gen, disc = split_params(state.params)
    assert any(not np.array_equal(v.data, before[k]) for k, v in gen.items())
    assert any(not np.array_equal(v.data, before[k]) for k, v in disc.items())
    assert all(p.requires_grad for p in state.params.values())


def test_train_step_deterministic():
    runs = []
    for _ in range(2):
        state = init_state(TINY, seed=5)
        rng = np.random.default_rng(9)
        cfg = TrainConfig(lr=1e-3, batch_size=2)
        for _ in range(10):
            train_step(make_batch(SyntheticCorpus(8), SCALE, 2, SPEC, rng), state, cfg)
        runs.append((state.history, snapshot(state.params)))
    assert runs[0][0] == runs[1][0]
    for k in runs[0][1]:
        assert np.array_equal(runs[0][1][k], runs[1][1][k]), k


def test_train_step_aborts_on_nan_param():
    state = init_state(TINY, seed=0)
    state.params["gen.enc.stem1.w"].data[0, 0, 0, 0] = np.nan
    with pytest.raises(NumericsError):
        train_step(tiny_batch(), state, TrainConfig(lr=1e-3))


def test_train_step_judges_divergence():
    # the step is judged where it is recorded: the history keeps the step that raised
    state = init_state(TINY, seed=0)
    cfg = TrainConfig(batch_size=2, mse_only=True, divergence_limit=1e-9)
    with pytest.raises(DivergenceError, match="step 1"):
        train_step(tiny_batch(), state, cfg)
    assert state.step == 1 and [h["step"] for h in state.history] == [1]


def test_huge_lambda_matches_pure_mse_direction():
    batch = tiny_batch(seed=4)
    state_adv = init_state(TINY, seed=6)
    state_mse = init_state(TINY, seed=6)
    before = snapshot(state_adv.params)
    train_step(batch, state_adv, TrainConfig(lr=1e-3, lam=1e9))
    train_step(batch, state_mse, TrainConfig(lr=1e-3, mse_only=True))
    gen_adv, _ = split_params(state_adv.params)
    deltas_a, deltas_m = [], []
    for k in gen_adv:
        deltas_a.append((state_adv.params[k].data - before[k]).ravel())
        deltas_m.append((state_mse.params[k].data - before[k]).ravel())
    da = np.concatenate(deltas_a)
    dm = np.concatenate(deltas_m)
    cos = float(da @ dm / (np.linalg.norm(da) * np.linalg.norm(dm)))
    assert cos > 0.99


def test_generator_objective_drops_within_step():
    state = init_state(TINY, seed=3)
    cfg = TrainConfig(lr=1e-3, batch_size=2)
    rng = np.random.default_rng(11)
    drops = 0
    steps = 30
    for _ in range(steps):
        batch = make_batch(SyntheticCorpus(8), SCALE, 2, SPEC, rng)
        losses = train_step(batch, state, cfg)
        pre = losses["g_adv"] + cfg.lam * losses["g_mse"]
        fake = generator_forward(batch.s, state.params, TINY)
        d_fake = discriminator_forward(fake, state.params, TINY)
        g_adv = gen_adv_loss(d_fake, cfg.loss_variant)
        post = g_adv.item() + cfg.lam * mse_loss(fake, batch.t).item()
        drops += post < pre
    assert drops >= int(0.8 * steps)


def test_repeated_batch_mse_converges():
    state = init_state(TINY, seed=7)
    batch = tiny_batch(seed=8)
    cfg = TrainConfig(lr=5e-3, mse_only=True)
    first = train_step(batch, state, cfg)["g_mse"]
    for _ in range(99):
        last = train_step(batch, state, cfg)["g_mse"]
    assert last < 0.5 * first


def test_arena_adam_is_bitwise_the_per_tensor_oracle(monkeypatch):
    # 24 adversarial steps with every parameter updated as one flat vector
    # per network, then with the per-tensor reference: the same bits in the
    # parameters and both moments
    cfg = TrainConfig(batch_size=2, lr=1e-3)

    def run():
        state = init_state(SgenConfig(), seed=3)
        rng = np.random.default_rng(4)
        for _ in range(24):
            train_step(make_batch(SyntheticCorpus(8), SCALE, 2, SPEC, rng), state, cfg)
        return state

    arena = run()
    monkeypatch.setattr(train_mod, "adam_step", lambda *a: adam_step_per_tensor(
        *a, ADAM_BETA1, ADAM_BETA2, ADAM_EPS))
    monkeypatch.setattr(train_mod, "AdamState", lambda: SimpleNamespace(step=0, m={}, v={}))
    oracle = run()
    assert arena.history == oracle.history
    assert all(np.array_equal(arena.params[k].data, p.data) for k, p in oracle.params.items())
    for ours, ref in ((arena.gen_adam, oracle.gen_adam), (arena.disc_adam, oracle.disc_adam)):
        assert ours.step == ref.step == 24
        for moment in ("m", "v"):
            got, want = getattr(ours, moment), getattr(ref, moment)
            assert got.keys() == want.keys()
            assert all(np.array_equal(got[k], want[k]) for k in want)


def test_adam_moves_a_plain_parameter_dict_into_an_arena():
    # tensors that are no network's views (here copies) are moved into one
    # vector on first use; each tensor's data becomes its view, values kept
    params = {k: Tensor(p.data.copy(), requires_grad=True)
              for k, p in split_params(init_state(TINY, seed=1).params)[0].items()}
    before = snapshot(params)
    state = AdamState()
    adam_step(params, {k: np.zeros_like(a) for k, a in before.items()}, state, lr=0.1)
    assert all(p.data is state.arena[k] for k, p in params.items())
    assert all(np.array_equal(params[k].data, a) for k, a in before.items())
    assert state.m.keys() == state.v.keys() == params.keys()
    assert state.arena.flat.size == state.m.flat.size == sum(a.size for a in before.values())


def test_train_step_moves_each_network_into_its_adam_arena():
    # init_params gives each tensor an array of its own; one train_step makes
    # every parameter a view of its network's arena, in parameter order
    state = init_state(TINY, seed=1)
    train_step(tiny_batch(), state, TrainConfig(lr=1e-3, batch_size=2))
    for net, adam in zip(split_params(state.params), (state.gen_adam, state.disc_adam)):
        assert list(adam.arena) == list(net)
        assert all(p.data is adam.arena[k] for k, p in net.items())
        assert adam.arena.flat.size == sum(p.data.size for p in net.values())


def test_adversarial_step_memory_bound(traced_peak):
    # default model, batch 8, 80x64: each conv/deconv node keeps only its
    # input, kernel and activated output, the discriminator step's tape is
    # freed before the generator's backward, and backward drops each output
    # gradient once its node has read it (about 33 MiB; 39 MiB when backward
    # kept every gradient, 99 MiB when the tape also kept patch matrices,
    # pre-activation outputs and the D tape)
    state = init_state(SgenConfig(), seed=0)
    cfg = TrainConfig(batch_size=8, lr=1e-4)
    batch = make_batch(SyntheticCorpus(16), (80, 64), 8, SPEC, np.random.default_rng(0))
    train_step(batch, state, cfg)  # the first step allocates Adam's moments
    _, peak = traced_peak(train_step, batch, state, cfg)
    assert peak < 36 * 2**20, f"{peak / 2**20:.1f} MiB"


# ---------------------------------------------------------------------------
# full runs


def test_train_zero_steps_writes_initial_checkpoint(tmp_path):
    cfg = TrainConfig(steps=0, batch_size=2, seed=4)
    state = train(cfg, TINY, SyntheticCorpus(4), [SCALE], SPEC, tmp_path)
    params, loaded_cfg = load_checkpoint(tmp_path / "sgen.ckpt")
    assert loaded_cfg == TINY
    fresh = init_state(TINY, cfg.seed).params
    for k in fresh:
        assert np.array_equal(params[k].data, fresh[k].data), k
    assert (tmp_path / "loss_log.csv").read_text() == "step,d_loss,g_adv,g_mse,val_psnr\n"
    assert read_netpbm(tmp_path / "grid_final.ppm").ndim == 3


def test_train_csv_layout_and_history(tmp_path):
    cfg = TrainConfig(steps=4, batch_size=2, lr=1e-3, mse_only=True,
                      seed=0, val_every=2, val_count=1)
    state = train(cfg, TINY, SyntheticCorpus(4), [SCALE], SPEC, tmp_path,
                  val_corpus=SyntheticCorpus(2, offset=4))
    lines = (tmp_path / "loss_log.csv").read_text().strip().split("\n")
    assert lines[0] == "step,d_loss,g_adv,g_mse,val_psnr"
    assert len(lines) == 5
    for i, line in enumerate(lines[1:], start=1):
        step, d_loss, g_adv, g_mse, val = line.split(",")
        assert int(step) == i
        assert d_loss == "" and g_adv == ""
        assert np.isfinite(float(g_mse))
        if i % 2 == 0:
            assert np.isfinite(float(val))
        else:
            assert val == ""
    assert state.step == 4 and len(state.history) == 4
    assert "val_psnr" in state.history[-1]
    # each row is its history entry, formatted
    cols = ("d_loss", "g_adv", "g_mse", "val_psnr")
    assert lines[1:] == [",".join([str(h["step"])] + [_fmt(h.get(k)) for k in cols])
                         for h in state.history]


def test_train_without_val_corpus_leaves_column_blank(tmp_path):
    cfg = TrainConfig(steps=2, batch_size=2, lr=1e-3, mse_only=True, val_every=1)
    train(cfg, TINY, SyntheticCorpus(4), [SCALE], SPEC, tmp_path)
    for line in (tmp_path / "loss_log.csv").read_text().strip().split("\n")[1:]:
        assert line.endswith(",")


def test_train_with_empty_val_corpus_skips_validation(tmp_path):
    # an empty held-out corpus counts as none: no validation, grids from the training corpus
    cfg = TrainConfig(steps=2, batch_size=2, lr=1e-3, mse_only=True, val_every=1)
    state = train(cfg, TINY, SyntheticCorpus(4), [SCALE], SPEC, tmp_path,
                  val_corpus=Subset(SyntheticCorpus(2), []))
    rows = (tmp_path / "loss_log.csv").read_text().strip().split("\n")[1:]
    assert len(rows) == 2 and all(row.endswith(",") for row in rows)
    assert not any("val_psnr" in h for h in state.history)
    assert read_netpbm(tmp_path / "grid_final.ppm").ndim == 3


def test_train_round_robins_scales(tmp_path):
    cfg = TrainConfig(steps=4, batch_size=2, lr=0.0, mse_only=True)
    state = train(cfg, SgenConfig(levels=2, base_channels=2),
                  SyntheticCorpus(4), [(32, 32), (40, 32)], SPEC, tmp_path)
    assert state.step == 4  # two passes over both scales without shape errors


def test_train_divergence_guard(tmp_path):
    cfg = TrainConfig(steps=2, batch_size=2, mse_only=True, divergence_limit=1e-9)
    with pytest.raises(DivergenceError, match="step 1"):
        train(cfg, TINY, SyntheticCorpus(4), [SCALE], SPEC, tmp_path)


def test_train_periodic_grids(tmp_path):
    cfg = TrainConfig(steps=4, batch_size=2, lr=1e-3, mse_only=True, grid_every=2)
    train(cfg, TINY, SyntheticCorpus(4), [SCALE], SPEC, tmp_path)
    assert (tmp_path / "grid_step000002.ppm").exists()
    assert (tmp_path / "grid_step000004.ppm").exists()
    assert (tmp_path / "grid_final.ppm").exists()


def test_train_rejects_empty_inputs(tmp_path):
    cfg = TrainConfig(steps=1, batch_size=2)
    with pytest.raises(ConfigError):
        train(cfg, TINY, SyntheticCorpus(4), [], SPEC, tmp_path)


def test_write_grid_layout(tmp_path):
    state = init_state(TINY, seed=0)
    write_grid(state, SyntheticCorpus(3), SCALE, SPEC, tmp_path / "g.ppm", count=2)
    raster = read_netpbm(tmp_path / "g.ppm")
    assert raster.shape == (2 * SCALE[0], 3 * SCALE[1], 3)


def test_resume_from_state(tmp_path):
    cfg = TrainConfig(steps=2, batch_size=2, lr=1e-3, mse_only=True)
    state = train(cfg, TINY, SyntheticCorpus(4), [SCALE], SPEC, tmp_path / "a")
    state = train(cfg, TINY, SyntheticCorpus(4), [SCALE], SPEC, tmp_path / "b",
                  state=state)
    assert state.step == 4
    assert len(state.history) == 4


def test_train_refuses_a_state_of_another_model_config(tmp_path):
    # the checkpoint names model_cfg, so a state built for another config
    # would be saved under a config it never trained with
    state = init_state(TINY, seed=0)
    before = snapshot(state.params)
    cfg = TrainConfig(steps=1, batch_size=2, lr=1e-3, mse_only=True)
    with pytest.raises(ConfigError, match="lrelu_alpha=0.3"):
        train(cfg, SgenConfig(levels=2, base_channels=2, lrelu_alpha=0.3), SyntheticCorpus(4),
              [SCALE], SPEC, tmp_path, state=state)
    assert state.step == 0 and not list(tmp_path.iterdir())
    assert all(np.array_equal(state.params[k].data, v) for k, v in before.items())


def test_two_calls_continue_the_one_run(tmp_path):
    # the state carries the batch stream: 2 + 2 steps are the 4-step run
    cfg = TrainConfig(steps=2, batch_size=2, lr=1e-3, seed=5)
    args = (TINY, SyntheticCorpus(8), [SCALE, (48, 32)], SPEC)
    split = train(cfg, *args, tmp_path / "a")
    split = train(cfg, *args, tmp_path / "b", state=split)
    whole = train(TrainConfig(steps=4, batch_size=2, lr=1e-3, seed=5), *args, tmp_path / "c")
    assert split.history == whole.history
    assert all(np.array_equal(split.params[k].data, p.data) for k, p in whole.params.items())


def test_resumed_call_validates_and_prints_its_last_step(tmp_path, capsys):
    # the second call runs steps 3 and 4; step 4 is its last, though not a
    # multiple of val_every and not equal to cfg.steps
    cfg = TrainConfig(steps=2, batch_size=2, lr=1e-3, mse_only=True, val_every=3, val_count=1)
    args = (TINY, SyntheticCorpus(4), [SCALE], SPEC)
    state = train(cfg, *args, tmp_path / "a", val_corpus=SyntheticCorpus(2, offset=4))
    capsys.readouterr()
    state = train(cfg, *args, tmp_path / "b", val_corpus=SyntheticCorpus(2, offset=4),
                  state=state, verbose=True)
    rows = (tmp_path / "b" / "loss_log.csv").read_text().strip().split("\n")[1:]
    assert [r.split(",")[0] for r in rows] == ["3", "4"]
    assert all(np.isfinite(float(r.split(",")[-1])) for r in rows)
    assert "val_psnr" in state.history[-1]
    printed = capsys.readouterr().out.strip().split("\n")
    assert printed[-1].startswith("step 4/4 ") and "val_psnr=" in printed[-1]
