"""Adversarial + MSE training loop for the SGEN generator.

One step runs the generator, updates the discriminator on real images and
detached generator outputs, then updates the generator against the freshly
updated discriminator with the combined objective g_adv + lam * mse.  The
MSE-only mode skips the discriminator entirely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import (AdamState, Graph, Tensor, add, affine, adam_step,
                       log_clamped, mean_all, mul, sub)
from .data import atomic_write, degrade, make_batch, save_image, to_unit
from .errors import ConfigError, DivergenceError, NumericsError
from .metrics import eval_model, model_restorer
from .model import (SgenConfig, discriminator_forward, generator_forward,
                    init_params, save_checkpoint, split_params)

LOSS_VARIANTS = ("minimax", "nonsaturating")


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 2000
    batch_size: int = 8
    lr: float = 1e-4
    lam: float = 10.0
    loss_variant: str = "minimax"
    mse_only: bool = False
    seed: int = 0
    val_every: int = 200
    val_count: int = 8
    grid_every: int = 0
    divergence_limit: float = 1e6

    def __post_init__(self):
        if self.steps < 0:
            raise ConfigError(f"steps must be >= 0, got {self.steps}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.seed < 0:  # numpy seeds are non-negative
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.val_every < 0:  # 0 turns validation off
            raise ConfigError(f"val_every must be >= 0, got {self.val_every}")
        if self.grid_every < 0:  # 0 turns periodic grids off
            raise ConfigError(f"grid_every must be >= 0, got {self.grid_every}")
        if self.val_count < 1:
            raise ConfigError(f"val_count must be >= 1, got {self.val_count}")
        if not (math.isfinite(self.lr) and self.lr >= 0):
            raise ConfigError(f"lr must be finite and >= 0, got {self.lr}")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ConfigError(f"lam must be finite and >= 0, got {self.lam}")
        if not (math.isfinite(self.divergence_limit) and self.divergence_limit > 0):
            raise ConfigError(f"divergence_limit must be finite and > 0, got {self.divergence_limit}")
        if self.loss_variant not in LOSS_VARIANTS:
            raise ConfigError(
                f"loss_variant must be one of {LOSS_VARIANTS}, got {self.loss_variant!r}")


@dataclass
class TrainState:
    params: dict
    model_config: SgenConfig
    gen_adam: AdamState
    disc_adam: AdamState
    step: int = 0
    history: list = field(default_factory=list)


def init_state(model_config: SgenConfig, seed: int | None = None) -> TrainState:
    return TrainState(params=init_params(model_config, seed),
                      model_config=model_config,
                      gen_adam=AdamState(), disc_adam=AdamState())


# ---------------------------------------------------------------------------
# losses


def mse_loss(gen: Tensor, target: Tensor) -> Tensor:
    """Mean squared error over every element; differentiable scalar."""
    if gen.shape != target.shape:
        raise ConfigError(f"mse_loss: shape mismatch {gen.shape} vs {target.shape}")
    diff = sub(target, gen)
    return mean_all(mul(diff, diff))


def disc_loss(d_real: Tensor, d_fake: Tensor) -> Tensor:
    """-mean[log d_real + log(1 - d_fake)] from discriminator probabilities.

    Logs are clamped at 1e-12, as in gen_adv_loss.
    """
    joint = add(log_clamped(d_real), log_clamped(affine(d_fake, -1.0, 1.0)))
    return affine(mean_all(joint), -1.0, 0.0)


def gen_adv_loss(d_fake: Tensor, variant: str = "minimax") -> Tensor:
    """The generator's adversarial term: mean[log(1 - d_fake)] for minimax,
    -mean[log d_fake] for the nonsaturating variant; logs clamped at 1e-12."""
    if variant not in LOSS_VARIANTS:
        raise ConfigError(f"loss variant must be one of {LOSS_VARIANTS}, got {variant!r}")
    if variant == "minimax":
        return mean_all(log_clamped(affine(d_fake, -1.0, 1.0)))
    return affine(mean_all(log_clamped(d_fake)), -1.0, 0.0)


# ---------------------------------------------------------------------------
# one optimization step


def train_step(batch, state: TrainState, cfg: TrainConfig) -> dict:
    """One discriminator update (unless mse_only) plus one generator update.

    Returns {"d_loss", "g_adv", "g_mse"} as floats (None where skipped).
    The generator update runs against the already-updated discriminator.
    """
    mcfg = state.model_config
    gen, disc = split_params(state.params)
    losses = {"d_loss": None, "g_adv": None, "g_mse": None}

    gg = Graph()
    with gg:
        fake, _ = generator_forward(batch.s, state.params, mcfg)

    if not cfg.mse_only:
        gd = Graph()
        with gd:
            d_real = discriminator_forward(batch.t, state.params, mcfg)
            d_fake = discriminator_forward(fake.detach(), state.params, mcfg)
            d_loss = disc_loss(d_real, d_fake)
        adam_step(disc, gd.backward(d_loss, disc), state.disc_adam, cfg.lr)
        losses["d_loss"] = d_loss.item()
        # free the discriminator step's tape before the generator's backward
        del gd, d_real, d_fake, d_loss

    with gg:
        g_mse = mse_loss(fake, batch.t)
        if cfg.mse_only:
            g_loss = g_mse
        else:
            # the generator trains against a frozen copy of the discriminator
            frozen = {path: p.detach() for path, p in disc.items()}
            d_fake_live = discriminator_forward(fake, frozen, mcfg)
            g_adv = gen_adv_loss(d_fake_live, cfg.loss_variant)
            g_loss = add(g_adv, affine(g_mse, cfg.lam, 0.0))
            losses["g_adv"] = g_adv.item()
    adam_step(gen, gg.backward(g_loss, gen), state.gen_adam, cfg.lr)
    losses["g_mse"] = g_mse.item()

    state.step += 1
    bad = [k for k, v in losses.items() if v is not None and not np.isfinite(v)]
    if bad:
        raise NumericsError(f"step {state.step}: non-finite loss ({losses})")
    state.history.append(dict(losses, step=state.step))
    return losses


# ---------------------------------------------------------------------------
# full runs


def write_grid(state: TrainState, corpus, scale, spec, path, count: int = 4, seed: int = 0):
    """PPM mosaic of rows [clean | degraded | restored] for the first images."""
    clean = [corpus.image(i, *scale) for i in range(min(count, len(corpus)))]
    s = np.stack([degrade(img8, spec, np.random.default_rng([seed, 2000, i]))
                  for i, img8 in enumerate(clean)])
    restored = model_restorer(state.params, state.model_config)(s)
    rows = [np.concatenate([to_unit(img8), si, ri], axis=-1)
            for img8, si, ri in zip(clean, s, restored)]
    mosaic = np.concatenate(rows, axis=-2)
    save_image(np.broadcast_to(mosaic, (3,) + mosaic.shape[1:]), path)


def _fmt(v) -> str:
    return "" if v is None else repr(float(v))


def train(cfg: TrainConfig, model_cfg: SgenConfig, corpus, scales, spec,
          out_dir, val_corpus=None, state: TrainState | None = None,
          verbose: bool = False) -> TrainState:
    """Full training run: round-robin over scales, one train_step per minibatch.

    Writes `loss_log.csv` (header step,d_loss,g_adv,g_mse,val_psnr; val_psnr
    blank except on validation steps), the final checkpoint `sgen.ckpt`, and
    sample grids (periodic when cfg.grid_every > 0, always one at the end).
    Raises DivergenceError when any loss magnitude exceeds the limit.
    """
    if len(corpus) == 0:
        raise ConfigError("training corpus is empty")
    if not scales:
        raise ConfigError("no training scales given")
    if state is None:
        state = init_state(model_cfg, cfg.seed)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    grid_corpus = val_corpus if val_corpus is not None and len(val_corpus) else corpus
    rng = np.random.default_rng(cfg.seed)

    csv_rows = ["step,d_loss,g_adv,g_mse,val_psnr"]
    last = state.step + cfg.steps  # this call's last step; a resumed run starts past 0
    for _ in range(cfg.steps):
        scale = scales[state.step % len(scales)]
        batch = make_batch(corpus, scale, cfg.batch_size, spec, rng)
        losses = train_step(batch, state, cfg)
        worst = max(abs(v) for v in losses.values() if v is not None)
        if worst > cfg.divergence_limit:
            raise DivergenceError(
                f"step {state.step}: loss magnitude {worst:.3g} exceeds "
                f"divergence limit {cfg.divergence_limit:.3g} ({losses})")
        val = None
        if val_corpus is not None and cfg.val_every and (
                state.step % cfg.val_every == 0 or state.step == last):
            val = eval_model(model_restorer(state.params, state.model_config), val_corpus,
                             scales, spec, seed=cfg.seed, limit=cfg.val_count).mean_psnr
            state.history[-1]["val_psnr"] = val
        if verbose and (val is not None or state.step == last):
            parts = [f"step {state.step}/{last}"]
            for key in ("d_loss", "g_adv", "g_mse"):
                if losses[key] is not None:
                    parts.append(f"{key}={losses[key]:.4f}")
            if val is not None:
                parts.append(f"val_psnr={val:.2f}")
            print("  ".join(parts), flush=True)
        csv_rows.append(f"{state.step},{_fmt(losses['d_loss'])},{_fmt(losses['g_adv'])},"
                        f"{_fmt(losses['g_mse'])},{_fmt(val)}")
        if cfg.grid_every and state.step % cfg.grid_every == 0:
            write_grid(state, grid_corpus, scales[0], spec,
                       out_dir / f"grid_step{state.step:06d}.ppm", seed=cfg.seed)

    with atomic_write(out_dir / "loss_log.csv") as fh:
        fh.write(("\n".join(csv_rows) + "\n").encode())
    save_checkpoint(state.params, model_cfg, out_dir / "sgen.ckpt")
    write_grid(state, grid_corpus, scales[0], spec, out_dir / "grid_final.ppm", seed=cfg.seed)
    return state
