"""Command-line entry point: train, eval, restore, degrade, gates, ablate.

`restore` runs the generator in float32 over weights cast once
(metrics.model_restorer, which falls back to float64 where float32 cannot
hold the values); every other command runs float64 throughout.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys


def _thread_count_ok(n: str) -> bool:
    """Whether an SGEN_THREADS value is a positive integer in ASCII digits."""
    # str.isdigit() also accepts digits that int() refuses (superscript two)
    # or that the BLAS libraries cannot parse (Arabic-Indic one)
    return n.isascii() and n.isdigit() and int(n) >= 1


def _bound_threads() -> None:
    """Propagate SGEN_THREADS to the BLAS thread knobs before numpy loads."""
    n = os.environ.get("SGEN_THREADS", "")
    if _thread_count_ok(n):
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            os.environ.setdefault(var, n)


_bound_threads()

import numpy as np  # noqa: E402  (after the thread bound on purpose)

from dataclasses import fields, replace  # noqa: E402
from pathlib import Path  # noqa: E402

from .config import RunConfig, build_run_config  # noqa: E402
from .data import (NOISE_KINDS, atomic_write, degrade, load_image, read_image,  # noqa: E402
                   save_image)
from .errors import (CheckpointError, ConfigError, ImageFormatError,  # noqa: E402
                     SgenError, UsageError)
from .metrics import eval_model, model_restorer, pad_to_divisor  # noqa: E402
from .model import COMBINERS, DISC_MIN_HW, dump_gates, load_checkpoint  # noqa: E402
from .train import train  # noqa: E402
from .autodiff import Tensor  # noqa: E402

# a missing path, or a file where a directory belongs or the other way round
_USAGE_ERRORS = (ConfigError, UsageError, ImageFormatError, CheckpointError,
                 FileNotFoundError, NotADirectoryError, IsADirectoryError, FileExistsError)


# every argument a subcommand may take; flags that set a config key are named
# after it (`--factor` sets down_factor)
_ARGS = {
    "--config": dict(metavar="PATH", help="key = value config file"),
    "--steps": dict(type=int, help="training steps"),
    "--combiner": dict(choices=COMBINERS, help="junction combiner variant"),
    "--mse-only": dict(action="store_true", default=None,
                       help="train with the MSE loss only (no discriminator)"),
    "--levels": dict(type=int, help="encoder/decoder level count"),
    "--sigma": dict(type=float, help="gaussian noise std, 8-bit units"),
    "--noise": dict(choices=NOISE_KINDS, help="degradation noise kind"),
    "--scales": dict(metavar="HxW,...", help="comma-separated scales"),
    "--seed": dict(type=int, help="run seed"),
    "--out": dict(metavar="DIR", help="output directory"),
    "--synthetic": dict(type=int, metavar="COUNT", help="use COUNT procedural training images"),
    "--checkpoint": dict(required=True, metavar="PATH"),
    "--factor": dict(type=int, dest="down_factor", help="downsampling factor override"),
    "--noise-sweep": dict(metavar="S1,S2,...", help="also evaluate under these gaussian sigmas"),
    "input": dict(metavar="IN.pgm"),
    "output": dict(metavar="OUT.pgm"),
}
_TRAIN_ARGS = ("--config", "--steps", "--combiner", "--mse-only", "--levels", "--sigma",
               "--noise", "--scales", "--seed", "--out", "--synthetic")

# subcommand -> (help, the arguments it reads)
_SUBCOMMANDS = {
    "train": ("train a model, write checkpoint + logs", _TRAIN_ARGS),
    "eval": ("per-scale PSNR/SSIM table for a checkpoint",
             ("--config", "--sigma", "--noise", "--scales", "--seed", "--out",
              "--synthetic", "--checkpoint")),
    "restore": ("restore one image through a checkpoint", ("--checkpoint", "input", "output")),
    "degrade": ("apply the degradation model to one image",
                ("--config", "--sigma", "--noise", "--seed", "--factor", "input", "output")),
    "gates": ("dump per-junction gate maps as PGM files",
              ("--config", "--out", "--checkpoint", "input")),
    "ablate": ("train/evaluate all combiner and loss variants",
               tuple(a for a in _TRAIN_ARGS if a not in ("--combiner", "--mse-only"))
               + ("--noise-sweep",)),
}

_RUN_KEYS = {f.name for f in fields(RunConfig)}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `sgen` parser, built on first use: it reads only module constants."""
    parser = argparse.ArgumentParser(
        prog="sgen",
        description="Multi-scale noise-robust face restoration with a "
                    "sequentially gated encoder-decoder GAN.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, names) in _SUBCOMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name in names:
            p.add_argument(name, **_ARGS[name])
    return parser


def _run_config(args) -> RunConfig:
    return build_run_config(args.config, {k: v for k, v in vars(args).items()
                                          if k in _RUN_KEYS and v is not None})


def _check_scales(scales, adversarial: bool):
    if adversarial:
        for h, w in scales:
            if h < DISC_MIN_HW or w < DISC_MIN_HW:
                raise ConfigError(
                    f"scale {h}x{w} is below the discriminator minimum "
                    f"{DISC_MIN_HW}x{DISC_MIN_HW}; use --mse-only or larger scales")
    return scales


# ---------------------------------------------------------------------------
# subcommands


def cmd_train(args) -> int:
    run = _run_config(args)
    mcfg = run.sgen_config()
    tcfg = run.train_config()
    spec = run.degradation_spec()
    scales = _check_scales(run.scale_list(), adversarial=not tcfg.mse_only)
    train_corpus, val_corpus = run.corpora()
    state = train(tcfg, mcfg, train_corpus, scales, spec, run.out,
                  val_corpus=val_corpus, verbose=True)
    print(f"wrote checkpoint {Path(run.out) / 'sgen.ckpt'} after {state.step} steps")
    return 0


def cmd_eval(args) -> int:
    run = _run_config(args)
    params, mcfg = load_checkpoint(args.checkpoint)
    # the scale divisor and the corpus channels are the model's
    run = replace(run, levels=mcfg.levels, image_channels=mcfg.image_channels)
    spec = run.degradation_spec()
    scales = run.scale_list()
    corpus = run.eval_corpus()
    out = Path(run.out)
    out.mkdir(parents=True, exist_ok=True)
    report = eval_model(model_restorer(params, mcfg), corpus, scales, spec, seed=run.seed)
    csv_text = report.to_csv()
    with atomic_write(out / "metrics.csv") as fh:
        fh.write(csv_text.encode())
    print(csv_text, end="")
    print(f"wrote {out / 'metrics.csv'}")
    return 0


def cmd_restore(args) -> int:
    params, mcfg = load_checkpoint(args.checkpoint)
    img = load_image(args.input, mcfg.image_channels)
    save_image(model_restorer(params, mcfg, np.float32)(img[None])[0], args.output)
    print(f"restored {args.input} -> {args.output}")
    return 0


def cmd_degrade(args) -> int:
    run = _run_config(args)
    spec = run.degradation_spec()
    rng = np.random.default_rng(run.seed)
    save_image(degrade(read_image(args.input), spec, rng), args.output)
    print(f"degraded {args.input} -> {args.output}")
    return 0


def cmd_gates(args) -> int:
    run = _run_config(args)
    params, mcfg = load_checkpoint(args.checkpoint)
    img = load_image(args.input, mcfg.image_channels)
    s = Tensor(pad_to_divisor(img[None], mcfg.divisor))
    stats = dump_gates(params, mcfg, s, run.out)
    for junction in sorted(stats):
        print(f"{junction}: mean(ga + gp) = {stats[junction]:.4f}")
    print(f"wrote gate maps to {run.out}")
    return 0


def cmd_ablate(args) -> int:
    run = _run_config(args)
    spec = run.degradation_spec()
    # every flag is checked before the first variant trains or the output exists
    scales = _check_scales(run.scale_list(), adversarial=True)
    try:
        sigmas = [float(v) for v in args.noise_sweep.split(",")] if args.noise_sweep else []
    except ValueError:
        raise ConfigError(f"bad --noise-sweep {args.noise_sweep!r}") from None
    sweep_specs = [replace(spec, noise="gaussian", sigma=sg) for sg in sigmas]
    train_corpus, val_corpus = run.corpora()
    out = Path(run.out)
    out.mkdir(parents=True, exist_ok=True)

    def one_run(name, mcfg, mse_only):
        """Train one variant; returns a restorer over its final weights."""
        tcfg = replace(run.train_config(), mse_only=mse_only)
        state = train(tcfg, mcfg, train_corpus, scales, spec, out / f"ablate_{name}",
                      val_corpus=val_corpus)
        print(f"trained {name} variant ({tcfg.steps} steps)", flush=True)
        return model_restorer(state.params, mcfg)

    def report_rows(name, restore, eval_spec):
        report = eval_model(restore, val_corpus, scales, eval_spec, seed=run.seed)
        return [f"{name},{line}" for line in report.to_csv().splitlines()[1:]]

    lines = ["variant,scale,psnr,ssim,n"]
    for comb in COMBINERS:
        restore = one_run(comb, replace(run.sgen_config(), combiner=comb), mse_only=True)
        lines.extend(report_rows(comb, restore, spec))
        if comb == "sgu":
            sgu_mse = restore  # the noise sweep reuses its phase kernels

    restore = one_run("sgu_adv", replace(run.sgen_config(), combiner="sgu"), mse_only=False)
    lines.extend(report_rows("sgu_adv", restore, spec))

    for sweep_spec in sweep_specs:
        lines.extend(report_rows(f"sgu@sigma{sweep_spec.sigma:g}", sgu_mse, sweep_spec))

    with atomic_write(out / "ablation.csv") as fh:
        fh.write(("\n".join(lines) + "\n").encode())
    print(f"wrote {out / 'ablation.csv'}")
    return 0


_COMMANDS = {"train": cmd_train, "eval": cmd_eval, "restore": cmd_restore,
             "degrade": cmd_degrade, "gates": cmd_gates, "ablate": cmd_ablate}


def main(argv=None) -> int:
    threads = os.environ.get("SGEN_THREADS")
    if threads is not None and not _thread_count_ok(threads):
        print(f"sgen: error: SGEN_THREADS must be a positive integer, got {threads!r}",
              file=sys.stderr)
        return 2
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _USAGE_ERRORS as exc:
        print(f"sgen: error: {exc}", file=sys.stderr)
        return 2
    except (SgenError, OSError, MemoryError) as exc:
        print(f"sgen: failure: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())
