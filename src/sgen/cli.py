"""Command-line entry point: train, eval, restore, degrade, gates, ablate."""

from __future__ import annotations

import argparse
import os
import sys


def _bound_threads() -> None:
    """Propagate SGEN_THREADS to the BLAS thread knobs before numpy loads."""
    n = os.environ.get("SGEN_THREADS", "")
    if n.isdigit() and int(n) >= 1:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            os.environ.setdefault(var, n)


_bound_threads()

import numpy as np  # noqa: E402  (after the thread bound on purpose)

from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

from .config import RunConfig, build_run_config  # noqa: E402
from .data import degrade, load_image, read_netpbm, save_image  # noqa: E402
from .errors import (CheckpointError, ConfigError, ImageFormatError,  # noqa: E402
                     SgenError, UsageError)
from .metrics import eval_model, model_restorer, pad_to_divisor  # noqa: E402
from .model import COMBINERS, DISC_MIN_HW, dump_gates, load_checkpoint  # noqa: E402
from .train import train  # noqa: E402
from .autodiff import Tensor  # noqa: E402

_USAGE_ERRORS = (ConfigError, UsageError, ImageFormatError, CheckpointError,
                 FileNotFoundError, NotADirectoryError)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgen",
        description="Multi-scale noise-robust face restoration with a "
                    "sequentially gated encoder-decoder GAN.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", metavar="PATH", help="key = value config file")
        p.add_argument("--steps", type=int, help="training steps")
        p.add_argument("--combiner", choices=COMBINERS, help="junction combiner variant")
        p.add_argument("--mse-only", action="store_true", default=None,
                       help="train with the MSE loss only (no discriminator)")
        p.add_argument("--levels", type=int, help="encoder/decoder level count")
        p.add_argument("--sigma", type=float, help="gaussian noise std, 8-bit units")
        p.add_argument("--noise", choices=("gaussian", "uniform", "none"),
                       help="degradation noise kind")
        p.add_argument("--scales", metavar="HxW,...", help="comma-separated scales")
        p.add_argument("--seed", type=int, help="run seed")
        p.add_argument("--out", metavar="DIR", help="output directory")
        p.add_argument("--synthetic", type=int, metavar="COUNT",
                       help="use COUNT procedural training images")
        return p

    common(sub.add_parser("train", help="train a model, write checkpoint + logs"))

    p = common(sub.add_parser("eval", help="per-scale PSNR/SSIM table for a checkpoint"))
    p.add_argument("--checkpoint", required=True, metavar="PATH")

    p = common(sub.add_parser("restore", help="restore one image through a checkpoint"))
    p.add_argument("--checkpoint", required=True, metavar="PATH")
    p.add_argument("input", metavar="IN.pgm")
    p.add_argument("output", metavar="OUT.pgm")

    p = common(sub.add_parser("degrade", help="apply the degradation model to one image"))
    p.add_argument("--factor", type=int, help="downsampling factor override")
    p.add_argument("input", metavar="IN.pgm")
    p.add_argument("output", metavar="OUT.pgm")

    p = common(sub.add_parser("gates", help="dump per-junction gate maps as PGM files"))
    p.add_argument("--checkpoint", required=True, metavar="PATH")
    p.add_argument("image", metavar="IN.pgm")

    p = common(sub.add_parser("ablate", help="train/evaluate all combiner and loss variants"))
    p.add_argument("--noise-sweep", metavar="S1,S2,...",
                   help="also evaluate under these gaussian sigmas")
    return parser


def _run_config(args) -> RunConfig:
    overrides = {}
    for flag, key in (("steps", "steps"), ("combiner", "combiner"),
                      ("mse_only", "mse_only"), ("levels", "levels"),
                      ("sigma", "sigma"), ("noise", "noise"), ("scales", "scales"),
                      ("seed", "seed"), ("out", "out"), ("synthetic", "synthetic")):
        value = getattr(args, flag, None)
        if value is not None:
            overrides[key] = value
    if getattr(args, "factor", None) is not None:
        overrides["down_factor"] = args.factor
    return build_run_config(args.config, overrides)


def _check_scales(scales, adversarial: bool):
    if adversarial:
        for h, w in scales:
            if h < DISC_MIN_HW or w < DISC_MIN_HW:
                raise ConfigError(
                    f"scale {h}x{w} is below the discriminator minimum "
                    f"{DISC_MIN_HW}x{DISC_MIN_HW}; use --mse-only or larger scales")
    return scales


def _match_channels(img: np.ndarray, channels: int) -> np.ndarray:
    if img.shape[0] == channels:
        return img
    if channels == 1:
        return img.mean(axis=0, keepdims=True)
    return np.broadcast_to(img, (channels,) + img.shape[1:]).copy()


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
    spec = run.degradation_spec()
    scales = run.scale_list()
    corpus = run.eval_corpus()
    report = eval_model(model_restorer(params, mcfg), corpus, scales, spec, seed=run.seed)
    csv_text = report.to_csv()
    out = Path(run.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "metrics.csv").write_text(csv_text)
    print(csv_text, end="")
    print(f"wrote {out / 'metrics.csv'}")
    return 0


def cmd_restore(args) -> int:
    run = _run_config(args)
    params, mcfg = load_checkpoint(args.checkpoint)
    img = _match_channels(load_image(args.input), mcfg.image_channels)
    restored = model_restorer(params, mcfg)(img)
    save_image(restored, args.output)
    print(f"restored {args.input} -> {args.output}")
    return 0


def cmd_degrade(args) -> int:
    run = _run_config(args)
    spec = run.degradation_spec()
    raster = read_netpbm(args.input).astype(np.float64)
    img8 = raster[None] if raster.ndim == 2 else np.moveaxis(raster, -1, 0)
    rng = np.random.default_rng(run.seed)
    save_image(degrade(img8, spec, rng), args.output)
    print(f"degraded {args.input} -> {args.output}")
    return 0


def cmd_gates(args) -> int:
    run = _run_config(args)
    params, mcfg = load_checkpoint(args.checkpoint)
    img = _match_channels(load_image(args.image), mcfg.image_channels)
    s = Tensor(pad_to_divisor(img, mcfg.divisor)[None])
    stats = dump_gates(params, mcfg, s, run.out)
    for junction in sorted(stats):
        print(f"{junction}: mean(ga + gp) = {stats[junction]:.4f}")
    print(f"wrote gate maps to {run.out}")
    return 0


def cmd_ablate(args) -> int:
    run = _run_config(args)
    spec = run.degradation_spec()
    scales = run.scale_list()
    out = Path(run.out)
    out.mkdir(parents=True, exist_ok=True)

    def one_run(name, mcfg, tcfg):
        train_corpus, val_corpus = run.corpora()
        state = train(tcfg, mcfg, train_corpus, scales, spec, out / name,
                      val_corpus=val_corpus)
        return state, val_corpus

    def report_rows(name, params, mcfg, val_corpus, eval_spec):
        report = eval_model(model_restorer(params, mcfg), val_corpus, scales,
                            eval_spec, seed=run.seed)
        rows = [f"{name},{r.scale[0]}x{r.scale[1]},{r.psnr:.4f},{r.ssim:.6f},{r.count}"
                for r in report.rows]
        total = sum(r.count for r in report.rows)
        rows.append(f"{name},all,{report.mean_psnr:.4f},{report.mean_ssim:.6f},{total}")
        return rows

    lines = ["variant,scale,psnr,ssim,n"]
    sgu_mse = None
    for comb in COMBINERS:
        mcfg = replace(run.sgen_config(), combiner=comb)
        tcfg = replace(run.train_config(), mse_only=True)
        state, val_corpus = one_run(f"ablate_{comb}", mcfg, tcfg)
        lines.extend(report_rows(comb, state.params, mcfg, val_corpus, spec))
        if comb == "sgu":
            sgu_mse = (state.params, mcfg, val_corpus)
        print(f"trained {comb} variant ({tcfg.steps} steps)", flush=True)

    _check_scales(scales, adversarial=True)
    mcfg = run.sgen_config()
    tcfg = replace(run.train_config(), mse_only=False)
    state, val_corpus = one_run("ablate_sgu_adv", mcfg, tcfg)
    lines.extend(report_rows("sgu_adv", state.params, mcfg, val_corpus, spec))
    print(f"trained sgu_adv variant ({tcfg.steps} steps)", flush=True)

    if args.noise_sweep:
        try:
            sigmas = [float(v) for v in args.noise_sweep.split(",")]
        except ValueError:
            raise ConfigError(f"bad --noise-sweep {args.noise_sweep!r}") from None
        params, mcfg, val_corpus = sgu_mse
        for sg in sigmas:
            sweep_spec = replace(spec, noise="gaussian", sigma=sg)
            lines.extend(report_rows(f"sgu@sigma{sg:g}", params, mcfg,
                                     val_corpus, sweep_spec))

    (out / "ablation.csv").write_text("\n".join(lines) + "\n")
    print(f"wrote {out / 'ablation.csv'}")
    return 0


_COMMANDS = {"train": cmd_train, "eval": cmd_eval, "restore": cmd_restore,
             "degrade": cmd_degrade, "gates": cmd_gates, "ablate": cmd_ablate}


def main(argv=None) -> int:
    threads = os.environ.get("SGEN_THREADS")
    if threads is not None and not (threads.isdigit() and int(threads) >= 1):
        print(f"sgen: error: SGEN_THREADS must be a positive integer, got {threads!r}",
              file=sys.stderr)
        return 2
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _USAGE_ERRORS as exc:
        print(f"sgen: error: {exc}", file=sys.stderr)
        return 2
    except SgenError as exc:
        print(f"sgen: failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"sgen: failure: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())
