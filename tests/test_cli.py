import os
import re
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest

from sgen import cli
from sgen.autodiff import Tensor
from sgen.cli import main
from sgen.config import RunConfig, build_run_config, parse_config_file
from sgen.data import DegradationSpec, load_image, read_netpbm, synth_face, to_bytes, write_netpbm
from sgen.errors import ConfigError
from sgen.metrics import eval_model, model_restorer, pad_to_divisor
from sgen.model import SgenConfig, generator_forward, init_params, load_checkpoint, save_checkpoint
from sgen.train import TrainConfig, train

TINY_KEYS = {"levels": 2, "base_channels": 2, "steps": 2, "batch_size": 2,
             "mse_only": True, "scales": "32x32", "synthetic": 4,
             "val_images": 2, "val_every": 0, "seed": 3}


def write_config(path, **extra):
    merged = dict(TINY_KEYS, **extra)
    lines = [f"{k} = {str(v).lower() if isinstance(v, bool) else v}" for k, v in merged.items()]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


# ---------------------------------------------------------------------------
# config files


def test_parse_config_file_values(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nlevels = 2\n\nsigma = 12.5  # inline\nmse_only = true\n"
                    "scales = 32x32\n")
    values = parse_config_file(path)
    assert values == {"levels": 2, "sigma": 12.5, "mse_only": True, "scales": "32x32"}


def test_parse_config_unknown_key_names_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("levels = 2\nwidth = 8\n")
    with pytest.raises(ConfigError, match=r"run\.cfg:2.*width"):
        parse_config_file(path)


def test_parse_config_duplicate_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 1\nseed = 2\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_file(path)


def test_parse_config_bad_value_type(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("steps = soon\n")
    with pytest.raises(ConfigError, match="int"):
        parse_config_file(path)
    path.write_text("mse_only = maybe\n")
    with pytest.raises(ConfigError, match="true/false"):
        parse_config_file(path)
    path.write_bytes(b"# caf\xe9 (Latin-1)\nsteps = 2\n")
    with pytest.raises(ConfigError, match=r"run\.cfg is not UTF-8"):
        parse_config_file(path)


def test_parse_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="does not exist"):
        parse_config_file(tmp_path / "absent.cfg")


def test_parse_config_requires_equals(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("levels 2\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_file(path)


def test_build_run_config_precedence(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("steps = 7\nseed = 1\n")
    run = build_run_config(path, {"seed": 9})
    assert run.steps == 7 and run.seed == 9
    assert build_run_config(None, None) == RunConfig()
    with pytest.raises(ConfigError, match="unknown"):
        build_run_config(None, {"depth": 3})


def test_run_config_matches_library_defaults(tmp_path):
    run = RunConfig()
    assert run.sgen_config() == SgenConfig()
    assert run.train_config() == TrainConfig()
    assert run.degradation_spec() == DegradationSpec()
    # every library field is a config-file key
    defaults = {**asdict(SgenConfig()), **asdict(TrainConfig()), **asdict(DegradationSpec())}
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in defaults.items()))
    assert parse_config_file(path) == defaults


def test_eval_corpus_is_held_out(tmp_path):
    def ids(corpus):
        return set(range(corpus.offset, corpus.offset + len(corpus)))

    run = RunConfig(synthetic=50, synthetic_offset=7, val_images=20)
    assert ids(run.corpora()[0]) == set(range(7, 57))
    assert ids(run.eval_corpus()) == set(range(57, 77))
    for i in range(10):
        write_netpbm(synth_face(i, 16, 16), tmp_path / f"{i:02d}.pgm")
    run = RunConfig(corpus=str(tmp_path), split="0.6,0.2,0.2")
    assert run.corpora()[0].indices == [0, 1, 2, 3, 4, 5]
    assert run.eval_corpus().indices == [6, 7]


def test_scale_list_parsing():
    run = RunConfig(scales="48x32, 64x48")
    assert run.scale_list() == [(48, 32), (64, 48)]
    with pytest.raises(ConfigError, match="48x32"):
        RunConfig(scales="48by32").scale_list()
    with pytest.raises(ConfigError, match="multiples of 16"):
        RunConfig(scales="50x32").scale_list()


# ---------------------------------------------------------------------------
# shared trained run


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = write_config(root / "run.cfg")
    out = root / "run_out"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    return {"cfg": cfg, "out": out, "ckpt": out / "sgen.ckpt", "root": root}


def test_train_writes_artifacts(trained):
    assert trained["ckpt"].is_file()
    lines = (trained["out"] / "loss_log.csv").read_text().strip().split("\n")
    assert lines[0] == "step,d_loss,g_adv,g_mse,val_psnr"
    assert len(lines) == 3
    assert read_netpbm(trained["out"] / "grid_final.ppm").ndim == 3


def test_train_zero_steps_checkpoint_is_initialization(tmp_path):
    cfg = write_config(tmp_path / "run.cfg", steps=0)
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    params, mcfg = load_checkpoint(tmp_path / "o" / "sgen.ckpt")
    fresh = init_params(SgenConfig(levels=2, base_channels=2, seed=3), seed=3)
    assert params.keys() == fresh.keys()
    for k in fresh:
        assert np.array_equal(params[k].data, fresh[k].data), k


def test_train_without_data_exits_2(tmp_path, capsys):
    assert main(["train", "--steps", "1", "--out", str(tmp_path)]) == 2
    assert "'corpus'" in capsys.readouterr().err


def test_train_rejects_bad_scales(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg", scales="50x32")
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "multiples" in capsys.readouterr().err


def test_adversarial_scale_guard(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg", scales="8x8", mse_only=False)
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "discriminator minimum" in capsys.readouterr().err


def test_eval_writes_metrics_and_is_deterministic(trained, capsys):
    args = ["eval", "--config", trained["cfg"], "--checkpoint", str(trained["ckpt"])]
    out1 = trained["root"] / "eval1"
    out2 = trained["root"] / "eval2"
    assert main(args + ["--out", str(out1)]) == 0
    text = capsys.readouterr().out
    assert "scale,psnr,ssim,n" in text
    assert main(args + ["--out", str(out2)]) == 0
    csv1 = (out1 / "metrics.csv").read_text()
    assert csv1 == (out2 / "metrics.csv").read_text()
    lines = csv1.strip().split("\n")
    assert lines[1].startswith("32x32,")
    assert lines[-1].startswith("all,")


def test_val_psnr_and_metrics_csv_score_through_one_forward(tmp_path, capsys):
    # training's last val_psnr and `sgen eval`'s metrics.csv are both the
    # library report over the trained weights, through one restorer; at
    # these sizes a float64 forward rounds some bytes differently, so the
    # exact val_psnr tells the two forwards apart
    cfg = write_config(tmp_path / "run.cfg", val_every=2, val_images=8, val_count=8,
                       scales="96x96,64x64")
    run = build_run_config(cfg)
    mcfg, tcfg, spec, scales = (run.sgen_config(), run.train_config(), run.degradation_spec(),
                                run.scale_list())
    corpus, val = run.corpora()
    assert tcfg.val_count >= len(val)  # so validation's limit keeps every image eval scores
    state = train(tcfg, mcfg, corpus, scales, spec, tmp_path / "o", val_corpus=val)
    report = eval_model(model_restorer(state.params, mcfg), val, scales, spec,
                        seed=tcfg.seed, limit=tcfg.val_count)
    assert state.history[-1]["val_psnr"] == report.mean_psnr
    assert main(["eval", "--config", cfg, "--checkpoint", str(tmp_path / "o" / "sgen.ckpt"),
                 "--out", str(tmp_path / "e")]) == 0
    assert (tmp_path / "e" / "metrics.csv").read_text() == report.to_csv()


def test_eval_takes_levels_and_channels_from_checkpoint(tmp_path):
    # one model differs from the run-config defaults in levels, one in image_channels
    cfg = tmp_path / "run.cfg"
    cfg.write_text("val_images = 2\n")
    for i, mcfg in enumerate([SgenConfig(levels=2, base_channels=2),
                              SgenConfig(base_channels=2, image_channels=3)]):
        ckpt = tmp_path / f"m{i}.ckpt"
        save_checkpoint(init_params(mcfg), mcfg, ckpt)
        assert main(["eval", "--config", str(cfg), "--checkpoint", str(ckpt),
                     "--scales", "40x40" if mcfg.levels == 2 else "32x32",
                     "--synthetic", "4", "--out", str(tmp_path / f"e{i}")]) == 0
        lines = (tmp_path / f"e{i}" / "metrics.csv").read_text().strip().split("\n")
        assert lines[-1].startswith("all,") and lines[-1].endswith(",2")


def test_eval_without_data_names_what_eval_reads(tmp_path, capsys):
    # no val_corpus, no corpus and --synthetic 0: the error names eval's own
    # sources, not training's
    mcfg = SgenConfig(levels=2, base_channels=2)
    ckpt, out = tmp_path / "m.ckpt", tmp_path / "e"
    save_checkpoint(init_params(mcfg), mcfg, ckpt)
    cfg = write_config(tmp_path / "run.cfg")
    assert main(["eval", "--config", cfg, "--checkpoint", str(ckpt), "--synthetic", "0",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "no evaluation data" in err and "'val_corpus'" in err and "--synthetic" in err
    assert "training" not in err and not out.exists()


def test_restore_pads_odd_sizes(trained, tmp_path):
    src = tmp_path / "in.pgm"
    write_netpbm(synth_face(0, 50, 34), src)
    dst = tmp_path / "out.pgm"
    assert main(["restore", "--checkpoint", str(trained["ckpt"]),
                 str(src), str(dst)]) == 0
    assert read_netpbm(dst).shape == (50, 34)


def _float64_restore(ckpt, src):
    # the float64 generator_forward over the padded image, cropped back, as bytes
    params, mcfg = load_checkpoint(ckpt)
    img = load_image(src, mcfg.image_channels)[None]
    out = generator_forward(Tensor(pad_to_divisor(img, mcfg.divisor)), params, mcfg)
    return to_bytes(out.data[0, 0, :img.shape[2], :img.shape[3]])


def test_restore_runs_float32_within_a_gray_level(tmp_path, capsys):
    mcfg = SgenConfig()
    ckpt, src, dst = tmp_path / "m.ckpt", tmp_path / "in.pgm", tmp_path / "out.pgm"
    save_checkpoint(init_params(mcfg), mcfg, ckpt)
    write_netpbm(synth_face(0, 150, 94), src)
    assert main(["restore", "--checkpoint", str(ckpt), str(src), str(dst)]) == 0
    got = read_netpbm(dst).astype(int)
    assert np.abs(got - _float64_restore(ckpt, src)).max() <= 1


def test_float32_restore_bytes_tool_on_part_of_a_pool():
    # the tool that measures the one-gray-level bound over perfbench's
    # restore pools, on their first four requests of each seed
    tool = os.path.join(os.path.dirname(__file__), "..", "tools", "float32_restore_bytes.py")
    proc = subprocess.run([sys.executable, tool, "--count", "4"], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    total, worst = re.fullmatch(r"bytes (\d+), differing \d+ \(\S+%\), largest difference (\d)\n",
                                proc.stdout).groups()
    assert int(total) > 8 * 48 * 48 and int(worst) <= 1


def test_restore_of_weights_float32_cannot_hold_is_the_float64_restore(tmp_path, capsys):
    # 1e300 is finite in float64 and inf in float32: the float64 bytes, no warning
    mcfg = SgenConfig(levels=2, base_channels=2)
    params = init_params(mcfg)
    params["gen.enc.stem1.w"].data[0, 0, 0, 0] = 1e300
    ckpt, src, dst = tmp_path / "m.ckpt", tmp_path / "in.pgm", tmp_path / "out.pgm"
    save_checkpoint(params, mcfg, ckpt)
    write_netpbm(synth_face(0, 50, 34), src)
    assert main(["restore", "--checkpoint", str(ckpt), str(src), str(dst)]) == 0
    assert capsys.readouterr().err == ""
    assert np.array_equal(read_netpbm(dst), _float64_restore(ckpt, src))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_restore_non_finite_checkpoint_exits_2(value, tmp_path, capsys):
    mcfg = SgenConfig(levels=2, base_channels=2)
    params = init_params(mcfg)
    params["gen.dec.merge2.w"].data[1, 0, 2, 3] = value
    ckpt, src = tmp_path / "m.ckpt", tmp_path / "in.pgm"
    save_checkpoint(params, mcfg, ckpt)
    write_netpbm(synth_face(0, 32, 32), src)
    assert main(["restore", "--checkpoint", str(ckpt), str(src), str(tmp_path / "o.pgm")]) == 2
    err = capsys.readouterr().err
    assert "sgen: error:" in err and "'gen.dec.merge2.w'" in err and "non-finite" in err
    assert not (tmp_path / "o.pgm").exists()


def test_restore_missing_checkpoint_exits_2(tmp_path, capsys):
    src = tmp_path / "in.pgm"
    write_netpbm(synth_face(0, 32, 32), src)
    assert main(["restore", "--checkpoint", str(tmp_path / "no.ckpt"),
                 str(src), str(tmp_path / "out.pgm")]) == 2
    assert "error" in capsys.readouterr().err


def test_restore_incomplete_checkpoint_exits_2(trained, tmp_path, capsys):
    params, mcfg = load_checkpoint(trained["ckpt"])
    del params["gen.out.conv.w"]
    save_checkpoint(params, mcfg, tmp_path / "bad.ckpt")
    src = tmp_path / "in.pgm"
    write_netpbm(synth_face(0, 32, 32), src)
    assert main(["restore", "--checkpoint", str(tmp_path / "bad.ckpt"),
                 str(src), str(tmp_path / "out.pgm")]) == 2
    assert "sgen: error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv,named", [
    (["restore", "--checkpoint", "DIR", "IN", "OUT"], "DIR"),
    (["restore", "--checkpoint", "CKPT", "DIR", "OUT"], "DIR"),
    (["restore", "--checkpoint", "CKPT", "IN", "DIR"], "DIR"),
    (["restore", "--checkpoint", "CKPT", "IN", "NOPARENT"], "NOPARENT"),
    (["train", "--config", "CFG", "--out", "FILE"], "FILE"),
    (["eval", "--config", "CFG", "--checkpoint", "CKPT", "--out", "FILE"], "FILE"),
    (["gates", "--config", "CFG", "--checkpoint", "CKPT", "--out", "FILE", "IN"], "FILE"),
    (["eval", "--config", "CFG", "--checkpoint", "DIR", "--out", "NEW"], "DIR"),
], ids=["restore-checkpoint-dir", "restore-input-dir", "restore-output-dir",
        "restore-output-no-parent", "train-out-file", "eval-out-file", "gates-out-file",
        "eval-checkpoint-dir"])
def test_path_of_the_wrong_kind_exits_2(argv, named, trained, tmp_path, capsys, monkeypatch):
    # a directory where a file belongs, a file where a directory belongs, or a
    # missing parent directory: a usage error that names the path the user gave,
    # raised before any evaluation runs or any output directory is made
    src, file, folder = tmp_path / "in.pgm", tmp_path / "file", tmp_path / "dir"
    write_netpbm(synth_face(0, 32, 32), src)
    file.write_text("")
    folder.mkdir()
    subst = {"DIR": str(folder), "IN": str(src), "OUT": str(tmp_path / "out.pgm"),
             "NOPARENT": str(tmp_path / "nodir" / "o.pgm"), "CKPT": str(trained["ckpt"]),
             "CFG": trained["cfg"], "FILE": str(file), "NEW": str(tmp_path / "new")}
    evaluations = []
    real_eval_model = cli.eval_model
    monkeypatch.setattr(cli, "eval_model",
                        lambda *a, **k: evaluations.append(a) or real_eval_model(*a, **k))
    assert main([subst.get(a, a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sgen: error: ")
    assert repr(subst[named]) in err and ".tmp" not in err
    assert not list(tmp_path.rglob("*.tmp"))
    assert not evaluations and not (tmp_path / "new").exists()


def test_degrade_identity_settings(tmp_path):
    src = tmp_path / "in.pgm"
    raster = synth_face(5, 32, 32)
    write_netpbm(raster, src)
    dst = tmp_path / "out.pgm"
    assert main(["degrade", "--noise", "none", "--factor", "1",
                 str(src), str(dst)]) == 0
    assert np.array_equal(read_netpbm(dst), raster)


def test_degrade_sigma_flag_controls_noise(tmp_path):
    src = tmp_path / "flat.pgm"
    write_netpbm(np.full((64, 64), 128, dtype=np.uint8), src)
    dst = tmp_path / "noisy.pgm"
    assert main(["degrade", "--noise", "gaussian", "--sigma", "20",
                 "--factor", "1", str(src), str(dst)]) == 0
    noise = read_netpbm(dst).astype(np.float64) - 128.0
    assert 18.5 <= noise.std() <= 21.5


def test_degrade_rejects_bad_factor(tmp_path, capsys):
    src = tmp_path / "in.pgm"
    write_netpbm(synth_face(0, 32, 32), src)
    assert main(["degrade", "--factor", "0", str(src), str(tmp_path / "o.pgm")]) == 2
    assert "down_factor" in capsys.readouterr().err


def test_degrade_rejects_non_finite_sigma(tmp_path, capsys):
    src = tmp_path / "in.pgm"
    write_netpbm(synth_face(0, 32, 32), src)
    dst = tmp_path / "o.pgm"
    assert main(["degrade", "--sigma", "nan", str(src), str(dst)]) == 2
    assert "sigma" in capsys.readouterr().err
    assert not dst.exists()


def test_gates_dumps_maps_and_stats(trained, tmp_path, capsys):
    src = tmp_path / "in.pgm"
    write_netpbm(synth_face(1, 32, 32), src)
    out = tmp_path / "gates"
    assert main(["gates", "--checkpoint", str(trained["ckpt"]),
                 "--out", str(out), str(src)]) == 0
    text = capsys.readouterr().out
    assert re.search(r"dec\.sgu2: mean\(ga \+ gp\) = \d+\.\d{4}", text)
    assert re.search(r"enc\.sgu2: mean\(ga \+ gp\) = \d+\.\d{4}", text)
    names = sorted(p.name for p in out.glob("*.pgm"))
    # enc junction: 2 gates x 4 bottleneck channels; dec junction: 2 gates x 2
    assert len(names) == 12
    assert "enc_sgu2_ga_ch00.pgm" in names
    assert "dec_sgu2_gp_ch01.pgm" in names


def test_ablate_compares_variants(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg", val_images=2, combiner="max")
    out = tmp_path / "ab"
    assert main(["ablate", "--config", cfg, "--out", str(out),
                 "--noise-sweep", "20"]) == 0
    lines = (out / "ablation.csv").read_text().strip().split("\n")
    assert lines[0] == "variant,scale,psnr,ssim,n"
    variants = {line.split(",")[0] for line in lines[1:]}
    assert variants == {"sgu", "max", "avg", "concat", "sgu_adv", "sgu@sigma20"}
    assert len(lines) == 1 + 6 * 2  # per-scale row + all row for each variant
    for comb in ("sgu", "max", "avg", "concat", "sgu_adv"):
        assert (out / f"ablate_{comb}" / "sgen.ckpt").is_file()
    # the adversarial variant is SGU whatever the config's combiner says
    assert load_checkpoint(out / "ablate_sgu_adv" / "sgen.ckpt")[1].combiner == "sgu"


def test_bad_noise_sweep_exits_2(tmp_path, capsys):
    # rejected before any variant trains or the output directory is made
    cfg = write_config(tmp_path / "run.cfg")
    out = tmp_path / "o"
    for sweep, key in [("low,high", "noise-sweep"), ("-5", "sigma")]:
        assert main(["ablate", "--config", cfg, "--out", str(out), "--noise-sweep", sweep]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("argv,key", [
    (["train", "--synthetic", "4", "--steps", "1", "--mse-only", "--seed", "-1",
      "--out", "DIR"], "seed"),
    (["degrade", "--seed", "-1", "IN", "OUT"], "seed"),
    (["train", "--config", "CFG", "--steps", "1", "--out", "DIR"], "synthetic_offset"),
], ids=["train-seed", "degrade-seed", "config-offset"])
def test_negative_seeds_exit_2(argv, key, tmp_path, capsys):
    src, dst, out = tmp_path / "in.pgm", tmp_path / "out.pgm", tmp_path / "o"
    write_netpbm(synth_face(0, 32, 32), src)
    subst = {"IN": str(src), "OUT": str(dst), "DIR": str(out),
             "CFG": write_config(tmp_path / "run.cfg", synthetic_offset=-5)}
    assert main([subst.get(a, a) for a in argv]) == 2
    assert key in capsys.readouterr().err
    assert not dst.exists() and not out.exists()


def test_negative_synthetic_exits_2(tmp_path, capsys):
    # with a corpus set, a negative count would otherwise fall through to it
    corpus, out = tmp_path / "faces", tmp_path / "o"
    corpus.mkdir()
    for i in range(10):
        write_netpbm(synth_face(i, 32, 32), corpus / f"{i:02d}.pgm")
    cfg = write_config(tmp_path / "run.cfg", synthetic=0, corpus=corpus)
    assert main(["train", "--config", cfg, "--synthetic", "-4", "--out", str(out)]) == 2
    assert "synthetic must be >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["restore", "--levels", "2", "--checkpoint", "m.ckpt", "in.pgm", "out.pgm"],
    ["degrade", "--scales", "32x32", "in.pgm", "out.pgm"],
    ["gates", "--steps", "1", "--checkpoint", "m.ckpt", "in.pgm"],
    ["eval", "--combiner", "max", "--checkpoint", "m.ckpt"],
    ["ablate", "--mse-only"],
], ids=["restore", "degrade", "gates", "eval", "ablate"])
def test_subcommand_rejects_flags_it_does_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_main_calls_in_sequence_do_not_interact(trained, tmp_path, capsys):
    # one process, one parser: a restore, an argparse error, the same restore
    # again, each with the exit code and output it gives alone
    src, dst = tmp_path / "in.pgm", tmp_path / "out.pgm"
    write_netpbm(synth_face(0, 40, 28), src)
    restore = ["restore", "--checkpoint", str(trained["ckpt"]), str(src), str(dst)]
    bad = ["restore", "--levels", "2", "--checkpoint", "m.ckpt", "in.pgm", "out.pgm"]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, err, dst.read_bytes() if dst.exists() else None

    with pytest.raises(SystemExit) as exc:
        cli.build_parser.__wrapped__().parse_args(bad)  # a parser of its own
    alone = (exc.value.code, *capsys.readouterr())
    first = run(restore)
    assert first[0] == 0 and first[3] is not None
    dst.unlink()
    assert run(bad) == alone + (None,)
    assert run(restore) == first


def test_oversized_model_exits_1(tmp_path, capsys):
    # numpy refuses the parameter arrays before it allocates anything
    cfg = write_config(tmp_path / "run.cfg", base_channels=1000000)
    assert main(["train", "--config", cfg, "--synthetic", "4", "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("sgen: failure: ")
    assert not (tmp_path / "o").exists()


def test_invalid_sgen_threads_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("SGEN_THREADS", "zero")
    assert main(["train", "--steps", "0"]) == 2
    assert "SGEN_THREADS" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["\u00b2", "\u0661"], ids=["superscript-two", "arabic-one"])
def test_non_ascii_sgen_threads_exits_2(value):
    # read when sgen.cli is imported, before main runs: no traceback there
    env = dict(os.environ, SGEN_THREADS=value)
    proc = subprocess.run([sys.executable, "-m", "sgen", "train", "--steps", "0"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("sgen: error: SGEN_THREADS must be a positive integer")


def test_module_invocation_subprocess(tmp_path):
    cfg = write_config(tmp_path / "run.cfg", steps=1)
    out = tmp_path / "o"
    env = dict(os.environ, SGEN_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "sgen", "train", "--config", cfg, "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "wrote checkpoint" in proc.stdout
    assert (out / "sgen.ckpt").is_file()


def test_cli_import_leaves_scipy_out():
    code = "import sys, sgen.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
