"""Tests of the benchmark itself: inputs, correctness checks and tracing.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import speed
import tracing
import workloads
from workloads import sgen

ROOT = workloads.ROOT


def _copy_params(params):
    return {k: sgen.autodiff.Tensor(v.data.copy(), requires_grad=True) for k, v in params.items()}


def _perturbed(params, name="gen.out.conv.w", delta=0.05):
    out = _copy_params(params)
    out[name].data[0, 0, 1, 1] += delta
    return out


def _patchable_attributes():
    """Every attribute a tracer may patch, keyed by (owner, name)."""
    snap = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "sgen" or mod_name.startswith("sgen."):
            for key, value in vars(mod).items():
                snap[mod_name, key] = value
    for cls in (sgen.autodiff.Graph, sgen.data.SyntheticCorpus):
        for key, value in vars(cls).items():
            snap[cls.__name__, key] = value
    return snap


# --- inputs -----------------------------------------------------------------

def test_inputs_repeat_for_one_seed_and_differ_across_seeds():
    assert workloads.restore_sizes(3) == workloads.restore_sizes(3)
    assert workloads.restore_sizes(3) != workloads.restore_sizes(4)
    h, w = workloads.restore_sizes(3)[0]
    a = workloads.restore_input(3, 0, h, w)
    assert np.array_equal(a, workloads.restore_input(3, 0, h, w))
    assert not np.array_equal(a, workloads.restore_input(4, 0, h, w))
    for make in (lambda s: workloads.eval_corpus(s, 0), lambda s: workloads.train_corpora(s)[0],
                 lambda s: workloads.train_corpora(s)[1]):
        img = make(3).image(0, 48, 32)
        assert np.array_equal(img, make(3).image(0, 48, 32))
        assert not np.array_equal(img, make(4).image(0, 48, 32))


def test_heldout_ids_are_disjoint():
    train, val = workloads.train_corpora(5)
    ranges = [(train.offset, train.offset + len(train)), (val.offset, val.offset + len(val))]
    for call in (0, 10**4):
        c = workloads.eval_corpus(5, call)
        ranges.append((c.offset, c.offset + len(c)))
    ranges.sort()
    assert all(a[1] <= b[0] for a, b in zip(ranges, ranges[1:]))


def test_restore_sizes_are_valid_and_mostly_need_padding():
    for seed in range(5):
        sizes = workloads.restore_sizes(seed)
        assert len(sizes) == workloads.RESTORE_POOL
        for h, w in sizes:
            assert h % 4 == 0 and w % 4 == 0
            assert 48 <= min(h, w) and max(h, w) <= 384
        assert sum(1 for h, w in sizes if h % 16 or w % 16) > len(sizes) // 2


def test_train_steps_are_whole_cycles_and_enough_for_p90():
    for seconds in (1, 7, 20, 60):
        steps = workloads.train_steps(seconds)
        assert steps % len(workloads.SCALES) == 0 and steps >= workloads.MIN_OPS


# --- correctness checks -------------------------------------------------------

@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_reference_check_passes_and_catches_one_perturbed_weight(name, tmp_path):
    observed = workloads.observe_reference(name, tmp_path / "clean")
    assert workloads.reference_problems(name, observed) == []
    seed = 0 if name == "train-adv" else workloads.CK_SEED
    params = sgen.model.init_params(workloads.model_config(seed))
    bad = workloads.observe_reference(name, tmp_path / "bad", params=_perturbed(params))
    assert workloads.reference_problems(name, bad) != []


def test_eval_report_check_rejects_a_non_finite_row():
    restore = sgen.metrics.model_restorer(
        sgen.model.init_params(workloads.model_config(0)), workloads.model_config(0))
    report = sgen.metrics.eval_model(restore, workloads.eval_corpus(0, 0), workloads.SCALES,
                                     workloads.SPEC, seed=0)
    assert workloads.eval_report_problem(report) is None
    report.rows[1].psnr = float("nan")
    assert "psnr" in workloads.eval_report_problem(report)


# --- tracing ------------------------------------------------------------------

def test_tracer_restores_every_patched_attribute():
    before = _patchable_attributes()
    tracer = tracing.Tracer("cli.main")
    with tracer:
        during = _patchable_attributes()
        assert sgen.model.conv2d is not before["sgen.model", "conv2d"]
        assert sgen.train.train_step is not before["sgen.train", "train_step"]
    changed = {k for k in before if during.get(k) is not before[k]}
    assert len(changed) >= len(tracer.targets)
    after = _patchable_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_and_untraced_outputs_are_bit_identical(tmp_path):
    ck = tmp_path / "model.ckpt"
    workloads.write_checkpoint(ck)
    src = tmp_path / "in.pgm"
    sgen.data.save_image(workloads.restore_input(2, 0, 100, 76), src)

    def outputs(traced):
        dst = tmp_path / f"out-{traced}.pgm"
        tracer = tracing.Tracer("cli.main") if traced else None
        if tracer:
            tracer.install()
        try:
            code, _ = workloads.restore_request(ck, src, dst)
            mcfg = workloads.model_config(1)
            state = sgen.train.init_state(mcfg, 1)
            corpus, _ = workloads.train_corpora(1)
            rng = np.random.default_rng(0)
            losses = [sgen.train.train_step(
                sgen.data.make_batch(corpus, scale, 2, workloads.SPEC, rng), state,
                workloads.train_config(1, 2)) for scale in workloads.SCALES[:2]]
            params, cfg = sgen.model.load_checkpoint(ck)
            report = sgen.metrics.eval_model(sgen.metrics.model_restorer(params, cfg),
                                             workloads.eval_corpus(1, 0), workloads.SCALES,
                                             workloads.SPEC, seed=1)
        finally:
            if tracer:
                tracer.uninstall()
        assert code == 0
        return (dst.read_bytes(), losses, {k: v.data for k, v in state.params.items()},
                report.to_csv(), tracer)

    plain, traced = outputs(False), outputs(True)
    assert plain[0] == traced[0]
    assert plain[1] == traced[1]
    assert all(np.array_equal(plain[2][k], traced[2][k]) for k in plain[2])
    assert plain[3] == traced[3]
    assert traced[4].ops == 1 and len(traced[4].spans) > 100


def test_self_times_add_up_to_operation_wall_time(tmp_path):
    params = sgen.model.init_params(workloads.model_config(0))
    with tracing.Tracer("metrics.eval_model") as tracer:
        restore = sgen.metrics.model_restorer(params, workloads.model_config(0))
        for call in range(2):
            sgen.metrics.eval_model(restore, workloads.eval_corpus(0, call), workloads.SCALES,
                                    workloads.SPEC, seed=0)
    a = tracer.arrays()
    inner = a["parent"] >= 0
    parent = a["parent"][inner]
    assert (a["start"][inner] >= a["start"][parent]).all()
    assert (a["end"][inner] <= a["end"][parent]).all()
    assert (a["self"] >= 0).all()
    wall, accounted = tracer.accounting()
    assert tracer.ops == 2 and wall > 0
    assert accounted == pytest.approx(wall, rel=1e-9)


def test_counts_repeat_exactly(tmp_path):
    ck = tmp_path / "model.ckpt"
    workloads.write_checkpoint(ck)
    src = tmp_path / "in.pgm"
    sgen.data.save_image(workloads.restore_input(0, 0, 68, 100), src)

    def counts():
        with tracing.Tracer("cli.main") as tracer:
            for _ in range(2):
                workloads.restore_request(ck, src, tmp_path / "out.pgm")
        m = tracing.layer_metrics(tracer, 2, 1.0)
        return {k: v for k, v in m.items() if k.endswith(("calls", "gflop", "im2col_mb",
                                                          "scatter_adds", "tape_nodes"))}

    first, second = counts(), counts()
    assert first == second
    assert first["autodiff.conv2d.calls"] == 16 and first["autodiff.deconv2d.scatter_adds"] > 0


# --- the benchmark as its command line and BENCHMARK.json present it -----------

def test_benchmark_json_names_every_metric_and_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.LAYER_METRICS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "eval-heldout",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_speed_scaling_uses_neighbouring_probes():
    p = speed.SpeedProbe()
    ref = speed.REFERENCE_PROBE_S
    # probe times ref, 2*ref, 2*ref; each probe takes 1 s of wall time
    p.samples = [(0.0, 1.0, ref), (11.0, 12.0, 2 * ref), (22.0, 23.0, 2 * ref)]
    p.op_sample = [0, 0, 1, 2]
    assert p.factors() == [1 / 1.5, 0.5, 0.5]
    assert p.scale_ops([3.0, 3.0, 4.0, 4.0]) == [2.0, 2.0, 2.0, 2.0]
    # 0..30 s: probes excluded; the 2 s before the first probe and the 10 s
    # after it scale by 1/1.5, the rest by 0.5
    assert p.scale_interval(-2.0, 30.0) == pytest.approx(12 / 1.5 + 10 * 0.5 + 7 * 0.5)
    with pytest.raises(ValueError):
        p.scale_ops([1.0])
