"""Interleaved A/B of adversarial train steps: this checkout against a git revision.

    OPENBLAS_NUM_THREADS=1 python3 tools/ab_train_step.py [REV] [STEPS]

REV (default HEAD) is exported with `git archive` into a temporary
directory; its package is imported as `sgen_base` and this checkout's
`src/sgen` as `sgen_head`, so both live in one process.  Each tree gets a
fresh training state from the same seed.  Every step draws one adversarial
batch-8 minibatch (default scales in turn) and runs `train_step` on it in
both trees, alternating which tree goes first.  Prints each tree's median
and minimum step time in ms per scale, and the largest |difference|
between the trees in the step losses and, after the last step, in the
parameters and both Adam moments.  Before the steps it prints, per
combiner, level (2, 3, 4) and channel plan (base_channels, disc_channels)
of (8, 8) and (3, 5), whether `param_layout` matches item for item, and
the largest |difference| in `init_params` and in one fixed-seed 64x32
forward: the generator's output and every `acts` entry, and the
discriminator's score of that output.
Exits 1 when any printed difference is not zero or the trees' `param_layout`
or `acts` keys differ, else 0; the step times are printed, not judged.
It needs no network and changes nothing in either tree.
"""

from __future__ import annotations

import importlib
import importlib.util
import itertools
import math
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SCALES = [(48, 32), (64, 48), (80, 64)]
BATCH = 8
SEED = 0


def import_tree(src: Path, name: str):
    """The package at src/sgen, imported under `name` with its submodules."""
    spec = importlib.util.spec_from_file_location(
        name, src / "sgen" / "__init__.py", submodule_search_locations=[str(src / "sgen")])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    for sub in ("autodiff", "data", "model", "train"):
        setattr(pkg, sub, importlib.import_module(f"{name}.{sub}"))
    return pkg


def export(rev: str, dest: Path) -> Path:
    """`git archive` of rev's src/ unpacked under dest; returns its src directory."""
    archive = dest / "tree.tar"
    subprocess.run(["git", "-C", str(ROOT), "archive", "-o", str(archive), rev, "src"],
                   check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


def max_diff(a, b) -> float:
    return max((float(np.abs(np.asarray(x) - np.asarray(y)).max()) for x, y in zip(a, b)),
               default=0.0)


def main(argv: list[str]) -> int:
    rev = argv[0] if argv else "HEAD"
    steps = int(argv[1]) if len(argv) > 1 else 30
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"base": import_tree(export(rev, Path(tmp)), "sgen_base"),
                 "head": import_tree(ROOT / "src", "sgen_head")}
        diffs = compare_forwards(trees)
        states, times, loss_diff = run(trees, steps)
    for scale in SCALES[:steps]:  # the scales a step ran at
        for key in trees:
            ms = times[key][scale]
            print(f"{key} {scale[0]}x{scale[1]}: median {statistics.median(ms):.2f} ms, "
                  f"min {min(ms):.2f} ms over {len(ms)} steps")
    base, head = states["base"], states["head"]
    print(f"max |diff| losses: {loss_diff:.3g}")
    diffs.append(loss_diff)
    diffs.append(max_diff([p.data for p in base.params.values()],
                          [head.params[k].data for k in base.params]))
    print(f"max |diff| params: {diffs[-1]:.3g}")
    for moment in ("m", "v"):
        diffs.append(max(max_diff(getattr(a, moment).values(),
                                  [getattr(b, moment)[k] for k in getattr(a, moment)])
                         for a, b in ((base.gen_adam, head.gen_adam),
                                      (base.disc_adam, head.disc_adam))))
        print(f"max |diff| adam {moment}: {diffs[-1]:.3g}")
    if any(diffs):
        print("the trees differ")
        return 1
    return 0


def compare_forwards(trees: dict) -> list[float]:
    """Print, per model config, the layout match and the largest differences in
    init_params and one forward; returns those differences, inf for a config
    whose layouts or acts keys differ."""
    found = []
    s = np.random.default_rng(SEED).uniform(-1.0, 1.0, (2, 1, 64, 32))
    for combiner in trees["head"].model.COMBINERS:
        for levels, (base, disc) in itertools.product((2, 3, 4), ((8, 8), (3, 5))):
            name = f"{combiner} levels={levels} channels=({base}, {disc})"
            layouts, params, acts, scores = {}, {}, {}, {}
            for key, tree in trees.items():
                cfg = tree.model.SgenConfig(levels=levels, base_channels=base,
                                            disc_channels=disc, combiner=combiner)
                layouts[key] = list(tree.model.param_layout(cfg).items())
                params[key], acts[key] = tree.model.init_params(cfg, SEED), {}
                out = tree.model.generator_forward(tree.autodiff.Tensor(s), params[key], cfg,
                                                   acts=acts[key])
                acts[key]["gen.out.conv"] = out
                scores[key] = tree.model.discriminator_forward(out, params[key], cfg)
            if list(acts["base"]) != list(acts["head"]) or layouts["base"] != layouts["head"]:
                print(f"{name}: the trees' param_layout or acts keys differ")
                found.append(math.inf)
                continue
            diffs = [max_diff(*([t.data for t in d[key].values()] for key in ("base", "head")))
                     for d in (params, acts)]
            diffs.append(max_diff([scores["base"].data], [scores["head"].data]))
            print("{}: param_layout equal, max |diff| init_params {:.3g}, generator output and "
                  "acts {:.3g}, discriminator {:.3g}".format(name, *diffs))
            found += diffs
    return found


def run(trees: dict, steps: int):
    """(states, step ms per tree and scale, largest loss difference) after `steps` batches."""
    data = trees["head"].data
    corpus, spec = data.SyntheticCorpus(512), data.DegradationSpec()
    rng = np.random.default_rng(SEED)
    states = {k: tree.train.init_state(tree.model.SgenConfig(seed=SEED), SEED)
              for k, tree in trees.items()}
    cfgs = {k: tree.train.TrainConfig(batch_size=BATCH, seed=SEED) for k, tree in trees.items()}
    times = {k: {scale: [] for scale in SCALES} for k in trees}
    loss_diff = 0.0
    for step in range(steps):
        scale = SCALES[step % len(SCALES)]
        batch = data.make_batch(corpus, scale, BATCH, spec, rng)
        losses = {}
        for key in list(trees)[::1 if step % 2 == 0 else -1]:
            tensor = trees[key].autodiff.Tensor
            local = trees[key].data.Batch(s=tensor(batch.s.data.copy()),
                                          t=tensor(batch.t.data.copy()))
            t0 = time.perf_counter()
            losses[key] = trees[key].train.train_step(local, states[key], cfgs[key])
            times[key][scale].append(1e3 * (time.perf_counter() - t0))
        loss_diff = max(loss_diff, *(abs(losses["base"][k] - losses["head"][k])
                                     for k in ("d_loss", "g_adv", "g_mse")))
    return states, times, loss_diff


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
