"""The heap policy set at `import sgen`: freed memory stays in the process.

Minor page faults are counted with getrusage. A repeated operation that
reuses kept heap memory takes none; one whose memory went back to the kernel
takes hundreds to thousands. The tests take the median over the repeats: now
and then an operation grows the heap to a new high-water mark, which faults in
fresh pages once and is not the waste the policy removes.
"""

import ctypes
import importlib
import platform
import resource
import subprocess
import sys

import numpy as np
import pytest

import sgen
from sgen.data import DegradationSpec, SyntheticCorpus, make_batch
from sgen.metrics import model_restorer
from sgen.model import SgenConfig, init_params
from sgen.train import TrainConfig, init_state, train_step

glibc_only = pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                                reason="the heap policy applies to glibc only")

FAULT_BOUND = 5  # minor faults of the median repeated operation
REPEATS = 5


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def median_faults(op, warmups: int) -> int:
    for _ in range(warmups):
        op()
    counts = []
    for _ in range(REPEATS):
        start = minor_faults()
        op()
        counts.append(minor_faults() - start)
    return sorted(counts)[REPEATS // 2]


@glibc_only
@pytest.mark.parametrize("h, w", [(96, 96), (192, 160)])
def test_repeated_forward_takes_no_page_faults(h, w):
    cfg = SgenConfig()
    restore = model_restorer(init_params(cfg, seed=0), cfg)
    x = np.random.default_rng(0).uniform(-1, 1, (1, 1, h, w))
    faults = median_faults(lambda: restore(x), warmups=2)
    assert faults < FAULT_BOUND, f"{faults} minor faults per forward at {h}x{w}"


@glibc_only
def test_repeated_train_step_takes_no_page_faults():
    state = init_state(SgenConfig(), seed=0)
    cfg = TrainConfig(batch_size=8, lr=1e-4)
    corpus, spec, rng = SyntheticCorpus(16), DegradationSpec(), np.random.default_rng(0)
    for scale in [(48, 32), (64, 48), (80, 64)]:  # one warm-up step per scale
        train_step(make_batch(corpus, scale, 8, spec, rng), state, cfg)
    batch = make_batch(corpus, (80, 64), 8, spec, rng)
    faults = median_faults(lambda: train_step(batch, state, cfg), warmups=0)
    assert faults < FAULT_BOUND, f"{faults} minor faults per adversarial step"


class _NoMallopt:
    """A C library without `mallopt`, as on macOS or a non-glibc libc."""


def test_import_without_mallopt(monkeypatch):
    opened = []
    monkeypatch.setattr(ctypes, "CDLL", lambda name: opened.append(name) or _NoMallopt())
    assert importlib.reload(sgen).__version__ == "0.1.0"
    assert opened == [None]


def test_import_leaves_numpy_out():
    # the CLI bounds BLAS threads after `import sgen` and before numpy loads
    code = "import sys, sgen; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
