"""The three benchmark workloads: their inputs, set-up, timed phase and checks.

Every workload is one process running closed-loop: the next operation starts
when the previous one returns.  Inputs come from the workload seed alone;
every configuration field a workload depends on is passed explicitly, so a
changed library default cannot change what is measured.

Import this module only after run.py has pinned the environment: it imports
numpy and the sgen package from the checkout's ``src`` directory.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
if not (SRC / "sgen" / "__init__.py").is_file():
    raise ImportError(f"sgen sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import sgen  # noqa: E402
import sgen.cli  # noqa: E402
import sgen.data  # noqa: E402
import sgen.metrics  # noqa: E402
import sgen.model  # noqa: E402
import sgen.train  # noqa: E402
from sgen.data import DegradationSpec, SyntheticCorpus  # noqa: E402
from sgen.model import SgenConfig  # noqa: E402
from sgen.train import TrainConfig  # noqa: E402

if not Path(sgen.__file__).resolve().is_relative_to(SRC.resolve()):
    raise ImportError(f"imported sgen from {sgen.__file__}, not from {SRC}")

REFERENCE_DIR = BENCH_DIR / "reference"
REFERENCE_VALUES = REFERENCE_DIR / "values.json"

WORKLOADS = ("train-adv", "restore-cli", "eval-heldout")
OPS = {"train-adv": "train.train_step", "restore-cli": "cli.main",
       "eval-heldout": "metrics.eval_model"}

MIN_OPS = 100        # so that ten op-latency samples lie beyond p90
SETUP_REPEATS = 3    # set-up runs this often; setup_s takes the median

# --- pinned configuration --------------------------------------------------
SCALES = [(48, 32), (64, 48), (80, 64)]
SPEC = DegradationSpec(down_factor=4, noise="gaussian", sigma=30.0,
                       uniform_lo=0.0, uniform_hi=30.0)
CK_SEED = 0          # restore-cli and eval-heldout use init_params weights of this seed


def model_config(seed: int) -> SgenConfig:
    return SgenConfig(levels=3, base_channels=8, combiner="sgu", lrelu_alpha=0.2,
                      image_channels=1, disc_channels=8, seed=seed)


BATCH = 8
TRAIN_IMAGES = 512
VAL_IMAGES = 4
VAL_EVERY = 60
STEPS_PER_SECOND = 6.5  # train-adv's step count is sized from --seconds at this rate


def train_config(seed: int, steps: int) -> TrainConfig:
    return TrainConfig(steps=steps, batch_size=BATCH, lr=1e-4, lam=10.0,
                       loss_variant="minimax", mse_only=False, seed=seed,
                       val_every=VAL_EVERY, val_count=VAL_IMAGES, grid_every=0,
                       divergence_limit=1e6)


def train_steps(seconds: float) -> int:
    """Whole round-robin cycles over SCALES, at least MIN_OPS steps."""
    cycles = math.ceil(max(MIN_OPS, STEPS_PER_SECOND * seconds) / len(SCALES))
    return cycles * len(SCALES)


RESTORE_POOL = 48         # distinct requests; a run repeats the pool whole
RESTORE_SIDE = (56, 368)  # stratified range of sqrt(h*w)
RESTORE_ASPECT = (0.75, 4 / 3)
RESTORE_LIMITS = (48, 384)
EVAL_IMAGES = 4           # held-out images per eval_model call

# Synthetic face ids: disjoint ranges per workload and per seed, far above the
# ids any CLI training run draws (0 .. synthetic + val_images).
ID_STRIDE = 10**6
TRAIN_IDS = 1 * 10**9
EVAL_IDS = 2 * 10**9
RESTORE_IDS = 3 * 10**9


# --- inputs ---------------------------------------------------------------

def restore_sizes(seed: int, count: int = RESTORE_POOL) -> list[tuple[int, int]]:
    """Stratified request sizes: one draw per stratum of side and of aspect.

    Stratifying keeps the pool's total pixels and its latency quantiles nearly
    the same for every seed, while each seed still gets its own sizes.  Sides
    are multiples of 4, which the degradation requires.
    """
    rng = np.random.default_rng([7, seed])
    lo, hi = RESTORE_SIDE
    side = lo + (hi - lo) * (np.arange(count) + rng.random(count)) / count
    alo, ahi = np.log(RESTORE_ASPECT[0]), np.log(RESTORE_ASPECT[1])
    aspect = np.exp(alo + (ahi - alo) * (rng.permutation(count) + rng.random(count)) / count)
    sizes = []
    for s, a in zip(side, aspect):
        h = int(np.clip(4 * round(s * math.sqrt(a) / 4), *RESTORE_LIMITS))
        w = int(np.clip(4 * round(s / math.sqrt(a) / 4), *RESTORE_LIMITS))
        sizes.append((h, w))
    order = rng.permutation(count)
    return [sizes[i] for i in order]


def restore_input(seed: int, index: int, h: int, w: int) -> np.ndarray:
    """A degraded synthetic face, [-1, 1] floats of shape (1, h, w)."""
    clean = sgen.data.synth_face(RESTORE_IDS + seed * ID_STRIDE + index, h, w)
    rng = np.random.default_rng([11, seed, index])
    return sgen.data.degrade(clean[None].astype(np.float64), SPEC, rng)


def write_checkpoint(path: Path, params=None) -> None:
    mcfg = model_config(CK_SEED)
    if params is None:
        params = sgen.model.init_params(mcfg)
    sgen.model.save_checkpoint(params, mcfg, path)


def eval_corpus(seed: int, call: int) -> SyntheticCorpus:
    return SyntheticCorpus(EVAL_IMAGES, offset=EVAL_IDS + seed * ID_STRIDE + call * EVAL_IMAGES,
                           channels=1)


def train_corpora(seed: int) -> tuple[SyntheticCorpus, SyntheticCorpus]:
    base = TRAIN_IDS + seed * ID_STRIDE
    return (SyntheticCorpus(TRAIN_IMAGES, offset=base, channels=1),
            SyntheticCorpus(VAL_IMAGES, offset=base + TRAIN_IMAGES, channels=1))


def read_pgm(path) -> np.ndarray:
    """Independent binary PGM reader for checking the program's output files."""
    raw = Path(path).read_bytes()
    m = re.match(rb"P5\s+(\d+)\s+(\d+)\s+(\d+)\s", raw)
    if m is None:
        raise ValueError(f"{path}: not a binary PGM")
    w, h, maxval = (int(v) for v in m.groups())
    if maxval != 255 or len(raw) - m.end() != w * h:
        raise ValueError(f"{path}: maxval {maxval}, {len(raw) - m.end()} raster bytes for {w}x{h}")
    return np.frombuffer(raw, dtype=np.uint8, offset=m.end()).reshape(h, w)


# --- results --------------------------------------------------------------

@dataclass
class Checked:
    """What the timed phase did, judged after it ended."""

    images: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)


def restore_request(ck: Path, src: Path, dst: Path) -> tuple[int, str]:
    """One in-process `sgen restore`; returns (exit code, captured output)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code = sgen.cli.main(["restore", "--checkpoint", str(ck), str(src), str(dst)])
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code
    return code, out.getvalue()


# Each workload: write_inputs() (not timed), setup() -> state (timed as set-up),
# run(state) -> outcome (the timed phase), check(outcome, ops) -> Checked.

# --- train-adv ------------------------------------------------------------

class TrainAdv:
    """One sgen.train.train call: adversarial minimax loss, batch 8, 3 scales."""

    def __init__(self, seed: int, seconds: float, work: Path):
        self.seed = seed
        self.steps = train_steps(seconds)
        self.mcfg = model_config(seed)
        self.cfg = train_config(seed, self.steps)
        self.corpus, self.val = train_corpora(seed)
        self.out = work / "train"

    def write_inputs(self) -> None:
        pass  # the synthetic corpus is generated inside the program

    def setup(self):
        # warm-up: one step per scale on a throwaway state
        warm = sgen.train.init_state(self.mcfg, self.seed)
        rng = np.random.default_rng([13, self.seed])
        for scale in SCALES:
            batch = sgen.data.make_batch(self.corpus, scale, BATCH, SPEC, rng)
            sgen.train.train_step(batch, warm, self.cfg)
        return sgen.train.init_state(self.mcfg, self.seed)

    def run(self, state):
        try:
            return sgen.train.train(self.cfg, self.mcfg, self.corpus, SCALES, SPEC, self.out,
                                    val_corpus=self.val, state=state)
        except Exception as exc:  # the failing step counts; later steps never ran
            return exc

    def check(self, outcome, ops: int) -> Checked:
        c = Checked(attempted=ops)
        if isinstance(outcome, Exception):
            c.fail(f"train raised {type(outcome).__name__}: {outcome}")
            return c
        c.images = BATCH * ops
        for entry in outcome.history:
            values = [entry.get(k) for k in ("d_loss", "g_adv", "g_mse")]
            if any(v is None or not math.isfinite(v) for v in values):
                c.fail(f"step {entry.get('step')}: losses {values}")
        if len(outcome.history) != self.steps or ops != self.steps:
            c.fail(f"{len(outcome.history)} history rows, {ops} steps, expected {self.steps}")
        c.attempted += 1  # the run's files, checked as one more operation
        try:
            problems = self.artifact_problems()
        except Exception as exc:
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            c.fail("; ".join(problems))
        return c

    def artifact_problems(self) -> list[str]:
        problems = []
        rows = (self.out / "loss_log.csv").read_text().splitlines()
        if len(rows) != self.steps + 1:
            problems.append(f"loss_log.csv has {len(rows)} lines, expected {self.steps + 1}")
        vals = [r.split(",")[-1] for r in rows[1:]]
        expect_val = sum(1 for s in range(1, self.steps + 1)
                         if s % VAL_EVERY == 0 or s == self.steps)
        if sum(1 for v in vals if v) != expect_val:
            problems.append(f"loss_log.csv has {sum(1 for v in vals if v)} val_psnr "
                            f"entries, expected {expect_val}")
        if any(v and not math.isfinite(float(v)) for v in vals):
            problems.append("non-finite val_psnr in loss_log.csv")
        params, _ = sgen.model.load_checkpoint(self.out / "sgen.ckpt")
        expected = sgen.model.init_params(self.mcfg)
        shapes = {k: v.shape for k, v in params.items()}
        if shapes != {k: v.shape for k, v in expected.items()}:
            problems.append("checkpoint tensor set or shapes differ from init_params")
        elif not all(np.isfinite(v.data).all() for v in params.values()):
            problems.append("checkpoint holds non-finite weights")
        grid = sgen.data.read_netpbm(self.out / "grid_final.ppm")
        h, w = SCALES[0]
        if grid.shape != (VAL_IMAGES * h, 3 * w, 3):
            problems.append(f"grid_final.ppm has shape {grid.shape}")
        return problems


# --- restore-cli ----------------------------------------------------------

class RestoreCli:
    """Sequential in-process `sgen restore` requests over a pool of PGM files."""

    def __init__(self, seed: int, seconds: float, work: Path):
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.ck = work / "model.ckpt"
        self.sizes = restore_sizes(seed)
        self.inputs = [work / f"in-{i:02d}.pgm" for i in range(len(self.sizes))]

    def write_inputs(self) -> None:
        write_checkpoint(self.ck)
        for i, ((h, w), path) in enumerate(zip(self.sizes, self.inputs)):
            sgen.data.save_image(restore_input(self.seed, i, h, w), path)

    def setup(self):
        areas = [h * w for h, w in self.sizes]
        for i in (int(np.argmin(areas)), int(np.argmax(areas))):
            code, text = restore_request(self.ck, self.inputs[i], self.work / "warm.pgm")
            if code != 0:
                raise RuntimeError(f"warm-up restore failed ({code}): {text}")
        return None

    def run(self, state):
        """Whole passes over the pool until the time and the op count are reached."""
        done = []  # (exit code, output text, size, output path)
        t0 = perf_counter()
        while perf_counter() - t0 < self.seconds or len(done) < MIN_OPS:
            rnd = len(done) // len(self.inputs)
            for i, (src, size) in enumerate(zip(self.inputs, self.sizes)):
                dst = self.work / f"out-{rnd:03d}-{i:02d}.pgm"
                try:
                    code, text = restore_request(self.ck, src, dst)
                except Exception as exc:
                    code, text = None, f"{type(exc).__name__}: {exc}"
                done.append((code, text, size, dst))
        return done

    def check(self, outcome, ops: int) -> Checked:
        c = Checked(attempted=len(outcome))
        for code, text, size, dst in outcome:
            problem = None
            if code != 0:
                problem = f"exit {code}: {text.strip()}"
            elif "restored" not in text:
                problem = f"unexpected output {text!r}"
            else:
                try:
                    shape = read_pgm(dst).shape
                    if shape != size:
                        problem = f"{dst.name} is {shape}, input was {size}"
                except (OSError, ValueError) as exc:
                    problem = str(exc)
            if problem is None:
                c.images += 1
            else:
                c.fail(problem)
            dst.unlink(missing_ok=True)
        return c


# --- eval-heldout ---------------------------------------------------------

class EvalHeldout:
    """eval_model over held-out synthetic faces, EVAL_IMAGES per call, 3 scales."""

    def __init__(self, seed: int, seconds: float, work: Path):
        self.seed = seed
        self.seconds = seconds
        self.ck = work / "model.ckpt"

    def write_inputs(self) -> None:
        write_checkpoint(self.ck)

    def setup(self):
        params, mcfg = sgen.model.load_checkpoint(self.ck)
        restore = sgen.metrics.model_restorer(params, mcfg)
        warm = SyntheticCorpus(1, offset=EVAL_IDS - 1, channels=1)
        sgen.metrics.eval_model(restore, warm, SCALES, SPEC, seed=self.seed)
        return params, mcfg

    def run(self, state):
        """One eval_model call per held-out slice until the time and op count are reached."""
        params, mcfg = state
        restore = sgen.metrics.model_restorer(params, mcfg)
        reports = []
        t0 = perf_counter()
        while perf_counter() - t0 < self.seconds or len(reports) < MIN_OPS:
            try:
                reports.append(sgen.metrics.eval_model(
                    restore, eval_corpus(self.seed, len(reports)), SCALES, SPEC, seed=self.seed))
            except Exception as exc:
                reports.append(exc)
        return reports

    def check(self, outcome, ops: int) -> Checked:
        c = Checked(attempted=len(outcome))
        for call, report in enumerate(outcome):
            if isinstance(report, Exception):
                problem = f"{type(report).__name__}: {report}"
            else:
                problem = eval_report_problem(report)
            if problem is None:
                c.images += EVAL_IMAGES * len(SCALES)
            else:
                c.fail(f"call {call}: {problem}")
        return c


def eval_report_problem(report) -> str | None:
    if [tuple(r.scale) for r in report.rows] != [tuple(s) for s in SCALES]:
        return f"rows for scales {[r.scale for r in report.rows]}"
    for r in report.rows:
        if r.count != EVAL_IMAGES:
            return f"{r.scale}: count {r.count}"
        if not (math.isfinite(r.psnr) and 0.0 < r.psnr <= 99.0):
            return f"{r.scale}: psnr {r.psnr}"
        if not (math.isfinite(r.ssim) and -1.0 <= r.ssim <= 1.0):
            return f"{r.scale}: ssim {r.ssim}"
    return None


BUILDERS = {"train-adv": TrainAdv, "restore-cli": RestoreCli, "eval-heldout": EvalHeldout}


# --- reference outputs ------------------------------------------------------
# Fixed inputs from seed 0, run after every timed phase whatever the run's
# seed, and compared with the values make_reference.py stored in reference/.

REF_STEPS = 3                                    # one train step per scale
REF_SIZES = [(48, 52), (68, 100), (100, 76)]     # none a multiple of 16
LOSS_RTOL = 1e-6
PSNR_ATOL = 1e-3
SSIM_ATOL = 1e-5
BYTE_ATOL = 1


def observe_reference(name: str, work: Path, params=None) -> dict:
    """Run the reference inputs; `params` replaces the weights (for tests)."""
    work.mkdir(parents=True, exist_ok=True)
    if name == "train-adv":
        mcfg = model_config(0)
        state = sgen.train.init_state(mcfg, 0)
        if params is not None:
            state.params = params
        corpus, val = train_corpora(0)
        state = sgen.train.train(train_config(0, REF_STEPS), mcfg, corpus, SCALES, SPEC,
                                 work / "ref-train", val_corpus=val, state=state)
        return {"losses": [[e["d_loss"], e["g_adv"], e["g_mse"]] for e in state.history]}
    ck = work / "ref.ckpt"
    write_checkpoint(ck, params)
    if name == "restore-cli":
        restored = []
        for i, (h, w) in enumerate(REF_SIZES):
            src, dst = work / f"ref-in-{i}.pgm", work / f"ref-out-{i}.pgm"
            sgen.data.save_image(restore_input(0, i, h, w), src)
            code, text = restore_request(ck, src, dst)
            if code != 0:
                raise RuntimeError(f"reference restore {i} failed ({code}): {text}")
            restored.append(read_pgm(dst))
        return {"restored": restored}
    if name == "eval-heldout":
        loaded, mcfg = sgen.model.load_checkpoint(ck)
        report = sgen.metrics.eval_model(sgen.metrics.model_restorer(loaded, mcfg),
                                         eval_corpus(0, 0), SCALES, SPEC, seed=0)
        return {"rows": [[r.psnr, r.ssim] for r in report.rows]}
    raise KeyError(name)


def reference_problems(name: str, observed: dict) -> list[str]:
    """Differences between observed reference outputs and the stored ones."""
    stored = json.loads(REFERENCE_VALUES.read_text())[name]
    problems = []
    if name == "train-adv":
        got, want = observed["losses"], stored["losses"]
        if len(got) != len(want):
            return [f"{len(got)} reference steps, expected {len(want)}"]
        for step, (g_row, w_row) in enumerate(zip(got, want), start=1):
            for key, g, w in zip(("d_loss", "g_adv", "g_mse"), g_row, w_row):
                if g is None or not abs(g - w) <= LOSS_RTOL * abs(w):
                    problems.append(f"step {step} {key} = {g!r}, reference {w!r}")
    elif name == "restore-cli":
        for i, got in enumerate(observed["restored"]):
            want = read_pgm(REFERENCE_DIR / stored["files"][i])
            if got.shape != want.shape:
                problems.append(f"restored image {i}: shape {got.shape}, reference {want.shape}")
                continue
            diff = int(np.abs(got.astype(np.int16) - want.astype(np.int16)).max())
            if diff > BYTE_ATOL:
                problems.append(f"restored image {i} differs by {diff} gray levels")
    else:
        for scale, (psnr, ssim), (w_psnr, w_ssim) in zip(SCALES, observed["rows"], stored["rows"]):
            if not abs(psnr - w_psnr) <= PSNR_ATOL:
                problems.append(f"{scale} psnr {psnr!r}, reference {w_psnr!r}")
            if not abs(ssim - w_ssim) <= SSIM_ATOL:
                problems.append(f"{scale} ssim {ssim!r}, reference {w_ssim!r}")
    return problems
