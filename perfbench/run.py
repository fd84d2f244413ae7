"""Run one sgen benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-adv --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --trace 1

A run writes its inputs, sets up SETUP_REPEATS times, measures one timed
phase, then checks the program's outputs: every operation's, and those of
fixed reference inputs against values stored in perfbench/reference/.  Times
in the timed phase are scaled to a reference machine speed (see speed.py).
It prints the environment, each metric with its unit, and as its last line
one JSON object with the keys correct, attempted, failed and metrics.
--trace 0 reports the end-to-end metrics; --trace 1 times every traced
layer (see tracing.py) and reports the per-layer metrics instead.
`--workload all` runs every workload in its own process, untraced and, with
--trace 1, traced as well, and prints a summary with the tracing overhead.
Details of each run go to perfbench/.work/.

Exit code 0 means every operation and check passed.
"""

from time import perf_counter

_T0 = perf_counter()  # this process's own import time is reported for comparison

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread, fixed before numpy is first imported.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "NUMEXPR_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)

BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = BENCH_DIR / ".work"
WORKLOAD_NAMES = ("train-adv", "restore-cli", "eval-heldout")
RUN_TIMEOUT_S = 300

END_TO_END = (("setup_s", "s"), ("images_per_s", "1/s"), ("op_ms_p50", "ms"),
              ("op_ms_p90", "ms"), ("peak_rss_mb", "MB"))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


# --- environment ----------------------------------------------------------

def _openblas():
    """(config string, thread count) from the OpenBLAS numpy loaded, if any."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                try:
                    config = getattr(lib, f"{prefix}get_config{suffix}")
                    threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
                except AttributeError:
                    continue
                config.restype = ctypes.c_char_p
                threads.restype = ctypes.c_int
                return config().decode(), threads()
    return None, None


def _git_sha(root: Path):
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path) -> dict:
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       None)
    except OSError:
        pass
    blas_config, blas_threads = _openblas()
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas": blas_config, "blas_threads": blas_threads,
            "pinned_env": {v: os.environ.get(v) for v in PINNED_ENV},
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "git_sha": _git_sha(root)}


# --- one workload -----------------------------------------------------------

def _percentile(values, q) -> float:
    """Linear-interpolated percentile; 0.0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def import_seconds() -> float:
    """Wall time of a fresh interpreter that imports numpy, scipy and sgen."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {str(BENCH_DIR)!r}); "
                    "import workloads"], check=True, timeout=RUN_TIMEOUT_S)
    return perf_counter() - t0


def run_workload(args) -> int:
    try:
        import speed
        import tracing
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    import_s = perf_counter() - _T0

    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-seed{args.seed}-", dir=WORK_DIR))
    try:
        wl = workloads.BUILDERS[args.workload](args.seed, args.seconds, work)
        wl.write_inputs()                       # not part of set-up time
        import_times = [import_seconds() for _ in range(workloads.SETUP_REPEATS)]
        setup_times = []
        for _ in range(workloads.SETUP_REPEATS):
            t0 = perf_counter()
            state = wl.setup()
            setup_times.append(perf_counter() - t0)

        op = workloads.OPS[args.workload]
        probe = speed.SpeedProbe()
        tracer = tracing.Tracer(op, names=None if args.trace else [op], before_op=probe.before_op)
        with tracer:
            t_start = perf_counter()
            outcome = wl.run(state)
            t_end = perf_counter()
        checked = wl.check(outcome, tracer.ops)
        try:
            observed = workloads.observe_reference(args.workload, work / "reference")
            reference = workloads.reference_problems(args.workload, observed)
        except Exception as exc:
            reference = [f"{type(exc).__name__}: {exc}"]
        attempted = checked.attempted + 1       # the reference check is one more operation
        failed = checked.failed + bool(reference)

        raw_op_s = tracer.op_seconds()
        op_ms = [1e3 * s for s in probe.scale_ops(raw_op_s)]
        phase_s = probe.scale_interval(t_start, t_end)
        raw_phase_s = t_end - t_start - probe.busy_seconds()
        images_per_s = checked.images / phase_s if phase_s > 0 else 0.0
        if args.trace:
            values = tracing.layer_metrics(tracer, t_end - t_start, images_per_s)
            units = dict(tracing.LAYER_METRICS)
            tracer.save(WORK_DIR / f"trace-{args.workload}-seed{args.seed}.npz")
        else:
            values = {
                "setup_s": statistics.median(import_times) + statistics.median(setup_times),
                "images_per_s": images_per_s,
                "op_ms_p50": _percentile(op_ms, 50),
                "op_ms_p90": _percentile(op_ms, 90),
                # the probe's stream buffer is resident for the whole run
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
                                - speed.STREAM_BYTES) / 2**20,
            }
            units = dict(END_TO_END)
        env = environment(workloads.ROOT)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    raw = {"images_per_s": checked.images / raw_phase_s if raw_phase_s > 0 else 0.0,
           "op_ms_p50": _percentile([1e3 * s for s in raw_op_s], 50),
           "op_ms_p90": _percentile([1e3 * s for s in raw_op_s], 90)}
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    print("set-up: imports in a fresh process " + ", ".join(f"{t:.3f}" for t in import_times)
          + f" s (this process {import_s:.3f} s); set-up "
          + ", ".join(f"{t:.3f}" for t in setup_times) + " s")
    print(f"timed phase: {t_end - t_start:.3f} s wall, {tracer.ops} operations, "
          f"{checked.images} images; speed probe median {1e3 * probe.median_seconds():.3f} ms "
          f"(reference {1e3 * speed.REFERENCE_PROBE_S:.3f} ms)")
    print("unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    for name, value in values.items():
        print(f"  {name:<34} {value:>14.6g} {units[name]}")
    print(f"  {'ops_failed':<34} {failed:>14d} count of {attempted} attempted")
    if args.trace:
        wall, accounted = tracer.accounting()
        share = accounted / wall if wall else float("nan")
        print(f"trace accounting: operation wall time {wall:.4f} s, summed self times "
              f"{accounted:.4f} s ({100 * share:.2f}%)")
    for problem in checked.problems:
        print(f"FAILED: {problem}")
    for problem in reference:
        print(f"FAILED reference check: {problem}")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=env, import_s=import_s,
                  import_repeats_s=import_times, setup_repeats_s=setup_times,
                  unscaled=raw, op_ms_unscaled=[1e3 * s for s in raw_op_s], op_ms=op_ms,
                  probe_ms=[1e3 * timed for _, _, timed in probe.samples],
                  problems=checked.problems, reference_problems=reference)
    (WORK_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


# --- every workload ---------------------------------------------------------

def _child(args, workload: str, trace: int):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        print(f"perfbench: {workload} ran longer than {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    lines = proc.stdout.splitlines()
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stderr.write(proc.stderr)
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        return proc.returncode or 1, None


def run_all(args) -> int:
    worst = 0
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rates = {}
    for workload in WORKLOAD_NAMES:
        for trace in ((0, 1) if args.trace else (0,)):
            code, result = _child(args, workload, trace)
            worst = max(worst, code)
            if result is None:
                summary["correct"] = False
                continue
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                summary["metrics"][f"{workload}.{name}"] = metric
            rates[workload, trace] = result["metrics"].get(
                "trace.images_per_s" if trace else "images_per_s", {}).get("value")
    print("summary")
    for workload in WORKLOAD_NAMES:
        for name, unit in END_TO_END:
            metric = summary["metrics"].get(f"{workload}.{name}")
            if metric is not None:
                print(f"  {workload:<13} {name:<13} {metric['value']:>12.6g} {unit}")
        if rates.get((workload, 0)) and rates.get((workload, 1)):
            overhead = 1.0 - rates[workload, 1] / rates[workload, 0]
            print(f"  {workload:<13} tracing overhead {100 * overhead:.1f}% of images_per_s")
    print(f"  ops_failed {summary['failed']} of {summary['attempted']} attempted")
    print(json.dumps(summary))
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
