"""Shared pytest wiring: one-line-per-criterion acceptance summary, traced peaks."""

import re
import tracemalloc

import pytest

from sgen import autodiff as ad

_TITLES = {
    "01": "gradient suite matches finite differences",
    "02": "forced gates reproduce skip/residual reference nets",
    "03": "arbitrary input sizes, bounded finite outputs",
    "04": "training gain over degraded baseline (>= +2 dB)",
    "05": "gated combiner outperforms max combiner",
    "06": "PSNR falls monotonically with noise level",
    "07": "metric unit truths and windowed oracle match",
    "08": "degradation noise statistics and identity path",
    "09": "seeded reruns and checkpoints are bit-identical",
    "10": "adversarial run stays finite and balanced",
}

_results = {}


@pytest.fixture
def traced_peak():
    """measure(fn, *args) -> (fn's result, peak bytes tracemalloc saw allocated in the call)."""
    def measure(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = fn(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        return out, peak
    return measure


@pytest.fixture
def band_kernels(monkeypatch):
    """(band kernel, kernel given, gradient given) per autodiff._correlate call that runs one.

    The kernel is "im2col" for a call that gathers patches, and "shifted"
    for one that pads its band rows and gathers nothing, in call order.
    """
    ran, helpers = [], []
    for name in ("_band_rows", "_im2col"):
        real = getattr(ad, name)
        monkeypatch.setattr(ad, name, lambda *a, real=real, name=name:
                            helpers.append(name) or real(*a))
    correlate = ad._correlate

    def spy(a, kernel, g, *rest):
        helpers.clear()
        result = correlate(a, kernel, g, *rest)
        if helpers:
            ran.append(("im2col" if "_im2col" in helpers else "shifted",
                        kernel is not None, g is not None))
        return result

    monkeypatch.setattr(ad, "_correlate", spy)
    return ran


def pytest_runtest_logreport(report):
    m = re.search(r"test_criterion_(\d\d)", report.nodeid)
    if m is None:
        return
    if report.when == "call" or (report.when == "setup" and report.outcome != "passed"):
        word = {"passed": "PASS", "failed": "FAIL", "skipped": "SKIP"}.get(
            report.outcome, report.outcome.upper())
        _results[m.group(1)] = word


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_TITLES):
        terminalreporter.write_line(
            f"criterion {num}  {_TITLES[num]:<52} {_results.get(num, 'NOT RUN')}")
