"""Spans and exact counts recorded around calls into sgen's modules.

A Tracer replaces each traced function by a timing wrapper at every place a
caller looks it up: every loaded ``sgen.*`` module attribute bound to the
function, or the class attribute for a method.  ``uninstall`` puts every
original back.  Nothing inside the package changes, so callees the program
reaches through closures (a node's backward function, the im2col helpers)
are timed as part of the traced function that runs them.

Spans are (name, start, end, parent span, op id) and stay in memory until
``save``.  The op id is the index of the enclosing operation span (one
``train_step``, one ``cli.main`` request, one ``eval_model`` call), or -1
for work between operations.  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import types
from collections import defaultdict
from time import perf_counter

import numpy as np

POINTWISE = ("relu", "lrelu", "sigmoid", "tanh", "add", "sub", "mul", "maximum",
             "affine", "log_clamped", "concat_channels", "global_avg_pool",
             "sum_all", "mean_all")

# (span name, defining module, attribute); "Class.method" patches the class.
TRACED = (
    ("autodiff.conv2d", "sgen.autodiff", "conv2d"),
    ("autodiff.deconv2d", "sgen.autodiff", "deconv2d"),
    *(("autodiff.pointwise", "sgen.autodiff", name) for name in POINTWISE),
    ("autodiff.backward", "sgen.autodiff", "Graph.backward"),
    ("autodiff.adam", "sgen.autodiff", "adam_step"),
    ("model.generator_forward", "sgen.model", "generator_forward"),
    ("model.discriminator_forward", "sgen.model", "discriminator_forward"),
    ("model.load_checkpoint", "sgen.model", "load_checkpoint"),
    ("model.save_checkpoint", "sgen.model", "save_checkpoint"),
    ("train.train", "sgen.train", "train"),
    ("train.train_step", "sgen.train", "train_step"),
    ("data.make_batch", "sgen.data", "make_batch"),
    ("data.corpus_image", "sgen.data", "SyntheticCorpus.image"),
    ("data.degrade", "sgen.data", "degrade"),
    ("data.load_image", "sgen.data", "load_image"),
    ("data.save_image", "sgen.data", "save_image"),
    ("metrics.psnr", "sgen.metrics", "psnr"),
    ("metrics.ssim", "sgen.metrics", "ssim"),
    ("metrics.model_restorer", "sgen.metrics", "model_restorer"),
    ("metrics.eval_model", "sgen.metrics", "eval_model"),
    ("cli.main", "sgen.cli", "main"),
)
RESTORE_SPAN = "metrics.restore"  # the closure model_restorer returns
PROBE_SPAN = "bench.probe"        # the speed probe between operations

# Private helpers that are counted, not timed: their cost belongs to the
# conv2d, deconv2d or backward span that runs them.  A helper a later
# version renames or removes simply stops counting.
IM2COL_PREFIX = "_im2col"
COL2IM_PREFIX = "_col2im"


def _resolve(module_name: str, attr: str):
    """(owner object, attribute name) for "func" or "Class.method"."""
    owner = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def _conv_gflop(x_shape, k_shape, out_shape) -> float:
    # conv2d kernel is (oc, ic, kh, kw): one multiply-add per tap per output
    _, ic, kh, kw = k_shape
    return 2.0 * math.prod(out_shape) * ic * kh * kw / 1e9


def _deconv_gflop(x_shape, k_shape) -> float:
    # deconv2d kernel is (ic, oc, kh, kw): every input pixel feeds oc*kh*kw taps
    n, ic, h, w = x_shape
    _, oc, kh, kw = k_shape
    return 2.0 * n * ic * h * w * oc * kh * kw / 1e9


class Tracer:
    """Install timing wrappers for the named spans (all of TRACED by default).

    `op` is the span name that counts as one operation.  `before_op`, if
    given, runs before each operation in a span of its own, PROBE_SPAN, which
    belongs to no operation.  Use as a context manager, or call install()
    and uninstall().
    """

    def __init__(self, op: str, names=None, before_op=None):
        self.op = op
        self.before_op = before_op
        wanted = None if names is None else set(names)
        self.targets = [t for t in TRACED if wanted is None or t[0] in wanted]
        self.count_helpers = wanted is None
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []      # [name id, start, end, parent, op id]
        self.stack: list[int] = []
        self.current_op = -1
        self.ops = 0
        self.counters: dict[tuple[str, str], float] = defaultdict(float)
        self._patched: list[tuple[object, str, object]] = []

    # -- install / uninstall ---------------------------------------------

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if (name == "sgen" or name.startswith("sgen.")) and m is not None]
        for span, module_name, attr in self.targets:
            owner, name = _resolve(module_name, attr)
            original = getattr(owner, name)
            wrapper = self._wrap(span, original)
            if isinstance(owner, types.ModuleType):
                # patch the function wherever a caller looks it up
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)
            else:
                self._patch(owner, name, wrapper)
        if self.count_helpers:
            autodiff = importlib.import_module("sgen.autodiff")
            for key, value in list(vars(autodiff).items()):
                if callable(value) and key.startswith(IM2COL_PREFIX):
                    self._patch(autodiff, key, self._count(value, "im2col_mb"))
                elif callable(value) and key.startswith(COL2IM_PREFIX):
                    self._patch(autodiff, key, self._count(value, "scatter_adds"))

    def uninstall(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name, wrapper) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    # -- wrappers --------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, span: str, fn):
        nid = self._name_id(span)
        is_op = span == self.op
        after = {
            "autodiff.conv2d": self._after_conv,
            "autodiff.deconv2d": self._after_deconv,
            "autodiff.backward": self._after_backward,
            "metrics.model_restorer": self._after_restorer,
        }.get(span)
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            if is_op:
                if self.before_op is not None:
                    self._probe()
                self.current_op = self.ops
                self.ops += 1
            rec = [nid, 0.0, 0.0, stack[-1] if stack else -1, self.current_op]
            stack.append(len(spans))
            spans.append(rec)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                rec[1] = t0
                stack.pop()
                if is_op:
                    self.current_op = -1
            if after is not None:
                out = after(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _probe(self) -> None:
        rec = [self._name_id(PROBE_SPAN), 0.0, 0.0,
               self.stack[-1] if self.stack else -1, -1]
        self.spans.append(rec)
        rec[1] = perf_counter()
        self.before_op()
        rec[2] = perf_counter()

    def _count(self, fn, counter: str):
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            where = self.names[self.spans[self.stack[-1]][0]] if self.stack else "untraced"
            if counter == "im2col_mb":
                self.counters[(where, counter)] += out.nbytes / 1e6
            else:  # (cols, shape, kh, kw, ...): one strided add per kernel tap
                self.counters[(where, counter)] += args[2] * args[3]
            return out

        counted.__wrapped__ = fn
        return counted

    def _after_conv(self, args, kwargs, out):
        x, kernel = args[0], args[1]
        self.counters[("autodiff.conv2d", "gflop")] += _conv_gflop(x.shape, kernel.shape, out.shape)
        return out

    def _after_deconv(self, args, kwargs, out):
        x, kernel = args[0], args[1]
        self.counters[("autodiff.deconv2d", "gflop")] += _deconv_gflop(x.shape, kernel.shape)
        return out

    def _after_backward(self, args, kwargs, out):
        graph = args[0]
        nodes = getattr(graph, "nodes", ())
        self.counters[("autodiff.backward", "tape_nodes")] += len(nodes)
        gflop = 0.0
        for node in nodes:
            op, inputs = getattr(node, "op", None), getattr(node, "inputs", ())
            if op not in ("conv2d", "deconv2d") or len(inputs) < 2:
                continue
            x, kernel = inputs[0], inputs[1]
            grads = int(x.requires_grad) + int(kernel.requires_grad)
            if op == "conv2d":
                fwd = _conv_gflop(x.shape, kernel.shape, node.output.shape)
            else:
                fwd = _deconv_gflop(x.shape, kernel.shape)
            gflop += grads * fwd
        self.counters[("autodiff.backward", "gflop")] += gflop
        return out

    def _after_restorer(self, args, kwargs, restore):
        return self._wrap(RESTORE_SPAN, restore)

    # -- results ---------------------------------------------------------

    def arrays(self) -> dict:
        """Spans as columns: name id, start, end, parent, op id, self time."""
        rows = self.spans
        name = np.array([r[0] for r in rows], dtype=np.int32)
        start = np.array([r[1] for r in rows], dtype=np.float64)
        end = np.array([r[2] for r in rows], dtype=np.float64)
        parent = np.array([r[3] for r in rows], dtype=np.int64)
        op = np.array([r[4] for r in rows], dtype=np.int64)
        dur = end - start
        child = np.zeros(len(rows))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {"name": name, "start": start, "end": end, "parent": parent,
                "op": op, "dur": dur, "self": dur - child}

    def op_seconds(self) -> list[float]:
        """Duration of every operation span, in call order."""
        if self.op not in self._ids:
            return []
        nid = self._ids[self.op]
        return [r[2] - r[1] for r in self.spans if r[0] == nid]

    def totals(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds."""
        a = self.arrays()
        out = {}
        for nid, name in enumerate(self.names):
            sel = a["name"] == nid
            out[name] = {"calls": int(sel.sum()), "incl": float(a["dur"][sel].sum()),
                         "self": float(a["self"][sel].sum())}
        return out

    def accounting(self) -> tuple[float, float]:
        """(summed op wall time, summed self time of every span inside ops).

        The two agree when every span nests inside its parent; a lost or
        misparented span shows up as a difference.
        """
        a = self.arrays()
        if self.op not in self._ids:
            return 0.0, 0.0
        is_op = a["name"] == self._ids[self.op]
        inside = a["op"] >= 0
        return float(a["dur"][is_op].sum()), float(a["self"][inside].sum())

    def save(self, path) -> None:
        a = self.arrays()
        np.savez_compressed(path, names=np.array(json.dumps(self.names)),
                            **{k: a[k] for k in ("name", "start", "end", "parent", "op")})


# --- per-layer metrics ------------------------------------------------------
# Every value is per operation unless its unit is a rate.  `.ms` is inclusive
# time; for a span with no traced callee that is also its self time.  `.self_ms`
# is reported for spans that call other traced spans.

MODULES = ("autodiff", "model", "train", "data", "metrics", "cli")

LAYER_METRICS = (
    ("autodiff.conv2d.ms", "ms"), ("autodiff.conv2d.calls", "count"),
    ("autodiff.conv2d.gflop", "GFLOP"), ("autodiff.conv2d.gflop_per_s", "GFLOP/s"),
    ("autodiff.conv2d.im2col_mb", "MB"),
    ("autodiff.deconv2d.ms", "ms"), ("autodiff.deconv2d.calls", "count"),
    ("autodiff.deconv2d.gflop", "GFLOP"), ("autodiff.deconv2d.gflop_per_s", "GFLOP/s"),
    ("autodiff.deconv2d.scatter_adds", "count"),
    ("autodiff.pointwise.ms", "ms"), ("autodiff.pointwise.calls", "count"),
    ("autodiff.backward.ms", "ms"), ("autodiff.backward.calls", "count"),
    ("autodiff.backward.gflop", "GFLOP"), ("autodiff.backward.scatter_adds", "count"),
    ("autodiff.backward.im2col_mb", "MB"), ("autodiff.tape_nodes", "count"),
    ("autodiff.adam.ms", "ms"), ("autodiff.adam.calls", "count"),
    ("model.generator_forward.ms", "ms"), ("model.generator_forward.self_ms", "ms"),
    ("model.generator_forward.calls", "count"),
    ("model.discriminator_forward.ms", "ms"), ("model.discriminator_forward.self_ms", "ms"),
    ("model.discriminator_forward.calls", "count"),
    ("model.load_checkpoint.ms", "ms"), ("model.save_checkpoint.ms", "ms"),
    ("train.train.self_ms", "ms"),
    ("train.train_step.ms", "ms"), ("train.train_step.self_ms", "ms"),
    ("data.make_batch.ms", "ms"), ("data.make_batch.self_ms", "ms"),
    ("data.corpus_image.ms", "ms"), ("data.degrade.ms", "ms"),
    ("data.load_image.ms", "ms"), ("data.save_image.ms", "ms"),
    ("metrics.restore.ms", "ms"), ("metrics.restore.self_ms", "ms"),
    ("metrics.eval_model.self_ms", "ms"),
    ("metrics.ssim.ms", "ms"), ("metrics.psnr.ms", "ms"),
    ("cli.main.self_ms", "ms"),
    *((f"module.{m}.self_ms", "ms") for m in MODULES),
    ("trace.images_per_s", "1/s"), ("trace.spans", "count"),
    ("trace.unattributed_ms", "ms"),
)

COUNTERS = {  # metric name -> (span, counter)
    "autodiff.conv2d.gflop": ("autodiff.conv2d", "gflop"),
    "autodiff.conv2d.im2col_mb": ("autodiff.conv2d", "im2col_mb"),
    "autodiff.deconv2d.gflop": ("autodiff.deconv2d", "gflop"),
    "autodiff.deconv2d.scatter_adds": ("autodiff.deconv2d", "scatter_adds"),
    "autodiff.backward.gflop": ("autodiff.backward", "gflop"),
    "autodiff.backward.scatter_adds": ("autodiff.backward", "scatter_adds"),
    "autodiff.backward.im2col_mb": ("autodiff.backward", "im2col_mb"),
    "autodiff.tape_nodes": ("autodiff.backward", "tape_nodes"),
}


def layer_metrics(tracer: Tracer, wall_seconds: float, images_per_s: float) -> dict[str, float]:
    """Every LAYER_METRICS value from a traced timed phase of `wall_seconds`."""
    ops = max(tracer.ops, 1)
    totals = tracer.totals()
    a = tracer.arrays()
    out = {}
    for name, _unit in LAYER_METRICS:
        span, _, kind = name.rpartition(".")
        if name in COUNTERS:
            out[name] = tracer.counters.get(COUNTERS[name], 0.0) / ops
        elif kind == "gflop_per_s":
            busy = totals.get(span, {}).get("self", 0.0)
            gflop = tracer.counters.get((span, "gflop"), 0.0)
            out[name] = gflop / busy if busy > 0 else 0.0
        elif span.startswith("module."):
            module = span.split(".")[1]
            out[name] = 1e3 / ops * sum(t["self"] for s, t in totals.items()
                                        if s.split(".")[0] == module)
        elif name == "trace.images_per_s":
            out[name] = images_per_s
        elif name == "trace.spans":
            out[name] = len(tracer.spans) / ops
        elif name == "trace.unattributed_ms":
            top = float(a["dur"][a["parent"] < 0].sum())
            out[name] = 1e3 * max(wall_seconds - top, 0.0) / ops
        else:
            t = totals.get(span, {"calls": 0, "incl": 0.0, "self": 0.0})
            out[name] = {"ms": 1e3 * t["incl"] / ops, "self_ms": 1e3 * t["self"] / ops,
                         "calls": t["calls"] / ops}[kind]
    return out
