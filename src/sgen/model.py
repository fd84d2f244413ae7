"""SGEN generator, combiner variants, and the convolutional discriminator.

The generator is a multi-level encoder-decoder.  An encoder trunk halves the
spatial scale once per level; per-level base-encoders pool every trunk feature
down to one shared deepest scale, where they are combined bottom-up by
sequential gating units (SGUs).  Per-level base-decoders then upsample the
combined features back toward the input scale and are combined top-down, again
through SGUs, before a final tanh projection.  Each SGU computes both of its
sigmoid gates from the active input alone:

    f = sigmoid(conv_a(x_a)) * x_a + sigmoid(conv_p(x_a)) * x_p

Ablation combiners (elementwise max, average, channel concatenation) can be
swapped in for the SGU at every junction.  The discriminator is four strided
convolutions, global average pooling, and a 1x1 projection to a probability.

Each network is written once, as a layer table (layer_table) in execution
order with a row per convolution, SGU gates included: param_layout reads the
parameter shapes from the rows, and one interpreter runs them for both
forward passes.  No parameters are shared between any two layers.
"""

from __future__ import annotations

import functools
import json
import math
import struct
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .autodiff import (Tensor, add, affine, concat_channels, conv2d, deconv2d, gate,
                       global_avg_pool, maximum, phase_kernel)
from .data import atomic_write, save_image
from .errors import CheckpointError, ConfigError, NumericsError

COMBINERS = ("sgu", "max", "avg", "concat")

CHECKPOINT_MAGIC = b"SGEN"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class SgenConfig:
    """Architecture hyperparameters shared by generator and discriminator."""

    levels: int = 3
    base_channels: int = 8
    combiner: str = "sgu"
    lrelu_alpha: float = 0.2
    image_channels: int = 1
    disc_channels: int = 8
    seed: int = 0

    def __post_init__(self):
        # the cap (divisor 512, above every size in use) keeps a checkpoint's
        # config from asking for a huge parameter layout
        if not 2 <= self.levels <= 8:
            raise ConfigError(f"levels must be in [2, 8], got {self.levels}")
        if self.base_channels < 1:
            raise ConfigError(f"base_channels must be >= 1, got {self.base_channels}")
        if self.combiner not in COMBINERS:
            raise ConfigError(f"combiner must be one of {COMBINERS}, got {self.combiner!r}")
        if self.image_channels not in (1, 3):
            raise ConfigError(f"image_channels must be 1 or 3, got {self.image_channels}")
        if self.disc_channels < 1:
            raise ConfigError(f"disc_channels must be >= 1, got {self.disc_channels}")
        if not 0.0 <= self.lrelu_alpha < 1.0:  # also rejects NaN
            raise ConfigError(f"lrelu_alpha must be in [0, 1), got {self.lrelu_alpha}")
        if self.seed < 0:  # numpy seeds are non-negative
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    @property
    def divisor(self) -> int:
        """Input spatial dims must be divisible by this (2^(levels+1))."""
        return 2 ** (self.levels + 1)


def _check_finite(t: Tensor, path: str) -> Tensor:
    if not np.isfinite(t.data).all():
        raise NumericsError(f"non-finite activation after layer {path!r}")
    return t


# ---------------------------------------------------------------------------
# the layer table


class Layer(NamedTuple):
    """One row of a layer table: what a layer computes, from which maps."""

    path: str  # names its output (in `acts` and non-finite reports) and its parameters
    op: str  # "conv", "deconv", "pool" (global average) or a junction's "sgu", "max", "avg"
    inputs: tuple[str, ...]  # paths of the maps it reads, concatenated for a conv; "" is the input
    cin: int  # channels it reads, summed over a conv's inputs
    cout: int
    k: int = 1  # kernel size
    stride: int = 1  # a deconv's upsampling factor
    pad: int = 0
    act: str | None = None
    prefix: str = ""  # a conv's parameter prefix where it differs from its path


@functools.cache
def layer_table(config: SgenConfig) -> tuple[tuple[Layer, ...], tuple[Layer, ...]]:
    """(generator rows, discriminator rows), each in execution order.

    An sgu junction k is three rows: its gate convs `gen.{stage}.sgu{k}.ga`
    and `.gp` on the active map, then `gen.{stage}.junction{k}`, which reads
    (ga, active, gp, passive).  A concat junction is one 1x1 conv row.
    """
    n, c, ic, w = config.levels, config.base_channels, config.image_channels, config.disc_channels

    def tc(k):  # encoder trunk width at level k: doubles per level, capped at 8c
        return min(c * 2 ** (k - 1), 8 * c)

    def dc(k):  # base-decoder width at level k; level n + 1 is the final merge
        return c if k == n + 1 else tc(n + 1 - k)

    def junction(stage, k, active, passive, m):
        path = f"gen.{stage}.junction{k}"
        if config.combiner == "concat":
            return [Layer(path, "conv", (active, passive), 2 * m, m, prefix=f"gen.{stage}.cat{k}")]
        if config.combiner != "sgu":
            return [Layer(path, config.combiner, (active, passive), m, m)]
        ga, gp = (Layer(f"gen.{stage}.sgu{k}.{g}", "conv", (active,), m, m, 3, 1, 1, "sigmoid")
                  for g in ("ga", "gp"))
        return [ga, gp, Layer(path, "sgu", (ga.path, active, gp.path, passive), m, m)]

    # encoder trunk: one stride-2 step per level after the full-resolution stem1
    trunk = ["gen.enc.stem2"] + [f"gen.enc.trunk{k}" for k in range(2, n + 1)]
    gen = [Layer("gen.enc.stem1", "conv", ("",), ic, c, 3, 1, 1, "lrelu"),
           Layer("gen.enc.stem2", "conv", ("gen.enc.stem1",), c, c, 3, 2, 1, "lrelu")]
    gen += [Layer(trunk[k - 1], "conv", (trunk[k - 2],), tc(k - 1), tc(k), 3, 2, 1, "lrelu")
            for k in range(2, n + 1)]
    for k in range(1, n + 1):  # base-encoders pool every level to the shared deepest scale
        j = n - k + 1
        gen.append(Layer(f"gen.enc.base{k}", "conv", (trunk[k - 1],), tc(k), tc(n),
                         2 * j + 1, 2 ** j, j, "lrelu"))
    # bottom-up combination, the higher level active; base-decoder k restores
    # from the (N-k+1)-th combined map
    combined = ["gen.enc.base1"] + [f"gen.enc.junction{k}" for k in range(2, n + 1)]
    for k in range(2, n + 1):
        gen += junction("enc", k, f"gen.enc.base{k}", combined[k - 2], tc(n))
    gen += [Layer(f"gen.dec.base{k}", "deconv", (combined[n - k],), tc(n), dc(k),
                  2 ** (k + 1), 2 ** k, act="relu") for k in range(1, n + 1)]
    for k in range(1, n + 1):  # top-down combination, the lower level active
        if k > 1:
            gen += junction("dec", k, f"gen.dec.base{k}", f"gen.dec.merge{k - 1}", dc(k))
        src = f"gen.dec.junction{k}" if k > 1 else "gen.dec.base1"
        gen.append(Layer(f"gen.dec.merge{k}", "deconv", (src,), dc(k), dc(k + 1), 4, 2, act="relu"))
    gen.append(Layer("gen.out.conv", "conv", (gen[-1].path,), c, ic, 3, 1, 1, "tanh"))

    widths = [ic, w, 2 * w, 4 * w, 8 * w]
    disc = [Layer(f"disc.conv{i}", "conv", (f"disc.conv{i - 1}" if i > 1 else "",),
                  widths[i - 1], widths[i], 4, 2, 1, "lrelu") for i in range(1, 5)]
    disc += [Layer("disc.pool", "pool", ("disc.conv4",), 8 * w, 8 * w),
             Layer("disc.fc", "conv", ("disc.pool",), 8 * w, 1, act="sigmoid")]
    return tuple(gen), tuple(disc)


def param_layout(config: SgenConfig) -> dict:
    """Name -> (shape, init bound) of every parameter, in init draw order.

    Weights are drawn uniform in [-bound, bound]: He bounds for layers
    feeding relu, lrelu or nothing, Xavier bounds for layers feeding sigmoid
    or tanh.  Biases have bound None and start at zero.  The rows draw in
    table order, except that the decoder's merges and gen.out.conv draw
    after every decoder junction, so a seed gives the weights it always gave.
    """
    layout: dict[str, tuple] = {}

    def put(path, ic, oc, k, act, factor=None):
        fan_in, fan_out = ic * k * k, oc * k * k
        if factor:  # a deconv: each output pixel sees fan_in / factor^2 inputs
            shape, bound = (ic, oc, k, k), math.sqrt(6.0 / (fan_in / (factor * factor)))
        else:
            xavier = act in ("sigmoid", "tanh")
            shape, bound = (oc, ic, k, k), math.sqrt(6.0 / (fan_in + fan_out if xavier else fan_in))
        layout[path + ".w"] = (shape, bound)
        layout[path + ".b"] = ((1, oc, 1, 1), None)

    gen, disc = layer_table(config)
    late = ("gen.dec.merge", "gen.out.conv")
    for row in sorted(gen, key=lambda row: row.path.startswith(late)) + list(disc):
        if row.op in ("conv", "deconv"):
            put(row.prefix or row.path, row.cin, row.cout, row.k, row.act,
                row.stride if row.op == "deconv" else None)
    return layout


def init_params(config: SgenConfig, seed: int | None = None) -> dict:
    """Build all generator ("gen.*") and discriminator ("disc.*") parameters.

    Deterministic given the seed (defaults to config.seed); see param_layout
    for the shapes and weight draws.  Each tensor is an array of its own.
    """
    rng = np.random.default_rng(config.seed if seed is None else seed)
    return {name: Tensor(np.zeros(shape) if bound is None
                         else rng.uniform(-bound, bound, size=shape), requires_grad=True)
            for name, (shape, bound) in param_layout(config).items()}


def split_params(params: dict) -> tuple[dict, dict]:
    """Split a full parameter dict into (generator, discriminator) views."""
    gen = {k: v for k, v in params.items() if k.startswith("gen.")}
    disc = {k: v for k, v in params.items() if k.startswith("disc.")}
    return gen, disc


# ---------------------------------------------------------------------------
# forward passes


def _run(rows: tuple[Layer, ...], x: Tensor, params: dict, config: SgenConfig,
         phases: dict | None = None, acts: dict | None = None) -> Tensor:
    """Run a layer table on x; returns its last row's output.

    Each output is checked under its row's path and dropped after its last
    reader.  An sgu row is one gate node over its (ga, active, gp, passive)
    maps.  `phases` and `acts` are generator_forward's.  The ops are looked
    up by module name on each call, so whoever patches one sees every call.
    """
    last = {path: i for i, row in enumerate(rows) for path in row.inputs}
    maps = {"": x}
    for i, row in enumerate(rows):
        ins = [maps[path] for path in row.inputs]
        if row.op == "conv":
            name = row.prefix or row.path
            out = conv2d(ins[0] if len(ins) == 1 else concat_channels(*ins), params[name + ".w"],
                         params[name + ".b"], row.stride, row.pad, act=row.act,
                         alpha=config.lrelu_alpha)
        elif row.op == "deconv":
            kernel = params[row.path + ".w"]
            if phases is not None and row.path not in phases:
                phases[row.path] = phase_kernel(kernel.data, row.stride)
            out = deconv2d(ins[0], kernel, params[row.path + ".b"], row.stride,
                           act=row.act, phases=None if phases is None else phases[row.path])
        elif row.op == "sgu":  # ins are (ga, active, gp, passive)
            out = gate(*ins)
        elif row.op == "max":
            out = maximum(*ins)
        elif row.op == "avg":
            out = affine(add(*ins), 0.5, 0.0)
        else:  # "pool"
            out = global_avg_pool(ins[0])
        del ins  # so that the loop below frees each input at its last reader
        for path in row.inputs:
            if last[path] == i:
                del maps[path]
        maps[row.path] = _check_finite(out, row.path)
        if acts is not None and 0 < i < len(rows) - 1:
            acts[row.path] = out
    return out


def generator_forward(s: Tensor, params: dict, config: SgenConfig, phases: dict | None = None,
                      acts: dict | None = None) -> Tensor:
    """Run the generator's layer table; returns its output tensor.

    `s` must have spatial dims divisible by 2^(levels+1); callers pad and
    crop otherwise.  Each feature map, gate maps included, is dropped as
    soon as the last layer that reads it has run, unless `acts` keeps it.

    `acts`, a dict the caller owns, is filled only when given, in forward
    order: every row's output under its path except the first and last
    rows' (the full-resolution gen.enc.stem1 and gen.out.conv), so an sgu
    junction's gate maps come just before it, as "gen.{stage}.sgu{k}.ga"
    and ".gp".  Filling it keeps every one of them alive.

    `phases`, a dict the caller owns, keeps each deconv layer's phase kernel
    under its path ("gen.dec.base{k}", "gen.dec.merge{k}"), built on first
    use and reused by every later call given the same dict.  It is valid
    only while the weights stay as they were and no Graph records: pass one
    for inference over fixed weights (model_restorer), none for training.
    """
    _, c_in, h, w = s.shape
    if c_in != config.image_channels:
        raise ConfigError(
            f"generator expects {config.image_channels} input channels, got {c_in}")
    d = config.divisor
    if h % d or w % d:
        raise ConfigError(
            f"input spatial dims {h}x{w} must be divisible by {d}; "
            f"pad the input to the next multiple and crop the output back")
    return _run(layer_table(config)[0], s, params, config, phases, acts)


DISC_MIN_HW = 16  # four stride-2 convolutions


def discriminator_forward(img: Tensor, params: dict, config: SgenConfig) -> Tensor:
    """Score a batch of images; returns per-image probabilities, shape (n,1,1,1)."""
    _, _, h, w = img.shape
    if h < DISC_MIN_HW or w < DISC_MIN_HW:
        raise ConfigError(
            f"discriminator input {h}x{w} is smaller than its total stride {DISC_MIN_HW}")
    return _run(layer_table(config)[1], img, params, config)

# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(params: dict, config: SgenConfig, path) -> None:
    """Serialize parameters and config; see load_checkpoint for the layout."""
    blob = json.dumps(asdict(config), sort_keys=True).encode()
    with atomic_write(path) as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(struct.pack("<I", len(params)))
        for name in sorted(params):
            data = params[name].data
            enc = name.encode()
            fh.write(struct.pack("<H", len(enc)))
            fh.write(enc)
            fh.write(struct.pack("<B", data.ndim))
            fh.write(struct.pack(f"<{data.ndim}I", *data.shape))
            fh.write(np.ascontiguousarray(data, dtype="<f8").tobytes())


class _Reader:
    """Cursor over checkpoint bytes; short reads raise with the byte offset."""

    def __init__(self, raw: bytes):
        self.raw = raw
        self.pos = 0

    def _advance(self, count: int, what: str) -> int:
        """The offset of the next `count` bytes, which the cursor then passes."""
        if self.pos + count > len(self.raw):
            raise CheckpointError(
                f"truncated checkpoint: needed {count} bytes for {what} "
                f"at offset {self.pos}, file has {len(self.raw)}")
        self.pos += count
        return self.pos - count

    def take(self, count: int, what: str) -> bytes:
        start = self._advance(count, what)
        return self.raw[start:start + count]

    def floats(self, count: int, what: str) -> np.ndarray:
        """The next `count` little-endian float64 values, a view of the bytes."""
        start = self._advance(8 * count, what)
        return np.frombuffer(self.raw, dtype="<f8", count=count, offset=start)

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]


def load_checkpoint(path) -> tuple[dict, SgenConfig]:
    """Read a checkpoint written by save_checkpoint; returns (params, config).

    Layout: 4-byte magic "SGEN", u32 version, u32 JSON length + config JSON,
    u32 tensor count, then per tensor a u16-length utf-8 path, u8 ndim,
    ndim u32 dims, and raw little-endian float64 values.  The tensor names
    and shapes must be exactly those of param_layout(config), and every
    value must be finite; the params come back in its order, each a
    writeable array of its own.
    """
    raw = Path(path).read_bytes()
    r = _Reader(raw)
    magic = r.take(4, "magic")
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad magic {magic!r} (expected {CHECKPOINT_MAGIC!r})")
    version = r.u32("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {version} (expected {CHECKPOINT_VERSION})")
    blob = r.take(r.u32("config length"), "config JSON")
    try:
        block = json.loads(blob)
        if not isinstance(block, dict):
            raise TypeError(f"expected a JSON object, got {type(block).__name__}")
        for f in fields(SgenConfig):
            # a JSON integer may stand for a float; a bool is no int here
            want, got = type(f.default), type(block.get(f.name, f.default))
            if got is not want and (want, got) != (float, int):
                raise TypeError(f"{f.name} must be {want.__name__}, got {got.__name__}")
        config = SgenConfig(**block)
    except (ConfigError, ValueError, TypeError, RecursionError) as exc:
        raise CheckpointError(f"invalid config block: {exc}") from exc
    expected = {name: shape for name, (shape, _) in param_layout(config).items()}
    values: dict[str, np.ndarray] = {}  # views of `raw`, copied once all are read
    count = r.u32("tensor count")
    for i in range(count):
        name_len = struct.unpack("<H", r.take(2, f"tensor {i} name length"))[0]
        try:
            name = r.take(name_len, f"tensor {i} name").decode()
        except UnicodeDecodeError:
            raise CheckpointError(f"tensor {i} name is not valid UTF-8") from None
        if name in values:
            raise CheckpointError(f"duplicate tensor {name!r}")
        ndim = r.take(1, f"{name} ndim")[0]
        dims = struct.unpack(f"<{ndim}I", r.take(4 * ndim, f"{name} dims"))
        if name not in expected:
            raise CheckpointError(f"unexpected tensor {name!r} for this config")
        if dims != expected[name]:
            raise CheckpointError(
                f"tensor {name!r} has shape {dims}, config needs {expected[name]}")
        values[name] = r.floats(math.prod(dims), f"{name} values").reshape(dims)
    if r.pos != len(raw):
        raise CheckpointError(f"trailing bytes after tensor table (offset {r.pos})")
    missing = sorted(expected.keys() - values.keys())
    if missing:
        raise CheckpointError(f"checkpoint lacks {len(missing)} tensors: {missing[:4]}")
    for name, v in values.items():
        if not np.isfinite(v).all():
            raise CheckpointError(f"tensor {name!r} holds a non-finite value")
    return {name: Tensor(values[name].copy(), requires_grad=True) for name in expected}, config


# ---------------------------------------------------------------------------
# gate inspection


def dump_gates(params: dict, config: SgenConfig, s: Tensor, out_dir) -> dict:
    """Write every junction's gate maps as 8-bit PGM files.

    One file per (junction, gate, channel) from the first batch item, named
    like "enc_sgu2_ga_ch03.pgm", with gate value 0 mapped to byte 0 and 1 to
    byte 255.  Returns {junction: mean(ga + gp)}, keyed like "enc.sgu2", so
    callers can report how complementary the two gates are.
    """
    if config.combiner != "sgu":
        raise ConfigError("gate maps exist only for the sgu combiner")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    acts: dict = {}
    generator_forward(s, params, config, acts=acts)
    stats = {}
    for path, ga in acts.items():
        if not path.endswith(".ga"):
            continue
        junction = path.removeprefix("gen.").removesuffix(".ga")
        ga, gp = ga.data, acts[f"gen.{junction}.gp"].data
        stem = junction.replace(".", "_")
        for label, gmap in (("ga", ga), ("gp", gp)):
            for ch in range(gmap.shape[1]):
                # save_image maps [-1,1] to bytes, so 2g-1 lands gates on [0,255]
                save_image(gmap[0, ch] * 2.0 - 1.0,
                           out_dir / f"{stem}_{label}_ch{ch:02d}.pgm")
        stats[junction] = float((ga + gp).mean())
    return stats
