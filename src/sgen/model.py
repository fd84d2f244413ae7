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

No parameters are shared between any two layers or junctions.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .autodiff import (Tensor, add, affine, concat_channels, conv2d, deconv2d,
                       global_avg_pool, maximum, mul)
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

    def trunk_channels(self, k: int) -> int:
        """Encoder trunk width at level k (doubles per level, capped at 8x)."""
        return min(self.base_channels * 2 ** (k - 1), 8 * self.base_channels)

    @property
    def bottleneck_channels(self) -> int:
        """Width of every base-encoder output at the shared deepest scale."""
        return self.trunk_channels(self.levels)

    def decoder_channels(self, k: int) -> int:
        """Base-decoder output width at level k; level N+1 is the final merge."""
        if k == self.levels + 1:
            return self.base_channels
        return self.trunk_channels(self.levels + 1 - k)


def _check_finite(t: Tensor, path: str) -> Tensor:
    if not np.isfinite(t.data).all():
        raise NumericsError(f"non-finite activation after layer {path!r}")
    return t


# ---------------------------------------------------------------------------
# combiners


def combine(kind, a, b, params=None, path=""):
    """Combine active input `a` with passive input `b` per the named variant.

    Returns (output, ga, gp), where ga and gp are the gate-map tensors for
    "sgu" and None for the other kinds.  The sequential gating unit computes
    both gates from the active input through the convolutions `path + ".ga"`
    and `path + ".gp"` in `params` (stride 1, same padding,
    channel-preserving); "concat" reads `path + ".w"` and `path + ".b"`.
    """
    if a.shape != b.shape:
        raise ConfigError(f"combiner inputs must share a shape, got {a.shape} and {b.shape}")
    if kind == "sgu":
        ga = conv2d(a, params[path + ".ga.w"], params[path + ".ga.b"], 1, 1, act="sigmoid")
        gp = conv2d(a, params[path + ".gp.w"], params[path + ".gp.b"], 1, 1, act="sigmoid")
        return add(mul(ga, a), mul(gp, b)), ga, gp
    if kind == "max":
        return maximum(a, b), None, None
    if kind == "avg":
        return affine(add(a, b), 0.5, 0.0), None, None
    if kind == "concat":
        # 1x1 conv halves the channel count so downstream shapes match
        out = conv2d(concat_channels(a, b), params[path + ".w"], params[path + ".b"])
        return out, None, None
    raise ConfigError(f"unknown combiner kind {kind!r}")


# ---------------------------------------------------------------------------
# parameter initialization


def param_layout(config: SgenConfig) -> dict:
    """Name -> (shape, init bound) of every parameter, in init draw order.

    Weights are drawn uniform in [-bound, bound]: He bounds for layers feeding
    relu/lrelu, Xavier bounds for layers feeding sigmoid or tanh.  Biases have
    bound None and start at zero.
    """
    n, c, ic = config.levels, config.base_channels, config.image_channels
    bneck = config.bottleneck_channels
    layout: dict[str, tuple] = {}

    def put(path, shape, bound, oc_):
        layout[path + ".w"] = (shape, bound)
        layout[path + ".b"] = ((1, oc_, 1, 1), None)

    def put_conv(path, oc_, ic_, k, gain="he"):
        fan_in = ic_ * k * k
        fan_out = oc_ * k * k
        if gain == "he":
            bound = math.sqrt(6.0 / fan_in)
        else:  # xavier, for layers feeding sigmoid/tanh
            bound = math.sqrt(6.0 / (fan_in + fan_out))
        put(path, (oc_, ic_, k, k), bound, oc_)

    def put_deconv(path, ic_, oc_, factor):
        k = 2 * factor
        # each output pixel sees ic * k^2 / factor^2 contributing inputs
        fan_in = ic_ * k * k / (factor * factor)
        put(path, (ic_, oc_, k, k), math.sqrt(6.0 / fan_in), oc_)

    put_conv("gen.enc.stem1", c, ic, 3)
    put_conv("gen.enc.stem2", c, c, 3)
    for k in range(2, n + 1):
        put_conv(f"gen.enc.trunk{k}", config.trunk_channels(k), config.trunk_channels(k - 1), 3)
    for k in range(1, n + 1):
        j = n - k + 1  # pooling factor 2^j, kernel 2j+1
        put_conv(f"gen.enc.base{k}", bneck, config.trunk_channels(k), 2 * j + 1)
    for k in range(2, n + 1):
        if config.combiner == "sgu":
            put_conv(f"gen.enc.sgu{k}.ga", bneck, bneck, 3, gain="xavier")
            put_conv(f"gen.enc.sgu{k}.gp", bneck, bneck, 3, gain="xavier")
        elif config.combiner == "concat":
            put_conv(f"gen.enc.cat{k}", bneck, 2 * bneck, 1)
    for k in range(1, n + 1):
        put_deconv(f"gen.dec.base{k}", bneck, config.decoder_channels(k), 2 ** k)
    for k in range(2, n + 1):
        m = config.decoder_channels(k)
        if config.combiner == "sgu":
            put_conv(f"gen.dec.sgu{k}.ga", m, m, 3, gain="xavier")
            put_conv(f"gen.dec.sgu{k}.gp", m, m, 3, gain="xavier")
        elif config.combiner == "concat":
            put_conv(f"gen.dec.cat{k}", m, 2 * m, 1)
    for k in range(1, n + 1):
        put_deconv(f"gen.dec.merge{k}", config.decoder_channels(k), config.decoder_channels(k + 1), 2)
    put_conv("gen.out.conv", ic, c, 3, gain="xavier")

    w = config.disc_channels
    widths = [ic, w, 2 * w, 4 * w, 8 * w]
    for i in range(1, 5):
        put_conv(f"disc.conv{i}", widths[i], widths[i - 1], 4)
    put_conv("disc.fc", 1, 8 * w, 1, gain="xavier")
    return layout


def init_params(config: SgenConfig, seed: int | None = None) -> dict:
    """Build all generator ("gen.*") and discriminator ("disc.*") parameters.

    Deterministic given the seed (defaults to config.seed); see param_layout
    for the shapes and weight draws.
    """
    rng = np.random.default_rng(config.seed if seed is None else seed)
    params: dict[str, Tensor] = {}
    for name, (shape, bound) in param_layout(config).items():
        data = np.zeros(shape) if bound is None else rng.uniform(-bound, bound, size=shape)
        params[name] = Tensor(data, requires_grad=True)
    return params


def split_params(params: dict) -> tuple[dict, dict]:
    """Split a full parameter dict into (generator, discriminator) views."""
    gen = {k: v for k, v in params.items() if k.startswith("gen.")}
    disc = {k: v for k, v in params.items() if k.startswith("disc.")}
    return gen, disc


# ---------------------------------------------------------------------------
# forward passes


def generator_forward(s: Tensor, params: dict, config: SgenConfig):
    """Run the generator; returns (output tensor, activations).

    `s` must have spatial dims divisible by 2^(levels+1); callers pad and
    crop otherwise.  The activations dict maps layer paths, the ones a
    non-finite activation is reported under, to their outputs in forward
    order: "gen.enc.stem2", "gen.enc.trunk{k}", "gen.{enc,dec}.base{k}",
    "gen.{enc,dec}.junction{k}" and "gen.dec.merge{k}", plus the gate maps
    "gen.{enc,dec}.sgu{k}.ga" and ".gp" of the sgu combiner.
    """
    n_, c_in, h, w = s.shape
    if c_in != config.image_channels:
        raise ConfigError(
            f"generator expects {config.image_channels} input channels, got {c_in}")
    d = config.divisor
    if h % d or w % d:
        raise ConfigError(
            f"input spatial dims {h}x{w} must be divisible by {d}; "
            f"pad the input to the next multiple and crop the output back")

    n = config.levels
    al = config.lrelu_alpha
    acts: dict[str, Tensor] = {}

    def keep(path, t):
        acts[path] = _check_finite(t, path)
        return t

    def conv(t, path, stride, pad):
        return conv2d(t, params[path + ".w"], params[path + ".b"], stride, pad,
                      act="lrelu", alpha=al)

    def deconv(t, path, factor):
        return deconv2d(t, params[path + ".w"], params[path + ".b"], factor, act="relu")

    def junction(stage, k, active, passive):
        sgu = f"gen.{stage}.sgu{k}"
        out, ga, gp = combine(config.combiner, active, passive, params,
                              f"gen.{stage}.cat{k}" if config.combiner == "concat" else sgu)
        if ga is not None:
            acts[sgu + ".ga"], acts[sgu + ".gp"] = ga, gp
        return keep(f"gen.{stage}.junction{k}", out)

    # encoder trunk: one stride-2 step per level; the full-resolution stem1
    # output is checked but not kept
    t = _check_finite(conv(s, "gen.enc.stem1", 1, 1), "gen.enc.stem1")
    trunk = [keep("gen.enc.stem2", conv(t, "gen.enc.stem2", 2, 1))]
    del t
    for k in range(2, n + 1):
        trunk.append(keep(f"gen.enc.trunk{k}", conv(trunk[-1], f"gen.enc.trunk{k}", 2, 1)))

    # base-encoders: pool every level to the shared deepest scale
    base = []
    for k in range(1, n + 1):
        j = n - k + 1
        base.append(keep(f"gen.enc.base{k}", conv(trunk[k - 1], f"gen.enc.base{k}", 2 ** j, j)))

    # bottom-up combination; higher level is the active input
    combined = [base[0]]
    for k in range(2, n + 1):
        combined.append(junction("enc", k, base[k - 1], combined[-1]))

    # base-decoders: level k restores from the (N-k+1)-th combined feature
    dec = [keep(f"gen.dec.base{k}", deconv(combined[n - k], f"gen.dec.base{k}", 2 ** k))
           for k in range(1, n + 1)]

    # top-down combination; lower level is the active input
    y = keep("gen.dec.merge1", deconv(dec[0], "gen.dec.merge1", 2))
    for k in range(2, n + 1):
        y = junction("dec", k, dec[k - 1], y)
        y = keep(f"gen.dec.merge{k}", deconv(y, f"gen.dec.merge{k}", 2))

    out = conv2d(y, params["gen.out.conv.w"], params["gen.out.conv.b"], 1, 1, act="tanh")
    return _check_finite(out, "gen.out.conv"), acts


DISC_MIN_HW = 16  # four stride-2 convolutions


def discriminator_forward(img: Tensor, params: dict, config: SgenConfig) -> Tensor:
    """Score a batch of images; returns per-image probabilities, shape (n,1,1,1)."""
    _, _, h, w = img.shape
    if h < DISC_MIN_HW or w < DISC_MIN_HW:
        raise ConfigError(
            f"discriminator input {h}x{w} is smaller than its total stride {DISC_MIN_HW}")
    t = img
    for i in range(1, 5):
        t = conv2d(t, params[f"disc.conv{i}.w"], params[f"disc.conv{i}.b"], 2, 1,
                   act="lrelu", alpha=config.lrelu_alpha)
        _check_finite(t, f"disc.conv{i}")
    pooled = global_avg_pool(t)
    prob = conv2d(pooled, params["disc.fc.w"], params["disc.fc.b"], act="sigmoid")
    return _check_finite(prob, "disc.fc")


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

    def take(self, count: int, what: str) -> bytes:
        if self.pos + count > len(self.raw):
            raise CheckpointError(
                f"truncated checkpoint: needed {count} bytes for {what} "
                f"at offset {self.pos}, file has {len(self.raw)}")
        out = self.raw[self.pos:self.pos + count]
        self.pos += count
        return out

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]


def load_checkpoint(path) -> tuple[dict, SgenConfig]:
    """Read a checkpoint written by save_checkpoint; returns (params, config).

    Layout: 4-byte magic "SGEN", u32 version, u32 JSON length + config JSON,
    u32 tensor count, then per tensor a u16-length utf-8 path, u8 ndim,
    ndim u32 dims, and raw little-endian float64 values.  The tensor names
    and shapes must be exactly those of param_layout(config).
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
    params: dict[str, Tensor] = {}
    count = r.u32("tensor count")
    for i in range(count):
        name_len = struct.unpack("<H", r.take(2, f"tensor {i} name length"))[0]
        try:
            name = r.take(name_len, f"tensor {i} name").decode()
        except UnicodeDecodeError:
            raise CheckpointError(f"tensor {i} name is not valid UTF-8") from None
        if name in params:
            raise CheckpointError(f"duplicate tensor {name!r}")
        ndim = r.take(1, f"{name} ndim")[0]
        dims = struct.unpack(f"<{ndim}I", r.take(4 * ndim, f"{name} dims"))
        if name not in expected:
            raise CheckpointError(f"unexpected tensor {name!r} for this config")
        if dims != expected[name]:
            raise CheckpointError(
                f"tensor {name!r} has shape {dims}, config needs {expected[name]}")
        values = np.frombuffer(r.take(8 * math.prod(dims), f"{name} values"), dtype="<f8")
        params[name] = Tensor(values.reshape(dims).astype(np.float64), requires_grad=True)
    if r.pos != len(raw):
        raise CheckpointError(f"trailing bytes after tensor table (offset {r.pos})")
    missing = sorted(expected.keys() - params.keys())
    if missing:
        raise CheckpointError(f"checkpoint lacks {len(missing)} tensors: {missing[:4]}")
    return params, config


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
    _, acts = generator_forward(s, params, config)
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
