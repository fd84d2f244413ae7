"""Image sourcing, the degradation model, batching, and netpbm file I/O.

Clean images travel through the pipeline in 8-bit units (float arrays with
values on the 0..255 scale); networks and files at the [-1, 1] boundary use
the fixed normalization v' = v / 127.5 - 1.  Degradation is box-average
downsampling, additive noise in 8-bit units with clamping, and nearest
upsampling back to the original size.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .errors import ConfigError, ImageFormatError

NOISE_KINDS = ("gaussian", "uniform", "none")


def to_unit(v):
    """Map 8-bit-scale values to [-1, 1] floats."""
    return np.asarray(v, dtype=np.float64) / 127.5 - 1.0


def to_bytes(v):
    """Map [-1, 1] floats back to uint8, rounding to nearest."""
    return np.clip(np.rint((np.asarray(v, dtype=np.float64) + 1.0) * 127.5), 0, 255).astype(np.uint8)


@dataclass(frozen=True)
class DegradationSpec:
    """How to corrupt a clean image: downsample, add noise, upsample."""

    down_factor: int = 4
    noise: str = "gaussian"
    sigma: float = 30.0
    uniform_lo: float = 0.0
    uniform_hi: float = 30.0

    def __post_init__(self):
        if self.down_factor < 1:
            raise ConfigError(f"down_factor must be >= 1, got {self.down_factor}")
        if self.noise not in NOISE_KINDS:
            raise ConfigError(f"noise must be one of {NOISE_KINDS}, got {self.noise!r}")
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ConfigError(f"sigma must be finite and >= 0, got {self.sigma}")
        if not (math.isfinite(self.uniform_lo) and math.isfinite(self.uniform_hi)):
            raise ConfigError(
                f"uniform_lo and uniform_hi must be finite, got {self.uniform_lo}, {self.uniform_hi}")
        if self.uniform_hi < self.uniform_lo:
            raise ConfigError("uniform_hi must be >= uniform_lo")


@dataclass
class Batch:
    """A stacked minibatch of pairs at one spatial scale."""

    s: Tensor
    t: Tensor


# ---------------------------------------------------------------------------
# degradation


def _box_down(img, factor):
    *lead, h, w = img.shape
    return img.reshape(*lead, h // factor, factor, w // factor, factor).mean(axis=(-3, -1))


def _nearest_up(img, factor):
    return np.repeat(np.repeat(img, factor, axis=-2), factor, axis=-1)


def degrade(img, spec: DegradationSpec, rng) -> np.ndarray:
    """Corrupt a clean image given in 8-bit units; returns [-1, 1] floats.

    Box-average downsample by spec.down_factor, add noise in 8-bit units,
    clamp to [0, 255], nearest-upsample back, then normalize.  Output shape
    equals input shape.
    """
    img = np.asarray(img, dtype=np.float64)
    h, w = img.shape[-2:]
    f = spec.down_factor
    if h % f or w % f:
        raise ConfigError(f"image dims {h}x{w} not divisible by down_factor {f}")
    lr = _box_down(img, f)
    if spec.noise == "gaussian":
        lr = lr + rng.normal(0.0, spec.sigma, size=lr.shape)
    elif spec.noise == "uniform":
        lr = lr + rng.uniform(spec.uniform_lo, spec.uniform_hi, size=lr.shape)
    lr = np.clip(lr, 0.0, 255.0)
    return to_unit(_nearest_up(lr, f))


# ---------------------------------------------------------------------------
# synthetic corpus


def synth_face(seed, h, w) -> np.ndarray:
    """Procedural face image, uint8 (h, w): gradient background, face ellipse,
    two eyes, a nose line, and a mouth arc, all jittered per seed."""
    if h < 16 or w < 16:
        raise ConfigError(f"synthetic faces need h, w >= 16, got {h}x{w}")
    rng = np.random.default_rng(seed)
    u = rng.uniform
    # pixel-center coordinates in (-1, 1): an (h, 1) column and a (1, w) row,
    # which broadcast to (h, w) only in the expressions that need both
    yy = ((np.arange(h) + 0.5) / h * 2.0 - 1.0)[:, None]
    xx = ((np.arange(w) + 0.5) / w * 2.0 - 1.0)[None, :]

    img = u(96.0, 144.0) + u(-28.0, 28.0) * xx + u(-28.0, 28.0) * yy

    cy, cx = u(-0.12, 0.12), u(-0.12, 0.12)
    ry, rx = u(0.58, 0.78), u(0.5, 0.68)
    face = ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0
    skin = u(150.0, 200.0)
    img = np.where(face, skin + u(-20.0, 20.0) * yy, img)

    eye_y = cy - ry * u(0.28, 0.42)
    eye_r = u(0.07, 0.13)
    for side in (-1.0, 1.0):
        ex = cx + side * rx * u(0.36, 0.5)
        eye = ((yy - eye_y) / eye_r) ** 2 + ((xx - ex) / (eye_r * u(1.2, 1.7))) ** 2 <= 1.0
        img[eye & face] = u(20.0, 70.0)

    nose = (np.abs(xx - cx) <= u(0.02, 0.05)) & (yy > eye_y + eye_r) & (yy < cy + ry * 0.3) & face
    img[nose] = skin - u(25.0, 55.0)

    mouth_y = cy + ry * u(0.4, 0.6)
    mouth_w = rx * u(0.3, 0.5)
    curve = mouth_y + u(0.04, 0.16) * ((xx - cx) / mouth_w) ** 2
    mouth = (np.abs(yy - curve) <= u(0.03, 0.06)) & (np.abs(xx - cx) <= mouth_w) & face
    img[mouth] = u(30.0, 90.0)

    return np.clip(np.rint(img), 0, 255).astype(np.uint8)


class SyntheticCorpus:
    """Procedural faces addressed by index; image i uses seed offset + i."""

    def __init__(self, count, offset=0, channels=1):
        if count < 1:
            raise ConfigError(f"corpus count must be >= 1, got {count}")
        self.count = count
        self.offset = offset
        self.channels = channels

    def __len__(self):
        return self.count

    def image(self, i, h, w) -> np.ndarray:
        """Clean image i at (h, w), float64 (c, h, w) in 8-bit units."""
        if not 0 <= i < self.count:
            raise ConfigError(f"corpus index {i} out of range [0, {self.count})")
        gray = synth_face(self.offset + i, h, w).astype(np.float64)
        return np.broadcast_to(gray, (self.channels, h, w)).copy()


class DiskCorpus:
    """Flat directory of PGM/PPM files, ordered lexicographically.

    Requested sizes are met by center-cropping; files smaller than the
    requested scale are an error (no resampling is performed).
    """

    def __init__(self, root, channels=1):
        root = Path(root)
        if not root.is_dir():
            raise ConfigError(f"corpus directory {root} does not exist")
        self.paths = sorted(p for p in root.iterdir()
                            if p.suffix.lower() in (".pgm", ".ppm"))
        if not self.paths:
            raise ConfigError(f"corpus directory {root} holds no .pgm/.ppm files")
        self.channels = channels

    def __len__(self):
        return len(self.paths)

    def image(self, i, h, w) -> np.ndarray:
        img = read_image(self.paths[i], self.channels)
        ch, cw = img.shape[-2:]
        if ch < h or cw < w:
            raise ConfigError(f"{self.paths[i]} is {ch}x{cw}, smaller than requested {h}x{w}")
        top, left = (ch - h) // 2, (cw - w) // 2
        return img[:, top:top + h, left:left + w]


class Subset:
    """A corpus view over a fixed index list."""

    def __init__(self, corpus, indices):
        self.corpus = corpus
        self.indices = list(indices)

    def __len__(self):
        return len(self.indices)

    def image(self, i, h, w):
        return self.corpus.image(self.indices[i], h, w)


def split_corpus(corpus, ratios):
    """Split into contiguous subsets by ratio, in the corpus's own order."""
    total = len(corpus)
    if not all(math.isfinite(r) and r >= 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"split ratios must be finite, nonnegative and sum to 1, got {ratios}")
    bounds = [0]
    for r in ratios[:-1]:
        # two shares that both round up would otherwise run past the corpus
        bounds.append(min(bounds[-1] + int(round(r * total)), total))
    bounds.append(total)
    return [Subset(corpus, range(a, b)) for a, b in zip(bounds, bounds[1:])]


# ---------------------------------------------------------------------------
# batching


def make_batch(corpus, scale, k, spec: DegradationSpec, rng) -> Batch:
    """Sample k corpus images at `scale` and degrade each independently."""
    if k < 1:
        raise ConfigError(f"batch size must be >= 1, got {k}")
    h, w = scale
    idx = rng.integers(0, len(corpus), size=k)
    imgs = [corpus.image(int(i), h, w) for i in idx]
    t = np.stack([to_unit(im) for im in imgs])
    s = np.stack([degrade(im, spec, rng) for im in imgs])
    return Batch(s=Tensor(s), t=Tensor(t))


# ---------------------------------------------------------------------------
# artifact files


@contextmanager
def atomic_write(path):
    """Open `path` for binary writing so that it appears whole or not at all.

    The block writes a temp file in the same directory, which os.replace
    moves over `path` when the block ends; if the block raises, the temp file
    is removed and any old file at `path` is left as it was.  An error in
    opening or moving the temp file names `path`.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename in (tmp, str(tmp)):
            raise type(exc)(exc.errno, exc.strerror, str(path)) from None
        raise


# ---------------------------------------------------------------------------
# netpbm I/O


def _next_token(raw: bytes, pos: int, what: str):
    n = len(raw)
    while pos < n:
        c = raw[pos]
        if c in b"#":
            while pos < n and raw[pos] not in b"\r\n":
                pos += 1
        elif c in b" \t\r\n":
            pos += 1
        else:
            break
    if pos >= n:
        raise ImageFormatError(f"unexpected end of header, wanted {what}", pos)
    start = pos
    while pos < n and raw[pos] not in b" \t\r\n":
        pos += 1
    return raw[start:pos], pos


def _header_int(raw, pos, what):
    tok, pos = _next_token(raw, pos, what)
    try:
        val = int(tok)
    except ValueError:
        raise ImageFormatError(f"bad {what} {tok!r}", pos - len(tok)) from None
    if val <= 0:
        raise ImageFormatError(f"{what} must be positive, got {val}", pos - len(tok))
    return val, pos


def read_netpbm(path) -> np.ndarray:
    """Read a binary PGM (P5) or PPM (P6) file as uint8 (h, w) or (h, w, 3)."""
    raw = Path(path).read_bytes()
    magic, pos = _next_token(raw, 0, "magic")
    if magic not in (b"P5", b"P6"):
        raise ImageFormatError(f"unsupported magic {magic!r}, need P5 or P6", 0)
    width, pos = _header_int(raw, pos, "width")
    height, pos = _header_int(raw, pos, "height")
    maxval, pos = _header_int(raw, pos, "maxval")
    if maxval != 255:
        raise ImageFormatError(f"only maxval 255 is supported, got {maxval}", pos)
    if pos >= len(raw) or raw[pos] not in b" \t\r\n":
        raise ImageFormatError("missing whitespace after maxval", pos)
    pos += 1
    channels = 1 if magic == b"P5" else 3
    need = width * height * channels
    if len(raw) - pos < need:
        raise ImageFormatError(
            f"raster needs {need} bytes, found {len(raw) - pos}", pos)
    data = np.frombuffer(raw, dtype=np.uint8, count=need, offset=pos)
    if channels == 1:
        return data.reshape(height, width)
    return data.reshape(height, width, 3)


def write_netpbm(raster: np.ndarray, path) -> None:
    """Write uint8 (h, w) as P5 or (h, w, 3) as P6."""
    raster = np.ascontiguousarray(raster, dtype=np.uint8)
    if raster.ndim == 2:
        magic = b"P5"
        h, w = raster.shape
    elif raster.ndim == 3 and raster.shape[2] == 3:
        magic = b"P6"
        h, w = raster.shape[:2]
    else:
        raise ConfigError(f"raster shape {raster.shape} is not (h, w) or (h, w, 3)")
    with atomic_write(path) as fh:
        fh.write(magic + b"\n%d %d\n255\n" % (w, h))
        fh.write(raster.tobytes())


def read_image(path, channels=None) -> np.ndarray:
    """Read a PGM/PPM file as float64 (c, h, w) in 8-bit units.

    With `channels` given, color is averaged to gray or gray is repeated to
    color; otherwise c is 1 for PGM and 3 for PPM.
    """
    raster = read_netpbm(path).astype(np.float64)
    img = raster[None] if raster.ndim == 2 else np.moveaxis(raster, -1, 0)
    if channels is None or img.shape[0] == channels:
        return img
    if channels == 1:
        return img.mean(axis=0, keepdims=True)
    return np.broadcast_to(img, (channels,) + img.shape[1:]).copy()


def load_image(path, channels=None) -> np.ndarray:
    """read_image mapped to [-1, 1]."""
    return to_unit(read_image(path, channels))


def save_image(img, path) -> None:
    """Write a [-1, 1] float image ((h, w), (1, h, w), or (3, h, w)) as PGM/PPM."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim == 2:
        img = img[None]
    if img.ndim != 3 or img.shape[0] not in (1, 3):
        raise ConfigError(f"image shape {img.shape} is not (c, h, w) with c in {{1, 3}}")
    raster = to_bytes(img)
    if raster.shape[0] == 1:
        write_netpbm(raster[0], path)
    else:
        write_netpbm(np.moveaxis(raster, 0, -1), path)
