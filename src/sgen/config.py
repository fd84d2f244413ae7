"""Flat key = value run configuration with a strict schema.

A run config covers the model, trainer, degradation, scales, corpus paths
and output directory.  Files hold one `key = value` per line with optional
``#`` comments; unknown keys and malformed values are rejected with the
offending line number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, make_dataclass, replace
from pathlib import Path

from .data import DegradationSpec, DiskCorpus, SyntheticCorpus, split_corpus
from .errors import ConfigError
from .model import SgenConfig
from .train import TrainConfig


@dataclass(frozen=True)
class _RunKeys:
    """Run-level keys and methods; RunConfig adds every field of the parts."""

    scales: str = "48x32,64x48,80x64"
    corpus: str = ""
    val_corpus: str = ""
    split: str = "0.8,0.1,0.1"
    synthetic: int = 0
    synthetic_offset: int = 0
    val_images: int = 200
    out: str = "sgen_out"

    def __post_init__(self):
        if self.synthetic < 0:
            raise ConfigError(f"synthetic must be >= 0, got {self.synthetic}")
        if self.synthetic_offset < 0:  # procedural ids seed numpy generators
            raise ConfigError(f"synthetic_offset must be >= 0, got {self.synthetic_offset}")
        # every part checks its own keys, so a bad value fails here, before
        # any subcommand uses it
        for build in _PARTS:
            getattr(self, build)()

    def scale_list(self) -> list:
        """Parse "HxW,HxW,..." and check divisibility for model and degradation."""
        out = []
        for part in self.scales.split(","):
            part = part.strip()
            try:
                h, w = (int(v) for v in part.lower().split("x"))
            except ValueError:
                raise ConfigError(f"bad scale {part!r}; scales look like 48x32") from None
            out.append((h, w))
        if not out:
            raise ConfigError("scales is empty")
        need = math.lcm(self.sgen_config().divisor, self.down_factor)
        for h, w in out:
            if h % need or w % need or h < need or w < need:
                raise ConfigError(
                    f"scale {h}x{w} dims must be positive multiples of {need} "
                    f"(lcm of generator divisor and down_factor)")
        return out

    def corpora(self):
        """Build (train, val) corpora from synthetic count or corpus directory."""
        if self.synthetic > 0:
            train = SyntheticCorpus(self.synthetic, offset=self.synthetic_offset,
                                    channels=self.image_channels)
            val = SyntheticCorpus(self.val_images,
                                  offset=self.synthetic_offset + self.synthetic,
                                  channels=self.image_channels)
            return train, val
        if self.corpus:
            disk = DiskCorpus(self.corpus, channels=self.image_channels)
            ratios = self._split_ratios()
            parts = split_corpus(disk, ratios)
            if len(parts[0]) == 0 or len(parts[1]) == 0:
                raise ConfigError(
                    f"corpus {self.corpus} with split {self.split} leaves an empty train/val part")
            return parts[0], parts[1]
        raise ConfigError(
            "no training data: set the 'corpus' key to an image directory "
            "or pass --synthetic COUNT")

    def eval_corpus(self):
        """The held-out corpus eval scores: val_corpus when set, else the
        validation part of corpora(), the images training validates on."""
        if self.val_corpus:
            return DiskCorpus(self.val_corpus, channels=self.image_channels)
        if not (self.synthetic or self.corpus):
            raise ConfigError(
                "no evaluation data: set the 'val_corpus' or 'corpus' key to an image "
                "directory or pass --synthetic COUNT")
        return self.corpora()[1]

    def _split_ratios(self):
        try:
            ratios = tuple(float(v) for v in self.split.split(","))
        except ValueError:
            raise ConfigError(f"bad split {self.split!r}; expected e.g. 0.8,0.1,0.1") from None
        if len(ratios) != 3:
            raise ConfigError(f"split needs three ratios (train,val,test), got {self.split!r}")
        return ratios


def _builder(part):
    def build(self):
        return part(**{f.name: getattr(self, f.name) for f in fields(part)})
    build.__doc__ = f"The {part.__name__} named by this run's keys."
    return build


# each method builds its part from the same-named keys; `seed` feeds both
# the model and the trainer
_PARTS = {"sgen_config": SgenConfig, "train_config": TrainConfig,
          "degradation_spec": DegradationSpec}
_PART_FIELDS = {f.name: f for part in _PARTS.values() for f in fields(part)}

RunConfig = make_dataclass(
    "RunConfig",
    [(f.name, f.type, field(default=f.default)) for f in _PART_FIELDS.values()],
    bases=(_RunKeys,), frozen=True,
    namespace={"__module__": __name__,
               **{name: _builder(part) for name, part in _PARTS.items()}})

_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
_BOOL_WORDS = {"true": True, "1": True, "yes": True, "on": True,
               "false": False, "0": False, "no": False, "off": False}


def _coerce(key: str, text: str, where: str):
    typ = {"int": int, "float": float, "bool": bool, "str": str}[_FIELD_TYPES[key]]
    if typ is bool:
        flag = _BOOL_WORDS.get(text.lower())
        if flag is None:
            raise ConfigError(f"{where}: {key} wants true/false, got {text!r}")
        return flag
    if typ is str:
        return text
    try:
        return typ(text)
    except ValueError:
        raise ConfigError(f"{where}: {key} wants {typ.__name__}, got {text!r}") from None


def parse_config_file(path) -> dict:
    """Read key = value lines; returns a typed dict of overrides."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file {path} does not exist")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8: {exc}") from None
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        if "=" not in line:
            raise ConfigError(f"{where}: expected key = value, got {raw!r}")
        key, text = (part.strip() for part in line.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{where}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"{where}: duplicate config key {key!r}")
        values[key] = _coerce(key, text, where)
    return values


def build_run_config(file_path=None, overrides=None) -> RunConfig:
    """Defaults, then config-file values, then explicit flag overrides."""
    run = RunConfig()
    if file_path:
        run = replace(run, **parse_config_file(file_path))
    if overrides:
        unknown = set(overrides) - set(_FIELD_TYPES)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        run = replace(run, **overrides)
    return run
