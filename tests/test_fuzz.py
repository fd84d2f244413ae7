"""Property tests: any input file gives a value or the module's typed error.

Each example is built from byte fragments that the parser knows mixed with
arbitrary bytes, so the search reaches past the first header check.
Derandomized and database-free, so a run is repeatable and stores no examples.
"""

import json
import struct
from dataclasses import asdict, fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgen.config import parse_config_file
from sgen.data import read_netpbm
from sgen.errors import CheckpointError, ConfigError, ImageFormatError
from sgen.model import (COMBINERS, SgenConfig, init_params, load_checkpoint, param_layout,
                        save_checkpoint)

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=200)

TINY = SgenConfig(levels=2, base_channels=2)


def fragments(*known):
    pieces = st.one_of(st.binary(max_size=12), st.sampled_from(known))
    return st.lists(pieces, max_size=24).map(b"".join)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def tiny_checkpoint(scratch):
    path = scratch / "tiny.ckpt"
    save_checkpoint(init_params(TINY), TINY, path)
    return path.read_bytes()


SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 10), st.integers(),
                    st.integers(-3, 10).map(float), st.floats(), st.text(max_size=8),
                    st.sampled_from(COMBINERS))
NAMES = [f.name for f in fields(SgenConfig)]
# an arbitrary small block, or the tiny model's block with one value replaced
BLOCKS = st.one_of(st.dictionaries(st.sampled_from(NAMES), SCALARS, max_size=3),
                   st.builds(lambda k, v: {**asdict(TINY), k: v}, st.sampled_from(NAMES), SCALARS))


@FUZZ
@given(block=BLOCKS)
def test_checkpoint_config_block_fuzz(block, scratch, tiny_checkpoint):
    # the tiny model's tensor table behind an arbitrary config block
    (size,) = struct.unpack("<I", tiny_checkpoint[8:12])
    blob = json.dumps(block).encode()
    path = scratch / "block.ckpt"
    path.write_bytes(tiny_checkpoint[:8] + struct.pack("<I", len(blob)) + blob
                     + tiny_checkpoint[12 + size:])
    try:
        params, config = load_checkpoint(path)
    except CheckpointError:
        return
    assert config == SgenConfig(**block)
    assert params.keys() == param_layout(config).keys()


# edits of a real checkpoint: (offset, cut) truncates, (offset, mask) flips
# bits of one byte, (offset, length, bytes) replaces a span; offsets wrap
# around the file, so every byte is in reach, the tensor table included
EDITS = st.lists(st.one_of(
    st.tuples(st.just("cut"), st.integers(0, 2**32)),
    st.tuples(st.just("flip"), st.integers(0, 2**32), st.integers(1, 255)),
    st.tuples(st.just("splice"), st.integers(0, 2**32), st.integers(0, 16),
              st.binary(max_size=16))), min_size=1, max_size=4)


def _edit(raw: bytes, edits) -> bytes:
    for kind, at, *rest in edits:
        at %= len(raw) + 1
        if kind == "cut":
            raw = raw[:at]
        elif kind == "flip" and at < len(raw):
            raw = raw[:at] + bytes([raw[at] ^ rest[0]]) + raw[at + 1:]
        elif kind == "splice":
            length, new = rest
            raw = raw[:at] + new + raw[at + length:]
    return raw


@FUZZ
@given(edits=EDITS)
def test_checkpoint_bytes_fuzz(edits, scratch, tiny_checkpoint):
    path = scratch / "edited.ckpt"
    path.write_bytes(_edit(tiny_checkpoint, edits))
    try:
        params, config = load_checkpoint(path)
    except CheckpointError:
        return
    layout = param_layout(config)
    assert params.keys() == layout.keys()
    assert all(params[name].shape == shape for name, (shape, _) in layout.items())


@FUZZ
@given(raw=fragments(b"levels", b"sigma", b"mse_only", b"scales", b" = ", b"=", b"\n",
                     b"#", b"3", b"2.5", b"true", b"48x32", b"\xe9", b"\xff"))
def test_config_file_fuzz(raw, scratch):
    path = scratch / "run.cfg"
    path.write_bytes(raw)
    try:
        assert isinstance(parse_config_file(path), dict)
    except ConfigError:
        pass


@FUZZ
@given(raw=fragments(b"P5", b"P6", b" ", b"\n", b"#c\n", b"1", b"2", b"255", b"0", b"-1",
                     b"99999999999"))
def test_read_netpbm_fuzz(raw, scratch):
    path = scratch / "img.pgm"
    path.write_bytes(raw)
    try:
        raster = read_netpbm(path)
    except ImageFormatError:
        return
    assert raster.dtype.name == "uint8" and raster.ndim in (2, 3)
