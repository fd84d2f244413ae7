import hashlib

import numpy as np
import pytest

from sgen.data import (Batch, DegradationSpec, DiskCorpus, SyntheticCorpus,
                       atomic_write, degrade, load_image, make_batch,
                       read_netpbm, save_image, split_corpus,
                       synth_face, to_bytes, to_unit, write_netpbm)
from sgen.errors import ConfigError, ImageFormatError

GAUSS30 = DegradationSpec()
CLEAN1 = DegradationSpec(down_factor=1, noise="none")


def test_to_unit_to_bytes_roundtrip_all_values():
    b = np.arange(256, dtype=np.uint8)
    assert np.array_equal(to_bytes(to_unit(b)), b)
    assert to_unit(np.uint8(0)) == -1.0
    assert to_unit(np.uint8(255)) == 1.0


def test_degradation_spec_validation():
    with pytest.raises(ConfigError):
        DegradationSpec(down_factor=0)
    with pytest.raises(ConfigError):
        DegradationSpec(noise="poisson")
    with pytest.raises(ConfigError):
        DegradationSpec(sigma=-1)
    with pytest.raises(ConfigError):
        DegradationSpec(uniform_lo=5, uniform_hi=1)
    for kwargs in ({"sigma": float("nan")}, {"sigma": float("inf")},
                   {"uniform_lo": float("nan")}, {"uniform_hi": float("inf")}):
        with pytest.raises(ConfigError):
            DegradationSpec(**kwargs)


# ---------------------------------------------------------------------------
# degrade


def test_degrade_constant_image_noise_free():
    img = np.full((1, 32, 32), 77.0)
    out = degrade(img, DegradationSpec(noise="none"), np.random.default_rng(0))
    np.testing.assert_array_equal(out, to_unit(img))


def test_degrade_identity_when_factor1_no_noise():
    rng = np.random.default_rng(1)
    img = rng.integers(0, 256, (1, 24, 24)).astype(np.float64)
    out = degrade(img, CLEAN1, np.random.default_rng(0))
    np.testing.assert_array_equal(out, to_unit(img))


def test_degrade_piecewise_constant_blocks():
    rng = np.random.default_rng(2)
    img = rng.integers(0, 256, (1, 16, 16)).astype(np.float64)
    out = degrade(img, DegradationSpec(noise="none"), np.random.default_rng(0))
    assert out.shape == img.shape
    blocks = out.reshape(1, 4, 4, 4, 4)
    for i in range(4):
        for j in range(4):
            block = blocks[0, i, :, j, :]
            assert np.all(block == block[0, 0])


def test_degrade_range_and_shape():
    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, (3, 32, 48)).astype(np.float64)
    out = degrade(img, GAUSS30, np.random.default_rng(5))
    assert out.shape == (3, 32, 48)
    assert out.min() >= -1.0 and out.max() <= 1.0


def test_degrade_rejects_indivisible():
    with pytest.raises(ConfigError):
        degrade(np.zeros((1, 30, 32)), GAUSS30, np.random.default_rng(0))


def test_gaussian_noise_statistics():
    # factor 1 on a mid-gray canvas isolates the additive noise
    img = np.full((1, 1000, 1000), 128.0)
    spec = DegradationSpec(down_factor=1, noise="gaussian", sigma=30.0)
    out = degrade(img, spec, np.random.default_rng(42))
    noise = (out + 1.0) * 127.5 - 128.0
    assert abs(noise.mean()) < 0.1
    assert 29.7 <= noise.std() <= 30.3


def test_uniform_noise_statistics():
    img = np.full((1, 500, 500), 100.0)
    spec = DegradationSpec(down_factor=1, noise="uniform")
    out = degrade(img, spec, np.random.default_rng(7))
    noise = (out + 1.0) * 127.5 - 100.0
    assert noise.min() >= -1e-9 and noise.max() <= 30.0 + 1e-9
    assert 14.8 <= noise.mean() <= 15.2


def test_noise_sign_pattern_is_balanced():
    # i.i.d. noise: positive-pixel count within 4 sigma of n/2
    img = np.full((1, 200, 200), 128.0)
    spec = DegradationSpec(down_factor=1, noise="gaussian", sigma=30.0)
    out = degrade(img, spec, np.random.default_rng(9))
    pos = int(((out + 1.0) * 127.5 > 128.0).sum())
    n = 200 * 200
    assert abs(pos - n / 2) < 4 * np.sqrt(n / 4)


# ---------------------------------------------------------------------------
# synthetic faces


def test_synth_face_deterministic():
    a = synth_face(12, 48, 32)
    b = synth_face(12, 48, 32)
    assert a.dtype == np.uint8 and a.shape == (48, 32)
    assert np.array_equal(a, b)


def test_synth_face_distinct_and_contrastful():
    seen = set()
    for seed in range(1000):
        img = synth_face(seed, 32, 32)
        seen.add(img.tobytes())
        assert 64.0 <= img.mean() <= 192.0, seed
    assert len(seen) >= 990


def test_synth_face_minimum_size():
    with pytest.raises(ConfigError):
        synth_face(0, 8, 32)


# sha256 of synth_face rasters: the smallest size, a default scale, odd
# sizes, and ids of the benchmark's eval (2e9) and restore (3e9) ranges.
# Every pixel is exact float arithmetic on one PCG64 stream, so any change
# to the procedural training data fails here.
FACE_DIGESTS = [
    (0, 16, 16, "b96a29da5a82d9acd906a336f3b3ee2780e73839f341028577b2017e134940be"),
    (12, 48, 32, "9b999632b6bdb94f3c00a0c5c3baf7d9b8b3f6259079f5b2c91eeaf7eeeacab3"),
    (101, 17, 23, "bc079737f6f3e305ea28a42765dc4dcc7d563810fb9c4481f83072a24872adbd"),
    (4093, 81, 65, "253350e084e32135da2e796424a659800ec5df85b899886073004fd65b3476ac"),
    (2000000003, 64, 48, "a1b58117192f722fdfefe372f32d27b9a47ca7647563eafce20a30a36a90cee2"),
    (3000000017, 368, 300, "4f7a57c2e93dd5c340db95ff4145381564ec8d6e6033f27f2f8288b5a1db78f7"),
]


@pytest.mark.parametrize("seed,h,w,digest", FACE_DIGESTS,
                         ids=[f"{seed}-{h}x{w}" for seed, h, w, _ in FACE_DIGESTS])
def test_synth_face_is_pinned(seed, h, w, digest):
    assert hashlib.sha256(synth_face(seed, h, w).tobytes()).hexdigest() == digest


# ---------------------------------------------------------------------------
# corpora


def test_synthetic_corpus_addressing():
    c = SyntheticCorpus(10, offset=100, channels=1)
    assert len(c) == 10
    img = c.image(0, 48, 32)
    assert img.shape == (1, 48, 32)
    assert img.min() >= 0 and img.max() <= 255
    np.testing.assert_array_equal(img[0], synth_face(100, 48, 32).astype(np.float64))
    with pytest.raises(ConfigError):
        c.image(10, 48, 32)


def test_disk_corpus_order_and_crop(tmp_path):
    rng = np.random.default_rng(0)
    for name in ("b.pgm", "a.pgm", "c.ppm"):
        raster = rng.integers(0, 256, (40, 40) if name.endswith("pgm") else (40, 40, 3))
        write_netpbm(raster.astype(np.uint8), tmp_path / name)
    (tmp_path / "notes.txt").write_text("ignored")
    c = DiskCorpus(tmp_path, channels=1)
    assert len(c) == 3
    assert [p.name for p in c.paths] == ["a.pgm", "b.pgm", "c.ppm"]
    img = c.image(0, 32, 16)
    assert img.shape == (1, 32, 16)
    full = read_netpbm(tmp_path / "a.pgm").astype(np.float64)
    np.testing.assert_array_equal(img[0], full[4:36, 12:28])
    with pytest.raises(ConfigError):
        c.image(0, 64, 16)  # larger than the file


def test_disk_corpus_channel_conversion(tmp_path):
    rng = np.random.default_rng(1)
    color = rng.integers(0, 256, (20, 20, 3)).astype(np.uint8)
    write_netpbm(color, tmp_path / "x.ppm")
    gray = DiskCorpus(tmp_path, channels=1).image(0, 20, 20)
    np.testing.assert_allclose(gray[0], color.astype(np.float64).mean(axis=-1))
    rgb = DiskCorpus(tmp_path, channels=3).image(0, 20, 20)
    np.testing.assert_array_equal(rgb, np.moveaxis(color.astype(np.float64), -1, 0))


def test_disk_corpus_empty_directory(tmp_path):
    with pytest.raises(ConfigError):
        DiskCorpus(tmp_path)


def test_split_corpus_partitions():
    c = SyntheticCorpus(10)
    train, val, test = split_corpus(c, (0.8, 0.1, 0.1))
    assert (len(train), len(val), len(test)) == (8, 1, 1)
    np.testing.assert_array_equal(val.image(0, 16, 16), c.image(8, 16, 16))
    # 0.5 of 3 rounds up twice: the bounds stop at the corpus size
    for corpus, ratios in [(c, (0.8, 0.1, 0.1)), (SyntheticCorpus(3), (0.5, 0.5, 0.0))]:
        parts = split_corpus(corpus, ratios)
        assert [i for part in parts for i in part.indices] == list(range(len(corpus)))
    for ratios in [(0.5, 0.2, 0.2), (float("nan"),) * 3]:
        with pytest.raises(ConfigError):
            split_corpus(c, ratios)


# ---------------------------------------------------------------------------
# batching


def test_make_batch_shapes_and_determinism():
    c = SyntheticCorpus(20)
    b1 = make_batch(c, (48, 32), 4, GAUSS30, np.random.default_rng(5))
    b2 = make_batch(c, (48, 32), 4, GAUSS30, np.random.default_rng(5))
    assert isinstance(b1, Batch)
    assert b1.s.shape == b1.t.shape == (4, 1, 48, 32)
    assert np.array_equal(b1.s.data, b2.s.data)
    assert np.array_equal(b1.t.data, b2.t.data)


def test_make_batch_identity_degradation():
    c = SyntheticCorpus(5)
    b = make_batch(c, (32, 32), 2, CLEAN1, np.random.default_rng(0))
    np.testing.assert_array_equal(b.s.data, b.t.data)


def test_make_batch_rejects_bad_k():
    with pytest.raises(ConfigError):
        make_batch(SyntheticCorpus(5), (32, 32), 0, CLEAN1, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# netpbm I/O


def test_pgm_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(3)
    raster = rng.integers(0, 256, (17, 23)).astype(np.uint8)
    path = tmp_path / "x.pgm"
    write_netpbm(raster, path)
    assert np.array_equal(read_netpbm(path), raster)


def test_ppm_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(4)
    raster = rng.integers(0, 256, (9, 11, 3)).astype(np.uint8)
    path = tmp_path / "x.ppm"
    write_netpbm(raster, path)
    assert np.array_equal(read_netpbm(path), raster)


def test_minimal_p5_header(tmp_path):
    path = tmp_path / "m.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 64, 128, 255]))
    raster = read_netpbm(path)
    np.testing.assert_array_equal(raster, [[0, 64], [128, 255]])


def test_header_comments_allowed(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n2 1 # trailing\n255\n" + bytes([1, 2]))
    np.testing.assert_array_equal(read_netpbm(path), [[1, 2]])


def test_bad_maxval_rejected(tmp_path):
    path = tmp_path / "m.pgm"
    path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(ImageFormatError, match="maxval"):
        read_netpbm(path)


def test_truncated_raster_reports_offset(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
    with pytest.raises(ImageFormatError, match="offset 11"):
        read_netpbm(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "b.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 0 0 0")
    with pytest.raises(ImageFormatError, match="magic"):
        read_netpbm(path)


def test_save_load_image_roundtrip(tmp_path):
    rng = np.random.default_rng(6)
    img = to_unit(rng.integers(0, 256, (1, 12, 12)))
    path = tmp_path / "r.pgm"
    save_image(img, path)
    np.testing.assert_array_equal(load_image(path), img)
    raw = rng.integers(0, 256, (3, 8, 8))
    color = to_unit(raw)
    cpath = tmp_path / "r.ppm"
    save_image(color, cpath)
    np.testing.assert_array_equal(load_image(cpath), color)
    # a model's channel count: color averages to gray, gray repeats to color
    np.testing.assert_array_equal(load_image(cpath, 1), to_unit(raw.mean(axis=0, keepdims=True)))
    np.testing.assert_array_equal(load_image(path, 3), np.repeat(img, 3, axis=0))


def test_save_image_gate_value_mapping(tmp_path):
    # gate maps route through save_image(2g - 1): 0 -> byte 0, 1 -> byte 255
    g = np.array([[0.0, 1.0], [0.5, 0.25]])
    path = tmp_path / "g.pgm"
    save_image(g * 2.0 - 1.0, path)
    np.testing.assert_array_equal(read_netpbm(path), [[0, 255], [128, 64]])


def test_atomic_write_failing_midway_keeps_old_file(tmp_path):
    path = tmp_path / "a.pgm"
    write_netpbm(np.zeros((4, 4), dtype=np.uint8), path)
    before = path.read_bytes()
    with pytest.raises(RuntimeError):
        with atomic_write(path) as fh:
            fh.write(b"P5\n4 4\n255\n" + bytes(3))
            raise RuntimeError("disk full")
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["a.pgm"]
    with atomic_write(tmp_path / "new.csv") as fh:
        fh.write(b"x\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.pgm", "new.csv"]
