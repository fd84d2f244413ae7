"""Byte differences of float32 `sgen restore` from the float64 generator forward.

    OPENBLAS_NUM_THREADS=1 python3 tools/float32_restore_bytes.py [--count N]

Walks perfbench's restore-cli request pools: for seeds 0 and 1, the
workload's checkpoint, request sizes and degraded inputs (the first N
requests, or the whole pool of 48).  Each request runs through `sgen
restore` in process, which restores in float32 as every
`metrics.model_restorer` does.  The same input is edge-padded, run through
`model.generator_forward` over the checkpoint's float64 weights, cropped
back and quantized as `save_image` does.  Prints the bytes compared, how
many differ and the largest difference in gray levels.  Exits 1 when the largest difference is
above one gray level, else 0.  It writes only to a temporary directory.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 1)
BOUND = 1  # gray levels
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402  (puts this checkout's src on the path)
from sgen.autodiff import Tensor  # noqa: E402
from sgen.data import load_image, read_netpbm, save_image, to_bytes  # noqa: E402
from sgen.metrics import pad_to_divisor  # noqa: E402
from sgen.model import generator_forward, load_checkpoint  # noqa: E402


def pool_differences(seeds, count=None) -> tuple[int, int, int]:
    """(bytes compared, bytes that differ, largest difference) over the pools."""
    total = differ = worst = 0
    with tempfile.TemporaryDirectory() as tmp:
        ck, src, dst = Path(tmp, "model.ckpt"), Path(tmp, "in.pgm"), Path(tmp, "out.pgm")
        wl.write_checkpoint(ck)
        params, mcfg = load_checkpoint(ck)
        for seed in seeds:
            for i, (h, w) in enumerate(wl.restore_sizes(seed)[:count]):
                save_image(wl.restore_input(seed, i, h, w), src)
                code, out = wl.restore_request(ck, src, dst)
                if code != 0:
                    raise RuntimeError(f"sgen restore exited {code}: {out}")
                got = read_netpbm(dst).astype(int)
                img = pad_to_divisor(load_image(src, mcfg.image_channels)[None], mcfg.divisor)
                want = to_bytes(generator_forward(Tensor(img), params, mcfg).data[0, 0, :h, :w])
                d = np.abs(got - want)
                total, differ = total + d.size, differ + int(np.count_nonzero(d))
                worst = max(worst, int(d.max()))
    return total, differ, worst


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=None, help="requests per seed")
    args = parser.parse_args(argv)
    total, differ, worst = pool_differences(SEEDS, args.count)
    print(f"bytes {total}, differing {differ} ({100 * differ / total:.4f}%), "
          f"largest difference {worst}")
    return 1 if worst > BOUND else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
