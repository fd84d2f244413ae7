"""Rewrite perfbench/reference/ from the program in this checkout.

    python3 perfbench/make_reference.py

Run it only on a commit whose outputs are known to be right: every later
benchmark run compares its reference outputs with what this writes.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run  # noqa: F401  (pins BLAS threads before numpy loads)
import workloads


def main() -> int:
    out = workloads.REFERENCE_DIR
    out.mkdir(exist_ok=True)
    values = {}
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=workloads.BENCH_DIR))
    try:
        for name in workloads.WORKLOADS:
            observed = workloads.observe_reference(name, work / name)
            if name == "restore-cli":
                files = []
                for i, raster in enumerate(observed["restored"]):
                    files.append(f"restore-{i}.pgm")
                    workloads.sgen.data.write_netpbm(raster, out / files[-1])
                values[name] = {"files": files}
            else:
                values[name] = observed
    finally:
        shutil.rmtree(work, ignore_errors=True)
    workloads.REFERENCE_VALUES.write_text(json.dumps(values, indent=1) + "\n")
    print(f"wrote {workloads.REFERENCE_VALUES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
