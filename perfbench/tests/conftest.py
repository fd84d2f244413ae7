"""Make the benchmark's modules importable, with the environment run.py pins."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402,F401  (pins BLAS threads before numpy loads)
