"""Interpreter set-up that has to happen before numpy is imported."""

import os
import sys
from pathlib import Path

THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent


def prepare():
    """Pin BLAS to one thread and import specdrive from this checkout.

    Exits with status 2 when the checkout has no specdrive sources, so a
    copy of the benchmark without the program fails instead of measuring
    an installed copy.
    """
    for var in THREAD_VARIABLES:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "specdrive" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no specdrive sources under {src}\n")
        sys.exit(2)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
