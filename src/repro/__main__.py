"""Module entry point: ``python -m repro``."""

import os
import sys

# One BLAS thread per process unless the environment says otherwise: the
# CLI's parallelism is its worker processes. Set before NumPy loads.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from repro.cli import main  # noqa: E402

sys.exit(main())
