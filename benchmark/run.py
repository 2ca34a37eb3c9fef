"""Entry point of swipesim's benchmark; see benchmark/README.md.

BLAS thread counts are pinned to 1 before numpy loads: training bytes
differ across thread counts, and the single-thread matmuls are faster on
the small batches the program uses.
"""

import os
import sys
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

if __name__ == "__main__":
    if not (SRC / "swipesim" / "__init__.py").is_file():
        print(f"benchmark: no swipesim sources at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(HERE), str(SRC)]
    from swbench.cli import main

    sys.exit(main())
