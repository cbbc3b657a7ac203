"""Benchmark command: ``python3 -m perfbench --workload NAME --seed N --seconds S --trace 0|1``.

Run from the repository root; see run.py for what a run does. Without the
library under ``src/`` it exits with 2 and prints no result.
"""
import os
import sys
from pathlib import Path

# Fix the BLAS thread count before numpy loads. One thread keeps timings
# steady on a shared machine and is at or below nproc everywhere.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def import_library() -> None:
    """Import reswitch from this checkout's src/, or exit with 2."""
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    try:
        import reswitch
    except ImportError as exc:
        print(f"perfbench: cannot import reswitch from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(reswitch.__file__).resolve().parent.parent != src:
        print(f"perfbench: reswitch was imported from {reswitch.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    import_library()
    from .run import main
    sys.exit(main())
