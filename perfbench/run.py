"""ptwalk benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a ptwalk checkout; the program is imported from its
``src`` directory. With ``--trace 0`` the last stdout line carries the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced run.
``--smoke`` runs tiny sizes of the same workloads (used by the tests).
"""

import os
import sys
from pathlib import Path

# BLAS/OpenMP pools pinned to one thread; set before numpy is imported.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


def bootstrap(root: Path) -> None:
    """Pin threads and put ``root/src`` first on the import path."""
    os.environ.update(THREAD_ENV)
    src = root / "src"
    if not (src / "ptwalk" / "__init__.py").is_file():
        raise FileNotFoundError(f"no ptwalk sources under {src}")
    sys.path.insert(0, str(src))


def main() -> int:
    root = Path.cwd()
    try:
        bootstrap(root)
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import harness

    return harness.main(sys.argv[1:], root)


if __name__ == "__main__":
    sys.exit(main())
