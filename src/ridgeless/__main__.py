"""The one command-line entry: `python -m ridgeless` and the `ridgeless` script run run()."""

import os
import sys


def run() -> None:
    """Exit with cli.main()'s code, OpenBLAS started at one thread unless the user sized it.

    The CLI makes every BLAS call under the trial loops' one-thread hold, so the pool
    OpenBLAS would spawn when numpy loads is never used and only costs start-up time.
    """
    if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & set(os.environ):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    from .cli import main  # after the variable: importing the CLI loads numpy

    sys.exit(main())


if __name__ == "__main__":
    run()
