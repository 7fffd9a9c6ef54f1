"""Child processes of the benchmark; run only by run.py.

    child.py env OUT_JSON
        Record the Python, numpy and BLAS environment in effect.
    child.py setup WORKLOAD SEED WORKDIR [--smoke]
        Import ridgeless.cli and build the workload's spectra and configs
        through the public builders; no trial and no diagnose run.
    child.py trace SPANS_JSON ARG...
        Run ``ridgeless.cli.main(ARG...)`` in process with every public
        function traced, write the spans, exit with main's code.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time

# Names under which OpenBLAS builds export their thread-count getter:
# numpy's bundled scipy-openblas (64-bit ints, suffixed), then plain builds.
_BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _blas_threads():
    """Thread count of the loaded OpenBLAS, or "unknown" without the symbol."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in _BLAS_THREAD_SYMBOLS:
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn()), symbol
    return "unknown", None


def env(out_path: str) -> int:
    import platform

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads, symbol = _blas_threads()
    info = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": threads,
        "blas_threads_symbol": symbol,
        "thread_env": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(info, fh)
    return 0


def setup(workload: str, seed: int, workdir: str, smoke: bool) -> int:
    import ridgeless.cli  # noqa: F401  (the import a user's process pays)
    import workloads

    w = workloads.WORKLOADS[workload]
    w.setup(w.params(smoke), seed, workdir)
    return 0


def trace(spans_path: str, argv: list) -> int:
    import tracer

    t = tracer.Tracer()
    start = time.perf_counter_ns()
    import ridgeless.cli

    t.spans.append((0, "cli.import", start, time.perf_counter_ns(), None, threading.get_ident(), None))
    tracer.install(t)
    try:
        return ridgeless.cli.main(argv)
    finally:
        t.dump(spans_path)


def main(argv) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "env":
        return env(rest[0])
    if mode == "setup":
        return setup(rest[0], int(rest[1]), rest[2], "--smoke" in rest[3:])
    if mode == "trace":
        return trace(rest[0], rest[1:])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
