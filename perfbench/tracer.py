"""In-process span tracer for the ridgeless package, applied from outside.

The tracer wraps each public function of the package's modules in every
namespace that holds it, so a call is recorded wherever its caller looks
the name up (``ridgeless.experiments.min_norm_fit`` as well as
``ridgeless.design.min_norm_fit``).  Nothing in the package is edited.

A span is ``(id, name, start_ns, end_ns, parent_id, thread_id, work)``.
Each thread keeps its own stack of open spans; a task submitted to the
experiments worker pool starts with the submitting span (its
``run_experiment``) as parent.  Calls into the ``numpy.linalg``
factorization routines are counted, not timed, so their time stays in
the self time of the layer that called them.  Spans stay in memory until
``dump`` writes them out.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
import types
from concurrent.futures import ThreadPoolExecutor

# Modules whose public functions are layers, in dependency order.
LAYERS = ("spectra", "diagnostics", "design", "noise", "experiments", "serialize", "cli")

# Called once per float or cell inside serialize; a span each would cost
# more than the work it measures, so their time stays with the caller.
UNTRACED = {"serialize.format_float", "cli.entry"}

# numpy.linalg routines that factor a matrix (or solve through a factor).
FACTORIZATIONS = (
    "svd", "svdvals", "qr", "eig", "eigh", "eigvals", "eigvalsh",
    "cholesky", "lstsq", "pinv", "solve", "inv", "det", "slogdet",
)


def _sample_bytes(args, kwargs, result):
    return result.n * result.p * 8


def _written_bytes(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


# Work recorded with a span, computed from the call's arguments and result.
WORK = {
    "design.sample_design": _sample_bytes,
    "serialize.write_text": _written_bytes,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict = {}
        self._ids = itertools.count(1)  # next() on a count is atomic under the GIL
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def span(self, name: str, fn, work=None):
        """Wrap fn so that each call records one span named name."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter_ns()
            amount = None
            try:
                result = fn(*args, **kwargs)
                if work is not None:
                    amount = work(args, kwargs, result)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                # list.append is atomic under the GIL
                self.spans.append((sid, name, start, end, parent, threading.get_ident(), amount))

        return traced

    def adopt(self, parent, fn, *args, **kwargs):
        """Run fn on this thread with parent as the enclosing span."""
        stack = self._stack()
        if parent is not None:
            stack.append(parent)
        try:
            return fn(*args, **kwargs)
        finally:
            if parent is not None:
                stack.pop()

    def counter(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            with self._lock:
                self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def install(tracer: Tracer) -> None:
    """Wrap the package's public functions, Spectrum construction, the
    experiments worker pool and numpy.linalg factorizations."""
    import numpy
    import ridgeless
    import ridgeless.cli  # noqa: F401  (imports every layer)

    modules = [getattr(ridgeless, layer) for layer in LAYERS]
    namespaces = modules + [ridgeless]
    for layer, module in zip(LAYERS, modules):
        for attr, fn in list(vars(module).items()):
            if attr.startswith("_") or not isinstance(fn, types.FunctionType):
                continue
            if fn.__module__ != module.__name__:
                continue
            name = f"{layer}.{attr}"
            if name in UNTRACED:
                continue
            wrapped = tracer.span(name, fn, WORK.get(name))
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, key, wrapped)

    spectrum = ridgeless.spectra.Spectrum
    spectrum.__post_init__ = tracer.span(
        "spectra.Spectrum",
        spectrum.__post_init__,
        lambda args, kwargs, result: int(args[0].values.size),
    )

    class TracedPool(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            return super().submit(tracer.adopt, tracer.current(), fn, *args, **kwargs)

    ridgeless.experiments.ThreadPoolExecutor = TracedPool

    for routine in FACTORIZATIONS:
        fn = getattr(numpy.linalg, routine, None)
        if fn is not None:
            setattr(numpy.linalg, routine, tracer.counter(routine, fn))
