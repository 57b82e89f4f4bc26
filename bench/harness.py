"""Measurement arithmetic, span tracing and machine facts for the benchmark.

This module imports neither numpy nor partgraph, so its arithmetic can be
tested on its own (``python3 -m pytest bench/test_harness.py``).

Spans are plain tuples ``(name, start, end, parent, op, meta)``: ``parent``
is the index of the enclosing span in the same list (-1 for none), ``op`` is
the identifier of the workload operation the span belongs to (None during
set-up) and ``meta`` holds the few facts a counter needs, taken from the
call's arguments after the span has ended.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import subprocess
from pathlib import Path
from time import perf_counter

NAME, START, END, PARENT, OP, META = range(6)


# ---------------------------------------------------------------------------
# Order statistics and ratios
# ---------------------------------------------------------------------------

def percentile(values, q: float) -> float:
    """q-th percentile (0..100) by linear interpolation between closest ranks.

    This is numpy's default ("linear") method: rank position (n - 1) * q / 100.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must lie in [0, 100], got {q}")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def samples_beyond(n: int, q: float) -> int:
    """Number of samples ranked strictly above the q-th percentile's rank position."""
    if n < 1:
        return 0
    return n - 1 - math.floor((n - 1) * q / 100.0)


def at_reference_speed(seconds: float, kernel_times, reference_s: float) -> float:
    """``seconds`` rescaled to the speed at which a calibration kernel takes ``reference_s``.

    The machine's speed is the median of the kernel's timings, taken around
    the work that ``seconds`` measures.
    """
    return seconds * reference_s / percentile(kernel_times, 50)


def ratio(num: float, den: float) -> dict:
    """A ratio kept together with its base; an empty base gives NaN."""
    return {"value": num / den if den else float("nan"), "num": num, "den": den}


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

class Tracer:
    """Records a span for every call of each patched function while installed.

    A patch replaces a module attribute, so it catches the calls that other
    modules make through that name. Nothing is recorded after
    :meth:`uninstall`, which restores the original attributes.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._installed = False

    def patch(self, name: str, module: str, attr: str, meta=None) -> None:
        """Register module.attr to be traced as span ``name``.

        ``meta(args, kwargs)`` runs after the span ends and returns what the
        counters of that layer need.
        """
        mod = importlib.import_module(module)
        original = getattr(mod, attr)
        self._patches.append((mod, attr, original, self.wrap(name, original, meta)))

    def wrap(self, name: str, fn, meta=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op,
                              meta(args, kwargs) if meta else None)

        return traced

    def install(self) -> None:
        if not self._installed:
            for mod, attr, _, traced in self._patches:
                setattr(mod, attr, traced)
            self._installed = True

    def uninstall(self) -> None:
        if self._installed:
            for mod, attr, original, _ in self._patches:
                setattr(mod, attr, original)
            self._installed = False


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children never overlap each other and lie
    inside their parent; their durations can simply be summed.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def layer_totals(spans, selfs, keep) -> dict:
    """Per span name: summed self time and call count over spans with keep(span)."""
    totals: dict[str, list] = {}
    for s, own in zip(spans, selfs):
        if keep(s):
            entry = totals.setdefault(s[NAME], [0.0, 0])
            entry[0] += own
            entry[1] += 1
    return totals


def write_spans(path: Path, spans, selfs) -> None:
    """Write spans as JSON lines (meta is omitted: it may hold live objects)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        for i, (s, own) in enumerate(zip(spans, selfs)):
            f.write(json.dumps({"id": i, "name": s[NAME], "start": s[START], "end": s[END],
                                "parent": s[PARENT], "op": s[OP], "self": own}) + "\n")


# ---------------------------------------------------------------------------
# Process and machine facts
# ---------------------------------------------------------------------------

def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _cpu_model() -> str:
    text = _read("/proc/cpuinfo") or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _caches() -> dict:
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else ():
        level, kind, size = (_read(str(index / f)) for f in ("level", "type", "size"))
        if level and kind and size:
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return caches


def blas_threads(numpy_module) -> int | None:
    """Thread count of the OpenBLAS that numpy bundles, or None if it cannot be asked."""
    import ctypes

    libdir = Path(numpy_module.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("libscipy_openblas*.so*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def source_digest(src: Path) -> str:
    """sha256 over the package's source files, in path order."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def machine_facts(root: Path, numpy_module) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy_module.__version__,
        "blas_threads": blas_threads(numpy_module),
        "commit": git_commit(root),
        "src_sha256": source_digest(root / "src" / "partgraph"),
    }
