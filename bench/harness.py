"""Generic parts of the benchmark: spans, self time, checks, metric names and
the reference kernel.

Nothing here imports uqfv, so the harness tests run without the package.
"""

from __future__ import annotations

import functools
import itertools
import re
import statistics
import threading
import traceback
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import NamedTuple

import numpy as np

# metric names: a letter or digit first, then letters, digits, '_', '.', '-'
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def valid_metric_name(name: str) -> bool:
    return METRIC_NAME.fullmatch(name) is not None


def median(values) -> float:
    return float(statistics.median(values))


def reference_kernel_seconds(steps: int = 60) -> float:
    """Wall time of a fixed NumPy kernel shaped like one SG time step.

    It reconstructs node values with an einsum, evaluates an HLL-type flux
    elementwise and projects the flux differences back, on the (400 cells,
    3 elements, 10 nodes, 3 components) arrays of the Sod runs. It imports
    nothing from uqfv, so no change to the package moves it, while a slower
    host slows it as much as the solvers: dividing by it cancels the drift
    of the host's speed between runs.
    """
    rng = np.random.default_rng(0)
    phi = rng.standard_normal((5, 10))
    weights = rng.random(10)
    coeffs = np.zeros((400, 3, 5, 3))
    coeffs[..., 0, 0] = 1.0
    coeffs[..., 0, 2] = 2.5
    coeffs[..., 1:, :] = 1e-3 * rng.standard_normal((400, 3, 4, 3))
    start = perf_counter()
    with np.errstate(all="ignore"):
        for _ in range(steps):
            u = np.einsum("...kd,kq->...qd", coeffs, phi)
            rho, m, e = u[..., 0], u[..., 1], u[..., 2]
            v = m / rho
            p = 0.4 * (e - 0.5 * m * v)
            c = np.sqrt(np.abs(1.4 * p / rho))
            f = np.stack([m, m * v + p, v * (e + p)], axis=-1)
            s_l = np.minimum(v[:-1] - c[:-1], v[1:] - c[1:])
            s_r = np.maximum(v[:-1] + c[:-1], v[1:] + c[1:])
            middle = (
                s_r[..., None] * f[:-1]
                - s_l[..., None] * f[1:]
                + (s_l * s_r)[..., None] * (u[1:] - u[:-1])
            ) / (s_r - s_l)[..., None]
            flux = np.where(s_l[..., None] >= 0.0, f[:-1], middle)
            div = np.einsum("...qd,kq,q->...kd", flux[1:] - flux[:-1], phi, weights)
            coeffs[1:-1] -= 1e-9 * div
    return perf_counter() - start


class Span(NamedTuple):
    """One timed call: ``counts`` holds what the call's counter read from it."""

    sid: int
    parent: int | None
    name: str
    start: float
    end: float
    counts: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of its interval its children cover.

    Children that ran concurrently in worker threads are merged into one
    covered interval, so a self time never goes negative.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        clipped = [
            (max(c.start, s.start), min(c.end, s.end))
            for c in children[s.sid]
            if c.end > s.start and c.start < s.end
        ]
        out[s.sid] = s.duration - covered_length(clipped)
    return out


@dataclass
class LayerTotals:
    """Per span name: total duration, self time, calls, and summed counts."""

    duration: dict = field(default_factory=lambda: defaultdict(float))
    self_time: dict = field(default_factory=lambda: defaultdict(float))
    calls: dict = field(default_factory=lambda: defaultdict(int))
    counts: dict = field(default_factory=lambda: defaultdict(lambda: defaultdict(float)))
    maxima: dict = field(default_factory=lambda: defaultdict(lambda: defaultdict(float)))
    top_level: float = 0.0


def totals(spans) -> LayerTotals:
    """Fold spans into per-name totals; counts add up, ``max_*`` keys take the maximum."""
    own = self_times(spans)
    out = LayerTotals()
    for s in spans:
        out.duration[s.name] += s.duration
        out.self_time[s.name] += own[s.sid]
        out.calls[s.name] += 1
        if s.parent is None:
            out.top_level += s.duration
        for key, value in (s.counts or {}).items():
            if key.startswith("max_"):
                out.maxima[s.name][key] = max(out.maxima[s.name][key], value)
            else:
                out.counts[s.name][key] += value
    return out


class Tracer:
    """Records spans around wrapped callables.

    Each thread keeps its own stack of open spans. A span opened in a worker
    thread with an empty stack takes as parent the innermost open span of the
    thread that created the tracer, which is the call that started the
    workers.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._owner_stack: list = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif threading.get_ident() != self._owner and self._owner_stack:
            parent = self._owner_stack[-1]
        else:
            parent = None
        with self._lock:
            sid = next(self._ids)
        stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start, end, counts):
        self._stack().pop()
        with self._lock:
            self.spans.append(Span(sid, parent, name, start, end, counts))

    def wrap(self, fn, name: str, counter=None):
        """``fn`` with a span named ``name``; ``counter(args, kwargs, result)`` -> counts."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = tracer._open()
            start = perf_counter()
            returned, result = False, None
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = perf_counter()
                counts = counter(args, kwargs, result) if counter and returned else None
                tracer._close(sid, parent, name, start, end, counts)

        return traced

    @contextmanager
    def installed(self, hooks):
        """Replace ``owner.attr`` by a traced wrapper for each (owner, attr, name, counter)."""
        saved = []
        try:
            for owner, attr, name, counter in hooks:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, counter))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def take(self) -> list:
        """Spans recorded since the last call, oldest first."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans


class Checks:
    """Correctness checks and solver runs of one benchmark invocation.

    A run that raises counts as failed and the benchmark carries on;
    ``fail_ratio`` is failed runs and checks over the number attempted.
    """

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return bool(ok)

    def run(self, name: str, fn, *args, **kwargs):
        """Call ``fn``; on an exception record its traceback and return None."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:  # a failed solver run is reported, not fatal
            self.failures.append(f"{name} raised:\n{traceback.format_exc()}")
            return None
