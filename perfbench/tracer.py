"""Outside-in tracing of the tilegroups package.

Nothing under ``src/`` is edited.  ``SpanTracer`` wraps every public
module-level function of every ``tilegroups.*`` module and rebinds each
name in every module namespace that holds it, so calls the library makes
to itself through ``from .x import f`` names are seen too.  Each call
becomes a span (name, start, end, parent span, job id) kept in memory.

``CountPass`` is the second, separate pass: it wraps the hot
``QuadraticRational`` methods and ``exactnum.is_square_free``, which would
distort every other layer's self time if they were wrapped in the span
pass.

Both restore every rebound name when their ``with`` block ends.
"""

from __future__ import annotations

import inspect
import math
import sys
import time
from array import array
from typing import Callable, Optional

PACKAGE = "tilegroups"

# Called once per QuadraticRational construction; counted and timed by
# CountPass instead of traced as spans.
SPAN_SKIP = frozenset({"exactnum.is_square_free"})

Observer = Callable[[tuple, dict, object, float], None]


def program_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def short_name(module_name: str) -> str:
    return module_name[len(PACKAGE) + 1:]


def public_functions(skip: frozenset = frozenset()) -> dict[int, tuple[str, Callable]]:
    """id(function) -> ("module.name", function) for every public function
    defined at module level in a tilegroups submodule."""
    out: dict[int, tuple[str, Callable]] = {}
    for mod in program_modules():
        if mod.__name__ == PACKAGE:
            continue
        for name, obj in vars(mod).items():
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__:
                continue
            qual = f"{short_name(mod.__name__)}.{name}"
            if qual not in skip:
                out[id(obj)] = (qual, obj)
    return out


class Rebinder:
    """Replace functions by wrappers under every name that binds them in
    any tilegroups module namespace; ``restore`` puts the originals back."""

    def __init__(self) -> None:
        self._rebound: list[tuple[object, str, object]] = []

    def rebind(self, replacements: dict[int, tuple[Callable, Callable]]) -> None:
        for mod in program_modules():
            for name, obj in list(vars(mod).items()):
                pair = replacements.get(id(obj))
                if pair is not None and pair[0] is obj:
                    setattr(mod, name, pair[1])
                    self._rebound.append((mod, name, obj))

    def restore(self) -> None:
        while self._rebound:
            mod, name, obj = self._rebound.pop()
            setattr(mod, name, obj)


class SpanTracer:
    """Span recorder over the public functions of the package.

    Spans live in parallel arrays indexed by span id; a span's id is taken
    when it starts, so a parent always has a smaller id than its children.
    ``observers`` maps a traced name to a callback that sees the call's
    arguments, result and duration, for the output-size counters.
    """

    def __init__(self, observers: Optional[dict[str, Observer]] = None) -> None:
        self.observers = observers or {}
        self.names: list[str] = []
        self.jobs: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._job = -1
        self._rebinder = Rebinder()

    # -- recording --------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_job.append(self._job)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self._stack.append(idx)
        return idx

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _wrap(self, qual: str, fn: Callable) -> Callable:
        name_id = self._name_id(qual)
        observe = self.observers.get(qual)
        tracer = self
        clock = time.perf_counter
        starts, ends, stack = self.span_start, self.span_end, self._stack

        def traced(*args, **kwargs):
            idx = tracer._open(name_id)
            t0 = clock()
            starts[idx] = t0
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                ends[idx] = t1
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result, t1 - t0)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def job(self, job_id: str):
        """Context manager for the root span of one benchmark job."""
        return _JobSpan(self, job_id)

    # -- install / restore ------------------------------------------------

    def __enter__(self) -> "SpanTracer":
        functions = public_functions(SPAN_SKIP)
        self._rebinder.rebind({key: (fn, self._wrap(qual, fn)) for key, (qual, fn) in functions.items()})
        return self

    def __exit__(self, *exc) -> None:
        self._rebinder.restore()

    # -- analysis ---------------------------------------------------------

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.span_start, self.span_end)]

    def self_times(self) -> list[float]:
        """Span duration minus the time its child spans cover (children
        are nested inside their parent, so their durations add up)."""
        dur = self.durations()
        out = list(dur)
        for idx, parent in enumerate(self.span_parent):
            if parent >= 0:
                out[parent] -= dur[idx]
        return out

    def by_name(self) -> dict[str, dict[str, float]]:
        """name -> {calls, self_s}."""
        selfs = self.self_times()
        agg: dict[str, dict[str, float]] = {}
        for idx, nid in enumerate(self.span_name):
            rec = agg.setdefault(self.names[nid], {"calls": 0, "self_s": 0.0})
            rec["calls"] += 1
            rec["self_s"] += selfs[idx]
        return agg

    def job_totals(self) -> dict[str, float]:
        """Root-span duration per job id."""
        dur = self.durations()
        out: dict[str, float] = {}
        for idx, parent in enumerate(self.span_parent):
            if parent < 0 and self.span_job[idx] >= 0:
                job = self.jobs[self.span_job[idx]]
                out[job] = out.get(job, 0.0) + dur[idx]
        return out

    def tree(self) -> list[dict]:
        """The self-time span tree: one row per call path from a job root,
        with calls, self time and total time, in tree order."""
        selfs = self.self_times()
        dur = self.durations()
        path_of: list[tuple] = []
        rows: dict[tuple, dict] = {}
        for idx, nid in enumerate(self.span_name):
            parent = self.span_parent[idx]
            path = (path_of[parent] if parent >= 0 else ()) + (self.names[nid],)
            path_of.append(path)
            row = rows.setdefault(path, {"path": " > ".join(path), "depth": len(path) - 1,
                                         "calls": 0, "self_s": 0.0, "total_s": 0.0})
            row["calls"] += 1
            row["self_s"] += selfs[idx]
            row["total_s"] += dur[idx]
        return [rows[path] for path in sorted(rows)]

    def spans(self) -> list[list]:
        """Every span as [name, start, end, parent span id, job id]."""
        return [[self.names[n], s, e, p, self.jobs[j] if j >= 0 else None]
                for n, s, e, p, j in zip(self.span_name, self.span_start, self.span_end,
                                         self.span_parent, self.span_job)]


def format_tree(rows: list[dict], min_self_s: float) -> str:
    """Indented text form of the rows of ``SpanTracer.tree`` whose self or
    total time reaches ``min_self_s``."""
    lines = [f"{'self_s':>9} {'total_s':>9} {'calls':>7}  span"]
    for row in rows:
        if max(row["self_s"], row["total_s"]) >= min_self_s:
            name = row["path"].rsplit(" > ", 1)[-1]
            lines.append(f"{row['self_s']:9.4f} {row['total_s']:9.4f} {row['calls']:7d}  "
                         f"{'  ' * row['depth']}{name}")
    return "\n".join(lines)


class _JobSpan:
    def __init__(self, tracer: SpanTracer, job_id: str) -> None:
        self.tracer = tracer
        self.job_id = job_id

    def __enter__(self) -> None:
        tr = self.tracer
        tr.jobs.append(self.job_id)
        tr._job = len(tr.jobs) - 1
        self.idx = tr._open(tr._name_id(f"job:{self.job_id}"))
        tr.span_start[self.idx] = time.perf_counter()

    def __exit__(self, *exc) -> None:
        tr = self.tracer
        tr.span_end[self.idx] = time.perf_counter()
        tr._stack.pop()
        tr._job = -1


class CountPass:
    """Exact counts of QuadraticRational constructions, sign and floor
    calls, and calls (with time) of exactnum.is_square_free."""

    def __init__(self, exactnum_module) -> None:
        self.exactnum = exactnum_module
        self.constructed = 0
        self.sign_calls = 0
        self.floor_calls = 0
        self.square_free_calls = 0
        self.square_free_s = 0.0
        self._rebinder = Rebinder()
        self._methods: dict[str, Callable] = {}

    def __enter__(self) -> "CountPass":
        cls = self.exactnum.QuadraticRational
        counts = self
        init, sign, floor = cls.__init__, cls.sign, cls.floor
        self._methods = {"__init__": init, "sign": sign, "floor": floor}

        def counted_init(qr, *args, **kwargs):
            counts.constructed += 1
            init(qr, *args, **kwargs)

        def counted_sign(qr):
            counts.sign_calls += 1
            return sign(qr)

        def counted_floor(qr):
            counts.floor_calls += 1
            return floor(qr)

        cls.__init__, cls.sign, cls.floor = counted_init, counted_sign, counted_floor

        square_free = self.exactnum.is_square_free
        clock = time.perf_counter

        def counted_square_free(d):
            t0 = clock()
            try:
                return square_free(d)
            finally:
                counts.square_free_s += clock() - t0
                counts.square_free_calls += 1

        self._rebinder.rebind({id(square_free): (square_free, counted_square_free)})
        return self

    def __exit__(self, *exc) -> None:
        cls = self.exactnum.QuadraticRational
        for name, fn in self._methods.items():
            setattr(cls, name, fn)
        self._rebinder.restore()

    def metrics(self) -> dict[str, float]:
        return {
            "exactnum.constructed": self.constructed,
            "exactnum.sign_calls": self.sign_calls,
            "exactnum.floor_calls": self.floor_calls,
            "exactnum.square_free_calls": self.square_free_calls,
            "exactnum.square_free_s": self.square_free_s,
        }


def loglog_slope(samples: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(time) against log(size); 0.0 when fewer
    than two distinct sizes were seen."""
    pts = [(math.log(x), math.log(y)) for x, y in samples if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx
