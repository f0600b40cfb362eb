"""Span tracing for the benchmark, installed from outside the library.

The benchmark wraps every public function of the seven blslab modules in
every module namespace that binds it (``from .estimation import fit_mle``
makes a second binding in ``montecarlo``, ``datakit`` and ``cli``), plus the
``scipy.integrate.quad`` and ``scipy.optimize.brentq`` calls made from
``blslab.distribution``.  Each wrapped call records a span: name, start, end,
parent and thread.  A span's self time is its duration minus the part of it
covered by child spans opened on the same thread; children opened in worker
threads (``run_study`` with ``workers > 1``) name the span that started the
workers as their parent but do not reduce its self time.

A traced CLI command makes millions of spans, so spans are folded into
per-name totals as they close: a closing span computes its self time from its
direct children (already closed) and then drops them.

``Patch.restore`` puts every original attribute back, so a later untraced
measurement in the same process runs unpatched code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from collections import defaultdict

import numpy as np

MODULES = ("specfun", "generators", "distribution", "estimation",
           "montecarlo", "datakit", "cli")


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "children")

    def __init__(self, name, start, parent, thread, end=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.thread = thread
        self.children = []


def self_time(span: Span, children) -> float:
    """Duration of ``span`` not covered by its same-thread ``children``.

    Children are clipped to the span and overlapping children are counted
    once (interval union); children on other threads are ignored.
    """
    ivs = sorted(
        (max(c.start, span.start), min(c.end, span.end))
        for c in children
        if c.thread == span.thread and c.end > span.start and c.start < span.end
    )
    covered = 0.0
    cur_lo = cur_hi = None
    for lo, hi in ivs:
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return (span.end - span.start) - covered


class Tracer:
    """Collects spans and counters; thread-safe."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        # parent for spans opened on threads whose own stack is empty
        self.thread_root: Span | None = None

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def open(self, name: str) -> Span:
        st = self._stack()
        parent = st[-1] if st else self.thread_root
        span = Span(name, self.clock(), parent, threading.get_ident())
        st.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack().pop()
        own = self_time(span, span.children)
        span.children = None
        if span.parent is not None and span.parent.children is not None:
            span.parent.children.append(span)
        with self._lock:
            self.calls[span.name] += 1
            self.self_s[span.name] += own

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += value

    def wrap(self, fn, name: str, hook=None):
        """``fn`` inside a span; ``hook(tracer, span, args, kwargs, result)``
        runs after the span closes, on success only."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(span)
            if hook is not None:
                hook(self, span, args, kwargs, out)
            return out

        return traced


def under(span: Span, name: str) -> bool:
    """True if an ancestor of ``span`` is named ``name``."""
    p = span.parent
    while p is not None:
        if p.name == name:
            return True
        p = p.parent
    return False


# ------------------------------------------------------------------ hooks


def _elems(index, param):
    def hook(tr, span, args, kwargs, out):
        x = args[index] if len(args) > index else kwargs[param]
        size = np.size(x)
        tr.count("specfun.elems" if span.name.startswith("specfun.") else "generators.elems", size)
        if span.name.startswith("generators.") and size == 1:
            tr.count("generators.scalar_calls")
        if span.name == "generators.r" and under(span, "estimation.fit_mle"):
            tr.count("estimation.objective_evals")
    return hook


def _sample_hook(tr, span, args, kwargs, out):
    tr.count("distribution.sample.draws", len(out))


def _fit_hook(tr, span, args, kwargs, out):
    tr.count("estimation.fit_mle.iterations", out.iterations)
    tr.count("estimation.fit_mle.converged", bool(out.converged))


def _profile_hook(tr, span, args, kwargs, out):
    grid = args[2] if len(args) > 2 else kwargs["grid"]
    tr.count("estimation.profile_fit.grid_points", len(grid))


def _study_hook(tr, span, args, kwargs, out):
    tr.count("montecarlo.reps", out.replications * len(out.cells))
    tr.count("montecarlo.reps_failed", sum(c.failed for c in out.cells))


def _compare_hook(tr, span, args, kwargs, out):
    tr.count("datakit.compare_models.families_failed", len(out.failures))


_HOOKS = {
    "generators.g": _elems(1, "x"),
    "generators.log_g": _elems(1, "x"),
    "generators.r": _elems(1, "x"),
    "specfun.lower_incomplete_gamma": _elems(1, "x"),
    "distribution.sample": _sample_hook,
    "estimation.fit_mle": _fit_hook,
    "estimation.profile_fit": _profile_hook,
    "montecarlo.run_study": _study_hook,
    "datakit.compare_models": _compare_hook,
}
for _f, _p in (("ln_gamma", "x"), ("bessel_k0", "u"), ("bessel_k1", "u"),
               ("bessel_k0e", "u"), ("bessel_k1e", "u"), ("std_normal_cdf", "x"),
               ("student_t_cdf", "x"), ("f_cdf", "x")):
    _HOOKS[f"specfun.{_f}"] = _elems(0, _p)


class _ModuleProxy:
    """Stands in for a module, overriding some attributes."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Patch:
    """Installs traced wrappers into the blslab namespaces; ``restore``
    undoes every replacement."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.saved: list[tuple[object, str, object]] = []

    def _set(self, ns, attr, value):
        self.saved.append((ns, attr, getattr(ns, attr)))
        setattr(ns, attr, value)

    def _rooted(self, fn):
        # spans opened in fn's worker threads take fn's span as their parent
        tr = self.tracer

        @functools.wraps(fn)
        def rooted(*args, **kwargs):
            outer = tr.thread_root
            tr.thread_root = tr._stack()[-1]
            try:
                return fn(*args, **kwargs)
            finally:
                tr.thread_root = outer

        return rooted

    def install(self) -> "Patch":
        pkg = importlib.import_module("blslab")
        mods = {m: importlib.import_module(f"blslab.{m}") for m in MODULES}
        wrappers = {}
        for mname, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{mname}.{attr}"
                fn = self._rooted(obj) if name == "montecarlo.run_study" else obj
                wrappers[id(obj)] = (obj, self.tracer.wrap(fn, name, _HOOKS.get(name)))
        for ns in (pkg, *mods.values()):
            for attr, obj in list(vars(ns).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(ns, attr, hit[1])
        dist = mods["distribution"]
        self._set(dist, "integrate", _ModuleProxy(
            dist.integrate, quad=self.tracer.wrap(dist.integrate.quad, "distribution.quad")))
        self._set(dist, "optimize", _ModuleProxy(
            dist.optimize, brentq=self.tracer.wrap(dist.optimize.brentq, "distribution.brentq")))
        return self

    def restore(self) -> None:
        for ns, attr, orig in reversed(self.saved):
            setattr(ns, attr, orig)
        self.saved.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False


def snapshot(tr: Tracer) -> dict:
    """Plain-data totals, for merging across processes."""
    with tr._lock:
        return {"calls": dict(tr.calls), "self_s": dict(tr.self_s), "counts": dict(tr.counts)}


def merge(into: dict, other: dict) -> dict:
    for key in ("calls", "self_s", "counts"):
        dst = into.setdefault(key, {})
        for k, v in other.get(key, {}).items():
            dst[k] = dst.get(k, 0) + v
    return into
