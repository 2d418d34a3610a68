"""In-memory span tracer that wraps tvprox's public functions from outside.

Every public function of the traced modules is replaced, in every tvprox
module that holds a reference to it, by a wrapper that records one span
(name, start, end, parent, run id).  The package itself is not edited: the
wrappers are installed for one traced pass and removed afterwards.

Self time of a span is its duration minus the part of its interval that its
child spans cover, so the self times of all spans under one root add up to
the root's duration.
"""

import collections
import contextlib
import importlib
import inspect
import sys
import time

import numpy as np

# tvprox.signal (validation and norm helpers called from every layer) is left
# unwrapped: its cost stays in the caller's self time and the tracer's
# overhead stays a small share of the pass.
TRACED_MODULES = ("frame", "shrinkage", "tv", "exact", "solvers", "operators", "experiments", "cli")


def _nbytes(value):
    """Bytes of the arrays a call returned (a coefficient stack counts both blocks)."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    avg, dif = getattr(value, "avg", None), getattr(value, "dif", None)
    if isinstance(avg, np.ndarray) and isinstance(dif, np.ndarray):
        return avg.nbytes + dif.nbytes
    return 0


class Tracer:
    """Records spans as rows [name, start, end, parent, run_id, out_bytes, info]."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []
        self._patched = []

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run_id, 0, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx, t0, t1):
        self._stack.pop()
        span = self.spans[idx]
        span[1], span[2] = t0, t1
        return span

    @contextlib.contextmanager
    def root(self, name):
        """The span that encloses a whole traced pass."""
        idx = self._open(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, t0, time.perf_counter())

    def wrap(self, name, fn):
        """Return a span-recording wrapper of fn."""
        open_, close = self._open, self._close
        perf_counter = time.perf_counter

        if name == "exact.fpg_prox":
            # Ask for the iteration info the caller may not want; the only
            # behaviour this changes is a warning the solvers already silence.
            def wrapper(z, tau, cfg=None, return_info=False):
                idx = open_(name)
                t0 = perf_counter()
                try:
                    x, info = fn(z, tau, cfg, return_info=True)
                finally:
                    span = close(idx, t0, perf_counter())
                span[5] = x.nbytes
                span[6] = info
                return (x, info) if return_info else x

        elif name in ("solvers.apgm", "solvers.admm"):
            def wrapper(problem, cfg, x0):
                idx = open_(f"{name}.{cfg.prox_choice}")
                t0 = perf_counter()
                try:
                    report = fn(problem, cfg, x0)
                finally:
                    span = close(idx, t0, perf_counter())
                span[5] = report.final_x.nbytes
                span[6] = {"iterations": report.iterations}
                return report

        else:
            def wrapper(*args, **kwargs):
                idx = open_(name)
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span = close(idx, t0, perf_counter())
                span[5] = _nbytes(result)
                return result

        return wrapper

    def install(self):
        """Wrap every public function of TRACED_MODULES where callers look it up."""
        originals = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"tvprox.{short}")
            for attr, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not attr.startswith("_"):
                    originals[id(fn)] = (fn, self.wrap(f"{short}.{attr}", fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "tvprox" and not modname.startswith("tvprox."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write_csv(self, path, self_s):
        with open(path, "w") as f:
            f.write("index,name,start,end,parent,run_id,self_s\n")
            for i, (name, t0, t1, parent, run_id, _, _) in enumerate(self.spans):
                f.write(f"{i},{name},{t0:.9f},{t1:.9f},{parent},{run_id},{self_s[i]:.9f}\n")


def self_times(starts, ends, parents):
    """Per-span self time: duration minus the union of its children's
    intervals clipped to the span.  Parents must precede their children."""
    n = len(starts)
    children = [[] for _ in range(n)]
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = []
    for i in range(n):
        lo, hi = starts[i], ends[i]
        covered, reach = 0.0, lo
        for a, b in sorted((max(starts[c], lo), min(ends[c], hi)) for c in children[i]):
            a = max(a, reach)
            if b > a:
                covered += b - a
                reach = b
        out.append((hi - lo) - covered)
    return out


def _new_stats():
    return {"calls": 0, "self_s": 0.0, "durations": [], "bytes": 0, "infos": [], "matvecs": 0}


def layer_stats(spans, self_s):
    """Per-name aggregates plus the derived counters the benchmark reports.

    bytes: bytes returned by each shrinkage.approx_prox span and every
    traced call inside it.  matvecs: operators.radon_forward spans inside
    an operators.prox_g_ct span.
    """
    stats = collections.defaultdict(_new_stats)
    inside_cg = [False] * len(spans)
    prox_root = [-1] * len(spans)
    for i, (name, t0, t1, parent, _, nbytes, info) in enumerate(spans):
        s = stats[name]
        s["calls"] += 1
        s["self_s"] += self_s[i]
        s["durations"].append(t1 - t0)
        if info is not None:
            s["infos"].append(info)
        if parent >= 0:
            inside_cg[i] = inside_cg[parent] or spans[parent][0] == "operators.prox_g_ct"
            prox_root[i] = prox_root[parent]
        if name == "shrinkage.approx_prox":
            prox_root[i] = i
        if prox_root[i] >= 0:
            stats["shrinkage.approx_prox"]["bytes"] += nbytes
        if name == "operators.radon_forward" and inside_cg[i]:
            stats["operators.prox_g_ct"]["matvecs"] += 1
    return dict(stats)
