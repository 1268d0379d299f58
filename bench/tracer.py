"""Layer spans for the traced run, recorded from outside the library.

`Tracer.install` replaces each public function listed in `TARGETS` by a
timing wrapper in every `isingcyl` module namespace that holds it, so
calls are caught where their callers look them up (`exact` calls its own
`build_action_matrix`, `energy` its imported `cylinder_scal_block`, ...);
class constructors are wrapped through `__init__`.  `uninstall` puts the
originals back.  No library file changes.

A span is (id, parent id, name, start, end, size).  Spans stay in
memory until the run ends.  A layer's self time is the duration of its
spans minus the part of each covered by that span's children.  Spans
opened on a worker thread (the CLI's `--parallel` pool) take the main
thread's innermost open span as their parent.
"""

import collections
import contextlib
import inspect
import itertools
import sys
import threading
import time

import numpy as np


def _lm(geometry, *args, **kwargs):
    return geometry.L * geometry.M


def _init_lm(self, geometry, *args, **kwargs):
    return geometry.L * geometry.M


def _dim(m, *args, **kwargs):
    return m.n if hasattr(m, "n") else int(np.shape(m)[0])


def _modes(data, *args, **kwargs):
    return data.n_modes


# (module, attribute, size of the call); attribute "Cls.__init__" wraps a
# constructor and names the span after the class
TARGETS = (
    ("cli", "main", None),
    ("skew", "pfaffian_sign_logabs", _dim),
    ("skew", "skew_inverse", _dim),
    ("exact", "build_action_matrix", _lm),
    ("exact", "partition_function_log", _lm),
    ("exact", "PropagatorCache.__init__", _init_lm),
    ("exact", "propagator_from_A", None),
    ("spectral", "SpectralData.__init__", _init_lm),
    ("spectral", "spectral_data", None),
    ("spectral", "mode_sum", _modes),
    ("spectral", "critical_propagator", None),
    ("multiscale", "single_scale_propagator", None),
    ("multiscale", "tail_propagator", None),
    ("multiscale", "gram_vector", None),
    ("multiscale", "plane_block_batch", None),
    ("scaling", "cylinder_scal_block", None),
    ("scaling", "scaling_remainder_records", None),
    ("energy", "truncated_energy_correlation", None),
    ("energy", "scal_energy_correlation", None),
    ("kernels", "symmetrize", None),
    ("kernels", "localization_operator", None),
    ("kernels", "renormalization_operator", None),
    ("kernels", "interpolation_bound_reports", None),
)

# lru caches whose hit ratio is reported: metric name -> (module, attribute)
CACHES = {
    "exact.propagator_from_A.hit_ratio": ("exact", "propagator_from_A"),
    "spectral.spectral_data.hit_ratio": ("spectral", "spectral_data"),
    "multiscale.plane_cache.hit_ratio": ("multiscale", "_plane_single_cached"),
}


def _module(short):
    return sys.modules[f"isingcyl.{short}"]


def _library_modules():
    return [m for name, m in list(sys.modules.items())
            if name == "isingcyl" or name.startswith("isingcyl.")]


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = collections.Counter()
        self._ids = itertools.count(1)
        self._main = threading.get_ident()
        self._main_stack = []
        self._local = threading.local()
        self._undo = []
        self._caches = {}
        self._cache_start = {}

    # -- spans ---------------------------------------------------------------

    def _stack(self):
        if threading.get_ident() == self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name, size=None):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else 0
        sid = next(self._ids)
        stack.append(sid)
        box = [size]   # the body may replace the size
        start = time.perf_counter()
        try:
            yield box
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, start, end, box[0]))

    def _wrap(self, fn, name, size_of):
        trace_shells = name == "scaling.cylinder_scal_block" and \
            "shell_trace" in inspect.signature(fn).parameters

        def wrapper(*args, **kwargs):
            size = size_of(*args, **kwargs) if size_of else None
            shells = None
            if trace_shells and kwargs.get("shell_trace") is None and len(args) < 7:
                shells = kwargs["shell_trace"] = []
            with self.span(name, size) as box:
                out = fn(*args, **kwargs)
                if shells is not None:   # an image sum's size is its shell count
                    box[0] = len(shells)
                    self.counters["scaling.shells"] += len(shells)
            return out

        return wrapper

    def counted(self, name):
        """Decorator factory: count calls of a callable under `name`."""
        def wrap(fn):
            def counting(*args, **kwargs):
                self.counters[name] += 1
                return fn(*args, **kwargs)
            return counting
        return wrap

    # -- installation --------------------------------------------------------

    def install(self):
        self._caches = {name: getattr(_module(short), attr, None)
                        for name, (short, attr) in CACHES.items()}
        self._cache_start = self._cache_counts()
        modules = _library_modules()
        for short, attr, size_of in TARGETS:
            owner = _module(short)
            if attr.endswith(".__init__"):
                cls = getattr(owner, attr.split(".")[0])
                orig = cls.__init__
                self._undo.append((cls, "__init__", orig))
                cls.__init__ = self._wrap(orig, f"{short}.{cls.__name__}", size_of)
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(orig, f"{short}.{attr}", size_of)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        """Restore the originals; returns cache (hits, misses) since install."""
        while self._undo:
            obj, key, orig = self._undo.pop()
            setattr(obj, key, orig)
        end = self._cache_counts()
        return {name: (end[name][0] - self._cache_start[name][0],
                       end[name][1] - self._cache_start[name][1]) for name in end}

    def _cache_counts(self):
        out = {}
        for name, fn in self._caches.items():
            info = fn.cache_info() if hasattr(fn, "cache_info") else None
            out[name] = (info.hits, info.misses) if info else (0, 0)
        return out

    # -- analysis ------------------------------------------------------------

    def layer_stats(self):
        """name -> dict(calls, s, self_s, sizes=[(size, duration, parent name)])."""
        children = collections.defaultdict(list)
        names = {}
        for sid, parent, name, start, end, _ in self.spans:
            children[parent].append((start, end))
            names[sid] = name
        stats = {}
        for sid, parent, name, start, end, size in self.spans:
            covered = _union_length(children.get(sid, ()), start, end)
            rec = stats.setdefault(name, dict(calls=0, s=0.0, self_s=0.0, sizes=[]))
            rec["calls"] += 1
            rec["s"] += end - start
            rec["self_s"] += end - start - covered
            if size is not None:
                rec["sizes"].append((size, end - start, names.get(parent)))
        return stats


def _union_length(intervals, lo, hi):
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def cost_exponent(sizes, parent=None):
    """Log-log slope of the median duration against size (0 if < 2 sizes),
    over the calls made directly from a `parent` span when one is given."""
    by_size = collections.defaultdict(list)
    for size, duration, caller in sizes:
        if parent is None or caller == parent:
            by_size[size].append(duration)
    if len(by_size) < 2:
        return 0.0
    xs = sorted(by_size)
    ys = [float(np.median(by_size[x])) for x in xs]
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def per_layer_metrics(stats, counters, cache_delta):
    """Every per-layer metric as name -> (value, unit), zero where unused."""
    out = {}
    names = [f"{short}.{attr.split('.')[0]}" for short, attr, _ in TARGETS]
    for name in names:
        rec = stats.get(name, dict(calls=0, s=0.0, self_s=0.0, sizes=[]))
        out[f"{name}.calls"] = (rec["calls"], "count")
        out[f"{name}.s"] = (rec["s"], "s")
        out[f"{name}.self_s"] = (rec["self_s"], "s")
    # the Pfaffian over the partition-function ladder only: the 10 x 10
    # Wick minors of order-5 cumulants would bend the fit
    for name, parent in (("skew.pfaffian_sign_logabs", "exact.partition_function_log"),
                         ("spectral.SpectralData", None)):
        out[f"{name}.cost_exponent"] = (
            cost_exponent(stats.get(name, {}).get("sizes", []), parent), "1")
    for name, (hits, misses) in cache_delta.items():
        out[name] = (hits / (hits + misses) if hits + misses else 0.0, "1")
    cache_sizes = stats.get("exact.PropagatorCache", {}).get("sizes", [])
    out["exact.dense_propagator_bytes"] = (
        sum((4 * lm) ** 2 * 8 for lm, _, _ in cache_sizes), "B")
    modes = stats.get("spectral.mode_sum", {}).get("sizes", [])
    out["spectral.mode_terms"] = (sum(n for n, _, _ in modes), "count")
    out["scaling.shells"] = (counters["scaling.shells"], "count")
    out["energy.correlator.lookups"] = (counters["energy.correlator.lookups"], "count")
    return out
