"""Per-layer tracing of cubicext from outside the package.

A Tracer replaces public functions of the package with recording wrappers
and puts the originals back on uninstall.  It touches no package source:
every wrapped name is rebound in *every* loaded ``cubicext`` module namespace
that binds the original object, because the package imports with
``from .x import f`` and so ``ffcubic.cube_classify`` and
``arith.cube_classify`` are bindings separate from ``ffield.cube_classify``.
A name looked up at call time through a module (``places_mod.residue_field``,
a function-local ``from .polyring import factor_fq``) sees the wrapper too.

Layer-boundary functions get spans: name, start, end and parent, kept in
flat arrays until the run ends.  A span's self time is its duration minus
the time its direct child spans cover.  Element-level operations (field
multiply, inverse and power; polynomial divmod and gcd) are too frequent
for spans and get a call counter and accumulated time instead.  For the
``lru_cache`` functions the hit and miss counts are ``cache_info()`` deltas
summed over the intervals in which the tracer was installed.

Only the standard library is imported here; the package modules are looked
up in ``sys.modules``, so import them before ``install``.
"""

import sys
import time
from array import array

# (module, attribute, span name) -- the layer boundaries that get spans
SPANS = (
    ("ffield", "cube_classify", "ffield.cube_classify"),
    ("ffield", "square_classify", "ffield.square_classify"),
    ("polyring", "factor_fq", "polyring.factor_fq"),
    ("polyring", "poly_roots", "polyring.poly_roots"),
    ("polyring", "is_irreducible", "polyring.is_irreducible"),
    ("places", "residue_field", "places.residue_field"),
    ("places", "places_up_to", "places.places_up_to"),
    ("places", "valuation", "places.valuation"),
    ("places", "divisor_of", "places.divisor_of"),
    ("canon", "reduce_cubic", "canon.reduce_cubic"),
    ("canon", "has_rational_root", "canon.has_rational_root"),
    ("canon", "isom_pure", "canon.isom_pure"),
    ("canon", "isom_depressed", "canon.isom_depressed"),
    ("canon", "isom_char3", "canon.isom_char3"),
    ("ffcubic", "decompose_any", "ffcubic.decompose_any"),
    ("ffcubic", "decompose_pure", "ffcubic.decompose_pure"),
    ("ffcubic", "decompose_depressed", "ffcubic.decompose_depressed"),
    ("ffcubic", "decompose_char3", "ffcubic.decompose_char3"),
    ("arith", "signature", "arith.signature"),
    ("arith", "ramification_report", "arith.ramification_report"),
    ("arith", "genus", "arith.genus"),
    ("arith", "is_constant_extension", "arith.is_constant_extension"),
    ("cli", "main", "cli.main"),
)

# (module, class, methods, counter name) -- element-level operations
COUNTERS = (
    ("ffield", "FieldElem", ("__mul__", "__rmul__"), "ffield.elem_mul"),
    ("ffield", "FieldElem", ("inverse",), "ffield.elem_inverse"),
    ("ffield", "FieldElem", ("__pow__",), "ffield.elem_pow"),
    ("polyring", "Poly", ("__divmod__",), "polyring.poly_divmod"),
    ("polyring", "Poly", ("gcd",), "polyring.poly_gcd"),
)

# (module, lru_cache function, name) -- caches read through cache_info()
CACHES = (
    ("ffield", "_field_cached", "ffield.field_make"),
    ("places", "residue_field", "places.residue_field"),
    ("places", "places_up_to", "places.places_up_to"),
)

# The per-layer metrics the benchmark reports, with their units.  Each is
# read from a raw summary (see Tracer.summary) by layer_metrics.
PER_LAYER = (
    ("ffield.elem_mul.calls", "count"),
    ("ffield.elem_mul.total_s", "s"),
    ("ffield.elem_inverse.calls", "count"),
    ("ffield.elem_pow.calls", "count"),
    ("ffield.cube_classify.self_s", "s"),
    ("ffield.square_classify.self_s", "s"),
    ("ffield.field_make.misses", "count"),
    ("polyring.factor_fq.calls", "count"),
    ("polyring.factor_fq.self_s", "s"),
    ("polyring.poly_roots.calls", "count"),
    ("polyring.poly_divmod.calls", "count"),
    ("polyring.poly_gcd.calls", "count"),
    ("polyring.is_irreducible.self_s", "s"),
    ("places.residue_field.calls", "count"),
    ("places.residue_field.self_s", "s"),
    ("places.residue_field.hit_ratio", "ratio"),
    ("places.places_up_to.self_s", "s"),
    ("places.valuation.self_s", "s"),
    ("places.divisor_of.self_s", "s"),
    ("canon.reduce_cubic.self_s", "s"),
    ("canon.has_rational_root.self_s", "s"),
    ("canon.isom_pure.self_s", "s"),
    ("canon.isom_depressed.self_s", "s"),
    ("canon.isom_char3.self_s", "s"),
    ("ffcubic.decompose_any.self_s", "s"),
    ("ffcubic.decompose_pure.self_s", "s"),
    ("ffcubic.decompose_depressed.self_s", "s"),
    ("ffcubic.decompose_char3.self_s", "s"),
    ("arith.signature.self_s", "s"),
    ("arith.ramification_report.self_s", "s"),
    ("arith.genus.self_s", "s"),
    ("arith.is_constant_extension.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.import_s", "s"),
    ("trace_overhead_ratio", "ratio"),
)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "cubicext" or name.startswith("cubicext."))]


class Tracer:
    """Installs the wrappers, records spans and counters, and summarises."""

    def __init__(self):
        self._names = []
        self._name_of = array("i")
        self._parent = array("i")
        self._outer = array("b")  # 1 unless nested in a span of the same name
        self._start = array("d")
        self._end = array("d")
        self._stack = []
        self._active = []  # per name: how many of its spans are open
        self._counters = {}  # name -> [calls, accumulated seconds]
        self._cache_fns = {}  # name -> the lru_cache function
        self._cache_base = {}  # name -> (hits, misses) at the last install
        self._cache_seen = {}  # name -> [hits, misses] over earlier installs
        self._patches = []  # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def _span_wrapper(self, name, fn):
        nid = len(self._names)
        self._names.append(name)
        self._active.append(0)
        name_of, parent, outer = self._name_of, self._parent, self._outer
        start, end, stack, active = self._start, self._end, self._stack, self._active
        clock = time.perf_counter

        def span(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            outer.append(0 if active[nid] else 1)
            end.append(0.0)
            stack.append(idx)
            active[nid] += 1
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                active[nid] -= 1
                stack.pop()

        span.__wrapped__ = fn
        return span

    def _counter_wrapper(self, cell, fn):
        clock = time.perf_counter

        def counted(*args):
            t = clock()
            try:
                return fn(*args)
            finally:
                cell[1] += clock() - t
                cell[0] += 1

        counted.__wrapped__ = fn
        return counted

    # -- install / uninstall -------------------------------------------------

    def install(self):
        """Wrap every SPANS function and COUNTERS method of the loaded package."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {m.__name__.rpartition(".")[2]: m for m in _package_modules()}
        self._cache_fns = {cname: getattr(mods[modname], fname)
                           for modname, fname, cname in CACHES if modname in mods}
        self._cache_base = {c: _hits_misses(fn) for c, fn in self._cache_fns.items()}
        for modname, attr, name in SPANS:
            if modname not in mods:
                continue
            original = getattr(mods[modname], attr)
            wrapper = self._span_wrapper(name, original)
            for m in mods.values():
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, key, original))
                        setattr(m, key, wrapper)
        for modname, clsname, methods, name in COUNTERS:
            if modname not in mods:
                continue
            cls = getattr(mods[modname], clsname)
            cell = self._counters.setdefault(name, [0, 0.0])
            for meth in methods:
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._counter_wrapper(cell, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
        self._cache_seen = self._cache_counts()
        self._cache_base = {}

    def _cache_counts(self) -> dict:
        """Cache hits and misses while installed, over every install so far."""
        out = {k: list(v) for k, v in self._cache_seen.items()}
        for cname, (hits, misses) in self._cache_base.items():
            now_hits, now_misses = _hits_misses(self._cache_fns[cname])
            seen = out.setdefault(cname, [0, 0])
            seen[0] += now_hits - hits
            seen[1] += now_misses - misses
        return out

    # -- results ---------------------------------------------------------------

    def summary(self) -> dict:
        """Raw totals: {"spans": {name: [calls, self_s, total_s]},
        "counters": {name: [calls, total_s]}, "caches": {name: [hits, misses]}}.

        Totals are sums, so summaries of several processes add up entrywise
        (see merge).  total_s counts only the outermost span of a name, so a
        recursive call is not counted twice.
        """
        if self._stack:
            raise RuntimeError("summary taken inside an open span")
        n = len(self._start)
        dur = [self._end[i] - self._start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            p = self._parent[i]
            if p >= 0:
                covered[p] += dur[i]
        spans = {name: [0, 0.0, 0.0] for name in self._names}
        for i in range(n):
            row = spans[self._names[self._name_of[i]]]
            row[0] += 1
            row[1] += dur[i] - covered[i]
            if self._outer[i]:
                row[2] += dur[i]
        return {"spans": spans,
                "counters": {k: list(v) for k, v in self._counters.items()},
                "caches": self._cache_counts()}


def _hits_misses(fn) -> tuple:
    info = fn.cache_info()
    return info.hits, info.misses


def merge(total: dict, part: dict) -> dict:
    """Add the raw summary `part` into `total` entrywise; returns `total`."""
    for section, rows in part.items():
        into = total.setdefault(section, {})
        for name, values in rows.items():
            if name in into:
                into[name] = [a + b for a, b in zip(into[name], values)]
            else:
                into[name] = list(values)
    return total


def layer_metrics(raw: dict, import_s: float, overhead_ratio: float) -> dict:
    """{metric: (value, unit)} for every PER_LAYER metric, from a raw summary."""
    spans, counters, caches = raw.get("spans", {}), raw.get("counters", {}), raw.get("caches", {})
    stats = {"cli.import_s": import_s, "trace_overhead_ratio": overhead_ratio}
    for name, (calls, self_s, total_s) in spans.items():
        stats[f"{name}.calls"] = calls
        stats[f"{name}.self_s"] = self_s
        stats[f"{name}.total_s"] = total_s
    for name, (calls, total_s) in counters.items():
        stats[f"{name}.calls"] = calls
        stats[f"{name}.total_s"] = total_s
    for name, (hits, misses) in caches.items():
        stats[f"{name}.hits"] = hits
        stats[f"{name}.misses"] = misses
        stats[f"{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    # a layer the workload never reaches reads 0
    return {name: (stats.get(name, 0), unit) for name, unit in PER_LAYER}
