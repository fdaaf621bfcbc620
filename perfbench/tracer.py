"""An outside tracer for dercat: per-layer call counts and self times.

install() rebinds, from here, every public module-level function of each
layer module and the methods of Matrix and FinCat, so that no tracing code
lives in the package.  Calls between functions of one module go through
the module's globals and are seen too.  Each wrapped call is a span; a
span's self time is its duration minus that of the wrapped spans it made.
Spans are folded into per-function totals as they close and the totals
are written out once, by summary().

The hottest small functions are count-only: a span costs several times
their body.  Bookkeeping that needs argument equality or sizes (repeat
ratios, elimination cells, hom-space system shapes) runs with counting
paused, and its time is kept out of every span.
"""

import gc
import importlib
import os
import time

LAYERS = ("linalg", "diagram", "presheaf", "complexes", "derivator",
          "coherence", "serialize", "generators", "cli")

# (class, method) pairs wrapped count-only; all other methods get spans
COUNT_ONLY = {
    ("Matrix", "__init__"), ("Matrix", "zeros"),
    ("FinCat", "__eq__"), ("FinCat", "nonidentity_arrows"),
    ("FinCat", "is_identity"), ("FinCat", "hom"), ("FinCat", "compose"),
}
# functions whose repeat ratio (share of calls with arguments equal to an
# earlier call's) is reported
REPEAT = {("presheaf", "hom_space"), ("complexes", "proj_resolution"),
          ("diagram", "product")}

clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.paused = [False]
        self.stack = [0.0]          # child-time accumulators of open spans
        self.entries = {}           # (layer, name) -> [calls, self, incl, depth]
        self.extra = {}             # named counters filled by hooks
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_t0 = None

    # -- wrappers ------------------------------------------------------------

    def _entry(self, layer, name):
        return self.entries.setdefault((layer, name), [0, 0.0, 0.0, 0])

    def count_only(self, fn, layer, name):
        e = self._entry(layer, name)
        paused = self.paused

        def wrapper(*args, **kwargs):
            if not paused[0]:
                e[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def span(self, fn, layer, name, hook=None):
        e = self._entry(layer, name)
        paused, stack = self.paused, self.stack

        def wrapper(*args, **kwargs):
            if paused[0]:
                return fn(*args, **kwargs)
            if hook is not None:
                h0 = clock()
                paused[0] = True
                try:
                    hook(args)
                finally:
                    paused[0] = False
                stack[-1] += clock() - h0
            stack.append(0.0)
            e[3] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                stack[-1] += dur
                e[0] += 1
                e[1] += dur - child
                e[3] -= 1
                if not e[3]:
                    e[2] += dur
        return wrapper

    # -- hooks ---------------------------------------------------------------

    def _bump(self, name, n):
        self.extra[name] = self.extra.get(name, 0) + n

    def _repeat_hook(self, layer, name):
        seen = set()
        counter = "%s.%s.repeats" % (layer, name)

        def hook(args):
            if args in seen:
                self._bump(counter, 1)
                return False
            seen.add(args)
            return True
        return hook

    def _hom_space_hook(self):
        first_seen = self._repeat_hook("presheaf", "hom_space")

        def hook(args):
            if first_seen(args):
                f, g = args
                shape = f.shape
                self._bump("presheaf.hom_space.rows", sum(
                    g.dims[shape.src[a]] * f.dims[shape.tgt[a]]
                    for a in shape.nonidentity_arrows()))
                self._bump("presheaf.hom_space.unknowns", sum(
                    g.dims[x] * f.dims[x] for x in shape.objects))
        return hook

    def _cells_hook(self, args):
        m = args[0]
        self._bump("linalg.elim.cells", m.rows * m.cols)

    def _bytes_hook(self, counter):
        def hook(args):
            try:
                self._bump(counter, os.path.getsize(args[0]))
            except OSError:
                pass
        return hook

    def _hook_for(self, layer, name):
        if (layer, name) == ("presheaf", "hom_space"):
            return self._hom_space_hook()
        if (layer, name) in REPEAT:
            return self._repeat_hook(layer, name)
        if (layer, name) in (("linalg", "rref"), ("linalg", "rank")):
            return self._cells_hook
        if (layer, name) == ("serialize", "load"):
            return self._bytes_hook("serialize.load.bytes")
        return None

    # -- installation --------------------------------------------------------

    def install(self, package):
        """Wrap the layer modules of an imported package (dercat)."""
        for layer in LAYERS:
            mod = importlib.import_module("%s.%s" % (package, layer))
            wrapped = {}

            def own(obj):
                return callable(obj) and not isinstance(obj, type) and \
                    getattr(obj, "__module__", None) == mod.__name__

            def wrap(name, fn):
                if id(fn) not in wrapped:
                    w = self.span(fn, layer, name, self._hook_for(layer, name))
                    if (layer, name) == ("serialize", "save"):
                        w = self._after_save(w)
                    wrapped[id(fn)] = w
                return wrapped[id(fn)]

            for name, obj in list(vars(mod).items()):
                if own(obj) and not name.startswith("_"):
                    setattr(mod, name, wrap(name, obj))
            # tables of functions (cli.SUITES, cli.COMMANDS, ...) hold the
            # originals, some of them private; point them at wrappers too
            for table in [v for v in vars(mod).values() if isinstance(v, dict)]:
                for k, v in list(table.items()):
                    if own(v):
                        table[k] = wrap(v.__name__, v)
        self._wrap_class(importlib.import_module(package + ".linalg").Matrix,
                         "linalg")
        self._wrap_class(importlib.import_module(package + ".diagram").FinCat,
                         "diagram")
        gc.callbacks.append(self._on_gc)

    def _after_save(self, wrapper):
        def save(path, value):
            out = wrapper(path, value)
            h0 = clock()
            self._bytes_hook("serialize.save.bytes")((path,))
            self.stack[-1] += clock() - h0
            return out
        return save

    def _wrap_class(self, cls, layer):
        for name, raw in list(vars(cls).items()):
            static = isinstance(raw, staticmethod)
            fn = raw.__func__ if static else raw
            if not callable(fn) or isinstance(fn, type) or name == "__repr__" \
                    or (name.startswith("_") and not name.startswith("__")):
                continue
            label = "%s.%s" % (cls.__name__, name)
            if (cls.__name__, name) in COUNT_ONLY:
                w = self.count_only(fn, layer, label)
            else:
                w = self.span(fn, layer, label)
            setattr(cls, name, staticmethod(w) if static else w)

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_t0 = clock()
        elif self._gc_t0 is not None:
            self.gc_s += clock() - self._gc_t0
            self.gc_collections += 1
            self._gc_t0 = None

    # -- output ----------------------------------------------------------------

    def summary(self):
        """Raw totals as plain data, so that summaries of several processes
        can be added before metrics are derived."""
        return {"entries": {"%s:%s" % k: v[:3] for k, v in self.entries.items()},
                "extra": dict(self.extra),
                "gc_s": self.gc_s, "gc_collections": self.gc_collections}


def merge(summaries):
    total = {"entries": {}, "extra": {}, "gc_s": 0.0, "gc_collections": 0}
    for s in summaries:
        for k, v in s["entries"].items():
            acc = total["entries"].setdefault(k, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += v[i]
        for k, v in s["extra"].items():
            total["extra"][k] = total["extra"].get(k, 0) + v
        total["gc_s"] += s["gc_s"]
        total["gc_collections"] += s["gc_collections"]
    return total


def layer_metrics(summary):
    """Per-layer metrics (name -> (value, unit)) from a merged summary."""
    ent, extra = summary["entries"], summary["extra"]

    def calls(layer, *names):
        return sum(ent.get("%s:%s" % (layer, n), [0])[0] for n in names)

    def self_s(layer, *names):
        return sum(ent.get("%s:%s" % (layer, n), [0, 0.0])[1] for n in names)

    def incl_s(layer, name):
        return ent.get("%s:%s" % (layer, name), [0, 0.0, 0.0])[2]

    def repeat_ratio(layer, name):
        n = calls(layer, name)
        return extra.get("%s.%s.repeats" % (layer, name), 0) / n if n else 0.0

    m = {}
    for layer in LAYERS:
        m[layer + ".calls"] = (sum(v[0] for k, v in ent.items()
                                   if k.split(":")[0] == layer), "count")
        m[layer + ".self_s"] = (sum(v[1] for k, v in ent.items()
                                    if k.split(":")[0] == layer), "s")
    m.update({
        "linalg.matrix.allocs": (calls("linalg", "Matrix.__init__"), "count"),
        "linalg.matrix.zeros": (calls("linalg", "Matrix.zeros"), "count"),
        "linalg.elim.calls": (calls("linalg", "rref", "rank"), "count"),
        "linalg.elim.cells": (extra.get("linalg.elim.cells", 0), "count"),
        "linalg.elim.self_s": (self_s("linalg", "rref", "rank"), "s"),
        "linalg.kronecker.calls": (calls("linalg", "kronecker_product"), "count"),
        "diagram.fincat_eq.calls": (calls("diagram", "FinCat.__eq__"), "count"),
        "diagram.nonidentity_arrows.calls":
            (calls("diagram", "FinCat.nonidentity_arrows"), "count"),
        "diagram.product.calls": (calls("diagram", "product"), "count"),
        "diagram.product.repeat_ratio":
            (repeat_ratio("diagram", "product"), "ratio"),
        "presheaf.zero_presheaf.calls":
            (calls("presheaf", "zero_presheaf"), "count"),
        "presheaf.hom_space.calls": (calls("presheaf", "hom_space"), "count"),
        "presheaf.hom_space.repeat_ratio":
            (repeat_ratio("presheaf", "hom_space"), "ratio"),
        "presheaf.hom_space.rows":
            (extra.get("presheaf.hom_space.rows", 0), "count"),
        "presheaf.hom_space.unknowns":
            (extra.get("presheaf.hom_space.unknowns", 0), "count"),
        "presheaf.kernel.calls": (calls("presheaf", "kernel"), "count"),
        "presheaf.free_hull.calls": (calls("presheaf", "free_hull"), "count"),
        "complexes.is_quasi_iso.calls":
            (calls("complexes", "is_quasi_iso"), "count"),
        "complexes.is_quasi_iso.incl_s":
            (incl_s("complexes", "is_quasi_iso"), "s"),
        "complexes.cone.calls": (calls("complexes", "cone"), "count"),
        "complexes.proj_resolution.calls":
            (calls("complexes", "proj_resolution"), "count"),
        "complexes.proj_resolution.repeat_ratio":
            (repeat_ratio("complexes", "proj_resolution"), "ratio"),
        "complexes.find_quasi_iso.calls":
            (calls("complexes", "find_quasi_iso"), "count"),
        "derivator.bicartesian.calls":
            (calls("derivator", "is_cocartesian", "is_cartesian"), "count"),
        "derivator.kan.calls": (calls("derivator", "lan", "ran"), "count"),
        "coherence.lift.incl_s": (incl_s("coherence", "lift_object"), "s"),
        "coherence.extend.incl_s": (incl_s("coherence", "extend_functor"), "s"),
        "serialize.load.bytes":
            (extra.get("serialize.load.bytes", 0), "bytes"),
        "serialize.save.bytes":
            (extra.get("serialize.save.bytes", 0), "bytes"),
        "cli.main.self_s": (self_s("cli", "main"), "s"),
        "runtime.gc_s": (summary["gc_s"], "s"),
        "runtime.gc.collections": (summary["gc_collections"], "count"),
    })
    return m
