"""Outside-in span tracer for the traced benchmark run.

The tracer wraps public functions of the modcut modules from outside the
library.  Each wrapped name is rebound in every modcut module that imported
it, so calls the library makes internally are recorded too: ``surd`` inside
``QuadSurd`` methods, ``lft_apply`` inside ``trace``, ``decide_block`` inside
the enumeration.  ``trace`` is a generator and is timed per resumption.
``exactnum.surd.calls`` counts every ``QuadSurd`` construction, through the
``surd`` helper, ``as_surd`` or the raw constructor, by a hook on the class;
the ``surd`` spans time the normalising helper only.

Spans are kept in memory, each with a parent id and an item id, until the
item ends; then each span's self time (its duration minus the durations of
its direct children) and its total time (unless a call of the same layer
encloses it) are added to its layer's totals and the spans are dropped.
The benchmark's own code between library calls is the self time of the
item's root span, ``bench.item``.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import Counter

# (module, public function) pairs that get a span per call
LAYERS = (
    ("exactnum", "compare"),
    ("exactnum", "lft_apply"),
    ("exactnum", "surd_floor"),
    ("exactnum", "rational_between"),
    ("exactnum", "surd"),
    ("cf", "ocf_digits"),
    ("mgcf", "mgcf_direct"),
    ("mgcf", "annotate_ones"),
    ("mgcf", "mgcf_from_annotated"),
    ("cutting", "cutting_from_mgcf"),
    ("cutting", "find_edge_forbidden"),
    ("tessellation", "trace"),
    ("tessellation", "corner_hits_vertical"),
    ("tessellation", "periodic_corner_count"),
    ("automata", "run"),
    ("shiftspace", "decide_block"),
    ("shiftspace", "enumerate_minimal_forbidden"),
)
GENERATORS = frozenset({"tessellation.trace"})
# layers whose ``.calls`` is counted by their hook rather than per span
OWN_CALLS = GENERATORS | {"exactnum.surd"}
# work counts per layer, besides calls and self time
COUNTS = {
    "cf.ocf_digits": ("digits",),
    "mgcf.mgcf_direct": ("symbols", "complete"),
    "mgcf.annotate_ones": ("ones_tagged",),
    "cutting.cutting_from_mgcf": ("symbols",),
    "tessellation.trace": ("steps",),
    "tessellation.corner_hits_vertical": ("hits",),
    "automata.run": ("symbols",),
    "shiftspace.decide_block": ("admissible", "whole_forbidden", "edge_forbidden", "witnessed"),
    "shiftspace.enumerate_minimal_forbidden": ("blocks",),
}
ROOT = "bench.item"
MARK = "_perfbench_wraps"


def self_times(parents, starts, ends):
    """Self time of every span: its duration minus its direct children's.

    Spans are given as parallel sequences indexed by span id; a parent id of
    -1 marks a root.  Children of one parent never overlap in time, because
    the traced program runs on one thread.
    """
    out = array("d", (e - s for s, e in zip(starts, ends)))
    for i, p in enumerate(parents):
        if p >= 0:
            out[p] -= ends[i] - starts[i]
    return out


def _limit_getter(fn):
    params = list(inspect.signature(fn).parameters.values())
    pos = [p.name for p in params].index("limit")
    default = params[pos].default

    def limit_of(args, kwargs):
        if "limit" in kwargs:
            return kwargs["limit"]
        return args[pos] if len(args) > pos else default

    return limit_of


def _counter(key, fn):
    """Post-call hook that counts the work a call did, from its result."""
    if key == "cf.ocf_digits":
        return lambda c, r, a, k: c.update({key + ".digits": len(r)})
    if key == "mgcf.mgcf_direct":
        limit_of = _limit_getter(fn)

        def count(c, word, args, kwargs):
            c[key + ".symbols"] += len(word)
            c[key + ".complete"] += len(word) < limit_of(args, kwargs)

        return count
    if key == "mgcf.annotate_ones":
        return lambda c, r, a, k: c.update(
            {key + ".ones_tagged": sum(1 for _d, t in r.tail if t)})
    if key in ("cutting.cutting_from_mgcf", "automata.run"):
        return lambda c, r, a, k: c.update({key + ".symbols": len(r)})
    if key == "tessellation.corner_hits_vertical":
        return lambda c, r, a, k: c.update({key + ".hits": len(r)})
    if key == "shiftspace.decide_block":

        def count(c, verdict, args, kwargs):
            c["%s.%s" % (key, verdict.status.replace("-", "_"))] += 1
            if verdict.status == "admissible" and verdict.witness is not None:
                c[key + ".witnessed"] += 1

        return count
    if key == "shiftspace.enumerate_minimal_forbidden":
        return lambda c, r, a, k: c.update({key + ".blocks": len(r)})
    return None


class Tracer:
    """Span recorder; install() wraps the LAYERS of a loaded library."""

    def __init__(self):
        self.layer_names = [ROOT] + ["%s.%s" % mf for mf in LAYERS]
        self.counts = Counter()
        self.self_s = Counter()
        self.total_s = Counter()  # time inside the layer, its callees included
        self.active = False
        self.item = -1
        self._name = array("i")
        self._parent = array("q")
        self._item = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack = []
        self._installed = []  # (module, attribute, original)

    # -- spans -----------------------------------------------------------
    def _open(self, layer):
        stack = self._stack
        sid = len(self._start)
        self._name.append(layer)
        self._parent.append(stack[-1] if stack else -1)
        self._item.append(self.item)
        self._end.append(0.0)
        stack.append(sid)
        self._start.append(time.perf_counter())
        return sid

    def _close(self, sid):
        self._end[sid] = time.perf_counter()
        self._stack.pop()

    def begin_item(self, item_id):
        """Start recording spans for one item under a root span."""
        self.item = item_id
        self.active = True
        self._root = self._open(0)

    def end_item(self):
        """Close the item's root span and fold its spans into the totals."""
        self._close(self._root)
        self.active = False
        names, parents = self._name, self._parent
        own = self_times(parents, self._start, self._end)
        outer = [0] * len(names)  # bit set of the layers open around a span
        for i, layer in enumerate(names):
            p = parents[i]
            if p >= 0:
                outer[i] = outer[p] | (1 << names[p])
            name = self.layer_names[layer]
            self.self_s[name] += own[i]
            if not outer[i] >> layer & 1:  # not inside a call of its own layer
                self.total_s[name] += self._end[i] - self._start[i]
            if name not in OWN_CALLS:
                self.counts[name + ".calls"] += 1
        for arr in (self._name, self._parent, self._item, self._start, self._end):
            del arr[:]

    # -- wrappers --------------------------------------------------------
    def _wrap(self, layer, fn):
        key = self.layer_names[layer]
        count = _counter(key, fn)
        tracer = self
        counts = self.counts

        if key in GENERATORS:
            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                counts[key + ".calls"] += 1
                return tracer._resumptions(layer, key, fn(*args, **kwargs))
        else:
            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                sid = tracer._open(layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(sid)
                if count is not None:
                    count(counts, result, args, kwargs)
                return result

        setattr(wrapper, MARK, fn)
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _resumptions(self, layer, key, gen):
        try:
            while True:
                sid = self._open(layer)
                try:
                    step = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(sid)
                self.counts[key + ".steps"] += 1
                yield step
        finally:
            gen.close()

    def install(self, lib):
        """Rebind every LAYERS function in every modcut module that holds it."""
        for layer, (mod_name, func) in enumerate(LAYERS, start=1):
            original = getattr(getattr(lib, mod_name), func)
            wrapper = self._wrap(layer, original)
            for module in modcut_modules().values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._installed.append((module, attr, original))
        self._count_constructions(lib.exactnum.QuadSurd, "exactnum.surd.calls")

    def _count_constructions(self, cls, key):
        init = cls.__init__
        tracer, counts = self, self.counts

        def counting_init(obj, *args, **kwargs):
            if tracer.active:
                counts[key] += 1
            init(obj, *args, **kwargs)

        setattr(counting_init, MARK, init)
        cls.__init__ = counting_init
        self._installed.append((cls, "__init__", init))

    def uninstall(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    # -- results ---------------------------------------------------------
    def metrics(self):
        """Totals per layer: calls, self seconds, work counts and ratios."""
        out = {}
        for name in self.layer_names:
            out[name + ".self_s"] = self.self_s[name]
            out[name + ".total_s"] = self.total_s[name]
            if name != ROOT:
                out[name + ".calls"] = self.counts[name + ".calls"]
        for layer, names in COUNTS.items():
            for n in names:
                out["%s.%s" % (layer, n)] = self.counts["%s.%s" % (layer, n)]
        direct = "mgcf.mgcf_direct"
        out[direct + ".complete_ratio"] = _ratio(
            self.counts[direct + ".complete"], self.counts[direct + ".calls"])
        block = "shiftspace.decide_block"
        out[block + ".witness_ratio"] = _ratio(
            self.counts[block + ".witnessed"], self.counts[block + ".admissible"])
        return out


def _ratio(part, whole):
    # a layer that never ran reports 0; its call count shows why
    return part / whole if whole else 0.0


def modcut_modules():
    """The loaded modcut package and its modules, by name."""
    return {name: m for name, m in sys.modules.items()
            if name == "modcut" or name.startswith("modcut.")}


def assert_clean():
    """Fail unless every modcut function and method is the original one."""
    for module in modcut_modules().values():
        owners = [module] + [v for v in vars(module).values() if isinstance(v, type)]
        for owner in owners:
            for attr, value in vars(owner).items():
                if hasattr(value, MARK):
                    raise AssertionError(
                        "tracing wrapper installed on %s.%s in an untraced run"
                        % (owner.__name__, attr))
