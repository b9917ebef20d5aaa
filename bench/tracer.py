"""Spans and counters recorded from outside qcgc, for the traced run.

``Tracer.install`` wraps functions at each module boundary and undoes
every patch in ``uninstall``.  A wrapped function is replaced wherever it
is bound by name: the package's re-exports, module globals of every
qcgc module (``qnum`` is bound in cgc, qhyper, qhahn, repsu, verify and
cli; ``_sum_with_guard`` in cgc and qhahn), the dispatch tables
``cgc.ALL_FORMULAS`` and ``verify.SUITES``, and default arguments such as
``recurrence_j_residual(..., evaluator=cgc_racah)``.

Spanned functions record (name, start, end, parent); self time is a
span's duration minus the time its child spans cover, accumulated per
layer as spans close.  The finest callees get counters only: ``HalfInt``
construction, ``qnum``, ``QContext.qpow``, ``QContext.work`` and the
memo lookups.  Boosts are counted by wrapping ``QContext.with_precision``,
whose only caller is the guarded-sum loop in ``qhyper._sum_with_guard``.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

LAYERS = ("halfint", "qcore", "qhyper", "cgc", "repsu", "qhahn", "verify", "cli")

# private functions that are module boundaries in their own right
_PRIVATE_SPANNED = {"_sum_with_guard", "_merged_3f2_sum"}

# tiny public helpers called per label or per matrix entry; spanning them
# would swamp the trace without saying anything about a layer
_UNSPANNED = {
    "halfint", "halfint_range", "selection_rules", "selection_failure",
    "mat_zeros", "mat_eye", "mat_dagger", "mat_max_abs",
    "lattice_x", "lattice_point", "delta_x_half",
}

# ``_sum_with_guard`` makes at most this many passes; a sum that needed
# this many boosts returned its last total unconverged
MAX_PASSES = 4

SPAN_KEEP = 200_000


class _Frame:
    __slots__ = ("index", "child")

    def __init__(self, index):
        self.index = index
        self.child = 0.0


class Tracer:
    """Installs wrappers into an imported qcgc package and aggregates them."""

    def __init__(self, pkg):
        self.pkg = pkg
        # the package re-exports ``halfint`` the function over the submodule
        self.modules = {name: importlib.import_module(f"{pkg.__name__}.{name}")
                        for name in LAYERS}
        # callers reach the public API through the package's re-exports too
        self.namespaces = [pkg, *self.modules.values()]
        self._patches = []          # (setter, original) pairs, undone in reverse
        self.reset()

    # -- recording ---------------------------------------------------------

    def reset(self):
        self.counts = defaultdict(int)
        self.span_calls = defaultdict(int)
        self.span_time = defaultdict(float)     # inclusive, per function
        self.layer_self = defaultdict(float)
        self.racah_bands = defaultdict(lambda: [0, 0.0])
        self.crosscheck = [0, 0.0]
        self.spans = []             # (name, start, end, parent index)
        self.spans_dropped = 0
        self._stack = []
        self._guard_stack = []

    def _enter(self, name):
        index = len(self.spans)
        parent = self._stack[-1].index if self._stack else -1
        if index < SPAN_KEEP:
            self.spans.append([name, 0.0, 0.0, parent])
        else:
            self.spans_dropped += 1
            index = -1
        frame = _Frame(index)
        self._stack.append(frame)
        return frame

    def _exit(self, frame, layer, name, start, end):
        self._stack.pop()
        dur = end - start
        if frame.index >= 0:
            self.spans[frame.index][1] = start
            self.spans[frame.index][2] = end
        self.layer_self[layer] += dur - frame.child
        self.span_calls[name] += 1
        self.span_time[name] += dur
        if self._stack:
            self._stack[-1].child += dur
        return dur

    def _span_wrapper(self, fn, layer, name):
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer._enter(name)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                dur = tracer._exit(frame, layer, name, start, end)
                tracer._classify(name, args, kwargs, dur)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _classify(self, name, args, kwargs, dur):
        if name == "cgc.cgc_racah":
            key = args[0]
            spin = max(key.j1.twice, key.j2.twice)
            band = ("j_le3" if spin <= 6 else "j4_8" if spin <= 16
                    else "j20_120" if 40 <= spin <= 240 else None)
            if band:
                cell = self.racah_bands[band]
                cell[0] += 1
                cell[1] += dur
        elif name == "cgc.compute":
            mode = kwargs.get("mode", args[2] if len(args) > 2 else "default")
            if mode == "crosscheck":
                self.crosscheck[0] += 1
                self.crosscheck[1] += dur

    def _guard_wrapper(self, fn, layer, name):
        """Span plus per-sum boost accounting around ``_sum_with_guard``."""
        spanned = self._span_wrapper(fn, layer, name)
        tracer = self

        def wrapper(one_pass, ctx):
            tracer._guard_stack.append(tracer.counts["boosts"])
            try:
                return spanned(one_pass, ctx)
            finally:
                boosts = tracer.counts["boosts"] - tracer._guard_stack.pop()
                tracer.counts["guarded_sums"] += 1
                tracer.counts["passes"] += min(boosts + 1, MAX_PASSES)
                if boosts >= MAX_PASSES:
                    tracer.counts["unconverged_sums"] += 1

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, fn, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.counts[counter] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _memo_wrapper(self, fn):
        tracer = self

        def wrapper(ctx, key, compute):
            tracer.counts["memo_calls"] += 1
            if key not in ctx._cache:
                tracer.counts["memo_misses"] += 1
            return fn(ctx, key, compute)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ----------------------------------------------------------

    def _set_attr(self, obj, attr, value):
        original = obj.__dict__[attr]
        setattr(obj, attr, value)
        self._patches.append((lambda v, o=obj, a=attr: setattr(o, a, v), original))

    def _set_item(self, mapping, key, value):
        original = mapping[key]
        mapping[key] = value
        self._patches.append((lambda v, m=mapping, k=key: m.__setitem__(k, v),
                              original))

    def _replace_everywhere(self, original, replacement):
        """Rebind ``original`` in every qcgc namespace that holds it by name."""
        for mod in self.namespaces:
            for attr, value in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                if value is original:
                    self._set_attr(mod, attr, replacement)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            self._set_item(value, k, replacement)
                elif any(d is original for d in getattr(value, "__defaults__", None) or ()):
                    defaults = value.__defaults__
                    value.__defaults__ = tuple(replacement if d is original else d
                                               for d in defaults)
                    self._patches.append(
                        (lambda v, f=value: setattr(f, "__defaults__", v), defaults))

    def install(self):
        halfint_cls = self.modules["halfint"].HalfInt
        ctx_cls = self.modules["qcore"].QContext
        self._set_attr(halfint_cls, "__init__",
                       self._counter(halfint_cls.__init__, "halfint_created"))
        self._set_attr(ctx_cls, "qpow", self._counter(ctx_cls.qpow, "qpow_calls"))
        self._set_attr(ctx_cls, "work", self._counter(ctx_cls.work, "work_enters"))
        self._set_attr(ctx_cls, "with_precision",
                       self._counter(ctx_cls.with_precision, "boosts"))
        self._set_attr(ctx_cls, "_memo", self._memo_wrapper(ctx_cls._memo))
        qnum = self.modules["qcore"].qnum
        self._replace_everywhere(qnum, self._counter(qnum, "qnum_calls"))
        for layer, mod in self.modules.items():
            if layer == "halfint":
                continue
            for attr, fn in list(vars(mod).items()):
                if not (callable(fn) and getattr(fn, "__module__", None) == mod.__name__
                        and not isinstance(fn, type)):
                    continue
                if attr in _UNSPANNED or (attr.startswith("_")
                                          and attr not in _PRIVATE_SPANNED):
                    continue
                name = f"{layer}.{attr}"
                if attr == "_sum_with_guard":
                    wrapped = self._guard_wrapper(fn, layer, name)
                else:
                    wrapped = self._span_wrapper(fn, layer, name)
                self._replace_everywhere(fn, wrapped)

    def uninstall(self):
        while self._patches:
            setter, original = self._patches.pop()
            setter(original)

    # -- reporting ---------------------------------------------------------

    def write_spans(self, path):
        """Write the retained spans as JSON lines; returns the span count."""
        with open(path, "w") as out:
            out.write(json.dumps({"retained": len(self.spans),
                                  "dropped": self.spans_dropped}) + "\n")
            for name, start, end, parent in self.spans:
                out.write(json.dumps([name, start, end, parent]) + "\n")
        return len(self.spans)

    def mean(self, name, scale):
        calls = self.span_calls.get(name, 0)
        return self.span_time[name] / calls * scale if calls else 0.0
