"""Spans around calls into envwalk's layers, recorded from outside the program.

While a :class:`Tracer` is installed, every envwalk function that one
module imports from another (``from .streams import lanes_for_cells`` in
``walks``), every function a module exports in ``__all__`` (other modules
reach those as ``analysis.fclt_check``), the family ``weight_table``
methods, ``StreamKey.lanes`` and the pair walker's ``step`` are replaced
by wrappers.  A wrapper records a span ``[name, start_ns, end_ns,
parent_index]`` in memory and, for a few names, counts the work the call
did.  Nothing under ``src/`` changes; uninstalling restores every original.

A span's name is ``<layer>.<function>``, the layer being the module that
defines the function.  Self time is a span's duration minus the durations
of its direct children, so the self times of all spans add up to the time
under the outermost spans.  A module's calls to its own private functions
are not wrapped: they are that layer's self time either way.

Pool workers are separate processes that a wrapper cannot reach, so a
traced run must be single-process.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np
from envwalk.streams import TAG_ENV, TAG_WALK

LAYERS = ("streams", "families", "environments", "walks", "diffchain", "stats", "analysis", "experiments")
MODULES = {layer: importlib.import_module(f"envwalk.{layer}") for layer in LAYERS}

# Names wrapped in their own module besides ``__all__``: the chunk fan-out,
# whose job list gives experiments.chunks.  experiments' own ``__all__`` is
# left alone: the harness records spans around those calls itself.
_OWN_NAMES = {"experiments": ("_pmap",)}

# Methods called across modules; the family weight_table methods are found by name.
_METHODS = (("streams", "StreamKey", "lanes"), ("diffchain", "_PairWalker", "step"))

_WORD_FUNCTIONS = ("streams.uniforms_at", "streams.words_at", "streams.derive_seeds_vec")
_WALKER = "walks.batch_quenched_positions"
_PAIR_STEP = "diffchain._PairWalker.step"
_PROPAGATION = "walks.exact_mean_curves"

COUNTS = (
    "streams.words",
    "families.weight_rows",
    "environments.level_lookups",
    "walks.site_steps",
    "walks.walker_steps",
    "walks.walker_steps_unique",
    "diffchain.pair_steps",
    "experiments.chunks",
)


class Tracer:
    """One traced run: its spans, its work counts, and the patches that feed them."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack: list[tuple[int, str]] = []
        # (environment, subcell, x0) -> {walk seed: steps reached}
        self._reach: dict[tuple, dict[int, int]] = {}

    # -- recording ------------------------------------------------------------

    def _wrap(self, name: str, fn, hook=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            parent, caller = stack[-1] if stack else (-1, "")
            index = len(spans)
            stack.append((index, name))
            spans.append(None)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                # A tuple of atoms, which the garbage collector stops tracking.
                spans[index] = (name, start, clock(), parent)
                stack.pop()
            if hook is not None:
                hook(fn, caller, args, kwargs, out)
            return out

        return wrapper

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` under a span named ``name`` (for the harness's own calls)."""
        return self._wrap(name, fn)(*args, **kwargs)

    # -- work counters ------------------------------------------------------------

    def _count_words(self, fn, caller, args, kwargs, out):
        self.counts["streams.words"] += int(np.size(out))

    def _count_lanes(self, fn, caller, args, kwargs, out):
        tag = args[2] if len(args) > 2 else kwargs["tag"]
        size = out[0].size
        if tag == TAG_WALK and caller == _WALKER:
            self.counts["walks.walker_steps"] += size
        elif tag == TAG_WALK and caller == _PAIR_STEP:
            self.counts["diffchain.pair_steps"] += size // 2
        elif tag == TAG_ENV and caller == _PROPAGATION:
            self.counts["walks.site_steps"] += size

    def _count_rows(self, fn, caller, args, kwargs, out):
        self.counts["families.weight_rows"] += int(np.size(out) // np.shape(out)[-1])

    def _count_level_lookup(self, fn, caller, args, kwargs, out):
        self.counts["environments.level_lookups"] += 1

    def _count_chunks(self, fn, caller, args, kwargs, out):
        jobs = args[1] if len(args) > 1 else kwargs["jobs"]
        self.counts["experiments.chunks"] += len(jobs)

    def _reach_walkers(self, fn, caller, args, kwargs, out):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        reach = self._reach.setdefault((a["env"], tuple(a["subcell"]), int(a["x0"])), {})
        n = int(a["n_steps"])
        for w in np.asarray(a["walk_seeds"]).tolist():
            if reach.get(w, 0) < n:
                reach[w] = n

    def _hook(self, name: str):
        if name in _WORD_FUNCTIONS:
            return self._count_words
        return {
            "streams.lanes_for_cells": self._count_lanes,
            "environments.level_uniforms": self._count_level_lookup,
            "experiments._pmap": self._count_chunks,
            _WALKER: self._reach_walkers,
        }.get(name)

    # -- installation ---------------------------------------------------------------

    def _patches(self):
        """(owner, attribute, wrapper) for every call site this tracer wraps."""
        wrappers: dict[int, object] = {}

        def wrapper_for(fn):
            if id(fn) not in wrappers:
                name = f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"
                wrappers[id(fn)] = self._wrap(name, fn, self._hook(name))
            return wrappers[id(fn)]

        for layer, mod in MODULES.items():
            own = set(_OWN_NAMES.get(layer, ()))
            if layer != "experiments":
                own |= set(getattr(mod, "__all__", ()))
            for attr, val in vars(mod).items():
                if not inspect.isfunction(val):
                    continue
                home = val.__module__.rpartition(".")[2]
                if val.__module__.startswith("envwalk.") and home in MODULES and (home != layer or attr in own):
                    yield mod, attr, wrapper_for(val)
        for cls in vars(MODULES["families"]).values():
            if inspect.isclass(cls) and "weight_table" in vars(cls):
                name = f"families.{cls.__name__}.weight_table"
                yield cls, "weight_table", self._wrap(name, vars(cls)["weight_table"], self._count_rows)
        for layer, cls_name, method in _METHODS:
            cls = getattr(MODULES[layer], cls_name)
            yield cls, method, self._wrap(f"{layer}.{cls_name}.{method}", vars(cls)[method])

    @contextmanager
    def installed(self):
        """Wrap the call sites for the length of the block, then restore them."""
        undo = []
        try:
            for owner, attr, wrapper in list(self._patches()):
                undo.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    # -- results --------------------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer self times, span counts, work counts and derived rates.

        ``streams.ns_per_word`` is streams self time per word the word
        functions returned.  The ``ns_per_*_step`` rates divide the time
        inside the walker, propagation or pair-step spans (children
        included) by the steps counted under them, from the elements passed
        to ``lanes_for_cells``.  ``walks.walker_steps_unique_frac`` is the
        number of distinct (field, walker, step) triples over walker steps
        run, ``walks.walker_steps_unique`` the numerator.  A rate with
        nothing to divide by is None.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns: Counter = Counter()
        calls: Counter = Counter()
        inclusive_ns: Counter = Counter()
        for i, (name, start, end, parent) in enumerate(self.spans):
            layer = name.partition(".")[0]
            self_ns[layer] += end - start - child_ns[i]
            calls[layer] += 1
            inclusive_ns[name] += end - start

        def per(amount: float, count: int):
            return amount / count if count else None

        unique = sum(sum(r.values()) for r in self._reach.values())
        c = Counter(self.counts)
        c["walks.walker_steps_unique"] = unique
        walker_steps = c["walks.walker_steps"]
        out = {key: c[key] for key in COUNTS}
        out.update({f"{layer}.self_s": self_ns[layer] * 1e-9 for layer in LAYERS})
        out.update({
            "streams.calls": calls["streams"],
            "stats.calls": calls["stats"],
            "streams.ns_per_word": per(self_ns["streams"], c["streams.words"]),
            "walks.walker_steps_unique_frac": per(unique, walker_steps),
            "walks.ns_per_site_step": per(inclusive_ns[_PROPAGATION], c["walks.site_steps"]),
            "walks.ns_per_walker_step": per(inclusive_ns[_WALKER], walker_steps),
            "diffchain.ns_per_pair_step": per(inclusive_ns[_PAIR_STEP], c["diffchain.pair_steps"]),
            "experiments.parse_s": inclusive_ns["experiments.parse_config"] * 1e-9,
            "experiments.emit_s": inclusive_ns["experiments.report_json"] * 1e-9,
        })
        return out

    def write(self, path) -> None:
        """Write the spans as JSON: a list of [name, start_ns, end_ns, parent]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent"], "spans": self.spans}))
