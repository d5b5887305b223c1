"""Per-layer tracing from outside the package.

The tracer replaces public functions and methods of the ``morasslab``
modules with wrappers, in every module namespace that holds them, so calls
made between the package's own modules are seen too.  Coarse functions get
spans (name, start, end, parent, operation id); hot ones such as ordinal
arithmetic only get call counts, since a span per call would cost more than
the call.  Wrappers do nothing but forward while the tracer is paused, so
the benchmark's checks are not counted.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# Spans kept in memory for the trace file; later spans are still counted
# and timed but not stored.
MAX_STORED_SPANS = 200_000

# A traced entry is (module, attribute path) or (module, attribute path,
# size), where ``size(args, result)`` is added to the name's sum per call.


def _len_result(args, result) -> int:
    return len(result)


# name -> entry; each function is traced as a span.
SPANNED = {
    "intervals.intersect": ("intervals", "intersect"),
    "morass.mu": ("morass", "mu"),
    "morass.family": ("morass", "family", _len_result),
    "morass.validate_fragment": ("morass", "validate_fragment"),
    "forcing.extend_to_cover": ("forcing", "extend_to_cover"),
    "forcing.validate_condition": ("forcing", "validate_condition"),
    # the pairs a membership check compares: |f|^2 of the checked position
    "persistency.in_family": ("persistency", "in_family", lambda args, _: len(args[1].entries) ** 2),
    "persistency.fiber_bound": ("persistency", "fiber_bound"),
    "persistency.defender": ("persistency", "MorassExistsPlayer.respond"),
    "structures.enumerate_layer": ("structures", "enumerate_layer"),
    "structures.project": ("structures", "project"),
    "structures.partial_iso": ("structures", "check_partial_iso_report", lambda args, _: len(args[0]) ** 2),
    "efgame.referee": ("efgame", "play_ef", lambda _, result: len(result.rounds)),
    "efgame.defender": ("efgame", "EFExistsPlayer.respond"),
    "cli.build": ("cli", "cmd_build"),
    "cli.validate": ("cli", "cmd_validate"),
    "cli.export": ("cli", "cmd_export"),
    "cli.show_layer": ("cli", "cmd_show_layer"),
    "cli.play_persistency": ("cli", "cmd_play_persistency"),
    "cli.play_ef": ("cli", "cmd_play_ef"),
}

# name -> entry; each call is only counted.
COUNTED = {
    "ordinal.add": ("ordinal", "add"),
    "ordinal.left_subtract": ("ordinal", "left_subtract"),
    "ordinal.compare": ("ordinal", "compare"),
    # every ordinal comparison operator routes through __lt__ (total_ordering)
    "ordinal.compare_op": ("ordinal", "OrdinalCNF.__lt__"),
    "morass.map_built": ("morass", "MapNF.__post_init__"),
    "morass.predecessor_vector": ("morass", "predecessor_vector"),
    "morass.predecessor_pieces": ("morass", "predecessor_pieces", _len_result),
    "forcing.amalgamate": ("forcing", "amalgamate"),
    # catalog entries of the layer just built (args[0] is the Layer)
    "structures.layer_built": ("structures", "Layer.__init__", lambda args, _: len(args[0])),
}

# lru caches whose misses are reported: name -> (module, attribute)
CACHES = {
    "morass.predecessor_vector": ("morass", "predecessor_vector"),
    "persistency.fiber_bound": ("persistency", "fiber_bound"),
}


def _size_of(entry: tuple):
    return entry[2] if len(entry) > 2 else None


def package_modules() -> list:
    return [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "morasslab" and m]


def package_caches() -> list:
    """Every lru cache at module level in the package, found by its interface."""
    seen = {}
    for mod in package_modules():
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear") and hasattr(obj, "cache_info"):
                seen[id(obj)] = obj
    return list(seen.values())


def _resolve(mods: dict, where: tuple):
    owner = mods[where[0]]
    path = where[1].split(".")
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner, path[-1]


class Tracer:
    """Counts, inclusive and self times, and stored spans, per traced name."""

    def __init__(self):
        self.on = False
        self.op: int | None = None
        self.counts: dict[str, int] = defaultdict(int)
        self.sums: dict[str, int] = defaultdict(int)
        self.incl: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.cache_misses: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []
        self._next_id = 0
        self._caches: dict[str, object] = {}
        self._cache_base: dict[str, int] = {}
        self._restore: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self, mods: dict) -> None:
        """Wrap the traced functions; `mods` maps short names to modules."""
        for name, where in CACHES.items():
            owner, attr = _resolve(mods, where)
            self._caches[name] = getattr(owner, attr)
        for name, entry in SPANNED.items():
            self._patch(mods, entry, self._span_wrapper(name, _size_of(entry)))
        for name, entry in COUNTED.items():
            self._patch(mods, entry, self._count_wrapper(name, _size_of(entry)))
        # the challenger is a closure made per game: wrap what the factory returns
        challenger_span = self._span_wrapper("efgame.challenger")

        def wrap_factory(factory):
            def random_forall(*args, **kwargs):
                return challenger_span(factory(*args, **kwargs))

            return random_forall

        self._patch(mods, ("efgame", "random_forall"), wrap_factory)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, mods: dict, where: tuple, make) -> None:
        owner, attr = _resolve(mods, where)
        original = getattr(owner, attr)
        wrapped = make(original)
        if isinstance(owner, type):
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            return
        # a function is bound by name in every module that imported it
        for mod in package_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def _count_wrapper(self, name: str, size):
        counts, sums = self.counts, self.sums
        tracer = self

        def make(fn):
            if size is None:

                def wrapped(*args, **kwargs):
                    if tracer.on:
                        counts[name] += 1
                    return fn(*args, **kwargs)

            else:

                def wrapped(*args, **kwargs):
                    result = fn(*args, **kwargs)
                    if tracer.on:
                        counts[name] += 1
                        sums[name] += size(args, result)
                    return result

            wrapped.__wrapped__ = fn
            return wrapped

        return make

    def _span_wrapper(self, name: str, size=None):
        tracer = self
        clock = time.perf_counter

        def make(fn):
            def wrapped(*args, **kwargs):
                if not tracer.on:
                    return fn(*args, **kwargs)
                tracer._next_id += 1
                span_id = tracer._next_id
                stack = tracer._stack
                parent = stack[-1][0] if stack else 0
                frame = [span_id, clock(), 0.0]
                stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    duration = end - frame[1]
                    tracer.counts[name] += 1
                    tracer.incl[name] += duration
                    tracer.self_time[name] += duration - frame[2]
                    if stack:
                        stack[-1][2] += duration
                    if len(tracer.spans) < MAX_STORED_SPANS:
                        tracer.spans.append((span_id, name, frame[1], end, parent, tracer.op))
                if size is not None:
                    tracer.sums[name] += size(args, result)
                return result

            wrapped.__wrapped__ = fn
            return wrapped

        return make

    # -- operations and caches --------------------------------------------

    def begin(self, op: int) -> None:
        self.op = op
        self._cache_base = {n: c.cache_info().misses for n, c in self._caches.items()}
        self.on = True

    def end(self) -> None:
        self.on = False
        self._collect_misses()

    def _collect_misses(self) -> None:
        for name, cache in self._caches.items():
            self.cache_misses[name] += cache.cache_info().misses - self._cache_base.get(name, 0)
        self._cache_base = {n: c.cache_info().misses for n, c in self._caches.items()}

    def before_cache_clear(self) -> None:
        if self.on:
            self._collect_misses()

    def after_cache_clear(self) -> None:
        if self.on:
            self._cache_base = {n: 0 for n in self._caches}

    # -- output -----------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start": start, "end": end,
                         "parent": parent, "op": op}
                    )
                    + "\n"
                )
