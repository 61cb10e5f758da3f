"""Outside-in tracing of lassokit's layers.

The tracer replaces chosen public functions with wrappers in every
lassokit module that binds them (modules import by name, so `omega`
holds its own reference to `langops.compile_dfa`).  Each wrapped call
records one span: name, start, end, parent span, item index, and the
exception type if it raised.  Spans stay in memory until the item's
process ends.  Hot recursive helpers (`normalize_b`, `ewp`, `_deriv_raw`,
`_member`) are not wrapped; the `deriv` and `to_nba` caches are read
through `cache_info()` around each item instead.

A function that calls itself through its module binding (for example
`member_lasso_naive`) records only the outermost call.  The membership
oracles in LEAVES run once per enumerated word or lasso, hundreds of
thousands of times per run; they are counted and timed in aggregate per
process instead of one span per call.  Spans and LEAVES calls still nest
as one tree: a LEAVES call's self time excludes the LEAVES calls and spans
opened inside it, and its whole duration is taken off the self time of the
span or LEAVES call around it, never twice.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


class TracerError(RuntimeError):
    """The traced program no longer has a function the benchmark measures."""


OC, AC, ME = "omega-convert", "automaton-check", "membership-enum"

# "module.function" -> (workloads on which it must be called, and the
# counts it adds: (count name, function of the result) pairs).
TRACED = {
    "omega.gamma_map": ({OC}, [("pairs_out", lambda df: len(df.pairs))]),
    "omega.h_map": ({OC}, []),
    "omega.omega_to_omega_automaton": ({OC}, []),
    "omega.up_member": ({ME}, []),
    "ratexp.split": ({OC}, [("pairs", len)]),
    "ratexp.member_naive": ({ME}, []),
    "langops.compile_dfa": ({OC}, [("states", lambda d: d.n_states)]),
    "langops.dfa_to_expr": ({OC, AC}, []),
    "langops.root": ({OC, AC}, [("states", lambda d: d.n_states)]),
    "langops.boolean_combine": ({OC, AC}, [("states", lambda d: d.n_states)]),
    "langops.minimize_dfa": ({OC, AC}, []),
    "langops.equivalent_dfa": ({OC, AC}, []),
    "lassoexp.compile_lasso": ({OC}, [("spoke_states", lambda aut: aut.n_spoke),
                                      ("loop_states", lambda aut: aut.n_loop)]),
    "lassoexp.member_lasso_naive": ({ME}, []),
    "lassoaut.is_saturated": ({OC, AC}, []),
    "lassoaut.extract_expr": ({AC}, []),
    "lassoaut.extract_omega_expr": ({AC}, []),
    "lassoaut.read_automaton": ({AC}, []),
    "lassos.enumerate_lassos": ({ME}, []),
    "cli.main": ({ME}, []),
    "cli.build_parser": ({ME}, []),
    "syntax.parse_raw": ({OC, ME}, []),
}
LEAVES = {"ratexp.member_naive", "lassoexp.member_lasso_naive", "omega.up_member"}
# lru_cache'd functions are read through cache_info() instead of wrapped.
CACHES = {"ratexp.deriv": {OC}, "omega.to_nba": {ME}}
LEAF = object()  # first field of a LEAVES call's frame: [LEAF, name, seconds of the calls inside it]


def lassokit_modules() -> dict[str, object]:
    return {
        name: mod
        for name, mod in sys.modules.items()
        if mod is not None and (name == "lassokit" or name.startswith("lassokit."))
    }


def resolve() -> dict[str, object]:
    """The original function behind every traced name.

    Raises TracerError when the module the metric is named after no
    longer binds the function, so a rename cannot silently empty a layer.
    """
    modules = lassokit_modules()
    found = {}
    for qualified in list(TRACED) + list(CACHES):
        mod_name, func_name = qualified.split(".")
        mod = modules.get(f"lassokit.{mod_name}")
        fn = getattr(mod, func_name, None) if mod is not None else None
        if fn is None or not callable(fn):
            raise TracerError(f"lassokit.{mod_name} no longer binds {func_name}; update perfbench/tracer.py")
        if qualified in CACHES and not hasattr(fn, "cache_info"):
            raise TracerError(f"lassokit.{qualified} is no longer an lru_cache; update perfbench/tracer.py")
        found[qualified] = fn
    return found


class Tracer:
    """Collects spans and counts for the items of one child process."""

    def __init__(self):
        # [name, start, end, parent span, item, error, seconds of LEAVES calls
        # directly inside, opened directly inside a LEAVES call]
        self.spans: list[list] = []
        self.stack: list[int] = []  # open spans, innermost last
        self.frames: list[list] = []  # open spans and LEAVES calls, innermost last
        self.item = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.compile_inputs: set = set()
        self._caches = {}
        self._cache_start = {}

    def install(self) -> None:
        originals = resolve()
        for qualified, fn in originals.items():
            if qualified in CACHES:
                self._caches[qualified] = fn
                continue
            wrapper = (self._wrap_leaf if qualified in LEAVES else self._wrap)(qualified, fn)
            for mod in lassokit_modules().values():
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)

    def _wrap(self, name: str, fn):
        spans, stack, frames, counts, clock = self.spans, self.stack, self.frames, self.counts, time.perf_counter
        result_counts = TRACED[name][1]
        compile_inputs = self.compile_inputs if name == "langops.compile_dfa" else None

        def wrapper(*args, **kwargs):
            if frames and frames[-1][0] == name:
                return fn(*args, **kwargs)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.item, None, 0.0, False]
            stack.append(len(spans))
            spans.append(span)
            frames.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                span[5] = type(e).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
                frames.pop()
                if frames and frames[-1][0] is LEAF:
                    frames[-1][2] += span[2] - span[1]
                    span[7] = True
            for count_name, measure in result_counts:
                counts[f"{name}.{count_name}"] += measure(result)
            if compile_inputs is not None:
                compile_inputs.add((args, tuple(sorted(kwargs.items()))))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_leaf(self, name: str, fn):
        frames, counts, clock = self.frames, self.counts, time.perf_counter
        calls, self_s = f"{name}.calls", f"{name}.self_s"

        def wrapper(*args, **kwargs):
            if frames and frames[-1][0] is LEAF and frames[-1][1] == name:
                return fn(*args, **kwargs)
            frame = [LEAF, name, 0.0]
            frames.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                frames.pop()
                counts[calls] += 1
                counts[self_s] += elapsed - frame[2]
                if frames:
                    outer = frames[-1]
                    outer[2 if outer[0] is LEAF else 6] += elapsed

        wrapper.__wrapped__ = fn
        return wrapper

    def begin_item(self, index: int) -> None:
        self.item = index
        self.compile_inputs.clear()
        self._cache_start = {q: fn.cache_info() for q, fn in self._caches.items()}

    def end_item(self) -> None:
        for qualified, fn in self._caches.items():
            info, start = fn.cache_info(), self._cache_start[qualified]
            self.counts[f"{qualified}.hits"] += info.hits - start.hits
            self.counts[f"{qualified}.misses"] += info.misses - start.misses
            self.counts[f"{qualified}.cache_size"] = max(self.counts[f"{qualified}.cache_size"], info.currsize)
        self.counts["langops.compile_dfa.distinct"] += len(self.compile_inputs)
        self.item = -1

    def export(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def self_times(spans: list[list]) -> dict[str, tuple[float, int, int]]:
    """Per name: (self seconds, calls, calls that raised StateLimitError).

    A span's self time is its duration minus the durations of its direct
    child spans and of the LEAVES calls it made directly; a child span
    opened inside one of those LEAVES calls is already part of the call's
    duration.  Calls are single-threaded, so children never overlap.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _item, _err, _leaf, in_leaf in spans:
        if parent >= 0 and not in_leaf:
            child[parent] += end - start
    out: dict[str, list] = defaultdict(lambda: [0.0, 0, 0])
    for i, (name, start, end, _parent, _item, err, leaf, _in_leaf) in enumerate(spans):
        entry = out[name]
        entry[0] += end - start - child[i] - leaf
        entry[1] += 1
        entry[2] += err == "StateLimitError"
    return {name: tuple(v) for name, v in out.items()}


def merge_exports(exports: list[dict]) -> tuple[list[list], dict[str, float]]:
    """Join the spans and counts of several child processes into one pass."""
    spans: list[list] = []
    counts: dict[str, float] = defaultdict(float)
    for export in exports:
        offset = len(spans)
        for name, start, end, parent, item, err, leaf, in_leaf in export["spans"]:
            spans.append([name, start, end, parent + offset if parent >= 0 else -1, item, err, leaf, in_leaf])
        for key, value in export["counts"].items():
            if key.endswith(".cache_size"):
                counts[key] = max(counts[key], value)
            else:
                counts[key] += value
    return spans, counts


def layer_metrics(spans: list[list], counts: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced pass: self time and calls of every
    traced function, the counts in TRACED, and the cache figures."""
    selfs = self_times(spans)
    m: dict[str, float] = {}
    for name, (_, result_counts) in TRACED.items():
        self_s, calls, capped = selfs.get(name, (0.0, 0, 0))
        if name in LEAVES:
            self_s, calls = counts.get(f"{name}.self_s", 0.0), counts.get(f"{name}.calls", 0)
        m[f"{name}.self_s"] = self_s
        m[f"{name}.calls"] = calls
        for count_name, _ in result_counts:
            m[f"{name}.{count_name}"] = counts.get(f"{name}.{count_name}", 0)
        if name == "langops.root":
            m[f"{name}.failed"] = capped
    for qualified in CACHES:
        hits, misses = counts.get(f"{qualified}.hits", 0), counts.get(f"{qualified}.misses", 0)
        m[f"{qualified}.lookups"] = hits + misses
        m[f"{qualified}.misses"] = misses
        m[f"{qualified}.hit_frac"] = hits / (hits + misses) if hits + misses else 0.0
        m[f"{qualified}.cache_size"] = counts.get(f"{qualified}.cache_size", 0)
    calls = m["langops.compile_dfa.calls"]
    m["langops.compile_dfa.distinct_frac"] = counts.get("langops.compile_dfa.distinct", 0) / calls if calls else 0.0
    return m


def check_not_empty(metrics: dict[str, float], workload: str) -> None:
    """Fail loudly if a traced function was never reached on a workload
    that is meant to exercise it: its layer would read as zero."""
    empty = [name for name, (where, _) in TRACED.items() if workload in where and not metrics[f"{name}.calls"]]
    empty += [name for name, where in CACHES.items() if workload in where and not metrics[f"{name}.lookups"]]
    if empty:
        raise TracerError(f"no calls reached {', '.join(empty)} on {workload}; update perfbench/tracer.py")
