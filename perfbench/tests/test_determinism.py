"""Self-tests of the benchmark.

    python3 -m pytest perfbench/tests

Determinism: each workload runs at reduced size twice with one seed, each
time in a fresh child process so that no cache carries over.  The
generated inputs, `out_size`, `failed_frac` and every per-layer count must
repeat exactly; claims that rest on counts depend on it.  Times are not
compared.  Self times: on calls that nest membership oracles and spans
inside each other, no time is taken off two layers.
"""

from __future__ import annotations

import itertools
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402

SEED = 7
# Module constants of perfbench/workloads.py and perfbench/inputs.py set
# to a reduced size; the hard omega expressions alone take seconds.
REDUCED = {
    "workloads.CONVERT_RANDOM": {2: 3, 3: 2},
    "workloads.CHECK_SIZES": [(4, (3, 5), "check"), (1, (20, 20), "check-only")],
    "workloads.ENUM_KINDS": {"rexp": (3, 5, 3), "lexp": (2, 5, 4), "oexp": (2, 5, 4)},
    "inputs.HARD": [],
}
TIMES = ("self_s", "overhead_frac")


def reduced_run(workload: str) -> dict:
    run.import_program()
    import inputs
    import workloads

    modules = {"workloads": workloads, "inputs": inputs}
    for name, value in REDUCED.items():
        mod, attr = name.split(".")
        setattr(modules[mod], attr, value)
    wl = workloads.WORKLOADS[workload](SEED)
    if workload == "automaton-check":
        # keep the committed inputs small: the first five files
        saturated = [i for i in wl.items if i.label.endswith(".lauto")]
        wl.items = [i for i in wl.items if not i.label.endswith(".lauto") or i in saturated[:5]]
    result = run.measure(wl, 0.0, trace=True)
    counts = {k: v for k, v in result["layers"].items() if not k.endswith(TIMES)}
    self_times = {k: v for k, v in result["layers"].items() if k.endswith(".self_s")}
    return {
        "inputs": [[i.kind, i.text] for i in wl.items],
        "problems": result["problems"],
        "out_size": result["out_size"],
        "failed_frac": result["failed_frac"],
        "counts": counts,
        "self_times": self_times,
    }


@pytest.mark.parametrize("workload", ["omega-convert", "automaton-check", "membership-enum"])
def test_workload_repeats_exactly(workload):
    first, _ = run.run_in_child(lambda: reduced_run(workload))
    second, _ = run.run_in_child(lambda: reduced_run(workload))
    assert first["problems"] == [] and second["problems"] == []
    assert first["inputs"] == second["inputs"]
    assert first["out_size"] == second["out_size"] > 0
    assert first["failed_frac"] == second["failed_frac"]
    assert first["counts"] == second["counts"]
    assert any(first["counts"].values())
    for run_result in (first, second):
        negative = {k: v for k, v in run_result["self_times"].items() if v < 0}
        assert not negative, f"self time below zero: {negative}"


def tick_clock_self_times() -> dict:
    """Self times of two enumerations under a clock that advances one tick
    per reading, so every interval between readings belongs to exactly one
    open span or membership-oracle call."""
    run.import_program()
    import tracer
    import workloads

    tracer.time = types.SimpleNamespace(perf_counter=itertools.count().__next__)
    # member_lasso_naive calls member_naive; up_member reaches compile_dfa
    # through to_nba, whose cache is empty in a fresh child.
    items = [workloads.Item("lexp", "(a+b)(b)((ab)@)"), workloads.Item("oexp", "(a)((b)$)")]
    wl = workloads.Workload("nested", items, fork_per_item=False)
    export = run.run_unit(wl, [0, 1], traced=True)["trace"]
    spans, counts = tracer.merge_exports([export])
    roots = sum(end - start for _, start, end, parent, *_ in spans if parent < 0)
    layers = tracer.layer_metrics(spans, counts)
    return {"self_times": {k: v for k, v in layers.items() if k.endswith(".self_s")}, "root_ticks": roots}


def test_nested_calls_are_not_taken_off_twice():
    result, _ = run.run_in_child(tick_clock_self_times)
    self_times = result["self_times"]
    assert self_times["ratexp.member_naive.self_s"] > 0
    assert self_times["langops.compile_dfa.self_s"] > 0
    assert {k: v for k, v in self_times.items() if v < 0} == {}
    assert sum(self_times.values()) == result["root_ticks"]
