"""lassokit benchmark: one command per workload and seed.

    python3 perfbench/run.py --workload omega-convert --seed 1 --seconds 20 --trace 0

Run from anywhere; lassokit is imported from the `src/` directory next to
this one and from nowhere else.  With `--trace 0` the last line of
standard output is a JSON object with the end-to-end metrics of
BENCHMARK.json; with `--trace 1` it holds the per-layer metrics instead.
Every answer is checked against an independent oracle after the timed
phase; a wrong answer makes `correct` false.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 9  # fresh processes timed from start to first item ready
ITEM_TIME_LIMIT_S = 120  # a child that runs longer is killed and fails the run


class BenchmarkError(RuntimeError):
    pass


def import_program() -> None:
    """Put this checkout's lassokit first on the path and import it."""
    if not (SRC / "lassokit" / "__init__.py").is_file():
        raise BenchmarkError(f"no lassokit sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import lassokit

    if Path(lassokit.__file__).resolve().parent != (SRC / "lassokit").resolve():
        raise BenchmarkError(f"imported lassokit from {lassokit.__file__}, not from {SRC}")


def setup_probe(workload: str, seed: int, draw: int) -> None:
    """Body of one set-up probe process: import, build the inputs, report ready."""
    import_program()
    import workloads

    workloads.WORKLOADS[workload](seed, draw)
    print("ready", flush=True)


def measure_setup(workload: str, seed: int, draw: int) -> float:
    """Median seconds from starting a fresh interpreter to its first item being ready."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload,
           "--seed", str(seed), "--draw", str(draw)]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as probe:
            line = probe.stdout.readline()
            ready = time.perf_counter()
            probe.stdout.read()
            code = probe.wait()
        if line.strip() != "ready" or code != 0:
            raise BenchmarkError(f"set-up probe failed (exit code {code})")
        times.append(ready - start)
    return statistics.median(times)


def run_in_child(work) -> tuple[object, float]:
    """Run `work()` in a forked child; return its JSON-able result and the
    child's peak resident set in MiB."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 0
        try:
            os.close(read_fd)
            signal.alarm(ITEM_TIME_LIMIT_S)
            payload = json.dumps(work()).encode()
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(payload)
        except BaseException:
            traceback.print_exc()
            code = 70
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        payload = fh.read()
    _, status, usage = os.wait4(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise BenchmarkError(f"benchmark child exited with {code}")
    return json.loads(payload), usage.ru_maxrss / 1024


def run_unit(wl, indices: list[int], traced: bool) -> dict:
    """Child body: run the given items in order, timing each."""
    tracer = None
    if traced:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    records = []
    for i in indices:
        if tracer:
            tracer.begin_item(i)
        start = time.perf_counter()
        outcome, out = wl.execute(wl.items[i])
        elapsed = time.perf_counter() - start
        if tracer:
            tracer.end_item()
        records.append([i, elapsed, outcome, out])
    return {"items": records, "trace": tracer.export() if tracer else None}


class Samples:
    """Per-item wall times and outputs of one kind of pass (traced or not)."""

    def __init__(self, n: int):
        self.times: list[list[float]] = [[] for _ in range(n)]
        self.outputs: dict[int, tuple[str, str]] = {}
        self.peak_rss_mb = 0.0
        self.attempted = 0
        self.failed_runs = 0
        self.unexpected: list[str] = []

    def add(self, result: dict, rss_mb: float) -> None:
        self.peak_rss_mb = max(self.peak_rss_mb, rss_mb)
        for i, elapsed, outcome, out in result["items"]:
            self.times[i].append(elapsed)
            self.attempted += 1
            self.failed_runs += outcome == "error"
            if self.outputs.setdefault(i, (outcome, out)) != (outcome, out):
                self.unexpected.append(f"item {i} gave a different answer on a repeated run")

    def per_item(self, estimate) -> list[float]:
        return [estimate(t) for t in self.times]

    def failures(self, outcomes: tuple[str, ...]) -> int:
        return sum(1 for outcome, _ in self.outputs.values() if outcome in outcomes)


def timed_phase(wl, seconds: float, trace: bool):
    """Closed loop, one client: run units until `seconds` have passed.

    A unit is one item, or a whole pass for membership-enum.  Every unit
    runs once; after that the unit with the fewest runs runs next, the
    slowest first among equals, so the items that carry most of `total_s`
    get their repeats first.  Traced: every run is a pair, the unit
    untraced and traced back to back, alternating which goes first, so the
    tracing overhead compares runs seconds apart, not passes minutes apart.
    """
    n = len(wl.items)
    units = [[i] for i in range(n)] if wl.fork_per_item else [list(range(n))]
    plain, traced = Samples(n), Samples(n)
    traced_exports = []
    first = [0.0] * len(units)
    runs = [0] * len(units)
    deadline = time.perf_counter() + seconds
    for k in itertools.count():
        if k < len(units):
            unit = k
        elif time.perf_counter() < deadline:
            unit = min(range(len(units)), key=lambda u: (runs[u], -first[u]))
        else:
            break
        modes = [False, True] if trace else [False]
        if (unit + runs[unit]) % 2:
            modes.reverse()
        for use_trace in modes:
            result, rss = run_in_child(lambda: run_unit(wl, units[unit], use_trace))
            (traced if use_trace else plain).add(result, rss)
            if k < len(units):
                first[unit] += sum(elapsed for _, elapsed, _, _ in result["items"])
            if use_trace and k < len(units):
                traced_exports.append(result["trace"])
        runs[unit] += 1
    return plain, traced, traced_exports


def tail(values: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with at least ten samples beyond it,
    and that percentile."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def measure(wl, seconds: float, trace: bool) -> dict:
    """Timed phase, then the oracle checks, then the metrics of one run."""
    import tracer as tracing
    import workloads

    plain, traced, exports = timed_phase(wl, seconds, trace)
    problems = plain.unexpected + traced.unexpected
    problems += [f"item {i} answered differently when traced"
                 for i, answer in traced.outputs.items() if plain.outputs[i] != answer]
    check_problems, out_size = workloads.verify(wl, plain.outputs)
    problems += check_problems
    # An item's time over its runs.  membership-enum repeats its whole pass
    # a dozen times or more in a run, and the least of those is the time a
    # slow phase of the host cannot inflate.  The fork-per-item workloads
    # give their long items two or three runs, too few for the least to be
    # steady, so there it is the median.  (See README.md, *How a run works*.)
    estimate = statistics.median if wl.fork_per_item else min
    per_item = plain.per_item(estimate)
    total_s = sum(per_item)
    tail_ms, tail_pct = tail([t * 1000 for t in per_item])
    capped, errors = plain.failures(("cap",)), plain.failures(("error",))
    result = {
        "problems": problems,
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed_runs + traced.failed_runs,
        "out_size": out_size,
        "capped": capped,
        "errors": errors,
        "failed_frac": (capped + errors) / len(wl.items),
        "tail_pct": tail_pct,
        "end_to_end": {
            "total_s": total_s,
            "item_p50_ms": statistics.median(per_item) * 1000,
            "item_tail_ms": tail_ms,
            "peak_rss_mb": plain.peak_rss_mb,
            "out_size": out_size,
        },
        "layers": None,
        "spans": None,
    }
    if trace:
        spans, counts = tracing.merge_exports(exports)
        layers = tracing.layer_metrics(spans, counts)
        traced_per_item = traced.per_item(estimate)
        layers["trace.overhead_frac"] = (sum(traced_per_item) - total_s) / total_s
        result["item_overhead"] = [t / p - 1 for t, p in zip(traced_per_item, per_item)]
        layers["run.failed_frac"] = result["failed_frac"]
        tracing.check_not_empty(layers, wl.name)
        result["layers"], result["spans"] = layers, spans
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1,
                        help="shuffles the item order of the workloads that fork one child per item")
    parser.add_argument("--draw", type=int, default=None,
                        help="draw seed of the items (default: the fixed draw 1; held-out draw: 1009)")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchmarkError(f"unknown workload {args.workload!r}")
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.draw)
        return 0

    import_program()
    import tracer as tracing
    import workloads

    if args.trace:
        tracing.resolve()  # fail before timing if a traced function is gone
    draw = workloads.DRAW_SEED if args.draw is None else args.draw
    setup_s = measure_setup(args.workload, args.seed, draw)
    wl = workloads.WORKLOADS[args.workload](args.seed, draw)
    r = measure(wl, args.seconds, bool(args.trace))

    n = len(wl.items)
    print(f"workload {wl.name} seed {args.seed}: {n} items, {r['attempted']} runs, "
          f"parameters {json.dumps(wl.params)}")
    print(f"items stopped at a resource cap: {r['capped']}; failed with an error: {r['errors']}; "
          f"failed_frac {r['failed_frac']:.4f}; out_size {r['out_size']}")
    print(f"item_tail_ms is p{r['tail_pct']:.1f} over {n} per-item times")
    if args.trace:
        q1, _, q3 = statistics.quantiles(r["item_overhead"], n=4)
        print(f"trace.overhead_frac {r['layers']['trace.overhead_frac']:.4f}; per item, traced over "
              f"untraced time - 1 has quartiles {q1:.4f} and {q3:.4f}")
    for problem in r["problems"][:20]:
        print(f"WRONG: {problem}")

    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"spans-{wl.name}-seed{args.seed}.json", "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "item", "error", "leaf_s", "in_leaf"],
                       "spans": r["spans"]}, fh)
        values, wanted = r["layers"], spec["per_layer"]
    else:
        values, wanted = {"setup_s": setup_s, **r["end_to_end"]}, spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchmarkError(f"metrics in BENCHMARK.json that this run did not produce: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": not r["problems"], "attempted": r["attempted"], "failed": r["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(2)
