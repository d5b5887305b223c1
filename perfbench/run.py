#!/usr/bin/env python3
"""Benchmark of morasslab: persistency games, back-and-forth games and tall towers.

Run from the root of a checkout (stdlib only, nothing to install):

    python3 perfbench/run.py --workload persistency [--seed N] [--seconds S] [--trace 0|1]

The run sets up (import the package, build the seeded inputs) once before
the loop and again in forked children between rounds, and reports the
median as ``setup_s``.  It plays whole rounds
of operations, one caller in a closed loop, until ``--seconds`` of
operation time have passed; the default is BENCHMARK.json's
``run_seconds``, which is what the benchmark runner passes.  Outputs are
checked between operations, off the clock, in a forked child process, so
neither the checks' time nor their memory is the workload's.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the public functions of every layer
are wrapped and the per-layer metrics are reported instead.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

DEFAULT_SEED = 1308
# least number of set-ups per run: one before the loop, then one after each
# round in a forked child (so they sample the machine across the whole run),
# and the rest after the loop
SETUP_REPEATS = 7
PACKAGE_MODULES = ("ordinal", "intervals", "morass", "forcing", "persistency", "structures", "efgame", "cli")

# The tail is the highest of p99/p95/p90/p75 with at least ten operations
# beyond it in the reference runs; it is fixed per workload so that a faster
# program is not read at a higher percentile.
TAIL_PERCENTILE = {"persistency": 95, "ef": 90, "towers": 75}

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def _per_op(kind: str, key: str):
    return lambda t, ops: getattr(t, kind).get(key, 0) / ops


def _calls(key):
    return _per_op("counts", key)


def _sum(key):
    return _per_op("sums", key)


def _incl(key):
    return _per_op("incl", key)


# name -> (unit, value from the loop's tracer and the number of operations)
PER_LAYER = {
    "ordinal.add_calls": ("count/op", _calls("ordinal.add")),
    "ordinal.left_subtract_calls": ("count/op", _calls("ordinal.left_subtract")),
    "ordinal.compare_calls": (
        "count/op",
        lambda t, ops: (t.counts.get("ordinal.compare", 0) + t.counts.get("ordinal.compare_op", 0)) / ops,
    ),
    "intervals.intersect_calls": ("count/op", _calls("intervals.intersect")),
    "intervals.intersect_s": ("s/op", _incl("intervals.intersect")),
    "morass.mu_calls": ("count/op", _calls("morass.mu")),
    "morass.mu_s": ("s/op", _incl("morass.mu")),
    "morass.maps_built": ("count/op", _calls("morass.map_built")),
    "morass.predecessor_vector_calls": ("count/op", _calls("morass.predecessor_vector")),
    "morass.predecessor_vector_misses": ("count/op", _per_op("cache_misses", "morass.predecessor_vector")),
    "morass.family_calls": ("count/op", _calls("morass.family")),
    "morass.family_maps": ("count/op", _sum("morass.family")),
    "morass.family_s": ("s/op", _incl("morass.family")),
    "morass.predecessor_pieces_total": ("count/op", _sum("morass.predecessor_pieces")),
    "morass.validate_fragment_s": ("s/op", _incl("morass.validate_fragment")),
    "forcing.extend_to_cover_s": ("s/op", _incl("forcing.extend_to_cover")),
    "forcing.amalgamate_calls": ("count/op", _calls("forcing.amalgamate")),
    "forcing.validate_condition_s": ("s/op", _incl("forcing.validate_condition")),
    "persistency.in_family_calls": ("count/op", _calls("persistency.in_family")),
    "persistency.in_family_pairs": ("count/op", _sum("persistency.in_family")),
    "persistency.in_family_s": ("s/op", _incl("persistency.in_family")),
    "persistency.defender_s": ("s/op", _incl("persistency.defender")),
    "persistency.fiber_bound_calls": ("count/op", _calls("persistency.fiber_bound")),
    "persistency.fiber_bound_misses": ("count/op", _per_op("cache_misses", "persistency.fiber_bound")),
    "persistency.fiber_bound_s": ("s/op", _incl("persistency.fiber_bound")),
    "structures.enumerate_layer_s": ("s/op", _incl("structures.enumerate_layer")),
    "structures.layers_built": ("count/op", _calls("structures.layer_built")),
    "structures.catalog_entries": ("count/op", _sum("structures.layer_built")),
    "structures.project_calls": ("count/op", _calls("structures.project")),
    "structures.project_s": ("s/op", _incl("structures.project")),
    "structures.partial_iso_checks": ("count/op", _calls("structures.partial_iso")),
    "structures.partial_iso_pairs": ("count/op", _sum("structures.partial_iso")),
    "structures.partial_iso_s": ("s/op", _incl("structures.partial_iso")),
    "efgame.rounds": ("count/op", _sum("efgame.referee")),
    "efgame.referee_self_s": ("s/op", _per_op("self_time", "efgame.referee")),
    "efgame.defender_s": ("s/op", _incl("efgame.defender")),
    "efgame.challenger_s": ("s/op", _incl("efgame.challenger")),
    "cli.build_s": ("s/op", _incl("cli.build")),
    "cli.validate_s": ("s/op", _incl("cli.validate")),
    "cli.export_s": ("s/op", _incl("cli.export")),
    "cli.show_layer_s": ("s/op", _incl("cli.show_layer")),
    "cli.play_persistency_s": ("s/op", _incl("cli.play_persistency")),
    "cli.play_ef_s": ("s/op", _incl("cli.play_ef")),
    "cli.output_bytes": ("B/op", _sum("cli.output_bytes")),
}

# Set-up work, measured on the set-up before the loop: name -> (unit, value).
PER_SETUP = {
    "setup.forcing.extend_to_cover_s": ("s", _incl("forcing.extend_to_cover")),
    "setup.forcing.amalgamate_calls": ("count", _calls("forcing.amalgamate")),
    "setup.morass.validate_fragment_s": ("s", _incl("morass.validate_fragment")),
    "setup.forcing.validate_condition_s": ("s", _incl("forcing.validate_condition")),
}


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            args.seconds = json.load(fh)["run_seconds"]
    return args


def import_package() -> dict:
    """Import the package afresh, so every set-up pays for the import."""
    for name in [n for n in sys.modules if n.split(".")[0] in ("morasslab", "oracles")]:
        del sys.modules[name]
    return {name: importlib.import_module(f"morasslab.{name}") for name in PACKAGE_MODULES}


def tail_percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def apart(fn):
    """Run ``fn()`` in a forked child and return its result, sent back as JSON.

    What the child allocates, and the package caches it fills, stay out of
    this process.  The child freezes the inherited heap first, so the
    garbage collector does not walk this process's objects while it works.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 0
        try:
            gc.freeze()
            result = fn()
            with os.fdopen(write_fd, "w", encoding="utf-8") as fh:
                json.dump(result, fh)
        except BaseException:
            code = 1
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, encoding="utf-8") as fh:
        text = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not text:
        raise RuntimeError(f"child process ended with status {status}")
    return json.loads(text)


def run_check(check, outputs) -> list[str]:
    """The problems ``check`` finds in the outputs; a check that cannot finish fails."""
    try:
        return check(outputs)
    except Exception as exc:
        return [f"check raised {exc!r}"]


def main(argv=None) -> int:
    if not (ROOT / "src" / "morasslab").is_dir() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: no morasslab sources under {ROOT}; run from a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    args = parse_args(argv)

    import checks
    import tracing
    from workloads import WORKLOADS

    setup_fn, round_fn = WORKLOADS[args.workload]

    def timed_setup(setup_tracer=None):
        start = time.perf_counter()
        mods = import_package()
        if setup_tracer is not None:
            setup_tracer.install(mods)
            setup_tracer.begin(0)
        state = setup_fn(mods, args.seed)
        return time.perf_counter() - start, mods, state

    def setup_elsewhere() -> float:
        return apart(lambda: timed_setup()[0])

    setup_tracer = tracing.Tracer() if args.trace else None
    elapsed, mods, state = timed_setup(setup_tracer)
    setup_times = [elapsed]
    if setup_tracer is not None:
        setup_tracer.end()
        setup_tracer.uninstall()

    mods["oracles"] = importlib.import_module("oracles")
    checks.memoize_oracles(mods["oracles"])
    caches = tracing.package_caches()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(mods)

    def clear_caches():
        if tracer is not None:
            tracer.before_cache_clear()
        for cache in caches:
            cache.cache_clear()
        if tracer is not None:
            tracer.after_cache_clear()

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"tmp-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    env = types.SimpleNamespace(clear_caches=clear_caches, workdir=str(workdir))

    latencies: list[float] = []
    problems: list[str] = []
    attempted = failed = rounds = 0
    busy = 0.0
    try:
        while busy < args.seconds:
            batches = round_fn(mods, state, args.seed, rounds, env)
            # a round starts like a fresh process: nothing cached from earlier rounds
            clear_caches()
            for batch in batches:
                outputs = []
                for op in batch.ops:
                    attempted += 1
                    if tracer is not None:
                        tracer.begin(attempted)
                    start = time.perf_counter()
                    try:
                        outputs.append(op())
                    except Exception as exc:  # an operation that raises counts as failed
                        failed += 1
                        problems.append(f"operation {attempted} raised {exc!r}")
                        ok = False
                    else:
                        ok = True
                    finally:
                        elapsed = time.perf_counter() - start
                        if tracer is not None:
                            tracer.end()
                    busy += elapsed
                    if ok:
                        latencies.append(elapsed)
                if len(outputs) == len(batch.ops):
                    if tracer is not None and batch.counters:
                        for key, value in batch.counters(outputs).items():
                            tracer.sums[key] += value
                    try:
                        found = apart(lambda: run_check(batch.check, outputs))
                    except RuntimeError as exc:
                        found = [f"check: {exc}"]
                    problems += [f"round {rounds}: {p}" for p in found]
                batch.cleanup()
            rounds += 1
            if not args.trace:
                setup_times.append(setup_elsewhere())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if tracer is not None:
            tracer.uninstall()
    while not args.trace and len(setup_times) < SETUP_REPEATS:
        setup_times.append(setup_elsewhere())

    # checks run in child processes, so the high-water mark is the workload's
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    correct = not problems
    completed = len(latencies)
    if args.trace:
        metrics = {
            name: {"value": fn(tracer, max(attempted, 1)), "unit": unit}
            for name, (unit, fn) in PER_LAYER.items()
        }
        for name, (unit, fn) in PER_SETUP.items():
            metrics[name] = {"value": fn(setup_tracer, 1), "unit": unit}
        tracer.write_spans(OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl")
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": completed / busy,
            "op_p50_ms": statistics.median(latencies) * 1000,
            "op_tail_ms": tail_percentile(latencies, TAIL_PERCENTILE[args.workload]) * 1000,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    for p in problems[:20]:
        print(f"problem: {p}")
    percentile = TAIL_PERCENTILE[args.workload]
    tail = tail_percentile(latencies, percentile)
    print(
        f"workload={args.workload} seed={args.seed} trace={args.trace} rounds={rounds}"
        f" attempted={attempted} failed={failed} busy_s={busy:.3f} ops_per_s={completed / busy:.4f}"
        f" tail=p{percentile} beyond_tail={sum(1 for x in latencies if x > tail)} setups={len(setup_times)}"
    )
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(OUT_DIR / f"result-{args.workload}-{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
