#!/usr/bin/env python3
"""Reference figures for the README, from the root of a checkout.

    python3 perfbench/reference.py inputs [--seed N]
        the make-up of each workload's seeded inputs
    python3 perfbench/reference.py runs [--seeds 1-10] [--repeat 1] [--workloads persistency,ef,towers]
        `repeat` untraced runs per seed and workload, then one traced run per
        workload at the first seed; prints median, quartiles, spread
        (quartile distance over median), least and greatest value and the
        largest gap between two runs (greatest over least, minus 1) of every
        end-to-end metric, the per-layer figures and the tracing overhead
"""

from __future__ import annotations

import argparse
import importlib
import json
import re
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def describe_inputs(seed: int) -> None:
    """Heights, tops and game sizes of STRATA consecutive shares of each workload."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    mods = {n: importlib.import_module(f"morasslab.{n}") for n in ("ordinal", "morass", "forcing")}
    morass, forcing, ordinal = mods["morass"], mods["forcing"], mods["ordinal"]
    rounds = range(workloads.STRATA)
    for name, make_share in (("persistency", workloads.persistency_share), ("ef", workloads.ef_share)):
        heights: dict[int, list[int]] = {}
        sizes = Counter()
        for r in rounds:
            for cond, games in make_share(mods, seed, r):
                heights.setdefault(cond.frag.height, []).append(cond.top_theta.terms[0][1])
                sizes.update(str(g if isinstance(g, int) else g[:2]) for g in games)
        print(f"{name}: {sum(map(len, heights.values()))} conditions in {len(rounds)} rounds")
        for h, tops in sorted(heights.items()):
            tops.sort()
            print(f"  height {h}: top w*{tops[0]} .. w*{tops[-1]} (median w*{tops[len(tops) // 2]})")
        print(f"  game sizes per round: {len(sizes)} distinct, each used {min(sizes.values())}-{max(sizes.values())} times")
    rows = []
    for r in rounds:
        for tasks in workloads.towers_share(mods, seed, r):
            targets = [(b, ordinal.parse_ordinal(x)) for b, x in tasks]
            frag = forcing.build_fragment(forcing.seed_condition(), targets, workloads.TOWER_BUDGET).frag
            rows.append((frag.height, frag.top_theta.terms[0][1], len(morass.predecessor_pieces(frag, 0)), len(tasks)))
    print(f"towers: {len(rows)} towers in {len(rounds)} rounds")
    for h in sorted({row[0] for row in rows}):
        sel = [row for row in rows if row[0] == h]
        ks = sorted(row[1] for row in sel)
        pieces = sorted(row[2] for row in sel)
        tasks = sorted(row[3] for row in sel)
        print(
            f"  height {h}: {len(sel)} towers of {tasks[0]}-{tasks[-1]} tasks, family size {ks[0]} .. {ks[-1]}"
            f" (median {ks[len(ks) // 2]}), level-0 predecessor pieces {pieces[0]} .. {pieces[-1]}"
        )


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stdout}\n{proc.stderr}")
    return json.loads(lines[-1]), proc.stdout


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def reference_runs(seeds: list[int], repeat: int, names: list[str]) -> None:
    for name in names:
        results = []
        for seed in seeds:
            for _ in range(repeat):
                result, _ = run_once(name, seed, 0)
                results.append(result)
                print(f"{name} seed {seed}: " + json.dumps(result), flush=True)
        assert all(r["correct"] and r["failed"] == 0 for r in results)
        print(f"{name}: {len(results)} runs, attempted {[r['attempted'] for r in results]}")
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            lo, hi = min(values), max(values)
            print(f"  {metric}: median {statistics.median(values):.4g}, quartiles {q1:.4g} .. {q3:.4g},"
                  f" spread {(q3 - q1) / statistics.median(values):.3f}, range {lo:.4g} .. {hi:.4g},"
                  f" largest gap {hi / lo - 1:.3f}")
        traced, stdout = run_once(name, seeds[0], 1)
        traced_rate = float(re.search(r"ops_per_s=([0-9.]+)", stdout).group(1))
        untraced_rate = statistics.median(r["metrics"]["ops_per_s"]["value"] for r in results[:repeat])
        print(f"  traced run (seed {seeds[0]}): {traced_rate:.4g} ops/s against {untraced_rate:.4g} untraced (median),"
              f" overhead x{untraced_rate / traced_rate:.2f}")
        for metric, m in traced["metrics"].items():
            if m["value"]:
                print(f"    {metric} = {m['value']:.4g} {m['unit']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("inputs")
    p.add_argument("--seed", type=int, default=1308)
    p = sub.add_parser("runs")
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--repeat", type=int, default=1, help="runs per seed")
    p.add_argument("--workloads", default="persistency,ef,towers")
    args = parser.parse_args()
    if args.mode == "inputs":
        describe_inputs(args.seed)
    else:
        reference_runs(_seeds(args.seeds), args.repeat, args.workloads.split(","))
    return 0


if __name__ == "__main__":
    sys.exit(main())
