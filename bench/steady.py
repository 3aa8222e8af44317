"""Steadiness check: run each workload over several seeds and compare the
spread of every end-to-end metric with its bound.

    python3 bench/steady.py --runs 10
    python3 bench/steady.py --runs 5 --workload exact-orbit --seconds 10

Run i (counting from 1) is a fresh ``bench/run.py`` process with seed i.
For every metric the table gives the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``), the spread (quartile
distance over the median) and the bound from BENCHMARK.json.  A spread
below a third of its bound is marked steady, one below the bound within,
and any wider spread fails the check.  The share of failed ops must be
the same in every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180 + 2 * seconds, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(workload, results, spec) -> bool:
    ok = True
    shares = {(r["failed"], r["attempted"]) for r in results}
    ratios = {f / a for f, a in shares}
    correct = all(r["correct"] for r in results)
    print(f"{workload}: {len(results)} runs, correct {correct}, failed/attempted "
          + ", ".join(f"{f}/{a}" for f, a in sorted(shares)))
    if len(ratios) != 1 or not correct:
        ok = False
        print("  FAIL: failed share differs between runs or a run was not correct")
    print(f"  {'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for m in spec["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        mark = "steady" if spread < m["bound"] / 3 else ("within" if spread < m["bound"] else "WIDE")
        if mark == "WIDE":
            ok = False
        print(f"  {m['name']:14s} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.2%} {m['bound']:6.2f}"
              f" {m['unit']:5s} {mark}")
    return ok


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--workload", action="append", choices=names)
    args = p.parse_args(argv)

    ok = True
    for w in args.workload or names:
        results = [run_once(w, seed, args.seconds) for seed in range(1, args.runs + 1)]
        ok = summarize(w, results, spec) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
