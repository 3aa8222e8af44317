"""Benchmark entry point: one workload, one seed, one run.

    python3 bench/run.py --workload exact-orbit --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the run prints every end-to-end metric of
BENCHMARK.json, with ``--trace 1`` every per-layer metric (from a traced
second half of the run, see ``tracing.py``).  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give each metric with its
unit, the op counts and the environment.

A run is whole rounds: every round runs the workload's full op list
once, so the share of failed ops is the same in every run.  The first
round warms up and is checked in full; it is not timed.  Op times are
normalized by the host's speed around each op (``pace.py``); the same
figures from raw wall time are printed beside them for reference.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pace

# Pin BLAS threads before numpy is first imported (by the workloads, in
# this process and in the set-up probes): one process, one thread of
# numerical work.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("exact-orbit", "float-spectral", "cli-batch", "check-battery")

SETUP_PROBES = 9  # fresh interpreters per run; setup_s is their median
MIN_ROUNDS = 3
PROBE_TIMEOUT_S = 60


def _fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def _import_program():
    """Import abelmod from this checkout's src/ and nowhere else."""
    if not (SRC / "abelmod" / "__init__.py").is_file():
        raise RuntimeError(f"no abelmod package under {SRC}")
    sys.path.insert(0, str(SRC))
    import abelmod

    if SRC not in Path(abelmod.__file__).resolve().parents:
        raise RuntimeError(f"abelmod imported from {abelmod.__file__}, not from {SRC}")


def _setup(workload: str, seed: int):
    """Import the program, generate the planted inputs and build the
    program-side objects: everything before the first timed op."""
    _import_program()
    import workloads

    wl = workloads.WORKLOADS[workload](seed)
    wl.build()
    return wl


def _probe_setup(workload: str, seed: int) -> float:
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe", repr(t0)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
    normalized, wall = proc.stdout.strip().splitlines()[-1].split()
    return float(normalized), float(wall)


def _environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
    }


class Tally:
    """Judges each op's output; counts attempted, failed and wrong ops."""

    def __init__(self, wl):
        import workloads

        self.wl = wl
        self.W = workloads
        self.first: dict[int, tuple] = {}  # op index -> (signature, verdict)
        self.by_key: dict = {}  # orbit key -> signature
        self.attempted = self.failed = self.wrong = 0
        self.notes: list[str] = []

    def judge(self, k, op, out, exc):
        W = self.W
        self.attempted += 1
        if exc is not None:
            verdict = W.FAILED if self.wl.expected_error(op, exc) else W.WRONG
            note = f"op {k} raised {type(exc).__name__}: {exc}"
        else:
            note = f"op {k} gave a wrong answer"
            sig = self.wl.signature(op, out)
            if sig is not None and k in self.first:
                first_sig, first_verdict = self.first[k]
                verdict = first_verdict if sig == first_sig else W.WRONG
                if sig != first_sig:
                    note = f"op {k} output differs from the first round"
            else:
                verdict = self.wl.check(op, out)
                if sig is not None:
                    self.first[k] = (sig, verdict)
                    if self.by_key.setdefault(op.key, sig) != sig:
                        verdict = W.WRONG
                        note = f"op {k} output differs across its orbit"
        if verdict != W.OK:
            self.failed += 1
        if verdict == W.WRONG:
            self.wrong += 1
            if len(self.notes) < 5:
                self.notes.append(note)


def _rounds(wl, tally, seconds, tracer=None, min_rounds=MIN_ROUNDS):
    """Whole rounds until `seconds` have passed; returns per-round lists
    of each op's (start, end) on the perf_counter clock."""
    ops = wl.ops()
    clock = time.perf_counter
    deadline = clock() + seconds
    rounds = []
    while True:
        gc.collect()
        durs = []
        for k, op in enumerate(ops):
            exc = out = None
            t0 = clock()
            try:
                out = op.run() if tracer is None else tracer.root("bench.op", op.run)
            except Exception as e:  # judged below: a named fault or a wrong op
                exc = e
            durs.append((t0, clock()))
            tally.judge(k, op, out, exc)
        rounds.append(durs)
        if len(rounds) >= min_rounds and clock() >= deadline:
            return rounds


def _op_times(rounds, pacer=None) -> list[float]:
    """Each op's time over the rounds: the median of its normalized times,
    or with no pacer of its wall times."""
    duration = pacer.normalized if pacer is not None else (lambda a, b: b - a)
    return [statistics.median(duration(a, b) for a, b in ts) for ts in zip(*rounds)]


def _ops_per_s(rounds, pacer=None) -> float:
    t = _op_times(rounds, pacer)
    return len(t) / sum(t)


def _quantile(values, q) -> float:
    """Harrell-Davis estimate of the q-quantile: the mean of the order
    statistics weighted by a Beta((n+1) q, (n+1) (1-q)) distribution.  It
    moves smoothly when ops of neighbouring cost swap places from one seed
    to the next, where a single order statistic jumps."""
    import numpy as np

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    if n == 1:
        return float(x[0])
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    u = (np.arange(100_000) + 0.5) / 100_000
    cdf = np.concatenate([[0.0], np.cumsum(np.exp((a - 1) * np.log(u) + (b - 1) * np.log1p(-u)))])
    cdf /= cdf[-1]
    weights = np.diff(cdf[np.rint(np.arange(n + 1) / n * 100_000).astype(int)])
    return float(weights @ x)


def _timings(rounds, pacer=None) -> dict:
    t = _op_times(rounds, pacer)
    # percentiles over the round's distinct ops: the tail is the cost of
    # the largest instances (one op alone is its own percentile)
    return {
        "ops_per_s": len(t) / sum(t),
        "op_ms_p50": 1e3 * _quantile(t, 0.5),
        "op_ms_p90": 1e3 * _quantile(t, 0.9),
    }


def _per_layer(names, totals, n_rounds, max_bits, overhead) -> dict:
    """Per-round calls and self milliseconds of each traced layer."""
    out = {}
    for name in names:
        if name == "linalg.max_bits":
            out[name] = max_bits
        elif name == "trace.overhead":
            out[name] = overhead
        elif name.endswith(".calls"):
            out[name] = totals.get(name[: -len(".calls")], [0, 0.0])[0] // n_rounds
        elif name.endswith(".self_ms"):
            out[name] = 1e3 * totals.get(name[: -len(".self_ms")], [0, 0.0])[1] / n_rounds
        else:
            raise KeyError(f"no measurement for per-layer metric {name!r}")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="abelmod benchmark: one workload, one run")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", type=float, default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    try:
        if args.setup_probe is not None:
            pacer = pace.Pacer()
            p0 = time.perf_counter()
            pacer.start()
            _setup(args.workload, args.seed)
            p1 = time.perf_counter()
            wall = time.monotonic() - args.setup_probe
            pacer.stop()
            # interpreter start-up ran before the pacer: scale it by the
            # first sample
            normalized = pacer.normalized(p0, p1) + (wall - (p1 - p0)) * pacer.speed(0)
            print(repr(normalized), repr(wall))
            return 0
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        setup = [_probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        wl = _setup(args.workload, args.seed)
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        return _fail(str(exc))

    gc.collect()
    gc.freeze()
    tally = Tally(wl)
    pacer = pace.Pacer()
    pacer.start()
    try:
        _rounds(wl, tally, 0.0, min_rounds=1)  # warm-up, checked in full, not timed
        if args.trace:
            import tracing

            half = args.seconds / 2
            plain = _rounds(wl, tally, half)
            tracer = tracing.Tracer()
            tracer.install()
            pacer.on_tick = tracer.tick
            traced = _rounds(wl, tally, half, tracer=tracer, min_rounds=1)
        else:
            rounds = _rounds(wl, tally, args.seconds)
    finally:
        pacer.stop()

    if args.trace:
        overhead = _ops_per_s(plain, pacer) / _ops_per_s(traced, pacer)
        specs = spec["per_layer"]
        values = _per_layer([m["name"] for m in specs], tracer.totals(), len(traced), tracer.max_bits, overhead)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
        raw = {}
    else:
        specs = spec["end_to_end"]
        values = _timings(rounds, pacer)
        values["setup_s"] = statistics.median(n for n, _ in setup)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        raw = _timings(rounds)
        raw["setup_s"] = statistics.median(w for _, w in setup)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, m in metrics.items():
        wall = f"   (wall {raw[name]:.6g})" if name in raw else ""
        print(f"  {name:32s} {m['value']:>14.6g} {m['unit']}{wall}")
    print(f"ops attempted {tally.attempted} failed {tally.failed} wrong {tally.wrong}")
    for note in tally.notes:
        print(f"  {note}")
    print("env " + json.dumps(_environment(), sort_keys=True))
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
