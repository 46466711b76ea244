"""Benchmark of f2cayley through its public API.

Run from the root of a checkout:

    python3 bench/run.py --workload trial_n9 --seed 1 --seconds 30 --trace 0

The package is imported from the checkout's own `src/`.  The run repeats the
workload's fixed batch, with inputs drawn from (seed, batch index), until
`--seconds` would be exceeded, and checks every operation's output.  With
`--trace 0` it reports the end-to-end metrics named in BENCHMARK.json; with
`--trace 1` it also replays each batch with spans around every call into a
layer and reports the per-layer metrics instead.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.  The lines
before it give the same metrics by name with their units, the share of
operations with a proved answer, the digest of the proved answers and the
run's metadata.  wall_s is the mean batch time and ops_per_s the operations
per second of batch time.  A copy of all of it, plus the spans of a traced
run, goes under `.bench_out/`.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from time import perf_counter
from typing import Dict, List, Optional

from tracing import Tracer, write_spans

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
# Cold set-ups per untraced run, timed between batches so that they sample
# the same stretch of time as the batches do.
SETUP_REPEATS = 7

# Timed in a fresh interpreter: importing the package (through the workload
# module) and building the inputs of batch 0.
_COLD_SETUP = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import workloads\n"
    "workloads.WORKLOADS[sys.argv[1]].inputs(int(sys.argv[2]), 0)\n"
    "print(time.perf_counter() - t0)\n"
)


class Checks:
    """Failed output checks, keyed by (pass, batch, op); recording never raises."""

    def __init__(self) -> None:
        self.failed: Dict[tuple, str] = {}

    def for_batch(self, pass_name: str, batch: int, n_ops: int):
        def expect(op: Optional[int], ok: bool, what: str) -> None:
            if not ok:
                for i in range(n_ops) if op is None else (op,):
                    self.failed.setdefault((pass_name, batch, i), what)
        return expect


def cold_setup_s(name: str, seed: int) -> float:
    """Seconds of one cold set-up, timed inside a fresh interpreter."""
    path = [SRC, BENCH_DIR] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", _COLD_SETUP, name, str(seed)], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def host_probe_s() -> float:
    """Seconds for a fixed pure-Python loop: how fast the machine ran just then.

    Shared machines speed up and slow down for minutes at a time; the probe at
    the start and end of a run tells a slow run on a slow machine apart from a
    slow program.  It is reported, never used to scale a metric.
    """
    t0 = perf_counter()
    x = 0
    for i in range(2_000_000):
        x += i
    return perf_counter() - t0


def git_sha() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def _guarded(expect, what: str, fn, *args):
    """Call fn; an exception counts as a failure of every op of the batch.

    Returns (True, result), or (False, None) when fn raised.
    """
    try:
        return True, fn(*args)
    except Exception:  # a failing operation must not stop the run
        traceback.print_exc(file=sys.stderr)
        expect(None, False, f"{what}: see the traceback on stderr")
        return False, None


def run_batch(w, inp, batch: int, checks: Checks, tracer=None):
    """Run and check one pass over a batch.

    Returns (output or None, wall seconds, answers or None, ops); the output
    is None when the pass or its checks raised.
    """
    n_ops = w.num_ops(inp)
    expect = checks.for_batch("plain" if tracer is None else "traced", batch, n_ops)
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        t0 = perf_counter()
        ok, out = _guarded(expect, "raised", w.run, inp, scratch, tracer)
        wall = perf_counter() - t0
        if ok:
            ok, _ = _guarded(expect, "check raised", w.check, inp, out, expect)
        if ok:
            ok, answers = _guarded(expect, "answers raised", w.answers, inp, out)
    if not ok:
        return None, wall, None, n_ops
    return out, wall, answers, n_ops


def measure(w, seed: int, seconds: float, trace: bool, setup_repeats: int = 0) -> Dict:
    """Repeat the workload's batch until the next one would overrun `seconds`.

    Also times `setup_repeats` cold set-ups: one after each of the first
    batches, the rest after the last one.
    """
    checks = Checks()
    walls: List[float] = []
    op_times: List[float] = []
    digests: List[str] = []
    layer_rows: List[Dict[str, float]] = []
    overheads: List[float] = []
    tracers: List = []
    batch_costs: List[float] = []
    setups: List[float] = []
    attempted = exact = plain_ops = 0
    start = perf_counter()
    batch = 0
    while batch == 0 or perf_counter() - start + statistics.median(batch_costs) <= seconds:
        t_batch = perf_counter()
        inp = w.inputs(seed, batch)
        out, wall, answers, n_ops = run_batch(w, inp, batch, checks)
        attempted += n_ops
        if answers is not None:
            walls.append(wall)
            plain_ops += n_ops
            op_times += w.op_times(out)
            exact += w.exact(inp, out)
            digests.append(_digest(answers))
        if trace:
            tracer = Tracer(batch)
            traced, _, traced_answers, n_ops = run_batch(w, inp, batch, checks, tracer)
            attempted += n_ops
            tracers.append(tracer)
            if answers is not None and traced_answers is not None:
                expect = checks.for_batch("traced", batch, n_ops)
                expect(None, traced_answers == answers, "traced answers equal the plain answers")
                layer_rows.append(w.layers(inp, out, wall, traced, tracer))
                core = sum(w.op_times(out)) or wall
                overheads.append(tracer.core_s() - core)
        if len(setups) < setup_repeats:
            setups.append(cold_setup_s(w.name, seed))
        batch_costs.append(perf_counter() - t_batch)
        batch += 1
    while len(setups) < setup_repeats:
        setups.append(cold_setup_s(w.name, seed))
    return {
        "batches": batch, "setups": setups, "attempted": attempted, "failed": len(checks.failed),
        "failures": checks.failed, "walls": walls, "plain_ops": plain_ops, "exact": exact,
        "op_times": op_times, "digests": digests, "layer_rows": layer_rows,
        "overheads": overheads, "tracers": tracers,
    }


def layer_means(rows: List[Dict[str, float]], names: List[str]) -> Dict[str, float]:
    """Each metric's mean over the batches that report it; 0 where none does."""
    out = {}
    for name in names:
        vals = [r[name] for r in rows if name in r]
        out[name] = statistics.fmean(vals) if vals else 0.0
    return out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "f2cayley", "__init__.py")):
        print(f"bench: no f2cayley package under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)
    import numpy
    import workloads

    if not os.path.abspath(workloads.f2.__file__).startswith(SRC + os.sep):
        print(f"bench: f2cayley was imported from {workloads.f2.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]

    probe = [host_probe_s()]
    m = measure(w, args.seed, args.seconds, bool(args.trace),
                0 if args.trace else SETUP_REPEATS)
    probe.append(host_probe_s())
    if not m["walls"]:
        print("bench: no batch completed", file=sys.stderr)
        return 1

    walls, ops = m["walls"], m["plain_ops"]
    names = [x["name"] for x in spec["per_layer" if args.trace else "end_to_end"]]
    units = {x["name"]: x["unit"] for x in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        values = layer_means(m["layer_rows"], names)
    else:
        values = {
            "setup_s": statistics.median(m["setups"]),
            # A mean, not a median: a shared machine has slow spells lasting
            # seconds to minutes; the median of a few batches jumps between
            # the fast and the slow mode, while the mean weighs each by its
            # duration.
            "wall_s": statistics.fmean(walls),
            "ops_per_s": ops / sum(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    metrics = {name: {"value": values[name], "unit": units[name]} for name in names}

    extra = {"exact_frac": [m["exact"] / ops, f"{m['exact']} of {ops} operations proved"],
             "failed_frac": [m["failed"] / m["attempted"],
                             f"{m['failed']} of {m['attempted']} operations"]}
    if m["op_times"]:
        extra["op_s_p50"] = [statistics.median(m["op_times"]), f"s over {len(m['op_times'])} operations"]
        extra["op_s_max"] = [max(m["op_times"]), f"s over {len(m['op_times'])} operations"]
    if args.trace and m["overheads"]:
        extra["trace_overhead_s"] = [statistics.fmean(m["overheads"]),
                                     "s per batch, traced minus untraced"]
    digest = _digest(m["digests"])
    meta = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(), "python": sys.version.split()[0], "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "batches": m["batches"],
        "operations": m["attempted"], "plain_operations": ops, "host_probe_s": probe,
    }
    result = {"correct": m["failed"] == 0, "attempted": m["attempted"], "failed": m["failed"],
              "metrics": metrics}

    print(f"f2cayley bench: workload {w.name}, seed {args.seed}, trace {args.trace}, "
          f"{m['batches']} batches")
    for name, v in metrics.items():
        print(f"  {name:34s} {v['value']:.6g} {v['unit']}")
    for name, (value, base) in extra.items():
        print(f"  {name:34s} {value:.6g} ({base})")
    print(f"  digest {digest} over {len(m['digests'])} batches")
    for (pass_name, batch, op), what in sorted(m["failures"].items())[:20]:
        print(f"  FAILED {pass_name} batch {batch} op {op}: {what}")
    print("meta " + json.dumps(meta, sort_keys=True))

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{w.name}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({"meta": meta, "result": result, "extra": extra, "digest": digest,
                   "batch_digests": m["digests"]}, fh, indent=1, sort_keys=True)
    if args.trace:
        write_spans(stem + "-spans.jsonl", m["tracers"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
