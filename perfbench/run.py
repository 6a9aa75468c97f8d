"""Run one chardeg benchmark workload and print its metrics.

    python3 perfbench/run.py --workload mult-bound --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; chardeg is imported from its `src/`.
The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics with `--trace 1`.  The lines before it say what ran and
list any wrong answer.  `--smoke` runs every workload once on tiny inputs in
both modes and checks the output schema against BENCHMARK.json.

End-to-end metrics (tracing off).  Times are scaled to a nominal host
speed by SpeedProbe, which times a fixed kernel between and during
requests; the unscaled figures are printed on the lines above the result.
  wall_s, cpu_s   one pass over the workload's requests: the sum over
                  requests of each request's median time across rounds
  setup_s         median over fresh processes of importing chardeg and
                  realizing the workload's specs, each scaled by a fixed
                  reference set-up in a fresh process
  peak_rss_mb     peak resident memory of the benchmark process
  req_p50_s       median request latency
  req_tail_s      the highest percentile with ten requests beyond it (the
                  11th slowest request) among the requests of the
                  workload's first min_rounds rounds
                  With fewer than 100 such requests, both are taken over
                  the per-request medians: their median and their maximum.
The share of requests with a wrong answer or exit code is `failed` over
`attempted`; it is printed as error_rate.
"""

from __future__ import annotations

import argparse
import bisect
import ctypes
import gc
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
HARD_STOP_S = 120  # start no round after this, so a run ends well inside 180 s
SETUP_REPEATS = 7
PROBE_STEPS = 2000
PROBE_NOMINAL_S = 0.008  # about the kernel's time on a quiet 2-vCPU VM
PROBE_EVERY_S = 0.5
PROBE_WINDOW_S = 1.0
try:  # glibc: hand the heap's free pages back to the OS
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (OSError, AttributeError):
    _malloc_trim = lambda pad: 0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "req_p50_s": "s",
    "req_tail_s": "s",
}

# Self times (s) of the spans in tracer.TARGETS partition each request's wall
# time; smallgroups.enumerate_s alone is inclusive.  Values are per round.
PER_LAYER = {
    "catalog.realize_s": "s",
    "groups.closure_s": "s",
    "groups.closure_mults": "count",
    "groups.exponent_s": "s",
    "groups.exponent_mults": "count",
    "degrees.classes_s": "s",
    "degrees.classes_mults": "count",
    "degrees.class_count": "count",
    "degrees.modulus_s": "s",
    "degrees.class_matrix_s": "s",
    "degrees.class_matrix_mults": "count",
    "degrees.class_matrices_built": "count",
    "degrees.split_s": "s",
    "smallgroups.enumerate_s": "s",
    "smallgroups.search_s": "s",
    "smallgroups.raw_tables": "count",
    "smallgroups.classes_kept": "count",
    "smallgroups.kept_per_raw": "ratio",
    "smallgroups.iso_calls": "count",
    "smallgroups.iso_s": "s",
    "smallgroups.fingerprint_s": "s",
    "solver.report_s": "s",
    "solver.verify_witness_s": "s",
    "solver.scan_s": "s",
    "solver.verify_minimal_s": "s",
    "solver.anomalies": "count",
    "arith.call_s": "s",
    "arith.calls": "count",
    "cache.lookup_s": "s",
    "cache.store_s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
}

SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import chardeg.cli
from chardeg.catalog import parse_spec, realize
for spec in sys.argv[2:]:
    realize(parse_spec(spec))
print(time.perf_counter() - t0)
"""


# A fixed set-up that does not involve chardeg: numpy and a few stdlib packages.
REFERENCE_SETUP_CODE = """\
import time
t0 = time.perf_counter()
import argparse, decimal, email.message, json, numpy, xml.dom.minidom
print(time.perf_counter() - t0)
"""
REFERENCE_SETUP_NOMINAL_S = 0.13  # about its time on a quiet 2-vCPU VM


def isolate_environment() -> int:
    """Cap native thread pools at nproc and drop CHARDEG_* settings."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    for var in [k for k in os.environ if k.startswith("CHARDEG_")]:
        del os.environ[var]
    return nproc


def measure_setup(specs, repeats: int) -> float:
    """Median set-up time of fresh processes, each scaled to nominal host
    speed by a reference process timed right after it.  Set-up is mostly
    imports and shared-library loading, which drift with the host apart from
    compute speed: on a 2-vCPU VM, medians of seven raw set-ups moved by 25%
    within minutes while their ratio to the reference held within 5%."""
    scaled = []
    for _ in range(repeats):
        setup_s, reference_s = (
            float(subprocess.run(
                [sys.executable, "-c", code, str(SRC), *specs],
                capture_output=True, text=True, timeout=60, check=True,
            ).stdout.split()[-1])
            for code in (SETUP_CODE, REFERENCE_SETUP_CODE)
        )
        scaled.append(setup_s * REFERENCE_SETUP_NOMINAL_S / reference_s)
    return statistics.median(scaled)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []


class SpeedProbe:
    """Tracks how fast the host runs with a fixed kernel that composes
    permutation tuples and hashes them into a set, as the engine does.  On a
    shared host both slow down together (over a minute on a 2-vCPU VM, engine
    time varied 2x while its ratio to this kernel varied 4%), so scaling a
    request by the probe times around it removes the host's drift, while any
    change in chardeg's own cost still shows in full.  The host's speed also
    flickers by about 10% from one probe to the next, so a request is scaled
    by the mean of every probe within PROBE_WINDOW_S of it."""

    def __init__(self):
        rng = random.Random(0)
        self.perms = [tuple(rng.sample(range(64), 64)) for _ in range(40)]
        self.stamps: list[float] = []  # when each probe ended
        self.times: list[float] = []

    def kernel(self) -> float:
        t0 = time.perf_counter()
        seen, x = set(), self.perms[0]
        for i in range(PROBE_STEPS):
            x = tuple(x[j] for j in self.perms[i % 40])
            seen.add(x)
        return time.perf_counter() - t0

    def __enter__(self):
        """Also probe every PROBE_EVERY_S while an untraced request runs, so a
        request of several seconds is scaled by the host's speed during it, not
        only at its ends.  The probes' own wall and CPU time is added up in
        `stolen` and left out of the request's time."""
        self.stolen = [0.0, 0.0]
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        return False

    def _tick(self, *_):
        t0, c0 = time.perf_counter(), time.process_time()
        self.probe()
        self.stolen[0] += time.perf_counter() - t0
        self.stolen[1] += time.process_time() - c0

    def probe(self):
        self.times.append(statistics.median(self.kernel() for _ in range(3)))
        self.stamps.append(time.perf_counter())

    def due(self) -> bool:
        return time.perf_counter() - self.stamps[-1] >= PROBE_EVERY_S

    def scale(self, t0: float, t1: float) -> float:
        """Factor to nominal speed for work done from t0 to t1, using the
        probes within the window and at least the nearest one on each side."""
        lo = bisect.bisect_left(self.stamps, t0 - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.stamps, t1 + PROBE_WINDOW_S)
        lo = min(lo, max(bisect.bisect_right(self.stamps, t0) - 1, 0))
        hi = max(hi, bisect.bisect_left(self.stamps, t1) + 1)
        return PROBE_NOMINAL_S / statistics.mean(self.times[lo:hi])


def run_round(workload, rng, workdir, tally, probe, tracer=None):
    """Send each request of the workload once, probing the host's speed
    between them, and during them when untraced; return
    (key, wall, cpu, start, end) rows."""
    rows = []
    probe.probe()
    for req in workload.make_round(rng, workdir, tracer):
        # Free the last request's garbage and heap pages first, so peak_rss_mb
        # follows the largest request, not the order the seed drew: a heap left
        # fragmented by frob:2^8:17 raised psl2:37's peak by 10 MB.
        gc.collect()
        _malloc_trim(0)
        arg = req.prepare()
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                with probe:
                    result = req.call(arg)
                wall = time.perf_counter() - t0 - probe.stolen[0]
                c0 += probe.stolen[1]
            else:
                result, wall = tracer.request(req.call, arg)
            cpu = time.process_time() - c0
            problem = req.check(result)
        except Exception as exc:  # a request that raises is a wrong answer
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            problem = f"raised {type(exc).__name__}: {exc}"
        tally.attempted += 1
        if problem:
            tally.failures.append(f"{req.key}: {problem}")
        rows.append((req.key, wall, cpu, t0, time.perf_counter()))
        arg = result = None
        if probe.due():
            probe.probe()
    probe.probe()
    return rows


def more_rounds(done: int, min_rounds: int, started: float, round_s: list, seconds: float):
    elapsed = time.perf_counter() - started
    if done == 0:
        return True
    if elapsed > HARD_STOP_S:
        return False
    return done < min_rounds or elapsed + statistics.mean(round_s) <= seconds


def latency(samples, first_rounds, key_medians) -> tuple[float, float, str]:
    """(req_p50_s, req_tail_s, how they were taken).  The tail is the highest
    percentile with ten requests beyond it, i.e. the 11th slowest request of
    the first min_rounds rounds only, so that the sample count, and which
    request the percentile lands on, do not depend on how many rounds fit in
    --seconds.  Fewer than 100 such requests have no such tail and too few
    samples for a steady median, so the run reports the median and the
    slowest of the per-request medians instead."""
    n = len(first_rounds)
    if n >= 100:
        how = (f"p50 of {len(samples)} requests, "
               f"tail p{100 * (1 - 10 / n):.1f} of the first {n} (11th slowest)")
        return statistics.median(samples), sorted(first_rounds)[-11], how
    how = f"median and slowest of {len(key_medians)} per-request medians"
    return statistics.median(key_medians), max(key_medians), how


def end_to_end(workload, rng, workdir, seconds, tally, setup_repeats, lines):
    setup_s = measure_setup(workload.setup_specs, setup_repeats)
    probe = SpeedProbe()
    rounds, round_s = [], []
    started = time.perf_counter()
    while more_rounds(len(round_s), workload.min_rounds, started, round_s, seconds):
        t0 = time.perf_counter()
        rounds.append(run_round(workload, rng, workdir, tally, probe))
        round_s.append(time.perf_counter() - t0)
    walls, cpus, raw = defaultdict(list), defaultdict(list), defaultdict(list)
    first_rounds = []  # scaled walls of the first min_rounds rounds, for the tail
    for i, rows in enumerate(rounds):
        for key, wall, cpu, t0, t1 in rows:
            scale = probe.scale(t0, t1)
            walls[key].append(wall * scale)
            cpus[key].append(cpu * scale)
            raw[key].append(wall)
            if i < workload.min_rounds:
                first_rounds.append(wall * scale)
    samples = [w for v in walls.values() for w in v]
    key_medians = [statistics.median(v) for v in walls.values()]
    p50_s, tail_s, how = latency(samples, first_rounds, key_medians)
    lines.append(f"rounds {len(round_s)}, round wall s {[round(t, 3) for t in round_s]}")
    lines.append(
        f"unscaled wall_s {sum(statistics.median(v) for v in raw.values()):.4f}; "
        f"probe s min {min(probe.times):.4f} median {statistics.median(probe.times):.4f} "
        f"max {max(probe.times):.4f}"
    )
    lines.append(f"req_p50_s and req_tail_s: {how}")
    return {
        "wall_s": sum(key_medians),
        "cpu_s": sum(statistics.median(v) for v in cpus.values()),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "req_p50_s": p50_s,
        "req_tail_s": tail_s,
    }


def per_layer(workload, rng, workdir, seconds, tally, lines):
    """Alternate untraced and traced rounds; report per-round layer figures."""
    from tracer import Tracer

    tr, probe = Tracer(), SpeedProbe()
    plain_rows, traced_rows, pair_s = [], [], []
    started = time.perf_counter()
    while more_rounds(len(pair_s), 1, started, pair_s, seconds):
        t0 = time.perf_counter()
        plain_rows.append(run_round(workload, rng, workdir, tally, probe))
        with tr:
            traced_rows.append(run_round(workload, rng, workdir, tally, probe, tr))
        pair_s.append(time.perf_counter() - t0)
    # round walls, scaled to nominal speed
    plain, traced = (
        [sum(w * probe.scale(t0, t1) for _, w, _, t0, t1 in r) for r in rounds]
        for rounds in (plain_rows, traced_rows)
    )
    k = len(traced)
    st, counts = tr.stats, tr.counts

    def per_round(v):
        v /= k
        return int(v) if float(v).is_integer() else v

    kept, raw = counts["smallgroups.classes_kept"], st["smallgroups.fingerprint"].calls
    metrics = {
        "catalog.realize_s": st["catalog.realize"].self_s,
        "groups.closure_s": st["groups.closure"].self_s,
        "groups.closure_mults": st["groups.closure"].self_mults,
        "groups.exponent_s": st["groups.exponent"].self_s,
        "groups.exponent_mults": st["groups.exponent"].self_mults,
        "degrees.classes_s": st["degrees.classes"].self_s,
        "degrees.classes_mults": st["degrees.classes"].self_mults,
        "degrees.class_count": counts["degrees.class_count"],
        "degrees.modulus_s": st["degrees.modulus"].self_s,
        "degrees.class_matrix_s": st["degrees.class_matrix"].self_s,
        "degrees.class_matrix_mults": st["degrees.class_matrix"].self_mults,
        "degrees.class_matrices_built": st["degrees.class_matrix"].calls,
        "degrees.split_s": st["degrees.split"].self_s,
        "smallgroups.enumerate_s": st["smallgroups.enumerate"].incl_s,
        "smallgroups.search_s": st["smallgroups.enumerate"].self_s,
        "smallgroups.raw_tables": raw,
        "smallgroups.classes_kept": kept,
        "smallgroups.iso_calls": st["smallgroups.iso"].calls,
        "smallgroups.iso_s": st["smallgroups.iso"].self_s,
        "smallgroups.fingerprint_s": st["smallgroups.fingerprint"].self_s,
        "solver.report_s": st["solver.report"].self_s,
        "solver.verify_witness_s": st["solver.verify_witness"].self_s,
        "solver.scan_s": st["solver.scan"].self_s,
        "solver.verify_minimal_s": st["solver.verify_minimal"].self_s,
        "solver.anomalies": counts["solver.anomalies"],
        "arith.call_s": st["arith.call"].self_s,
        "arith.calls": st["arith.call"].calls,
        "cache.lookup_s": st["cache.lookup"].self_s,
        "cache.store_s": st["cache.store"].self_s,
        "cache.hits": counts["cache.hits"],
        "cache.misses": counts["cache.misses"],
        "cli.self_s": st["cli.run"].self_s,
        "trace.wall_s": tr.request_wall,
        "trace.unaccounted_s": tr.unaccounted,
    }
    metrics = {name: per_round(v) for name, v in metrics.items()}
    metrics["smallgroups.kept_per_raw"] = kept / raw if raw else 0
    metrics["trace.overhead_s"] = statistics.mean(traced) - statistics.mean(plain)

    lines.append(f"traced rounds {k}; scaled round wall s untraced {[round(t, 3) for t in plain]}, "
                 f"traced {[round(t, 3) for t in traced]}")
    wall = metrics["trace.wall_s"]
    shares = sorted(
        ((v, name) for name, v in metrics.items()
         if name.endswith("_s") and not name.startswith("trace.") and name != "smallgroups.enumerate_s"),
        reverse=True,
    )
    for v, name in shares[:6]:
        if v > 0:
            lines.append(f"self time {name} {v:.4f} s = {100 * v / wall:.1f}% of traced wall")
    lines.append(f"unaccounted {metrics['trace.unaccounted_s']:.4f} s of traced wall {wall:.4f} s")
    if tr.missing:
        lines.append(f"trace targets not found (their time counts to callers): {sorted(tr.missing)}")
    return metrics


def measure(workload, seed, seconds, trace, setup_repeats=SETUP_REPEATS):
    """Run one workload; return (result object, human-readable lines)."""
    rng = random.Random(seed)
    tally = Tally()
    lines = [f"inputs {s}" for s in workload.sizes]
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    os.environ["CHARDEG_CACHE_DIR"] = os.path.join(workdir, "default-cache")
    try:
        if trace:
            values = per_layer(workload, rng, workdir, seconds, tally, lines)
            units = PER_LAYER
        else:
            values = end_to_end(workload, rng, workdir, seconds, tally, setup_repeats, lines)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    failed = len(tally.failures)
    lines += [f"WRONG {f}" for f in tally.failures[:20]]
    lines += [f"recorded anomaly (expected): {a}" for a in sorted(workload.notes)]
    lines.append(f"error_rate {failed}/{tally.attempted}")
    result = {
        "correct": failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return result, lines


def smoke(workloads) -> int:
    """Every workload on tiny inputs, both modes; check schema and answers."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(workloads.NAMES):
        problems.append("BENCHMARK.json workloads differ from workloads.NAMES")
    for name in workloads.NAMES:
        for trace in (0, 1):
            result, lines = measure(workloads.build(name, smoke=True), 0, 0, trace, 1)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{name} trace {trace}: keys {sorted(result)}")
            if got != want[trace]:
                problems.append(f"{name} trace {trace}: metrics differ from BENCHMARK.json")
            if not result["correct"]:
                problems.append(f"{name} trace {trace}: {lines}")
            print(f"smoke {name} trace {trace}: attempted {result['attempted']}, "
                  f"failed {result['failed']}")
    for p in problems:
        print(f"SMOKE FAILED {p}", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "chardeg" / "__init__.py").is_file():
        print(f"perfbench: no chardeg sources at {SRC}", file=sys.stderr)
        return 2
    nproc = isolate_environment()
    sys.path.insert(0, str(SRC))
    import chardeg
    import numpy

    if Path(chardeg.__file__).resolve().parent != SRC / "chardeg":
        print(f"perfbench: imported chardeg from {chardeg.__file__}", file=sys.stderr)
        return 2
    import workloads

    if args.smoke:
        return smoke(workloads)
    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)}")
    result, lines = measure(workloads.build(args.workload), args.seed, args.seconds, args.trace)
    print(
        f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace} "
        f"nproc {nproc} python {platform.python_version()} numpy {numpy.__version__}"
    )
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
