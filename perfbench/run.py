"""powmean benchmark: one workload per run, end to end or traced per layer.

    python3 perfbench/run.py --workload certify --seed 7 --seconds 25 --trace 0

Run from anywhere; the benchmark imports powmean from ``src/`` next to
this directory and nothing else.  Each run is a single-process,
single-threaded closed loop: the next operation starts when the previous
one has returned.  ``--trace 0`` runs operations for ``--seconds`` seconds,
timing only the calls into powmean, and prints the end-to-end metrics;
``attempted``, ``failed`` and ``fail_share`` count a fixed, seed-determined
batch of its first calls, so that they repeat exactly for one seed.
``--trace 1`` runs a fixed number of operations, set by ``--seconds`` and
not by a clock, twice, untraced then traced, and prints the per-layer
metrics with the tracing overhead.  Human-readable lines come first; the
last line of standard output is one JSON object.  A wrong output prints
``"correct": false`` and exits with status 1.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, here and in every set-up probe this spawns.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("scan", "certify", "wide", "lemma")
#: Set-up probes, half before the loop and half after it, so that one slow
#: spell of the host does not hold all of them.
SETUP_PROBES = 7
#: A traced run does the calls of this share of --seconds at the nominal
#: rate twice, untraced and traced, so that it lasts about --seconds.
TRACE_SHARE = 0.25
#: An end-to-end run counts the operations and failures of its first calls,
#: this share of --seconds at the nominal rate, and runs until both these
#: calls are done and --seconds have passed.  The count of a clock-bound run
#: would change with the host's speed, and the failures with it.
BATCH_SHARE = 0.5
TAIL_SAMPLES_ABOVE = 10
#: The ladder stops at p95: on certify, p99 and above fall between search
#: plateaus that move from seed to seed (the eig_sym count per pair at p99
#: ranged 250-880 over eight seeds, at p95 it was 98 on all of them).
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0)
#: Failure reasons grouped for the per-layer counts; any other
#: PowerMeanError is ``other_error`` and anything that is not an exception
#: name (a failed property) is ``property``.
FAILURE_GROUPS = {
    "SearchExhaustedError": "search_exhausted",
    "unresolved": "search_exhausted",
    "DomainError": "domain",
}


def _import_powmean():
    """Import powmean from ``src/`` beside the benchmark, or exit with 1."""
    if not (SRC_DIR / "powmean" / "__init__.py").is_file():
        raise SystemExit("powmean sources not found at %s" % SRC_DIR)
    sys.path.insert(0, str(SRC_DIR))
    import powmean

    if Path(powmean.__file__).resolve().parent != SRC_DIR / "powmean":
        raise SystemExit("powmean imported from %s, not %s" % (powmean.__file__, SRC_DIR))
    return powmean


def _setup_probe(args) -> None:
    """Time the import of powmean and the building of the seeded inputs."""
    t0 = time.perf_counter()
    _import_powmean()
    import speed
    import workloads

    workloads.make(args.workload, args.seed, args.quick, str(OUT_DIR), speed.Speedometer(False))
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def _measure_setup(args, probes: int) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.quick:
        cmd.append("--quick")
    samples = []
    for _ in range(probes):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise SystemExit("set-up probe failed:\n%s" % done.stderr)
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples


class Loop:
    """Closed loop over a workload's operations, with its tallies."""

    def __init__(self, workload, meter, recorder=None, batch_calls=0):
        from powmean.errors import PowerMeanError
        from workloads import Checked

        self._error, self._checked = PowerMeanError, Checked
        self.workload = workload
        self.meter = meter
        self.recorder = recorder
        self.calls = 0
        self.ops = 0
        self.failures: Counter = Counter()
        #: Operations and failures of the first ``batch_calls`` calls.
        self.batch_calls = batch_calls
        self.batch_ops = 0
        self.batch_failures: Counter = Counter()
        #: (start, end, seconds in powmean) per call and per latency sample.
        self.steps: list[tuple[float, float, float]] = []
        self.latencies: list[tuple[float, float, float]] = []

    def step(self) -> None:
        i = self.calls
        rec, meter = self.recorder, self.meter
        if rec is not None:
            rec.op_id = i
            rec.active = True
        units, spent = meter.units, meter.spent_s
        t0 = time.perf_counter()
        try:
            out = self.workload.run(i)
            error = None
        except self._error as exc:
            error = type(exc).__name__
        t1 = time.perf_counter()
        elapsed = t1 - t0 - (meter.spent_s - spent)
        if rec is not None:
            rec.active = False
        checked = self._checked(failures=[error]) if error else self.workload.check(i, out)
        meter.sample_for(elapsed, meter.units - units)
        self.calls += 1
        self.ops += checked.ops
        self.failures.update(checked.failures)
        if self.calls <= self.batch_calls:
            self.batch_ops += checked.ops
            self.batch_failures.update(checked.failures)
        self.steps.append((t0, t1, elapsed))
        if checked.latencies is None:
            self.latencies.append((t0, t1, elapsed))
        else:
            self.latencies.extend(checked.latencies)

    def run_for(self, seconds: float) -> "Loop":
        deadline = time.perf_counter() + seconds
        while self.calls < self.batch_calls or time.perf_counter() < deadline:
            self.step()
        return self

    def run_calls(self, calls: int) -> "Loop":
        while self.calls < calls:
            self.step()
        return self

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def batch_failed(self) -> int:
        return sum(self.batch_failures.values())

    @property
    def busy_s(self) -> float:
        return sum(s[2] for s in self.steps)

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.busy_s


def _nominal_calls(workload, seconds: float, share: float) -> int:
    """Calls that last ``share`` of ``seconds`` at the workload's nominal
    rate: set by the seed's workload and the arguments, never by a clock."""
    return max(1, round(workload.nominal_calls_per_s * seconds * share))


def _tail_percentile(nominal: float, samples: int) -> float:
    """The highest ladder percentile with at least ten samples above it.

    It is chosen from twice that many samples at the workload's nominal
    rate, so that it stays the same from run to run, and on a faster
    program, unless a run makes fewer than half its nominal samples.
    """
    fitting = [p for p in TAIL_LADDER
               if min(nominal / 2.0, samples) * (100.0 - p) / 100.0 >= TAIL_SAMPLES_ABOVE]
    return fitting[-1] if fitting else TAIL_LADDER[0]


def _end_to_end(loop: Loop, setup: list[float], seconds: float):
    """The end-to-end metrics and notes on what they rest on.

    Times are scaled to the reference's nominal speed (see ``speed.py``);
    the notes give them as measured too.  The set-up probes run in processes
    of their own, just before and after the loop, so set-up time is scaled
    by the loop's overall speed factor.
    """
    import numpy as np

    steps, lat = np.asarray(loop.steps), np.asarray(loop.latencies)
    busy = steps[:, 2] * loop.meter.factors(steps[:, 0], steps[:, 1])
    raw_ms = lat[:, 2] * 1e3
    lat_ms = raw_ms * loop.meter.factors(lat[:, 0], lat[:, 1])
    workload = loop.workload
    nominal = workload.nominal_calls_per_s * workload.samples_per_call * seconds
    tail_p = _tail_percentile(nominal, lat_ms.size)
    fail_share = loop.batch_failed / loop.batch_ops
    factor = float(busy.sum()) / loop.busy_s
    metrics = {
        "setup_s": (statistics.median(setup) * factor, "s"),
        "ops_per_s": (loop.ops / float(busy.sum()), "1/s"),
        "op_ms_p50": (float(np.median(lat_ms)), "ms"),
        "op_ms_tail": (float(np.percentile(lat_ms, tail_p)), "ms"),
        "ok_share": (1.0 - fail_share, "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {
        "fail_share": (fail_share, "share"),
        "batch.calls": (loop.batch_calls, "count"),
        "batch.ops": (loop.batch_ops, "count"),
        "batch.failed": (loop.batch_failed, "count"),
        "run.failed": (loop.failed, "count"),
        "speed_factor": (factor, "ratio"),
        "setup_s.measured": (statistics.median(setup), "s"),
        "ops_per_s.measured": (loop.ops_per_s, "1/s"),
        "op_ms_p50.measured": (float(np.median(raw_ms)), "ms"),
        "op_ms_tail.measured": (float(np.percentile(raw_ms, tail_p)), "ms"),
        "op_ms_tail.percentile": (tail_p, "%"),
        "op_ms_tail.samples": (int(lat_ms.size), "count"),
        "setup_s.samples": (len(setup), "count"),
    }
    return metrics, notes


def _per_layer(recorder, ref: Loop, traced: Loop):
    metrics = recorder.layer_metrics(traced.ops)
    metrics["trace.ops_per_s.untraced"] = (ref.ops_per_s, "1/s")
    metrics["trace.ops_per_s.traced"] = (traced.ops_per_s, "1/s")
    metrics["trace.overhead"] = (ref.ops_per_s / traced.ops_per_s, "ratio")
    groups = Counter()
    for reason, n in traced.failures.items():
        if reason in FAILURE_GROUPS:
            groups[FAILURE_GROUPS[reason]] += n
        elif reason.endswith("Error"):
            groups["other_error"] += n
        else:
            groups["property"] += n
    for group in ("search_exhausted", "domain", "other_error", "property"):
        metrics["ops.failed." + group] = (groups[group], "count")
    return metrics


def _print_result(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs, for the smoke test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.setup_probe:
        _setup_probe(args)
        return 0

    powmean = _import_powmean()
    OUT_DIR.mkdir(exist_ok=True)
    setup = [] if args.trace else _measure_setup(args, SETUP_PROBES // 2)
    import numpy as np
    import spans
    import speed
    import workloads

    recorder = None
    if args.trace:
        recorder = spans.SpanRecorder()
        recorder.install()
    # Traced runs report measured times only: no reference samples in spans.
    meter = speed.Speedometer(enabled=not args.trace)
    workload = workloads.make(args.workload, args.seed, args.quick, str(OUT_DIR), meter)
    workload.warmup()
    speed.reference_unit()  # its first call pays one-off costs

    correct = True
    batch = 0 if args.trace else _nominal_calls(workload, args.seconds, BATCH_SHARE)
    loop = Loop(workload, meter, batch_calls=batch)
    try:
        if args.trace:
            calls = _nominal_calls(workload, args.seconds, TRACE_SHARE)
            ref = loop.run_calls(calls)
            loop = Loop(workload, meter, recorder).run_calls(calls)
            metrics = _per_layer(recorder, ref, loop)
            notes = {"trace.calls": (calls, "count"), "trace.spans": (len(recorder.names), "count")}
            recorder.write(str(OUT_DIR / ("spans-%s-%d.npz" % (args.workload, args.seed))))
        else:
            loop.run_for(args.seconds)
            setup += _measure_setup(args, SETUP_PROBES - len(setup))
            metrics, notes = _end_to_end(loop, setup, args.seconds)
    except workloads.WrongOutput as exc:
        print("WRONG OUTPUT in %s: %s" % (args.workload, exc), file=sys.stderr)
        correct = False
        metrics, notes = {}, {}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": "traced" if args.trace else "end-to-end",
        "op_definition": workload.op_definition,
        "operations": loop.ops,
        "calls": loop.calls,
        "counted_calls": loop.batch_calls or loop.calls,
        "busy_s": loop.busy_s,
        "failures": dict(sorted(loop.failures.items())),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "powmean": powmean.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }
    print("run_record " + json.dumps(record))
    for name, (value, unit) in {**metrics, **notes}.items():
        print("metric %-40s %.6g %s" % (name, value, unit))
    if args.trace:
        _print_result(correct, loop.ops, loop.failed, metrics)
    else:
        _print_result(correct, loop.batch_ops, loop.batch_failed, metrics)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
