"""Smoke test of the benchmark: every workload at a tiny size.

    python3 perfbench/smoke.py

For each workload it checks that an end-to-end run prints every
``end_to_end`` metric of BENCHMARK.json by name with its unit, and that two
traced runs with one seed print every ``per_layer`` metric and repeat every
count exactly.  It also checks that the benchmark exits nonzero, printing
no result, when the powmean sources are absent.  Exits 1 on any failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--quick"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def result(done: subprocess.CompletedProcess, specs: list[dict], what: str) -> dict:
    if done.returncode != 0:
        raise AssertionError("%s exited %d:\n%s" % (what, done.returncode, done.stderr))
    lines = done.stdout.splitlines()
    out = json.loads(lines[-1])
    if set(out) != {"correct", "attempted", "failed", "metrics"} or out["correct"] is not True:
        raise AssertionError("%s: bad result line %r" % (what, lines[-1]))
    if not out["attempted"] >= 1:
        raise AssertionError("%s: nothing attempted" % what)
    metrics = out["metrics"]
    if set(metrics) != {m["name"] for m in specs}:
        raise AssertionError("%s: metrics %s" % (what, sorted(set(metrics) ^ {m["name"] for m in specs})))
    printed = {tuple(line.split()[1::2]) for line in lines if line.startswith("metric ")}
    for spec in specs:
        name, unit = spec["name"], spec["unit"]
        if metrics[name]["unit"] != unit or (name, unit) not in printed:
            raise AssertionError("%s: %s not printed with unit %s" % (what, name, unit))
    return out


def exact_counts(out: dict) -> dict:
    counts = {k: m["value"] for k, m in out["metrics"].items()
              if m["unit"] in ("count", "ratio") and not k.startswith("trace.")}
    counts["attempted"], counts["failed"] = out["attempted"], out["failed"]
    return counts


def check_workload(workload: str) -> None:
    done = run(ROOT, workload, 0)
    result(done, SPEC["end_to_end"], "%s end-to-end" % workload)
    if not any(line.split()[1:2] == ["fail_share"] for line in done.stdout.splitlines()
               if line.startswith("metric ")):
        raise AssertionError("%s: fail_share not printed" % workload)
    first, second = (result(run(ROOT, workload, 1), SPEC["per_layer"], "%s traced" % workload)
                     for _ in range(2))
    a, b = exact_counts(first), exact_counts(second)
    differ = {k: (a[k], b[k]) for k in a if a[k] != b[k]}
    if differ:
        raise AssertionError("%s: counts differ between traced runs: %r" % (workload, differ))


def check_bare_checkout() -> None:
    bare = BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for source in BENCH_DIR.glob("*.py"):
        shutil.copy(source, bare / "perfbench")
    done = run(bare, "certify", 0)
    shutil.rmtree(bare)
    if done.returncode == 0 or done.stdout.strip().endswith("}"):
        raise AssertionError("a checkout without powmean did not fail cleanly")


def main() -> int:
    try:
        for name in (w["name"] for w in SPEC["workloads"]):
            check_workload(name)
            print("smoke: %s ok" % name)
        check_bare_checkout()
    except AssertionError as exc:
        print("smoke: FAIL: %s" % exc)
        return 1
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
