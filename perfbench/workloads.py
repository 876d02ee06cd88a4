"""The four benchmark workloads: seeded inputs, one operation, output checks.

``make(name, seed, quick, out_dir)`` builds a workload's seeded inputs (the
set-up the benchmark times).  The returned ``Workload`` runs operation
``i`` with ``run(i)``, which only calls powmean, and judges its output with
``check(i, output)``, which the benchmark keeps out of the timed region.
Library functions are looked up through their modules at call time, so
the span recorder in ``spans.py`` sees every call.

A failed operation (a raised ``PowerMeanError``, an unresolved pair, a
failed property) is counted with its reason.  A wrong output, such as a
witness that does not verify, raises ``WrongOutput`` and fails the run.
"""

from __future__ import annotations

import math
import os
import time
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from powmean import cli, core, counterexamples, expansions, fuzz, means, region
from powmean.errors import PowerMeanError
from powmean.functions import Power

_CERT_TOL = 1e-12
_QUAD_TOL = 1e-10
_UNIT_TOL = 1e-9
_LEMMA_GAP_BOUND = 1e-4
_DUALITY_BOUND = 1e-9


class WrongOutput(AssertionError):
    """An operation returned a result that does not check out."""


@dataclass
class Checked:
    """A checked call: ``ops`` operations and their failure reasons.  A call
    that holds many operations gives its own latency samples as (start, end,
    seconds) triples; otherwise the call's duration is the one sample."""

    ops: int = 1
    failures: list[str] = field(default_factory=list)
    latencies: list[tuple[float, float, float]] | None = None


@dataclass
class Workload:
    name: str
    op_definition: str
    run: Callable[[int], Any]
    check: Callable[[int, Any], Checked]
    warmup: Callable[[], None]
    #: Calls of ``run`` per second on a 2-core x86 box at this parent; sizes
    #: the fixed, seed-determined call count of a traced run and fixes the
    #: tail percentile.
    nominal_calls_per_s: float
    #: Latency samples per call of ``run``.
    samples_per_call: int = 1


def _sub_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence([int(seed), *map(int, key)]).generate_state(1)[0])


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, key)]))


def _warm(run: Callable[[int], Any], indices) -> None:
    for i in indices:
        try:
            run(i)
        except PowerMeanError:
            pass


def _check_close(name: str, got: float, want: float, tol: float) -> None:
    if not (math.isfinite(got) and abs(got - want) <= tol):
        raise WrongOutput("%s: %r differs from %r by more than %.1e" % (name, got, want, tol))


# ---------------------------------------------------------------------------
# scan: `powmean scan` on its default grid
# ---------------------------------------------------------------------------

_SCAN_AXIS = tuple(-2.0 + 0.5 * i for i in range(9))
_SCAN_IN_REGION = sum(region.in_sufficient_region(p, q) for p in _SCAN_AXIS for q in _SCAN_AXIS)


def _make_scan(seed: int, quick: bool, out_dir: str, meter) -> Workload:
    trials = 2 if quick else 50
    path = os.path.join(out_dir, "scan-%d.csv" % os.getpid())
    state = {"cells": [], "checks": 0, "negative": 0}
    inner_fuzz_point = cli.fuzz_point
    inner_order_margin = fuzz.order_margin

    def timed_fuzz_point(*args, **kwargs):
        # One in-region cell; its latency is spread over its order checks.
        before, spent = state["checks"], meter.spent_s
        t0 = time.perf_counter()
        out = inner_fuzz_point(*args, **kwargs)
        t1 = time.perf_counter()
        per_check = (t1 - t0 - (meter.spent_s - spent)) / max(state["checks"] - before, 1)
        state["cells"].append((t0, t1, per_check))
        return out

    def counted_order_margin(*args, **kwargs):
        margin, lam = inner_order_margin(*args, **kwargs)
        state["checks"] += 1
        state["negative"] += margin < 0.0
        # A scan call lasts seconds: sample the reference inside it.
        meter.sample()
        return margin, lam

    cli.fuzz_point = timed_fuzz_point
    fuzz.order_margin = counted_order_margin

    def argv(master: int, n: int) -> list[str]:
        return ["scan", "--trials", str(n), "--seed", str(master), "--out", path]

    def run(i: int):
        state.update(cells=[], checks=0, negative=0)
        return cli.main(argv(_sub_seed(seed, i) % 2**31, trials))

    def check(i: int, status) -> Checked:
        unresolved, cert_cells = _check_scan_csv(path, state["negative"])
        failures = ["order-check"] * state["negative"] + ["unresolved"] * unresolved
        if status != (1 if failures else 0):
            raise WrongOutput("scan exit status %r with %d failures" % (status, len(failures)))
        return Checked(state["checks"] + cert_cells, failures, state["cells"])

    def warmup() -> None:
        cli.main(argv(_sub_seed(seed, 2**20) % 2**31, 1))

    return Workload(
        "scan",
        "one order check (in-region cell x trial x dim 2 or 3) or one "
        "counterexample cell of `powmean scan` on [-2,2]^2, step 0.5, "
        "--trials %d; one scan call per %d operations"
        % (trials, 2 * trials * _SCAN_IN_REGION + len(_SCAN_AXIS) ** 2 - _SCAN_IN_REGION),
        run, check, warmup,
        nominal_calls_per_s=1.0 / 8.5,
        samples_per_call=_SCAN_IN_REGION,
    )


def _check_scan_csv(path: str, negative: int) -> tuple[int, int]:
    with open(path) as handle:
        lines = handle.read().splitlines()
    os.remove(path)
    if not lines or lines[0] != cli.CSV_HEADER:
        raise WrongOutput("scan CSV header %r" % (lines[:1],))
    rows = [line.split(",") for line in lines[1:]]
    expected = [(p, q) for p in _SCAN_AXIS for q in _SCAN_AXIS]
    if [(float(r[0]), float(r[1])) for r in rows] != expected:
        raise WrongOutput("scan rows do not cover the default grid in order")
    unresolved = cert_cells = failed_cells = 0
    for p, q, label, verdict, detail, *_ in rows:
        case = region.classify(float(p), float(q))
        if label != str(case):
            raise WrongOutput("label %r at (%s, %s), classify says %s" % (label, p, q, case))
        if case.case is region.Case.IN_REGION:
            if verdict not in ("fuzz-pass", "in-region"):
                raise WrongOutput("verdict %r on an in-region cell" % verdict)
            failed_cells += verdict == "in-region"
            continue
        cert_cells += 1
        if case.case is region.Case.SCALAR_FAIL:
            if verdict != "scalar-fail" or not float(detail) < 0.0:
                raise WrongOutput("scalar-fail row %r at (%s, %s)" % (verdict, p, q))
        elif verdict == "in-region":
            unresolved += 1
        elif verdict != "certified-counterexample" or not float(detail) < -_CERT_TOL:
            raise WrongOutput("counterexample row %r, %s at (%s, %s)" % (verdict, detail, p, q))
    if (failed_cells > 0) != (negative > 0):
        raise WrongOutput("%d failed cells but %d negative margins" % (failed_cells, negative))
    return unresolved, cert_cells


# ---------------------------------------------------------------------------
# certify: find_counterexample on a seeded sample outside the region
# ---------------------------------------------------------------------------

#: One point per cell of a 32 x 32 grid on [-3, 3]^2 each round, kept when
#: p < q and the pair lies outside the region; each round is shuffled.
#: Every kept pair is run: none is re-drawn when its search fails.
#:
#: The cost of a pair is steep in its distance to the region's edges, which
#: are the lines p, q = +-1, +-0.5, 0: pairs within ~0.04 of p = -1 or
#: q = 1 exhaust the search at ~2400 eig_sym calls against a median of 21,
#: and the top 1% of pairs do a third of the work.  With uniform jitter in
#: each cell, the share of such pairs in a run moved the work per pair by
#: up to 13% from seed to seed.  So within each cell, over each block of
#: _CERTIFY_STRATA rounds, each coordinate's offset visits every one of
#: _CERTIFY_STRATA equal strata once, in van der Corput order shifted at
#: random per cell and coordinate, so that every prefix of rounds spreads
#: its points evenly over the distances to those lines; the point is
#: uniform within its stratum.  Each point is still uniform on its cell.
#: Over eight seeds the work per pair of the first 7000 pairs then varied
#: by 4%.
_CERTIFY_GRID = 32
_CERTIFY_ROUNDS = 60
_CERTIFY_STRATA = 32
_VAN_DER_CORPUT = [int(format(r, "05b")[::-1], 2) for r in range(_CERTIFY_STRATA)]


def _certify_pairs(seed: int, rounds: int) -> list[tuple[float, float]]:
    width = 6.0 / _CERTIFY_GRID
    corners = np.arange(_CERTIFY_GRID) * width - 3.0
    shifts = _rng(seed, 1).integers(_CERTIFY_STRATA, size=(2, _CERTIFY_GRID, _CERTIFY_GRID))
    pairs = []
    for r in range(rounds):
        rng = _rng(seed, 1, r)
        stratum = (_VAN_DER_CORPUT[r % _CERTIFY_STRATA] + shifts) % _CERTIFY_STRATA
        jitter = rng.uniform(0.0, 1.0, size=stratum.shape)
        offset = (stratum + jitter) * (width / _CERTIFY_STRATA)
        points = [
            (float(corners[i] + offset[0, i, j]), float(corners[j] + offset[1, i, j]))
            for i in range(_CERTIFY_GRID)
            for j in range(_CERTIFY_GRID)
        ]
        kept = [(p, q) for p, q in points if p < q and not region.in_sufficient_region(p, q)]
        pairs.extend(kept[k] for k in rng.permutation(len(kept)))
    return pairs


def _verify_witness(p: float, q: float, w) -> None:
    """Re-verify a witness from outside, as the acceptance suite does."""
    v = np.asarray(w.witness, dtype=float)
    _check_close("witness norm", float(np.linalg.norm(v)), 1.0, _UNIT_TOL)
    if not w.neg_eigenvalue < -_CERT_TOL:
        raise WrongOutput("eigenvalue %r is not below -%g" % (w.neg_eigenvalue, _CERT_TOL))
    diff = means.power_mean(w.q, w.a, w.b) - means.power_mean(w.p, w.a, w.b)
    # The acceptance suite's absolute 1e-10, scaled by the size of M_q - M_p:
    # dual witnesses reach |M_q - M_p| ~ 3e7, where rounding alone is ~1e-8.
    tol = _QUAD_TOL * (1.0 + float(np.abs(diff).max()))
    _check_close("v^T (M_q - M_p) v", float(v @ diff @ v), w.neg_eigenvalue, tol)
    lam = float(np.linalg.eigvalsh((diff + diff.T) / 2.0)[0])
    _check_close("eigvalsh", lam, w.neg_eigenvalue, tol)
    if (w.p, w.q) != (means.normalize_exponent(p), means.normalize_exponent(q)):
        raise WrongOutput("witness is for (%r, %r), asked (%r, %r)" % (w.p, w.q, p, q))


def _make_certify(seed: int, quick: bool, out_dir: str, meter) -> Workload:
    pairs = _certify_pairs(seed, 2 if quick else _CERTIFY_ROUNDS)

    def run(i: int):
        p, q = pairs[i % len(pairs)]
        return counterexamples.find_counterexample(p, q)

    def check(i: int, witness) -> Checked:
        _verify_witness(*pairs[i % len(pairs)], witness)
        return Checked()

    def warmup() -> None:
        _warm(run, range(len(pairs) - 3, len(pairs)))

    return Workload(
        "certify",
        "one find_counterexample call on a pair p < q of [-3,3]^2 outside the "
        "region (stratified seeded sample, %d pairs, cycled)" % len(pairs),
        run, check, warmup,
        nominal_calls_per_s=400.0,
    )


# ---------------------------------------------------------------------------
# wide: order and duality checks at dims 4-8, map order at output dims 4-6
# ---------------------------------------------------------------------------

_WIDE_DIMS = (4, 5, 6, 7, 8)
_WIDE_MAP_DIMS = (4, 5, 6)
_WIDE_KINDS = (
    [("order", n) for n in _WIDE_DIMS]
    + [("duality", n) for n in _WIDE_DIMS]
    + [("map-order", n) for n in _WIDE_MAP_DIMS]
)
_WIDE_POOL_CYCLES = 40


def _region_pair(rng: np.random.Generator) -> tuple[float, float]:
    """A pair drawn from one of the six pieces of the region."""
    piece = int(rng.integers(6))
    if piece == 0:
        v = float(rng.uniform(-4.0, 4.0))
        return v, v
    if piece == 1:
        p = float(rng.uniform(1.0, 3.5))
        return p, float(rng.uniform(p + 0.1, 4.0))
    if piece == 2:
        q = float(rng.uniform(-3.5, -1.0))
        return float(rng.uniform(-4.0, q - 0.1)), q
    if piece == 3:
        return float(rng.uniform(-4.0, -1.0)), float(rng.uniform(1.0, 4.0))
    if piece == 4:
        return float(rng.uniform(0.5, 0.99)), float(rng.uniform(1.0, 4.0))
    return float(rng.uniform(-4.0, -1.0)), float(rng.uniform(-0.99, -0.5))


def _wide_inputs(seed: int, cycles: int) -> list[tuple]:
    inputs = []
    for c in range(cycles):
        rng = _rng(seed, 2, c)
        for kind, n in _WIDE_KINDS:
            sub = int(rng.integers(2**63))
            if kind == "order":
                inputs.append((kind, n, sub, _region_pair(rng)))
            elif kind == "duality":
                p = 0.0 if rng.integers(8) == 0 else float(rng.uniform(-3.0, 3.0))
                a = core.random_pd(n, sub, 10.0)
                b = core.random_pd(n, int(rng.integers(2**63)), 10.0)
                inputs.append((kind, n, p, (a, b)))
            else:
                inputs.append((kind, n, sub, None))
    return inputs


def _make_wide(seed: int, quick: bool, out_dir: str, meter) -> Workload:
    inputs = _wide_inputs(seed, 2 if quick else _WIDE_POOL_CYCLES)
    inverse = Power(-1.0)

    def run(i: int):
        kind, n, arg, data = inputs[i % len(inputs)]
        if kind == "order":
            p, q = data
            return fuzz.fuzz_point(p, q, 1, arg, dims=(n,))
        if kind == "map-order":
            return fuzz.fuzz_map_order(1, arg, dims=(n,))
        a, b = data
        left = core.mat_fun(means.power_mean(arg, a, b), inverse)
        right = means.power_mean(-arg, core.mat_fun(a, inverse), core.mat_fun(b, inverse))
        return left, right

    def check(i: int, out) -> Checked:
        kind, n, arg, data = inputs[i % len(inputs)]
        if kind == "order":
            passed, worst = out
            if not math.isfinite(worst):
                raise WrongOutput("order check at dim %d returned %r" % (n, worst))
            return Checked(failures=[] if passed else ["order-check"])
        if kind == "map-order":
            if out.trials != 1 or not math.isfinite(out.worst):
                raise WrongOutput("map-order report %r" % (out,))
            return Checked(failures=[] if out.passed else ["map-order"])
        left, right = out
        if left.shape != (n, n) or right.shape != (n, n):
            raise WrongOutput("duality shapes %r, %r at dim %d" % (left.shape, right.shape, n))
        gap = float(np.abs(left - right).max())
        ok = gap <= _DUALITY_BOUND * (1.0 + float(np.abs(left).max()))
        return Checked(failures=[] if ok else ["duality"])

    def warmup() -> None:
        _warm(run, range(len(inputs) - len(_WIDE_KINDS), len(inputs)))

    return Workload(
        "wide",
        "one order check (fuzz_point, dims 4-8), one inversion-duality check "
        "(dims 4-8, p = 0 one time in 8) or one fuzz_map_order trial (2x2 "
        "domain, output dims 4-6), in a fixed cycle of %d kinds" % len(_WIDE_KINDS),
        run, check, warmup,
        nominal_calls_per_s=50.0,
    )


# ---------------------------------------------------------------------------
# lemma: closed-form t^2 coefficients against the extrapolation oracle
# ---------------------------------------------------------------------------

_LEMMA_POOL = 3000


#: Largest max(|p|, |q|) * |log y| among the acceptance suite's coefficient
#: tuples (q = 1, y = 1e-4).  Beyond it the default angle sequence is too
#: coarse for the extrapolation oracle, which then raises
#: NonConvergenceError by design rather than disagreeing with the lemma.
_LEMMA_STIFFNESS = 9.3


def _lemma_params(seed: int, count: int) -> list[tuple]:
    """Seeded parameters over the acceptance suite's ranges, three families
    in turn.  x and y stay below 1 so the expansion frames never degenerate
    (x^r + y^r = 2 or xy = 1 needs x or y >= 1)."""
    rng = _rng(seed, 3)
    params = []
    while len(params) < count:
        family = len(params) % 3
        if family == 0:
            p, q = rng.uniform(0.1, 0.9, size=2)
            params.append(("rank-one", float(p), float(q), None, None))
            continue
        x = float(np.exp(rng.uniform(math.log(0.01), math.log(0.8))))
        y = float(x ** rng.uniform(1.2, 2.0))
        if family == 1:
            p = float(rng.uniform(-1.5, 2.0))
            q = float(rng.uniform(p + 0.05, 3.0))
        else:
            p, q = 0.0, float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 3.0))
        if max(abs(p), abs(q)) * -math.log(y) <= _LEMMA_STIFFNESS:
            params.append(("pd-rotation" if family == 1 else "log-euclidean", p, q, x, y))
    return params


def _make_lemma(seed: int, quick: bool, out_dir: str, meter) -> Workload:
    params = _lemma_params(seed, 30 if quick else _LEMMA_POOL)

    def run(i: int):
        family, p, q, x, y = params[i % len(params)]
        if family == "rank-one":
            closed = expansions.det_coeff_rank_one(p, q)
            oracle = expansions.numeric_det_coeff(
                counterexamples.rank_one_difference(p, q),
                orders=expansions.rank_one_remainder_orders(p, q),
            )
        elif family == "pd-rotation":
            closed = expansions.det_coeff_power_pair(p, q, x, y).total
            oracle = expansions.numeric_det_coeff(counterexamples.pd_rotation_difference(p, q, x, y))
        else:
            closed = expansions.det_coeff_log_pair(q, x, y).total
            oracle = expansions.numeric_det_coeff(counterexamples.pd_rotation_difference(0.0, q, x, y))
        return closed, oracle.value

    def check(i: int, out) -> Checked:
        family = params[i % len(params)][0]
        closed, oracle = out
        if not (math.isfinite(closed) and math.isfinite(oracle)):
            raise WrongOutput("non-finite coefficient %r / %r" % out)
        if family == "rank-one" and closed > 0.0:
            raise WrongOutput("rank-one coefficient %r is positive" % closed)
        ok = abs(closed - oracle) <= _LEMMA_GAP_BOUND * (1.0 + abs(closed))
        return Checked(failures=[] if ok else ["lemma-gap"])

    def warmup() -> None:
        _warm(run, range(len(params) - 3, len(params)))

    return Workload(
        "lemma",
        "one closed-form det_coeff_* value checked against numeric_det_coeff "
        "(rank-one, pd-rotation, log-euclidean in turn)",
        run, check, warmup,
        nominal_calls_per_s=320.0,
    )


_MAKERS = {"scan": _make_scan, "certify": _make_certify, "wide": _make_wide, "lemma": _make_lemma}


def make(name: str, seed: int, quick: bool, out_dir: str, meter) -> Workload:
    """Build workload ``name``'s seeded inputs and return it.

    ``meter`` is the run's ``speed.Speedometer``; a workload whose calls
    last long samples it inside them.
    """
    warnings.filterwarnings(
        "ignore", message="counterexample search approached its schedule cap"
    )
    return _MAKERS[name](seed, quick, out_dir, meter)
