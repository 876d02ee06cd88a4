"""Seeded randomized property suites backing the CLI fuzz command.

Each suite draws deterministic samples from a numpy generator and returns a
small report; all randomness is explicit, so reruns with one seed are
byte-identical.

Every order check, here and in ``scan``, is one :func:`order_margin` call on
its gap D = M_q - M_p, which :func:`~powmean.means._gap` builds exactly
symmetric from the means' sums.  The suites decompose their matrices by
``eig_sym``; :func:`fuzz_point` takes its draws as stacked decompositions,
and its roots' decompositions are stacked too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (ORDER_SLACK, SpectralDecomposition, _min_eigenvalue, _order_verdict,
                   _random_pd_spectra, eig_sym, mat_fun, random_pd, spectral_fun)
from .errors import NonConvergenceError, PowerMeanError
from .functions import Power
from .maps import apply_power_affine_2x2, random_kraus_map
from .means import _gap, _limit_deviations, _map_sum, _power_sums, power_mean
from .region import in_sufficient_region

_SPREADS = (2.0, 5.0, 10.0)
_LIMIT_PS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)


@dataclass
class FuzzReport:
    name: str
    trials: int
    failures: int = 0
    worst: float = float("inf")
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def record(self, margin: float, note: str) -> None:
        self.worst = min(self.worst, margin)
        if margin < 0.0:
            self.fail(note)

    def fail(self, note: str) -> None:
        """Count a failed check that has no margin to report."""
        self.failures += 1
        if len(self.notes) < 10:
            self.notes.append(note)

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        lines = [
            "%s: %s (%d trials, %d failures, worst margin %.3e)"
            % (self.name, status, self.trials, self.failures, self.worst)
        ]
        lines.extend("  " + n for n in self.notes)
        return "\n".join(lines)


def _spawn(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, key)]))


def order_margin(d):
    """Margin and raw smallest eigenvalue of the order check on D = M_q - M_p.

    The margin is lambda_min(D) + ORDER_SLACK * (1 + max|D|), the rule of
    :func:`~powmean.core.loewner_leq` with the fixed
    :data:`~powmean.core.ORDER_SLACK`: nonnegative iff it passes.  It reads
    lambda_min and max|D| from the eigenvalue-only kernel
    :func:`~powmean.core._min_eigenvalue` and validates nothing; where that
    kernel defers (D non-finite or huge, or rescaled), the full verdict gives
    the same bits or error.
    """
    done = _min_eigenvalue(d)
    if done is None:
        verdict = _order_verdict(d)
        return verdict.margin, verdict.min_eigenvalue
    lam, top = done
    return lam + ORDER_SLACK * (1.0 + top), lam


def _drawn_decomposition(vals, bases):
    """One stacked :class:`~powmean.core.SpectralDecomposition` of the drawn
    spectra: each row of ``vals`` sorted ascending (a stable sort), the
    columns of its basis moved with it."""
    order = np.argsort(vals, axis=1, kind="stable")
    return SpectralDecomposition(np.take_along_axis(vals, order, axis=1),
                                 np.take_along_axis(bases, order[:, None, :], axis=2))


def fuzz_point(p: float, q: float, trials: int, seed: int, dims=(2, 3)):
    """Random-pair order check at a fixed exponent pair.

    Returns (passed, worst raw min-eigenvalue) over ``trials`` seeded pairs
    per dimension; a pair passes iff its :func:`order_margin` is >= 0.  Each
    dimension draws all its spreads, then all its spectra, from the one cell
    generator; both matrices of a trial share its spread.  No matrix is
    built, validated or decomposed before the means, and their powers, sums,
    roots and gaps are taken for all trials of a dimension at once: row i
    has the bits of trial i alone, its roots at n >= 3 decomposed as a
    stack's row is, by LAPACK's ``eigh`` (see
    :func:`~powmean.core._decompose`).  A stage of a stack raises its first
    failing row, so when one raises (or a floating-point warning would be
    issued) the dimension runs again trial by trial, raising or warning as
    that loop does.  That rerun decomposes each root alone, by the
    single-matrix solver, so where a stage only warns its results equal the
    stacked route's within rounding, not bit for bit.  A
    ``NonConvergenceError`` of a stacked ``eigh`` is raised, not rerun: the
    rerun's other solver would hide it.
    """
    rng = _spawn(seed, 0)
    passed, worst = True, float("inf")
    for dim in dims:
        spreads = np.repeat(np.take(_SPREADS, rng.integers(len(_SPREADS), size=trials)), 2)
        vals, bases = _drawn_decomposition(*_random_pd_spectra(rng, dim, spreads))
        dec_a = SpectralDecomposition(vals[0::2], bases[0::2])
        dec_b = SpectralDecomposition(vals[1::2], bases[1::2])
        # The sums run ahead of the roots: an overflow there must not warn
        # before an earlier trial's root raises, and a non-finite sum still
        # raises at its own root, by _decompose's guard.
        with np.errstate(over="ignore", invalid="ignore"):
            s_q, s_p = _power_sums(p, q, dec_a, dec_b)
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                gaps = _gap(p, q, s_q, lambda: s_p)
        except NonConvergenceError:
            raise
        except (PowerMeanError, FloatingPointError):
            gaps = map(lambda s_q, s_p: _gap(p, q, s_q, lambda: s_p), s_q, s_p)
        for d in gaps:
            margin, lam = order_margin(d)
            worst = min(worst, lam)
            passed &= margin >= 0.0
    return passed, worst


def _sample_region_point(rng: np.random.Generator) -> tuple[float, float]:
    branch = int(rng.integers(6))
    if branch == 0:
        v = float(rng.uniform(-4.0, 4.0))
        return v, v
    if branch == 1:
        p = float(rng.uniform(1.0, 3.5))
        return p, float(rng.uniform(p + 0.1, 4.0))
    if branch == 2:
        q = float(rng.uniform(-3.5, -1.0))
        return float(rng.uniform(-4.0, q - 0.1)), q
    if branch == 3:
        return float(rng.uniform(-4.0, -1.0)), float(rng.uniform(1.0, 4.0))
    if branch == 4:
        return float(rng.uniform(0.5, 0.99)), float(rng.uniform(1.0, 4.0))
    return float(rng.uniform(-4.0, -1.0)), float(rng.uniform(-0.99, -0.5))


def fuzz_region(trials: int, seed: int) -> FuzzReport:
    """Order inequality on random in-region exponent pairs and PD pairs."""
    rng = _spawn(seed, 1)
    report = FuzzReport("region", trials)
    for _ in range(trials):
        p, q = _sample_region_point(rng)
        assert in_sufficient_region(p, q)
        dim = int(rng.integers(2, 4))
        spread = _SPREADS[int(rng.integers(len(_SPREADS)))]
        a = random_pd(dim, int(rng.integers(2**63)), spread)
        b = random_pd(dim, int(rng.integers(2**63)), spread)
        s_q, s_p = _power_sums(p, q, eig_sym(a), eig_sym(b))
        margin, lam = order_margin(_gap(p, q, s_q, lambda: s_p))
        report.record(margin, "(p=%g, q=%g, dim=%d): min eig %.3e" % (p, q, dim, lam))
    return report


def _sample_exponent_pair(rng: np.random.Generator) -> tuple[float, float]:
    while True:
        u = float(rng.uniform(-3.0, 3.0))
        v = float(rng.uniform(-3.0, 3.0))
        p, q = min(u, v), max(u, v)
        if q - p > 1e-6:
            return p, q


def fuzz_map_order(trials: int, seed: int, dims=(2, 3, 4)) -> FuzzReport:
    """Order preservation under random unital CP maps with a 2x2 domain.

    For every unital positive map with 2-dimensional domain the inequality
    phi(A^p)^(1/p) <= phi(A^q)^(1/q) holds for all p <= q, judged by
    :func:`order_margin` on the gap of the map sums phi(f(A)); the affine
    fast path for phi(A^p) must also match the direct route.  ``worst`` is
    the smallest order margin; an affine mismatch counts only as a failure.
    """
    rng = _spawn(seed, 2)
    report = FuzzReport("map-order", trials)
    for _ in range(trials):
        out_dim = int(dims[int(rng.integers(len(dims)))])
        phi = random_kraus_map(2, out_dim, int(rng.integers(2**63)))
        a = random_pd(2, int(rng.integers(2**63)), 10.0)
        p, q = _sample_exponent_pair(rng)
        # One decomposition of A serves both map sums and the direct route;
        # random_kraus_map returns only maps kraus_map checked as unital.
        dec = eig_sym(a)
        s_q, s_p = _map_sum(phi, q, dec), _map_sum(phi, p, dec)
        margin, lam = order_margin(_gap(p, q, s_q, lambda: s_p))
        report.record(margin, "order (p=%g, q=%g, n=%d): min eig %.3e" % (p, q, out_dim, lam))
        direct = phi.apply(spectral_fun(dec, Power(p)))
        affine = apply_power_affine_2x2(phi, p, a)
        gap = float(np.abs(affine - direct).max())
        if gap > 1e-9 * (1.0 + float(np.abs(direct).max())):
            report.fail("affine route gap %.3e at p=%g" % (gap, p))
    return report


def fuzz_duality(trials: int, seed: int) -> FuzzReport:
    """Inversion duality M_p(A, B)^-1 = M_{-p}(A^-1, B^-1), all exponents."""
    rng = _spawn(seed, 3)
    report = FuzzReport("duality", trials)
    for _ in range(trials):
        dim = int(rng.integers(2, 4))
        a = random_pd(dim, int(rng.integers(2**63)), 10.0)
        b = random_pd(dim, int(rng.integers(2**63)), 10.0)
        p = float(rng.uniform(-3.0, 3.0))
        if rng.integers(8) == 0:
            p = 0.0
        left = mat_fun(power_mean(p, a, b), Power(-1.0))
        right = power_mean(-p, mat_fun(a, Power(-1.0)), mat_fun(b, Power(-1.0)))
        gap = float(np.abs(left - right).max())
        bound = 1e-9 * (1.0 + float(np.abs(left).max()))
        report.record(bound - gap, "duality gap %.3e at p=%g" % (gap, p))
    return report


def check_limit_slope(phi, a) -> bool:
    """Monitor the p -> 0 limit along p = 1e-2, ..., 1e-6: deviations shrink
    and deviation/p stays bounded.

    Evaluating phi(A^p)^(1/p) in doubles carries an absolute error floor of
    order eps/p (the final 1/p power amplifies input rounding), so both
    checks allow an additive floor proportional to (1 + |limit|) * eps / p;
    the slope bound itself is read off the largest, floor-free exponent.
    """
    ps = np.array(_LIMIT_PS)
    base, devs = _limit_deviations(phi, a, ps)
    floors = 2e-13 * (1.0 + float(np.abs(base).max())) / ps
    slope = devs[0] / ps[0]
    decreasing = bool(np.all(devs[1:] <= devs[:-1] + floors[1:]))
    bounded = bool(np.all(devs <= (2.0 * slope + 1e-6) * ps + floors))
    return decreasing and bounded


def fuzz_limit(trials: int, seed: int) -> FuzzReport:
    """Small-exponent limit behaviour over random maps and matrices."""
    rng = _spawn(seed, 4)
    report = FuzzReport("limit", trials)
    for _ in range(trials):
        in_dim = int(rng.integers(2, 4))
        out_dim = int(rng.integers(2, 4))
        phi = random_kraus_map(in_dim, out_dim, int(rng.integers(2**63)))
        a = random_pd(in_dim, int(rng.integers(2**63)), 5.0)
        ok = check_limit_slope(phi, a)
        report.record(
            1.0 if ok else -1.0,
            "limit monitoring failed for %s on input dim %d" % (phi.tag, in_dim),
        )
    return report


FUZZ_TARGETS = {
    "region": fuzz_region,
    "map-order": fuzz_map_order,
    "duality": fuzz_duality,
    "limit": fuzz_limit,
}
