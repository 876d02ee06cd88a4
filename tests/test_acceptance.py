"""Acceptance suite: one test per criterion, at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one pass/fail line
per criterion.  Each criterion with a runtime budget asserts it.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import powmean as pm
from powmean.cli import main as cli_main
from powmean.fuzz import check_limit_slope, fuzz_duality, fuzz_map_order, fuzz_point


@contextmanager
def criterion(name):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print("\n[ACCEPTANCE] %s: FAIL (%.1fs)" % (name, time.monotonic() - start))
        raise
    print("\n[ACCEPTANCE] %s: PASS (%.1fs)" % (name, time.monotonic() - start))


# ---------------------------------------------------------------------------
# 1. compression sign table
# ---------------------------------------------------------------------------

def test_criterion_choi_sign_table(capsys):
    with criterion("choi sign table"):
        start = time.monotonic()
        rows = pm.choi_sign_table([-2.0, -0.5, 0.5, 1.5, 3.0])
        expected = [("-", "+"), ("+", "+"), ("-", "-"), ("+", "+"), ("-", "+")]
        assert [signs for _, signs in rows] == expected
        comp = pm.compression((0, 1), 3)
        for p, _ in rows:
            gap = comp.apply(pm.mat_fun(pm.CHOI_MATRIX, pm.Power(p))) - pm.mat_fun(
                comp.apply(pm.CHOI_MATRIX), pm.Power(p)
            )
            assert np.abs(np.linalg.eigvalsh(gap)).min() > 1e-12
        assert cli_main(["choi-table"]) == 0
        assert time.monotonic() - start < 1.0


# ---------------------------------------------------------------------------
# 2. sufficiency fuzz
# ---------------------------------------------------------------------------

def test_criterion_sufficiency_fuzz():
    with criterion("sufficiency fuzz"):
        start = time.monotonic()
        points = [(2.0, 2.0), (1.0, 3.0), (-3.0, -1.0), (-1.0, 1.0),
                  (0.5, 1.5), (-2.0, -0.6)]
        for i, (p, q) in enumerate(points):
            passed, worst = fuzz_point(p, q, 1000, 1000 + i, dims=(2, 3))
            assert passed, "order fuzz failed at (%g, %g): worst %.3e" % (p, q, worst)
        assert time.monotonic() - start < 30.0


# ---------------------------------------------------------------------------
# 3. counterexample coverage
# ---------------------------------------------------------------------------

def test_criterion_counterexample_coverage():
    with criterion("counterexample coverage"):
        start = time.monotonic()
        grid = [-4.0 + 0.25 * i for i in range(33)]
        points = [
            (p, q)
            for p in grid
            for q in grid
            if p <= q and not pm.in_sufficient_region(p, q)
        ]
        representatives = [
            (0.25, 1.0), (0.0, 2.0), (0.6, 0.8), (-0.5, 0.5),
            (-2.0, -0.25), (-1.0, -0.1), (-0.9, -0.7),
        ]
        for p, q in points + representatives:
            witness = pm.find_counterexample(p, q)
            assert witness.neg_eigenvalue < -1e-12, "weak witness at (%g, %g)" % (p, q)
            quad = float(
                witness.witness
                @ (
                    pm.power_mean(q, witness.a, witness.b)
                    - pm.power_mean(p, witness.a, witness.b)
                )
                @ witness.witness
            )
            assert quad == pytest.approx(witness.neg_eigenvalue, abs=1e-10)
        assert time.monotonic() - start < 120.0


# ---------------------------------------------------------------------------
# 4. coefficient closed forms vs extrapolation oracle
# ---------------------------------------------------------------------------

POWER_TUPLES = [
    (1.0, 2.0, 0.5, 0.25),
    (0.25, 1.0, 0.0625, 0.00390625),
    (-0.5, 0.5, 0.3, 0.09),
    (0.25, 0.3, 0.1, 0.01),
    (2.0, 3.0, 0.5, 0.3),
    (-0.75, 2.0, 0.4, 0.16),
    (0.3, 0.7, 0.2, 0.05),
    (1.0, 3.0, 0.6, 0.2),
    (-1.5, -0.5, 0.7, 0.2),
    (0.5, 2.5, 0.8, 0.4),
]

LOG_TUPLES = [
    (1.0, 0.01, 0.0001),
    (0.5, 0.2, 0.04),
    (2.0, 0.3, 0.6),
    (1.0, 2.0, 3.0),
    (-1.0, 2.0, 3.0),
    (0.7, 0.05, 0.3),
    (1.5, 0.4, 0.1),
    (3.0, 0.25, 0.7),
    (-0.5, 3.0, 2.0),
    (0.25, 0.15, 0.5),
]


def test_criterion_coefficient_oracle_agreement():
    with criterion("coefficient oracle agreement"):
        start = time.monotonic()
        grid = [0.1, 0.3, 0.5, 0.7, 0.9]
        for p in grid:
            for q in grid:
                closed = pm.det_coeff_rank_one(p, q)
                oracle = pm.numeric_det_coeff(
                    pm.rank_one_difference(p, q),
                    orders=pm.rank_one_remainder_orders(p, q),
                ).value
                assert abs(closed - oracle) <= 1e-4 * (1.0 + abs(closed))
        for p, q, x, y in POWER_TUPLES:
            closed = pm.det_coeff_power_pair(p, q, x, y).total
            oracle = pm.numeric_det_coeff(pm.pd_rotation_difference(p, q, x, y)).value
            assert abs(closed - oracle) <= 1e-4 * (1.0 + abs(closed))
        for q, x, y in LOG_TUPLES:
            closed = pm.det_coeff_log_pair(q, x, y).total
            oracle = pm.numeric_det_coeff(pm.pd_rotation_difference(0.0, q, x, y)).value
            assert abs(closed - oracle) <= 1e-4 * (1.0 + abs(closed))
        assert time.monotonic() - start < 30.0


def test_criterion_log_coefficient_adjudication():
    # dedicated adjudication: the implemented grouping of the log-family
    # coefficient matches the oracle; the variant grouping (extra factor 1/2
    # on the delta1 bracket) does not.
    with criterion("log coefficient adjudication"):
        for q, x, y in LOG_TUPLES[:5]:
            breakdown = pm.det_coeff_log_pair(q, x, y)
            statement = breakdown.total
            variant = 0.5 * breakdown.delta1 + breakdown.delta2
            oracle = pm.numeric_det_coeff(
                pm.pd_rotation_difference(0.0, q, x, y)
            ).value
            bound = 1e-4 * (1.0 + abs(statement))
            assert abs(statement - oracle) <= bound
            if abs(breakdown.delta1) > 1e-3:
                assert abs(variant - oracle) > 10.0 * bound


# ---------------------------------------------------------------------------
# 5. Frechet derivatives vs central finite differences
# ---------------------------------------------------------------------------

def test_criterion_frechet_vs_finite_differences():
    with criterion("frechet vs finite differences"):
        rng = np.random.default_rng(2024)
        functions = [pm.Power(2.0), pm.Power(-2.0), pm.Power(0.5),
                     pm.Power(1.0 / 3.0), pm.LOG, pm.EXP]
        for trial in range(100):
            f = functions[trial % len(functions)]
            base = pm.random_pd(2, int(rng.integers(2**63)), 8.0)
            dec = pm.eig_sym(base)
            if dec.eigenvalues[1] - dec.eigenvalues[0] < 0.05 * (1 + dec.eigenvalues[1]):
                base = base + np.diag([0.0, 0.5])
            g = rng.standard_normal((2, 2))
            h = (g + g.T) / 2.0
            d1 = pm.frechet_d1(f, base, h)
            d2 = pm.frechet_d2(f, base, h, h)
            step = 1e-5
            fd1 = (pm.mat_fun(base + step * h, f) - pm.mat_fun(base - step * h, f)) / (
                2.0 * step
            )

            def second(s):
                return (
                    pm.mat_fun(base + s * h, f)
                    - 2.0 * pm.mat_fun(base, f)
                    + pm.mat_fun(base - s * h, f)
                ) / (s * s)

            fd2 = (4.0 * second(5e-4) - second(1e-3)) / 3.0
            assert np.abs(d1 - fd1).max() <= 1e-6 * (1.0 + np.abs(d1).max())
            assert np.abs(d2 - fd2).max() <= 1e-6 * (1.0 + np.abs(d2).max())


# ---------------------------------------------------------------------------
# 6. order preservation under maps with a 2x2 domain
# ---------------------------------------------------------------------------

def test_criterion_map_order_from_2x2_domain():
    with criterion("map order from 2x2 domain"):
        # Each trial checks the order at the fixed ORDER_SLACK (1e-10) and
        # the affine route against the direct one within 1e-9 * (1 + max|direct|).
        report = fuzz_map_order(500, 66)
        assert report.passed, report.summary()


# ---------------------------------------------------------------------------
# 7. duality and the small-exponent limit
# ---------------------------------------------------------------------------

def test_criterion_duality_and_limit():
    with criterion("duality and limit"):
        report = fuzz_duality(500, 77)
        assert report.passed, report.summary()
        rng = np.random.default_rng(88)
        for _ in range(10):
            in_dim = int(rng.integers(2, 4))
            out_dim = int(rng.integers(2, 4))
            phi = pm.random_kraus_map(in_dim, out_dim, int(rng.integers(2**63)))
            a = pm.random_pd(in_dim, int(rng.integers(2**63)), 5.0)
            assert check_limit_slope(phi, a)


# ---------------------------------------------------------------------------
# 8. expansion model remainder
# ---------------------------------------------------------------------------

EXPANSION_TUPLES = [
    (3.0, 50.0, 10.0),
    (-3.0, 0.02, 0.1),
    (3.5, 30.0, 10.0),
    (-3.5, 0.02, 0.1),
    (-3.0, 0.02, 0.06),
    (4.0, 20.0, 10.0),
    (-4.0, 0.05, 0.1),
    (-2.5, 0.02, 0.1),
    (3.0, 0.03, 0.02),
    (3.0, 0.05, 0.02),
]


def test_criterion_expansion_model_remainder():
    with criterion("expansion model remainder"):
        for p, x, y in EXPANSION_TUPLES:
            coeffs = pm.alpha_power(p, x, y)
            mean_limit = ((x**p + y**p) / 2.0) ** (1.0 / p)
            ratios = []
            for t in (1e-2, 1e-3, 1e-4):
                a, b = pm.pd_rotation_pair(x, y, t)
                model = np.array(
                    [
                        [1.0 + coeffs.alpha11 * t * t, coeffs.alpha12 * t],
                        [coeffs.alpha12 * t, mean_limit + coeffs.alpha22 * t * t],
                    ]
                )
                defect = float(np.abs(pm.power_mean(p, a, b) - model).max())
                ratios.append(defect / (t * t))
            assert ratios[0] > ratios[1] > ratios[2], (p, x, y, ratios)
            assert ratios[2] <= 1e-2 * ratios[0], (p, x, y, ratios)
