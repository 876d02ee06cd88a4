"""Divided differences, Frechet derivatives, expansion and determinant
coefficients, and the Richardson extrapolation oracle.

Oracles: closed-form difference quotients, central finite differences, and
the det/theta^2 extrapolation; each closed form is checked against at least
one route that does not share its code path.
"""

import hashlib
import math
import random

import numpy as np
import pytest

from powmean import (
    DegenerateFrameError,
    DomainError,
    EXP,
    LOG,
    NonConvergenceError,
    Power,
    PowerMeanError,
    PreconditionError,
    alpha_log,
    alpha_power,
    det_coeff_log_pair,
    det_coeff_power_pair,
    det_coeff_rank_one,
    divided_diff_1,
    divided_diff_2,
    frechet_d1,
    frechet_d2,
    mat_fun,
    numeric_det_coeff,
    pd_rotation_difference,
    pd_rotation_pair,
    power_mean,
    random_pd,
    rank_one_difference,
    rank_one_remainder_orders,
)
from powmean import core

from conftest import count_calls, sym_rand


# ---------------------------------------------------------------------------
# divided differences
# ---------------------------------------------------------------------------

def test_dd1_square_is_sum():
    f = Power(2.0)
    assert divided_diff_1(f, 3.0, 5.0) == pytest.approx(8.0)


def test_dd1_confluent_is_derivative():
    f = Power(0.5)
    assert divided_diff_1(f, 4.0, 4.0) == pytest.approx(0.5 * 4.0 ** (-0.5))
    assert divided_diff_1(LOG, 2.0, 2.0) == pytest.approx(0.5)
    assert divided_diff_1(EXP, 1.0, 1.0) == pytest.approx(math.e)


def test_dd1_symmetric():
    f = Power(1.0 / 3.0)
    assert divided_diff_1(f, 2.0, 7.0) == divided_diff_1(f, 7.0, 2.0)


def test_dd2_square_is_one():
    f = Power(2.0)
    assert divided_diff_2(f, 1.0, 4.0, 9.0) == pytest.approx(1.0)
    assert divided_diff_2(f, 3.0, 3.0, 3.0) == pytest.approx(1.0)


@pytest.mark.parametrize("t", [0.5, 3.0])
@pytest.mark.parametrize("p", [0.25, -0.5, 2.0])
def test_dd2_double_node_closed_form(p, t):
    # f = x^(1/p):  f[2,2,t] = ((1/p - 1) 2^(1/p) - (1/p) 2^(1/p-1) t + t^(1/p)) / (2-t)^2
    f = Power(1.0 / p)
    expected = (
        (1.0 / p - 1.0) * 2.0 ** (1.0 / p)
        - (1.0 / p) * 2.0 ** (1.0 / p - 1.0) * t
        + t ** (1.0 / p)
    ) / (2.0 - t) ** 2
    assert divided_diff_2(f, 2.0, 2.0, t) == pytest.approx(expected, rel=1e-12)


def test_dd2_permutation_invariant():
    f = LOG
    nodes = (0.5, 2.0, 7.0)
    base = divided_diff_2(f, *nodes)
    import itertools

    for perm in itertools.permutations(nodes):
        assert abs(divided_diff_2(f, *perm) - base) <= 1e-12 * (1.0 + abs(base))


def test_dd2_triple_confluent_is_half_second_derivative():
    assert divided_diff_2(EXP, 2.0, 2.0, 2.0) == pytest.approx(0.5 * math.exp(2.0))


def test_dd_domain_errors():
    with pytest.raises(DomainError):
        divided_diff_1(LOG, -1.0, 2.0)
    with pytest.raises(DomainError):
        divided_diff_2(Power(-1.0), 0.0, 1.0, 2.0)


# ---------------------------------------------------------------------------
# Frechet derivatives
# ---------------------------------------------------------------------------

def test_frechet_d1_square_closed_form(rng):
    base = sym_rand(rng, 3)
    h = sym_rand(rng, 3)
    expected = base @ h + h @ base
    assert np.abs(frechet_d1(Power(2.0), base, h) - expected).max() <= 1e-10


def test_frechet_d1_diagonal_base_offdiagonal_direction():
    # the derivative is the Schur product with the divided-difference matrix
    p = 0.25
    s = 0.75
    base = np.diag([2.0, s])
    h = np.array([[0.0, 0.6], [0.6, 0.0]])
    f = Power(1.0 / p)
    out = frechet_d1(f, base, h)
    slope = (f(2.0) - f(s)) / (2.0 - s)
    assert out[0, 0] == pytest.approx(0.0, abs=1e-14)
    assert out[1, 1] == pytest.approx(0.0, abs=1e-14)
    assert out[0, 1] == pytest.approx(slope * 0.6, rel=1e-12)


def test_frechet_d2_square_closed_form(rng):
    base = sym_rand(rng, 2)
    h = sym_rand(rng, 2)
    k = sym_rand(rng, 2)
    expected = h @ k + k @ h
    assert np.abs(frechet_d2(Power(2.0), base, h, k) - expected).max() <= 1e-10


def test_frechet_d2_symmetric_bilinear(rng):
    base = random_pd(3, 91, 5.0)
    h = sym_rand(rng, 3)
    k = sym_rand(rng, 3)
    lhs = frechet_d2(LOG, base, h, k)
    rhs = frechet_d2(LOG, base, k, h)
    assert np.abs(lhs - rhs).max() <= 1e-11


def _fd1(f, base, h, step=1e-5):
    return (mat_fun(base + step * h, f) - mat_fun(base - step * h, f)) / (2.0 * step)


def _fd2(f, base, h, step=1e-3):
    def second(s):
        return (
            mat_fun(base + s * h, f) - 2.0 * mat_fun(base, f) + mat_fun(base - s * h, f)
        ) / (s * s)

    return (4.0 * second(step / 2.0) - second(step)) / 3.0


@pytest.mark.parametrize("f", [Power(0.5), Power(-1.0), LOG, EXP])
def test_frechet_vs_finite_difference(f, rng):
    base = random_pd(2, int(rng.integers(2**63)), 6.0) + np.diag([0.0, 0.4])
    h = sym_rand(rng, 2)
    d1 = frechet_d1(f, base, h)
    d2 = frechet_d2(f, base, h, h)
    assert np.abs(d1 - _fd1(f, base, h)).max() <= 1e-6 * (1.0 + np.abs(d1).max())
    assert np.abs(d2 - _fd2(f, base, h)).max() <= 1e-6 * (1.0 + np.abs(d2).max())


# ---------------------------------------------------------------------------
# expansion coefficients
# ---------------------------------------------------------------------------

def test_frames_degenerate_hypotheses():
    with pytest.raises(DegenerateFrameError):
        alpha_power(0.5, 1.0, 1.0)  # x^p + y^p = 2
    with pytest.raises(DegenerateFrameError):
        alpha_log(2.0, 0.5)  # x * y = 1
    with pytest.raises(PreconditionError):
        alpha_power(0.0, 2.0, 3.0)


def test_alpha_power_vanishes_at_unit_y():
    coeffs = alpha_power(0.3, 2.0, 1.0)
    assert coeffs.alpha11 == pytest.approx(0.0, abs=1e-14)
    assert coeffs.alpha12 == pytest.approx(0.0, abs=1e-14)


def _frechet_alphas(f, base, first, second):
    """alpha11, alpha12, alpha22 of f((base + t first + t^2 second) / 2) by
    the Daleckii-Krein route: the t and t^2 coefficients of its Taylor series."""
    half = base / 2.0
    slope = frechet_d1(f, half, first / 2.0)
    curve = frechet_d1(f, half, second / 2.0) + 0.5 * frechet_d2(f, half, first / 2.0,
                                                                  first / 2.0)
    return float(curve[0, 0]), float(slope[0, 1]), float(curve[1, 1])


def test_alpha_power_closed_forms_match_frechet_route():
    # A^p + B_t^p = diag(2, x^p + y^p) + t [[0, h], [h, 0]] + t^2 diag(-h, h)
    # + o(t^2) with h = 1 - y^p; log A + log B_t is the same with
    # diag(0, log xy) and h = -log y, under EXP instead of Power(1/p).
    cases = []
    for p, x, y in [(1.0, 2.0, 3.0), (0.25, 0.5, 0.25), (-0.5, 0.3, 0.09),
                    (3.0, 0.05, 0.02), (-3.5, 0.02, 0.1)]:
        h = 1.0 - y**p
        frame = (Power(1.0 / p), np.diag([2.0, x**p + y**p]),
                 np.array([[0.0, h], [h, 0.0]]), np.diag([-h, h]))
        cases.append((alpha_power(p, x, y), frame))
    for x, y in [(0.3, 0.8), (math.e**2, math.e**-1), (0.05, 0.02)]:
        h = -math.log(y)
        frame = (EXP, np.diag([0.0, math.log(x * y)]),
                 np.array([[0.0, h], [h, 0.0]]), np.diag([-h, h]))
        cases.append((alpha_log(x, y), frame))
    for coeffs, frame in cases:
        closed = (coeffs.alpha11, coeffs.alpha12, coeffs.alpha22)
        for value, reference in zip(closed, _frechet_alphas(*frame)):
            assert abs(value - reference) <= 1e-12 * (1.0 + abs(reference))


def test_alpha_makes_no_decomposition(monkeypatch):
    eigs = count_calls(monkeypatch, core.eig_sym)
    alpha_power(3.0, 0.05, 0.02)
    alpha_log(0.3, 0.8)
    assert eigs == []


def test_alpha_model_matches_direct_mean_to_second_order():
    p, x, y = 1.0, 2.0, 3.0
    coeffs = alpha_power(p, x, y)
    mean_limit = ((x**p + y**p) / 2.0) ** (1.0 / p)
    t = 1e-3
    a, b = pd_rotation_pair(x, y, t)
    model = np.array(
        [
            [1.0 + coeffs.alpha11 * t * t, coeffs.alpha12 * t],
            [coeffs.alpha12 * t, mean_limit + coeffs.alpha22 * t * t],
        ]
    )
    defect = np.abs(power_mean(p, a, b) - model).max()
    assert defect <= 1e-8  # o(t^2): well below t^2 = 1e-6


def test_alpha_model_defect_ratio_shrinks_with_angle():
    p, x, y = 0.25, 0.5, 0.25
    coeffs = alpha_power(p, x, y)
    mean_limit = ((x**p + y**p) / 2.0) ** (1.0 / p)
    ratios = []
    for t in (1e-2, 1e-3, 1e-4):
        a, b = pd_rotation_pair(x, y, t)
        model = np.array(
            [
                [1.0 + coeffs.alpha11 * t * t, coeffs.alpha12 * t],
                [coeffs.alpha12 * t, mean_limit + coeffs.alpha22 * t * t],
            ]
        )
        ratios.append(float(np.abs(power_mean(p, a, b) - model).max()) / (t * t))
    assert ratios[0] > ratios[1] > ratios[2]


def test_alpha_log_equal_arguments():
    x = 0.25
    coeffs = alpha_log(x, x)
    assert coeffs.alpha12 == pytest.approx((1.0 - x) / 2.0, rel=1e-12)


def test_alpha_log_is_small_exponent_limit_of_alpha_power():
    x, y = 0.3, 0.8
    lim = alpha_power(1e-6, x, y)
    log_coeffs = alpha_log(x, y)
    assert log_coeffs.alpha11 == pytest.approx(lim.alpha11, rel=1e-3)
    assert log_coeffs.alpha12 == pytest.approx(lim.alpha12, rel=1e-3)
    assert log_coeffs.alpha22 == pytest.approx(lim.alpha22, rel=1e-3)


# ---------------------------------------------------------------------------
# determinant coefficients
# ---------------------------------------------------------------------------

def test_power_pair_coefficient_vanishes_at_equal_exponents():
    out = det_coeff_power_pair(0.7, 0.7, 0.5, 0.2)
    assert out.total == pytest.approx(0.0, abs=1e-14)
    assert out.total == out.delta1 + out.delta2


def test_power_pair_coefficient_vanishes_at_unit_y():
    out = det_coeff_power_pair(0.25, 1.5, 0.5, 1.0)
    assert out.total == pytest.approx(0.0, abs=1e-14)


def test_power_pair_negative_for_small_x():
    out = det_coeff_power_pair(0.25, 1.0, 0.01, 0.0001)
    assert out.total < 0.0
    assert out.wp == pytest.approx(1.0 - ((0.01**0.25 + 0.0001**0.25) / 2.0) ** 4.0)


def test_power_pair_degenerate_hypotheses():
    with pytest.raises(DegenerateFrameError):
        det_coeff_power_pair(0.5, 1.0, 1.0, 1.0)


def test_log_pair_negative_for_small_x():
    out = det_coeff_log_pair(1.0, 0.01, 0.0001)
    assert out.total < 0.0
    assert out.wp == pytest.approx(1.0 - math.sqrt(0.01 * 0.0001))


def test_log_pair_rejects_reciprocal_arguments():
    with pytest.raises(DegenerateFrameError):
        det_coeff_log_pair(1.0, 4.0, 0.25)


#: (q, x, d) -> det_coeff_log_pair(q, x, (1 + d) / x).total, from a 60-digit
#: mpmath evaluation of the same closed form on the same floats.
_LOG_PAIR_NEAR_XY_ONE = {
    (1.5, 3.0, 1.5e-3): 0.0043367641392842819,
    (1.5, 3.0, -2e-3): 0.0043536384456065802,
    (-2.0, 0.1, 1.5e-3): 0.037342538865019705,
    (0.5, 10.0, -5e-3): -0.20559100541720236,
    (-0.5, 0.01, 2e-3): -1.0132889602872425,
    (2.5, 0.25, -1.5e-3): 0.12413434743634658,
}


@pytest.mark.parametrize("q,x,d", sorted(_LOG_PAIR_NEAR_XY_ONE))
def test_log_pair_keeps_its_digits_near_xy_one(q, x, d):
    got = det_coeff_log_pair(q, x, (1.0 + d) / x).total
    assert got == pytest.approx(_LOG_PAIR_NEAR_XY_ONE[q, x, d], rel=1e-6)


@pytest.mark.parametrize("d", [1.5e-7, 1e-6, 1e-5, 1e-4, 5e-4, -5e-4])
def test_log_pair_rejects_xy_where_digits_are_lost(d):
    # Against 60 digits the value here was off by 0.86, 2.6e-2, 1.7e-4,
    # 2.4e-6 and 1.1e-7 relative at d = 1.5e-7 ... 5e-4.
    with pytest.raises(DegenerateFrameError, match="x \\* y is too close to 1"):
        det_coeff_log_pair(1.5, 3.0, (1.0 + d) / 3.0)


def test_log_pair_is_small_exponent_limit():
    # x^r - 1 from expm1 and m_r from log1p keep their digits as r -> 0, so
    # the power coefficient meets the log one at first order in r (the gap
    # is about 7 |r| relative at each r here)
    for r in (1e-6, -1e-6, 1e-9, -1e-9, 1e-12, -1e-12):
        for q, x, y in [(1.0, 0.01, 0.0001), (0.5, 0.2, 0.04), (2.0, 0.3, 0.6)]:
            lim = det_coeff_power_pair(r, q, x, y).total
            log_val = det_coeff_log_pair(q, x, y).total
            assert abs(lim - log_val) <= 10.0 * abs(r) * abs(log_val)


def test_power_pair_evaluates_at_a_walk_point_near_zero():
    # An absolute guard |x^r + y^r - 2| <= 1e-7 rejected this walk point;
    # its gap to the log coefficient is about 12 r relative.
    got = det_coeff_power_pair(1e-8, 2.0, 2.0**-4, 2.0**-8).total
    log_val = det_coeff_log_pair(2.0, 2.0**-4, 2.0**-8).total
    assert abs(got - log_val) <= 2e-7 * abs(log_val)


@pytest.mark.parametrize("r", [1e-150, -1e-150, 1e-300, -1e-300])
def test_power_pair_meets_the_log_limit_at_tiny_exponents(r):
    # r (x^r + y^r - 2) is about 8e-300 at |r| = 1e-150, a normal float, and
    # underflows to 0 at 1e-300, where c_r is formed from two quotients
    # instead; either way the terms meet the log limit to rounding.
    got = det_coeff_power_pair(r, 2.0, 2.0**-4, 2.0**-8).total
    log_val = det_coeff_log_pair(2.0, 2.0**-4, 2.0**-8).total
    assert abs(got - log_val) <= 1e-12 * abs(log_val)


def _coeff_words(fn, *args):
    """float.hex words of a breakdown, or the error's type and message.
    Adding 0.0 folds the sign of a zero, which nothing reads."""
    try:
        out = fn(*args)
    except PowerMeanError as exc:
        return ["%s:%s" % (type(exc).__name__, exc)]
    return [float.hex(v + 0.0) for v in (out.delta1, out.delta2, out.wp, out.wq)]


def _coeff_pin_words(group):
    """Every coefficient of one pinned input group, as words."""
    words = []
    if group.startswith("walk"):
        # The counterexample walk's x = 2^-k, y = 4^-k, exponents on a grid.
        grid = [0.5 * i for i in range(-6, 7)]
        for k in range(4, 41):
            x, y = 2.0**-k, 4.0**-k
            for q in grid:
                if group == "walk-log":
                    words += _coeff_words(det_coeff_log_pair, q, x, y)
                    continue
                for p in grid:
                    words += _coeff_words(det_coeff_power_pair, p, q, x, y)
        return words
    rng = random.Random(9)
    for _ in range(2000):
        p, q = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
        x, y = math.exp(rng.uniform(-7.0, 7.0)), math.exp(rng.uniform(-7.0, 7.0))
        words += _coeff_words(det_coeff_power_pair, p, q, x, y)
        words += _coeff_words(det_coeff_log_pair, q, x, y)
    return words


# sha256 (first 32 hex digits) of the words above, recorded from the
# per-family closed forms the shared terms replaced.  "random" was
# re-recorded when the log guard widened to |log xy| <= 1e-3: its one
# input inside (|log xy| = 9.5e-4) now raises DegenerateFrameError; and
# again when x^r - 1 near x^r = 1 came from expm1 and m_r for
# |x^r + y^r - 2| < 1 from log1p (median error against 60 digits 2.77e-15
# -> 2.53e-15).  No walk input takes those routes, so the walk pins held.
_COEFF_PINS = {
    "walk-power": "e63d6ff95e384f03ee18ffadf6eec6f1",
    "walk-log": "9ca93b51c3a998c5ff801b1a633d9db8",
    "random": "0b2f72df6681084be4c2a537fe936263",
}


@pytest.mark.parametrize("group", sorted(_COEFF_PINS))
def test_det_coeff_values_pinned(group):
    words = " ".join(_coeff_pin_words(group))
    assert hashlib.sha256(words.encode()).hexdigest()[:32] == _COEFF_PINS[group]


@pytest.mark.parametrize("fn,args,error,message", [
    (det_coeff_power_pair, (0.0, 1.0, 0.5, 0.25), PreconditionError,
     "power frame needs a nonzero exponent"),
    (det_coeff_power_pair, (1.0, 0.0, 0.5, 0.25), PreconditionError,
     "power frame needs a nonzero exponent"),
    (det_coeff_log_pair, (0.0, 0.5, 0.25), PreconditionError,
     "power frame needs a nonzero exponent"),
    (det_coeff_power_pair, (1.0, 2.0, 0.0, 0.25), PreconditionError,
     "x and y must be positive"),
    (det_coeff_power_pair, (1.0, 2.0, 0.5, -0.25), PreconditionError,
     "x and y must be positive"),
    (det_coeff_log_pair, (1.0, -0.5, 0.25), PreconditionError,
     "x and y must be positive"),
    (det_coeff_log_pair, (1.0, 4.0, 0.25), DegenerateFrameError,
     "x * y is too close to 1"),
    (det_coeff_power_pair, (0.5, 1.0, 1.0, 1.0), DegenerateFrameError,
     "x^p + y^p is too close to 2"),
    (det_coeff_power_pair, (2.0, 1.0, 1.5, 0.5), DegenerateFrameError,
     "x^p + y^p is too close to 2"),
    (det_coeff_log_pair, (1.0, 1.5, 0.5), DegenerateFrameError,
     "x^p + y^p is too close to 2"),
    # error order: the first exponent's frame, then the second's
    (det_coeff_power_pair, (0.5, 0.0, -1.0, 0.25), PreconditionError,
     "x and y must be positive"),
    (det_coeff_power_pair, (0.0, 0.5, -1.0, 0.25), PreconditionError,
     "power frame needs a nonzero exponent"),
    (det_coeff_power_pair, (1.0, 0.0, 1.5, 0.5), DegenerateFrameError,
     "x^p + y^p is too close to 2"),
    (det_coeff_log_pair, (0.0, 4.0, 0.25), DegenerateFrameError,
     "x * y is too close to 1"),
    (det_coeff_log_pair, (0.0, -4.0, 0.25), PreconditionError,
     "x and y must be positive"),
    # powers and products beyond the float range
    (det_coeff_log_pair, (-1e308, 0.5, 0.25), PreconditionError,
     "a power of x or y leaves the float range at r = -1e+308"),
    (det_coeff_power_pair, (0.5, 2.0, 1e300, 1e300), PreconditionError,
     "a power of x or y leaves the float range at r = 2"),
    (det_coeff_power_pair, (-1.3, -1e47, 1e254, 1e71), PreconditionError,
     "a power of x or y leaves the float range at r = -1e+47"),
    (det_coeff_log_pair, (2.0, 1e-200, 1e-200), PreconditionError, "x * y underflows to 0"),
])
def test_det_coeff_errors(fn, args, error, message):
    with pytest.raises(PowerMeanError) as info:
        fn(*args)
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize("args, message", [
    # m_p underflows to 0 at p > 1, so m_p^(1 - p) divides by zero
    ((1.716657151455835e+50, 6.103515625e-05, 7.275957614183426e-12),
     "m_r^(1 - r) leaves the float range at r = 1.71666e+50"),
    # m_p is huge at p < 0, so m_p^(1 - p) overflows
    ((-2.1969730936356306, 5.591890070480142e+170, 1.1455192517924174e+98),
     "m_r^(1 - r) leaves the float range at r = -2.19697"),
])
def test_alpha_power_raises_precondition_where_its_power_leaves_the_range(args, message):
    with pytest.raises(PowerMeanError) as info:
        alpha_power(*args)
    assert type(info.value) is PreconditionError
    assert str(info.value) == message


def test_rank_one_coefficient_values():
    assert det_coeff_rank_one(0.5, 0.5) == 0.0
    assert det_coeff_rank_one(0.25, 0.5) == pytest.approx(-3.791260736238831e-3, rel=1e-12)
    assert det_coeff_rank_one(0.25, 0.5) == det_coeff_rank_one(0.5, 0.25)


def test_rank_one_coefficient_sign_structure():
    grid = np.linspace(0.05, 0.95, 13)
    for p in grid:
        for q in grid:
            val = det_coeff_rank_one(float(p), float(q))
            if p == q:
                assert val == 0.0
            else:
                assert val < 0.0


def test_rank_one_domain():
    with pytest.raises(DomainError):
        det_coeff_rank_one(0.0, 0.5)
    with pytest.raises(DomainError):
        det_coeff_rank_one(0.5, 1.0)


# ---------------------------------------------------------------------------
# extrapolation oracle
# ---------------------------------------------------------------------------

def test_oracle_exact_quadratic_determinant():
    def difference(t):
        return np.array([[2.0 * t, 0.0], [0.0, -2.0 * t]])

    # det / t^2 is exactly -4 on every angle, and the ladder's ratio 2 makes
    # each tableau factor a power of two, so every tableau step is exact
    result = numeric_det_coeff(difference)
    assert result.value == -4.0
    assert result.error == 0.0


def test_oracle_matches_rank_one_closed_form():
    closed = det_coeff_rank_one(0.25, 0.5)
    oracle = numeric_det_coeff(rank_one_difference(0.25, 0.5))
    assert abs(closed - oracle.value) <= 1e-4 * (1.0 + abs(closed))


def test_oracle_matches_power_pair_closed_form():
    closed = det_coeff_power_pair(1.0, 2.0, 0.5, 0.25).total
    oracle = numeric_det_coeff(pd_rotation_difference(1.0, 2.0, 0.5, 0.25))
    assert abs(closed - oracle.value) <= 1e-4 * (1.0 + abs(closed))


def test_oracle_handles_fractional_tail_orders():
    # exponents above 1/2 put fractional powers of the angle into the tail;
    # the family-aware elimination orders recover 1e-4 agreement anyway
    from powmean import rank_one_remainder_orders

    p, q = 0.7, 0.9
    orders = rank_one_remainder_orders(p, q)
    assert orders[0] == pytest.approx(2.0 / q - 2.0)
    assert orders[1] == pytest.approx(2.0 / p - 2.0)
    closed = det_coeff_rank_one(p, q)
    oracle = numeric_det_coeff(rank_one_difference(p, q), orders=orders)
    assert abs(closed - oracle.value) <= 1e-4 * (1.0 + abs(closed))


def test_oracle_validates_theta_sequence():
    # the ladder is fixed at eight angles; the orders are checked against it
    fn = rank_one_difference(0.25, 0.5)
    with pytest.raises(PreconditionError):
        numeric_det_coeff(fn, orders=(2.0, -1.0))
    with pytest.raises(PreconditionError):
        numeric_det_coeff(fn, orders=range(1, 9))


def test_oracle_flags_non_quadratic_input():
    def noisy(t):
        wobble = 1.0 + 0.5 * math.sin(1.0 / t)
        return np.array([[t * wobble, 0.0], [0.0, t]])

    with pytest.raises(NonConvergenceError):
        numeric_det_coeff(noisy)
    with pytest.raises(NonConvergenceError):
        numeric_det_coeff(lambda t: np.full((2, 2), np.nan))


def test_log_pair_statement_adjudicated_against_variant_grouping():
    # Two groupings of the log-family coefficient circulate: the implemented
    # one and a variant carrying an extra factor 1/2 on the delta1 bracket.
    # The extrapolation oracle and the p -> 0 limit both select the former.
    q, x, y = 1.0, 0.01, 0.0001
    breakdown = det_coeff_log_pair(q, x, y)
    statement = breakdown.total
    variant = 0.5 * breakdown.delta1 + breakdown.delta2
    oracle = numeric_det_coeff(pd_rotation_difference(0.0, q, x, y)).value
    bound = 1e-4 * (1.0 + abs(statement))
    assert abs(statement - oracle) <= bound
    assert abs(variant - oracle) > 10.0 * bound
    limit = det_coeff_power_pair(1e-6, q, x, y).total
    assert abs(statement - limit) <= 1e-3 * (1.0 + abs(statement))


@pytest.mark.parametrize("call,error,message", [
    (lambda: frechet_d1(LOG, np.eye(2), np.eye(3)), PreconditionError,
     "base and direction need equal dimensions"),
    (lambda: frechet_d2(LOG, np.eye(2), np.eye(2), np.eye(3)), PreconditionError,
     "base and directions need equal dimensions"),
    (lambda: rank_one_remainder_orders(0.5, 1.5), DomainError,
     "rank-one remainder orders need p, q in (0, 1)"),
    (lambda: numeric_det_coeff(lambda t: np.eye(3)), PreconditionError,
     "difference_at must return a 2x2 matrix"),
])
def test_expansion_input_errors(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
