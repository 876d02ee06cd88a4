"""Second-order expansion machinery for rotated two-matrix means.

For A = diag(1, x) and B_t the rotation of diag(1, y) by a small angle t,
the power mean M_p(A, B_t) expands as

    [[1 + a11 t^2,  a12 t      ],
     [a12 t,        m_p + a22 t^2]]  + o(t^2),

with m_p the scalar power mean of (x, y).  The determinant of M_q - M_p is
then coeff * t^2 + o(t^2), and the coefficient has closed forms for the
generic power family, its log-Euclidean (p = 0) limit, and a singular
rank-one family.  A Richardson-extrapolation oracle computes the same
coefficient numerically and independently.

The entries a11, a12, a22 and the coefficient of the first two families
are closed forms in each exponent's scalar terms (``_terms``); none of them
decomposes a matrix.  Confluent divided differences of scalar functions and
Daleckii-Krein Frechet derivatives of matrix functions (Schur products
against divided-difference matrices in the eigenbasis of the base point)
stay as general tools, and as an independent route to the entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import CONFLUENT_GAP, eig_sym, symmetrize
from .errors import DegenerateFrameError, DomainError, NonConvergenceError, PreconditionError
from .functions import ScalarFunction

_ORACLE_THETAS = tuple(0.1 * 2.0**-k for k in range(8))
_ORACLE_REL_TOL = 1e-5
#: |log xy| at or below which the r -> 0 terms are rejected.  Their sum
#: cancels terms of size 1/log xy and keeps a relative error of about
#: 2e-13 / (log xy)^2 against 60-digit arithmetic: 2e-7 at this guard.
_LOG_XY_GAP = 1e-3


# ---------------------------------------------------------------------------
# Divided differences
# ---------------------------------------------------------------------------

def divided_diff_1(f: ScalarFunction, l1: float, l2: float) -> float:
    """First divided difference f[l1, l2], confluent limit f'(l) at l1 = l2.

    Nodes closer than ``CONFLUENT_GAP`` (relative to 1 + their magnitude)
    use the analytic derivative; the result is symmetric in the arguments.
    """
    scale = 1.0 + max(abs(l1), abs(l2))
    if abs(l1 - l2) <= CONFLUENT_GAP * scale:
        return f.deriv(0.5 * (l1 + l2), 1)
    return (f(l1) - f(l2)) / (l1 - l2)


def divided_diff_2(f: ScalarFunction, l1: float, l2: float, l3: float) -> float:
    """Second divided difference f[l1, l2, l3] with confluent limits.

    Invariant under every permutation of the nodes; coincident nodes use
    analytic derivatives (f''(l)/2 when all three coincide).
    """
    x0, x1, x2 = sorted((float(l1), float(l2), float(l3)))
    scale = 1.0 + max(abs(x0), abs(x2))
    gap = CONFLUENT_GAP * scale
    if x2 - x0 <= gap:
        return 0.5 * f.deriv((x0 + x1 + x2) / 3.0, 2)
    if x1 - x0 <= gap:
        node = 0.5 * (x0 + x1)
        return (divided_diff_1(f, node, x2) - f.deriv(node, 1)) / (x2 - node)
    if x2 - x1 <= gap:
        node = 0.5 * (x1 + x2)
        return (f.deriv(node, 1) - divided_diff_1(f, x0, node)) / (node - x0)
    return (divided_diff_1(f, x0, x1) - divided_diff_1(f, x1, x2)) / (x0 - x2)


# ---------------------------------------------------------------------------
# Frechet derivatives (Daleckii-Krein)
# ---------------------------------------------------------------------------

def frechet_d1(f: ScalarFunction, base, h) -> np.ndarray:
    """First Frechet derivative of X -> f(X) at ``base`` in direction ``h``.

    In the eigenbasis of the base point this is the Schur product of the
    first-divided-difference matrix with the rotated direction:

        D f(base)(h) = V ( f[l_i, l_j] o (V^T h V) ) V^T.
    """
    dec = eig_sym(base)
    h = symmetrize(h)
    if dec.basis.shape != h.shape:
        raise PreconditionError("base and direction need equal dimensions")
    lam = dec.eigenvalues
    n = lam.size
    dd = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            dd[i, j] = dd[j, i] = divided_diff_1(f, lam[i], lam[j])
    ht = dec.basis.T @ h @ dec.basis
    out = dec.basis @ (dd * ht) @ dec.basis.T
    return (out + out.T) / 2.0


def frechet_d2(f: ScalarFunction, base, h, k) -> np.ndarray:
    """Second Frechet derivative D^2 f(base)(h, k), symmetric bilinear.

    With H, K rotated to the eigenbasis,

        [D^2]_{ij} = sum_r f[l_i, l_r, l_j] (H_{ir} K_{rj} + K_{ir} H_{rj}),

    so the Taylor expansion reads
    f(base + h) = f(base) + D f(h) + (1/2) D^2 f(h, h) + o(|h|^2).
    """
    dec = eig_sym(base)
    h = symmetrize(h)
    k = symmetrize(k)
    if dec.basis.shape != h.shape or dec.basis.shape != k.shape:
        raise PreconditionError("base and directions need equal dimensions")
    lam = dec.eigenvalues
    n = lam.size
    ht = dec.basis.T @ h @ dec.basis
    kt = dec.basis.T @ k @ dec.basis
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for r in range(n):
                acc += divided_diff_2(f, lam[i], lam[r], lam[j]) * (
                    ht[i, r] * kt[r, j] + kt[i, r] * ht[r, j]
                )
            out[i, j] = acc
    rotated = dec.basis @ out @ dec.basis.T
    return (rotated + rotated.T) / 2.0


# ---------------------------------------------------------------------------
# Expansion coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpansionCoefficients:
    """Entries of the second-order mean expansion described above."""

    alpha11: float
    alpha12: float
    alpha22: float


@dataclass(frozen=True)
class DetCoefficientBreakdown:
    """The t^2 determinant coefficient split into its two contributions.

    ``delta1`` couples the diagonal second-order terms with the scalar-mean
    gap; ``delta2`` is the (always nonpositive) square of the off-diagonal
    slope difference times w_p * w_q, where w_p = 1 - m_p is one minus the
    scalar power mean (w_0 = 1 - sqrt(x y) in the log-Euclidean case).
    """

    delta1: float
    delta2: float
    wp: float
    wq: float

    @property
    def total(self) -> float:
        return self.delta1 + self.delta2


class _Terms(NamedTuple):
    """One exponent's share of the t^2 coefficient and of the expansion
    entries: the scalar mean m_r, c_r = (1-x^r)(1-y^r)/(r (2-x^r-y^r)) and
    a_r = (1-y^r)/(2-x^r-y^r)."""

    m: float
    c: float
    a: float


def _terms(r: float | None, x: float, y: float) -> _Terms:
    """The terms of exponent ``r``; ``r=None`` gives their r -> 0 limits
    sqrt(xy), -log x log y / log xy and log y / log xy.

    Raises ``DegenerateFrameError`` where the denominators degenerate:
    x^r + y^r - 2 within ``CONFLUENT_GAP`` of |x^r - 1| + |y^r - 1|, or xy too
    close to 1 in the limit.
    """
    if r == 0.0:
        raise PreconditionError("power frame needs a nonzero exponent")
    if x <= 0.0 or y <= 0.0:
        raise PreconditionError("x and y must be positive")
    if r is None:
        lxy = math.log(x * y)
        if abs(lxy) <= _LOG_XY_GAP:
            raise DegenerateFrameError("x * y is too close to 1")
        ly = math.log(y)
        return _Terms(math.sqrt(x * y), -math.log(x) * ly / lxy, ly / lxy)
    xr, yr = x**r, y**r
    dx, dy = _minus_one(xr, x, r), _minus_one(yr, y, r)
    e = dx + dy  # x^r + y^r - 2, keeping its digits where it cancels
    if abs(e) <= CONFLUENT_GAP * (abs(dx) + abs(dy)):
        raise DegenerateFrameError("x^p + y^p is too close to 2")
    if abs(e) < 1.0:
        m = math.exp(math.log1p(0.5 * e) / r)
    else:  # nothing cancels, and the direct forms round fewer times
        e = (xr + yr) - 2.0
        m = ((xr + yr) / 2.0) ** (1.0 / r)
    return _Terms(m, -dx * dy / (r * e), dy / e)


def _minus_one(xr: float, x: float, r: float) -> float:
    """xr - 1 for xr = x^r, through expm1(r log x) where x^r is near 1."""
    d = xr - 1.0
    return math.expm1(r * math.log(x)) if abs(d) < 0.5 else d


def _det_coeff(tp: _Terms, tq: _Terms) -> DetCoefficientBreakdown:
    wp, wq = 1.0 - tp.m, 1.0 - tq.m
    delta1 = 0.5 * (tp.c - tq.c) * (tq.m - tp.m)
    delta2 = -((tp.a - tq.a) ** 2) * wp * wq
    return DetCoefficientBreakdown(delta1, delta2, wp, wq)


def _alpha(t: _Terms, r: float) -> ExpansionCoefficients:
    """The expansion entries from exponent ``r``'s terms (``r = 0`` for the
    log limit); c_r m_r / s_r with s_r = x^r + y^r is c_r m_r^(1-r) / 2."""
    w = 1.0 - t.m
    a2w = t.a**2 * w
    return ExpansionCoefficients(-0.5 * t.c - a2w, t.a * w, 0.5 * t.c * t.m ** (1.0 - r) + a2w)


def alpha_power(p: float, x: float, y: float) -> ExpansionCoefficients:
    """Expansion coefficients of M_p(A, B_t) for the rotated-diagonal family.

    With the terms of ``det_coeff_power_pair``, w_p = 1 - m_p and
    s_p = x^p + y^p:

        alpha11 = -c_p/2 - a_p^2 w_p,  alpha12 = a_p w_p,
        alpha22 = c_p m_p / s_p + a_p^2 w_p.

    Raises ``DegenerateFrameError`` when s_p is too close to 2.
    """
    return _alpha(_terms(p, x, y), p)


def alpha_log(x: float, y: float) -> ExpansionCoefficients:
    """Expansion coefficients of the log-Euclidean mean of (A, B_t): the
    ``alpha_power`` closed forms with the r -> 0 terms and s_0 = 2.

    Raises ``DegenerateFrameError`` when xy is too close to 1.
    """
    return _alpha(_terms(None, x, y), 0.0)


# ---------------------------------------------------------------------------
# Closed-form determinant coefficients
# ---------------------------------------------------------------------------

def det_coeff_power_pair(p: float, q: float, x: float, y: float) -> DetCoefficientBreakdown:
    """t^2 coefficient of det(M_q - M_p) for the rotated-diagonal family.

    With m_r = ((x^r + y^r)/2)^(1/r), w_r = 1 - m_r,
    c_r = (1-x^r)(1-y^r)/(r (2-x^r-y^r)) and a_r = (1-y^r)/(2-x^r-y^r):

        delta1 = (1/2) (c_p - c_q) (m_q - m_p)
        delta2 = -(a_p - a_q)^2 w_p w_q

    Raises ``DegenerateFrameError`` when x^r + y^r is too close to 2 for
    either exponent (the divided-difference denominators degenerate).
    """
    return _det_coeff(_terms(p, x, y), _terms(q, x, y))


def det_coeff_log_pair(q: float, x: float, y: float) -> DetCoefficientBreakdown:
    """t^2 coefficient of det(M_q - log-Euclidean mean), the p -> 0 limit.

    The ``det_coeff_power_pair`` combination with the r -> 0 terms
    m_0 = sqrt(xy), c_0 = -log x log y / log xy and a_0 = log y / log xy
    in place of p's.  Requires xy away from 1 and x^q + y^q away from 2.
    """
    return _det_coeff(_terms(None, x, y), _terms(q, x, y))


def det_coeff_rank_one(p: float, q: float) -> float:
    """t^2 coefficient of det(M_q - M_p) for the singular rank-one family.

    For A = diag(2, 0) and B_t the rank-one projection at angle t,

        coeff = -((2^p+1)/2)^(1/p) ((2^q+1)/2)^(1/q)
                 (1/(2^p+1) - 1/(2^q+1))^2,

    valid for p, q in (0, 1); always <= 0, zero exactly when p = q.
    """
    if not (0.0 < p < 1.0 and 0.0 < q < 1.0):
        raise DomainError("rank-one coefficient needs p, q in (0, 1)")
    mp = ((2.0**p + 1.0) / 2.0) ** (1.0 / p)
    mq = ((2.0**q + 1.0) / 2.0) ** (1.0 / q)
    gap = 1.0 / (2.0**p + 1.0) - 1.0 / (2.0**q + 1.0)
    return -mp * mq * gap**2


# ---------------------------------------------------------------------------
# Numeric oracle
# ---------------------------------------------------------------------------

class ExtrapolationResult(NamedTuple):
    value: float
    error: float


DEFAULT_REMAINDER_ORDERS = (2.0, 4.0)


def rank_one_remainder_orders(p: float, q: float) -> tuple[float, ...]:
    """Elimination orders for the singular rank-one family's det/t^2 tail.

    The semidefinite pair feeds fractional powers t^(2/r - 2) into the
    tail, one per exponent r with 2/r - 2 below the analytic orders; those
    must be eliminated alongside the usual t^2 and t^4 terms or the tableau
    stalls for exponents above 1/2.
    """
    if not (0.0 < p < 1.0 and 0.0 < q < 1.0):
        raise DomainError("rank-one remainder orders need p, q in (0, 1)")
    fractional = {
        round(2.0 / r - 2.0, 12)
        for r in (p, q)
        if 2.0 / r - 2.0 < 2.0 - 1e-9
    }
    return tuple(sorted(fractional)) + DEFAULT_REMAINDER_ORDERS


def numeric_det_coeff(
    difference_at: Callable[[float], np.ndarray],
    orders: Sequence[float] = DEFAULT_REMAINDER_ORDERS,
) -> ExtrapolationResult:
    """Richardson-extrapolated limit of det(difference(t)) / t^2 as t -> 0.

    ``difference_at`` maps an angle to a symmetric 2x2 matrix whose
    determinant is coeff * t^2 + o(t^2).  One fixed ladder of eight angles,
    0.1 * 2^-k for k = 0..7, feeds a Neville tableau that eliminates the
    tail terms t^order for each entry of ``orders``; the default (2, 4) suits
    determinants that are even analytic functions of the angle, while
    singular families carry fractional orders (see
    ``rank_one_remainder_orders``).  The reported error is the gap between
    the last two extrapolants.

    Raises
    ------
    NonConvergenceError
        If successive extrapolants disagree by more than 1e-4 (1 + |value|),
        or either is NaN.
    """
    ts = np.asarray(_ORACLE_THETAS)
    orders = tuple(float(e) for e in orders)
    if not orders or any(e <= 0.0 for e in orders):
        raise PreconditionError("elimination orders must be positive")
    if len(orders) >= ts.size:
        raise PreconditionError("need more angles than elimination orders")
    ratios = []
    for t in ts:
        d = np.asarray(difference_at(float(t)), dtype=float)
        if d.shape != (2, 2):
            raise PreconditionError("difference_at must return a 2x2 matrix")
        det = d[0, 0] * d[1, 1] - d[0, 1] * d[1, 0]
        ratios.append(det / (t * t))
    col = np.array(ratios)
    nodes = ts
    for e in orders:
        factor = (nodes[:-1] / nodes[1:]) ** e
        col = (factor * col[1:] - col[:-1]) / (factor - 1.0)
        nodes = nodes[1:]
    value = float(col[-1])
    error = float(abs(col[-1] - col[-2]))
    if not error <= 10.0 * _ORACLE_REL_TOL * (1.0 + abs(value)):
        raise NonConvergenceError(
            "extrapolants disagree by %.3e at value %.6e" % (error, value)
        )
    return ExtrapolationResult(value, error)
