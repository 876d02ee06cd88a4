"""Two-matrix power means and their map-composed forms.

The p-power mean of positive definite A, B is

    ((A^p + B^p) / 2)^(1/p),        p != 0,

and its p -> 0 limit is the log-Euclidean mean

    exp((log A + log B) / 2).

Exponents within 1e-8 of zero are evaluated on the log-Euclidean branch:
A^p^(1/p) amplifies rounding by ~1/|p|, while the limit formula is exact.
Only this module snaps an exponent; the region's classification, the
counterexample search and the CLI labels read a pair as given.

Every mean has two stages on decomposed input: the sum stage S_r, which is
f(A)/2 + f(B)/2 (:func:`_sums_against`) or phi(f(A)) (:func:`_map_sum`) with
f = X^r or log from :func:`_functions`, then the root stage f^-1(S_r) of
:func:`_root`.  The public means compose the two; :func:`_gap`, the one gap
routine, serves ``power_mean_gap``, the counterexample search and the fuzz.

The root stage decomposes S_r, except where f^-1 is X or X^2 (p = 1 or 1/2):
there M_p is S_r itself, or S_r @ S_r made exactly symmetric.  That one
product rounds like the spectral rebuild V diag(lambda^2) V^T, a few n eps
|S|^2 normwise, so the rule stops at X^2: X^3 and up take more products,
each adding its rounding, and an inverse power a solve, which loses relative
accuracy on an ill-conditioned sum.  A non-finite sum, or one with an entry
above ``_SQUARE_MAX``, is decomposed as any other, and raises, rescales or
warns there.
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

from .core import _decompose, eig_sym, spectral_fun
from .errors import DimensionMismatchError, NotUnitalError, PreconditionError
from .functions import EXP, LOG, Power

LOG_EUCLIDEAN_THRESHOLD = 1e-8
#: Largest |entry| of a sum whose root X or X^2 skips the decomposition: at
#: n <= 8 no entry of S @ S or of S @ S + (S @ S)^T then exceeds max / 4.
_SQUARE_MAX = math.sqrt(sys.float_info.max) / 8.0


def normalize_exponent(p: float) -> float:
    """Map exponents within 1e-8 of zero to exactly 0 (log-Euclidean)."""
    p = float(p)
    if not math.isfinite(p):
        raise PreconditionError("exponent must be finite")
    return 0.0 if abs(p) < LOG_EUCLIDEAN_THRESHOLD else p


def scalar_power_mean(p: float, a: float, b: float) -> float:
    """Power mean of two positive scalars (geometric mean at p = 0).

    With s the argument that dominates a^p + b^p (the larger for p > 0, the
    smaller for p < 0) and t the other, the mean is
    s exp(log1p(expm1(p log(t/s)) / 2) / p): p log(t/s) <= 0, so no power
    overflows or underflows to a wrong mean at any exponent.  Ratios t/s
    and factors exp(...) beyond the normal range go through logarithms.
    """
    if a <= 0.0 or b <= 0.0:
        raise PreconditionError("scalar power mean needs positive arguments")
    p = normalize_exponent(p)
    if p == 0.0:
        return math.exp(0.5 * math.log(a) + 0.5 * math.log(b))
    t, s = sorted((a, b), reverse=p < 0.0)
    ratio = t / s
    if sys.float_info.min <= ratio <= sys.float_info.max:
        log_ratio = math.log(ratio)
    else:
        log_ratio = math.log(t) - math.log(s)
    y = math.log1p(0.5 * math.expm1(p * log_ratio)) / p
    return s * math.exp(y) if abs(y) < 700.0 else math.exp(math.log(s) + y)


@functools.lru_cache(maxsize=64)
def _functions(p: float):
    """f and f^-1 of the p-mean: X^p and X^(1/p), or log and exp at p = 0: the
    one place where an exponent becomes a function; then the degree of f^-1
    where it is X or X^2 (p = 1 or 1/2), else 0, for :func:`_root`.  The tags
    are immutable, so the recent exponents' triples are kept for the two
    stages of a mean."""
    p = normalize_exponent(p)
    if p == 0.0:
        return LOG, EXP, 0
    inverse = Power(1.0 / p)
    return Power(p), inverse, int(inverse.exponent) if inverse.exponent in (1.0, 2.0) else 0


def _sums_against(dec_a):
    """``(r, dec_b) -> S_r`` for the decomposed A and a decomposed B of its
    shape, for stacks of them, or for one A against a stack of B (see
    :func:`~powmean.core.spectral_fun`); row i of a stack has the bits of
    its pair's single call.

    B's shape is checked first.  Each exponent's f(A)/2 is made at the first
    B that needs it and then reused, so the errors of an exponent or of f(A)
    are raised at that B, in the place and with the message of a single mean.
    """
    shape = dec_a.basis.shape
    sides = {}

    def power_sum(r, dec_b):
        if dec_b.basis.shape[-len(shape):] != shape:
            raise DimensionMismatchError("means need equal dimensions")
        side = sides.get(r)
        if side is None:
            f = _functions(r)[0]
            side = sides[r] = f, 0.5 * spectral_fun(dec_a, f)
        f, half_a = side
        return half_a + 0.5 * spectral_fun(dec_b, f)

    return power_sum


def _root(r: float, s: np.ndarray) -> np.ndarray:
    """f^-1(S_r) of one exactly symmetric sum, a stack of them or a map sum.

    Where f^-1 is X or X^2 and every |entry| is at most ``_SQUARE_MAX``, the
    root is S itself or S @ S made exactly symmetric; any other sum, a
    non-finite one included, is decomposed, and raises, rescales or warns
    there.  A stack with such rows takes each row alone, so row i keeps the
    bits and the error of its single call.
    """
    _, inverse, degree = _functions(r)
    if degree:
        fits = np.abs(s).max(axis=(-2, -1)) <= _SQUARE_MAX  # False at a NaN
        if fits.all():
            if degree == 1:
                return s
            square = s @ s
            return (square + square.mT) / 2.0
        if s.ndim == 3:
            return np.array([_root(r, row) for row in s])
    return spectral_fun(_decompose(s), inverse)


def power_mean(p: float, a, b) -> np.ndarray:
    """p-power mean of two symmetric positive definite matrices.

    Parameters
    ----------
    p : float
        Exponent; values within 1e-8 of zero select the log-Euclidean mean.
    a, b : array_like
        Positive definite matrices of equal dimension.  When p > 0,
        positive semidefinite input is admitted via the 0 ** r = 0
        convention.

    Raises
    ------
    DomainError
        Propagated from the spectral functions when an input is singular
        beyond tolerance and p <= 0.
    """
    return _root(p, _sums_against(eig_sym(a))(p, eig_sym(b)))


def power_mean_gap(p: float, q: float, a, b) -> np.ndarray:
    """M_q(A, B) - M_p(A, B) from one decomposition of A and of B.

    Bit for bit ``power_mean(q, a, b) - power_mean(p, a, b)``, with the
    q-mean evaluated first, so errors are those of that two-call form; equal
    normalized exponents take one mean.  The gap is exactly symmetric.
    A is validated before B; the counterexample search prepares the
    :func:`_decomposed_gap` of each theta walk's fixed A once instead.
    """
    return _decomposed_gap(p, q, eig_sym(a))(eig_sym(b))


def _decomposed_gap(p: float, q: float, dec_a):
    """``dec_b -> M_q(A, B) - M_p(A, B)`` for the decomposed A and a decomposed
    B or a stack of B, its sums drawn lazily for :func:`_gap`.  A decomposition
    here is any :class:`~powmean.core.SpectralDecomposition` with ascending
    eigenvalues, from :func:`~powmean.core.eig_sym` or drawn as one."""
    power_sum = _sums_against(dec_a)
    return lambda dec_b: _gap(p, q, power_sum(q, dec_b), lambda: power_sum(p, dec_b))


def _power_sums(p: float, q: float, dec_a, dec_b):
    """S_q and S_p of the decomposed A and B, or of stacks of pairs, made at
    once for :func:`_gap`; at equal normalized exponents S_p is S_q, unread."""
    power_sum = _sums_against(dec_a)
    s_q = power_sum(q, dec_b)
    return s_q, s_q if normalize_exponent(p) == normalize_exponent(q) else power_sum(p, dec_b)


def _gap(p: float, q: float, s_q, sum_p) -> np.ndarray:
    """M_q - M_p from the sum S_q and ``sum_p() -> S_p``: the one gap routine.
    It takes the q-mean's root, then S_p and the p-mean's root unless the
    normalized exponents are equal (the gap is then zero), so a lazy S_p
    raises its errors after the q-mean's.  The gap is exactly symmetric."""
    high = _root(q, s_q)
    if normalize_exponent(p) == normalize_exponent(q):
        return high - high
    return high - _root(p, sum_p())


def map_power(phi, p: float, a) -> np.ndarray:
    """Evaluate phi(A^p)^(1/p) for a unital positive linear map phi.

    At p = 0 (after normalization) this is exp(phi(log A)), the operator-norm
    limit of the p != 0 expression.

    Raises
    ------
    NotUnitalError
        If ``phi`` is not unital within ``core.PSD_FLOOR``.
    DomainError
        If phi(A^p) is not positive definite above ``core.PSD_FLOOR``, which
        signals a non-positive map.
    """
    return _root(p, _map_sum(phi, p, _unital_decomposition(phi, a)))


def _unital_decomposition(phi, a):
    """``eig_sym(a)``, once ``phi`` is checked unital and A fits its input, for map sums."""
    if not phi.is_unital():
        raise NotUnitalError("map_power requires a unital map")
    dec = eig_sym(a)
    n = dec.basis.shape[0]
    if n != phi.in_dim:
        raise DimensionMismatchError(
            "matrix dim %d does not match map input dim %d" % (n, phi.in_dim)
        )
    return dec


def _map_sum(phi, r: float, dec) -> np.ndarray:
    """phi(f(A)) for A from :func:`_unital_decomposition`."""
    return phi.apply(spectral_fun(dec, _functions(r)[0]))


def limit_slope_check(phi, a, p_sequence) -> np.ndarray:
    """Deviations of phi(A^p)^(1/p) from its p -> 0 limit along a sequence.

    Returns ``|map_power(phi, p, a) - map_power(phi, 0, a)|_inf`` for each p.
    For a positive sequence descending toward 0 the deviations decrease and
    deviation/p stays bounded (the limit is attained at first order).
    """
    ps = np.asarray(p_sequence, dtype=float)
    if ps.ndim != 1 or ps.size == 0:
        raise PreconditionError("p_sequence must be a non-empty 1-d sequence")
    if not np.all(ps > 0.0) or not np.all(np.diff(ps) < 0.0):
        raise PreconditionError("p_sequence must be positive and strictly descending")
    return _limit_deviations(phi, a, ps)[1]


def _limit_deviations(phi, a, ps):
    """``map_power(phi, 0, a)`` and the deviations of :func:`limit_slope_check`
    along valid ``ps``, from one unital check and one decomposition of A."""
    dec = _unital_decomposition(phi, a)
    base, *means = (_root(r, _map_sum(phi, r, dec)) for r in (0.0, *ps))
    return base, np.array([float(np.abs(m - base).max()) for m in means])
