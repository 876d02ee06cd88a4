"""Two-matrix power means and their map-composed forms.

The p-power mean of positive definite A, B is

    ((A^p + B^p) / 2)^(1/p),        p != 0,

and its p -> 0 limit is the log-Euclidean mean

    exp((log A + log B) / 2).

Exponents within 1e-8 of zero are evaluated on the log-Euclidean branch:
A^p^(1/p) amplifies rounding by ~1/|p|, while the limit formula is exact.
Only this module snaps an exponent; the region's classification, the
counterexample search and the CLI labels read a pair as given.
"""

from __future__ import annotations

import math

import numpy as np

from .core import _decompose, eig_sym, spectral_fun
from .errors import DimensionMismatchError, NotUnitalError, PreconditionError
from .functions import EXP, LOG, Power

LOG_EUCLIDEAN_THRESHOLD = 1e-8


def normalize_exponent(p: float) -> float:
    """Map exponents within 1e-8 of zero to exactly 0 (log-Euclidean)."""
    p = float(p)
    if not math.isfinite(p):
        raise PreconditionError("exponent must be finite")
    return 0.0 if abs(p) < LOG_EUCLIDEAN_THRESHOLD else p


def scalar_power_mean(p: float, a: float, b: float) -> float:
    """Power mean of two positive scalars (geometric mean at p = 0)."""
    if a <= 0.0 or b <= 0.0:
        raise PreconditionError("scalar power mean needs positive arguments")
    p = normalize_exponent(p)
    if p == 0.0:
        return math.exp(0.5 * math.log(a) + 0.5 * math.log(b))
    return (0.5 * a**p + 0.5 * b**p) ** (1.0 / p)


def _decompose_against(dec_a, b):
    """``eig_sym(b)`` for a mean with the decomposed A, checked to match it.

    Called once A is decomposed, so A is validated, then B, before the shape
    check, as two ``symmetrize`` calls up front would.
    """
    dec_b = eig_sym(b)
    if dec_a.basis.shape != dec_b.basis.shape:
        raise DimensionMismatchError("means need equal dimensions")
    return dec_b


def _functions(p: float):
    """f and f^-1 of the p-mean: X^p and X^(1/p), or log and exp at p = 0: the
    one place where an exponent becomes a function."""
    p = normalize_exponent(p)
    return (LOG, EXP) if p == 0.0 else (Power(p), Power(1.0 / p))


def _mean_against(dec_a):
    """``(r, dec_b) -> M_r(A, B)`` for the decomposed A and a decomposed B of
    its dimension: f^-1((f(A) + f(B)) / 2), f = X^r or log.

    Each exponent's f, f^-1 and f(A) are made at the first B that needs them
    and then reused, so the errors of an exponent or of f(A) are raised at
    that B, in the place and with the message of a single mean.
    """
    sides = {}

    def mean(r, dec_b):
        side = sides.get(r)
        if side is None:
            f, inverse = _functions(r)
            side = sides[r] = f, inverse, spectral_fun(dec_a, f)
        f, inverse, power_a = side
        return spectral_fun(_decompose(0.5 * power_a + 0.5 * spectral_fun(dec_b, f)), inverse)

    return mean


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
    dec_a = eig_sym(a)
    return _mean_against(dec_a)(p, _decompose_against(dec_a, b))


def power_mean_gap(p: float, q: float, a, b) -> np.ndarray:
    """M_q(A, B) - M_p(A, B) from one decomposition of A and of B.

    Bit for bit ``power_mean(q, a, b) - power_mean(p, a, b)``, with the
    q-mean evaluated first, so errors are those of that two-call form; equal
    normalized exponents take one mean.  The gap is exactly symmetric.
    This is :func:`_gap_against` applied once; the counterexample search
    prepares the fixed A of each theta walk once and applies it to every B.
    """
    return _gap_against(p, q, a)(b)


def _gap_against(p: float, q: float, a):
    """``b -> power_mean_gap(p, q, a, b)``, with A validated and decomposed
    here, once, and each mean's f(A) made once by :func:`_mean_against`."""
    dec_a = eig_sym(a)
    mean = _mean_against(dec_a)

    def gap(b):
        dec_b = _decompose_against(dec_a, b)
        high = mean(q, dec_b)
        if normalize_exponent(p) == normalize_exponent(q):
            return high - high
        return high - mean(p, dec_b)

    return gap


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
    return _map_power_of(phi, p, _unital_decomposition(phi, a))


def _unital_decomposition(phi, a):
    """``eig_sym(a)`` once ``phi`` is checked unital, for map powers to share."""
    if not phi.is_unital():
        raise NotUnitalError("map_power requires a unital map")
    return eig_sym(a)


def _map_power_of(phi, p: float, dec) -> np.ndarray:
    """:func:`map_power` of A given as its decomposition ``dec`` by
    :func:`~powmean.core.eig_sym`, for a map already known to be unital;
    several exponents can share one decomposition."""
    n = dec.basis.shape[0]
    if n != phi.in_dim:
        raise DimensionMismatchError(
            "matrix dim %d does not match map input dim %d" % (n, phi.in_dim)
        )
    f, inverse = _functions(p)
    return spectral_fun(_decompose(phi.apply(spectral_fun(dec, f))), inverse)


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
    base = _map_power_of(phi, 0.0, dec)
    return base, np.array([float(np.abs(_map_power_of(phi, p, dec) - base).max()) for p in ps])
