"""Two-matrix power means and their map-composed forms.

The p-power mean of positive definite A, B with weight w is

    ((1 - w) A^p + w B^p)^(1/p),        p != 0,

and its p -> 0 limit is the log-Euclidean mean

    exp((1 - w) log A + w log B).

Exponents within 1e-8 of zero are normalized to the log-Euclidean branch:
A^p^(1/p) amplifies rounding by ~1/|p|, while the limit formula is exact.
"""

from __future__ import annotations

import math

import numpy as np

from .core import eig_sym, mat_fun, spectral_fun
from .errors import DimensionMismatchError, NotUnitalError, PreconditionError
from .functions import EXP, LOG, Power

LOG_EUCLIDEAN_THRESHOLD = 1e-8


def normalize_exponent(p: float) -> float:
    """Map exponents within 1e-8 of zero to exactly 0 (log-Euclidean)."""
    p = float(p)
    if not math.isfinite(p):
        raise PreconditionError("exponent must be finite")
    return 0.0 if abs(p) < LOG_EUCLIDEAN_THRESHOLD else p


def scalar_power_mean(p: float, a: float, b: float, weight: float = 0.5) -> float:
    """Power mean of two positive scalars (geometric mean at p = 0)."""
    if a <= 0.0 or b <= 0.0:
        raise PreconditionError("scalar power mean needs positive arguments")
    p = normalize_exponent(p)
    if p == 0.0:
        return math.exp((1.0 - weight) * math.log(a) + weight * math.log(b))
    return ((1.0 - weight) * a**p + weight * b**p) ** (1.0 / p)


def _decompose_pair(a, b, weight: float):
    """Validate a mean's matrix arguments and decompose each once.

    ``eig_sym`` validates A, then B, before the shape and weight checks, as
    two ``symmetrize`` calls up front would.
    """
    dec_a = eig_sym(a)
    dec_b = eig_sym(b)
    if dec_a.basis.shape != dec_b.basis.shape:
        raise DimensionMismatchError("means need equal dimensions")
    if not 0.0 < weight < 1.0:
        raise PreconditionError("weight must lie strictly in (0, 1)")
    return dec_a, dec_b


def _mean_of(p: float, dec_a, dec_b, weight: float) -> np.ndarray:
    p = normalize_exponent(p)
    f, inverse = (LOG, EXP) if p == 0.0 else (Power(p), Power(1.0 / p))
    combo = (1.0 - weight) * spectral_fun(dec_a, f) + weight * spectral_fun(dec_b, f)
    return mat_fun(combo, inverse)


def power_mean(p: float, a, b, weight: float = 0.5) -> np.ndarray:
    """Weighted p-power mean of two symmetric positive definite matrices.

    Parameters
    ----------
    p : float
        Exponent; values within 1e-8 of zero select the log-Euclidean mean.
    a, b : array_like
        Positive definite matrices of equal dimension.  When p > 0,
        positive semidefinite input is admitted via the 0 ** r = 0
        convention.
    weight : float
        Weight on ``b``, strictly between 0 and 1 (default 1/2).

    Raises
    ------
    DomainError
        Propagated from the spectral functions when an input is singular
        beyond tolerance and p <= 0.
    """
    return _mean_of(p, *_decompose_pair(a, b, weight), weight)


def power_mean_gap(p: float, q: float, a, b) -> np.ndarray:
    """Equal-weight M_q(A, B) - M_p(A, B) from one decomposition of A and of B.

    Bit for bit ``power_mean(q, a, b) - power_mean(p, a, b)``, with the
    q-mean evaluated first, so errors are those of that two-call form.
    """
    dec_a, dec_b = _decompose_pair(a, b, 0.5)
    high = _mean_of(q, dec_a, dec_b, 0.5)
    return high - _mean_of(p, dec_a, dec_b, 0.5)


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
    if not phi.is_unital():
        raise NotUnitalError("map_power requires a unital map")
    dec = eig_sym(a)
    n = dec.basis.shape[0]
    if n != phi.in_dim:
        raise DimensionMismatchError(
            "matrix dim %d does not match map input dim %d" % (n, phi.in_dim)
        )
    p = normalize_exponent(p)
    if p == 0.0:
        return mat_fun(phi.apply(spectral_fun(dec, LOG)), EXP)
    return mat_fun(phi.apply(spectral_fun(dec, Power(p))), Power(1.0 / p))


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
    base = map_power(phi, 0.0, a)
    return np.array([float(np.abs(map_power(phi, p, a) - base).max()) for p in ps])
