"""Certified counterexamples to the power-mean order inequality.

Outside the sufficiency region with p <= q, a violation of
M_p(A, B) <= M_q(A, B) is produced by one of three 2x2 families:

* pd-rotation:   A = diag(1, x), B_t = R_t diag(1, y) R_t^T with y = x^2
  and x walked down a geometric schedule until the closed-form t^2
  determinant coefficient goes negative;
* log-euclidean: the same x-walk at p = 0, guided by the log-Euclidean
  coefficient;
* rank-one:      A = diag(2, 0) against the rank-one projection at angle t,
  whose coefficient is negative for every 0 < p < q < 1.

The families only generate candidate pairs, tagged with their schedule
position; one walker certifies them in order and returns the first hit.
Labels reached through the dual reflection (p, q) -> (-q, -p) are built at
the reflected pair, inverted, and certified again.

Every witness is certified directly: the returned negative eigenvalue and
unit vector come from an eigendecomposition of M_q - M_p on the actual
returned matrices, never from the expansion that guided the search.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .core import DEFAULT_TOL, Tolerances, eig_sym, mat_fun, symmetrize
from .errors import (
    DegenerateFrameError,
    DomainError,
    InRegionError,
    PreconditionError,
    SearchExhaustedError,
)
from .expansions import det_coeff_log_pair, det_coeff_power_pair
from .functions import Power
from .maps import compression, plane_rotation
from .means import normalize_exponent, power_mean_gap, scalar_power_mean
from .region import Case, classify, dual

CERT_TOL = 1e-12
_X_SCHEDULE = range(4, 41)
_THETA_SCHEDULE = tuple(0.1 * 2.0**-j for j in range(21))
_SCHEDULE_WARN_K = 35
_SCHEDULE_WARN_J = 16
_DUAL_RANK_ONE_SHIFT = 1e-6

#: Classic 3x3 positive definite matrix (due to Choi) whose top-left 2x2
#: compression violates the Jensen power inequality outside 1 <= p <= 2 and
#: -1 <= p <= 0.
CHOI_MATRIX = np.array(
    [[2.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 2.0]]
)


@dataclass(frozen=True, eq=False)
class Witness:
    """A certified violation of M_p(A, B) <= M_q(A, B).

    ``neg_eigenvalue`` is the smallest eigenvalue of M_q - M_p and
    ``witness`` a unit vector achieving it; ``x``, ``y``, ``theta`` record
    the construction parameters when applicable, and ``dual_applied`` marks
    witnesses obtained by inverting a construction at (-q, -p).
    """

    p: float
    q: float
    a: np.ndarray
    b: np.ndarray
    neg_eigenvalue: float
    witness: np.ndarray
    x: float | None = None
    y: float | None = None
    theta: float | None = None
    dual_applied: bool = False


def pd_rotation_pair(x: float, y: float, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """The pair A = diag(1, x), B_t = R_t diag(1, y) R_t^T."""
    if x <= 0.0 or y <= 0.0:
        raise PreconditionError("x and y must be positive")
    r = plane_rotation(theta)
    return np.diag([1.0, x]), symmetrize(r @ np.diag([1.0, y]) @ r.T)


def rank_one_pair(theta: float, eps_shift: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """The pair A = diag(2, 0), B_t = rank-one projection at angle t.

    ``eps_shift`` adds eps * I to both matrices; the shifted pair is
    positive definite and within O(eps^p) of the singular one, which backs
    the continuity argument and makes the pair invertible.
    """
    if eps_shift < 0.0:
        raise PreconditionError("eps_shift must be nonnegative")
    c, s = np.cos(theta), np.sin(theta)
    proj = np.array([[c * c, c * s], [c * s, s * s]])
    shift = eps_shift * np.eye(2)
    return np.diag([2.0, 0.0]) + shift, symmetrize(proj) + shift


def pd_rotation_difference(
    p: float, q: float, x: float, y: float, tol: Tolerances = DEFAULT_TOL
) -> Callable[[float], np.ndarray]:
    """theta -> M_q(A, B_theta) - M_p(A, B_theta) for the rotated family."""
    return lambda theta: power_mean_gap(p, q, *pd_rotation_pair(x, y, theta), tol=tol)


def rank_one_difference(
    p: float, q: float, eps_shift: float = 0.0, tol: Tolerances = DEFAULT_TOL
) -> Callable[[float], np.ndarray]:
    """theta -> M_q - M_p for the singular rank-one family."""
    return lambda theta: power_mean_gap(p, q, *rank_one_pair(theta, eps_shift), tol=tol)


def _certify(p, q, a, b, cert_tol, tol):
    """Smallest eigenvalue and unit witness of M_q - M_p, if negative."""
    dec = eig_sym(power_mean_gap(p, q, a, b, tol=tol), tol)
    lam = float(dec.eigenvalues[0])
    if lam < -cert_tol:
        return lam, dec.basis[:, 0].copy()
    return None


def _theta_walk(pair, k=None, x=None, y=None):
    """The theta schedule as candidates (k, j, x, y, theta, (a, b))."""
    for j, theta in enumerate(_THETA_SCHEDULE):
        yield k, j, x, y, theta, pair(theta)


def _rotation_walk(p, q, tol):
    """Candidates x = 2^-k, y = x^2 whose closed-form t^2 coefficient (the
    log-Euclidean one at p = 0) is negative, each walking its thetas."""
    for k in _X_SCHEDULE:
        x = 2.0**-k
        y = x * x
        try:
            if p == 0.0:
                coeff = det_coeff_log_pair(q, x, y, tol)
            else:
                coeff = det_coeff_power_pair(p, q, x, y, tol)
            if coeff.total >= 0.0:
                continue
        except DegenerateFrameError:
            continue
        yield from _theta_walk(partial(pd_rotation_pair, x, y), k, x, y)


def _first_witness(p, q, candidates, cert_tol, tol, exhausted: str) -> Witness:
    """The first candidate that ``_certify`` accepts, as a witness.

    Candidates outside the means' domain are skipped; running out raises
    ``SearchExhaustedError`` with the message ``exhausted``.
    """
    for k, j, x, y, theta, (a, b) in candidates:
        try:
            hit = _certify(p, q, a, b, cert_tol, tol)
        except DomainError:
            continue
        if hit is not None:
            if (k is not None and k >= _SCHEDULE_WARN_K) or j >= _SCHEDULE_WARN_J:
                warnings.warn("counterexample search approached its schedule cap "
                              "(k=%r, j=%d)" % (k, j), RuntimeWarning, stacklevel=3)
            lam, vec = hit
            return Witness(p, q, a, b, lam, vec, x=x, y=y, theta=theta)
    raise SearchExhaustedError(exhausted)


def construct_pd_rotation(
    p: float,
    q: float,
    cert_tol: float = CERT_TOL,
    tol: Tolerances = DEFAULT_TOL,
) -> Witness:
    """Certified witness for -1 < p < 1/2, p != 0 and q > max(0, p).

    Walks x = 2^-k (y = x^2) until the closed-form determinant coefficient
    is negative, then scans theta = 0.1 * 2^-j until the direct eigenvalue
    check certifies.
    """
    p = normalize_exponent(p)
    if not (-1.0 < p < 0.5) or p == 0.0 or not q > max(0.0, p):
        raise PreconditionError(
            "pd-rotation family needs -1 < p < 1/2, p != 0 and q > max(0, p)"
        )
    return _first_witness(
        p, q, _rotation_walk(p, q, tol), cert_tol, tol,
        "pd-rotation schedule exhausted at (%g, %g)" % (p, q),
    )


def construct_log_euclidean(
    q: float,
    cert_tol: float = CERT_TOL,
    tol: Tolerances = DEFAULT_TOL,
) -> Witness:
    """Certified witness for p = 0 (log-Euclidean mean) against q > 0.

    The pd-rotation search at p = 0, guided by the log-Euclidean
    coefficient.
    """
    if not q > 0.0:
        raise PreconditionError("log-euclidean family needs q > 0")
    return _first_witness(
        0.0, q, _rotation_walk(0.0, q, tol), cert_tol, tol,
        "log-euclidean schedule exhausted at q=%g" % q,
    )


def construct_rank_one(
    p: float,
    q: float,
    eps_shift: float = 0.0,
    cert_tol: float = CERT_TOL,
    tol: Tolerances = DEFAULT_TOL,
) -> Witness:
    """Certified witness for 0 < p < q < 1 from the singular rank-one pair.

    The pair is used directly (powers of a semidefinite matrix follow the
    0 ** r = 0 convention); ``eps_shift`` optionally replaces it by the
    eps-shifted positive definite pair.
    """
    if not 0.0 < p < q < 1.0:
        raise PreconditionError("rank-one family needs 0 < p < q < 1")
    return _first_witness(
        p, q, _theta_walk(partial(rank_one_pair, eps_shift=eps_shift)), cert_tol, tol,
        "rank-one schedule exhausted at (%g, %g)" % (p, q),
    )


def construct_scalar_fail(
    p: float,
    q: float,
    cert_tol: float = CERT_TOL,
    tol: Tolerances = DEFAULT_TOL,
) -> Witness:
    """Witness for p > q: scalar power means are strictly monotone.

    With A = I and B = 4 I the difference M_q - M_p is the negative scalar
    gap times the identity, so any unit vector certifies.
    """
    p, q = normalize_exponent(p), normalize_exponent(q)
    if not p > q:
        raise PreconditionError("scalar failure needs p > q")
    a = np.eye(2)
    b = 4.0 * np.eye(2)
    hit = _certify(p, q, a, b, cert_tol, tol)
    if hit is None:
        raise SearchExhaustedError("scalar gap did not certify at (%g, %g)" % (p, q))
    lam, vec = hit
    expected = scalar_power_mean(q, 1.0, 4.0) - scalar_power_mean(p, 1.0, 4.0)
    if abs(lam - expected) > 1e-9 * (1.0 + abs(expected)):
        raise SearchExhaustedError("scalar witness inconsistent with the scalar mean")
    return Witness(p, q, a, b, lam, vec)


def _invert_spd(m: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Exact spectral inverse; strict positivity, no relative floor.

    The dual route inverts witness pairs whose condition number can exceed
    the relative floor used by the public matrix functions.
    """
    dec = eig_sym(m, tol)
    if not dec.eigenvalues[0] > 0.0:
        raise DomainError("cannot invert: matrix is not positive definite")
    out = (dec.basis / dec.eigenvalues) @ dec.basis.T
    return (out + out.T) / 2.0


def find_counterexample(
    p: float,
    q: float,
    cert_tol: float = CERT_TOL,
    tol: Tolerances = DEFAULT_TOL,
) -> Witness:
    """Dispatch an exponent pair to its family and certify a witness.

    Pairs inside the sufficiency region raise ``InRegionError``.  Labels
    reached through the dual reflection construct at (-q, -p), invert the
    matrices, and re-certify directly on the returned pair; the duality
    identity guides the construction but is never trusted for the
    certificate.  The singular rank-one family is shifted by a small
    multiple of the identity before inversion.

    Exponents are normalized first (near-zero values go to the
    log-Euclidean branch) so the dispatch matches what the means actually
    evaluate.
    """
    p, q = normalize_exponent(p), normalize_exponent(q)
    label = classify(p, q)
    if label.case is Case.IN_REGION:
        raise InRegionError("(%g, %g) lies in the sufficiency region" % (p, q))
    if label.case is Case.SCALAR_FAIL:
        return construct_scalar_fail(p, q, cert_tol, tol)

    bp, bq = dual(p, q) if label.via_dual else (p, q)
    if label.case is Case.LOG_EUCLIDEAN:
        base = construct_log_euclidean(bq, cert_tol=cert_tol, tol=tol)
    elif label.case is Case.PD_ROTATION:
        base = construct_pd_rotation(bp, bq, cert_tol=cert_tol, tol=tol)
    else:
        shift = _DUAL_RANK_ONE_SHIFT if label.via_dual else 0.0
        base = construct_rank_one(bp, bq, eps_shift=shift, cert_tol=cert_tol, tol=tol)
    if not label.via_dual:
        return base

    inv_a = _invert_spd(base.a, tol)
    inv_b = _invert_spd(base.b, tol)
    hit = _certify(p, q, inv_a, inv_b, cert_tol, tol)
    if hit is None:
        raise SearchExhaustedError(
            "dual witness failed direct re-certification at (%g, %g)" % (p, q)
        )
    lam, vec = hit
    return Witness(
        p, q, inv_a, inv_b, lam, vec,
        x=base.x, y=base.y, theta=base.theta, dual_applied=True,
    )


def choi_sign_table(
    p_values,
    threshold: float = 1e-12,
    tol: Tolerances = DEFAULT_TOL,
) -> list[tuple[float, tuple[str, str]]]:
    """Eigenvalue sign patterns of C(B^p) - C(B)^p for the Choi example.

    ``B`` is ``CHOI_MATRIX`` and ``C`` the compression onto the top-left
    2x2 corner.  Signs are reported per ascending eigenvalue with the given
    threshold ("0" inside it).  The pattern walks through five intervals:
    (-, +) below -1, (+, +) on (-1, 0), (-, -) on (0, 1), (+, +) on (1, 2)
    and (-, +) above 2.
    """
    comp = compression((0, 1), 3)
    rows = []
    for p in p_values:
        p = float(p)
        if p == 0.0:
            raise PreconditionError("the sign table is over nonzero powers")
        gap = comp.apply(mat_fun(CHOI_MATRIX, Power(p), tol)) - mat_fun(
            comp.apply(CHOI_MATRIX), Power(p), tol
        )
        dec = eig_sym(gap, tol)
        signs = tuple(
            "+" if lam > threshold else "-" if lam < -threshold else "0"
            for lam in dec.eigenvalues
        )
        rows.append((p, signs))
    return rows
