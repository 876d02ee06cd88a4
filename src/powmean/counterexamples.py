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

The families generate theta walks of candidate pairs; one walker certifies
them in order, returns the first hit and ends a walk at a ``DomainError``.
Labels reached through the dual reflection (p, q) -> (-q, -p) walk the
family of the reflected pair, guided at (-q, -p), but yield the exact
reciprocals of its pairs in closed form: by M_p(A^-1, B^-1) =
M_{-p}(A, B)^-1 those violate the order at (p, q) iff the base pairs do at
(-q, -p).

``find_counterexample`` is the one public search: it classifies (p, q),
walks the family of its label and certifies the first candidate whose
smallest eigenvalue lies below -``CERT_TOL`` (a fixed 1e-12).  Every
witness is certified directly: the returned negative eigenvalue and unit
vector come from an eigendecomposition of M_q - M_p on the actual
returned matrices, never from the expansion that guided the search.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .core import _decompose, eig_sym, mat_fun, symmetrize
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
_DUAL_RANK_ONE_SHIFT = 1e-9

#: Classic 3x3 positive definite matrix (due to Choi) whose top-left 2x2
#: compression violates the Jensen power inequality outside 1 <= p <= 2 and
#: -1 <= p <= 0.
CHOI_MATRIX = np.array(
    [[2.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 2.0]]
)
_CHOI_SIGN_THRESHOLD = 1e-12


@dataclass(frozen=True, eq=False)
class Witness:
    """A certified violation of M_p(A, B) <= M_q(A, B).

    ``neg_eigenvalue`` is the smallest eigenvalue of M_q - M_p and
    ``witness`` a unit vector achieving it; ``x``, ``y``, ``theta`` record
    the construction parameters when applicable, and ``k``, ``j`` their
    schedule position x = 2^-k, theta = 0.1 * 2^-j (``None`` where the
    family has no such index).  ``dual_applied`` marks
    witnesses built as the reciprocal of a construction at (-q, -p); their
    ``x``, ``y``, ``theta`` are those of the base construction, so a dual
    pd-rotation witness has ``a = diag(1, 1/x)``.
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
    k: int | None = None
    j: int | None = None


def pd_rotation_pair(x: float, y: float, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """The pair A = diag(1, x), B_t = R_t diag(1, y) R_t^T."""
    if x <= 0.0 or y <= 0.0:
        raise PreconditionError("x and y must be positive")
    return _rotated_pair([1.0, x], [1.0, y], theta)


def _rotated_pair(a_diag, b_diag, theta):
    """diag(a_diag) and R_t diag(b_diag) R_t^T."""
    r = plane_rotation(theta)
    return np.diag(a_diag), symmetrize(r @ np.diag(b_diag) @ r.T)


def rank_one_pair(theta: float) -> tuple[np.ndarray, np.ndarray]:
    """The singular pair A = diag(2, 0), B_t = rank-one projection at angle t."""
    c, s = np.cos(theta), np.sin(theta)
    return np.diag([2.0, 0.0]), np.array([[c * c, c * s], [c * s, s * s]])


def pd_rotation_difference(
    p: float, q: float, x: float, y: float
) -> Callable[[float], np.ndarray]:
    """theta -> M_q(A, B_theta) - M_p(A, B_theta) for the rotated family."""
    return lambda theta: power_mean_gap(p, q, *pd_rotation_pair(x, y, theta))


def rank_one_difference(p: float, q: float) -> Callable[[float], np.ndarray]:
    """theta -> M_q - M_p for the singular rank-one family."""
    return lambda theta: power_mean_gap(p, q, *rank_one_pair(theta))


def _certify(p, q, a, b):
    """Smallest eigenvalue and unit witness of the 2x2 M_q - M_p, if below
    ``-CERT_TOL``, from the unvalidated ``_decompose`` of the exact gap."""
    dec = _decompose(power_mean_gap(p, q, a, b))
    lam = float(dec.eigenvalues[0])
    if lam < -CERT_TOL:
        return lam, dec.basis[:, 0].copy()
    return None


def _theta_walk(pair, k=None, x=None, y=None):
    """The theta schedule as candidates (k, j, x, y, theta, (a, b))."""
    for j, theta in enumerate(_THETA_SCHEDULE):
        yield k, j, x, y, theta, pair(theta)


def _rotation_walks(p, q, via_dual):
    """A theta walk for each x = 2^-k, y = x^2 whose closed-form t^2
    coefficient at (p, q) (the log-Euclidean one at p = 0) is negative.
    With ``via_dual`` the pairs are the exact reciprocals
    diag(1, 1/x), R_t diag(1, 1/y) R_t^T (1/x = 2^k rounds nothing), to be
    certified at (-q, -p).
    """
    for k in _X_SCHEDULE:
        x = 2.0**-k
        y = x * x
        try:
            if p == 0.0:
                coeff = det_coeff_log_pair(q, x, y)
            else:
                coeff = det_coeff_power_pair(p, q, x, y)
            if coeff.total >= 0.0:
                continue
        except DegenerateFrameError:
            continue
        pair = (1.0 / x, 1.0 / y) if via_dual else (x, y)
        yield _theta_walk(partial(pd_rotation_pair, *pair), k, x, y)


def _first_witness(p, q, walks, exhausted: str, via_dual) -> Witness:
    """The first candidate of ``walks`` that ``_certify`` accepts at (p, q),
    as a witness; running out raises ``SearchExhaustedError`` with the
    message ``exhausted``.

    A candidate outside the means' domain (``DomainError``) ends its walk,
    and ends the search if it is the walk's first (j = 0): the eigenvalue
    that fails the floor, y = 4^-k of B_t or about sin^2(theta)/4 for the
    inner mean of a dual pair, only falls as k and j grow.
    """
    for walk in walks:
        for k, j, x, y, theta, (a, b) in walk:
            try:
                hit = _certify(p, q, a, b)
            except DomainError:
                if j == 0:
                    raise SearchExhaustedError(exhausted) from None
                break
            if hit is not None:
                lam, vec = hit
                return Witness(p, q, a, b, lam, vec, x=x, y=y, theta=theta,
                               dual_applied=via_dual, k=k, j=j)
    raise SearchExhaustedError(exhausted)


def _search(case, p, q, via_dual) -> Witness:
    """Certified witness at (p, q) from the family of ``case``, walked at
    its base pair: (p, q), or (-q, -p) on reciprocal pairs with ``via_dual``.
    """
    bp, bq = dual(p, q) if via_dual else (p, q)
    if case is Case.RANK_ONE:
        pair = rank_one_pair
        if via_dual:  # the inverse of the pair shifted by e, in closed form
            e = _DUAL_RANK_ONE_SHIFT
            pair = partial(_rotated_pair, [1 / (2 + e), 1 / e], [1 / (1 + e), 1 / e])
        walks = [_theta_walk(pair)]
    else:
        walks = _rotation_walks(bp, bq, via_dual)
    exhausted = "%s schedule exhausted at (%g, %g)" % (case.value, bp, bq)
    return _first_witness(p, q, walks, exhausted, via_dual)


def find_counterexample(p: float, q: float) -> Witness:
    """Dispatch an exponent pair to its family and certify a witness.

    Pairs inside the sufficiency region raise ``InRegionError``; a pair
    whose family's schedule yields no certified candidate raises
    ``SearchExhaustedError``.  Labels reached through the dual reflection
    walk the family at (-q, -p) on the closed-form reciprocals of its pairs
    (the singular rank-one pair is first shifted by 1e-9 I); the duality
    identity guides the search but is never trusted for the certificate,
    :func:`eig_sym`'s smallest eigenvalue of M_q - M_p on the returned pair.

    Exponents are normalized first (near-zero values go to the
    log-Euclidean branch) so the dispatch matches what the means actually
    evaluate.
    """
    p, q = normalize_exponent(p), normalize_exponent(q)
    label = classify(p, q)
    if label.case is Case.IN_REGION:
        raise InRegionError("(%g, %g) lies in the sufficiency region" % (p, q))
    if label.case is not Case.SCALAR_FAIL:
        return _search(label.case, p, q, label.via_dual)
    # p > q fails for scalars already: with A = I and B = 4 I, M_q - M_p is
    # the negative scalar gap times the identity, so any unit vector certifies.
    walk = [(None, None, None, None, None, (np.eye(2), 4.0 * np.eye(2)))]
    w = _first_witness(p, q, [walk], "scalar gap did not certify at (%g, %g)" % (p, q), False)
    expected = scalar_power_mean(q, 1.0, 4.0) - scalar_power_mean(p, 1.0, 4.0)
    if abs(w.neg_eigenvalue - expected) > 1e-9 * (1.0 + abs(expected)):
        raise SearchExhaustedError("scalar witness inconsistent with the scalar mean")
    return w


def choi_sign_table(p_values) -> list[tuple[float, tuple[str, str]]]:
    """Eigenvalue sign patterns of C(B^p) - C(B)^p for the Choi example.

    ``B`` is ``CHOI_MATRIX`` and ``C`` the compression onto the top-left
    2x2 corner.  Signs are reported per ascending eigenvalue, "0" within
    1e-12 of zero.  The pattern walks through five intervals:
    (-, +) below -1, (+, +) on (-1, 0), (-, -) on (0, 1), (+, +) on (1, 2)
    and (-, +) above 2.
    """
    comp = compression((0, 1), 3)
    rows = []
    for p in p_values:
        p = float(p)
        if p == 0.0:
            raise PreconditionError("the sign table is over nonzero powers")
        f = Power(p)
        gap = comp.apply(mat_fun(CHOI_MATRIX, f)) - mat_fun(comp.apply(CHOI_MATRIX), f)
        dec = eig_sym(gap)
        signs = tuple(
            "+" if lam > _CHOI_SIGN_THRESHOLD else "-" if lam < -_CHOI_SIGN_THRESHOLD else "0"
            for lam in dec.eigenvalues
        )
        rows.append((p, signs))
    return rows
