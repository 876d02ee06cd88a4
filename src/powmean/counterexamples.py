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

A theta walk is data, (k, x, y, A, diagonal of B_t): only B_t moves along
it.  One loop prepares each walk's fixed A once (validated, decomposed and
raised to each mean's power), certifies B_t in the schedule's blocks (the
first two angles alone, where half the searches end, then j = 2-5, 6-12 and
13-20 each as one stack), returns the first hit in schedule order and ends
a walk at a ``DomainError``; witnesses and errors are those of certifying
one candidate at a time.  B_t depends only on its schedule position, so
``_block`` builds each block once per process (380 blocks of 1,596 B_t at
most; a rotation is validated as it is built, a projection never),
decomposes it unvalidated and shares both, read-only, with every search.
Labels reached through the dual reflection (p, q) -> (-q, -p) walk the
family of the reflected pair, guided at (-q, -p), but yield the exact
reciprocals of its pairs in closed form: by M_p(A^-1, B^-1) =
M_{-p}(A, B)^-1 those violate the order at (p, q) iff the base pairs do at
(-q, -p).

``find_counterexample`` is the one public search: it classifies (p, q),
walks the family of its label and certifies the first candidate whose
smallest eigenvalue lies below -``CERT_TOL`` (a fixed 1e-12); a pair with
p > q certifies the scalar pair (I, c I), c = 4 for |p|, |q| <= 500.  Every
witness is certified directly: the returned negative eigenvalue and unit
vector come from the closed-form eigendecomposition of M_q - M_p on the
returned matrices, never from the expansion that guided the search.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from typing import Callable

import numpy as np

from .core import SpectralDecomposition, _decompose, _eig_2x2_row, eig_sym, mat_fun, symmetrize
from .errors import (
    DegenerateFrameError,
    DomainError,
    InRegionError,
    PowerMeanError,
    PreconditionError,
    SearchExhaustedError,
)
from .expansions import det_coeff_log_pair, det_coeff_power_pair
from .functions import Power
from .maps import compression, plane_rotation
from .means import _decomposed_gap, normalize_exponent, scalar_power_mean
from .region import Case, classify, dual

CERT_TOL = 1e-12
_X_SCHEDULE = range(4, 41)
_THETA_SCHEDULE = tuple(0.1 * 2.0**-j for j in range(21))
#: The (start, stop) blocks in which a walk certifies ``_THETA_SCHEDULE``.
_BLOCKS = ((0, 1), (1, 2), (2, 6), (6, 13), (13, 21))
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

    ``p`` and ``q`` are the exponents the means evaluated: those asked, or 0
    for one the means snap to 0 (see :mod:`powmean.means`).
    ``neg_eigenvalue`` is the smallest eigenvalue of M_q - M_p and
    ``witness`` a unit vector achieving it; ``x``, ``y``, ``theta`` record
    the construction parameters when applicable, and ``k``, ``j`` their
    schedule position x = 2^-k, theta = 0.1 * 2^-j (``None`` where the
    family has no such index).  A searched ``b`` is a read-only array that
    every search reaching its candidate shares.  ``dual_applied`` marks
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
    return np.diag([1.0, x]), _rotated([1.0, y], theta)


def _rotated(diagonal, theta):
    """R_t diag(diagonal) R_t^T."""
    r = plane_rotation(theta)
    return symmetrize(r @ np.diag(diagonal) @ r.T)


def rank_one_pair(theta: float) -> tuple[np.ndarray, np.ndarray]:
    """The singular pair A = diag(2, 0), B_t = rank-one projection at angle t."""
    return np.diag([2.0, 0.0]), _projection(theta)


def _projection(theta):
    """The rank-one projection onto (cos t, sin t)."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c * c, c * s], [c * s, s * s]])


def pd_rotation_difference(
    p: float, q: float, x: float, y: float
) -> Callable[[float], np.ndarray]:
    """theta -> M_q(A, B_theta) - M_p(A, B_theta) for the rotated family."""
    return lambda theta: _built_gap(p, q, *pd_rotation_pair(x, y, theta))


def rank_one_difference(p: float, q: float) -> Callable[[float], np.ndarray]:
    """theta -> M_q - M_p for the singular rank-one family."""
    return lambda theta: _built_gap(p, q, *rank_one_pair(theta))


def _built_gap(p, q, a, b):
    """``power_mean_gap`` of A and a B_t built exactly symmetric, so unvalidated."""
    return _decomposed_gap(p, q, eig_sym(a))(_decompose(b))


@cache
def _block(diagonal, start, stop):
    """B_t = R_t diag(diagonal) R_t^T, or the projection at t for ``diagonal``
    None, at the angles start..stop-1, and their unvalidated decomposition,
    stacked unless the block has one angle: read-only, cached by position."""
    build = _projection if diagonal is None else partial(_rotated, diagonal)
    bs = tuple(build(theta) for theta in _THETA_SCHEDULE[start:stop])
    dec = _decompose(bs[0] if len(bs) == 1 else np.stack(bs))
    for m in (*bs, *dec):
        m.flags.writeable = False
    return bs, dec


def _certify(gap, dec_b):
    """Smallest eigenvalue and unit witness of the 2x2 M_q - M_p, if below
    ``-CERT_TOL``, from the gap of a prepared A and one decomposed B."""
    hit = _first_row(gap(dec_b))
    return None if hit is None else hit[1:]


def _first_row(gaps):
    """(i, eigenvalue, unit witness) of the first 2x2 of ``gaps``, one gap or a
    stack, whose smallest eigenvalue lies below ``-CERT_TOL``, or ``None``, with
    the bits of ``_decompose`` of that gap: the closed form on its Python floats,
    a vector made only where a row certifies, and ``_decompose`` where the
    closed form declines a row, to raise or rescale as it does."""
    for i, (a, b, _, d) in enumerate(gaps.reshape(-1, 4).tolist()):
        done = _eig_2x2_row(a, b, d)
        if done is None:
            done = [half.tolist() for half in _decompose(gaps.reshape(-1, 2, 2)[i])]
        (lam, _), ((x, _), (y, _)) = done
        if lam < -CERT_TOL:
            return i, lam, np.array([x, y])
    return None


def _first_hit(gap, dec_b):
    """(i, eigenvalue, witness) of the first B_i of a ``_block`` that
    certifies, or ``None``.  A stack takes one stacked gap, row i with the
    bits of B_i's, read by ``_first_row``; if that raises, ``_certify`` takes
    the rows one by one, so an error is raised only where B_i alone raises
    it, and only if no earlier row certifies."""
    rows = (dec_b,)
    if dec_b.basis.ndim == 3:
        try:
            return _first_row(gap(dec_b))
        except PowerMeanError:
            rows = map(SpectralDecomposition, dec_b.eigenvalues, dec_b.basis)
    for i, row in enumerate(rows):
        hit = _certify(gap, row)
        if hit is not None:
            return (i, *hit)
    return None


def _walks(case, p, q, via_dual):
    """The theta walks (k, x, y, A, diagonal) of the family of ``case`` at its
    base pair (p, q): one fixed A each, and the ``diagonal`` whose ``_block``
    gives B_t and its decomposition at the angles t of ``_THETA_SCHEDULE``.

    Rank-one has one walk, A = diag(2, 0) against the projection at t.  The
    rotations walk each x = 2^-k, y = x^2 whose closed-form t^2 coefficient
    at (p, q) (the log-Euclidean one at p = 0) is negative.  With
    ``via_dual`` the pairs are the exact reciprocals, to be certified at
    (-q, -p): diag(1, 1/x), R_t diag(1, 1/y) R_t^T (1/x = 2^k rounds
    nothing), or the rank-one pair shifted by e I, inverted in closed form.
    """
    if case is Case.RANK_ONE:
        if via_dual:
            e = _DUAL_RANK_ONE_SHIFT
            a, diagonal = np.diag([1 / (2 + e), 1 / e]), (1 / (1 + e), 1 / e)
        else:
            a, diagonal = np.diag([2.0, 0.0]), None
        yield None, None, None, a, diagonal
        return
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
        ax, by = (1.0 / x, 1.0 / y) if via_dual else (x, y)
        yield k, x, y, np.diag([1.0, ax]), (1.0, by)


def _first_witness(p, q, walks, exhausted: str, via_dual) -> Witness:
    """The first candidate (A, B_t) of ``walks`` that ``_certify`` accepts at
    (p, q), in schedule order, as a witness; running out raises
    ``SearchExhaustedError`` with the message ``exhausted``.

    Each walk's A is prepared once and its ``_BLOCKS`` go to ``_first_hit``.
    A candidate outside the means' domain (``DomainError``) ends its walk,
    and ends the search if it is the walk's first (j = 0): the eigenvalue
    that fails the floor, y = 4^-k of B_t or about sin^2(theta)/4 for the
    inner mean of a dual pair, only falls as k and j grow.
    """
    for k, x, y, a, diagonal in walks:
        gap = _decomposed_gap(p, q, eig_sym(a))
        for start, stop in _BLOCKS:
            bs, dec_b = _block(diagonal, start, stop)
            try:
                hit = _first_hit(gap, dec_b)
            except DomainError:
                if start == 0:
                    raise SearchExhaustedError(exhausted) from None
                break
            if hit is not None:
                i, lam, vec = hit
                j = start + i
                return Witness(normalize_exponent(p), normalize_exponent(q), a, bs[i], lam, vec,
                               x=x, y=y, theta=_THETA_SCHEDULE[j], dual_applied=via_dual,
                               k=k, j=j)
    raise SearchExhaustedError(exhausted)


@np.errstate(over="ignore", invalid="ignore")
def find_counterexample(p: float, q: float) -> Witness:
    """Dispatch an exponent pair to its family and certify a witness.

    Pairs inside the sufficiency region raise ``InRegionError``; a pair
    whose family's schedule yields no certified candidate raises
    ``SearchExhaustedError``.  Labels reached through the dual reflection
    walk the family at (-q, -p) on the closed-form reciprocals of its pairs
    (the singular rank-one pair is first shifted by 1e-9 I); the duality
    identity guides the search but is never trusted for the certificate,
    the smallest eigenvalue of M_q - M_p on the returned pair, from the
    unvalidated decomposition behind :func:`eig_sym`.

    The pair is classified and searched as given.  Only the means snap an
    exponent near zero to 0, so a pair outside the region whose exponents
    both evaluate at 0 ends ``SearchExhaustedError``, never ``InRegionError``.
    Numpy's overflow and invalid-value warnings are held back, so a mean that
    overflows raises ``PreconditionError`` at the decomposition that reads it.
    """
    label = classify(p, q)
    if label.case is Case.IN_REGION:
        raise InRegionError("(%g, %g) lies in the sufficiency region" % (p, q))
    if label.case is not Case.SCALAR_FAIL:
        bp, bq = dual(p, q) if label.via_dual else (p, q)
        exhausted = "%s schedule exhausted at (%g, %g)" % (label.case.value, bp, bq)
        walks = _walks(label.case, bp, bq, label.via_dual)
        return _first_witness(p, q, walks, exhausted, label.via_dual)
    # p > q fails for scalars already: with A = I and B = c I, M_q - M_p is
    # the negative scalar gap times the identity, so any unit vector
    # certifies.  c = 4 unless c^p or c^q would pass 2^1000.
    c = 2.0 ** min(2.0, 1000.0 / max(abs(p), abs(q)))
    a, b = np.eye(2), c * np.eye(2)
    hit = _certify(_decomposed_gap(p, q, eig_sym(a)), _decompose(b))
    if hit is None:
        raise SearchExhaustedError("scalar gap did not certify at (%g, %g)" % (p, q))
    expected = scalar_power_mean(q, 1.0, c) - scalar_power_mean(p, 1.0, c)
    if abs(hit[0] - expected) > 1e-9 * (1.0 + abs(expected)):
        raise SearchExhaustedError("scalar witness inconsistent with the scalar mean")
    return Witness(normalize_exponent(p), normalize_exponent(q), a, b, *hit)


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
