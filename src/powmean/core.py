"""Dense real symmetric matrix algebra for small matrices (dim 1..8).

Everything downstream rests on four primitives: a symmetrizing constructor,
a deterministic spectral decomposition (closed form for 2x2, cyclic Jacobi
above), spectral matrix functions f(M) = V diag(f(lambda_i)) V^T, and a
Loewner-order verdict that always carries a witness vector.

:func:`eig_sym` is the one validating entry point of the spectral layer: it
runs :func:`symmetrize` on its input, so callers that only decompose pass
their matrices straight to it rather than validating them first.

All operations are pure functions of their inputs; arrays are never mutated
in place once returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainError,
    NonConvergenceError,
    PreconditionError,
)
from .functions import Exp, Log, Power, ScalarFunction

MAX_DIM = 8
_MAX_ASYMMETRY = 1e-13
_JACOBI_SWEEP_CAP = 100


@dataclass(frozen=True)
class Tolerances:
    """Dimensionless relative scales used throughout the package.

    Attributes
    ----------
    eig : float
        Spectral decomposition accuracy (reconstruction, orthogonality).
    psd : float
        Floor below which an eigenvalue counts as non-positive for domain
        checks, relative to the matrix norm; also the unitality slack.
    order : float
        Slack in Loewner-order verdicts, relative to 1 + the norm of the
        difference.
    confluent : float
        Node separation below which divided differences switch to their
        derivative-based confluent form.
    """

    eig: float = 1e-12
    psd: float = 1e-10
    order: float = 1e-10
    confluent: float = 1e-7

    def __post_init__(self) -> None:
        for name in ("eig", "psd", "order", "confluent"):
            if not getattr(self, name) > 0.0:
                raise PreconditionError("tolerance %r must be positive" % name)
        if not self.confluent > self.eig:
            raise PreconditionError("confluent tolerance must exceed eig tolerance")


DEFAULT_TOL = Tolerances()


class SpectralDecomposition(NamedTuple):
    """Ascending eigenvalues and an orthogonal matrix of column eigenvectors."""

    eigenvalues: np.ndarray
    basis: np.ndarray


@dataclass(frozen=True)
class OrderVerdict:
    """Outcome of a Loewner comparison A <= B.

    ``min_eigenvalue`` is the smallest eigenvalue of B - A and ``witness``
    is a unit vector achieving it, so a failed verdict is certified by
    witness^T (B - A) witness = min_eigenvalue < 0.
    """

    holds: bool
    min_eigenvalue: float
    witness: np.ndarray


def symmetrize(m, max_asymmetry: float = _MAX_ASYMMETRY) -> np.ndarray:
    """Validate a square matrix and return its exactly symmetric part.

    Asymmetry up to ``max_asymmetry`` (relative to 1 + the max entry) is
    treated as accumulation drift and averaged away; anything larger is an
    error rather than silently rewritten.  Finite entries so large that
    the average overflows are an error too.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise PreconditionError("expected a square matrix, got shape %r" % (m.shape,))
    n = m.shape[0]
    if not 1 <= n <= MAX_DIM:
        raise PreconditionError("dimension %d outside 1..%d" % (n, MAX_DIM))
    sym = (m + m.T) / 2.0
    # The average is non-finite iff an entry is or m + m^T overflows.  At
    # n <= 8 Python-level tests beat numpy reductions.
    finite = all(map(math.isfinite, sym.flat))
    if not finite and not np.isfinite(m).all():
        raise PreconditionError("matrix entries must be finite")
    # Bitwise equality with the transpose means zero asymmetry (signed
    # zeros merely fall through to the measured guard).
    if m.tobytes() != m.T.tobytes():
        asym = float(np.abs(m - m.T).max())
        if asym > max_asymmetry * (1.0 + float(np.abs(m).max())):
            raise PreconditionError("asymmetry %.3e exceeds the construction guard" % asym)
    if not finite:
        raise PreconditionError(
            "symmetric part overflows: max |entry| %.3e" % float(np.abs(m).max())
        )
    return sym


def _fix_column_signs(v: np.ndarray) -> np.ndarray:
    idx = np.argmax(np.abs(v), axis=0)
    signs = np.where(v[idx, np.arange(v.shape[1])] < 0.0, -1.0, 1.0)
    return v * signs


def _fix_sign(x: float, y: float) -> tuple[float, float]:
    # _fix_column_signs for one column (x, y): the first entry of largest
    # |value| is made non-negative.
    pivot = x if abs(x) >= abs(y) else y
    return (-x, -y) if pivot < 0.0 else (x, y)


def _rescaled(m: np.ndarray, decompose) -> SpectralDecomposition:
    """Decompose ``m`` through m / 2^e with max |entry| below 1.

    For matrices near the top of the float range.  A power-of-two scale
    rounds no normal number, so the basis serves ``m`` as it is and only the
    eigenvalues scale back, unless they exceed the float range.
    """
    e = math.frexp(float(np.abs(m).max()))[1]
    dec = decompose(np.ldexp(m, -e))
    with np.errstate(over="ignore"):
        vals = np.ldexp(dec.eigenvalues, e)
    if not np.isfinite(vals).all():
        raise PreconditionError(
            "spectrum exceeds the float range: max |entry| %.3e" % float(np.abs(m).max())
        )
    return SpectralDecomposition(vals, dec.basis)


def _eig_1x1(m: np.ndarray) -> SpectralDecomposition:
    return SpectralDecomposition(np.array([m[0, 0]]), np.ones((1, 1)))


def _eig_2x2(m: np.ndarray) -> SpectralDecomposition:
    a = float(m[0, 0])
    b = float(m[0, 1])
    d = float(m[1, 1])
    if b == 0.0:
        if a <= d:
            return SpectralDecomposition(np.array([a, d]), np.eye(2))
        return SpectralDecomposition(np.array([d, a]), np.array([[0.0, 1.0], [1.0, 0.0]]))
    half = 0.5 * (a - d)
    r = math.hypot(half, b)
    mid = 0.5 * (a + d)
    # Cancellation-free eigenvector for the larger eigenvalue.
    if half >= 0.0:
        ux, uy = r + half, b
    else:
        ux, uy = b, r - half
    nrm = math.hypot(ux, uy)
    # nrm >= r, so a finite |mid| + nrm bounds both eigenvalues as well.
    if math.isinf(abs(mid) + nrm):
        return _rescaled(m, _eig_2x2)
    c, s = ux / nrm, uy / nrm
    (x0, y0), (x1, y1) = _fix_sign(-s, c), _fix_sign(c, s)
    return SpectralDecomposition(np.array([mid - r, mid + r]), np.array([[x0, x1], [y0, y1]]))


def _eig_jacobi(m: np.ndarray, tol: Tolerances) -> SpectralDecomposition:
    with np.errstate(over="ignore"):
        frob2 = float((m * m).sum())
    if not math.isfinite(frob2):
        # Entries above ~1e154 overflow the squares (an infinite threshold
        # would stop the sweeps after one pass), and near the top of the
        # range the rotations overflow too.
        return _rescaled(m, lambda scaled: _eig_jacobi(scaled, tol))
    # Rotations run on Python floats: at n <= 8 a numpy call per row or
    # column costs more than its arithmetic.  Every product and sum rounds
    # once (no fused multiply-add), as separate numpy ufuncs do, so results
    # match a vectorised sweep bit for bit.
    n = m.shape[0]
    a = m.tolist()
    vt = np.eye(n).tolist()  # rows of vt are the columns of the basis
    thresh = tol.eig * math.sqrt(frob2)
    pairs = [(p, q) for p in range(n - 1) for q in range(p + 1, n)]
    idx = range(n)
    # One extra sweep after crossing the threshold: clustered spectra need
    # off-diagonals at machine level for accurate eigenvectors.
    polish = 1
    for _ in range(_JACOBI_SWEEP_CAP):
        if all(abs(a[p][q]) <= thresh for p, q in pairs):
            if polish == 0:
                break
            polish -= 1
        for p, q in pairs:
            apq = a[p][q]
            if apq == 0.0:
                continue
            tau = (a[q][q] - a[p][p]) / (2.0 * apq)
            t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
            c = 1.0 / math.sqrt(1.0 + t * t)
            s = t * c
            for row in a:
                x, y = row[p], row[q]
                row[p] = c * x - s * y
                row[q] = s * x + c * y
            rowp, rowq = a[p], a[q]
            for j in idx:
                x, y = rowp[j], rowq[j]
                rowp[j] = c * x - s * y
                rowq[j] = s * x + c * y
            rowp[q] = rowq[p] = 0.0
            vp, vq = vt[p], vt[q]
            for j in idx:
                x, y = vp[j], vq[j]
                vp[j] = c * x - s * y
                vq[j] = s * x + c * y
    else:
        raise NonConvergenceError(
            "Jacobi sweeps exceeded the cap of %d" % _JACOBI_SWEEP_CAP
        )
    diag = np.array([a[i][i] for i in idx])
    order = np.argsort(diag, kind="stable")
    return SpectralDecomposition(diag[order], _fix_column_signs(np.array(vt).T[:, order]))


def eig_sym(m, tol: Tolerances = DEFAULT_TOL) -> SpectralDecomposition:
    """Spectral decomposition of a real symmetric matrix.

    The input is validated and averaged by :func:`symmetrize` here, once;
    this is the one validating entry point for every decomposition.  Uses
    the closed-form rotation for 2x2 and cyclic Jacobi sweeps above, with
    the off-diagonal threshold ``tol.eig`` times the Frobenius norm and a
    hard cap on sweeps.  Deterministic for fixed input.

    Returns
    -------
    SpectralDecomposition
        Eigenvalues ascending; ``basis`` orthogonal with eigenvectors as
        columns, so ``basis @ diag(eigenvalues) @ basis.T`` reconstructs
        the input.

    Raises
    ------
    PreconditionError
        If :func:`symmetrize` rejects the input, or an eigenvalue exceeds
        the float range.
    NonConvergenceError
        If the sweep cap is exceeded (pathological input).
    """
    m = symmetrize(m)
    n = m.shape[0]
    if n == 1:
        return _eig_1x1(m)
    if n == 2:
        return _eig_2x2(m)
    return _eig_jacobi(m, tol)


def _spectrum_values(f: ScalarFunction, eigs: np.ndarray, tol: Tolerances) -> np.ndarray:
    if isinstance(f, Exp):
        return np.exp(eigs)
    # The spectrum ascends (NaN sorts last), so its ends hold the largest |value|.
    floor = tol.psd * max(abs(float(eigs[-1])), abs(float(eigs[0])))
    if isinstance(f, Log):
        if eigs[0] <= floor:
            raise DomainError(
                "log needs eigenvalues > %.3e, smallest is %.3e" % (floor, eigs[0])
            )
        return np.log(eigs)
    if not isinstance(f, Power):
        raise TypeError("unsupported scalar function tag: %r" % (f,))
    r = f.exponent
    if r == round(r) and r >= 0.0:
        return eigs ** int(round(r))
    if r > 0.0:
        if eigs[0] < -floor:
            raise DomainError(
                "power %g needs eigenvalues >= 0, smallest is %.3e" % (r, eigs[0])
            )
        # eigenvalues inside the floor are true zeros up to rounding; mapping
        # their junk magnitude through a fractional power would inflate it
        return np.where(eigs <= floor, 0.0, eigs) ** r
    if eigs[0] <= floor:
        raise DomainError(
            "power %g needs eigenvalues > %.3e, smallest is %.3e" % (r, floor, eigs[0])
        )
    return eigs**r


def spectral_fun(
    dec: SpectralDecomposition, f: ScalarFunction, tol: Tolerances = DEFAULT_TOL
) -> np.ndarray:
    """``f`` applied to a matrix already decomposed by :func:`eig_sym`.

    Computes V diag(f(lambda_i)) V^T, exactly symmetric, under the domain
    rules of :func:`mat_fun`; one decomposition can serve several functions.
    """
    vals = _spectrum_values(f, dec.eigenvalues, tol)
    out = (dec.basis * vals) @ dec.basis.T
    return (out + out.T) / 2.0


def mat_fun(m, f: ScalarFunction, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Spectral matrix function: apply a scalar function to the eigenvalues.

    Parameters
    ----------
    m : array_like
        Real symmetric matrix.
    f : Power | Log | Exp
        Scalar function tag.  ``Power(r)`` with r a nonnegative integer is
        unrestricted; with r > 0 fractional it admits positive semidefinite
        input, treating eigenvalues within ``tol.psd * norm(m)`` of zero as
        exact zeros (0 ** r = 0); ``Power(r <= 0)`` and ``Log`` require all
        eigenvalues above that floor.

    Raises
    ------
    DomainError
        If an eigenvalue violates the function's domain as above.
    """
    return spectral_fun(eig_sym(m, tol), f, tol)


def loewner_leq(a, b, tol: Tolerances = DEFAULT_TOL) -> OrderVerdict:
    """Decide A <= B in the Loewner order, with a witness.

    The verdict holds iff the smallest eigenvalue of B - A is at least
    ``-tol.order * (1 + max|B - A|)``; the witness is the corresponding
    unit eigenvector either way.
    """
    a = symmetrize(a)
    b = symmetrize(b)
    if a.shape != b.shape:
        raise DimensionMismatchError(
            "cannot compare %r with %r" % (a.shape, b.shape)
        )
    d = b - a
    dec = eig_sym(d, tol)
    lam = float(dec.eigenvalues[0])
    scale = 1.0 + float(np.abs(d).max())
    return OrderVerdict(lam >= -tol.order * scale, lam, dec.basis[:, 0].copy())


def random_pd(dim: int, seed: int, condition_spread: float = 10.0) -> np.ndarray:
    """Seeded random symmetric positive definite matrix.

    Eigenvalues are drawn log-uniformly in
    ``[1/condition_spread, condition_spread]`` and conjugated by a random
    orthogonal basis, so ``condition_spread == 1`` forces the identity.
    Deterministic per ``(dim, seed, condition_spread)``.
    """
    if not 1 <= dim <= MAX_DIM:
        raise PreconditionError("dimension %d outside 1..%d" % (dim, MAX_DIM))
    if condition_spread < 1.0:
        raise PreconditionError("condition_spread must be >= 1")
    rng = np.random.default_rng(seed)
    vals = np.exp(rng.uniform(-1.0, 1.0, size=dim) * math.log(condition_spread))
    gauss = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(gauss)
    q = q * np.where(np.diag(r) >= 0.0, 1.0, -1.0)
    m = (q * vals) @ q.T
    return (m + m.T) / 2.0
