"""Dense real symmetric matrix algebra for small matrices (dim 1..8).

Everything downstream rests on four primitives: a symmetrizing constructor,
a deterministic spectral decomposition (closed form for 2x2, cyclic Jacobi
above), spectral matrix functions f(M) = V diag(f(lambda_i)) V^T, and a
Loewner-order verdict that always carries a witness vector.

:func:`eig_sym` is the one validating entry point of the spectral layer: it
runs :func:`symmetrize` on its input, so callers that only decompose pass
their matrices straight to it rather than validating them first.  Its
solvers rely on that input being exactly symmetric: Jacobi keeps it so
through every rotation, computing each mirrored pair of entries once.

All operations are pure functions of their inputs; arrays are never mutated
in place once returned.
"""

from __future__ import annotations

import math
import sys
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
_JACOBI_THRESHOLD = 1e-12  # off-diagonal stop, relative to the Frobenius norm
#: Floor below which an eigenvalue counts as non-positive in the spectral
#: functions' domain checks, relative to the largest |eigenvalue|; also the
#: unitality slack of maps.
PSD_FLOOR = 1e-10
#: Node separation (relative to 1 + the nodes' magnitude) below which divided
#: differences take their derivative-based confluent form; also the margin
#: by which an expansion frame's denominators must avoid zero.
CONFLUENT_GAP = 1e-7
#: Slack of every Loewner-order verdict: D >= 0 holds iff
#: lambda_min(D) + ORDER_SLACK * (1 + max|D|) >= 0.  It absorbs rounding
#: only; the library, the fuzz and ``scan`` all read this one value.
ORDER_SLACK = 1e-10


class SpectralDecomposition(NamedTuple):
    """Ascending eigenvalues and an orthogonal matrix of column eigenvectors."""

    eigenvalues: np.ndarray
    basis: np.ndarray


@dataclass(frozen=True)
class OrderVerdict:
    """Outcome of a Loewner comparison A <= B, which holds iff ``margin`` >= 0.

    ``min_eigenvalue`` is the smallest eigenvalue of B - A, ``margin`` that
    plus the fixed ``ORDER_SLACK * (1 + max|B - A|)``, and ``witness`` a unit
    vector achieving it, so a failed verdict is certified by
    witness^T (B - A) witness < 0.
    """

    margin: float
    min_eigenvalue: float
    witness: np.ndarray

    @property
    def holds(self) -> bool:
        return self.margin >= 0.0


def symmetrize(m) -> np.ndarray:
    """Validate a square matrix and return its exactly symmetric part.

    Asymmetry up to 1e-13 (relative to 1 + the max entry) is
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
        if asym > _MAX_ASYMMETRY * (1.0 + float(np.abs(m).max())):
            raise PreconditionError("asymmetry %.3e exceeds the construction guard" % asym)
    if not finite:
        raise PreconditionError(
            "symmetric part overflows: max |entry| %.3e" % float(np.abs(m).max())
        )
    return sym


def _fix_sign(x: float, y: float, *rest: float) -> tuple[float, ...]:
    # The first entry of largest |value| of a column is made non-negative.
    pivot = x if abs(x) >= abs(y) else y
    if not rest:  # the 2x2 closed form, a hot path
        return (-x, -y) if pivot < 0.0 else (x, y)
    for z in rest:
        if abs(z) > abs(pivot):
            pivot = z
    return tuple([-v for v in (x, y, *rest)]) if pivot < 0.0 else (x, y, *rest)


def _rescaled(m: np.ndarray, decompose) -> SpectralDecomposition:
    """Decompose ``m`` through m / 2^e with max |entry| below 1.

    For matrices whose entry products leave the normal range.  A power-of-two
    scale rounds no normal number, so the basis serves ``m`` as it is and
    only the eigenvalues scale back, unless they exceed the float range.
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
    # The eigenvalue of larger magnitude is mid +- r (the sign of mid), the
    # other det / big, so neither cancels.  big^2 bounds det's products.
    big = mid + math.copysign(r, mid)
    if not sys.float_info.min <= big * big < math.inf:
        return _rescaled(m, _eig_2x2)
    other = (a * d - b * b) / big  # clamped below: rounding may cross big
    lo, hi = (min(other, big), big) if big > 0.0 else (big, max(other, big))
    # Cancellation-free eigenvector for the larger eigenvalue.
    if half >= 0.0:
        ux, uy = r + half, b
    else:
        ux, uy = b, r - half
    nrm = math.hypot(ux, uy)
    c, s = ux / nrm, uy / nrm
    (x0, y0), (x1, y1) = _fix_sign(-s, c), _fix_sign(c, s)
    return SpectralDecomposition(np.array([lo, hi]), np.array([[x0, x1], [y0, y1]]))


def _eig_jacobi(m: np.ndarray) -> SpectralDecomposition:
    with np.errstate(over="ignore"):
        frob2 = float((m * m).sum())
    if not math.isfinite(frob2):
        # Entries above ~1e154 overflow the squares (an infinite threshold
        # would stop the sweeps after one pass), and near the top of the
        # range the rotations overflow too.
        return _rescaled(m, _eig_jacobi)
    # Rotations run on Python floats: at n <= 8 a numpy call per row or
    # column costs more than its arithmetic.  Every product and sum rounds
    # once (no fused multiply-add), as separate numpy ufuncs do, so results
    # match a vectorised sweep bit for bit.
    n = m.shape[0]
    a = m.tolist()
    vt = np.eye(n).tolist()  # rows of vt are the columns of the basis
    thresh = _JACOBI_THRESHOLD * math.sqrt(frob2)
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
            rowp, rowq = a[p], a[q]
            # a stays exactly symmetric: each off-block pair is computed once.
            for j in idx:
                if j != p and j != q:
                    x, y = rowp[j], rowq[j]
                    rowp[j] = a[j][p] = c * x - s * y
                    rowq[j] = a[j][q] = s * x + c * y
            app, aqq = rowp[p], rowq[q]
            rowp[p] = c * (c * app - s * apq) - s * (c * apq - s * aqq)
            rowq[q] = s * (s * app + c * apq) + c * (s * apq + c * aqq)
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
    order = sorted(idx, key=lambda i: a[i][i])  # stable: ties keep their diagonal order
    basis = np.array([_fix_sign(*vt[i]) for i in order]).T
    return SpectralDecomposition(np.array([a[i][i] for i in order]), basis)


def eig_sym(m) -> SpectralDecomposition:
    """Spectral decomposition of a real symmetric matrix.

    The input is validated and averaged by :func:`symmetrize` here, once;
    this is the one validating entry point for every decomposition.  A 2x2
    takes the closed-form rotation: its eigenvalue of larger magnitude is
    mid +- r, the other det / that one, so neither cancels.  Larger input
    takes cyclic Jacobi sweeps, with the off-diagonal threshold 1e-12 times
    the Frobenius norm and a hard cap on sweeps.  Deterministic for fixed
    input.

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
    return _eig_jacobi(m)


def _spectrum_values(f: ScalarFunction, eigs: np.ndarray) -> np.ndarray:
    if isinstance(f, Exp):
        return np.exp(eigs)
    # The spectrum ascends (NaN sorts last), so its ends hold the largest |value|.
    floor = PSD_FLOOR * max(abs(float(eigs[-1])), abs(float(eigs[0])))
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


def spectral_fun(dec: SpectralDecomposition, f: ScalarFunction) -> np.ndarray:
    """``f`` applied to a matrix already decomposed by :func:`eig_sym`.

    Computes V diag(f(lambda_i)) V^T, exactly symmetric, under the domain
    rules of :func:`mat_fun`; one decomposition can serve several functions.
    """
    vals = _spectrum_values(f, dec.eigenvalues)
    out = (dec.basis * vals) @ dec.basis.T
    return (out + out.T) / 2.0


def mat_fun(m, f: ScalarFunction) -> np.ndarray:
    """Spectral matrix function: apply a scalar function to the eigenvalues.

    Parameters
    ----------
    m : array_like
        Real symmetric matrix.
    f : Power | Log | Exp
        Scalar function tag.  ``Power(r)`` with r a nonnegative integer is
        unrestricted; with r > 0 fractional it admits positive semidefinite
        input, treating eigenvalues within ``PSD_FLOOR * norm(m)`` of zero as
        exact zeros (0 ** r = 0); ``Power(r <= 0)`` and ``Log`` require all
        eigenvalues above that floor.

    Raises
    ------
    DomainError
        If an eigenvalue violates the function's domain as above.
    """
    return spectral_fun(eig_sym(m), f)


def loewner_leq(a, b) -> OrderVerdict:
    """Decide A <= B in the Loewner order, with a witness.

    The verdict holds iff the smallest eigenvalue of B - A is at least
    ``-ORDER_SLACK * (1 + max|B - A|)``; the witness is the corresponding
    unit eigenvector either way.
    """
    a = symmetrize(a)
    b = symmetrize(b)
    if a.shape != b.shape:
        raise DimensionMismatchError("cannot compare %r with %r" % (a.shape, b.shape))
    return _order_verdict(b - a)


def _order_verdict(d) -> OrderVerdict:
    """The verdict 0 <= D under ``ORDER_SLACK``; :func:`eig_sym` validates ``d``."""
    dec = eig_sym(d)
    lam = float(dec.eigenvalues[0])
    margin = lam + ORDER_SLACK * (1.0 + float(np.abs(d).max()))
    return OrderVerdict(margin, lam, dec.basis[:, 0].copy())


def random_pd(dim: int, seed: int, condition_spread: float = 10.0) -> np.ndarray:
    """Seeded random symmetric positive definite matrix.

    Eigenvalues are drawn log-uniformly in
    ``[1/condition_spread, condition_spread]`` and conjugated by a random
    orthogonal basis, so ``condition_spread == 1`` forces the identity.
    Deterministic per ``(dim, seed, condition_spread)``.
    """
    return _random_pd_stack(dim, [(seed, condition_spread)])[0]


def _random_pd_stack(dim: int, draws) -> np.ndarray:
    """:func:`random_pd` of each (seed, condition_spread) in ``draws``, as one stack."""
    if not 1 <= dim <= MAX_DIM:
        raise PreconditionError("dimension %d outside 1..%d" % (dim, MAX_DIM))
    if any(spread < 1.0 for _, spread in draws):
        raise PreconditionError("condition_spread must be >= 1")
    rngs = [np.random.default_rng(seed) for seed, _ in draws]
    logs = [g.uniform(-1.0, 1.0, size=dim) * math.log(sp) for g, (_, sp) in zip(rngs, draws)]
    gauss = [g.standard_normal((dim, dim)) for g in rngs]
    q, r = np.linalg.qr(np.reshape(gauss, (-1, dim, dim)))
    q = q * np.where(np.diagonal(r, axis1=1, axis2=2) >= 0.0, 1.0, -1.0)[:, None, :]
    m = (q * np.exp(np.reshape(logs, (-1, 1, dim)))) @ q.transpose(0, 2, 1)
    return (m + m.transpose(0, 2, 1)) / 2.0
