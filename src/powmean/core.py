"""Dense real symmetric matrix algebra for small matrices (dim 1..8).

Everything downstream rests on four primitives: a symmetrizing constructor,
a deterministic spectral decomposition (closed form for 2x2, cyclic Jacobi
above), spectral matrix functions f(M) = V diag(f(lambda_i)) V^T, and a
Loewner-order verdict that always carries a witness vector.

:func:`eig_sym` validates a caller's matrix once, by :func:`symmetrize`,
so callers that only decompose pass their matrices straight to it; those the
library builds exactly symmetric (a mean's root, a search candidate) skip the
guard through :func:`_decompose`, one matrix or a stack of them, and an order
gap's smallest eigenvalue comes from :func:`_min_eigenvalue`, with no basis.
The solvers rely on exact symmetry.  One matrix, and a 2x2 stack's rows,
run on Python floats: the 2x2 closed form, and at n >= 3 the Jacobi sweeps
of :func:`_jacobi_source`, one per dimension with or without the basis,
each computing a mirrored pair once.  A stack of two or more matrices at
n >= 3 takes one LAPACK ``eigh``, its eigenvectors signed in one array pass
by :func:`_finish_stack` with the per-matrix rule; row i has the bits of
``eigh`` on matrix i alone, finished, and agrees with its single call to
rounding.

All operations are pure functions of their inputs, and no returned array is
mutated in place; :func:`eig_sym` shares its recent results, read-only.
"""

from __future__ import annotations

import functools
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
_HALF_MAX = sys.float_info.max / 2.0


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


def _eig_2x2_row(a: float, b: float, d: float):
    """The 2x2 closed form on the Python floats of [[a, b], [b, d]], for one
    matrix or a stack's row: ascending eigenvalues and the basis rows, or
    ``None`` at a NaN, an |entry| > max / 2 or big^2 outside the normal range."""
    if not (abs(a) <= _HALF_MAX and abs(b) <= _HALF_MAX and abs(d) <= _HALF_MAX):
        return None
    if b == 0.0:
        if a <= d:
            return [a, d], [[1.0, 0.0], [0.0, 1.0]]
        return [d, a], [[0.0, 1.0], [1.0, 0.0]]
    half = 0.5 * (a - d)
    r = math.hypot(half, b)
    mid = 0.5 * (a + d)
    # The eigenvalue of larger magnitude is mid +- r (the sign of mid), the
    # other det / big, so neither cancels.  big^2 bounds det's products.
    big = mid + math.copysign(r, mid)
    if not sys.float_info.min <= big * big < math.inf:
        return None
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
    return [lo, hi], [[x0, x1], [y0, y1]]


def _eig_2x2(m: np.ndarray) -> SpectralDecomposition:
    (a, b), (_, d) = m.tolist()
    done = _eig_2x2_row(a, b, d)
    if done is None:
        symmetrize(m)  # raises where m + m is not finite
        return _rescaled(m, _eig_2x2)
    return SpectralDecomposition(np.array(done[0]), np.array(done[1]))


def _jacobi_source(n: int, vectors: bool) -> str:
    """Source of ``sweeps(flat, rel, cap)``, cyclic Jacobi at dimension ``n``.

    The rotation loop unrolled over the (p, q) pairs in cyclic order: the
    upper triangle of ``flat`` (the matrix, row-major, exactly symmetric)
    lives in locals ``a{i}_{j}`` (i <= j) and, with ``vectors``, the basis
    rows in ``v{i}_{j}``, so a rotation touches no list.  The off-diagonal
    threshold is ``rel`` times the Frobenius norm, its n^2 squares added in
    the order of numpy's pairwise sum (eight partial sums, then pairs, then
    the remainder), so it equals ``float((m * m).sum())`` bit for bit; a
    non-finite sum returns ``None``.  Each statement keeps the loop's
    products and sums in their order, so the results are those of a
    rotation loop over lists, bit for bit.  With ``vectors`` the function
    returns the diagonal and the basis rows; without, it leaves out every
    ``v`` line and returns ``min`` of the diagonal, the same float as the
    first of its stable sort, since no rotation of the diagonal and no
    stop test reads the basis.  Either raises ``NonConvergenceError``
    after ``cap`` sweeps.  The sweeps serve one matrix at a time (a stack
    of two or more at n >= 3 takes LAPACK's ``eigh``).  It exists for speed
    only: when LAPACK replaces :func:`_eig_jacobi`, this generator goes
    with it.
    """
    def a(i, j):
        return "a%d_%d" % (min(i, j), max(i, j))

    def rotate(x, y):
        return "%s, %s = c * %s - s * %s, s * %s + c * %s" % (x, y, x, y, x, y)

    idx = range(n)
    pairs = [(p, q) for p in range(n - 1) for q in idx[p + 1:]]
    upper = ", ".join(a(i, j) if j >= i else "_" for i in idx for j in idx)
    ident = [("v%d_%d" % (i, j), i == j) for i in idx for j in idx]
    squares = ["%s * %s" % (a(i, j), a(i, j)) for i in idx for j in idx]
    blocks = len(squares) // 8 * 8  # n >= 3: at least one block of eight
    partial = [" + ".join(squares[k:blocks:8]) for k in range(8)]
    lines = [
        "def sweeps(flat, rel, cap):",
        "    %s = flat" % upper,
        "    frob2 = ((%s + %s) + (%s + %s)) + ((%s + %s) + (%s + %s))"
        % tuple("(%s)" % s for s in partial),
    ]
    lines += ["    frob2 += %s" % sq for sq in squares[blocks:]]
    lines += [
        "    if not isfinite(frob2):",
        "        return None",
        "    thresh = rel * sqrt(frob2)",
    ]
    if vectors:
        lines += [
            "    %s = 1.0" % " = ".join(v for v, diag in ident if diag),
            "    %s = 0.0" % " = ".join(v for v, diag in ident if not diag),
        ]
    lines += [
        # One extra sweep after crossing the threshold: clustered spectra
        # need off-diagonals at machine level for accurate eigenvectors.
        "    polish = 1",
        "    for _ in range(cap):",
        "        if %s:" % " and ".join("abs(%s) <= thresh" % a(p, q) for p, q in pairs),
        "            if polish == 0:",
        "                break",
        "            polish -= 1",
    ]
    for p, q in pairs:
        apq, app, aqq = a(p, q), a(p, p), a(q, q)
        lines += [
            "        if %s != 0.0:" % apq,
            "            tau = (%s - %s) / (2.0 * %s)" % (aqq, app, apq),
            "            t = copysign(1.0, tau) / (abs(tau) + sqrt(1.0 + tau * tau))",
            "            c = 1.0 / sqrt(1.0 + t * t)",
            "            s = t * c",
        ]
        lines += ["            " + rotate(a(p, j), a(q, j)) for j in idx if j != p and j != q]
        lines += [
            "            %s, %s = (c * (c * %s - s * %s) - s * (c * %s - s * %s),"
            % (app, aqq, app, apq, apq, aqq),
            "                s * (s * %s + c * %s) + c * (s * %s + c * %s))"
            % (app, apq, apq, aqq),
            "            %s = 0.0" % apq,
        ]
        if vectors:
            lines += ["            " + rotate("v%d_%d" % (p, j), "v%d_%d" % (q, j)) for j in idx]
    diagonal = ", ".join(a(i, i) for i in idx)
    lines += [
        "    else:",
        "        raise NonConvergenceError('Jacobi sweeps exceeded the cap of %d' % cap)",
    ]
    if vectors:
        basis = ", ".join("[%s]" % ", ".join("v%d_%d" % (i, j) for j in idx) for i in idx)
        lines.append("    return [%s], [%s]" % (diagonal, basis))
    else:
        lines.append("    return min(%s)" % diagonal)
    return "\n".join(lines) + "\n"


#: Compiled Jacobi sweeps by ``(n, vectors)``, filled on first use: compiling
#: all twelve at import would slow every start-up.  Order checks need only
#: the eigenvalue-only variants, decompositions only the full ones.
_JACOBI_SWEEPS: dict = {}


def _sweeps(n: int, vectors: bool):
    """The compiled :func:`_jacobi_source` ``(n, vectors)``, compiled on first use."""
    sweeps = _JACOBI_SWEEPS.get((n, vectors))
    if sweeps is None:
        namespace = {"copysign": math.copysign, "sqrt": math.sqrt, "isfinite": math.isfinite,
                     "NonConvergenceError": NonConvergenceError}
        name = "<jacobi sweeps n=%d%s>" % (n, "" if vectors else " eigenvalues")
        exec(compile(_jacobi_source(n, vectors), name, "exec"), namespace)
        sweeps = _JACOBI_SWEEPS[n, vectors] = namespace["sweeps"]
    return sweeps


def _jacobi_row(flat: list, n: int):
    """Cyclic Jacobi on the Python floats of one n x n matrix, row-major in
    ``flat``: ascending eigenvalues (a stable sort, so ties keep their
    diagonal order) and the eigenvectors, the basis columns, with their signs
    fixed; ``None`` where the squares overflow (the caller rescales)."""
    # Rotations run on Python floats: at n <= 8 a numpy call per row or
    # column costs more than its arithmetic.  Every product and sum rounds
    # once (no fused multiply-add), as separate numpy ufuncs do.
    done = _sweeps(n, True)(flat, _JACOBI_THRESHOLD, _JACOBI_SWEEP_CAP)
    if done is None:
        return None
    diag, vt = done
    order = sorted(range(n), key=diag.__getitem__)
    return [diag[i] for i in order], [_fix_sign(*vt[i]) for i in order]


def _eig_jacobi(m: np.ndarray) -> SpectralDecomposition:
    done = _jacobi_row(m.ravel().tolist(), m.shape[0])
    if done is None:
        # Entries above ~1e154 overflow the squares (an infinite threshold
        # would stop the sweeps after one pass), and near the top of the
        # range the rotations overflow too.
        return _rescaled(m, _eig_jacobi)
    return SpectralDecomposition(np.array(done[0]), np.array(done[1]).T)


def eig_sym(m) -> SpectralDecomposition:
    """Spectral decomposition of a real symmetric matrix.

    The input is validated and averaged by :func:`symmetrize` here, once;
    this is the validating entry point for a caller's matrix.  A 2x2
    takes the closed-form rotation: its eigenvalue of larger magnitude is
    mid +- r, the other det / that one, so neither cancels.  Larger input
    takes cyclic Jacobi sweeps, with the off-diagonal threshold 1e-12 times
    the Frobenius norm and a hard cap on sweeps.  Deterministic for fixed
    input.  Callers repeat matrices (the inversion duality decomposes A and
    B twice), so the last eight results are kept by the validated matrix's
    bytes, and a repeat is a lookup: the arrays are shared and read-only.
    An error is never kept.

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
    return _recent(m.tobytes(), m.shape[0])


@functools.lru_cache(maxsize=8)
def _recent(data: bytes, n: int) -> SpectralDecomposition:
    """:func:`_decompose` of the n x n matrix in ``data``, read-only."""
    dec = _decompose(np.frombuffer(data).reshape(n, n))
    dec.eigenvalues.flags.writeable = dec.basis.flags.writeable = False
    return dec


def _decompose(m: np.ndarray) -> SpectralDecomposition:
    """:func:`eig_sym` of ``m`` bitwise equal to its transpose: its own symmetric
    part, so :func:`symmetrize` runs only to raise, at a NaN or an |entry| > max / 2.

    ``m`` may be an ``(N, n, n)`` stack of such matrices: the result is then
    stacked, ``(N, n)`` eigenvalues and ``(N, n, n)`` bases, and the first
    row whose call alone raises raises that error.  Row i has the bits of
    ``_decompose(m[i])`` at n <= 2 or N = 1, and at n >= 3 those of LAPACK's
    ``eigh`` on ``m[i]`` alone, finished by :func:`_finish_stack`, unless a
    row sends the stack to the single calls (see :func:`_decompose_stack`).
    """
    if m.ndim == 3:
        return _decompose_stack(m)
    n = m.shape[0]
    if n == 2:
        return _eig_2x2(m)
    if not all(map(math.isfinite, (m + m).flat)):
        symmetrize(m)  # raises
    if n == 1:
        return SpectralDecomposition(np.array([m[0, 0]]), np.ones((1, 1)))
    return _eig_jacobi(m)


def _decompose_stack(m: np.ndarray) -> SpectralDecomposition:
    """:func:`_decompose` of a stack, its results built as one array each.

    A stack of one is its single call.  A 2x2 row takes the closed form on
    its Python floats.  At n >= 3 one LAPACK ``eigh`` decomposes all rows,
    :func:`_finish_stack` signs their eigenvectors, and an ``eigh`` that
    fails raises ``NonConvergenceError``.  A row outside the guard of a
    single call, or an ``eigh`` result that is not finite, sends the stack
    to the single calls in row order, so its first failing row raises, or
    rescales, as it does alone.
    """
    count, n = m.shape[:2]
    if count == 1:
        dec = _decompose(m[0])
        return SpectralDecomposition(dec.eigenvalues[None], dec.basis[None])
    if n == 2:
        vals, bases = [], []
        for i, (a, b, _, d) in enumerate(m.reshape(count, 4).tolist()):
            done = _eig_2x2_row(a, b, d)
            if done is None:
                # The row raises, or takes _rescaled, as a single call.
                dec = _decompose(m[i])
                done = dec.eigenvalues.tolist(), dec.basis.tolist()
            vals.append(done[0])
            bases.append(done[1])
        return SpectralDecomposition(np.array(vals).reshape(count, 2),
                                     np.array(bases).reshape(count, 2, 2))
    # |x| <= max / 2 iff x + x is finite: the guard of a single call.
    if (np.abs(m) <= _HALF_MAX).all():
        if n == 1:
            return SpectralDecomposition(m[:, 0].copy(), np.ones((count, 1, 1)))
        try:
            vals, vecs = np.linalg.eigh(m)
        except np.linalg.LinAlgError as exc:
            raise NonConvergenceError("LAPACK eigh: %s" % exc) from None
        if np.isfinite(vals).all() and np.isfinite(vecs).all():
            return _finish_stack(vals, vecs.mT)
    decs = [_decompose(row) for row in m]
    # Transposed twice, each basis keeps a single call's memory order.
    return SpectralDecomposition(np.array([dec.eigenvalues for dec in decs]),
                                 np.array([dec.basis.T for dec in decs]).mT)


def _finish_stack(vals: np.ndarray, rows: np.ndarray) -> SpectralDecomposition:
    """A stack's eigenpairs from LAPACK's ``eigh``, finished in one array pass:
    ``vals`` (N, n) as ``eigh`` gives them, ascending, and each eigenvector,
    a row of ``rows`` (N, n, n), signed by :func:`_fix_sign`'s rule (the
    first entry of largest |value| made non-negative).  The bases are the
    transposed rows, so each keeps the memory order of a single call's and
    numpy's matmul rounds a stack's rows alike."""
    pivots = np.take_along_axis(rows, np.abs(rows).argmax(axis=2)[:, :, None], axis=2)
    signed = rows.copy(order="C")
    np.negative(signed, out=signed, where=pivots < 0.0)
    return SpectralDecomposition(vals, signed.mT)


def _spectrum_values(f: ScalarFunction, eigs: np.ndarray) -> np.ndarray:
    """``f`` of each ascending row of ``eigs``, one spectrum ``(n,)`` or a stack
    ``(N, n)``, under the domain rules of :func:`mat_fun` row by row: the
    first failing row raises, with the message a call on that row alone gives."""
    if isinstance(f, Exp):
        return np.exp(eigs)
    log = isinstance(f, Log)
    if not log:
        if not isinstance(f, Power):
            raise TypeError("unsupported scalar function tag: %r" % (f,))
        r = f.exponent
        if r == round(r) and r >= 0.0:
            return eigs ** int(round(r))
    if eigs.ndim == 1:
        row = eigs.tolist()
        ends = ((row[0], row[-1]),)
    else:
        ends = zip(eigs[:, 0].tolist(), eigs[:, -1].tolist())
    clamp, floors = False, []
    for lo, hi in ends:
        # Each row ascends (NaN sorts last), so its ends hold its largest |value|.
        floor = PSD_FLOOR * max(abs(hi), abs(lo))
        floors.append(floor)
        if lo <= floor:
            if log:
                raise DomainError("log needs eigenvalues > %.3e, smallest is %.3e" % (floor, lo))
            if r <= 0.0:
                raise DomainError(
                    "power %g needs eigenvalues > %.3e, smallest is %.3e" % (r, floor, lo)
                )
            if lo < -floor:
                raise DomainError("power %g needs eigenvalues >= 0, smallest is %.3e" % (r, lo))
            clamp = True
    if log:
        return np.log(eigs)
    if clamp:
        # eigenvalues inside the floor are true zeros up to rounding; mapping
        # their junk magnitude through a fractional power would inflate it.
        if eigs.ndim > 1:
            floor = np.array(floors)[:, None]
        eigs = np.where(eigs <= floor, 0.0, eigs)
    return eigs**r


def spectral_fun(dec: SpectralDecomposition, f: ScalarFunction) -> np.ndarray:
    """``f`` applied to a matrix already decomposed by :func:`eig_sym`, or to
    a stack of them: ``(N, n)`` eigenvalue rows with ``(N, n, n)`` bases.

    Computes V diag(f(lambda_i)) V^T, exactly symmetric, under the domain
    rules of :func:`mat_fun` for each matrix; one decomposition can serve
    several functions.  A stack gives, matrix by matrix, the bits of single
    calls, and raises the error of its first failing row.
    """
    vals = _spectrum_values(f, dec.eigenvalues)
    basis = dec.basis
    out = (basis * (vals if vals.ndim == 1 else vals[:, None, :])) @ basis.mT
    return (out + out.mT) / 2.0


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
    """The verdict 0 <= D under ``ORDER_SLACK``, ``d`` exactly symmetric."""
    dec = _decompose(d)
    lam = float(dec.eigenvalues[0])
    margin = lam + ORDER_SLACK * (1.0 + float(np.abs(d).max()))
    return OrderVerdict(margin, lam, dec.basis[:, 0].copy())


def _min_eigenvalue(d):
    """lambda_min(D) and max|D| of ``d`` exactly symmetric, on its Python floats,
    with the bits :func:`_order_verdict` reads from :func:`_decompose`; ``None``
    where that call would raise or rescale (the caller takes the full verdict).

    A 2x2 takes the closed form's smaller eigenvalue, and n >= 3 the
    eigenvalue-only Jacobi sweeps.  Only the sweep cap raises here, with the
    message a decomposition gives.
    """
    flat = d.ravel().tolist()
    mags = list(map(abs, flat))
    # Every entry is tested: max() skips a NaN that does not come first.
    if not all(map(_HALF_MAX.__ge__, mags)):
        return None
    n = d.shape[0]
    if n == 1:
        lam = flat[0]
    elif n == 2:
        done = _eig_2x2_row(flat[0], flat[1], flat[3])
        if done is None:
            return None
        lam = done[0][0]
    else:
        lam = _sweeps(n, False)(flat, _JACOBI_THRESHOLD, _JACOBI_SWEEP_CAP)
        if lam is None:
            return None
    return lam, max(mags)


def random_pd(dim: int, seed: int, condition_spread: float = 10.0) -> np.ndarray:
    """Seeded random symmetric positive definite matrix.

    Eigenvalues are drawn log-uniformly in
    ``[1/condition_spread, condition_spread]`` and conjugated by a random
    orthogonal basis, so ``condition_spread == 1`` forces the identity.
    Deterministic per ``(dim, seed, condition_spread)``.  The draws are
    those of :func:`_random_pd_spectra` for one spread; the matrix is
    Q diag(lambda) Q^T, averaged with its transpose.
    """
    vals, q = _random_pd_spectra(np.random.default_rng(seed), dim, [condition_spread])
    m = (q * vals[:, None, :]) @ q.transpose(0, 2, 1)
    return ((m + m.transpose(0, 2, 1)) / 2.0)[0]


def _random_pd_spectra(rng: np.random.Generator, dim: int, spreads):
    """Eigenvalues ``(N, dim)`` and orthogonal bases ``(N, dim, dim)`` (eigenvectors
    as columns) of :func:`random_pd`'s matrices, one per entry of ``spreads``.

    Row i of the eigenvalues comes from row i of one uniform ``(N, dim)`` block,
    basis i from slice i of one later normal ``(N, dim, dim)`` block, both drawn
    from ``rng``.  The eigenvalues are in draw order, not sorted.
    """
    if not 1 <= dim <= MAX_DIM:
        raise PreconditionError("dimension %d outside 1..%d" % (dim, MAX_DIM))
    if not all(1.0 <= spread < math.inf for spread in spreads):
        raise PreconditionError("condition_spread must be finite and >= 1")
    # math.log, not np.log: numpy misses libm by one bit on some inputs.
    scale = np.reshape([math.log(spread) for spread in spreads], (-1, 1))
    logs = rng.uniform(-1.0, 1.0, (len(scale), dim)) * scale
    q, r = np.linalg.qr(rng.standard_normal((len(scale), dim, dim)))
    q = q * np.where(np.diagonal(r, axis1=1, axis2=2) >= 0.0, 1.0, -1.0)[:, None, :]
    return np.exp(logs), q
