"""The slow, obvious implementations that the library's fast paths replaced,
each written once, and ``words``, the one form in which a fast path and its
reference are compared bit for bit.

A reference does one thing at a time: one matrix, one trial, one candidate,
with no cache.  Each fast path must give the words of its reference, the
same bits or the same error; ``test_fast_paths`` pairs them.
"""

import math
import sys
from unittest import mock

import numpy as np

from powmean import (EXP, LOG, DomainError, NonConvergenceError, Power, PowerMeanError,
                     SearchExhaustedError, classify, core, dual, eig_sym, fuzz,
                     normalize_exponent, symmetrize)
from powmean import counterexamples as ce


def words(fn, *args):
    """What ``fn(*args)`` gives, as a list of words: the ``float.hex`` of each
    float and array entry of its result, in order through tuples and lists,
    and the repr of anything else; a ``Witness`` gives its a, b, eigenvalue
    and vector, then k, j and the dual flag.  A ``PowerMeanError`` gives one
    word, its class and message."""
    try:
        result = fn(*args)
    except PowerMeanError as exc:
        return ["%s:%s" % (type(exc).__name__, exc)]
    return list(_words(result))


def _words(x):
    if isinstance(x, ce.Witness):
        x = (x.a, x.b, x.neg_eigenvalue, x.witness, x.k, x.j, x.dual_applied)
    if isinstance(x, np.ndarray):
        yield from map(float.hex, x.ravel().tolist())
    elif isinstance(x, float):
        yield float.hex(x)
    elif isinstance(x, (tuple, list)):
        for v in x:
            yield from _words(v)
    else:
        yield repr(x)


def jacobi(m):
    """The cyclic Jacobi rotation loop over lists that the compiled sweeps
    replaced."""
    with np.errstate(over="ignore"):
        frob2 = float((m * m).sum())
    if not math.isfinite(frob2):
        return core._rescaled(m, jacobi)
    n = m.shape[0]
    a = m.tolist()
    vt = np.eye(n).tolist()  # rows of vt are the columns of the basis
    thresh = core._JACOBI_THRESHOLD * math.sqrt(frob2)
    pairs = [(p, q) for p in range(n - 1) for q in range(p + 1, n)]
    idx = range(n)
    polish = 1
    for _ in range(core._JACOBI_SWEEP_CAP):
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
        raise NonConvergenceError("Jacobi sweeps exceeded the cap of %d" % core._JACOBI_SWEEP_CAP)
    order = sorted(idx, key=lambda i: a[i][i])
    basis = np.array([core._fix_sign(*vt[i]) for i in order]).T
    return core.SpectralDecomposition(np.array([a[i][i] for i in order]), basis)


def jacobi_inputs(dim, seed):
    """Seeded symmetric matrices of every kind the sweeps must round alike."""
    rng = np.random.default_rng([dim, seed])
    g = rng.standard_normal((dim, dim))
    t = rng.integers(-2, 3, size=(dim, dim)).astype(float)
    sparse = (g + g.T) * (rng.random((dim, dim)) < 0.5)
    base = [
        g @ g.T + 0.1 * np.eye(dim),  # positive definite
        g + g.T,  # indefinite
        t + t.T,  # integer-valued, with exact ties among entries and eigenvalues
        np.diag(rng.integers(-2, 3, size=dim).astype(float)),  # no off-diagonal
        (sparse + sparse.T) / 2.0,  # some zero off-diagonals
    ]
    for m in base:
        yield from (m, m * 2.0**40, m * 2.0**-40)
    # squares overflow: these take the rescaled route
    yield from ((g + g.T) * 1e156, g @ g.T * 1e155)


def array_guard_decompose(m):
    """``core._decompose`` of one exactly symmetric 2x2 with its guard on the
    array: ``symmetrize`` raises where m + m is not finite, and the closed
    form, without its own guard, sees only entries within max / 2 and
    rescales where big^2 leaves the normal range."""
    if not all(map(math.isfinite, (m + m).flat)):
        symmetrize(m)  # raises
    (a, b), (_, d) = m.tolist()
    with mock.patch.object(core, "_HALF_MAX", math.inf):
        done = core._eig_2x2_row(a, b, d)
    if done is None:
        return core._rescaled(m, array_guard_decompose)
    return core.SpectralDecomposition(np.array(done[0]), np.array(done[1]))


def spectrum_from_draws(u, gauss, condition_spread):
    """Eigenvalues, in draw order, and orthogonal basis of one random_pd
    matrix from its own uniform row ``u`` and normal slice ``gauss``."""
    vals = np.exp(u * math.log(condition_spread))
    q, r = np.linalg.qr(gauss)
    return vals, q * np.where(np.diag(r) >= 0.0, 1.0, -1.0)


def composed(vals, basis):
    """The matrix Q diag(vals) Q^T as random_pd composes it."""
    m = (basis * vals) @ basis.T
    return (m + m.T) / 2.0


def random_pd(dim, seed, condition_spread):
    """``random_pd``: one uniform row, then one normal block, one matrix."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(-1.0, 1.0, size=dim)
    return composed(*spectrum_from_draws(u, rng.standard_normal((dim, dim)), condition_spread))


def random_pd_spectra(rng, dim, spreads):
    """``core._random_pd_spectra``: one uniform block, then one normal block,
    from ``rng``, and spectrum i built alone from row i and slice i."""
    u = rng.uniform(-1.0, 1.0, (len(spreads), dim))
    gauss = rng.standard_normal((len(spreads), dim, dim))
    return [spectrum_from_draws(u[i], gauss[i], spread) for i, spread in enumerate(spreads)]


def _ascending(vals, basis):
    order = np.argsort(vals, kind="stable")
    return core.SpectralDecomposition(vals[order], basis[:, order])


def power_sum(r, dec_a, dec_b):
    """S_r = f(A)/2 + f(B)/2 of one decomposed pair, f = X^r or log at r = 0."""
    f = LOG if r == 0.0 else Power(r)
    return 0.5 * core.spectral_fun(dec_a, f) + 0.5 * core.spectral_fun(dec_b, f)


def eigh(m):
    """LAPACK's ``eigh`` of one exactly symmetric matrix, finished as a row of
    a stack: the eigenvalues in a stable ascending sort, each eigenvector
    moved with its eigenvalue and its first entry of largest |value| made
    non-negative by ``_fix_sign``, the basis their transposed rows; ``None``
    where an |entry| exceeds max / 2 or the result is not finite."""
    if not np.all(np.abs(m) <= core._HALF_MAX):
        return None
    vals, vecs = np.linalg.eigh(m)
    if not (np.isfinite(vals).all() and np.isfinite(vecs).all()):
        return None
    order = sorted(range(len(vals)), key=vals.tolist().__getitem__)
    columns = vecs.T.tolist()
    basis = np.array([core._fix_sign(*columns[i]) for i in order]).T
    return core.SpectralDecomposition(vals[order], basis)


def decompose(m):
    """One exactly symmetric matrix decomposed as a row of a stack of two or
    more: ``eigh`` at n >= 3 where it gives a result, otherwise (and at
    n <= 2) ``core._decompose``."""
    dec = eigh(m) if m.shape[0] >= 3 else None
    return core._decompose(m) if dec is None else dec


def decompose_stack(m):
    """``core._decompose`` of a stack, one row at a time: ``eigh`` of each row
    at n >= 3 in a stack of two or more; a stack of one, one at n <= 2 and
    one with a row ``eigh`` declines take each row's single call, in order,
    so the first failing row raises its error."""
    if m.shape[1] >= 3 and len(m) > 1:
        decs = [eigh(row) for row in m]
        if None not in decs:
            return decs
    return [core._decompose(row) for row in m]


def root(r, s):
    """f^-1(S_r) of one exactly symmetric sum: S itself at r = 1 and
    (S @ S + (S @ S)^T) / 2 at r = 1/2, while every |entry| is at most
    sqrt(max) / 8; otherwise exp or X^(1/r) of its ``decompose``."""
    if r in (1.0, 0.5) and np.abs(s).max() <= math.sqrt(sys.float_info.max) / 8.0:
        return s if r == 1.0 else (s @ s + (s @ s).T) / 2.0
    return core.spectral_fun(decompose(s), EXP if r == 0.0 else Power(1.0 / r))


def gap(p, q, dec_a, dec_b):
    """M_q - M_p of one decomposed pair, from ``power_sum`` and ``root``: the
    q-mean first, then the p-mean unless the normalized exponents are equal,
    when the gap is zero."""
    p, q = normalize_exponent(p), normalize_exponent(q)
    high = root(q, power_sum(q, dec_a, dec_b))
    return high - (high if p == q else root(p, power_sum(p, dec_a, dec_b)))


def fuzz_point(p, q, trials, seed, dims):
    """fuzz_point as a per-trial loop over its draw order on the single-pair
    route: per dimension, all spreads, then every matrix's uniform row, then
    every matrix's normal slice; each pair's two sorted spectra give S_q,
    then S_p unless the normalized exponents are equal (their overflows
    silenced, as fuzz_point's are), then the q-root, the p-root and their
    gap (zero at equal exponents), and the order verdict, one pair at a
    time."""
    p, q = normalize_exponent(p), normalize_exponent(q)
    rng = fuzz._spawn(seed, 0)
    passed, worst = True, float("inf")
    for dim in dims:
        spreads = [fuzz._SPREADS[k] for k in rng.integers(len(fuzz._SPREADS), size=trials)]
        u = [rng.uniform(-1.0, 1.0, dim) for _ in range(2 * trials)]
        gauss = [rng.standard_normal((dim, dim)) for _ in range(2 * trials)]
        for t, spread in enumerate(spreads):
            dec_a = _ascending(*spectrum_from_draws(u[2 * t], gauss[2 * t], spread))
            dec_b = _ascending(*spectrum_from_draws(u[2 * t + 1], gauss[2 * t + 1], spread))
            with np.errstate(over="ignore", invalid="ignore"):
                s_q = power_sum(q, dec_a, dec_b)
                s_p = s_q if p == q else power_sum(p, dec_a, dec_b)
            high = root(q, s_q)
            gap = high - (high if p == q else root(p, s_p))
            verdict = core._order_verdict(gap)
            worst = min(worst, verdict.min_eigenvalue)
            passed &= verdict.margin >= 0.0
    return passed, worst


def candidate_at(diagonal, j):
    """B_t of the walk with ``diagonal`` at angle j, built alone."""
    theta = ce._THETA_SCHEDULE[j]
    return ce._projection(theta) if diagonal is None else ce._rotated(diagonal, theta)


def certify(gap, dec_b):
    """Smallest eigenvalue and unit witness of the full ``_decompose`` of the
    2x2 gap of one decomposed B, if below ``-CERT_TOL``.  The search reads
    the same bits from the gap's closed form."""
    dec = core._decompose(gap(dec_b))
    lam = float(dec.eigenvalues[0])
    if lam < -ce.CERT_TOL:
        return lam, dec.basis[:, 0].copy()
    return None


def first_row(rows):
    """(i, eigenvalue, witness) of the first of the 2x2 gap ``rows`` that
    ``certify`` accepts, each certified alone, or the error of the first row
    that raises."""
    for i, row in enumerate(rows):
        hit = certify(lambda _: np.array(row), None)
        if hit is not None:
            return (i, *hit)
    return None


def witness(p, q, walks, candidate, exhausted, via_dual):
    """``_first_witness`` one candidate at a time: each B_t is
    ``candidate(diagonal, j)``, decomposed alone, its ``gap`` with the walk's
    A built alone and certified by ``certify``, and a ``DomainError`` ends
    its walk, or the search at j = 0."""
    for k, x, y, a, diagonal in walks:
        dec_a = eig_sym(a)
        for j, theta in enumerate(ce._THETA_SCHEDULE):
            b = candidate(diagonal, j)
            try:
                hit = certify(lambda dec_b: gap(p, q, dec_a, dec_b), core._decompose(b))
            except DomainError:
                if j == 0:
                    raise SearchExhaustedError(exhausted) from None
                break
            if hit is not None:
                return ce.Witness(normalize_exponent(p), normalize_exponent(q), a, b, *hit,
                                  x=x, y=y, theta=theta, dual_applied=via_dual, k=k, j=j)
    raise SearchExhaustedError(exhausted)


@np.errstate(over="ignore", invalid="ignore")
def search(p, q, candidate=candidate_at):
    """``find_counterexample`` at a walked label (p < q outside the region),
    through ``witness``."""
    label = classify(p, q)
    bp, bq = dual(p, q) if label.via_dual else (p, q)
    exhausted = "%s schedule exhausted at (%g, %g)" % (label.case.value, bp, bq)
    walks = ce._walks(label.case, bp, bq, label.via_dual)
    return witness(p, q, walks, candidate, exhausted, label.via_dual)
