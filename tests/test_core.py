"""Core symmetric-matrix algebra: eigensolver, spectral functions, order.

Ground truth for the eigensolver is numpy.linalg.eigh plus exact
reconstruction invariants; spectral functions are checked against closed
forms and algebraic identities.
"""

import hashlib
import itertools
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from powmean import (
    DimensionMismatchError,
    DomainError,
    EXP,
    LOG,
    NonConvergenceError,
    Power,
    PowerMeanError,
    PreconditionError,
    eig_sym,
    loewner_leq,
    mat_fun,
    power_mean,
    random_pd,
    symmetrize,
)
from powmean import core
from powmean.fuzz import FUZZ_TARGETS, fuzz_map_order, fuzz_point, order_margin
from powmean.maps import plane_rotation

from conftest import count_calls, spectrum_from_draws, sym_rand


# ---------------------------------------------------------------------------
# construction guard
# ---------------------------------------------------------------------------

def test_symmetrize_averages_tiny_drift():
    m = np.array([[1.0, 0.5 + 1e-15], [0.5, 2.0]])
    out = symmetrize(m)
    assert np.array_equal(out, out.T)


def test_symmetrize_rejects_real_asymmetry():
    with pytest.raises(PreconditionError):
        symmetrize(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_symmetrize_rejects_bad_shapes():
    with pytest.raises(PreconditionError):
        symmetrize(np.ones((2, 3)))
    with pytest.raises(PreconditionError):
        symmetrize(np.ones((9, 9)))
    with pytest.raises(PreconditionError):
        symmetrize(np.array([[np.inf, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize(
    "m, message",
    [
        (np.ones((2, 3)), "expected a square matrix, got shape (2, 3)"),
        (np.ones(3), "expected a square matrix, got shape (3,)"),
        (np.ones((0, 0)), "dimension 0 outside 1..8"),
        (np.ones((9, 9)), "dimension 9 outside 1..8"),
        ([[np.inf, 0.0], [0.0, 1.0]], "matrix entries must be finite"),
        ([[0.0, -np.inf], [np.inf, 0.0]], "matrix entries must be finite"),
        # non-finite input is reported before asymmetry
        ([[np.nan, 5.0], [0.0, 1.0]], "matrix entries must be finite"),
        ([[1.0, 2.0], [0.0, 1.0]], "asymmetry 2.000e+00 exceeds the construction guard"),
        # just above the guard: 1.01e-13 > 1e-13 * (1 + 1.01e-13)
        ([[0.0, 1.01e-13], [0.0, 0.0]], "asymmetry 1.010e-13 exceeds the construction guard"),
        ([[0.0, 1e308], [-1e308, 0.0]], "asymmetry inf exceeds the construction guard"),
    ],
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_guard_errors(m, message):
    for validate in (symmetrize, eig_sym):
        with pytest.raises(PreconditionError) as err:
            validate(m)
        assert str(err.value) == message


def test_guard_admits_drift_just_below():
    m = np.array([[0.0, 0.99e-13], [0.0, 0.0]])
    assert np.array_equal(symmetrize(m), [[0.0, 0.495e-13], [0.495e-13, 0.0]])
    assert np.array_equal(eig_sym(m).eigenvalues, [-0.495e-13, 0.495e-13])


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_guard_rejects_overflowing_average():
    # finite entries whose sum m + m^T overflows: the average used to be inf
    # and the eigenvalues NaN, with no error
    m = [[1e308, 5e307], [5e307, 1.5e308]]
    for validate in (symmetrize, eig_sym):
        with pytest.raises(PreconditionError, match="overflows"):
            validate(m)


@pytest.mark.parametrize(
    "m",
    [
        np.diag([np.inf, 1.0]),
        np.diag([1.0, 2.0, np.nan]),
        np.array([[1e308, 5e307], [5e307, 1.5e308]]),
        np.full((3, 3), -1e308),
    ],
)
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_unvalidated_decomposition_keeps_the_guard_verdicts(m):
    # the unvalidated entry takes exactly symmetric input, so only the
    # finiteness and overflow verdicts apply, word for word
    with pytest.raises(PreconditionError) as guard:
        symmetrize(m)
    with pytest.raises(PreconditionError) as unvalidated:
        core._decompose(m)
    assert str(unvalidated.value) == str(guard.value)


def _array_guard_decompose(m):
    """``core._decompose`` of one exactly symmetric 2x2 with its guard on the
    array, kept as the reference for the guard on the closed form's floats:
    ``symmetrize`` raises where m + m is not finite, and the closed form,
    which then sees only entries within max / 2, rescales where big^2 leaves
    the normal range."""
    if not all(map(math.isfinite, (m + m).flat)):
        symmetrize(m)  # raises
    (a, b), (_, d) = m.tolist()
    done = _unguarded_eig_2x2_row(a, b, d)
    if done is None:
        return core._rescaled(m, _array_guard_decompose)
    return core.SpectralDecomposition(np.array(done[0]), np.array(done[1]))


def _unguarded_eig_2x2_row(a, b, d):
    """``core._eig_2x2_row`` without its entry guard."""
    if b == 0.0:
        if a <= d:
            return [a, d], [[1.0, 0.0], [0.0, 1.0]]
        return [d, a], [[0.0, 1.0], [1.0, 0.0]]
    half = 0.5 * (a - d)
    r = math.hypot(half, b)
    mid = 0.5 * (a + d)
    big = mid + math.copysign(r, mid)
    if not sys.float_info.min <= big * big < math.inf:
        return None
    other = (a * d - b * b) / big
    lo, hi = (min(other, big), big) if big > 0.0 else (big, max(other, big))
    if half >= 0.0:
        ux, uy = r + half, b
    else:
        ux, uy = b, r - half
    nrm = math.hypot(ux, uy)
    c, s = ux / nrm, uy / nrm
    (x0, y0), (x1, y1) = core._fix_sign(-s, c), core._fix_sign(c, s)
    return [lo, hi], [[x0, x1], [y0, y1]]


def _decomposition_words(decompose, m):
    """Bytes of ``decompose(m)``'s eigenvalues and basis, or its error."""
    try:
        dec = decompose(m)
    except PowerMeanError as exc:
        return type(exc).__name__, str(exc)
    return dec.eigenvalues.tobytes(), dec.basis.tobytes()


def test_2x2_guard_on_floats_matches_the_array_guard():
    # _decompose tests a 2x2's guard on the Python floats its closed form
    # reads: the same bits and errors as the guard on m + m, for finite,
    # tiny, huge (about max / 2 and beyond), infinite and NaN entries.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    half = core._HALF_MAX
    edges = [0.0, -0.0, 5e-324, 1e-200, 1e154, 1e155, 1e200, half, np.nextafter(half, 0.0),
             np.nextafter(half, math.inf), sys.float_info.max, math.inf, math.nan]
    entry = st.one_of(st.floats(), st.floats(-1e-150, 1e-150),
                      st.sampled_from(edges + [-x for x in edges]))

    @hypothesis.seed(2)
    @hypothesis.settings(max_examples=800, deadline=None, database=None)
    @hypothesis.given(entry, entry, entry)
    def check(a, b, d):
        m = np.array([[a, b], [b, d]])
        with np.errstate(over="ignore", invalid="ignore"):
            assert (_decomposition_words(core._decompose, m)
                    == _decomposition_words(_array_guard_decompose, m))

    check()


# ---------------------------------------------------------------------------
# eigensolver
# ---------------------------------------------------------------------------

def test_eig_diagonal_sorts_ascending():
    dec = eig_sym(np.diag([3.0, 1.0]))
    assert np.allclose(dec.eigenvalues, [1.0, 3.0])
    assert np.allclose(dec.basis, [[0.0, 1.0], [1.0, 0.0]])


def test_eig_identity():
    dec = eig_sym(np.eye(3))
    assert np.allclose(dec.eigenvalues, 1.0)
    assert np.allclose(dec.basis.T @ dec.basis, np.eye(3), atol=1e-12)


def test_eig_rotated_diagonal_is_similarity_invariant():
    r = plane_rotation(0.3)
    b = symmetrize(r @ np.diag([1.0, 4.0]) @ r.T)
    dec = eig_sym(b)
    assert np.allclose(dec.eigenvalues, [1.0, 4.0], atol=1e-14)


@pytest.mark.parametrize("dim", range(1, 9))
def test_eig_reconstruction_invariant(dim, rng):
    for _ in range(20):
        m = sym_rand(rng, dim, scale=3.0)
        dec = eig_sym(m)
        rec = dec.basis @ np.diag(dec.eigenvalues) @ dec.basis.T
        bound = 1e-12 * (1.0 + np.abs(m).max())
        assert np.abs(rec - m).max() <= bound
        assert np.abs(dec.basis.T @ dec.basis - np.eye(dim)).max() <= 1e-12
        assert np.all(np.diff(dec.eigenvalues) >= 0.0)


@pytest.mark.parametrize("dim", [2, 3, 5, 8])
def test_eig_matches_numpy(dim, rng):
    for _ in range(10):
        m = sym_rand(rng, dim, scale=2.0)
        ours = eig_sym(m).eigenvalues
        theirs = np.linalg.eigvalsh(m)
        assert np.abs(ours - theirs).max() <= 1e-11 * (1.0 + np.abs(m).max())


def test_eig_deterministic():
    m = random_pd(4, 7, 50.0)
    a = eig_sym(m)
    b = eig_sym(m)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.basis, b.basis)


# sha256 (first 32 hex digits) of the float.hex words of eig_sym's
# eigenvalues then basis, row-major, recorded from the numpy-slice Jacobi
# solver; any rounding change in the sweeps shows up here.  Keys are
# (dim, seed, shift) of _exact_gram.
_EIG_BITS = {
    (3, 3, 0): "2692b7ea8f3e5c293baa20dffbc7b392",
    (3, 103, 2): "53738bb8098c08b1b794e81bdfcbdf8f",
    (4, 4, 0): "35d3f597c4b6015bfc644f79240681bd",
    (4, 104, 2): "0fca49cadc7b1d1a7000e61ad6a98782",
    (5, 5, 0): "fa611a29482a41191e65400d85bb4777",
    (5, 105, 2): "e1090a3307a9ca8a4d77befcbfaa75a0",
    (6, 6, 0): "a5632163c853465b61f18ca065d304fe",
    (6, 106, 2): "f6d7c6ce825b2126184f563f9909ccee",
    (7, 7, 0): "ce0b9ff41440c612c51488bffeae3200",
    (7, 107, 2): "515dcc95ea2f0c35a45e64266c387468",
    (8, 8, 0): "52b5dcb73a50a5aa31b0a95db87bfdf4",
    (8, 108, 2): "a2a3435a3c6ae26f930d57b8ccdc1a2d",
}


# The pinned inputs avoid LAPACK and BLAS (random_pd uses both, and their
# kernels differ between hosts): every entry is one correctly rounded
# math.fsum of IEEE products, and random.Random.random() is the one stream
# Python keeps fixed across versions, so a hash mismatch means the solver
# changed.
def _exact_gram(dim, seed, shift):
    """Gram matrix of a seeded uniform matrix with row i scaled by 2**(shift*i)."""
    rnd = random.Random(seed)
    rows = [[2.0 ** (shift * i) * (rnd.random() - 0.5) for _ in range(dim)] for i in range(dim)]
    return np.array([[math.fsum(x * y for x, y in zip(r, s)) for s in rows] for r in rows])


def _exact_near_degenerate():
    """diag(1, 1, 1 + 1e-9) conjugated by a seeded Householder reflection H.

    In dimension 3, -H is a rotation giving the same similarity.
    """
    rnd = random.Random(5)
    v = [math.copysign(1 + int(9 * rnd.random()), rnd.random() - 0.5) for _ in range(3)]
    norm2 = sum(x * x for x in v)
    h = [[float(i == j) - 2 * v[i] * v[j] / norm2 for j in range(3)] for i in range(3)]
    lam = (1.0, 1.0, 1.0 + 1e-9)
    m = np.zeros((3, 3))
    for i in range(3):
        for j in range(i, 3):
            m[i, j] = m[j, i] = math.fsum(h[i][k] * lam[k] * h[j][k] for k in range(3))
    return m


def _eig_bits(m):
    dec = eig_sym(m)
    words = [float(x).hex() for x in np.concatenate([dec.eigenvalues, dec.basis.ravel()])]
    return hashlib.sha256(" ".join(words).encode()).hexdigest()[:32]


@pytest.mark.parametrize("case", sorted(_EIG_BITS))
def test_eig_bits_pinned(case):
    assert _eig_bits(_exact_gram(*case)) == _EIG_BITS[case]


def test_eig_bits_pinned_near_degenerate():
    m = _exact_near_degenerate()
    values = [float(x).hex() for x in eig_sym(m).eigenvalues]
    assert values == ["0x1.0000000000001p+0", "0x1.0000000000002p+0", "0x1.000000044b82fp+0"]
    assert _eig_bits(m) == "230be77c48588ed9973d3eb0104d76bd"


# Exact ties in the Jacobi finish, pinned to numpy's rules (the hashes were
# recorded with an argsort/argmax finish): equal eigenvalues keep their
# diagonal order (a stable sort; signed zeros are equal), and a column whose
# largest |entry| is tied takes its sign from the first of them.
_TIE_CASES = {
    "diag_tie_3": (np.diag([2.0, 1.0, 2.0]), "226a626c323b2de0bfe46e04132a2b68"),
    "diag_tie_4": (np.diag([3.0, 1.0, 3.0, 1.0]), "e207e13e087cd5b53730fa0113753a9a"),
    "signed_zero_diag": (np.diag([0.0, -0.0, 0.0]), "2f8a4a9cc5f2f812f1da9e68c8514106"),
    "sign_tie_3": (np.array([[0.0, -1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 5.0]]),
                   "c2abc4b13b34ebb9bd12f08dd3ef2790"),
    "sign_tie_4": (np.array([[2.0, 0.0, 0.0, -1.0], [0.0, 1.0, 1.0, 0.0],
                             [0.0, 1.0, 1.0, 0.0], [-1.0, 0.0, 0.0, 2.0]]),
                   "05f5247e78a339a09187619197982b04"),
    "ones_3": (np.ones((3, 3)), "444b37b7c3c37610d71b107952fbd5d9"),
}


@pytest.mark.parametrize("case", sorted(_TIE_CASES))
def test_eig_ties_pinned(case):
    m, bits = _TIE_CASES[case]
    assert _eig_bits(m) == bits


def test_eig_ties_keep_diagonal_order_and_first_pivot_sign():
    dec = eig_sym(np.diag([2.0, 1.0, 2.0]))
    assert dec.eigenvalues.tolist() == [1.0, 2.0, 2.0]
    assert dec.basis.tolist() == [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
    c = 1.0 / math.sqrt(2.0)
    # both entries of each rotated column tie in |value|: the first is made >= 0
    basis = eig_sym(_TIE_CASES["sign_tie_3"][0]).basis
    assert basis[:2, :2].tolist() == [[c, c], [c, -c]]


@pytest.mark.parametrize("scale", [1e155, 1e200, 1e300])
def test_eig_accurate_where_squares_overflow(rng, scale):
    # the squared entries overflow, which must not disable the threshold
    g = sym_rand(rng, 5)
    dec = eig_sym(g * scale)
    ref = np.linalg.eigvalsh(g)
    assert np.abs(dec.eigenvalues / scale - ref).max() <= 1e-13 * np.abs(ref).max()
    recon = (dec.basis * (dec.eigenvalues / scale)) @ dec.basis.T
    assert np.abs(recon - g).max() <= 1e-13 * np.abs(g).max()


def test_eig_2x2_basis_finite_where_its_sum_overflows():
    # r + |half| overflows although both eigenvalues, +-1.26e308, fit
    m = np.array([[8.9e307, 8.9e307], [8.9e307, -8.9e307]])
    dec = eig_sym(m)
    ref = np.linalg.eigvalsh(m / 8.9e307) * 8.9e307
    assert np.abs(dec.eigenvalues - ref).max() <= 1e-15 * 8.9e307
    assert np.isfinite(dec.basis).all()
    recon = (dec.basis * (dec.eigenvalues / 8.9e307)) @ dec.basis.T
    assert np.abs(recon - m / 8.9e307).max() <= 1e-15


def test_eig_2x2_small_eigenvalue_does_not_cancel():
    # det = 1e6 and the top eigenvalue 1e9 + 9e-3 give 9.99999999991e-4;
    # mid - r would be off by a few eps times 1e9, about 1.3e-5 relative
    small = float(eig_sym(np.array([[1e9, 3e3], [3e3, 1e-2]])).eigenvalues[0])
    assert abs(small - 9.99999999991e-4) <= 1e-12 * 9.99999999991e-4


@pytest.mark.parametrize("shift", [600, -600])
def test_eig_2x2_commutes_with_power_of_two_scaling(shift):
    # entry products overflow (or underflow) at 2^+-600, so the scaled input
    # takes the rescaled route, which must round nothing
    rnd = random.Random(3)
    for _ in range(20):
        a, b, d = (rnd.uniform(-4.0, 4.0) for _ in range(3))
        m = np.array([[a, b], [b, d]])
        scaled = eig_sym(m * 2.0**shift).eigenvalues
        assert np.array_equal(scaled, eig_sym(m).eigenvalues * 2.0**shift)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_eig_rejects_spectrum_beyond_float_range():
    # top eigenvalue 4 * 5e307 = 2e308 exceeds the largest double
    with pytest.raises(PreconditionError, match="spectrum exceeds the float range"):
        eig_sym(np.full((4, 4), 5e307))


def test_eig_nonconvergence_when_sweep_cap_hit(rng, monkeypatch):
    import powmean.core

    monkeypatch.setattr(powmean.core, "_JACOBI_SWEEP_CAP", 1)
    m = sym_rand(rng, 4)
    with pytest.raises(NonConvergenceError):
        eig_sym(m)


def _reference_jacobi(m):
    """The cyclic Jacobi rotation loop over lists that the compiled sweeps
    replaced, kept as the reference they must match bit for bit."""
    with np.errstate(over="ignore"):
        frob2 = float((m * m).sum())
    if not math.isfinite(frob2):
        return core._rescaled(m, _reference_jacobi)
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
        raise NonConvergenceError(
            "Jacobi sweeps exceeded the cap of %d" % core._JACOBI_SWEEP_CAP
        )
    order = sorted(idx, key=lambda i: a[i][i])
    basis = np.array([core._fix_sign(*vt[i]) for i in order]).T
    return core.SpectralDecomposition(np.array([a[i][i] for i in order]), basis)


def _reference_inputs(dim, seed):
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


@pytest.mark.parametrize("dim", range(3, core.MAX_DIM + 1))
def test_eig_sweeps_match_the_rotation_loop_bit_for_bit(dim):
    # The full sweeps give the loop's eigenvalues and basis; the
    # eigenvalue-only sweeps its smallest eigenvalue, or None where its
    # squares overflow and the loop rescales.
    rescaled = 0
    for seed in range(8):
        for m in _reference_inputs(dim, seed):
            dec = eig_sym(m)
            m = symmetrize(m)
            ref = _reference_jacobi(m)
            assert dec.eigenvalues.tobytes() == ref.eigenvalues.tobytes()
            assert dec.basis.tobytes() == ref.basis.tobytes()
            lam = core._sweeps(dim, False)(m.ravel().tolist(), core._JACOBI_THRESHOLD,
                                           core._JACOBI_SWEEP_CAP)
            if lam is None:
                rescaled += 1
                with np.errstate(over="ignore"):
                    assert not math.isfinite(float((m * m).sum()))
            else:
                assert lam.hex() == float(ref.eigenvalues[0]).hex()
    assert rescaled == 2 * 8


def test_eig_sweep_cap_message_matches_the_rotation_loop(rng, monkeypatch):
    monkeypatch.setattr(core, "_JACOBI_SWEEP_CAP", 1)
    m = sym_rand(rng, 5)
    with pytest.raises(NonConvergenceError) as ref:
        _reference_jacobi(symmetrize(m))
    with pytest.raises(NonConvergenceError) as ours:
        eig_sym(m)
    assert str(ours.value) == str(ref.value) == "Jacobi sweeps exceeded the cap of 1"


def test_eig_sweeps_compile_per_dimension_on_first_use():
    # Compiling every dimension's sweeps at import would slow each start-up:
    # importing compiles none, a 2x2 none, and a 3x3 only dimension 3, its
    # eigenvalue-only sweeps for an order check and its full ones for eig_sym.
    code = (
        "import numpy as np, powmean; from powmean import core, fuzz; "
        "print(sorted(core._JACOBI_SWEEPS)); powmean.eig_sym(np.eye(2)); "
        "fuzz.order_margin(np.eye(2)); print(sorted(core._JACOBI_SWEEPS)); "
        "fuzz.order_margin(np.ones((3, 3))); print(sorted(core._JACOBI_SWEEPS)); "
        "powmean.eig_sym(np.ones((3, 3))); print(sorted(core._JACOBI_SWEEPS))"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(core.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.splitlines() == ["[]", "[]", "[(3, False)]", "[(3, False), (3, True)]"]


def test_jacobi_threshold_sums_squares_as_numpy_does():
    # The sweeps, with or without the basis, add the n^2 squares in numpy's
    # pairwise order, so their threshold is 1e-12 * sqrt(float((m * m).sum()))
    # bit for bit, at every scale; squares that overflow return None for the
    # rescaled route.
    rng = np.random.default_rng(2024)
    for n, vectors in itertools.product(range(3, core.MAX_DIM + 1), (True, False)):
        norms = []
        namespace = {"copysign": math.copysign, "isfinite": math.isfinite,
                     "sqrt": lambda x: norms.append(x) or math.sqrt(x),
                     "NonConvergenceError": NonConvergenceError}
        exec(core._jacobi_source(n, vectors), namespace)
        for _ in range(300):
            g = rng.standard_normal((n, n)) * np.exp(rng.uniform(-5.0, 5.0, (n, n)))
            m = (g + g.T) * 10.0 ** rng.uniform(-20.0, 20.0)
            del norms[:]
            namespace["sweeps"](m.ravel().tolist(), core._JACOBI_THRESHOLD, core._JACOBI_SWEEP_CAP)
            assert norms[0] == float((m * m).sum())
        m = np.full((n, n), 1e160)
        assert namespace["sweeps"](m.ravel().tolist(), 1e-12, 1) is None


@pytest.mark.parametrize("dim", range(1, core.MAX_DIM + 1))
def test_stacked_decomposition_matches_single_calls_bitwise(dim, monkeypatch):
    # Row i of a stacked _decompose has the bits of _decompose of matrix i
    # alone, eigenvalues and basis, and its basis the same memory order, so
    # numpy's matmul rounds a stacked root as it rounds a single one.  The
    # inputs include rows whose entry products leave the normal range (2x2)
    # or whose squares overflow (n >= 3): those take the rescaled route.
    rows = [symmetrize(m) for seed in range(3) for m in _reference_inputs(dim, seed)]
    rows.append(rows[0] * 1e-160)
    if dim == 2:
        rows.append(np.array([[8.9e307, 8.9e307], [8.9e307, -8.9e307]]))
    stack = np.array(rows)
    rescaled = count_calls(monkeypatch, core._rescaled)
    for m in (stack, stack[1::2]):
        del rescaled[:]
        got = core._decompose(m)
        assert got.eigenvalues.shape == m.shape[:2] and got.basis.shape == m.shape
        stacked = len(rescaled)
        for i, row in enumerate(m):
            one = core._decompose(row)
            assert got.eigenvalues[i].tobytes() == one.eigenvalues.tobytes(), i
            assert got.basis[i].tobytes() == one.basis.tobytes(), i
            assert got.basis[i].strides == one.basis.strides, i
        assert len(rescaled) == 2 * stacked
        assert stacked > 0 or dim == 1
    empty = core._decompose(np.empty((0, dim, dim)))
    assert empty.eigenvalues.shape == (0, dim) and empty.basis.shape == (0, dim, dim)


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
@pytest.mark.parametrize("bad", [np.inf, np.nan, 1e308])
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_stacked_decomposition_raises_the_first_bad_rows_error(dim, bad):
    # Rows 1 and 3 fail the guard of a single call: the stack raises what
    # row 1 alone raises.
    rows = [random_pd(dim, seed, 10.0) for seed in range(5)]
    rows[1][0, 0] = bad
    rows[3][-1, -1] = np.nan
    with pytest.raises(PreconditionError) as alone:
        core._decompose(rows[1])
    with pytest.raises(PreconditionError) as stacked:
        core._decompose(np.array(rows))
    assert str(stacked.value) == str(alone.value)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_stacked_decomposition_raises_an_earlier_rows_solver_error(rng, monkeypatch):
    # A row before the non-finite one raises its own error first: a spectrum
    # beyond the float range, or the sweep cap.
    finite, beyond = sym_rand(rng, 3), np.full((3, 3), 8e307)
    non_finite = np.diag([1.0, np.inf, 1.0])
    with pytest.raises(PreconditionError, match="spectrum exceeds the float range"):
        core._decompose(np.array([finite, beyond, non_finite]))
    monkeypatch.setattr(core, "_JACOBI_SWEEP_CAP", 1)
    with pytest.raises(NonConvergenceError, match="exceeded the cap of 1"):
        core._decompose(np.array([finite, non_finite]))


# ---------------------------------------------------------------------------
# eig_sym's memo of recent decompositions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dim", [1, 2, 3, 8])
@pytest.mark.parametrize("scale", [1.0, 1e160])
def test_eig_sym_results_are_shared_and_read_only(dim, scale, rng):
    # A repeated matrix, as a new array, is a lookup: the result is shared,
    # so every array of it (a rescaled one too) refuses a write.
    m = sym_rand(rng, dim) * scale
    dec = eig_sym(m)
    assert eig_sym(m.copy()) is dec
    assert core._recent.cache_info()[:2] == (1, 1)
    for arr in dec:
        with pytest.raises(ValueError):
            arr[0] = 0.0
    fresh = core._decompose(symmetrize(m))
    assert [a.tobytes() for a in dec] == [a.tobytes() for a in fresh]
    assert dec.basis.strides == fresh.basis.strides


def test_eig_sym_keeps_no_error(rng, monkeypatch):
    # A failed decomposition is not kept: each call under the sweep cap of 1
    # runs the sweeps and raises, and with the cap restored the same matrix
    # decomposes.
    m = sym_rand(rng, 5)
    decompositions = count_calls(monkeypatch, core._decompose)
    monkeypatch.setattr(core, "_JACOBI_SWEEP_CAP", 1)
    for _ in range(2):
        with pytest.raises(NonConvergenceError, match="exceeded the cap of 1"):
            eig_sym(m)
    assert len(decompositions) == 2 and core._recent.cache_info().currsize == 0
    monkeypatch.setattr(core, "_JACOBI_SWEEP_CAP", 100)
    dec = eig_sym(m)
    assert len(decompositions) == 3 and core._recent.cache_info().currsize == 1
    np.testing.assert_allclose(dec.eigenvalues, np.linalg.eigvalsh(m), atol=1e-12)


def test_eig_sym_memo_stays_within_its_bound_on_wide_inputs():
    # The benchmark's wide operations at dims 4-8: order checks, map-order
    # trials and inversion-duality checks, which read their A and B back.
    inverse = Power(-1.0)
    for n in range(4, 9):
        for seed in range(3):
            a, b = random_pd(n, 2 * seed, 10.0), random_pd(n, 2 * seed + 1, 10.0)
            mat_fun(power_mean(1.5, a, b), inverse)
            power_mean(-1.5, mat_fun(a, inverse), mat_fun(b, inverse))
            fuzz_point(0.5, 2.0, 1, seed, dims=(n,))
            if n <= 6:
                fuzz_map_order(1, seed, dims=(n,))
            info = core._recent.cache_info()
            assert info.currsize <= info.maxsize == 8
    assert info.hits >= 2 * 5 * 3


@pytest.mark.parametrize("target", sorted(FUZZ_TARGETS))
def test_fuzz_targets_give_the_same_bits_cold_and_warm(target, monkeypatch):
    # Twice in one process with the memo, then with every decomposition made
    # afresh: the same reports, bit for bit.
    def words():
        report = FUZZ_TARGETS[target](300, 7)
        return report.summary(), float.hex(report.worst), report.failures
    warm = [words(), words()]
    monkeypatch.setattr(core, "_recent", core._recent.__wrapped__)
    assert warm == [words()] * 2


# ---------------------------------------------------------------------------
# spectral functions
# ---------------------------------------------------------------------------

def test_mat_fun_identity_fixed_point():
    for p in (-2.0, -0.5, 0.5, 3.0):
        assert np.allclose(mat_fun(np.eye(3), Power(p)), np.eye(3), atol=1e-14)


def test_mat_fun_diagonal_sqrt():
    assert np.allclose(mat_fun(np.diag([1.0, 4.0]), Power(0.5)), np.diag([1.0, 2.0]))


def test_mat_fun_semidefinite_positive_power():
    out = mat_fun(np.diag([2.0, 0.0]), Power(0.5))
    assert np.allclose(out, np.diag([math.sqrt(2.0), 0.0]))


def test_mat_fun_domain_errors():
    singular = np.diag([2.0, 0.0])
    with pytest.raises(DomainError):
        mat_fun(singular, Power(-0.5))
    with pytest.raises(DomainError):
        mat_fun(singular, LOG)
    indefinite = np.diag([1.0, -1.0])
    with pytest.raises(DomainError):
        mat_fun(indefinite, Power(0.5))


def test_mat_fun_integer_powers_allow_indefinite():
    m = np.diag([1.0, -2.0])
    assert np.allclose(mat_fun(m, Power(3)), np.diag([1.0, -8.0]))
    assert np.allclose(mat_fun(m, Power(0)), np.eye(2))


def _stacked_spectra(dim, rows=7, seed=0):
    """Ascending spectra and bases of ``rows`` random PD matrices, stacked."""
    vals, bases = core._random_pd_spectra(np.random.default_rng([dim, seed]), dim,
                                          [2.0, 5.0, 10.0, 50.0] * (rows // 4 + 1))
    order = np.argsort(vals, axis=1, kind="stable")
    vals = np.take_along_axis(vals, order, axis=1)[:rows]
    return vals, np.take_along_axis(bases, order[:, None, :], axis=2)[:rows]


_STACK_FUNCTIONS = [Power(2.0), Power(3.0), Power(0.0), Power(0.5), Power(1.7), Power(-1.0),
                    Power(-0.5), Power(-2.3), LOG, EXP]


@pytest.mark.parametrize("dim", range(1, core.MAX_DIM + 1))
@pytest.mark.parametrize("f", _STACK_FUNCTIONS, ids=repr)
def test_stacked_spectral_fun_matches_single_calls_bitwise(dim, f):
    # A stack of decompositions gives each matrix the bits of a call on it
    # alone, contiguous or every other row (as fuzz_point slices its pairs).
    vals, bases = _stacked_spectra(dim)
    stacks = [(vals, bases), (vals[0::2], bases[0::2])]
    if dim > 1 and isinstance(f, Power) and f.exponent > 0.0:
        # one row with its smallest eigenvalue inside the PSD floor, one
        # just below zero within it; the others outside, one of them just
        # above its own floor but below the floor of a row 1e4 times larger,
        # whose smallest is inside its own floor and above every other
        # row's, so each row must be clamped at its own floor
        floored = vals.copy()
        floored[2, 0] = 1e-3 * core.PSD_FLOOR * floored[2, -1]
        floored[4, 0] = -1e-3 * core.PSD_FLOOR * floored[4, -1]
        floored[5, 0] = 2.0 * core.PSD_FLOOR * floored[5, -1]
        floored[6] *= 1e4
        floored[6, 0] = 0.5 * core.PSD_FLOOR * floored[6, -1]
        stacks.append((floored, bases))
    for v, b in stacks:
        got = core.spectral_fun(core.SpectralDecomposition(v, b), f)
        assert got.shape == b.shape
        for i in range(len(v)):
            one = core.spectral_fun(core.SpectralDecomposition(v[i].copy(), b[i].copy()), f)
            assert got[i].tobytes() == one.tobytes(), i


@pytest.mark.parametrize("f, bad", [(LOG, 0.0), (Power(-1.0), 0.0), (Power(-0.5), -1.0),
                                    (Power(0.5), -1.0), (Power(1.5), -1e-3)])
def test_stacked_spectral_fun_raises_the_first_failing_rows_error(f, bad):
    # Rows 3 and 5 leave the domain: the stack raises what row 3 alone
    # raises.  For positive powers row 1 sits inside the floor, which they
    # accept.
    vals, bases = _stacked_spectra(3)
    vals = vals.copy()
    if isinstance(f, Power) and f.exponent > 0.0:
        vals[1, 0] = 1e-3 * core.PSD_FLOOR * vals[1, -1]
    vals[3, 0] = bad * vals[3, -1]
    vals[5, 0] = 2.0 * bad * vals[5, -1] - 1.0
    with pytest.raises(DomainError) as alone:
        core.spectral_fun(core.SpectralDecomposition(vals[3], bases[3]), f)
    with pytest.raises(DomainError) as stacked:
        core.spectral_fun(core.SpectralDecomposition(vals, bases), f)
    assert str(stacked.value) == str(alone.value)


def test_power_composition_roundtrip(rng):
    for p in (-2.0, -0.5, 0.5, 2.0, 3.0):
        m = random_pd(3, int(rng.integers(2**63)), 10.0)
        back = mat_fun(mat_fun(m, Power(p)), Power(1.0 / p))
        assert np.abs(back - m).max() <= 1e-9 * (1.0 + np.abs(m).max())


def test_power_semigroup(rng):
    for p, q in ((0.5, 1.5), (-1.0, 2.0), (0.3, 0.4)):
        m = random_pd(4, int(rng.integers(2**63)), 5.0)
        lhs = mat_fun(m, Power(p)) @ mat_fun(m, Power(q))
        rhs = mat_fun(m, Power(p + q))
        assert np.abs(lhs - rhs).max() <= 1e-9 * (1.0 + np.abs(rhs).max())


def test_exp_log_roundtrip(rng):
    m = random_pd(3, int(rng.integers(2**63)), 20.0)
    back = mat_fun(mat_fun(m, LOG), EXP)
    assert np.abs(back - m).max() <= 1e-9 * (1.0 + np.abs(m).max())


def test_unitary_covariance(rng):
    u = plane_rotation(0.8)
    m = random_pd(2, 3, 6.0)
    for f in (Power(0.5), Power(-1.0), LOG, EXP):
        lhs = mat_fun(symmetrize(u @ m @ u.T), f)
        rhs = u @ mat_fun(m, f) @ u.T
        assert np.abs(lhs - rhs).max() <= 1e-9 * (1.0 + np.abs(rhs).max())


@pytest.mark.parametrize("call,expected", [
    # the scalar tags at the edges of their domains
    (lambda: Power(0.5)(0.0), 0.0),
    (lambda: Power(0.0)(0.0), 1.0),
    (lambda: Power(0.5)(-1.0), (DomainError, "fractional power 0.5 undefined at -1")),
    (lambda: LOG.deriv(0.0), (DomainError, "log derivative undefined at 0")),
    # a spectral function takes only the three tags
    (lambda: mat_fun(np.eye(2), "sqrt"), (TypeError, "unsupported scalar function tag: 'sqrt'")),
])
def test_scalar_function_edges(call, expected):
    if isinstance(expected, float):
        assert call() == expected
        return
    error, message = expected
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# Loewner order
# ---------------------------------------------------------------------------

def test_loewner_holds_with_witness():
    verdict = loewner_leq(np.eye(2), 2.0 * np.eye(2))
    assert verdict.holds
    assert verdict.min_eigenvalue == pytest.approx(1.0)
    assert np.abs(np.linalg.norm(verdict.witness) - 1.0) <= 1e-12


def test_loewner_failure_witness_is_eigenvector():
    verdict = loewner_leq(np.diag([1.0, 2.0]), np.diag([2.0, 1.0]))
    assert not verdict.holds
    assert verdict.min_eigenvalue == pytest.approx(-1.0)
    assert np.allclose(np.abs(verdict.witness), [0.0, 1.0])


def test_loewner_witness_attains_min_eigenvalue(rng):
    a = sym_rand(rng, 3)
    b = sym_rand(rng, 3)
    verdict = loewner_leq(a, b)
    quad = float(verdict.witness @ (b - a) @ verdict.witness)
    assert abs(quad - verdict.min_eigenvalue) <= 1e-10


def test_loewner_antisymmetry_forces_equality(rng):
    m = sym_rand(rng, 3)
    d = sym_rand(rng, 3, scale=1e-12)
    a, b = m, m + d
    if loewner_leq(a, b).holds and loewner_leq(b, a).holds:
        gap = np.abs(a - b).max()
        assert gap <= 2.0 * core.ORDER_SLACK * (1.0 + gap)


def test_loewner_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        loewner_leq(np.eye(2), np.eye(3))


def _verdict_bits(call, d):
    """The hex bits of (margin, min eigenvalue) from ``call(d)``, or the type
    and message of its error."""
    try:
        margin, lam = call(d)
    except PowerMeanError as err:
        return type(err), str(err)
    return margin.hex(), lam.hex()


def _full_verdict(d):
    verdict = core._order_verdict(d)
    return verdict.margin, verdict.min_eigenvalue


def _order_margin_inputs(dim):
    """Exactly symmetric gaps of every kind order_margin must judge as the
    full verdict does: the sweeps' reference inputs, near-degenerate and
    near-zero spectra, ties and signed zeros, rows on the rescaled route,
    and entries past the decomposition's guard at every position."""
    rng = np.random.default_rng([30, dim])
    ms = [symmetrize(m) for seed in range(3) for m in _reference_inputs(dim, seed)]
    q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    for vals in (1.0 + 1e-15 * rng.standard_normal(dim), 1e-12 * rng.standard_normal(dim),
                 np.arange(dim) // 2 - 1.0):
        m = (q * vals) @ q.T
        ms.append((m + m.T) / 2.0)
    ms += [np.zeros((dim, dim)), np.full((dim, dim), -0.0), 2.0 * np.eye(dim),
           np.ones((dim, dim)), np.diag(np.tile([0.0, -0.0], dim)[:dim]),
           np.where(np.eye(dim) > 0.0, 1.0, -0.0)]
    if dim == 2:  # b = 0, either order, and a tie
        ms += [np.diag([3.0, -1.0]), np.diag([-1.0, 3.0]), np.diag([2.0, 2.0])]
    ms += [m * scale for m in ms[:5] for scale in (1e-160, 1e160)]
    top = np.nextafter(core._HALF_MAX, math.inf)
    ms += [np.diag(np.full(dim, top)), np.diag(np.full(dim, core._HALF_MAX))]
    for bad in (math.inf, -math.inf, math.nan):
        for i, j in itertools.combinations_with_replacement(range(dim), 2):
            m = ms[0].copy()
            m[i, j] = m[j, i] = bad
            ms.append(m)
    return ms


@pytest.mark.parametrize("dim", range(1, core.MAX_DIM + 1))
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_order_margin_has_the_full_verdicts_bits(dim, monkeypatch):
    # The order check reads lambda_min and max|D| from the eigenvalue-only
    # kernel; margin and eigenvalue carry the full verdict's bits, and where
    # the kernel defers (rescaled or rejected rows) so do errors.
    ms = _order_margin_inputs(dim)
    deferred = 0
    for m in ms:
        assert m.tobytes() == m.T.tobytes()
        deferred += core._min_eigenvalue(m) is None
        assert _verdict_bits(order_margin, m) == _verdict_bits(_full_verdict, m)
    assert 0 < deferred < len(ms)
    if dim >= 3:
        monkeypatch.setattr(core, "_JACOBI_SWEEP_CAP", 1)
        m = ms[1]
        assert _verdict_bits(order_margin, m) == _verdict_bits(_full_verdict, m) == (
            NonConvergenceError, "Jacobi sweeps exceeded the cap of 1")


# ---------------------------------------------------------------------------
# random generation
# ---------------------------------------------------------------------------

def test_random_pd_unit_spread_is_identity():
    assert np.allclose(random_pd(2, 5, 1.0), np.eye(2), atol=1e-12)


def test_random_pd_eigenvalue_bounds():
    for seed in range(5):
        m = random_pd(3, seed, 100.0)
        vals = eig_sym(m).eigenvalues
        assert vals[0] >= 0.01 - 1e-12
        assert vals[-1] <= 100.0 + 1e-10


def test_random_pd_deterministic():
    assert np.array_equal(random_pd(4, 42, 10.0), random_pd(4, 42, 10.0))


def test_random_pd_validates_arguments():
    with pytest.raises(PreconditionError):
        random_pd(0, 1)
    with pytest.raises(PreconditionError):
        random_pd(2, 1, 0.5)
    with pytest.raises(PreconditionError, match="dimension"):
        random_pd(9, 1, 0.5)  # the dimension is checked first
    for spread in (math.nan, math.inf):
        with pytest.raises(PreconditionError, match="condition_spread"):
            random_pd(3, 0, spread)


def _random_pd_reference(dim, seed, condition_spread):
    """The per-matrix construction random_pd must reproduce bit for bit."""
    rng = np.random.default_rng(seed)
    vals = np.exp(rng.uniform(-1.0, 1.0, size=dim) * math.log(condition_spread))
    gauss = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(gauss)
    q = q * np.where(np.diag(r) >= 0.0, 1.0, -1.0)
    m = (q * vals) @ q.T
    return (m + m.T) / 2.0


@pytest.mark.parametrize("dim", range(1, 9))
def test_random_pd_stack_matches_per_matrix_reference(dim):
    spreads = (1.0, 2.0, 5.0, 10.0, 1e3)
    draws = [(seed, spread) for seed in range(200) for spread in spreads]
    # numpy's log of 1.4987631026277761 misses libm's by one bit.
    pool = spreads + (1.4987631026277761,)
    for seed in range(40):
        stack_spreads = [pool[(seed + i) % len(pool)] for i in range(25)]
        rng, blocks = np.random.default_rng(seed), np.random.default_rng(seed)
        vals, bases = core._random_pd_spectra(rng, dim, stack_spreads)
        # A generator in the same state gives one uniform block, then one
        # normal block; spectrum i comes from row i and slice i of them.
        u = blocks.uniform(-1.0, 1.0, (len(stack_spreads), dim))
        gauss = blocks.standard_normal((len(stack_spreads), dim, dim))
        assert vals.shape == (len(stack_spreads), dim)
        assert bases.shape == (len(stack_spreads), dim, dim)
        assert rng.bit_generator.state == blocks.bit_generator.state
        for i, spread in enumerate(stack_spreads):
            want_vals, want_basis = spectrum_from_draws(u[i], gauss[i], spread)
            assert np.array_equal(vals[i], want_vals), (seed, i)
            assert np.array_equal(bases[i], want_basis), (seed, i)
    for seed, spread in draws[:: len(spreads) + 1]:
        assert np.array_equal(random_pd(dim, seed, spread), _random_pd_reference(dim, seed, spread))
