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
from unittest import mock

import numpy as np
import pytest

from powmean import (
    DimensionMismatchError,
    DomainError,
    EXP,
    LOG,
    NonConvergenceError,
    Power,
    PreconditionError,
    eig_sym,
    find_counterexample,
    loewner_leq,
    map_power,
    mat_fun,
    power_mean,
    power_mean_gap,
    random_kraus_map,
    random_pd,
    symmetrize,
)
from powmean import core
from powmean.cli import main
from powmean.fuzz import FUZZ_TARGETS, fuzz_map_order, fuzz_point
from powmean.maps import plane_rotation

import reference
from reference import words
from conftest import count_calls, sym_rand
from test_fast_paths import (LABEL_PAIRS, STACK_FUNCTIONS, _cold, _decompose_rows, check_row,
                             stacked_spectra)


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
    assert words(core._decompose, m) == ["PreconditionError:%s" % guard.value]


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


@pytest.mark.parametrize("dim", range(3, core.MAX_DIM + 1))
def test_eig_sweeps_match_the_rotation_loop_bit_for_bit(dim):
    # the full sweeps and the eigenvalue-only ones against the rotation loop
    check_row("jacobi", dim)


def test_eig_sweep_cap_message_matches_the_rotation_loop(rng, monkeypatch):
    monkeypatch.setattr(core, "_JACOBI_SWEEP_CAP", 1)
    m = sym_rand(rng, 5)
    assert words(eig_sym, m) == words(reference.jacobi, symmetrize(m)) == [
        "NonConvergenceError:Jacobi sweeps exceeded the cap of 1"]


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
def test_stacked_decomposition_matches_single_calls_bitwise(dim):
    # Row i of a stack has the bits and memory order of matrix i alone, at
    # n = 2 with entries at and past the guard of a single call too.
    check_row("decompose", dim)


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
@pytest.mark.parametrize("bad", [np.inf, np.nan, 1e308])
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_stacked_decomposition_raises_the_first_bad_rows_error(dim, bad):
    # Rows 1 and 3 fail the guard of a single call: the stack raises what
    # row 1 alone raises.
    rows = [random_pd(dim, seed, 10.0) for seed in range(5)]
    rows[1][0, 0] = bad
    rows[3][-1, -1] = np.nan
    alone = words(core._decompose, rows[1])
    assert words(core._decompose, np.array(rows)) == alone
    assert alone[0].startswith("PreconditionError:")


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


@pytest.mark.parametrize("dim", range(3, core.MAX_DIM + 1))
def test_stacked_decomposition_agrees_with_single_jacobi_calls(dim):
    # A stack's rows come from LAPACK's eigh, a single call's from the
    # Jacobi sweeps: their eigenvalues agree within 1e-14 of the largest
    # |eigenvalue|, and each basis has a residual |AV - V Lambda| within
    # 1e-14 of it and is orthogonal within 1e-14.
    stack = _decompose_rows(dim)
    dec = core._decompose(stack)
    for m, vals, basis in zip(stack, *dec):
        single = core._decompose(m)
        scale = float(np.abs(vals).max())
        assert np.abs(vals - single.eigenvalues).max() <= 1e-14 * scale
        for lam, v in ((vals, basis), single):
            assert np.abs(m @ v - v * lam).max() <= 1e-14 * scale
            assert np.abs(v.T @ v - np.eye(dim)).max() <= 1e-14


def test_only_stacks_of_two_or_more_above_2x2_reach_eigh():
    # The order checks of fuzz_point at one trial a dimension, a cold search
    # per label (all 2x2) and single means and map powers above 2x2 keep
    # their solvers: none calls LAPACK's eigh.  A stack of two does.
    with mock.patch.object(np.linalg, "eigh", side_effect=AssertionError("eigh")) as eigh:
        fuzz_point(0.5, 2.0, 1, 3, dims=range(3, core.MAX_DIM + 1))
        for p, q in LABEL_PAIRS:
            _cold(find_counterexample)(p, q)
        for dim in range(3, core.MAX_DIM + 1):
            a, b = random_pd(dim, 1, 10.0), random_pd(dim, 2, 10.0)
            power_mean(-1.5, a, b)
            power_mean_gap(0.25, 3.0, a, b)
            map_power(random_kraus_map(dim, dim, dim), 0.0, a)
        assert not eigh.called
        with pytest.raises(AssertionError, match="eigh"):
            core._decompose(np.array([np.eye(3), np.eye(3)]))


def test_a_failing_stacked_eigh_leaves_its_scan_cell_uncertified(tmp_path, capsys):
    # LAPACK's LinAlgError ends as NonConvergenceError, which fuzz_point does
    # not rerun on the single-matrix solver: the scan writes the cell
    # uncertified and exits 1.
    failing = mock.patch.object(np.linalg, "eigh",
                                side_effect=np.linalg.LinAlgError("Eigenvalues did not converge"))
    with failing:
        assert words(core._decompose, np.array([np.eye(3), np.eye(3)])) == [
            "NonConvergenceError:LAPACK eigh: Eigenvalues did not converge"]
        out = tmp_path / "scan.csv"
        assert main(["scan", "--pmin", "0.5", "--pmax", "0.5", "--qmin", "2", "--qmax", "2",
                     "--trials", "5", "--out", str(out)]) == 1
    assert "INCONSISTENT" in capsys.readouterr().out
    fields = out.read_text().splitlines()[1].split(",")
    assert fields[2:5] == ["in-region", "uncertified", "NonConvergenceError"]


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
def test_fuzz_targets_give_the_same_bits_cold_and_warm(target):
    # twice with the memo, and with every decomposition made afresh
    check_row("warm-fuzz", target)


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


@pytest.mark.parametrize("dim", range(1, core.MAX_DIM + 1))
@pytest.mark.parametrize("f", STACK_FUNCTIONS, ids=repr)
def test_stacked_spectral_fun_matches_single_calls_bitwise(dim, f):
    # A stack of decompositions gives each matrix the bits of a call on it
    # alone, and clamps each row at its own floor.
    check_row("spectral-fun", (f, dim))


@pytest.mark.parametrize("f, bad", [(LOG, 0.0), (Power(-1.0), 0.0), (Power(-0.5), -1.0),
                                    (Power(0.5), -1.0), (Power(1.5), -1e-3)])
def test_stacked_spectral_fun_raises_the_first_failing_rows_error(f, bad):
    # Rows 3 and 5 leave the domain: the stack raises what row 3 alone
    # raises.  For positive powers row 1 sits inside the floor, which they
    # accept.
    vals, bases = stacked_spectra(3)
    vals = vals.copy()
    if isinstance(f, Power) and f.exponent > 0.0:
        vals[1, 0] = 1e-3 * core.PSD_FLOOR * vals[1, -1]
    vals[3, 0] = bad * vals[3, -1]
    vals[5, 0] = 2.0 * bad * vals[5, -1] - 1.0
    alone = words(core.spectral_fun, core.SpectralDecomposition(vals[3], bases[3]), f)
    assert words(core.spectral_fun, core.SpectralDecomposition(vals, bases), f) == alone
    assert alone[0].startswith("DomainError:")


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


@pytest.mark.parametrize("dim", range(1, core.MAX_DIM + 1))
def test_order_margin_has_the_full_verdicts_bits(dim):
    # The eigenvalue-only kernel gives the full verdict's margin and
    # eigenvalue, and where it defers (rescaled or rejected rows) its errors.
    check_row("order-margin", dim)


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


@pytest.mark.parametrize("dim", range(1, 9))
def test_random_pd_stack_matches_per_matrix_reference(dim):
    # A stack of spectra is one uniform block, then one normal block, and
    # spectrum i is built from row i and slice i alone; random_pd is one.
    check_row("random-pd-spectra", dim)
    check_row("random-pd", dim)
