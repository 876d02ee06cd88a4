"""Power means, the log-Euclidean branch, and map-composed forms."""

import hashlib
import itertools
import math
import warnings

import numpy as np
import pytest

from powmean import (
    EXP,
    LOG,
    DimensionMismatchError,
    DomainError,
    LinearMatrixMap,
    NotUnitalError,
    Power,
    PowerMeanError,
    PreconditionError,
    apply_power_affine_2x2,
    block_average,
    compression,
    eig_sym,
    frechet_d1,
    frechet_d2,
    identity_map,
    limit_slope_check,
    loewner_leq,
    map_power,
    mat_fun,
    normalize_exponent,
    numeric_det_coeff,
    pd_rotation_difference,
    power_mean,
    power_mean_gap,
    random_pd,
    rank_one_difference,
    rank_one_remainder_orders,
    scalar_power_mean,
    symmetrize,
)
from powmean import core, find_counterexample, fuzz, means, random_kraus_map
from powmean.fuzz import fuzz_point, order_margin
from powmean.maps import plane_rotation
from powmean.means import _decomposed_gap, _gap, _power_sums

import reference
from conftest import assert_pinned, count_calls, sym_rand
from reference import composed, words
from test_fast_paths import check_row, stacked_spectra


def test_normalize_exponent_threshold():
    assert normalize_exponent(1e-9) == 0.0
    assert normalize_exponent(-1e-9) == 0.0
    assert normalize_exponent(1e-7) == 1e-7
    assert normalize_exponent(0.0) == 0.0
    with pytest.raises(PreconditionError):
        normalize_exponent(float("inf"))


def test_arithmetic_mean_exact():
    a = random_pd(3, 0, 5.0)
    b = random_pd(3, 1, 5.0)
    assert np.abs(power_mean(1.0, a, b) - (a + b) / 2.0).max() <= 1e-12


def test_harmonic_mean_diagonal():
    out = power_mean(-1.0, np.diag([1.0, 2.0]), np.diag([2.0, 1.0]))
    assert np.allclose(out, np.diag([4.0 / 3.0, 4.0 / 3.0]))


def test_log_euclidean_commuting_geometric():
    out = power_mean(0.0, np.diag([1.0, 4.0]), np.diag([4.0, 1.0]))
    assert np.allclose(out, 2.0 * np.eye(2))


@pytest.mark.parametrize("p", [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0])
def test_idempotence(p):
    a = random_pd(3, 11, 10.0)
    out = power_mean(p, a, a)
    assert np.abs(out - a).max() <= 1e-10 * (1.0 + np.abs(a).max())


@pytest.mark.parametrize("p", [-1.5, 0.0, 0.7, 2.0])
def test_symmetry_at_half_weight(p):
    a = random_pd(2, 21, 8.0)
    b = random_pd(2, 22, 8.0)
    gap = np.abs(power_mean(p, a, b) - power_mean(p, b, a)).max()
    assert gap <= 1e-10 * (1.0 + np.abs(a).max())


@pytest.mark.parametrize("p", [-1.0, 0.0, 0.5, 2.0])
def test_unitary_covariance_and_scaling(p):
    a = random_pd(2, 31, 5.0)
    b = random_pd(2, 32, 5.0)
    u = plane_rotation(1.1)
    c = 2.5
    lhs = power_mean(p, c * symmetrize(u @ a @ u.T), c * symmetrize(u @ b @ u.T))
    rhs = c * u @ power_mean(p, a, b) @ u.T
    assert np.abs(lhs - rhs).max() <= 1e-9 * (1.0 + np.abs(rhs).max())


@pytest.mark.parametrize("p", [-2.0, -0.5, 0.0, 0.5, 2.0])
def test_inversion_duality(p):
    a = random_pd(3, 41, 10.0)
    b = random_pd(3, 42, 10.0)
    lhs = mat_fun(power_mean(p, a, b), Power(-1.0))
    rhs = power_mean(-p, mat_fun(a, Power(-1.0)), mat_fun(b, Power(-1.0)))
    assert np.abs(lhs - rhs).max() <= 1e-9 * (1.0 + np.abs(lhs).max())


def test_commuting_reduction_to_scalars():
    a = np.diag([1.0, 4.0, 9.0])
    b = np.diag([2.0, 3.0, 5.0])
    for p in (-1.5, 0.0, 0.5, 2.0):
        out = power_mean(p, a, b)
        expected = np.diag(
            [scalar_power_mean(p, a[i, i], b[i, i]) for i in range(3)]
        )
        assert np.abs(out - expected).max() <= 1e-11 * (1.0 + expected.max())


def test_scalar_monotonicity_in_p():
    a, b = 1.0, 4.0
    values = [scalar_power_mean(p, a, b) for p in (-3.0, -1.0, 0.0, 0.5, 1.0, 2.0)]
    assert all(lo < hi for lo, hi in zip(values, values[1:]))
    means = [power_mean(p, a * np.eye(2), b * np.eye(2)) for p in (-1.0, 0.0, 1.0)]
    assert means[0][0, 0] < means[1][0, 0] < means[2][0, 0]


def test_scalar_power_mean_matches_50_digits():
    # a, b log-uniform on [1e-5, 1e5] and |p| log-uniform on [1e-8, 1e3];
    # then arguments whose powers, or whose ratio, leave the float range,
    # and near p = 0 a subnormal one, whose mean is normal
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(27)
    signs, exps = rng.choice([-1.0, 1.0], 600), rng.uniform(-8, 3, 600)
    args = 10.0 ** rng.uniform(-5, 5, (2, 600))
    triples = list(zip((signs * 10.0**exps).tolist(), *args.tolist()))
    triples += [(p, a, b) for p in (1e3, -1e3, 1e-8, -1e-8, 2.0, -2.0)
                for a, b in ((10.0, 10.0), (0.1, 0.1), (1e-300, 1e300), (3e-308, 1.7e308))]
    triples += [(1e-8, 5e-324, 1.7e308), (-1e-8, 1.7e308, 5e-324)]
    with mpmath.workdps(50):
        for p, a, b in triples:
            mp, ma, mb = map(mpmath.mpf, (p, a, b))
            exact = ((ma**mp + mb**mp) / 2) ** (1 / mp)
            tol = 1e-14 if 1e-5 <= min(a, b) and max(a, b) <= 1e5 else 1e-12
            assert abs(scalar_power_mean(p, a, b) / exact - 1) <= tol, (p, a, b)


def test_semidefinite_inputs_allowed_for_positive_p():
    a = np.diag([2.0, 0.0])
    b = np.array([[0.5, 0.5], [0.5, 0.5]])
    out = power_mean(0.5, a, b)
    assert np.all(np.linalg.eigvalsh(out) >= -1e-12)


def test_semidefinite_inputs_rejected_for_negative_p():
    a = np.diag([2.0, 0.0])
    with pytest.raises(DomainError):
        power_mean(-0.5, a, np.eye(2))


_GAP_EXPONENTS = (0.0, 1e-9, -1e-9, 2.0, 0.5, -0.5, -3.0)


@pytest.mark.parametrize("dim", range(1, 9))
def test_power_mean_gap_matches_two_calls(dim):
    a = random_pd(dim, 300 + dim, 10.0)
    b = random_pd(dim, 400 + dim, 10.0)
    for p, q in itertools.product(_GAP_EXPONENTS, repeat=2):
        two_calls = power_mean(q, a, b) - power_mean(p, a, b)
        assert power_mean_gap(p, q, a, b).tobytes() == two_calls.tobytes(), (p, q)


@pytest.mark.parametrize(
    "p, q",
    # equal normalized exponents evaluate one mean, with that mean's error
    [(0.5, -0.5), (-3.0, -0.5), (1e-9, -3.0), (0.0, 0.0), (1e-9, -1e-9), (-0.5, -0.5), (-3.0, -3.0)],
)
def test_power_mean_gap_errors_match_two_calls(p, q):
    a = np.diag([2.0, 0.0])
    b = np.array([[1.0, 0.5], [0.5, 1.0]])
    two_calls = words(lambda: power_mean(q, a, b) - power_mean(p, a, b))
    assert words(power_mean_gap, p, q, a, b) == two_calls
    assert two_calls[0].startswith("DomainError:")


_PINNED_EXPONENTS = (-2.0, -0.5, -5e-9, 0.0, 1e-9, 0.5, 1.0, 3.0)


def test_means_bits_pinned():
    # power_mean at dims 1-8 and map_power through seeded Kraus maps, at
    # exponents on both branches and near zero.  A change to any bit must
    # re-record this deliberately.
    words = []
    for dim in range(1, 9):
        a, b = random_pd(dim, 700 + dim, 10.0), random_pd(dim, 800 + dim, 10.0)
        for p in _PINNED_EXPONENTS:
            words += [float.hex(v + 0.0) for v in power_mean(p, a, b).ravel().tolist()]
    for in_dim, out_dim in itertools.product(range(2, 5), repeat=2):
        phi = random_kraus_map(in_dim, out_dim, 10 * in_dim + out_dim)
        a = random_pd(in_dim, 900 + 10 * in_dim + out_dim, 10.0)
        for p in _PINNED_EXPONENTS:
            words += [float.hex(v + 0.0) for v in map_power(phi, p, a).ravel().tolist()]
    digest = hashlib.sha256(" ".join(words).encode()).hexdigest()
    assert_pinned(digest, {
        "SkylakeX": "5c8f7ed86a6112d833d436f7462e8e1a95833baf7d1747b9d7dea82d54c9c3ad",
        "Haswell": "ed9ccb71492154f848047a6b592db5fe8fbb73aeedecfb89ac0c99b4cf65a50f",
        "Sandybridge": "328e4b316bb15190fb6bc3e8ff82a3e5a8c0ed167803c77f429d12c616fc5d8c",
    })


def _spectral_root(r, s):
    """The root of S_r through a decomposition of each matrix, as for any r."""
    f = Power(1.0 / r)
    return [core.spectral_fun(core._decompose(m), f) for m in s.reshape(-1, *s.shape[-2:])]


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
def test_roots_x_and_x_squared_take_no_decomposition(monkeypatch, dim):
    # At r = 1 and 1/2 every mean's root is S_r or (S@S + (S@S)^T)/2, bit for
    # bit, with no decomposition of the sum; a stack's rows are single calls.
    a, b = random_pd(dim, 40 + dim, 10.0), random_pd(dim, 50 + dim, 10.0)
    phi = random_kraus_map(dim, 3, 60 + dim)
    sums = {r: 0.5 * mat_fun(a, Power(r)) + 0.5 * mat_fun(b, Power(r)) for r in (1.0, 0.5)}
    vals, bases = stacked_spectra(dim, rows=8)
    dec_a = core.SpectralDecomposition(vals[0::2], bases[0::2])
    dec_b = core.SpectralDecomposition(vals[1::2], bases[1::2])
    s_q, s_p = _power_sums(0.5, 1.0, dec_a, dec_b)

    def decomposed(m):
        raise AssertionError("a sum was decomposed")

    monkeypatch.setattr(means, "_decompose", decomposed)  # not eig_sym's, of A and B
    for r, s in sums.items():
        assert power_mean(r, a, b).tobytes() == reference.root(r, s).tobytes()
        map_sum = phi.apply(mat_fun(a, Power(r)))
        assert map_power(phi, r, a).tobytes() == reference.root(r, map_sum).tobytes()
    gap = reference.root(1.0, sums[1.0]) - reference.root(0.5, sums[0.5])
    assert power_mean_gap(0.5, 1.0, a, b).tobytes() == gap.tobytes()
    rows = [reference.root(1.0, q) - reference.root(0.5, p) for q, p in zip(s_q, s_p)]
    assert _gap(0.5, 1.0, s_q, lambda: s_p).tobytes() == np.array(rows).tobytes()
    for r, stack in ((1.0, s_q), (0.5, s_p)):
        assert means._root(r, stack).tobytes() == np.array(
            [means._root(r, row) for row in stack]).tobytes()


def _outcome(fn, *args):
    """The words of ``fn(*args)`` and the warnings it issues, each recorded."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = words(fn, *args)
    return got, [(w.category, str(w.message)) for w in caught]


@pytest.mark.parametrize("r", [1.0, 0.5])
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_roots_x_and_x_squared_of_non_finite_sums_raise(r, dim, bad):
    # such a sum is decomposed, which raises as before; in a stack, at its row
    s = np.eye(dim) + 0.25
    broken = s.copy()
    broken[0, -1] = broken[-1, 0] = bad
    stack = np.array([s, broken, s, broken])
    finite = ["PreconditionError:matrix entries must be finite"]
    for sums in (broken, stack):
        assert _outcome(means._root, r, sums) == _outcome(_spectral_root, r, sums) == (finite, [])
        assert words(_gap, 2.0, r, sums, lambda: sums) == finite


@pytest.mark.parametrize("dim", [2, 3])
def test_sums_too_large_to_square_take_the_decomposition(dim):
    # Entries above sqrt(max) / 8 are decomposed: X^2 of them overflows with
    # the warnings of that route, X of them is rescaled, and entries above
    # max / 2 raise; up to the bound the rule holds.  A stack with such a row
    # gives each row's single call, warnings included.
    def scaled(x):
        m = np.eye(dim) + 0.25
        m[0, 0] = x
        return m

    top = means._SQUARE_MAX
    above = np.nextafter(top, math.inf)
    for r in (1.0, 0.5):
        assert words(means._root, r, scaled(top)) == words(reference.root, r, scaled(top))
        for x in (above, 1e155, 1e300, 1e308):
            got = _outcome(means._root, r, scaled(x))
            assert got == _outcome(_spectral_root, r, scaled(x)), (r, x)
            assert (x == 1e308) == got[0][0].startswith("PreconditionError:symmetric part")
        stack = np.array([scaled(2.0), scaled(1e155), scaled(3.0)])
        rows = [_outcome(means._root, r, m) for m in stack]
        assert _outcome(means._root, r, stack) == (sum((w for w, _ in rows), []),
                                                   sum((c for _, c in rows), []))
    assert _outcome(means._root, 0.5, scaled(1e155))[1], "X^2 of 1e155 overflows"


def test_roots_x_and_x_squared_agree_with_the_decomposition():
    # Normwise, |M_r - V diag(lambda^k) V^T|_max <= 32 n eps max|S_r|^k for the
    # root X^k, k = 1 or 2: each route rounds one product of n terms.
    eps = np.finfo(float).eps
    for dim in range(1, 9):
        for seed in range(25):
            spread = 10.0 if seed % 2 else 1e3
            a, b = random_pd(dim, 7000 + seed, spread), random_pd(dim, 8000 + seed, spread)
            for r, k in ((1.0, 1), (0.5, 2)):
                s = 0.5 * mat_fun(a, Power(r)) + 0.5 * mat_fun(b, Power(r))
                error = np.abs(power_mean(r, a, b) - _spectral_root(r, s)[0]).max()
                assert error <= 32.0 * dim * eps * np.abs(s).max() ** k, (dim, seed, r)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("p, q", [(0.5, 2.0), (0.0, 2.0), (-3.0, 0.0), (-0.5, -0.5), (0.0, 0.0)])
def test_gap_against_fixed_a_matches_two_calls(dim, p, q):
    # one prepared A serves several B's, bit for bit as the two-call form
    a = random_pd(dim, 500 + dim, 10.0)
    gap = _decomposed_gap(p, q, eig_sym(a))
    for seed in range(4):
        b = random_pd(dim, 600 + 10 * dim + seed, 10.0)
        two_calls = power_mean(q, a, b) - power_mean(p, a, b)
        assert gap(eig_sym(b)).tobytes() == two_calls.tobytes(), seed


@pytest.mark.parametrize("p, q", [(0.5, -0.5), (-3.0, -0.5), (0.0, 0.0), (-3.0, 0.5), (0.0, 2.0)])
def test_gap_against_raises_its_a_side_error_at_the_first_b(p, q):
    # f(A) of A = diag(2, 0) fails for the q-mean, or for the p-mean after the
    # q-mean is done: preparing A raises nothing, and every B raises the error
    a = np.diag([2.0, 0.0])
    gap = _decomposed_gap(p, q, eig_sym(a))
    for b in ([[1.0, 0.5], [0.5, 1.0]], np.eye(2), [[1.0, 0.5], [0.5, 1.0]]):
        two_calls = words(lambda: power_mean(q, a, b) - power_mean(p, a, b))
        assert words(gap, eig_sym(b)) == two_calls
        assert two_calls[0].startswith("DomainError:")


@pytest.mark.parametrize(
    "a, b, p, error",
    [
        ([[1.0, 2.0], [0.0, 1.0]], np.ones((9, 9)), 2.0, "asymmetry 2.000e+00 exceeds the construction guard"),
        (np.eye(3), np.ones((9, 9)), 2.0, "dimension 9 outside 1..8"),
        (np.eye(2), np.eye(3), 2.0, "means need equal dimensions"),
    ],
)
def test_argument_errors_keep_their_order(a, b, p, error):
    # A is validated before B, and both before the shape check and before
    # an exponent is read
    with pytest.raises(PowerMeanError) as err:
        power_mean(p, a, b)
    assert str(err.value) == error
    with pytest.raises(PowerMeanError) as err:
        power_mean_gap(float("inf"), float("nan"), a, b)
    assert str(err.value) == error


def _order_check(p, q, dec_a, dec_b):
    """order_margin of one pair as fuzz_region judges it: on the gap of the
    pair's two sums."""
    s_q, s_p = _power_sums(p, q, dec_a, dec_b)
    return order_margin(_gap(p, q, s_q, lambda: s_p))


def test_order_check_validates_once_per_decomposition(monkeypatch):
    a = random_pd(3, 71, 10.0)
    b = random_pd(3, 72, 10.0)
    decompositions = count_calls(monkeypatch, core._decompose)
    kernels = count_calls(monkeypatch, core._min_eigenvalue)
    guards = count_calls(monkeypatch, core.symmetrize)
    _order_check(0.5, 2.0, eig_sym(a), eig_sym(b))
    # A and B are validated by eig_sym; they and the q-mean's sum (for its
    # root) are decomposed, the sum as the library built it; the p-mean's
    # root is X^2, with no decomposition; M_q - M_p goes once through the
    # lambda_min kernel
    assert len(decompositions) == 3
    assert len(kernels) == 1
    assert len(guards) == 2


@pytest.mark.parametrize("p, q", [(0.5, 0.5), (-2.0, -2.0), (0.0, 0.0), (1e-9, -1e-9)])
def test_equal_exponent_gap_takes_one_mean(monkeypatch, p, q):
    a = random_pd(3, 71, 10.0)
    b = random_pd(3, 72, 10.0)
    decompositions = count_calls(monkeypatch, core._decompose)
    guards = count_calls(monkeypatch, core.symmetrize)
    gap = power_mean_gap(p, q, a, b)
    # A, B and the one mean's root, unless that root is X^2
    assert len(decompositions) == (2 if p == 0.5 else 3)
    assert len(guards) == 2
    assert not gap.any()


def test_overflowing_mean_keeps_the_guard_message(monkeypatch):
    # A^2 overflows, so the root's combination is not finite; the unvalidated
    # decomposition hands it to symmetrize for the message eig_sym gives
    decompositions = count_calls(monkeypatch, core._decompose)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(PreconditionError) as err:
            power_mean(2.0, np.diag([1e200, 1.0]), np.eye(2))
    assert str(err.value) == "matrix entries must be finite"
    assert len(decompositions) == 3
    assert not np.isfinite(decompositions[-1][0]).all()


def _assert_bitwise_symmetric(m):
    # a matrix, or each matrix of a stack
    assert m.tobytes() == m.mT.tobytes()


def test_library_built_decompositions_are_exactly_symmetric(monkeypatch):
    # The unvalidated decomposition is sound only on matrices bitwise equal
    # to their transpose (their own symmetric part): every route must build
    # them so.
    decompositions = count_calls(monkeypatch, core._decompose, check=_assert_bitwise_symmetric)
    kernels = count_calls(monkeypatch, core._min_eigenvalue, check=_assert_bitwise_symmetric)
    validated = count_calls(monkeypatch, core.eig_sym)

    def unvalidated(route, *args, **kwargs):
        before = len(decompositions) - len(validated)
        route(*args, **kwargs)
        return len(decompositions) - len(validated) - before

    rng = np.random.default_rng(17)
    for dim in range(1, 9):
        a = random_pd(dim, 500 + dim, 10.0)
        b = random_pd(dim, 600 + dim, 10.0)
        g = rng.standard_normal((dim, dim))
        g[:, 0] = 0.0
        singular = g @ g.T  # an eigenvalue inside the floor, for p > 0
        for p, q, x, roots in [(0.0, 2.0, a, 2), (-1.0, 0.0, a, 2), (0.5, 1.5, singular, 1),
                               (0.5, 0.5, a, 0)]:
            # each mean's root but an X^2 one, one mean at p = q, and the
            # gap's lambda_min
            del kernels[:]
            assert unvalidated(_order_check, p, q, eig_sym(x), eig_sym(b)) == roots
            assert len(kernels) == 1
    for p, q in [(0.25, 2.0), (-2.0, -0.25), (0.0, 2.0), (-2.0, 0.0), (0.6, 0.99), (-0.95, -0.6)]:
        assert unvalidated(find_counterexample, p, q) > 0
    orders = rank_one_remainder_orders(0.25, 0.5)
    assert unvalidated(numeric_det_coeff, rank_one_difference(0.25, 0.5), orders=orders) > 0
    assert unvalidated(numeric_det_coeff, pd_rotation_difference(1.0, 2.0, 0.5, 0.25)) > 0
    assert unvalidated(numeric_det_coeff, pd_rotation_difference(0.0, 1.5, 0.5, 0.25)) > 0


def test_limit_check_decomposes_its_input_once(monkeypatch):
    phi = random_kraus_map(3, 2, 77)
    a = random_pd(3, 78, 5.0)
    eigs = count_calls(monkeypatch, core._decompose)
    unital_checks = []
    is_unital = LinearMatrixMap.is_unital
    monkeypatch.setattr(LinearMatrixMap, "is_unital",
                        lambda self: unital_checks.append(self) or is_unital(self))
    assert fuzz.check_limit_slope(phi, a)
    # eig of A, then one of phi(f(A)) for p = 0 and each of the five p > 0
    assert len(eigs) == 7
    assert len(unital_checks) == 1


def test_random_kraus_map_validates_once(monkeypatch):
    eigs = count_calls(monkeypatch, core.eig_sym)
    guards = count_calls(monkeypatch, core.symmetrize)
    random_kraus_map(2, 3, 73)
    # the whitener's one decomposition, guarded inside eig_sym
    assert len(eigs) == 1
    assert len(guards) == 1


def test_order_verdicts_fail_a_certified_violation():
    # The fixed order slack is far below a certified negative eigenvalue, so
    # both the single check and the fuzz verdict over random pairs fail.
    w = find_counterexample(0.25, 1.0)
    assert _order_check(0.25, 1.0, eig_sym(w.a), eig_sym(w.b))[0] < 0.0
    assert not fuzz_point(0.25, 1.0, 20, 0)[0]


def test_map_order_worst_margin_comes_only_from_order_verdicts(monkeypatch):
    # An affine-route mismatch counts as a failure but reports no margin.
    trials, seed = 20, 7
    clean = fuzz.fuzz_map_order(trials, seed)
    assert clean.passed
    inner = fuzz.apply_power_affine_2x2
    monkeypatch.setattr(fuzz, "apply_power_affine_2x2",
                        lambda phi, p, a: inner(phi, p, a) + 1.0)
    report = fuzz.fuzz_map_order(trials, seed)
    assert report.failures == trials
    assert report.notes and all(n.startswith("affine route gap") for n in report.notes)
    assert report.worst == clean.worst


def test_map_order_margins_are_loewner_margins_of_map_powers(monkeypatch):
    # Each map-order trial's order_margin on its two map sums is the margin
    # loewner_leq gives on the two map powers, bit for bit.
    made = {name: [] for name in ("random_kraus_map", "random_pd", "_sample_exponent_pair",
                                  "order_margin")}
    for name, calls in made.items():
        inner = getattr(fuzz, name)
        monkeypatch.setattr(fuzz, name, lambda *args, inner=inner, calls=calls:
                            calls.append(inner(*args)) or calls[-1])
    trials = 30
    fuzz.fuzz_map_order(trials, 7)
    assert len(made["order_margin"]) == trials
    for phi, a, (p, q), (margin, lam) in zip(*made.values()):
        verdict = loewner_leq(map_power(phi, p, a), map_power(phi, q, a))
        assert (margin, lam) == (verdict.margin, verdict.min_eigenvalue)


@pytest.mark.parametrize("p,q,dims", [
    (0.5, 2.0, (2, 3)),
    (0.25, 1.0, (2, 3)),  # outside the region: some checks fail
    (-1.0, 0.0, (1, 4, 8)),
])
def test_fuzz_point_matches_per_trial_reference(p, q, dims):
    check_row("fuzz-point", (p, q, dims))


def test_fuzz_point_draws_pd_pairs_with_shared_spreads(monkeypatch):
    # Every drawn spectrum lies in [1/s, s] and every basis is orthogonal; a
    # trial's two draws share s, every spread occurs, each spectrum is checked
    # ascending, and each trial is one order check.
    spectra, sorted_draws, checks = [], [], []
    inner_spectra, inner_sorted = fuzz._random_pd_spectra, fuzz._drawn_decomposition
    inner_margin = fuzz.order_margin

    def recorded_spectra(rng, dim, spreads):
        spectra.append((dim, list(spreads), inner_spectra(rng, dim, spreads)))
        return spectra[-1][2]

    def recorded_sorted(vals, bases):
        sorted_draws.append(inner_sorted(vals, bases))
        return sorted_draws[-1]

    def counted_margin(*args):
        checks.append(args[0].shape)
        return inner_margin(*args)

    monkeypatch.setattr(fuzz, "_random_pd_spectra", recorded_spectra)
    monkeypatch.setattr(fuzz, "_drawn_decomposition", recorded_sorted)
    monkeypatch.setattr(fuzz, "order_margin", counted_margin)
    trials = 30
    for seed in range(4):
        fuzz_point(0.5, 2.0, trials, seed, dims=range(1, 9))
    assert len(spectra) == len(sorted_draws) == 4 * 8
    assert checks == [(dim, dim) for _ in range(4) for dim in range(1, 9) for _ in range(trials)]
    for (dim, spreads, (vals, bases)), (lam, basis) in zip(spectra, sorted_draws):
        assert spreads[0::2] == spreads[1::2]
        assert set(spreads) == set(fuzz._SPREADS)
        assert vals.shape == lam.shape == (2 * trials, dim)
        assert bases.shape == basis.shape == (2 * trials, dim, dim)
        assert np.all(np.diff(lam, axis=1) >= 0.0)
        assert np.array_equal(np.sort(vals, axis=1), lam)
        for v, q, spread in zip(vals, bases, spreads):
            assert v.min() >= (1.0 - 1e-12) / spread and v.max() <= (1.0 + 1e-12) * spread
            assert np.abs(q.T @ q - np.eye(dim)).max() <= 1e-13


@pytest.mark.parametrize("p, q", [(0.5, 2.0), (-1.0, 0.0), (0.0, 0.0), (0.25, 1.0), (-2.0, -0.6)])
def test_drawn_decompositions_agree_with_composed_matrices(p, q):
    # order_margin on the gap of the spectra as fuzz_point draws and sorts
    # them agrees with order_margin on the gap of eig_sym of the matrices
    # random_pd composes from them.  A second set of spectra puts the
    # last-drawn eigenvalue inside the PSD floor, where only an ascending
    # spectrum reads it as zero (p > 0) or out of the domain (p <= 0), as
    # eig_sym's does.
    for dim in range(1, 9):
        spreads = np.repeat(fuzz._SPREADS, 4)
        vals, bases = core._random_pd_spectra(np.random.default_rng(900 + dim), dim, spreads)
        floored = vals.copy()
        floored[:, -1] = 1e-3 * core.PSD_FLOOR * vals.max(axis=1)
        for spectra in (vals, floored) if dim > 1 else (vals,):
            drawn = fuzz._drawn_decomposition(spectra, bases)
            decs = [core.SpectralDecomposition(*row) for row in zip(*drawn)]
            mats = [composed(v, basis) for v, basis in zip(spectra, bases)]
            for dec, m in zip(decs, mats):
                ref = eig_sym(m).eigenvalues
                assert np.abs(dec.eigenvalues - ref).max() <= 1e-12 * ref[-1]
            for i in range(0, len(decs), 2):
                a, b = mats[i], mats[i + 1]
                try:
                    want = _order_check(p, q, eig_sym(a), eig_sym(b))[0]
                except DomainError:
                    with pytest.raises(DomainError):
                        _order_check(p, q, decs[i], decs[i + 1])
                    continue
                got = _order_check(p, q, decs[i], decs[i + 1])[0]
                # Agreement within tol also makes the signs match wherever
                # |margin| > tol.
                tol = 1e-12 * (1.0 + float(np.abs(power_mean_gap(p, q, a, b)).max()))
                assert abs(got - want) <= tol, (dim, i)


def test_fuzz_point_decomposes_two_matrices_per_check(monkeypatch):
    # Drawn spectra need no validation and no decomposition: each check
    # decomposes the sum of each mean (for its root), or the one sum at
    # equal exponents, unless the root is X or X^2, and takes its gap's
    # lambda_min from the kernel, all built exactly symmetric; a stack
    # counts as its rows.  The powers of A and of B, and each decomposed
    # root, are one stacked call per exponent and dimension; each verdict is
    # one kernel call on its own gap.
    decompositions = count_calls(monkeypatch, core._decompose, check=_assert_bitwise_symmetric)
    kernels = count_calls(monkeypatch, core._min_eigenvalue, check=_assert_bitwise_symmetric)
    functions = count_calls(monkeypatch, core.spectral_fun)
    eigs = count_calls(monkeypatch, core.eig_sym)
    guards = count_calls(monkeypatch, core.symmetrize)
    dims = (1, 2, 3, 5)
    for p, q, means, roots in [(0.5, 2.0, 2, 1), (-1.0, 0.0, 2, 2), (0.5, 0.5, 1, 0),
                               (0.0, 0.0, 1, 1), (1.0, 2.0, 2, 1)]:
        del decompositions[:], kernels[:], functions[:]
        fuzz_point(p, q, 7, 5, dims=dims)
        stacks = [m.shape for m, in decompositions]
        assert stacks == [(7, dim, dim) for dim in dims for _ in range(roots)]
        assert [d.shape for d, in kernels] == [(dim, dim) for dim in dims for _ in range(7)]
        stacked = [dec.eigenvalues.shape for dec, _ in functions if dec.eigenvalues.ndim == 2]
        assert stacked == [(7, dim) for dim in dims for _ in range(2 * means + roots)]
        assert len(functions) == len(stacked)
    assert not eigs and not guards


def test_fuzz_point_keeps_the_errors_of_extreme_exponents():
    # The stacked sums run ahead of the roots without a warning; a stacked
    # root stage raises, so the dimension runs again trial by trial and
    # raises what the per-trial loop raises.
    finite = "PreconditionError:matrix entries must be finite"
    for args, error in [
        ((300, 400, 3, 0), finite),
        ((-400, -300, 3, 0), "DomainError:power -0.00333333 needs eigenvalues > 6.059e+279, "
                             "smallest is 1.309e+275"),
        ((400, 400, 20, 3), finite),
        ((300, 500, 20, 3), finite),
        ((2, 700, 20, 3), finite),
        ((-400, -300, 20, 3), "DomainError:power -0.00333333 needs eigenvalues > 9.163e+54, "
                              "smallest is 0.000e+00"),
    ]:
        assert words(fuzz_point, *args) == [error], args
        assert words(reference.fuzz_point, *args, (2, 3)) == [error], args


def test_fuzz_point_raises_the_first_failing_trials_error(monkeypatch):
    # Trial 2's p-root and trial 5's q-root fail.  The stacked q-roots meet
    # trial 5 first, but the per-trial loop reaches trial 2's p-root before
    # trial 5, so that error wins.
    p, q, trials = 0.5, 2.0, 8
    sums, inner_sums = [], fuzz._power_sums
    monkeypatch.setattr(fuzz, "_power_sums",
                        lambda *args: sums.append(inner_sums(*args)) or sums[-1])
    fuzz_point(p, q, trials, 3, dims=(3,))
    [(s_q, s_p)] = sums
    bad = {(p, s_p[2].tobytes()): "p-root of trial 2", (q, s_q[5].tobytes()): "q-root of trial 5"}

    def failing(inner_root):
        def root(r, s):
            for m in s.reshape(-1, 3, 3):
                if (r, m.tobytes()) in bad:
                    raise DomainError(bad[r, m.tobytes()])
            return inner_root(r, s)
        return root

    monkeypatch.setattr(means, "_root", failing(means._root))
    monkeypatch.setattr(reference, "root", failing(reference.root))
    args = (p, q, trials, 3, (3,))
    assert words(fuzz_point, *args) == ["DomainError:p-root of trial 2"]
    assert words(reference.fuzz_point, *args) == ["DomainError:p-root of trial 2"]
    del bad[p, s_p[2].tobytes()]
    assert words(fuzz_point, *args) == ["DomainError:q-root of trial 5"]


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        power_mean(1.0, np.eye(2), np.eye(3))
    with pytest.raises(DimensionMismatchError):
        power_mean_gap(0.5, 2.0, np.eye(2), np.eye(3))
    # the sums: pairs of unequal dimension, a stack of A against one B, and
    # one A against a stack of B of another dimension
    with pytest.raises(DimensionMismatchError):
        _power_sums(0.5, 2.0, eig_sym(np.eye(2)), eig_sym(np.eye(3)))
    stack = core.SpectralDecomposition(np.ones((4, 2)), np.tile(np.eye(2), (4, 1, 1)))
    with pytest.raises(DimensionMismatchError):
        _power_sums(0.5, 2.0, stack, eig_sym(np.eye(2)))
    with pytest.raises(DimensionMismatchError):
        _power_sums(0.5, 2.0, eig_sym(np.eye(3)), stack)


@pytest.mark.parametrize("p, q", [(0.25, 2.0), (-0.5, 1.0), (0.0, 3.0), (-2.0, 0.0)])
@pytest.mark.parametrize("dim", [2, 3, 5])
def test_one_matrix_against_a_stack_has_the_bits_of_single_calls(p, q, dim):
    # The counterexample search certifies blocks of B_t against one A: row i
    # of the stacked gap is the single gap of A and B_i, bit for bit.
    check_row("one-a-stack-of-b", (p, q, dim))


# ---------------------------------------------------------------------------
# map-composed means
# ---------------------------------------------------------------------------

def _embed_block_diag(x, y):
    n = x.shape[0]
    z = np.zeros((2 * n, 2 * n))
    z[:n, :n] = x
    z[n:, n:] = y
    return z


@pytest.mark.parametrize("p", [-1.0, 0.0, 0.5, 2.0])
def test_block_average_reproduces_power_mean(p):
    x = random_pd(2, 61, 6.0)
    y = random_pd(2, 62, 6.0)
    phi = block_average(2)
    lhs = map_power(phi, p, _embed_block_diag(x, y))
    rhs = power_mean(p, x, y)
    assert np.abs(lhs - rhs).max() <= 1e-10 * (1.0 + np.abs(rhs).max())


@pytest.mark.parametrize("p", [-2.0, 0.0, 0.5, 3.0])
def test_identity_map_power_returns_input(p):
    a = random_pd(3, 71, 8.0)
    out = map_power(identity_map(3), p, a)
    assert np.abs(out - a).max() <= 1e-9 * (1.0 + np.abs(a).max())


def test_compression_cube_of_choi_matrix():
    # integer matrix power is the independent route
    from powmean import CHOI_MATRIX

    cube = CHOI_MATRIX.astype(int)
    cube = cube @ cube @ cube
    assert np.array_equal(cube[:2, :2], np.array([[14, 5], [5, 5]]))
    comp = compression((0, 1), 3)
    direct = comp.apply(mat_fun(CHOI_MATRIX, Power(3.0)))
    assert np.abs(direct - cube[:2, :2]).max() <= 1e-9
    via_map_power = map_power(comp, 3.0, CHOI_MATRIX)
    assert np.abs(via_map_power - mat_fun(direct, Power(1.0 / 3.0))).max() <= 1e-12


@pytest.mark.parametrize("p", [0.0, 0.5])
def test_map_power_validates_its_input_once(monkeypatch, p):
    a = random_pd(3, 73, 10.0)
    phi = compression((0, 1), 3)
    s = phi.apply(mat_fun(symmetrize(a), LOG if p == 0.0 else Power(p)))
    # the root of X^2 is S @ S made exactly symmetric, with no decomposition
    two_step = mat_fun(s, EXP) if p == 0.0 else (s @ s + (s @ s).T) / 2.0
    guards = count_calls(monkeypatch, core.symmetrize)
    out = map_power(phi, p, a)
    assert sum(np.array_equal(args[0], a) for args in guards) == 1
    assert np.array_equal(out, two_step)


def _validations_of(m, guards):
    """How many recorded symmetrize calls checked ``m`` or its symmetric part."""
    forms = (m, symmetrize(m))
    return sum(any(np.array_equal(args[0], f) for f in forms) for args in guards)


@pytest.mark.parametrize("a", [np.array([[2.0, 0.3], [0.3, 1.0]]), 2.0 * np.eye(2)])
def test_affine_map_power_validates_its_input_once(monkeypatch, a):
    # Once to decompose A and, on the distinct-eigenvalue route, once more
    # where phi applies to A itself; the confluent fallback reuses the
    # decomposition.  Drift within the guard gives the same bits.
    phi = compression((0, 1), 2)
    drift = a + np.array([[0.0, 1e-15], [0.0, 0.0]])
    expected = apply_power_affine_2x2(phi, 0.5, symmetrize(drift))
    eigs = count_calls(monkeypatch, core.eig_sym)
    guards = count_calls(monkeypatch, core.symmetrize)
    out = apply_power_affine_2x2(phi, 0.5, drift)
    assert len(eigs) == 1
    assert _validations_of(drift, guards) == (1 if a[0, 1] == 0.0 else 2)
    assert np.array_equal(out, expected)


def test_frechet_derivatives_validate_the_base_once(monkeypatch):
    base = random_pd(3, 74, 10.0)
    h = sym_rand(np.random.default_rng(75), 3)
    k = sym_rand(np.random.default_rng(76), 3)
    drift = base + np.triu(np.full((3, 3), 1e-15), 1)
    sym = symmetrize(drift)
    expected = (frechet_d1(LOG, sym, h), frechet_d2(LOG, sym, h, k))
    guards = count_calls(monkeypatch, core.symmetrize)
    out = (frechet_d1(LOG, drift, h), frechet_d2(LOG, drift, h, k))
    assert _validations_of(drift, guards) == 2
    assert all(np.array_equal(x, y) for x, y in zip(out, expected))


def test_map_power_requires_unital_map():
    half = LinearMatrixMap(2, 2, 0.5 * np.eye(4), tag="general")
    with pytest.raises(NotUnitalError):
        map_power(half, 1.0, np.eye(2))


def test_map_power_dimension_check():
    with pytest.raises(DimensionMismatchError):
        map_power(identity_map(2), 1.0, np.eye(3))


_HALF = LinearMatrixMap(2, 2, 0.5 * np.eye(4), tag="general")


@pytest.mark.parametrize("call,error,message", [
    (lambda: scalar_power_mean(1.0, 0.0, 1.0), PreconditionError,
     "scalar power mean needs positive arguments"),
    # a map mean checks unitality, then validates A, then A's dimension,
    # all before any exponent is read
    (lambda: map_power(_HALF, np.nan, [[1.0, 1.0], [0.0, 1.0]]), NotUnitalError,
     "map_power requires a unital map"),
    (lambda: map_power(identity_map(3), np.nan, [[1.0, 1.0], [0.0, 1.0]]), PreconditionError,
     "asymmetry 1.000e+00 exceeds the construction guard"),
    (lambda: map_power(identity_map(2), np.nan, np.eye(3)), DimensionMismatchError,
     "matrix dim 3 does not match map input dim 2"),
    (lambda: map_power(identity_map(2), np.nan, np.eye(2)), PreconditionError,
     "exponent must be finite"),
    (lambda: limit_slope_check(identity_map(2), np.eye(3), [1e-2]), DimensionMismatchError,
     "matrix dim 3 does not match map input dim 2"),
])
def test_mean_input_errors(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# small-exponent limit
# ---------------------------------------------------------------------------

def test_limit_deviations_zero_at_identity():
    devs = limit_slope_check(block_average(2), np.eye(4), [1e-2, 1e-3, 1e-4])
    assert np.all(devs <= 1e-12)


def test_limit_identity_map_deviations_are_rounding_level():
    a = random_pd(2, 81, 5.0)
    devs = limit_slope_check(identity_map(2), a, [1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    assert np.all(devs <= 1e-9 * (1.0 + np.abs(a).max()))


def test_limit_block_average_ratio_bounded():
    x = np.diag([1.0, 0.5])
    r = plane_rotation(0.4)
    y = symmetrize(r @ np.diag([1.0, 4.0]) @ r.T)
    ps = np.array([1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    devs = limit_slope_check(block_average(2), _embed_block_diag(x, y), ps)
    ratios = devs / ps
    assert np.all(np.diff(devs) < 0.0)
    assert ratios.max() <= 2.0 * ratios[0] + 1e-6


def test_limit_sequence_validation():
    with pytest.raises(PreconditionError):
        limit_slope_check(identity_map(2), np.eye(2), [1e-4, 1e-3])
    with pytest.raises(PreconditionError):
        limit_slope_check(identity_map(2), np.eye(2), [])
