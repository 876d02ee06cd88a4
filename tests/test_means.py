"""Power means, the log-Euclidean branch, and map-composed forms."""

import hashlib
import itertools

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
    frechet_d1,
    frechet_d2,
    identity_map,
    limit_slope_check,
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
from powmean import core, find_counterexample, fuzz, random_kraus_map
from powmean.fuzz import fuzz_point, order_margin
from powmean.maps import plane_rotation
from powmean.means import _gap_against

from conftest import count_calls, pd_from_draws, sym_rand


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
    with pytest.raises(DomainError) as two_calls:
        power_mean(q, a, b) - power_mean(p, a, b)
    with pytest.raises(DomainError) as gap:
        power_mean_gap(p, q, a, b)
    assert type(gap.value) is type(two_calls.value)
    assert str(gap.value) == str(two_calls.value)


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
    assert digest == "3a637b64ad1aa7c5a74be7fcc842745809151ea7381fc89bd973b2b8c905f328"


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("p, q", [(0.5, 2.0), (0.0, 2.0), (-3.0, 0.0), (-0.5, -0.5), (0.0, 0.0)])
def test_gap_against_fixed_a_matches_two_calls(dim, p, q):
    # one prepared A serves several B's, bit for bit as the two-call form
    a = random_pd(dim, 500 + dim, 10.0)
    gap = _gap_against(p, q, a)
    for seed in range(4):
        b = random_pd(dim, 600 + 10 * dim + seed, 10.0)
        two_calls = power_mean(q, a, b) - power_mean(p, a, b)
        assert gap(b).tobytes() == two_calls.tobytes(), seed


@pytest.mark.parametrize("p, q", [(0.5, -0.5), (-3.0, -0.5), (0.0, 0.0), (-3.0, 0.5), (0.0, 2.0)])
def test_gap_against_raises_its_a_side_error_at_the_first_b(p, q):
    # f(A) of A = diag(2, 0) fails for the q-mean, or for the p-mean after the
    # q-mean is done: preparing A raises nothing, and every B raises the error
    a = np.diag([2.0, 0.0])
    gap = _gap_against(p, q, a)
    for b in ([[1.0, 0.5], [0.5, 1.0]], np.eye(2), [[1.0, 0.5], [0.5, 1.0]]):
        with pytest.raises(DomainError) as two_calls:
            power_mean(q, a, b) - power_mean(p, a, b)
        with pytest.raises(DomainError) as prepared:
            gap(b)
        assert type(prepared.value) is type(two_calls.value)
        assert str(prepared.value) == str(two_calls.value)


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


def test_order_check_validates_once_per_decomposition(monkeypatch):
    a = random_pd(3, 71, 10.0)
    b = random_pd(3, 72, 10.0)
    decompositions = count_calls(monkeypatch, core._decompose)
    guards = count_calls(monkeypatch, core.symmetrize)
    order_margin(0.5, 2.0, a, b)
    # A and B are validated; they, the root of each mean and M_q - M_p are
    # decomposed, the last three as the library built them
    assert len(decompositions) == 5
    assert len(guards) == 2


@pytest.mark.parametrize("p, q", [(0.5, 0.5), (-2.0, -2.0), (0.0, 0.0), (1e-9, -1e-9)])
def test_equal_exponent_gap_takes_one_mean(monkeypatch, p, q):
    a = random_pd(3, 71, 10.0)
    b = random_pd(3, 72, 10.0)
    decompositions = count_calls(monkeypatch, core._decompose)
    guards = count_calls(monkeypatch, core.symmetrize)
    gap = power_mean_gap(p, q, a, b)
    # A, B and the one mean's root
    assert len(decompositions) == 3
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
    assert m.tobytes() == m.T.tobytes()


def test_library_built_decompositions_are_exactly_symmetric(monkeypatch):
    # The unvalidated decomposition is sound only on matrices bitwise equal
    # to their transpose (their own symmetric part): every route must build
    # them so.
    decompositions = count_calls(monkeypatch, core._decompose, check=_assert_bitwise_symmetric)
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
        for p, q, x in [(0.0, 2.0, a), (-1.0, 0.0, a), (0.5, 1.5, singular), (0.5, 0.5, a)]:
            # each mean's root and the gap; one mean at p = q
            assert unvalidated(order_margin, p, q, x, b) == (2 if p == q else 3)
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
    assert order_margin(0.25, 1.0, w.a, w.b)[0] < 0.0
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


def _fuzz_point_reference(p, q, trials, seed, dims):
    """fuzz_point as a per-trial loop over its draw order: per dimension, all
    spreads, then every matrix's uniform row, then every matrix's normal slice."""
    rng = fuzz._spawn(seed, 0)
    passed, worst = True, float("inf")
    for dim in dims:
        spreads = [fuzz._SPREADS[k] for k in rng.integers(len(fuzz._SPREADS), size=trials)]
        u = [rng.uniform(-1.0, 1.0, dim) for _ in range(2 * trials)]
        gauss = [rng.standard_normal((dim, dim)) for _ in range(2 * trials)]
        for t, spread in enumerate(spreads):
            a = pd_from_draws(u[2 * t], gauss[2 * t], spread)
            b = pd_from_draws(u[2 * t + 1], gauss[2 * t + 1], spread)
            margin, lam = order_margin(p, q, a, b)
            worst = min(worst, lam)
            passed &= margin >= 0.0
    return passed, worst


@pytest.mark.parametrize("p,q,dims", [
    (0.5, 2.0, (2, 3)),
    (0.25, 1.0, (2, 3)),  # outside the region: some checks fail
    (-1.0, 0.0, (1, 4, 8)),
])
def test_fuzz_point_matches_per_trial_reference(p, q, dims):
    for seed in range(3):
        got = fuzz_point(p, q, 25, seed, dims=dims)
        assert got == _fuzz_point_reference(p, q, 25, seed, dims)
    assert fuzz_point(p, q, 0, 0, dims=dims) == (True, float("inf"))


def test_fuzz_point_draws_pd_pairs_with_shared_spreads(monkeypatch):
    # Every stacked matrix is exactly symmetric with its spectrum in
    # [1/s, s]; a trial's two matrices share s, and every spread occurs.
    stacks = []
    inner = fuzz._random_pd_stack

    def recorded(rng, dim, spreads):
        stacks.append((list(spreads), inner(rng, dim, spreads)))
        return stacks[-1][1]

    monkeypatch.setattr(fuzz, "_random_pd_stack", recorded)
    for seed in range(4):
        fuzz_point(0.5, 2.0, 30, seed, dims=range(1, 9))
    assert len(stacks) == 4 * 8
    for spreads, stack in stacks:
        assert spreads[0::2] == spreads[1::2]
        assert set(spreads) == set(fuzz._SPREADS)
        for spread, m in zip(spreads, stack):
            assert np.array_equal(m, m.T)
            lam = np.linalg.eigvalsh(m)
            assert lam[0] >= (1.0 - 1e-12) / spread and lam[-1] <= (1.0 + 1e-12) * spread


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        power_mean(1.0, np.eye(2), np.eye(3))


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
    f, inverse = (LOG, EXP) if p == 0.0 else (Power(p), Power(1.0 / p))
    two_step = mat_fun(phi.apply(mat_fun(symmetrize(a), f)), inverse)
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
