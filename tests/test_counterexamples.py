"""Counterexample families, searches, certification, and the sign table.

Every witness is re-verified here through numpy.linalg.eigh, a code path
independent of the library's own eigensolver.
"""

import math

import numpy as np
import pytest

from powmean import (
    CHOI_MATRIX,
    Case,
    InRegionError,
    PreconditionError,
    choi_sign_table,
    classify,
    construct_log_euclidean,
    construct_pd_rotation,
    construct_rank_one,
    construct_scalar_fail,
    det_coeff_power_pair,
    find_counterexample,
    pd_rotation_pair,
    power_mean,
    rank_one_pair,
    scalar_power_mean,
)


def _independent_check(witness):
    """Smallest eigenvalue of M_q - M_p via numpy, plus witness residual."""
    diff = power_mean(witness.q, witness.a, witness.b) - power_mean(
        witness.p, witness.a, witness.b
    )
    lam = float(np.linalg.eigvalsh(diff)[0])
    quad = float(witness.witness @ diff @ witness.witness)
    return lam, quad


def _assert_certified(witness, floor=-1e-10):
    lam, quad = _independent_check(witness)
    assert witness.neg_eigenvalue < floor
    assert lam == pytest.approx(witness.neg_eigenvalue, abs=1e-10)
    assert quad == pytest.approx(witness.neg_eigenvalue, abs=1e-10)
    assert np.abs(np.linalg.norm(witness.witness) - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

def test_pd_rotation_pair_spectra():
    a, b = pd_rotation_pair(0.3, 4.0, 0.7)
    assert np.allclose(np.diag(a), [1.0, 0.3])
    assert np.allclose(np.sort(np.linalg.eigvalsh(b)), [1.0, 4.0], atol=1e-13)


def test_rank_one_pair_is_projection():
    a, b = rank_one_pair(0.4)
    assert np.allclose(b @ b, b, atol=1e-14)
    assert np.trace(b) == pytest.approx(1.0)
    assert np.allclose(np.sort(np.linalg.eigvalsh(a)), [0.0, 2.0])


def test_rank_one_pair_shift():
    a, b = rank_one_pair(0.4, eps_shift=1e-3)
    assert np.linalg.eigvalsh(a)[0] == pytest.approx(1e-3)
    assert np.linalg.eigvalsh(b)[0] == pytest.approx(1e-3)


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,q", [(0.25, 1.0), (-0.5, 0.5), (0.25, 0.3)])
def test_pd_rotation_witnesses(p, q):
    witness = construct_pd_rotation(p, q)
    _assert_certified(witness)
    assert witness.y == pytest.approx(witness.x**2)
    assert not witness.dual_applied


def test_pd_rotation_precondition():
    with pytest.raises(PreconditionError):
        construct_pd_rotation(0.75, 1.0)
    with pytest.raises(PreconditionError):
        construct_pd_rotation(0.25, 0.1)


@pytest.mark.parametrize("q", [1.0, 0.1])
def test_log_euclidean_witnesses(q):
    witness = construct_log_euclidean(q)
    assert witness.p == 0.0
    _assert_certified(witness)


def test_log_euclidean_precondition():
    with pytest.raises(PreconditionError):
        construct_log_euclidean(-1.0)


@pytest.mark.parametrize("p,q", [(0.6, 0.8), (0.5, 0.9)])
def test_rank_one_witnesses(p, q):
    witness = construct_rank_one(p, q)
    _assert_certified(witness)
    assert witness.x is None


def test_rank_one_precondition():
    with pytest.raises(PreconditionError):
        construct_rank_one(0.3, 0.3)
    with pytest.raises(PreconditionError):
        construct_rank_one(0.5, 1.2)


def test_rank_one_shifted_pair_cross_check():
    # continuity: the eps-shifted positive definite pair certifies too
    plain = construct_rank_one(0.6, 0.8)
    shifted = construct_rank_one(0.6, 0.8, eps_shift=1e-10)
    _assert_certified(shifted)
    assert shifted.neg_eigenvalue == pytest.approx(plain.neg_eigenvalue, rel=1e-3)


def test_scalar_fail_frozen_value():
    witness = construct_scalar_fail(2.0, 1.0)
    expected = 2.5 - math.sqrt(8.5)
    assert witness.neg_eigenvalue == pytest.approx(expected, abs=1e-12)
    _assert_certified(witness)


def test_scalar_fail_harmonic_below_arithmetic():
    witness = construct_scalar_fail(1.0, -1.0)
    assert witness.neg_eigenvalue == pytest.approx(1.6 - 2.5, abs=1e-12)


def test_scalar_fail_precondition():
    with pytest.raises(PreconditionError):
        construct_scalar_fail(0.5, 0.5)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def test_find_counterexample_direct():
    witness = find_counterexample(0.25, 1.0)
    _assert_certified(witness)
    assert not witness.dual_applied


def test_find_counterexample_in_region():
    with pytest.raises(InRegionError):
        find_counterexample(1.0, 2.0)


@pytest.mark.parametrize("p,q", [(-2.0, -0.25), (-1.0, -0.1), (-0.9, -0.7), (-3.0, 0.0)])
def test_find_counterexample_dual_recertified(p, q):
    witness = find_counterexample(p, q)
    assert witness.dual_applied
    assert classify(p, q).via_dual
    # the duality identity guided the construction; certification is direct
    _assert_certified(witness, floor=-1e-12)
    assert witness.p == p and witness.q == q


#: (p, q) -> (x, y, theta, dual_applied) of the first certified schedule
#: point: x = 2^-k, y = x^2, theta = 0.1 * 2^-j, so every value is exact.
_SEARCH_ORDER = {
    "pd-rotation": ((0.3, 2.0), (2.0**-7, 2.0**-14, 0.1 * 2.0**-5, False)),
    "log-euclidean": ((0.0, 3.0), (2.0**-5, 2.0**-10, 0.1 * 2.0**-4, False)),
    "rank-one": ((0.9, 0.95), (None, None, 0.1 * 2.0**-13, False)),
    "pd-rotation-dual": ((-2.0, -0.25), (2.0**-6, 2.0**-12, 0.1 * 2.0**-4, True)),
    "log-euclidean-dual": ((-3.0, 0.0), (2.0**-5, 2.0**-10, 0.1 * 2.0**-4, True)),
    "rank-one-dual": ((-0.9, -0.7), (None, None, 0.1 * 2.0**-2, True)),
}


@pytest.mark.parametrize("label", sorted(_SEARCH_ORDER))
def test_find_counterexample_search_order(label):
    (p, q), expected = _SEARCH_ORDER[label]
    assert str(classify(p, q)) == label
    witness = find_counterexample(p, q)
    assert (witness.x, witness.y, witness.theta, witness.dual_applied) == expected


def test_find_counterexample_normalizes_tiny_exponents():
    # below the log-Euclidean threshold the dispatch must follow the means
    witness = find_counterexample(1e-9, 2.0)
    assert witness.p == 0.0
    _assert_certified(witness, floor=-1e-12)


def test_find_counterexample_scalar_branch():
    witness = find_counterexample(2.0, -1.0)
    assert classify(2.0, -1.0).case is Case.SCALAR_FAIL
    _assert_certified(witness)


def test_coefficient_guidance_becomes_and_stays_negative():
    for p, q in [(0.25, 1.0), (-0.5, 0.5), (0.3, 2.0)]:
        signs = []
        for k in range(4, 30):
            x = 2.0**-k
            signs.append(det_coeff_power_pair(p, q, x, x * x).total < 0.0)
        first_negative = signs.index(True)
        assert all(signs[first_negative:])


# ---------------------------------------------------------------------------
# sign table
# ---------------------------------------------------------------------------

def test_choi_matrix_is_positive_definite():
    assert np.all(np.linalg.eigvalsh(CHOI_MATRIX) > 0.0)


def test_choi_sign_table_five_intervals():
    rows = choi_sign_table([-2.0, -0.5, 0.5, 1.5, 3.0])
    expected = {
        -2.0: ("-", "+"),
        -0.5: ("+", "+"),
        0.5: ("-", "-"),
        1.5: ("+", "+"),
        3.0: ("-", "+"),
    }
    for p, signs in rows:
        assert signs == expected[p]


def test_choi_sign_table_magnitudes_clear_threshold():
    from powmean import Power, compression, mat_fun

    comp = compression((0, 1), 3)
    for p in (-2.0, -0.5, 0.5, 1.5, 3.0):
        gap = comp.apply(mat_fun(CHOI_MATRIX, Power(p))) - mat_fun(
            comp.apply(CHOI_MATRIX), Power(p)
        )
        assert np.abs(np.linalg.eigvalsh(gap)).min() > 1e-12


def test_choi_sign_table_rejects_zero_power():
    with pytest.raises(PreconditionError):
        choi_sign_table([0.0])


def test_compression_cube_order_fails_with_mixed_signs():
    from powmean import Power, compression, loewner_leq, mat_fun

    comp = compression((0, 1), 3)
    cubed_then_compressed = comp.apply(mat_fun(CHOI_MATRIX, Power(3.0)))
    compressed_then_cubed = mat_fun(comp.apply(CHOI_MATRIX), Power(3.0))
    verdict = loewner_leq(compressed_then_cubed, cubed_then_compressed)
    assert not verdict.holds
    assert verdict.min_eigenvalue < -1e-12
