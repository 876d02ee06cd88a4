"""Unital positive linear maps: constructors, invariants, the affine route."""

import numpy as np
import pytest

from powmean import (
    DimensionMismatchError,
    IndexOutOfRangeError,
    NotUnitalError,
    Power,
    PreconditionError,
    apply_power_affine_2x2,
    block_average,
    compression,
    eig_sym,
    identity_map,
    kraus_map,
    loewner_leq,
    map_power,
    mat_fun,
    plane_rotation,
    random_kraus_map,
    random_pd,
    rotated_pinch,
    symmetrize,
)

from conftest import sym_rand

ALL_STRUCTURAL = [
    block_average(2),
    block_average(3),
    compression((0, 1), 3),
    compression((1,), 3),
    identity_map(3),
    rotated_pinch((0, 1), (0, 2), 0.3),
    rotated_pinch((0, 2), (1, 2), 0.7),
]


def test_block_average_unitality_and_blocks():
    phi = block_average(2)
    assert np.allclose(phi.apply(np.eye(4)), np.eye(2), atol=1e-14)
    assert np.allclose(phi.apply(np.diag([1.0, 2.0, 3.0, 4.0])), np.diag([2.0, 3.0]))


def test_block_average_off_diagonal_blocks_ignored(rng):
    z = sym_rand(rng, 4)
    expected = (z[:2, :2] + z[2:, 2:]) / 2.0
    assert np.allclose(block_average(2).apply(z), expected, atol=1e-14)


def test_compression_examples():
    b = np.array([[2.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 2.0]])
    assert np.allclose(compression((0, 1), 3).apply(b), [[2.0, 0.0], [0.0, 1.0]])
    assert np.allclose(identity_map(3).apply(b), b)
    assert np.allclose(compression((1,), 3).apply(np.diag([5.0, 7.0, 9.0])), [[7.0]])


def test_compression_index_validation():
    with pytest.raises(IndexOutOfRangeError):
        compression((0, 3), 3)
    with pytest.raises(PreconditionError):
        compression((1, 0), 3)
    with pytest.raises(PreconditionError):
        compression((), 3)


def test_rotated_pinch_zero_angle_averages_submatrices(rng):
    z = sym_rand(rng, 3)
    phi = rotated_pinch((0, 1), (0, 2), 0.0)
    sub_a = z[np.ix_((0, 1), (0, 1))]
    sub_b = z[np.ix_((0, 2), (0, 2))]
    assert np.allclose(phi.apply(z), (sub_a + sub_b) / 2.0, atol=1e-14)


def test_rotated_pinch_unital():
    phi = rotated_pinch((0, 1), (0, 2), 0.9)
    assert np.allclose(phi.apply(np.eye(3)), np.eye(2), atol=1e-14)


@pytest.mark.parametrize("p", [-1.0, 0.0, 0.5, 2.0])
def test_rotated_pinch_reproduces_power_mean(p):
    from powmean import pd_rotation_pair, power_mean

    theta, x, y = 0.3, 0.4, 2.0
    phi = rotated_pinch((0, 1), (0, 2), theta)
    lhs = map_power(phi, p, np.diag([1.0, x, y]))
    a, b = pd_rotation_pair(x, y, theta)
    rhs = power_mean(p, a, b)
    assert np.abs(lhs - rhs).max() <= 1e-10 * (1.0 + np.abs(rhs).max())


def test_rotated_pinch_second_configuration():
    from powmean import power_mean, rank_one_pair

    theta, eps = 0.25, 1e-9
    phi = rotated_pinch((0, 2), (1, 2), theta)
    z = np.diag([2.0, 1.0, 0.0]) + eps * np.eye(3)
    lhs = map_power(phi, 0.5, z)
    a, b = (m + eps * np.eye(2) for m in rank_one_pair(theta))
    rhs = power_mean(0.5, a, b)
    assert np.abs(lhs - rhs).max() <= 1e-9


def test_kraus_single_orthogonal_factor_preserves_spectrum(rng):
    phi = kraus_map([plane_rotation(0.6)])
    m = sym_rand(rng, 2)
    assert np.allclose(
        eig_sym(phi.apply(m)).eigenvalues, eig_sym(m).eigenvalues, atol=1e-12
    )


def test_kraus_selector_factors_give_compression():
    sel = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    phi = kraus_map([sel])
    z = np.diag([4.0, 5.0, 6.0])
    assert np.allclose(phi.apply(z), np.diag([4.0, 5.0]))


def test_kraus_rejects_non_unital_factors():
    with pytest.raises(NotUnitalError):
        kraus_map([0.5 * np.eye(2)])
    with pytest.raises(NotUnitalError):  # NaN compares false both ways
        kraus_map([[[np.nan]]])


def test_random_kraus_maps_unital():
    for seed in range(10):
        phi = random_kraus_map(2, 3, seed)
        assert phi.is_unital()
        assert np.allclose(phi.apply(np.eye(2)), np.eye(3), atol=1e-12)


@pytest.mark.parametrize("in_dim,out_dim", [(i, o) for i in range(1, 9) for o in range(1, 9)
                                             if 3 * i <= o])
def test_random_kraus_maps_unital_where_three_factors_lack_rank(in_dim, out_dim):
    # sum V V^T of three in_dim-column factors has rank <= 3 in_dim <= out_dim,
    # and at 3 in_dim = out_dim it is a square Gram matrix, often ill-conditioned
    for seed in range(100):
        phi = random_kraus_map(in_dim, out_dim, seed)
        assert phi.is_unital()
        assert phi.tag == "kraus(%d)" % (-(-out_dim // in_dim) + 1)
    assert random_kraus_map(in_dim, 3 * in_dim, 0).tag == "kraus(4)"


@pytest.mark.parametrize("in_dim,out_dim,seed", [
    (2, 6, 1748), (2, 6, 2732), (2, 6, 2828), (2, 6, 3601),
    (1, 3, 1062), (1, 3, 1370), (1, 3, 1921), (1, 3, 2257), (1, 3, 3928), (1, 3, 3948),
])
def test_random_kraus_map_square_gram_seeds(in_dim, out_dim, seed):
    # every seed in 0..3999 at which three factors of 3 in_dim = out_dim
    # columns gave a near-singular sum V V^T: the whitener raised or the map
    # missed unitality
    assert random_kraus_map(in_dim, out_dim, seed).is_unital()


def test_every_structural_map_unital():
    for phi in ALL_STRUCTURAL:
        assert phi.is_unital()


def test_positivity_on_sampled_psd_inputs(rng):
    maps = ALL_STRUCTURAL + [random_kraus_map(3, 2, 99), random_kraus_map(2, 4, 98)]
    count = 0
    while count < 500:
        phi = maps[count % len(maps)]
        root = rng.standard_normal((phi.in_dim, phi.in_dim))
        psd = symmetrize(root @ root.T)
        out = phi.apply(psd)
        lam = eig_sym(out).eigenvalues[0]
        assert lam >= -1e-10 * (1.0 + np.abs(out).max())
        count += 1


# ---------------------------------------------------------------------------
# affine evaluation on a 2x2 domain
# ---------------------------------------------------------------------------

def test_affine_coefficients_example():
    phi = kraus_map([plane_rotation(0.4)])
    a = np.diag([4.0, 1.0])
    expected = 5.0 * phi.apply(a) - 4.0 * np.eye(2)
    assert np.allclose(apply_power_affine_2x2(phi, 2.0, a), expected, atol=1e-12)


def test_affine_power_one_is_plain_apply():
    phi = random_kraus_map(2, 3, 17)
    a = random_pd(2, 18, 9.0)
    assert np.allclose(apply_power_affine_2x2(phi, 1.0, a), phi.apply(a), atol=1e-12)


def test_affine_confluent_fallback_scalar_matrix():
    phi = random_kraus_map(2, 3, 23)
    a = 3.0 * np.eye(2)
    out = apply_power_affine_2x2(phi, 2.0, a)
    assert np.allclose(out, 9.0 * np.eye(3), atol=1e-10)


def test_affine_matches_direct_over_seeded_cases():
    rng = np.random.default_rng(515)
    for _ in range(200):
        out_dim = int(rng.integers(2, 5))
        phi = random_kraus_map(2, out_dim, int(rng.integers(2**63)))
        a = random_pd(2, int(rng.integers(2**63)), 10.0)
        p = float(rng.uniform(-3.0, 3.0))
        direct = phi.apply(mat_fun(a, Power(p)))
        affine = apply_power_affine_2x2(phi, p, a)
        assert np.abs(affine - direct).max() <= 1e-9 * (1.0 + np.abs(direct).max())


def test_affine_matches_direct_on_singular_input():
    # The rank-one projection's zero eigenvalue computes as +-1e-19 or so;
    # both routes must count it as 0 under the fractional power, not raise
    # on a negative one or map a positive one to ~3e-10.
    from powmean import rank_one_pair

    phi = random_kraus_map(2, 3, 5)
    for k in range(200):
        b = rank_one_pair(0.003 + 0.01 * k)[1]
        direct = phi.apply(mat_fun(b, Power(0.5)))
        affine = apply_power_affine_2x2(phi, 0.5, b)
        assert np.abs(affine - direct).max() <= 1e-14


def test_order_preserved_by_maps_with_2x2_domain():
    rng = np.random.default_rng(929)
    for _ in range(60):
        out_dim = int(rng.integers(2, 5))
        phi = random_kraus_map(2, out_dim, int(rng.integers(2**63)))
        a = random_pd(2, int(rng.integers(2**63)), 10.0)
        u, v = sorted(rng.uniform(-3.0, 3.0, size=2))
        if v - u < 1e-6:
            continue
        verdict = loewner_leq(
            map_power(phi, u, a),
            map_power(phi, v, a),
        )
        assert verdict.holds


@pytest.mark.parametrize("call,error,message", [
    (lambda: identity_map(2).apply(np.eye(3)), DimensionMismatchError,
     "map expects 2x2 input, got (3, 3)"),
    (lambda: random_kraus_map(0, 2, 1), PreconditionError, "map dimensions must lie in 1..8"),
    (lambda: kraus_map([]), PreconditionError, "kraus_map needs at least one factor"),
    (lambda: kraus_map([np.eye(2), np.eye(3)]), DimensionMismatchError,
     "kraus factors must share one shape"),
    (lambda: block_average(5), PreconditionError, "block size must lie in 1..4"),
    (lambda: rotated_pinch((0,), (1, 2), 0.1), PreconditionError,
     "rotated_pinch needs index pairs of size 2"),
    (lambda: apply_power_affine_2x2(random_kraus_map(3, 2, 1), 0.5, np.eye(3)),
     DimensionMismatchError, "affine route needs a 2x2 domain"),
])
def test_map_input_errors(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
