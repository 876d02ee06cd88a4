"""Exact region membership, the dual reflection, and the case classifier."""

import math

import pytest

from powmean import Case, PreconditionError, classify, dual, in_sufficient_region


IN_POINTS = [
    (2.0, 2.0),       # equal exponents
    (1.0, 3.0),       # 1 <= p < q
    (-3.0, -1.0),     # p < q <= -1
    (-1.0, 1.0),      # p <= -1, q >= 1
    (0.5, 1.5),       # 1/2 <= p < 1 <= q
    (-2.0, -0.6),     # p <= -1 < q <= -1/2
]

OUT_POINTS = [
    (0.25, 1.0),
    (0.0, 2.0),
    (0.49, 100.0),
    (-0.5, 0.5),
    (-2.0, -0.25),
    (0.5, 0.75),
    (-0.9, -0.7),
]


@pytest.mark.parametrize("p,q", IN_POINTS)
def test_membership_for_each_condition(p, q):
    assert in_sufficient_region(p, q)


@pytest.mark.parametrize("p,q", OUT_POINTS)
def test_points_outside(p, q):
    assert not in_sufficient_region(p, q)


def test_boundaries_are_literal():
    assert in_sufficient_region(0.5, 1.0)       # p = 1/2, q = 1 included
    assert not in_sufficient_region(0.5, 0.999)  # q < 1 excluded
    assert in_sufficient_region(-1.0, -0.5)      # q = -1/2 included
    assert not in_sufficient_region(-1.0, -0.49)
    assert not in_sufficient_region(0.499, 1.0)


def test_dual_is_involution_preserving_membership():
    for pt in IN_POINTS + OUT_POINTS:
        assert dual(*dual(*pt)) == pt
        assert in_sufficient_region(*pt) == in_sufficient_region(*dual(*pt))
    assert dual(1.0, 2.0) == (-2.0, -1.0)
    assert dual(0.0, 1.0) == (-1.0, 0.0)


def test_classify_direct_cases():
    assert classify(0.25, 1.0).case is Case.PD_ROTATION
    assert not classify(0.25, 1.0).via_dual
    assert classify(0.0, 2.0).case is Case.LOG_EUCLIDEAN
    assert classify(0.5, 0.75).case is Case.RANK_ONE
    assert classify(2.0, 1.0).case is Case.SCALAR_FAIL
    assert classify(1.0, 2.0).case is Case.IN_REGION


def test_classify_dual_case_checks_all_conditions():
    p, q = -2.0, -0.25
    # direct violation of all six conditions
    assert p != q
    assert not 1.0 <= p
    assert not q <= -1.0
    assert not q >= 1.0
    assert not 0.5 <= p
    assert not (-1.0 < q <= -0.5)
    label = classify(p, q)
    assert label.case is Case.PD_ROTATION and label.via_dual
    dp, dq = dual(p, q)
    assert (dp, dq) == (0.25, 2.0)
    assert -1.0 < dp < 0.5 and dq > max(0.0, dp)


def test_classify_overlap_prefers_pd_rotation():
    # 0 < p < 1/2 with q < 1 fits both the generic and rank-one families
    label = classify(0.1, 0.3)
    assert label.case is Case.PD_ROTATION and not label.via_dual


def test_classify_dual_rank_one():
    label = classify(-0.9, -0.7)
    assert label.case is Case.RANK_ONE and label.via_dual


def test_classify_label_text():
    assert str(classify(0.25, 1.0)) == "pd-rotation"
    assert str(classify(-2.0, -0.25)) == "pd-rotation-dual"
    assert str(classify(1.0, 2.0)) == "in-region"
    assert str(classify(3.0, 1.0)) == "scalar-fail"


@pytest.mark.parametrize("p,q", [(math.nan, 1.0), (1.0, math.nan), (math.inf, math.inf),
                                 (-math.inf, math.inf), (0.5, -math.inf)])
def test_classify_rejects_non_finite_exponents(p, q):
    with pytest.raises(PreconditionError):
        classify(p, q)


def test_grid_exhaustive_classification():
    # every grid point classifies without a gap, and membership respects duality
    for i in range(161):
        for j in range(161):
            p = -4.0 + 0.05 * i
            q = -4.0 + 0.05 * j
            label = classify(p, q)
            if p <= q and not in_sufficient_region(p, q):
                assert label.case in (
                    Case.PD_ROTATION,
                    Case.LOG_EUCLIDEAN,
                    Case.RANK_ONE,
                )
            assert in_sufficient_region(p, q) == in_sufficient_region(*dual(p, q))
