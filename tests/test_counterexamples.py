"""Counterexample families, searches, certification, and the sign table.

Every witness is re-verified here through numpy.linalg.eigh, a code path
independent of the library's own eigensolver.
"""

import hashlib
import math
import random

import numpy as np
import pytest

import powmean.counterexamples as ce
from powmean.means import _decomposed_gap
from powmean import (
    CHOI_MATRIX,
    Case,
    DomainError,
    InRegionError,
    PowerMeanError,
    PreconditionError,
    SearchExhaustedError,
    choi_sign_table,
    classify,
    core,
    det_coeff_power_pair,
    dual,
    eig_sym,
    find_counterexample,
    in_sufficient_region,
    normalize_exponent,
    numeric_det_coeff,
    pd_rotation_difference,
    pd_rotation_pair,
    plane_rotation,
    power_mean,
    power_mean_gap,
    rank_one_difference,
    rank_one_pair,
    rank_one_remainder_orders,
    scalar_power_mean,
)

from conftest import assert_pinned, count_calls


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


# ---------------------------------------------------------------------------
# witnesses of each family, through the one public search
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,q", [(0.25, 1.0), (-0.5, 0.5), (0.25, 0.3)])
def test_pd_rotation_witnesses(p, q):
    assert str(classify(p, q)) == "pd-rotation"
    witness = find_counterexample(p, q)
    _assert_certified(witness)
    assert witness.y == pytest.approx(witness.x**2)
    assert not witness.dual_applied


@pytest.mark.parametrize("q", [1.0, 0.1])
def test_log_euclidean_witnesses(q):
    assert str(classify(0.0, q)) == "log-euclidean"
    witness = find_counterexample(0.0, q)
    assert witness.p == 0.0
    _assert_certified(witness)


@pytest.mark.parametrize("p,q", [(0.6, 0.8), (0.5, 0.9)])
def test_rank_one_witnesses(p, q):
    assert str(classify(p, q)) == "rank-one"
    witness = find_counterexample(p, q)
    _assert_certified(witness)
    assert witness.x is None


def test_rank_one_shifted_pair_cross_check():
    # continuity: at the witness's angle the eps-shifted positive definite
    # pair violates the order by about as much
    witness = find_counterexample(0.6, 0.8)
    a, b = (m + 1e-10 * np.eye(2) for m in rank_one_pair(witness.theta))
    gap = power_mean_gap(0.6, 0.8, a, b)
    lam = float(np.linalg.eigvalsh(gap)[0])
    assert lam < -1e-10
    assert lam == pytest.approx(witness.neg_eigenvalue, rel=1e-3)


def test_scalar_fail_frozen_value():
    witness = find_counterexample(2.0, 1.0)
    expected = 2.5 - math.sqrt(8.5)
    assert witness.neg_eigenvalue == pytest.approx(expected, abs=1e-12)
    _assert_certified(witness)


def test_scalar_fail_harmonic_below_arithmetic():
    witness = find_counterexample(1.0, -1.0)
    assert witness.neg_eigenvalue == pytest.approx(1.6 - 2.5, abs=1e-12)


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


#: (p, q) -> (x, y, theta, dual_applied, k, j) of the first certified
#: schedule point: x = 2^-k, y = x^2, theta = 0.1 * 2^-j, so every value is
#: exact.
_SEARCH_ORDER = {
    "pd-rotation": ((0.3, 2.0), (2.0**-7, 2.0**-14, 0.1 * 2.0**-5, False, 7, 5)),
    "log-euclidean": ((0.0, 3.0), (2.0**-5, 2.0**-10, 0.1 * 2.0**-4, False, 5, 4)),
    "rank-one": ((0.9, 0.95), (None, None, 0.1 * 2.0**-13, False, None, 13)),
    "pd-rotation-dual": ((-2.0, -0.25), (2.0**-6, 2.0**-12, 0.1 * 2.0**-4, True, 6, 4)),
    "log-euclidean-dual": ((-3.0, 0.0), (2.0**-5, 2.0**-10, 0.1 * 2.0**-4, True, 5, 4)),
    "rank-one-dual": ((-0.9, -0.7), (None, None, 0.1 * 2.0**-2, True, None, 2)),
}


@pytest.mark.parametrize("label", sorted(_SEARCH_ORDER))
def test_find_counterexample_search_order(label):
    (p, q), expected = _SEARCH_ORDER[label]
    assert str(classify(p, q)) == label
    witness = find_counterexample(p, q)
    assert (witness.x, witness.y, witness.theta, witness.dual_applied,
            witness.k, witness.j) == expected


@pytest.mark.parametrize("label", sorted(lab for lab in _SEARCH_ORDER if lab.endswith("-dual")))
def test_dual_witness_is_the_closed_form_reciprocal(label):
    # A dual witness is the exact reciprocal of its base pair, built from
    # the base schedule point without a numerical inversion.
    (p, q), (x, y, theta, *_) = _SEARCH_ORDER[label]
    witness = find_counterexample(p, q)
    if label == "rank-one-dual":
        eps = ce._DUAL_RANK_ONE_SHIFT
        r = plane_rotation(theta)
        b = r @ np.diag([1.0 / (1.0 + eps), 1.0 / eps]) @ r.T
        expected = (np.diag([1.0 / (2.0 + eps), 1.0 / eps]), (b + b.T) / 2.0)
        # The shifted pair has condition ~1/eps, beyond np.linalg.inv at 1e-12.
        inverses = _exact_shifted_rank_one_inverses(theta, eps)
    else:
        expected = pd_rotation_pair(1.0 / x, 1.0 / y, theta)
        assert np.array_equal(witness.a, np.diag([1.0, 1.0 / x]))
        inverses = [np.linalg.inv(m) for m in pd_rotation_pair(x, y, theta)]
    for got, want, inv in zip((witness.a, witness.b), expected, inverses):
        assert np.array_equal(got, want)
        assert np.abs(got - inv).max() <= 1e-12 * np.abs(inv).max()


def _exact_shifted_rank_one_inverses(theta, eps):
    """Inverses of diag(2 + eps, eps) and R_t diag(1 + eps, eps) R_t^T, the
    rank-one pair shifted by eps I, at 50 digits from the float theta, eps."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        t, e = mpmath.mpf(theta), mpmath.mpf(eps)
        r = mpmath.matrix([[mpmath.cos(t), -mpmath.sin(t)], [mpmath.sin(t), mpmath.cos(t)]])
        pair = (mpmath.diag([2 + e, e]), r * mpmath.diag([1 + e, e]) * r.T)
        return [np.array((m**-1).tolist(), dtype=float) for m in pair]


def test_rank_one_dual_certifies_near_minus_one():
    # The last rank-one-dual cell of the 0.1-step scan grid that exhausted
    # its search; -4.3825378e-4 matches an 80-digit evaluation to 8 digits.
    witness = find_counterexample(-0.9, -0.8)
    assert witness.dual_applied and witness.j == 6
    assert witness.neg_eigenvalue == pytest.approx(-4.3825378e-4, rel=1e-7)
    _assert_certified(witness)


def _gap_min_eigenvalue_80_digits(witness):
    """Smallest eigenvalue of M_q - M_p on the witness's float pair, taken
    as exact, by mpmath.eigsy at 80 digits (eigenvalues of A and B below
    zero count as zero, as in the library's semidefinite convention)."""
    mpmath = pytest.importorskip("mpmath")

    def fun(m, f):
        vals, vecs = mpmath.eigsy(m)
        return vecs * mpmath.diag([f(v) for v in vals]) * vecs.T

    def mean(r, a, b):
        if r == 0.0:
            return fun((fun(a, mpmath.log) + fun(b, mpmath.log)) / 2, mpmath.exp)
        r = mpmath.mpf(r)
        inner = (fun(a, lambda v: max(v, 0) ** r) + fun(b, lambda v: max(v, 0) ** r)) / 2
        return fun(inner, lambda v: v ** (1 / r))

    with mpmath.workdps(80):
        a, b = mpmath.matrix(witness.a.tolist()), mpmath.matrix(witness.b.tolist())
        gap = mean(witness.q, a, b) - mean(witness.p, a, b)
        return min(mpmath.eigsy((gap + gap.T) / 2)[0])


@pytest.mark.xfail(strict=True, reason="PSD_FLOOR's clamp in core._spectrum_values "
                   "sends the accurate small eigenvalue of (A^q + B^q)/2, below "
                   "1e-10 of its largest, to 0 before the 1/q root")
@pytest.mark.parametrize("p,q", [(0.4522959785774172, 2.9050183317942757),
                                 (-0.9464167002216444, 2.8631592556529846)])
def test_direct_pd_rotation_witness_is_true_or_uncertified(p, q):
    try:
        witness = find_counterexample(p, q)
    except SearchExhaustedError:
        return
    assert _gap_min_eigenvalue_80_digits(witness) < 0


def test_near_zero_pairs_outside_region_never_read_in_region():
    # Only the means snap an exponent within 1e-8 of zero; the search
    # classifies the pair as given.  Both exponents of each pair evaluate at
    # 0, so no gap certifies: uncertified with a reason, never in-region.
    for p, q in [(-5e-9, 5e-9), (1e-9, 2e-9), (0.0, 9e-9), (5.551115123125783e-17, 0.0)]:
        assert classify(p, q).case is not Case.IN_REGION
        with pytest.raises(SearchExhaustedError):
            find_counterexample(p, q)


@pytest.mark.parametrize("p,q", [(-2.655226064792961, 0.9333437257235069),
                                 (-1.8326540717642337, 0.9602683036174384)])
def test_dual_search_walks_past_candidates_that_fail(p, q):
    # Inverting only the first base hit left these pairs uncertified.
    witness = find_counterexample(p, q)
    assert witness.dual_applied
    _assert_certified(witness, floor=-ce.CERT_TOL)


def test_find_counterexample_normalizes_tiny_exponents():
    # the witness records the exponents the means evaluated; the search,
    # guided at p = 1e-9 as given, reaches the candidate of (0, 2)
    witness = find_counterexample(1e-9, 2.0)
    assert witness.p == 0.0
    _assert_certified(witness, floor=-1e-12)
    base = find_counterexample(0.0, 2.0)
    assert (witness.k, witness.j, witness.neg_eigenvalue) == (base.k, base.j, base.neg_eigenvalue)


def test_find_counterexample_scalar_branch():
    # up to |p|, |q| = 500 the scalar witness is (I, 4 I)
    for p, q in [(2.0, -1.0), (500.0, 1.0), (1.0, -500.0), (-1.0, -500.0)]:
        witness = find_counterexample(p, q)
        assert classify(p, q).case is Case.SCALAR_FAIL
        _assert_certified(witness)
        assert np.array_equal(witness.a, np.eye(2))
        assert np.array_equal(witness.b, 4.0 * np.eye(2))


@pytest.mark.parametrize("p, q", [(600.0, 1.0), (601.0, 600.0), (1500.0, 1400.0),
                                  (1.0, -600.0), (1e6, 1.0)])
def test_scalar_witness_at_large_exponents_certifies_without_overflow(p, q):
    # B = 4 I would overflow 4^p past |p| = 512; B = c I keeps c^p, c^q
    # within 2^1000, and the warnings filter turns any overflow into an error
    w = find_counterexample(p, q)
    c = 2.0 ** (1000.0 / max(abs(p), abs(q)))
    assert np.array_equal(w.b, c * np.eye(2))
    expected = scalar_power_mean(q, 1.0, c) - scalar_power_mean(p, 1.0, c)
    assert w.neg_eigenvalue < -ce.CERT_TOL
    assert w.neg_eigenvalue == pytest.approx(expected, rel=1e-9)
    assert (w.k, w.j, w.x, w.y, w.theta, w.dual_applied) == (None,) * 5 + (False,)


@pytest.mark.parametrize("p, q, at", [(1.000000000000001, 1.0, "(1, 1)"),
                                      (1e300, 1e299, "(1e+300, 1e+299)")])
def test_scalar_gap_below_the_tolerance_is_uncertified(p, q, at):
    with pytest.raises(SearchExhaustedError) as info:
        find_counterexample(p, q)
    assert str(info.value) == "scalar gap did not certify at " + at


@pytest.mark.parametrize("p,q", [(5e-324, 1.0), (-1e-300, 0.3), (-0.5, -1e-300)])
def test_search_guided_at_tiny_exponents_certifies(p, q):
    # r * e underflows at an exponent this small, yet the walk's coefficient
    # still guides the search; the witness is one for the snapped pair.
    witness = find_counterexample(p, q)
    assert (witness.p, witness.q) == (normalize_exponent(p), normalize_exponent(q))
    _assert_certified(witness)


def _scalar_mean_off(monkeypatch):
    monkeypatch.setattr(ce, "scalar_power_mean", lambda p, a, b: 1.0)
    return find_counterexample(2.0, 1.0)


@pytest.mark.parametrize("call,error,message", [
    (lambda mp: pd_rotation_pair(0.0, 0.25, 0.1), PreconditionError,
     "x and y must be positive"),
    # the scalar witness is checked against the scalar mean
    (_scalar_mean_off, SearchExhaustedError,
     "scalar witness inconsistent with the scalar mean"),
    # the q-mean overflows; it raises where it is decomposed, with no warning
    (lambda mp: find_counterexample(0.4, 1e308), PreconditionError,
     "matrix entries must be finite"),
])
def test_search_error_paths(call, error, message, monkeypatch):
    with pytest.raises(error) as info:
        call(monkeypatch)
    assert str(info.value) == message


def _witness_words(p, q, search=find_counterexample):
    """float.hex words of the witness ``search`` gives at (p, q)."""
    return _words(lambda: search(p, q))


def _words(search):
    """float.hex words of the witness ``search()`` returns: a, b, its
    eigenvalue and vector, then k, j and the dual flag; or the error's type
    and message.  Adding 0.0 folds the sign of a zero, which nothing reads."""
    try:
        w = search()
    except PowerMeanError as exc:
        return ["%s:%s" % (type(exc).__name__, exc)]
    floats = [*w.a.ravel().tolist(), *w.b.ravel().tolist(), w.neg_eigenvalue,
              *w.witness.tolist()]
    return [float.hex(v + 0.0) for v in floats] + [repr(w.k), repr(w.j), repr(w.dual_applied)]


def _pinned_pairs():
    """The 500 seeded pairs outside the region of the witness pin."""
    rng = random.Random(11)
    pairs = []
    for _ in range(500):
        while True:
            p, q = sorted((rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)))
            if rng.random() < 0.1:
                p, q = q, p
            if not in_sufficient_region(p, q):
                break
        pairs.append((p, q))
    return pairs


def _candidate_at(diagonal, j):
    """B_t of the walk with ``diagonal`` at angle j, built alone."""
    theta = ce._THETA_SCHEDULE[j]
    return ce._projection(theta) if diagonal is None else ce._rotated(diagonal, theta)


def _reference_witness(p, q, walks, candidate, exhausted, via_dual):
    """``_first_witness`` one candidate at a time: each B_t is
    ``candidate(diagonal, j)``, decomposed alone and certified by ``_certify``,
    and a ``DomainError`` ends its walk, or the search at j = 0."""
    for k, x, y, a, diagonal in walks:
        gap = _decomposed_gap(p, q, eig_sym(a))
        for j, theta in enumerate(ce._THETA_SCHEDULE):
            b = candidate(diagonal, j)
            try:
                hit = ce._certify(gap, core._decompose(b))
            except DomainError:
                if j == 0:
                    raise SearchExhaustedError(exhausted) from None
                break
            if hit is not None:
                return ce.Witness(normalize_exponent(p), normalize_exponent(q), a, b, *hit,
                                  x=x, y=y, theta=theta, dual_applied=via_dual, k=k, j=j)
    raise SearchExhaustedError(exhausted)


@np.errstate(over="ignore", invalid="ignore")
def _reference_search(p, q, candidate=_candidate_at):
    """``find_counterexample`` at a walked label (p < q outside the region),
    through ``_reference_witness``."""
    label = classify(p, q)
    bp, bq = dual(p, q) if label.via_dual else (p, q)
    exhausted = "%s schedule exhausted at (%g, %g)" % (label.case.value, bp, bq)
    walks = ce._walks(label.case, bp, bq, label.via_dual)
    return _reference_witness(p, q, walks, candidate, exhausted, label.via_dual)


def _reference_pairs():
    """2,000 seeded pairs p < q outside the region; about one in twenty has
    an exponent set to 0, so both log-Euclidean labels occur."""
    rng = random.Random(5)
    pairs = []
    while len(pairs) < 2000:
        p, q = sorted((rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)))
        if rng.random() < 0.05:
            p, q = sorted((0.0, p if rng.random() < 0.5 else q))
        if p < q and not in_sufficient_region(p, q):
            pairs.append((p, q))
    return pairs


def test_witness_bits_pinned():
    # 500 seeded pairs outside the region, about one in five with p > q and
    # 16 uncertified, recorded once the 2x2 small eigenvalue became det / big
    # and the rank-one dual shift 1e-9.  A change to any witness or search
    # outcome must re-record this deliberately.
    words = []
    for p, q in _pinned_pairs():
        words += _witness_words(p, q)
    digest = hashlib.sha256(" ".join(words).encode()).hexdigest()
    assert_pinned(digest, {
        "SkylakeX": "c0aacb2ac47389ffc861156e1ec00af79307092717cd4da59fa678a6f1115334",
        "Haswell": "c0aacb2ac47389ffc861156e1ec00af79307092717cd4da59fa678a6f1115334",
        "Sandybridge": "6976d0b90bb6df23d3bc4d7b3e5735c0bfa3742c188f1769ad8c21a7a5bc937b",
    })


def test_coefficient_guidance_becomes_and_stays_negative():
    for p, q in [(0.25, 1.0), (-0.5, 0.5), (0.3, 2.0)]:
        signs = []
        for k in range(4, 30):
            x = 2.0**-k
            signs.append(det_coeff_power_pair(p, q, x, x * x).total < 0.0)
        first_negative = signs.index(True)
        assert all(signs[first_negative:])


@pytest.mark.parametrize("q", [0.6, 1.0, 1.5, 2.0, 2.5, 2.9])
def test_rotation_walk_stops_only_where_every_candidate_fails(q):
    # Certify every candidate of the unstopped walks.  Each candidate the
    # stop rule skips (the rest of a theta walk after a DomainError, and
    # every later walk after one at j = 0) must raise DomainError itself.
    # A dual walk yields the reciprocal pairs, certified at (-q, -p).  Each
    # candidate gets its own prepared A, so none inherits another's outcome.
    walks = [(p, False) for p in (-0.99, -0.7, -0.3, -1e-3, 0.0)]
    walks += [(p, True) for p in (-0.7, 0.0, 0.3, 0.45)]
    skipped = []
    for p, via_dual in walks:
        exponents = (-q, -p) if via_dual else (p, q)
        case = Case.LOG_EUCLIDEAN if p == 0.0 else Case.PD_ROTATION
        ended = False
        for _, _, _, a, diagonal in ce._walks(case, p, q, via_dual):
            stopped = ended
            for j in range(len(ce._THETA_SCHEDULE)):
                try:
                    ce._certify(_decomposed_gap(*exponents, eig_sym(a)),
                                core._decompose(_candidate_at(diagonal, j)))
                    fails = False
                except DomainError:
                    fails = True
                if stopped:
                    skipped.append(fails)
                elif fails:
                    stopped, ended = True, j == 0
    assert skipped and all(skipped)


def test_block_search_matches_the_one_candidate_reference():
    # Every witness and error of the search, which certifies the later angles
    # of a walk as stacks, has the bits of the search one candidate at a time,
    # on the six walked labels and an overflowing mean.
    pairs = _reference_pairs() + [(p, q) for p, q in _LABEL_PAIRS if p < q] + [(0.4, 1e308)]
    assert {str(classify(p, q)) for p, q in pairs} == set(_SEARCH_ORDER)
    js, errors = set(), set()
    for p, q in pairs:
        words = _witness_words(p, q)
        assert words == _witness_words(p, q, _reference_search), (p, q)
        if len(words) > 1:
            js.add(int(words[-2]))
        else:
            errors.add(words[0].split(":")[0])
    # witnesses in every block, and both errors of the walked labels
    assert {_block_of(j) for j in js} == set(ce._BLOCKS)
    assert errors == {"SearchExhaustedError", "PreconditionError"}


#: Pairs of the reference sample that the CI's warm-cache step searches: a
#: pd-rotation, a rank-one and a dual witness at j >= 7, and a dual pair
#: whose walks end at a DomainError at j = 13, inside the block 7..14.
_BLOCK_PAIRS = {(0.38315483079990553, 2.7432755469899197): ("pd-rotation", 13),
                (0.8880077500132666, 0.9455894048212028): ("rank-one", 13),
                (-2.3602163418164466, -0.3926688563973775): ("pd-rotation-dual", 11),
                (-2.4940517038639287, -0.42809933568076897): ("pd-rotation-dual", None)}


@pytest.mark.parametrize("p, q", sorted(_BLOCK_PAIRS))
def test_block_pairs_reach_the_later_blocks(p, q):
    assert (p, q) in _reference_pairs()
    label, j = _BLOCK_PAIRS[p, q]
    reached = []
    w = _words(lambda: _reference_search(p, q, lambda d, j: reached.append(j) or
                                         _candidate_at(d, j)))
    assert str(classify(p, q)) == label
    if j is None:
        # a walk ends at a DomainError at j = 13 or at the schedule's end,
        # and the search at a DomainError at j = 0
        ends = [a for a, b in zip(reached, reached[1:] + [0]) if b == 0]
        assert w[0].startswith("SearchExhaustedError") and 13 in ends
        assert set(ends) <= {0, 13, len(ce._THETA_SCHEDULE) - 1}
    else:
        assert w[-2] == repr(j)


def _scripted_walks(monkeypatch, a, *scripts):
    """Walks k = 0, 1, ... on the one A: script k maps an angle index j to its
    B, every other angle holding B = A (a zero gap, a miss).  ``_block`` is
    replaced by the blocks cut from them; returns the walks and the
    candidate function of ``_reference_witness``."""
    rows = [[a] * len(ce._THETA_SCHEDULE) for _ in scripts]
    for walk, script in zip(rows, scripts):
        for j, b in script.items():
            walk[j] = b

    def block(k, start, stop):
        bs = tuple(rows[k][start:stop])
        return bs, core._decompose(bs[0] if len(bs) == 1 else np.stack(bs))

    monkeypatch.setattr(ce, "_block", block)
    return [(k, None, None, a, k) for k in range(len(scripts))], lambda k, j: rows[k][j]


def _scripted_search(monkeypatch, p, q, a, *scripts):
    """Words of ``_first_witness`` on the scripted walks, asserted equal to
    those of ``_reference_witness``."""
    walks, candidate = _scripted_walks(monkeypatch, a, *scripts)
    with np.errstate(over="ignore", invalid="ignore"):
        words = _words(lambda: ce._first_witness(p, q, walks, "x", False))
        assert words == _words(lambda: _reference_witness(p, q, walks, candidate, "x", False))
    return words


def test_domain_error_ends_its_walk_and_at_the_first_angle_the_search(monkeypatch):
    # Scripted walks on the one A of a certified witness: a B with y = 4^-20
    # below the floor raises DomainError, and the witness's B certifies.
    p, q = -0.5, 1.0
    hit = find_counterexample(p, q)
    fails = ce._rotated([1.0, 4.0**-20], 0.1)
    words = _scripted_search(monkeypatch, p, q, hit.a, {1: fails, 2: hit.b}, {0: hit.b})
    assert words[-3:] == ["1", "0", "False"]
    words = _scripted_search(monkeypatch, p, q, hit.a, {0: fails, 1: hit.b}, {0: hit.b})
    assert words == ["SearchExhaustedError:x"]


@pytest.mark.parametrize("bad, good, k, j", [
    (5, 4, 0, 4),    # after the certifying row: the earlier witness
    (4, 5, 1, 9),    # before it: the walk ends at j = 4, the next certifies
    (7, 14, 1, 9),   # the first row of a block
    (20, 19, 0, 19),
])
def test_domain_error_inside_a_block(monkeypatch, bad, good, k, j):
    p, q = -0.5, 1.0
    hit = find_counterexample(p, q)
    fails = ce._rotated([1.0, 4.0**-20], 0.1)
    words = _scripted_search(monkeypatch, p, q, hit.a, {bad: fails, good: hit.b}, {9: hit.b})
    assert words[-3:] == [repr(k), repr(j), "False"]


@pytest.mark.parametrize("bad, good, j", [(5, 4, 4), (4, 5, None), (12, 16, None), (16, 12, 12)])
def test_overflowing_mean_inside_a_block(monkeypatch, bad, good, j):
    # B^2 of a B with eigenvalue 1e200 overflows, so the q-mean's root raises
    # PreconditionError; a block raises it only where no earlier row certifies.
    p, q = -0.5, 2.0
    hit = find_counterexample(p, q)
    big = ce._rotated([1.0, 1e200], 0.1)
    words = _scripted_search(monkeypatch, p, q, hit.a, {bad: big, good: hit.b}, {0: hit.b})
    if j is None:
        assert words == ["PreconditionError:matrix entries must be finite"]
    else:
        assert words[-3:] == ["0", repr(j), "False"]


def _block_of(j):
    """The (start, stop) of ``_BLOCKS`` that holds angle j."""
    return next((start, stop) for start, stop in ce._BLOCKS if start <= j < stop)


def test_certify_validates_once_per_decomposition(monkeypatch):
    ce._block.cache_clear()
    w = find_counterexample(0.25, 2.0)
    core._recent.cache_clear()  # the search left its A in eig_sym's memo
    decompositions = count_calls(monkeypatch, core._decompose)
    guards = count_calls(monkeypatch, core.symmetrize)
    gap = _decomposed_gap(w.p, w.q, eig_sym(w.a))
    # a walk's A is validated and decomposed once
    assert (len(guards), len(decompositions)) == (1, 1)
    # the search left its block of B, validated and decomposed, in the cache
    start, stop = _block_of(w.j)
    assert stop - start > 1
    bs, dec_b = ce._block((1.0, w.y), start, stop)
    i = w.j - start
    assert bs[i] is w.b and (len(guards), len(decompositions)) == (1, 1)
    for _ in range(2):
        lam, vec = ce._certify(gap, core.SpectralDecomposition(dec_b.eigenvalues[i], dec_b.basis[i]))
        assert lam == w.neg_eigenvalue and np.array_equal(vec, w.witness)
    # _certify validates nothing; the root of each mean and the gap are
    # decomposed as they were built, and so is the whole block's, as stacks
    assert (len(guards), len(decompositions)) == (1, 1 + 2 * 3)
    found, lam, vec = ce._first_hit(gap, dec_b)
    assert (found, lam) == (i, w.neg_eigenvalue) and np.array_equal(vec, w.witness)
    assert (len(guards), len(decompositions)) == (1, 1 + 3 * 3)


#: One pair per label, as the CI's counterexample step runs them.
_LABEL_PAIRS = [(0.25, 2.0), (-2.0, -0.25), (0.0, 2.0), (-2.0, 0.0), (0.6, 0.8),
                (-0.8, -0.6), (2.0, 1.0), (600.0, 1.0), (1.0, -600.0)]


@pytest.mark.parametrize("p, q", _LABEL_PAIRS)
def test_search_validates_each_candidate_at_most_once(monkeypatch, p, q):
    # A first search validates each rotated B_t of the blocks it reaches
    # once, where _block builds them, and an identical second search none,
    # as it reads them from the cache; a projection or c I is never
    # validated.  Every other validation is of a walk's A, once each.
    ce._block.cache_clear()
    label = classify(p, q)
    rotated = label.case in (Case.PD_ROTATION, Case.LOG_EUCLIDEAN) or (
        label.case is Case.RANK_ONE and label.via_dual)
    symmetrize, block, first_hit, certify = core.symmetrize, ce._block, ce._first_hit, ce._certify
    built, searched, certified = [], [], []
    monkeypatch.setattr(ce, "_block", lambda *key: built.append(block(*key)) or built[-1])
    monkeypatch.setattr(ce, "_first_hit",
                        lambda gap, dec_b: searched.append(dec_b) or first_hit(gap, dec_b))
    monkeypatch.setattr(ce, "_certify",
                        lambda gap, dec_b: certified.append(dec_b) or certify(gap, dec_b))
    prepared = count_calls(monkeypatch, ce._decomposed_gap)
    guards = count_calls(monkeypatch, core.symmetrize)
    for first in (True, False):
        for calls in (built, searched, certified, prepared, guards):
            calls.clear()
        w = find_counterexample(p, q)
        validated = [symmetrize(*args) for args in guards]
        # every block searched is a built one's; c I is certified alone
        assert list(map(id, searched)) == [id(dec) for _, dec in built]
        assert built or len(certified) == 1
        candidates = [b for bs, _ in built for b in bs] or [w.b]
        per_candidate = [sum(np.array_equal(v, b) for v in validated) for b in candidates]
        assert per_candidate == [int(rotated and first)] * len(candidates)
        assert len(guards) == len(prepared) + sum(per_candidate)


def test_search_prepares_each_walks_a_once(monkeypatch):
    # (0.49, 1.12) certifies its 162nd candidate, k = 29 and j = 14, on the
    # eighth theta walk.  j = 14 ends its block, so the blocks the search
    # reaches hold exactly the candidates of the one-at-a-time search, in its
    # order.  Its A = diag(1, 2^-k) is the only diagonal matrix the search
    # validates or decomposes, since every B_t has t > 0.
    def diagonal(m, *_):
        m = np.asarray(m)
        return m.shape == (2, 2) and m[0, 1] == 0.0 and m[1, 0] == 0.0

    reached = []
    _reference_search(0.49, 1.12, lambda d, j: reached.append((d, j)) or _candidate_at(d, j))
    core._recent.cache_clear()  # the reference left the walks' A in eig_sym's memo
    blocks, block = [], ce._block
    monkeypatch.setattr(ce, "_block", lambda *key: blocks.append(key) or block(*key))
    guards = count_calls(monkeypatch, core.symmetrize)
    decompositions = count_calls(monkeypatch, core._decompose)
    w = find_counterexample(0.49, 1.12)
    searched = [(d, j) for d, start, stop in blocks for j in range(start, stop)]
    assert (w.k, w.j, len(searched)) == (29, 14, 162)
    assert searched == reached
    assert sum(diagonal(*args) for args in guards) == 8
    assert sum(diagonal(*args) for args in decompositions) == 8


@pytest.mark.parametrize("p, q", [(-0.99, 1.5), (-0.98, 1.9)])
def test_exhausted_search_skips_candidates_below_the_floor(monkeypatch, p, q):
    # Near p = -1 the first x with a negative coefficient (k = 35 and 26)
    # has y = 4^-k below the domain floor, so the first candidate raises
    # DomainError and ends the search; the other 125 and 314 candidates of
    # those walks would each raise too.
    calls = []

    def counted(*args):
        calls.append(None)
        return certify(*args)

    certify = ce._certify
    monkeypatch.setattr(ce, "_certify", counted)
    with pytest.raises(SearchExhaustedError) as info:
        find_counterexample(p, q)
    assert str(info.value) == "pd-rotation schedule exhausted at (%g, %g)" % (p, q)
    assert len(calls) == 1


def test_candidate_cache_is_bounded_by_the_schedule():
    # A key is a block of a walk: an x-walk of _X_SCHEDULE, direct or dual,
    # or one of the two rank-one walks, and one of _BLOCKS, which partition
    # _THETA_SCHEDULE; so the entries hold at most one B_t per schedule
    # position.  The public builders, and so the lemma oracle, add no entry.
    angles = [j for start, stop in ce._BLOCKS for j in range(start, stop)]
    assert angles == list(range(len(ce._THETA_SCHEDULE)))
    walks = 2 * len(ce._X_SCHEDULE) + 2
    bound = walks * len(ce._BLOCKS)
    assert (bound, walks * len(angles)) == (456, 1596)
    for p, q in _pinned_pairs() + _LABEL_PAIRS:
        _witness_words(p, q)
    size = ce._block.cache_info().currsize
    assert 0 < size <= bound
    rng = random.Random(3)
    for theta in [rng.uniform(-3.0, 3.0) for _ in range(20)] + list(ce._THETA_SCHEDULE):
        pd_rotation_pair(0.25, 0.0625, theta)
        rank_one_pair(theta)
        pd_rotation_difference(0.25, 2.0, 0.25, 0.0625)(theta)
        rank_one_difference(0.6, 0.8)(theta)
    assert ce._block.cache_info().currsize == size


@pytest.mark.parametrize("p, q", _LABEL_PAIRS[:6])
def test_searched_candidate_is_read_only(monkeypatch, p, q):
    # A caller's write to a searched B, or to its block's cached
    # decomposition, raises instead of corrupting later searches, and a
    # repeated search shares it.
    words = _witness_words(p, q)
    first_hit, searched = ce._first_hit, []
    monkeypatch.setattr(ce, "_first_hit",
                        lambda gap, dec_b: searched.append(dec_b) or first_hit(gap, dec_b))
    w = find_counterexample(p, q)
    with pytest.raises(ValueError):
        w.b[0, 0] = 0.0
    for m in searched[-1]:
        with pytest.raises(ValueError):
            m[0] = 0.0
    assert find_counterexample(p, q).b is w.b
    assert _witness_words(p, q) == words


def test_cold_and_warm_searches_give_the_same_bits():
    # Each pinned pair searched on an emptied cache, then every pair twice on
    # the shared one: the witnesses and messages are the same bits.
    cold = []
    for p, q in _pinned_pairs():
        ce._block.cache_clear()
        cold.append(_witness_words(p, q))
    warm = [[_witness_words(p, q) for p, q in _pinned_pairs()] for _ in range(2)]
    assert ce._block.cache_info().hits > 0
    assert warm == [cold, cold]


def _oracle_words():
    """float.hex words of the lemma oracle's value and error on each family."""
    results = [numeric_det_coeff(rank_one_difference(0.6, 0.8),
                                 orders=rank_one_remainder_orders(0.6, 0.8)),
               numeric_det_coeff(pd_rotation_difference(0.5, 2.0, 0.25, 0.0625)),
               numeric_det_coeff(pd_rotation_difference(0.0, 2.0, 0.25, 0.0625))]
    return [float.hex(v) for result in results for v in result]


def test_eig_sym_memo_gives_the_same_bits_cold_and_warm(monkeypatch):
    # Each pinned pair's witness and the lemma oracle of each family, twice
    # with eig_sym's memo, then with every decomposition made afresh.
    def words():
        return [_witness_words(p, q) for p, q in _pinned_pairs()] + _oracle_words()
    warm = [words(), words()]
    assert core._recent.cache_info().hits > 0
    monkeypatch.setattr(core, "_recent", core._recent.__wrapped__)
    assert warm == [words()] * 2


@pytest.mark.parametrize("family", ["pd-rotation", "rank-one"])
def test_lemma_oracle_guards_each_matrix_once(monkeypatch, family):
    # Over the oracle's eight angles A is validated at each (eig_sym) but
    # decomposed once, at the first; each B_t is validated only where
    # _rotated builds it (a projection never) and decomposed once.
    if family == "pd-rotation":
        difference, a = pd_rotation_difference(0.5, 2.0, 0.25, 0.0625), np.diag([1.0, 0.25])
    else:
        difference, a = rank_one_difference(0.6, 0.8), np.diag([2.0, 0.0])
    thetas = [0.1 * 2.0**-k for k in range(8)]
    bs = [(pd_rotation_pair(0.25, 0.0625, t) if family == "pd-rotation" else rank_one_pair(t))[1]
          for t in thetas]
    guards = count_calls(monkeypatch, core.symmetrize)
    decompositions = count_calls(monkeypatch, core._decompose)
    for theta in thetas:
        difference(theta)
    guarded = [np.asarray(m) for m, *_ in guards]
    assert sum(np.array_equal(m, a) for m in guarded) == len(thetas)
    assert len(guarded) == len(thetas) * (2 if family == "pd-rotation" else 1)
    decomposed = [m for m, *_ in decompositions]
    assert sum(np.array_equal(m, a) for m in decomposed) == 1
    assert [sum(np.array_equal(m, b) for m in decomposed) for b in bs] == [1] * len(thetas)


@pytest.mark.parametrize("difference", [pd_rotation_difference(0.5, 2.0, 0.25, 0.0625),
                                        rank_one_difference(0.6, 0.8)])
def test_lemma_oracle_rejects_a_non_finite_angle(difference):
    with pytest.raises(PreconditionError, match="^matrix entries must be finite$"):
        difference(math.nan)


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
