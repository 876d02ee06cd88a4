"""Each fast path of the library against its slow, obvious reference.

A row of ``ROWS`` pairs a fast path with its reference (most are in
``reference.py``) and the cases both get.  On every case both must give the
same ``words``: the same bits, or the same error class and message.  A
row's check covers what words do not show, such as memory order, rescale
counts or shapes.  A new fast path adds a row, not a copy of the code it
replaces.  The parametrized test here runs the rows with ``params``; each
other row is run by a test in its subject's module, by name.
"""

import itertools
import math
import random
import sys
from typing import Callable, NamedTuple
from unittest import mock

import numpy as np
import pytest

import reference
from reference import words
from powmean import (EXP, LOG, Power, classify, core, eig_sym, find_counterexample,
                     in_sufficient_region, numeric_det_coeff, pd_rotation_difference, random_pd,
                     rank_one_difference, rank_one_remainder_orders, symmetrize)
from powmean import counterexamples as ce
from powmean.fuzz import FUZZ_TARGETS, fuzz_point, order_margin
from powmean.means import _decomposed_gap


class Row(NamedTuple):
    fast: Callable
    reference: Callable
    cases: Callable  # param -> the argument tuples of its cases
    params: tuple = ()
    check: Callable | None = None  # (param, the fast path's words of each case) -> bool
    quiet: bool = False  # numpy's overflow and invalid warnings off, for cases that raise


def check_row(name, param=None):
    """Assert that row ``name`` at ``param`` gives its reference's words, and its check."""
    row, got = ROWS[name], []
    with np.errstate(**({"over": "ignore", "invalid": "ignore"} if row.quiet else {})):
        for i, args in enumerate(row.cases(param)):
            got.append(words(row.fast, *args))
            assert got[-1] == words(row.reference, *args), (name, param, i)
    assert row.check is None or row.check(param, got), (name, param)


def _rows(stacked):
    """A stacked decomposition, or spectra, as the pair of arrays of each row."""
    return list(zip(*stacked))


def _cold(fn):
    """``fn`` with every cache bypassed: eig_sym's memo and the search's blocks."""
    def run(*args):
        with mock.patch.object(core, "_recent", core._recent.__wrapped__), \
                mock.patch.object(ce, "_block", ce._block.__wrapped__):
            return fn(*args)
    return run


def _jacobi_fast(m):
    """eig_sym of ``m``, then lambda_min from the eigenvalue-only sweeps."""
    flat = symmetrize(m).ravel().tolist()
    return (*eig_sym(m), core._sweeps(m.shape[0], False)(
        flat, core._JACOBI_THRESHOLD, core._JACOBI_SWEEP_CAP))


def _jacobi_reference(m):
    """The rotation loop's decomposition, then its lambda_min, or None where
    the squares overflow and the loop rescales."""
    m = symmetrize(m)
    dec = reference.jacobi(m)
    with np.errstate(over="ignore"):
        finite = math.isfinite(float((m * m).sum()))
    return (*dec, float(dec.eigenvalues[0]) if finite else None)


def _decompose_rows(dim):
    """Symmetric rows of every kind, some rescaled: entry products outside
    the normal range (2x2) or squares that overflow (n >= 3)."""
    rows = [symmetrize(m) for seed in range(3) for m in reference.jacobi_inputs(dim, seed)]
    rows.append(rows[0] * 1e-160)
    if dim == 2:
        rows.append(np.array([[8.9e307, 8.9e307], [8.9e307, -8.9e307]]))
    return np.array(rows)


def _random_pd_stack(dim, count=50):
    """``count`` random PD matrices, composed as ``random_pd`` composes one."""
    vals, bases = stacked_spectra(dim, count)
    m = (bases * vals[:, None, :]) @ bases.mT
    return (m + m.mT) / 2.0


def _one_row_stacks(stack):
    """A stack of its first row, and of row 15, whose squares overflow."""
    return stack[:1], stack[15:16]


def _decompose_stacks(dim):
    stack = _decompose_rows(dim)
    yield from ((stack,), (stack[1::2],), *((m,) for m in _one_row_stacks(stack)),
                (np.empty((0, dim, dim)),))
    if dim >= 2:
        # an entry at or past the guard of a single call, |x| <= max / 2, in
        # a row between two others: rescaled at +-max / 2, raised past it;
        # then a row of max / 2 whose spectrum, at n >= 3, overflows
        half, top = core._HALF_MAX, np.nextafter(core._HALF_MAX, math.inf)
        m = np.diag(np.arange(1.0, dim + 1.0)) + 0.5 * (1.0 - np.eye(dim))
        for x, (i, j) in itertools.product([half, -half, top, -top, math.inf, -math.inf, math.nan],
                                           [(0, 0), (0, 1), (dim - 1, dim - 1)]):
            bad = m.copy()
            bad[i, j] = bad[j, i] = x
            yield np.array([stack[0], bad, stack[1]]),
        yield np.array([stack[0], np.full((dim, dim), half), stack[1]]),


def _decompose_check(dim, got):
    # A stacked basis keeps a single call's memory order (a Jacobi basis is
    # transposed), so numpy's matmul rounds a stack's rows alike.  Single
    # calls rescale the rows whose squares overflow, in every stack but the
    # first row's; a stack rescales as they do, except that at n >= 3 one
    # eigh of two or more rows scales for itself.
    stack = _decompose_rows(dim)
    first, overflowing = _one_row_stacks(stack)
    for m in (stack, stack[1::2], first, overflowing):
        with mock.patch.object(core, "_rescaled", wraps=core._rescaled) as rescaled:
            dec = core._decompose(m)
            stacked = rescaled.call_count
            singles = [core._decompose(row) for row in m]
        alone = rescaled.call_count - stacked
        assert dec.eigenvalues.shape == m.shape[:2] and dec.basis.shape == m.shape
        assert [b.strides for b in dec.basis] == [one.basis.strides for one in singles]
        assert (alone > 0) == (dim > 1 and m is not first)
        assert stacked == (0 if dim >= 3 and len(m) > 1 else alone)
    empty = core._decompose(np.empty((0, dim, dim)))
    return empty.eigenvalues.shape == (0, dim) and empty.basis.shape == (0, dim, dim)


def _guard_cases(kind):
    """Every triple of signed edge values; or 800 seeded triples of random
    64-bit patterns, which cover every float class; or 800 within 1e-150."""
    if kind == "edges":
        half = core._HALF_MAX
        edges = [0.0, 5e-324, 1e-200, 1e154, 1e155, 1e200, half, np.nextafter(half, 0.0),
                 np.nextafter(half, math.inf), sys.float_info.max, math.inf, math.nan]
        signed = {np.float64(x).tobytes(): x for x in edges + [-x for x in edges]}
        return itertools.product(signed.values(), repeat=3)
    rng = np.random.default_rng(2)
    if kind == "random-bits":
        return rng.integers(0, 2**64, (800, 3), dtype=np.uint64).view(np.float64).tolist()
    return rng.uniform(-1e-150, 1e-150, (800, 3)).tolist()


def _as_2x2(decompose):
    return lambda a, b, d: decompose(np.array([[a, b], [b, d]]))


def stacked_spectra(dim, rows=7, seed=0):
    """Ascending spectra and bases of ``rows`` random PD matrices, stacked."""
    vals, bases = core._random_pd_spectra(np.random.default_rng([dim, seed]), dim,
                                          [2.0, 5.0, 10.0, 50.0] * (rows // 4 + 1))
    order = np.argsort(vals, axis=1, kind="stable")
    vals = np.take_along_axis(vals, order, axis=1)[:rows]
    return vals, np.take_along_axis(bases, order[:, None, :], axis=2)[:rows]


STACK_FUNCTIONS = [Power(2.0), Power(3.0), Power(0.0), Power(0.5), Power(1.7), Power(-1.0),
                   Power(-0.5), Power(-2.3), LOG, EXP]


def _spectral_stacks(param):
    """Contiguous stacks and every other row (as fuzz_point slices its pairs)."""
    f, dim = param
    vals, bases = stacked_spectra(dim)
    yield vals, bases, f
    yield vals[0::2], bases[0::2], f
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
        yield floored, bases, f


def _full_verdict(d):
    verdict = core._order_verdict(d)
    return verdict.margin, verdict.min_eigenvalue


def _order_margin_inputs(dim):
    """Exactly symmetric gaps of every kind order_margin must judge as the
    full verdict does: the sweeps' reference inputs, near-degenerate and
    near-zero spectra, ties and signed zeros, rows on the rescaled route,
    and entries past the decomposition's guard at every position."""
    rng = np.random.default_rng([30, dim])
    ms = [symmetrize(m) for seed in range(3) for m in reference.jacobi_inputs(dim, seed)]
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
    return [(m,) for m in ms]


def _order_margin_check(dim, got):
    # symmetric gaps, some the kernel defers; under the sweep cap both raise
    ms = [m for m, in _order_margin_inputs(dim)]
    assert all(m.tobytes() == m.T.tobytes() for m in ms)
    assert 0 < sum(core._min_eigenvalue(m) is None for m in ms) < len(ms)
    with mock.patch.object(core, "_JACOBI_SWEEP_CAP", 1):
        return dim < 3 or words(order_margin, ms[1]) == words(_full_verdict, ms[1]) == [
            "NonConvergenceError:Jacobi sweeps exceeded the cap of 1"]


def _then_next(draw):
    """``draw(rng, *args)`` on a generator seeded ``seed``, then its next number."""
    def run(seed, *args):
        rng = np.random.default_rng(seed)
        return draw(rng, *args), rng.random()
    return run


def _spectra_cases(dim):
    # numpy's log of 1.4987631026277761 misses libm's by one bit
    pool = (1.0, 2.0, 5.0, 10.0, 1e3, 1.4987631026277761)
    return [(seed, dim, [pool[(seed + i) % len(pool)] for i in range(25)]) for seed in range(40)]


def _one_a_gap(gaps):
    """``gaps(p, q, dec_a, bs)`` for one prepared A against six B."""
    def run(p, q, dim):
        dec_a = eig_sym(random_pd(dim, 81, 10.0))
        return gaps(p, q, dec_a, [random_pd(dim, 90 + i, 1e3) for i in range(6)])
    return run


#: 2x2 gap rows that the closed form reads: one certifies, one does not.
_CERTIFIES = [[-1.0, 0.5], [0.5, 2.0]]
_MISSES = [[2.0, 0.1], [0.1, 3.0]]
#: Gap rows the closed form hands to ``_decompose``, and the first word of
#: what each gives alone: big^2 above or below the normal range (rescaled: a
#: witness, row 0, or a miss), an entry above max / 2 and non-finite entries
#: (raised).
DECLINED_ROWS = {
    "rescaled-hit": ([[-1e200, 3e199], [3e199, 1e200]], "0"),
    "rescaled-miss": ([[1e200, 3e199], [3e199, 2e200]], "None"),
    "rescaled-tiny": ([[-1e-200, 3e-201], [3e-201, 1e-200]], "None"),
    "above-half-max": ([[1e308, 0.0], [0.0, 1.0]],
                       "PreconditionError:symmetric part overflows: max |entry| 1.000e+308"),
    "nan": ([[1.0, math.nan], [math.nan, 1.0]], "PreconditionError:matrix entries must be finite"),
    "inf": ([[-math.inf, 0.0], [0.0, 1.0]], "PreconditionError:matrix entries must be finite"),
}
#: Where a declined row sits among the gap rows of a block.
LAYOUTS = {"alone": lambda row: [row],
           "first": lambda row: [row, _CERTIFIES],
           "after-misses": lambda row: [_MISSES, _MISSES, row, _CERTIFIES],
           "after-a-hit": lambda row: [_MISSES, _CERTIFIES, row]}


def _first_hit_of_rows(rows):
    """One gap row through ``_certify``, as row 0 of a block; a stack through
    ``_first_hit``, whose gap gives row i of the stack for row i."""
    stack = np.array(rows)
    if len(rows) == 1:
        hit = ce._certify(lambda _: stack[0], None)
        return None if hit is None else (0, *hit)
    index = core.SpectralDecomposition(np.arange(len(rows) * 2.0).reshape(-1, 2) // 2,
                                       np.zeros((len(rows), 2, 2)))
    return ce._first_hit(lambda dec: stack if dec.basis.ndim == 3 else
                         stack[int(dec.eigenvalues[0])], index)


def _declined_row_check(param, got):
    # the row is one the closed form declines, and alone it gives its word
    (a, b), (_, d) = DECLINED_ROWS[param[0]][0]
    return core._eig_2x2_row(a, b, d) is None and (
        param[1] != "alone" or got[0][0] == DECLINED_ROWS[param[0]][1])


def block_of(j):
    """The (start, stop) of ``_BLOCKS`` that holds angle j."""
    return next((start, stop) for start, stop in ce._BLOCKS if start <= j < stop)


#: One pair per label, as the CI's counterexample step runs them.
LABEL_PAIRS = [(0.25, 2.0), (-2.0, -0.25), (0.0, 2.0), (-2.0, 0.0), (0.6, 0.8),
               (-0.8, -0.6), (2.0, 1.0), (600.0, 1.0), (1.0, -600.0)]


def reference_pairs():
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


def _search_pairs(_):
    """The reference sample, one pair of each walked label, and a q-mean that overflows."""
    return reference_pairs() + [(p, q) for p, q in LABEL_PAIRS if p < q] + [(0.4, 1e308)]


def _search_check(_, got):
    # all six walked labels, witnesses in every block, and both errors
    assert len({str(classify(p, q)) for p, q in _search_pairs(None)}) == 6
    assert {block_of(int(w[-2])) for w in got if len(w) > 1} == set(ce._BLOCKS)
    return {w[0].split(":")[0] for w in got if len(w) == 1} == {
        "SearchExhaustedError", "PreconditionError"}


def _lemma_oracle():
    """The lemma oracle's value and error on each family."""
    return [numeric_det_coeff(rank_one_difference(0.6, 0.8),
                              orders=rank_one_remainder_orders(0.6, 0.8)),
            numeric_det_coeff(pd_rotation_difference(0.5, 2.0, 0.25, 0.0625)),
            numeric_det_coeff(pd_rotation_difference(0.0, 2.0, 0.25, 0.0625))]


def _warm_cases(kind):
    """The lemma oracle; or each pair of the witness pin, of each label and of
    each block (``_BLOCK_PAIRS``)."""
    if kind == "lemma-oracle":
        return [(_lemma_oracle,)]
    from test_counterexamples import _BLOCK_PAIRS, pinned_pairs  # it imports this module
    return [(find_counterexample, p, q) for p, q in pinned_pairs() + LABEL_PAIRS + [*_BLOCK_PAIRS]]


ROWS = {
    "jacobi": Row(_jacobi_fast, _jacobi_reference,
                  lambda dim: [(m,) for seed in range(8)
                               for m in reference.jacobi_inputs(dim, seed)],
                  # the two inputs per seed whose squares overflow, and only those
                  check=lambda dim, got: [w[-1] for w in got].count("None") == 2 * 8),
    "decompose": Row(lambda m: _rows(core._decompose(m)),
                     reference.decompose_stack,
                     _decompose_stacks, check=_decompose_check, quiet=True),
    # the identity behind the stacked rows above 2x2: LAPACK's eigh gives
    # each row of a stack the bits of a call on that row alone
    "eigh-rows": Row(lambda m: _rows(np.linalg.eigh(m)),
                     lambda m: [np.linalg.eigh(row) for row in m],
                     lambda dim: [(_decompose_rows(dim),), (_random_pd_stack(dim),)],
                     params=tuple(range(3, core.MAX_DIM + 1))),
    "2x2-guard": Row(_as_2x2(core._decompose), _as_2x2(reference.array_guard_decompose),
                     _guard_cases, params=("edges", "random-bits", "tiny"), quiet=True),
    "spectral-fun": Row(lambda v, b, f: core.spectral_fun(core.SpectralDecomposition(v, b), f),
                        lambda v, b, f: [core.spectral_fun(core.SpectralDecomposition(*row), f)
                                         for row in zip(v.copy(), b.copy())],
                        _spectral_stacks, check=lambda param, got: core.spectral_fun(
                            core.SpectralDecomposition(*stacked_spectra(param[1])), param[0]
                        ).shape == (7, param[1], param[1])),
    "order-margin": Row(order_margin, _full_verdict, _order_margin_inputs,
                        check=_order_margin_check, quiet=True),
    "random-pd-spectra": Row(_then_next(lambda *args: _rows(core._random_pd_spectra(*args))),
                             _then_next(reference.random_pd_spectra), _spectra_cases,
                             check=lambda dim, got: [a.shape for a in core._random_pd_spectra(
                                 np.random.default_rng(0), dim, [2.0] * 25)]
                             == [(25, dim), (25, dim, dim)]),
    "random-pd": Row(random_pd, reference.random_pd,
                     lambda dim: [(dim, *draw) for draw in itertools.product(
                         range(200), (1.0, 2.0, 5.0, 10.0, 1e3))][::6]),
    "fuzz-point": Row(fuzz_point, reference.fuzz_point,
                      lambda param: [(*param[:2], 25, seed, param[2]) for seed in range(3)] + [
                          (*param[:2], 0, 0, param[2])],
                      check=lambda param, got: got[-1] == ["True", "inf"]),
    "one-a-stack-of-b": Row(_one_a_gap(lambda p, q, dec_a, bs: _decomposed_gap(p, q, dec_a)(
                                core._decompose(np.stack(bs)))),
                            _one_a_gap(lambda p, q, dec_a, bs: [
                                reference.gap(p, q, dec_a, reference.decompose(b)) for b in bs]),
                            lambda param: [param],
                            check=lambda param, got: len(got[0]) == 6 * param[2] ** 2),
    "first-row": Row(_first_hit_of_rows, reference.first_row,
                     lambda param: [(LAYOUTS[param[1]](DECLINED_ROWS[param[0]][0]),)],
                     check=_declined_row_check, quiet=True),
    "block-search": Row(find_counterexample, reference.search, _search_pairs,
                        check=_search_check),
    "warm-fuzz": Row(lambda fn, *args: (fn(*args), fn(*args)),
                     lambda fn, *args: 2 * (_cold(fn)(*args),),
                     lambda target: [(FUZZ_TARGETS[target], 300, 7)]),  # a report's repr
}
ROWS["warm-search"] = ROWS["warm-fuzz"]._replace(
    cases=_warm_cases, params=("pinned-pairs", "lemma-oracle"),
    check=lambda kind, got: core._recent.cache_info().hits > 0 and (
        kind == "lemma-oracle" or ce._block.cache_info().hits > 0))


@pytest.mark.parametrize("name, param", [(name, param) for name, row in ROWS.items()
                                         for param in row.params], ids=lambda x: x)
def test_fast_path_matches_its_reference(name, param):
    check_row(name, param)
