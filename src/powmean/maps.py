"""Unital positive linear maps between small symmetric matrix spaces.

Maps are stored as explicit action matrices on row-major vectorized input,
plus a structural tag.  Every constructor here yields a completely positive
map built from Kraus factors V_i (the action is sum_i kron(V_i, V_i)), with
the block-average and compression actions assembled from exact entries so
the classic identities reproduce bit-cleanly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (CONFLUENT_GAP, MAX_DIM, PSD_FLOOR, _spectrum_values, eig_sym, mat_fun,
                   spectral_fun, symmetrize)
from .errors import (
    DimensionMismatchError,
    IndexOutOfRangeError,
    NotUnitalError,
    PreconditionError,
)
from .functions import Power

_RANDOM_KRAUS_FACTORS = 3


def plane_rotation(theta: float) -> np.ndarray:
    """2x2 rotation [[cos t, -sin t], [sin t, cos t]]."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


@dataclass(frozen=True, eq=False)
class LinearMatrixMap:
    """Linear map from in_dim x in_dim to out_dim x out_dim symmetric matrices.

    ``action`` has shape (out_dim**2, in_dim**2) and acts on the row-major
    vectorization.
    """

    in_dim: int
    out_dim: int
    action: np.ndarray
    tag: str = "general"

    def apply(self, x) -> np.ndarray:
        x = symmetrize(x)
        if x.shape[0] != self.in_dim:
            raise DimensionMismatchError(
                "map expects %dx%d input, got %r" % (self.in_dim, self.in_dim, x.shape)
            )
        y = (self.action @ x.ravel()).reshape(self.out_dim, self.out_dim)
        return (y + y.T) / 2.0

    def is_unital(self) -> bool:
        image = self.apply(np.eye(self.in_dim))
        return float(np.abs(image - np.eye(self.out_dim)).max()) <= PSD_FLOOR


def _check_dims(in_dim: int, out_dim: int) -> None:
    if not 1 <= in_dim <= MAX_DIM or not 1 <= out_dim <= MAX_DIM:
        raise PreconditionError("map dimensions must lie in 1..%d" % MAX_DIM)


def _action_from_factors(factors, weights=None) -> np.ndarray:
    action = None
    for i, v in enumerate(factors):
        term = np.kron(v, v)
        if weights is not None:
            term = term * weights[i]
        action = term if action is None else action + term
    return action


def kraus_map(factors) -> LinearMatrixMap:
    """Unital completely positive map Z -> sum_i V_i Z V_i^T.

    The factors must satisfy sum_i V_i V_i^T = I within ``PSD_FLOOR``;
    otherwise ``NotUnitalError`` is raised (the caller normalizes).
    """
    factors = tuple(np.asarray(v, dtype=float) for v in factors)
    if not factors:
        raise PreconditionError("kraus_map needs at least one factor")
    out_dim, in_dim = factors[0].shape
    _check_dims(in_dim, out_dim)
    for v in factors:
        if v.shape != (out_dim, in_dim):
            raise DimensionMismatchError("kraus factors must share one shape")
    total = sum(v @ v.T for v in factors)
    if float(np.abs(total - np.eye(out_dim)).max()) > PSD_FLOOR:
        raise NotUnitalError("kraus factors do not sum to the identity")
    return LinearMatrixMap(
        in_dim,
        out_dim,
        _action_from_factors(factors),
        tag="kraus(%d)" % len(factors),
    )


def block_average(n: int) -> LinearMatrixMap:
    """Map [[A, X], [Y, B]] -> (A + B)/2 from 2n x 2n to n x n blocks."""
    if not 1 <= n <= MAX_DIM // 2:
        raise PreconditionError("block size must lie in 1..%d" % (MAX_DIM // 2))
    left = np.hstack([np.eye(n), np.zeros((n, n))])
    right = np.hstack([np.zeros((n, n)), np.eye(n)])
    action = _action_from_factors([left, right], weights=[0.5, 0.5])
    return LinearMatrixMap(2 * n, n, action, tag="block-average(%d)" % n)


def _selector(index_set, in_dim: int) -> np.ndarray:
    idx = tuple(int(i) for i in index_set)
    if not idx:
        raise PreconditionError("index set must be non-empty")
    if any(j <= i for i, j in zip(idx, idx[1:])):
        raise PreconditionError("index set must be strictly increasing")
    if idx[0] < 0 or idx[-1] >= in_dim:
        raise IndexOutOfRangeError("index set %r outside 0..%d" % (idx, in_dim - 1))
    sel = np.zeros((len(idx), in_dim))
    for row, col in enumerate(idx):
        sel[row, col] = 1.0
    return sel


def compression(index_set, in_dim: int) -> LinearMatrixMap:
    """Principal-submatrix extraction onto the given (0-based) indices."""
    _check_dims(in_dim, in_dim)
    sel = _selector(index_set, in_dim)
    return LinearMatrixMap(
        in_dim,
        sel.shape[0],
        _action_from_factors([sel]),
        tag="compression%r" % (tuple(int(i) for i in index_set),),
    )


def identity_map(n: int) -> LinearMatrixMap:
    return compression(range(n), n)


def rotated_pinch(pair_a, pair_b, theta: float) -> LinearMatrixMap:
    """Average of one principal 2x2 submatrix with a rotated second one.

    Z -> (Z[pair_a] + U_theta Z[pair_b] U_theta^T) / 2 on 3x3 input, where
    the pairs are 2-subsets of {0, 1, 2}.  Unital and completely positive.
    For diagonal Z compatible with the pairs this reproduces the two-matrix
    power-mean construction exactly.
    """
    sel_a = _selector(pair_a, 3)
    sel_b = _selector(pair_b, 3)
    if sel_a.shape[0] != 2 or sel_b.shape[0] != 2:
        raise PreconditionError("rotated_pinch needs index pairs of size 2")
    u = plane_rotation(theta)
    action = _action_from_factors([sel_a, u @ sel_b], weights=[0.5, 0.5])
    return LinearMatrixMap(
        3,
        2,
        action,
        tag="rotated-pinch(%r,%r,%g)"
        % (tuple(int(i) for i in pair_a), tuple(int(i) for i in pair_b), theta),
    )


def random_kraus_map(in_dim: int, out_dim: int, seed: int) -> LinearMatrixMap:
    """Seeded random unital completely positive map.

    Three Gaussian factors are normalized on the left by (sum V V^T)^(-1/2),
    which makes the map unital exactly up to rounding.  sum V V^T has rank
    at most in_dim per factor, and is often ill-conditioned when the factors
    have out_dim columns in all, so where three have out_dim columns or
    fewer, ceil(out_dim / in_dim) + 1 factors are drawn instead.
    """
    _check_dims(in_dim, out_dim)
    count = _RANDOM_KRAUS_FACTORS
    if count * in_dim <= out_dim:
        count = -(-out_dim // in_dim) + 1
    rng = np.random.default_rng(seed)
    raw = [rng.standard_normal((out_dim, in_dim)) for _ in range(count)]
    whitener = mat_fun(sum(v @ v.T for v in raw), Power(-0.5))
    return kraus_map([whitener @ v for v in raw])


def apply_power_affine_2x2(phi: LinearMatrixMap, p: float, a) -> np.ndarray:
    """Evaluate phi(A^p) for 2x2 A via the affine spectral identity.

    For A with distinct eigenvalues l1 > l2, A^p interpolates as
    c1 * A - c0 * I with c1 = (l1^p - l2^p)/(l1 - l2) and
    c0 = (l2 l1^p - l1 l2^p)/(l1 - l2), so for a unital linear map
    phi(A^p) = c1 * phi(A) - c0 * I, with l^p under the domain rule of
    :func:`~powmean.core.mat_fun`.  Falls back to the direct route when
    the eigenvalues coincide within ``CONFLUENT_GAP``.
    """
    dec = eig_sym(a)
    if dec.eigenvalues.size != 2 or phi.in_dim != 2:
        raise DimensionMismatchError("affine route needs a 2x2 domain")
    f = Power(p)
    l2, l1 = float(dec.eigenvalues[0]), float(dec.eigenvalues[1])
    if abs(l1 - l2) <= CONFLUENT_GAP * (1.0 + max(abs(l1), abs(l2))):
        return phi.apply(spectral_fun(dec, f))
    f2, f1 = map(float, _spectrum_values(f, dec.eigenvalues))
    c1 = (f1 - f2) / (l1 - l2)
    c0 = (l2 * f1 - l1 * f2) / (l1 - l2)
    return symmetrize(c1 * phi.apply(a) - c0 * np.eye(phi.out_dim))
