"""The exact sufficiency region of the power-mean order inequality.

The inequality M_p(A, B) <= M_q(A, B) holds for every positive definite
pair iff (p, q) satisfies one of six closed conditions; everything outside
with p <= q admits a counterexample built from one of three families.  The
region is exact mathematics, so membership and classification use literal
inequalities with no tolerance fuzzing.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class Case(Enum):
    IN_REGION = "in-region"
    SCALAR_FAIL = "scalar-fail"
    PD_ROTATION = "pd-rotation"
    LOG_EUCLIDEAN = "log-euclidean"
    RANK_ONE = "rank-one"


@dataclass(frozen=True)
class CaseLabel:
    case: Case
    via_dual: bool = False

    def __str__(self) -> str:
        return self.case.value + ("-dual" if self.via_dual else "")


def in_sufficient_region(p: float, q: float) -> bool:
    """True iff (p, q) satisfies one of the six sufficiency conditions."""
    return (
        p == q
        or (1.0 <= p < q)
        or (p < q <= -1.0)
        or (p <= -1.0 and q >= 1.0)
        or (0.5 <= p < 1.0 <= q)
        or (p <= -1.0 < q <= -0.5)
    )


def dual(p: float, q: float) -> tuple[float, float]:
    """The involution (p, q) -> (-q, -p), which preserves region membership.

    It reflects the identity M_p(A, B) = M_{-p}(A^-1, B^-1)^-1 together with
    the antitonicity of the matrix inverse.
    """
    return (-q, -p)


#: Each counterexample family's exponent domain, in dispatch order.
_FAMILY_DOMAINS = {
    Case.LOG_EUCLIDEAN: lambda p, q: p == 0.0 and q > 0.0,
    Case.PD_ROTATION: lambda p, q: -1.0 < p < 0.5 and p != 0.0 and q > max(0.0, p),
    Case.RANK_ONE: lambda p, q: 0.0 < p < q < 1.0,
}


def classify(p: float, q: float) -> CaseLabel:
    """Send an exponent pair to its verdict or counterexample family.

    Points in the region are IN_REGION; p > q fails already for scalars;
    every remaining pair matches one of the three families, directly or
    after the dual reflection.  Overlaps resolve in dispatch order:
    log-euclidean, pd-rotation, rank-one, then the same three via dual.
    """
    p, q = float(p), float(q)
    if in_sufficient_region(p, q):
        return CaseLabel(Case.IN_REGION)
    if p > q:
        return CaseLabel(Case.SCALAR_FAIL)
    for base, via_dual in (((p, q), False), (dual(p, q), True)):
        for case, holds in _FAMILY_DOMAINS.items():
            if holds(*base):
                return CaseLabel(case, via_dual)
    raise RuntimeError("classification gap at (%r, %r)" % (p, q))
