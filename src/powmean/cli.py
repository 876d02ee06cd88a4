"""Command-line front end.

Subcommands: ``scan`` (grid classification with fuzzing and certified
counterexamples, CSV report), ``counterexample`` (single-pair witness dump),
``choi-table`` (eigenvalue sign patterns of the classic compression
example), ``verify-lemma`` (closed-form coefficient vs extrapolation
oracle), and ``fuzz`` (randomized property suites).

Exit codes: 0 success, 1 inconsistency, uncertified pair or property
failure, 2 usage error, 3 counterexample requested inside the sufficiency
region, 4 degenerate expansion hypotheses.  The master seed, a non-negative
integer, defaults to the POWMEAN_SEED environment variable.  No numerical
threshold is an option: ``scan`` and ``counterexample`` certify through
``find_counterexample`` at its fixed ``CERT_TOL`` (1e-12), and every order
verdict of ``scan`` and ``fuzz`` uses the fixed ``core.ORDER_SLACK`` (1e-10).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .counterexamples import (
    choi_sign_table,
    find_counterexample,
    pd_rotation_difference,
    rank_one_difference,
)
from .errors import (DegenerateFrameError, DomainError, InRegionError, PowerMeanError,
                     PreconditionError)
from .expansions import (
    det_coeff_log_pair,
    det_coeff_power_pair,
    det_coeff_rank_one,
    numeric_det_coeff,
    rank_one_remainder_orders,
)
from .fuzz import FUZZ_TARGETS, fuzz_point
from .region import Case, classify

CSV_HEADER = "p,q,label,verdict,detail,x,y,theta,seed"
_LEMMA_GAP_BOUND = 1e-4
_CHOI_POWERS = (-2.0, -0.5, 0.5, 1.5, 3.0)
#: Most cells a scan grid may have: far above the 0.1-step default grid's
#: 1,681, far below a grid whose values alone would exhaust memory.
_MAX_SCAN_CELLS = 1_000_000


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _grid_size(lo: float, hi: float, step: float) -> float:
    """Number of values of the grid from ``lo`` to ``hi``; a float, which a
    huge or infinite count cannot overflow."""
    return float(np.floor((hi - lo) / step + 1e-9)) + 1.0


def _grid(lo: float, hi: float, step: float) -> list[float]:
    return [lo + i * step for i in range(int(_grid_size(lo, hi, step)))]


def _cell_seed(master: int, pi: int, qi: int) -> int:
    return int(np.random.SeedSequence([master, pi, qi]).generate_state(1)[0])


def _finite(text: str) -> float:
    """argparse type: a finite float; a value rejected exits 2."""
    try:
        if not np.isfinite(value := float(text)):
            raise ValueError("must be finite, got %s" % text)
        return value
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _seed(text: str) -> int:
    """argparse type of ``--seed``: ``SeedSequence`` takes only non-negative integers."""
    try:
        if (seed := int(text)) >= 0:
            return seed
    except ValueError:
        pass
    raise argparse.ArgumentTypeError("must be a non-negative integer, got %s" % text)


def _matrix_lines(name: str, m: np.ndarray) -> list[str]:
    lines = ["%s =" % name]
    lines.extend("  " + np.array2string(row, precision=17) for row in m)
    return lines


def _csv_row(p, q, label, verdict, detail, witness, seed) -> str:
    params = (witness.x, witness.y, witness.theta) if witness else (None, None, None)
    return ",".join(_fmt(v) for v in (float(p), float(q), label, verdict, detail, *params, seed))


def _witness_verdict(label) -> str:
    """CSV verdict of a certified witness: a scalar failure is its own verdict."""
    return "scalar-fail" if label.case is Case.SCALAR_FAIL else "certified-counterexample"


def _write_csv(path: str, rows: list[str]) -> bool:
    try:
        with open(path, "w", newline="\n") as handle:
            handle.write(CSV_HEADER + "\n")
            for row in rows:
                handle.write(row + "\n")
    except OSError as exc:
        print("cannot write %s: %s" % (path, exc), file=sys.stderr)
        return False
    return True


def _usage_error(message: str):
    print(message, file=sys.stderr)
    raise SystemExit(2)


def cmd_scan(args) -> int:
    if args.step <= 0.0:
        _usage_error("--step must be positive")
    if args.trials < 1:
        _usage_error("--trials must be at least 1")
    if args.pmin > args.pmax:
        _usage_error("--pmin must not exceed --pmax")
    if args.qmin > args.qmax:
        _usage_error("--qmin must not exceed --qmax")
    cells = (_grid_size(args.pmin, args.pmax, args.step)
             * _grid_size(args.qmin, args.qmax, args.step))
    if cells > _MAX_SCAN_CELLS:
        _usage_error("the grid has %.3g cells, above the cap of %d: raise --step or "
                     "narrow the bounds" % (cells, _MAX_SCAN_CELLS))
    rows = []
    consistent = True
    for pi, p in enumerate(_grid(args.pmin, args.pmax, args.step)):
        for qi, q in enumerate(_grid(args.qmin, args.qmax, args.step)):
            label = classify(p, q)
            seed = _cell_seed(args.seed, pi, qi)
            witness = None
            if label.case is Case.IN_REGION:
                passed, detail = fuzz_point(p, q, args.trials, seed)
                verdict = "fuzz-pass" if passed else "in-region"
                consistent &= passed
            else:
                try:
                    witness = find_counterexample(p, q)
                except PowerMeanError as exc:
                    verdict, detail = "uncertified", type(exc).__name__
                    consistent = False
                else:
                    verdict, detail = _witness_verdict(label), witness.neg_eigenvalue
            rows.append(_csv_row(p, q, label, verdict, detail, witness, seed))
    if not _write_csv(args.out, rows):
        return 1
    print("wrote %d rows to %s (%s)" % (len(rows), args.out,
                                        "consistent" if consistent else "INCONSISTENT"))
    return 0 if consistent else 1


def cmd_counterexample(args) -> int:
    try:
        witness = find_counterexample(args.p, args.q)
    except InRegionError:
        print("(%g, %g) lies in the sufficiency region; the order inequality holds"
              % (args.p, args.q))
        return 3
    except PowerMeanError as exc:
        print("(%g, %g) uncertified: %s: %s" % (args.p, args.q, type(exc).__name__, exc),
              file=sys.stderr)
        return 1
    label = classify(args.p, args.q)
    lines = ["exponents: p = %s, q = %s" % (_fmt(float(args.p)), _fmt(float(args.q)))]
    if (witness.p, witness.q) != (args.p, args.q):
        lines.append("evaluated at: p = %s, q = %s" % (_fmt(witness.p), _fmt(witness.q)))
    lines.append("family: %s" % label)
    if witness.x is not None:
        lines.append("parameters: x = %s, y = %s" % (_fmt(witness.x), _fmt(witness.y)))
    if witness.theta is not None:
        lines.append("rotation angle: %s" % _fmt(witness.theta))
    if witness.j is not None:
        k = "" if witness.k is None else "k = %d, " % witness.k
        lines.append("schedule position: %sj = %d" % (k, witness.j))
    lines.extend(_matrix_lines("A", witness.a))
    lines.extend(_matrix_lines("B", witness.b))
    lines.append("negative eigenvalue of M_q - M_p: %s" % _fmt(witness.neg_eigenvalue))
    lines.append("witness vector: %s" % np.array2string(witness.witness, precision=17))
    print("\n".join(lines))
    if args.out:
        row = _csv_row(args.p, args.q, label, _witness_verdict(label),
                       witness.neg_eigenvalue, witness, 0)
        if not _write_csv(args.out, [row]):
            return 1
    return 0


def cmd_choi_table(args) -> int:
    print("p      signs of eig(C(B^p) - C(B)^p), ascending")
    for p, signs in choi_sign_table(_CHOI_POWERS):
        print("%-6g (%s, %s)" % (p, signs[0], signs[1]))
    return 0


def _lemma_routes(args):
    if args.family == "pd-rotation":
        closed = det_coeff_power_pair(args.p, args.q, args.x, args.y).total
        oracle = numeric_det_coeff(pd_rotation_difference(args.p, args.q, args.x, args.y))
    elif args.family == "log-euclidean":
        closed = det_coeff_log_pair(args.q, args.x, args.y).total
        oracle = numeric_det_coeff(pd_rotation_difference(0.0, args.q, args.x, args.y))
    else:
        closed = det_coeff_rank_one(args.p, args.q)
        oracle = numeric_det_coeff(
            rank_one_difference(args.p, args.q),
            orders=rank_one_remainder_orders(args.p, args.q),
        )
    return closed, oracle


def cmd_verify_lemma(args) -> int:
    needs = {"pd-rotation": ("p", "q", "x", "y"),
             "log-euclidean": ("q", "x", "y"),
             "rank-one": ("p", "q")}[args.family]
    for name in needs:
        if getattr(args, name) is None:
            print("--%s is required for family %s" % (name, args.family),
                  file=sys.stderr)
            return 2
    try:
        closed, oracle = _lemma_routes(args)
    except DegenerateFrameError as exc:
        print("degenerate expansion hypotheses: %s" % exc, file=sys.stderr)
        return 4
    except (DomainError, PreconditionError) as exc:
        print("parameters outside the %s family: %s" % (args.family, exc), file=sys.stderr)
        return 2
    gap = abs(closed - oracle.value)
    bound = _LEMMA_GAP_BOUND * (1.0 + abs(closed))
    print("closed form:   %s" % _fmt(closed))
    print("oracle value:  %s (tableau error %.3e)" % (_fmt(oracle.value), oracle.error))
    print("gap:           %.6e (bound %.6e)" % (gap, bound))
    return 0 if gap <= bound else 1


def cmd_fuzz(args) -> int:
    if args.trials < 1:
        _usage_error("--trials must be at least 1")
    report = FUZZ_TARGETS[args.target](args.trials, args.seed)
    print(report.summary())
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powmean",
        description="Matrix power means: region scans, certified counterexamples, "
                    "expansion-coefficient checks and property fuzzing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=_seed, default=os.environ.get("POWMEAN_SEED", "0"),
                      help="master seed (default: $POWMEAN_SEED, else 0)")

    scan = sub.add_parser("scan", parents=[seed],
                          help="classify a (p, q) grid and emit a CSV report")
    scan.add_argument("--pmin", type=_finite, default=-2.0)
    scan.add_argument("--pmax", type=_finite, default=2.0)
    scan.add_argument("--qmin", type=_finite, default=-2.0)
    scan.add_argument("--qmax", type=_finite, default=2.0)
    scan.add_argument("--step", type=_finite, default=0.5)
    scan.add_argument("--trials", type=int, default=50,
                      help="random pairs per in-region grid point")
    scan.add_argument("--out", default="scan.csv")
    scan.set_defaults(func=cmd_scan)

    ce = sub.add_parser("counterexample", help="certify one exponent pair")
    ce.add_argument("--p", type=_finite, required=True)
    ce.add_argument("--q", type=_finite, required=True)
    ce.add_argument("--out", default=None, help="optional CSV witness dump")
    ce.set_defaults(func=cmd_counterexample)

    choi = sub.add_parser("choi-table", help="sign table of the compression example")
    choi.set_defaults(func=cmd_choi_table)

    lemma = sub.add_parser("verify-lemma",
                           help="closed-form determinant coefficient vs oracle")
    lemma.add_argument("--family", required=True,
                       choices=("pd-rotation", "log-euclidean", "rank-one"))
    lemma.add_argument("--p", type=_finite, default=None)
    lemma.add_argument("--q", type=_finite, default=None)
    lemma.add_argument("--x", type=_finite, default=None)
    lemma.add_argument("--y", type=_finite, default=None)
    lemma.set_defaults(func=cmd_verify_lemma)

    fuzz = sub.add_parser("fuzz", parents=[seed], help="randomized property suites")
    fuzz.add_argument("target", choices=sorted(FUZZ_TARGETS))
    fuzz.add_argument("--trials", type=int, default=200)
    fuzz.set_defaults(func=cmd_fuzz)

    return parser


def _joined_values(argv) -> list[str]:
    """``--opt -1e-9`` as ``--opt=-1e-9``: argparse reads a token starting
    with "-" as a flag unless it is a plain decimal, so values such as
    ``-1e-9`` or ``-inf`` would never reach their option's own check."""
    out = []
    for token in argv:
        prev = out[-1] if out else ""
        if token.startswith("-") and prev.startswith("--") and prev != "--" and "=" not in prev:
            try:
                float(token)
            except ValueError:
                pass
            else:
                out[-1] = prev + "=" + token
                continue
        out.append(token)
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(_joined_values(sys.argv[1:] if argv is None else argv))
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
