"""Span recorder for the traced run, wrapped around powmean from outside.

``SpanRecorder.install()`` replaces each layer function named in
``TARGETS`` by a wrapper that records a span: name, start, end, parent
span, operation id and a small outcome tag.  Modules bind names at import
(``from .core import eig_sym`` in ``means``, ``maps`` and others), so a
wrapper replaces the function in every powmean module that binds it;
``LinearMatrixMap.apply`` is replaced on the class.  Spans stay in memory
until ``write()``; ``layer_metrics()`` derives the per-layer figures, with
a span's self time being its duration minus that of its child spans.

Wrappers pass straight through while the recorder is inactive, so one
process can time the same operations untraced and then traced.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

import powmean
from powmean import core, maps

#: (module, attribute, span name, outcome tag).  The tag records what a
#: ratio metric needs: the matrix dim for eig_sym, hit or miss for the
#: certifier, the sign for determinant coefficients.
TARGETS = (
    ("core", "eig_sym", "core.eig_sym", "dim"),
    ("core", "symmetrize", "core.symmetrize", None),
    ("core", "mat_fun", "core.mat_fun", None),
    ("core", "loewner_leq", "core.loewner_leq", None),
    ("core", "random_pd", "core.random_pd", None),
    ("means", "power_mean", "means.power_mean", None),
    ("means", "map_power", "means.map_power", None),
    ("maps", "random_kraus_map", "maps.random_kraus_map", None),
    ("expansions", "numeric_det_coeff", "expansions.numeric_det_coeff", None),
    ("expansions", "det_coeff_power_pair", "expansions.det_coeff", "sign"),
    ("expansions", "det_coeff_log_pair", "expansions.det_coeff", "sign"),
    ("expansions", "det_coeff_rank_one", "expansions.det_coeff", "sign"),
    ("counterexamples", "find_counterexample", "counterexamples.find_counterexample", None),
    ("counterexamples", "_certify", "counterexamples.certify", "hit"),
    ("fuzz", "fuzz_point", "fuzz.fuzz_point", None),
    ("fuzz", "order_margin", "fuzz.order_margin", None),
    ("cli", "cmd_scan", "cli.cmd_scan", None),
)
DIMS = tuple(range(2, core.MAX_DIM + 1))


def _tag(kind, args, out):
    if kind == "dim":
        return "d%d" % np.shape(args[0])[0]
    if kind == "hit":
        return "miss" if out is None else "hit"
    total = out if isinstance(out, float) else out.total
    return "neg" if total < 0.0 else "nonneg"


class SpanRecorder:
    def __init__(self) -> None:
        self.active = False
        self.op_id = -1
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.op_ids = array("q")
        self.tags: list[str | None] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, kind):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            idx = len(rec.names)
            rec.names.append(name)
            rec.parents.append(rec._stack[-1] if rec._stack else -1)
            rec.op_ids.append(rec.op_id)
            rec.tags.append(None)
            rec.ends.append(0.0)
            rec._stack.append(idx)
            rec.starts.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec.ends[idx] = time.perf_counter()
                rec.tags[idx] = type(exc).__name__
                raise
            finally:
                rec._stack.pop()
            rec.ends[idx] = time.perf_counter()
            if kind is not None:
                rec.tags[idx] = _tag(kind, args, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every target in every powmean module that binds it."""
        modules = [m for n, m in sys.modules.items() if n == "powmean" or n.startswith("powmean.")]
        for module_name, attr, name, kind in TARGETS:
            original = getattr(getattr(powmean, module_name), attr)
            wrapper = self.wrap(name, original, kind)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        maps.LinearMatrixMap.apply = self.wrap("maps.apply", maps.LinearMatrixMap.apply, None)

    def write(self, path: str) -> None:
        """Save the spans as a compressed numpy archive.

        ``name`` and ``tag`` index the ``names`` and ``tags`` tables;
        ``parent`` is the index of the enclosing span, -1 at the top.
        """
        names = {n: i for i, n in enumerate(sorted(set(self.names)))}
        tags = {t: i for i, t in enumerate(sorted({t or "" for t in self.tags}))}
        np.savez_compressed(
            path,
            names=np.array(list(names)),
            tags=np.array(list(tags)),
            name=np.array([names[n] for n in self.names], dtype=np.int16),
            tag=np.array([tags[t or ""] for t in self.tags], dtype=np.int16),
            start_s=np.frombuffer(self.starts, dtype=np.float64),
            end_s=np.frombuffer(self.ends, dtype=np.float64),
            parent=np.frombuffer(self.parents, dtype=np.int64),
            op=np.frombuffer(self.op_ids, dtype=np.int64),
        )

    def layer_metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer figures over the recorded spans of ``ops`` operations.

        ``*.per_op`` ratios are over ``ops``; ``eig_per_pair`` counts the
        eig_sym calls inside find_counterexample per call of it.
        """
        n = len(self.names)
        child = [0.0] * n
        under_search = [False] * n
        for i in range(n):
            par = self.parents[i]
            if par >= 0:
                child[par] += self.ends[i] - self.starts[i]
                under_search[i] = under_search[par]
            if self.names[i] == "counterexamples.find_counterexample":
                under_search[i] = True
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        tags: dict[tuple[str, str], int] = {}
        dim_s: dict[str, float] = {}
        eig_in_search = 0
        for i in range(n):
            name = self.names[i]
            dur = self.ends[i] - self.starts[i]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur - child[i]
            tag = self.tags[i]
            if tag is not None:
                tags[(name, tag)] = tags.get((name, tag), 0) + 1
                if name == "core.eig_sym":
                    dim_s[tag] = dim_s.get(tag, 0.0) + dur
            if name == "core.eig_sym" and under_search[i]:
                eig_in_search += 1

        def count(name):
            return calls.get(name, 0)

        def ratio(num, den):
            return num / den if den else 0.0

        out: dict[str, tuple[float, str]] = {}

        def layer(name, *fields):
            if "calls" in fields:
                out[name + ".calls"] = (count(name), "count")
            if "self_s" in fields:
                out[name + ".self_s"] = (self_s.get(name, 0.0), "s")
            if "per_op" in fields:
                out[name + ".per_op"] = (ratio(count(name), ops), "count")

        layer("core.eig_sym", "calls", "self_s", "per_op")
        for d in DIMS:
            key = "d%d" % d
            out["core.eig_sym.us.%s" % key] = (
                ratio(dim_s.get(key, 0.0) * 1e6, tags.get(("core.eig_sym", key), 0)), "us")
        layer("core.symmetrize", "calls", "per_op", "self_s")
        layer("core.mat_fun", "calls", "self_s")
        layer("core.loewner_leq", "calls", "self_s")
        layer("core.random_pd", "self_s")
        layer("means.power_mean", "calls", "self_s")
        layer("means.map_power", "calls", "self_s")
        layer("maps.apply", "calls", "self_s")
        layer("maps.random_kraus_map", "self_s")
        layer("expansions.numeric_det_coeff", "calls", "self_s")
        layer("expansions.det_coeff", "calls")
        out["expansions.det_coeff.negative_ratio"] = (
            ratio(tags.get(("expansions.det_coeff", "neg"), 0), count("expansions.det_coeff")), "ratio")
        layer("counterexamples.find_counterexample", "self_s")
        attempts = count("counterexamples.certify")
        out["counterexamples.certify.attempts"] = (attempts, "count")
        out["counterexamples.certify.hit_ratio"] = (
            ratio(tags.get(("counterexamples.certify", "hit"), 0), attempts), "ratio")
        out["counterexamples.certify.domain_errors"] = (
            tags.get(("counterexamples.certify", "DomainError"), 0), "count")
        out["counterexamples.eig_per_pair"] = (
            ratio(eig_in_search, count("counterexamples.find_counterexample")), "count")
        layer("fuzz.fuzz_point", "self_s")
        layer("fuzz.order_margin", "calls", "self_s")
        layer("cli.cmd_scan", "self_s")
        return out
