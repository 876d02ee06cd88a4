"""The names the benchmark harness in ``perfbench/`` wraps, rebinds or calls.

``perfbench/spans.py`` replaces each function in ``TARGETS`` by a traced
wrapper, and ``perfbench/workloads.py`` rebinds or calls library functions
by module attribute.  A rename in ``powmean`` would break those runs
without failing any other test, so the names are checked here.  Nothing
under ``perfbench/`` is run beyond importing ``spans``.
"""

import importlib
import importlib.util
import inspect
import pathlib
import re

import numpy as np
import pytest

from powmean import Power

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"

#: Functions that workloads.py rebinds (to count or time them) or calls.
WORKLOAD_CALLS = [
    ("cli", "fuzz_point"),
    ("fuzz", "order_margin"),
    ("counterexamples", "pd_rotation_difference"),
    ("counterexamples", "rank_one_difference"),
    ("counterexamples", "find_counterexample"),
]

#: Call shapes of workloads.py: the wide workload's order, map-order and
#: duality checks and its duality inputs, the certify workload's search and
#: re-verification, and the lemma workload's closed forms, difference
#: functions and oracle.  The scan workload's wrapper of the CLI's fuzz_point
#: sees whatever the CLI passes; test_scan_calls_to_fuzz_point_bind records it.
WORKLOAD_CALL_SHAPES = [
    ("fuzz", "fuzz_point", (0.5, 2.0, 1, 9), {"dims": (4,)}),
    ("fuzz", "fuzz_map_order", (1, 9), {"dims": (4,)}),
    ("core", "random_pd", (4, 9, 10.0), {}),
    ("counterexamples", "rank_one_difference", (0.25, 0.5), {}),
    ("counterexamples", "pd_rotation_difference", (0.5, 2.0, 0.25, 0.0625), {}),
    ("expansions", "numeric_det_coeff", (abs,), {"orders": (1.0, 2.0, 4.0)}),
    ("core", "mat_fun", (np.eye(4), Power(-1.0)), {}),
    ("means", "power_mean", (0.5, np.eye(4), np.eye(4)), {}),
    ("means", "power_mean", (2.0, np.eye(2), np.eye(2)), {}),
    ("expansions", "det_coeff_power_pair", (0.5, 2.0, 0.25, 0.0625), {}),
    ("expansions", "det_coeff_log_pair", (2.0, 0.25, 0.0625), {}),
    ("expansions", "det_coeff_rank_one", (0.25, 0.5), {}),
    ("expansions", "rank_one_remainder_orders", (0.25, 0.5), {}),
    ("counterexamples", "find_counterexample", (0.25, 1.0), {}),
]


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _attr(module, name):
    return getattr(importlib.import_module("powmean." + module), name)


def test_span_targets_resolve_to_callables():
    targets = _load_spans().TARGETS
    assert targets
    for module, name, _, _ in targets:
        assert callable(_attr(module, name)), (module, name)


@pytest.mark.parametrize("module,name", WORKLOAD_CALLS)
def test_workload_calls_resolve_to_callables(module, name):
    assert callable(_attr(module, name))


def test_every_module_attribute_in_workloads_exists():
    source = (PERFBENCH / "workloads.py").read_text()
    imported = re.search(r"^from powmean import (.+)$", source, re.M).group(1)
    modules = [m.strip() for m in imported.split(",")]
    pattern = r"\b(%s)\.([A-Za-z_]\w*)" % "|".join(modules)
    used = set(re.findall(pattern, source))
    assert set(WORKLOAD_CALLS) <= used
    for module, name in sorted(used):
        assert hasattr(importlib.import_module("powmean." + module), name), (module, name)


@pytest.mark.parametrize("module,name,args,kwargs", WORKLOAD_CALL_SHAPES)
def test_workload_call_shapes_bind(module, name, args, kwargs):
    inspect.signature(_attr(module, name)).bind(*args, **kwargs)


def test_scan_calls_to_fuzz_point_bind(monkeypatch, tmp_path):
    # The scan workload rebinds cli.fuzz_point to a wrapper that forwards
    # *args and **kwargs: record what a one-cell scan passes and bind it.
    cli = importlib.import_module("powmean.cli")
    fuzz = importlib.import_module("powmean.fuzz")
    calls = []

    def recorded(*args, **kwargs):
        calls.append((args, kwargs))
        return fuzz.fuzz_point(*args, **kwargs)

    monkeypatch.setattr(cli, "fuzz_point", recorded)
    assert cli.main(["scan", "--pmin", "1", "--pmax", "1", "--qmin", "2", "--qmax", "2",
                     "--trials", "1", "--out", str(tmp_path / "scan.csv")]) == 0
    [(args, kwargs)] = calls
    inspect.signature(fuzz.fuzz_point).bind(*args, **kwargs)


@pytest.mark.parametrize("trials,dims", [(7, (2, 3, 4)), (1, (3,)), (50, (2, 3))])
def test_fuzz_point_makes_one_order_margin_call_per_check(monkeypatch, trials, dims):
    # The scan workload counts its operations by rebinding fuzz.order_margin:
    # one call per check, on that check's own (dim, dim) gap.
    fuzz = importlib.import_module("powmean.fuzz")
    inner, calls = fuzz.order_margin, []

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return inner(*args, **kwargs)

    monkeypatch.setattr(fuzz, "order_margin", counted)
    fuzz.fuzz_point(0.5, 2.0, trials, 3, dims=dims)
    assert calls == [(dim, dim) for dim in dims for _ in range(trials)]


@pytest.mark.parametrize("p,q,name", [(0.3, 2.0, "det_coeff_power_pair"),
                                      (-2.0, -0.25, "det_coeff_power_pair"),
                                      (0.0, 3.0, "det_coeff_log_pair")])
def test_rotation_walk_calls_the_coefficients_by_module_name(monkeypatch, p, q, name):
    # spans.py counts expansions.det_coeff calls by replacing these names in
    # counterexamples, so the walk must look them up there: one call per x.
    ce = importlib.import_module("powmean.counterexamples")
    calls = {}
    for attr in ("det_coeff_power_pair", "det_coeff_log_pair"):
        inner = getattr(ce, attr)
        calls[attr] = []

        def counted(*args, inner=inner, seen=calls[attr]):
            seen.append(args)
            return inner(*args)

        monkeypatch.setattr(ce, attr, counted)
    witness = ce.find_counterexample(p, q)
    assert len(calls.pop(name)) == witness.k - ce._X_SCHEDULE[0] + 1
    assert calls.popitem()[1] == []
