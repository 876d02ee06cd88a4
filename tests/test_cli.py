"""Command-line interface: exit codes, CSV schema, determinism."""

import hashlib

import numpy as np
import pytest

from powmean.cli import CSV_HEADER, main


def _scan_args(out, seed=5):
    return [
        "scan", "--pmin", "-1", "--pmax", "1", "--qmin", "-1", "--qmax", "1",
        "--step", "0.5", "--trials", "10", "--seed", str(seed), "--out", str(out),
    ]


def test_scan_writes_consistent_csv(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    assert main(_scan_args(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 25  # 5x5 grid
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 9
        label, verdict = fields[2], fields[3]
        if label == "in-region":
            assert verdict == "fuzz-pass"
        elif label == "scalar-fail":
            assert verdict == "scalar-fail"
        else:
            assert verdict == "certified-counterexample"
            assert float(fields[4]) < -1e-12


def test_scan_deterministic_bytes(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    main(_scan_args(out1))
    main(_scan_args(out2))
    assert out1.read_bytes() == out2.read_bytes()


def test_scan_bytes_pinned(tmp_path):
    # The default grid at 2 trials a cell; a change to any cell's bytes must
    # re-record this deliberately.
    out = tmp_path / "scan.csv"
    assert main(["scan", "--trials", "2", "--seed", "0", "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "6cfb2d33d2dafc37ac9dd6871ffc60751f98ec2e518d8717fbc5a3369b2e4b7b"


def test_scan_seed_changes_output(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    main(_scan_args(out1, seed=5))
    main(_scan_args(out2, seed=6))
    assert out1.read_bytes() != out2.read_bytes()


def test_scan_env_seed_override(tmp_path, monkeypatch):
    monkeypatch.setenv("POWMEAN_SEED", "123")
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["scan", "--pmin", "0", "--pmax", "0.5", "--qmin", "0", "--qmax", "0.5",
            "--step", "0.5", "--trials", "5", "--out"]
    main(args + [str(out1)])
    main(args + [str(out2)])
    assert out1.read_bytes() == out2.read_bytes()
    monkeypatch.setenv("POWMEAN_SEED", "124")
    out3 = tmp_path / "c.csv"
    main(args + [str(out3)])
    assert out1.read_bytes() != out3.read_bytes()


@pytest.mark.parametrize("bounds,message", [
    (["--pmin", "1", "--pmax", "-1"], "--pmin must not exceed --pmax"),
    (["--qmin", "1", "--qmax", "-1"], "--qmin must not exceed --qmax"),
])
def test_scan_rejects_reversed_bounds(bounds, message, tmp_path, capsys):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as info:
        main(["scan", *bounds, "--out", str(out)])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert not out.exists()


def test_scan_equal_bounds_give_one_cell(tmp_path):
    out = tmp_path / "x.csv"
    assert main(["scan", "--pmin", "1", "--pmax", "1", "--qmin", "2", "--qmax", "2",
                 "--trials", "1", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 1


@pytest.mark.parametrize("argv,env", [
    (["scan", "--seed", "-1"], None),
    (["fuzz", "region", "--seed=-1"], None),
    (["fuzz", "duality"], "-2"),
])
def test_negative_seed_is_usage_error(argv, env, tmp_path, monkeypatch, capsys):
    # SeedSequence takes only non-negative seeds; a negative one must stop at
    # the parser (SystemExit), not escape as a ValueError.
    if env is not None:
        monkeypatch.setenv("POWMEAN_SEED", env)
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as info:
        main(argv + (["--out", str(out)] if argv[0] == "scan" else []))
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-negative" in captured.err
    assert not out.exists()


def test_scan_rejects_bad_step(tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["scan", "--step", "-0.5", "--out", str(tmp_path / "x.csv")])
    assert info.value.code == 2


@pytest.mark.parametrize("argv", [
    ["--step", "1e-9"],  # 4e9 values per axis on the default bounds
    ["--pmin", "-1e308", "--pmax", "1e308"],  # the count overflows to infinity
])
def test_scan_rejects_oversized_grid_before_building_it(argv, tmp_path, capsys):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as info:
        main(["scan", *argv, "--out", str(out)])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "above the cap of 1000000" in captured.err
    assert not out.exists()


_NEG_SPECTRUM_PAIR = ["--p", "-1.9176636524619972", "--q", "-0.05991928785813627"]


@pytest.mark.parametrize("argv", [
    ["scan", "--pmin", "nan"],
    ["scan", "--pmax=-inf"],
    ["scan", "--qmin", "inf"],
    ["scan", "--qmax", "nan"],
    ["scan", "--step", "inf"],
    ["counterexample", "--p", "nan", "--q", "1"],
    ["counterexample", "--p", "0.25", "--q", "inf"],
    ["verify-lemma", "--family", "rank-one", "--p", "nan", "--q", "0.5"],
    ["verify-lemma", "--family", "pd-rotation", "--p", "1", "--q", "2", "--x", "inf",
     "--y", "0.25"],
    ["verify-lemma", "--family", "log-euclidean", "--q", "2", "--x", "0.5", "--y=-inf"],
])
def test_non_finite_numeric_option_is_usage_error(argv, tmp_path, capsys):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as info:
        main(argv + (["--out", str(out)] if argv[0] != "verify-lemma" else []))
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be finite" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("argv,reason", [
    (["--family", "rank-one", "--p", "2", "--q", "3"], "p, q in (0, 1)"),
    (["--family", "pd-rotation", "--p", "1", "--q", "2", "--x", "-1", "--y", "0.25"],
     "must be positive"),
    (["--family", "log-euclidean", "--q", "2", "--x", "0.5", "--y", "0"], "must be positive"),
    (["--family", "pd-rotation", "--p", "0", "--q", "2", "--x", "0.5", "--y", "0.25"],
     "nonzero exponent"),
])
def test_verify_lemma_outside_family_domain_is_usage_error(argv, reason, capsys):
    assert main(["verify-lemma", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert reason in captured.err


@pytest.mark.parametrize("argv", [
    ["counterexample", "--p", "0.25", "--q", "1", "--seed", "1"],
    ["counterexample", "--p", "0.25", "--q", "1", "--tol-order", "1e-10"],
    ["choi-table", "--seed", "1"],
    ["choi-table", "--tol-cert", "1e-12"],
    ["verify-lemma", "--family", "rank-one", "--p", "0.25", "--q", "0.5",
     "--tol-order", "1e-10"],
    ["fuzz", "region", "--tol-cert", "1e-12"],
    # the certification threshold is the fixed CERT_TOL
    ["scan", "--tol-cert", "-1"],
    ["counterexample", *_NEG_SPECTRUM_PAIR, "--tol-cert", "-1"],
    ["counterexample", *_NEG_SPECTRUM_PAIR, "--tol-cert", "inf"],
    # the order slack is the fixed core.ORDER_SLACK
    ["scan", "--tol-order", "0"],
    ["scan", "--tol-order", "inf"],
    ["scan", "--tol-order=-1e-10"],
    ["fuzz", "region", "--tol-order", "nan"],
    ["fuzz", "map-order", "--tol-order", "0"],
    ["fuzz", "map-order", "--tol-order=-inf"],
    ["fuzz", "duality", "--trials", "5", "--seed", "7", "--tol-order", "10"],
    ["fuzz", "limit", "--trials", "5", "--seed", "7", "--tol-order", "10"],
])
def test_options_a_subcommand_does_not_read_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_counterexample_certified_exit(capsys):
    assert main(["counterexample", "--p", "0.25", "--q", "1"]) == 0
    captured = capsys.readouterr().out
    assert "negative eigenvalue" in captured
    assert "pd-rotation" in captured
    assert "schedule position: k = 4, j = 0" in captured


def test_counterexample_in_region_exit(capsys):
    assert main(["counterexample", "--p", "1", "--q", "2"]) == 3
    assert "sufficiency region" in capsys.readouterr().out


def test_counterexample_log_euclidean_case(capsys):
    assert main(["counterexample", "--p", "0", "--q", "1"]) == 0
    assert "log-euclidean" in capsys.readouterr().out


def test_counterexample_csv_dump(tmp_path):
    out = tmp_path / "w.csv"
    assert main(["counterexample", "--p", "0.25", "--q", "1", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2


@pytest.mark.parametrize("p,q", [("1", "0.5"), ("0.25", "1")])
def test_counterexample_dump_matches_scan_row(p, q, tmp_path):
    # the same witness row as a one-cell scan, verdict included; only the seed differs
    dump, scan = tmp_path / "w.csv", tmp_path / "scan.csv"
    assert main(["counterexample", "--p", p, "--q", q, "--out", str(dump)]) == 0
    assert main(["scan", "--pmin", p, "--pmax", p, "--qmin", q, "--qmax", q,
                 "--out", str(scan)]) == 0
    dumped = dump.read_text().splitlines()[1].split(",")
    assert dumped[:8] == scan.read_text().splitlines()[1].split(",")[:8]


#: Pairs outside the region whose search fails, and the error it ends in.
_UNCERTIFIED = [((-0.987, -0.92), "SearchExhaustedError"),
                ((-1.425, -0.473), "SearchExhaustedError"),
                # outside the region as given, with both exponents evaluated
                # at 0 (5.55e-17 is the grid value -0.3 + 3 * 0.1)
                ((-5e-9, 5e-9), "SearchExhaustedError"),
                ((5.551115123125783e-17, 0.0), "SearchExhaustedError")]


@pytest.mark.parametrize("pair,reason", _UNCERTIFIED)
def test_scan_reports_uncertified_cell(pair, reason, tmp_path, capsys):
    out = tmp_path / "scan.csv"
    p, q = (str(v) for v in pair)
    args = ["scan", "--pmin", p, "--pmax", p, "--qmin", q, "--qmax", q,
            "--step", "0.1", "--out", str(out)]
    assert main(args) == 1
    assert "INCONSISTENT" in capsys.readouterr().out
    fields = out.read_text().splitlines()[1].split(",")
    assert fields[3:5] == ["uncertified", reason]


@pytest.mark.parametrize("pair,reason", _UNCERTIFIED)
def test_counterexample_uncertified_exit(pair, reason, capsys):
    p, q = (str(v) for v in pair)
    assert main(["counterexample", "--p", p, "--q", q]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "uncertified: %s" % reason in captured.err


def test_negative_exponent_notation_reads_as_a_value(capsys):
    assert main(["counterexample", "--p", "-1e-9", "--q", "0.5"]) == 0
    assert "family: pd-rotation\n" in capsys.readouterr().out


@pytest.mark.parametrize("args,message", [
    (["--step", "-1e-9"], "must be positive"),
    (["--pmax", "-inf"], "must be finite"),
])
def test_negative_exponent_notation_reaches_the_value_check(args, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scan", *args])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_near_zero_exponent_labelled_as_given(tmp_path, capsys):
    assert main(["counterexample", "--p", "1e-9", "--q", "0.5"]) == 0
    assert "family: pd-rotation\n" in capsys.readouterr().out
    out = tmp_path / "scan.csv"
    assert main(["scan", "--pmin", "-0.3", "--pmax", "0.3", "--qmin", "0.5",
                 "--qmax", "0.5", "--step", "0.1", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 7
    assert [p for p, *_ in rows if abs(float(p)) < 1e-8] == ["5.5511151231257827e-17"]
    assert {(r[2], r[3]) for r in rows} == {("pd-rotation", "certified-counterexample")}


def test_counterexample_prints_evaluated_exponents(capsys):
    assert main(["counterexample", "--p", "1e-9", "--q", "2"]) == 0
    assert "\nevaluated at: p = 0, q = 2\nfamily: pd-rotation\n" in capsys.readouterr().out
    assert main(["counterexample", "--p", "0", "--q", "2"]) == 0
    assert "evaluated at" not in capsys.readouterr().out


def test_choi_table_patterns(capsys):
    assert main(["choi-table"]) == 0
    out = capsys.readouterr().out
    assert "(-, +)" in out and "(+, +)" in out and "(-, -)" in out
    assert out.count("(-, +)") == 2


def test_verify_lemma_rank_one(capsys):
    assert main(["verify-lemma", "--family", "rank-one",
                 "--p", "0.25", "--q", "0.5"]) == 0
    assert "closed form" in capsys.readouterr().out


def test_verify_lemma_pd_rotation():
    assert main(["verify-lemma", "--family", "pd-rotation",
                 "--p", "1", "--q", "2", "--x", "0.5", "--y", "0.25"]) == 0


def test_verify_lemma_degenerate_exit():
    assert main(["verify-lemma", "--family", "log-euclidean",
                 "--q", "1", "--x", "2", "--y", "0.5"]) == 4


def test_verify_lemma_missing_parameter():
    assert main(["verify-lemma", "--family", "pd-rotation", "--p", "1"]) == 2


@pytest.mark.parametrize("target", ["region", "map-order", "duality", "limit"])
def test_fuzz_targets_pass(target, capsys):
    assert main(["fuzz", target, "--trials", "25", "--seed", "7"]) == 0
    assert "pass" in capsys.readouterr().out


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_fuzz_rejects_nonpositive_trials(trials, capsys):
    with pytest.raises(SystemExit) as info:
        main(["fuzz", "region", "--trials", trials, "--seed", "7"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.strip() == "--trials must be at least 1"
    assert captured.out == ""
