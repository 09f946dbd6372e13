"""Scenario runner: validation messages, exit codes, reproducible outputs."""

import contextlib
import csv
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import curvarb
import curvarb.paths
from curvarb.cli import (
    _is_number,
    bundled_scenarios,
    load_scenario,
    main,
    validate_scenario,
)
from curvarb.errors import ConfigurationError
from curvarb.paths import RNG_STREAM_VERSION, TAG_ASSET_BASE, _format_cell


def _read_tree(root):
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_bundled_scenarios_listed():
    names = bundled_scenarios()
    assert "flat_market" in names
    assert "thm1_constructed" in names
    assert "novikov_capped" in names


def test_bundled_scenarios_validate_clean():
    for name in bundled_scenarios():
        doc = load_scenario(name)
        assert validate_scenario(doc) == [], name


def test_load_scenario_accepts_name_or_filename():
    assert load_scenario("flat_market")["name"] == "flat_market"
    assert load_scenario("flat_market.json")["name"] == "flat_market"


def test_load_scenario_unknown_ref():
    with pytest.raises(ConfigurationError):
        load_scenario("no_such_scenario_anywhere")


def test_load_scenario_broken_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ConfigurationError):
        load_scenario(str(p))


def test_validation_names_nested_fields():
    doc = {
        "name": "bad",
        "grid": {"horizon": -1},
        "seed": "x",
        "analyses": ["curvature", "nope"],
        "n_paths": 1,
        "assets": [{"label": "a", "x0": 0.0, "drift": 0.0, "sigma": -0.2, "rate": 0.0}],
    }
    fields = {v["field"] for v in validate_scenario(doc)}
    assert {
        "grid.horizon",
        "grid.steps",
        "seed",
        "analyses[1]",
        "n_paths",
        "assets[0].x0",
        "assets[0].sigma",
        "offsets.step",
        "offsets.count",
    } <= fields


def test_validation_rejects_duplicate_labels():
    doc = load_scenario("flat_market")
    doc["assets"][1]["label"] = doc["assets"][0]["label"]
    assert any(
        v["field"] == "assets[1].label" and "duplicate" in v["message"]
        for v in validate_scenario(doc)
    )


def test_validation_rejects_bad_pairs():
    doc = load_scenario("flat_market")
    doc["kernel"]["pairs"] = [[2.0, 1.0]]
    assert any(v["field"] == "kernel.pairs" for v in validate_scenario(doc))


def test_validate_command_exit_codes(tmp_path, capsys):
    assert main(["validate", "flat_market"]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "bad"}))
    assert main(["validate", str(bad)]) == 2
    out = capsys.readouterr().out
    assert "grid.horizon: missing" in out


def test_run_flat_market(tmp_path, capsys):
    out = tmp_path / "run1"
    assert main(["run", "flat_market", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    for line in ("curvature: pass", "kernel: pass", "zc: pass", "sharpe: pass"):
        assert line in printed
    names = sorted(os.listdir(out))
    assert names == ["curvature.csv", "kernel.csv", "sharpe.csv", "summary.json", "zc.csv"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["overall"] == "pass"
    assert summary["scenario"] == "flat_market"
    assert summary["rng_stream_version"] == RNG_STREAM_VERSION == 3
    assert set(summary["analyses"]) == {"curvature", "kernel", "zc", "sharpe"}
    # floats go through repr, so they round-trip exactly through the file
    assert summary["analyses"]["sharpe"]["estimate"] == pytest.approx(
        1.046027859908717, rel=1e-9
    )


def test_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "flat_market", "--out", str(a)]) == 0
    assert main(["run", "flat_market", "--out", str(b)]) == 0
    assert _read_tree(a) == _read_tree(b)


# SHA-256 of every file each bundled scenario writes, at RNG stream version 3.
# A change that moves any of them changes the outputs: log it, and bump
# RNG_STREAM_VERSION when the draws behind them change
BUNDLED_DIGESTS = {
    "flat_market": {
        "curvature.csv": "d68d11cb3fc689bb31c141e90fc78f0748a1bca9233453746078ad474588a8ec",
        "kernel.csv": "870e94a9661290d3d364a9b66c359100eff6e2586c2cb284ca3a685507c9b8d4",
        "sharpe.csv": "a5915c3d072e7d4e0bbf55dd0128a10d062690d302cdce1640236013db6564c1",
        "summary.json": "1545c6a81db2c2d4c77550bf872973997d457536db37dc3d6d9a6dc96c8043e5",
        "zc.csv": "717a2f271d68039eecbb9c8ef4f9d25ee3341f49c16dd21da7a442594e8fee04",
    },
    "novikov_capped": {
        "novikov_mc.csv": "7211e7124facb3fff0d69a1b02fe3732fdf1c4837c6133f2483d2e52a3976cb2",
        "novikov_quadrature.csv": "5dbb724e53d2afd8b6ca6c09a394353d77a3bc02dc5d77be71475a127491ac27",
        "summary.json": "a61424638eb14ab35a03fed91f59ecb29860b474c91f2da0d33bf897e956c3ca",
    },
    "thm1_constructed": {
        "bond.csv": "9feb6514bfe6bb1e38664390efb4219b7c1a2386b11fd7e5912574cba13f2070",
        "summary.json": "347e7d86745f8a57ee9ac32f0de7da3cb0ca6129569c5b2b2aa0876defb5ddef",
        "thm1_bond.csv": "30caada83649c0dbef184650f23c25dd66176fa5677f25739f5c84b008945110",
        "thm1_spread.csv": "ada8bd765461001782b510198fa65351430fda1a4e4c60539ab8106481501c37",
    },
}


# The files of BUNDLED_DIGESTS that differ at the AVX2 dispatch level (numpy
# 2.4.6 with NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4"), where
# float64 exp and log take other kernels; every other pin holds at both levels
AVX2_DIGESTS = {
    "flat_market": {
        "curvature.csv": "25c087e9051ce52faccebf3547afe1c9fc3f21ef49c662804d6c8d5607e81984",
        "kernel.csv": "fcaa4e1fa14a4699b1fe9d7a9fdfb3d9074acf72d994f4a6f02c6c137ab060fb",
        "summary.json": "8ea236aaa4f2c4a0d220dde54b8a3c7e3efe6d9f1bd6937f5f12d84aa7f76abf",
    },
}


def _dispatch_level() -> str:
    """The pin set's dispatch level: "AVX-512" when numpy's X86_V4 targets
    are active (AVX512_SKX on numpy 2.0, which has no X86_V4), else "AVX2"."""
    try:
        from numpy._core import _multiarray_umath as umath

        features = umath.__cpu_features__
    except (ImportError, AttributeError):
        return "AVX-512"
    return "AVX-512" if features.get("X86_V4", features.get("AVX512_SKX")) else "AVX2"


def _numpy_build() -> str:
    """The numpy version and, where numpy reports them, its active CPU
    dispatch targets: the pinned bytes hold for one of each (README
    "Determinism")."""
    try:
        from numpy._core import _multiarray_umath as umath

        active = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    except (ImportError, AttributeError):
        return f"numpy {np.__version__}"
    return f"numpy {np.__version__}, CPU dispatch {' '.join(active) or 'baseline only'}"


def test_numpy_build_names_the_numpy_version():
    # the digest test's failure message is built without an error
    assert _numpy_build().startswith(f"numpy {np.__version__}")
    assert _dispatch_level() in ("AVX-512", "AVX2")
    # the AVX2 set replaces pins of bundled files only
    for name, pins in AVX2_DIGESTS.items():
        assert set(pins) < set(BUNDLED_DIGESTS[name])


@pytest.mark.bitexact
@pytest.mark.parametrize("name", sorted(BUNDLED_DIGESTS))
def test_bundled_outputs_match_pinned_digests(tmp_path, name):
    assert set(BUNDLED_DIGESTS) == set(bundled_scenarios())
    assert main(["run", name, "--out", str(tmp_path)]) == 0
    digests = {
        fname: hashlib.sha256(data).hexdigest() for fname, data in _read_tree(tmp_path).items()
    }
    level = _dispatch_level()
    expected = {**BUNDLED_DIGESTS[name], **(AVX2_DIGESTS.get(name, {}) if level == "AVX2" else {})}
    assert sorted(digests) == sorted(expected), f"{name}: files {sorted(digests)}"
    for fname, digest in expected.items():
        assert digests[fname] == digest, (
            f"{name}/{fname}: SHA-256 {digests[fname]} is not the {level}-level pin {digest}"
            f" ({_numpy_build()})"
        )


def test_threads_flag_is_accepted_and_ignored(tmp_path):
    """--threads N still parses, and the run writes the bytes of one without it."""
    a, b = tmp_path / "plain", tmp_path / "threads"
    assert main(["run", "thm1_constructed", "--out", str(a)]) == 0
    assert main(["run", "thm1_constructed", "--out", str(b), "--threads", "4"]) == 0
    assert _read_tree(a) == _read_tree(b)


def test_failing_analysis_exits_one(tmp_path, capsys):
    doc = load_scenario("flat_market")
    doc["tolerances"]["curvature_max_norm"] = 1e-6
    scen = tmp_path / "tight.json"
    scen.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", str(scen), "--out", str(out)]) == 1
    assert "curvature: fail" in capsys.readouterr().out
    summary = json.loads((out / "summary.json").read_text())
    assert summary["overall"] == "fail"
    assert summary["analyses"]["curvature"]["passed"] is False


def test_invalid_scenario_exits_two(tmp_path, capsys):
    scen = tmp_path / "bad.json"
    scen.write_text(json.dumps({"name": "bad", "analyses": ["zc"]}))
    assert main(["run", str(scen), "--out", str(tmp_path / "o")]) == 2
    assert "invalid scenario" in capsys.readouterr().err
    assert main(["run", "no_such_scenario", "--out", str(tmp_path / "o2")]) == 2


def test_starved_estimator_exits_three(tmp_path, capsys):
    # 30 paths give a handful of defaults, far below the estimator floor
    doc = {
        "name": "starved",
        "grid": {"horizon": 5.0, "steps": 20},
        "seed": 1,
        "n_paths": 30,
        "credit": {"lambda": 0.02, "lgd": 0.4},
        "novikov": {"k": 4, "mode": "mc"},
        "analyses": ["novikov"],
    }
    scen = tmp_path / "starved.json"
    scen.write_text(json.dumps(doc))
    assert main(["run", str(scen), "--out", str(tmp_path / "o")]) == 3
    assert "numerical error" in capsys.readouterr().err


def test_output_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("CURVARB_OUTPUT_DIR", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    assert main(["run", "flat_market"]) == 0
    assert (tmp_path / "flat_market" / "summary.json").exists()


@pytest.mark.parametrize(
    "name",
    ["../escaped", "/absolute", "a/b", "a\\b", ".", "..", "a\0b", ""],
    ids=["parent", "absolute", "nested", "backslash", "dot", "dot-dot", "nul", "empty"],
)
def test_name_that_is_not_one_file_name_is_rejected(tmp_path, monkeypatch, capsys, name):
    base = tmp_path / "base"
    monkeypatch.setenv("CURVARB_OUTPUT_DIR", str(base))
    monkeypatch.chdir(tmp_path)
    doc = load_scenario("flat_market")
    doc["name"] = str(tmp_path / "abs") if name == "/absolute" else name
    scen = tmp_path / "named.json"
    scen.write_text(json.dumps(doc))
    assert main(["validate", str(scen)]) == 2
    assert "name: must be one file-name component" in capsys.readouterr().out
    assert main(["run", str(scen)]) == 2
    assert "invalid scenario: name: " in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["named.json"]  # nothing written anywhere


def _run_doc(tmp_path, doc):
    """Exit code and summary.json of a run of ``doc``; outputs in tmp_path/out."""
    scen = tmp_path / "doc.json"
    scen.write_text(json.dumps(doc))
    code = main(["run", str(scen), "--out", str(tmp_path / "out")])
    return code, json.loads((tmp_path / "out" / "summary.json").read_text())


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize(
    "drift, z_range, code",
    [(0.016, (3.9, 4.0), 0), (0.0166, (4.0, 4.1), 1)],
    ids=["z-3.96", "z-4.05"],
)
def test_curvature_default_gate_is_four_standard_errors(tmp_path, drift, z_range, code):
    # without a tolerances section every time's spread must lie within 4 SE:
    # a drift gap plants the largest z just below or just above 4
    doc = load_scenario("flat_market")
    del doc["tolerances"]
    doc["analyses"] = ["curvature"]
    doc["assets"][1]["drift"] = drift
    assert _run_doc(tmp_path, doc)[0] == code
    rows = _csv_rows(tmp_path / "out" / "curvature.csv")
    z = max(float(r["norm"]) / float(r["norm_se"]) for r in rows)
    assert z_range[0] < z < z_range[1]


def _planted_curvature(monkeypatch, norm, norm_se):
    """Make the CLI's curvature analysis report these norms and SEs."""
    import curvarb.curvature
    from curvarb.curvature import CurvatureReport

    m = len(norm)
    report = CurvatureReport(
        0.25 * np.arange(1, m + 1), ["alpha", "beta"], np.zeros((2, m)), np.zeros((2, m)),
        np.asarray(norm, dtype=np.float64), np.asarray(norm_se, dtype=np.float64), np.zeros(m),
    )
    monkeypatch.setattr(curvarb.curvature, "curvature_components", lambda gauges: report)


def _curvature_doc(**tolerances):
    doc = load_scenario("flat_market")
    doc.update(n_paths=100, analyses=["curvature"], tolerances=tolerances)
    return doc


@pytest.mark.parametrize("factor, code", [(0.99, 0), (1.01, 1)])
@pytest.mark.parametrize("se, width", [(0.01, 0.04), (0.0, 1e-10)], ids=["four-se", "zero-se"])
def test_curvature_gate_width(tmp_path, monkeypatch, se, width, factor, code):
    # every norm within 4 standard errors, or 1e-10 where the SE is zero
    _planted_curvature(monkeypatch, [0.0, factor * width, 0.5 * width], [se] * 3)
    code_run, summary = _run_doc(tmp_path, _curvature_doc())
    assert code_run == code
    assert summary["analyses"]["curvature"]["passed"] is (code == 0)


@pytest.mark.parametrize("above, code", [(False, 0), (True, 1)])
def test_curvature_max_norm_tolerance_is_inclusive(tmp_path, monkeypatch, above, code):
    _planted_curvature(monkeypatch, [0.01, 0.02], [1.0, 1.0])
    tolerance = np.nextafter(0.02, -np.inf) if above else 0.02
    assert _run_doc(tmp_path, _curvature_doc(curvature_max_norm=float(tolerance)))[0] == code


@pytest.mark.parametrize("variant", ["general", "numeraire_rederived"])
@pytest.mark.parametrize("factor, code", [(0.99, 0), (1.01, 1)])
def test_thm1_bond_gate_is_three_standard_errors(tmp_path, monkeypatch, variant, factor, code):
    import curvarb.credit

    def planted(market, pairs, lambda_source="model", window=1.0):
        spread = {"t": 0.0, "residual": 0.0, "se": 0.0, "z": 0.0, "detected": False}
        bond = {"t": 0.0, "s": 5.0, "general_printed": 0.0, "general": 0.0}
        bond.update(numeraire_printed=0.0, numeraire_rederived=0.0, se=0.002, n_alive=100)
        bond[variant] = -factor * 3 * 0.002
        spread, bond = ({k: np.array([v]) for k, v in rows.items()} for rows in (spread, bond))
        return curvarb.credit.Thm1Report(spread, bond, lambda_source, "")

    monkeypatch.setattr(curvarb.credit, "thm1_residuals", planted)
    doc = load_scenario("thm1_constructed")
    doc.update(n_paths=2000, analyses=["thm1"])
    code_run, summary = _run_doc(tmp_path, doc)
    assert code_run == code
    assert summary["analyses"]["thm1"]["bond_ok"] is (code == 0)


@pytest.mark.parametrize("first", [1.0, -1.0], ids=["plus-first", "minus-first"])
def test_kernel_worst_row_is_the_first_of_equal_residuals(tmp_path, monkeypatch, first):
    # one pair and two assets: the worst bins of the two rows tie in |residual|
    import itertools

    import curvarb.curvature
    from curvarb.cli import _asset_gauges, _beta

    means = itertools.cycle([first * 0.01, -first * 0.01])
    monkeypatch.setattr(
        curvarb.curvature,
        "conditional_bin_table",
        lambda states, y: {"mean": np.array([next(means)]), "se": np.array([0.01])},
    )
    doc = load_scenario("flat_market")
    doc.update(n_paths=500, analyses=["kernel"])
    doc["kernel"]["pairs"] = [[1.0, 2.0]]
    report = curvarb.curvature.kernel_check(_asset_gauges(doc), _beta(doc), [(1.0, 2.0)])
    assert report.worst == 0
    assert report.table["label"].tolist() == ["alpha", "beta"]
    kernel = _run_doc(tmp_path, doc)[1]["analyses"]["kernel"]
    assert (kernel["worst_label"], kernel["worst_residual"]) == ("alpha", first * 0.01)


@pytest.mark.parametrize("sign", [-1.0, 1.0], ids=["below", "above"])
@pytest.mark.parametrize("factor, code", [(2.99, 0), (3.01, 1)])
def test_bond_price_gate_is_three_standard_errors(tmp_path, sign, factor, code):
    from curvarb.cli import _credit_market
    from curvarb.credit import corporate_bond_price

    doc = load_scenario("thm1_constructed")
    doc.update(n_paths=5000, analyses=["bond"])
    price = corporate_bond_price(_credit_market(doc), 0.0, 5.0)
    doc["price"]["expected"] = [price.value + sign * factor * price.se]
    assert _run_doc(tmp_path, doc)[0] == code
    (row,) = _csv_rows(tmp_path / "out" / "bond.csv")
    assert row["within_3se"] == ("true" if code == 0 else "false")


@pytest.mark.parametrize("sign", [-1.0, 1.0], ids=["below", "above"])
@pytest.mark.parametrize("factor, code", [(2.99, 0), (3.01, 1)])
def test_novikov_match_gate_is_three_standard_errors(tmp_path, monkeypatch, sign, factor, code):
    import curvarb.novikov
    from curvarb.novikov import QuadratureResult

    estimates, novikov_mc = [], curvarb.novikov.novikov_mc

    def recorded(*args, **kwargs):
        estimates.append(novikov_mc(*args, **kwargs))
        return estimates[-1]

    def planted(spec):
        # a converged quadrature value off the MC estimate by factor MC SEs
        value = estimates[-1].estimate + sign * factor * estimates[-1].se
        return QuadratureResult(True, False, value, float(np.log(value)), [(1.0, np.log(value))])

    monkeypatch.setattr(curvarb.novikov, "novikov_mc", recorded)
    monkeypatch.setattr(curvarb.novikov, "novikov_quadrature", planted)
    doc = load_scenario("novikov_capped")
    doc["n_paths"] = 4000
    code_run, summary = _run_doc(tmp_path, doc)
    assert estimates[-1].se > 0
    assert code_run == code
    assert summary["analyses"]["novikov"]["passed"] is (code == 0)


def test_each_runner_returns_files_a_summary_and_checks(tmp_path, monkeypatch, capsys):
    import curvarb.cli as cli

    returned = {}
    for name, runner in cli._RUNNERS.items():

        def recorded(doc, built, name=name, runner=runner):
            returned[name] = runner(doc, built)
            return returned[name]

        monkeypatch.setitem(cli._RUNNERS, name, recorded)
    for scenario in bundled_scenarios():
        assert main(["run", scenario, "--out", str(tmp_path / scenario)]) == 0
    assert sorted(returned) == sorted(cli.ANALYSES)
    for name, (files, summary, checks) in returned.items():
        assert files and "passed" not in summary, name
        assert isinstance(checks, tuple) and all(np.all(c) for c in checks), name
    # the run's verdict is the conjunction of the checks, decided by cmd_run
    zc = cli._RUNNERS["zc"]
    monkeypatch.setitem(cli._RUNNERS, "zc", lambda doc, built: (*zc(doc, built)[:2], (False,)))
    capsys.readouterr()
    assert main(["run", "flat_market", "--out", str(tmp_path / "failed")]) == 1
    assert "zc: fail" in capsys.readouterr().out
    summary = json.loads((tmp_path / "failed" / "summary.json").read_text())
    assert summary["overall"] == "fail"
    assert summary["analyses"]["zc"]["passed"] is False


def _verdict_from_files(name, doc, out, summary):
    """An analysis' verdict recomputed from its CSV files and the gate
    constants, without the runner's code."""
    from curvarb.cli import _CURVATURE_GATE_ATOL, _CURVATURE_GATE_SE
    from curvarb.paths import _GATE_SE

    def column(fname, field):
        cells = [row[field] for row in _csv_rows(out / fname)]
        return np.array([c == "true" if c in ("true", "false") else float(c) for c in cells])

    def within(residual, se, k=_GATE_SE, atol=0.0):
        return bool(np.all(np.abs(residual) <= np.maximum(k * se, atol)))

    if name == "curvature":
        norm = column("curvature.csv", "norm")
        tol = doc.get("tolerances", {}).get("curvature_max_norm")
        if tol is not None:
            return bool(norm.max() <= tol)
        se = column("curvature.csv", "norm_se")
        return within(norm, se, _CURVATURE_GATE_SE, _CURVATURE_GATE_ATOL)
    if name in ("kernel", "zc", "sharpe"):
        return bool(column(f"{name}.csv", "passed").all())
    if name == "bond":
        return "expected" not in doc["price"] or bool(column("bond.csv", "within_3se").all())
    if name == "thm1":
        detected = bool(column("thm1_spread.csv", "detected").any())
        se = column("thm1_bond.csv", "se")
        variants = ("general", "numeraire_rederived")
        bond_ok = all(within(column("thm1_bond.csv", v), se) for v in variants)
        return detected == doc["thm1"].get("expect_detection", False) and bond_ok
    # novikov: the bundled scenario matches the MC estimate to the quadrature value
    assert doc["novikov"]["expect"] == "match"
    estimate, se = (column("novikov_mc.csv", field)[0] for field in ("estimate", "se"))
    quad = summary["analyses"]["novikov"]
    return quad["quadrature_converged"] and within(estimate - quad["quadrature_value"], se)


@pytest.mark.parametrize(
    "scenario", ["flat_market", "flat_market-gated", "novikov_capped", "thm1_constructed"]
)
def test_summary_verdict_agrees_with_the_written_files(tmp_path, scenario):
    # flat_market-gated drops the fixed curvature tolerance for the 4-SE gate
    doc = load_scenario(scenario.split("-")[0])
    if scenario.endswith("-gated"):
        del doc["tolerances"]
    code, summary = _run_doc(tmp_path, doc)
    verdicts = {name: info["passed"] for name, info in summary["analyses"].items()}
    assert sorted(verdicts) == sorted(doc["analyses"])
    for name, passed in verdicts.items():
        assert passed is _verdict_from_files(name, doc, tmp_path / "out", summary), name
    assert code == (0 if all(verdicts.values()) else 1)


def _row_wise_csv(header, rows):
    """CSV text written one row at a time, each cell through _format_cell."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_format_cell(x) for x in row] for row in rows)
    return buf.getvalue()


def test_csv_columns_equal_a_row_wise_writer():
    from curvarb.cli import _csv

    columns = {
        "t": [1, 2.5, 3],  # JSON numbers: an integer is written as one
        "value": np.array([0.1, -1e-300, np.inf]),
        "n": np.array([1, 20, 300]),
        "ok": np.array([True, False, True]),
        "flag": [True, np.bool_(False), False],
        'a,"x"': ["plain", 'a,"x"', "line\nbreak"],
    }
    text = _csv(columns)
    assert text == _row_wise_csv(list(columns), zip(*columns.values()))
    assert text.splitlines()[:2] == ['t,value,n,ok,flag,"a,""x"""', "1,0.1,1,true,true,plain"]


@pytest.mark.parametrize(
    "lgd_rule, expect, code",
    [("constant", "divergent", 0), ("capped", "finite", 0), ("capped", "divergent", 1)],
)
def test_novikov_expect_divergent_and_finite(tmp_path, lgd_rule, expect, code):
    doc = load_scenario("novikov_capped")
    doc["n_paths"] = 4000
    doc["novikov"].update(lgd_rule=lgd_rule, expect=expect)
    scen = tmp_path / "expect.json"
    scen.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(["run", str(scen), "--out", str(out)]) == code
    novikov = json.loads((out / "summary.json").read_text())["analyses"]["novikov"]
    verdict = "finite_evidence" if lgd_rule == "capped" else "divergence_evidence"
    assert novikov["mc_verdict"] == verdict
    assert novikov["quadrature_converged"] is (lgd_rule == "capped")
    assert novikov["quadrature_diverged"] is (lgd_rule == "constant")
    assert novikov["passed"] is (code == 0)


def test_version_and_scenarios_commands(capsys):
    assert main(["version"]) == 0
    assert capsys.readouterr().out.startswith("curvarb ")
    assert main(["scenarios"]) == 0
    assert "flat_market" in capsys.readouterr().out


# public names deleted because no run reached them
_DELETED = [
    "realized_covariation", "CovariationResult", "martingale_residual", "MartingaleResidual",
    "covariation_rates", "nelson_default_derivative", "implied_intensity", "ImpliedIntensity",
    "LGDProcess", "realized_lgd_at_default",
]


def test_public_names_exist_and_are_reexported():
    """Each __all__ entry is defined in its module and re-exported by the
    package: the benchmark tracer reads every entry with getattr."""
    for module in ("paths", "gauges", "curvature", "credit", "novikov"):
        mod = importlib.import_module(f"curvarb.{module}")
        for name in mod.__all__:
            assert getattr(curvarb, name) is getattr(mod, name), name
        assert not [n for n in _DELETED if hasattr(mod, n)]
    assert not [n for n in _DELETED if hasattr(curvarb, n)]
    assert not hasattr(curvarb.paths, "_worst_bin")
    assert not hasattr(curvarb.PathEnsemble, "component")


def _child_env():
    # A child started in an unrelated directory resolves a relative
    # PYTHONPATH such as "src" to nothing; hand it the absolute root of the
    # package this suite imported, ahead of any inherited entries.
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(curvarb.__file__)))
    inherited = os.environ.get("PYTHONPATH")
    pythonpath = os.pathsep.join(filter(None, [package_root, inherited]))
    return dict(os.environ, PYTHONPATH=pythonpath)


def test_module_entry_point(tmp_path):
    """python -m curvarb reaches the same runner."""
    proc = subprocess.run(
        [sys.executable, "-m", "curvarb", "version"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"curvarb {curvarb.__version__}\n", proc.stderr


def test_import_loads_no_scipy(tmp_path):
    """SciPy is imported only by the functions that call it."""
    probe = "import sys, curvarb; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n", proc.stderr


def test_import_loads_no_keyed_row_machinery(tmp_path):
    """numpy.random loads on the first keyed draw, not with the CLI; the CLI
    imports no concurrent.futures."""
    probe = (
        "import sys, curvarb.cli; "
        "print([m for m in ('numpy.random', 'concurrent.futures') if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n", proc.stderr


_ANALYSIS_MODULES = ("curvarb.credit", "curvarb.curvature", "curvarb.novikov")


def _analysis_modules_loaded(args, cwd):
    """The analysis modules a fresh interpreter run with ``args`` imports,
    read off its ``-X importtime`` report."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    names = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
    assert "curvarb.paths" in names, proc.stderr  # the report was read
    return sorted(names & set(_ANALYSIS_MODULES))


def test_a_run_loads_only_the_modules_it_calls(tmp_path):
    """import curvarb and the CLI load no analysis module; a market run loads
    no credit, a credit run neither curvature nor novikov, and reading an
    analysis module off the package loads that module alone."""
    assert _analysis_modules_loaded(["-c", "import curvarb, curvarb.cli"], tmp_path) == []
    probe = ["-c", "import curvarb; curvarb.credit.build_thm1_market"]
    assert _analysis_modules_loaded(probe, tmp_path) == ["curvarb.credit"]
    assert _analysis_modules_loaded(["-m", "curvarb", "version"], tmp_path) == []
    flat = ["-m", "curvarb", "run", "flat_market", "--out", "flat"]
    assert "curvarb.credit" not in _analysis_modules_loaded(flat, tmp_path)
    thm1 = ["-m", "curvarb", "run", "thm1_constructed", "--out", "thm1"]
    assert _analysis_modules_loaded(thm1, tmp_path) == ["curvarb.credit"]


def test_lazy_names_resolve_to_their_modules_objects(tmp_path):
    """In a fresh interpreter each re-exported name, read before its module is
    imported by name, is that module's own object, and a star import binds
    every name in the package's __all__."""
    probe = (
        "import importlib, sys\n"
        "import curvarb\n"
        "assert not [m for m in %r if m in sys.modules]\n"
        "first = {name: getattr(curvarb, name) for name in curvarb.__all__}\n"
        "for m in ('errors', 'paths', 'gauges', 'credit', 'curvature', 'novikov'):\n"
        "    mod = importlib.import_module('curvarb.' + m)\n"
        "    assert getattr(curvarb, m) is mod, m\n"
        "    for name in mod.__all__:\n"
        "        assert first.pop(name) is getattr(mod, name), name\n"
        "assert first == {}, sorted(first)\n"
        "from curvarb import *\n"
        "assert [name for name in curvarb.__all__ if name not in globals()] == []\n"
        "print('ok')\n"
    ) % (_ANALYSIS_MODULES,)
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_bundled_runs_load_no_scipy_stats_or_integrate(tmp_path):
    """No bundled run and no library call imports SciPy at all: the child
    blocks the package, so any SciPy import raises."""
    probe = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import curvarb as cv\n"
        "from curvarb.cli import bundled_scenarios, main\n"
        "codes = [main(['run', name, '--out', name]) for name in bundled_scenarios()]\n"
        "lam = lambda t: 0.01 + 0.002 * t\n"
        "model = cv.IntensityModel(lam)\n"
        "sample = cv.simulate_default(model, cv.TimeGrid.regular(10.0, 40), 2000, seed=1)\n"
        "cv.cox_uniformity(sample)\n"
        "cv.novikov_quadrature(cv.DensitySpec.truncated_exponential(\n"
        "    0.05, horizon=20.0, k=4, lgd_given_tq=cv.capped_lgd_tq(0.1)))\n"
        "model.integrated_hazard(0.0, 5.0)\n"
        "cv.build_thm1_market(lam, 0.4, n_paths=500, seed=1)\n"
        "cv.default_probability(model, 1.0, 3.0)\n"
        "print(codes, sorted(m for m in sys.modules if m.startswith('scipy.')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0] []", proc.stderr


def test_unwritable_out_exits_two_without_traceback(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "curvarb", "run", "flat_market", "--out", str(out)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=_child_env(),
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("configuration error: ")
    assert str(out) in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


def test_unexpected_exception_exits_three_without_traceback(tmp_path, monkeypatch, capsys):
    import curvarb.cli as cli

    def broken(doc, built):
        raise RuntimeError("runner broke")

    monkeypatch.setitem(cli._RUNNERS, "novikov", broken)
    doc = {
        "name": "broken",
        "grid": {"horizon": 5.0, "steps": 20},
        "seed": 1,
        "n_paths": 30,
        "credit": {"lambda": 0.02, "lgd": 0.4},
        "novikov": {"k": 4, "mode": "mc"},
        "analyses": ["novikov"],
    }
    scen = tmp_path / "broken.json"
    scen.write_text(json.dumps(doc))
    assert main(["run", str(scen), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: runner broke\n"
    assert "Traceback" not in err


def test_vanishing_deflator_exits_three_without_warnings(tmp_path):
    doc = load_scenario("flat_market")
    doc["assets"] = [
        {"label": "a", "x0": 1e300, "drift": 50, "sigma": 30, "form": "geometric", "rate": 0.0}
    ]
    doc["analyses"] = ["curvature"]
    scen = tmp_path / "underflow.json"
    scen.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "curvarb", "run", str(scen), "--out", str(tmp_path / "o")],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=_child_env(),
    )
    assert proc.returncode == 3, proc.stderr
    assert "deflator of asset 'a' reaches 0 at t = " in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def test_csv_headers_and_float_round_trip(tmp_path):
    out = tmp_path / "o"
    main(["run", "flat_market", "--out", str(out)])
    lines = (out / "curvature.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[0] == "t"
    assert header[-3:] == ["norm", "norm_se", "weighted_std"]
    cell = lines[1].split(",")[0]
    assert float(cell) == 0.25  # first interior grid time


def test_csv_cells_are_quoted_when_needed(tmp_path):
    doc = load_scenario("flat_market")
    doc["n_paths"] = 500
    doc["assets"][0]["label"] = 'a,"x"'
    scen = tmp_path / "quoted.json"
    scen.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(["run", str(scen), "--out", str(out)]) in (0, 1)
    tables = {}
    for path in sorted(out.glob("*.csv")):
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert rows and all(len(row) == len(header) for row in rows), path.name
        tables[path.name] = (header, rows)
    assert sorted(tables) == ["curvature.csv", "kernel.csv", "sharpe.csv", "zc.csv"]
    assert tables["curvature.csv"][0][1:5] == ['a_a,"x"', 'se_a,"x"', "a_beta", "se_beta"]
    assert [row[0] for row in tables["kernel.csv"][1]] == ['a,"x"', 'a,"x"', "beta", "beta"]


# Each case passed ``validate`` at one time while ``run`` crashed on it,
# ignored it, or rejected it only after building the market.
@pytest.mark.parametrize(
    "scenario, path, value, field",
    [
        ("thm1_constructed", "price.pairs", [[0.0, 5.0], [0.0, 2.0]], "price.expected"),
        ("thm1_constructed", "thm1.tolerance", 0.1, "thm1.tolerance"),
        ("thm1_constructed", "thm1.window", "one", "thm1.window"),
        ("flat_market", "zc.alpha", [0.04, "x"], "zc.alpha"),
        ("novikov_capped", "novikov.cap", "big", "novikov.cap"),
        ("flat_market", "sharpe.x", [1.0, 1.0], "sharpe.x"),
        ("flat_market", "kernel.pairs", [[0.3, 1.0]], "kernel.pairs[0]"),
        ("flat_market", "kernel.pairs", [[0.5, 3.0]], "kernel.pairs[0]"),
        ("thm1_constructed", "thm1.pairs", [[0.1, 1.0]], "thm1.pairs[0]"),
        ("thm1_constructed", "thm1.pairs", [[0.0, 7.0]], "thm1.pairs[0]"),
        # s past the simulated horizon of 10
        ("thm1_constructed", "thm1.pairs", [[8.0, 13.0]], "thm1.pairs[0]"),
        ("thm1_constructed", "price.pairs", [[8.0, 13.0]], "price.pairs[0]"),
        ("novikov_capped", "novikov.mode", "mc", "novikov.expect"),
        ("novikov_capped", "novikov.mode", "quadrature", "novikov.expect"),
        # seeds are 64-bit stream keys: 2**64 would alias seed 0
        ("flat_market", "seed", 1 << 64, "seed"),
        (
            "thm1_constructed",
            "thm1",
            {"pairs": [[0.0, 5.0]], "lambda_source": "simulated", "window": 20.0},
            "thm1.window",
        ),
    ],
)
def test_validate_rejects_what_run_cannot_read(tmp_path, capsys, scenario, path, value, field):
    doc = load_scenario(scenario)
    *parents, key = path.split(".")
    node = doc
    for p in parents:
        node = node[p]
    node[key] = value
    scen = tmp_path / "gap.json"
    scen.write_text(json.dumps(doc))
    assert main(["validate", str(scen)]) == 2
    assert f"{field}: " in capsys.readouterr().out
    assert main(["run", str(scen), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"invalid scenario: {field}: " in err
    assert "Traceback" not in err


# validate reads thm1_residuals' own window rule: a window past the horizon by
# less than its tolerance is taken by both, and one past it by more by neither
@pytest.mark.parametrize("excess, accepted", [(5e-13, True), (1e-11, False)])
def test_validate_and_thm1_residuals_share_one_window_rule(excess, accepted):
    from curvarb.credit import build_thm1_market, thm1_residuals

    doc = load_scenario("thm1_constructed")
    window = doc["grid"]["horizon"] + excess
    doc["thm1"].update(lambda_source="simulated", window=window)
    violations = validate_scenario(doc)
    market = build_thm1_market(0.02, 0.4, horizon=10.0, steps=40, n_paths=2000, seed=7)
    if accepted:
        assert violations == []
        report = thm1_residuals(market, [], lambda_source="simulated", window=window)
        assert report.spread["t"].tolist() == [0.0]
    else:
        assert violations == [{"field": "thm1.window", "message": "must not exceed grid.horizon"}]
        with pytest.raises(ConfigurationError, match="window"):
            thm1_residuals(market, [], lambda_source="simulated", window=window)


# Each case passed ``validate`` at one time, yet ``run`` rejected a
# deterministic piece it builds, or failed on it: a kernel rate of -1000 and
# a government rate of -100 overflow the pricing kernel.
@pytest.mark.parametrize(
    "scenario, changes, field",
    [
        ("flat_market", {"assets.0.rate": -400}, "assets[0].rate"),
        ("flat_market", {"kernel.rate": 1000}, "kernel.rate"),
        ("flat_market", {"kernel.rate": -1000}, "kernel.rate"),
        ("novikov_capped", {"credit.lambda": 50}, "credit.lambda"),
        ("thm1_constructed", {"credit.gov_rate": -1000}, "credit.gov_rate"),
        ("thm1_constructed", {"credit.spread_shift": 400}, "credit.spread_shift"),
        ("thm1_constructed", {"credit.lambda": 1e6, "credit.lgd": 1.0}, "credit.lambda"),
        ("thm1_constructed", {"credit.gov_rate": -100}, "credit.gov_rate"),
        # the lattice's last offset, 1e307 * 20, overflows to inf
        ("thm1_constructed", {"offsets.step": 1e307}, "offsets.step"),
        ("flat_market", {"offsets.step": 1e307, "offsets.count": 21}, "offsets.step"),
    ],
)
def test_validate_builds_what_run_builds(tmp_path, capsys, scenario, changes, field):
    doc = load_scenario(scenario)
    for path, value in changes.items():
        *parents, key = path.split(".")
        node = doc
        for p in parents:
            node = node[int(p)] if p.isdigit() else node[p]
        node[key] = value
    scen = tmp_path / "built.json"
    scen.write_text(json.dumps(doc))
    assert main(["validate", str(scen)]) == 2
    assert capsys.readouterr().out.startswith(f"{field}: ")
    assert main(["run", str(scen), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"invalid scenario: {field}: ")


@pytest.mark.parametrize("name", ["thm1_constructed", "flat_market"])
def test_validate_names_an_overflowing_offset_lattice(name):
    doc = load_scenario(name)
    doc["offsets"] = {"step": 1e307, "count": 21}
    [violation] = validate_scenario(doc)
    assert violation["field"] == "offsets.step"
    assert "overflows" in violation["message"]
    # 1e306 * 20 stays finite
    doc["offsets"]["step"] = 1e306
    assert validate_scenario(doc) == []


def test_zc_overflow_exits_three_without_warnings(tmp_path):
    # |alpha| overflows np.linalg.norm: the residual and its threshold are inf
    doc = load_scenario("flat_market")
    doc["zc"] = {"alpha": [1e300, -1e300], "sigma": [[1.0], [1.0]]}
    doc["analyses"] = ["zc"]
    scen = tmp_path / "zc_overflow.json"
    scen.write_text(json.dumps(doc))
    out = tmp_path / "o"
    proc = subprocess.run(
        [sys.executable, "-m", "curvarb", "run", str(scen), "--out", str(out)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=_child_env(),
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("numerical error: zc residual or threshold is non-finite")
    assert "at t = 0.0" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert os.listdir(out) == []  # a run that raises writes no result file


def test_kernel_overflow_exits_three_without_warnings(tmp_path):
    # a -340 flat rate prices the 2-year offset near 1e295: the bin variances overflow
    doc = load_scenario("flat_market")
    doc["assets"][0]["rate"] = -340
    doc["n_paths"] = 64
    doc["kernel"]["pairs"] = [[0.5, 2.5], [1.0, 3.0]]
    doc["analyses"] = ["kernel"]
    scen = tmp_path / "kernel_overflow.json"
    scen.write_text(json.dumps(doc))
    out = tmp_path / "o"
    proc = subprocess.run(
        [sys.executable, "-m", "curvarb", "run", str(scen), "--out", str(out)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=_child_env(),
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith(
        "numerical error: kernel residual of asset 'alpha' is non-finite for pair (0.5, 2.5)"
    )
    assert "RuntimeWarning" not in proc.stderr
    assert os.listdir(out) == []


def test_asset_overflow_exits_three_without_warnings(tmp_path):
    # a geometric drift of 1000 overflows exp within the 5-year grid
    doc = load_scenario("flat_market")
    doc["assets"][1]["drift"] = 1000.0
    doc["analyses"] = ["curvature"]
    scen = tmp_path / "asset_overflow.json"
    scen.write_text(json.dumps(doc))
    out = tmp_path / "o"
    proc = subprocess.run(
        [sys.executable, "-m", "curvarb", "run", str(scen), "--out", str(out)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=_child_env(),
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("numerical error: simulated paths contains non-finite values")
    assert "RuntimeWarning" not in proc.stderr
    assert os.listdir(out) == []


def _asset_doc(n_paths, n_assets):
    doc = load_scenario("flat_market")
    doc["n_paths"] = n_paths
    doc["grid"] = {"horizon": 5.0, "steps": 50}
    doc["assets"] = [dict(doc["assets"][0], label=f"a{j}") for j in range(n_assets)]
    return doc


def test_asset_gauges_do_not_depend_on_the_block_size(monkeypatch):
    import curvarb.cli as cli

    doc = _asset_doc(1000, 2)
    whole = cli._asset_gauges(doc)
    monkeypatch.setattr(curvarb.paths, "_PATH_BLOCK", 97)  # leaves a remainder block of 30 paths
    blocked = cli._asset_gauges(doc)
    for a, b in zip(whole, blocked):
        assert a.deflator.values.tobytes() == b.deflator.values.tobytes()


def test_asset_gauges_hold_one_block_of_increments():
    import curvarb.cli as cli

    doc = _asset_doc(20_000, 2)
    cli._asset_gauges(_asset_doc(10, 2))  # first-call allocations stay outside the count
    tracemalloc.start()
    try:
        cli._asset_gauges(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    deflator = 20_000 * 51 * 8  # bytes of one (n_paths, n_times) deflator
    # whole-ensemble increments and paths held about one deflator more
    assert peak < 2 * deflator + 0.5 * deflator


def _ranged(moderate, extreme):
    return st.floats(*moderate) | st.floats(*extreme)


@settings(max_examples=50, deadline=None)
@given(
    asset_rate=_ranged((-0.1, 0.1), (-500.0, 500.0)),
    kernel_rate=_ranged((-0.1, 0.1), (-200.0, 200.0)),
    gov_rate=_ranged((-0.1, 0.1), (-500.0, 500.0)),
    spread_shift=_ranged((-0.1, 0.1), (-500.0, 500.0)),
    lam=_ranged((1e-3, 1.0), (1.0, 1e6)),
    lgd=st.floats(0.0, 1.0) | st.just(1.0),
    horizon=st.floats(0.5, 8.0),
)
def test_validate_clean_implies_run_reads_its_inputs(
    tmp_path_factory, asset_rate, kernel_rate, gov_rate, spread_shift, lam, lgd, horizon
):
    """A scenario that validates never makes run exit 2: whatever else fails
    at these extremes is a numerical failure (3) or a failed check (1)."""
    doc = {
        "name": "extremes",
        "grid": {"horizon": horizon, "steps": 4},
        "seed": 5,
        "n_paths": 64,
        "offsets": {"step": 0.25, "count": 9},
        "assets": [{"label": "a", "x0": 1.0, "drift": 0.0, "sigma": 0.2, "rate": asset_rate}],
        "kernel": {"rate": kernel_rate, "pairs": [[0.0, horizon / 4]]},
        "credit": {"lambda": lam, "lgd": lgd, "gov_rate": gov_rate, "spread_shift": spread_shift},
        "thm1": {"pairs": [[0.0, horizon / 4]]},
        "price": {"pairs": [[0.0, horizon / 4]]},
        "novikov": {"k": 4, "mode": "quadrature"},
        # the analyses that build from these fields first, the estimators that
        # may starve at 64 paths last
        "analyses": ["curvature", "kernel", "novikov", "thm1", "bond"],
    }
    if validate_scenario(doc):
        return
    root = tmp_path_factory.mktemp("extremes")
    scen = root / "extremes.json"
    scen.write_text(json.dumps(doc))
    assert main(["run", str(scen), "--out", str(root / "o")]) != 2


def _numeric_leaves(node, path=()):
    """The key paths of the numbers in a scenario document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path] if _is_number(node) else []
    return [leaf for key, value in items for leaf in _numeric_leaves(value, path + (key,))]


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


# sizes are never set free; paths and steps above these caps are drawn anew
_SIZES = ("n_paths", "steps", "count", "k")
_SIZE_CAPS = {"n_paths": 400, "steps": 40}
_FREE_NUMBERS = {
    int: st.integers(-(1 << 64), 1 << 64),
    float: st.floats(allow_nan=False, allow_infinity=False),
}


@st.composite
def _mutated_scenarios(draw):
    """A bundled scenario with small sizes and up to three of its other
    numbers replaced by arbitrary finite ones."""
    doc = load_scenario(draw(st.sampled_from(bundled_scenarios())))
    leaves = _numeric_leaves(doc)
    changes = [
        (leaf, draw(st.integers(2, _SIZE_CAPS[leaf[-1]])))
        for leaf in leaves
        if leaf[-1] in _SIZE_CAPS and _at(doc, leaf) > _SIZE_CAPS[leaf[-1]]
    ]
    free = [leaf for leaf in leaves if leaf[-1] not in _SIZES]
    for leaf in draw(st.lists(st.sampled_from(free), max_size=3, unique=True)):
        changes.append((leaf, draw(_FREE_NUMBERS[type(_at(doc, leaf))])))
    for (*parents, key), value in changes:
        _at(doc, parents)[key] = value
    return doc


def _small(name, changes):
    """A bundled scenario at the strategy's sizes, with the numbers at the
    key paths of changes set."""
    doc = load_scenario(name)
    for leaf in _numeric_leaves(doc):
        if leaf[-1] in _SIZE_CAPS:
            changes = {leaf: min(_at(doc, leaf), _SIZE_CAPS[leaf[-1]]), **changes}
    for (*parents, key), value in changes.items():
        _at(doc, parents)[key] = value
    return doc


# each example warned, or failed internally, before its fix
@example(_small("flat_market", {("sharpe", "drift"): 1e300}))
@example(_small("flat_market", {("sharpe", "x", 0): 1e300}))
@example(_small("flat_market", {("sharpe", "sigma"): 2.7e154}))
@example(
    _small("flat_market", {("sharpe", "horizon"): sys.float_info.max, ("sharpe", "steps"): 3})
)
@example(_small("flat_market", {("assets", 0, "sigma"): 1.79e308}))
@example(_small("thm1_constructed", {("offsets", "step"): 1e307}))
@example(_small("thm1_constructed", {("grid", "horizon"): 5e-324}))
@example(_small("thm1_constructed", {("credit", "lambda"): 1e308}))
@example(_small("thm1_constructed", {("credit", "lambda"): 50.0, ("price", "expected", 0): 1e300}))
@example(_small("novikov_capped", {("novikov", "cap"): 2170.0}))
@example(_small("novikov_capped", {("novikov", "cap"): 1e307}))
@settings(max_examples=300, deadline=None)
@given(_mutated_scenarios())
def test_a_validated_scenario_runs_without_warnings(doc):
    """Neither validate nor run warns, and run never fails internally on a
    scenario that validates: it passes (0), fails a check (1) or reports a
    numerical failure (3)."""
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as root, warnings.catch_warnings():
        warnings.simplefilter("error")
        if validate_scenario(doc):
            return
        scen = os.path.join(root, "mutated.json")
        with open(scen, "w") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stderr(stderr):
            code = main(["run", scen, "--out", os.path.join(root, "out")])
    assert code in (0, 1, 3), stderr.getvalue()
    assert "internal error" not in stderr.getvalue(), stderr.getvalue()


def test_run_builds_each_shared_input_once(tmp_path, monkeypatch):
    import curvarb.credit

    markets = []
    drawn = {}  # stream tag -> path indices drawn on it, in call order

    def counted_market(*args, **kwargs):
        markets.append(1)
        return build_market(*args, **kwargs)

    def counted_rows(grid, rows, dim, seed, tag, out=None):
        drawn.setdefault(tag, []).extend(rows)
        return brownian_rows(grid, rows, dim, seed, tag, out)

    build_market, brownian_rows = curvarb.credit.build_thm1_market, curvarb.paths._brownian_rows
    monkeypatch.setattr(curvarb.credit, "build_thm1_market", counted_market)
    monkeypatch.setattr(curvarb.paths, "_brownian_rows", counted_rows)
    assert main(["run", "thm1_constructed", "--out", str(tmp_path / "thm1")]) == 0
    assert len(markets) == 1  # read by thm1 and bond
    assert main(["run", "flat_market", "--out", str(tmp_path / "flat")]) == 0
    # one driver per asset, read by curvature and kernel: every path of each
    # asset's stream is drawn exactly once
    n_paths = load_scenario("flat_market")["n_paths"]
    assert sorted(drawn) == [TAG_ASSET_BASE, TAG_ASSET_BASE + 1]
    for rows in drawn.values():
        assert sorted(rows) == list(range(n_paths))


def test_summary_is_strict_json_with_nonfinite_values(tmp_path):
    # constant LGD makes the Novikov integral diverge: the quadrature value is inf
    doc = {
        "name": "novikov_constant",
        "grid": {"horizon": 30.0, "steps": 30},
        "seed": 3,
        "n_paths": 2,
        "credit": {"lambda": 0.02, "lgd": 0.4},
        "novikov": {"k": 4, "mode": "quadrature", "lgd_rule": "constant"},
        "analyses": ["novikov"],
    }
    scen = tmp_path / "constant.json"
    scen.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(["run", str(scen), "--out", str(out)]) == 0

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    summary = json.loads((out / "summary.json").read_text(), parse_constant=reject)
    assert summary["analyses"]["novikov"]["quadrature_value"] == "inf"


def test_sharpe_overflow_passes_as_divergence_evidence_without_warnings(tmp_path, capsys):
    # exponent 1250 on every path: the summands overflow float range
    doc = {
        "name": "sharpe_overflow",
        "grid": {"horizon": 1.0, "steps": 4},
        "seed": 1,
        "sharpe": {
            "x0": 1.0, "drift": 1.0, "sigma": 0.02, "x": [1.0], "horizon": 1.0, "n_paths": 40
        },
        "analyses": ["sharpe"],
    }
    scen = tmp_path / "sharpe_overflow.json"
    scen.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(["run", str(scen), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rows = (out / "sharpe.csv").read_text().splitlines()
    assert rows == ["estimate,se,verdict,passed", "inf,inf,divergence_evidence,true"]


def test_readme_scenario_example_validates():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        text = fh.read()
    section = text.split("## Scenarios", 1)[1]
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    assert validate_scenario(json.loads(example)) == []


def test_traffic_tool_reports_the_lines_a_run_misses():
    # coverage known by construction: a valid LGD never reaches _check_lgd's
    # raise, and a flat_market run reaches cmd_run but runs no line of the
    # credit module, which it does not load (the lazy-import test above)
    import inspect

    import traffic
    from curvarb.paths import _check_lgd

    executed = set()
    with traffic._traced(executed):
        _check_lgd(0.5)
    source, first = inspect.getsourcelines(_check_lgd)
    raise_line = first + next(i for i, text in enumerate(source) if "raise " in text)
    assert traffic.report(executed)["paths._check_lgd"][1] == [raise_line]

    executed, codes = traffic.trace(["flat_market"])
    assert codes == {"validate flat_market": 0, "run flat_market": 0}
    report = traffic.report(executed)
    lines, missed = report["cli.cmd_run"]
    assert len(missed) < len(lines)
    credit = [v for key, v in report.items() if key.startswith("credit.")]
    assert credit and all(missed == lines for lines, missed in credit)
