"""Scenario runner: validation messages, exit codes, reproducible outputs."""

import csv
import json
import os
import subprocess
import sys

import pytest

import curvarb
from curvarb.cli import (
    bundled_scenarios,
    load_scenario,
    main,
    validate_scenario,
)
from curvarb.errors import ConfigurationError


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


def test_threads_match_serial(tmp_path):
    a, b = tmp_path / "serial", tmp_path / "threaded"
    assert main(["run", "flat_market", "--out", str(a)]) == 0
    assert main(["run", "flat_market", "--out", str(b), "--threads", "4"]) == 0
    assert _read_tree(a) == _read_tree(b)


def test_threads_match_serial_with_intensity_thresholds(tmp_path):
    a, b = tmp_path / "serial", tmp_path / "threaded"
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


def test_version_and_scenarios_commands(capsys):
    assert main(["version"]) == 0
    assert capsys.readouterr().out.startswith("curvarb ")
    assert main(["scenarios"]) == 0
    assert "flat_market" in capsys.readouterr().out


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


def test_bundled_runs_load_no_scipy_stats_or_integrate(tmp_path):
    """A bundled scenario run needs scipy.special only."""
    probe = (
        "import sys\n"
        "from curvarb.cli import bundled_scenarios, main\n"
        "for name in bundled_scenarios():\n"
        "    main(['run', name, '--out', name])\n"
        "print(sorted(m for m in sys.modules if m.startswith(('scipy.stats', 'scipy.integrate'))))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]", proc.stderr


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


def test_run_builds_each_shared_input_once(tmp_path, monkeypatch):
    import curvarb.cli as cli

    calls = {"build_thm1_market": 0, "simulate_brownian": 0}
    for name in calls:
        original = getattr(cli, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    assert main(["run", "thm1_constructed", "--out", str(tmp_path / "thm1")]) == 0
    assert calls["build_thm1_market"] == 1  # read by thm1 and bond
    assert main(["run", "flat_market", "--out", str(tmp_path / "flat")]) == 0
    assert calls["simulate_brownian"] == 2  # one driver per asset, read by curvature and kernel


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


def test_readme_scenario_example_validates():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        text = fh.read()
    section = text.split("## Scenarios", 1)[1]
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    assert validate_scenario(json.loads(example)) == []
