"""Self-test of the benchmark: generator, scenario validation, checker.

    python3 benchmark/run.py --selftest

1. The same (name, seed) serializes to the same bytes; another seed does not.
2. ``curvarb validate`` accepts every generated CLI scenario, full and smoke.
3. A smoke-size traced run of every workload, ``scenarios`` too, passes
   the correctness check and reports every per-layer metric.
4. The checker catches each kind of failure on doctored outputs.
5. BENCHMARK.json names the workloads and metrics this code reports.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
import tracing
import workloads


def _generator(problems: list) -> None:
    for name in workloads.NAMES:
        a = workloads.serialize(workloads.generate(name, 11))
        b = workloads.serialize(workloads.generate(name, 11))
        c = workloads.serialize(workloads.generate(name, 12))
        if a != b:
            problems.append(f"{name}: same seed gave different inputs")
        if a == c:
            problems.append(f"{name}: different seeds gave the same input")


def _validate(problems: list) -> None:
    for name in workloads.CLI_NAMES:
        for smoke in (False, True):
            wl = run.Workload(name, 11, smoke)
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "curvarb", "validate", str(wl.parts[0].input)],
                    env=wl.env,
                    cwd=wl.work,
                    capture_output=True,
                    text=True,
                    timeout=run.OP_TIMEOUT_S,
                )
            finally:
                wl.close()
            if proc.returncode != 0 or proc.stdout.strip() != "scenario ok":
                problems.append(f"{name} (smoke={smoke}): validate said {proc.stdout!r}")


def _smoke(problems: list) -> None:
    expected = {m for m, _ in tracing.PER_LAYER}
    for name in workloads.PARTS:
        result = run.measure(name, 11, 0.0, trace=True, smoke=True)
        if result["failed"] or result["attempted"] < 2:
            problems.append(f"{name}: smoke run failed: {result['failures']}")
        if set(result["metrics"]) != expected:
            problems.append(f"{name}: per-layer metrics missing from the traced run")


def _checker(problems: list) -> None:
    """Produce one good CLI output and one good library output, then doctor
    copies of them and expect the checker to flag each one."""
    wl = run.Workload("credit", 11, smoke=True)
    lib = run.Workload("library", 11, smoke=True)
    try:
        for w in (wl, lib):
            out = w.work / "good"
            out.mkdir()
            part = w.parts[0]
            cmd = [sys.executable, str(run.BENCH / "child.py"), part.mode, str(part.input)]
            cmd += [str(out), str(w.work / "marks.json"), "0"]
            subprocess.run(
                cmd, env=w.env, cwd=w.work, check=True, timeout=run.OP_TIMEOUT_S,
                stdout=subprocess.DEVNULL,
            )
        good, good_lib = wl.work / "good", lib.work / "good"
        if run.check_cli_outputs(good, wl.parts[0].doc) or run.check_library_outputs(good_lib):
            problems.append("checker flags a good output")
        reference = run.output_digest(good)

        def doctored(src, edit):
            bad = src.parent / "bad"
            shutil.rmtree(bad, ignore_errors=True)
            shutil.copytree(src, bad)
            edit(bad)
            return bad

        def nan_summary(d):
            text = (d / "summary.json").read_text()
            (d / "summary.json").write_text(text.replace('"passed": true', '"passed": NaN', 1))

        def flip_byte(d):
            data = bytearray((d / "bond.csv").read_bytes())
            data[-2] ^= 1
            (d / "bond.csv").write_bytes(bytes(data))

        def broken_identity(d):
            result = json.loads((d / "session.json").read_text())
            result["identities"]["transform_semigroup"] = False
            (d / "session.json").write_text(json.dumps(result))

        cases = {
            "non-strict summary.json": run.check_cli_outputs(
                doctored(good, nan_summary), wl.parts[0].doc
            ),
            "missing output": run.check_cli_outputs(
                doctored(good, lambda d: (d / "thm1_bond.csv").unlink()), wl.parts[0].doc
            ),
            "changed output bytes": [run.output_digest(doctored(good, flip_byte)) != reference],
            "failed identity": run.check_library_outputs(doctored(good_lib, broken_identity)),
            "exit code 3": run.check_process(3, ""),
            "traceback": run.check_process(1, run.TRACEBACK + "\n  File ...\nIndexError\n"),
        }
        for case, flagged in cases.items():
            if not any(flagged):
                problems.append(f"checker missed: {case}")
        if run.check_process(1, "fail") or run.check_process(0, ""):
            problems.append("checker flags exit code 0 or 1 without a traceback")
    finally:
        wl.close()
        lib.close()


def _benchmark_json(problems: list) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(workloads.GATED):
        problems.append("BENCHMARK.json workloads differ from workloads.GATED")
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != run.END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if [(m["name"], m["unit"]) for m in spec["per_layer"]] != tracing.PER_LAYER:
        problems.append("BENCHMARK.json per_layer differs from tracing.PER_LAYER")


def main() -> int:
    problems: list = []
    for step in (_generator, _validate, _smoke, _checker, _benchmark_json):
        step(problems)
        print(f"{step.__name__.strip('_')}: {'ok' if not problems else 'FAILED'}")
        if problems:
            break
    for p in problems:
        print(f"problem: {p}")
    print("selftest ok" if not problems else "selftest FAILED")
    return 1 if problems else 0
