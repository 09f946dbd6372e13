"""End-to-end benchmark of curvarb, with a traced per-layer breakdown.

    python3 benchmark/run.py --workload scenarios --seed 11 --seconds 55 --trace 0
    python3 benchmark/run.py --workload all        # credit, novikov, market, library
    python3 benchmark/run.py --selftest            # generator and checker

One operation runs each generated input of a workload to completion, each
in a fresh interpreter (closed loop, one client, ``--threads 1``); the
``scenarios`` workload has three inputs, the others one.  A run repeats the
operation for about ``--seconds`` (at least twice), checks every
operation's outputs, and reports the median of each metric.  With
``--trace 1`` operations alternate between untraced and traced, and the
run reports the per-layer metrics of the traced ones instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See NOTES.md for
why each workload exists and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = [
    ("run_s", "s"),
    ("setup_s", "s"),
    ("analysis_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
]
TIMES = ("run_s", "setup_s", "analysis_s", "cpu_s")
# reference time of probe(), which sets the unit of the scaled times (NOTES.md)
PROBE_REF_S = 0.18
MIN_OPS = 2
OP_TIMEOUT_S = 150.0
# stop starting operations once one more could end past this point
RUN_LIMIT_S = 150.0
TRACEBACK = "Traceback (most recent call last)"


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def probe() -> float:
    """Seconds a fixed piece of numpy work takes in this process now.

    The host's speed drifts by up to 1.7x over minutes, and every part of
    an operation is bracketed by this probe so its times can be scaled to
    reference seconds (see NOTES.md).  The work mixes per-object Python
    calls into numpy, like ``path_rng``, with passes over an array larger
    than the caches, and runs no curvarb code.
    """
    a = np.random.default_rng(1).standard_normal(2_000_000)
    t0 = time.perf_counter()
    acc = 0.0
    for key in range(8000):
        acc += np.random.Generator(np.random.Philox(key=key)).standard_normal()
    for _ in range(8):
        acc += float(np.cumsum(a * 1.0001)[-1])
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Correctness checks: each returns a list of failure reasons


def _reject_constant(token):
    raise ValueError(f"non-finite number {token} in strict JSON")


def strict_json(path: Path):
    return json.loads(path.read_text(), parse_constant=_reject_constant)


def check_process(code: int, stderr: str) -> list:
    failures = []
    if code not in (0, 1):
        failures.append(f"exit code {code}")
    if TRACEBACK in stderr:
        failures.append("traceback on stderr")
    return failures


def check_cli_outputs(out_dir: Path, doc: dict) -> list:
    failures = [
        f"missing output {name}"
        for name in workloads.expected_files(doc)
        if not (out_dir / name).is_file()
    ]
    if (out_dir / "summary.json").is_file():
        try:
            strict_json(out_dir / "summary.json")
        except ValueError as err:
            failures.append(f"summary.json is not strict JSON: {err}")
    return failures


def check_library_outputs(out_dir: Path) -> list:
    path = out_dir / "session.json"
    if not path.is_file():
        return ["missing output session.json"]
    try:
        result = strict_json(path)
    except ValueError as err:
        return [f"session.json is not strict JSON: {err}"]
    return [f"identity failed: {k}" for k, ok in sorted(result["identities"].items()) if not ok]


def output_digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out_dir)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def analyses_failed(out_dir: Path) -> int:
    summary = strict_json(out_dir / "summary.json")
    return sum(not a["passed"] for a in summary["analyses"].values())


# ---------------------------------------------------------------------------
# Operations


class Part:
    """One generated input of a workload, run in its own interpreter."""

    def __init__(self, name: str, seed: int, smoke: bool, work: Path):
        self.name = name
        self.mode = "library" if name == "library" else "cli"
        self.doc = workloads.generate(name, seed, smoke)
        self.input = work / f"{name}.json"
        self.input.write_bytes(workloads.serialize(self.doc))


class Workload:
    """A generated workload in its own work directory."""

    def __init__(self, name: str, seed: int, smoke: bool = False):
        self.work = WORK_ROOT / f"{name}-{seed}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.parts = [Part(p, seed, smoke, self.work) for p in workloads.PARTS[name]]
        self.env = dict(os.environ)
        self.env.pop("CURVARB_OUTPUT_DIR", None)
        # one BLAS thread, like --threads 1: a second thread competes with
        # whatever else the shared host runs and widens the spread
        self.env.update(
            {
                "PYTHONPATH": str(SRC),
                "CURVARB_BENCH_SRC": str(SRC / "curvarb"),
                "OPENBLAS_NUM_THREADS": "1",
                "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1",
            }
        )
        self.count = 0

    def warm_up(self) -> None:
        """Import once untimed, so byte-compiling and cold file caches stay
        out of the measured operations."""
        probe()
        subprocess.run(
            [sys.executable, "-c", "import curvarb, curvarb.cli"],
            env=self.env,
            cwd=self.work,
            check=True,
            timeout=OP_TIMEOUT_S,
        )

    def run_op(self, traced: bool) -> dict:
        """Run every part once, one after another, with a probe before and
        after each.  A part's times are scaled by PROBE_REF_S over the mean
        of its two probes; times and CPU add up over the parts, peak RSS is
        the largest part's.  ``raw`` keeps the unscaled sums."""
        self.count += 1
        op_dir = self.work / f"op{self.count}"
        probes = [probe()]
        runs = []
        for part in self.parts:
            runs.append(self._run_part(part, op_dir / part.name, traced))
            probes.append(probe())
        shutil.rmtree(op_dir)
        scales = [2 * PROBE_REF_S / (a + b) for a, b in zip(probes, probes[1:])]
        prefix = len(runs) > 1
        op = {
            "traced": traced,
            "failures": [
                f"{part.name}: {f}" if prefix else f
                for part, r in zip(self.parts, runs)
                for f in r["failures"]
            ],
            "digest": hashlib.sha256("".join(r["digest"] for r in runs).encode()).hexdigest(),
        }
        if all("metrics" in r for r in runs):
            op["raw"] = {m: sum(r["metrics"][m] for r in runs) for m in TIMES}
            op["raw"]["probe_s"] = statistics.mean(probes)
            op["metrics"] = {
                m: sum(k * r["metrics"][m] for k, r in zip(scales, runs)) for m in TIMES
            }
            op["metrics"]["peak_rss_mb"] = max(r["metrics"]["peak_rss_mb"] for r in runs)
            if traced and not op["failures"]:
                trace = tracing.merge([r["trace"] for r in runs])
                op["layers"] = tracing.layer_metrics(trace, op["raw"]["analysis_s"])
                for r in runs:
                    for metric, value in r["extras"].items():
                        op["layers"][metric] = op["layers"].get(metric, 0) + value
        return op

    def _run_part(self, part: Part, op_dir: Path, traced: bool) -> dict:
        out_dir = op_dir / "out"
        out_dir.mkdir(parents=True)
        marks_path = op_dir / "marks.json"
        cmd = [sys.executable]
        if traced:
            cmd += ["-X", "importtime"]
        cmd += [
            str(BENCH / "child.py"),
            part.mode,
            str(part.input),
            str(out_dir),
            str(marks_path),
            "1" if traced else "0",
        ]
        with open(op_dir / "stdout", "wb") as so, open(op_dir / "stderr", "wb") as se:
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=so, stderr=se, env=self.env, cwd=op_dir)
            code, usage = _wait(proc)
            t1 = time.monotonic()
        stderr = (op_dir / "stderr").read_text(errors="replace")
        result = {"failures": check_process(code, stderr)}
        if part.mode == "cli":
            result["failures"] += check_cli_outputs(out_dir, part.doc)
        else:
            result["failures"] += check_library_outputs(out_dir)
        result["digest"] = output_digest(out_dir)
        try:
            marks = json.loads(marks_path.read_text())
        except (OSError, ValueError):
            result["failures"].append("no timing marks")
            marks = None
        if marks is not None and "setup_end" in marks:
            result["metrics"] = {
                "run_s": t1 - t0,
                "setup_s": marks["setup_end"] - t0,
                "analysis_s": marks["done"] - marks["setup_end"],
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "peak_rss_mb": usage.ru_maxrss / 1024.0,
            }
            if traced and not result["failures"]:
                result["trace"] = marks["trace"]
                result["extras"] = _extras(part, marks, stderr, out_dir)
        return result

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


def _extras(part: Part, marks: dict, stderr: str, out_dir: Path) -> dict:
    """Per-layer metrics of one traced part that do not come from its spans."""
    extras = tracing.import_times(stderr)
    extras["import.rss_step_mb"] = (marks["rss_import_kib"] - marks["rss_start_kib"]) / 1024.0
    files = [p for p in out_dir.iterdir() if p.is_file()]
    cli = part.mode == "cli"
    extras["cli.files_written"] = len(files) if cli else 0
    extras["cli.bytes_written"] = sum(p.stat().st_size for p in files) if cli else 0
    extras["cli.analyses_failed"] = analyses_failed(out_dir) if cli else 0
    return extras


def _wait(proc: subprocess.Popen):
    """Wait for ``proc`` and return (exit code, its own resource usage)."""
    lock = threading.Lock()
    reaped = False

    def kill():
        # the pid stays ours until wait4 reaps it
        with lock:
            if not reaped:
                os.kill(proc.pid, signal.SIGKILL)

    timer = threading.Timer(OP_TIMEOUT_S, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        with lock:
            reaped = True
    except BaseException:
        # interrupted (SIGTERM, Ctrl-C): leave no child behind
        kill()
        os.waitpid(proc.pid, 0)
        raise
    finally:
        timer.cancel()
        timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Run operations of one workload for ``seconds`` and aggregate them."""
    wl = Workload(name, seed, smoke)
    try:
        wl.warm_up()
        ops: list = []
        reference = None
        start = time.monotonic()
        longest = 0.0
        while len(ops) < MIN_OPS or time.monotonic() - start + longest / 2 < seconds:
            # end at the operation boundary nearest to ``seconds``
            if len(ops) >= MIN_OPS and time.monotonic() - start + longest > RUN_LIMIT_S:
                break
            began = time.monotonic()
            op = wl.run_op(traced=trace and len(ops) % 2 == 1)
            longest = max(longest, time.monotonic() - began)
            if reference is None:
                reference = op["digest"]
            elif op["digest"] != reference:
                op["failures"].append("output bytes differ from the first operation")
            ops.append(op)
    finally:
        wl.close()
    return _aggregate(ops, trace)


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _aggregate(ops: list, trace: bool) -> dict:
    failed = sum(bool(op["failures"]) for op in ops)
    timed = [op for op in ops if "metrics" in op]
    plain = [op for op in timed if not op["traced"]]
    result = {
        "attempted": len(ops),
        "failed": failed,
        "failures": sorted({f for op in ops for f in op["failures"]}),
        "metrics": {},
        "raw": {m: _median([op["raw"][m] for op in plain]) for m in (*TIMES, "probe_s")},
    }
    if not trace:
        for metric, unit in END_TO_END:
            value = _median([op["metrics"][metric] for op in plain])
            if value is not None:
                result["metrics"][metric] = {"value": value, "unit": unit}
        return result
    traced = [op for op in timed if "layers" in op]
    if not traced or not plain:
        return result
    per_layer = {
        metric: _median([op["layers"][metric] for op in traced])
        for metric, _ in tracing.PER_LAYER
        if metric != "trace.overhead_s"
    }
    per_layer["trace.overhead_s"] = per_layer["trace.analysis_s"] - result["raw"]["analysis_s"]
    for metric, unit in tracing.PER_LAYER:
        result["metrics"][metric] = {"value": per_layer[metric], "unit": unit}
    return result


# ---------------------------------------------------------------------------
# Run record


def _git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "curvarb").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(name: str, seed: int, seconds: float, trace: bool) -> dict:
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "sizes": {part: workloads.SIZES[part] for part in workloads.PARTS[name]},
        "nproc": _nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "git_revision": _git_revision(),
        "src_digest": _src_digest(),
    }


def _print_table(name: str, result: dict) -> None:
    for metric, m in result["metrics"].items():
        print(f"{name:9s} {metric:42s} {m['value']:14.6g} {m['unit']}")
    for metric, value in result["raw"].items():
        if value is not None:
            print(f"{name:9s} {'raw.' + metric:42s} {value:14.6g} s")
    fail_frac = result["failed"] / result["attempted"]
    print(f"{name:9s} {'fail_frac':42s} {fail_frac:14.6g} ratio")
    for reason in result["failures"]:
        print(f"{name:9s} failure: {reason}")


def _final_line(result: dict) -> str:
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": result["metrics"],
        }
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*workloads.PARTS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "curvarb" / "__init__.py").is_file():
        print(f"no curvarb sources under {SRC}", file=sys.stderr)
        return 2
    if args.selftest:
        import selftest

        return selftest.main()
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        print("record " + json.dumps(run_record(name, args.seed, args.seconds, bool(args.trace))))
        results[name] = measure(name, args.seed, args.seconds, bool(args.trace))
        _print_table(name, results[name])
    if args.workload == "all":
        print(json.dumps({name: json.loads(_final_line(r)) for name, r in results.items()}))
    else:
        print(_final_line(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
