"""Line traffic of curvarb's own runs: which function body lines no run executes.

Runs ``curvarb validate`` and ``curvarb run`` on the bundled scenarios (or
the ones named) under a stdlib ``sys.settrace`` line tracer restricted to
``src/curvarb``.  With ``--benchmark`` it also runs the benchmark's
``credit``, ``novikov`` and ``market`` inputs and its ``library`` session at
seeds 5, 11 and 23, generated by ``benchmark/workloads.py`` and
``benchmark/session.py``, which it imports and does not change.  Every
output goes into a temporary directory.

It then prints each ``src/curvarb`` function, as ``module.qualname``, with
the body lines that no run executed.  A function whose every body line was
missed is marked "never called".  Lambdas, comprehensions and generator
expressions count as lines of the function that holds them.

    PYTHONPATH=src python tests/traffic.py [--benchmark] [scenario ...]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "curvarb"
SEEDS = (5, 11, 23)
CLI_INPUTS = ("credit", "novikov", "market")


def _tracer(executed: set):
    """A settrace function that adds (real path, line) to executed for every
    line run in a frame of a src/curvarb file."""
    package, paths = str(PACKAGE) + os.sep, {}  # co_filename -> real path or None

    def global_(frame, _event, _arg):
        name = frame.f_code.co_filename
        if name not in paths:
            real = os.path.realpath(name)
            paths[name] = real if real.startswith(package) else None
        path = paths[name]
        if path is None:
            return None  # only curvarb's own frames get a line tracer

        def local(frame, event, _arg):
            if event == "line":
                executed.add((path, frame.f_lineno))
            return local

        return local

    return global_


@contextlib.contextmanager
def _traced(executed: set):
    before = sys.gettrace(), threading.gettrace()
    tracer = _tracer(executed)
    sys.settrace(tracer)
    threading.settrace(tracer)
    try:
        yield
    finally:
        sys.settrace(before[0])
        threading.settrace(before[1])


def _cli(args: list) -> int:
    from curvarb.cli import main

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(args)


def trace(scenarios=None, benchmark: bool = False) -> tuple[set, dict]:
    """Run the scenarios (all bundled ones by default) and, with benchmark,
    the benchmark's inputs; return the executed (file, line) pairs and the
    exit code of each CLI command."""
    from curvarb.cli import bundled_scenarios

    executed, codes = set(), {}
    with tempfile.TemporaryDirectory() as tmp, _traced(executed):
        for name in scenarios or bundled_scenarios():
            codes[f"validate {name}"] = _cli(["validate", name])
            codes[f"run {name}"] = _cli(["run", name, "--out", os.path.join(tmp, name)])
        if benchmark:
            sys.path.insert(0, str(ROOT / "benchmark"))
            import session
            import workloads

            for seed in SEEDS:
                for name in CLI_INPUTS:
                    path = os.path.join(tmp, f"{name}_{seed}.json")
                    with open(path, "wb") as fh:
                        fh.write(workloads.serialize(workloads.generate(name, seed)))
                    codes[f"validate {name} {seed}"] = _cli(["validate", path])
                    out = os.path.join(tmp, f"{name}_{seed}")
                    codes[f"run {name} {seed}"] = _cli(["run", path, "--out", out])
                out = os.path.join(tmp, f"library_{seed}")
                os.makedirs(out)
                session.run(workloads.generate("library", seed), out)
    return executed, codes


def _functions(code, module: str, out: dict, prefix: str = "", owner: str | None = None) -> None:
    """Map module.qualname -> the body lines of every function in code;
    lambdas and comprehensions fold into the function that holds them.
    prefix is the qualname of code's scope, with a trailing dot."""
    for const in code.co_consts:
        if not isinstance(const, types.CodeType):
            continue
        nested = const.co_name.startswith("<")
        is_function = bool(const.co_flags & 0x2)  # CO_NEWLOCALS: not a class body
        qualname = prefix + const.co_name
        key = owner if nested and owner else f"{module}.{qualname}"
        if is_function:
            lines = {line for _, _, line in const.co_lines() if line is not None}
            lines.discard(const.co_firstlineno)  # the def line runs with its scope
            out.setdefault(key, set()).update(lines)
        inner = qualname + (".<locals>." if is_function else ".")
        _functions(const, module, out, inner, key if is_function else None)


def report(executed: set) -> dict:
    """module.qualname -> (body lines, lines no run executed), sorted."""
    result = {}
    for path in sorted(PACKAGE.glob("*.py")):
        functions, real = {}, os.path.realpath(path)
        _functions(compile(path.read_text(), real, "exec"), path.stem, functions)
        for key, lines in functions.items():
            missed = sorted(line for line in lines if (real, line) not in executed)
            result[key] = (sorted(lines), missed)
    return result


def _ranges(lines: list) -> str:
    spans, start = [], None
    for i, line in enumerate(lines):
        start = line if start is None else start
        if i + 1 == len(lines) or lines[i + 1] != line + 1:
            spans.append(str(start) if start == line else f"{start}-{line}")
            start = None
    return ", ".join(spans)


def main(argv=None) -> int:
    sys.path.insert(0, str(PACKAGE.parent))  # trace this checkout's curvarb
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("scenarios", nargs="*", help="bundled scenarios (default: all)")
    parser.add_argument("--benchmark", action="store_true", help="also the benchmark inputs")
    args = parser.parse_args(argv)
    executed, codes = trace(args.scenarios, args.benchmark)
    print("exit codes: " + json.dumps(codes))
    gaps = {key: v for key, v in report(executed).items() if v[1]}
    for key, (lines, missed) in gaps.items():
        detail = "never called" if len(missed) == len(lines) else _ranges(missed)
        print(f"{key}: {detail}")
    never = sum(len(m) == len(lines) for lines, m in gaps.values())
    print(f"{len(gaps)} functions with unexecuted lines, {never} of them never called")
    return 0


if __name__ == "__main__":
    sys.exit(main())
