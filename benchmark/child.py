"""One operation in a fresh interpreter.

    python3 child.py <cli|library> <input.json> <out_dir> <marks.json> <trace 0|1>

``cli`` runs ``curvarb run <input> --out <out_dir> --threads 1`` through
``curvarb.cli.main``; ``library`` runs ``session.py`` on the parameters.
The child records on the system-wide monotonic clock when setup ended (the
scenario is loaded and validated, or for ``library`` curvarb is imported)
and when all outputs were written, and writes these marks, with the spans
of a traced run, to <marks.json>.  The exit code is the program's.
"""

import os
import resource
import sys
import time


def _maxrss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    mode, input_path, out_dir, marks_path, traced = sys.argv[1:6]
    marks = {"rss_start_kib": _maxrss_kib()}
    import curvarb

    if mode == "library":
        marks["setup_end"] = time.monotonic()
    else:
        import curvarb.cli as cli
    marks["rss_import_kib"] = _maxrss_kib()
    src = os.environ["CURVARB_BENCH_SRC"]
    if not os.path.abspath(curvarb.__file__).startswith(src + os.sep):
        print(f"curvarb imported from {curvarb.__file__}, not {src}", file=sys.stderr)
        return 90
    tracer = None
    if traced == "1":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    import json

    if mode == "library":
        import session

        with open(input_path) as fh:
            params = json.load(fh)
        session.run(params, out_dir)
        code = 0
    else:
        validate = cli.validate_scenario

        def validate_and_mark(doc):
            result = validate(doc)
            marks.setdefault("setup_end", time.monotonic())
            return result

        cli.validate_scenario = validate_and_mark
        code = cli.main(["run", input_path, "--out", out_dir, "--threads", "1"])
    marks["done"] = time.monotonic()
    if tracer is not None:
        marks["trace"] = tracer.dump()
    with open(marks_path, "w") as fh:
        json.dump(marks, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
