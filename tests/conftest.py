"""Collects acceptance-marked tests and prints one verdict line per criterion.

Tests tagged @pytest.mark.acceptance(criterion=N, label=...) are grouped by
criterion number; the terminal summary gets a single pass/fail line for each.
An expected failure (xfail) renders as "fail (expected: <note>)" so known
unattainable clauses stay visible instead of silently green.
"""

import pytest  # noqa: F401
from hypothesis import settings

# hermetic: hypothesis keeps no example database (.hypothesis/) in the checkout;
# examples stay randomized and each test keeps its own max_examples
settings.register_profile("hermetic", database=None)
settings.load_profile("hermetic")


def pytest_configure(config):
    config._acceptance_map = {}


def pytest_collection_modifyitems(config, items):
    for item in items:
        marker = item.get_closest_marker("acceptance")
        if marker is not None:
            config._acceptance_map[item.nodeid] = (
                marker.kwargs["criterion"],
                marker.kwargs["label"],
                marker.kwargs.get("note", ""),
            )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mapping = getattr(config, "_acceptance_map", {})
    if not mapping:
        return
    grouped = {}
    for category in ("passed", "failed", "error", "xfailed", "xpassed", "skipped"):
        for rep in terminalreporter.stats.get(category, []):
            info = mapping.get(getattr(rep, "nodeid", None))
            if info is None:
                continue
            crit, label, note = info
            entry = grouped.setdefault(crit, {"label": label, "cats": set(), "notes": set()})
            entry["cats"].add(category)
            if category == "xfailed" and note:
                entry["notes"].add(note)
    if not grouped:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for crit in sorted(grouped):
        entry = grouped[crit]
        cats = entry["cats"]
        if cats & {"failed", "error", "xpassed"}:
            status = "fail"
        elif "xfailed" in cats:
            why = "; ".join(sorted(entry["notes"])) or "documented"
            status = f"fail (expected: {why})"
        elif "skipped" in cats and "passed" not in cats:
            status = "skipped"
        else:
            status = "pass"
        terminalreporter.write_line(f"criterion {crit:02d} {entry['label']}: {status}")
