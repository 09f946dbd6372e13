"""An independent reference for the equal-count bins of conditional_bin_table.

The states fall into at most N_BINS bins of about MIN_BIN states or more.
The bin edges are np.quantile of the states at equally spaced levels, the
last nudged up one ulp; np.digitize places each state, and each bin's samples
are read in index order through np.nonzero.  A degenerate state (spread
within 1e-12 of the first state's scale) is one bin over all samples.  The
reference uses nothing of curvarb.

assert_columns_equal_rows compares a table of columns with such per-row
dicts bit for bit.
"""

import numpy as np

N_BINS = 10
MIN_BIN = 50


def reference_bins(states: np.ndarray, samples: np.ndarray) -> list:
    """One dict per nonempty bin: lo, hi, count, mean and SE of its samples."""
    n = samples.size
    if states.max() - states.min() <= 1e-12 * (1.0 + abs(states[0])):
        groups = [np.arange(n)]
        edges = [(float(states.min()), float(states.max()))]
    else:
        k = min(N_BINS, max(1, n // MIN_BIN))
        qs = np.quantile(states, np.linspace(0, 1, k + 1))
        qs[-1] = np.nextafter(qs[-1], np.inf)
        which = np.clip(np.digitize(states, qs) - 1, 0, k - 1)
        groups, edges = [], []
        for b in range(k):
            members = np.nonzero(which == b)[0]
            if members.size:
                groups.append(members)
                edges.append((float(qs[b]), float(qs[b + 1])))
    table = []
    for (lo, hi), members in zip(edges, groups):
        d = samples[members]
        se = d.std(ddof=1) / np.sqrt(d.size) if d.size > 1 else 0.0
        table.append(
            {"lo": lo, "hi": hi, "count": int(d.size), "mean": float(d.mean()), "se": float(se)}
        )
    return table


def assert_columns_equal_rows(columns: dict, rows: list) -> None:
    """columns hold the entries of rows, a nonempty list of dicts, bit for
    bit: the rows' names in order, and each column the dtype and bytes of
    np.array of its entries."""
    assert list(columns) == list(rows[0])
    for name, column in columns.items():
        want = np.array([row[name] for row in rows])
        assert column.dtype == want.dtype and column.tobytes() == want.tobytes(), name
