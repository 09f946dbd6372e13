"""An independent reference for the keyed draws of RNG stream version 3.

Each run of STREAM_BLOCK consecutive path indices shares one Philox stream,
keyed by seed << 64 | tag << 48 | block.  Path p reads row p % STREAM_BLOCK
of the row-major fill Generator.<method>((STREAM_BLOCK, *shape)) on its
block's stream.  The reference builds a fresh numpy generator per block and
draws the whole block; it uses nothing of curvarb.
"""

import numpy as np

STREAM_BLOCK = 256


def reference_rows(seed: int, tag: int, paths, shape, method: str) -> np.ndarray:
    """Row i: the row of path paths[i], read from its block's whole fill."""
    paths = [int(p) for p in paths]
    fills = {}
    for block in {p // STREAM_BLOCK for p in paths}:
        gen = np.random.Generator(np.random.Philox(key=seed << 64 | tag << 48 | block))
        fills[block] = getattr(gen, method)((STREAM_BLOCK, *shape))
    rows = [fills[p // STREAM_BLOCK][p % STREAM_BLOCK] for p in paths]
    return np.array(rows, dtype=float).reshape(len(paths), *shape)
