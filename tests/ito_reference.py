"""An independent reference for the Euler and log-Euler Ito schemes.

Step i takes the level (the log level for the geometric form) to
(level + a dt_i) + sum_k sigma[., ., k] dw_i[k], where a is the drift, less
half the squared volatility for the geometric form.  The reference walks the
steps one at a time on whole (rows, dim) arrays, exponentiating the log level
after each step; it uses nothing of curvarb.
"""

import numpy as np


def reference_paths(x0, drift, sigma, form: str, steps, dw) -> np.ndarray:
    """(rows, steps.size + 1, dim) paths of constant coefficients: x0 (dim,),
    drift broadcast to (rows, dim), sigma to (rows, dim, k), increments dw
    shaped (rows, steps.size, k)."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    rows, n_steps, k = dw.shape
    shape = (rows, x0.size)
    a = np.broadcast_to(np.asarray(drift, dtype=float), shape)
    s = np.asarray(sigma, dtype=float)
    s = np.broadcast_to(s if s.ndim else s[None, None, None], (*shape, k))
    if form == "geometric":
        a = a - 0.5 * np.einsum("pnk,pnk->pn", s, s)
    x = np.empty((rows, n_steps + 1, x0.size))
    x[:, 0, :] = x0
    state = x[:, 0, :].copy()
    level = np.log(state) if form == "geometric" else state
    with np.errstate(over="ignore"):
        for i in range(n_steps):
            level = level + a * steps[i] + np.einsum("pnk,pk->pn", s, dw[:, i, :])
            x[:, i + 1, :] = np.exp(level) if form == "geometric" else level
    return x
