"""The two deterministic maximizers behind every optimizer in qrx (numpy only):
`_grid_max` for batches of 1-D searches (the receivers' beta, gain and
Dolinar searches), `_pattern_search` for a few coordinates at once
(`receivers.ts_optimize`, `qubit_disc.f_optimize`).
"""

from __future__ import annotations

import numpy as np

#: points per bracket when _grid_max re-grids around an argmax
_ZOOM = 17


def _grid_max(fun, lo, hi, n_grid=121, tol=1e-12):
    """Maximize a batch of independent 1-D functions, each over its [lo, hi].

    `fun` maps points of shape batch + (k,) to values of the same shape;
    `lo` and `hi` broadcast to the batch shape.  The coarse grid of n_grid
    points is one call.  Then the bracket between the neighbours of each
    argmax (the first one on ties) is re-gridded with _ZOOM points, one call
    per round for the whole batch, until every bracket is narrower than tol.
    Returns (fun at the bracket midpoints, the midpoints), of batch shape.
    """
    a = np.asarray(lo, dtype=float)[..., None]
    width = np.asarray(hi, dtype=float)[..., None] - a
    t, zoom = np.linspace(0.0, 1.0, n_grid), np.linspace(0.0, 1.0, _ZOOM)
    while True:
        i = np.argmax(fun(a + width * t), axis=-1)[..., None]
        a, b = a + width * t[np.maximum(i - 1, 0)], a + width * t[np.minimum(i + 1, t.size - 1)]
        width = b - a
        if np.all(width <= tol):
            break
        t = zoom
    x = 0.5 * (a + b)
    return fun(x)[..., 0][()], x[..., 0][()]


def _pattern_search(fun, x0, lower, upper, step0=0.05, step_min=1e-9):
    """Coordinate pattern search (maximization) from x0: each sweep tries
    x_i + step, then x_i - step, for every i, clipped to [lower, upper], and
    keeps a trial that gains more than 1e-15; the step halves after a sweep
    without gain until it is <= step_min.  Returns (value, point)."""
    x = np.array(x0, dtype=float)
    fx = fun(x)
    step = step0
    while step > step_min:
        improved = False
        for i in range(x.size):
            for sgn in (1.0, -1.0):
                y = x.copy()
                y[i] = np.clip(y[i] + sgn * step, lower[i], upper[i])
                fy = fun(y)
                if fy > fx + 1e-15:
                    x, fx = y, fy
                    improved = True
        if not improved:
            step *= 0.5
    return fx, x
