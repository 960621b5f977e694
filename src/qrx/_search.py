"""The two deterministic maximizers behind every optimizer in qrx (numpy only):
`_grid_max` for batches of 1-D searches (the receivers' beta, gain and
Dolinar searches), `_pattern_search` for batches of searches over a few
coordinates at once (`receivers.ts_optimize`, with one lane).
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
    Non-finite bounds raise ValueError: their brackets would never narrow.
    """
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError(f"search bounds must be finite, got lo={lo!r}, hi={hi!r}")
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
    """A batch of coordinate pattern searches (maximization) run in lock-step.

    `x0` has shape (B, n), one start per lane, and `fun` maps points of
    shape (B, n) to values of shape (B,), lane by lane.  In each sweep every
    lane tries x_i + step, then x_i - step, for every i, clipped to [lower,
    upper] (shape (n,)), and keeps a trial that gains more than 1e-15; a
    lane's step halves after a sweep without gain, and the lane stops once
    its step is <= step_min.  So each lane follows the trials a search of
    its own would make, and a stopped lane's point no longer moves.
    Returns (values of shape (B,), points of shape (B, n)).
    """
    x = np.array(x0, dtype=float)
    fx = np.array(fun(x), dtype=float)
    step = np.full(fx.shape, float(step0))
    active = step > step_min
    # a trial gains when it beats floor = fx + 1e-15; stopped lanes never do
    floor = np.where(active, fx + 1e-15, np.inf)
    lower, upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
    bounded = (np.isfinite(lower) | np.isfinite(upper)).tolist()
    while active.any():
        improved = np.zeros_like(active)
        for i in range(x.shape[1]):
            for move in (step, -step):
                y = x.copy()
                y[:, i] += move
                if bounded[i]:  # clip is the identity on an unbounded coordinate
                    y[:, i] = y[:, i].clip(lower[i], upper[i])
                fy = fun(y)
                gain = fy > floor
                if np.count_nonzero(gain):
                    np.copyto(x, y, where=gain[:, None])
                    np.copyto(fx, fy, where=gain)
                    np.copyto(floor, fy + 1e-15, where=gain)
                    improved |= gain
        step[active & ~improved] *= 0.5
        active = step > step_min
        floor[~active] = np.inf
    return fx, x
