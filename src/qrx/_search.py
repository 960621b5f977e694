"""The three deterministic maximizers behind every optimizer in qrx (numpy
only): `_grid_max` for batches of 1-D searches (the receivers' beta
searches, nhpa's over its whole gain grid, and Dolinar's), its 2-D sibling
`_grid_max2` for batches of box searches (the joint (beta, log g)
refinement of `receivers.nhpa_optimize`), and `_pattern_search`, one
unbounded coordinate search of a scalar function (the (beta, r) refinement
of `receivers.ts_optimize`).
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


def _grid_max2(fun, lo, hi, tol):
    """Maximize a batch of independent 2-D functions, each over its box.

    `lo`, `hi` and `tol` are (x, y) pairs; lo[0], hi[0] bound x and lo[1],
    hi[1] bound y, each broadcast to the batch shape.  `fun(x, y)` takes x
    of shape batch + (_ZOOM, 1) and y of shape batch + (1, _ZOOM) and returns
    the values on their grid, of shape batch + (_ZOOM, _ZOOM).  Every round
    is one call: as in _grid_max, each lane's box shrinks to the neighbours
    of its argmax (the first one in x-major order on ties) and is re-gridded,
    until it is within tol in x and in y; a lane whose box is that small
    stays put while the others go on, so it ends as it would alone.
    Returns (fun at the box centres, their x, their y), of batch shape.
    Non-finite bounds raise ValueError: their boxes would never shrink.

    The rule keeps the maximum in the box only while, over one grid cell of
    either coordinate, the best value of the other moves by less than one of
    its cells.  A narrow tilted ridge breaks this: the box then closes on a
    point of the ridge short of its top (zooming ts's (beta, r) from its grid
    optimum +- one cell lost up to 1.3e-5 in p_succ on 0.05:1.0:40).
    """
    if not all(np.isfinite(b).all() for b in (*lo, *hi)):
        raise ValueError(f"search bounds must be finite, got lo={lo!r}, hi={hi!r}")
    box = np.broadcast_arrays(*(np.asarray(b, dtype=float)[..., None] for b in (*lo, *hi)))
    t = np.linspace(0.0, 1.0, _ZOOM)
    while True:
        ax, ay, bx, by = box
        wx, wy = bx - ax, by - ay
        done = (wx <= tol[0]) & (wy <= tol[1])
        if done.all():
            break
        v = fun((ax + wx * t)[..., :, None], (ay + wy * t)[..., None, :])
        i, j = np.divmod(np.argmax(v.reshape(v.shape[:-2] + (-1,)), axis=-1)[..., None], _ZOOM)
        lo_i, hi_i = t[np.maximum(i - 1, 0)], t[np.minimum(i + 1, _ZOOM - 1)]
        lo_j, hi_j = t[np.maximum(j - 1, 0)], t[np.minimum(j + 1, _ZOOM - 1)]
        zoomed = (ax + wx * lo_i, ay + wy * lo_j, ax + wx * hi_i, ay + wy * hi_j)
        box = [np.where(done, old, new) for old, new in zip(box, zoomed)]
    x, y = 0.5 * (ax + bx), 0.5 * (ay + by)
    return fun(x[..., None], y[..., None])[..., 0, 0][()], x[..., 0][()], y[..., 0][()]


def _pattern_search(fun, x0, step0, step_min):
    """Coordinate pattern search (maximization) of a scalar `fun(*x)` from x0.

    Each sweep tries x_i + step, then x_i - step, for every coordinate i in
    turn, and keeps a trial that gains more than 1e-15; the step halves after
    a sweep without gain, and the search stops once it is <= step_min.  The
    point is a list of Python floats.  Returns (fun at that point, the point).
    """
    x = [float(v) for v in x0]
    fx = fun(*x)
    step = float(step0)
    while step > step_min:
        improved = False
        for i in range(len(x)):
            for move in (step, -step):
                y = x.copy()
                y[i] += move
                fy = fun(*y)
                if fy > fx + 1e-15:
                    x, fx, improved = y, fy, True
        if not improved:
            step *= 0.5
    return fx, x
