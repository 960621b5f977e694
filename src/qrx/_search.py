"""The two deterministic maximizers behind every optimizer in qrx (numpy
only): `_grid_max` for batches of box searches (the receivers' beta
searches and nhpa's (beta, 1/g) box on [-2, 0] x [0, 1]), and
`_pattern_search`, one unbounded coordinate search of a scalar function (the
(beta, r) refinement of `receivers.ts_optimize`).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

#: points per coordinate when _grid_max re-grids around an argmax
_ZOOM = 17


@lru_cache(maxsize=16)
def _grid(n: int, d: int) -> tuple:
    """(n points on [0, 1] on each of d trailing axes; the lower and upper
    neighbours of every grid point, of shape (d, n**d), in C order)."""
    t = np.linspace(0.0, 1.0, n)
    k = np.indices((n,) * d).reshape(d, -1)
    axes = tuple(t.reshape((n,) + (1,) * (d - 1 - j)) for j in range(d))
    return axes, t[np.maximum(k - 1, 0)], t[np.minimum(k + 1, n - 1)]


def _grid_max(fun, lo, hi, tol, n_grid=_ZOOM):
    """Maximize a batch of independent functions of d coordinates on boxes.

    `lo`, `hi` and `tol` hold one entry per coordinate, each broadcast to
    the batch shape.  `fun(*xs)` gets coordinate k on the k-th of d trailing
    grid axes and returns the values on their grid, of shape batch + grid.
    The first grid has n_grid points per coordinate.  Then every box shrinks
    to the neighbours of its argmax (the first one in C order on ties) and is
    re-gridded with _ZOOM points, one call per round for the whole batch,
    until every box is within tol in every coordinate (all lanes go on until
    the last is done).  Returns (fun at the box centres, *the centres), of
    batch shape.  Non-finite bounds, whose boxes never shrink, and nan or
    negative tolerances, which no box reaches, raise ValueError.

    The rule keeps the maximum in the box only while, over one grid cell of
    any coordinate, the best value of another moves by less than one of its
    cells.  A narrow tilted ridge breaks this: the box then closes on a point
    of the ridge short of its top (zooming ts's (beta, r) from its grid
    optimum +- one cell lost up to 1.3e-5 in p_succ on 0.05:1.0:40).
    """
    d = len(lo)
    box = np.array(np.broadcast_arrays(*lo, *hi, *tol), dtype=float)
    if not np.isfinite(box[:2 * d]).all():
        raise ValueError(f"search bounds must be finite, got lo={lo!r}, hi={hi!r}")
    if not (box[2 * d:] >= 0).all():
        raise ValueError(f"search tolerances must be >= 0, got tol={tol!r}")
    pad = (...,) + (None,) * d
    a, b, tol = box.reshape((3, d) + box.shape[1:])[pad]
    w = b - a
    (ts, lo_t, hi_t), zoom = _grid(n_grid, d), _grid(_ZOOM, d)
    while True:
        v = fun(*[a[k] + w[k] * ts[k] for k in range(d)])
        i = np.argmax(v.reshape(v.shape[:-d] + (-1,)), axis=-1)[pad]
        a, b = a + w * lo_t[:, i], a + w * hi_t[:, i]
        w = b - a
        if (w <= tol).all():
            break
        ts, lo_t, hi_t = zoom
    x = 0.5 * (a + b)
    first = (...,) + (0,) * d
    return (fun(*x)[first][()], *(xk[first][()] for xk in x))


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
