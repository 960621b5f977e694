"""The deterministic maximizer behind every optimizer in qrx (numpy only):
`_grid_max` runs batches of box searches of any dimension (the receivers'
beta searches, nhpa's (beta, 1/g) box on [-2, 0] x [0, 1] and ts's (beta, r)
box on [-2, 0] x [-1, 1]).
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
    until every box is within tol, or within 4 float spacings of its ends, in
    every coordinate (all lanes go on until the last is done).  The second
    rule ends a box that floats cannot make narrower than tol, such as one
    near beta = -1e4 at tol 1e-12.  Returns (fun at the box centres, *the
    centres), of batch shape.  Non-finite bounds, whose boxes never shrink, and nan or
    negative tolerances, which no box reaches, raise ValueError.

    The rule keeps the maximum in the box only while, over one grid cell of
    any coordinate, the best value of another moves by less than one of its
    cells; a tilted ridge narrower than a cell breaks it.  On ts's (beta, r)
    ridge, from a 41-point first grid, a pattern search from the result gains
    at most 3.3e-16 (0.05:1.0:40 at n = 2, 3; 0:1.5:61 and 1.5:3:31 at n = 2).
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
        # within tol, or within 4 float spacings of the box's larger end
        if (w <= np.maximum(tol, 4.0 * np.spacing(np.maximum(abs(a), abs(b))))).all():
            break
        ts, lo_t, hi_t = zoom
    x = 0.5 * (a + b)
    first = (...,) + (0,) * d
    return (fun(*x)[first][()], *(xk[first][()] for xk in x))
