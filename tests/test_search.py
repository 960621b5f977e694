import numpy as np
import pytest

from qrx import receivers as rc
from qrx._search import _ZOOM, _grid_max

# ------------------------------------------------------------------ oracles
# The 1-D and the 2-D maximizer that the d-coordinate _grid_max replaced,
# kept as the reference for it.


def grid_max_1d(fun, lo, hi, n_grid=121, tol=1e-12):
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


def grid_max_2d(fun, lo, hi, tol, n_grid=_ZOOM):
    """Maximize a batch of independent 2-D functions, each over its box.

    `lo`, `hi` and `tol` are (x, y) pairs; lo[0], hi[0] bound x and lo[1],
    hi[1] bound y, each broadcast to the batch shape.  `fun(x, y)` takes x
    of shape batch + (k, 1) and y of shape batch + (1, k) and returns the
    values on their grid, of shape batch + (k, k), with k = n_grid in the
    first round and _ZOOM after it.  Every round is one call: as in
    grid_max_1d, each lane's box shrinks to the neighbours of its argmax (the
    first one in x-major order on ties) and is re-gridded, until every box is
    within tol in x and in y (all lanes go on until the last is done).  The
    2-D maximizer that _grid_max replaced froze a lane once its box was that
    small; that gives the same bits only while all lanes end in the same
    round, which the lanes of nhpa's (beta, 1/g) box do not (a box whose
    argmax sits on its edge shrinks twice as fast).
    Returns (fun at the box centres, their x, their y), of batch shape.
    Non-finite bounds raise ValueError: their boxes would never shrink.
    """
    if not all(np.isfinite(b).all() for b in (*lo, *hi)):
        raise ValueError(f"search bounds must be finite, got lo={lo!r}, hi={hi!r}")
    ax, ay, bx, by = np.broadcast_arrays(*(np.asarray(b, dtype=float)[..., None]
                                           for b in (*lo, *hi)))
    t = np.linspace(0.0, 1.0, n_grid)
    while True:
        wx, wy = bx - ax, by - ay
        if ((wx <= tol[0]) & (wy <= tol[1])).all():
            break
        v = fun((ax + wx * t)[..., :, None], (ay + wy * t)[..., None, :])
        i, j = np.divmod(np.argmax(v.reshape(v.shape[:-2] + (-1,)), axis=-1)[..., None], t.size)
        lo_i, hi_i = t[np.maximum(i - 1, 0)], t[np.minimum(i + 1, t.size - 1)]
        lo_j, hi_j = t[np.maximum(j - 1, 0)], t[np.minimum(j + 1, t.size - 1)]
        ax, ay, bx, by = ax + wx * lo_i, ay + wy * lo_j, ax + wx * hi_i, ay + wy * hi_j
        t = np.linspace(0.0, 1.0, _ZOOM)
    x, y = 0.5 * (ax + bx), 0.5 * (ay + by)
    return fun(x[..., None], y[..., None])[..., 0, 0][()], x[..., 0][()], y[..., 0][()]


def oracle_grid_max(fun, lo, hi, tol, n_grid=_ZOOM):
    """_grid_max's signature over the oracles: a 1-D search goes to
    grid_max_1d, a 2-D one to grid_max_2d."""
    if len(lo) == 1:
        return grid_max_1d(fun, lo[0], hi[0], n_grid=n_grid, tol=tol[0])
    assert len(lo) == 2
    return grid_max_2d(fun, lo, hi, tol, n_grid=n_grid)


# ------------------------------------------------------------------- tests


@pytest.mark.parametrize("lo, hi", [(np.nan, 0.0), (-np.inf, 0.0), (0.0, np.inf),
                                    (np.array([-1.0, np.nan]), 0.0), (np.inf, 0.0),
                                    (0.0, np.nan), (0.0, -np.inf), (-1.0, np.array([0.0, np.inf]))])
def test_grid_max_rejects_non_finite_bounds(lo, hi):
    # such a bracket never narrows below tol; the objective stops a regression
    def fun(x):
        calls.append(1)
        assert len(calls) < 100, "_grid_max did not stop"
        return -x * x

    calls = []
    with pytest.raises(ValueError, match="search bounds must be finite"):
        _grid_max(fun, (lo,), (hi,), (1e-12,))
    assert calls == []


@pytest.mark.parametrize("tol", [np.nan, -1e-9, -np.inf, (1e-12, np.nan), (-1.0, 1e-12)])
def test_grid_max_rejects_nan_or_negative_tol(tol):
    # no box reaches such a width (w <= nan is never true); before the check
    # a tol of -1e-9 ran until a timeout killed it
    def fun(x, y):
        calls.append(1)
        assert len(calls) < 100, "_grid_max did not stop"
        return -x * x - y * y

    calls = []
    tol = tol if isinstance(tol, tuple) else (tol, tol)
    with pytest.raises(ValueError, match="search tolerances must be >= 0"):
        _grid_max(fun, (-1.0, -1.0), (1.0, 1.0), tol)
    assert calls == []


def test_grid_max_ends_where_floats_cannot_reach_tol():
    # near beta = -1e4 one float spacing (1.8e-12) exceeds tol = 1e-12, so a
    # box that must be narrower than tol never ends; opt_kennedy hung there
    def fun(x):
        calls.append(1)
        assert len(calls) < 200, "_grid_max did not stop"
        return -np.abs(x + 1e4 + 0.3)

    calls = []
    val, x = _grid_max(fun, (-1e4 - 1.0,), (-1e4 + 1.0,), (1e-12,))
    assert x == pytest.approx(-1e4 - 0.3, abs=4 * np.spacing(1e4)) and val <= 0.0
    assert rc.optimized_kennedy(1e4)[1] == pytest.approx(-1e4, abs=1e-6)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", range(4))
def test_grid_max2_rejects_non_finite_bounds(bad, where):
    # the same over two coordinates, in one lane of two, at every bound
    def fun(x, y):
        calls.append(1)
        assert len(calls) < 100, "_grid_max did not stop"
        return -x * x - y * y

    calls = []
    bounds = [np.array([-1.0, -1.0]), np.array([-1.0, -1.0]), np.ones(2), np.ones(2)]
    bounds[where][1] = bad
    with pytest.raises(ValueError, match="search bounds must be finite"):
        _grid_max(fun, bounds[:2], bounds[2:], (1e-12, 1e-12))
    assert calls == []


def tilted_quadratics(centers, evals):
    """Per-lane concave quadratics in (x, y) with a cross term, maximal at
    `centers` (shape (B, 2)); counts the grids they are called on."""
    cx, cy = (np.asarray(centers, dtype=float)[:, k, None, None] for k in (0, 1))

    def fun(x, y):
        evals.append(x.shape[0])
        dx, dy = x - cx, y - cy
        return -(2.0 * dx * dx + 0.5 * dy * dy + 0.6 * dx * dy)

    return fun


def test_grid_max2_finds_a_tilted_maximum():
    # the boxes are shaped so that, over one cell of y, the cross term moves
    # the best x by less than one cell of x, and the other way round
    rng = np.random.default_rng(5)
    lo = np.array([[-1.0, -3.0], [0.0, 0.0], [-0.5, 1.0], [-2.0, -2.0]])
    hi = lo + np.array([[2.0, 4.0], [0.1, 0.3], [0.2, 0.4], [4.0, 4.0]])
    centers = rng.uniform(lo, hi)
    centers[3] = [3.0, 0.5]  # outside its box in x: the maximum on the box is at x = 2
    evals = []
    vals, xs, ys = _grid_max(tilted_quadratics(centers, evals), lo.T, hi.T, (1e-12, 1e-10))
    assert vals.shape == xs.shape == ys.shape == (4,)
    assert np.allclose(xs[:3], centers[:3, 0], atol=1e-11, rtol=0)
    assert np.allclose(ys[:3], centers[:3, 1], atol=1e-9, rtol=0)
    assert np.all(np.abs(vals[:3]) < 1e-18)
    # on the edge x = 2 the best y is 0.5 + 0.6 (3 - 2) / (2 0.5) = 1.1; the
    # value there is -1.82, whose rounding hides a y error below ~3e-8
    assert xs[3] == pytest.approx(2.0, abs=1e-11) and ys[3] == pytest.approx(1.1, abs=1e-7)
    # one call per round and one at the box centres, each on a 17 x 17 grid
    assert len(evals) < 20


def test_grid_max_lanes_end_in_their_lone_final_box():
    # boxes of different sizes take different numbers of rounds; a lane that
    # is done first zooms on with the others, and so stays in the box it
    # ends in when it runs alone
    rng = np.random.default_rng(8)
    widths = np.array([[1e-6, 1e-4], [1.0, 1.0], [10.0, 50.0], [0.3, 1e-9]])
    lo = rng.uniform(-1.0, 1.0, size=(4, 2))
    hi = lo + widths
    centers = rng.uniform(lo, hi)
    tol = (1e-12, 1e-10)
    _, *batch = _grid_max(tilted_quadratics(centers, []), lo.T, hi.T, tol)
    rounds = []
    for j in range(4):
        fun, grids = tilted_quadratics(centers[j:j + 1], []), []

        def logged(x, y):
            v = fun(x, y)
            grids.append((x[0, :, 0], y[0, 0, :], v[0]))
            return v

        _grid_max(logged, lo[j:j + 1].T, hi[j:j + 1].T, tol)
        xs, ys, v = grids[-2]  # the last round; grids[-1] is the box centre
        i, k = np.unravel_index(np.argmax(v), v.shape)
        for c, pts, m in zip(batch, (xs, ys), (i, k)):
            assert pts[max(m - 1, 0)] <= c[j] <= pts[min(m + 1, _ZOOM - 1)]
        rounds.append(len(grids))
    assert len(set(rounds)) > 1


@pytest.mark.parametrize("n_grid", [2, 5, 121])
def test_grid_max_matches_the_1d_oracle_on_ties_and_edges(n_grid):
    # plateaus tie many grid points, so the first argmax picks the box; a
    # maximum outside [lo, hi] pulls the box to an edge
    lo, hi = np.array([-1.0, 0.0, -3.0, 0.25]), np.array([1.0, 1.0, -2.0, 0.5])

    def fun(x):
        return np.minimum(-np.abs(x - 0.3), -0.1)

    got = _grid_max(fun, (lo,), (hi,), (1e-12,), n_grid=n_grid)
    want = grid_max_1d(fun, lo, hi, n_grid=n_grid, tol=1e-12)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_grid_max_matches_the_oracles_on_the_receivers(monkeypatch):
    # every search of opt_kennedy, dephaser, cavity, nhpa (its one (beta,
    # 1/g) box over all cutoffs n, 41 points per coordinate first), ts (its
    # (beta, r) box, the same first grid) and of the Dolinar batches returns
    # the bits of the oracles
    searches = []

    def both(fun, lo, hi, tol, n_grid=_ZOOM):
        got = _grid_max(fun, lo, hi, tol, n_grid=n_grid)
        want = oracle_grid_max(fun, lo, hi, tol, n_grid=n_grid)
        assert len(got) == len(want) == 1 + len(lo)
        for g, w in zip(got, want):
            assert np.shape(g) == np.shape(w) and np.array_equal(g, w)
        searches.append((len(lo), np.size(got[0]), n_grid))
        return got

    monkeypatch.setattr(rc, "_grid_max", both)
    for alpha in np.linspace(0.01, 1.5, 60):
        for kind in ("opt_kennedy", "nhpa", "dephaser", "cavity", "ts"):
            rc.optimize(kind, float(alpha))
    rc.nhpa_optimize(0.3, n_values=(2,))
    for base in rc.DOLINAR_BASES:
        rc.dolinar_multistep(0.6, 3, base)
    # (coordinates, lanes, first grid) of the searches: ts's box and nhpa's
    # of one and of three cutoffs n, and batched 1-D ones up to the nhpa
    # Dolinar base's 4 posteriors x 28 configurations at its third step
    assert {(2, 1, 41), (2, 3, 41)} <= set(searches)
    assert sum(s == (2, 1, 41) for s in searches) == 61  # ts at 60 alphas, nhpa at 0.3
    assert max(lanes for d, lanes, _ in searches if d == 1) == 4 * 28
