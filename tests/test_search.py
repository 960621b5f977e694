import numpy as np
import pytest

from qrx._search import _grid_max, _grid_max2, _pattern_search


def counted_quadratic(center, weights, coupling=0.0):
    """A concave quadratic of scalar arguments, maximal at `center`, with a
    coupling between the first and the last coordinate; counts its calls."""
    evals = []

    def fun(*x):
        evals.append(x)
        d = [xi - ci for xi, ci in zip(x, center)]
        return -sum(w * di * di for w, di in zip(weights, d)) + coupling * d[0] * d[-1]

    return fun, evals


@pytest.mark.parametrize("center, end, calls", [(0.15, 0.25, 7), (3.0, 3.0, 17)])
def test_pattern_search_trial_sequence(center, end, calls):
    # from 0 with steps 0.5 down to 0.2: at 0.15 the search stops at 0.25
    # after three sweeps, where a trial at its next step (0.125) would still
    # gain; at 3.0 it walks there in steps of 0.5 and stops after eight
    fun, evals = counted_quadratic([center], [1.0])
    val, x = _pattern_search(fun, [0.0], step0=0.5, step_min=0.2)
    assert len(evals) == calls and x == [end] and type(x[0]) is float
    assert val == -(end - center) ** 2


def test_pattern_search_finds_a_tilted_maximum():
    # unbounded, in 3-D, with a cross term between the first and last axes
    center = [1.3, -0.7, 2.4]
    fun, _ = counted_quadratic(center, [2.0, 0.5, 1.0], coupling=0.4)
    val, x = _pattern_search(fun, [0.0, 0.0, 0.0], step0=0.2, step_min=1e-8)
    assert np.allclose(x, center, atol=1e-5, rtol=0)
    assert val == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("lo, hi", [(np.nan, 0.0), (-np.inf, 0.0), (0.0, np.inf),
                                    (np.array([-1.0, np.nan]), 0.0)])
def test_grid_max_rejects_non_finite_bounds(lo, hi):
    # such a bracket never narrows below tol; the objective stops a regression
    def fun(x):
        calls.append(1)
        assert len(calls) < 100, "_grid_max did not stop"
        return -x * x

    calls = []
    with pytest.raises(ValueError, match="search bounds must be finite"):
        _grid_max(fun, lo, hi)
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
    vals, xs, ys = _grid_max2(tilted_quadratics(centers, evals), lo.T, hi.T, tol=(1e-12, 1e-10))
    assert vals.shape == xs.shape == ys.shape == (4,)
    assert np.allclose(xs[:3], centers[:3, 0], atol=1e-11, rtol=0)
    assert np.allclose(ys[:3], centers[:3, 1], atol=1e-9, rtol=0)
    assert np.all(np.abs(vals[:3]) < 1e-18)
    # on the edge x = 2 the best y is 0.5 + 0.6 (3 - 2) / (2 0.5) = 1.1; the
    # value there is -1.82, whose rounding hides a y error below ~3e-8
    assert xs[3] == pytest.approx(2.0, abs=1e-11) and ys[3] == pytest.approx(1.1, abs=1e-7)
    # one call per round and one at the box centres, each on a 17 x 17 grid
    assert len(evals) < 20


def test_grid_max2_lanes_run_as_separate_searches():
    # boxes of different sizes take different numbers of rounds; a lane that
    # is done first must end where it would alone
    rng = np.random.default_rng(8)
    widths = np.array([[1e-6, 1e-4], [1.0, 1.0], [10.0, 50.0], [0.3, 1e-9]])
    lo = rng.uniform(-1.0, 1.0, size=(4, 2))
    hi = lo + widths
    centers = rng.uniform(lo, hi)
    kw = dict(tol=(1e-12, 1e-10))
    batch = _grid_max2(tilted_quadratics(centers, []), lo.T, hi.T, **kw)
    rounds = []
    for j in range(4):
        evals = []
        alone = _grid_max2(tilted_quadratics(centers[j:j + 1], evals), lo[j:j + 1].T,
                           hi[j:j + 1].T, **kw)
        assert [float(v[0]) for v in alone] == [float(v[j]) for v in batch]
        rounds.append(len(evals))
    assert len(set(rounds)) > 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", range(4))
def test_grid_max2_rejects_non_finite_bounds(bad, where):
    def fun(x, y):
        calls.append(1)
        assert len(calls) < 100, "_grid_max2 did not stop"
        return -x * x - y * y

    calls = []
    bounds = [np.array([-1.0, -1.0]), np.array([-1.0, -1.0]), np.ones(2), np.ones(2)]
    bounds[where][1] = bad
    with pytest.raises(ValueError, match="search bounds must be finite"):
        _grid_max2(fun, bounds[:2], bounds[2:], tol=(1e-12, 1e-12))
    assert calls == []
