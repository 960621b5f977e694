import numpy as np
import pytest

from qrx._search import _grid_max, _grid_max2, _pattern_search


def quadratic_lanes(centers, weights, coupling):
    """Per-lane concave quadratics in plain elementwise arithmetic, so a
    lane's value does not depend on which other lanes share the call."""
    centers, weights = np.asarray(centers, dtype=float), np.asarray(weights, dtype=float)
    coupling = np.asarray(coupling, dtype=float)
    evals = []

    def fun(y):
        evals.append(y.shape[0])
        d = y - centers
        out = -(weights[:, 0] * d[:, 0] * d[:, 0])
        for i in range(1, y.shape[1]):
            out = out - weights[:, i] * d[:, i] * d[:, i]
        return out + coupling * d[:, 0] * d[:, -1]

    return fun, evals


def one_lane_runs(centers, weights, coupling, x0, lower, upper, **kw):
    out = []
    for j in range(len(x0)):
        fun, evals = quadratic_lanes(centers[j:j + 1], weights[j:j + 1], coupling[j:j + 1])
        val, x = _pattern_search(fun, x0[j:j + 1], lower, upper, **kw)
        out.append((val[0], x[0].tolist(), len(evals)))
    return out


@pytest.mark.parametrize("bounded", [True, False])
def test_lanes_run_as_separate_searches(bounded):
    rng = np.random.default_rng(3)
    n_lanes, n = 9, 3
    centers = rng.uniform(-1.5, 1.5, size=(n_lanes, n))
    weights = rng.uniform(0.05, 4.0, size=(n_lanes, n))
    coupling = rng.uniform(-0.1, 0.1, size=n_lanes)
    x0 = rng.uniform(-0.9, 0.9, size=(n_lanes, n))
    if bounded:
        lower, upper = np.array([-1.0, -np.inf, 0.0]), np.array([1.0, 0.5, np.inf])
    else:
        lower, upper = np.full(n, -np.inf), np.full(n, np.inf)
    x0 = np.clip(x0, lower, upper)
    kw = dict(step0=0.2, step_min=1e-8)

    fun, evals = quadratic_lanes(centers, weights, coupling)
    vals, xs = _pattern_search(fun, x0, lower, upper, **kw)
    alone = one_lane_runs(centers, weights, coupling, x0, lower, upper, **kw)

    assert vals.shape == (n_lanes,) and xs.shape == (n_lanes, n)
    for j, (val, x, _) in enumerate(alone):
        assert (vals[j], xs[j].tolist()) == (val, x)
    # the lanes stop after different numbers of sweeps, and the batch runs
    # until the last one stops
    counts = [count for *_, count in alone]
    assert len(set(counts)) > 1
    assert len(evals) == max(counts)
    if bounded:
        # some lanes end clipped at a box edge, exactly on it
        on_edge = np.isin(xs, np.concatenate([lower, upper]))
        assert on_edge.any() and np.all((xs >= lower) & (xs <= upper))
    else:
        assert np.allclose(xs, centers, atol=1e-5)


def test_stopped_lane_keeps_its_point():
    # lane 0 stops at x = 0.25 after three sweeps, where a trial at its next
    # step (0.125) would still gain; lane 1 walks on to 3 for five more
    # sweeps, and lane 0 must not move meanwhile
    centers, weights, coupling = np.array([[0.15], [3.0]]), np.ones((2, 1)), np.zeros(2)
    x0, lower, upper = np.zeros((2, 1)), [-np.inf], [np.inf]
    kw = dict(step0=0.5, step_min=0.2)
    fun, evals = quadratic_lanes(centers, weights, coupling)
    vals, xs = _pattern_search(fun, x0, lower, upper, **kw)
    alone = one_lane_runs(centers, weights, coupling, x0, lower, upper, **kw)
    assert [(val, x) for val, x, _ in alone] == list(zip(vals, xs.tolist()))
    assert xs.tolist() == [[0.25], [3.0]]
    assert [count for *_, count in alone] == [7, 17] and len(evals) == 17


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
