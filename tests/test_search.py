import numpy as np
import pytest

from qrx._search import _grid_max, _pattern_search


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
