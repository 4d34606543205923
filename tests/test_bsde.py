import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantschemes.bsde import (DriverSpec, allocate_grid_sizes,
                               bound_constants, solve_bsde)
from quantschemes.chain import (QuantizedChain, TimeMesh, brownian,
                                estimate_companions)
from quantschemes.errors import InputError, NumericError
from quantschemes.grids import Grid


def manual_chain(transitions, companions, layer_points, dt=1.0,
                 marginal0=None, centered=True):
    """Hand-assembled chain for exact-arithmetic tests."""
    n = len(transitions)
    layers = [Grid(np.asarray(p, dtype=float)[:, None])
              for p in layer_points]
    m0 = (np.ones(layers[0].size) / layers[0].size if marginal0 is None
          else np.asarray(marginal0, dtype=float))
    marginals = [m0]
    for k in range(n):
        marginals.append(marginals[-1] @ np.asarray(transitions[k], float))
    return QuantizedChain(
        mesh=TimeMesh(dt * n, n), layers=layers, marginals=marginals,
        transitions=[np.asarray(t, dtype=float) for t in transitions],
        companions=[np.asarray(c, dtype=float) for c in companions],
        mc_paths=1, seed=0, centered=centered)


def random_chain(rng, sizes, q=1, dt=0.5):
    n = len(sizes) - 1
    transitions, companions = [], []
    for k in range(n):
        p = rng.random((sizes[k], sizes[k + 1])) + 0.05
        p /= p.sum(axis=1, keepdims=True)
        c = rng.normal(size=(sizes[k], sizes[k + 1], q)) * 0.1
        c -= c.mean(axis=1, keepdims=True)
        transitions.append(p)
        companions.append(c)
    pts = [np.sort(rng.normal(size=s)) for s in sizes]
    return manual_chain(transitions, companions, pts, dt=dt)


# ---------------------------------------------------------------------------
# backward solver
# ---------------------------------------------------------------------------

def test_zero_driver_hand_example():
    half = [[0.5, 0.5], [0.5, 0.5]]
    zero = np.zeros((2, 2, 1))
    ch = manual_chain([half, half], [zero, zero],
                      [[-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]])
    h_values = {-1.0: 1.0, 1.0: 3.0}
    sol = solve_bsde(ch, DriverSpec(f=lambda t, x, y, z: np.zeros_like(y)),
                     lambda pts: np.array([h_values[v] for v in pts[:, 0]]))
    assert sol.y0 == pytest.approx(2.0, abs=1e-14)
    assert np.allclose(sol.values[0], 2.0)


def test_zero_driver_matrix_oracle_random():
    rng = np.random.default_rng(0)
    for _ in range(20):
        sizes = list(rng.integers(1, 6, size=4))
        ch = random_chain(rng, sizes)
        h = lambda pts: np.cos(pts[:, 0])
        sol = solve_bsde(ch, DriverSpec(f=lambda t, x, y, z: np.zeros_like(y)), h)
        expect = h(ch.layers[-1].points)
        for k in reversed(range(3)):
            expect = ch.transitions[k] @ expect
        assert np.abs(sol.values[0] - expect).max() <= 1e-12 * (
            1.0 + np.abs(expect).max())


def test_terminal_layer_values_and_singleton_reduction():
    rng = np.random.default_rng(5)
    ch = random_chain(rng, [1, 4, 4])
    h = lambda pts: pts[:, 0] ** 2
    sol = solve_bsde(ch, DriverSpec(f=lambda t, x, y, z: y), h)
    assert np.array_equal(sol.values[-1], h(ch.layers[-1].points))
    # singleton initial layer: y0 / z0 are the layer-0 node values
    assert sol.y0 == sol.values[0][0]
    assert np.array_equal(sol.z0, sol.controls[0][0])


def test_solver_driver_shape_and_finite_checks():
    rng = np.random.default_rng(6)
    ch = random_chain(rng, [2, 3, 2])
    with pytest.raises(InputError):
        solve_bsde(ch, DriverSpec(f=lambda t, x, y, z: y[:1]),
                   lambda pts: pts[:, 0])
    with pytest.raises(NumericError) as exc:
        solve_bsde(ch, DriverSpec(f=lambda t, x, y, z: np.full_like(y, np.nan)),
                   lambda pts: pts[:, 0])
    assert "step" in str(exc.value)


def test_solver_warns_on_dead_rows():
    rng = np.random.default_rng(8)
    ch = random_chain(rng, [2, 2, 2])
    ch.dead_rows[0] = np.array([1])
    with pytest.warns(RuntimeWarning):
        solve_bsde(ch, DriverSpec(f=lambda t, x, y, z: np.zeros_like(y)),
                   lambda pts: pts[:, 0])


def test_solver_is_deterministic():
    rng = np.random.default_rng(9)
    ch = random_chain(rng, [2, 5, 5, 3])
    spec = DriverSpec(f=lambda t, x, y, z: np.sin(y) + z[:, 0])
    h = lambda pts: np.tanh(pts[:, 0])
    a = solve_bsde(ch, spec, h)
    b = solve_bsde(ch, spec, h)
    assert all(np.array_equal(x, y) for x, y in zip(a.values, b.values))


# ---------------------------------------------------------------------------
# error-bound constants
# ---------------------------------------------------------------------------

def test_bound_constants_degenerate_case():
    bc = bound_constants(0.0, 0.0, 0.0, 1.0, 1.0, 5, 5, 1)
    assert np.allclose(bc.K, 1.0, atol=1e-15)
    assert bc.kappa0 == 0.0 and bc.kappa1 == 1.0


def test_bound_constants_hand_example():
    bc = bound_constants(0.0, 0.0, 1.0, 0.0, 1.0, 1, 1, 1)
    assert bc.kappa0 == pytest.approx(1.5, abs=1e-15)
    assert bc.kappa1 == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert bc.C2[0] == pytest.approx(4.0 / 9.0, abs=1e-15)
    assert bc.C1[0] == pytest.approx(13.0 / 9.0, abs=1e-15)
    assert bc.K[0] == pytest.approx((4.0 / 9.0) * math.exp(3.0) + 34.0 / 9.0,
                                    abs=1e-9)
    assert bc.K[1] == 0.0


@settings(max_examples=50, deadline=None)
@given(st.floats(0, 3), st.floats(0, 3), st.floats(0, 3), st.floats(0, 3),
       st.floats(0.1, 5), st.integers(1, 20))
def test_bound_constants_properties(lb, ls, lf, lh, T, n):
    bc = bound_constants(lb, ls, lf, lh, T, n, n, 2)
    assert bc.K[n] == lh ** 2
    assert np.all(np.isfinite(bc.K)) and np.all(bc.K >= 0)
    assert np.all(bc.C1 >= 0) and np.all(bc.C2 >= 0)
    assert bc.exp_factor(0, 0) == 1.0


def test_bound_constants_validation():
    with pytest.raises(InputError):
        bound_constants(-1, 0, 0, 0, 1.0, 1, 1, 1)
    with pytest.raises(InputError):
        bound_constants(0, 0, 0, 0, 0.0, 1, 1, 1)
    with pytest.raises(InputError):
        bound_constants(0, 0, 0, 0, 1.0, 0, 1, 1)


# ---------------------------------------------------------------------------
# grid-size allocation
# ---------------------------------------------------------------------------

def test_allocation_examples():
    sizes, factor = allocate_grid_sizes([1.0, 8.0], 10, 1)
    assert sizes == [3, 6]
    assert factor == pytest.approx(1.0 / 3.0)
    sizes, _ = allocate_grid_sizes([2.0, 2.0, 2.0], 10, 2)
    assert sizes == [3, 3, 3]
    sizes, _ = allocate_grid_sizes([5.0], 7, 3)
    assert sizes == [7]


def test_allocation_validation():
    with pytest.raises(InputError):
        allocate_grid_sizes([1.0, 1.0, 1.0], 2, 1)
    with pytest.raises(InputError):
        allocate_grid_sizes([1.0, 0.0], 10, 1)
    with pytest.raises(InputError):
        allocate_grid_sizes([], 10, 1)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0.01, 100), min_size=1, max_size=8),
       st.integers(1, 500), st.integers(1, 4))
def test_allocation_properties(c, total, d):
    if total < len(c):
        total = len(c)
    sizes, factor = allocate_grid_sizes(c, total, d)
    assert all(s >= 1 for s in sizes)
    # floors keep the sum at or below the budget, except that shares below
    # one are lifted to a single point each
    assert sum(sizes) <= total + len(c)
    assert factor >= 0


# ---------------------------------------------------------------------------
# bound sanity on a solvable example (diagnostic inequality)
# ---------------------------------------------------------------------------

def test_bound_dominates_measured_error():
    # scalar Brownian state with known solution y0 = 0.5
    d, T, n = 1, 0.5, 5
    model = brownian(d)
    mesh = TimeMesh(T, n)
    from quantschemes.grids import Law1D, newton_1d
    base = newton_1d(Law1D.gaussian(), 30)
    layers = [Grid(model.x0[None, :])] + [Grid(math.sqrt(t) * base.points)
                                          for t in mesh.times[1:]]
    ch = estimate_companions(model, mesh, layers, 200_000, seed=0)

    def driver(t, x, y, z):
        return z.sum(axis=1) * (y - 1.5)

    def terminal(pts):
        e = np.exp(T + pts.sum(axis=1))
        return e / (1.0 + e)

    sol = solve_bsde(ch, DriverSpec(f=driver), terminal)
    measured_sq = (sol.y0 - 0.5) ** 2
    # conservative local Lipschitz declarations for this bounded regime
    bc = bound_constants(0.0, 1.0, 3.0, 0.25, T, n, n, 1)
    from quantschemes.chain import euler_paths
    from quantschemes.grids import assign
    paths, _ = euler_paths(model, mesh, 200_000, seed=0)
    quant_sq = [assign(layers[k], paths[:, k, :])[1].mean()
                for k in range(n + 1)]
    bound = sum(bc.K[k] * quant_sq[k] for k in range(n + 1))
    assert bound >= measured_sq
