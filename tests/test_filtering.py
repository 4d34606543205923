import itertools
import math
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantschemes import filtering
from quantschemes.errors import DegenerateObservationError, InputError
from quantschemes.filtering import (FilterModel, backward_expectation,
                                    backward_value, builtin_models,
                                    forward_filter, kalman_posterior,
                                    quantized_kernels,
                                    unnormalized_expectation)
from quantschemes.grids import Grid


def make_model(rng, sizes, likelihood=None):
    layers = [Grid(np.sort(rng.normal(size=s))[:, None]) for s in sizes]
    initial = rng.random(sizes[0]) + 0.1
    initial /= initial.sum()
    transitions = []
    for k in range(len(sizes) - 1):
        p = rng.random((sizes[k], sizes[k + 1])) + 0.05
        p /= p.sum(axis=1, keepdims=True)
        transitions.append(p)
    if likelihood is None:
        likelihood = lambda k, xp, yp, xn, yn: np.exp(
            -0.5 * (yn[0] - xn[..., 0]) ** 2)
    return FilterModel(layers=layers, initial=initial,
                       transitions=transitions, likelihood=likelihood)


def obs(n):
    return np.linspace(0.0, 1.0, n + 1)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def test_kernels_constant_likelihood_scales_transition():
    rng = np.random.default_rng(0)
    model = make_model(rng, [3, 4, 2],
                       likelihood=lambda k, xp, yp, xn, yn: 2.5)
    kernels = quantized_kernels(model, obs(2))
    for H, p in zip(kernels, model.transitions):
        assert np.allclose(H, 2.5 * p, atol=1e-15)


def test_kernels_hand_example_identity():
    model = FilterModel(
        layers=[Grid(np.array([[-1.0], [1.0]])), Grid(np.array([[-1.0], [1.0]]))],
        initial=np.array([0.5, 0.5]),
        transitions=[np.array([[0.5, 0.5], [0.5, 0.5]])],
        likelihood=lambda k, xp, yp, xn, yn: np.where(
            xp[..., 0] == xn[..., 0], 2.0, 0.0))
    (H,) = quantized_kernels(model, obs(1))
    assert np.array_equal(H, np.eye(2))


def test_kernels_reject_negative_or_nonfinite():
    rng = np.random.default_rng(1)
    model = make_model(rng, [2, 2],
                       likelihood=lambda k, xp, yp, xn, yn: -1.0)
    with pytest.raises(InputError):
        quantized_kernels(model, obs(1))
    model = make_model(rng, [2, 2],
                       likelihood=lambda k, xp, yp, xn, yn: np.inf)
    with pytest.raises(InputError):
        quantized_kernels(model, obs(1))


def test_likelihood_that_does_not_broadcast_is_an_input_error():
    # a (4,) likelihood on a 2 x 3 step
    rng = np.random.default_rng(6)
    model = make_model(rng, [2, 3],
                       likelihood=lambda k, xp, yp, xn, yn: np.ones(4))
    for run in (quantized_kernels, forward_filter,
                lambda m, y: backward_value(m, y, np.ones(3))):
        with pytest.raises(InputError, match="broadcast"):
            run(model, obs(1))


def test_observation_shape_checks():
    rng = np.random.default_rng(2)
    model = make_model(rng, [2, 3, 3])
    with pytest.raises(InputError):
        quantized_kernels(model, np.zeros(2))  # needs n+1 = 3 rows


# ---------------------------------------------------------------------------
# forward recursion
# ---------------------------------------------------------------------------

def test_forward_unit_likelihood_reproduces_marginals():
    rng = np.random.default_rng(3)
    model = make_model(rng, [3, 4, 5],
                       likelihood=lambda k, xp, yp, xn, yn: 1.0)
    state = forward_filter(model, obs(2))
    expect = model.initial
    assert np.allclose(state.weights[0], expect)
    for k in range(2):
        expect = expect @ model.transitions[k]
        assert np.allclose(state.weights[k + 1], expect, atol=1e-14)
    assert state.log_mass_total == pytest.approx(0.0, abs=1e-12)


def test_forward_base_case_no_steps():
    rng = np.random.default_rng(4)
    model = make_model(rng, [4])
    state = forward_filter(model, obs(0))
    assert np.array_equal(state.weights[0], model.initial)
    assert state.log_masses == [0.0]


def test_forward_matches_path_enumeration():
    # brute force: sum over all discrete signal paths of
    # initial_i0 * prod p_k[i_{k-1}, i_k] * prod g_k(i_{k-1}, i_k)
    rng = np.random.default_rng(5)
    for trial in range(20):
        n = int(rng.integers(1, 4))
        sizes = list(rng.integers(1, 5, size=n + 1))
        model = make_model(rng, sizes)
        y = rng.normal(size=n + 1)
        kernels = quantized_kernels(model, y)
        state = forward_filter(model, y)

        unnorm = np.zeros(sizes[-1])
        for path in itertools.product(*[range(s) for s in sizes]):
            w = model.initial[path[0]]
            for k in range(n):
                w *= kernels[k][path[k], path[k + 1]]
            unnorm[path[-1]] += w
        mass = unnorm.sum()
        assert math.log(mass) == pytest.approx(state.log_mass_total,
                                               abs=1e-10)
        assert np.allclose(state.weights[-1], unnorm / mass, atol=1e-12)


def test_forward_degenerate_mass_raises_with_step():
    rng = np.random.default_rng(6)
    model = make_model(rng, [2, 3, 3],
                       likelihood=lambda k, xp, yp, xn, yn:
                       0.0 if k == 2 else 1.0)
    with pytest.raises(DegenerateObservationError) as exc:
        forward_filter(model, obs(2))
    assert exc.value.step == 2


# ---------------------------------------------------------------------------
# backward recursion and forward/backward identity
# ---------------------------------------------------------------------------

def test_backward_unit_terminal_equals_total_mass():
    rng = np.random.default_rng(7)
    for trial in range(100):
        n = int(rng.integers(1, 6))
        sizes = list(rng.integers(1, 9, size=n + 1))
        model = make_model(rng, sizes)
        y = rng.normal(size=n + 1)
        state = forward_filter(model, y)
        total = backward_expectation(model, y, np.ones(sizes[-1]))
        ref = math.exp(state.log_mass_total)
        assert abs(total - ref) <= 1e-10 * ref


def test_forward_backward_identity_general_terminal():
    rng = np.random.default_rng(8)
    for trial in range(100):
        n = int(rng.integers(1, 6))
        sizes = list(rng.integers(1, 9, size=n + 1))
        model = make_model(rng, sizes)
        y = rng.normal(size=n + 1)
        f = rng.normal(size=sizes[-1])
        state = forward_filter(model, y)
        sign_f, log_f = unnormalized_expectation(state, f)
        back = backward_expectation(model, y, f)
        fwd = 0.0 if sign_f == 0.0 else sign_f * math.exp(log_f)
        assert abs(back - fwd) <= 1e-10 * (1e-300 + abs(back))


def test_backward_value_rescaling_handles_tiny_kernels():
    rng = np.random.default_rng(9)
    model = make_model(rng, [2, 2, 2, 2],
                       likelihood=lambda k, xp, yp, xn, yn: 1e-120)
    _, _, (sign, log_abs) = backward_value(model, obs(3), np.ones(2))
    assert sign == 1.0
    assert log_abs == pytest.approx(3 * math.log(1e-120), rel=1e-12)


def test_backward_terminal_shape_check():
    rng = np.random.default_rng(10)
    model = make_model(rng, [2, 3])
    with pytest.raises(InputError):
        backward_value(model, obs(1), np.ones(2))


# ---------------------------------------------------------------------------
# filter state / expectations
# ---------------------------------------------------------------------------

def test_expectation_constant_and_indicator():
    rng = np.random.default_rng(11)
    model = make_model(rng, [3, 4])
    state = forward_filter(model, obs(1))
    assert state.expectation(np.full(4, 3.25)) == pytest.approx(3.25)
    ind = np.zeros(4)
    ind[2] = 1.0
    assert state.expectation(ind) == pytest.approx(state.weights[-1][2])
    with pytest.raises(InputError):
        state.expectation(np.zeros(5))


def test_filter_permutation_invariance():
    # relabeling the grid points of an inner layer leaves the final filter
    # weights unchanged up to 1e-12 once mapped back
    rng = np.random.default_rng(12)
    model = make_model(rng, [3, 4, 3])
    y = obs(2)
    state = forward_filter(model, y)
    perm = np.array([2, 0, 3, 1])
    lay = list(model.layers)
    lay[1] = Grid(model.layers[1].points[perm])
    tr = [model.transitions[0][:, perm], model.transitions[1][perm, :]]
    permuted = FilterModel(layers=lay, initial=model.initial, transitions=tr,
                           likelihood=model.likelihood)
    state2 = forward_filter(permuted, y)
    assert np.abs(state2.weights[1][np.argsort(perm)]
                  - state.weights[1]).max() <= 1e-12
    assert np.abs(state2.weights[-1] - state.weights[-1]).max() <= 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_forward_weights_are_probability_vectors(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    sizes = list(rng.integers(1, 7, size=n + 1))
    model = make_model(rng, sizes)
    state = forward_filter(model, rng.normal(size=n + 1))
    for w in state.weights:
        assert np.all(w >= 0)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# scalar benchmark models
# ---------------------------------------------------------------------------

def test_builtin_models_and_simulation():
    model = builtin_models("linear-gaussian", steps=6)
    x, y = model.simulate(seed=3)
    assert x.shape == (7,) and y.shape == (7,) and y[0] == 0.0
    x2, y2 = model.simulate(seed=3)
    assert np.array_equal(x, x2) and np.array_equal(y, y2)
    assert builtin_models("sin-cube").linear_link_coeff is None
    with pytest.raises(InputError):
        builtin_models("nope")


def test_layer_moments_recursion():
    model = builtin_models("linear-gaussian", steps=3)
    means, stds = model.layer_moments()
    assert means == pytest.approx(np.zeros(4))
    v = 1.0
    for k in range(1, 4):
        v = model.ar_coeff ** 2 * v + model.ar_noise ** 2
        assert stds[k] ** 2 == pytest.approx(v)


def test_build_filter_exact_structure():
    model = builtin_models("linear-gaussian", steps=4)
    fm = model.build_filter([5] * 5)
    assert fm.steps == 4
    means, stds = model.layer_moments()
    for k, g in enumerate(fm.layers):
        assert g.points[:, 0] @ _gauss5_masses(g, means[k], stds[k]) == \
            pytest.approx(means[k], abs=1e-12)
    with pytest.raises(InputError):
        model.build_filter([5] * 3)


def _gauss5_masses(grid, mean, std):
    from quantschemes.filtering import _gaussian_cell_masses
    return _gaussian_cell_masses(grid, mean, std)


def test_exact_rows_and_masses_equal_norm_cdf_expression():
    from scipy.stats import norm
    from quantschemes.filtering import (_gaussian_ar1_rows,
                                        _gaussian_cell_masses)
    from quantschemes.grids import _voronoi_edges

    def rows_oracle(prev, nxt, a, b):
        edges = _voronoi_edges(nxt.points[:, 0])
        centers = a * prev.points[:, 0]
        cdf = norm.cdf((edges[None, :] - centers[:, None]) / b)
        rows = np.diff(cdf, axis=1)
        return rows / rows.sum(axis=1, keepdims=True)

    fm = builtin_models("sin-cube", steps=2).build_filter([7, 40, 150])
    # a shifted previous layer puts mass in the edge cells only, and a row
    # far in the tail underflows to zero in the inner cells
    far = Grid(4.0 + 2.0 * fm.layers[1].points)
    for prev, nxt in ((fm.layers[0], fm.layers[1]),
                      (fm.layers[1], fm.layers[2]), (far, fm.layers[2])):
        rows = _gaussian_ar1_rows(prev, nxt, 0.9, 0.4)
        assert rows.tobytes() == rows_oracle(prev, nxt, 0.9, 0.4).tobytes()
    grid = fm.layers[2]
    cdf = norm.cdf((_voronoi_edges(grid.points[:, 0]) - 0.3) / 1.7)
    oracle = np.diff(cdf) / np.diff(cdf).sum()
    assert _gaussian_cell_masses(grid, 0.3, 1.7).tobytes() == oracle.tobytes()


@pytest.mark.parametrize("size", [2000, 2001])
def test_exact_rows_do_not_depend_on_the_thread_count(size, monkeypatch):
    """1, 2 and 3 threads give the same bytes, on row-block counts (31 and
    47) that do not divide by the thread count; a single-block matrix
    opens no pool."""
    pools = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, threads):
            pools.append(threads)
            super().__init__(threads)

    monkeypatch.setattr(filtering, "ThreadPoolExecutor", Recording)
    fm = builtin_models("sin-cube", steps=2).build_filter([size, size, 200])
    rows = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(filtering, "_cpu_count", lambda: cpus)
        rows.append(filtering._gaussian_ar1_rows(fm.layers[0], fm.layers[1],
                                                 0.9, 0.4).tobytes())
        filtering._gaussian_ar1_rows(fm.layers[2], fm.layers[2], 0.9, 0.4)
    assert rows[1] == rows[0] and rows[2] == rows[0]
    assert pools == [2, 3]


def _of_next(k, xp, yp, xn, yn):
    return np.exp(-0.5 * (yn[0] - xn[..., 0]) ** 2)


def _of_both(k, xp, yp, xn, yn):
    return np.exp(-0.5 * (yn[0] - yp[0] - 0.5 * xn[..., 0]
                          - 0.3 * np.sin(xp[..., 0])) ** 2)


@pytest.mark.parametrize("name, sizes, likelihood", [
    ("linear-gaussian", [12, 30, 30, 25, 40, 30], None),
    ("sin-cube", [12, 30, 30, 25, 40, 30], None),
    # large enough for OpenBLAS to thread a full matrix-vector product
    ("sin-cube", [2000] * 3, None),
    # the weight fused into uneven row blocks over threads, for a
    # likelihood of shape (1, N_k) and one of shape (N_{k-1}, N_k)
    ("sin-cube", [2001] * 3, _of_next),
    ("sin-cube", [2001] * 3, _of_both)],
    ids=["linear-gaussian", "sin-cube", "sin-cube-N2000",
         "sin-cube-N2001-x_next", "sin-cube-N2001-x_prev-x_next"])
def test_step_kernels_equal_precomputed_kernels(name, sizes, likelihood):
    spec = builtin_models(name, steps=len(sizes) - 1)
    fm = spec.build_filter(sizes)
    _, y = spec.simulate(seed=4)
    if likelihood is None:
        kernels = quantized_kernels(fm, y)
        product = lambda H, v, left: v @ H if left else H @ v
    else:
        # the kernels g * p of the stored matrices; a whole product at
        # N=2001 is threaded by OpenBLAS and gives other bytes than the
        # single-threaded one, which the blocked product gives
        stored = FilterModel(fm.layers, fm.initial, list(fm.transitions),
                             likelihood)
        kernels = quantized_kernels(stored, y)
        fm = FilterModel(fm.layers, fm.initial, fm.transitions, likelihood)
        assert all(a.tobytes() == b.tobytes()
                   for a, b in zip(quantized_kernels(fm, y), kernels))
        product = filtering._product
    # reference recursions over the precomputed kernels
    pi, weights, log_masses = fm.initial.copy(), [fm.initial], [0.0]
    for H in kernels:
        pi = product(H, pi, True)
        mass = pi.sum()
        pi = pi / mass
        weights.append(pi)
        log_masses.append(math.log(mass))
    state = forward_filter(fm, y)
    assert all(a.tobytes() == b.tobytes()
               for a, b in zip(state.weights, weights))
    assert state.log_masses == log_masses
    terminal = fm.layers[-1].points[:, 0] ** 2
    u_ref, log_scale_ref = terminal, 0.0
    for H in reversed(kernels):
        u_ref = product(H, u_ref, False)
        peak = np.abs(u_ref).max()
        if peak > 0.0 and (peak > 1e100 or peak < 1e-100):
            u_ref = u_ref / peak
            log_scale_ref += math.log(peak)
    u, log_scale, _ = backward_value(fm, y, terminal)
    assert u.tobytes() == u_ref.tobytes()
    assert log_scale == log_scale_ref


@pytest.mark.parametrize("size", [2000, 50],
                         ids=["blocks-over-threads", "one-block"])
def test_exact_rows_check_fails_inside_the_row_threads(size, monkeypatch):
    """A row block whose cdf decreases fails its check in the thread that
    fills it: the step is named, no numpy warning is emitted and the pool
    is joined before the error is raised."""
    spec = builtin_models("sin-cube", steps=2)
    fm = spec.build_filter([size] * 3)
    _, y = spec.simulate(seed=3)
    real, lock, calls = filtering.ndtr, threading.Lock(), []

    def ndtr(z, out):
        real(z, out=out)
        with lock:
            calls.append(None)
            first = len(calls) == 1
        if first:
            out[:, -2] = 0.0  # the cdf falls before the last edge
        return out

    monkeypatch.setattr(filtering, "ndtr", ndtr)
    runs = [(quantized_kernels, 0), (forward_filter, 0),
            (lambda m, y: backward_value(m, y, np.ones(size)), 1)]
    for run, step in runs:
        calls.clear()
        threads = threading.active_count()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(InputError, match=f"transition {step} must "
                               "be nonnegative with rows summing to 1"):
                run(fm, y)
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]
        assert threading.active_count() == threads
        assert len(calls) > 1 if size == 2000 else len(calls) == 1


def test_exact_filter_peak_memory_flat_in_steps():
    # one step's transition rows in memory: the peak must not grow with
    # the step count
    def peak(n):
        spec = builtin_models("sin-cube", steps=n)
        _, y = spec.simulate(seed=1)
        tracemalloc.start()
        try:
            forward_filter(spec.build_filter([400] * (n + 1)), y)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(2), peak(8)
    assert large <= 1.5 * small, (small, large)


def test_exact_filter_step_memory_is_one_kernel_and_one_block():
    """Beyond its N=2000 kernel (32 MB), a step holds the threads' scratch
    (_BLOCK_ENTRIES floats, 2 MiB) and their masks (_BLOCK_ENTRIES bytes);
    a check of the whole matrix would add a 4 MB mask. Measured about
    2.47 MB over the kernel; the bound leaves 0.68 MB."""
    spec = builtin_models("sin-cube", steps=2)
    _, y = spec.simulate(seed=1)
    fm = spec.build_filter([2000] * 3)
    tracemalloc.start()
    try:
        forward_filter(fm, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    over = peak - 2000 * 2000 * 8
    assert over < 12 * filtering._BLOCK_ENTRIES, over


def test_huge_observation_noise_recovers_prior():
    # sigma_obs -> infinity: observations carry no information, posterior
    # equals the quantized prior marginal
    model = builtin_models("linear-gaussian", steps=4)
    model.sigma_obs = 1e6
    fm = model.build_filter([10] * 5)
    _, y = model.simulate(seed=0)
    state = forward_filter(fm, y)
    prior = fm.initial
    for p in fm.transitions:
        prior = prior @ p
    assert np.abs(state.weights[-1] - prior).max() <= 1e-5


def test_zero_link_posterior_equals_prior():
    model = builtin_models("linear-gaussian", steps=3)
    model.link = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    fm = model.build_filter([6] * 4)
    state = forward_filter(fm, np.zeros(4))
    prior = fm.initial
    for p in fm.transitions:
        prior = prior @ p
    assert np.abs(state.weights[-1] - prior).max() <= 1e-12


def test_linear_gaussian_filter_matches_kalman():
    model = builtin_models("linear-gaussian", steps=10)
    _, y = model.simulate(seed=7)
    m_ref, v_ref = kalman_posterior(model, y)
    fm = model.build_filter([200] * 11)
    state = forward_filter(fm, y)
    pts = fm.layers[-1].points[:, 0]
    mean = state.weights[-1] @ pts
    var = state.weights[-1] @ (pts - mean) ** 2
    assert abs(mean - m_ref) <= 5e-4
    assert abs(var - v_ref) <= 5e-4


def test_kalman_requires_linear_link():
    model = builtin_models("sin-cube", steps=3)
    with pytest.raises(InputError):
        kalman_posterior(model, np.zeros(4))
    lin = builtin_models("linear-gaussian", steps=3)
    with pytest.raises(InputError):
        kalman_posterior(lin, np.zeros(3))


# ---------------------------------------------------------------------------
# model validation
# ---------------------------------------------------------------------------

def test_filter_model_validation():
    g2 = Grid(np.array([[-1.0], [1.0]]))
    like = lambda k, xp, yp, xn, yn: 1.0
    with pytest.raises(InputError):
        FilterModel([g2, g2], np.array([0.5, 0.5]), [], like)
    with pytest.raises(InputError):
        FilterModel([g2], np.array([0.4, 0.4]), [], like)
    with pytest.raises(InputError):
        FilterModel([g2, g2], np.array([0.5, 0.5]),
                    [np.array([[0.9, 0.0], [0.5, 0.5]])], like)
