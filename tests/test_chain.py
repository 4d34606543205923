import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from quantschemes.chain import (MODELS, DiffusionModel, QuantizedChain,
                                TimeMesh, brownian, build_layer_grids,
                                estimate_companions, euler_paths, gbm,
                                joint_transitions, load_chain, ou, save_chain)
from quantschemes.errors import InputError, NumericError, ParseError
from quantschemes.grids import (_PROB_TOL, Grid, Law1D, SampleSource,
                                _newton_residual, assign,
                                distortion_and_gradient, newton_1d)


# ---------------------------------------------------------------------------
# model / mesh types
# ---------------------------------------------------------------------------

def test_model_shape_validation():
    with pytest.raises(InputError):
        DiffusionModel(2, 1, lambda t, x: x[:, :1],
                       lambda t, x: np.ones(x.shape + (1,)), [0.0, 0.0])
    with pytest.raises(InputError):
        DiffusionModel(1, 2, lambda t, x: x,
                       lambda t, x: np.ones(x.shape + (1,)), [0.0])
    with pytest.raises(InputError):
        DiffusionModel(2, 1, lambda t, x: x,
                       lambda t, x: np.ones(x.shape + (1,)), [0.0])
    for dim in (0, -2, -10 ** 20):
        with pytest.raises(InputError, match="dimensions must be >= 1"):
            brownian(dim)
    with pytest.raises(InputError, match="dimensions must be >= 1"):
        DiffusionModel(1, 0, lambda t, x: x,
                       lambda t, x: np.ones(x.shape + (0,)), [0.0])


def test_model_registry():
    assert MODELS == {"gbm": gbm, "ou": ou, "brownian": brownian}
    x = np.array([[2.0], [-1.0]])
    g = gbm()
    assert g.x0.tolist() == [100.0] and (g.lip_b, g.lip_sigma) == (0.05, 0.2)
    assert np.allclose(g.drift(0.0, x), 0.05 * x)
    assert np.allclose(g.diffusion(0.0, x)[:, :, 0], 0.2 * x)
    o = ou(kappa=2.0, sigma=0.5, x0=1.0)
    assert o.x0.tolist() == [1.0]
    assert np.allclose(o.drift(0.0, x), -2.0 * x)
    assert np.allclose(o.diffusion(0.0, x), 0.5)
    b = brownian(3)
    assert (b.dim_x, b.dim_w) == (3, 3) and np.all(b.x0 == 0.0)
    assert np.array_equal(b.diffusion(0.0, np.ones((2, 3)))[1], np.eye(3))


def test_time_mesh():
    mesh = TimeMesh(1.0, 4)
    assert mesh.dt == 0.25
    assert np.allclose(mesh.times, [0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(InputError):
        TimeMesh(0.0, 4)
    with pytest.raises(InputError):
        TimeMesh(1.0, 0)
    for horizon in (float("nan"), float("inf")):
        with pytest.raises(InputError):
            TimeMesh(horizon, 4)


# ---------------------------------------------------------------------------
# Euler simulation
# ---------------------------------------------------------------------------

def test_euler_degenerate_coefficients():
    model = DiffusionModel(1, 1, lambda t, x: np.zeros_like(x),
                           lambda t, x: np.zeros(x.shape + (1,)), [3.0])
    paths, incr = euler_paths(model, TimeMesh(1.0, 5), 10, seed=0)
    assert np.all(paths == 3.0)
    assert incr.shape == (10, 5, 1)


def test_euler_deterministic_recursion():
    model = DiffusionModel(1, 1, lambda t, x: x,
                           lambda t, x: np.zeros(x.shape + (1,)), [1.0])
    paths, _ = euler_paths(model, TimeMesh(1.0, 2), 3, seed=0)
    assert np.allclose(paths[:, -1, 0], 1.5 ** 2)


def test_euler_brownian_moments():
    M, T = 100_000, 1.0
    paths, incr = euler_paths(brownian(), TimeMesh(T, 10), M, seed=0)
    xT = paths[:, -1, 0]
    assert abs(xT.mean()) <= 3.0 * math.sqrt(T / M)
    assert abs(xT.var() - T) <= 0.05 * T
    # returned increments are exactly the consumed ones
    assert np.allclose(incr.sum(axis=1)[:, 0], xT, atol=1e-12)


def test_euler_reproducible():
    model = ou()
    a = euler_paths(model, TimeMesh(1.0, 4), 100, seed=9)
    b = euler_paths(model, TimeMesh(1.0, 4), 100, seed=9)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_euler_nonfinite_error_names_step_and_path():
    model = DiffusionModel(1, 1,
                           lambda t, x: np.where(x > 0.0, np.inf, 0.0) * x,
                           lambda t, x: np.ones(x.shape + (1,)), [1.0])
    with pytest.raises(NumericError) as exc:
        euler_paths(model, TimeMesh(1.0, 3), 4, seed=0)
    assert "step 0" in str(exc.value) and "path" in str(exc.value)


def test_euler_validation():
    with pytest.raises(InputError):
        euler_paths(brownian(), TimeMesh(1.0, 2), 0, seed=0)


# ---------------------------------------------------------------------------
# layer grids
# ---------------------------------------------------------------------------

def test_layer_grids_deterministic_chain():
    model = DiffusionModel(1, 1, lambda t, x: x,
                           lambda t, x: np.zeros(x.shape + (1,)), [1.0])
    mesh = TimeMesh(1.0, 2)
    layers = build_layer_grids(model, mesh, [1, 1, 1],
                               sample_budget=100, seed=0)
    assert [g.size for g in layers] == [1, 1, 1]
    assert layers[2].points[0, 0] == pytest.approx(2.25)


def test_layer_grids_lloyd_beats_mapped_grid_for_gbm():
    mu, sig, x0, T = 0.05, 0.2, 1.0, 1.0
    model = DiffusionModel(1, 1, lambda t, x: mu * x,
                           lambda t, x: sig * x[..., None], [x0])
    mesh = TimeMesh(T, 4)
    from quantschemes.grids import Law1D, newton_1d
    base = newton_1d(Law1D.gaussian(), 8)

    def lognormal(t):
        return lambda p: x0 * np.exp((mu - sig ** 2 / 2) * t
                                     + sig * math.sqrt(t) * p)

    mapped = [Grid(model.x0[None, :])] + [Grid(lognormal(t)(base.points))
                                          for t in mesh.times[1:]]
    fitted = build_layer_grids(model, mesh, [1] + [8] * 4,
                               sample_budget=100_000, seed=5)
    paths, _ = euler_paths(model, mesh, 100_000, seed=6)
    src = SampleSource.from_batch(paths[:, -1, :])
    d_fit = distortion_and_gradient(fitted[-1], src).value
    d_map = distortion_and_gradient(mapped[-1], src).value
    assert d_fit <= d_map * 1.001


def _exact_weights(model, mesh, layers):
    """The weights of 1-D layers under the exact Euler law of each step:
    the mixture of the step from the layer before, with its weights."""
    p, out = np.ones(1), [np.ones(1)]
    for k in range(mesh.steps):
        x = layers[k].points
        m = x[:, 0] + mesh.dt * model.drift(mesh.times[k], x)[:, 0]
        s = np.sqrt(mesh.dt) * np.abs(model.diffusion(mesh.times[k], x)[:, 0, 0])
        law = Law1D.gaussian_mixture(p, m, s)
        p = _newton_residual(layers[k + 1].points[:, 0], law)[1]
        out.append(p)
    return out


@pytest.mark.parametrize("name", ["gbm", "ou", "brownian"])
def test_layer_grids_1d_sorted_with_exact_weights(name):
    model, mesh = MODELS[name](), TimeMesh(1.0, 6)
    layers = build_layer_grids(model, mesh, [1, 3, 10, 1, 7, 20, 40])
    assert [g.size for g in layers] == [1, 3, 10, 1, 7, 20, 40]
    for g in layers:
        assert np.all(np.isfinite(g.points)) and np.all(np.diff(g.points[:, 0]) > 0)
    for p in _exact_weights(model, mesh, layers):
        assert np.all(p >= 0) and abs(p.sum() - 1.0) <= _PROB_TOL


def test_layer_grids_1d_do_not_read_seed_or_sample_budget():
    mesh, sizes = TimeMesh(0.25, 4), [1] + [12] * 4
    runs = [build_layer_grids(gbm(), mesh, sizes, sample_budget=b, seed=s)
            for b, s in ((100_000, 0), (10, 7), (2_000, 123))]
    for other in runs[1:]:
        assert all(a.points.tobytes() == b.points.tobytes()
                   for a, b in zip(runs[0], other))


@pytest.mark.parametrize("model", [ou(kappa=2.0, sigma=0.5, x0=1.5),
                                   brownian()])
def test_layer_grids_1d_first_layer_is_the_newton_grid(model):
    # one step from a point mass is one Gaussian, whose optimal grid is the
    # Newton N(0, 1) grid moved to its mean and scaled by its sd
    mesh = TimeMesh(0.5, 2)
    layers = build_layer_grids(model, mesh, [1, 15, 15])
    x0 = model.x0[None, :]
    mean = x0[0, 0] + mesh.dt * model.drift(0.0, x0)[0, 0]
    sd = np.sqrt(mesh.dt) * model.diffusion(0.0, x0)[0, 0, 0]
    expected = mean + sd * newton_1d(Law1D.gaussian(), 15).points[:, 0]
    assert np.allclose(layers[1].points[:, 0], expected, rtol=0, atol=1e-12)


def test_layer_grids_1d_law_below_float_spacing():
    # sd 0.7 around a mean of 5e19, where floats are 8192 apart: the
    # moment-matched grid has one distinct point, and so has the layer
    layers = build_layer_grids(ou(x0=1e20), TimeMesh(1.0, 2), [1, 5, 5])
    assert [g.points.tolist() for g in layers] == [[[1e20]], [[5e19]],
                                                  [[2.5e19]]]


def test_layer_grids_1d_mixed_zero_and_positive_stds():
    # sigma(x) = max(x, 0) vanishes on the part of layer 1 below 0
    model = DiffusionModel(1, 1, lambda t, x: np.zeros_like(x),
                           lambda t, x: np.maximum(x, 0.0)[..., None], [0.1])
    with pytest.raises(InputError, match="step 1 mixes zero and positive"):
        build_layer_grids(model, TimeMesh(1.0, 2), [1, 5, 5])


def test_layer_grids_1d_non_finite_coefficients():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError,
                           match="non-finite coefficient at step 0"):
            build_layer_grids(ou(kappa=math.inf), TimeMesh(1.0, 2), [1, 4, 4])
        # finite at x0 = 1, overflowing at layer 1's points above 710
        model = DiffusionModel(1, 1, lambda t, x: np.exp(x),
                               lambda t, x: 1e3 * np.ones(x.shape + (1,)),
                               [1.0])
        with pytest.raises(NumericError,
                           match="non-finite coefficient at step 1"):
            build_layer_grids(model, TimeMesh(1.0, 2), [1, 4, 4])


def test_layer_grids_validation():
    with pytest.raises(InputError):
        build_layer_grids(brownian(), TimeMesh(1.0, 2), [1, 5])


# ---------------------------------------------------------------------------
# weight estimation
# ---------------------------------------------------------------------------

def test_estimate_deterministic_chain():
    model = DiffusionModel(1, 1, lambda t, x: x,
                           lambda t, x: np.zeros(x.shape + (1,)), [1.0])
    mesh = TimeMesh(1.0, 2)
    layers = build_layer_grids(model, mesh, [1, 1, 1],
                               sample_budget=10, seed=0)
    ch = estimate_companions(model, mesh, layers, 1000, seed=0)
    for k in range(2):
        assert np.allclose(ch.transitions[k], 1.0)
        assert np.allclose(ch.companions[k], 0.0, atol=1e-15)
        assert np.allclose(ch.marginals[k], 1.0)


def test_estimate_one_step_brownian_half_moment():
    a = 0.8
    mesh = TimeMesh(1.0, 1)
    layers = [Grid([[0.0]]), Grid([[-a], [a]])]
    M = 1_000_000
    ch = estimate_companions(brownian(), mesh, layers, M, seed=3,
                             center=False)
    p = ch.transitions[0][0]
    assert np.allclose(p, 0.5, atol=3.0 * 0.5 / math.sqrt(M) * 2)
    # raw companion toward the positive cell estimates E(eps 1_{eps>0})
    target = 1.0 / math.sqrt(2.0 * math.pi)
    sd = math.sqrt(0.5 / M)  # rough CLT scale for the half-moment average
    assert abs(ch.companions[0][0, 1, 0] - target) <= 5 * sd
    assert abs(ch.companions[0][0, 0, 0] + target) <= 5 * sd


def test_estimate_invariants():
    model = ou()
    mesh = TimeMesh(1.0, 3)
    layers = build_layer_grids(model, mesh, [1, 5, 5, 5],
                               sample_budget=20_000, seed=1)
    ch = estimate_companions(model, mesh, layers, 100_000, seed=2)
    p = ch.marginals[0]
    for k in range(3):
        assert np.abs(ch.transitions[k].sum(axis=1) - 1.0).max() <= 1e-12
        assert np.abs(ch.companions[k].sum(axis=1)).max() <= 1e-12
        p = p @ ch.transitions[k]
        assert np.abs(p - ch.marginals[k + 1]).max() <= 1e-12
    # bitwise reproducibility
    ch2 = estimate_companions(model, mesh, layers, 100_000, seed=2)
    assert all(np.array_equal(a, b)
               for a, b in zip(ch.transitions, ch2.transitions))
    assert all(np.array_equal(a, b)
               for a, b in zip(ch.companions, ch2.companions))


def test_estimate_dead_rows():
    mesh = TimeMesh(1.0, 1)
    # second layer-0 point far from the support is never visited
    layers = [Grid([[0.0], [500.0]]), Grid([[-1.0], [1.0]])]
    ch = estimate_companions(brownian(), mesh, layers, 1000, seed=0)
    assert list(ch.dead_rows[0]) == [1]
    assert np.allclose(ch.transitions[0][1], 0.5)
    assert np.allclose(ch.companions[0][1], 0.0)
    # visited row still centered
    assert abs(ch.companions[0][0].sum()) <= 1e-12


def _materialised_estimate(model, mesh, layers, num_paths, seed, center):
    """estimate_companions' arrays from every layer of stored paths:
    euler_paths, then assign per layer, then joint_transitions per pair."""
    n = mesh.steps
    paths, incr = euler_paths(model, mesh, num_paths, seed)
    idx = [assign(layers[k], paths[:, k, :])[0] for k in range(n + 1)]
    out = {"marginals": [], "transitions": [], "companions": [],
           "dead_rows": []}
    for k in range(n + 1):
        counts = np.bincount(idx[k], minlength=layers[k].size)
        out["marginals"].append(counts / num_paths)
        if k == n:
            break
        trans, pi, deadk = joint_transitions(idx[k], idx[k + 1], counts,
                                             layers[k + 1].size, incr[:, k, :])
        if center:
            alive = np.setdiff1d(np.arange(layers[k].size), deadk)
            pi[alive] -= pi[alive].sum(axis=1, keepdims=True) / pi.shape[1]
        out["transitions"].append(trans)
        out["companions"].append(pi)
        out["dead_rows"].append(deadk)
    return out


@pytest.mark.parametrize("case,center", [("ou-dead", True),
                                         ("ou-dead", False),
                                         ("brownian-2d", True)])
def test_estimate_matches_materialised_paths(case, center):
    rng = np.random.default_rng(8)
    if case == "ou-dead":
        # the layer-1 point at 40 is never visited: a dead row
        model, mesh = ou(x0=0.2), TimeMesh(1.0, 3)
        layers = [Grid([[0.2]])] + [
            Grid(np.vstack([np.sort(rng.normal(size=(6, 1)), 0), [[40.0]]]))
            for _ in range(3)]
    else:
        model, mesh = brownian(2), TimeMesh(0.5, 3)
        layers = [Grid([[0.0, 0.0]])] + [Grid(rng.normal(size=(7, 2)))
                                         for _ in range(3)]
    ch = estimate_companions(model, mesh, layers, 30_000, 5, center)
    ref = _materialised_estimate(model, mesh, layers, 30_000, 5, center)
    if case == "ou-dead":
        assert all(d.tolist() == [6] for d in ch.dead_rows[1:])
    assert ch.dim_w == model.dim_w
    for key, arrays in ref.items():
        got = getattr(ch, key)
        assert len(got) == len(arrays)
        for a, b in zip(got, arrays):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
    assert all(a.points.tobytes() == b.points.tobytes()
               for a, b in zip(ch.layers, layers))


def test_estimate_peak_memory_flat_in_steps():
    # one layer pair in memory: the peak must not grow with the step count
    base = newton_1d(Law1D.gaussian(), 20)

    def peak(n):
        mesh = TimeMesh(1.0, n)
        layers = [Grid([[0.0]])] + [Grid(math.sqrt(t) * base.points)
                                    for t in mesh.times[1:]]
        tracemalloc.start()
        try:
            estimate_companions(brownian(), mesh, layers, 50_000, seed=0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(5), peak(40)
    assert large <= 1.5 * small, (small, large)


def test_layer_grids_peak_memory_flat_in_steps():
    # d >= 2 holds one layer of samples: the peak must not grow with the
    # step count (stacked paths made it 3.6, 6.4 and 24.7 MiB at n = 5, 10,
    # 40 in 1-D, from 2e4 samples; 2-D Lloyd runs under tracemalloc are
    # slow, so n = 20 stands in for 40). 1-D draws no samples: its peak
    # stays below one 2e4-row layer of them.
    def peak(model, n, budget):
        tracemalloc.start()
        try:
            build_layer_grids(model, TimeMesh(1.0, n), [1] + [20] * n,
                              sample_budget=budget, seed=0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(brownian(2), 1, 5_000)  # the lazy imports of the 2-D search
    small, large = (peak(brownian(2), n, 5_000) for n in (5, 20))
    assert large <= 1.5 * small, (small, large)
    assert peak(gbm(), 40, 20_000) < 20_000 * 8


def test_joint_transitions_match_path_loop():
    rng = np.random.default_rng(4)
    M, n_prev, n_next = 200, 4, 3
    idx_prev = rng.integers(0, n_prev - 1, M)  # cell n_prev - 1 stays empty
    idx_next = rng.integers(0, n_next, M)
    incr = rng.normal(size=(M, 2))
    counts = np.bincount(idx_prev, minlength=n_prev)
    rows, pi, dead = joint_transitions(idx_prev, idx_next, counts, n_next,
                                       incr)
    assert dead.tolist() == [n_prev - 1]
    for i in range(n_prev - 1):
        for j in range(n_next):
            hit = (idx_prev == i) & (idx_next == j)
            assert rows[i, j] == pytest.approx(hit.sum() / counts[i])
            assert np.allclose(pi[i, j], incr[hit].sum(axis=0) / counts[i])
    assert np.all(rows[dead] == 1.0 / n_next) and np.all(pi[dead] == 0.0)
    rows0, pi0, _ = joint_transitions(idx_prev, idx_next, counts, n_next,
                                      np.empty((M, 0)))
    assert np.array_equal(rows0, rows) and pi0.shape == (n_prev, n_next, 0)


# ---------------------------------------------------------------------------
# chain I/O
# ---------------------------------------------------------------------------

def _small_chain(seed=0, center=True):
    model = ou()
    mesh = TimeMesh(0.5, 2)
    layers = build_layer_grids(model, mesh, [1, 4, 4],
                               sample_budget=5000, seed=seed)
    return estimate_companions(model, mesh, layers, 20_000, seed=seed,
                               center=center)


@pytest.mark.parametrize("binary", [False, True])
def test_chain_roundtrip(tmp_path, binary):
    ch = _small_chain()
    path = tmp_path / "chain.dat"
    save_chain(ch, path, binary=binary)
    back = load_chain(path)
    assert back.mesh == ch.mesh
    assert back.seed == ch.seed and back.mc_paths == ch.mc_paths
    assert back.centered == ch.centered
    for a, b in zip(ch.layers, back.layers):
        assert np.array_equal(a.points, b.points)
    for a, b in zip(ch.transitions, back.transitions):
        assert np.array_equal(a, b)
    for a, b in zip(ch.companions, back.companions):
        assert np.array_equal(a, b)
        assert np.abs(b.sum(axis=1)).max() <= 1e-12
    for a, b in zip(ch.dead_rows, back.dead_rows):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("binary", [False, True])
def test_chain_roundtrip_is_byte_identical(tmp_path, binary):
    # layers hold points only, so nothing is rewritten on the way back;
    # the far point of layer 1 is never visited (a dead row)
    model, mesh = ou(), TimeMesh(0.5, 2)
    layers = build_layer_grids(model, mesh, [1, 4, 4], sample_budget=5000)
    layers[1] = Grid(np.vstack([layers[1].points, [[50.0]]]))
    ch = estimate_companions(model, mesh, layers, 20_000, seed=0)
    assert ch.dead_rows[1].size == 1
    path = tmp_path / "chain.dat"
    save_chain(ch, path, binary=binary)
    back = load_chain(path)
    for f in dataclasses.fields(QuantizedChain):
        a, b = getattr(ch, f.name), getattr(back, f.name)
        if f.name == "layers":
            a = [x for g in a for x in (g.points, g.weights)]
            b = [x for g in b for x in (g.points, g.weights)]
        if isinstance(a, list):
            assert len(a) == len(b)
            assert all(_same_array(x, y) for x, y in zip(a, b)), f.name
        else:
            assert a == b, f.name


def _same_array(x, y):
    if x is None or y is None:
        return x is y
    return (x.dtype == y.dtype and x.shape == y.shape
            and x.tobytes() == y.tobytes())


def test_chain_load_rejects_bad_row_sum(tmp_path):
    ch = _small_chain()
    path = tmp_path / "chain.txt"
    save_chain(ch, path)
    lines = path.read_text().split("\n")
    # transition block of step 0 sits right after layers and marginals
    idx = 4 + 2 * 3
    vals = lines[idx].split()
    vals[0] = "0.9"
    lines[idx] = " ".join(vals)
    path.write_text("\n".join(lines))
    with pytest.raises(InputError):
        load_chain(path)


def test_chain_load_missing_file(tmp_path):
    with pytest.raises(InputError):
        load_chain(tmp_path / "missing.txt")


def test_chain_load_rejects_garbage(tmp_path):
    path = tmp_path / "chain.txt"
    path.write_text("not a chain\n")
    with pytest.raises(ParseError):
        load_chain(path)
    ch = _small_chain()
    save_chain(ch, path)
    txt = path.read_text()
    path.write_text(txt[:len(txt) // 2].rsplit("\n", 1)[0])
    with pytest.raises(ParseError):
        load_chain(path)


def _set_field(line, i, value):
    fields = line.split()
    fields[i] = value
    return b" ".join(fields)


def _edit_line(number, edit):
    def apply(raw):
        lines = raw.split(b"\n")
        lines[number - 1] = edit(lines[number - 1])
        return b"\n".join(lines)
    return apply


@pytest.mark.parametrize("binary, corrupt, line", [
    (False, _edit_line(2, lambda ln: b"x" + ln), 2),
    (False, _edit_line(3, lambda ln: ln + b"x"), 3),
    (True, _edit_line(3, lambda ln: ln.replace(b" ", b" -", 1)), 3),
    (True, _edit_line(4, lambda ln: b"-1" + ln[1:]), 4),
    (False, _edit_line(1, lambda ln: b"\xff" + ln), 1),
    (True, lambda raw: raw + b"\x00", 5),
    (False, _edit_line(2, lambda ln: _set_field(ln, 3, b"nan")), 2),
    (True, _edit_line(2, lambda ln: _set_field(ln, 3, b"inf")), 2),
    (False, _edit_line(2, lambda ln: _set_field(ln, 6, b"7")), 2),
], ids=["metadata-not-integer", "layer-size-not-integer",
        "negative-layer-size", "negative-dead-row-count", "header-not-utf8",
        "binary-body-not-whole-floats", "nan-horizon", "inf-horizon",
        "centered-not-0-or-1"])
def test_chain_load_rejects_malformed_header_and_body(tmp_path, binary,
                                                      corrupt, line):
    path = tmp_path / "chain.dat"
    save_chain(_small_chain(), path, binary=binary)
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(ParseError) as exc:
        load_chain(path)
    assert exc.value.line == line


def test_chain_shape_validation():
    ch = _small_chain()
    with pytest.raises(InputError):
        QuantizedChain(mesh=ch.mesh, layers=ch.layers[:-1],
                       marginals=ch.marginals, transitions=ch.transitions,
                       companions=ch.companions, mc_paths=1, seed=0,
                       centered=True)
    # a marginal of the wrong shape, or one that is no probability vector
    for bad in (np.ones(2) / 2, np.full(4, 0.125),
                np.array([1.5, -0.5, 0.0, 0.0])):
        with pytest.raises(InputError):
            dataclasses.replace(ch, marginals=[ch.marginals[0], bad,
                                               ch.marginals[2]])
