"""End-to-end acceptance checks at full scale.

Each test covers one numbered criterion and prints a single PASS/FAIL line
directly to the terminal (bypassing capture) so the verdicts are always
visible. The heavy benchmark runs are shared through module-scoped fixtures.
"""

import itertools
import math
import time

import numpy as np
import pytest

from quantschemes.bsde import DriverSpec, bound_constants, solve_bsde
from quantschemes.chain import (QuantizedChain, TimeMesh, brownian,
                                estimate_companions)
from quantschemes.experiments import (BIDASK_REFERENCE, ExperimentConfig,
                                      run_bidask, run_filter_demo,
                                      run_multidim)
from quantschemes.filtering import FilterModel, backward_expectation, \
    forward_filter, quantized_kernels, unnormalized_expectation
from quantschemes.grids import (Grid, Law1D, SampleSource, StopCriteria,
                                distortion_and_gradient, lloyd, ls_error,
                                newton_1d)

ZADOR_2 = 1.0 / (2.0 * math.sqrt(3.0))
GAUSS_2PT = math.sqrt(2.0 / math.pi)


@pytest.fixture
def verdict(capsys):
    """One printed PASS/FAIL line per criterion, bypassing output capture."""
    def _verdict(num: int, name: str, ok: bool) -> None:
        line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line
    return _verdict


# ---------------------------------------------------------------------------
# shared heavy runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def bidask_run():
    cfg = ExperimentConfig(name="bidask", n=20, grid_size=150,
                           mc_paths=1_000_000, seed=0, workers=1)
    start = time.perf_counter()
    report = run_bidask(cfg)
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def multidim_run():
    cfg = ExperimentConfig(name="multidim", n=10, dim=2,
                           sweep=[10, 25, 50, 100, 150],
                           mc_paths=1_000_000, seed=0, workers=0)
    start = time.perf_counter()
    report = run_multidim(cfg)
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def filter_run():
    cfg = ExperimentConfig(name="filter-demo", n=10, seed=0,
                           sweep=[10, 25, 50, 100, 200],
                           model="linear-gaussian", workers=1)
    start = time.perf_counter()
    report = run_filter_demo(cfg)
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def gaussian_batch():
    return np.random.default_rng(2024).standard_normal((1_000_000, 1))


def _brownian_chain(mc_paths, center, seed=0, n=5, size=20):
    model = brownian(1)
    mesh = TimeMesh(1.0, n)
    base = newton_1d(Law1D.gaussian(), size)
    layers = [Grid(model.x0[None, :])] + [Grid(math.sqrt(t) * base.points)
                                          for t in mesh.times[1:]]
    return estimate_companions(model, mesh, layers, mc_paths, seed,
                               center=center)


def _random_chain(rng, sizes, dt=0.5):
    n = len(sizes) - 1
    transitions, companions = [], []
    for k in range(n):
        p = rng.random((sizes[k], sizes[k + 1])) + 0.05
        p /= p.sum(axis=1, keepdims=True)
        c = rng.normal(size=(sizes[k], sizes[k + 1], 1)) * 0.1
        c -= c.mean(axis=1, keepdims=True)
        transitions.append(p)
        companions.append(c)
    layers = [Grid(np.sort(rng.normal(size=s))[:, None]) for s in sizes]
    marginals = [np.ones(sizes[0]) / sizes[0]]
    for k in range(n):
        marginals.append(marginals[-1] @ transitions[k])
    return QuantizedChain(mesh=TimeMesh(dt * n, n), layers=layers,
                          marginals=marginals, transitions=transitions,
                          companions=companions, mc_paths=1, seed=0,
                          centered=True)


def _random_filter_model(rng, sizes):
    layers = [Grid(np.sort(rng.normal(size=s))[:, None]) for s in sizes]
    initial = rng.random(sizes[0]) + 0.1
    initial /= initial.sum()
    transitions = []
    for k in range(len(sizes) - 1):
        p = rng.random((sizes[k], sizes[k + 1])) + 0.05
        p /= p.sum(axis=1, keepdims=True)
        transitions.append(p)
    like = lambda k, xp, yp, xn, yn: np.exp(-0.5 * (yn[0] - xn[..., 0]) ** 2)
    return FilterModel(layers=layers, initial=initial,
                       transitions=transitions, likelihood=like)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_bidask_benchmark(bidask_run, verdict):
    report, elapsed = bidask_run
    ok = (abs(report["y0_hat"] - BIDASK_REFERENCE[0]) <= 0.05
          and abs(report["z0_hat"] - BIDASK_REFERENCE[1]) <= 0.05
          and elapsed <= 300.0)
    verdict(1, f"bid-ask y0={report['y0_hat']:.4f} z0={report['z0_hat']:.4f}"
             f" ({elapsed:.0f}s)", ok)


def test_criterion_02_multidim_benchmark(multidim_run, verdict):
    report, elapsed = multidim_run
    errs = {r["N"]: r["y0_err"] for r in report["rows"]}
    fit = report["rate_fit"]
    slope = report["loglog_slope"]
    ok = (errs[150] <= 0.02
          and -0.85 <= slope <= -0.15
          and fit["residual"] < fit["constant_residual"]
          and elapsed <= 600.0)
    verdict(2, f"multidim err(150)={errs[150]:.4f} slope={slope:.2f}"
             f" ({elapsed:.0f}s)", ok)


def test_criterion_03_uniform_distortion_rate(verdict):
    worst = 0.0
    for N in (50, 100, 200):
        grid = newton_1d(Law1D.uniform01(), N)
        batch = ((np.arange(1_000_000) + 0.5) / 1_000_000)[:, None]
        e2 = ls_error(grid, SampleSource.from_batch(batch), 2.0)
        worst = max(worst, abs(N * e2 - ZADOR_2) / ZADOR_2)
    verdict(3, f"uniform N*e2 vs 1/(2*sqrt(3)), worst rel dev {worst:.2e}",
             worst <= 0.01)


def test_criterion_04_two_point_gaussian_grid(gaussian_batch, verdict):
    newton = newton_1d(Law1D.gaussian(), 2)
    newton_dev = np.abs(newton.points[:, 0] - [-GAUSS_2PT, GAUSS_2PT]).max()
    init = Grid(np.array([[-0.5], [0.5]]))
    grid, _, _ = lloyd(init, SampleSource.from_batch(gaussian_batch),
                       StopCriteria(max_iterations=1000))
    lloyd_dev = np.abs(np.sort(grid.points[:, 0])
                       - [-GAUSS_2PT, GAUSS_2PT]).max()
    ok = newton_dev <= 1e-8 and lloyd_dev <= 0.01
    verdict(4, f"2-point gaussian: newton dev {newton_dev:.1e},"
             f" lloyd dev {lloyd_dev:.1e}", ok)


def test_criterion_05_mismatch_order_2p5(gaussian_batch, verdict):
    src = SampleSource.from_batch(gaussian_batch)
    scaled = [N * ls_error(newton_1d(Law1D.gaussian(), N), src, 2.5)
              for N in (10, 25, 50, 100, 200)]
    ratio = max(scaled) / min(scaled)
    verdict(5, f"L^2.5 error on L^2-optimal grids, N*e spread {ratio:.3f}",
             ratio <= 3.0)


def test_criterion_06_companion_weight_statistics(verdict):
    centered = _brownian_chain(1_000_000, center=True)
    raw = _brownian_chain(1_000_000, center=False)
    dt = centered.mesh.dt

    worst_centered = 0.0
    within = total = 0
    for k in range(centered.mesh.steps):
        counts = np.rint(raw.marginals[k] * raw.mc_paths)
        alive = counts > 0
        c_sums = np.abs(centered.companions[k].sum(axis=1))[alive]
        worst_centered = max(worst_centered, float(c_sums.max()))
        r_sums = np.abs(raw.companions[k].sum(axis=1))[alive][:, 0]
        band = 4.0 * np.sqrt(dt / counts[alive])
        within += int((r_sums <= band).sum())
        total += int(alive.sum())
    ok = worst_centered <= 1e-12 and within >= math.ceil(0.99 * total)
    verdict(6, f"companion rows: centered max {worst_centered:.1e},"
             f" raw in-band {within}/{total}", ok)


def test_criterion_07_zero_driver_reduces_to_matrix_products(verdict):
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        sizes = list(rng.integers(1, 7, size=4))
        ch = _random_chain(rng, sizes)
        h = lambda pts: np.cos(pts[:, 0]) + pts[:, 0]
        sol = solve_bsde(ch, DriverSpec(f=lambda t, x, y, z: np.zeros_like(y)),
                         h)
        expect = h(ch.layers[-1].points)
        for k in reversed(range(3)):
            expect = ch.transitions[k] @ expect
        worst = max(worst, float(np.abs(sol.values[0] - expect).max()
                                 / (1.0 + np.abs(expect).max())))
    verdict(7, f"zero-driver solver vs matrix product, worst rel {worst:.1e}",
             worst <= 1e-12)


def test_criterion_08_forward_backward_identity(verdict):
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 6))
        sizes = list(rng.integers(1, 9, size=n + 1))
        model = _random_filter_model(rng, sizes)
        y = rng.normal(size=n + 1)
        f = rng.normal(size=sizes[-1])
        state = forward_filter(model, y)
        sign, log_abs = unnormalized_expectation(state, f)
        fwd = 0.0 if sign == 0.0 else sign * math.exp(log_abs)
        back = backward_expectation(model, y, f)
        worst = max(worst, abs(back - fwd) / (1e-300 + abs(back)))

    # brute-force path enumeration cross-check for n <= 3
    enum_worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 4))
        sizes = list(rng.integers(1, 5, size=n + 1))
        model = _random_filter_model(rng, sizes)
        y = rng.normal(size=n + 1)
        kernels = quantized_kernels(model, y)
        state = forward_filter(model, y)
        unnorm = np.zeros(sizes[-1])
        for path in itertools.product(*[range(s) for s in sizes]):
            w = model.initial[path[0]]
            for k in range(n):
                w *= kernels[k][path[k], path[k + 1]]
            unnorm[path[-1]] += w
        enum_worst = max(enum_worst, float(np.abs(
            state.weights[-1] - unnorm / unnorm.sum()).max()))
    ok = worst <= 1e-10 and enum_worst <= 1e-10
    verdict(8, f"forward/backward identity rel {worst:.1e},"
             f" path enumeration {enum_worst:.1e}", ok)


def test_criterion_09_filter_convergence(filter_run, verdict):
    report, elapsed = filter_run
    errs = {r["N"]: r["error"] for r in report["rows"]}
    seq = [errs[N] for N in (10, 25, 50, 100, 200)]
    slope = report["loglog_slope"]
    ok = (errs[100] <= 0.05
          and all(a >= b for a, b in zip(seq, seq[1:]))
          and slope <= -0.7
          and elapsed <= 120.0)
    verdict(9, f"filter vs closed form: err(100)={errs[100]:.2e},"
             f" slope={slope:.2f} ({elapsed:.0f}s)", ok)


def test_criterion_10_distortion_gradient_vs_fd(verdict):
    rng = np.random.default_rng(10)
    eps = 1e-5
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(2, 7))
        while True:
            pts = rng.integers(0, 6, size=(n, d)) * 1.5
            if len({tuple(p) for p in pts}) == n:
                break
        pts = pts.astype(float) + rng.normal(scale=0.01, size=pts.shape)
        batch = np.repeat(pts, 40, axis=0) \
            + rng.uniform(-0.1, 0.1, size=(n * 40, d))
        src = SampleSource.from_batch(batch)
        grid = Grid(pts)
        report = distortion_and_gradient(grid, src)
        assert report.cell_counts.min() > 0
        fd = np.zeros_like(pts)
        for i in range(n):
            for j in range(d):
                plus, minus = pts.copy(), pts.copy()
                plus[i, j] += eps
                minus[i, j] -= eps
                fd[i, j] = (distortion_and_gradient(Grid(plus), src).value
                            - distortion_and_gradient(Grid(minus), src).value
                            ) / (2.0 * eps)
        scale = max(1.0, float(np.abs(report.gradient).max()))
        worst = max(worst, float(np.abs(fd - report.gradient).max()) / scale)
    verdict(10, f"analytic gradient vs central differences, worst {worst:.1e}",
             worst <= 1e-6)


def test_criterion_11_error_bound_constants(verdict):
    bc = bound_constants(0.0, 0.0, 0.0, 1.0, 1.0, 5, 5, 1)
    dev_a = float(np.abs(bc.K - 1.0).max())
    bc = bound_constants(0.0, 0.0, 1.0, 0.0, 1.0, 1, 1, 1)
    ref = (4.0 / 9.0) * math.exp(3.0) + 34.0 / 9.0
    dev_b = abs(bc.K[0] - ref)
    ok = dev_a <= 1e-9 and dev_b <= 1e-9
    verdict(11, f"bound constants hand values, devs {dev_a:.1e} / {dev_b:.1e}",
             ok)
