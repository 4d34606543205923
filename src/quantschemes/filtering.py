"""Quantized nonlinear filter for a discrete-time signal observed through a
conditional density.

The signal chain is replaced by per-layer grids with transition matrices;
the observation enters through weighted kernels H_k[i, j] = g_k(x_i, y_{k-1},
x_j, y_k) p_k[i, j]. The filter follows either the forward recursion
pi_k = pi_{k-1} H_k (normalized per step, with a log-mass ledger) or the
equivalent backward recursion u_{k-1} = H_k u_k. Either needs one step at
a time, so H_k is formed for one step, applied in column (row) blocks and
dropped; the exact scalar model fills, checks and weights its transition
rows into H_k in the same threaded pass.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.special import ndtr

from .errors import DegenerateObservationError, InputError
# assign: unused, but test_wrappers_are_installed_everywhere_and_removed
# (perfbench) asserts that this module binds it
from .grids import (Grid, Law1D, _check_probabilities, _cpu_count,
                    _norm_pdf, _voronoi_edges, assign, newton_1d)  # noqa: F401

# likelihood(k, x_prev, y_prev, x_next, y_next) -> nonnegative array, where
# x_prev is (Ni, 1, d), x_next is (1, Nj, d) and the result broadcasts to
# (Ni, Nj); y_prev / y_next are the fixed observations at steps k-1 and k.
Likelihood = Callable[[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray],
                      np.ndarray]


@dataclass
class FilterModel:
    """Quantized signal (grids, initial weights, transitions) plus the
    observation likelihood.

    `transitions` is a stored list of matrices, checked here, or the
    `_ExactRows` of a scalar model, which builds and checks the matrix of
    step k each time it is asked for it. The filter forms each step's
    kernel H_k whole: as g_k * p_k from a stored matrix, or weighted by
    g_k in the buffer of the exact rows as they are filled.
    """

    layers: list[Grid]
    initial: np.ndarray
    transitions: Sequence[np.ndarray]
    likelihood: Likelihood

    def __post_init__(self):
        self.initial = np.asarray(self.initial, dtype=float)
        n = len(self.transitions)
        if len(self.layers) != n + 1:
            raise InputError("need one more layer than transition matrices")
        _check_probabilities(self.initial, (self.layers[0].size,),
                             "initial weights")
        if not isinstance(self.transitions, _ExactRows):
            for k, p in enumerate(self.transitions):
                _check_probabilities(p, (self.layers[k].size,
                                         self.layers[k + 1].size),
                                     f"transition {k}")

    @property
    def steps(self) -> int:
        return len(self.transitions)


@dataclass
class FilterState:
    """Per-step normalized filter weights and the log of the normalization
    mass removed at each step; their sum is log pi_n(1), the log-likelihood
    of the observation path under the quantized model."""

    weights: list[np.ndarray]
    log_masses: list[float]

    @property
    def log_mass_total(self) -> float:
        return float(sum(self.log_masses))

    def expectation(self, values: np.ndarray, k: int = -1) -> float:
        """Normalized filter applied to a function given by its values on
        the layer-k grid."""
        v = np.asarray(values, dtype=float)
        if v.shape != self.weights[k].shape:
            raise InputError("value vector shape mismatch")
        return float(self.weights[k] @ v)


def _check_observations(observations, steps):
    y = np.asarray(observations, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    if y.ndim != 2 or y.shape[0] != steps + 1:
        raise InputError("need one observation per layer (n+1 rows)")
    return y


def _likelihood(model: FilterModel, y: np.ndarray, k: int) -> np.ndarray:
    """g_k(x_i, y_{k-1}, x_j, y_k) for step k >= 1, with `y` already checked
    by `_check_observations`: checked as the model returns it, then
    broadcast (a read-only view) to the (N_{k-1}, N_k) shape of p_k."""
    xp = model.layers[k - 1].points[:, None, :]
    xn = model.layers[k].points[None, :, :]
    g = np.asarray(model.likelihood(k, xp, y[k - 1], xn, y[k]), dtype=float)
    if np.any(g < 0) or not np.all(np.isfinite(g)):
        raise InputError(f"likelihood at step {k} must be finite and >= 0")
    shape = (xp.shape[0], xn.shape[1])
    try:
        return np.broadcast_to(g, shape)
    except ValueError:
        raise InputError(f"likelihood at step {k} has shape {g.shape}, "
                         f"which does not broadcast to {shape}") from None


# Entries per block of `_product` (2 MiB), and of the scratch that all the
# threads of one `_gaussian_ar1_rows` call hold at once. OpenBLAS runs a
# matrix-vector product this small on one thread, so no BLAS thread is left
# spinning while the next step's rows are built.
_BLOCK_ENTRIES = 1 << 18


def _kernel(model: FilterModel, y: np.ndarray, k: int) -> np.ndarray:
    """H_k = g_k * p_k, held whole: filled, checked and weighted in the row
    threads of the exact scalar model, or the product of the likelihood
    and a stored transition matrix."""
    g = _likelihood(model, y, k)
    if isinstance(model.transitions, _ExactRows):
        return model.transitions.weighted(k - 1, g)
    return g * model.transitions[k - 1]


def _product(H: np.ndarray, v: np.ndarray, left: bool) -> np.ndarray:
    """v @ H (`left`) or H @ v, one column (row) block of H at a time.

    A block is a slice of H, of a width that is a multiple of 4 and at most
    about _BLOCK_ENTRIES entries. Each entry of the result is the one the
    single-threaded product of the whole H computes.
    """
    inner = H.shape[0] if left else H.shape[1]
    out = np.empty(H.shape[1] if left else H.shape[0])
    width = max(4, _BLOCK_ENTRIES // inner // 4 * 4)
    for s in range(0, out.size, width):
        if left:
            np.matmul(v, H[:, s:s + width], out=out[s:s + width])
        else:
            np.matmul(H[s:s + width], v, out=out[s:s + width])
    return out


def quantized_kernels(model: FilterModel, observations) -> list[np.ndarray]:
    """Observation-weighted transition kernels H_k[i, j] = g_k p_k[i, j],
    one (N_{k-1}, N_k) matrix per step k = 1..n."""
    y = _check_observations(observations, model.steps)
    return [_kernel(model, y, k) for k in range(1, model.steps + 1)]


def forward_filter(model: FilterModel, observations) -> FilterState:
    """Forward recursion pi_k = pi_{k-1} H_k with per-step renormalization.

    H_k is formed one step at a time and applied in column blocks.
    Raises DegenerateObservationError when the un-normalized mass vanishes.
    """
    y = _check_observations(observations, model.steps)
    pi = model.initial.copy()
    weights = [pi]
    log_masses = [0.0]
    for k in range(1, model.steps + 1):
        pi = _product(_kernel(model, y, k), pi, left=True)
        mass = pi.sum()
        if not np.isfinite(mass) or mass <= 0.0:
            raise DegenerateObservationError(k)
        pi = pi / mass
        weights.append(pi)
        log_masses.append(math.log(mass))
    return FilterState(weights=weights, log_masses=log_masses)


def backward_value(model: FilterModel, observations, terminal):
    """Backward recursion u_{k-1} = H_k u_k started from the terminal values
    on the last grid.

    Returns (u0, log_scale, log_u_minus_1): u0 on the initial grid scaled so
    that the true vector is u0 * exp(log_scale), and the signed log of
    u_{-1} = initial . u0, i.e. the un-normalized filter applied to the
    terminal function. log_u_minus_1 is (sign, log|value|). H_k is formed
    one step at a time, last step first, and applied in row blocks.
    """
    y = _check_observations(observations, model.steps)
    u = np.asarray(terminal, dtype=float)
    if u.shape != (model.layers[-1].size,):
        raise InputError("terminal values must live on the last grid")
    log_scale = 0.0
    for k in range(model.steps, 0, -1):
        u = _product(_kernel(model, y, k), u, left=False)
        peak = np.abs(u).max()
        if peak > 0.0 and (peak > 1e100 or peak < 1e-100):
            u = u / peak
            log_scale += math.log(peak)
    total = float(model.initial @ u)
    sign = float(np.sign(total))
    log_abs = -math.inf if total == 0.0 else math.log(abs(total)) + log_scale
    return u, log_scale, (sign, log_abs)


def backward_expectation(model: FilterModel, observations, terminal) -> float:
    """The un-normalized filter applied to the terminal function, resolved
    to a plain real via the backward recursion."""
    _, _, (sign, log_abs) = backward_value(model, observations, terminal)
    return 0.0 if sign == 0.0 else sign * math.exp(log_abs)


def unnormalized_expectation(state: FilterState, values: np.ndarray,
                             k: int = -1):
    """Un-normalized filter pi_k applied to a function on the layer-k grid,
    as (sign, log|value|) to stay overflow-safe."""
    v = float(state.expectation(values, k))
    upto = len(state.weights) + k if k < 0 else k
    log_mass = float(sum(state.log_masses[:upto + 1]))
    if v == 0.0:
        return 0.0, -math.inf
    return float(np.sign(v)), math.log(abs(v)) + log_mass


# ---------------------------------------------------------------------------
# reference scalar models: AR(1) signal, increment observations
# ---------------------------------------------------------------------------

@dataclass
class ScalarFilterModel:
    """Scalar benchmark: signal X_k = a X_{k-1} + b eps_k with X_0 ~
    N(m0, s0^2); observation Y_k = Y_{k-1} + link(X_{k-1}) + sigma_obs eta_k,
    Y_0 = 0. The conditional density of Y_k given the past is Gaussian in
    the increment, so g_k(x, y, x', y') = phi((y' - y - link(x)) / sigma) / sigma.
    """

    name: str
    steps: int
    link: Callable[[np.ndarray], np.ndarray]
    sigma_obs: float
    ar_coeff: float
    ar_noise: float
    x0_mean: float = 0.0
    x0_std: float = 1.0
    linear_link_coeff: Optional[float] = None  # set when link(x) = c x

    def simulate(self, seed: int):
        """One joint trajectory; returns (x (n+1,), y (n+1,))."""
        rng = np.random.default_rng(seed)
        x = np.empty(self.steps + 1)
        y = np.empty(self.steps + 1)
        x[0] = self.x0_mean + self.x0_std * rng.standard_normal()
        y[0] = 0.0
        for k in range(1, self.steps + 1):
            y[k] = y[k - 1] + float(self.link(np.array([x[k - 1]]))[0]) \
                + self.sigma_obs * rng.standard_normal()
            x[k] = self.ar_coeff * x[k - 1] + self.ar_noise * rng.standard_normal()
        return x, y

    def likelihood(self, k, x_prev, y_prev, x_next, y_next):
        z = (y_next[0] - y_prev[0] - self.link(x_prev[..., 0])) / self.sigma_obs
        return _norm_pdf(z) / self.sigma_obs

    def layer_moments(self):
        """Exact mean and std of X_k for k = 0..n."""
        means = np.empty(self.steps + 1)
        var = np.empty(self.steps + 1)
        means[0], var[0] = self.x0_mean, self.x0_std ** 2
        for k in range(1, self.steps + 1):
            means[k] = self.ar_coeff * means[k - 1]
            var[k] = self.ar_coeff ** 2 * var[k - 1] + self.ar_noise ** 2
        return means, np.sqrt(var)

    def build_filter(self, sizes: Sequence[int]) -> FilterModel:
        """Quantized filter model on per-layer optimal Gaussian grids.

        The cell masses are computed in closed form from the Gaussian AR(1)
        structure, and each step's transition rows when the filter asks for
        them.
        """
        sizes = [int(s) for s in sizes]
        if len(sizes) != self.steps + 1:
            raise InputError("need n+1 layer sizes")
        means, stds = self.layer_moments()
        base = {nk: newton_1d(Law1D.gaussian(), nk) for nk in set(sizes)}
        layers = [Grid(means[k] + stds[k] * base[nk].points)
                  for k, nk in enumerate(sizes)]
        initial = _gaussian_cell_masses(layers[0], means[0], stds[0])
        transitions = _ExactRows(layers, self.ar_coeff, self.ar_noise)
        return FilterModel(layers=layers, initial=initial,
                           transitions=transitions,
                           likelihood=self.likelihood)


def _gaussian_cell_masses(grid: Grid, mean: float, std: float) -> np.ndarray:
    edges = _voronoi_edges(grid.points[:, 0])
    cdf = ndtr((edges - mean) / std)
    w = np.diff(cdf)
    return w / w.sum()


def _gaussian_ar1_rows(prev: Grid, nxt: Grid, a: float, b: float,
                       weight: Optional[np.ndarray] = None,
                       what: str = "transition rows") -> np.ndarray:
    """Row i = exact law of a x_i + b eps over the Voronoi cells of `nxt`,
    checked as `_check_probabilities` checks a stored matrix, then times
    `weight` (an array of the result's shape, such as the read-only view
    that `_likelihood` returns) if one is given.

    Filled in row blocks, so that the only full-size array is the result;
    each row gets the bytes of the whole-matrix expression, as its values
    and its pairwise sum are the same, and the weighted rows those of
    `weight * rows`. A matrix of more than one block of _BLOCK_ENTRIES is
    split into blocks of _BLOCK_ENTRIES / threads, one thread per CPU, in a
    pool that is joined before the call returns or raises (a pool that
    outlived it would be a dead pool in a forked child); the ufuncs release
    the GIL, and no row depends on the split.
    """
    edges = _voronoi_edges(nxt.points[:, 0])
    centers = a * prev.points[:, 0]
    rows = np.empty((prev.size, nxt.size))
    height = max(1, _BLOCK_ENTRIES // edges.size)
    threads = min(_cpu_count(), -(-prev.size // height))
    if threads > 1:
        height = max(1, _BLOCK_ENTRIES // threads // edges.size)
    starts = range(0, prev.size, height)

    def fill(s):
        z = edges[None, :] - centers[s:s + height, None]
        z /= b
        ndtr(z, out=z)
        block = rows[s:s + height]
        np.subtract(z[:, 1:], z[:, :-1], out=block)
        block /= block.sum(axis=1, keepdims=True)
        _check_probabilities(block, block.shape, what)
        if weight is not None:
            block *= weight[s:s + height]

    if threads > 1:
        with ThreadPoolExecutor(threads) as pool:
            list(pool.map(fill, starts))
    else:
        for s in starts:
            fill(s)
    return rows


class _ExactRows(Sequence):
    """The transition matrices of the exact scalar model: item k is built by
    `_gaussian_ar1_rows` and checked each time it is asked for, and none is
    stored."""

    def __init__(self, layers: list[Grid], a: float, b: float):
        self.layers, self.a, self.b = layers, a, b

    def __len__(self) -> int:
        return len(self.layers) - 1

    def __getitem__(self, k: int) -> np.ndarray:
        k = range(len(self))[k]  # IndexError past the end ends iteration
        return self.weighted(k)

    def weighted(self, k: int,
                 weight: Optional[np.ndarray] = None) -> np.ndarray:
        """Matrix k times `weight`, in the buffer that holds its rows."""
        return _gaussian_ar1_rows(self.layers[k], self.layers[k + 1],
                                  self.a, self.b, weight, f"transition {k}")


def builtin_models(name: str, steps: int = 10) -> ScalarFilterModel:
    """Benchmark models: "linear-gaussian" (link x -> x, Kalman-checkable)
    and "sin-cube" (bounded non-Lipschitz link x -> sin(x^3))."""
    if name == "linear-gaussian":
        return ScalarFilterModel(name=name, steps=steps,
                                 link=lambda x: np.asarray(x, dtype=float),
                                 sigma_obs=0.5, ar_coeff=0.9, ar_noise=0.4,
                                 linear_link_coeff=1.0)
    if name == "sin-cube":
        return ScalarFilterModel(name=name, steps=steps,
                                 link=lambda x: np.sin(np.asarray(x, dtype=float) ** 3),
                                 sigma_obs=0.5, ar_coeff=0.9, ar_noise=0.4)
    raise InputError(f"unknown builtin model {name!r}")


def kalman_posterior(model: ScalarFilterModel, observations):
    """Exact posterior mean and variance of X_n given the observations, for
    a linear link. Each increment y_k - y_{k-1} = c X_{k-1} + sigma eta_k is
    a measurement of X_{k-1}: update on it, then predict one step forward.
    """
    if model.linear_link_coeff is None:
        raise InputError("closed-form posterior needs a linear link")
    c, s2 = model.linear_link_coeff, model.sigma_obs ** 2
    y = np.asarray(observations, dtype=float).reshape(-1)
    if y.shape[0] != model.steps + 1:
        raise InputError("need n+1 scalar observations")
    m, P = model.x0_mean, model.x0_std ** 2
    for k in range(1, model.steps + 1):
        z = y[k] - y[k - 1]
        gain = P * c / (c * c * P + s2)
        m = m + gain * (z - c * m)
        P = (1.0 - gain * c) * P
        m = model.ar_coeff * m
        P = model.ar_coeff ** 2 * P + model.ar_noise ** 2
    return m, P
