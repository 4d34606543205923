"""Euler-scheme simulation and Monte Carlo estimation of the quantization
tree: per-layer grids, marginal weights, transition matrices and the
Brownian companion weight tensors.

Coefficient functions are vectorized over paths: drift(t, x) maps an
(M, d) state block to (M, d); diffusion(t, x) maps it to (M, d, q).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import InputError, NumericError, ParseError
from .grids import (Grid, Law1D, SampleSource, StopCriteria,
                    _check_probabilities, _distinct_rows, _newton_residual,
                    assign, cell_sums, lloyd, newton_1d)


@dataclass
class DiffusionModel:
    """Coefficients of dX = b(t, X) dt + sigma(t, X) dW with declared
    Lipschitz constants (used by the error-bound calculator)."""

    dim_x: int
    dim_w: int
    drift: Callable[[float, np.ndarray], np.ndarray]
    diffusion: Callable[[float, np.ndarray], np.ndarray]
    x0: np.ndarray
    lip_b: float = 0.0
    lip_sigma: float = 0.0

    def __post_init__(self):
        if self.dim_x < 1 or self.dim_w < 1:
            raise InputError(f"state and noise dimensions must be >= 1, "
                             f"got {self.dim_x} and {self.dim_w}")
        self.x0 = np.asarray(self.x0, dtype=float).reshape(-1)
        if self.x0.shape[0] != self.dim_x:
            raise InputError("x0 dimension mismatch")
        # the probe checks shapes only: a non-finite value is left to the
        # simulation, which raises NumericError for it
        probe = np.tile(self.x0, (2, 1))
        with np.errstate(all="ignore"):
            b = np.asarray(self.drift(0.0, probe), dtype=float)
            s = np.asarray(self.diffusion(0.0, probe), dtype=float)
        if b.shape != (2, self.dim_x):
            raise InputError("drift must map (M, d) -> (M, d)")
        if s.shape != (2, self.dim_x, self.dim_w):
            raise InputError("diffusion must map (M, d) -> (M, d, q)")


# ---------------------------------------------------------------------------
# builtin models, keyed by name in MODELS
# ---------------------------------------------------------------------------

def gbm(mu: float = 0.05, sigma: float = 0.2,
        x0: float = 100.0) -> DiffusionModel:
    """Geometric Brownian motion dX = mu X dt + sigma X dW."""
    return DiffusionModel(1, 1, lambda t, x: mu * x,
                          lambda t, x: sigma * x[..., None], [x0],
                          lip_b=abs(mu), lip_sigma=abs(sigma))


def ou(kappa: float = 1.0, sigma: float = 1.0,
       x0: float = 0.0) -> DiffusionModel:
    """Ornstein-Uhlenbeck process dX = -kappa X dt + sigma dW."""
    return DiffusionModel(1, 1, lambda t, x: -kappa * x,
                          lambda t, x: sigma * np.ones(x.shape + (1,)), [x0],
                          lip_b=abs(kappa), lip_sigma=0.0)


def brownian(dim: int = 1) -> DiffusionModel:
    """Standard Brownian motion in R^dim started at the origin."""
    return DiffusionModel(
        dim, dim, lambda t, x: np.zeros_like(x),
        lambda t, x: np.broadcast_to(np.eye(dim), x.shape + (dim,)),
        # a dim below 1 is DiffusionModel's InputError; [0.0] * dim would
        # raise OverflowError below -2**63
        [0.0] * max(dim, 0))


MODELS = {"gbm": gbm, "ou": ou, "brownian": brownian}


@dataclass(frozen=True)
class TimeMesh:
    horizon: float
    steps: int

    def __post_init__(self):
        if not (np.isfinite(self.horizon) and self.horizon > 0) or self.steps < 1:
            raise InputError("need a finite horizon > 0 and steps >= 1")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.steps + 1)


@dataclass
class QuantizedChain:
    """Time mesh, per-layer grids, and the Monte Carlo weight estimates.

    layers[k] holds the points of layer k only; marginals[k] is the one
    home of its weights p^k. transitions[k] is the N_k x N_{k+1}
    row-stochastic matrix p^k_{ij}; companions[k] is the N_k x N_{k+1} x q
    tensor of Brownian companion weights. dead_rows[k] lists cells never
    visited at layer k (their rows fall back to uniform with zero
    companions).
    """

    mesh: TimeMesh
    layers: list[Grid]
    marginals: list[np.ndarray]
    transitions: list[np.ndarray]
    companions: list[np.ndarray]
    mc_paths: int
    seed: int
    centered: bool
    dead_rows: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self):
        n = self.mesh.steps
        if len(self.layers) != n + 1 or len(self.marginals) != n + 1:
            raise InputError("need n+1 layers and marginals")
        if len(self.transitions) != n or len(self.companions) != n:
            raise InputError("need n transition and companion arrays")
        if not self.dead_rows:
            self.dead_rows = [np.empty(0, dtype=np.int64) for _ in range(n)]
        sizes = self.sizes
        for k in range(n + 1):
            _check_probabilities(self.marginals[k], (sizes[k],),
                                 f"marginal {k}")
        for k in range(n):
            shape = (sizes[k], sizes[k + 1])
            _check_probabilities(self.transitions[k], shape, f"transition {k}")
            if self.companions[k].shape[:2] != shape:
                raise InputError(f"companion {k} shape mismatch")

    @property
    def dim_x(self) -> int:
        return self.layers[0].dim

    @property
    def dim_w(self) -> int:
        return self.companions[0].shape[2]

    @property
    def sizes(self) -> list[int]:
        return [g.size for g in self.layers]


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def euler_paths(model: DiffusionModel, mesh: TimeMesh, num_paths: int,
                seed: int):
    """Euler scheme X_{k+1} = X_k + dt b(t_k, X_k) + sigma(t_k, X_k) dW.

    Returns (paths (M, n+1, d), increments (M, n, q)); the increments are
    exactly those consumed by the recursion. Reproducible for a given seed.
    """
    steps = list(_euler_steps(model, mesh, num_paths, seed))
    return (np.stack([x for _, x, _ in steps], axis=1),
            np.stack([dw for _, _, dw in steps[:-1]], axis=1))


def _euler_steps(model: DiffusionModel, mesh: TimeMesh, num_paths: int,
                 seed: int):
    """The Euler scheme of `euler_paths`, one step at a time: yields
    (k, X_k (M, d), dW_k (M, q)) for k = 0..n, with dW_n None."""
    if num_paths < 1:
        raise InputError("num_paths must be >= 1")
    rng = np.random.default_rng(seed)
    n, q, dt = mesh.steps, model.dim_w, mesh.dt
    sq = np.sqrt(dt)
    times = mesh.times
    x = np.tile(model.x0, (num_paths, 1))
    for k in range(n):
        b, s = _coefficients(model, k, times[k], x, "path")
        dw = sq * rng.standard_normal((num_paths, q))
        yield k, x, dw
        with np.errstate(over="ignore", invalid="ignore"):
            x = x + dt * b + np.einsum("mdq,mq->md", s, dw)
    yield n, x, None


def _coefficients(model: DiffusionModel, k: int, t: float, x: np.ndarray,
                  row: str):
    """b(t, x) (M, d) and sigma(t, x) (M, d, q) at step k; NumericError
    naming the first `row` of x with a non-finite value. Overflow is
    reported by this check, not by numpy warnings."""
    with np.errstate(over="ignore", invalid="ignore"):
        b = np.asarray(model.drift(t, x), dtype=float)
        s = np.asarray(model.diffusion(t, x), dtype=float)
    if not (np.all(np.isfinite(b)) and np.all(np.isfinite(s))):
        bad = int(np.flatnonzero(~np.isfinite(b).all(axis=-1)
                                 | ~np.isfinite(s).all(axis=(-2, -1)))[0])
        raise NumericError(f"non-finite coefficient at step {k}, {row} {bad}")
    return b, s


# ---------------------------------------------------------------------------
# layer grids
# ---------------------------------------------------------------------------

# Lloyd's stop criteria for the layer grids of build_layer_grids and for
# the base grid of the multidim experiment
_LAYER_STOP = StopCriteria(max_iterations=60,
                           relative_distortion_tolerance=1e-6,
                           stationarity_tolerance=1e-6)


def build_layer_grids(model: DiffusionModel, mesh: TimeMesh,
                      sizes: Sequence[int], sample_budget: int = 100_000,
                      seed: int = 0) -> list[Grid]:
    """One Lloyd grid per time layer, fitted to the layer's law.

    In 1-D that law is exact (`_exact_layer_grids`): no sample is drawn,
    and `sample_budget` and `seed` are not read. In d >= 2 each grid is
    fitted to the empirical layer marginal of a fresh Euler simulation of
    `sample_budget` paths. Each layer is fitted as `_euler_steps` yields it
    and then dropped, so only one (M, d) layer of samples is held, whatever
    the step count. The starting points come from their own generator
    (seed + 1), so the samples are those of `euler_paths` with the same
    seed.

    A grid mapped from a base N(0, I) grid needs no builder:
    `[Grid(model.x0[None, :])] + [Grid(f(t, base.points)) for t in
    mesh.times[1:]]`.
    """
    sizes = [int(s) for s in sizes]
    if len(sizes) != mesh.steps + 1 or any(s < 1 for s in sizes):
        raise InputError("sizes must list n+1 positive layer sizes")
    if model.dim_x == 1:
        return _exact_layer_grids(model, mesh, sizes)
    rng = np.random.default_rng(seed + 1)
    out = []
    for k, layer, _ in _euler_steps(model, mesh, sample_budget, seed):
        nk = sizes[k]
        if _distinct_rows(layer) <= nk:
            # degenerate support (e.g. sigma = 0): the support itself
            out.append(Grid(np.unique(layer, axis=0)))
            continue
        init = layer[rng.choice(layer.shape[0], size=nk, replace=False)]
        while _distinct_rows(init) != nk:
            init = layer[rng.choice(layer.shape[0], size=nk, replace=False)]
        g, _, _ = lloyd(Grid(init), SampleSource.from_batch(layer),
                        _LAYER_STOP)
        out.append(Grid(g.points))
    return out


def _exact_layer_grids(model: DiffusionModel, mesh: TimeMesh,
                       sizes: list[int]) -> list[Grid]:
    """Recursive marginal quantization of a 1-D model (Pages & Sagna,
    2015): given layer k's points x_i and weights p_i, one Euler step has
    the law sum_i p_i N(x_i + b(x_i) dt, |sigma(x_i)|^2 dt)
    (`Law1D.gaussian_mixture`). Layer k + 1 is fitted to that law by
    `_law_lloyd`, from the law's moment-matched Gaussian grid (mean + sd
    times the Newton N(0, 1) grid of its size), and its cell masses under
    the law are the next step's weights. Where sd is below the float
    spacing at the mean, that grid has fewer distinct points, and so has
    the layer, as a sampled layer with fewer distinct rows than its size
    is its support in d >= 2.

    A step whose stds are all zero moves the layer without noise: the
    next layer is that support (InputError if it has more points than the
    layer's size). A step that mixes zero and positive stds has no density
    and raises InputError. A non-finite coefficient, an Euler law whose
    variance overflows and a fitted grid that overflows raise
    NumericError. Any of these names the step.
    """
    dt = mesh.dt
    x, p = model.x0.copy(), np.ones(1)
    out = [Grid(x[:, None])]
    base = {}
    for k in range(mesh.steps):
        nk = sizes[k + 1]
        b, sig = _coefficients(model, k, mesh.times[k], x[:, None],
                               "grid point")
        # overflow is reported by the finiteness check, not by numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            m = x + dt * b[:, 0]
            s = np.sqrt(dt * np.sum(sig[:, 0, :] ** 2, axis=1))
            mean = float(p @ m)
            var = float(p @ (s * s + (m - mean) ** 2))
        if not (np.all(np.isfinite(m)) and np.isfinite(var)):
            raise NumericError(f"the variance of the Euler law of step {k} "
                               f"overflows")
        if not np.any(s > 0):
            x, cell = np.unique(m, return_inverse=True)
            if x.size > nk:
                raise InputError(f"step {k} moves the layer without noise "
                                 f"onto {x.size} points, more than its "
                                 f"size {nk}")
            p = np.bincount(cell, weights=p, minlength=x.size)
        elif not np.all(s > 0):
            raise InputError(f"step {k} mixes zero and positive diffusion: "
                             f"its Euler law has no density")
        else:
            if nk not in base:
                base[nk] = newton_1d(Law1D.gaussian(), nk).points[:, 0]
            with np.errstate(over="ignore", invalid="ignore"):
                x = np.unique(mean + np.sqrt(var) * base[nk])
            x, p = _law_lloyd(Law1D.gaussian_mixture(p, m, s), x)
            if not (np.all(np.isfinite(x)) and np.all(np.isfinite(p))):
                raise NumericError(f"the grid fitted to the Euler law of "
                                   f"step {k} overflows")
        out.append(Grid(x[:, None]))
    return out


def _law_lloyd(law, x: np.ndarray):
    """Lloyd's sweeps x_j <- (K(m_{j+1}) - K(m_j)) / (F(m_{j+1}) - F(m_j))
    on a scalar law, from sorted points x with midpoints m_j, through
    `_newton_residual`. Stops when no point would move by more than
    `_LAYER_STOP.stationarity_tolerance` (1 + |x_j|), or after
    `_LAYER_STOP.max_iterations` sweeps, with no error at the cap. A cell
    of zero computed mass keeps its point, and every new point is held in
    its cell, so the points stay sorted. Returns the points and their cell
    masses, with a mass that rounds below 0 set to 0."""
    stop = _LAYER_STOP
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        grad, mass, mid = _newton_residual(x, law)
        for _ in range(stop.max_iterations):
            move = np.divide(grad, 2.0 * mass, out=np.zeros_like(x),
                             where=mass > 0)
            if np.all(np.abs(move)
                      <= stop.stationarity_tolerance * (1.0 + np.abs(x))):
                break
            x = np.clip(x - move, np.concatenate(([-np.inf], mid)),
                        np.concatenate((mid, [np.inf])))
            grad, mass, mid = _newton_residual(x, law)
    return x, np.maximum(mass, 0.0)


# ---------------------------------------------------------------------------
# weight estimation
# ---------------------------------------------------------------------------

def estimate_companions(model: DiffusionModel, mesh: TimeMesh,
                        layers: Sequence[Grid], num_paths: int, seed: int,
                        center: bool = True) -> QuantizedChain:
    """Single-pass Monte Carlo estimation of marginal, transition and
    companion weights on the given layer grids, one Euler step at a time
    (only one layer pair of paths is ever held).

    All three families come from the same Euler paths, which makes the
    marginal recursion p^{k+1} = p^k P^k exact. Unvisited cells get a
    uniform fallback row with zero companions and are listed in dead_rows.
    """
    if len(layers) != mesh.steps + 1:
        raise InputError("need n+1 layer grids")
    marginals, transitions, companions, dead = [], [], [], []
    for k, x, dw in _euler_steps(model, mesh, num_paths, seed):
        idx = assign(layers[k], x)[0]
        counts = np.bincount(idx, minlength=layers[k].size)
        marginals.append(counts / num_paths)
        if k > 0:
            trans, pi, deadk = joint_transitions(idx_prev, idx, counts_prev,
                                                 layers[k].size, dw_prev)
            if center:
                # dead rows are zero and stay zero
                pi -= pi.sum(axis=1, keepdims=True) / pi.shape[1]
            transitions.append(trans)
            companions.append(pi)
            dead.append(deadk)
        idx_prev, counts_prev, dw_prev = idx, counts, dw
    return QuantizedChain(mesh=mesh, layers=[Grid(g.points) for g in layers],
                          marginals=marginals, transitions=transitions,
                          companions=companions, mc_paths=num_paths, seed=seed,
                          centered=center, dead_rows=dead)


def joint_transitions(idx_prev: np.ndarray, idx_next: np.ndarray,
                      counts: np.ndarray, size_next: int,
                      increments: np.ndarray):
    """Transition rows p_ij = #(i -> j) / #i and companion means
    sum(dW 1_{i -> j}) / #i from the cells that the same M paths visit at
    two consecutive layers.

    counts[i] = #i is the number of paths in cell i of the earlier layer;
    increments is the paths' (M, q) block of Brownian increments (q may be
    0). Returns (rows, companions (N_prev, N_next, q), dead rows): a cell no
    path visits gets a uniform row and zero companions.
    """
    size_prev = counts.shape[0]
    joint, sums = cell_sums(idx_prev * size_next + idx_next,
                            size_prev * size_next, increments)
    joint = joint.reshape(size_prev, size_next)
    pi = sums.reshape(size_prev, size_next, increments.shape[1])
    row = counts.astype(float)
    alive = row > 0
    rows = np.divide(joint, row[:, None], where=alive[:, None],
                     out=np.zeros((size_prev, size_next)))
    pi = np.divide(pi, row[:, None, None], where=alive[:, None, None], out=pi)
    dead = np.flatnonzero(~alive)
    rows[dead] = 1.0 / size_next
    pi[dead] = 0.0
    return rows, pi, dead


# ---------------------------------------------------------------------------
# chain file I/O
# ---------------------------------------------------------------------------

_MAGIC = "quantized-chain-v1"


def save_chain(chain: QuantizedChain, path, binary: bool = False) -> None:
    """Self-describing chain container; text (17 significant digits) or the
    little-endian float64 binary variant for large chains.

    Layout after the three header lines (magic/mode, metadata, layer sizes,
    dead-row counts): per layer the grid points and marginal, then per step
    the transition matrix, companion tensor and dead-row index list, all as
    flat row-major streams.
    """
    n = chain.mesh.steps
    header = (f"{_MAGIC} {'bin' if binary else 'txt'}\n"
              f"{chain.dim_x} {chain.dim_w} {n} {chain.mesh.horizon:.17g} "
              f"{chain.seed} {chain.mc_paths} {int(chain.centered)}\n"
              + " ".join(str(s) for s in chain.sizes) + "\n"
              + " ".join(str(dr.size) for dr in chain.dead_rows) + "\n")
    blocks = []
    for k in range(n + 1):
        blocks.append(chain.layers[k].points)
        blocks.append(chain.marginals[k])
    for k in range(n):
        blocks.append(chain.transitions[k])
        blocks.append(chain.companions[k])
        blocks.append(chain.dead_rows[k].astype(float))
    if binary:
        with open(path, "wb") as fh:
            fh.write(header.encode())
            for b in blocks:
                fh.write(np.asarray(b, dtype="<f8").tobytes())
    else:
        with open(path, "w") as fh:
            fh.write(header)
            for b in blocks:
                flat = np.asarray(b, dtype=float).ravel()
                fh.write(" ".join(map("{:.17g}".format, flat.tolist()))
                         + "\n")


def load_chain(path) -> QuantizedChain:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read chain file: {exc}") from exc
    try:
        nl = [raw.index(b"\n")]
        for _ in range(3):
            nl.append(raw.index(b"\n", nl[-1] + 1))
    except ValueError:
        raise ParseError("truncated chain header", line=1)
    header = []
    for line, (lo, hi) in enumerate(zip([0] + [i + 1 for i in nl], nl), 1):
        try:
            header.append(raw[lo:hi].decode().split())
        except UnicodeDecodeError:
            raise ParseError("chain header is not UTF-8 text", line=line)
    magic, meta = header[0], header[1]
    if len(magic) != 2 or magic[0] != _MAGIC:
        raise ParseError("not a chain file", line=1)
    binary = magic[1] == "bin"
    if len(meta) != 7:
        raise ParseError("bad chain metadata", line=2)
    try:
        d, q, n, seed, mc_paths, centered = (int(meta[i])
                                              for i in (0, 1, 2, 4, 5, 6))
        horizon = float(meta[3])
    except ValueError:
        raise ParseError("non-numeric chain metadata", line=2)
    if not (np.isfinite(horizon) and horizon > 0):
        raise ParseError("horizon must be finite and > 0", line=2)
    if d < 1 or q < 1:
        raise ParseError("state and noise dimensions must be positive", line=2)
    if centered not in (0, 1):
        raise ParseError("centered flag must be 0 or 1", line=2)
    sizes = _counts(header[2], 3, "layer size", minimum=1)
    if len(sizes) != n + 1:
        raise ParseError("layer size list length mismatch", line=3)
    dead_counts = _counts(header[3], 4, "dead-row count", minimum=0)
    if len(dead_counts) != n:
        raise ParseError("dead-row count list length mismatch", line=4)
    shapes = []
    for k in range(n + 1):
        shapes.append((sizes[k], d))
        shapes.append((sizes[k],))
    for k in range(n):
        shapes.append((sizes[k], sizes[k + 1]))
        shapes.append((sizes[k], sizes[k + 1], q))
        shapes.append((dead_counts[k],))
    body = raw[nl[3] + 1:]
    if binary:
        if len(body) % 8:
            raise ParseError(f"binary body of {len(body)} bytes is not a "
                             "whole number of float64 values", line=5)
        vals = np.frombuffer(body, dtype="<f8")
        total = sum(int(np.prod(s)) for s in shapes)
        if vals.size != total:
            raise ParseError(f"expected {total} values, got {vals.size}", line=5)
        arrays, pos = [], 0
        for s in shapes:
            cnt = int(np.prod(s))
            arrays.append(vals[pos:pos + cnt].reshape(s).copy())
            pos += cnt
    else:
        lines = body.split(b"\n")
        arrays = []
        for li, s in enumerate(shapes):
            cnt = int(np.prod(s))
            try:
                parts = lines[li].decode().split()
            except IndexError:
                raise ParseError("truncated chain file", line=5 + li)
            except UnicodeDecodeError:
                raise ParseError("chain body is not UTF-8 text", line=5 + li)
            if len(parts) != cnt:
                raise ParseError(f"expected {cnt} values, got {len(parts)}",
                                 line=5 + li)
            try:
                arrays.append(np.array([float(p) for p in parts]).reshape(s))
            except ValueError:
                raise ParseError("non-numeric value", line=5 + li)
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise ParseError("non-finite value in chain body")
    layers = [Grid(arrays[2 * k]) for k in range(n + 1)]
    marginals = [arrays[2 * k + 1] for k in range(n + 1)]
    tr, co, dr = [], [], []
    base = 2 * (n + 1)
    for k in range(n):
        tr.append(arrays[base + 3 * k])
        co.append(arrays[base + 3 * k + 1])
        rows = arrays[base + 3 * k + 2]
        if np.any((rows % 1 != 0) | (rows < 0) | (rows >= sizes[k])):
            raise ParseError(f"dead rows of step {k} are not cell indices")
        dr.append(rows.astype(np.int64))
    return QuantizedChain(mesh=TimeMesh(horizon, n), layers=layers,
                          marginals=marginals, transitions=tr, companions=co,
                          mc_paths=mc_paths, seed=seed, centered=bool(centered),
                          dead_rows=dr)


def _counts(fields, line, what, minimum):
    try:
        values = [int(v) for v in fields]
    except ValueError:
        raise ParseError(f"non-integer {what}", line=line)
    if any(v < minimum for v in values):
        raise ParseError(f"{what} below {minimum}", line=line)
    return values
