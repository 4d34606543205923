"""Reference experiments: a bid-ask pricing study on a geometric Brownian
model, a multidimensional example with a known exact solution, and a scalar
filtering demo with a Kalman cross-check, plus the rate-regression used to
summarize error-vs-grid-size sweeps.

Every report embeds its config, seed and package versions so reruns are
reproducible; sweep points are independent and run in parallel processes.
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .bsde import DriverSpec, solve_bsde
from .chain import (_LAYER_STOP, TimeMesh, brownian, estimate_companions,
                    gbm)
from .errors import InputError, NumericError
from .filtering import builtin_models, forward_filter, kalman_posterior
from .grids import (Grid, Law1D, SampleSource, _cpu_count, lloyd,
                    newton_1d)

# benchmark reference values for the bid-ask study and the closed-form
# solution of the multidimensional example
BIDASK_REFERENCE = (2.96, 0.55)
MULTIDIM_Y0 = 0.5
MULTIDIM_Z0 = 0.25          # e0 / (1 + e0)^2 with e0 = 1
MULTIDIM_Z0_REPORTED = 0.24  # value quoted by the benchmark table


@dataclass
class ExperimentConfig:
    name: str
    n: int
    grid_size: int = 150
    mc_paths: int = 1_000_000
    seed: int = 0
    sweep: Optional[list[int]] = None       # uniform sizes to sweep over
    out: Optional[str] = None
    dim: int = 2                            # multidim study
    model: str = "linear-gaussian"          # filter demo
    base_batch: int = 1_000_000             # Lloyd sample budget (dim >= 2)
    workers: int = 0                        # 0 = one process per sweep point

    def __post_init__(self):
        for key in ("n", "grid_size", "mc_paths", "seed", "dim", "base_batch",
                    "workers"):
            setattr(self, key, _integer(getattr(self, key), key))
        if self.sweep is not None:
            if (isinstance(self.sweep, str)
                    or not isinstance(self.sweep, Sequence)):
                raise InputError(f"sweep must be a list of integers, "
                                 f"got {self.sweep!r}")
            self.sweep = [_integer(v, "sweep") for v in self.sweep]
            if not self.sweep:
                raise InputError("sweep must list at least one grid size")
        if self.n < 1:
            raise InputError("n must be >= 1")
        if self.mc_paths < 1:
            raise InputError("mc_paths must be >= 1")
        if self.seed < 0 or self.workers < 0:
            raise InputError("seed and workers must be >= 0")
        if self.out is not None and not isinstance(self.out, (str, os.PathLike)):
            raise InputError(f"out must be a directory path, got {self.out!r}")
        for v in [self.grid_size] + (self.sweep or []):
            if v < 1:
                raise InputError("grid sizes must be >= 1")

    def sweep_sizes(self) -> list[int]:
        return [int(v) for v in (self.sweep or [self.grid_size])]


# the ExperimentConfig keys each experiment reads: the keys its report's
# provenance lists and the config keys its CLI subcommand accepts
READS = {
    "bidask": "n grid_size mc_paths seed sweep out workers",
    "multidim": "n grid_size mc_paths seed sweep out workers dim base_batch",
    "filter-demo": "n grid_size seed sweep out workers model",
}


def _integer(value, key: str) -> int:
    """The one integer rule for config values: an int, an integral finite
    float or an integer string. A bool, a non-finite or a non-integral
    value is an InputError, never truncated."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            number = int(value)
            if isinstance(value, str) or number == value:
                return number
        except (TypeError, ValueError, OverflowError):
            pass
    raise InputError(f"{key} must be an integer, got {value!r}")


def _real(value, key: str) -> float:
    """The one float rule for config values, beside `_integer`'s: a number
    or a numeric string. A bool, a list or any other value is an
    InputError, and so is a nan or an infinity."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            number = float(value)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if math.isfinite(number):
                return number
            raise InputError(f"{key} must be a finite number, got {value!r}")
    raise InputError(f"{key} must be a number, got {value!r}")


@dataclass
class RateFit:
    """Least-squares fit error ~ a_hat * N^exponent + b_hat, with the RMS
    residual of the fit and of the best constant model for comparison."""

    a_hat: float
    b_hat: float
    exponent: float
    residual: float
    constant_residual: float


def fit_rate(pairs: Sequence[tuple[float, float]], exponent: float) -> RateFit:
    """Regress error against (N^exponent, 1). Needs >= 3 pairs with
    distinct positive N and finite values; a rank-deficient design is an
    input error, and an N^exponent or a fit that overflows a NumericError."""
    pts = np.asarray(pairs, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
        raise InputError("need at least 3 (N, error) pairs")
    if not (np.all(np.isfinite(pts)) and math.isfinite(exponent)):
        raise InputError("N, error and exponent must be finite")
    N, err = pts[:, 0], pts[:, 1]
    if np.any(N <= 0):
        raise InputError("N values must be positive")
    if len(np.unique(N)) != len(N):
        raise InputError("N values must be distinct")
    with np.errstate(over="ignore"):
        design = np.column_stack([N ** exponent, np.ones_like(N)])
    if not np.all(np.isfinite(design)):
        raise NumericError(f"N ** exponent overflows in the regression "
                           f"design (exponent {exponent!r})")
    if np.linalg.matrix_rank(design) < 2:
        raise InputError("rank-deficient regression design")
    with np.errstate(all="ignore"):
        coef, *_ = np.linalg.lstsq(design, err, rcond=None)
        resid = float(np.sqrt(np.mean((design @ coef - err) ** 2)))
        const = float(np.sqrt(np.mean((err - err.mean()) ** 2)))
    if not np.all(np.isfinite([*coef, resid, const])):
        raise NumericError("the rate fit overflows: errors this large have "
                           "no finite least-squares fit")
    return RateFit(a_hat=float(coef[0]), b_hat=float(coef[1]),
                   exponent=float(exponent), residual=resid,
                   constant_residual=const)


def loglog_slope(pairs: Sequence[tuple[float, float]]) -> float:
    """Slope of log(error) against log(N)."""
    pts = np.asarray(pairs, dtype=float)
    if np.any(pts <= 0):
        raise InputError("log-log slope needs positive pairs")
    return float(np.polyfit(np.log(pts[:, 0]), np.log(pts[:, 1]), 1)[0])


# ---------------------------------------------------------------------------
# bid-ask study: GBM state, nonlinear lending/borrowing driver
# ---------------------------------------------------------------------------

_BIDASK = dict(x0=100.0, big_rate=0.06, rate=0.01, mu=0.05, sigma=0.2,
               T=0.25, k1=95.0, k2=105.0)


def _bidask_terminal(pts):
    x = pts[:, 0]
    p = _BIDASK
    return np.maximum(x - p["k1"], 0.0) - 2.0 * np.maximum(x - p["k2"], 0.0)


def _bidask_driver(t, x, y, z):
    p = _BIDASK
    zz = z[:, 0]
    return (-p["rate"] * y - (p["mu"] - p["rate"]) / p["sigma"] * zz
            - (p["big_rate"] - p["rate"]) * np.minimum(y - zz / p["sigma"], 0.0))


def _bidask_point(args):
    size, n, mc_paths, seed = args
    p = _BIDASK
    model = gbm(p["mu"], p["sigma"], p["x0"])
    mesh = TimeMesh(p["T"], n)
    base = newton_1d(Law1D.gaussian(), size)
    # the lognormal law of X_t, as a map of N(0, 1)
    layers = [Grid(model.x0[None, :])] + [
        Grid(p["x0"] * np.exp((p["mu"] - 0.5 * p["sigma"] ** 2) * t
                              + p["sigma"] * math.sqrt(t) * base.points))
        for t in mesh.times[1:]]
    chain = estimate_companions(model, mesh, layers, mc_paths, seed)
    sol = solve_bsde(chain, DriverSpec(f=_bidask_driver), _bidask_terminal)
    return {"N": size, "y0": sol.y0, "z0": float(sol.z0[0]),
            "y0_err": abs(sol.y0 - BIDASK_REFERENCE[0]),
            "z0_err": abs(float(sol.z0[0]) - BIDASK_REFERENCE[1])}


def run_bidask(config: ExperimentConfig) -> dict:
    rows = _run_points(_bidask_point,
                       [(N, config.n, config.mc_paths, config.seed)
                        for N in config.sweep_sizes()], config.workers)
    report = _report("bidask", config, rows)
    report["y0_hat"] = rows[-1]["y0"]
    report["z0_hat"] = rows[-1]["z0"]
    report["reference"] = list(BIDASK_REFERENCE)
    if len(rows) >= 3:
        fit = fit_rate([(r["N"], r["y0_err"]) for r in rows], -1.0)
        report["rate_fit"] = asdict(fit)
    _emit(report, config)
    return report


# ---------------------------------------------------------------------------
# multidimensional study: Brownian state, exact solution Y0 = 1/2
# ---------------------------------------------------------------------------

def _multidim_point(args):
    size, d, n, mc_paths, seed, base_batch = args
    T = 0.5
    model = brownian(d)
    mesh = TimeMesh(T, n)
    if d == 1:
        base = newton_1d(Law1D.gaussian(), size)
    else:
        rng = np.random.default_rng(12345)
        batch = rng.standard_normal((base_batch, d))
        init = batch[:size] * 0.5
        base, _, _ = lloyd(Grid(init), SampleSource.from_batch(batch),
                           _LAYER_STOP)
        # the base batch is not needed past Lloyd: release it before the
        # paths of estimate_companions are drawn
        del batch, init
    layers = [Grid(model.x0[None, :])] + [
        Grid(math.sqrt(t) * base.points) for t in mesh.times[1:]]
    chain = estimate_companions(model, mesh, layers, mc_paths, seed)
    gamma = (2.0 + d) / (2.0 * d)

    def driver(t, x, y, z):
        return z.sum(axis=1) * (y - gamma)

    def terminal(pts):
        e = np.exp(T + pts.sum(axis=1))
        return e / (1.0 + e)

    sol = solve_bsde(chain, DriverSpec(f=driver), terminal)
    return {"N": size, "y0": sol.y0,
            "y0_err": abs(sol.y0 - MULTIDIM_Y0),
            **{f"z0_{i + 1}": float(sol.z0[i]) for i in range(d)}}


def run_multidim(config: ExperimentConfig) -> dict:
    d = int(config.dim)
    if d not in (1, 2, 3, 4, 5):
        raise InputError("dim must be in {1,...,5}")
    if d > 1 and config.base_batch < max(config.sweep_sizes()):
        raise InputError(f"base_batch {config.base_batch} is smaller than "
                         f"the grid size {max(config.sweep_sizes())}")
    rows = _run_points(_multidim_point,
                       [(N, d, config.n, config.mc_paths, config.seed,
                         config.base_batch) for N in config.sweep_sizes()],
                       config.workers)
    report = _report("multidim", config, rows)
    report["y0_exact"] = MULTIDIM_Y0
    report["z0_reference"] = MULTIDIM_Z0
    report["z0_reported_benchmark"] = MULTIDIM_Z0_REPORTED
    if len(rows) >= 3:
        fit = fit_rate([(r["N"], r["y0_err"]) for r in rows], -1.0 / d)
        report["rate_fit"] = asdict(fit)
        report["loglog_slope"] = loglog_slope(
            [(r["N"], r["y0_err"]) for r in rows if r["y0_err"] > 0])
    _emit(report, config)
    return report


# ---------------------------------------------------------------------------
# filtering demo
# ---------------------------------------------------------------------------

def _filter_point(args):
    size, model_name, n, seed, reference = args
    spec = builtin_models(model_name, steps=n)
    _, y = spec.simulate(seed)
    fm = spec.build_filter([size] * (n + 1))
    state = forward_filter(fm, y)
    mean = state.expectation(fm.layers[-1].points[:, 0])
    return {"N": size, "posterior_mean": mean,
            "error": abs(mean - reference)}


def run_filter_demo(config: ExperimentConfig,
                    reference_size: int = 2000) -> dict:
    spec = builtin_models(config.model, steps=config.n)
    _, y = spec.simulate(config.seed)
    if config.model == "linear-gaussian":
        reference, ref_var = kalman_posterior(spec, y)
        ref_kind = "kalman"
    else:
        fm = spec.build_filter([reference_size] * (config.n + 1))
        st = forward_filter(fm, y)
        reference = st.expectation(fm.layers[-1].points[:, 0])
        ref_var = None
        ref_kind = f"self-reference N={reference_size}"
    rows = _run_points(_filter_point,
                       [(N, config.model, config.n, config.seed, reference)
                        for N in config.sweep_sizes()], config.workers)
    report = _report("filter-demo", config, rows)
    report["reference_mean"] = reference
    report["reference_kind"] = ref_kind
    if ref_var is not None:
        report["reference_variance"] = ref_var
    pos = [(r["N"], r["error"]) for r in rows if r["error"] > 0]
    if len(pos) >= 3:
        report["rate_fit"] = asdict(fit_rate(pos, -1.0))
        report["loglog_slope"] = loglog_slope(pos)
    _emit(report, config)
    return report


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _run_points(worker, argument_list, workers: int) -> list[dict]:
    """worker(a) for each point a: in this process, or in a pool of at most
    `workers` (0: no bound of its own), the number of points and the number
    of CPUs."""
    cpus = _cpu_count()
    max_workers = min(workers or cpus, len(argument_list), cpus)
    if max_workers <= 1:
        return [worker(a) for a in argument_list]
    with ProcessPoolExecutor(max_workers=max_workers) as pool:
        return list(pool.map(worker, argument_list))


def _report(name: str, config: ExperimentConfig, rows: list[dict]) -> dict:
    import scipy
    return {
        "experiment": name,
        "rows": rows,
        "provenance": {
            "config": {k: v for k, v in asdict(config).items()
                       if k in READS[name].split()},
            "versions": {"quantschemes": __version__,
                         "numpy": np.__version__,
                         "scipy": scipy.__version__},
        },
    }


def _emit(report: dict, config: ExperimentConfig) -> None:
    """Write the report's rows as CSV, with the first row's keys as the
    columns, and the whole report as JSON, when the config names `out`."""
    if config.out is None:
        return
    text = _json(report, indent=2)
    outdir = Path(config.out)
    outdir.mkdir(parents=True, exist_ok=True)
    name = report["experiment"]
    with open(outdir / f"{name}.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(report["rows"][0]))
        writer.writeheader()
        for row in report["rows"]:
            writer.writerow(row)
    (outdir / f"{name}.json").write_text(text)


def _json(obj, **kwargs) -> str:
    """obj as strict JSON, numpy scalars as floats. Strict JSON has no
    token for a nan or an infinity: such a value is a NumericError."""
    try:
        return json.dumps(obj, allow_nan=False, default=float, **kwargs)
    except ValueError as exc:
        raise NumericError(f"report value is not finite ({exc})")
