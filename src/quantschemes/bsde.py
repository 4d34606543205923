"""Backward solver on a quantized chain for equations of the form

    Y_t = h(X_T) + int_t^T f(s, X_s, Y_s, Z_s) ds - int_t^T Z_s dW_s,

plus the a-priori error-bound constants and the layer-size allocator that
balances the per-layer quantization error against a total point budget.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .chain import QuantizedChain
from .errors import InputError, NumericError

Driver = Callable[[float, np.ndarray, np.ndarray, np.ndarray], np.ndarray]


@dataclass
class DriverSpec:
    """Driver f(t, x, y, z) vectorized over a grid: x is (N, d), y is (N,),
    z is (N, q), and the result is (N,). Lipschitz constants feed the
    error-bound calculator."""

    f: Driver
    lip_f: float = 0.0
    lip_h: float = 0.0


@dataclass
class QuantizedBsdeSolution:
    """Backward recursion output: values[k] is the (N_k,) vector of Y
    estimates on layer k, controls[k] the (N_k, q) matrix of Z estimates
    (defined for k < n)."""

    values: list[np.ndarray]
    controls: list[np.ndarray]
    y0: float
    z0: np.ndarray

    @classmethod
    def _from_layers(cls, chain, values, controls):
        w0 = chain.marginals[0]
        return cls(values=values, controls=controls,
                   y0=float(w0 @ values[0]),
                   z0=np.asarray(w0 @ controls[0], dtype=float))


def solve_bsde(chain: QuantizedChain, driver: DriverSpec,
               terminal: Callable[[np.ndarray], np.ndarray]
               ) -> QuantizedBsdeSolution:
    """Explicit backward dynamic programming on the quantized chain.

    Layer n starts from the terminal function, which maps the (N, d) points
    of the last layer to (N,); each step computes the conditional mean
    alpha_i = sum_j p_ij y_{k+1,j}, the control
    zeta_i = (1/dt) sum_j pi^W_ij y_{k+1,j}, and
    y_{k,i} = alpha_i + dt f(t_k, x_i, alpha_i, zeta_i). Centering of the
    companion weights, if any, is done once by `estimate_companions`.
    """
    n = chain.mesh.steps
    dt = chain.mesh.dt
    times = chain.mesh.times
    y = np.asarray(terminal(chain.layers[n].points), dtype=float)
    if y.shape != (chain.layers[n].size,):
        raise InputError("terminal function must map (N, d) points to (N,)")
    values = [None] * (n + 1)
    controls = [None] * n
    values[n] = y
    warned = False
    for k in range(n - 1, -1, -1):
        if chain.dead_rows[k].size and not warned:
            warnings.warn(f"chain has unvisited cells (first at step {k}); "
                          "their rows use the uniform fallback", RuntimeWarning)
            warned = True
        p = chain.transitions[k]
        alpha = p @ values[k + 1]
        zeta = np.einsum("ijq,j->iq", chain.companions[k], values[k + 1]) / dt
        fv = np.asarray(driver.f(times[k], chain.layers[k].points, alpha, zeta),
                        dtype=float)
        if fv.shape != alpha.shape:
            raise InputError("driver must map grid arrays to an (N,) vector")
        yk = alpha + dt * fv
        if not np.all(np.isfinite(yk)):
            bad = int(np.flatnonzero(~np.isfinite(yk))[0])
            raise NumericError(f"non-finite value at backward step {k}, "
                               f"point {bad}")
        values[k] = yk
        controls[k] = zeta
    return QuantizedBsdeSolution._from_layers(chain, values, controls)


# ---------------------------------------------------------------------------
# a-priori error-bound constants
# ---------------------------------------------------------------------------

@dataclass
class BoundConstants:
    """Constants of the squared-error bound

        |Y_k - y_k|^2 <= ... + sum K_j N_j^{-2/d}-type terms,

    evaluated on the coarse mesh T/n0. K has n+1 entries (K[n] = lip_h^2);
    C1 and C2 have n entries, one per step."""

    coeff_b_sigma: float   # path-regularity constant from the coefficients
    kappa0: float
    kappa1: float
    C1: np.ndarray
    C2: np.ndarray
    K: np.ndarray
    T: float
    n: int
    lip_f: float

    def exp_factor(self, i: int, k: int) -> float:
        """Growth factor e^{(1 + lip_f)(t_i - t_k)} between mesh knots."""
        dt = self.T / self.n
        return math.exp((1.0 + self.lip_f) * (i - k) * dt)


def bound_constants(lip_b: float, lip_sigma: float, lip_f: float, lip_h: float,
                    T: float, n: int, n0: int, q: int) -> BoundConstants:
    """Evaluate the a-priori constants of the backward scheme's error bound.

    The 0/0 convention applies to lip_f / kappa0 when both vanish.
    """
    if min(lip_b, lip_sigma, lip_f, lip_h) < 0:
        raise InputError("Lipschitz constants must be >= 0")
    if T <= 0 or n < 1 or n0 < 1 or q < 1:
        raise InputError("need T > 0, n >= 1, n0 >= 1, q >= 1")
    dt0 = T / n0
    cbs = lip_b + 0.5 * (lip_sigma ** 2 + dt0 * lip_b ** 2)
    kappa0 = cbs + lip_f * (1.0 + lip_f / 2.0)
    kappa1 = (0.0 if lip_f == 0.0 else lip_f / kappa0) + lip_h
    times = np.linspace(0.0, T, n + 1)
    C2 = (q * kappa1 ** 2 * lip_f ** 2
          * np.exp(2.0 * dt0 * cbs + 2.0 * kappa0 * (T - times[1:])))
    C1 = lip_f ** 2 + C2 / q
    K = np.empty(n + 1)
    K[n] = lip_h ** 2
    K[:n] = (kappa1 ** 2 * np.exp(2.0 * kappa0 * (T - times[:n]))
             + (1.0 + dt0) * (C1 * dt0 + C2))
    return BoundConstants(coeff_b_sigma=cbs, kappa0=kappa0, kappa1=kappa1,
                          C1=C1, C2=C2, K=K, T=T, n=n, lip_f=lip_f)


def allocate_grid_sizes(coefficients: Sequence[float], total: int,
                        dim: int) -> tuple[list[int], float]:
    """Split a total point budget across layers proportionally to
    c_i^{d/(d+2)}, which minimizes sum_i c_i N_i^{-2/d} under sum N_i = N.

    Returns the integer sizes (floor, at least 1 each) and the resulting
    bound factor sum_i c_i N_i^{-2/d}.
    """
    c = np.asarray(coefficients, dtype=float)
    if c.ndim != 1 or c.size == 0 or np.any(c <= 0):
        raise InputError("coefficients must be a nonempty list of values > 0")
    if total < c.size or dim < 1:
        raise InputError("budget must allow at least one point per layer")
    p = dim / (dim + 2.0)
    w = c ** p
    sizes = np.maximum(1, np.floor(w / w.sum() * total)).astype(int)
    factor = float(np.sum(c * sizes ** (-2.0 / dim)))
    return [int(v) for v in sizes], factor
