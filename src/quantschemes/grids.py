"""Optimal vector quantization: grids, Voronoi projection, distortion,
grid-search algorithms (Lloyd's I, CLVQ, 1D Newton) and grid file I/O.

A grid is a finite codebook of N points in R^d; nearest-neighbor projection
onto it defines the Voronoi cells. Point order is a stable identity: index i
names cell i, and ties always resolve to the smallest index.

`assign` is the one projection entry point. A large call in d <= 3
guesses each row's cell from a bin table and settles the guess with
Lloyd's certified tests; the rows those leave, and every other call, take
the exact search of the grid's dimension (bisection on the sorted Voronoi
midpoints in 1-D, a kd-tree in d >= 2). Near-ties go to the exact linear
scan, which stays as the reference its results are checked against.

Every kd-tree comes from `_kdtree`, which imports `scipy.spatial` at the
first d >= 2 search: a process whose searches are all 1-D (bid-ask, the
filter, every 1-D chain) never loads it, which saves 0.04-0.08 s and about
5.5 MiB. `scipy.special` and `scipy.linalg` are imported with the module:
the Gaussian Newton grids, the 1-D chain layers' mixture laws and the
filter's rows call them.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg import solve_banded
from scipy.special import ndtr, ndtri

from .errors import ConvergenceError, InputError, NumericError, ParseError

# Probability-vector tolerance of Grid and of _check_probabilities: a sum
# (or row sum) must lie within it of 1.
_PROB_TOL = 1e-12
# load_grid renormalises weights that sum to within this of 1, so that grid
# files written with fewer significant digits still load.
_RENORM_WINDOW = 1e-9

# Chunk size (rows) for the scan in nearest-neighbor assignment; keeps the
# M x N squared-distance block below ~100 MB for the grid sizes we use. The
# guess-table path runs in row blocks of the same size, so that its
# temporaries stay small whatever the batch.
_ASSIGN_CHUNK = 65536
# Uniform bins per grid point of the guess table (`_guess_table`) in
# d = 1..3, and the rows per grid point a call needs before it is built: on
# fewer rows, as in Lloyd's re-searches, building it costs more than it
# saves.
_TABLE_BINS_PER_POINT = 16
_TABLE_ROWS_PER_POINT = 128
# Largest dimension whose `assign` takes the guess table (d = 1..3). On a
# 2-CPU host, a 2e5-row call over a 150-point bid-ask layer takes about
# 6 ms by the table path against 21 ms by the sorted search alone in 1-D.
# On a 1e5-row call over a 150-point Lloyd grid of N(0, I_d) the table
# path takes 11-12.5 ms against the kd-tree's 27-31 ms in d=2 and 27-29
# against 36-38 ms in d=3; in d=4 (41-51 against 45-49 ms) and d=5 (61-67
# against 54-68 ms) it is no faster, since 43% and 65% of the rows fail
# the keep test at both radii (`_keep_threshold`) and go to the kd-tree
# anyway.
_GUESS_MAX_DIM = 3
# Length K = min(4 d, 16) of each grid point's neighbour list
# (`_neighbours`), and the rows per block of `_settle`. On a
# 5e4-row, N=150 Lloyd run K = 8 settles 96% of the re-searched rows in
# d=2, K = 12 88% in d=3 and K = 16 71% in d=4; longer lists settle more
# rows but cost more than the rows they save.
_LIST_SIZE_PER_DIM = 4
_LIST_SIZE_MAX = 16
_SETTLE_BLOCK = 8192
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Grid:
    """Codebook of N points in R^d with optional per-point probabilities."""

    points: np.ndarray                    # (N, d)
    weights: Optional[np.ndarray] = None  # (N,) or None until estimated

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        object.__setattr__(self, "points", pts)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise InputError("grid needs an (N, d) array with N >= 1")
        if not np.all(np.isfinite(pts)):
            raise InputError("grid points must be finite")
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
            object.__setattr__(self, "weights", w)
            if w.shape != (pts.shape[0],):
                raise InputError("weights must have one entry per grid point")
            if (not np.all(np.isfinite(w)) or np.any(w < -_PROB_TOL)
                    or abs(w.sum() - 1.0) > _PROB_TOL):
                raise InputError("weights must be finite, >= 0 and sum to 1")

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def with_weights(self, weights) -> "Grid":
        return Grid(self.points.copy(), np.asarray(weights, dtype=float))


def _check_probabilities(p: np.ndarray, shape: tuple, what: str) -> None:
    """The rule for the marginals and transitions of QuantizedChain and
    FilterModel: `p` has `shape`, no negative entry, and each row (a vector
    is one row) sums to within _PROB_TOL of 1."""
    if p.shape != shape:
        raise InputError(f"{what} shape mismatch")
    if np.any(p < 0) or not np.all(np.abs(p.sum(axis=-1) - 1.0) <= _PROB_TOL):
        raise InputError(f"{what} must be nonnegative with rows summing to 1")


@dataclass
class DistortionReport:
    """Empirical quadratic distortion, its gradient and cell occupancies."""

    value: float
    gradient: np.ndarray      # (N, d)
    cell_counts: np.ndarray   # (N,) ints


@dataclass
class StopCriteria:
    max_iterations: int = 200
    relative_distortion_tolerance: float = 1e-8
    stationarity_tolerance: float = 1e-6

    def __post_init__(self):
        it = self.max_iterations
        if isinstance(it, bool) or not isinstance(it, (int, np.integer)):
            raise InputError("max_iterations must be an integer")
        if not (it > 0 and self.relative_distortion_tolerance > 0
                and self.stationarity_tolerance > 0):  # nan too
            raise InputError("stop criteria must be strictly positive")


class SampleSource:
    """A frozen, validated (M, d) batch of sample points, M >= 1; a 1-D
    array is read as M rows of one coordinate."""

    def __init__(self, batch):
        b = np.asarray(batch, dtype=float)
        if b.ndim == 1:
            b = b[:, None]
        if b.ndim != 2 or b.shape[0] == 0:
            raise InputError("batch must be a nonempty (M, d) array")
        self.batch = b

    @classmethod
    def from_batch(cls, batch) -> "SampleSource":
        return cls(batch)

    @property
    def is_batch(self) -> bool:
        """Always true: every source is a batch."""
        return True


# ---------------------------------------------------------------------------
# projection and distortion
# ---------------------------------------------------------------------------

def assign(grid: Grid, points: np.ndarray):
    """Vectorized nearest-neighbor assignment of an (M, d) batch.

    Returns (indices, squared distances), equal to those of the exact
    linear scan `_scan_assign`, ties to the smallest index included. On a
    one-point grid every index is 0 and no search is made. A call in
    d <= `_GUESS_MAX_DIM` of at least `_TABLE_ROWS_PER_POINT` rows per
    grid point, whose grid spans more than one bin of `_guess_table`, runs
    in row blocks of `_ASSIGN_CHUNK` (`_blocks`): each row's guess from the
    table is settled by the keep test, the list scan and, for the rows
    left, the exact search. Any other call takes the exact search alone
    (`_search_assign`): bisection on the sorted Voronoi midpoints in 1-D, a
    kd-tree query for the two nearest points in d >= 2. A row whose two
    nearest points may lie within the scan's rounding error of each other
    (exact ties among them, which neither search breaks by index), or that
    is not finite, takes the scan's index. Squared distances come from the
    scan's own expression, so they equal the scan's to the bit. A row that
    is not finite, or whose squared distances overflow, gets the scan's nan
    or inf without a warning.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.shape[1] != grid.dim:
        raise InputError("batch dimension mismatch")
    c = grid.points
    with np.errstate(over="ignore", invalid="ignore"):
        if grid.size == 1:
            idx = np.zeros(pts.shape[0], dtype=np.int64)
            return idx, _cell_d2(c, pts, _sq_norm(pts), idx)
        table = (_guess_table(c) if grid.dim <= _GUESS_MAX_DIM and
                 pts.shape[0] >= _TABLE_ROWS_PER_POINT * grid.size else None)
        if table is None:
            return _search_assign(grid, pts)
        return _blocks(grid, pts, table, _neighbours(c))


def _blocks(grid: Grid, pts: np.ndarray, table, near):
    """`assign` in row blocks of `_ASSIGN_CHUNK`: each row's guess from
    `table` (`_guess_table`) settled by `_certified`, with `near` the
    grid's `_neighbours` and T the `_tie_tol` of the block's row of largest
    norm. A block with a row that is not finite (argmax then finds a nan)
    or far enough for T to overflow takes the exact search whole."""
    m = pts.shape[0]
    idx = np.empty(m, dtype=np.int64)
    d2 = np.empty(m)
    for lo in range(0, m, _ASSIGN_CHUNK):
        block = pts[lo:lo + _ASSIGN_CHUNK]
        hi = lo + block.shape[0]
        xx = _sq_norm(block)
        far = block.take([int(np.argmax(xx))], axis=0)
        tol = float(_tie_tol(grid.points, far)[0])
        if tol < np.inf:
            idx[lo:hi], d2[lo:hi] = _certified(grid, block, xx,
                                               _guess(table, block), tol, near)
        else:
            idx[lo:hi], d2[lo:hi] = _search_assign(grid, block)
    return idx, d2


def _search_assign(grid: Grid, pts: np.ndarray):
    """`assign` by the exact search alone, `_sorted_search` in 1-D and
    `_tree_search` in d >= 2, with the rows whose gap does not clear
    `_tie_tol` taken from the scan."""
    c = grid.points
    idx, gap = (_sorted_search if grid.dim == 1 else _tree_search)(c, pts)
    near = np.flatnonzero(~(gap > _tie_tol(c, pts)))
    if near.size:
        idx[near] = _scan_assign(grid, pts.take(near, axis=0))[0]
    return idx, _cell_d2(c, pts, _sq_norm(pts), idx)


def _tie_tol(c: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Per-row squared-distance gap above which the scan's argmin is fixed.

    The scan's |x|^2 - 2 x.c + |c|^2 and the kd-tree's distances are each
    off by less than (d + 3) * eps * (|x| + |c|)^2 plus an underflow floor;
    a gap between the two nearest points of over four times that (two
    errors, with a margin) fixes the scan's argmin. The 1-D search's gap is
    a lower bound of the exact gap, which the same threshold covers.
    """
    radius = math.sqrt(np.max(_sq_norm(c)))
    scale = (np.sqrt(_sq_norm(pts)) + radius) ** 2
    return 4 * (c.shape[1] + 3) * _EPS * scale + _TINY


def _sq_dist(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """|x|^2 - 2 x.c + |c|^2 over the last axis of broadcastable x and c.

    Each sum runs over the coordinates in order, so a value depends only on
    its own x and c, never on the batch around them (a BLAS product can
    round a row differently in a batch of one).
    """
    xc = (2.0 * x[..., 0]) * c[..., 0]
    for j in range(1, x.shape[-1]):
        xc = xc + (2.0 * x[..., j]) * c[..., j]
    return _sq_norm(x) - xc + _sq_norm(c)


def _sq_norm(x: np.ndarray) -> np.ndarray:
    """|x|^2 over the last axis, summed over the coordinates in order."""
    xx = x[..., 0] * x[..., 0]
    for j in range(1, x.shape[-1]):
        xx = xx + x[..., j] * x[..., j]
    return xx


def _sorted_cells(c: np.ndarray):
    """A 1-D grid's sort order, its sorted points s, their Voronoi edges
    (`_voronoi_edges`) and the spacing of the two points at each edge (inf
    at the outer edges): cell i of s lies between edges i and i + 1, and its
    neighbours are spacing[i] below and spacing[i + 1] above."""
    order = np.argsort(c[:, 0], kind="stable")
    s = c[order, 0]
    spacing = np.concatenate(([np.inf], np.diff(s), [np.inf]))
    return order, s, _voronoi_edges(s), spacing


def _sorted_search(c: np.ndarray, pts: np.ndarray):
    """Candidate indices of 1-D points, and a lower bound of the squared-
    distance gap to each candidate's nearer sorted neighbour (inf where
    there is none; a gap <= 0 bounds nothing).

    For a candidate a with neighbour b and midpoint mu = (a + b)/2, the
    exact gap is |x - b|^2 - |x - a|^2 = 2 |a - b| |x - mu|. Its cell edge m
    is the rounded midpoint: fl(a + b) is off by at most eps R (R = max |c|),
    so |m - mu| <= eps R / 2. The margin H = 2 eps R thus gives
    2 |x - mu| >= (1 - u)(2 fl(|x - m|) - H) (u = eps / 2; H is twice the
    midpoint's share to cover the subtraction's rounding too). The spacing,
    the subtraction of H and the product each round once more, so the exact
    gap is at least (1 - u)^4 >= 1 - 2 eps times the computed product; the
    final factor 1 - 4 eps keeps that after its own rounding. Near underflow,
    sums are exact, halving a + b adds at most 2^-1075 (within eps R / 2
    unless R < tiny) and a product below tiny is below `_tie_tol` anyway; so
    is every gap when R < tiny (at most R^2 / (4 eps) above 16 eps x^2).
    """
    order, s, edges, spacing = _sorted_cells(c)
    x = pts[:, 0]
    pos = np.searchsorted(edges[1:-1], x)
    margin = 2 * _EPS * max(-s[0], s[-1])
    below = spacing.take(pos) * (2.0 * (x - edges.take(pos)) - margin)
    pos1 = pos + 1
    above = spacing.take(pos1) * (2.0 * (edges.take(pos1) - x) - margin)
    return order.take(pos), np.minimum(below, above) * (1.0 - 4 * _EPS)


def _guess_table(c: np.ndarray):
    """Guess table of the table path of `assign`: at most
    `_TABLE_BINS_PER_POINT` uniform bins per grid point over the grid's
    bounding box, each holding a grid point near its centre; None when
    that is one bin (a grid whose axes all have zero extent).

    An axis of positive extent gets k bins, k the largest integer with
    k^d' <= 16 N and d' the number of such axes, and an axis of zero extent
    (or whose 1 / w overflows for bins of width w) one. Returns (lo, 1 / w
    per axis (0 for one bin), bins per axis, cells), with cells the flat
    C-order table of the bin centres' candidates: `_sorted_search`'s in
    1-D, one kd-tree query's in d >= 2. A guess decides only how fast
    `_certified` settles a row, never its cell, so neither the rounding of
    a row's bin nor the search's tie-breaking matters.
    """
    n, d = c.shape
    lo, hi = c.min(axis=0), c.max(axis=0)
    wide = hi > lo
    bins, p = _TABLE_BINS_PER_POINT * n, max(1, int(wide.sum()))
    k = int(bins ** (1.0 / p))
    k += (k + 1) ** p <= bins
    k -= k ** p > bins
    counts = np.where(wide, k, 1)
    width = hi / counts - lo / counts
    inv = np.zeros(d)
    np.divide(1.0, width, out=inv, where=width > 0)
    inv[~(inv < np.inf)] = 0.0
    counts[inv == 0] = 1
    size = int(np.prod(counts))
    if size == 1:
        return None
    centres = np.empty((size, d))
    flat = np.arange(size)
    for j in range(d - 1, -1, -1):
        flat, t = np.divmod(flat, counts[j])
        centres[:, j] = lo[j] + (t + 0.5) * width[j]
    cells = (_sorted_search(c, centres)[0] if d == 1
             else _kdtree(c).query(centres)[1].astype(np.int64))
    return lo, inv, counts, cells


def _guess(table, block: np.ndarray) -> np.ndarray:
    """Each finite row's guess from a `_guess_table` table: the cell
    of its bin, the bin clamped into the box axis by axis."""
    lo, inv, counts, cells = table
    flat = np.zeros(block.shape[0], dtype=np.intp)
    t = np.empty(block.shape[0])
    for j in range(block.shape[1]):
        np.subtract(block[:, j], lo[j], out=t)
        t *= inv[j]
        np.floor(t, out=t)
        np.clip(t, 0.0, counts[j] - 1, out=t)
        flat *= counts[j]
        flat += t.astype(np.intp)
    return cells.take(flat)


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity set where the platform
    reports one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _kdtree(c: np.ndarray):
    """A `scipy.spatial.cKDTree` over the grid points `c`: the one place
    that builds one, and so the one that imports scipy.spatial."""
    from scipy.spatial import cKDTree
    return cKDTree(c)


def _tree_search(c: np.ndarray, pts: np.ndarray):
    """Candidate indices from a kd-tree, and the squared-distance gap to the
    second nearest point (nan for rows that are not finite). The query is
    split over one thread per CPU, which scipy joins before it returns;
    each row's answer does not depend on the split."""
    finite = np.all(np.isfinite(pts), axis=1)
    idx = np.zeros(pts.shape[0], dtype=np.int64)
    gap = np.full(pts.shape[0], np.nan)
    dist, ii = _kdtree(c).query(pts[finite], k=2, workers=_cpu_count())
    idx[finite] = ii[:, 0]
    gap[finite] = dist[:, 1] ** 2 - dist[:, 0] ** 2
    return idx, gap


def _scan_assign(grid: Grid, points: np.ndarray):
    """Exact linear scan behind `assign`, and the oracle its tests compare
    against: chunked to bound memory; argmin keeps the smallest-index tie
    rule."""
    c = grid.points[None, :, :]
    idx = np.empty(points.shape[0], dtype=np.int64)
    d2 = np.empty(points.shape[0])
    for lo in range(0, points.shape[0], _ASSIGN_CHUNK):
        hi = min(lo + _ASSIGN_CHUNK, points.shape[0])
        dist2 = _sq_dist(points[lo:hi, None, :], c)
        ii = np.argmin(dist2, axis=1)
        idx[lo:hi] = ii
        d2[lo:hi] = np.maximum(dist2[np.arange(hi - lo), ii], 0.0)
    return idx, d2


def _voronoi_edges(x: np.ndarray) -> np.ndarray:
    """Cell edges of sorted scalar points: -inf, the N-1 midpoints, +inf."""
    if np.any(np.diff(x) < 0):
        raise InputError("scalar grid points must be sorted")
    return np.concatenate(([-np.inf], 0.5 * (x[:-1] + x[1:]), [np.inf]))


def cell_sums(index: np.ndarray, size: int, values: np.ndarray):
    """Per-cell sample counts and column sums of an (M, c) value block.

    Returns (counts (size,) ints, sums (size, c)), where cell i collects the
    rows m with index[m] == i.
    """
    counts = np.bincount(index, minlength=size)
    sums = np.zeros((size, values.shape[1]))
    for j in range(values.shape[1]):
        sums[:, j] = np.bincount(index, weights=values[:, j], minlength=size)
    return counts, sums


def distortion_and_gradient(grid: Grid,
                            source: SampleSource) -> DistortionReport:
    """Empirical quadratic distortion D_{N,2} with gradient and occupancies
    over the source's batch.

    value    = (1/M) sum_m min_i |xi_m - x_i|^2
    grad_i   = (2/M) sum over cell i of (x_i - xi_m)
    Empty cells get a zero gradient entry.
    """
    batch = source.batch
    idx, d2 = assign(grid, batch)
    counts, sums = cell_sums(idx, grid.size, batch)
    grad = 2.0 * (counts[:, None] * grid.points - sums) / batch.shape[0]
    grad[counts == 0] = 0.0
    return DistortionReport(value=float(d2.mean()), gradient=grad, cell_counts=counts)


def ls_error(grid: Grid, source: SampleSource, s: float) -> float:
    """L^s mean quantization error ((1/M) sum dist^s)^(1/s) over the
    source's batch."""
    if s <= 0:
        raise InputError("s must be positive")
    _, d2 = assign(grid, source.batch)
    return float(np.mean(d2 ** (s / 2.0)) ** (1.0 / s))


# ---------------------------------------------------------------------------
# grid search: Lloyd's I
# ---------------------------------------------------------------------------

def lloyd(initial: Grid, source: SampleSource, stop: StopCriteria = StopCriteria()):
    """Lloyd's I fixed-point iteration on a frozen empirical measure.

    Each sweep replaces every nonempty cell point by its sample mean; dead
    cells are re-seeded near a sample of the most populated cell. Returns
    (grid with empirical weights, final DistortionReport, iterations).

    In every dimension the first sweep is a full `assign` and each later
    one searches again only the samples whose cell can have changed
    (`_certified`; a 1-D run builds no kd-tree), so every sweep's cells,
    and the results, are those of a full `assign`. A run ends after
    `max_iterations` sweeps, or at a sweep with no empty cell that lowers
    the distortion by at most its relative tolerance (zero after zero
    included) and would move no point beyond its stationarity tolerance.
    A batch whose width is not the grid's dimension, or with a row that is
    not finite, raises InputError, and a finite batch whose squared norms
    overflow NumericError, before any sweep. A batch with fewer distinct
    rows than grid points raises InputError after the first sweep that
    leaves a cell empty (a sweep that leaves none has proven N distinct
    rows).

    A sweep whose distortion rises by more than 1e-12 of the last one plus
    (T_prev + T) / 4 raises ConvergenceError, where T = `_tie_tol(pts, far)`
    of each sweep's grid is at least every row's tolerance. An exact Lloyd
    sweep never does that. Let D(c, a) be the exact distortion of grid c
    under cell choice a, and a_t the cells of sweep t on grid c_t. Each
    computed d2 is within T_t / 4 of the exact squared distance, so
    D(c_t, a_t) <= value_t + T_t / 4; and a_t is the computed argmin, so
    value_{t+1} <= min_a D(c_{t+1}, a) + T_{t+1} / 4. The cell means
    minimize D(., a_t) cell by cell, and a re-seeded point has no row in
    a_t, so min_a D(c_{t+1}, a) <= D(c_{t+1}, a_t) <= D(c_t, a_t). Hence
    value_{t+1} - value_t <= (T_t + T_{t+1}) / 4. The relative term covers
    the rounding of the mean of d2 (about log2(M) eps); rounded cell means
    add a second-order term, about (M eps |far|)^2, far below T.
    """
    batch = source.batch
    n = initial.size
    if batch.shape[1] != initial.dim:
        raise InputError("batch dimension mismatch")
    if batch.shape[0] < n:
        raise InputError("fewer samples than grid points")
    pts = initial.points.copy()
    if len(np.unique(pts, axis=0)) != n:
        raise InputError("initial points must be pairwise distinct")
    xx, far = _batch_norms(batch)
    jitter = 1e-6 * batch.std(axis=0)
    rng = np.random.default_rng(0)
    prev = prev_tol = None
    it = 0
    idx = distinct = None
    for it in range(1, stop.max_iterations + 1):
        # `far` has the largest row norm, the tolerance grows with the row
        # norm and every step of it rounds monotonically, so T is at least
        # every row's
        tol = float(_tie_tol(pts, far)[0])
        if idx is None:
            idx, d2 = assign(Grid(pts), batch)
        else:
            idx, d2 = _certified(Grid(pts), batch, xx, idx, tol,
                                 _neighbours(pts))
        counts, sums = cell_sums(idx, n, batch)
        value = float(d2.mean())
        if (prev is not None
                and value - prev > 1e-12 * prev + (prev_tol + tol) / 4):
            raise ConvergenceError("distortion increased during Lloyd sweep",
                                   residual=value - prev)
        means = pts.copy()
        np.divide(sums, counts[:, None], out=means, where=counts[:, None] > 0)
        dead = np.flatnonzero(counts == 0)
        if dead.size:
            if distinct is None:
                distinct = _distinct_rows(batch)
                if distinct < n:
                    raise InputError(f"fewer distinct sample rows "
                                     f"({distinct}) than grid points ({n})")
            donor = int(np.argmax(counts))
            donors = np.flatnonzero(idx == donor)
            for i in dead:
                pick = batch[rng.choice(donors)]
                means[i] = pick + jitter * rng.standard_normal(pts.shape[1])
        else:
            # converged when the distortion plateaus and every point already
            # sits at its cell mean (|cell mean - x_i| = would-be movement)
            moved = np.linalg.norm(means - pts, axis=1)
            allowed = stop.stationarity_tolerance * (
                1.0 + np.linalg.norm(pts, axis=1))
            rel = stop.relative_distortion_tolerance
            if (prev is not None and prev - value <= rel * prev
                    and np.all(moved <= allowed)):
                break
        pts = means
        prev, prev_tol = value, tol
    grid = Grid(pts)
    report = distortion_and_gradient(grid, source)
    weights = report.cell_counts / batch.shape[0]
    return grid.with_weights(weights), report, it


def _distinct_rows(x: np.ndarray) -> int:
    """Number of distinct rows of an (M, d) array, as np.unique(x, axis=0)
    counts them, from one lexicographic sort."""
    s = (np.sort(x, axis=0) if x.shape[1] == 1
         else x.take(np.lexsort(x.T[::-1]), axis=0))
    return 1 + int(np.count_nonzero(np.any(s[1:] != s[:-1], axis=1)))


def _batch_norms(batch: np.ndarray):
    """`_sq_norm` of each row of a Lloyd batch, and the (1, d) row with the
    largest one; InputError if a row is not finite, NumericError if the
    batch is finite but they overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        xx = _sq_norm(batch)
    if not np.all(np.isfinite(xx)):
        if not np.all(np.isfinite(batch)):
            raise InputError("sample batch must be finite")
        raise NumericError("squared norms of Lloyd's sample batch overflow")
    return xx, batch.take([int(np.argmax(xx))], axis=0)


def _cell_d2(c: np.ndarray, batch: np.ndarray, xx: np.ndarray,
             idx: np.ndarray) -> np.ndarray:
    """`_sq_dist(batch, c[idx])` clamped at 0, with |x|^2 taken from `xx`,
    the rows' `_sq_norm`: the bytes of `assign`'s d2 for cells `idx`. The
    2.0 x_j columns are not stored."""
    xc = 2.0 * batch[:, 0]
    xc *= c[:, 0].take(idx)
    for j in range(1, c.shape[1]):
        term = 2.0 * batch[:, j]
        term *= c[:, j].take(idx)
        xc += term
    d2 = np.subtract(xx, xc, out=xc)
    d2 += _sq_norm(c).take(idx)
    np.maximum(d2, 0.0, out=d2)
    return d2


def _certified(grid: Grid, batch: np.ndarray, xx: np.ndarray,
               idx: np.ndarray, tol: float, near):
    """`assign(grid, batch)` from a candidate cell per
    row, `idx`, changed in place: Lloyd's cells of the last sweep, or
    `_guess_table`'s guesses. `xx` is the rows' `_sq_norm`, `tol` a T at
    least every row's `_tie_tol` and `near` the grid's `_neighbours`.

    d2 is the candidate's (`_cell_d2`), with the bytes `assign` returns.
    A row of candidate a keeps it when d2 is below `_keep_threshold` at
    a's separation (a is the scan's unique argmin); else `_settle` scans
    a's neighbour list when d2 is below it at a's reach (the argmin is in
    the list); the rest go to the exact search (`_search_assign`). The
    candidates decide only how many rows each stage takes, never a row's
    result.
    """
    c = grid.points
    d2 = _cell_d2(c, batch, xx, idx)
    sep, lists, reach = near
    search = np.flatnonzero(~(d2 < _keep_threshold(sep, tol).take(idx)))
    listed = (d2.take(search)
              < _keep_threshold(reach, tol).take(idx.take(search)))
    _settle(c, batch, xx, search[listed], idx, d2, lists)
    search = search[~listed]
    if search.size:
        idx[search], d2[search] = _search_assign(
            grid, batch.take(search, axis=0))
    return idx, d2


def _keep_threshold(radius: np.ndarray, tol: float) -> np.ndarray:
    """Per grid point a at radius s = radius[a], the squared distance
    below which a row of cell a is more than T nearer to a than to every
    point of a set S_a: thr_a = r^2 - T - (4 eps s^2 + tiny) with
    r = (s^2 - T) / (2 s) and T = `tol`; -inf where fl(s^2 - T) <= 0 or
    s^2 overflows (s = 0 included) and +inf where s = inf.

    Every point of S_a must lie at an exact distance of at least s (1 - e)
    from a, with e <= (d + 2) eps and s <= 2R (1 + e) (R = max |c|).
    `_certified` takes two radii of `_neighbours`. At a's separation S_a
    is every other point (e a kd-tree's rounded norm; in 1-D a rounded
    difference), and a is the scan's unique argmin: Hamerly's (2010)
    half-separation test. At a's reach S_a is the points outside a's list
    (e = 0); a's scan value, in the list, is below each of theirs, so the
    scan's argmin is in the list, and an index-sorted scan of it with a
    strict < keeps the tie rule. In exact arithmetic d2 < r^2 - T with
    r > 0 says s (s - 2 sqrt(d2 + T)) > T.

    Rounding of thr (u = eps / 2, s and T taken as exact): s^2 rounds by
    at most u s^2; so fl(s^2 - T) is (s^2 - T + e1)(1 + e2) with
    |e1| <= u s^2, |e2| <= u, and it is positive only if s^2 - T > -u s^2.
    Then the computed r is within 2.01 u |r| + 0.51 u s of r, where
    r <= s / 2, or |r| <= u s / 2 if r <= 0. Squaring, subtracting T and
    the shrink each round once more; all of it adds at most 3.8 u s^2 to
    r^2 - T, less than the shrink 8 u s^2 (and tiny covers underflow). So
    thr_a <= r^2 - T. If r <= 0 then T >= s^2 > r^2, so thr_a < 0 and no
    row (d2 >= 0) passes.

    Proof that a row x with 0 <= d2 < thr_a is more than T nearer to a
    than to each b in S_a: `_tie_tol` puts the scan's d2 within T / 4 of
    the exact squared distance delta^2 = |x - a|^2, so
    delta^2 < r^2 - 3T/4 and delta < r - 3T / (8 r) <= r - 3T / (4 s).
    Hence s (s - 2 delta) >= s (s - 2r) + 1.5 T = 2.5 T. b is at least
    s' - delta from x, s' = s (1 - e), so the exact gap
    |x - b|^2 - delta^2 >= s' (s' - 2 delta)
    >= (1 - e) (2.5 T - e s^2) > T, since T >= 4 (d + 3) eps R^2 and
    s <= 2R (1 + e) give e s^2 < T. A gap over T, which is at least the
    row's own tolerance, puts b's scan value above a's.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        sq = radius * radius
        q = sq - tol
        thr = (q / (2.0 * radius)) ** 2 - tol - (4 * _EPS * sq + _TINY)
    thr[~((q > 0) & (sq < np.inf))] = -np.inf
    thr[radius == np.inf] = np.inf
    return thr


def _neighbours(c: np.ndarray):
    """Per point a of a grid: its separation s_a, the distance to the
    nearest other point (0 for a duplicated point, inf on a one-point
    grid), its neighbour list and its reach r_a: the two radii of
    `_keep_threshold`, and the list `_settle` scans.

    The K + 1 nearest points of each point (K = `_list_size(d)`), by
    computed distance (`_nearest`), give all three. Row a of the
    (N, min(N, K)) list holds a's K nearest grid points, a included unless
    K others coincide with it (then r_a = 0), sorted by grid index; s_a is
    the second distance. r_a is a lower bound of the exact
    distance from a to every point outside the list, inf when the list is
    the whole grid (N <= K). Every such point is at a computed distance of
    at least D, the (K + 1)-th one. A computed distance is off by a
    relative (d + 4) eps / 4 (d rounded squares summed, a square root; in
    1-D one rounded subtraction), plus what the squares lose to underflow,
    below tiny in all and so below sqrt(tiny) once rooted. So
    r_a = D (1 - 4 (d + 2) eps) - sqrt(tiny), which rounds by a relative
    eps / 2 twice and is clamped at 0, is below the exact distance; the
    shrink is over ten times the distance's rounding, which also covers
    the rounding of the kd-tree's pruning bounds.
    """
    n, d = c.shape
    k = _list_size(d)
    if n <= k:
        sep = _nearest(c, 2)[0][:, 1] if n > 1 else np.full(1, np.inf)
        lists = np.broadcast_to(np.arange(n, dtype=np.int64), (n, n))
        return sep, lists, np.full(n, np.inf)
    dist, near = _nearest(c, k + 1)
    reach = dist[:, k] * (1.0 - 4 * (d + 2) * _EPS) - math.sqrt(_TINY)
    return dist[:, 1], np.sort(near[:, :k], axis=1), np.maximum(reach, 0.0)


def _nearest(c: np.ndarray, j: int):
    """The computed distances from each point of a grid of at least j >= 2
    points to its j nearest grid points, in increasing order, and their
    indices: one kd-tree query in d >= 2.

    In 1-D, for each point a, they are the first j of the points within
    j - 1 sorted positions of a, sorted stably by computed distance
    |fl(b - a)|; these are the j nearest of the whole grid. Such a window holds at least j points. A
    point b at sorted offset over j - 1 from a, say above it, has a and the
    j - 1 points above a in the window, each at a computed distance of at
    most b's, since rounding is monotone. So the j-th smallest distance in
    the window is at most b's, and every point outside the first j
    columns, in the window or not, is at a computed distance of at least
    the j-th.
    """
    if c.shape[1] > 1:
        return _kdtree(c).query(c, k=j)
    order, s, _, _ = _sorted_cells(c)
    n = s.size
    pos = np.arange(n)[:, None] + np.arange(1 - j, j)
    inside = (pos >= 0) & (pos < n)
    np.clip(pos, 0, n - 1, out=pos)
    dist = np.abs(s.take(pos) - s[:, None])
    dist[~inside] = np.inf
    pick = np.argsort(dist, axis=1, kind="stable")[:, :j]
    dist = np.take_along_axis(dist, pick, axis=1)
    near = order.take(np.take_along_axis(pos, pick, axis=1))
    # rows are in sorted order: put row a back at grid index a
    rank = np.empty_like(order)
    rank[order] = np.arange(n)
    return dist.take(rank, axis=0), near.take(rank, axis=0)


def _list_size(d: int) -> int:
    """K, the length of each grid point's neighbour list."""
    return min(_LIST_SIZE_PER_DIM * d, _LIST_SIZE_MAX)


def _settle(c: np.ndarray, batch: np.ndarray, xx: np.ndarray,
            rows: np.ndarray, idx: np.ndarray, d2: np.ndarray,
            lists: np.ndarray) -> None:
    """Give `rows` of a batch the scan's index and d2 in place, by a scan
    of the neighbour list of each row's candidate a = idx[m] alone
    (`_neighbours`), in blocks of `_SETTLE_BLOCK` rows; `_certified` has
    proven each row's argmin in that list. `xx` is the batch's row norms.
    Each value of the scan is `_sq_dist`'s expression, coordinates summed
    in order, so it has the scan's bytes; a running minimum with a strict
    < keeps the smallest index of a tie, since each list is sorted by
    index.
    """
    cc = _sq_norm(c)
    cols = np.ascontiguousarray(c.T)
    slots = np.ascontiguousarray(lists.T)
    for lo in range(0, rows.size, _SETTLE_BLOCK):
        block = rows[lo:lo + _SETTLE_BLOCK]
        a = idx.take(block)
        x2 = np.ascontiguousarray((2.0 * batch.take(block, axis=0)).T)
        xb = xx.take(block)
        term = np.empty(block.size)
        best_idx = best = None
        for slot in slots:
            b = slot.take(a)
            xc = cols[0].take(b)
            xc *= x2[0]
            for j in range(1, cols.shape[0]):
                cols[j].take(b, out=term)
                term *= x2[j]
                xc += term
            value = np.subtract(xb, xc, out=xc)
            value += cc.take(b, out=term)
            if best is None:
                best_idx, best = b, value
            else:
                better = np.less(value, best)
                np.copyto(best_idx, b, where=better)
                np.copyto(best, value, where=better)
        idx[block] = best_idx
        d2[block] = np.maximum(best, 0.0)


# ---------------------------------------------------------------------------
# grid search: CLVQ (competitive learning / stochastic gradient)
# ---------------------------------------------------------------------------

def clvq(initial: Grid, draw: Callable[[int], np.ndarray], steps: int,
         schedule: tuple[float, float] = (1.0, 9.0),
         weight_pass: int = 100_000) -> Grid:
    """Competitive learning vector quantization with step a / (b + t).

    `draw(m)` returns the next m rows, an (m, d) array, of one i.i.d.
    stream of the law; CLVQ asks it for blocks of at most 4096 rows, and
    a draw of another shape raises InputError before its rows are used. Per
    draw, only the winner moves: x* <- x* - gamma_t (x* - xi_t). Weights
    come from a final frequency pass over the next `weight_pass` rows.
    """
    if steps < 1:
        raise InputError("steps must be >= 1")
    a, b = schedule
    if a <= 0 or b < 0:
        raise InputError("schedule needs a > 0 and b >= 0")
    if a / (b + 1.0) >= 1.0:
        raise InputError("first step gamma_1 >= 1 would overshoot")
    pts = initial.points.copy()

    def rows(m):
        x = draw(m)
        if np.shape(x) != (m, initial.dim):
            raise InputError(f"draw({m}) must return an ({m}, {initial.dim})"
                             f" array, got shape {np.shape(x)}")
        return x

    block = 4096
    done = 0
    while done < steps:
        draws = rows(min(block, steps - done))
        for xi in draws:
            d2 = np.sum((pts - xi) ** 2, axis=1)
            w = int(np.argmin(d2))
            done += 1
            gamma = a / (b + done)
            pts[w] -= gamma * (pts[w] - xi)
    grid = Grid(pts)
    idx, _ = assign(grid, rows(weight_pass))
    weights = np.bincount(idx, minlength=grid.size) / weight_pass
    return grid.with_weights(weights)


# ---------------------------------------------------------------------------
# grid search: Newton in one dimension
# ---------------------------------------------------------------------------

def _norm_pdf(x):
    """Standard normal density, the expression `scipy.stats.norm.pdf`
    evaluates (importing `scipy.stats` costs most of a second)."""
    return np.exp(-x ** 2 / 2.0) / np.sqrt(2 * np.pi)


@dataclass
class Law1D:
    """Scalar law descriptor for the 1D Newton search, and for the Lloyd
    sweeps with which `chain.build_layer_grids` fits each 1-D layer to the
    exact law of its Euler step (`gaussian_mixture`): those layers draw no
    samples, so `sample_budget` is read only for d >= 2.

    first_moment is the partial first moment K(t) = int_{-inf}^t xi phi(xi) dxi.
    ppf is optional and only used to build the starting grid.
    """

    density: Callable[[np.ndarray], np.ndarray]
    cdf: Callable[[np.ndarray], np.ndarray]
    first_moment: Callable[[np.ndarray], np.ndarray]
    ppf: Optional[Callable[[np.ndarray], np.ndarray]] = None
    mean: float = 0.0

    @classmethod
    def gaussian(cls) -> "Law1D":
        return cls(density=_norm_pdf, cdf=ndtr,
                   first_moment=lambda t: -_norm_pdf(t), ppf=ndtri, mean=0.0)

    @classmethod
    def uniform01(cls) -> "Law1D":
        def pdf(t):
            t = np.asarray(t, dtype=float)
            return np.where((t >= 0.0) & (t <= 1.0), 1.0, 0.0)
        def cdf(t):
            return np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
        def pm(t):
            return 0.5 * np.clip(np.asarray(t, dtype=float), 0.0, 1.0) ** 2
        return cls(density=pdf, cdf=cdf, first_moment=pm,
                   ppf=lambda u: np.asarray(u, dtype=float), mean=0.5)

    @classmethod
    def gaussian_mixture(cls, p, m, s) -> "Law1D":
        """The mixture sum_i p_i N(m_i, s_i^2), every s_i > 0. An Euler step
        from a quantized layer (points x_i, weights p_i) has this law, with
        m_i = x_i + b(x_i) dt and s_i = |sigma(x_i)| sqrt(dt). With
        z_i = (t - m_i) / s_i,
          F(t) = sum_i p_i Phi(z_i),  K(t) = sum_i p_i (m_i Phi(z_i) - s_i phi(z_i)).
        The density, F and K come together, read-only, from one ndtr and
        one phi per component and point, and the last argument's are kept,
        since `_newton_residual` asks for F and K at the same midpoints: a
        Lloyd sweep of a layer of N_{k+1} points on a mixture of N_k costs
        N_k N_{k+1} of each."""
        p, m, s = (np.asarray(a, dtype=float).reshape(-1) for a in (p, m, s))
        last = {}

        def values(t):
            t = np.asarray(t, dtype=float)
            if not (last and np.array_equal(last["t"], t)):
                last["t"], last["v"] = t.copy(), _mixture_values(t, p, m, s)
            return last["v"]

        return cls(density=lambda t: values(t)[0], cdf=lambda t: values(t)[1],
                   first_moment=lambda t: values(t)[2], mean=float(p @ m))


def _mixture_values(t, p, m, s):
    """Density, cdf and partial first moment of sum_i p_i N(m_i, s_i^2) at
    each entry of t, in blocks of entries whose (block, N) temporaries
    hold about `_ASSIGN_CHUNK` values."""
    flat = t.reshape(-1)
    out = np.empty((3, flat.size))
    step = max(1, _ASSIGN_CHUNK // m.size)
    for lo in range(0, flat.size, step):
        z = (flat[lo:lo + step, None] - m) / s
        phi, big = _norm_pdf(z), ndtr(z)
        out[:, lo:lo + step] = (phi @ (p / s), big @ p,
                                big @ (p * m) - phi @ (p * s))
    # the law hands these to every caller at the same argument
    out.flags.writeable = False
    return tuple(out.reshape((3,) + t.shape))


def _newton_residual(x, law):
    """Gradient of D_{N,2} and cell masses for a sorted point vector."""
    m = 0.5 * (x[:-1] + x[1:])
    F = np.concatenate(([0.0], law.cdf(m), [1.0]))
    K = np.concatenate(([0.0], law.first_moment(m), [law.mean]))
    mass = np.diff(F)
    grad = 2.0 * (x * mass - np.diff(K))
    return grad, mass, m


def _newton_band(x, mass, m, law):
    """Jacobian of the gradient in the point coordinates, in the (3, N)
    diagonal-ordered form of `scipy.linalg.solve_banded((1, 1), ...)`.

    The Jacobian is tridiagonal and symmetric. d grad_i / d x_i picks up the
    moving midpoints,
      2 mass_i + phi(m_{i+1})(x_i - m_{i+1}) - phi(m_i)(x_i - m_i),
    and both neighbours of a midpoint m share -phi(m)(x_{i+1} - x_i) / 2.
    """
    phi_m = law.density(m)
    move = np.zeros(x.size)
    move[:-1] += phi_m * (x[:-1] - m)
    move[1:] -= phi_m * (x[1:] - m)
    off = -0.5 * phi_m * np.diff(x)
    band = np.zeros((3, x.size))
    band[0, 1:] = off
    band[1] = 2.0 * mass + move
    band[2, :-1] = off
    return band


def newton_1d(law: Law1D, N: int, tol: float = 1e-10,
              max_iter: int = 200) -> Grid:
    """Stationary L2-optimal grid for a scalar law via damped tridiagonal
    Newton, O(N) per step.

    Solves grad D_{N,2} = 0, i.e. x_i = (K(m_{i+1}) - K(m_i)) / (F(m_{i+1}) - F(m_i))
    with midpoints m_i = (x_{i-1} + x_i)/2. Weights are the cell masses.
    """
    if N < 1:
        raise InputError("N must be >= 1")
    if law.ppf is not None:
        x = np.asarray(law.ppf((2.0 * np.arange(1, N + 1) - 1.0) / (2.0 * N)),
                       dtype=float)
    else:
        x = law.mean + np.linspace(-1.0, 1.0, N)
    grad, mass, m = _newton_residual(x, law)
    res = float(np.max(np.abs(grad)))
    for _ in range(max_iter):
        if res <= tol:
            break
        try:
            step = solve_banded((1, 1), _newton_band(x, mass, m, law), grad,
                                overwrite_ab=True, check_finite=False)
        except np.linalg.LinAlgError:
            raise ConvergenceError("singular Newton system", residual=res)
        # damped update: halve while the residual does not decrease
        t = 1.0
        for _ in range(30):
            cand = x - t * step
            if np.all(np.diff(cand) > 0) or N == 1:
                g2, mass2, m2 = _newton_residual(cand, law)
                r2 = float(np.max(np.abs(g2)))
                if r2 < res:
                    x, grad, mass, m, res = cand, g2, mass2, m2, r2
                    break
            t *= 0.5
        else:
            raise ConvergenceError("Newton damping exhausted", residual=res)
    if res > tol:
        raise ConvergenceError("Newton did not reach tolerance", residual=res)
    return Grid(x[:, None], mass)


# ---------------------------------------------------------------------------
# grid file I/O
# ---------------------------------------------------------------------------

def save_grid(grid: Grid, path) -> None:
    """Plain-text grid file: "d N" header, then one point + weight per line.

    Weight -1 marks "unknown"; 17 significant digits give an exact double
    round trip.
    """
    with open(path, "w") as fh:
        fh.write(f"{grid.dim} {grid.size}\n")
        w = grid.weights
        for i in range(grid.size):
            coords = " ".join(f"{v:.17g}" for v in grid.points[i])
            wi = -1.0 if w is None else w[i]
            fh.write(f"{coords} {wi:.17g}\n")


def load_grid(path) -> Grid:
    """Read a grid file. A body of N rows holds one point and its weight
    per row; a body of 2N rows holds all N points, then all N weights (the
    layout of the public Gaussian-grid files)."""
    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh]
    except OSError as exc:
        raise InputError(f"cannot read grid file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"grid file is not UTF-8 text: {exc.reason}") from exc
    lines = [ln for ln in lines if ln]
    if not lines:
        raise ParseError("empty grid file", line=1)
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError("header must be 'd N'", line=1)
    try:
        d, n = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError("non-integer header", line=1)
    if d < 1 or n < 1:
        raise ParseError("header values must be positive", line=1)
    body = lines[1:]
    if len(body) == 2 * n:
        pts = _parse_rows(body[:n], d, offset=2)
        wrows = _parse_rows(body[n:], 1, offset=2 + n)
        weights = wrows[:, 0]
    elif len(body) == n:
        rows = _parse_rows(body, d + 1, offset=2)
        pts, weights = rows[:, :d], rows[:, d]
    else:
        raise ParseError(f"expected {n} rows (point and weight) or {2 * n} "
                         f"(points, then weights), got {len(body)}",
                         line=len(lines))
    if np.all(weights == -1.0):
        return Grid(pts)
    if np.any(weights < 0):
        raise ParseError("negative weight (only -1 marks unknown)")
    with np.errstate(over="ignore"):
        total = weights.sum()
    if abs(total - 1) > _RENORM_WINDOW:
        raise ParseError(f"weights sum to {float(total)}, not 1")
    return Grid(pts, weights / total)


def _parse_rows(rows, width, offset):
    out = []
    for i, ln in enumerate(rows):
        parts = ln.split()
        if len(parts) != width:
            raise ParseError(f"expected {width} columns, got {len(parts)}",
                             line=offset + i)
        try:
            out.append([float(p) for p in parts])
        except ValueError:
            raise ParseError("non-numeric entry", line=offset + i)
        if not np.all(np.isfinite(out[-1])):
            raise ParseError("non-finite entry", line=offset + i)
    return np.array(out)
