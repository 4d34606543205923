import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantschemes import grids
from quantschemes.errors import ConvergenceError, InputError, ParseError
from quantschemes.grids import (_ASSIGN_CHUNK, Grid, Law1D, SampleSource,
                                StopCriteria, _scan_assign,
                                _sorted_search, _tie_tol,
                                assign, cell_sums, clvq,
                                distortion_and_gradient, lloyd, load_grid,
                                ls_error, newton_1d, save_grid)

GAUSS_2PT = 0.7978845608028654  # sqrt(2/pi)


# ---------------------------------------------------------------------------
# Grid type
# ---------------------------------------------------------------------------

def test_grid_basic():
    g = Grid([[0.0], [1.0]])
    assert g.size == 2 and g.dim == 1 and g.weights is None
    g2 = g.with_weights([0.25, 0.75])
    assert np.allclose(g2.weights, [0.25, 0.75])


def test_grid_validation():
    with pytest.raises(InputError):
        Grid(np.empty((0, 2)))
    with pytest.raises(InputError):
        Grid([[0.0], [1.0]], weights=[1.0])
    with pytest.raises(InputError):
        Grid([[0.0], [1.0]], weights=[0.7, 0.2])
    with pytest.raises(InputError):
        Grid([[0.0], [1.0]], weights=[-0.5, 1.5])


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_grid_rejects_non_finite_points_and_weights(tmp_path, bad):
    with pytest.raises(InputError):
        Grid([[0.0, 1.0], [bad, 2.0]])
    with pytest.raises(InputError):
        Grid([[0.0], [1.0]], weights=[bad, 0.5])
    path = tmp_path / "g.txt"
    path.write_text(f"2 2\n0 1 0.5\n{bad} 2 0.5\n")
    with pytest.raises(ParseError) as exc:
        load_grid(path)
    assert exc.value.line == 3
    path.write_text(f"1 2\n0\n{bad}\n0.5\n0.5\n")
    with pytest.raises(ParseError) as exc:
        load_grid(path)
    assert exc.value.line == 3


def test_stop_criteria_validation():
    with pytest.raises(InputError):
        StopCriteria(max_iterations=0)
    with pytest.raises(InputError):
        StopCriteria(relative_distortion_tolerance=-1.0)
    # nan passes a `<= 0` test, and Lloyd then never converges
    with pytest.raises(InputError):
        StopCriteria(relative_distortion_tolerance=float("nan"))
    with pytest.raises(InputError):
        StopCriteria(stationarity_tolerance=float("nan"))
    # a count that `range` refuses, or a bool, is not an iteration cap
    for bad in (2.5, 3.0, True, "3"):
        with pytest.raises(InputError, match="must be an integer"):
            StopCriteria(max_iterations=bad)
    assert StopCriteria(max_iterations=np.int64(3)).max_iterations == 3


def test_sample_source_modes():
    batch = SampleSource.from_batch([[1.0, 2.0]])
    assert batch.is_batch and batch.batch.shape == (1, 2)
    assert SampleSource.from_batch([1.0, 2.0, 3.0]).batch.shape == (3, 1)
    with pytest.raises(InputError):
        SampleSource.from_batch(np.zeros((2, 2, 2)))


# ---------------------------------------------------------------------------
# nearest neighbor and assignment
# ---------------------------------------------------------------------------

def test_nearest_neighbor_examples():
    # one-row assign calls
    g = Grid([[0.0], [1.0]])
    idx, d2 = assign(g, np.array([[0.4]]))
    assert idx.tolist() == [0] and d2[0] == pytest.approx(0.16)
    # tie resolves to the smallest index
    idx, d2 = assign(g, np.array([[0.5]]))
    assert idx.tolist() == [0] and d2[0] == pytest.approx(0.25)
    g2 = Grid([[0.0, 0.0], [3.0, 4.0]])
    idx, d2 = assign(g2, np.array([[3.0, 0.0]]))
    assert idx.tolist() == [0] and d2[0] == pytest.approx(9.0)


def test_nearest_neighbor_dim_mismatch():
    with pytest.raises(InputError):
        assign(Grid([[0.0], [1.0]]), np.array([[0.0, 1.0]]))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 12), st.integers(1, 3))
def test_assign_matches_pointwise(seed, n, d):
    rng = np.random.default_rng(seed)
    grid = Grid(rng.normal(size=(n, d)))
    pts = rng.normal(size=(20, d))
    idx, d2 = assign(grid, pts)
    for m in range(20):
        # a row assigned alone gets the batch's index and squared distance
        i, one = assign(grid, pts[m:m + 1])
        assert idx[m] == i[0]
        assert d2[m] == one[0]


def test_assign_tie_smallest_index():
    idx, _ = assign(Grid([[0.0], [1.0]]), np.array([[0.5], [0.5]]))
    assert list(idx) == [0, 0]


def test_assign_unsorted_midpoint_tie():
    # bisection alone would pick the sorted position, i.e. index 1
    idx, d2 = assign(Grid([[1.0], [0.0]]), np.array([[0.5]]))
    assert list(idx) == [0] and list(d2) == [0.25]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 30), st.integers(1, 3),
       st.sampled_from(["gaussian", "lattice"]), st.booleans(), st.booleans())
def test_assign_matches_scan_oracle(seed, n, d, kind, ordered, duplicate):
    """The fast searches give the scan's index on every row, ties included:
    points on lattice midpoints and cell centres (equidistant from 2-4 grid
    points), on grid points and on midpoints of grid pairs, with sorted or
    unsorted grids and duplicate grid points."""
    rng = np.random.default_rng(seed)
    if kind == "lattice":
        cells = rng.permutation(np.stack(np.meshgrid(
            *[np.arange(-3.0, 4.0)] * d, indexing="ij"), -1).reshape(-1, d))
        c = cells[:n]
    else:
        c = rng.normal(size=(n, d))
    if ordered:
        c = c[np.lexsort(c.T[::-1])]
    if duplicate and len(c) > 1:
        c[rng.integers(1, len(c))] = c[0]
    pts = np.vstack([rng.normal(scale=2.0, size=(200, d)), c,
                     0.5 * (c[:-1] + c[1:]),
                     rng.integers(-4, 4, size=(100, d)) + 0.5,
                     rng.integers(-4, 4, size=(100, d))
                     + 0.5 * (np.arange(d) == rng.integers(d))])
    grid = Grid(c)
    idx, d2 = assign(grid, pts)
    ref_idx, ref_d2 = _scan_assign(grid, pts)
    assert np.array_equal(idx, ref_idx)
    assert d2.tobytes() == ref_d2.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 30), st.floats(-3, 6),
       st.floats(-6, 0), st.booleans(), st.booleans())
def test_assign_1d_midpoint_gap_far_from_origin(seed, n, log_offset,
                                                log_spacing, negative,
                                                duplicate):
    """1-D grids at offsets up to 1e6 with spacings down to 1e-6 of the
    offset: points at, and one ulp either side of, each computed midpoint,
    where the midpoint-distance gap meets the near-tie tolerance, and up to
    1e6 grid widths away, get the scan's index and squared distance; and
    every positive gap of the sorted search is a lower bound of the exact
    (rational) gap."""
    rng = np.random.default_rng(seed)
    offset = (-1.0 if negative else 1.0) * 10.0 ** log_offset
    spacing = abs(offset) * 10.0 ** log_spacing
    c = rng.permutation(offset + spacing * np.cumsum(rng.uniform(0.1, 1, n)))
    if duplicate and n > 1:
        c[rng.integers(1, n)] = c[0]
    s = np.sort(c)
    mids = 0.5 * (s[:-1] + s[1:])
    with np.errstate(divide="ignore", invalid="ignore"):
        reach = _tie_tol(c[:, None], mids[:, None]) / (2 * np.diff(s))
    ok = np.isfinite(reach)
    pts = np.concatenate([
        mids, np.nextafter(mids, -np.inf), np.nextafter(mids, np.inf), c,
        *[mids[ok] + f * reach[ok] for f in (-2, -1, -0.5, 0.5, 1, 2)],
        offset + spacing * n * rng.uniform(-0.5, 1.5, 100),
        offset + spacing * n * rng.choice([-1, 1], 50)
        * 10.0 ** rng.uniform(0, 6, 50)])[:, None]
    grid = Grid(c[:, None])
    idx, d2 = assign(grid, pts)
    ref_idx, ref_d2 = _scan_assign(grid, pts)
    assert np.array_equal(idx, ref_idx)
    assert d2.tobytes() == ref_d2.tobytes()
    cand, gap = _sorted_search(grid.points, pts)
    exact = [Fraction(v) for v in c]
    for m in np.flatnonzero((gap > 0) & (gap < np.inf)):
        x, own = Fraction(pts[m, 0]), exact[cand[m]]
        least = min((x - v) ** 2 for j, v in enumerate(exact) if j != cand[m])
        assert Fraction(gap[m]) <= least - (x - own) ** 2


@pytest.mark.parametrize("oracle_test", [
    test_assign_matches_scan_oracle,
    test_assign_1d_midpoint_gap_far_from_origin])
def test_assign_table_matches_scan_oracle(monkeypatch, oracle_test):
    """The scan-oracle tests again, with the guess table built on every
    call in d <= 3 however few its rows, so that their grids and tie points
    go through the keep test and the list scan too."""
    monkeypatch.setattr(grids, "_TABLE_ROWS_PER_POINT", 0)
    oracle_test()


@pytest.mark.parametrize("d", [2, 3])
def test_tree_search_does_not_depend_on_the_worker_count(d, monkeypatch):
    """One kd-tree worker and four give the same candidates and gaps, on
    rows at grid points, at midpoints of pairs and not finite."""
    workers = []
    build = grids._kdtree

    class Recording:
        def __init__(self, c):
            self.tree = build(c)

        def query(self, *args, **kwargs):
            workers.append(kwargs["workers"])
            return self.tree.query(*args, **kwargs)

    monkeypatch.setattr(grids, "_kdtree", Recording)
    rng = np.random.default_rng(d)
    c = rng.standard_normal((60, d))
    pts = np.vstack([rng.standard_normal((20_000, d)), c,
                     0.5 * (c[:-1] + c[1:])])
    pts[::997, d - 1] = np.nan
    found = []
    for cpus in (1, 4):
        monkeypatch.setattr(grids, "_cpu_count", lambda: cpus)
        idx, gap = grids._tree_search(c, pts)
        found.append((idx.tobytes(), gap.tobytes()))
    assert workers == [1, 4]
    assert found[1] == found[0]


def test_assign_1d_blocks_equal_row_by_row():
    """A batch over two row-block boundaries that takes the guess table
    gives every row the scan's index and squared distance, and what the row
    gets in small batches (no table) and alone."""
    base = newton_1d(Law1D.gaussian(), 150)
    grid = Grid(100.0 * np.exp(0.01 + 0.07 * base.points))  # a bid-ask layer
    rng = np.random.default_rng(5)
    m = 2 * _ASSIGN_CHUNK + 123
    assert m >= grids._TABLE_ROWS_PER_POINT * grid.size
    x = 100.0 * np.exp(0.01 + 0.07 * rng.standard_normal(m))
    s = np.sort(grid.points[:, 0])
    mids = 0.5 * (s[:-1] + s[1:])
    ties = np.concatenate([mids, np.nextafter(mids, -np.inf),
                           np.nextafter(mids, np.inf), s])
    spots = rng.choice(m, ties.size, replace=False)
    x[spots] = ties
    edges = [k * _ASSIGN_CHUNK + j for k in (1, 2) for j in range(-3, 3)]
    x[edges] = ties[rng.choice(ties.size, len(edges))]
    pts = x[:, None]
    idx, d2 = assign(grid, pts)
    ref_idx, ref_d2 = _scan_assign(grid, pts)
    assert np.array_equal(idx, ref_idx)
    assert d2.tobytes() == ref_d2.tobytes()
    for lo in range(0, m, 1000):
        part_idx, part_d2 = assign(grid, pts[lo:lo + 1000])
        assert np.array_equal(part_idx, idx[lo:lo + 1000])
        assert part_d2.tobytes() == d2[lo:lo + 1000].tobytes()
    for r in np.concatenate([edges, spots[:200], rng.choice(m, 200)]):
        one_idx, one_d2 = assign(grid, pts[r:r + 1])
        assert one_idx[0] == idx[r] and one_d2[0] == d2[r]


@pytest.mark.parametrize("kind", ["gaussian", "lattice", "duplicate"])
def test_assign_1d_table_builds_no_kd_tree(kind, monkeypatch):
    """A 1-D call of 128 N rows takes the guess table, whose guesses,
    neighbour lists and leftovers all come from sorted searches: with
    `_kdtree` refused it gives the scan's indices and d2 bytes, on rows at
    the grid points, on midpoints (ties) and far away."""
    def refused(*args, **kwargs):
        raise AssertionError("kd-tree built")

    rng = np.random.default_rng(len(kind))
    grid = Grid(_guess_case(1, kind, rng))
    tables = []
    build = grids._guess_table
    monkeypatch.setattr(grids, "_guess_table",
                        lambda c: tables.append(build(c)) or tables[-1])
    monkeypatch.setattr(grids, "_kdtree", refused)
    pts = _guess_rows(grid.points, grids._TABLE_ROWS_PER_POINT * grid.size,
                      rng)
    idx, d2 = assign(grid, pts)
    assert len(tables) == 1 and tables[0] is not None
    ref_idx, ref_d2 = _scan_assign(grid, pts)
    assert np.array_equal(idx, ref_idx)
    assert d2.tobytes() == ref_d2.tobytes()


def _guess_case(d, kind, rng):
    """Grid of a guess-table case: Gaussian points, an integer lattice
    (exact ties), one axis of zero extent (in 1-D, all points equal),
    duplicated points or one point."""
    if kind == "lattice":
        side = {1: 12, 2: 5, 3: 3, 4: 2, 5: 2}[d]
        c = np.stack(np.meshgrid(*[np.arange(side, dtype=float)] * d,
                                 indexing="ij"), -1).reshape(-1, d)
        return rng.permutation(c)
    c = rng.normal(size=(1 if kind == "one-point" else 12, d))
    if kind == "flat-axis":
        c[:, d - 1] = 0.25
    if kind == "duplicate":
        c[5] = c[2]
        c[9] = c[2]
    return c


def _guess_rows(c, m, rng):
    """m rows: the grid points, midpoints of grid pairs, lattice half
    points, rows far outside the bounding box and Gaussian rows, shuffled."""
    n, d = c.shape
    pairs = rng.integers(n, size=(m // 4, 2))
    far = rng.normal(size=(m // 8, d))
    far *= 10.0 ** rng.uniform(1, 6, size=(len(far), 1))
    rows = np.vstack([c, 0.5 * (c[pairs[:, 0]] + c[pairs[:, 1]]), far,
                      rng.integers(-1, 4, size=(m // 8, d)) + 0.5,
                      rng.normal(scale=2.0, size=(m, d))])[:m]
    return rng.permutation(rows)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("kind", ["gaussian", "lattice", "flat-axis",
                                  "duplicate", "one-point"])
def test_assign_guess_table_matches_scan_oracle(d, kind, monkeypatch):
    """A call of 128 N rows, which takes the guess table in d <= 3, and one
    of 128 N - 1 rows, which does not, give every row the scan's index and
    d2 bytes: rows on grid points, on midpoints of pairs (ties), far
    outside the grid's bounding box and at random, on Gaussian and lattice
    grids, a grid with zero extent on one axis, with duplicated points and
    with one point. A one-point grid, and in 1-D a grid whose points all
    coincide, never take the table."""
    rng = np.random.default_rng(d * 10 + len(kind))
    grid = Grid(_guess_case(d, kind, rng))
    tables = []
    build = grids._guess_table
    monkeypatch.setattr(grids, "_guess_table",
                        lambda c: tables.append(build(c)) or tables[-1])
    for m in (grids._TABLE_ROWS_PER_POINT * grid.size - 1,
              grids._TABLE_ROWS_PER_POINT * grid.size):
        tables.clear()
        pts = _guess_rows(grid.points, m, rng)
        idx, d2 = assign(grid, pts)
        ref_idx, ref_d2 = _scan_assign(grid, pts)
        assert np.array_equal(idx, ref_idx), m
        assert d2.tobytes() == ref_d2.tobytes(), m
        took = [t for t in tables if t is not None]
        spans = np.ptp(grid.points, axis=0).any()
        assert len(took) == (m % grid.size == 0 and spans
                             and d <= grids._GUESS_MAX_DIM), m


@pytest.mark.parametrize("d", [1, 2, 3, 10, 33, 65])
@pytest.mark.parametrize("n", [1, 2, 7, 150, 1000])
def test_guess_table_has_at_most_16_bins_per_point(d, n):
    """`_guess_table` builds at most 16 N bins, one guess each, and
    none when they would be a single bin; in d = 33 and 65, beyond numpy's
    array rank limits, it builds none."""
    c = np.random.default_rng(d + n).normal(size=(n, d))
    table = grids._guess_table(c)
    if table is None:
        assert n == 1 or 2 ** d > grids._TABLE_BINS_PER_POINT * n
        return
    lo, inv, counts, cells = table
    assert 1 < np.prod(counts) == len(cells)
    assert len(cells) <= grids._TABLE_BINS_PER_POINT * n
    assert np.all((counts == counts.max()) | (counts == 1))
    # one more bin per axis would pass 16 N
    assert (int(counts.max()) + 1) ** d > grids._TABLE_BINS_PER_POINT * n


@pytest.mark.parametrize("d", [4, 33, 65])
def test_assign_high_dimension_matches_scan_oracle(d):
    """A call of 128 N rows in d above `_GUESS_MAX_DIM` takes the kd-tree
    and gives the scan's index and d2 bytes, in d = 65 too."""
    rng = np.random.default_rng(d)
    grid = Grid(rng.normal(size=(2, d)))
    pts = _guess_rows(grid.points, grids._TABLE_ROWS_PER_POINT * 2, rng)
    idx, d2 = assign(grid, pts)
    ref_idx, ref_d2 = _scan_assign(grid, pts)
    assert np.array_equal(idx, ref_idx)
    assert d2.tobytes() == ref_d2.tobytes()


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_assign_guess_table_non_finite_rows(d, monkeypatch):
    """A batch that takes the guess table, in blocks of 500 rows, with a
    nan and an infinite row in one block, and a finite batch whose squared
    norms overflow, give the exact search's indices and d2 (the scan's on
    the finite rows) with no warning and no error."""
    monkeypatch.setattr(grids, "_ASSIGN_CHUNK", 500)
    rng = np.random.default_rng(d)
    grid = Grid(rng.normal(size=(12, d)))
    pts = rng.normal(size=(4 * grids._TABLE_ROWS_PER_POINT * 12, d))
    pts[700, 0] = np.nan
    pts[900, d - 1] = -np.inf
    results = []
    for batch in (pts, pts * 1e160):
        with np.errstate(all="ignore"):
            expect_idx, expect_d2 = grids._search_assign(grid, batch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            idx, d2 = assign(grid, batch)
        assert np.array_equal(idx, expect_idx)
        assert d2.tobytes() == expect_d2.tobytes()
        results.append((idx, d2))
    finite = np.all(np.isfinite(pts), axis=1)
    ref_idx, ref_d2 = _scan_assign(grid, pts[finite])
    idx, d2 = results[0]
    assert np.array_equal(idx[finite], ref_idx)
    assert d2[finite].tobytes() == ref_d2.tobytes()


@pytest.mark.parametrize("d", [1, 2, 5])
@pytest.mark.parametrize("rows", [40, 3 * grids._TABLE_ROWS_PER_POINT])
def test_assign_one_point_grid(d, rows, monkeypatch):
    """On a one-point grid every index is 0 and d2 is the scan's, on a nan
    row and on rows with +inf and -inf, with no search and no warning."""
    def refused(*args):
        raise AssertionError("searched")

    monkeypatch.setattr(grids, "_sorted_search", refused)
    monkeypatch.setattr(grids, "_tree_search", refused)
    rng = np.random.default_rng(d)
    grid = Grid(rng.normal(size=(1, d)))
    pts = rng.normal(size=(rows, d))
    pts[3, 0] = np.nan
    pts[5, d - 1] = np.inf
    pts[8, 0] = -np.inf
    with np.errstate(all="ignore"):
        expect_idx, expect_d2 = _scan_assign(grid, pts)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        idx, d2 = assign(grid, pts)
    assert idx.dtype == expect_idx.dtype and not idx.any()
    assert np.array_equal(idx, expect_idx)
    assert d2.tobytes() == expect_d2.tobytes()


@pytest.fixture(scope="module")
def lloyd_grid_2d():
    """A 150-point d=2 Lloyd grid of N(0, I), like a multidim layer."""
    batch = np.random.default_rng(3).standard_normal((20_000, 2))
    return lloyd(Grid(batch[:150] * 0.5), SampleSource.from_batch(batch),
                 StopCriteria(max_iterations=30))[0]


def test_assign_guess_table_spares_the_tree(lloyd_grid_2d, monkeypatch):
    """On a d=2 Lloyd grid, a 1e5-row call sends under 5% of its rows to
    the kd-tree: the guess table, keep test and list scan place the rest.
    Its indices and d2 are the scan's."""
    seen = []
    search = grids._tree_search
    monkeypatch.setattr(grids, "_tree_search",
                        lambda c, p: seen.append(len(p)) or search(c, p))
    pts = np.random.default_rng(4).standard_normal((100_000, 2))
    idx, d2 = assign(lloyd_grid_2d, pts)
    assert 0 < sum(seen) < 0.05 * len(pts)
    ref_idx, ref_d2 = _scan_assign(lloyd_grid_2d, pts)
    assert np.array_equal(idx, ref_idx)
    assert d2.tobytes() == ref_d2.tobytes()


@pytest.mark.parametrize("d", [1, 2])
def test_assign_guess_table_memory_flat_in_rows(d, lloyd_grid_2d):
    """The table path runs in row blocks: a batch 4 times larger raises
    the tracemalloc peak of `assign` beyond its index and d2 outputs (16
    bytes a row) by under a quarter, where a whole-batch search would hold
    about 80 bytes a row more in d=2 (a kd-tree query) and about 32 in 1-D
    (the sorted search's temporaries)."""
    grid = lloyd_grid_2d if d == 2 else newton_1d(Law1D.gaussian(), 150)
    rng = np.random.default_rng(5)
    extra = []
    for m in (2 * _ASSIGN_CHUNK, 8 * _ASSIGN_CHUNK):
        pts = rng.standard_normal((m, d))
        tracemalloc.start()
        try:
            assign(grid, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        extra.append(peak - 16 * m)
    assert 0 < extra[1] < 1.25 * extra[0]


# ---------------------------------------------------------------------------
# distortion and gradient
# ---------------------------------------------------------------------------

def test_distortion_dirac():
    rep = distortion_and_gradient(Grid([[0.25]]),
                                  SampleSource.from_batch([[0.25]]))
    assert rep.value == 0.0
    assert np.allclose(rep.gradient, 0.0)


def test_distortion_hand_example():
    rep = distortion_and_gradient(Grid([[0.0], [1.0]]),
                                  SampleSource.from_batch([[0.25], [0.75]]))
    assert rep.value == pytest.approx(0.0625, abs=1e-15)
    assert np.allclose(rep.gradient[:, 0], [-0.25, 0.25], atol=1e-15)
    assert list(rep.cell_counts) == [1, 1]


def test_distortion_empty_cell_zero_gradient():
    rep = distortion_and_gradient(Grid([[0.0], [100.0]]),
                                  SampleSource.from_batch([[0.1], [0.2]]))
    assert rep.cell_counts[1] == 0
    assert np.allclose(rep.gradient[1], 0.0)


def test_distortion_empty_batch_error():
    with pytest.raises(InputError):
        SampleSource.from_batch(np.empty((0, 1)))


def _fd_gradient(points, batch, step_scale=1e-5):
    """Central finite differences of the empirical distortion."""
    src = SampleSource.from_batch(batch)
    out = np.zeros_like(points)
    for i in range(points.shape[0]):
        for j in range(points.shape[1]):
            h = step_scale * (1.0 + abs(points[i, j]))
            up = points.copy(); up[i, j] += h
            dn = points.copy(); dn[i, j] -= h
            fu = distortion_and_gradient(Grid(up), src).value
            fd = distortion_and_gradient(Grid(dn), src).value
            out[i, j] = (fu - fd) / (2.0 * h)
    return out


def _well_separated_case(rng, n, d):
    """Grid with pairwise distance >= 1 and a batch filling every cell with
    margin, so finite-difference steps never flip assignments."""
    pts = (np.arange(n)[:, None] * 1.5) * np.ones((1, d)) \
        + 0.1 * rng.normal(size=(n, d))
    batch = np.concatenate([
        pts[i] + 0.2 * (rng.random(size=(40, d)) - 0.5) for i in range(n)])
    return pts, batch


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    for _ in range(5):
        n, d = rng.integers(2, 7), rng.integers(1, 3)
        pts, batch = _well_separated_case(rng, int(n), int(d))
        rep = distortion_and_gradient(Grid(pts), SampleSource.from_batch(batch))
        fd = _fd_gradient(pts, batch)
        scale = max(1.0, np.abs(rep.gradient).max())
        assert np.abs(rep.gradient - fd).max() / scale <= 1e-6


# ---------------------------------------------------------------------------
# Lloyd
# ---------------------------------------------------------------------------

def test_lloyd_single_point_is_mean():
    batch = np.array([[0.0], [1.0], [5.0]])
    g, rep, _ = lloyd(Grid([[0.3]]), SampleSource.from_batch(batch))
    assert g.points[0, 0] == pytest.approx(2.0)
    assert np.allclose(g.weights, [1.0])


def test_lloyd_gaussian_two_points():
    rng = np.random.default_rng(1)
    batch = rng.standard_normal((300_000, 1))
    g, _, _ = lloyd(Grid([[-0.5], [0.4]]), SampleSource.from_batch(batch))
    assert np.allclose(np.sort(g.points[:, 0]), [-GAUSS_2PT, GAUSS_2PT],
                       atol=0.02)


def test_lloyd_uniform_ten_points():
    rng = np.random.default_rng(2)
    batch = rng.random((300_000, 1))
    init = rng.random((10, 1))
    g, _, _ = lloyd(Grid(init), SampleSource.from_batch(batch))
    expect = (2 * np.arange(1, 11) - 1) / 20.0
    assert np.allclose(np.sort(g.points[:, 0]), expect, atol=0.02)


def test_lloyd_weights_and_stationarity():
    rng = np.random.default_rng(3)
    batch = rng.standard_normal((100_000, 2))
    stop = StopCriteria(max_iterations=1000,
                        relative_distortion_tolerance=1e-9,
                        stationarity_tolerance=1e-4)
    g, rep, it = lloyd(Grid(rng.standard_normal((5, 2))),
                       SampleSource.from_batch(batch), stop)
    assert abs(g.weights.sum() - 1.0) < 1e-12
    # empirical conditional-mean fixed point on every nonempty cell
    idx, _ = assign(g, batch)
    for i in range(5):
        cell = batch[idx == i]
        assert cell.size
        resid = np.linalg.norm(cell.mean(axis=0) - g.points[i])
        assert resid <= 1e-4 * (1.0 + np.linalg.norm(g.points[i]))


def test_lloyd_input_validation():
    with pytest.raises(InputError):
        lloyd(Grid([[0.0], [1.0], [2.0]]),
              SampleSource.from_batch([[0.0], [1.0]]))
    with pytest.raises(InputError):
        lloyd(Grid([[0.0], [0.0]]), SampleSource.from_batch([[0.0], [1.0]]))


@pytest.mark.parametrize("grid_dim, batch_dim", [(1, 2), (2, 1), (2, 3)])
def test_lloyd_rejects_a_batch_of_another_width(grid_dim, batch_dim,
                                                monkeypatch):
    """A batch whose width is not the grid's dimension raises InputError
    before the first sweep, instead of sweeping on its first columns."""
    def refused(*args):
        raise AssertionError("swept")

    for name in ("assign", "_certified"):
        monkeypatch.setattr(grids, name, refused)
    rng = np.random.default_rng(3)
    with pytest.raises(InputError, match="batch dimension mismatch"):
        lloyd(Grid(rng.standard_normal((4, grid_dim))),
              SampleSource.from_batch(rng.standard_normal((50, batch_dim))))


@pytest.mark.parametrize("d", [1, 2])
def test_lloyd_rejects_fewer_distinct_rows_than_points(d):
    """100 copies of one row with two points (1-D), and 100 copies of two
    rows with three points (d=2), raise InputError instead of re-seeding
    the dead cell for 200 sweeps and returning a zero-weight point."""
    if d == 1:
        batch, init = np.ones((100, 1)), [[0.0], [5.0]]
    else:
        batch = np.repeat([[0.0, 0.0], [1.0, 1.0]], 50, axis=0)
        init = [[0.0, 0.0], [1.0, 1.0], [3.0, 3.0]]
    with pytest.raises(InputError, match="fewer distinct sample rows"):
        lloyd(Grid(init), SampleSource.from_batch(batch))


def test_lloyd_counts_distinct_rows_once_after_a_dead_cell(monkeypatch):
    """In d=2 the distinct rows are counted only after a sweep leaves a
    cell empty, and only once: not at all on a run whose cells all live,
    once on a run that re-seeds a far point."""
    counted = []
    count = grids._distinct_rows
    monkeypatch.setattr(grids, "_distinct_rows",
                        lambda x: counted.append(len(x)) or count(x))
    batch = np.random.default_rng(9).standard_normal((500, 2))
    lloyd(Grid(batch[:4]), SampleSource.from_batch(batch))
    assert counted == []
    grid, report, _ = lloyd(Grid(np.vstack([batch[:3], [[40.0, 40.0]]])),
                            SampleSource.from_batch(batch))
    assert counted == [500]
    assert np.all(report.cell_counts > 0)


def test_lloyd_reseeds_dead_cells():
    rng = np.random.default_rng(8)
    batch = rng.random((500, 1))
    g, rep, _ = lloyd(Grid([[0.2], [0.5], [50.0]]),
                      SampleSource.from_batch(batch))
    assert np.all(rep.cell_counts > 0)
    assert np.all(np.abs(g.points) <= 1.5)


@pytest.mark.parametrize("offset", [1e5, 1e6])
def test_lloyd_converges_far_from_origin(offset):
    """Far from the origin each sweep's d2 is off by up to a quarter of the
    near-tie tolerance; that rounding is no rise of the distortion."""
    near_batch = np.random.default_rng(13).standard_normal((4000, 1))
    batch = offset + near_batch
    _, near, _ = lloyd(Grid(near_batch[:10]),
                       SampleSource.from_batch(near_batch))
    _, far, it = lloyd(Grid(batch[:10]), SampleSource.from_batch(batch))
    assert it < StopCriteria().max_iterations
    assert far.value == pytest.approx(near.value, rel=0.01)


@pytest.mark.parametrize("d", [1, 2])
def test_lloyd_raises_when_a_bounded_sweep_raises_the_distortion(
        d, monkeypatch):
    """In every d sweep 1 is a full `assign` and the later ones go through
    `_certified`."""
    batch = np.random.default_rng(13).standard_normal((4000, d))
    certified = grids._certified
    sweeps = []

    def worse_third_sweep(grid, rows, xx, idx, tol, near):
        idx, d2 = certified(grid, rows, xx, idx, tol, near)
        sweeps.append(len(sweeps) + 2)
        if sweeps[-1] == 3:  # every row to another cell
            idx = (idx + 1) % grid.size
            d2 = grids._sq_dist(rows, grid.points.take(idx, axis=0))
        return idx, d2

    monkeypatch.setattr(grids, "_certified", worse_third_sweep)
    with pytest.raises(ConvergenceError, match="distortion increased"):
        lloyd(Grid(batch[:10]), SampleSource.from_batch(batch))
    assert sweeps == [2, 3]


@pytest.mark.parametrize("d", [1, 2])
def test_lloyd_stops_at_zero_distortion(d):
    """A batch of the grid's own N distinct rows, repeated, has distortion
    0 from the first sweep on: the second sweep lowers it by 0, which is
    within any relative tolerance of 0, so the run stops there instead of
    using up its iterations."""
    rows = np.random.default_rng(21).standard_normal((3, d))
    batch = np.repeat(rows, 4, axis=0)
    grid, report, it = lloyd(Grid(rows), SampleSource.from_batch(batch))
    assert it == 2
    assert report.value == 0.0
    assert np.array_equal(grid.points, rows)
    assert np.array_equal(grid.weights, np.full(3, 1 / 3))


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_lloyd_rejects_non_finite_rows(d, bad):
    """A batch row that is not finite is refused before any sweep, with no
    warning."""
    batch = np.random.default_rng(4).standard_normal((500, d))
    batch[7, d - 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="sample batch must be finite"):
            lloyd(Grid(batch[10:15]), SampleSource.from_batch(batch))


def _lloyd_reference(initial, batch, stop):
    """Lloyd's loop with the exact scan on every sweep and one more full
    pass at the end: the oracle for `lloyd`'s bounded sweeps."""
    n = initial.shape[0]
    pts = initial.copy()
    jitter = 1e-6 * batch.std(axis=0)
    far = batch[[int(np.argmax(grids._sq_norm(batch)))]]
    rng = np.random.default_rng(0)
    prev = prev_tol = None
    it = 0
    for it in range(1, stop.max_iterations + 1):
        grid = Grid(pts)
        idx, d2 = _scan_assign(grid, batch)
        counts, sums = cell_sums(idx, n, batch)
        value = float(d2.mean())
        tol = float(grids._tie_tol(pts, far)[0])
        if (prev is not None
                and value - prev > 1e-12 * prev + (prev_tol + tol) / 4):
            raise ConvergenceError("distortion increased during Lloyd sweep",
                                   residual=value - prev)
        means = pts.copy()
        np.divide(sums, counts[:, None], out=means, where=counts[:, None] > 0)
        dead = np.flatnonzero(counts == 0)
        if dead.size:
            donor = int(np.argmax(counts))
            donors = np.flatnonzero(idx == donor)
            for i in dead:
                pick = batch[rng.choice(donors)]
                means[i] = pick + jitter * rng.standard_normal(pts.shape[1])
        else:
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
    idx, d2 = _scan_assign(grid, batch)
    counts, sums = cell_sums(idx, n, batch)
    grad = 2.0 * (counts[:, None] * grid.points - sums) / batch.shape[0]
    grad[counts == 0] = 0.0
    return (grid.points, counts / batch.shape[0], float(d2.mean()), grad,
            counts, it)


def _balanced_lattice(d):
    """Integer lattice points in C order, each with samples at itself, at
    its midpoints towards the next points along the axes and the diagonals
    of coordinate pairs, and twice at minus half of each of those offsets.
    Every midpoint is an exact tie whose smallest index is the point
    itself, so the lattice is a Lloyd fixed point in exact arithmetic."""
    side = {1: 8, 2: 4, 3: 3}[d]
    points = np.stack(np.meshgrid(*[np.arange(side, dtype=float)] * d,
                                  indexing="ij"), -1).reshape(-1, d)
    eye = np.eye(d)
    steps = list(eye) + [eye[i] + eye[j] for i in range(d)
                         for j in range(i + 1, d)]
    offsets = [np.zeros(d)] + [f * s for s in steps
                               for f in (0.5, -0.25, -0.25)]
    return points, np.vstack([points + o for o in offsets])


def _with_sweep_two_ties(init, batch):
    """The batch plus the midpoints of each pair of its first-sweep cell
    means, each with its mirror image through the mean of the first-sweep
    cell it falls in, where that image falls in the same cell: the first
    sweep's means then move by rounding only, and the midpoints are
    near-ties at the second sweep."""
    grid = Grid(init)
    idx, _ = _scan_assign(grid, batch)
    counts, sums = cell_sums(idx, len(init), batch)
    means = init.copy()
    np.divide(sums, counts[:, None], out=means, where=counts[:, None] > 0)
    i, j = np.triu_indices(len(means), 1)
    mids = 0.5 * (means[i] + means[j])
    cell = _scan_assign(grid, mids)[0]
    mirrors = 2.0 * means[cell] - mids
    same = _scan_assign(grid, mirrors)[0] == cell
    return np.vstack([batch, mids[same], mirrors[same]])


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3),
       st.sampled_from(["gaussian", "lattice", "many"]),
       st.sampled_from([1.0, 0.1, 1.0 / 3.0, 2.7]),
       st.sampled_from([0.0, 0.3, -1.7, 1e3]),
       st.booleans(), st.booleans(), st.sampled_from([1, 2, 3, 500]))
def test_lloyd_matches_unbounded_reference(seed, d, kind, scale, shift,
                                           duplicate, dead, max_iterations):
    """Bounded sweeps give the bytes of the full-scan loop: grids, weights,
    report and iterations, on exact ties at lattice midpoints (scale 1,
    shift 0), near-ties at the second sweep's midpoints, duplicated rows,
    a dead far point and grids of many more points than a neighbour list
    holds, for runs that converge and runs that use up their
    iterations."""
    rng = np.random.default_rng(seed)
    if kind == "lattice":
        init, batch = _balanced_lattice(d)
    elif kind == "many":  # N >> K: the neighbour lists miss most points
        batch = rng.normal(size=(1000, d))
        init = rng.normal(size=(40, d))
    else:
        batch = rng.normal(size=(300, d))
        init = rng.normal(size=(int(rng.integers(2, 13)), d))
    if duplicate:
        batch = np.vstack([batch, batch[rng.integers(len(batch),
                                                     size=len(batch) // 2)]])
    batch = _with_sweep_two_ties(init, batch)
    if dead:
        init = np.vstack([init, np.full((1, d), 50.0)])
    init, batch = scale * init + shift, scale * batch + shift
    stop = StopCriteria(max_iterations=max_iterations)

    def outcome(run):
        try:
            return run()
        except ConvergenceError as exc:
            return str(exc)

    expect = outcome(lambda: _lloyd_reference(init, batch, stop))
    got = outcome(lambda: lloyd(Grid(init), SampleSource.from_batch(batch),
                                stop))
    if isinstance(expect, str) or isinstance(got, str):
        assert got == expect
        return
    grid, report, it = got
    points, weights, value, gradient, counts, ref_it = expect
    assert grid.points.tobytes() == points.tobytes()
    assert grid.weights.tobytes() == weights.tobytes()
    assert report.value == value
    assert report.gradient.tobytes() == gradient.tobytes()
    assert np.array_equal(report.cell_counts, counts)
    assert it == ref_it


def _bounded_batch(c, rng):
    """Rows around grid c: Gaussian rows, the grid points, the origin (the
    smallest row norm), every pair midpoint and one ulp either side of it,
    and rows whose exact gap between a point and its nearest neighbour is
    0.5 to 8 times the midpoint's near-tie tolerance."""
    d = c.shape[1]
    rows = [c.mean(0) + rng.normal(size=(200, d)), c, np.zeros((1, d))]
    i, j = np.triu_indices(len(c), 1)
    mids = 0.5 * (c[i] + c[j])
    rows += [mids, np.nextafter(mids, np.inf), np.nextafter(mids, -np.inf)]
    for a in range(len(c)):
        dist = np.sqrt(grids._sq_norm(c - c[a]))
        dist[a] = np.inf
        b = int(np.argmin(dist))
        if not 0 < dist[b] < np.inf:
            continue
        unit = (c[a] - c[b]) / dist[b]
        mid = 0.5 * (c[a] + c[b])
        tol = _tie_tol(c, mid[None, :])[0]
        f = np.array([0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0, 1.25, 1.5, 2.0,
                      3.0, 4.0, 8.0])
        # |x - c[b]|^2 - |x - c[a]|^2 = 2 t |c[a] - c[b]| = f tol
        rows.append(mid + (f * tol / (2 * dist[b]))[:, None] * unit)
    return np.vstack(rows)


def _candidates(c, batch, expect_idx, rng):
    """Candidate cells of a `_certified` or `_settle` call: the right
    ones, those of a moved grid, random ones and only wrong ones."""
    n = len(c)
    previous = Grid(c + 0.05 * rng.normal(size=c.shape))
    return {
        "correct": expect_idx,
        "stale": assign(previous, batch)[0],
        "random": rng.integers(n, size=len(batch)),
        "wrong": (expect_idx
                  + rng.integers(1, max(n, 2), size=len(batch))) % n,
    }


def _exact_sq(x, y):
    return sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(x, y))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("offset", [0.0, 1e3, 1e6])
@pytest.mark.parametrize("kind", ["distinct", "duplicate", "one-point"])
def test_bounded_assign_matches_assign(d, offset, kind, monkeypatch):
    """The bounded searches of Lloyd's sweeps and of `assign`'s table path
    (`_certified`) return `assign`'s index and d2 bytes for correct, stale,
    random and all-wrong candidates; in 1-D the batch also holds rows on
    every Voronoi edge and up to four ulps either side of it
    (`_edge_rows`). With a zero reach, so that no
    row is settled by its neighbour list (`_settle`), every row it keeps
    has an exact gap to each other point above the row's own near-tie
    tolerance; and each keep threshold, at the separations and at the
    reaches, is below its exact bound r^2 - T."""
    rng = np.random.default_rng(d * 100 + int(math.log10(offset + 1)))
    n = {"distinct": 12, "duplicate": 12, "one-point": 1}[kind]
    c = offset + rng.normal(size=(n, d))
    if kind == "duplicate":
        c[5] = c[2]
    batch = _bounded_batch(c, rng)
    if d == 1:
        batch = np.vstack([batch, _edge_rows(c, 4)])
    grid = Grid(c)
    expect_idx, expect_d2 = assign(grid, batch)
    candidates = _candidates(c, batch, expect_idx, rng)
    xx, far = grids._batch_norms(batch)
    T = _tie_tol(c, far)[0]
    near = grids._neighbours(c)
    for name, cand in candidates.items():
        idx, d2 = grids._certified(grid, batch, xx, cand.copy(), T, near)
        assert idx.tobytes() == expect_idx.tobytes(), name
        assert d2.tobytes() == expect_d2.tobytes(), name

    # exact checks on what the keep test decides alone: a zero reach
    # settles no row by its neighbour list, and searched rows come back
    # as -1
    monkeypatch.setattr(grids, "_search_assign", lambda g, p: (
        np.full(len(p), -1), np.full(len(p), np.nan)))
    sep, lists, reach = near
    unlisted = (sep, lists, np.zeros_like(reach))
    tol = _tie_tol(c, batch)
    for name, cand in candidates.items():
        idx, _ = grids._certified(grid, batch, xx, cand.copy(), T, unlisted)
        kept = np.flatnonzero(idx >= 0)
        assert np.array_equal(idx[kept], cand[kept]), name
        if name == "wrong" and n > 1:
            assert kept.size == 0
        for m in kept:
            a = idx[m]
            gaps = (grids._sq_norm(c - batch[m])
                    - grids._sq_norm(c[a] - batch[m]))
            gaps[a] = np.inf
            # a gap of 16 tolerances is far beyond rounding: check the rest
            for b in np.flatnonzero(gaps < 16 * tol[m]):
                exact = (_exact_sq(batch[m], c[b])
                         - _exact_sq(batch[m], c[a]))
                assert exact > Fraction(tol[m]), (name, m, a, b)
    for radius in (sep, reach):
        thr = grids._keep_threshold(radius, T)
        for s, t in zip(radius, thr):
            if t <= 0 or s == np.inf:  # passes no row (d2 >= 0), or every
                continue
            sq, T_, t_ = Fraction(s) ** 2, Fraction(T), Fraction(t)
            # t <= r^2 - T with r = (s^2 - T) / (2 s) > 0
            assert sq > T_ and (t_ + T_) * 4 * sq <= (sq - T_) ** 2


def _edge_rows(c, ulps):
    """Rows on every Voronoi edge of the 1-D grid c, `ulps` ulps either
    side of each, and on the grid points."""
    s = np.sort(c[:, 0])
    mids = 0.5 * (s[:-1] + s[1:])
    rows = [s, mids]
    for side in (-np.inf, np.inf):
        x = mids
        for _ in range(ulps):
            x = np.nextafter(x, side)
            rows.append(x)
    return np.concatenate(rows)[:, None]


@pytest.mark.parametrize("offset", [0.0, 1e3, 1e6])
def test_lloyd_1d_sweeps_match_reference(offset, monkeypatch):
    """A 1-D Lloyd run with duplicated rows, rows on the first grid's edges
    and a dead far point that is re-seeded gives the bytes of the
    full-scan loop, calls `assign` twice (the first sweep and the final
    report), takes its other sweeps from `_certified` and never reaches
    the kd-tree."""
    rng = np.random.default_rng(5)
    init = rng.normal(size=(9, 1))
    batch = rng.normal(size=(600, 1))
    batch = np.vstack([batch, batch[:200], _edge_rows(init, 2)])
    init = np.vstack([init, [[50.0]]]) + offset
    batch = rng.permutation(batch) + offset
    stop = StopCriteria(max_iterations=40)
    points, weights, value, gradient, counts, ref_it = _lloyd_reference(
        init, batch, stop)
    calls = []
    original = grids.assign

    def counted(grid, pts):
        calls.append(len(pts))
        return original(grid, pts)

    def refused(*args):
        raise AssertionError("reached")

    monkeypatch.setattr(grids, "assign", counted)
    monkeypatch.setattr(grids, "_tree_search", refused)
    grid, report, it = lloyd(Grid(init), SampleSource.from_batch(batch),
                             stop)
    assert calls == [len(batch), len(batch)]
    assert grid.points.tobytes() == points.tobytes()
    assert grid.weights.tobytes() == weights.tobytes()
    assert report.value == value
    assert report.gradient.tobytes() == gradient.tobytes()
    assert np.array_equal(report.cell_counts, counts)
    assert it == ref_it


def _settle_grid(d, offset, kind, rng):
    """Grid of a `_settle` case: K points (each list is the whole grid), 40
    points with a duplicated one, an integer lattice (exact ties inside
    each list) or 60 points."""
    k = grids._list_size(d)
    if kind == "lattice":
        side = {1: 12, 2: 5, 3: 3, 4: 3}[d]
        c = np.stack(np.meshgrid(*[np.arange(side, dtype=float)] * d,
                                 indexing="ij"), -1).reshape(-1, d)
        return offset + c
    n = {"whole-grid": k, "duplicate": 40, "many": 60}[kind]
    c = offset + rng.normal(size=(n, d))
    if kind == "duplicate":
        c[5] = c[2]
    return c


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("offset", [0.0, 1e3, 1e6])
@pytest.mark.parametrize("kind", ["whole-grid", "duplicate", "lattice",
                                  "many"])
def test_settle_matches_scan(d, offset, kind):
    """`_settle` gives each row below its candidate's keep threshold at
    the reach (`_keep_threshold`) the scan's index and d2 bytes, ties to
    the smallest index included, for correct, stale, random and all-wrong
    candidates. Every grid point outside the list of a settled row's
    candidate has an exact squared-distance gap to the settled point of
    more than half the row's near-tie tolerance; and each reach r_a is at
    most the exact distance from a to every point outside a's list. Where
    the lists reach well beyond the near-tie distance, the threshold
    passes most rows of correct candidates."""
    rng = np.random.default_rng(d * 1000 + int(math.log10(offset + 1)))
    c = _settle_grid(d, offset, kind, rng)
    n = len(c)
    batch = _bounded_batch(c, rng)
    expect_idx, expect_d2 = _scan_assign(Grid(c), batch)
    candidates = _candidates(c, batch, expect_idx, rng)
    xx, far = grids._batch_norms(batch)
    T = _tie_tol(c, far)[0]
    tol = _tie_tol(c, batch)
    _, lists, reach = grids._neighbours(c)
    outside = np.ones((n, n), dtype=bool)
    np.put_along_axis(outside, lists, False, axis=1)
    assert (reach == np.inf).all() == (n <= grids._list_size(d))
    for a in range(n):
        for b in np.flatnonzero(outside[a]):
            assert Fraction(reach[a]) ** 2 <= _exact_sq(c[a], c[b]), (a, b)
    thr = grids._keep_threshold(reach, T)
    for name, cand in candidates.items():
        idx = cand.copy()
        d2 = np.maximum(grids._sq_dist(batch, c.take(idx, axis=0)), 0.0)
        listed = d2 < thr.take(cand)
        settled, left = np.flatnonzero(listed), np.flatnonzero(~listed)
        grids._settle(c, batch, xx, settled, idx, d2, lists)
        assert np.array_equal(idx[left], cand[left]), name
        if n <= grids._list_size(d):
            assert left.size == 0, name
        elif name == "correct" and np.median(reach) > 3 * math.sqrt(T):
            # the threshold needs r_a > 2 sqrt(d2 + T): at 1e6 a 1-D
            # grid's reach is about sqrt(T), and few rows can be settled
            assert settled.size > len(batch) // 2, name
        assert idx[settled].tobytes() == expect_idx[settled].tobytes(), name
        assert d2[settled].tobytes() == expect_d2[settled].tobytes(), name
        for m in settled:
            a, s = cand[m], idx[m]
            gaps = (grids._sq_norm(c - batch[m])
                    - grids._sq_norm(c[s] - batch[m]))
            # a gap of 16 tolerances is far beyond rounding: check the rest
            for b in np.flatnonzero(outside[a] & (gaps < 16 * tol[m])):
                exact = (_exact_sq(batch[m], c[b])
                         - _exact_sq(batch[m], c[s]))
                assert exact > Fraction(tol[m]) / 2, (name, m, a, b)


# ---------------------------------------------------------------------------
# CLVQ
# ---------------------------------------------------------------------------

def _gaussian_draw(d, seed):
    """CLVQ's draw(m): the next m rows of N(0, I_d) from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    return lambda m: rng.standard_normal((m, d))


def test_clvq_single_step_update():
    g = clvq(Grid([[0.0]]), _gaussian_draw(1, 0), steps=1,
             schedule=(1.0, 9.0), weight_pass=10)
    first = _gaussian_draw(1, 0)(1)[0, 0]
    assert g.points[0, 0] == pytest.approx(0.1 * first)


def test_clvq_one_point_converges_to_mean():
    g = clvq(Grid([[2.0]]), _gaussian_draw(1, 4),
             steps=100_000, schedule=(1.0, 100.0), weight_pass=1000)
    assert abs(g.points[0, 0]) <= 0.05


def test_clvq_matches_lloyd_distortion():
    batch = _gaussian_draw(1, 7)(100_000)
    init = Grid(np.linspace(-2, 2, 20)[:, None])
    gl, repl, _ = lloyd(init, SampleSource.from_batch(batch))
    gc = clvq(init, _gaussian_draw(1, 7), steps=500_000,
              schedule=(100.0, 1000.0))
    repc = distortion_and_gradient(gc, SampleSource.from_batch(batch))
    assert repc.value <= 1.05 * repl.value


@pytest.mark.parametrize("shape", [lambda m: (m, 2), lambda m: (m,),
                                   lambda m: (m - 1, 1)],
                         ids=["wide", "flat", "short"])
@pytest.mark.parametrize("bad_draw", [1, 3])
def test_clvq_rejects_draws_of_another_shape(shape, bad_draw):
    """A draw(m) whose shape is not (m, d) raises InputError at that draw:
    at the first block, before any point moves, or at the weight pass."""
    good = _gaussian_draw(1, 0)
    calls = []

    def draw(m):
        calls.append(m)
        if len(calls) == bad_draw:
            return np.zeros(shape(m))
        return good(m)

    with pytest.raises(InputError, match="must return an"):
        clvq(Grid([[0.0]]), draw, steps=5000, weight_pass=10)
    assert len(calls) == bad_draw


def test_clvq_validation():
    with pytest.raises(InputError):
        clvq(Grid([[0.0]]), _gaussian_draw(1, 0), steps=10,
             schedule=(2.0, 0.0))
    with pytest.raises(InputError):
        clvq(Grid([[0.0]]), _gaussian_draw(1, 0), steps=0)


# ---------------------------------------------------------------------------
# Newton (1D)
# ---------------------------------------------------------------------------

def test_newton_gaussian_one_point():
    g = newton_1d(Law1D.gaussian(), 1)
    assert g.points[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert g.weights[0] == pytest.approx(1.0)


def test_newton_gaussian_two_points():
    g = newton_1d(Law1D.gaussian(), 2)
    assert np.allclose(g.points[:, 0], [-GAUSS_2PT, GAUSS_2PT], atol=1e-8)
    assert np.allclose(g.weights, [0.5, 0.5], atol=1e-10)


def test_newton_uniform_four_points():
    g = newton_1d(Law1D.uniform01(), 4)
    assert np.allclose(g.points[:, 0], [0.125, 0.375, 0.625, 0.875],
                       atol=1e-10)
    assert np.allclose(g.weights, 0.25, atol=1e-10)


def test_newton_residual_and_validation():
    g = newton_1d(Law1D.gaussian(), 25)
    from quantschemes.grids import _newton_residual
    grad, mass, _ = _newton_residual(g.points[:, 0], Law1D.gaussian())
    assert np.abs(grad).max() <= 1e-10
    assert np.allclose(mass, g.weights)
    with pytest.raises(InputError):
        newton_1d(Law1D.gaussian(), 0)


def test_newton_convergence_error_carries_residual():
    with pytest.raises(ConvergenceError) as exc:
        newton_1d(Law1D.gaussian(), 40, tol=1e-10, max_iter=1)
    assert exc.value.residual is not None and exc.value.residual > 0


def test_newton_singular_system():
    # no mass below the last midpoint and a flat density: the Jacobian has
    # zero rows, and the residual 2 (x_N - mean) is not zero
    zero = lambda t: np.zeros_like(np.asarray(t, dtype=float))
    law = Law1D(density=zero, cdf=zero, first_moment=zero, mean=3.0)
    with pytest.raises(ConvergenceError, match="singular Newton system"):
        newton_1d(law, 3)


def test_gaussian_mixture_matches_quadrature():
    from scipy.integrate import quad
    p, m, s = [0.2, 0.5, 0.3], [-1.0, 0.5, 3.0], [0.4, 1.0, 2.5]
    law = Law1D.gaussian_mixture(p, m, s)

    def density(u):
        return sum(pi * math.exp(-0.5 * ((u - mi) / si) ** 2)
                   / (si * math.sqrt(2 * math.pi))
                   for pi, mi, si in zip(p, m, s))

    assert law.mean == pytest.approx(np.dot(p, m), rel=1e-15)
    t = np.array([-3.0, -0.7, 0.0, 0.5, 2.0, 6.0])
    cdf = [quad(density, -np.inf, u, epsabs=1e-13, epsrel=1e-12)[0]
           for u in t]
    moment = [quad(lambda u: u * density(u), -np.inf, v, epsabs=1e-13,
                   epsrel=1e-12)[0] for v in t]
    assert np.allclose(law.density(t), [density(u) for u in t],
                       rtol=1e-13, atol=0)
    assert np.allclose(law.cdf(t), cdf, rtol=1e-10, atol=1e-12)
    assert np.allclose(law.first_moment(t), moment, rtol=1e-10, atol=1e-12)
    # array shapes are kept, the kept values are read-only, and the blocks
    # of a long argument agree
    assert law.cdf(t.reshape(2, 3)).shape == (2, 3)
    with pytest.raises(ValueError):
        law.first_moment(t.reshape(2, 3))[0, 0] = 0.0
    long = np.linspace(-5.0, 8.0, 70_001)
    assert np.allclose(law.cdf(long)[[0, 35_000, -1]],
                       law.cdf(long[[0, 35_000, -1]]), rtol=1e-15, atol=0)


def _dense_newton(law, N, tol=1e-10):
    """Reference damped Newton on the dense N x N Jacobian, assembled
    entry by entry and solved by LU."""
    from quantschemes.grids import _newton_residual
    x = np.asarray(law.ppf((2.0 * np.arange(1, N + 1) - 1.0) / (2.0 * N)),
                   dtype=float)
    grad, mass, m = _newton_residual(x, law)
    res = float(np.max(np.abs(grad)))
    for _ in range(200):
        if res <= tol:
            return x
        jac = np.diag(2.0 * mass)
        phi = law.density(m)
        for i in range(N - 1):
            jac[i, i] += phi[i] * (x[i] - m[i])
            jac[i + 1, i + 1] -= phi[i] * (x[i + 1] - m[i])
            jac[i, i + 1] = jac[i + 1, i] = -0.5 * phi[i] * (x[i + 1] - x[i])
        step = np.linalg.solve(jac, grad)
        t = 1.0
        for _ in range(30):
            cand = x - t * step
            if N == 1 or np.all(np.diff(cand) > 0):
                g2, mass2, m2 = _newton_residual(cand, law)
                if np.max(np.abs(g2)) < res:
                    break
            t *= 0.5
        else:
            raise AssertionError("reference Newton damping exhausted")
        x, grad, mass, m = cand, g2, mass2, m2
        res = float(np.max(np.abs(grad)))
    raise AssertionError("reference Newton did not converge")


@pytest.mark.parametrize("law", ["gaussian", "uniform01"])
@pytest.mark.parametrize("N", [1, 2, 3, 150, 2000])
def test_newton_band_grid_and_dense_reference(law, N):
    from quantschemes.grids import _newton_band, _newton_residual
    law = getattr(Law1D, law)()
    # the band against a central finite-difference Jacobian, at a perturbed
    # starting grid
    rng = np.random.default_rng(N)
    x = np.asarray(law.ppf((2.0 * np.arange(1, N + 1) - 1.0) / (2.0 * N)))
    if N > 1:
        x = x + 0.1 * np.diff(x).min() * rng.uniform(-1.0, 1.0, N)
    _, mass, m = _newton_residual(x, law)
    band = _newton_band(x, mass, m, law)
    dense = np.diag(band[1]) + np.diag(band[0, 1:], 1) + np.diag(band[2, :-1], -1)
    h = 1e-5  # about eps^(1/3) on unit-scale residual terms
    fd = np.empty((N, N))
    for j in range(N):
        e = np.zeros(N)
        e[j] = h
        fd[:, j] = (_newton_residual(x + e, law)[0]
                    - _newton_residual(x - e, law)[0]) / (2.0 * h)
    assert np.abs(dense - fd).max() <= 1e-6 * np.abs(fd).max()

    g = newton_1d(law, N)
    pts = g.points[:, 0]
    assert np.all(np.diff(pts) > 0)
    grad, _, _ = _newton_residual(pts, law)
    assert np.abs(grad).max() <= 1e-10
    assert abs(g.weights.sum() - 1.0) <= 1e-12
    assert np.abs(pts - _dense_newton(law, N)).max() <= 1e-6


# ---------------------------------------------------------------------------
# Ls error
# ---------------------------------------------------------------------------

def test_ls_error_zero_on_support():
    g = Grid([[0.0], [1.0]])
    src = SampleSource.from_batch([[0.0], [1.0]])
    for s in (1.0, 2.0, 3.5):
        assert ls_error(g, src, s) == 0.0


def test_ls_error_uniform_closed_form():
    # dense deterministic stand-in for the uniform law
    batch = (np.arange(1_000_000) + 0.5)[:, None] / 1_000_000
    for n in (1, 4, 10):
        mid = Grid(((2 * np.arange(1, n + 1) - 1) / (2 * n))[:, None])
        e = ls_error(mid, SampleSource.from_batch(batch), 2.0)
        assert e == pytest.approx(1.0 / (2.0 * math.sqrt(3.0) * n), rel=1e-5)


def test_ls_error_monotone_in_s():
    rng = np.random.default_rng(11)
    g = Grid(rng.normal(size=(5, 2)))
    src = SampleSource.from_batch(rng.normal(size=(1000, 2)))
    assert ls_error(g, src, 2.0) <= ls_error(g, src, 3.0)


def test_ls_error_validation():
    with pytest.raises(InputError):
        ls_error(Grid([[0.0]]), SampleSource.from_batch([[0.0]]), 0.0)


# ---------------------------------------------------------------------------
# scaling
# ---------------------------------------------------------------------------

def test_scale_grid_equivariance():
    rng = np.random.default_rng(13)
    base = Grid(rng.normal(size=(6, 1)))
    batch = rng.normal(size=(5000, 1))
    a, b = 2.5, -1.0
    e_base = ls_error(base, SampleSource.from_batch(batch), 2.0)
    scaled = Grid(b + a * base.points)
    e_scaled = ls_error(scaled, SampleSource.from_batch(a * batch + b), 2.0)
    assert e_scaled == pytest.approx(a * e_base, rel=1e-12)


# ---------------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------------

def test_grid_roundtrip(tmp_path):
    rng = np.random.default_rng(17)
    g = Grid(rng.normal(size=(7, 3)))
    w = rng.random(7); w /= w.sum()
    for grid in (g, g.with_weights(w)):
        path = tmp_path / "g.txt"
        save_grid(grid, path)
        back = load_grid(path)
        assert np.array_equal(back.points, grid.points)
        if grid.weights is None:
            assert back.weights is None
        else:
            assert np.allclose(back.weights, grid.weights, atol=1e-15)


def test_grid_file_example(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("1 2\n-0.7978845608 0.5\n0.7978845608 0.5\n")
    g = load_grid(path)
    assert g.dim == 1 and g.size == 2
    assert np.allclose(g.points[:, 0], [-0.7978845608, 0.7978845608])
    assert np.allclose(g.weights, [0.5, 0.5])


def test_grid_file_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 3\n0 0.5\n1 0.5\n")
    with pytest.raises(ParseError):
        load_grid(path)
    path.write_text("1\n0 1\n")
    with pytest.raises(ParseError):
        load_grid(path)
    path.write_text("1 1\nfoo 1\n")
    with pytest.raises(ParseError) as exc:
        load_grid(path)
    assert exc.value.line == 2
    path.write_text("1 1\n0 -0.5\n")
    with pytest.raises(ParseError):
        load_grid(path)
    path.write_text("")
    with pytest.raises(ParseError):
        load_grid(path)
    path.write_bytes(b"1 1\n0 \xff1\n")
    with pytest.raises(ParseError, match="not UTF-8"):
        load_grid(path)


def test_grid_legacy_layout(tmp_path):
    # 2N body rows: all points, then all weights
    path = tmp_path / "legacy.txt"
    path.write_text("2 2\n0 0\n1 1\n0.25\n0.75\n")
    g = load_grid(path)
    assert g.size == 2 and g.dim == 2
    assert np.allclose(g.weights, [0.25, 0.75])
    # 2N rows in the interleaved layout, and neither N nor 2N rows
    for body in ("0 0 0.25\n1 1 0.75\n0.25\n0.75\n", "0 0\n1 1\n0.25\n"):
        path.write_text("2 2\n" + body)
        with pytest.raises(ParseError):
            load_grid(path)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.integers(1, 3))
def test_grid_roundtrip_property(seed, n, d):
    import tempfile
    rng = np.random.default_rng(seed)
    g = Grid(rng.normal(size=(n, d)) * 10.0 ** float(rng.integers(-3, 4)))
    with tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False) as fh:
        path = fh.name
    save_grid(g, path)
    assert np.array_equal(load_grid(path).points, g.points)
