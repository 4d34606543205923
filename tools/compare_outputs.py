#!/usr/bin/env python3
"""Check that two source trees of quantschemes give byte-identical outputs.

    python3 tools/compare_outputs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are `src` directories, e.g. of a `git archive` of the
parent commit and of the working tree. Each is imported in its own process,
which computes the outputs below at fixed seeds; every array must agree in
dtype, shape and bytes:

- estimate_companions, with and without centering, with dead rows, in 1-D
  and 2-D, and the euler_paths paths and increments of its 1-D and 2-D
  cases;
- lloyd grids, weights, final reports and iteration counts, including a
  dead-cell re-seed; a one-point grid and a 10-point grid (40 sweeps) on a
  1-D batch offset by 1e6; a d=3 run with a dead-cell re-seed that uses
  up its 7 iterations; a d=2 run at N=40 on 400 rows repeated ten times,
  whose eight far points die at the first sweep and one re-seeded point
  at the second; a d=3 run at N=100 (30 sweeps on a 2e4 batch); d=4 and
  d=5 runs at N=60 and N=80 (30 sweeps each on a 2e4 batch; neighbour
  lists of K = 16 points, the cap); the multidim base grid (d=2, N=150, a
  5e4 batch from seed 12345, the experiment's stop criteria); and 1-D
  runs: an integer lattice with rows on every midpoint (exact ties), a
  batch offset by 1e6 with a dead far point, cut after 1, 2 and 40
  sweeps, a batch of 128 rows per grid point (N=50), and a 30-point
  Gaussian grid offset by 1e3 and by 1e6 whose batch holds Gaussian rows
  and, twice, rows on each of its Voronoi edges and up to 4 ulps either
  side of it (near-ties, which the bounded sweeps send to the exact
  search);
- the layer grids that build_layer_grids returns for gbm as the cli-chain
  benchmark builds it (T=0.25, n=10, N=50) and with n=40 (N=20), both fitted
  to the exact law of each Euler step, and for 2-D Brownian motion (n=3,
  N=30), fitted by Lloyd to 5e3 samples;
- newton_1d grids and weights at N = 10, 150 and 2000;
- ScalarFilterModel.build_filter layer points, initial weights
  and rows, and its rows at N=2001 (row blocks split over threads);
  forward_filter weights on one sin-cube observation path at N=150 (n=10)
  and at N=2000 (n=3), and backward_value's u and log_scale on the N=2000
  model (large enough for OpenBLAS to thread a full matrix-vector
  product); the same on the exact N=2001 model (n=2) given a likelihood
  of both x_prev and x_next, which weights its rows in the row threads,
  and on a FilterModel with stored transitions (sizes 1500, 1200, 1700)
  and such a likelihood, so that each step's kernel has several column
  and row blocks;
- the bid-ask and multidim points' y0 and z0 at small sizes, and the layer
  grids that the bid-ask and multidim d=2 points pass to
  estimate_companions;
- chain files written by the `chain` subcommand for each builtin model;
- the stdout, exit code and output files of every subcommand on one small
  accepted config at fixed seeds, run with relative paths from one work
  directory: `grid` newton, lloyd and clvq on the Gaussian law, and
  lloyd at d=2 and clvq on the uniform law, `chain`, the three
  experiments with `workers` 1, and `rate-fit` from pairs and from CSV;
- assign indices and squared distances on the bid-ask layer grids (N=150,
  n=20), and the marginals, transitions, companions and dead rows of its
  chain; on three of those layers for a batch of 2 * 65536 + 123 rows
  (over two row-block boundaries) with points on and one ulp either side
  of every midpoint and on the grid points; on an unsorted 1-D Lloyd grid at its Voronoi midpoints and its
  own points; on a d=3 grid with points on its points and on the
  midpoints of pairs; on a 150-point d=3 grid for a batch of 2e5 rows;
  on one-point grids in d = 1, 2 and 5 with a nan row and rows with +inf
  and -inf;
- d=2 assign calls of at least 128 rows per grid point (the guess-table
  path): on the multidim base grid for 2 * 65536 + 123 rows with points
  on its points and on midpoints of pairs, and on a 7 x 7 integer lattice
  for rows on the lattice and its half points (exact ties); and the
  chain estimated from 2e4 paths of 2-D Brownian motion on two 30-point
  layers;
- 1-D assign calls of at least 128 rows per grid point (the same path): on
  a 40-point Gaussian grid with a duplicated point, for rows on its points,
  on the midpoints of pairs and at random; on an unsorted 30-point
  integer lattice for rows on every midpoint (exact ties) and point; and
  on a 40-point Gaussian grid with two duplicated points, whose rows near
  them fail the keep test at separation 0 and take the sorted search;
- a d=4 assign call of 1e5 random rows plus rows on the points and on
  midpoints of pairs, on a 150-point grid: a whole call that takes the
  kd-tree alone, queried on the calling thread.

Only public names that both trees share are used. Each differing output
is listed with the number of differing entries and their largest absolute
difference. Exits 1 on a mismatch.
"""

import contextlib
import io
import json
import os
import pickle
import subprocess
import sys
import tempfile

import numpy as np


def _outputs(workdir) -> dict:
    from quantschemes import chain, cli, experiments
    from quantschemes.chain import DiffusionModel, TimeMesh, estimate_companions
    from quantschemes.filtering import (FilterModel, backward_value,
                                        builtin_models, forward_filter)
    from quantschemes.grids import (Grid, Law1D, SampleSource, StopCriteria,
                                    assign, lloyd, newton_1d)

    out = {}
    ou = DiffusionModel(1, 1, lambda t, x: -x,
                        lambda t, x: 0.7 * np.ones(x.shape + (1,)), [0.3])
    bm2 = DiffusionModel(2, 2, lambda t, x: np.zeros_like(x),
                         lambda t, x: np.broadcast_to(np.eye(2), x.shape + (2,)),
                         np.zeros(2))
    rng = np.random.default_rng(7)
    cases = {
        "ou": (ou, TimeMesh(1.0, 3),
               [Grid([[0.3]])] + [Grid(np.sort(rng.normal(size=(6, 1)), 0))
                                  for _ in range(3)]),
        # far points are never visited: dead rows
        "ou-dead": (ou, TimeMesh(1.0, 2),
                    [Grid([[0.3], [50.0]]), Grid([[-1.0], [0.0], [1.0], [60.0]]),
                     Grid([[-0.5], [0.5]])]),
        "bm2": (bm2, TimeMesh(0.5, 2),
                [Grid([[0.0, 0.0]])] + [Grid(rng.normal(size=(5, 2)))
                                        for _ in range(2)]),
    }
    for name, (model, mesh, layers) in cases.items():
        if name != "ou-dead":
            paths, incr = chain.euler_paths(model, mesh, 20_000, 3)
            out[f"euler/{name}/paths"] = paths
            out[f"euler/{name}/increments"] = incr
        for center in (True, False):
            ch = estimate_companions(model, mesh, layers, 20_000, 3, center)
            for key in ("marginals", "transitions", "companions", "dead_rows"):
                for k, a in enumerate(getattr(ch, key)):
                    out[f"estimate/{name}/center={center}/{key}/{k}"] = a

    def record_lloyd(name, result):
        grid, report, it = result
        out.update({f"{name}/points": grid.points,
                    f"{name}/weights": grid.weights,
                    f"{name}/value": np.array(report.value),
                    f"{name}/gradient": report.gradient,
                    f"{name}/counts": report.cell_counts,
                    f"{name}/iterations": np.array(it)})

    batch = np.random.default_rng(11).standard_normal((4000, 2))
    inits = {"plain": batch[:8] * 0.5,
             "dead-cell": np.vstack([batch[:7] * 0.5, [[40.0, 40.0]]])}
    for name, init in inits.items():
        record_lloyd(f"lloyd/{name}",
                     lloyd(Grid(init), SampleSource.from_batch(batch)))
    batch = 1e6 + np.random.default_rng(13).standard_normal((4000, 1))
    record_lloyd("lloyd/one-point",
                 lloyd(Grid(batch[:1]), SampleSource.from_batch(batch)))
    # 40 sweeps: a tree whose monotonicity check does not allow for the
    # rounding of the squared distances at this offset raises
    # ConvergenceError from about the 55th sweep on
    record_lloyd("lloyd/offset-1e6",
                 lloyd(Grid(batch[:10]), SampleSource.from_batch(batch),
                       StopCriteria(max_iterations=40)))
    batch = np.random.default_rng(14).standard_normal((3000, 3))
    record_lloyd("lloyd/d3-dead-cell-max-iterations", lloyd(
        Grid(np.vstack([batch[:9] * 0.5, [[40.0, 40.0, 40.0]]])),
        SampleSource.from_batch(batch), StopCriteria(max_iterations=7)))

    # two re-seeded points jitter around copies of one row: the farther
    # one dies at the second sweep and jumps again
    rows = np.random.default_rng(11).standard_normal((400, 2))
    far = np.column_stack([40.0 + np.arange(8), np.full(8, 40.0)])
    record_lloyd("lloyd/d2-n40-reseed-sweep-2", lloyd(
        Grid(np.vstack([rows[:32] * 0.5, far])),
        SampleSource.from_batch(np.repeat(rows, 10, axis=0))))
    batch = np.random.default_rng(15).standard_normal((20_000, 3))
    record_lloyd("lloyd/d3-n100", lloyd(
        Grid(batch[:100] * 0.5), SampleSource.from_batch(batch),
        StopCriteria(max_iterations=30)))
    for d, n in ((4, 60), (5, 80)):
        batch = np.random.default_rng(12 + d).standard_normal((20_000, d))
        record_lloyd(f"lloyd/d{d}-n{n}", lloyd(
            Grid(batch[:n] * 0.5), SampleSource.from_batch(batch),
            StopCriteria(max_iterations=30)))

    batch = np.random.default_rng(12345).standard_normal((50_000, 2))
    record_lloyd("lloyd/multidim-base", lloyd(
        Grid(batch[:150] * 0.5), SampleSource.from_batch(batch),
        StopCriteria(max_iterations=60, relative_distortion_tolerance=1e-6,
                     stationarity_tolerance=1e-6)))
    # layer grids of the cli-chain build, of 2-D Brownian motion and of a
    # 1-D build of 40 steps
    for name, model, mesh, sizes in (
            ("cli-chain", chain.MODELS["gbm"](), TimeMesh(0.25, 10),
             [1] + [50] * 10),
            ("brownian-d2", chain.MODELS["brownian"](2), TimeMesh(0.5, 3),
             [1] + [30] * 3),
            ("gbm-n40", chain.MODELS["gbm"](), TimeMesh(1.0, 40),
             [1] + [20] * 40)):
        layers = chain.build_layer_grids(model, mesh, sizes,
                                         sample_budget=5_000, seed=2)
        for k, g in enumerate(layers):
            out[f"layer-grids/{name}/{k}"] = g.points

    lattice = np.arange(8.0)[::-1, None]
    record_lloyd("lloyd/1d-lattice-midpoints", lloyd(
        Grid(lattice), SampleSource.from_batch(np.vstack(
            [lattice, lattice + 0.5, lattice - 0.25, lattice - 0.25]))))
    batch = 1e6 + np.random.default_rng(16).standard_normal((4000, 1))
    for sweeps in (1, 2, 40):
        record_lloyd(f"lloyd/1d-offset-1e6-dead/{sweeps}", lloyd(
            Grid(np.vstack([batch[:10], [[1e6 + 50.0]]])),
            SampleSource.from_batch(batch),
            StopCriteria(max_iterations=sweeps)))
    batch = np.random.default_rng(18).standard_normal((128 * 50, 1))
    record_lloyd("lloyd/1d-128-rows-per-point", lloyd(
        Grid(batch[:50]), SampleSource.from_batch(batch)))
    # Gaussian rows plus rows on the first grid's Voronoi edges and up to
    # 4 ulps either side of each, twice: near-ties at the first sweep
    rng = np.random.default_rng(19)
    init, rows = rng.normal(size=(30, 1)), rng.normal(size=(2000, 1))
    for name, offset in (("1e3", 1e3), ("1e6", 1e6)):
        s = np.sort(init[:, 0] + offset)
        edges = [0.5 * (s[:-1] + s[1:])]
        for side in (-np.inf, np.inf):
            x = edges[0]
            for _ in range(4):
                x = np.nextafter(x, side)
                edges.append(x)
        edges = np.concatenate(edges)[:, None]
        record_lloyd(f"lloyd/1d-edges-offset-{name}", lloyd(
            Grid(init + offset), SampleSource.from_batch(
                np.vstack([rows + offset, edges, edges]))))

    for N in (10, 150, 2000):
        grid = newton_1d(Law1D.gaussian(), N)
        out[f"newton/{N}/points"] = grid.points
        out[f"newton/{N}/weights"] = grid.weights

    for model in ("linear-gaussian", "sin-cube"):
        spec = builtin_models(model, steps=3)
        fm = spec.build_filter([10, 150, 2000, 40])
        for k, g in enumerate(fm.layers):
            out[f"filter-exact/{model}/points/{k}"] = g.points
        out[f"filter-exact/{model}/initial"] = fm.initial
        for k, rows in enumerate(fm.transitions):
            out[f"filter-exact/{model}/rows/{k}"] = rows
    fm = builtin_models("sin-cube", steps=1).build_filter([2001, 2001])
    out["filter-exact/N=2001/rows"] = fm.transitions[0]
    spec = builtin_models("sin-cube", steps=10)
    _, y = spec.simulate(6)
    fm = spec.build_filter([150] * 11)
    for k, g in enumerate(fm.layers):
        out[f"filter-exact/sin-cube/n=10/points/{k}"] = g.points
    state = forward_filter(fm, y)
    for k, w in enumerate(state.weights):
        out[f"filter-exact/sin-cube/weights/{k}"] = w
    spec = builtin_models("sin-cube", steps=3)
    _, y = spec.simulate(6)
    fm = spec.build_filter([2000] * 4)
    state = forward_filter(fm, y)
    for k, w in enumerate(state.weights):
        out[f"filter-exact/sin-cube/N=2000/weights/{k}"] = w
    u, log_scale, _ = backward_value(fm, y, fm.layers[-1].points[:, 0] ** 2)
    out["filter-exact/sin-cube/N=2000/backward/u"] = u
    out["filter-exact/sin-cube/N=2000/backward/log_scale"] = np.array(log_scale)
    spec = builtin_models("sin-cube", steps=2)
    _, y = spec.simulate(7)
    fm = spec.build_filter([2001] * 3)
    fm = FilterModel(
        layers=fm.layers, initial=fm.initial, transitions=fm.transitions,
        likelihood=lambda k, xp, yp, xn, yn: np.exp(
            -0.5 * (yn[0] - yp[0] - 0.5 * xn[..., 0] - 0.3 * xp[..., 0]) ** 2))
    for k, w in enumerate(forward_filter(fm, y).weights):
        out[f"filter-exact-weighted/N=2001/weights/{k}"] = w
    u, log_scale, _ = backward_value(fm, y, fm.layers[-1].points[:, 0] ** 2)
    out["filter-exact-weighted/N=2001/backward/u"] = u
    out["filter-exact-weighted/N=2001/backward/log_scale"] = np.array(log_scale)
    rng = np.random.default_rng(21)
    sizes = (1500, 1200, 1700)
    transitions = [rng.random((a, b)) + 0.05
                   for a, b in zip(sizes, sizes[1:])]
    fm = FilterModel(
        layers=[Grid(np.sort(rng.standard_normal(s))[:, None])
                for s in sizes],
        initial=np.full(sizes[0], 1.0 / sizes[0]),
        transitions=[p / p.sum(axis=1, keepdims=True) for p in transitions],
        likelihood=lambda k, xp, yp, xn, yn: np.exp(
            -0.5 * (yn[0] - yp[0] - 0.5 * xn[..., 0] - 0.3 * xp[..., 0]) ** 2))
    y = rng.standard_normal(len(sizes))
    for k, w in enumerate(forward_filter(fm, y).weights):
        out[f"filter-stored/weights/{k}"] = w
    u, log_scale, _ = backward_value(fm, y, fm.layers[-1].points[:, 0] ** 2)
    out["filter-stored/backward/u"] = u
    out["filter-stored/backward/log_scale"] = np.array(log_scale)

    # the chains the experiment points estimate, and the layer grids they
    # pass in
    chains = []
    estimate = experiments.estimate_companions
    def recording_chain(*args):
        chains.append((args[2], estimate(*args)))
        return chains[-1][1]
    experiments.estimate_companions = recording_chain
    try:
        for row_name, point, args in (
                ("bidask", experiments._bidask_point, (20, 5, 20_000, 1)),
                ("multidim-d1", experiments._multidim_point,
                 (15, 1, 4, 20_000, 2, 0)),
                ("multidim-d2", experiments._multidim_point,
                 (12, 2, 3, 20_000, 2, 5_000))):
            for key, value in point(args).items():
                out[f"{row_name}/{key}"] = np.array(value)
            if row_name != "multidim-d1":
                for k, g in enumerate(chains[-1][0]):
                    out[f"{row_name}/layers/{k}"] = g.points

        # every assign call of one bid-ask point: its layer grids and
        # paths; and the chain estimated from them
        layer = []
        def recording(grid, points):
            result = assign(grid, points)
            layer.append(result)
            return result
        chain.assign = recording
        experiments._bidask_point((150, 20, 50_000, 3))
    finally:
        chain.assign = assign
        experiments.estimate_companions = estimate
    for k, (idx, d2) in enumerate(layer):
        out[f"assign/bidask/{k}/index"] = idx
        out[f"assign/bidask/{k}/d2"] = d2
    layers, bidask_chain = chains[-1]
    for k, g in enumerate(layers):
        out[f"bidask-chain/layers/{k}"] = g.points
    for key in ("marginals", "transitions", "companions", "dead_rows"):
        for k, a in enumerate(getattr(bidask_chain, key)):
            out[f"bidask-chain/{key}/{k}"] = a
    rng = np.random.default_rng(17)
    for k in (1, 10, 20):
        s = np.sort(layers[k].points[:, 0])
        mids = 0.5 * (s[:-1] + s[1:])
        ties = np.concatenate([mids, np.nextafter(mids, -np.inf),
                               np.nextafter(mids, np.inf), s])
        logs = rng.uniform(np.log(s[0]) - 0.1, np.log(s[-1]) + 0.1,
                           2 * 65536 + 123 - ties.size)
        pts = rng.permutation(np.concatenate([np.exp(logs), ties]))[:, None]
        idx, d2 = assign(layers[k], pts)
        out[f"assign/bidask-blocks/{k}/index"] = idx
        out[f"assign/bidask-blocks/{k}/d2"] = d2

    # every subcommand's stdout and files on one small config, run with
    # relative paths from the work directory, so that both trees print
    # the same paths
    pairs = [[10, 0.4], [20, 0.25], [40, 0.175]]
    runs = {
        "grid-newton": ("grid", {"method": "newton", "size": 7}, []),
        "grid-lloyd": ("grid", {"method": "lloyd", "size": 7,
                                "batch_size": 3000}, ["--seed", "3"]),
        "grid-clvq": ("grid", {"method": "clvq", "size": 7, "steps": 2000},
                      ["--seed", "3"]),
        "grid-lloyd-uniform": ("grid", {"law": "uniform", "dim": 2,
                                        "method": "lloyd", "size": 7,
                                        "batch_size": 3000}, ["--seed", "3"]),
        "grid-clvq-uniform": ("grid", {"law": "uniform", "method": "clvq",
                                       "size": 7, "steps": 2000},
                              ["--seed", "3"]),
        "chain": ("chain", {"model": "ou", "kappa": 2.0, "T": 0.5, "n": 2,
                            "sample_budget": 2000},
                  ["--grid-size", "5", "--mc-paths", "3000", "--seed", "4"]),
        "bsde-bidask": ("bsde-bidask", {"n": 3, "workers": 1},
                        ["--sweep", "6,8,10", "--mc-paths", "3000",
                         "--seed", "2"]),
        "bsde-multidim": ("bsde-multidim", {"dim": 2, "n": 2, "workers": 1,
                                            "base_batch": 2000},
                          ["--sweep", "5,8,10", "--mc-paths", "3000",
                           "--seed", "2"]),
        "filter-demo": ("filter-demo", {"n": 4, "model": "sin-cube",
                                        "workers": 1},
                        ["--sweep", "5,10,15", "--seed", "1"]),
        "rate-fit-pairs": ("rate-fit", {"pairs": pairs, "exponent": -1.0},
                           []),
        "rate-fit-csv": ("rate-fit", {"csv": "errors.csv"}, []),
    }
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with open("errors.csv", "w") as fh:
            fh.write("N,error\n" + "".join(f"{n},{e}\n" for n, e in pairs))
        for name, (command, config, flags) in runs.items():
            with open(f"{name}.json", "w") as fh:
                json.dump(config, fh)
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main([command, "--config", f"{name}.json",
                                 "--out", name, *flags])
            out[f"cli-stdout/{name}"] = np.frombuffer(
                stdout.getvalue().encode(), np.uint8)
            out[f"cli-stdout/{name}/exit"] = np.array(code)
            for file in sorted(os.listdir(name)):
                with open(os.path.join(name, file), "rb") as fh:
                    out[f"cli-files/{name}/{file}"] = np.frombuffer(
                        fh.read(), np.uint8)
    finally:
        os.chdir(cwd)

    for model in ("gbm", "ou", "brownian"):
        cfg = os.path.join(workdir, f"{model}.json")
        with open(cfg, "w") as fh:
            fh.write(f'{{"model": "{model}", "T": 0.5, "n": 3, '
                     f'"sample_budget": 3000}}')
        target = os.path.join(workdir, model)
        code = cli.main(["chain", "--config", cfg, "--grid-size", "7",
                         "--mc-paths", "5000", "--seed", "4", "--out", target])
        with open(os.path.join(target, "chain.txt"), "rb") as fh:
            out[f"cli-chain/{model}"] = np.frombuffer(fh.read(), np.uint8)
        out[f"cli-chain/{model}/exit"] = np.array(code)

    rng = np.random.default_rng(13)
    batch1 = rng.standard_normal((5000, 1))
    grid1, _, _ = lloyd(Grid(batch1[:30]), SampleSource.from_batch(batch1))
    s = np.sort(grid1.points[:, 0])
    ties1 = np.concatenate([0.5 * (s[:-1] + s[1:]), s,
                            rng.standard_normal(5000)])[:, None]
    grid3 = Grid(rng.standard_normal((40, 3)))
    c3 = grid3.points
    ties3 = np.vstack([c3, 0.5 * (c3[:-1] + c3[1:]),
                       rng.standard_normal((20_000, 3))])
    for d in (1, 2, 5):
        pts = rng.standard_normal((1000, d))
        pts[3, 0], pts[5, d - 1], pts[8, 0] = np.nan, np.inf, -np.inf
        with np.errstate(all="ignore"):
            idx, d2 = assign(Grid(rng.standard_normal((1, d))), pts)
        out[f"assign/one-point/d{d}/index"] = idx
        out[f"assign/one-point/d{d}/d2"] = d2
    for name, grid, pts in (("lloyd-1d-unsorted", grid1, ties1),
                            ("d3", grid3, ties3),
                            ("d3-batch", Grid(rng.standard_normal((150, 3))),
                             rng.standard_normal((200_000, 3)))):
        idx, d2 = assign(grid, pts)
        out[f"assign/{name}/index"] = idx
        out[f"assign/{name}/d2"] = d2

    # d=2 calls of at least 128 rows per grid point, which take the guess
    # table, with ties: on the multidim base grid over two row blocks, and
    # on an integer lattice; and a 2-D chain estimated from 2e4 paths on
    # 30-point layers
    rng = np.random.default_rng(19)
    base = Grid(out["lloyd/multidim-base/points"])
    c2 = base.points
    pairs = rng.integers(len(c2), size=(20_000, 2))
    ties2 = np.vstack([c2, 0.5 * (c2[:-1] + c2[1:]),
                       0.5 * (c2[pairs[:, 0]] + c2[pairs[:, 1]])])
    lattice = Grid(np.stack(np.meshgrid(np.arange(7.0), np.arange(7.0),
                                        indexing="ij"), -1).reshape(-1, 2))
    for name, grid, pts in (
            ("d2-table", base, rng.permutation(np.vstack([
                ties2, rng.standard_normal((2 * 65536 + 123 - len(ties2),
                                            2))]))),
            ("d2-table-lattice", lattice,
             0.5 * rng.integers(-2, 15, size=(10_000, 2)))):
        idx, d2 = assign(grid, pts)
        out[f"assign/{name}/index"] = idx
        out[f"assign/{name}/d2"] = d2
    layers = [Grid([[0.0, 0.0]])] + [Grid(0.5 * rng.normal(size=(30, 2)))
                                     for _ in range(2)]
    ch = estimate_companions(bm2, TimeMesh(0.5, 2), layers, 20_000, 5)
    for key in ("marginals", "transitions", "companions", "dead_rows"):
        for k, a in enumerate(getattr(ch, key)):
            out[f"estimate/bm2-table/{key}/{k}"] = a

    # 1-D calls of at least 128 rows per grid point, which take the same
    # table path: a grid with a duplicated point, and an integer lattice
    # with rows on every midpoint (exact ties)
    rng = np.random.default_rng(20)
    c1 = rng.standard_normal((40, 1))
    c1[17] = c1[3]
    pairs = rng.integers(40, size=(2000, 2))
    lattice = np.arange(30.0)[::-1, None]
    for name, grid, pts in (
            ("1d-table-duplicate", Grid(c1), rng.permutation(np.vstack([
                c1, 0.5 * (c1[pairs[:, 0]] + c1[pairs[:, 1]]),
                rng.standard_normal((128 * 40, 1))]))),
            ("1d-table-lattice", Grid(lattice), np.concatenate([
                np.arange(-1.0, 30.0) + 0.5,
                0.5 * rng.integers(-4, 62, size=128 * 30)])[:, None])):
        idx, d2 = assign(grid, pts)
        out[f"assign/{name}/index"] = idx
        out[f"assign/{name}/d2"] = d2

    # a 1-D table-path call on a grid with two duplicated points, whose
    # rows fail the keep test at separation 0 and take the sorted search;
    # and a whole d=4 call of 1e5 rows, which takes the kd-tree alone
    rng = np.random.default_rng(21)
    c1 = rng.standard_normal((40, 1))
    c1[17], c1[29] = c1[3], c1[11]
    c4 = rng.standard_normal((150, 4))
    for name, grid, pts in (
            ("1d-table-two-duplicates", Grid(c1), rng.permutation(np.vstack([
                c1, 0.5 * (c1[:-1] + c1[1:]), c1[[3, 11]] + 1e-3,
                rng.standard_normal((128 * 40, 1))]))),
            ("d4-whole-call", Grid(c4), np.vstack([
                c4, 0.5 * (c4[:-1] + c4[1:]),
                rng.standard_normal((100_000, 4))]))):
        idx, d2 = assign(grid, pts)
        out[f"assign/{name}/index"] = idx
        out[f"assign/{name}/d2"] = d2
    return out


def _dump(src: str) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "outputs.pkl")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        subprocess.run([sys.executable, __file__, "--dump", path],
                       env=env, check=True, stdout=subprocess.DEVNULL)
        with open(path, "rb") as fh:
            return pickle.load(fh)


def _difference(a, b) -> str:
    if a is None or b is None or a.shape != b.shape or a.dtype != b.dtype:
        return " (missing, or shape or dtype differ)"
    a, b = a.astype(float).ravel(), b.astype(float).ravel()
    diff = a != b
    return (f" ({diff.sum()} of {a.size} entries, "
            f"max |diff| {np.abs(a[diff] - b[diff]).max():.3g})")


def main(argv) -> int:
    if argv[:1] == ["--dump"]:
        with tempfile.TemporaryDirectory() as workdir:
            outputs = _outputs(workdir)
        with open(argv[1], "wb") as fh:
            pickle.dump(outputs, fh)
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = _dump(argv[0]), _dump(argv[1])
    differ = sorted(k for k in old.keys() | new.keys()
                    if k not in old or k not in new
                    or old[k].dtype != new[k].dtype
                    or old[k].shape != new[k].shape
                    or old[k].tobytes() != new[k].tobytes())
    for key in differ:
        print(f"differs: {key}{_difference(old.get(key), new.get(key))}")
    print(f"old -> new: {len(old)} outputs, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
