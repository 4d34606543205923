import argparse
import csv
import json
import math
import os
import signal
import subprocess
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import quantschemes
from quantschemes import chain, cli, experiments
from quantschemes.cli import _build_parser, _parse_sweep, main
from quantschemes.errors import InputError, NumericError
from quantschemes.experiments import (BIDASK_REFERENCE, MULTIDIM_Y0,
                                      ExperimentConfig, fit_rate, loglog_slope,
                                      run_bidask, run_filter_demo,
                                      run_multidim)
from quantschemes.grids import Grid, SampleSource, StopCriteria, lloyd


# ---------------------------------------------------------------------------
# rate regression
# ---------------------------------------------------------------------------

def test_fit_rate_recovers_exact_power_law():
    pairs = [(N, 3.0 / N + 0.1) for N in (10, 20, 40, 80)]
    fit = fit_rate(pairs, -1.0)
    assert fit.a_hat == pytest.approx(3.0, abs=1e-10)
    assert fit.b_hat == pytest.approx(0.1, abs=1e-10)
    assert fit.residual <= 1e-12
    assert fit.constant_residual > fit.residual


def test_fit_rate_noisy_recovery():
    rng = np.random.default_rng(0)
    Ns = np.array([10, 20, 40, 80, 160, 320], dtype=float)
    err = 3.0 / Ns + 0.05 + rng.normal(scale=0.002, size=Ns.size)
    fit = fit_rate(list(zip(Ns, err)), -1.0)
    assert abs(fit.a_hat - 3.0) <= 0.3
    assert fit.residual < fit.constant_residual


def test_fit_rate_validation():
    with pytest.raises(InputError):
        fit_rate([(10, 1.0), (20, 0.5)], -1.0)
    with pytest.raises(InputError):
        fit_rate([(10, 1.0), (10, 0.5), (20, 0.2)], -1.0)
    with pytest.raises(InputError):
        fit_rate([(10, 1.0), (20, 0.5), (40, 0.2)], 0.0)  # rank deficient
    for pairs, exponent in (([(10, 1.0), (20, 0.5), (40, 0.2)], math.nan),
                            ([(10, 1.0), (20, math.nan), (40, 0.2)], -1.0),
                            ([(10, 1.0), (20, 0.5), (-40, 0.2)], -1.0),
                            ([(0, 1.0), (20, 0.5), (40, 0.2)], -1.0)):
        with pytest.raises(InputError):
            fit_rate(pairs, exponent)
    with pytest.raises(NumericError, match="rate fit overflows"):
        fit_rate([(10, 1e308), (20, -1e308), (40, 1e308)], -1.0)


def test_loglog_slope():
    pairs = [(N, 2.0 * N ** -0.5) for N in (10, 100, 1000)]
    assert loglog_slope(pairs) == pytest.approx(-0.5, abs=1e-12)
    with pytest.raises(InputError):
        loglog_slope([(10, 0.0), (20, 1.0), (40, 1.0)])


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_experiment_config_validation():
    with pytest.raises(InputError):
        ExperimentConfig(name="x", n=0)
    with pytest.raises(InputError):
        ExperimentConfig(name="x", n=5, mc_paths=0)
    with pytest.raises(InputError):
        ExperimentConfig(name="x", n=5, sweep=[10, 0])
    with pytest.raises(InputError, match="at least one grid size"):
        ExperimentConfig(name="x", n=5, sweep=[])
    cfg = ExperimentConfig(name="x", n=5, grid_size=25)
    assert cfg.sweep_sizes() == [25]
    cfg.sweep = [5, 10]
    assert cfg.sweep_sizes() == [5, 10]


# ---------------------------------------------------------------------------
# small experiment runs (scaled-down smoke versions)
# ---------------------------------------------------------------------------

def test_run_bidask_small(tmp_path):
    cfg = ExperimentConfig(name="bidask", n=5, grid_size=25, mc_paths=20_000,
                           seed=0, out=str(tmp_path), workers=1)
    report = run_bidask(cfg)
    # a coarse run still lands in the right neighborhood
    assert abs(report["y0_hat"] - BIDASK_REFERENCE[0]) <= 0.5
    assert abs(report["z0_hat"] - BIDASK_REFERENCE[1]) <= 0.3
    with open(tmp_path / "bidask.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1 and rows[0]["N"] == "25"
    data = json.loads((tmp_path / "bidask.json").read_text())
    assert data["provenance"]["config"]["seed"] == 0
    assert "numpy" in data["provenance"]["versions"]


def test_run_multidim_small_sweep(tmp_path):
    cfg = ExperimentConfig(name="multidim", n=4, mc_paths=30_000, seed=0,
                           sweep=[5, 10, 20], out=str(tmp_path), dim=2,
                           base_batch=50_000, workers=1)
    report = run_multidim(cfg)
    errs = [r["y0_err"] for r in report["rows"]]
    assert errs[-1] <= 0.1
    assert "rate_fit" in report and "loglog_slope" in report
    assert (tmp_path / "multidim.csv").exists()
    assert report["y0_exact"] == MULTIDIM_Y0


def test_run_multidim_dim_validation():
    with pytest.raises(InputError):
        run_multidim(ExperimentConfig(name="multidim", n=2, dim=7))


def test_run_filter_demo_small(tmp_path):
    cfg = ExperimentConfig(name="filter-demo", n=6, seed=1,
                           sweep=[5, 10, 20], out=str(tmp_path),
                           model="linear-gaussian", workers=1)
    report = run_filter_demo(cfg)
    errs = [r["error"] for r in report["rows"]]
    assert errs[-1] <= errs[0] + 1e-12
    assert report["reference_kind"] == "kalman"
    assert (tmp_path / "filter-demo.json").exists()


def test_run_filter_demo_sin_cube_self_reference():
    cfg = ExperimentConfig(name="filter-demo", n=5, seed=2,
                           sweep=[10, 200], model="sin-cube", workers=1)
    report = run_filter_demo(cfg, reference_size=400)
    errs = {r["N"]: r["error"] for r in report["rows"]}
    assert errs[200] <= errs[10]
    assert report["reference_kind"].startswith("self-reference")


def test_run_filter_demo_model_validation():
    with pytest.raises(InputError):
        run_filter_demo(ExperimentConfig(name="filter-demo", n=3,
                                         model="bogus"))


def test_parallel_matches_serial():
    cfg = dict(name="filter-demo", n=5, seed=0, sweep=[5, 10, 15],
               model="linear-gaussian")
    serial = run_filter_demo(ExperimentConfig(**cfg, workers=1))
    parallel = run_filter_demo(ExperimentConfig(**cfg, workers=3))
    assert serial["rows"] == parallel["rows"]


def test_run_points_bounds_the_pool(monkeypatch):
    """The pool gets at most `workers`, the number of points and the number
    of CPUs; one worker or one point runs in this process. A recorder
    stands in for the pool, so no process is started."""
    pools = []

    class Recorder:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            return map(fn, args)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", Recorder)
    monkeypatch.setattr(experiments, "_cpu_count", lambda: 4)
    run = experiments._run_points
    square = lambda a: a * a  # noqa: E731
    assert run(square, [1, 2, 3], 10 ** 9) == [1, 4, 9]
    assert run(square, list(range(10)), 0) == [a * a for a in range(10)]
    assert run(square, list(range(10)), 2) == [a * a for a in range(10)]
    assert pools == [3, 4, 2]
    assert run(square, [1, 2, 3], 1) == [1, 4, 9]
    assert run(square, [5], 0) == [25]
    assert pools == [3, 4, 2]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_parse_sweep():
    assert _parse_sweep("10:50:20") == [10, 30, 50]
    assert _parse_sweep("5,7,9") == [5, 7, 9]
    with pytest.raises(InputError):
        _parse_sweep("10:5:1")
    with pytest.raises(InputError):
        _parse_sweep("1:2:3:4")
    # a start below 1 is rejected before a range of 1e20 sizes is built
    with pytest.raises(InputError, match="1 <= start"):
        _parse_sweep("-99999999999999999999:4:1")
    # a range longer than sys.maxsize cannot be built, nor one of
    # sys.maxsize sizes: InputError, not OverflowError or MemoryError
    for text in ("1:99999999999999999999:1",
                 f"1:{sys.maxsize + 1}:1", f"2:{2 * sys.maxsize + 2}:2",
                 f"1:{sys.maxsize}:1"):
        with pytest.raises(InputError, match="more than"):
            _parse_sweep(text)
    assert _parse_sweep(f"1:{10 ** 30}:{10 ** 30}") == [1]


def test_cli_grid_newton(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"law": "gaussian", "method": "newton",
                               "size": 5}))
    assert main(["grid", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["size"] == 5 and out["dim"] == 1
    assert (tmp_path / "grid.txt").exists()
    cfg.write_text(json.dumps({"input": str(tmp_path / "grid.txt")}))
    assert main(["grid", "--config", str(cfg)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["size"] == 5 and out["has_weights"] is True


def test_cli_grid_lloyd_reports_iterations(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"law": "gaussian", "method": "lloyd",
                               "size": 5, "batch_size": 2000}))
    assert main(["grid", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    out = json.loads(capsys.readouterr().out)
    init = Grid(np.random.default_rng(0).standard_normal((5, 1)))
    batch = np.random.default_rng(0).standard_normal((2000, 1))
    _, _, it = lloyd(init, SampleSource.from_batch(batch))
    assert out["iterations"] == it and 1 <= it <= StopCriteria().max_iterations
    for method in ("newton", "clvq"):
        cfg.write_text(json.dumps({"method": method, "size": 5,
                                   "steps": 100}))
        assert main(["grid", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 0
        assert "iterations" not in json.loads(capsys.readouterr().out)


def test_cli_grid_legacy_layout(tmp_path, capsys):
    from quantschemes.grids import newton_1d, Law1D
    g = newton_1d(Law1D.gaussian(), 4)
    lines = ["1 4"] + [f"{v:.17g}" for v in g.points[:, 0]] \
        + [f"{w:.17g}" for w in g.weights]
    (tmp_path / "legacy.txt").write_text("\n".join(lines) + "\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input": str(tmp_path / "legacy.txt")}))
    assert main(["grid", "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["size"] == 4


def test_cli_chain(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "brownian", "T": 0.5, "n": 2,
                               "sample_budget": 5_000}))
    rc = main(["chain", "--config", str(cfg), "--grid-size", "6",
               "--mc-paths", "5000", "--seed", "3", "--out", str(tmp_path)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["sizes"] == [1, 6, 6] and out["seed"] == 3
    from quantschemes.chain import load_chain
    chain = load_chain(tmp_path / "chain.txt")
    assert chain.sizes == [1, 6, 6]


def test_cli_chain_ou_and_unknown_model(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "ou", "kappa": 2.0, "T": 0.5, "n": 2,
                               "sample_budget": 3_000}))
    rc = main(["chain", "--config", str(cfg), "--grid-size", "4",
               "--mc-paths", "3000", "--out", str(tmp_path)])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["sizes"] == [1, 4, 4]
    from quantschemes.chain import load_chain
    assert load_chain(tmp_path / "chain.txt").sizes == [1, 4, 4]
    cfg.write_text(json.dumps({"model": "heston"}))
    assert main(["chain", "--config", str(cfg)]) == 2
    assert "model must be one of" in capsys.readouterr().err


def test_cli_chain_dimension_below_one(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for dim in (0, -1, -10 ** 20):
        cfg.write_text(json.dumps({"model": "brownian", "dim": dim, "n": 2,
                                   "sample_budget": 100, "mc_paths": 100,
                                   "grid_size": 2}))
        assert main(["chain", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "dimensions must be >= 1" in err


def test_cli_chain_overflow_exits_3_without_warnings(tmp_path, capsys):
    """A coefficient or a layer that overflows ends in one NumericError
    line, with no numpy RuntimeWarning before it."""
    cfg = tmp_path / "cfg.json"
    # the drift overflows at x0; with sigma = 1e200 the variance of the
    # first step's Euler law, which the 1-D layer grid is fitted to, does
    for n, bad, message in (
            (3, {"mu": 1e308}, "non-finite coefficient at step 0"),
            (1, {"sigma": 1e200},
             "the variance of the Euler law of step 0 overflows")):
        cfg.write_text(json.dumps({"model": "gbm", **bad, "n": n,
                                   "sample_budget": 2000, "mc_paths": 2000,
                                   "grid_size": 4}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["chain", "--config", str(cfg),
                         "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and message in err
        assert "RuntimeWarning" not in err
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]


def test_cli_chain_center_must_be_boolean(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for bad in ("false", 0, None):
        cfg.write_text(json.dumps({"model": "brownian", "center": bad}))
        assert main(["chain", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.count("error: config 'center' must be true or false") == 3
    cfg.write_text(json.dumps({"model": "brownian", "T": 0.5, "n": 2,
                               "sample_budget": 3_000, "center": False}))
    rc = main(["chain", "--config", str(cfg), "--grid-size", "4",
               "--mc-paths", "3000", "--out", str(tmp_path)])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["centered"] is False


def test_cli_bsde_bidask(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 3}))
    rc = main(["bsde-bidask", "--config", str(cfg), "--grid-size", "10",
               "--mc-paths", "2000", "--out", str(tmp_path)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert [r["N"] for r in out["rows"]] == [10]
    assert out["provenance"]["config"]["n"] == 3
    with open(tmp_path / "bidask.csv") as fh:
        assert [r["N"] for r in csv.DictReader(fh)] == ["10"]
    saved = json.loads((tmp_path / "bidask.json").read_text())
    assert saved["y0_hat"] == out["y0_hat"]


def test_cli_bsde_multidim(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dim": 2, "n": 3, "base_batch": 2000,
                               "workers": 1}))
    rc = main(["bsde-multidim", "--config", str(cfg), "--grid-size", "10",
               "--mc-paths", "2000", "--out", str(tmp_path)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out["rows"][0]) == {"N", "y0", "y0_err", "z0_1", "z0_2"}
    assert out["provenance"]["config"]["base_batch"] == 2000
    with open(tmp_path / "multidim.csv") as fh:
        assert len(list(csv.DictReader(fh))) == 1
    assert (tmp_path / "multidim.json").exists()


def test_cli_report_provenance_lists_the_keys_read(tmp_path, capsys):
    """Each experiment's provenance lists the settings it read, those its
    subcommand accepts, and no other."""
    common = ["grid_size", "n", "out", "seed", "sweep", "workers"]
    for command, config, keys in (
            ("bsde-bidask", {"n": 1, "mc_paths": 200}, common + ["mc_paths"]),
            ("bsde-multidim", {"n": 1, "mc_paths": 200, "base_batch": 200},
             common + ["base_batch", "dim", "mc_paths"]),
            ("filter-demo", {"n": 1}, common + ["model"])):
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps({**config, "sweep": [3], "workers": 1}))
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        printed = json.loads(capsys.readouterr().out)["provenance"]["config"]
        assert sorted(printed) == sorted(keys), command
        assert sorted(keys) == sorted(cli._COMMANDS[command][1].split())
        saved = json.loads(next(out.glob("*.json")).read_text())
        assert saved["provenance"]["config"] == printed


def test_cli_multidim_base_batch_below_grid_size(tmp_path, capsys):
    """In d >= 2 the base grid is a Lloyd grid on `base_batch` samples, so
    a batch smaller than the grid would give a smaller grid than the row
    reports."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dim": 2, "sweep": [3], "base_batch": 2,
                               "n": 1, "mc_paths": 100, "workers": 1}))
    assert main(["bsde-multidim", "--config", str(cfg),
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1
    assert "base_batch 2 is smaller than the grid size 3" in err
    cfg.write_text(json.dumps({"dim": 2, "sweep": [3], "base_batch": 3,
                               "n": 1, "mc_paths": 100, "workers": 1}))
    assert main(["bsde-multidim", "--config", str(cfg),
                 "--out", str(tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out)["rows"][0]["N"] == 3


def test_cli_chain_non_finite_parameters_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    small = {"n": 1, "mc_paths": 100, "sample_budget": 100, "grid_size": 2}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for bad in ({"model": "gbm", "mu": math.nan},
                    {"model": "ou", "kappa": "inf"},
                    {"model": "gbm", "sigma": "-Infinity"}):
            cfg.write_text(json.dumps({**small, **bad}))
            assert main(["chain", "--config", str(cfg),
                         "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 3
    assert err.count("must be a finite number, got") == 3
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_model_probe_leaves_non_finite_values_to_the_simulation():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = chain.ou(kappa=math.inf)
        with pytest.raises(NumericError, match="non-finite coefficient"):
            chain.euler_paths(model, chain.TimeMesh(1.0, 2), 10, 0)


def test_cli_rate_fit_overflow_exits_3_without_warnings(tmp_path, capsys):
    """An overflowing design, or errors near the float limit whose fit
    overflows: one error line, no warning, no `Infinity` token on stdout
    and no rate_fit.json."""
    cfg = tmp_path / "cfg.json"
    for bad in ({"pairs": [[1e308, 0.1], [2e307, 0.05], [4e306, 0.02]],
                 "exponent": 2},
                {"pairs": [[10, 0.1], [20, 0.05], [40, 0.02]],
                 "exponent": 1e308},
                {"pairs": [[10, 1e308], [20, -1e308], [40, 1e308]],
                 "exponent": -1}):
        cfg.write_text(json.dumps(bad))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["rate-fit", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 3
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]
    out, err = capsys.readouterr()
    assert out == "" and err.count("error:") == 3
    assert err.count("N ** exponent overflows in the regression design") == 2
    assert err.count("the rate fit overflows") == 1
    assert not (tmp_path / "out" / "rate_fit.json").exists()


def _nan_row(args):
    return {"N": args[0], "y0": math.nan, "z0": math.nan, "error": math.nan}


# per subcommand: a small config, and the patch that puts a nan or an
# infinity into its report; rate-fit's non-finite fit is a case of
# test_cli_rate_fit_overflow_exits_3_without_warnings
NON_FINITE = {
    "grid": ({"size": 3}, lambda mp: mp.setattr(
        cli, "distortion_and_gradient",
        lambda grid, source: SimpleNamespace(value=math.nan))),
    "chain": ({"n": 1, "mc_paths": 100, "sample_budget": 100,
               "grid_size": 2}, lambda mp: (
        mp.setattr(cli, "save_chain", lambda chain, path, binary: None),
        mp.setattr(cli, "estimate_companions",
                   lambda *args, **kwargs: SimpleNamespace(
                       sizes=[1, math.inf], centered=True, dead_rows=[])))),
    "bsde-bidask": ({"n": 1, "mc_paths": 100, "sweep": [2], "workers": 1},
                    lambda mp: mp.setattr(experiments, "_bidask_point",
                                          _nan_row)),
    "bsde-multidim": ({"dim": 1, "n": 1, "mc_paths": 100, "sweep": [2],
                       "workers": 1},
                      lambda mp: mp.setattr(experiments, "_multidim_point",
                                            _nan_row)),
    "filter-demo": ({"n": 1, "sweep": [2], "workers": 1},
                    lambda mp: mp.setattr(experiments, "_filter_point",
                                          _nan_row)),
}


@pytest.mark.parametrize("command", sorted(NON_FINITE))
def test_cli_non_finite_report_value_exits_3(command, tmp_path, capsys,
                                             monkeypatch):
    """Strict JSON has no nan or infinity: a report that holds one is a
    numeric error, on stdout and in every file the report goes to."""
    config, patch = NON_FINITE[command]
    patch(monkeypatch)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
    printed, err = capsys.readouterr()
    assert printed == "" and err.count("error:") == 1
    assert "Traceback" not in err
    assert not list(out.glob("*.json"))


def _out_of_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 745. GiB for an array")


# per subcommand: a small config, and the callee patched to fail as an
# allocation too large for memory would
OUT_OF_MEMORY = {
    "grid": ({"size": 3}, (cli, "newton_1d")),
    "chain": ({"n": 1, "grid_size": 2}, (cli, "build_layer_grids")),
    "bsde-bidask": ({"n": 1, "mc_paths": 10, "sweep": [2], "workers": 1},
                    (experiments, "_bidask_point")),
    "filter-demo": ({"n": 1, "sweep": [2], "workers": 1},
                    (experiments, "_filter_point")),
}


@pytest.mark.parametrize("command", sorted(OUT_OF_MEMORY))
def test_cli_out_of_memory_exits_2(command, tmp_path, capsys, monkeypatch):
    """Sizes are not capped: one too large for memory fails at its
    allocation, and the CLI reports that MemoryError as one error line
    with exit 2, not as a traceback."""
    config, (module, name) = OUT_OF_MEMORY[command]
    monkeypatch.setattr(module, name, _out_of_memory)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 2
    printed, err = capsys.readouterr()
    assert printed == "" and err.count("error:") == 1
    assert err.startswith("error: not enough memory")
    assert "745. GiB" in err and "Traceback" not in err


def test_cli_rate_fit(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"pairs": [[10, 0.4], [20, 0.25], [40, 0.175]], "exponent": -1.0}))
    assert main(["rate-fit", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["a_hat"] == pytest.approx(3.0, abs=1e-9)
    assert out["b_hat"] == pytest.approx(0.1, abs=1e-9)
    saved = json.loads((tmp_path / "rate_fit.json").read_text())
    assert saved == out


def test_cli_rate_fit_from_csv(tmp_path, capsys):
    table = tmp_path / "errs.csv"
    with open(table, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["N", "error"])
        for N in (10, 20, 40):
            w.writerow([N, 2.0 / N])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"csv": str(table)}))
    assert main(["rate-fit", "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["a_hat"] == \
        pytest.approx(2.0, abs=1e-9)


def test_cli_filter_demo(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 4, "model": "linear-gaussian",
                               "workers": 1}))
    rc = main(["filter-demo", "--config", str(cfg), "--grid-size", "10",
               "--seed", "0", "--out", str(tmp_path)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["reference_kind"] == "kalman"
    assert (tmp_path / "filter-demo.csv").exists()


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["rate-fit", "--config", str(bad)]) == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pairs": [[10, 1.0], [20, 0.5]]}))
    assert main(["rate-fit", "--config", str(cfg)]) == 2
    cfg.write_text(json.dumps({"method": "bogus"}))
    assert main(["grid", "--config", str(cfg)]) == 2
    assert main(["bsde-bidask", "--sweep", "10,x"]) == 2
    assert main(["chain", "--sizes", "1,a"]) == 2
    # "sizes" and a misspelt "mcpaths" are no experiment settings
    for bad in ({"n": "ten"}, {"sizes": 5}, {"mcpaths": 10}):
        cfg.write_text(json.dumps(bad))
        assert main(["bsde-bidask", "--config", str(cfg)]) == 2
    cfg.write_text(json.dumps({"model": "gbm", "T": "x"}))
    assert main(["chain", "--config", str(cfg)]) == 2
    assert main(["chain", "--seed", "-1"]) == 2
    assert main(["grid", "--seed", "-1"]) == 2
    cfg.write_text(json.dumps({"seed": -3}))
    assert main(["chain", "--config", str(cfg)]) == 2
    assert main(["grid", "--grid-size", "0"]) == 2
    assert main(["chain", "--grid-size", "0"]) == 2
    good = [[10, 0.1], [20, 0.05], [40, 0.02]]
    for bad in ({"pairs": good, "exponent": math.nan},
                {"pairs": [[10, 0.1], [20, math.nan], [40, 0.02]]},
                {"pairs": [[10, 0.1], [math.inf, 0.05], [40, 0.02]]},
                {"pairs": [[-10, 0.1], [20, 0.05], [40, 0.02]]}):
        cfg.write_text(json.dumps(bad))
        assert main(["rate-fit", "--config", str(cfg)]) == 2
    # a path must be a string: open() takes an integer as a file descriptor
    for command, bad in (("grid", {"input": 0}), ("grid", {"input": 1.5}),
                         ("grid", {"input": None}), ("rate-fit", {"csv": 0}),
                         ("rate-fit", {"csv": [1]})):
        cfg.write_text(json.dumps(bad))
        assert main([command, "--config", str(cfg)]) == 2
    # a law or CSV column name must be a string too (a list is unhashable)
    table = tmp_path / "t.csv"
    table.write_text("N,error\n10,0.1\n20,0.05\n40,0.02\n")
    for command, bad in (("grid", {"law": ["x"]}),
                         ("rate-fit", {"csv": str(table), "n_column": ["N"]}),
                         ("rate-fit", {"csv": str(table),
                                       "error_column": ["error"]})):
        cfg.write_text(json.dumps(bad))
        assert main([command, "--config", str(cfg)]) == 2
    # one integer rule: a bool, a non-finite or a non-integral value is an
    # error, never truncated
    for command, bad in (("filter-demo", {"n": math.inf}),
                         ("grid", {"seed": math.inf}),
                         ("filter-demo", {"n": 2.7}),
                         ("filter-demo", {"sweep": [10.9, 25]}),
                         ("filter-demo", {"n": True}),
                         ("chain", {"n": True}),
                         ("grid", {"dim": 1.5}),
                         ("chain", {"sizes": [1, 2.5]})):
        cfg.write_text(json.dumps(bad))
        assert main([command, "--config", str(cfg)]) == 2
    # one float rule: a bool, a list or a non-numeric string is no number;
    # and an empty sweep runs no point (small sizes keep a run that wrongly
    # goes ahead short)
    small = {"n": 1, "mc_paths": 100, "sample_budget": 100, "grid_size": 2}
    for command, bad in (("chain", {"model": "gbm", "T": True, **small}),
                         ("chain", {"model": "gbm", "T": [1.0], **small}),
                         ("chain", {"model": "gbm", "sigma": "wide", **small}),
                         ("chain", {"model": "ou", "kappa": False, **small}),
                         ("rate-fit", {"pairs": good, "exponent": True}),
                         ("rate-fit", {"pairs": [[10, 0.1], [True, 0.05],
                                                 [40, 0.02]]}),
                         ("bsde-bidask", {"n": 1, "mc_paths": 100,
                                          "sweep": []}),
                         # a string is no list, though it iterates
                         ("chain", {**small, "n": 3, "sizes": "1555"}),
                         ("rate-fit", {"pairs": ["12", "34", "56"]})):
        cfg.write_text(json.dumps(bad))
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
    # a key the subcommand does not read, even one another subcommand or
    # another model reads, is an error, not silently dropped
    for command, bad in (("chain", {**small, "modle": "gbm"}),
                         ("chain", {**small, "model": "gbm", "kappa": 5}),
                         ("grid", {"size": 3, "sise": 7}),
                         ("rate-fit", {"pairs": good, "exponnent": -2}),
                         ("bsde-bidask", {"n": 1, "mc_paths": 100,
                                          "sweep": [2], "workers": 1,
                                          "dim": 3, "model": "sin-cube"}),
                         ("bsde-multidim", {"n": 1, "mc_paths": 100,
                                            "sweep": [2], "workers": 1,
                                            "dim": 1, "model": "sin-cube"}),
                         ("filter-demo", {"n": 1, "sweep": [2], "workers": 1,
                                          "mc_paths": 7})):
        cfg.write_text(json.dumps(bad))
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
    # an output directory that is a file
    for command, bad in (("grid", {"size": 3}), ("chain", small),
                         ("rate-fit", {"pairs": good}),
                         ("bsde-bidask", {"n": 1, "mc_paths": 100,
                                          "sweep": [2], "workers": 1})):
        cfg.write_text(json.dumps(bad))
        assert main([command, "--config", str(cfg), "--out", str(cfg)]) == 2
    # a flag's value is judged after the merge by the config's rule for its
    # key: one error line, no usage line
    for command, flag in (("grid", ["--seed", "x"]),
                          ("chain", ["--mc-paths", "1.5"]),
                          ("bsde-bidask", ["--grid-size", "ten"]),
                          ("filter-demo", ["--seed", "true"])):
        assert main([command, *flag, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("error: ") == 58 and "Traceback" not in err
    assert "usage:" not in err
    assert err.count("must be an integer, got") == 12
    assert err.count("must be a number, got") == 7
    assert err.count("sweep must list at least one grid size") == 1
    assert err.count("must be a path string") == 5
    assert err.count("must be a string") == 3
    assert err.count("unknown config keys ['mcpaths']") == 1
    for keys in (["modle"], ["kappa"], ["sise"], ["exponnent"],
                 ["dim", "model"], ["model"], ["mc_paths"]):
        assert err.count(f"unknown config keys {keys};") == 1
    assert err.count("File exists") == 4
    assert err.count("grid size must be >= 1, got 0") == 2
    # an integral number is an integer, in a flag as in a config file
    printed = []
    for flags in (["--seed", "7.0", "--grid-size", "3.0"],
                  ["--seed", "7", "--grid-size", "3"]):
        assert main(["grid", *flags, "--out", str(tmp_path / "out")]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]


def test_cli_flag_sets():
    # each subcommand takes --config plus only the flags it reads
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = {name: sorted(o for a in p._actions for o in a.option_strings
                          if o.startswith("--") and o != "--help")
             for name, p in sub.choices.items()}
    experiment = ["--config", "--grid-size", "--out", "--seed", "--sweep"]
    assert flags == {
        "grid": ["--config", "--grid-size", "--out", "--seed"],
        "chain": ["--binary", "--config", "--grid-size", "--mc-paths",
                  "--out", "--seed", "--sizes"],
        "bsde-bidask": sorted(experiment + ["--mc-paths"]),
        "bsde-multidim": sorted(experiment + ["--mc-paths"]),
        "filter-demo": experiment,
        "rate-fit": ["--config", "--out"],
    }
    assert sum(map(len, flags.values())) == 30
    for argv in (["grid", "--binary"], ["grid", "--legacy-layout"],
                 ["filter-demo", "--mc-paths", "5"],
                 ["bsde-bidask", "--sizes", "1,5,5"],
                 ["rate-fit", "--seed", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats costs most of a second to import, in every process
    src = os.path.dirname(os.path.dirname(quantschemes.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, quantschemes.cli; "
            "sys.exit(int('scipy.stats' in sys.modules))")
    assert subprocess.run([sys.executable, "-c", code], env=env,
                          timeout=120).returncode == 0


def test_one_dimensional_runs_leave_out_scipy_spatial(tmp_path):
    """A gbm chain build, a bid-ask sweep and a filter sweep search only in
    1-D, so a fresh process that runs all three never loads scipy.spatial,
    the kd-tree's module; a d=2 assign then loads it."""
    src = os.path.dirname(os.path.dirname(quantschemes.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    runs = [("chain", {"model": "gbm", "T": 0.25, "n": 3,
                       "sample_budget": 3000},
             ["--grid-size", "10", "--mc-paths", "5000"]),
            ("bsde-bidask", {"n": 3, "workers": 1},
             ["--sweep", "6,10", "--mc-paths", "5000"]),
            ("filter-demo", {"n": 3, "model": "sin-cube", "workers": 1},
             ["--sweep", "5,10"])]
    argvs = []
    for command, config, flags in runs:
        (tmp_path / f"{command}.json").write_text(json.dumps(config))
        argvs.append([command, "--config", str(tmp_path / f"{command}.json"),
                      "--out", str(tmp_path / command), *flags])
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from quantschemes import cli, grids\n"
        f"codes = [cli.main(argv) for argv in {argvs!r}]\n"
        "assert codes == [0, 0, 0], codes\n"
        "assert 'scipy.spatial' not in sys.modules\n"
        "grid = grids.Grid(np.random.default_rng(0).standard_normal((9, 2)))\n"
        "grids.assign(grid, np.zeros((5, 2)))\n"
        "assert 'scipy.spatial' in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_filter_demo_forks_its_pool_after_threaded_rows():
    """The N=600 self-reference fills its rows (two blocks) on two threads,
    then the two sweep points run in a forked pool of two, where the N=600
    point fills its rows on two threads again; the rows equal those of one
    worker. A thread pool left alive across the fork would hang the child,
    so this runs in a process group that is killed after a timeout."""
    src = os.path.dirname(os.path.dirname(quantschemes.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = (
        "import sys\n"
        "from quantschemes import experiments, filtering\n"
        "filtering._cpu_count = experiments._cpu_count = lambda: 2\n"
        "rows = [experiments.run_filter_demo(experiments.ExperimentConfig(\n"
        "    name='filter-demo', n=3, seed=2, sweep=[20, 600],\n"
        "    model='sin-cube', workers=w), reference_size=600)['rows']\n"
        "    for w in (2, 1)]\n"
        "sys.exit(int(rows[0] != rows[1]))\n")
    proc = subprocess.Popen([sys.executable, "-c", code], env=env,
                            start_new_session=True)
    try:
        assert proc.wait(timeout=120) == 0
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def test_cli_grid_missing_input_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input": str(tmp_path / "missing.txt")}))
    assert main(["grid", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")


def test_cli_grid_non_utf8_input_file(tmp_path, capsys):
    grid = tmp_path / "g.txt"
    grid.write_bytes(b"1 2\n-0.8 0.5\n0.8 \xff0.5\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input": str(grid)}))
    assert main(["grid", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "not UTF-8" in err


def test_cli_grid_weights_summing_past_the_float_range(tmp_path, capsys):
    """Finite weights whose sum overflows: one error line that names the
    sum as a plain float, and no numpy RuntimeWarning."""
    grid = tmp_path / "g.txt"
    grid.write_text("1 2\n0.0 1e308\n1.0 1e308\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input": str(grid)}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["grid", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "weights sum to inf, not 1" in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_cli_sweep_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 4, "model": "linear-gaussian",
                               "workers": 1}))
    rc = main(["filter-demo", "--config", str(cfg), "--sweep", "5,10,15",
               "--seed", "0"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert [r["N"] for r in out["rows"]] == [5, 10, 15]
    assert "rate_fit" in out
