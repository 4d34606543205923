"""The four benchmark workloads, their sizes and their correctness checks.

Each workload is a function ``run(seed, workdir, start)``: it builds its
inputs from ``seed``, calls ``start()`` immediately before its first call
into ``quantschemes`` and returns the values that its check reads. Checks
are pure functions of those values, so tests can hand them a perturbed
result.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# called through their modules, so that the traced run's wrappers apply
from quantschemes import bsde, chain, cli, experiments
from quantschemes.experiments import ExperimentConfig

# N, n, d and the models are the reference experiments'; the path counts
# are cut so that several fresh processes fit into one measured run.
SIZES = {
    "bidask": {"N": 150, "n": 20, "mc_paths": 200_000},
    "multidim": {"d": 2, "N": 150, "n": 10, "base_batch": 50_000,
                 "mc_paths": 100_000},
    "filter": {"n": 10, "sweep": [10, 25, 50, 100, 200],
               "reference_size": 2000, "kalman_paths": 8},
    "cli-chain": {"model": "gbm", "T": 0.25, "n": 10, "N": 50,
                  "sample_budget": 20_000, "mc_paths": 100_000,
                  "strikes": [90.0, 95.0, 100.0, 105.0, 110.0],
                  "rate": 0.01},
}

# acceptance tolerances (criteria 01, 02 and 09)
BIDASK_Y0, BIDASK_Z0, BIDASK_TOL = 2.96, 0.55, 0.05
# criterion 01 allows 0.05 on z0 at M=1e6; at M=2e5 z0 has a standard
# deviation of 0.042 between seeds (17 seeds), so the benchmark allows ~5 of it
BIDASK_Z0_TOL = 0.2
MULTIDIM_Y0, MULTIDIM_Z0, MULTIDIM_TOL = 0.5, 0.25, 0.02
# Criterion 09 judges one observation path. On one path the error can cross
# zero at a small N, which breaks the monotone sequence on about 2% of seeds
# (8 of 400); the mean error over 8 paths did so on none of 100 groups.
FILTER_ERR100, FILTER_SLOPE = 0.05, -0.7

# the CLI's gbm defaults, against which the call prices are checked
GBM = {"x0": 100.0, "mu": 0.05, "sigma": 0.2}
# |y0 - closed form| per strike: 10 Euler steps and 50-point grids leave a
# bias of up to 0.03 (K=110), and 1e5 paths add Monte-Carlo noise with a
# standard deviation of up to 0.033 (K=90) between seeds; the largest error
# over 10 seeds was 0.060
CALL_TOL = 0.15
# With f = -r y the backward recursion is (1 - r dt)^n times the product of
# the transition matrices, and the estimated marginals satisfy
# p^{k+1} = p^k P^k exactly, so y0 must equal the discounted payoff under the
# chain's last marginal up to rounding. This check carries no Monte-Carlo
# noise.
TREE_RTOL = 1e-9


def bidask(seed: int, workdir: Path, start) -> dict:
    s = SIZES["bidask"]
    config = ExperimentConfig(name="bidask", n=s["n"], grid_size=s["N"],
                              mc_paths=s["mc_paths"], seed=seed, workers=1)
    start()
    report = experiments.run_bidask(config)
    return {"y0": report["y0_hat"], "z0": report["z0_hat"]}


def check_bidask(v: dict) -> dict:
    return {"y0": abs(v["y0"] - BIDASK_Y0) <= BIDASK_TOL,
            "z0": abs(v["z0"] - BIDASK_Z0) <= BIDASK_Z0_TOL}


def multidim(seed: int, workdir: Path, start) -> dict:
    s = SIZES["multidim"]
    config = ExperimentConfig(name="multidim", n=s["n"], grid_size=s["N"],
                              dim=s["d"], mc_paths=s["mc_paths"],
                              base_batch=s["base_batch"], seed=seed,
                              workers=1)
    start()
    row = experiments.run_multidim(config)["rows"][0]
    return {"y0": row["y0"],
            "z0": [row[f"z0_{i + 1}"] for i in range(s["d"])],
            "z0_exact": MULTIDIM_Z0}


def check_multidim(v: dict) -> dict:
    return {"y0": abs(v["y0"] - MULTIDIM_Y0) <= MULTIDIM_TOL}


def filter_demo(seed: int, workdir: Path, start) -> dict:
    s = SIZES["filter"]

    def sweep(model, path_seed):
        config = ExperimentConfig(name="filter-demo", n=s["n"],
                                  seed=path_seed, sweep=s["sweep"],
                                  model=model, workers=1)
        report = experiments.run_filter_demo(
            config, reference_size=s["reference_size"])
        return [r["error"] for r in report["rows"]]

    start()
    paths = s["kalman_paths"]
    errors = list(np.mean([sweep("linear-gaussian", paths * seed + i)
                           for i in range(paths)], axis=0))
    slope = experiments.loglog_slope(list(zip(s["sweep"], errors)))
    return {"linear-gaussian": {"N": s["sweep"], "error": errors,
                                "slope": slope, "paths": paths},
            "sin-cube": {"N": s["sweep"], "error": sweep("sin-cube", seed)}}


def check_filter(v: dict) -> dict:
    lg = v["linear-gaussian"]
    err = dict(zip(lg["N"], lg["error"]))
    seq = lg["error"]
    return {"err100": err[100] <= FILTER_ERR100,
            "non_increasing": all(a >= b for a, b in zip(seq, seq[1:])),
            "slope": lg["slope"] <= FILTER_SLOPE}


def call_price(strike: float, T: float, rate: float) -> float:
    """e^{-rT} E[(X_T - K)^+] for the CLI's gbm model (drift mu)."""
    x0, mu, sig = GBM["x0"], GBM["mu"], GBM["sigma"]
    fwd = x0 * math.exp(mu * T)
    d1 = (math.log(fwd / strike) + 0.5 * sig * sig * T) / (sig * math.sqrt(T))
    d2 = d1 - sig * math.sqrt(T)
    ncdf = lambda u: 0.5 * (1.0 + math.erf(u / math.sqrt(2.0)))
    return math.exp(-rate * T) * (fwd * ncdf(d1) - strike * ncdf(d2))


def chains_identical(a, b) -> bool:
    """Bit-for-bit equality of two chains' metadata and arrays."""
    if (a.mesh != b.mesh or a.mc_paths != b.mc_paths or a.seed != b.seed
            or a.centered != b.centered or a.sizes != b.sizes):
        return False
    arrays = lambda c: ([g.points for g in c.layers] + c.marginals
                        + c.transitions + c.companions + c.dead_rows)
    return all(x.dtype == y.dtype and x.shape == y.shape
               and x.tobytes() == y.tobytes()
               for x, y in zip(arrays(a), arrays(b)))


def cli_chain(seed: int, workdir: Path, start) -> dict:
    s = SIZES["cli-chain"]
    config = workdir / "chain.json"
    config.write_text(json.dumps({"model": s["model"], "T": s["T"],
                                  "n": s["n"],
                                  "sample_budget": s["sample_budget"]}))
    out = workdir / "chain"
    argv = ["chain", "--config", str(config), "--seed", str(seed),
            "--mc-paths", str(s["mc_paths"]), "--grid-size", str(s["N"]),
            "--out", str(out)]
    start()
    code = cli.main(argv)
    text = chain.load_chain(out / "chain.txt")
    chain.save_chain(text, out / "chain.bin", binary=True)
    binary = chain.load_chain(out / "chain.bin")
    rate = s["rate"]
    driver = bsde.DriverSpec(f=lambda t, x, y, z: -rate * y)
    payoff = lambda k: lambda pts: np.maximum(pts[:, 0] - k, 0.0)
    y0 = [bsde.solve_bsde(binary, driver, payoff(k)).y0 for k in s["strikes"]]
    discount = (1.0 - rate * binary.mesh.dt) ** binary.mesh.steps
    last = binary.layers[-1].points
    return {"exit_code": code, "strikes": s["strikes"], "y0": y0,
            "tree": [discount * float(binary.marginals[-1] @ payoff(k)(last))
                     for k in s["strikes"]],
            "exact": [call_price(k, s["T"], rate) for k in s["strikes"]],
            "binary_identical": chains_identical(text, binary)}


def check_cli_chain(v: dict) -> dict:
    return {"exit_code": v["exit_code"] == 0,
            "tree": all(abs(y - t) <= TREE_RTOL * max(1.0, abs(t))
                        for y, t in zip(v["y0"], v["tree"])),
            "closed_form": all(abs(y - e) <= CALL_TOL
                               for y, e in zip(v["y0"], v["exact"])),
            "binary_identical": v["binary_identical"]}


WORKLOADS = {
    "bidask": (bidask, check_bidask),
    "multidim": (multidim, check_multidim),
    "filter": (filter_demo, check_filter),
    "cli-chain": (cli_chain, check_cli_chain),
}
