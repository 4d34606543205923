"""Command-line entry point.

Subcommands: grid (build and save an optimal grid), chain (build and save a
quantized chain for a builtin state model), bsde-bidask / bsde-multidim /
filter-demo (reference experiments), rate-fit (regression over an existing
(N, error) table). Exit codes: 0 success, 2 validation error, 3
numeric/convergence error.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .chain import (MODELS, DiffusionModel, TimeMesh, build_layer_grids,
                    estimate_companions, save_chain)
from .errors import InputError, QuantError
from .experiments import (ExperimentConfig, _integer, _real, fit_rate,
                          run_bidask, run_filter_demo, run_multidim)
from .grids import (Grid, Law1D, SampleSource, StopCriteria, clvq,
                    distortion_and_gradient, lloyd, load_grid, newton_1d,
                    save_grid)


def _int_list(values, what: str) -> list[int]:
    """A list of integers by `_integer`'s rule; a string is no list."""
    message = f"{what} must list integers, got {values!r}"
    if not isinstance(values, list):
        raise InputError(message)
    try:
        return [_integer(v, what) for v in values]
    except InputError:
        raise InputError(message)


def _option(cfg: dict, key: str, kind, default):
    """Config value `key`, or `default` when absent, as an int by
    `_integer`'s rule or a float by `_real`'s."""
    rule = {int: _integer, float: _real}[kind]
    return rule(cfg.get(key, default), f"config {key!r}")


def _string(cfg: dict, key: str, default=None, what: str = "string") -> str:
    """Config value `key`, or `default` when absent, which must be a string:
    a file path (`open` would take an integer as a file descriptor), a law
    or a CSV column name."""
    value = cfg.get(key, default)
    if not isinstance(value, str):
        raise InputError(f"config {key!r} must be a {what}, got {value!r}")
    return value


def _parse_sweep(text: str) -> list[int]:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise InputError("sweep must be start:stop:step or a,b,c")
        a, b, c = _int_list(parts, "sweep")
        if c < 1 or b < a:
            raise InputError("sweep needs stop >= start and step >= 1")
        return list(range(a, b + 1, c))
    return _int_list([p for p in text.split(",") if p], "sweep")


def _load_config(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"config is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise InputError("config must be a JSON object")
    return cfg


def _seed(args, cfg: dict) -> int:
    """The --seed flag, else the config's seed, else 0; never negative."""
    seed = args.seed if args.seed is not None else _option(cfg, "seed", int, 0)
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    return seed


def _grid_size(args, cfg: dict, key: str, default: int) -> int:
    """The --grid-size flag, else the config's `key`, else `default`; at
    least 1."""
    size = args.grid_size if args.grid_size is not None \
        else _option(cfg, key, int, default)
    if size < 1:
        raise InputError(f"grid size must be >= 1, got {size}")
    return size


_EXPERIMENT_KEYS = {"n", "grid_size", "mc_paths", "seed", "sweep", "out",
                    "dim", "model", "base_batch", "workers"}


def _experiment_config(name: str, cfg: dict, args,
                       default_n: int) -> ExperimentConfig:
    """Config file values, overridden by the command-line flags. A config
    key that is no experiment setting is an error, not silently dropped."""
    unknown = sorted(set(cfg) - _EXPERIMENT_KEYS)
    if unknown:
        raise InputError(f"unknown config keys {unknown}; "
                         f"known: {sorted(_EXPERIMENT_KEYS)}")
    flags = {k: v for k, v in vars(args).items()
             if k in _EXPERIMENT_KEYS and v is not None}
    if "sweep" in flags:
        flags["sweep"] = _parse_sweep(flags["sweep"])
    return ExperimentConfig(name=name, **{"n": default_n, **cfg, **flags})


def _cmd_grid(args) -> int:
    cfg = _load_config(args.config)
    if "input" in cfg:
        grid = load_grid(_string(cfg, "input", what="path string"))
        print(json.dumps({"size": grid.size, "dim": grid.dim,
                          "has_weights": grid.weights is not None}))
        return 0
    law = _string(cfg, "law", "gaussian")
    dim = _option(cfg, "dim", int, 1)
    size = _grid_size(args, cfg, "size", 100)
    method = cfg.get("method", "newton" if dim == 1 else "lloyd")
    seed = _seed(args, cfg)
    batch_size = _option(cfg, "batch_size", int, 1_000_000)
    extra = {}
    if method == "newton":
        if dim != 1:
            raise InputError("newton method is one-dimensional")
        law1d = {"gaussian": Law1D.gaussian,
                 "uniform": Law1D.uniform01}.get(law)
        if law1d is None:
            raise InputError(f"unknown law {law!r}")
        grid = newton_1d(law1d(), size)
    elif method in ("lloyd", "clvq"):
        source = SampleSource(law=law, dim=dim, seed=seed)
        init = Grid(source.draw(size))
        if method == "lloyd":
            frozen = SampleSource.from_batch(source.draw(batch_size))
            grid, _, extra["iterations"] = lloyd(init, frozen, StopCriteria())
        else:
            grid = clvq(init, source, steps=_option(cfg, "steps", int, 500_000))
    else:
        raise InputError(f"unknown method {method!r}")
    outdir = Path(args.out or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "grid.txt"
    save_grid(grid, path)
    report = distortion_and_gradient(
        grid, SampleSource(law=law, dim=dim, seed=seed + 1))
    print(json.dumps({"size": grid.size, "dim": grid.dim,
                      "distortion": report.value, "path": str(path),
                      **extra}))
    return 0


def _chain_model(cfg: dict) -> tuple[DiffusionModel, TimeMesh]:
    """The MODELS entry named by cfg["model"], with its parameters taken
    from the config where given."""
    name = cfg.get("model", "brownian")
    build = MODELS.get(name) if isinstance(name, str) else None
    if build is None:
        raise InputError(f"model must be one of {sorted(MODELS)}")
    params = inspect.signature(build).parameters.values()
    model = build(**{p.name: _option(cfg, p.name, type(p.default), p.default)
                     for p in params if p.name in cfg})
    return model, TimeMesh(_option(cfg, "T", float, 1.0),
                           _option(cfg, "n", int, 10))


def _cmd_chain(args) -> int:
    cfg = _load_config(args.config)
    model, mesh = _chain_model(cfg)
    seed = _seed(args, cfg)
    center = cfg.get("center", True)
    if not isinstance(center, bool):
        raise InputError(f"config 'center' must be true or false, "
                         f"got {center!r}")
    mc = args.mc_paths if args.mc_paths is not None \
        else _option(cfg, "mc_paths", int, 1_000_000)
    if args.sizes is not None:
        sizes = _int_list(args.sizes.split(","), "sizes")
    elif "sizes" in cfg:
        sizes = _int_list(cfg["sizes"], "sizes")
    else:
        size = _grid_size(args, cfg, "grid_size", 50)
        sizes = [1] + [size] * mesh.steps
    layers = build_layer_grids(model, mesh, sizes,
                               sample_budget=_option(cfg, "sample_budget",
                                                     int, 100_000),
                               seed=seed)
    chain = estimate_companions(model, mesh, layers, mc, seed, center=center)
    outdir = Path(args.out or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / ("chain.bin" if args.binary else "chain.txt")
    save_chain(chain, path, binary=args.binary)
    print(json.dumps({
        "path": str(path), "sizes": chain.sizes, "mc_paths": mc,
        "seed": seed, "centered": chain.centered,
        "dead_rows": [int(d.size) for d in chain.dead_rows]}))
    return 0


def _cmd_rate_fit(args) -> int:
    cfg = _load_config(args.config)
    exponent = _option(cfg, "exponent", float, -1.0)
    if "pairs" in cfg:
        raw = cfg["pairs"]
        if not isinstance(raw, list) or not all(
                isinstance(p, list) and len(p) == 2 for p in raw):
            raise InputError("pairs must be a list of [N, error] pairs")
        pairs = [(_real(a, "pairs"), _real(b, "pairs")) for a, b in raw]
    elif "csv" in cfg:
        ncol = _string(cfg, "n_column", "N")
        ecol = _string(cfg, "error_column", "error")
        try:
            with open(_string(cfg, "csv", what="path string")) as fh:
                rows = list(csv.DictReader(fh))
        except OSError as exc:
            raise InputError(f"cannot read csv: {exc}")
        try:
            pairs = [(float(r[ncol]), float(r[ecol])) for r in rows]
        except (KeyError, ValueError) as exc:
            raise InputError(f"bad csv columns: {exc}")
    else:
        raise InputError("rate-fit config needs 'pairs' or 'csv'")
    fit = fit_rate(pairs, exponent)
    out = asdict(fit)
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        with open(outdir / "rate_fit.json", "w") as fh:
            json.dump(out, fh, indent=2)
    print(json.dumps(out))
    return 0


def _cmd_experiment(args, name: str, runner, default_n: int) -> int:
    cfg = _load_config(args.config)
    ec = _experiment_config(name, cfg, args, default_n)
    report = runner(ec)
    summary = {k: v for k, v in report.items() if k != "rows"}
    summary["rows"] = report["rows"]
    print(json.dumps(summary, default=float))
    return 0


# the flags each subcommand reads, besides --config
_FLAGS = {
    "grid": ("seed", "grid-size", "out"),
    "chain": ("seed", "mc-paths", "grid-size", "sizes", "out", "binary"),
    "bsde-bidask": ("seed", "mc-paths", "grid-size", "sweep", "out"),
    "bsde-multidim": ("seed", "mc-paths", "grid-size", "sweep", "out"),
    "filter-demo": ("seed", "grid-size", "sweep", "out"),
    "rate-fit": ("out",),
}
_FLAG_OPTIONS = {
    "seed": {"type": int},
    "mc-paths": {"type": int},
    "grid-size": {"type": int},
    "sizes": {"help": "comma-separated per-layer sizes"},
    "sweep": {"help": "start:stop:step or comma list"},
    "out": {"help": "output directory"},
    "binary": {"action": "store_true", "help": "write chain files in binary"},
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quantschemes",
        description="Optimal-quantization schemes: grids, chains, backward "
                    "solvers, filtering, and reference experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, flags in _FLAGS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAG_OPTIONS[flag])
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "grid":
            return _cmd_grid(args)
        if args.command == "chain":
            return _cmd_chain(args)
        if args.command == "rate-fit":
            return _cmd_rate_fit(args)
        if args.command == "bsde-bidask":
            return _cmd_experiment(args, "bidask", run_bidask, 20)
        if args.command == "bsde-multidim":
            return _cmd_experiment(args, "multidim", run_multidim, 10)
        if args.command == "filter-demo":
            return _cmd_experiment(args, "filter-demo", run_filter_demo, 10)
        raise InputError(f"unknown command {args.command!r}")
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QuantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
