"""Command-line entry point.

Subcommands: grid (build and save an optimal grid), chain (build and save a
quantized chain for a builtin state model), bsde-bidask / bsde-multidim /
filter-demo (reference experiments), rate-fit (regression over an existing
(N, error) table). Each reads a JSON config of the keys `_COMMANDS` lists
for it, overridden by its flags, and prints one JSON summary. Exit codes:
0 success, 2 validation error (an unknown config key among them), 3
numeric/convergence error (a non-finite report value among them).
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .chain import (MODELS, TimeMesh, build_layer_grids, estimate_companions,
                    save_chain)
from .errors import InputError, QuantError
from .experiments import (READS, ExperimentConfig, _integer, _json, _real,
                          fit_rate, run_bidask, run_filter_demo, run_multidim)
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


def _at_least(cfg: dict, key: str, default: int, least: int,
              what: str) -> int:
    """Config value `key`, or `default` when absent, an integer >= least."""
    value = _option(cfg, key, int, default)
    if value < least:
        raise InputError(f"{what} must be >= {least}, got {value}")
    return value


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
        # a grid size below 1 is rejected here, before the range is built
        if a < 1 or b < a or c < 1:
            raise InputError("sweep needs 1 <= start <= stop and step >= 1")
        # sizes are not capped, but a list longer than sys.maxsize cannot
        # be built at all (OverflowError), and one too long for memory
        # fails at its allocation (MemoryError)
        try:
            return list(range(a, b + 1, c))
        except (OverflowError, MemoryError):
            raise InputError(f"sweep {text} lists more than memory can hold")
    return _int_list([p for p in text.split(",") if p], "sweep")


def _flag_value(text: str):
    """A numeric flag's text as a config file would hold it: the JSON
    number it spells, or else the text, which the config's rule for the key
    then rejects with one error line (an argparse `type` that fails prints
    a usage line too)."""
    try:
        value = json.loads(text)
    except ValueError:
        return text
    return value if type(value) in (int, float) else text


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


# the laws of the grid subcommand: each name's Law1D for Newton, and its
# sampler (rng, m, d) -> (m, d) rows for Lloyd, CLVQ and the distortion
# report
_LAWS = {
    "gaussian": (Law1D.gaussian,
                 lambda rng, m, d: rng.standard_normal((m, d))),
    "uniform": (Law1D.uniform01, lambda rng, m, d: rng.random((m, d))),
}


def _cmd_grid(cfg: dict) -> dict:
    if "input" in cfg:
        grid = load_grid(_string(cfg, "input", what="path string"))
        return {"size": grid.size, "dim": grid.dim,
                "has_weights": grid.weights is not None}
    law = _string(cfg, "law", "gaussian")
    dim = _at_least(cfg, "dim", 1, 1, "dim")
    size = _at_least(cfg, "size", 100, 1, "grid size")
    method = cfg.get("method", "newton" if dim == 1 else "lloyd")
    seed = _at_least(cfg, "seed", 0, 0, "seed")
    if law not in _LAWS:
        raise InputError(f"unknown law {law!r}")
    law1d, sample = _LAWS[law]

    def stream(rng_seed):
        """draw(m): the next m rows of the law from default_rng(rng_seed)."""
        rng = np.random.default_rng(rng_seed)
        return lambda m: sample(rng, m, dim)

    extra = {}
    if method == "newton":
        if dim != 1:
            raise InputError("newton method is one-dimensional")
        grid = newton_1d(law1d(), size)
    elif method == "lloyd":
        batch_size = _at_least(cfg, "batch_size", 1_000_000, 1, "batch size")
        grid, _, extra["iterations"] = lloyd(
            Grid(stream(seed)(size)),
            SampleSource.from_batch(stream(seed)(batch_size)), StopCriteria())
    elif method == "clvq":
        grid = clvq(Grid(stream(seed)(size)), stream(seed),
                    steps=_option(cfg, "steps", int, 500_000))
    else:
        raise InputError(f"unknown method {method!r}")
    outdir = Path(cfg.get("out") or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "grid.txt"
    save_grid(grid, path)
    # the reported distortion is over 1e6 rows of a stream of its own
    report = distortion_and_gradient(
        grid, SampleSource.from_batch(stream(seed + 1)(1_000_000)))
    return {"size": grid.size, "dim": grid.dim, "distortion": report.value,
            "path": str(path), **extra}


def _chain_model(cfg: dict):
    """The MODELS entry named by cfg["model"], and its parameters, which
    the config may set."""
    name = cfg.get("model", "brownian")
    build = MODELS.get(name) if isinstance(name, str) else None
    if build is None:
        raise InputError(f"model must be one of {sorted(MODELS)}")
    return build, inspect.signature(build).parameters


def _cmd_chain(cfg: dict) -> dict:
    build, params = _chain_model(cfg)
    model = build(**{k: _option(cfg, k, type(p.default), p.default)
                     for k, p in params.items() if k in cfg})
    mesh = TimeMesh(_option(cfg, "T", float, 1.0), _option(cfg, "n", int, 10))
    seed = _at_least(cfg, "seed", 0, 0, "seed")
    center = cfg.get("center", True)
    if not isinstance(center, bool):
        raise InputError(f"config 'center' must be true or false, "
                         f"got {center!r}")
    mc = _option(cfg, "mc_paths", int, 1_000_000)
    if "sizes" in cfg:
        sizes = _int_list(cfg["sizes"], "sizes")
    else:
        size = _at_least(cfg, "grid_size", 50, 1, "grid size")
        sizes = [1] + [size] * mesh.steps
    layers = build_layer_grids(model, mesh, sizes,
                               sample_budget=_option(cfg, "sample_budget",
                                                     int, 100_000),
                               seed=seed)
    chain = estimate_companions(model, mesh, layers, mc, seed, center=center)
    outdir = Path(cfg.get("out") or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / ("chain.bin" if cfg["binary"] else "chain.txt")
    save_chain(chain, path, binary=cfg["binary"])
    return {"path": str(path), "sizes": chain.sizes, "mc_paths": mc,
            "seed": seed, "centered": chain.centered,
            "dead_rows": [int(d.size) for d in chain.dead_rows]}


def _cmd_rate_fit(cfg: dict) -> dict:
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
    out = asdict(fit_rate(pairs, exponent))
    if cfg.get("out"):
        outdir = Path(cfg["out"])
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "rate_fit.json").write_text(_json(out, indent=2))
    return out


def _experiment(name: str, runner, default_n: int):
    """The command of one reference experiment: its report, rows last."""
    def command(cfg: dict) -> dict:
        report = runner(ExperimentConfig(name=name, **{"n": default_n, **cfg}))
        report["rows"] = report.pop("rows")
        return report
    return command


# per subcommand: its command, the config keys it reads (chain's model
# parameters besides), and its flags besides --config, each named by the
# config key it overrides; "out" and "binary" of grid, chain and rate-fit
# are flags only
_COMMANDS = {
    "grid": (_cmd_grid, "input law dim size method seed batch_size steps",
             "seed size out"),
    "chain": (_cmd_chain,
              "model T n seed center mc_paths sizes grid_size sample_budget",
              "seed mc_paths grid_size sizes out binary"),
    "bsde-bidask": (_experiment("bidask", run_bidask, 20), READS["bidask"],
                    "seed mc_paths grid_size sweep out"),
    "bsde-multidim": (_experiment("multidim", run_multidim, 10),
                      READS["multidim"], "seed mc_paths grid_size sweep out"),
    "filter-demo": (_experiment("filter-demo", run_filter_demo, 10),
                    READS["filter-demo"], "seed grid_size sweep out"),
    "rate-fit": (_cmd_rate_fit, "pairs csv n_column error_column exponent",
                 "out"),
}
# the flag that overrides each config key, and its argparse options
_FLAGS = {
    "seed": ("--seed", {"type": _flag_value}),
    "mc_paths": ("--mc-paths", {"type": _flag_value}),
    "grid_size": ("--grid-size", {"type": _flag_value}),
    "size": ("--grid-size", {"type": _flag_value, "metavar": "GRID_SIZE"}),
    "sizes": ("--sizes", {"type": lambda text: text.split(","),
                          "help": "comma-separated per-layer sizes"}),
    "sweep": ("--sweep", {"type": _parse_sweep,
                          "help": "start:stop:step or comma list"}),
    "out": ("--out", {"help": "output directory"}),
    "binary": ("--binary", {"action": "store_true",
                            "help": "write chain files in binary"}),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quantschemes",
        description="Optimal-quantization schemes: grids, chains, backward "
                    "solvers, filtering, and reference experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        for key in flags.split():
            flag, options = _FLAGS[key]
            p.add_argument(flag, dest=key, **options)
    return parser


def _read_config(args) -> dict:
    """The config file's values, overridden by the flags given. A key the
    subcommand does not read is an error, not silently dropped."""
    cfg = _load_config(args.config)
    known = set(_COMMANDS[args.command][1].split())
    if args.command == "chain":
        known |= set(_chain_model(cfg)[1])
    unknown = sorted(set(cfg) - known)
    if unknown:
        raise InputError(f"unknown config keys {unknown}; "
                         f"known: {sorted(known)}")
    flags = {k: v for k, v in vars(args).items()
             if v is not None and k not in ("command", "config")}
    return {**cfg, **flags}


def main(argv=None) -> int:
    try:
        # a malformed --sweep raises InputError from inside parse_args
        args = _build_parser().parse_args(argv)
        print(_json(_COMMANDS[args.command][0](_read_config(args))))
        return 0
    except (InputError, OSError) as exc:
        # OSError: an output path that cannot be written, such as a file
        # named as the output directory
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QuantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # sizes are not capped: one too large for memory fails at allocation
        print(f"error: not enough memory for the requested sizes"
              f"{': ' if str(exc) else ''}{exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
