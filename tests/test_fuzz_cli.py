"""Config and flag fuzzing of every CLI subcommand.

Each config is drawn from the keys its subcommand reads (chain's model
parameters among them), with awkward JSON values: bools, null, ±0,
NaN/Infinity tokens, 1e308, 20-digit integers, strings, lists and nested
objects; some configs get one key the subcommand does not read. The
numeric flags (--seed, --mc-paths, --grid-size, --sizes, --sweep) get
awkward texts: the same kinds of numbers and words, and lists and ranges
of them with empty parts. Sizes, path counts, step counts and sample
budgets are clamped to a small budget before the call, since a valid `n`
or `steps` of 1e9 is a legal run that would not end in a test. Every run
must exit 0 with strict JSON on stdout, or exit 2 or 3 with one `error:`
line; never a traceback or a warning.
"""

import contextlib
import io
import json
import math
import os
import sys
import tempfile
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from quantschemes.cli import _COMMANDS, _FLAGS, _flag_value, main
from quantschemes.errors import InputError
from quantschemes.experiments import _integer
from quantschemes.grids import Law1D, newton_1d, save_grid

EXPERIMENT = ("n", "grid_size", "seed", "sweep", "out", "workers")
KEYS = {
    "grid": ("input", "law", "dim", "size", "method", "seed", "batch_size",
             "steps"),
    "chain": ("model", "T", "n", "seed", "center", "mc_paths", "sizes",
              "grid_size", "sample_budget"),
    "bsde-bidask": EXPERIMENT + ("mc_paths",),
    "bsde-multidim": EXPERIMENT + ("mc_paths", "dim", "base_batch"),
    "filter-demo": EXPERIMENT + ("model",),
    "rate-fit": ("pairs", "csv", "n_column", "error_column", "exponent"),
}
MODEL_PARAMETERS = {"gbm": ("mu", "sigma", "x0"),
                    "ou": ("kappa", "sigma", "x0"), "brownian": ("dim",)}
# the budget each size-like key is clamped to, and set to when absent
BUDGET = {
    "grid": {"size": 4, "batch_size": 300, "steps": 200},
    "chain": {"n": 2, "mc_paths": 300, "sample_budget": 300, "grid_size": 3},
    "bsde-bidask": {"n": 2, "mc_paths": 300, "grid_size": 4},
    "bsde-multidim": {"n": 2, "mc_paths": 300, "grid_size": 4,
                      "base_batch": 300},
    "filter-demo": {"n": 2, "grid_size": 4},
    "rate-fit": {},
}
# a clamp only, never set when absent
CAPS = {"dim": 3, "sweep": 4, "sizes": 4}
# names that some subcommand reads, and misspellings of them
UNKNOWN = sorted({k for keys in KEYS.values() for k in keys}
                 | {"kappa", "mu", "x0", "sise", "modle", "exponnent",
                    "mcpaths", "binary", ""})

SCALARS = [True, False, None, 0, -0.0, 0.0, 1, 2, 3, -1, 0.5, 1.5, 1e308,
           -1e308, 1e-320, math.nan, math.inf, -math.inf, 10 ** 20,
           -10 ** 20, "", "x", "1", "3", "-1", "nan", "Infinity", "1e308",
           "99999999999999999999", "gaussian", "uniform", "newton", "lloyd",
           "clvq", "gbm", "ou", "brownian", "linear-gaussian", "sin-cube",
           "g.txt", "t.csv", "N", "error", "out"]
VALUES = st.recursive(
    st.sampled_from(SCALARS),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["N", "x"]), inner, max_size=2),
    max_leaves=8)
PAIRS = st.lists(st.lists(st.sampled_from([10, 20, 40, 0.1, 0.05, -1, 1e308,
                                           -1e308, math.nan]),
                          min_size=2, max_size=2), max_size=4)
# values that pass each key's check, drawn three times in four so that most
# runs get past it; an `out` that names a file passes and fails at the write
SANE = {
    "input": ["g.txt"], "law": ["gaussian", "uniform"], "dim": [1, 2, 3],
    "size": [1, 2, 4], "method": ["newton", "lloyd", "clvq"],
    "seed": [0, 7], "batch_size": [4, 300], "steps": [1, 200],
    "T": [0.5, 1], "n": [1, 2], "center": [True, False],
    "mc_paths": [1, 300], "sizes": [[1, 3], [1, 3, 3]],
    "grid_size": [1, 3], "sample_budget": [3, 300],
    "mu": [0.05], "sigma": [0.2], "x0": [1.0], "kappa": [2.0],
    "sweep": [[2], [2, 3, 4]], "out": ["out", "g.txt"], "workers": [1],
    "base_batch": [4, 300], "model": ["linear-gaussian", "sin-cube"],
    "pairs": [[[10, 0.4], [20, 0.25], [40, 0.175]]], "csv": ["t.csv"],
    "n_column": ["N"], "error_column": ["error"], "exponent": [-1, -0.5, 2],
}


# texts of the numeric flags, and of each part of a --sizes or --sweep list
TEXTS = ["", "0", "1", "2", "3", "4", "-1", "-0", "0.0", "1.5", "3.0",
         "1e308", "-1e308", "1e-320", "NaN", "Infinity", "-Infinity", "nan",
         "99999999999999999999", "-99999999999999999999", "x", " 3", "1_0",
         "0x3", "true", "null", "[2]", '"2"', "{}"]
# the flags that take numbers; grid's --grid-size sets its `size`
NUMERIC = ("seed", "mc_paths", "grid_size", "size", "sizes", "sweep")


def _mostly(sane, awkward):
    """One of the `sane` values three times in four, else an awkward one."""
    return st.integers(0, 3).flatmap(
        lambda i: awkward if i == 0 else st.sampled_from(sane))


def _as_int(value):
    """value as an integer by the CLI's rule, or None."""
    try:
        return _integer(value, "")
    except InputError:
        return None


def _clamp(value, cap):
    """value, with an integer above `cap` replaced by `cap`; lists
    elementwise."""
    if isinstance(value, list):
        return [_clamp(v, cap) for v in value]
    number = _as_int(value)
    return cap if number is not None and number > cap else value


@st.composite
def configs(draw, command):
    """A config for `command`, and the unknown key it holds, or None."""
    names = [k for k in KEYS[command] if command != "chain" or k != "model"]
    model = None
    if command == "chain":
        model = draw(_mostly([None, *MODEL_PARAMETERS], VALUES))
        name = "brownian" if model is None else model
        if isinstance(name, str):
            names += MODEL_PARAMETERS.get(name, ())
    cfg = {}
    for name in draw(st.lists(st.sampled_from(names), unique=True)):
        cfg[name] = draw(_mostly(SANE[name],
                                 PAIRS if name == "pairs" else VALUES))
    if model is not None:
        cfg["model"] = model
    for name, cap in {**CAPS, **BUDGET[command]}.items():
        if name in cfg:
            cfg[name] = _clamp(cfg[name], cap)
    for name, cap in BUDGET[command].items():
        cfg.setdefault(name, cap)
    # one process: a pool per example is slow
    if "workers" in KEYS[command]:
        workers = _as_int(cfg.get("workers", 0))
        if workers is not None and workers >= 0:
            cfg["workers"] = 1
    unknown = draw(st.none() | st.sampled_from(
        [k for k in UNKNOWN if k not in names + ["model"]]))
    if unknown is not None:
        cfg[unknown] = draw(VALUES)
    return cfg, unknown


def _clamp_text(text, cap, parse=lambda t: t):
    """text, or `cap` if it spells an integer above `cap` (after `parse`,
    the flag's own conversion)."""
    number = _as_int(parse(text))
    return str(cap) if number is not None and number > cap else text


@st.composite
def flags(draw, command):
    """Numeric flags of `command` with drawn texts, each as one --flag=TEXT
    argument (so that a text starting with '-' is not read as a flag). A
    text, or each part of a list or range, is sane three times in four."""
    names = [k for k in _COMMANDS[command][2].split() if k in NUMERIC]
    awkward = st.sampled_from(TEXTS)
    argv = []
    for name in draw(st.lists(st.sampled_from(names), unique=True)):
        cap = {**CAPS, **BUDGET[command]}.get(name, math.inf)
        if name in ("sizes", "sweep"):
            parts = [_clamp_text(t, cap) for t in draw(st.lists(
                _mostly(["1", "2", "3", "4"], awkward), max_size=4))]
            text = draw(st.sampled_from([",", ":"])).join(parts)
        else:
            text = _clamp_text(draw(_mostly([str(v) for v in SANE[name]],
                                            awkward)), cap, _flag_value)
        argv.append(f"{_FLAGS[name][0]}={text}")
    return argv


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def _setup(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    save_grid(newton_1d(Law1D.gaussian(), 4), "g.txt")
    (tmp_path / "t.csv").write_text("N,error\n10,0.4\n20,0.25\n40,0.175\n")


def _run(command, cfg, argv, tmp_path):
    """main on `cfg` and `argv`: its exit code and error line, after the
    checks every run must pass."""
    with tempfile.NamedTemporaryFile("w", suffix=".json", dir=tmp_path,
                                     delete=False) as fh:
        json.dump(cfg, fh)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main([command, "--config", fh.name, *argv])
    os.unlink(fh.name)
    out, err = out.getvalue(), err.getvalue()
    # the one warning allowed: the solver's notice that a path count this
    # small left cells unvisited
    caught = [str(w.message) for w in caught]
    assert not [w for w in caught
                if not w.startswith("chain has unvisited cells")], caught
    assert "Traceback" not in err
    assert code in (0, 2, 3), (code, cfg, argv, err)
    if code == 0:
        assert err == ""
        json.loads(out, parse_constant=_reject_constant)
    else:
        assert out == "" and err.startswith("error: ")
        assert err.count("\n") == 1, err
    return code, err


@pytest.mark.parametrize("command", sorted(KEYS))
def test_cli_configs_exit_0_2_or_3_with_one_error_line(command, tmp_path,
                                                        monkeypatch):
    _setup(tmp_path, monkeypatch)
    # grid's Lloyd with a negative batch size and with a dimension below 1;
    # other commands run their budget config
    pinned = [dict(BUDGET[command]) for _ in range(2)]
    if command == "grid":
        pinned[0].update(method="lloyd", batch_size=-1)
        pinned[1].update(method="lloyd", dim=0)

    @settings(max_examples=150, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(drawn=configs(command))
    @example(drawn=(pinned[0], None))
    @example(drawn=(pinned[1], None))
    def run(drawn):
        cfg, unknown = drawn
        code, err = _run(command, cfg, [], tmp_path)
        if unknown is not None:
            # a chain model that is no MODELS name is reported first
            assert code == 2, (cfg, err)
            assert ("unknown config keys" in err
                    or "model must be one of" in err), (cfg, err)
        else:
            assert "unknown config keys" not in err, (cfg, err)

    run()


@pytest.mark.parametrize("command", sorted(set(KEYS) - {"rate-fit"}))
def test_cli_flags_exit_0_2_or_3_with_one_error_line(command, tmp_path,
                                                      monkeypatch):
    """The numeric flags' texts, over configs with no unknown key, follow
    the same rule as the configs."""
    _setup(tmp_path, monkeypatch)
    # ranges too long to build: one whose start is below 1, one whose
    # length exceeds sys.maxsize, and one of sys.maxsize sizes
    sweeps = "sweep" in _COMMANDS[command][2].split()
    long_range = ["--sweep=-99999999999999999999:4:1"] if sweeps else []
    longer_range = ["--sweep=1:99999999999999999999:1"] if sweeps else []
    maxsize_range = [f"--sweep=1:{sys.maxsize}:1"] if sweeps else []

    @settings(max_examples=100, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(drawn=configs(command).filter(lambda d: d[1] is None),
           argv=flags(command))
    @example(drawn=(dict(BUDGET[command]), None), argv=long_range)
    @example(drawn=(dict(BUDGET[command]), None), argv=longer_range)
    @example(drawn=(dict(BUDGET[command]), None), argv=maxsize_range)
    def run(drawn, argv):
        _run(command, drawn[0], argv, tmp_path)

    run()
