"""Mutation fuzzing of the grid and chain file readers.

Valid files are mutated byte by byte, token by token and line by line:
every single-word replacement by a list of awkward tokens, and random
stacks of up to three mutations of any kind. Every mutated file must
either load as a valid object or raise ParseError/InputError;
`quantschemes grid` on a mutated grid file must exit 0 or 2 with no
traceback.
"""

import json
import os
import re
import tempfile

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quantschemes.chain import (TimeMesh, brownian, estimate_companions,
                                load_chain, save_chain)
from quantschemes.cli import main
from quantschemes.errors import InputError
from quantschemes.grids import Grid, Law1D, load_grid, newton_1d, save_grid

TOKENS = [b"nan", b"inf", b"-inf", b"-1", b"0", b"-0", b"1", b"2", b"3",
          b"0.5", b"1.5", b"1e308", b"1e-320", b"99999999999999999999",
          b"x", b"", b"bin", b"txt", b"quantized-chain-v1", b"\xff"]


def _valid_files():
    with tempfile.TemporaryDirectory() as tmp:
        grid = newton_1d(Law1D.gaussian(), 4)
        save_grid(grid, os.path.join(tmp, "g"))
        with open(os.path.join(tmp, "g"), "rb") as fh:
            interleaved = fh.read()
        save_grid(Grid(grid.points), os.path.join(tmp, "g"))
        with open(os.path.join(tmp, "g"), "rb") as fh:
            unknown = fh.read()
        blocked = ("1 4\n" + "".join(f"{v:.17g}\n" for v in grid.points[:, 0])
                   + "".join(f"{w:.17g}\n" for w in grid.weights)).encode()
        # the far point of layer 1 is never visited: a dead row
        layers = [Grid([[0.0]]), Grid([[-1.0], [0.0], [1.0], [40.0]]),
                  Grid([[-1.0], [1.0]])]
        chain = estimate_companions(brownian(), TimeMesh(1.0, 2), layers,
                                    2000, seed=1)
        chains = []
        for binary in (False, True):
            save_chain(chain, os.path.join(tmp, "c"), binary=binary)
            with open(os.path.join(tmp, "c"), "rb") as fh:
                chains.append(fh.read())
    return [interleaved, unknown, blocked], chains


GRIDS, CHAINS = _valid_files()


@st.composite
def mutated(draw, originals):
    raw = draw(st.sampled_from(originals))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["byte", "insert", "delete", "token",
                                     "line-drop", "line-dup", "line-swap",
                                     "truncate"]))
        if kind in ("byte", "insert", "delete") and raw:
            i = draw(st.integers(0, len(raw) - 1))
            b = bytes([draw(st.integers(0, 255))])
            raw = {"byte": raw[:i] + b + raw[i + 1:],
                   "insert": raw[:i] + b + raw[i:],
                   "delete": raw[:i] + raw[i + 1:]}[kind]
        elif kind == "token":
            parts = re.split(rb"(\s+)", raw)  # words at even positions
            parts[2 * draw(st.integers(0, len(parts) // 2))] = draw(
                st.sampled_from(TOKENS))
            raw = b"".join(parts)
        elif kind == "truncate":
            raw = raw[:draw(st.integers(0, len(raw)))]
        else:
            lines = raw.split(b"\n")
            i = draw(st.integers(0, len(lines) - 1))
            j = draw(st.integers(0, len(lines) - 1))
            if kind == "line-drop":
                del lines[i]
            elif kind == "line-dup":
                lines.insert(i, lines[j])
            else:
                lines[i], lines[j] = lines[j], lines[i]
            raw = b"\n".join(lines)
    return raw


def _token_mutants(originals):
    """Every valid file with one word replaced by each of TOKENS."""
    for raw in originals:
        parts = re.split(rb"(\s+)", raw)
        for i in range(0, len(parts), 2):
            for token in TOKENS:
                yield b"".join(parts[:i] + [token] + parts[i + 1:])


def _write(directory, raw):
    path = os.path.join(directory, "file")
    with open(path, "wb") as fh:
        fh.write(raw)
    return path


def _finite(arrays):
    return all(np.all(np.isfinite(a)) for a in arrays)


def _check_grid(raw):
    with tempfile.TemporaryDirectory() as tmp:
        try:
            grid = load_grid(_write(tmp, raw))
        except InputError:
            return
    assert _finite([grid.points])
    assert grid.weights is None or (
        np.all(grid.weights >= 0) and abs(grid.weights.sum() - 1.0) <= 1e-12)


def _check_cli_grid(raw, capsys):
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "cfg.json")
        with open(config, "w") as fh:
            json.dump({"input": _write(tmp, raw)}, fh)
        code = main(["grid", "--config", config])
    err = capsys.readouterr().err
    assert code in (0, 2) and "Traceback" not in err
    assert (code == 2) == err.startswith("error: ")


def _check_chain(raw):
    with tempfile.TemporaryDirectory() as tmp:
        try:
            chain = load_chain(_write(tmp, raw))
        except InputError:
            return
    # QuantizedChain checked the shapes and the row sums
    assert _finite(chain.marginals + chain.transitions + chain.companions)
    for p in chain.marginals:
        assert np.all(p >= 0) and abs(p.sum() - 1.0) <= 1e-12
    for k, dead in enumerate(chain.dead_rows):
        assert np.all((dead >= 0) & (dead < chain.sizes[k]))
        assert np.all(chain.transitions[k] >= 0)


def test_readers_survive_every_single_token_mutation(capsys):
    for raw in _token_mutants(GRIDS):
        _check_grid(raw)
        _check_cli_grid(raw, capsys)
    for raw in _token_mutants(CHAINS):
        _check_chain(raw)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated(GRIDS))
def test_grid_reader_survives_mutations(raw):
    _check_grid(raw)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(raw=mutated(GRIDS))
def test_cli_grid_on_mutated_files_exits_0_or_2(capsys, raw):
    _check_cli_grid(raw, capsys)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated(CHAINS))
def test_chain_reader_survives_mutations(raw):
    _check_chain(raw)
