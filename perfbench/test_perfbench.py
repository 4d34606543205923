"""Tests of the benchmark's own code: span arithmetic, installing and
removing the tracing wrappers, the correctness checks, and seeding."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads
import quantschemes
from quantschemes import chain, filtering, grids
from quantschemes.grids import Grid


def _span(i, name, start, end, parent=None, **attrs):
    return {"id": i, "name": name, "run": "t", "parent": parent,
            "start": start, "end": end, **attrs}


NESTED = [
    _span(0, "experiments.run_bidask", 0.0, 10.0),
    _span(1, "chain.estimate_companions", 1.0, 4.0, 0, M=10, cells=4,
          dead_cells=1),
    _span(2, "grids.assign", 2.0, 3.0, 1, N=2, M=10),
    _span(3, "grids.assign", 3.5, 4.0, 1, N=2, M=10),
    _span(4, "bsde.solve_bsde", 5.0, 9.0, 0),
    _span(5, "grids.newton_1d", 12.0, 13.0, N=2),
]


def test_self_times_on_nested_trace():
    own = tracing.self_times(NESTED)
    assert own == pytest.approx({0: 3.0, 1: 1.5, 2: 1.0, 3: 0.5, 4: 4.0,
                                 5: 1.0})
    assert tracing.unattributed(NESTED, wall=15.0) == pytest.approx(4.0)
    assert sum(own.values()) + 4.0 == pytest.approx(15.0)


def test_self_time_counts_overlapping_children_once():
    spans = [_span(0, "a.f", 0.0, 10.0), _span(1, "a.g", 1.0, 5.0, 0),
             _span(2, "a.h", 3.0, 7.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(4.0)


def test_layer_metrics_on_nested_trace():
    m = tracing.layer_metrics(NESTED, wall=15.0)
    assert m["grids.assign.calls"] == 2
    assert m["grids.assign.busy_s"] == pytest.approx(1.5)
    assert m["grids.assign.points"] == 20
    assert m["grids.assign.ns_per_point_cell"] == pytest.approx(1.5e9 / 40)
    assert m["chain.estimate_companions.self_s"] == pytest.approx(1.5)
    assert m["chain.visited_ratio"] == pytest.approx(0.75)
    assert m["experiments.self_s"] == pytest.approx(3.0)
    assert m["grids.lloyd.calls"] == 0
    assert m["trace.unattributed_s"] == pytest.approx(4.0)


def test_absent_function_is_reported_not_zero():
    tracer = tracing.Tracer(targets={"grids.no_such_function": None,
                                     "no_such_module.f": None,
                                     "grids.assign": None})
    with tracer.installed():
        pass
    assert tracer.absent == ["grids.no_such_function", "no_such_module.f"]
    m = tracing.layer_metrics(NESTED, 15.0,
                              absent=["chain.estimate_companions"])
    assert "chain.estimate_companions.busy_s" not in m
    assert "chain.visited_ratio" not in m
    assert "grids.assign.busy_s" in m


def _bindings():
    holders = [m for m in vars(quantschemes).values()
               if type(m) is type(quantschemes)]
    holders += [quantschemes, filtering.ScalarFilterModel]
    return {(id(h), k): v for h in holders for k, v in vars(h).items()
            if callable(v)}


def test_wrappers_are_installed_everywhere_and_removed():
    before = _bindings()
    original = grids.assign
    tracer = tracing.Tracer()
    with tracer.installed():
        assert tracer.absent == []
        assert grids.assign is not original
        assert chain.assign is grids.assign is filtering.assign
        assert quantschemes.assign is grids.assign
        grids.lloyd(Grid(np.array([[0.0], [1.0]])),
                    grids.SampleSource.from_batch(
                        np.linspace(-1.0, 2.0, 50)[:, None]))
    assert _bindings() == before
    names = [s["name"] for s in tracer.spans]
    assert names[0] == "grids.lloyd" and "grids.assign" in names
    parents = {s["name"]: s["parent"] for s in tracer.spans}
    assert parents["grids.distortion_and_gradient"] == 0
    assert all(s["parent"] is not None for s in tracer.spans[1:])
    assert tracer.spans[0]["iterations"] >= 1


def test_wrappers_are_removed_after_an_exception():
    before = _bindings()
    tracer = tracing.Tracer()
    with pytest.raises(quantschemes.InputError):
        with tracer.installed():
            grids.assign(Grid(np.array([[0.0]])), np.zeros((3, 2)))
    assert _bindings() == before
    assert tracer.spans[0]["error"] == "InputError"


GOOD = {
    "bidask": {"y0": 2.96, "z0": 0.55},
    "multidim": {"y0": 0.5, "z0": [0.21, 0.21], "z0_exact": 0.25},
    "filter": {"linear-gaussian": {"N": [10, 25, 50, 100, 200],
                                   "error": [1e-2, 2e-3, 6e-4, 2e-4, 4e-5],
                                   "slope": -1.9}},
    "cli-chain": {"exit_code": 0, "y0": [4.66], "tree": [4.66],
                  "exact": [4.66], "binary_identical": True},
}


@pytest.mark.parametrize("name", sorted(GOOD))
def test_checks_reject_a_shifted_result(name):
    check = workloads.WORKLOADS[name][1]
    good = json.loads(json.dumps(GOOD[name]))
    assert all(check(good).values())
    bad = json.loads(json.dumps(GOOD[name]))
    if name == "filter":
        bad["linear-gaussian"]["error"][3] += 0.1  # posterior mean off by 0.1
    elif name == "cli-chain":
        bad["y0"][0] += 0.1
    else:
        bad["y0"] += 0.1
    assert not all(check(bad).values())


def test_call_price_matches_numerical_integral():
    T, r, K = 0.25, 0.01, 105.0
    sig = workloads.GBM["sigma"]
    fwd = workloads.GBM["x0"] * math.exp(workloads.GBM["mu"] * T)
    z = np.linspace(-10.0, 10.0, 200_001)
    x = fwd * np.exp(sig * math.sqrt(T) * z - 0.5 * sig * sig * T)
    density = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    expected = math.exp(-r * T) * np.trapezoid(
        np.maximum(x - K, 0.0) * density, z)
    assert workloads.call_price(K, T, r) == pytest.approx(expected, rel=1e-8)


def _small_chain():
    model = chain.DiffusionModel(1, 1, lambda t, x: np.zeros_like(x),
                                 lambda t, x: np.ones(x.shape + (1,)), [0.0])
    mesh = chain.TimeMesh(1.0, 2)
    layers = chain.build_layer_grids(model, mesh, [1, 4, 4],
                                     sample_budget=400, seed=3)
    return chain.estimate_companions(model, mesh, layers, 500, 3)


def test_binary_check_rejects_one_flipped_byte(tmp_path):
    original = _small_chain()
    path = tmp_path / "chain.bin"
    chain.save_chain(original, path, binary=True)
    assert workloads.chains_identical(original, chain.load_chain(path))
    raw = bytearray(path.read_bytes())
    raw[-20] ^= 0x01
    path.write_bytes(bytes(raw))
    assert not workloads.chains_identical(original, chain.load_chain(path))


TINY = {
    "bidask": {"N": 5, "n": 2, "mc_paths": 500},
    "multidim": {"d": 2, "N": 5, "n": 2, "base_batch": 200, "mc_paths": 500},
    "filter": {"n": 3, "sweep": [5, 10, 20], "reference_size": 40,
               "kalman_paths": 2},
    "cli-chain": {"n": 2, "N": 5, "sample_budget": 300, "mc_paths": 500,
                  "strikes": [100.0]},
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_seed_determines_inputs(name, tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.SIZES, name,
                        {**workloads.SIZES[name], **TINY[name]})
    fn = workloads.WORKLOADS[name][0]

    def values(seed):
        work = tmp_path / str(seed)
        work.mkdir(exist_ok=True)
        return json.dumps(fn(seed, work, lambda: None), default=float)

    assert values(1) == values(1)
    assert values(1) != values(2)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == tracing.PER_LAYER


def test_per_layer_aggregates_traced_processes():
    traced = {"traced": True, "wall_s": 15.0,
              "trace": {"spans": NESTED, "window": [0.0, 15.0],
                        "absent": []}}
    results = [{"traced": False, "wall_s": 14.0}, traced,
               {"traced": False, "wall_s": 14.5}, traced, None]
    metrics, absent = run.per_layer(results, failed=1, attempted=5)
    assert metrics["grids.assign.calls"]["value"] == 2
    assert isinstance(metrics["grids.assign.calls"]["value"], int)
    assert metrics["trace.overhead_s"]["value"] == pytest.approx(0.75)
    assert metrics["fail_ratio"]["value"] == pytest.approx(0.2)
    assert absent == []
