"""The names the benchmark in ``perfbench/`` reaches into ``sspsim`` by.

The bench times layers by patching functions where their callers look them
up, and its correctness gate reads the arguments ``sspsim run`` hands to
``run_engine``. A rename in ``src/`` would otherwise only show as every
traced benchmark operation failing.
"""

from __future__ import annotations

import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import numpy as np

import sspsim.cli
from sspsim.cli import EXIT_OK, main
from sspsim.coalition import ActualNeighborhoodMap
from sspsim.lp import solve_lp
from sspsim.matching import _build, _build_centralized, view_for_ssp
from sspsim.scenario import GeneratorSpec, generate_scenario, save_scenario
from tests.oracles import labels, pair_table

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    """``perfbench/workloads.py``, with ``perfbench/`` on the path as ``perfbench/run.py`` has it."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses look their module up
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


@pytest.fixture(scope="module")
def spans(workloads):
    """``perfbench/spans.py``, as ``workloads`` imported it."""
    return sys.modules["spans"]


@pytest.mark.parametrize("which", ["matching", "centralized"])
def test_the_lp_counters_read_a_real_program(spans, worked_scenario, which):
    # the counters read the program's views: both LPs have bounded cut and
    # stretch columns, the baseline also imports and pools
    if which == "matching":
        view = view_for_ssp(worked_scenario, "S1")
        lp, _ = _build(view, pair_table(view, worked_scenario.weights), None, 4.0)
    else:
        scenario = generate_scenario(GeneratorSpec(
            n_ssps=3, consumers_per_ssp=4, producers_per_ssp=2, passive_consumers=2, passive_consumer_bound=0.15,
            passive_producers=1, passive_producer_bound=0.1, seed=1,
        ))
        lp, info = _build_centralized(scenario)
        assert any(name.startswith("pool[") for name in labels(lp, info)[1])
    tracer = spans.Tracer()
    spans.count_lp(tracer, lp)
    with tracer.span("lp"):
        solution = solve_lp(lp)
    spans.count_lp_result(tracer, solution)
    n_cols, n_rows = lp.lower.size, len(lp.relations)
    bound_rows = int(np.isfinite(lp.upper).sum())
    slacks = sum(relation != "=" for relation in lp.relations) + bound_rows
    assert tracer.counters == {
        "lp.calls": 1,
        "lp.vars": n_cols,
        "lp.rows": n_rows,
        "lp.nnz": lp.entry_cols.size,
        "lp.dense_bytes": 8 * (n_rows + bound_rows) * (n_cols + slacks),
    }
    assert bound_rows > 0 and lp.entry_cols.size > n_rows
    assert len(tracer.lp_call_s) == 1 and "lp.nonoptimal" not in tracer.counters


@pytest.mark.parametrize("patches", ["engine_patches", "centralized_patches"])
def test_every_patched_attribute_exists(workloads, patches):
    entries = getattr(workloads, patches)(1e-9)
    assert entries
    for module, attr, *_ in entries:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_run_hands_the_engine_what_the_bench_gate_reads(tmp_path, worked_scenario, workloads, monkeypatch):
    scenario_path = tmp_path / "worked.json"
    save_scenario(worked_scenario, str(scenario_path))
    capture = workloads.Capture(sspsim.cli.run_engine)
    monkeypatch.setattr(sspsim.cli, "run_engine", capture)
    argv = ["run", "--scenario", str(scenario_path), "--anm", "meshed", "--seed", "5", "--out", str(tmp_path / "o")]
    code = main(argv)
    assert code == EXIT_OK
    [(args, kwargs, _)] = capture.calls
    assert isinstance(args[1], ActualNeighborhoodMap)
    assert kwargs["seed"] == 5
    assert kwargs["weights"] == worked_scenario.weights
    # the worked example has passive subscribers, so the gate skips the
    # all-active |sum status| check
    workload = replace(workloads.WORKLOADS["study2-balanced"], all_active=False)
    assert workloads.engine_gate(workload, worked_scenario, code, capture.calls[0], audit_s=[]) == []
