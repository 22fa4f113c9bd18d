"""The four benchmark workloads: inputs, the timed operation and the correctness gate.

Why each workload exists, and which layer metric should move which end-to-end
metric on it, is in README.md next to this file. Every workload is all-active
except ``study2-balanced``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass

import sspsim.cli
import sspsim.matching
import sspsim.protocol
from sspsim.coalition import meshed_map
from sspsim.matching import check_matching_feasibility, merged_view, view_for_ssp
from sspsim.model import energy_status, utility_interaction
from sspsim.protocol import audit_privacy, run_engine
from sspsim.scenario import GeneratorSpec, generate_scenario, save_scenario

from spans import (
    count_engine,
    count_file,
    count_lp,
    count_lp_result,
    count_partners,
    count_validate,
)

ARTIFACTS = ("commitments.csv", "convergence.csv", "messages.csv", "summary.json")
TOL = 1e-6

STUDY1_SHAPE = dict(consumers_per_ssp=10, producers_per_ssp=5, demand_mean_kwh=12.0, supply_mean_kwh=24.0, noise_std_kwh=3.0)


@dataclass(frozen=True)
class Workload:
    name: str
    spec: dict  # GeneratorSpec fields other than the seed
    scenario_seed: int  # default; --scenario-seed overrides it
    anm: tuple[str, ...] | None  # `sspsim run` map arguments; None runs solve_centralized
    inputs: int  # run seeds per benchmark run, averaged to damp path-to-path spread
    all_active: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload("meshed-50", dict(n_ssps=50, **STUDY1_SHAPE), 101, ("--anm", "meshed"), 24, True),
        Workload(
            "coalition-200", dict(n_ssps=200, **STUDY1_SHAPE), 101,
            ("--anm", "coalition", "--max-group-size", "4"), 4, True,
        ),
        Workload(
            "study2-balanced",
            dict(
                n_ssps=20, consumers_per_ssp=35, producers_per_ssp=10,
                passive_consumers=10, passive_consumer_bound=0.15,
                passive_producers=5, passive_producer_bound=0.10,
                demand_mean_kwh=12.0, supply_mean_kwh=42.0, noise_std_kwh=3.0,
            ),
            7, ("--anm", "meshed"), 3, False,
        ),
        Workload("centralized-10", dict(n_ssps=10, **STUDY1_SHAPE), 101, None, 64, True),
    )
}


def run_seeds(workload: Workload, seed: int) -> list[int]:
    """The run seeds of benchmark seed ``seed``; seed 0 starts at run seed 1."""
    return [seed * workload.inputs + k + 1 for k in range(workload.inputs)]


def setup(workload: Workload, scenario_seed: int, scenario_path: str):
    """Generate the scenario (and write its JSON for engine workloads).

    Returns (scenario, setup seconds, generate seconds)."""
    started = time.perf_counter()
    scenario = generate_scenario(GeneratorSpec(**workload.spec, seed=scenario_seed))
    generated = time.perf_counter()
    if workload.anm is not None:
        save_scenario(scenario, scenario_path)
    return scenario, time.perf_counter() - started, generated - started


class Capture:
    """Keeps the arguments and result of every call, so the gate can check them."""

    def __init__(self, fn):
        self.fn = fn
        self.calls: list[tuple[tuple, dict, object]] = []

    def __call__(self, *args, **kwargs):
        result = self.fn(*args, **kwargs)
        self.calls.append((args, kwargs, result))
        return result


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# --- engine workloads: `sspsim run` in process ---------------------------------


def engine_op(workload: Workload, scenario_path: str, out_dir: str, run_seed: int) -> int:
    argv = ["run", "--scenario", scenario_path, *workload.anm, "--seed", str(run_seed), "--out", out_dir]
    return sspsim.cli.main(argv)


def engine_outcome(out_dir: str) -> dict:
    """Digests and user-visible figures, read back from the results directory."""
    blobs = {}
    for name in ARTIFACTS:
        with open(os.path.join(out_dir, name), "rb") as fh:
            blobs[name] = fh.read()
    summary = json.loads(blobs["summary.json"])
    return {
        "digests": {name: sha256(blob) for name, blob in blobs.items()},
        "final_utility_kwh": summary["final_utility_kwh"],
        "wire_messages": blobs["messages.csv"].count(b"\n") - 1,
        "coalitions": summary["coalitions"],
        "artifact_bytes": sum(len(blob) for blob in blobs.values()),
    }


def monotone(trace) -> bool:
    values = [p.accumulated_utility_kwh for p in trace]
    return all(later <= earlier + TOL for earlier, later in zip(values, values[1:]))


def global_imbalance(scenario) -> float:
    return abs(sum(energy_status(cfg) for cfg in scenario.ssps))


def engine_gate(workload: Workload, scenario, code: int, call, audit_s: list | None) -> list[str]:
    """Correctness of one `sspsim run`; the privacy replay runs only when ``audit_s`` is given."""
    if code != 0:
        return [f"sspsim run exited with {code}"]
    args, kwargs, result = call
    anm = args[1]
    problems = []
    if not monotone(result.trace):
        problems.append("convergence trace increases")
    for ssp_id in scenario.ssp_ids:
        found = check_matching_feasibility(
            view_for_ssp(scenario, ssp_id), result.commitments[ssp_id], result.flexibility[ssp_id]
        )
        problems.extend(f"{ssp_id}: {p}" for p in found)
    if workload.all_active and result.final_utility_kwh < global_imbalance(scenario) - TOL:
        problems.append(f"final utility {result.final_utility_kwh} below |sum status| {global_imbalance(scenario)}")
    if audit_s is not None:
        started = time.perf_counter()
        report = audit_privacy(result.log, scenario, anm, weights=kwargs.get("weights"), seed=kwargs.get("seed", 0))
        audit_s.append(time.perf_counter() - started)
        problems.extend(f"privacy audit: {f}" for f in report.findings)
    return problems


def engine_patches(partner_tol: float):
    """Layer spans of one `sspsim run`, each where the calling module looks the function up."""
    return [
        (sspsim.cli, "load_scenario", "scenario.load", count_file, None),
        (sspsim.cli, "validate_scenario", "model.validate", count_validate, None),
        (sspsim.protocol, "validate_scenario", "model.validate", count_validate, None),
        (sspsim.cli, "meshed_map", "coalition.map", None, None),
        (sspsim.cli, "form_coalitions", "coalition.map", None, None),
        (sspsim.cli, "map_from_coalitions", "coalition.map", None, None),
        (sspsim.cli, "run_engine", "protocol.engine", None, count_engine),
        (sspsim.protocol, "solve_dist_matching", "matching", count_partners(partner_tol), None),
        (sspsim.matching, "solve_lp", "lp", count_lp, count_lp_result),
    ]


# --- centralized: one global LP over every subscriber ---------------------------------------------


def centralized_op(scenario):
    return sspsim.matching.solve_centralized(scenario)


def centralized_outcome(result) -> dict:
    cm, _, _ = result
    dump = "".join(f"{row},{col},{kwh!r}\n" for (row, col), kwh in sorted(cm.cells().items()))
    return {
        "digests": {"centralized_commitments": sha256(dump.encode())},
        "final_utility_kwh": utility_interaction(cm),
    }


def centralized_gate(workload: Workload, scenario, result, distributed: list) -> list[str]:
    """Feasibility against the merged view, and c10 against each distributed meshed run."""
    cm, fx, _ = result
    problems = [f"centralized: {p}" for p in check_matching_feasibility(merged_view(scenario), cm, fx)]
    central = utility_interaction(cm)
    if workload.all_active and central < global_imbalance(scenario) - TOL:
        problems.append(f"centralized utility {central} below |sum status| {global_imbalance(scenario)}")
    for run_seed, dist in distributed:
        if not monotone(dist.trace):
            problems.append(f"distributed run seed {run_seed}: convergence trace increases")
        if central > dist.final_utility_kwh + TOL:
            problems.append(f"centralized {central} worse than distributed {dist.final_utility_kwh} (seed {run_seed})")
    return problems


def distributed_runs(scenario, seeds: list[int]) -> list:
    """The meshed engine on the centralized scenario, for the c10 comparison."""
    anm = meshed_map(scenario.ssp_ids)
    return [(s, run_engine(scenario, anm, seed=s)) for s in seeds]


def centralized_patches(partner_tol: float):
    return [
        (sspsim.matching, "merged_view", "matching", None, None),
        (sspsim.matching, "solve_dist_matching", "matching", count_partners(partner_tol), None),
        (sspsim.matching, "solve_lp", "lp", count_lp, count_lp_result),
    ]


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path
