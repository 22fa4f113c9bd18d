"""Acceptance criteria, one test per criterion, tolerances pinned in-line.

The conftest terminal hook prints one PASS/FAIL line per criterion after the
run. Shared scenarios are module-scoped fixtures so the heavyweight engine
runs happen once.
"""

from __future__ import annotations

import filecmp
import json
import re
import time
from dataclasses import replace

import numpy as np
import pytest

from sspsim.cli import EXIT_OK, main as cli_main
from sspsim.coalition import empty_map, form_coalitions, map_from_coalitions, meshed_map, should_delegate
from sspsim.coalition import BeliefNeighborhoodMap, CoalitionSet, update_bnm
from sspsim.lp import solve_lp
from sspsim.matching import (
    PartnerCapacity,
    SspView,
    _build,
    aggregate_surplus,
    solve_centralized,
    solve_dist_matching,
    surplus_bound,
    view_for_ssp,
)
from sspsim.model import (
    UTILITY_ID,
    CommitmentMatrix,
    MatchingWeights,
    SSPConfig,
    Subscriber,
    SubscriberKind,
    energy_status,
    utility_interaction,
)
from sspsim.protocol import LogRecord, audit_privacy, run_engine
from sspsim.scenario import GeneratorSpec, generate_scenario, save_scenario
from tests.conftest import connectivity, preference_table
from tests.oracles import brute_force_verify, constraint_residuals, with_variables

AC = SubscriberKind.ACTIVE_CONSUMER
AP = SubscriberKind.ACTIVE_PRODUCER

# Study-1 shape per the experimental setup (20 SSPs x (10 AC + 5 AP)); the
# means are chosen to produce the mixed surplus/deficit population the study
# describes (with equal-mean supply and demand, noise splits the SSPs).
STUDY1_SPEC = GeneratorSpec(
    n_ssps=20,
    consumers_per_ssp=10,
    producers_per_ssp=5,
    demand_mean_kwh=12.0,
    supply_mean_kwh=24.0,
    noise_std_kwh=3.0,
    seed=101,
)


def study2_spec(passive_consumers: int, passive_producers: int, seed: int) -> GeneratorSpec:
    return GeneratorSpec(
        n_ssps=20,
        consumers_per_ssp=35,
        producers_per_ssp=10,
        passive_consumers=passive_consumers,
        passive_consumer_bound=0.15,
        passive_producers=passive_producers,
        passive_producer_bound=0.10,
        demand_mean_kwh=12.0,
        supply_mean_kwh=15.0,
        noise_std_kwh=3.0,
        seed=seed,
    )


@pytest.fixture(scope="module")
def study1_scenario():
    return generate_scenario(STUDY1_SPEC)


@pytest.fixture(scope="module")
def study1_runs(study1_scenario):
    scenario = study1_scenario
    meshed = run_engine(scenario, meshed_map(scenario.ssp_ids), seed=5)
    statuses = {cfg.id: energy_status(cfg) for cfg in scenario.ssps}
    coalitions = form_coalitions(statuses, max_group_size=4)
    grouped = run_engine(scenario, map_from_coalitions(coalitions), seed=5)
    isolated = run_engine(scenario, empty_map(scenario.ssp_ids), seed=5)
    return {"meshed": meshed, "coalition": grouped, "none": isolated, "coalitions": coalitions}


def worked_view(scenario) -> SspView:
    return view_for_ssp(scenario, "S1")


def test_c01_worked_example_zeroes_the_utility(worked_scenario):
    started = time.perf_counter()
    view = worked_view(worked_scenario)
    cm, fx, _, _ = solve_dist_matching(view, worked_scenario.weights)
    elapsed = time.perf_counter() - started

    assert utility_interaction(cm) == pytest.approx(0.0, abs=1e-6)
    served = sum(cm.get(c.id, p.id) for c in view.consumers for p in view.producers)
    assert served == pytest.approx(54.6, abs=1e-6)
    for consumer in view.consumers:
        assert 1.0 - consumer.bound - 1e-9 <= fx.consumers[consumer.id] <= 1.0 + 1e-9
    for producer in view.producers:
        assert 1.0 - 1e-9 <= fx.producers[producer.id] <= 1.0 + producer.bound + 1e-9
    assert elapsed < 1.0


def test_c02_lp_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(777))
    checked = 0
    attempts = 0
    name_pattern = re.compile(r"^cm\[(?P<row>[^\]]+)\]\[(?P<col>[^\]]+)\]$")
    while checked < 50 and attempts < 400:
        attempts += 1
        n_cons = int(rng.integers(1, 4))
        n_prod = int(rng.integers(1, 4))
        consumers = tuple(
            Subscriber(f"c{k}", AC, 0.5 * int(rng.integers(1, 6)), priority=1.0 / n_cons)
            for k in range(n_cons)
        )
        producers = tuple(Subscriber(f"p{k}", AP, 0.5 * int(rng.integers(1, 6))) for k in range(n_prod))
        rows = {}
        ranks = {}
        for c in consumers:
            cols = {UTILITY_ID: 1}
            rank_row = {}
            for rank, p in enumerate(producers, start=1):
                if rng.random() < 0.6:
                    cols[p.id] = 1
                    rank_row[p.id] = rank
            rows[c.id] = cols
            ranks[c.id] = rank_row
        view = SspView("s", consumers, producers, preference_table(ranks), connectivity(rows))
        lp, _ = _build(view, MatchingWeights(), None, None, 0.0)

        demand = {c.id: c.energy for c in consumers}
        supply = {p.id: p.energy for p in producers}
        capped = []
        points = 1
        for var in lp.variables:
            match = name_pattern.match(var.name)
            assert match, var.name
            row_id, col_id = match.group("row"), match.group("col")
            if row_id == UTILITY_ID:
                upper = supply[col_id]
            elif col_id == UTILITY_ID:
                upper = demand[row_id]
            else:
                upper = min(demand[row_id], supply[col_id])
            capped.append(replace(var, upper=upper))
            points *= int(upper / 0.5) + 1
        if points > 1_000_000:
            continue
        lp = with_variables(lp, capped)

        solution = solve_lp(lp)
        oracle = brute_force_verify(lp, 0.5)
        assert solution.objective <= oracle + 1e-6
        assert max(constraint_residuals(lp, solution.values).values()) < 1e-6
        checked += 1
    elapsed = time.perf_counter() - started
    assert checked >= 50
    assert elapsed < 30.0


def test_c03_monotone_convergence(study1_runs, study1_scenario):
    result = study1_runs["meshed"]
    values = [p.accumulated_utility_kwh for p in result.trace]
    assert values, "the engine must record iterations"
    assert all(later <= earlier + 1e-6 for earlier, later in zip(values, values[1:]))
    initial = sum(abs(energy_status(cfg)) for cfg in study1_scenario.ssps)
    assert result.final_utility_kwh <= initial + 1e-6
    # every final per-SSP solution must survive the independent residual check
    from sspsim.matching import check_matching_feasibility

    for ssp_id in study1_scenario.ssp_ids:
        view = view_for_ssp(study1_scenario, ssp_id)
        problems = check_matching_feasibility(view, result.commitments[ssp_id], result.flexibility[ssp_id])
        assert problems == [], (ssp_id, problems)


def test_c04_coalition_dominance(study1_runs):
    meshed = study1_runs["meshed"].final_utility_kwh
    grouped = study1_runs["coalition"].final_utility_kwh
    isolated = study1_runs["none"].final_utility_kwh
    assert len(study1_runs["coalitions"]) > 1
    assert grouped - meshed >= -1e-6
    assert isolated - grouped >= -1e-6


def test_c05_passive_share_monotonicity():
    good_seeds = 0
    for seed in range(10):
        finals = []
        for pc, pp in ((10, 5), (20, 7), (35, 10)):
            scenario = generate_scenario(study2_spec(pc, pp, seed))
            result = run_engine(scenario, meshed_map(scenario.ssp_ids), seed=seed)
            finals.append(result.final_utility_kwh)
        if finals[0] >= finals[1] - 1e-6 and finals[1] >= finals[2] - 1e-6:
            good_seeds += 1
    assert good_seeds >= 9


def test_c06_privacy_audit(worked_scenario, pair_scenario, study1_scenario, study1_runs):
    cases = [
        (worked_scenario, meshed_map(worked_scenario.ssp_ids), 1),
        (pair_scenario, meshed_map(pair_scenario.ssp_ids), 1),
        (study1_scenario, meshed_map(study1_scenario.ssp_ids), 5),
        (study1_scenario, map_from_coalitions(study1_runs["coalitions"]), 5),
    ]
    for scenario, anm, seed in cases:
        result = run_engine(scenario, anm, seed=seed)
        report = audit_privacy(result.log, scenario, anm, seed=seed)
        assert report.passed, report.findings

    # negative control: a payload leaking a subscriber id must fail the audit
    anm = meshed_map(pair_scenario.ssp_ids)
    log = list(run_engine(pair_scenario, anm, seed=1).log)
    offer = log[0]
    log[0] = LogRecord(
        offer.round_index, offer.kind, offer.src, offer.dst,
        dict(offer.payload) | {"subscriber_id": "S2.P1"},
    )
    assert not audit_privacy(log, pair_scenario, anm, seed=1).passed


def test_c07_run_command_is_byte_deterministic(tmp_path, study1_scenario):
    scenario_path = tmp_path / "study1.json"
    save_scenario(study1_scenario, str(scenario_path))
    dirs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = cli_main(
            ["run", "--scenario", str(scenario_path), "--anm", "meshed", "--seed", "5", "--out", str(out)]
        )
        assert code == EXIT_OK
        dirs.append(out)
    names = ("commitments.csv", "convergence.csv", "messages.csv", "summary.json")
    match, mismatch, errors = filecmp.cmpfiles(dirs[0], dirs[1], names, shallow=False)
    assert sorted(match) == sorted(names)
    assert not mismatch and not errors


def test_c08_aggregate_bound_examples():
    producers = (
        Subscriber("p1", SubscriberKind.ACTIVE_PRODUCER, 10.0, bound=0.3),
        Subscriber("p2", SubscriberKind.ACTIVE_PRODUCER, 10.0),
    )
    ssp = SSPConfig("s", (), producers, preference_table({}))
    cm = CommitmentMatrix(["c"], ["p1", "p2"])
    cm.set("c", "p2", 5.0)
    assert surplus_bound(*aggregate_surplus(ssp, cm)) == (13.0 + 5.0) / (10.0 + 5.0) - 1.0

    all_active = SSPConfig(
        "s", (), (Subscriber("q1", AP, 7.0), Subscriber("q2", AP, 3.0)), preference_table({})
    )
    assert surplus_bound(*aggregate_surplus(all_active, CommitmentMatrix(["c"], ["q1", "q2"]))) == 0.0

    mixed = SSPConfig(
        "s",
        (),
        (
            Subscriber("r1", SubscriberKind.PASSIVE_PRODUCER, 10.0, bound=0.3),
            Subscriber("r2", AP, 5.0),
        ),
        preference_table({}),
    )
    fully_committed = CommitmentMatrix(["c"], ["r1", "r2"])
    fully_committed.set("c", "r2", 5.0)
    assert surplus_bound(*aggregate_surplus(mixed, fully_committed)) == (1.3 * 10.0) / 10.0 - 1.0
    assert surplus_bound(*aggregate_surplus(mixed, fully_committed)) == pytest.approx(0.3, abs=1e-12)


def test_c09_belief_update_calibration():
    bnm = BeliefNeighborhoodMap({("s1", "s2"): 0.5})
    together = CoalitionSet((frozenset({"s1", "s2"}),))
    updated = update_bnm(bnm, together, eta=0.6)
    assert updated.probability("s1", "s2") == (1.0 - 0.6) * 0.5 + 0.6 * 1.0
    assert updated.probability("s1", "s2") == pytest.approx(0.8, abs=1e-12)
    assert should_delegate(bnm, updated, delta=0.2)
    barely = BeliefNeighborhoodMap({("s1", "s2"): 0.69})
    assert not should_delegate(bnm, barely, delta=0.2)


def test_c10_centralized_dominance_and_timing(
    worked_scenario, pair_scenario, study1_scenario, study1_runs, capsys
):
    suite = [
        ("worked", worked_scenario, None),
        ("pair", pair_scenario, None),
        ("study1", study1_scenario, study1_runs["meshed"]),
        ("study2", generate_scenario(study2_spec(10, 5, 0)), None),
    ]
    for name, scenario, meshed_result in suite:
        cm, _, _ = solve_centralized(scenario)
        if meshed_result is None:
            meshed_result = run_engine(scenario, meshed_map(scenario.ssp_ids), seed=5)
        assert utility_interaction(cm) <= meshed_result.final_utility_kwh + 1e-6, name

    with capsys.disabled():
        print("\ntiming: centralized vs distributed (dimensions |SSPs| x |ACs| x |APs|)")
        for n_ssps, n_cons, n_prod in ((2, 10, 5), (5, 20, 8), (10, 35, 10)):
            spec = GeneratorSpec(
                n_ssps=n_ssps,
                consumers_per_ssp=n_cons,
                producers_per_ssp=n_prod,
                demand_mean_kwh=12.0,
                supply_mean_kwh=12.0 * n_cons / n_prod,
                noise_std_kwh=3.0,
                seed=33,
            )
            scenario = generate_scenario(spec)
            started = time.perf_counter()
            central_cm, _, _ = solve_centralized(scenario)
            central_time = time.perf_counter() - started
            started = time.perf_counter()
            distributed = run_engine(scenario, meshed_map(scenario.ssp_ids), seed=7)
            distributed_time = time.perf_counter() - started
            assert distributed.iterations > 0
            assert utility_interaction(central_cm) <= distributed.final_utility_kwh + 1e-6
            print(
                f"  {n_ssps}x{n_cons}x{n_prod}: centralized {central_time:.2f}s, "
                f"distributed {distributed_time:.2f}s"
            )
