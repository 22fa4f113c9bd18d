from __future__ import annotations

import hashlib
import math
from collections.abc import Callable
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sspsim.matching
import sspsim.protocol
from sspsim.coalition import meshed_map
from sspsim.lp import EQUAL, LESS_EQUAL, LinearProgram, LpStatus, solve_lp
from sspsim.matching import (
    MatchingInfeasibleError,
    MatchingStructureError,
    PairTable,
    PartnerCapacity,
    SspView,
    aggregate_surplus,
    check_matching_feasibility,
    merged_view,
    solve_centralized,
    solve_dist_matching,
    surplus_bound,
    view_for_ssp,
    _build,
    _build_centralized,
)
from sspsim.model import (
    UTILITY_ID,
    CommitmentMatrix,
    LineConstraint,
    LineConstraintSet,
    LinkBlock,
    MatchingWeights,
    Scenario,
    SSPConfig,
    Subscriber,
    SubscriberKind,
    utility_interaction,
    validate_scenario,
)
from sspsim.protocol import calibrate_weights, run_engine
from tests.conftest import link_block, link_rows, linked, preference_table, worked_example_subscribers
from sspsim.scenario import GeneratorSpec, generate_scenario
from tests.test_acceptance import STUDY1_SPEC, study2_spec
from tests.oracles import (
    ReferencePairTable,
    accepted_matrix,
    assert_builds_alike,
    assert_dual_certificate,
    assert_standardised_alike,
    bits,
    brute_force_verify,
    constraint_residuals,
    highs,
    labels,
    layout_of,
    pair_table,
    reference_build,
    reference_build_centralized,
    reference_solve_centralized,
    views,
    with_variables,
)

AC = SubscriberKind.ACTIVE_CONSUMER
PC = SubscriberKind.PASSIVE_CONSUMER
AP = SubscriberKind.ACTIVE_PRODUCER
PP = SubscriberKind.PASSIVE_PRODUCER


def simple_view(demand=5.0, supply=5.0) -> SspView:
    consumers = (Subscriber("c1", AC, demand, priority=1.0),)
    producers = (Subscriber("p1", AP, supply),)
    return SspView(
        "s1",
        consumers,
        producers,
        preference_table({"c1": {"p1": 1}}),
        link_block({"c1": {"p1": 1, UTILITY_ID: 1}}),
    )


def worked_view(demands=(13.5, 18.0, 13.5)) -> SspView:
    consumers, producers = worked_example_subscribers()
    consumers = tuple(
        replace(c, energy=demands[k]) if k < 3 else c for k, c in enumerate(consumers)
    )
    prefs = preference_table({c.id: {"AP1": 1, "AP2": 2, "PP1": 3} for c in consumers})
    rows = {c.id: {"AP1": 1, "AP2": 1, "PP1": 1, UTILITY_ID: 1} for c in consumers}
    return SspView("s1", consumers, producers, prefs, link_block(rows))


class TestBuildMatchingLp:
    def test_exact_supply_demand_match(self):
        view = simple_view()
        cm, fx, _, _ = solve_dist_matching(view, pair_table(view))
        assert cm.get("c1", "p1") == pytest.approx(5.0, abs=1e-9)
        assert cm.get("c1", UTILITY_ID) == pytest.approx(0.0, abs=1e-9)

    def test_consumer_only_view_buys_everything(self):
        consumers = (Subscriber("c1", AC, 4.0, priority=1.0),)
        view = SspView(
            "s1", consumers, (), preference_table({}), link_block({"c1": {UTILITY_ID: 1}})
        )
        cm, fx, _, _ = solve_dist_matching(view, pair_table(view))
        assert cm.get("c1", UTILITY_ID) == pytest.approx(4.0, abs=1e-9)
        assert fx.consumers["c1"] == 1.0

    def test_missing_preference_rank_is_structural(self):
        view = simple_view()
        broken = replace(view, preferences=preference_table({"c1": {}}))
        with pytest.raises(MatchingStructureError, match="c1"):
            PairTable(broken, MatchingWeights(), None)  # the table reads every rank

    def test_all_utility_witness_is_feasible(self):
        # deficit view: serving everything from the Utility always satisfies the LP
        view = worked_view()
        lp, info = _build(view, pair_table(view), None, 0.0)
        witness = [0.0] * len(lp.variables)
        for consumer, col in zip(view.consumers, info.purchase_cols):
            witness[col] = consumer.energy
        assert max(constraint_residuals(lp, witness).values()) < 1e-9

    def test_column_and_row_order_is_stable(self):
        # cm columns consumer-major (local producers, then partners with
        # capacity), then purchases, cuts, stretches; one supply
        # row per producer and live partner, one demand row per consumer, then
        # the export reservation; shown here with every position read as its
        # label, through the layout the build reports
        consumers = (
            Subscriber("c1", AC, 5.0, priority=0.5),
            Subscriber("c2", PC, 4.0, bound=0.25, priority=0.5),
        )
        producers = (Subscriber("p1", AP, 3.0), Subscriber("p2", PP, 2.0, bound=0.5))
        ranks = {"p1": 1, "p2": 2, "s2": 3, "s3": 4}
        view = SspView(
            "s1",
            consumers,
            producers,
            preference_table({"c1": ranks, "c2": ranks}),
            link_block({"c1": {"p1": 1, "p2": 1, UTILITY_ID: 1}, "c2": {"p2": 1, UTILITY_ID: 1}}),
            partner_capacities={"s3": PartnerCapacity(4.0, 0.1), "s2": PartnerCapacity(0.0, 0.0)},
        )
        # a Utility column with a positive minimum, a locked import from s3
        # and an exported kWh
        lines = LineConstraintSet((LineConstraint("c1", UTILITY_ID, 0.5, 100.0),))
        lp, info = _build(view, pair_table(view, lines=lines), accepted_matrix(view, {"s3": {"c2": 1.5}}), 1.0)
        names, row_names = labels(lp, info)
        inf = math.inf
        assert [(name, v.lower, v.upper) for name, v in zip(names, lp.variables, strict=True)] == [
            ("cm[c1][p1]", 0.0, inf), ("cm[c1][p2]", 0.0, inf), ("cm[c1][s3]", 0.0, inf),
            ("cm[c2][p2]", 0.0, inf), ("cm[c2][s3]", 0.0, inf),
            ("cm[c1][U]", 0.5, 100.0), ("cm[c2][U]", 0.0, inf),
            ("cut[c2]", 0.0, 1.0), ("stretch[p2]", 0.0, 1.0), ("stretch[s3]", 0.0, 0.4),
        ]
        # minus each cm column's reward (w14 * 0.5 + w35 * (1 + alpha * (5 - rank))),
        # w2 per purchase, 0 per cut, the stretch penalty (1.2 + 0.01 * w2) per
        # local stretch and 0 per partner stretch
        assert lp.cost.tolist() == pytest.approx([-1.2, -1.15, -1.05, -1.15, -1.05, 10.0, 10.0, 0.0, 1.3, 0.0], abs=1e-12)
        assert [(name, [names[k] for k in c.coeffs], c.relation, c.rhs) for name, c in zip(row_names, lp.constraints, strict=True)] == [
            ("supply[p1]", ["cm[c1][p1]"], "<=", 3.0),
            ("supply[p2]", ["cm[c1][p2]", "cm[c2][p2]", "stretch[p2]"], "<=", 2.0),
            ("supply[s3]", ["cm[c1][s3]", "cm[c2][s3]", "stretch[s3]"], "<=", 4.0),
            ("demand[c1]", ["cm[c1][p1]", "cm[c1][p2]", "cm[c1][s3]", "cm[c1][U]"], "=", 5.0),
            ("demand[c2]", ["cm[c2][p2]", "cm[c2][s3]", "cm[c2][U]", "cut[c2]"], "=", 2.5),
            (
                "export-reservation",
                ["cm[c1][p1]", "cm[c1][p2]", "cm[c2][p2]", "stretch[p2]"],
                "<=",
                4.0,
            ),
        ]
        assert {(names[k], v) for c in lp.constraints for k, v in c.coeffs.items() if v != 1.0} == {
            ("stretch[p2]", -1.0), ("stretch[s3]", -1.0),
        }
        placed = layout_of(lp, info)
        assert placed["pairs"] == [("c1", "p1"), ("c1", "p2"), ("c1", "s3"), ("c2", "p2"), ("c2", "s3")]
        assert (placed["purchase_cols"], placed["cut_cols"], placed["stretch_cols"]) == ([5, 6], {"c2": 7}, {"p2": 8})
        assert [row_names[row] for row in info.demand_rows] == ["demand[c1]", "demand[c2]"]

    def test_line_cap_splits_flow(self):
        consumers = (Subscriber("c1", AC, 5.0, priority=1.0),)
        producers = (Subscriber("p1", AP, 5.0), Subscriber("p2", AP, 5.0))
        view = SspView(
            "s1",
            consumers,
            producers,
            preference_table({"c1": {"p1": 1, "p2": 2}}),
            link_block({"c1": {"p1": 1, "p2": 1, UTILITY_ID: 1}}),
        )
        lines = LineConstraintSet((LineConstraint("c1", "p1", 0.0, 3.0),))
        cm, _, _, _ = solve_dist_matching(view, pair_table(view, lines=lines))
        assert cm.get("c1", "p1") == pytest.approx(3.0, abs=1e-6)
        assert cm.get("c1", "p2") == pytest.approx(2.0, abs=1e-6)

    def test_line_floor_forces_flow(self):
        view = simple_view()
        lines = LineConstraintSet((LineConstraint("c1", UTILITY_ID, 2.0, 9.0),))
        cm, _, _, _ = solve_dist_matching(view, pair_table(view, lines=lines))
        assert cm.get("c1", UTILITY_ID) >= 2.0 - 1e-9


class TestWorkedExample:
    def test_zero_utility_and_reduced_demand(self):
        view = worked_view()
        cm, fx, _, _ = solve_dist_matching(view, pair_table(view))
        assert utility_interaction(cm) == pytest.approx(0.0, abs=1e-6)
        served = sum(cm.get(c.id, p.id) for c in view.consumers for p in view.producers)
        assert served == pytest.approx(54.6, abs=1e-6)
        assert 0.8 - 1e-9 <= fx.consumers["PC1"] <= 1.0 + 1e-9
        assert 1.0 - 1e-9 <= fx.producers["PP1"] <= 1.3 + 1e-9
        assert check_matching_feasibility(view, cm, fx) == []

    @pytest.mark.parametrize(
        "cells,fx_values,unlinked,problem",
        [
            # AC3's 13.5 kWh move from AP1 to AP2, which already gives AC1 12
            ({("AC3", "AP1"): 0.0, ("AC3", "AP2"): 13.5}, {}, None, "supply cap of AP2: 25.5 > 12.0"),
            ({}, {"PP1": 1.5}, None, "fx of PP1 = 1.5 outside [1, 1.3]"),
            ({("AC3", UTILITY_ID): 1.0}, {}, None, "overserved AC3: 14.5 > 13.5"),
            ({("AC3", "AP1"): 12.5}, {}, None, "underserved AC3: 12.5 < 13.5"),
            ({}, {"PC1": 0.5}, None, "fx of PC1 = 0.5 outside [0.8, 1]"),
            ({(UTILITY_ID, "AP1"): -1.0}, {}, None, "negative commitment cm(U, AP1) = -1.0"),
            ({}, {}, ("AC3", "AP1"), "commitment on disconnected pair (AC3, AP1)"),
        ],
        ids=["supply-cap", "producer-fx", "overserved", "underserved", "consumer-fx", "negative", "disconnected"],
    )
    def test_feasibility_check_names_each_broken_rule(self, cells, fx_values, unlinked, problem):
        # the check is the bench's feasibility gate: each break of the optimum gives exactly its message
        view = worked_view()
        cm, fx, _, _ = solve_dist_matching(view, pair_table(view))
        assert (cm.get("AC1", "AP2"), cm.get("AC3", "AP1")) == (12.0, 13.5)
        for (row_id, col_id), kwh in cells.items():
            cm.set(row_id, col_id, kwh)
        for sub_id, value in fx_values.items():
            (fx.producers if sub_id in fx.producers else fx.consumers)[sub_id] = value
        if unlinked is not None:
            rows = view.links.to_rows()
            rows[unlinked[0]][view.links.col_at[unlinked[1]]] = 0
            view = replace(view, links=LinkBlock.from_rows(view.links.cols, rows))
        assert check_matching_feasibility(view, cm, fx) == [problem]

    @pytest.mark.parametrize("demands", [(10.0, 18.0, 17.0), (20.0, 18.0, 7.0)])
    def test_split_of_active_demand_preserves_aggregates(self, demands):
        # the 27 kWh not pinned by the narrative can be split any way
        view = worked_view(demands)
        cm, fx, _, _ = solve_dist_matching(view, pair_table(view))
        assert utility_interaction(cm) == pytest.approx(0.0, abs=1e-6)
        served = sum(cm.get(c.id, p.id) for c in view.consumers for p in view.producers)
        assert served == pytest.approx(54.6, abs=1e-6)

    def test_commitments_balance_flexed_totals(self):
        view = worked_view()
        cm, fx, _, _ = solve_dist_matching(view, pair_table(view))
        demand_side = sum(fx.consumers[c.id] * c.energy for c in view.consumers)
        supply_side = sum(fx.producers[p.id] * p.energy for p in view.producers)
        assert demand_side == pytest.approx(supply_side, abs=1e-6)


class TestSolveDistMatching:
    def test_surplus_only_ssp_sells_back(self):
        producers = (Subscriber("p1", AP, 10.0),)
        view = SspView("s1", (), producers, preference_table({}), link_block({}))
        cm, fx, objective, _ = solve_dist_matching(view, pair_table(view))
        assert 0.0 <= cm.get(UTILITY_ID, "p1") <= 10.0 + 1e-9
        assert aggregate_surplus(view, cm) == (10.0, 10.0)
        assert objective == pytest.approx(0.0, abs=1e-9)

    def test_prices_are_minus_the_demand_row_duals(self):
        # c1 buys from the Utility: a kWh met from outside saves w2; c2 is
        # served by p1, which has spare supply: a kWh met from outside loses
        # p1's reward
        consumers = (Subscriber("c1", AC, 4.0, priority=1.0), Subscriber("c2", AC, 2.0, priority=0.5))
        view = SspView(
            "s1",
            consumers,
            (Subscriber("p1", AP, 3.0),),
            preference_table({"c2": {"p1": 1}}),
            link_block({"c1": {UTILITY_ID: 1}, "c2": {"p1": 1, UTILITY_ID: 1}}),
        )
        weights = MatchingWeights()
        table = PairTable(view, weights, None)
        *_, prices = solve_dist_matching(view, table)
        [reward] = table.columns([]).reward.tolist()  # c2's from p1, the view's only local pair
        assert prices == {"c1": pytest.approx(-weights.w2), "c2": pytest.approx(reward)}

    def test_partner_covers_deficit(self):
        consumers = (
            Subscriber("c1", AC, 26.0, priority=0.5),
            Subscriber("c2", AC, 25.0, priority=0.5),
        )
        view = SspView(
            "s1",
            consumers,
            (),
            preference_table({"c1": {"s2": 1}, "c2": {"s2": 1}}),
            link_block({"c1": {UTILITY_ID: 1}, "c2": {UTILITY_ID: 1}}),
            partner_capacities={"s2": PartnerCapacity(51.0, 0.0)},
        )
        cm, _, _, _ = solve_dist_matching(view, pair_table(view))
        assert cm.get("c1", "s2") + cm.get("c2", "s2") == pytest.approx(51.0, abs=1e-6)
        assert cm.purchases() == pytest.approx(0.0, abs=1e-6)

    def test_partner_deficit_matches_grid_oracle(self):
        consumers = (
            Subscriber("c1", AC, 3.0, priority=0.5),
            Subscriber("c2", AC, 2.0, priority=0.5),
        )
        view = SspView(
            "s1",
            consumers,
            (),
            preference_table({"c1": {"s2": 1}, "c2": {"s2": 1}}),
            link_block({"c1": {UTILITY_ID: 1}, "c2": {UTILITY_ID: 1}}),
            partner_capacities={"s2": PartnerCapacity(5.0, 0.0)},
        )
        lp, _ = _build(view, pair_table(view), None, 0.0)
        lp = with_variables(lp, [replace(var, upper=5.0) if math.isinf(var.upper) else var for var in lp.variables])
        solution = solve_lp(lp)
        oracle = brute_force_verify(lp, 1.0)
        assert solution.objective <= oracle + 1e-6

    def test_argmin_invariant_under_weight_scaling(self):
        view = worked_view()
        base_cm, base_fx, _, _ = solve_dist_matching(view, pair_table(view))
        w = MatchingWeights()
        scaled = replace(w, w14=w.w14 * 4.0, w2=w.w2 * 4.0, w35=w.w35 * 4.0)
        scaled_cm, scaled_fx, _, _ = solve_dist_matching(view, pair_table(view, scaled))
        assert scaled_cm == base_cm
        assert scaled_fx == base_fx

    def test_alpha_zero_turns_the_preference_off(self):
        # every supplier then earns a consumer the same reward, w14 * Pr(i) + w35
        view = worked_view()
        weights = MatchingWeights(alpha=0.0)
        table = PairTable(view, weights, None)
        local = table.columns([])
        for k, consumer in enumerate(view.consumers):
            rewards = set(local.reward[local.consumer == k].tolist())
            assert rewards == {weights.w14 * consumer.priority + weights.w35}
        cm, fx, _, _ = solve_dist_matching(view, table)
        assert utility_interaction(cm) == pytest.approx(0.0, abs=1e-6)
        assert check_matching_feasibility(view, cm, fx) == []


class TestAggregates:
    def two_ap_case(self):
        producers = (
            Subscriber("p1", AP, 10.0, bound=0.3),
            Subscriber("p2", AP, 10.0),
        )
        ssp = SSPConfig("s", (), producers, preference_table({}))
        cm = CommitmentMatrix(["c"], ["p1", "p2"])
        cm.set("c", "p2", 5.0)
        return ssp, cm

    def test_weighted_bound_of_two_producers(self):
        ssp, cm = self.two_ap_case()
        assert surplus_bound(*aggregate_surplus(ssp, cm)) == (13.0 + 5.0) / (10.0 + 5.0) - 1.0

    def test_all_zero_bounds_yield_zero(self):
        producers = (Subscriber("p1", AP, 10.0), Subscriber("p2", AP, 4.0))
        ssp = SSPConfig("s", (), producers, preference_table({}))
        cm = CommitmentMatrix([], ["p1", "p2"])
        assert surplus_bound(*aggregate_surplus(ssp, cm)) == 0.0

    def test_single_remaining_passive_producer(self):
        producers = (
            Subscriber("p1", PP, 10.0, bound=0.3),
            Subscriber("p2", AP, 5.0),
        )
        ssp = SSPConfig("s", (), producers, preference_table({}))
        cm = CommitmentMatrix(["c"], ["p1", "p2"])
        cm.set("c", "p2", 5.0)  # p2 fully committed
        assert surplus_bound(*aggregate_surplus(ssp, cm)) == pytest.approx(0.3)

    def test_surplus_pairs_with_bound(self):
        ssp, cm = self.two_ap_case()
        ex, total = aggregate_surplus(ssp, cm)
        assert (ex, total) == (18.0, 15.0)
        assert surplus_bound(*aggregate_surplus(ssp, cm)) == ex / total - 1.0

    def test_no_residual_capacity(self):
        producers = (Subscriber("p1", AP, 4.0),)
        ssp = SSPConfig("s", (), producers, preference_table({}))
        cm = CommitmentMatrix(["c"], ["p1"])
        cm.set("c", "p1", 4.0)
        assert aggregate_surplus(ssp, cm) == (0.0, 0.0)
        assert surplus_bound(*aggregate_surplus(ssp, cm)) == 0.0

    def test_single_ap_partial_commitment(self):
        producers = (Subscriber("p1", AP, 10.0),)
        ssp = SSPConfig("s", (), producers, preference_table({}))
        cm = CommitmentMatrix(["c"], ["p1"])
        cm.set("c", "p1", 4.0)
        assert aggregate_surplus(ssp, cm) == (6.0, 6.0)

    def test_bound_nonnegative_and_capped_while_uncommitted(self):
        # with no commitments the ratio is the production-weighted mean of the
        # producer bounds; once production is committed the stretch headroom
        # (computed on full declared output) can exceed every individual bound
        producers = (
            Subscriber("p1", PP, 8.0, bound=0.25),
            Subscriber("p2", PP, 2.0, bound=0.05),
            Subscriber("p3", AP, 1.0),
        )
        ssp = SSPConfig("s", (), producers, preference_table({}))
        empty = CommitmentMatrix(["c"], ["p1", "p2", "p3"])
        assert 0.0 <= surplus_bound(*aggregate_surplus(ssp, empty)) <= 0.25 + 1e-12
        for committed in (1.0, 7.9):
            cm = CommitmentMatrix(["c"], ["p1", "p2", "p3"])
            cm.set("c", "p1", committed)
            assert surplus_bound(*aggregate_surplus(ssp, cm)) >= 0.0


class TestCentralized:
    def test_single_ssp_equals_local_solve(self, worked_scenario):
        view = view_for_ssp(worked_scenario, "S1")
        table = pair_table(view, worked_scenario.weights)
        assert layout(*_build_centralized(worked_scenario)) == layout(*_build(view, table, None, 0.0))
        local = solve_dist_matching(view, table)
        central = solve_centralized(worked_scenario)
        assert central[0] == local[0]
        assert central[1] == local[1]
        assert central[2] == pytest.approx(local[2], abs=1e-9)

    def test_a_solve_past_a_refactorization_follows_the_reference_pivots(self):
        # the basis is refactorized every 150 pivots: the 10-SSP study-1
        # baseline takes more, so the pivot loop must carry on from the fresh
        # inverse exactly as the reference loop does
        scenario = generate_scenario(GeneratorSpec(
            n_ssps=10, consumers_per_ssp=10, producers_per_ssp=5, demand_mean_kwh=12.0,
            supply_mean_kwh=24.0, noise_std_kwh=3.0, seed=101,
        ))
        lp, _ = _build_centralized(scenario)
        assert solve_lp(lp).pivots > 150
        assert_standardised_alike(lp)

    def test_complementary_pair_nets_to_zero(self, pair_scenario):
        cm, _, _ = solve_centralized(pair_scenario)
        assert utility_interaction(cm) == pytest.approx(0.0, abs=1e-6)

    def test_transshipment_layout(self, pair_scenario):
        # per consumer its local producers, then one import per partner SSP;
        # purchases; one export per producer of a pooled SSP; supply rows,
        # demand rows, then one pool row per pooled SSP
        lp, info = _build_centralized(pair_scenario)
        names, row_names = labels(lp, info)
        assert names == [
            "cm[S1.C1][S1.P1]", "cm[S1.C1][S2]", "cm[S2.C1][S2.P1]", "cm[S2.C1][S1]",
            "cm[S1.C1][U]", "cm[S2.C1][U]", "export[S1.P1]", "export[S2.P1]",
        ]
        assert [
            (name, {names[k]: v for k, v in c.coeffs.items()}, c.relation, c.rhs) for name, c in zip(row_names, lp.constraints, strict=True)
        ] == [
            ("supply[S1.P1]", {"cm[S1.C1][S1.P1]": 1.0, "export[S1.P1]": 1.0}, "<=", 5.0),
            ("supply[S2.P1]", {"cm[S2.C1][S2.P1]": 1.0, "export[S2.P1]": 1.0}, "<=", 10.0),
            ("demand[S1.C1]", {"cm[S1.C1][S1.P1]": 1.0, "cm[S1.C1][S2]": 1.0, "cm[S1.C1][U]": 1.0}, "=", 10.0),
            ("demand[S2.C1]", {"cm[S2.C1][S2.P1]": 1.0, "cm[S2.C1][S1]": 1.0, "cm[S2.C1][U]": 1.0}, "=", 5.0),
            ("pool[S1]", {"cm[S2.C1][S1]": 1.0, "export[S1.P1]": -1.0}, "<=", 0.0),
            ("pool[S2]", {"cm[S1.C1][S2]": 1.0, "export[S2.P1]": -1.0}, "<=", 0.0),
        ]
        assert info.live_partners == ["S1", "S2"]

    def test_merged_view_respects_interssp_connectivity(self, pair_scenario):
        view = merged_view(pair_scenario)
        assert view.links.get("S1.C1", "S2.P1")
        assert view.preferences.get("S1.C1", "S2.P1") == 2


def generated_with(spec: GeneratorSpec, weights: MatchingWeights) -> Scenario:
    """``generate_scenario(spec)`` carrying ``weights``, validated as the generator validates its own scenario."""
    scenario = replace(generate_scenario(spec), weights=weights)
    assert validate_scenario(scenario) == []
    return scenario


class TestCalibration:
    def tiny_scenario(self, weights: MatchingWeights) -> Scenario:
        consumers = (
            Subscriber("c0", AC, 5.0, priority=0.0),
            Subscriber("c1", AC, 1.0, priority=1.0),
        )
        producers = (Subscriber("p0", AP, 5.0),)
        prefs = preference_table({"c0": {"p0": 15}, "c1": {}})
        rows = {"c0": {"p0": 1, UTILITY_ID: 1}, "c1": {UTILITY_ID: 1}}
        ssp = SSPConfig("s1", consumers, producers, prefs)
        return Scenario(*linked(rows, (ssp,)), weights, None, 5)

    def test_already_optimal_defaults_are_kept(self, worked_scenario):
        calibrated = calibrate_weights(worked_scenario, iterations=2, seed=1)
        assert calibrated == worked_scenario.weights

    def test_free_utility_purchases_get_penalized(self):
        # beta pinned low makes the p0 placement carry a positive cost, so with
        # w2 = 0 the solver shops at the Utility; calibration must raise w2
        weights = MatchingWeights(w14=0.0, w2=0.0, w35=1.0, alpha=0.1, beta=0.0)
        scenario = self.tiny_scenario(weights)
        before = run_engine(scenario, meshed_map(scenario.ssp_ids), seed=0).final_utility_kwh
        calibrated = calibrate_weights(scenario, iterations=1, seed=0)
        after = run_engine(scenario, meshed_map(scenario.ssp_ids), weights=calibrated, seed=0).final_utility_kwh
        assert calibrated.w2 > 0.0
        assert after < before - 1e-9

    def test_calibration_restores_a_zero_service_reward(self):
        # valid weights that reward no placement: one iteration sets w14 to 1,
        # and the meshed run at seed 1 then needs 18.22 kWh of Utility, not 28.36
        spec = GeneratorSpec(
            n_ssps=5, consumers_per_ssp=8, producers_per_ssp=4,
            passive_consumers=4, passive_consumer_bound=0.3, passive_producers=2, passive_producer_bound=0.3,
            demand_mean_kwh=12.0, supply_mean_kwh=22.0, noise_std_kwh=6.0, seed=1,
        )
        scenario = generated_with(spec, MatchingWeights(w14=0.0, w2=0.05, w35=0.0))
        calibrated = calibrate_weights(scenario, iterations=1, seed=1)
        assert calibrated == replace(scenario.weights, w14=1.0)
        anm = meshed_map(scenario.ssp_ids)
        assert run_engine(scenario, anm, seed=1).final_utility_kwh == pytest.approx(28.362, abs=1e-3)
        assert run_engine(scenario, anm, weights=calibrated, seed=1).final_utility_kwh == pytest.approx(18.223, abs=1e-3)

    def test_single_iteration_moves_each_coordinate_at_most_once(self):
        weights = MatchingWeights(w14=0.0, w2=0.0, w35=1.0, alpha=0.1, beta=0.0)
        scenario = self.tiny_scenario(weights)
        calibrated = calibrate_weights(scenario, iterations=1, seed=0)
        assert calibrated.w2 == 1.0  # the single allowed move from zero
        assert calibrated.w14 in (0.0, 1.0)
        assert calibrated.w35 in (0.5, 1.0, 2.0)


def study2_scenario(seed: int = 7, n_ssps: int = 4, supply_mean_kwh: float = 24.0) -> Scenario:
    """Small study-2 shape with passive subscribers and a line bound of every valid kind."""
    scenario = generate_scenario(
        GeneratorSpec(
            n_ssps=n_ssps, consumers_per_ssp=6, producers_per_ssp=3,
            passive_consumers=2, passive_consumer_bound=0.15, passive_producers=1, passive_producer_bound=0.1,
            demand_mean_kwh=12.0, supply_mean_kwh=supply_mean_kwh, noise_std_kwh=6.0, seed=seed,
        )
    )
    lines = LineConstraintSet((
        LineConstraint("S01.C01", "S01.P02", 0.0, 2.0),
        LineConstraint("S03.C02", UTILITY_ID, 0.5, 100.0),
    ))
    return replace(scenario, line_constraints=lines)


def layout(lp, info) -> tuple:
    """Everything _build returns, in order and bit for bit: dict equality alone ignores key order."""
    return bits([views(lp), layout_of(lp, info)])


def test_a_view_is_its_config_plus_partner_capacities():
    # the view adds the partners' capacities and nothing else: every field of
    # the SSP's config is the config's own object
    assert [f.name for f in fields(SspView)] == [f.name for f in fields(SSPConfig)] + ["partner_capacities"]
    generated = generate_scenario(GeneratorSpec(n_ssps=5, consumers_per_ssp=3, producers_per_ssp=2, seed=3))
    for scenario in (generated, study2_scenario()):
        for cfg in scenario.ssps:
            view = view_for_ssp(scenario, cfg.id)
            assert all(getattr(view, f.name) is getattr(cfg, f.name) for f in fields(SSPConfig))


class TestPairTable:
    @pytest.mark.parametrize(
        "weights",
        [MatchingWeights(), MatchingWeights(alpha=0.0), MatchingWeights(alpha=0.3, beta=4.5)],
        ids=["default", "no-preference", "explicit-beta"],
    )
    def test_agent_table_builds_the_stateless_program(self, weights):
        scenario = study2_scenario()
        base = view_for_ssp(scenario, "S02")
        caps = dict(base.partner_capacities)
        caps["S01"] = PartnerCapacity(7.5, 0.1)
        caps["S03"] = PartnerCapacity(1e-12, 0.0)  # below RESIDUAL_TOL: no column
        caps["S04"] = PartnerCapacity(3.0, 0.0)
        offered = replace(base, partner_capacities=caps)
        # every partner live, every other one with a stretch bound
        live = {p: PartnerCapacity(2.0 + q, 0.1 * (q % 2)) for q, p in enumerate(sorted(base.partner_capacities))}
        every = replace(base, partner_capacities=live)
        locked = {"S01": {"S02.C03": 1.25, "S02.C01": 0.5}, "S04": {"S02.C02": 2.0}}
        table = PairTable(base, weights, scenario.line_constraints)
        inputs = [(base, None, 0.0), (offered, locked, 6.0), (base, locked, 2.5), (every, locked, 1.0)]
        for view, imports, exports in inputs:
            got = _build(view, table, accepted_matrix(view, imports), exports)
            assert_builds_alike(got, reference_build(view, weights, scenario.line_constraints, imports, exports))

    def test_real_matching_programs_standardise_alike(self, monkeypatch):
        scenario = study2_scenario()
        programs = engine_programs(monkeypatch, scenario)
        demand = {c.id: c.energy for cfg in scenario.ssps for c in cfg.consumers}
        labelled = [labels(lp, info) for lp, info in programs]
        rows = [(name, row) for (lp, _), (_, row_names) in zip(programs, labelled) for name, row in zip(row_names, lp.constraints, strict=True)]
        names = {name for columns, _ in labelled for name in columns}
        # the programs carry every feature the standard form has to handle
        assert any(name == "export-reservation" for name, _ in rows)
        assert any(name.startswith("demand[") and row.rhs < demand[name[7:-1]] - 1e-9 for name, row in rows)
        assert any(name == "supply[S01]" for name, _ in rows)
        assert {"cut[S01.C01]", "stretch[S01.P01]"} <= names
        assert any(name.startswith("stretch[S") and "." not in name for name in names)  # a partner's
        assert any(v.lower == 0.5 for lp, _ in programs for v in lp.variables)
        for lp, _ in programs:
            assert_standardised_alike(lp)

    def test_real_matching_programs_have_certifying_duals(self, monkeypatch):
        for lp, _ in engine_programs(monkeypatch, study2_scenario()):
            assert_dual_certificate(lp, solve_lp(lp))

    def test_offer_pricing(self, pair_scenario):
        weights = pair_scenario.weights
        # S1 buys its 5 kWh deficit from the Utility: S2's offer can replace it
        short = view_for_ssp(pair_scenario, "S1")
        table = PairTable(short, weights, None)
        *_, prices = solve_dist_matching(short, table)
        assert table.offer_can_improve(prices, ("S2", 5.0), 1e-9)
        assert not table.offer_can_improve(prices, ("S2", 0.0), 1e-9)
        # S2's consumer is served by its first-ranked producer, which has
        # supply to spare: an offer from S1, ranked second, cannot beat it
        spare = view_for_ssp(pair_scenario, "S2")
        table = PairTable(spare, weights, None)
        *_, prices = solve_dist_matching(spare, table)
        assert not table.offer_can_improve(prices, ("S1", 100.0), 1e-9)

    def test_no_program_has_a_sell_back_column(self, monkeypatch):
        # a sell-back is the production nobody takes: derived, never decided
        scenario = study2_scenario()
        programs = []
        for builder in ("_build", "_build_centralized"):
            build = getattr(sspsim.matching, builder)
            monkeypatch.setattr(sspsim.matching, builder, lambda *args, build=build: programs.append(build(*args)) or programs[-1])
        result = run_engine(scenario, meshed_map(scenario.ssp_ids), seed=1)
        solve_centralized(scenario)
        assert len(programs) > len(scenario.ssps)
        columns = [name for lp, info in programs for name in labels(lp, info)[0]]
        assert len(columns) == sum(lp.lower.size for lp, _ in programs)
        assert not [name for name in columns if name.startswith(f"cm[{UTILITY_ID}]")]
        assert sum(cm.sell_backs() for cm in result.commitments.values()) > 0.0


def engine_programs(monkeypatch, scenario: Scenario) -> list:
    """Every matching LP of a meshed engine run at run seed 1 with its layout, those the engine prices out included.

    In one share, so that no program is built in a forked worker, out of sight."""
    programs = []
    build = sspsim.matching._build
    monkeypatch.setattr(sspsim.protocol, "_share_count", lambda n_ssps: 1)
    monkeypatch.setattr(sspsim.matching, "_build", lambda *args: programs.append(build(*args)) or programs[-1])
    monkeypatch.setattr(PairTable, "offer_can_improve", lambda *_: True)
    run_engine(scenario, meshed_map(scenario.ssp_ids), seed=1)
    return programs


@st.composite
def matching_inputs(draw, with_lines: bool = False):
    """A generated SSP's view with partner offers, locked imports and exports, its weights and its lines.

    Lines are drawn only ``with_lines``: on (consumer, U) and (consumer, local
    producer) pairs, minimums included, which can make the LP infeasible."""
    n_partners = draw(st.integers(0, 5))
    consumers = draw(st.integers(4, 14))
    producers = draw(st.integers(2, 8))
    spec = GeneratorSpec(
        n_ssps=n_partners + 1, consumers_per_ssp=consumers, producers_per_ssp=producers,
        passive_consumers=draw(st.integers(0, consumers)), passive_consumer_bound=0.15,
        passive_producers=draw(st.integers(0, producers)), passive_producer_bound=0.1,
        supply_mean_kwh=draw(st.sampled_from([6.0, 24.0, 42.0])), seed=draw(st.integers(0, 2**16)),
    )
    scenario = generated_with(spec, MatchingWeights(alpha=draw(st.sampled_from([0.1, 0.0]))))
    view = view_for_ssp(scenario, "S01")
    caps = {p: PartnerCapacity(draw(st.sampled_from([0.0, 5.0, 40.0])), draw(st.sampled_from([0.0, 0.1])))
            for p in view.partner_capacities}
    view = replace(view, partner_capacities=caps)
    first = view.consumers[0]
    locked = {p: {first.id: first.energy / (2 * len(caps))} for p in caps if draw(st.booleans())}
    exports = draw(st.sampled_from([0.0, 0.25, 0.5])) * sum(p.energy for p in view.producers)
    lines = None
    if with_lines:
        suppliers = (UTILITY_ID, *(p.id for p in view.producers))
        pairs = draw(st.lists(st.sampled_from([(c.id, s) for c in view.consumers for s in suppliers]), max_size=8, unique=True))
        lines = []
        for row_id, col_id in pairs:
            low = draw(st.sampled_from([0.0, 0.0, 0.5, 3.0]))
            lines.append(LineConstraint(row_id, col_id, low, low + draw(st.sampled_from([0.0, 2.0, 50.0]))))
        lines = LineConstraintSet(tuple(lines))
    return view, scenario.weights, locked, exports, lines


@st.composite
def matching_programs(draw):
    """A generated SSP's matching LP with live partners, locked imports and exports."""
    view, weights, locked, exports, _ = draw(matching_inputs())
    lp, _ = _build(view, pair_table(view, weights), accepted_matrix(view, locked), exports)
    return lp


@settings(max_examples=60, deadline=None)
@given(matching_programs())
def test_matching_duals_certify_the_optimum(lp):
    assert_dual_certificate(lp, solve_lp(lp))


@settings(max_examples=40, deadline=None)
@given(matching_inputs())
def test_offer_pricing_bounds_what_an_offer_can_gain(inputs):
    # an offer that lowers the optimum by d is never priced out at a
    # tolerance below d: the pricing is a lower bound, never a guess
    view, weights, locked, exports, _ = inputs
    idle = replace(view, partner_capacities=dict.fromkeys(view.partner_capacities, PartnerCapacity(0.0, 0.0)))
    table = PairTable(idle, weights, None)
    kwargs = dict(accepted=accepted_matrix(view, locked), committed_exports=exports)
    _, _, best, prices = solve_dist_matching(idle, table, **kwargs)
    for partner_id, cap in view.partner_capacities.items():
        offered = replace(idle, partner_capacities={**idle.partner_capacities, partner_id: cap})
        _, _, objective, _ = solve_dist_matching(offered, table, **kwargs)
        drop = best - objective
        if drop > 1e-7:
            assert table.offer_can_improve(prices, (partner_id, cap.energy * (1.0 + cap.bound)), drop - 1e-7)


def assert_signed_unit_rows(lp: LinearProgram) -> None:
    """Only ``<=`` and ``=`` rows, each coefficient +1 or -1: then every
    singleton column with a positive entry in its standardised row is a unit
    column, and the crash starts the row on it rather than on an artificial."""
    assert set(lp.relations) <= {LESS_EQUAL, EQUAL}
    assert set(lp.entry_vals.tolist()) <= {1.0, -1.0}


@settings(max_examples=100, deadline=None)
@given(matching_inputs(with_lines=True))
def test_matching_programs_have_signed_unit_rows_and_follow_the_reference_pivots(inputs):
    view, weights, locked, exports, lines = inputs
    lp, _ = _build(view, pair_table(view, weights, lines), accepted_matrix(view, locked), exports)
    assert_signed_unit_rows(lp)
    assert_standardised_alike(lp)


def test_engine_and_centralized_programs_have_signed_unit_rows(monkeypatch, worked_scenario, pair_scenario):
    for lp, _ in engine_programs(monkeypatch, study2_scenario()):
        assert_signed_unit_rows(lp)
    # the scenarios of the c10 acceptance suite
    for scenario in (worked_scenario, pair_scenario, generate_scenario(STUDY1_SPEC), generate_scenario(study2_spec(10, 5, 0))):
        assert_signed_unit_rows(_build_centralized(scenario)[0])


@settings(max_examples=60, deadline=None)
@given(matching_inputs(with_lines=True), st.booleans())
def test_the_array_builder_gives_the_dict_reference_program(inputs, agent_table):
    # the same program view for view and in order (every cost bit for bit
    # included), the same layout, standard form, pivots and solution
    view, weights, locked, exports, lines = inputs
    idle = replace(view, partner_capacities=dict.fromkeys(view.partner_capacities, PartnerCapacity(0.0, 0.0)))
    table = PairTable(idle if agent_table else view, weights, lines)
    got = _build(view, table, accepted_matrix(view, locked), exports)
    assert_builds_alike(got, reference_build(view, weights, lines, locked, exports))
    # the offer pricing reads the same rewards
    reference = ReferencePairTable(view, weights, lines)
    prices = {c.id: 0.5 * k for k, c in enumerate(view.consumers)}
    for partner_id in view.partner_capacities:
        for consumer in view.consumers:
            assert table.partner_reward(consumer.id, partner_id) == reference.partner_reward(consumer.id, partner_id)
        for kwh in (0.0, 1.0, 40.0):
            offer = (partner_id, kwh)
            assert table.offer_can_improve(prices, offer, 1e-9) == reference.offer_can_improve(prices, offer, 1e-9)


@settings(max_examples=60, deadline=None)
@given(matching_programs())
def test_solve_lp_agrees_with_highs(lp):
    assert 10 <= len(lp.variables) <= 300
    result = highs(lp)
    ours = solve_lp(lp)
    assert result.status == 0 and ours.status is LpStatus.OPTIMAL
    assert max(constraint_residuals(lp, ours.values).values()) < 1e-6
    assert ours.objective == pytest.approx(result.fun, rel=1e-7, abs=1e-6)


def without_producers(scenario: Scenario, ssp_id: str) -> Scenario:
    """The scenario with every producer of one SSP removed, from the links and ranks too."""
    cfg = scenario.ssp(ssp_id)
    gone = {p.id for p in cfg.producers}
    rows = {row_id: {col: v for col, v in cols.items() if col not in gone} for row_id, cols in link_rows(scenario).items()}
    header = cfg.preferences.cols
    ranks = {
        c: {s: r for s, r in zip(header, row) if r is not None and s not in gone}
        for c, row in cfg.preferences.to_rows().items()
    }
    ssps = tuple(
        replace(other, producers=(), preferences=preference_table(ranks)) if other.id == ssp_id else other
        for other in scenario.ssps
    )
    ssps, ssp_links = linked(rows, ssps)
    return replace(scenario, ssps=ssps, ssp_links=ssp_links)


@st.composite
def centralized_scenarios(draw) -> Scenario:
    """2-5 SSPs with passive flexibility, missing inter-SSP links, maybe one SSP
    without producers, alpha 0.1 or 0 (no preference steering), and lines on
    both pair shapes that ``line-decided-flow`` admits: (consumer, U) and
    (consumer, producer of its SSP), minimums included."""
    consumers = draw(st.integers(1, 5))
    producers = draw(st.integers(1, 3))
    spec = GeneratorSpec(
        n_ssps=draw(st.integers(2, 5)), consumers_per_ssp=consumers, producers_per_ssp=producers,
        passive_consumers=draw(st.integers(0, consumers)), passive_consumer_bound=0.15,
        passive_producers=draw(st.integers(0, producers)), passive_producer_bound=0.1,
        supply_mean_kwh=draw(st.sampled_from([6.0, 24.0, 42.0])), seed=draw(st.integers(0, 2**16)),
    )
    scenario = generated_with(spec, MatchingWeights(alpha=draw(st.sampled_from([0.1, 0.0]))))
    ids = scenario.ssp_ids
    if draw(st.booleans()):
        scenario = without_producers(scenario, draw(st.sampled_from(ids)))
    rows = link_rows(scenario)
    for a, b in draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=4)):
        if a != b:
            rows[a][b] = rows[b][a] = 0
    decided = [
        (c.id, supplier_id)
        for cfg in scenario.ssps
        for c in cfg.consumers
        for supplier_id in [UTILITY_ID, *(p.id for p in cfg.producers)]
    ]
    pairs = draw(st.lists(st.sampled_from(decided), max_size=6, unique=True))
    lines = []
    for row_id, col_id in pairs:
        rows[row_id][col_id] = 1  # a line with a minimum must be on a connected pair
        low = draw(st.sampled_from([0.0, 0.0, 1.0, 6.0, 40.0]))
        lines.append(LineConstraint(row_id, col_id, low, draw(st.sampled_from([2.0, 8.0, 50.0]).filter(lambda high: high >= low))))
    ssps, ssp_links = linked(rows, scenario.ssps)
    scenario = replace(scenario, ssps=ssps, ssp_links=ssp_links, line_constraints=LineConstraintSet(tuple(lines)) if lines else None)
    assert validate_scenario(scenario) == []
    return scenario


@settings(max_examples=60, deadline=None)
@given(centralized_scenarios())
def test_the_centralized_array_builder_gives_the_dict_reference_program(scenario):
    assert_builds_alike(_build_centralized(scenario), reference_build_centralized(scenario, scenario.weights))


def centralized_outcome(solve, scenario):
    try:
        return solve(scenario)
    except MatchingInfeasibleError:
        return None


@settings(max_examples=80, deadline=None)
@given(centralized_scenarios())
def test_centralized_equals_the_per_pair_expansion(scenario):
    expected = centralized_outcome(reference_solve_centralized, scenario)
    got = centralized_outcome(solve_centralized, scenario)
    lp, _ = _build_centralized(scenario)
    oracle = highs(lp)
    assert (got is None) == (expected is None) == (oracle.status == 2)
    if got is None:
        return
    cm, fx, objective = got
    assert objective == pytest.approx(expected[2], rel=1e-9, abs=1e-9)
    assert oracle.status == 0
    assert solve_lp(lp).objective == pytest.approx(oracle.fun, rel=1e-7, abs=1e-6)
    view = merged_view(scenario)
    assert check_matching_feasibility(view, cm, fx) == []
    assert_lines_hold(scenario, cm.get)


@settings(max_examples=60, deadline=None)
@given(centralized_scenarios())
def test_merged_view_pairs_each_consumer_with_every_producer_its_ssp_reaches(scenario):
    # a consumer c of SSP s and a producer p of SSP t are linked when t = s
    # and N(c, p), or when t != s and N(s, t); the pair carries rank(c, p)
    # in the first case and rank(c, t) in the second; every consumer reaches U
    view = merged_view(scenario)
    producers = [(t, p) for t in scenario.ssps for p in t.producers]
    consumer_ids = [c.id for cfg in scenario.ssps for c in cfg.consumers]
    assert list(view.links.rows) == list(view.preferences.rows) == consumer_ids
    assert list(view.links.cols) == [p.id for _, p in producers] + [UTILITY_ID]
    assert list(view.preferences.cols) == [p.id for _, p in producers]
    for cfg in scenario.ssps:
        for c in cfg.consumers:
            for t, p in producers:
                link = cfg.links.get(c.id, p.id) if t is cfg else scenario.ssp_links.get(cfg.id, t.id)
                rank = cfg.preferences.get(c.id, p.id if t is cfg else t.id)
                assert (view.links.get(c.id, p.id), view.preferences.get(c.id, p.id)) == (link, rank if link else 0)
    assert (view.links.take(consumer_ids, [UTILITY_ID]) == 1).all()


@pytest.mark.parametrize(
    "spec, digest",
    [
        (replace(STUDY1_SPEC, n_ssps=10), "db8c8cbef9e4f53816444eadb3d9dafcd03c2efc9ebdb0651d9c3c663b778445"),
        (study2_spec(10, 5, 0), "1580c12ac9b928c23315b6ddb72da104c6da77d487817d0805d9038162ae7101"),
    ],
    ids=["study1-10-ssps", "study2-10-5"],
)
def test_centralized_commitments_are_pinned(spec, digest):
    # the sha256 of one "row,col,kWh" line per cell of the matrix, sorted,
    # with every kWh to 9 decimals: OpenBLAS kernels (Prescott, Nehalem,
    # Sandybridge, Haswell, ...) reach the same vertex with cells that differ
    # in their last bits (up to 3.4e-14 kWh), which repr would tell apart
    cm, _, _ = solve_centralized(generate_scenario(spec))
    dump = "".join(f"{row},{col},{kwh:.9f}\n" for (row, col), kwh in sorted(cm.cells().items()))
    assert hashlib.sha256(dump.encode()).hexdigest() == digest


def assert_lines_hold(scenario: Scenario, cell: Callable[[str, str], float]) -> None:
    """Every line of ``scenario`` bounds the kWh ``cell(row, col)`` of its pair."""
    for lc in scenario.line_constraints.constraints if scenario.line_constraints else ():
        assert lc.min_kwh - 1e-6 <= cell(lc.row_id, lc.col_id) <= lc.max_kwh + 1e-6, lc
