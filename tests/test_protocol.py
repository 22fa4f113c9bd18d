from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sspsim.coalition import empty_map, meshed_map
from sspsim.matching import solve_dist_matching, view_for_ssp
from sspsim.model import (
    UTILITY_ID,
    ConnectivityMatrix,
    LineConstraint,
    LineConstraintSet,
    MatchingWeights,
    PreferenceTable,
    Scenario,
    SSPConfig,
    Subscriber,
    SubscriberKind,
    energy_status,
)
from sspsim.protocol import (
    CLAIM_KIND,
    OFFER_KIND,
    ConvergenceError,
    InvalidScenarioError,
    LogRecord,
    ProtocolViolationError,
    audit_privacy,
    run_engine,
    shuffle_partners,
)
from sspsim.scenario import GeneratorSpec, generate_scenario

AC = SubscriberKind.ACTIVE_CONSUMER
AP = SubscriberKind.ACTIVE_PRODUCER


def triangle_scenario() -> Scenario:
    """S1 has 18 kWh spare; S2 needs 10, S3 needs 8."""
    s1 = SSPConfig(
        "S1", (), (Subscriber("S1.P1", AP, 18.0),), PreferenceTable({})
    )
    s2 = SSPConfig(
        "S2",
        (Subscriber("S2.C1", AC, 10.0, priority=1.0),),
        (),
        PreferenceTable({"S2.C1": {"S1": 1, "S3": 2}}),
    )
    s3 = SSPConfig(
        "S3",
        (Subscriber("S3.C1", AC, 8.0, priority=1.0),),
        (),
        PreferenceTable({"S3.C1": {"S1": 1, "S2": 2}}),
    )
    rows = {
        "S2.C1": {UTILITY_ID: 1},
        "S3.C1": {UTILITY_ID: 1},
        "S1": {"S2": 1, "S3": 1},
        "S2": {"S1": 1, "S3": 1},
        "S3": {"S1": 1, "S2": 1},
    }
    return Scenario((s1, s2, s3), ConnectivityMatrix(rows), MatchingWeights(), None, 0)


class TestRunEngine:
    def test_single_ssp_collapses_to_local_solve(self, worked_scenario):
        result = run_engine(worked_scenario, meshed_map(worked_scenario.ssp_ids), seed=1)
        assert result.iterations == 1
        local_cm, local_fx, _ = solve_dist_matching(
            view_for_ssp(worked_scenario, "S1"), worked_scenario.weights
        )
        assert result.commitments["S1"] == local_cm
        assert result.flexibility["S1"] == local_fx
        assert result.log == []

    def test_connected_pair_cancels(self, pair_scenario):
        result = run_engine(pair_scenario, meshed_map(pair_scenario.ssp_ids), seed=1)
        assert result.final_utility_kwh == pytest.approx(0.0, abs=1e-6)
        assert result.iterations >= 2

    def test_disconnected_pair_faces_the_utility(self, pair_scenario):
        result = run_engine(pair_scenario, empty_map(pair_scenario.ssp_ids), seed=1)
        assert result.final_utility_kwh == pytest.approx(10.0, abs=1e-6)
        assert result.log == []

    def test_deficit_agent_claims_the_full_offer(self):
        deficit = SSPConfig(
            "S2",
            (Subscriber("S2.C1", AC, 51.0, priority=1.0),),
            (),
            PreferenceTable({"S2.C1": {"S1": 1}}),
        )
        surplus = SSPConfig("S1", (), (Subscriber("S1.P1", AP, 51.0),), PreferenceTable({}))
        rows = {"S2.C1": {UTILITY_ID: 1}, "S1": {"S2": 1}, "S2": {"S1": 1}}
        scenario = Scenario((surplus, deficit), ConnectivityMatrix(rows), MatchingWeights(), None, 0)
        result = run_engine(scenario, meshed_map(scenario.ssp_ids), seed=0)
        claims = [r for r in result.log if r.kind == CLAIM_KIND]
        assert len(claims) == 1
        assert claims[0].payload["amount_kwh"] == pytest.approx(51.0, abs=1e-6)
        # balance identity: buyer's matrix holds the import, seller exports it all
        assert result.commitments["S2"].get("S2.C1", "S1") == pytest.approx(51.0, abs=1e-6)
        assert result.final_utility_kwh == pytest.approx(0.0, abs=1e-6)

    def test_sequential_decrement_offers_only_the_residual(self):
        # seed 1 shuffles S1's partners as [S2, S3] in round 1
        scenario = triangle_scenario()
        assert shuffle_partners(["S2", "S3"], 1, "S1", 1) == ["S2", "S3"]
        result = run_engine(scenario, meshed_map(scenario.ssp_ids), seed=1)
        offers = [r for r in result.log if r.kind == OFFER_KIND and r.src == "S1"]
        claims = [r for r in result.log if r.kind == CLAIM_KIND and r.dst == "S1"]
        assert [o.dst for o in offers] == ["S2", "S3"]
        assert offers[0].payload["energy_kwh"] == pytest.approx(18.0, abs=1e-6)
        assert claims[0].payload["amount_kwh"] == pytest.approx(10.0, abs=1e-6)
        assert offers[1].payload["energy_kwh"] == pytest.approx(8.0, abs=1e-6)
        assert claims[1].payload["amount_kwh"] == pytest.approx(8.0, abs=1e-6)
        assert result.final_utility_kwh == pytest.approx(0.0, abs=1e-6)

    def test_conservation_across_every_pair(self, pair_scenario):
        result = run_engine(pair_scenario, meshed_map(pair_scenario.ssp_ids), seed=1)
        claimed = {}
        for record in result.log:
            if record.kind == CLAIM_KIND:
                pair = (record.dst, record.src)  # (seller, buyer)
                claimed[pair] = claimed.get(pair, 0.0) + record.payload["amount_kwh"]
        for (seller, buyer), total in claimed.items():
            buyer_cm = result.commitments[buyer]
            imported = sum(buyer_cm.get(c, seller) for c in buyer_cm.consumer_ids)
            assert imported == pytest.approx(total, abs=1e-9)

    def test_quiescent_agents_emit_no_offers(self, pair_scenario):
        result = run_engine(pair_scenario, meshed_map(pair_scenario.ssp_ids), seed=1)
        # S1 is the deficit side: it never has surplus, so it never offers
        assert all(r.src != "S1" for r in result.log if r.kind == OFFER_KIND)

    def test_messages_respect_connectivity(self):
        scenario = triangle_scenario()
        anm = empty_map(scenario.ssp_ids)
        result = run_engine(scenario, anm, seed=1)
        assert result.log == []

    def test_determinism_bit_identical_results(self, pair_scenario):
        first = run_engine(pair_scenario, meshed_map(pair_scenario.ssp_ids), seed=9)
        second = run_engine(pair_scenario, meshed_map(pair_scenario.ssp_ids), seed=9)
        assert first == second

    def test_trace_monotone_and_bounded_by_initial(self):
        scenario = triangle_scenario()
        result = run_engine(scenario, meshed_map(scenario.ssp_ids), seed=4)
        values = [p.accumulated_utility_kwh for p in result.trace]
        assert all(b <= a + 1e-6 for a, b in zip(values, values[1:]))
        assert result.final_utility_kwh <= result.initial_abs_status_kwh + 1e-6

    def test_final_solutions_pass_residual_check(self):
        from sspsim.matching import check_matching_feasibility

        scenario = triangle_scenario()
        result = run_engine(scenario, meshed_map(scenario.ssp_ids), seed=1)
        for ssp_id in scenario.ssp_ids:
            view = view_for_ssp(scenario, ssp_id)
            problems = check_matching_feasibility(
                view, result.commitments[ssp_id], result.flexibility[ssp_id]
            )
            assert problems == [], (ssp_id, problems)

    def test_iteration_cap_raises_with_trace(self, pair_scenario):
        with pytest.raises(ConvergenceError) as excinfo:
            run_engine(pair_scenario, meshed_map(pair_scenario.ssp_ids), seed=1, iteration_cap=1)
        assert excinfo.value.trace  # partial trace attached for diagnosis

    def test_invalid_scenario_rejected(self, pair_scenario):
        broken = Scenario(
            pair_scenario.ssps,
            ConnectivityMatrix({"S1.C1": {"S1.P1": 1, UTILITY_ID: 0}}),
            pair_scenario.weights,
            None,
            0,
        )
        with pytest.raises(InvalidScenarioError):
            run_engine(broken, meshed_map(broken.ssp_ids))

    @pytest.mark.parametrize("name,value", [("w14", -5.0), ("alpha", float("nan")), ("w2", float("inf"))])
    def test_invalid_weights_argument_rejected(self, pair_scenario, name, value):
        weights = replace(pair_scenario.weights, **{name: value})
        with pytest.raises(InvalidScenarioError, match=name):
            run_engine(pair_scenario, meshed_map(pair_scenario.ssp_ids), weights=weights)

    @pytest.mark.parametrize("min_kwh,max_kwh", [(0.0, float("nan")), (float("nan"), 5.0), (float("inf"), float("inf"))])
    def test_undefined_line_bound_rejected(self, pair_scenario, min_kwh, max_kwh):
        lines = LineConstraintSet((LineConstraint("S1.C1", "S1.P1", min_kwh, max_kwh),))
        broken = replace(pair_scenario, line_constraints=lines)
        with pytest.raises(InvalidScenarioError, match=r"\(S1.C1, S1.P1\): line-bound-defined"):
            run_engine(broken, meshed_map(broken.ssp_ids))

    @pytest.mark.parametrize("bounds", [[(0.0, 1.0), (5.0, 9.0)], [(5.0, 9.0), (0.0, 1.0)]], ids=["narrow-first", "wide-first"])
    def test_duplicate_line_constraint_rejected(self, worked_scenario, bounds):
        lines = LineConstraintSet(tuple(LineConstraint("AC1", "AP1", lo, hi) for lo, hi in bounds))
        broken = replace(worked_scenario, line_constraints=lines)
        with pytest.raises(InvalidScenarioError, match=r"\(AC1, AP1\): line-unique"):
            run_engine(broken, meshed_map(broken.ssp_ids))

    def test_sell_back_line_bound_rejected(self):
        # with P1 at 10 kWh and C1 at 4 kWh, 6 kWh go back to the Utility
        # whatever bound cm(U, S1.P1) names
        s1 = SSPConfig(
            "S1",
            (Subscriber("S1.C1", AC, 4.0, priority=1.0),),
            (Subscriber("S1.P1", AP, 10.0),),
            PreferenceTable({"S1.C1": {"S1.P1": 1}}),
        )
        rows = {"S1.C1": {"S1.P1": 1, UTILITY_ID: 1}}
        lines = LineConstraintSet((LineConstraint(UTILITY_ID, "S1.P1", 0.0, 2.0),))
        broken = Scenario((s1,), ConnectivityMatrix(rows), MatchingWeights(), lines, 0)
        with pytest.raises(InvalidScenarioError, match=r"\(U, S1.P1\): line-not-sell-back"):
            run_engine(broken, meshed_map(broken.ssp_ids))

    def test_exporter_that_also_imports_keeps_reservations(self):
        # S1's consumer cannot reach its own producer, so S1 both exports
        # surplus and imports for its demand; exported energy must stay
        # reserved through every later re-solve
        s1 = SSPConfig(
            "S1",
            (Subscriber("S1.C1", AC, 5.0, priority=1.0),),
            (Subscriber("S1.P1", AP, 10.0),),
            PreferenceTable({"S1.C1": {"S2": 1, "S3": 2}}),
        )
        s2 = SSPConfig("S2", (), (Subscriber("S2.P1", AP, 5.0),), PreferenceTable({}))
        s3 = SSPConfig(
            "S3",
            (Subscriber("S3.C1", AC, 6.0, priority=1.0),),
            (),
            PreferenceTable({"S3.C1": {"S1": 1, "S2": 2}}),
        )
        rows = {
            "S1.C1": {"S1.P1": 0, UTILITY_ID: 1},
            "S3.C1": {UTILITY_ID: 1},
            "S1": {"S2": 1, "S3": 1},
            "S2": {"S1": 1, "S3": 1},
            "S3": {"S1": 1, "S2": 1},
        }
        scenario = Scenario((s1, s2, s3), ConnectivityMatrix(rows), MatchingWeights(), None, 0)
        for seed in range(4):
            result = run_engine(scenario, meshed_map(scenario.ssp_ids), seed=seed)
            # supply 15 vs demand 11: exactly 4 kWh must face the Utility
            assert result.final_utility_kwh == pytest.approx(4.0, abs=1e-6)
            exported = sum(
                r.payload["amount_kwh"] for r in result.log if r.kind == CLAIM_KIND and r.dst == "S1"
            )
            sold_back = result.commitments["S1"].sell_backs()
            assert exported + sold_back == pytest.approx(10.0, abs=1e-6)

    def test_forged_claim_is_a_protocol_violation(self, pair_scenario, monkeypatch):
        from sspsim import protocol as protocol_module

        real = protocol_module._Agent.claim_against

        def inflated(self, src):
            cells = real(self, src)
            return {c: kwh * 50.0 for c, kwh in cells.items()} or cells

        monkeypatch.setattr(protocol_module._Agent, "claim_against", inflated)
        with pytest.raises(ProtocolViolationError, match="S1.*S2|S2.*S1"):
            run_engine(pair_scenario, meshed_map(pair_scenario.ssp_ids), seed=1)


class TestShufflePartners:
    def test_single_partner_identity(self):
        assert shuffle_partners(["only"], seed=3, ssp_id="s", round_index=1) == ["only"]

    def test_same_inputs_same_order(self):
        partners = [f"s{k}" for k in range(6)]
        assert shuffle_partners(partners, 5, "a", 2) == shuffle_partners(partners, 5, "a", 2)

    def test_neighboring_seeds_differ_somewhere(self):
        partners = ["s1", "s2", "s3", "s4"]
        differs = any(
            shuffle_partners(partners, 10, "a", r) != shuffle_partners(partners, 11, "a", r)
            for r in range(100)
        )
        assert differs

    def test_rounds_change_the_order(self):
        partners = ["s1", "s2", "s3", "s4"]
        orders = {tuple(shuffle_partners(partners, 2, "a", r)) for r in range(50)}
        assert len(orders) > 1


class TestAuditPrivacy:
    def test_engine_log_passes(self, pair_scenario):
        anm = meshed_map(pair_scenario.ssp_ids)
        result = run_engine(pair_scenario, anm, seed=1)
        report = audit_privacy(result.log, pair_scenario, anm, seed=1)
        assert report.passed and report.findings == []

    def test_forged_subscriber_id_fails(self, pair_scenario):
        anm = meshed_map(pair_scenario.ssp_ids)
        result = run_engine(pair_scenario, anm, seed=1)
        forged = list(result.log)
        offer = forged[0]
        forged[0] = LogRecord(
            offer.round_index,
            offer.kind,
            offer.src,
            offer.dst,
            dict(offer.payload) | {"subscriber_id": "S2.P1"},
        )
        report = audit_privacy(forged, pair_scenario, anm, seed=1)
        assert not report.passed
        assert any("subscriber" in f or "wire format" in f for f in report.findings)

    def test_tampered_aggregate_fails_replay(self, pair_scenario):
        anm = meshed_map(pair_scenario.ssp_ids)
        result = run_engine(pair_scenario, anm, seed=1)
        forged = list(result.log)
        offer = forged[0]
        payload = dict(offer.payload)
        payload["energy_kwh"] = payload["energy_kwh"] + 1.0
        forged[0] = LogRecord(offer.round_index, offer.kind, offer.src, offer.dst, payload)
        report = audit_privacy(forged, pair_scenario, anm, seed=1)
        assert not report.passed
        assert any("replay" in f for f in report.findings)

    def test_per_subscriber_quantity_vector_fails(self, pair_scenario):
        anm = meshed_map(pair_scenario.ssp_ids)
        result = run_engine(pair_scenario, anm, seed=1)
        forged = list(result.log)
        claim = next(r for r in forged if r.kind == CLAIM_KIND)
        idx = forged.index(claim)
        forged[idx] = LogRecord(
            claim.round_index,
            claim.kind,
            claim.src,
            claim.dst,
            {"amount_kwh": [2.0, 3.0]},
        )
        report = audit_privacy(forged, pair_scenario, anm, seed=1)
        assert not report.passed


@st.composite
def all_active_specs(draw) -> GeneratorSpec:
    """Small all-active populations, SSPs without consumers or producers and
    zero means included."""
    return GeneratorSpec(
        n_ssps=draw(st.integers(1, 8)),
        consumers_per_ssp=draw(st.integers(0, 4)),
        producers_per_ssp=draw(st.integers(0, 3)),
        demand_mean_kwh=draw(st.sampled_from([0.0, 6.0, 12.0])),
        supply_mean_kwh=draw(st.sampled_from([0.0, 10.0, 24.0])),
        noise_std_kwh=draw(st.sampled_from([0.0, 3.0])),
        seed=draw(st.integers(0, 2**16)),
    )


@settings(max_examples=100, deadline=None)
@given(all_active_specs(), st.integers(0, 2**16))
def test_meshed_all_active_run_ends_at_the_global_imbalance(spec, run_seed):
    # without flexibility or line bounds no run can trade less with the
    # Utility than |sum of statuses|, and the full mesh reaches that bound:
    # an optimality check that needs no centralized LP
    scenario = generate_scenario(spec)
    result = run_engine(scenario, meshed_map(scenario.ssp_ids), seed=run_seed)
    imbalance = abs(sum(energy_status(cfg) for cfg in scenario.ssps))
    assert result.final_utility_kwh == pytest.approx(imbalance, rel=0, abs=1e-9 * max(1.0, result.initial_abs_status_kwh))
