from __future__ import annotations

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sspsim.protocol
from sspsim.coalition import ActualNeighborhoodMap, anm_from_csv, empty_map, form_coalitions, map_from_coalitions, meshed_map
from sspsim.matching import MatchingInfeasibleError, PairTable, solve_centralized, solve_dist_matching, view_for_ssp
from sspsim.model import (
    UTILITY_ID,
    LineConstraint,
    LineConstraintSet,
    LinkBlock,
    MatchingWeights,
    Scenario,
    SSPConfig,
    Subscriber,
    SubscriberKind,
    energy_status,
    utility_interaction,
)
from sspsim.protocol import (
    CLAIM_KIND,
    IMPROVE_TOL,
    OFFER_KIND,
    SEND_EXCESS,
    ConvergenceError,
    InvalidScenarioError,
    LogRecord,
    ProtocolViolationError,
    _Agent,
    _partner_lists,
    audit_privacy,
    run_engine,
    shuffle_partners,
)
from sspsim.scenario import GeneratorSpec, generate_scenario
from tests.conftest import linked, preference_table
from tests.test_matching import assert_lines_hold, centralized_scenarios, study2_scenario

AC = SubscriberKind.ACTIVE_CONSUMER
AP = SubscriberKind.ACTIVE_PRODUCER

# the study-1 population: 20 SSPs x (10 AC + 5 AP)
STUDY1 = GeneratorSpec(n_ssps=20, consumers_per_ssp=10, producers_per_ssp=5, demand_mean_kwh=12.0,
                       supply_mean_kwh=24.0, noise_std_kwh=3.0, seed=101)


def triangle_scenario() -> Scenario:
    """S1 has 18 kWh spare; S2 needs 10, S3 needs 8."""
    s1 = SSPConfig(
        "S1", (), (Subscriber("S1.P1", AP, 18.0),), preference_table({})
    )
    s2 = SSPConfig(
        "S2",
        (Subscriber("S2.C1", AC, 10.0, priority=1.0),),
        (),
        preference_table({"S2.C1": {"S1": 1, "S3": 2}}),
    )
    s3 = SSPConfig(
        "S3",
        (Subscriber("S3.C1", AC, 8.0, priority=1.0),),
        (),
        preference_table({"S3.C1": {"S1": 1, "S2": 2}}),
    )
    rows = {
        "S2.C1": {UTILITY_ID: 1},
        "S3.C1": {UTILITY_ID: 1},
        "S1": {"S2": 1, "S3": 1},
        "S2": {"S1": 1, "S3": 1},
        "S3": {"S1": 1, "S2": 1},
    }
    return Scenario(*linked(rows, (s1, s2, s3)), MatchingWeights(), None, 0)


class TestPartnerLists:
    @staticmethod
    def scenario() -> Scenario:
        """Six SSPs with the links S01-S02 and S03-S05, which the coalition map has, cut from the SSP links."""
        scenario = generate_scenario(GeneratorSpec(n_ssps=6, consumers_per_ssp=2, producers_per_ssp=1, supply_mean_kwh=24.0, seed=3))
        n = scenario.ssp_links
        values = n.values.copy()
        for a, b in (("S01", "S02"), ("S03", "S05")):
            values[n.row_at[a], n.col_at[b]] = values[n.row_at[b], n.col_at[a]] = 0
        return replace(scenario, ssp_links=LinkBlock(n.rows, n.cols, values))

    @pytest.mark.parametrize("kind", ["meshed", "coalition", "file", "foreign-and-reversed-edges"])
    def test_the_edge_index_gives_the_pairwise_lists(self, kind):
        # one index over the map's edges, against a connected() and an SSP link read per pair
        scenario = self.scenario()
        ids = scenario.ssp_ids
        if kind == "meshed":
            anm = meshed_map(ids)
        elif kind == "coalition":
            statuses = {cfg.id: energy_status(cfg) for cfg in scenario.ssps}
            anm = map_from_coalitions(form_coalitions(statuses, max_group_size=3))
        elif kind == "file":
            anm = anm_from_csv("ssp_a,ssp_b,present\nS01,S02,1\nS01,S03,1\nS04,S03,1\nS05,S06,0\nS03,S05,1\n")
        else:
            # an SSP the scenario lacks, and a pair written high id first, which connected() does not read
            anm = ActualNeighborhoodMap(("S01", "S02", "S04", "S09"), frozenset({("S01", "S09"), ("S04", "S01"), ("S02", "S04")}))
        expected = {
            a: [b for b in sorted(ids) if b != a and anm.connected(a, b) and scenario.ssp_links.get(a, b)]
            for a in sorted(ids)
        }
        got = _partner_lists(scenario, anm)
        assert list(got.items()) == list(expected.items())
        assert any(got.values()) or kind == "foreign-and-reversed-edges"


def test_a_view_holds_its_own_ssps_links_and_no_other():
    # each SSP matches inside its own domain: the view of an SSP, and the view
    # each engine agent keeps, hold that SSP's block and no other SSP's
    scenario = generate_scenario(GeneratorSpec(n_ssps=4, consumers_per_ssp=2, producers_per_ssp=2, seed=3))
    for ssp_id, partners in _partner_lists(scenario, meshed_map(scenario.ssp_ids)).items():
        cfg = scenario.ssp(ssp_id)
        assert view_for_ssp(scenario, ssp_id).links is cfg.links
        assert _Agent(cfg, scenario, partners, scenario.weights).view.links is cfg.links
        assert cfg.links.rows == tuple(c.id for c in cfg.consumers)


class TestRunEngine:
    def test_single_ssp_collapses_to_local_solve(self, worked_scenario):
        result = run_engine(worked_scenario, meshed_map(worked_scenario.ssp_ids), seed=1)
        assert result.iterations == 1
        local_cm, local_fx, _, _ = solve_dist_matching(
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
            preference_table({"S2.C1": {"S1": 1}}),
        )
        surplus = SSPConfig("S1", (), (Subscriber("S1.P1", AP, 51.0),), preference_table({}))
        rows = {"S2.C1": {UTILITY_ID: 1}, "S1": {"S2": 1}, "S2": {"S1": 1}}
        scenario = Scenario(*linked(rows, (surplus, deficit)), MatchingWeights(), None, 0)
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
            *linked({"S1.C1": {"S1.P1": 1, UTILITY_ID: 0}}, pair_scenario.ssps),
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

    def test_line_to_another_ssp_rejected(self, pair_scenario):
        # whether S2 ever offers is not S1's choice: S1's LP cannot keep a
        # bound on S1.C1's flow from S2
        lines = LineConstraintSet((LineConstraint("S1.C1", "S2", 0.0, 5.0),))
        broken = replace(pair_scenario, line_constraints=lines)
        with pytest.raises(InvalidScenarioError, match=r"\(S1.C1, S2\): line-decided-flow"):
            run_engine(broken, meshed_map(broken.ssp_ids))

    def test_sell_back_line_bound_rejected(self):
        # with P1 at 10 kWh and C1 at 4 kWh, 6 kWh go back to the Utility
        # whatever bound cm(U, S1.P1) names
        s1 = SSPConfig(
            "S1",
            (Subscriber("S1.C1", AC, 4.0, priority=1.0),),
            (Subscriber("S1.P1", AP, 10.0),),
            preference_table({"S1.C1": {"S1.P1": 1}}),
        )
        rows = {"S1.C1": {"S1.P1": 1, UTILITY_ID: 1}}
        lines = LineConstraintSet((LineConstraint(UTILITY_ID, "S1.P1", 0.0, 2.0),))
        broken = Scenario(*linked(rows, (s1,)), MatchingWeights(), lines, 0)
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
            preference_table({"S1.C1": {"S2": 1, "S3": 2}}),
        )
        s2 = SSPConfig("S2", (), (Subscriber("S2.P1", AP, 5.0),), preference_table({}))
        s3 = SSPConfig(
            "S3",
            (Subscriber("S3.C1", AC, 6.0, priority=1.0),),
            (),
            preference_table({"S3.C1": {"S1": 1, "S2": 2}}),
        )
        rows = {
            "S1.C1": {"S1.P1": 0, UTILITY_ID: 1},
            "S3.C1": {UTILITY_ID: 1},
            "S1": {"S2": 1, "S3": 1},
            "S2": {"S1": 1, "S3": 1},
            "S3": {"S1": 1, "S2": 1},
        }
        scenario = Scenario(*linked(rows, (s1, s2, s3)), MatchingWeights(), None, 0)
        for seed in range(4):
            result = run_engine(scenario, meshed_map(scenario.ssp_ids), seed=seed)
            # supply 15 vs demand 11: exactly 4 kWh must face the Utility
            assert result.final_utility_kwh == pytest.approx(4.0, abs=1e-6)
            exported = sum(
                r.payload["amount_kwh"] for r in result.log if r.kind == CLAIM_KIND and r.dst == "S1"
            )
            sold_back = result.commitments["S1"].sell_backs()
            assert exported + sold_back == pytest.approx(10.0, abs=1e-6)

    def test_a_tiny_offer_worth_more_than_the_acceptance_margin_is_taken(self, pair_scenario):
        # S2 has 1e-6 kWh spare: worth about 1e-6 to S1, far above IMPROVE_TOL,
        # so pricing must not answer it without a solve
        s1, s2 = pair_scenario.ssps
        s2 = replace(s2, producers=(replace(s2.producers[0], energy=5.000001),))
        scenario = replace(pair_scenario, ssps=(s1, s2))
        result = run_engine(scenario, meshed_map(scenario.ssp_ids), seed=1)
        assert result.commitments["S1"].get("S1.C1", "S2") == pytest.approx(1e-6, rel=1e-6)
        assert result.offers_priced_out == 0

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

    @pytest.mark.parametrize(
        "index,forge,finding",
        [
            (0, lambda r: replace(r, kind="gossip"), "message 0 (gossip S2->S1): unknown message kind"),
            (0, lambda r: replace(r, dst="S2"), "message 0 (offer S2->S2): endpoints must be two distinct SSP ids"),
            (1, lambda r: replace(r, src="S1.C1"), "message 1 (claim S1.C1->S2): endpoints must be two distinct SSP ids"),
            (
                0,
                lambda r: replace(r, payload={"energy_kwh": 5.0, "token": SEND_EXCESS}),
                "message 0 (offer S2->S1): payload is missing 'bound'",
            ),
            (
                0,
                lambda r: replace(r, payload=r.payload | {"token": "SEND_ALL"}),
                "message 0 (offer S2->S1): bad token 'SEND_ALL'",
            ),
            (
                1,
                lambda r: replace(r, payload={"amount_kwh": -1.0}),
                "message 1 (claim S1->S2): payload field 'amount_kwh' is negative",
            ),
            (
                1,
                lambda r: replace(r, payload={"amount_kwh": -1}),
                "message 1 (claim S1->S2): payload field 'amount_kwh' is negative",
            ),
            (
                0,
                lambda r: replace(r, payload=r.payload | {"bound": math.nan}),
                "message 0 (offer S2->S1): payload field 'bound' is not finite",
            ),
            (
                1,
                lambda r: replace(r, payload={"amount_kwh": math.inf}),
                "message 1 (claim S1->S2): payload field 'amount_kwh' is not finite",
            ),
            (1, None, "log has 1 messages, deterministic replay produced 2"),
        ],
        ids=[
            "unknown-kind", "self-addressed", "subscriber-endpoint", "missing-field", "bad-token", "negative",
            "negative-int", "nan", "inf", "short-log",
        ],
    )
    def test_each_forgery_is_named(self, pair_scenario, index, forge, finding):
        # the engine's log is an offer S2->S1 of 5 kWh and the claim S1->S2 of 5 kWh
        anm = meshed_map(pair_scenario.ssp_ids)
        log = list(run_engine(pair_scenario, anm, seed=1).log)
        assert [(r.kind, r.src, r.dst) for r in log] == [(OFFER_KIND, "S2", "S1"), (CLAIM_KIND, "S1", "S2")]
        if forge is None:
            del log[index:]
        else:
            log[index] = forge(log[index])
        report = audit_privacy(log, pair_scenario, anm, seed=1)
        assert not report.passed and report.findings[0] == finding
        # a message that differs from the engine's also fails the replay
        assert len(report.findings) == (1 if forge is None else 2)


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


@settings(max_examples=100, deadline=None)
@given(all_active_specs())
def test_centralized_all_active_baseline_ends_at_the_global_imbalance(spec):
    # the same bound for the global LP: over the full mesh it places
    # min(supply, demand), and the Utility takes or gives only the rest
    scenario = generate_scenario(spec)
    cm, _, _ = solve_centralized(scenario)
    statuses = [energy_status(cfg) for cfg in scenario.ssps]
    expected = abs(sum(statuses))
    assert utility_interaction(cm) == pytest.approx(expected, rel=0, abs=1e-9 * max(1.0, sum(map(abs, statuses))))


@settings(max_examples=60, deadline=None)
@given(all_active_specs(), st.integers(1, 8), st.integers(0, 2**16))
def test_coalition_all_active_run_ends_at_the_sum_of_group_imbalances(spec, max_group_size, run_seed):
    # inside a coalition the run reaches the group's own imbalance, as the
    # full mesh reaches the global one; nothing crosses between coalitions
    scenario = generate_scenario(spec)
    statuses = {cfg.id: energy_status(cfg) for cfg in scenario.ssps}
    coalitions = form_coalitions(statuses, max_group_size)
    result = run_engine(scenario, map_from_coalitions(coalitions), seed=run_seed)
    expected = sum(abs(sum(statuses[ssp_id] for ssp_id in group)) for group in coalitions.groups)
    assert result.final_utility_kwh == pytest.approx(expected, rel=0, abs=1e-9 * max(1.0, result.initial_abs_status_kwh))


@settings(max_examples=60, deadline=None)
@given(centralized_scenarios(), st.integers(1, 4), st.integers(0, 2**16))
def test_every_line_a_run_accepts_holds_in_its_result(scenario, max_group_size, run_seed):
    # every line bounds a flow that one SSP's LP decides alone, so the
    # centralized baseline and the engine, on the mesh and on coalitions,
    # keep every line of every result they return
    try:
        cm, _, _ = solve_centralized(scenario)
    except MatchingInfeasibleError:
        cm = None
    else:
        assert_lines_hold(scenario, cm.get)
    statuses = {cfg.id: energy_status(cfg) for cfg in scenario.ssps}
    home = {c.id: cfg.id for cfg in scenario.ssps for c in cfg.consumers}
    for anm in (meshed_map(scenario.ssp_ids), map_from_coalitions(form_coalitions(statuses, max_group_size))):
        try:
            result = run_engine(scenario, anm, seed=run_seed)
        except MatchingInfeasibleError as error:
            # an offer only adds columns, so the SSP named cannot meet its lines without one
            named = next(ssp_id for ssp_id in scenario.ssp_ids if repr(ssp_id) in str(error))
            with pytest.raises(MatchingInfeasibleError):
                solve_dist_matching(view_for_ssp(scenario, named), scenario.weights, scenario.line_constraints)
            continue
        assert cm is not None  # the engine's trades are a plan of the centralized LP
        assert_lines_hold(scenario, lambda row_id, col_id: result.commitments[home[row_id]].get(row_id, col_id))


def test_coalition_maps_send_fewer_messages_than_the_mesh():
    # the paper's trade-off on study-1 at run seed 5: smaller coalitions cost
    # fewer messages and more Utility interaction
    scenario = generate_scenario(STUDY1)
    statuses = {cfg.id: energy_status(cfg) for cfg in scenario.ssps}
    meshed = run_engine(scenario, meshed_map(scenario.ssp_ids), seed=5)
    runs = [
        run_engine(scenario, map_from_coalitions(form_coalitions(statuses, size)), seed=5) for size in (2, 4, 8)
    ]
    messages = [len(run.log) for run in [*runs, meshed]]
    assert messages == sorted(messages) and len(set(messages)) == len(messages)
    finals = [run.final_utility_kwh for run in [*runs, meshed]]
    assert all(later <= earlier + 1e-6 for earlier, later in zip(finals, finals[1:]))


def test_infeasible_solve_without_an_offer_still_raises(monkeypatch):
    def infeasible(view, *_, **__):
        raise MatchingInfeasibleError(f"matching LP for {view.ssp_id!r} infeasible")

    monkeypatch.setattr(sspsim.protocol, "solve_dist_matching", infeasible)
    scenario = study2_scenario(n_ssps=6)
    with pytest.raises(MatchingInfeasibleError, match="'S01'"):
        run_engine(scenario, meshed_map(scenario.ssp_ids), seed=1)


def capped_pair(short: str, spare: str) -> Scenario:
    """Two SSPs: ``short`` has a 10 kWh consumer, capped at 1 kWh from the
    Utility, and a 5 kWh producer; ``spare`` has 5 kWh to spare."""
    ssps = []
    for ssp_id, partner, demand, supply in ((short, spare, 10.0, 5.0), (spare, short, 5.0, 10.0)):
        consumer, producer = f"{ssp_id}.C1", f"{ssp_id}.P1"
        ssps.append(SSPConfig(
            ssp_id, (Subscriber(consumer, AC, demand, priority=1.0),), (Subscriber(producer, AP, supply),),
            preference_table({consumer: {producer: 1, partner: 2}}),
        ))
    rows = {f"{short}.C1": {f"{short}.P1": 1, UTILITY_ID: 1}, f"{spare}.C1": {f"{spare}.P1": 1, UTILITY_ID: 1}}
    rows |= {short: {spare: 1}, spare: {short: 1}}
    lines = LineConstraintSet((LineConstraint(f"{short}.C1", UTILITY_ID, 0.0, 1.0),))
    return Scenario(*linked(rows, sorted(ssps, key=lambda cfg: cfg.id)), MatchingWeights(), lines, 7)


@pytest.mark.parametrize("short, spare", [("S1", "S2"), ("S2", "S1")], ids=["short-ssp-first", "short-ssp-second"])
def test_a_capped_ssp_waits_for_offers_however_the_ssps_are_named(short, spare):
    # the short SSP's LP is infeasible without an offer; solved before the
    # spare SSP offers (named S1) or with its offer (named S2), it is met by
    # the offer and the run ends where the centralized baseline does
    scenario = capped_pair(short, spare)
    with pytest.raises(MatchingInfeasibleError):
        solve_dist_matching(view_for_ssp(scenario, short), scenario.weights, scenario.line_constraints)
    result = run_engine(scenario, meshed_map(scenario.ssp_ids), seed=1)
    assert result.final_utility_kwh == utility_interaction(solve_centralized(scenario)[0]) == 0.0
    assert_lines_hold(scenario, result.commitments[short].get)


def passive_study2() -> Scenario:
    """Twelve study-2 SSPs with supply a little above demand (3 x 27 against
    6 x 12 kWh per SSP, before noise): offers flow on the mesh, and many
    re-solves of an offer return exactly ``best_solution`` from a degenerate
    LP, whose prices then replace the accepted ones."""
    return study2_scenario(n_ssps=12, supply_mean_kwh=27.0)


def differential_cases():
    """Engine inputs with every kind of offer the pricing has to judge."""
    study1 = generate_scenario(STUDY1)
    statuses = {cfg.id: energy_status(cfg) for cfg in study1.ssps}
    no_preference = replace(study1, weights=MatchingWeights(alpha=0.0))
    passive = passive_study2()
    study2 = study2_scenario(n_ssps=6)
    # a [0, 1000] kWh (consumer, U) line bounds every purchase column, so no
    # demand row starts on its purchase and every solve runs phase 1
    utility_lines = replace(
        study2,
        line_constraints=LineConstraintSet(
            tuple(LineConstraint(c.id, UTILITY_ID, 0.0, 1000.0) for cfg in study2.ssps for c in cfg.consumers)
        ),
    )
    # a 1 kWh minimum on each SSP's first (consumer, local producer) cell: an
    # offer only adds partner columns, so the LP without it still embeds in
    # the LP with it and its objective still bounds what the offer can gain
    local_floors = replace(
        study2,
        line_constraints=LineConstraintSet(
            tuple(LineConstraint(cfg.consumers[0].id, cfg.producers[0].id, 1.0, 50.0) for cfg in study2.ssps)
        ),
    )
    return {
        "study1-meshed": (study1, meshed_map(study1.ssp_ids)),
        "study1-coalition": (study1, map_from_coalitions(form_coalitions(statuses, 4))),
        "study1-no-preference": (no_preference, meshed_map(no_preference.ssp_ids)),
        "study2-passive-meshed": (passive, meshed_map(passive.ssp_ids)),
        "study2-utility-lines": (utility_lines, meshed_map(utility_lines.ssp_ids)),
        "study2-local-line-floors": (local_floors, meshed_map(local_floors.ssp_ids)),
    }


@pytest.mark.parametrize(
    "case",
    [
        "study1-meshed", "study1-coalition", "study1-no-preference", "study2-passive-meshed", "study2-utility-lines",
        "study2-local-line-floors",
    ],
)
def test_priced_out_solves_change_no_result(case, monkeypatch):
    scenario, anm = differential_cases()[case]
    skipped = priced_out = 0
    for seed in (1, 2, 3):
        priced = run_engine(scenario, anm, seed=seed)
        with monkeypatch.context() as always_solve:
            always_solve.setattr(PairTable, "offer_can_improve", lambda *_: True)
            full = run_engine(scenario, anm, seed=seed)
        assert full.offers_priced_out == 0
        assert replace(priced, lp_solves=full.lp_solves, offers_priced_out=0) == full
        skipped += full.lp_solves - priced.lp_solves
        priced_out += priced.offers_priced_out
    assert skipped == priced_out > 0


def test_lp_solves_counts_every_matching_solve(monkeypatch):
    calls = []
    solve = sspsim.protocol.solve_dist_matching
    monkeypatch.setattr(sspsim.protocol, "solve_dist_matching", lambda *a, **k: calls.append(a[0]) or solve(*a, **k))
    scenario = study2_scenario(n_ssps=6)
    result = run_engine(scenario, meshed_map(scenario.ssp_ids), seed=2)
    assert result.lp_solves == len(calls) > len(scenario.ssps)
    offers = sum(1 for record in result.log if record.kind == OFFER_KIND)
    # every offer is solved or priced out; the other solves are the agents'
    # first ones made in their own sweep turn (S01's at least)
    assert 1 <= len(calls) - (offers - result.offers_priced_out) <= len(scenario.ssps)


def test_a_non_improving_solve_prices_out_what_the_accepted_prices_let_through(monkeypatch):
    # spy on every agent: an offer priced out by the prices of a solve that
    # was not accepted, which the prices of the accepted solve would have
    # sent to the solver, is a solve the certificate saved
    scenario = passive_study2()
    anm = meshed_map(scenario.ssp_ids)
    accepted: dict[str, dict[str, float]] = {}
    saved = []
    solve_and_accept = _Agent.solve_and_accept

    def spy(agent, transient=None):
        priced_out = agent.offers_priced_out
        certificate = (agent.floor, agent.prices)
        improved = solve_and_accept(agent, transient)
        if improved:
            accepted[agent.cfg.id] = agent.prices
        elif agent.offers_priced_out > priced_out and agent.prices is not accepted[agent.cfg.id]:
            assert (agent.floor, agent.prices) == certificate
            offer = (transient[0], transient[1] * (1.0 + transient[2]))
            if agent.table.offer_can_improve(accepted[agent.cfg.id], offer, IMPROVE_TOL / 2):
                saved.append((agent.cfg.id, transient[0]))
        return improved

    with monkeypatch.context() as patched:
        patched.setattr(_Agent, "solve_and_accept", spy)
        priced = run_engine(scenario, anm, seed=1)
    assert len(saved) >= 5
    with monkeypatch.context() as always_solve:
        always_solve.setattr(PairTable, "offer_can_improve", lambda *_: True)
        full = run_engine(scenario, anm, seed=1)
    assert replace(priced, lp_solves=full.lp_solves, offers_priced_out=0) == full


def stubbed_agent(monkeypatch, objective_below_best: float) -> tuple[_Agent, tuple]:
    """S01 of six study-2 SSPs after its first solve, and its certificate;
    its later solves are stubbed to return the accepted solution at
    ``best_solution - objective_below_best`` with other prices."""
    scenario = study2_scenario(n_ssps=6)
    partners = [s for s in scenario.ssp_ids if s != "S01"]
    agent = _Agent(scenario.ssp("S01"), scenario, partners, scenario.weights)
    assert agent.solve_and_accept()
    certificate = (agent.floor, agent.prices)
    assert agent.floor == agent.best_solution
    stub = (agent.cm, agent.fx, agent.best_solution - objective_below_best, dict.fromkeys(agent.prices, 0.0))
    monkeypatch.setattr(sspsim.protocol, "solve_dist_matching", lambda *_, **__: stub)
    return agent, certificate


def solve_anyway(agent: _Agent, transient: tuple[str, float, float], monkeypatch) -> bool:
    with monkeypatch.context() as always_solve:
        always_solve.setattr(PairTable, "offer_can_improve", lambda *_: True)
        return agent.solve_and_accept(transient)


def test_a_solve_below_half_the_margin_leaves_the_certificate(monkeypatch):
    agent, certificate = stubbed_agent(monkeypatch, 0.75 * IMPROVE_TOL)
    assert not solve_anyway(agent, ("S02", 5.0, 0.0), monkeypatch)
    assert (agent.floor, agent.prices) == certificate
    assert agent.prices is certificate[1]


def test_a_non_improving_solve_hands_its_duals_over(monkeypatch):
    agent, certificate = stubbed_agent(monkeypatch, 0.25 * IMPROVE_TOL)
    assert not solve_anyway(agent, ("S02", 5.0, 0.0), monkeypatch)
    assert agent.floor == certificate[0] - 0.25 * IMPROVE_TOL
    assert set(agent.prices.values()) == {0.0}
    # at prices 0 an offer gains up to its best reward per kWh; the floor
    # sits a quarter of the margin below best_solution, so only a gain below
    # a quarter of the margin is priced out
    gain = max(agent.table.partner_reward(c.id, "S04") for c in agent.cfg.consumers)
    solves = agent.lp_solves
    assert not agent.solve_and_accept(("S04", 0.2 * IMPROVE_TOL / gain, 0.0))
    assert (agent.lp_solves, agent.offers_priced_out) == (solves, 1)
    assert not agent.solve_and_accept(("S04", 0.3 * IMPROVE_TOL / gain, 0.0))
    assert (agent.lp_solves, agent.offers_priced_out) == (solves + 1, 1)
