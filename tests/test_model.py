from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from sspsim.model import (
    UTILITY_ID,
    CommitmentMatrix,
    LineConstraint,
    LineConstraintSet,
    LinkBlock,
    MatchingWeights,
    PreferenceTable,
    Scenario,
    SSPConfig,
    Subscriber,
    SubscriberKind,
    energy_status,
    utility_interaction,
    validate_scenario,
)
from sspsim.scenario import GeneratorSpec, generate_scenario
from tests.conftest import link_rows, linked, preference_table
from tests.oracles import reference_validate_connectivity, reference_validate_preferences


# what a scenario may hold where a rank, a link or the seed belongs, and the
# one violation validate_scenario gives for it on the worked example
JUDGED_BY_VALIDATION = [
    pytest.param(fact, value, violation, id=f"{fact}-{value!r}")
    for fact, value, violation in [
        # a null rank is no rank, and AC2 is linked to PP1
        ("rank", None, "AC2: preference-covered (no rank for local producer PP1)"),
        ("seed", "1", "seed: seed-64bit (seed '1' outside 64-bit range)"),
        ("seed", True, "seed: seed-64bit (seed True outside 64-bit range)"),
    ]
]

# what a rank or link table cannot hold: building the table refuses it, and
# the loader names the entry of the worked example's file
REFUSED_BY_THE_TABLE = [
    pytest.param(fact, value, f"{where}: expected {expected}, got {value!r}", id=f"{fact}-{value!r}")
    for fact, where, expected, values in [
        (
            "rank",
            "ssps[0].preferences.ranks[AC2][2]",
            "a 64-bit integer rank of at least 1, or null",
            [0, -1, True, False, 1.5, 2.0, "2", 2**63, -(2**63) - 1],
        ),
        ("link", "connectivity.consumers[S1].rows[AC2][2]", "a link of 0 or 1", [2, -1, True, 2.5, 2.0, "1", None, 2**63]),
    ]
    for value in values
]


# a kind that puts AC2 or PP1 on the other side: the loader reads a kind under
# consumers or producers alike, and only validate_scenario places it
MISPLACED_KINDS = [
    pytest.param("consumer-kind", "AP", "AC2: kind-placement (producer listed under consumers)", id="AP-under-consumers"),
    pytest.param("producer-kind", "PC", "PP1: kind-placement (consumer listed under producers)", id="PC-under-producers"),
]


def stored_as_read(scenario: Scenario, fact: str, value: object) -> Scenario:
    """The worked example with ``value`` as its (AC2, PP1) rank, its (AC2, PP1)
    link, its seed, or the kind of AC2 (``consumer-kind``) or PP1 (``producer-kind``)."""
    if fact == "seed":
        return replace(scenario, seed=value)
    cfg = scenario.ssps[0]
    if fact.endswith("-kind"):
        side, sub_id = ("consumers", "AC2") if fact == "consumer-kind" else ("producers", "PP1")
        subs = tuple(replace(s, kind=SubscriberKind(value)) if s.id == sub_id else s for s in getattr(cfg, side))
        return replace(scenario, ssps=(replace(cfg, **{side: subs}),))
    kind, name = (PreferenceTable, "preferences") if fact == "rank" else (LinkBlock, "links")
    table = getattr(cfg, name)
    rows = table.to_rows()
    rows["AC2"][table.col_at["PP1"]] = value
    return replace(scenario, ssps=(replace(cfg, **{name: kind.from_rows(table.cols, rows)}),))


def with_entry(data: dict, fact: str, value: object) -> dict:
    """The worked example's file with ``value`` as its (AC2, PP1) rank or link, or as its seed."""
    if fact == "rank":
        data["ssps"][0]["preferences"]["ranks"]["AC2"][2] = value
    elif fact == "link":
        data["connectivity"]["consumers"]["S1"]["rows"]["AC2"][2] = value
    else:
        data["seed"] = value
    return data


def small_ssp(priorities=(0.5, 0.5), bounds=(0.0, 0.0)) -> SSPConfig:
    consumers = (
        Subscriber("c1", SubscriberKind.ACTIVE_CONSUMER, 4.0, bound=bounds[0], priority=priorities[0]),
        Subscriber("c2", SubscriberKind.ACTIVE_CONSUMER, 6.0, bound=bounds[1], priority=priorities[1]),
    )
    producers = (Subscriber("p1", SubscriberKind.ACTIVE_PRODUCER, 8.0),)
    prefs = preference_table({"c1": {"p1": 1}, "c2": {"p1": 1}})
    return SSPConfig("s1", consumers, producers, prefs)


def scenario_of(ssp: SSPConfig, rows=None) -> Scenario:
    if rows is None:
        rows = {c.id: {"p1": 1, UTILITY_ID: 1} for c in ssp.consumers}
    return Scenario(*linked(rows, (ssp,)), MatchingWeights(), None, 1)


class TestValidateScenario:
    def test_all_active_scenario_is_clean(self):
        assert validate_scenario(scenario_of(small_ssp())) == []

    def test_priority_sum_violation_names_the_ssp(self):
        bad = scenario_of(small_ssp(priorities=(0.5, 0.4)))
        violations = validate_scenario(bad)
        assert len(violations) == 1
        assert violations[0].entity == "s1"
        assert violations[0].rule == "priority-sum"

    def test_unreachable_utility_is_flagged(self):
        ssp = small_ssp()
        rows = {"c1": {"p1": 1, UTILITY_ID: 1}, "c2": {"p1": 1, UTILITY_ID: 0}}
        violations = validate_scenario(scenario_of(ssp, rows))
        assert [v.rule for v in violations] == ["utility-reachable"]
        assert violations[0].entity == "c2"

    @pytest.mark.parametrize("field", ["energy", "bound", "priority"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_subscriber_number_names_entity_and_field(self, field, value):
        ssp = small_ssp()
        c1 = replace(ssp.consumers[0], **{field: value})
        bad = scenario_of(replace(ssp, consumers=(c1, ssp.consumers[1])))
        finite = [v for v in validate_scenario(bad) if v.rule == "finite"]
        assert [(v.entity, v.detail.split()[0]) for v in finite] == [("c1", field)]

    @pytest.mark.parametrize("name", ["w14", "w2", "w35", "alpha", "beta"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_weight_is_named(self, name, value):
        bad = replace(scenario_of(small_ssp()), weights=replace(MatchingWeights(), **{name: value}))
        finite = [v for v in validate_scenario(bad) if v.rule == "finite"]
        assert [(v.entity, v.detail.split()[0]) for v in finite] == [("weights", name)]

    @pytest.mark.parametrize(
        "weights",
        [
            # alpha * (beta - rank) overflows, above or below every rank
            {"alpha": 10.0, "beta": 1e308},
            {"alpha": 10.0, "beta": -1e308},
            # w2 and every reward are finite; the stretch margin above the largest reward is not
            {"w14": 0.0, "w35": 1.79e308, "alpha": 0.0, "w2": 1.79e308},
        ],
        ids=["beta-above-ranks", "beta-below-ranks", "stretch-margin"],
    )
    def test_finite_weights_whose_cost_per_kwh_overflows_are_named(self, weights):
        bad = replace(scenario_of(small_ssp()), weights=replace(MatchingWeights(), **weights))
        found = [str(v) for v in validate_scenario(bad) if v.rule == "objective-finite"]
        assert found == ["weights: objective-finite (largest cost per kWh inf)"]

    @pytest.mark.parametrize(
        "energy,found",
        [
            # the largest cost per kWh is w2 = 10, so 10 * (1e307 + 14) kWh is still a float
            (1e307, []),
            (1e308, ["weights x energy total: objective-finite (largest cost per kWh 10.0 times 1e+308 kWh overflows)"]),
        ],
        ids=["product-finite", "product-overflows"],
    )
    def test_objective_bound_fires_only_once_cost_times_energy_overflows(self, energy, found):
        ssp = small_ssp()
        c1 = replace(ssp.consumers[0], energy=energy)
        scenario = scenario_of(replace(ssp, consumers=(c1, ssp.consumers[1])))
        assert [str(v) for v in validate_scenario(scenario) if v.rule == "objective-finite"] == found

    @pytest.mark.parametrize(
        "min_kwh,max_kwh,rule,detail",
        [
            (0.0, float("nan"), "line-bound-defined", "max_kwh nan"),
            (float("nan"), 3.0, "line-bound-defined", "min_kwh nan"),
            (float("inf"), float("inf"), "line-bound-defined", "min_kwh inf"),
            (-2.0, -1.0, "line-max-nonnegative", "max -1.0 < 0; flows are non-negative"),
            (4.0, 3.0, "line-bounds-ordered", "min 4.0 > max 3.0"),
        ],
    )
    def test_bad_line_bound_names_pair_and_field(self, min_kwh, max_kwh, rule, detail):
        lines = LineConstraintSet((LineConstraint("c1", "p1", min_kwh, max_kwh),))
        bad = replace(scenario_of(small_ssp()), line_constraints=lines)
        assert [(v.entity, v.rule, v.detail) for v in validate_scenario(bad)] == [("(c1, p1)", rule, detail)]

    def test_second_line_constraint_for_a_pair_is_named(self):
        lines = LineConstraintSet(
            (LineConstraint("c1", "p1", 0.0, 1.0), LineConstraint("c2", "p1", 0.0, 1.0), LineConstraint("c1", "p1", 5.0, 9.0))
        )
        bad = replace(scenario_of(small_ssp()), line_constraints=lines)
        assert [(v.entity, v.rule) for v in validate_scenario(bad)] == [("(c1, p1)", "line-unique")]

    @pytest.mark.parametrize("min_kwh,max_kwh", [(0.0, 2.0), (0.0, float("inf"))])
    def test_sell_back_line_bound_is_named(self, min_kwh, max_kwh):
        # nothing decides a sell-back, so no bound on one could be kept
        lines = LineConstraintSet((LineConstraint(UTILITY_ID, "p1", min_kwh, max_kwh),))
        bad = replace(scenario_of(small_ssp()), line_constraints=lines)
        assert [(v.entity, v.rule) for v in validate_scenario(bad)] == [("(U, p1)", "line-not-sell-back")]

    @pytest.mark.parametrize(
        "row_id,col_id",
        [
            ("X", "S1.P1"),
            ("S1.C1", "X"),
            ("S1", "S2"),
            ("S1.P1", UTILITY_ID),
            ("S1.C1", "S2.P1"),
            ("S1.C1", "S1"),
            ("S1.C1", "S2"),
            ("S1.C1", "S2.C1"),
        ],
        ids=["unknown-row", "unknown-col", "ssp-row", "producer-row", "remote-producer", "own-ssp", "other-ssp", "other-consumer"],
    )
    def test_line_on_a_flow_no_run_decides_is_named(self, pair_scenario, row_id, col_id):
        lines = LineConstraintSet((LineConstraint(row_id, col_id, 0.0, 0.0),))
        bad = replace(pair_scenario, line_constraints=lines)
        assert [(v.entity, v.rule) for v in validate_scenario(bad)] == [(f"({row_id}, {col_id})", "line-decided-flow")]

    @pytest.mark.parametrize("ssps_linked", [False, True], ids=["ssps-unlinked", "ssps-linked"])
    def test_line_to_another_ssp_is_named_however_the_ssps_are_linked(self, pair_scenario, ssps_linked):
        # no SSP's LP decides S1.C1's flow from S2, linked or not: the line is
        # refused as such, and no link rule judges its positive minimum
        rows = link_rows(pair_scenario)
        if not ssps_linked:
            del rows["S1"], rows["S2"]
        ssps, ssp_links = linked(rows, pair_scenario.ssps)
        lines = LineConstraintSet((LineConstraint("S1.C1", "S2", 3.0, 9.0),))
        scenario = replace(pair_scenario, ssps=ssps, ssp_links=ssp_links, line_constraints=lines)
        assert [(v.entity, v.rule) for v in validate_scenario(scenario)] == [("(S1.C1, S2)", "line-decided-flow")]

    @pytest.mark.parametrize("col_id", [UTILITY_ID, "S1.P1"], ids=["utility", "own-producer"])
    def test_line_on_a_decided_flow_is_valid(self, pair_scenario, col_id):
        lines = LineConstraintSet((LineConstraint("S1.C1", col_id, 0.0, 2.0),))
        assert validate_scenario(replace(pair_scenario, line_constraints=lines)) == []

    @pytest.mark.parametrize("min_kwh,max_kwh", [(float("-inf"), float("inf")), (0.0, float("inf")), (1.0, 1.0)])
    def test_open_or_pinned_line_bound_is_valid(self, min_kwh, max_kwh):
        lines = LineConstraintSet((LineConstraint("c1", "p1", min_kwh, max_kwh),))
        assert validate_scenario(replace(scenario_of(small_ssp()), line_constraints=lines)) == []

    def test_active_subscriber_with_bound_is_flagged(self):
        ssp = small_ssp(bounds=(0.2, 0.0))
        rules = {v.rule for v in validate_scenario(scenario_of(ssp))}
        assert "active-bound-zero" in rules

    def test_duplicate_and_reserved_ids(self):
        consumers = (Subscriber("x", SubscriberKind.ACTIVE_CONSUMER, 1.0, priority=1.0),)
        producers = (Subscriber("x", SubscriberKind.ACTIVE_PRODUCER, 1.0),)
        ssp = SSPConfig(UTILITY_ID, consumers, producers, preference_table({"x": {"x": 1}}))
        rows = {"x": {"x": 1, UTILITY_ID: 1}}
        rules = {v.rule for v in validate_scenario(Scenario(*linked(rows, (ssp,)), MatchingWeights(), None, 0))}
        assert "unique-ids" in rules and "reserved-id" in rules

    def test_nonpositive_w2_is_flagged(self):
        bad = replace(scenario_of(small_ssp()), weights=MatchingWeights(w2=0.0))
        assert any(v.rule == "w2-positive" for v in validate_scenario(bad))

    def test_missing_preference_rank_is_flagged(self):
        consumers = (Subscriber("c1", SubscriberKind.ACTIVE_CONSUMER, 4.0, priority=1.0),)
        producers = (Subscriber("p1", SubscriberKind.ACTIVE_PRODUCER, 8.0),)
        ssp = SSPConfig("s1", consumers, producers, preference_table({}))
        violations = validate_scenario(scenario_of(ssp, {"c1": {"p1": 1, UTILITY_ID: 1}}))
        assert any(v.rule == "preference-covered" for v in violations)

    def test_unresolvable_preference_index_is_flagged(self):
        consumers = (Subscriber("c1", SubscriberKind.ACTIVE_CONSUMER, 4.0, priority=1.0),)
        producers = (Subscriber("p1", SubscriberKind.ACTIVE_PRODUCER, 8.0),)
        ssp = SSPConfig("s1", consumers, producers, preference_table({"c1": {"p1": 1, "ghost": 2}}))
        rules = {v.rule for v in validate_scenario(scenario_of(ssp, {"c1": {"p1": 1, UTILITY_ID: 1}}))}
        assert "preference-col-resolves" in rules

    def test_asymmetric_interssp_block_is_flagged(self):
        ssp_a = small_ssp()
        consumers = (Subscriber("c3", SubscriberKind.ACTIVE_CONSUMER, 1.0, priority=1.0),)
        ssp_b = SSPConfig("s2", consumers, (), preference_table({"c3": {"s1": 1}}))
        rows = {
            "c1": {"p1": 1, UTILITY_ID: 1},
            "c2": {"p1": 1, UTILITY_ID: 1},
            "c3": {UTILITY_ID: 1},
            "s1": {"s2": 1},
            "s2": {},
        }
        sc = Scenario(*linked(rows, (ssp_a, ssp_b)), MatchingWeights(), None, 0)
        assert any(v.rule == "interssp-symmetric" for v in validate_scenario(sc))

    @pytest.mark.parametrize("fact,value,violation", JUDGED_BY_VALIDATION + MISPLACED_KINDS)
    def test_rank_link_or_seed_of_the_wrong_type_is_a_violation(self, worked_scenario, fact, value, violation):
        # violations are data: no value makes the check raise
        assert [str(v) for v in validate_scenario(stored_as_read(worked_scenario, fact, value))] == [violation]

    @pytest.mark.parametrize("fact,value,detail", REFUSED_BY_THE_TABLE)
    def test_a_value_no_table_holds_is_refused_where_the_table_is_built(self, worked_scenario, fact, value, detail):
        entry = detail.split(": ", 1)[1]
        with pytest.raises(ValueError) as refused:
            stored_as_read(worked_scenario, fact, value)
        assert str(refused.value) == f"[AC2][2]: {entry}"

    def test_a_link_block_header_listing_a_column_twice_is_named(self, worked_scenario):
        rows = {"AC1": [1, 1, 1, 1, 0], "AC2": [1, 1, 1, 1, 0], "AC3": [1, 1, 1, 1, 0], "PC1": [1, 1, 1, 1, 0]}
        block = LinkBlock.from_rows(("AP1", "AP2", "PP1", UTILITY_ID, "AP2"), rows)
        scenario = replace(worked_scenario, ssps=(replace(worked_scenario.ssps[0], links=block),))
        assert [str(v) for v in validate_scenario(scenario)] == [
            "S1: connectivity-header-unique (column AP2 listed more than once)"
        ]
        # the first AP2 column is the one read
        assert block.get("AC1", "AP2")

    @pytest.mark.parametrize(
        "case,expected",
        [
            ("ssp-in-a-consumer-block", ["S1: connectivity-row-resolves (not a row of the block of SSP S1)"]),
            ("consumer-in-the-ssp-block", ["AC1: connectivity-row-resolves (not a row of the SSP block)"]),
            # N(AC1, U) is read from AC1's own block, so the SSP block's copy without it decides nothing
            ("consumer-in-both-blocks", ["AC1: connectivity-row-resolves (not a row of the SSP block)"]),
        ],
    )
    def test_a_row_outside_its_block_is_named(self, worked_scenario, case, expected):
        # a row goes in the SSP block, or in the block of its own SSP's consumers
        cfg = worked_scenario.ssps[0]
        home = cfg.links
        rows, width = home.to_rows(), len(home.cols)
        no_utility = [int(col_id != UTILITY_ID) for col_id in home.cols]
        ssp_links, links = {
            "ssp-in-a-consumer-block": lambda: (worked_scenario.ssp_links, LinkBlock.from_rows(home.cols, {**rows, "S1": [0] * width})),
            "consumer-in-the-ssp-block": lambda: (LinkBlock.from_rows(home.cols, {"AC1": [1] * width}), home),
            "consumer-in-both-blocks": lambda: (LinkBlock.from_rows(home.cols, {"AC1": no_utility}), home),
        }[case]()
        scenario = replace(worked_scenario, ssps=(replace(cfg, links=links),), ssp_links=ssp_links)
        assert [str(v) for v in validate_scenario(scenario)] == expected
        assert validate_scenario(scenario) == reference_validate_connectivity(scenario, ["S1"])

    def test_producer_with_a_priority_is_a_violation(self, worked_scenario):
        # the file format has no producer priority, so only a scenario built in memory can carry one
        cfg = worked_scenario.ssps[0]
        producers = tuple(replace(p, priority=0.5) if p.id == "AP2" else p for p in cfg.producers)
        scenario = replace(worked_scenario, ssps=(replace(cfg, producers=producers),))
        assert [str(v) for v in validate_scenario(scenario)] == [
            "AP2: producer-priority (producers carry no serving priority)"
        ]

    def test_validation_is_idempotent(self):
        sc = scenario_of(small_ssp(priorities=(0.1, 0.2)))
        assert validate_scenario(sc) == validate_scenario(sc)


class TestScenarioLookup:
    def test_an_id_listed_twice_finds_its_first_ssp_and_validation_names_it(self):
        first = small_ssp()
        second = replace(first, consumers=(), producers=())
        scenario = replace(scenario_of(first), ssps=(first, second))
        assert scenario.ssp("s1") is first
        named = [v for v in validate_scenario(scenario) if v.rule == "unique-ids"]
        assert [(v.entity, v.detail) for v in named] == [("s1", "duplicate SSP id")]

    def test_an_unknown_id_raises_key_error(self):
        with pytest.raises(KeyError, match="unknown SSP id 's2'"):
            scenario_of(small_ssp()).ssp("s2")


class TestEnergyStatus:
    def test_paper_deficit_case(self):
        consumers = tuple(
            Subscriber(f"c{i}", SubscriberKind.ACTIVE_CONSUMER, 12.71, priority=0.1) for i in range(10)
        )
        producers = tuple(Subscriber(f"p{i}", SubscriberKind.ACTIVE_PRODUCER, 15.22) for i in range(5))
        ssp = SSPConfig("s", consumers, producers, preference_table({}))
        assert energy_status(ssp) == pytest.approx(-51.0, abs=1e-6)

    def test_empty_ssp_is_zero(self):
        assert energy_status(SSPConfig("s", (), (), preference_table({}))) == 0.0

    def test_five_kwh_gap(self):
        consumers = (Subscriber("c", SubscriberKind.ACTIVE_CONSUMER, 57.0, priority=1.0),)
        producers = (Subscriber("p", SubscriberKind.ACTIVE_PRODUCER, 52.0),)
        assert energy_status(SSPConfig("s", consumers, producers, preference_table({}))) == pytest.approx(-5.0)

    @given(scale=st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
    def test_linearity_under_scaling(self, scale):
        def build(c):
            consumers = (Subscriber("c", SubscriberKind.ACTIVE_CONSUMER, 7.5 * c, priority=1.0),)
            producers = (Subscriber("p", SubscriberKind.ACTIVE_PRODUCER, 3.25 * c),)
            return SSPConfig("s", consumers, producers, preference_table({}))

        assert energy_status(build(scale)) == pytest.approx(scale * energy_status(build(1.0)), abs=1e-9)


class TestUtilityInteraction:
    def test_zero_matrix(self):
        cm = CommitmentMatrix(["c1"], ["p1"])
        assert utility_interaction(cm) == 0.0

    def test_purchase_only(self):
        cm = CommitmentMatrix(["c1"], ["p1"])
        cm.set("c1", UTILITY_ID, 5.0)
        assert utility_interaction(cm) == 5.0

    def test_sell_back_only(self):
        cm = CommitmentMatrix(["c1"], ["p1"])
        cm.set(UTILITY_ID, "p1", 22.5)
        assert utility_interaction(cm) == 22.5

    def test_zero_iff_utility_row_and_column_zero(self):
        cm = CommitmentMatrix(["c1", "c2"], ["p1"])
        cm.set("c1", "p1", 3.0)
        assert utility_interaction(cm) == 0.0
        cm.set("c2", UTILITY_ID, 0.25)
        assert utility_interaction(cm) > 0.0

    def test_diagonal_utility_cell_is_rejected(self):
        cm = CommitmentMatrix(["c1"], ["p1"])
        with pytest.raises(ValueError):
            cm.set(UTILITY_ID, UTILITY_ID, 1.0)


@settings(max_examples=200, deadline=None)
@given(
    cells=st.lists(
        st.tuples(
            st.sampled_from(["c1", "c2", "c3", "c4", UTILITY_ID]),
            st.sampled_from(["p1", "p2", "S2", UTILITY_ID]),
            st.floats(1e-12, 1e16, allow_nan=False),
        ),
        max_size=25,
    )
)
def test_column_totals_in_one_pass_equal_the_per_column_sums(cells):
    # cells arrive in any order, overwrites included; addition order matters
    # at these magnitudes, so only a sum in consumer order is the same float
    cm = CommitmentMatrix(["c1", "c2", "c3", "c4"], ["p1", "p2", "S2"])
    for row_id, col_id, kwh in cells:
        if (row_id, col_id) != (UTILITY_ID, UTILITY_ID):
            cm.set(row_id, col_id, kwh)
    totals = cm.committed_by_column()
    for col_id in cm.col_ids():
        assert totals.get(col_id, 0.0) == sum(cm.get(i, col_id) for i in cm.consumer_ids)
    assert set(totals) == {col for (row, col) in cm.cells() if row != UTILITY_ID}


def test_column_totals_of_cells_set_out_of_consumer_order_equal_the_sorted_sum():
    # 1e16 + 1 + 1 is 1e16 in floats, and 1 + 1 + 1e16 is 1e16 + 2: the
    # total of a column depends on the order it is added in
    cm = CommitmentMatrix(["c1", "c2", "c3"], ["p1", "p2"])
    for row_id, col_id, kwh in [("c3", "p1", 1e16), ("c2", "p1", 1.0), (UTILITY_ID, "p1", 5.0), ("c1", "p1", 1.0), ("c3", "p2", 0.1), ("c1", "p2", 0.2)]:
        cm.set(row_id, col_id, kwh)
    order = {c: k for k, c in enumerate(cm.consumer_ids)}
    by_consumer = sorted((order[r], c, kwh) for (r, c), kwh in cm.cells().items() if r in order)
    expected: dict[str, float] = {}
    for _, col_id, kwh in by_consumer:
        expected[col_id] = expected.get(col_id, 0.0) + kwh
    totals = cm.committed_by_column()
    assert {c: kwh.hex() for c, kwh in totals.items()} == {c: kwh.hex() for c, kwh in expected.items()}
    assert totals["p1"] == 1.0 + 1.0 + 1e16 != 1e16 + 1.0 + 1.0


IDS = st.sampled_from(["c1", "c2", "p1", "S2", UTILITY_ID])


@settings(max_examples=200, deadline=None)
@given(
    lines=st.lists(st.builds(LineConstraint, IDS, IDS, st.sampled_from([0.0, 0.5]), st.sampled_from([1.0, 2.0])), max_size=12),
    row_id=IDS,
    col_id=IDS,
)
def test_line_lookup_equals_the_linear_scan(lines, row_id, col_id):
    # duplicated pairs included: until validation rejects them, the first
    # line of a pair is its line
    expected = next((lc for lc in lines if (lc.row_id, lc.col_id) == (row_id, col_id)), None)
    assert LineConstraintSet(tuple(lines)).of_row(row_id).get(col_id) is expected


# what each kind holds, 0 meaning no entry
HOLDS = {PreferenceTable: lambda value: value >= 0, LinkBlock: lambda value: value in (0, 1)}


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(list(HOLDS)),
    values=arrays(
        np.int64,
        array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=4),
        elements=st.one_of(st.just(0), st.just(1), st.integers(-2, 3), st.integers(-(2**63), 2**63 - 1)),
    ),
)
def test_the_array_constructor_and_from_rows_hold_the_same_values(kind, values):
    rows = tuple(f"r{k}" for k in range(values.shape[0]))
    cols = tuple(f"c{k}" for k in range(values.shape[1]))
    # a file writes a rank of 0, no rank, as null
    written = {r: [None if kind is PreferenceTable and v == 0 else v for v in row] for r, row in zip(rows, values.tolist())}
    entries = [(r, k, v) for r, row in zip(rows, values.tolist()) for k, v in enumerate(row)]
    refused = [(r, k, v) for r, k, v in entries if not HOLDS[kind](v)]
    if not refused:
        table = kind(rows, cols, values.copy())
        assert kind.from_rows(cols, written) == table
        assert table.to_rows() == written
    else:
        with pytest.raises(ValueError):
            kind(rows, cols, values.copy())
        assert_refused_first(kind, cols, written, refused[0])
    if kind is PreferenceTable and any(v == 0 for _, _, v in entries):
        # a file that writes 0 for no rank is refused there too
        assert_refused_first(kind, cols, dict(zip(rows, values.tolist())), next(e for e in entries if e[2] < 1))


def assert_refused_first(kind, cols, written, entry):
    """from_rows names ``entry``, the first it refuses in row-major order."""
    r, k, v = entry
    with pytest.raises(ValueError, match=rf"^\[{r}\]\[{k}\]: expected .*, got {v}$"):
        kind.from_rows(cols, written)


MUTATIONS = (
    "drop-local-rank",
    "drop-partner-rank",
    "drop-column",
    "unknown-supplier",
    "duplicate-supplier",
    "stray-rank-row",
    "missing-rank-row",
    "asymmetric",
    "self-link",
    "no-utility",
    "unknown-column",
    "unknown-row",
)


@st.composite
def mutated_scenarios(draw) -> Scenario:
    """A generated 2-6-SSP scenario, SSPs in any order, with one to four breaks in its ranks or connectivity."""
    spec = GeneratorSpec(
        n_ssps=draw(st.integers(2, 6)),
        consumers_per_ssp=draw(st.integers(1, 3)),
        producers_per_ssp=draw(st.integers(0, 3)),
        seed=draw(st.integers(0, 2**16)),
    )
    scenario = generate_scenario(spec)
    # each SSP's header and rows, edited in place
    headers = {cfg.id: list(cfg.preferences.cols) for cfg in scenario.ssps}
    ranks = {cfg.id: cfg.preferences.to_rows() for cfg in scenario.ssps}
    rows = link_rows(scenario)
    for kind in draw(st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=4)):
        cfg = draw(st.sampled_from(scenario.ssps))
        header, table = headers[cfg.id], ranks[cfg.id]
        consumer = draw(st.sampled_from(cfg.consumers)).id
        row = table.get(consumer)
        others = [s for s in scenario.ssp_ids if s != cfg.id]
        other = draw(st.sampled_from(others))
        if kind in ("drop-local-rank", "drop-partner-rank") and row is not None:
            # a header position may be gone already (drop-column)
            local = [p.id for p in cfg.producers]
            if kind == "drop-local-rank":
                dropped = [draw(st.sampled_from(local))] if local else []
            else:
                dropped = draw(st.lists(st.sampled_from(others), min_size=1, unique=True))
            for supplier_id in dropped:
                if supplier_id in header:
                    row[header.index(supplier_id)] = None
        elif kind == "drop-column" and header:
            k = draw(st.integers(0, len(header) - 1))
            del header[k]
            for values in table.values():
                del values[k]
        elif kind == "unknown-supplier":
            header.append("X.P99")
            for c, values in table.items():
                values.append(draw(st.integers(1, 3)) if c == consumer else None)
        elif kind == "duplicate-supplier" and header:
            header.append(draw(st.sampled_from(header)))
            for values in table.values():
                values.append(draw(st.sampled_from([1, 2, None])))
        elif kind == "stray-rank-row":
            stranger = draw(st.sampled_from([p.id for p in cfg.producers] + [f"{other}.C01", "X.C99"]))
            table[stranger] = [1 if s == other else None for s in header]
        elif kind == "missing-rank-row":
            table.pop(consumer, None)
        elif kind == "asymmetric":
            if draw(st.booleans()):
                rows[cfg.id].pop(other, None)
            else:
                rows[cfg.id][other] = 0
        elif kind == "self-link":
            rows[cfg.id][cfg.id] = 1
        elif kind == "no-utility":
            rows[consumer].pop(UTILITY_ID, None)
        elif kind == "unknown-column":
            rows[draw(st.sampled_from([consumer, cfg.id]))]["X.P99"] = 1
        elif kind == "unknown-row":
            rows["X.C99"] = {other: 1}
    # SSP order sets the order of the partner checks, so it is drawn too
    ssps = tuple(
        replace(cfg, preferences=PreferenceTable.from_rows(headers[cfg.id], ranks[cfg.id]))
        for cfg in draw(st.permutations(scenario.ssps))
    )
    ssps, ssp_links = linked(rows, ssps)
    return replace(scenario, ssps=ssps, ssp_links=ssp_links)


@settings(max_examples=300, deadline=None)
@given(scenario=mutated_scenarios())
def test_rank_and_connectivity_violations_match_the_per_entry_loop(scenario):
    # nothing but ranks and connectivity is broken, so the loop versions of
    # those two checks give every violation, in order
    expected = reference_validate_connectivity(scenario, list(scenario.ssp_ids)) + reference_validate_preferences(scenario)
    assert validate_scenario(scenario) == expected
