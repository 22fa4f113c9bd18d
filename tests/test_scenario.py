from __future__ import annotations

import hashlib
import json
import math
import os
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sspsim.scenario
from sspsim.model import UTILITY_ID, LineConstraint, LineConstraintSet, LinkBlock, PreferenceTable, SubscriberKind, energy_status, validate_scenario
from sspsim.scenario import (
    PREFERENCE_MODE,
    GeneratorSpec,
    GeneratorSpecError,
    ScenarioFormatError,
    generate_scenario,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_from_json,
    scenario_to_dict,
    scenario_to_json,
)
from tests.test_model import with_entry

STUDY1 = GeneratorSpec(n_ssps=20, consumers_per_ssp=10, producers_per_ssp=5, seed=7)
# the study-1 shape of the benchmark workloads
STUDY1_SHAPE = dict(consumers_per_ssp=10, producers_per_ssp=5, demand_mean_kwh=12.0, supply_mean_kwh=24.0, noise_std_kwh=3.0)
STUDY2 = GeneratorSpec(
    n_ssps=20,
    consumers_per_ssp=35,
    producers_per_ssp=10,
    passive_consumers=10,
    passive_consumer_bound=0.15,
    passive_producers=5,
    passive_producer_bound=0.10,
    seed=7,
)


class TestGenerate:
    def test_study1_shape_all_active(self):
        scenario = generate_scenario(STUDY1)
        assert len(scenario.ssps) == 20
        subscribers = [s for cfg in scenario.ssps for s in cfg.consumers + cfg.producers]
        assert len(subscribers) == 300
        assert all(s.bound == 0.0 for s in subscribers)
        assert all(s.kind in (SubscriberKind.ACTIVE_CONSUMER, SubscriberKind.ACTIVE_PRODUCER) for s in subscribers)

    def test_study2_passive_counts_and_bounds(self):
        scenario = generate_scenario(STUDY2)
        for cfg in scenario.ssps:
            pcs = [c for c in cfg.consumers if c.kind is SubscriberKind.PASSIVE_CONSUMER]
            pps = [p for p in cfg.producers if p.kind is SubscriberKind.PASSIVE_PRODUCER]
            assert len(pcs) == 10 and len(pps) == 5
            assert all(c.bound == 0.15 for c in pcs)
            assert all(p.bound == 0.10 for p in pps)
            assert len(cfg.consumers) == 35 and len(cfg.producers) == 10

    def test_generated_scenarios_validate_clean(self):
        for spec in (STUDY1, STUDY2):
            assert validate_scenario(generate_scenario(spec)) == []

    def test_zero_noise_makes_ssps_identical(self):
        spec = GeneratorSpec(n_ssps=4, consumers_per_ssp=3, producers_per_ssp=2, noise_std_kwh=0.0, seed=1)
        scenario = generate_scenario(spec)
        statuses = {energy_status(cfg) for cfg in scenario.ssps}
        assert len(statuses) == 1

    def test_uniform_priorities(self):
        scenario = generate_scenario(STUDY1)
        for cfg in scenario.ssps:
            assert all(c.priority == pytest.approx(0.1) for c in cfg.consumers)

    def test_partner_ranks_follow_local_ranks(self):
        scenario = generate_scenario(GeneratorSpec(n_ssps=3, consumers_per_ssp=2, producers_per_ssp=2, seed=5))
        cfg = scenario.ssps[0]
        for consumer in cfg.consumers:
            local = [cfg.preferences.get(consumer.id, p.id) for p in cfg.producers]
            partners = [cfg.preferences.get(consumer.id, other.id) for other in scenario.ssps if other.id != cfg.id]
            assert 0 < max(local) < min(partners)

    def test_invalid_specs_rejected(self):
        with pytest.raises(GeneratorSpecError):
            generate_scenario(GeneratorSpec(n_ssps=0, consumers_per_ssp=1, producers_per_ssp=1))
        with pytest.raises(GeneratorSpecError):
            generate_scenario(GeneratorSpec(n_ssps=1, consumers_per_ssp=2, producers_per_ssp=1, passive_consumers=3))
        with pytest.raises(GeneratorSpecError):
            generate_scenario(
                GeneratorSpec(n_ssps=1, consumers_per_ssp=1, producers_per_ssp=1, passive_consumer_bound=1.5)
            )
        with pytest.raises(GeneratorSpecError):
            generate_scenario(GeneratorSpec(n_ssps=1, consumers_per_ssp=1, producers_per_ssp=1, noise_std_kwh=-1.0))
        for name in ("demand_mean_kwh", "supply_mean_kwh", "noise_std_kwh"):
            for value in (math.nan, math.inf, -math.inf):
                spec = GeneratorSpec(n_ssps=1, consumers_per_ssp=1, producers_per_ssp=1, **{name: value})
                with pytest.raises(GeneratorSpecError, match=name):
                    generate_scenario(spec)
        for seed in (-1, 2**63):
            with pytest.raises(GeneratorSpecError, match="seed"):
                generate_scenario(GeneratorSpec(n_ssps=1, consumers_per_ssp=1, producers_per_ssp=1, seed=seed))
        generate_scenario(GeneratorSpec(n_ssps=1, consumers_per_ssp=1, producers_per_ssp=1, seed=2**63 - 1))


class TestPersistence:
    def test_same_spec_gives_identical_bytes(self):
        first = scenario_to_json(generate_scenario(STUDY1))
        second = scenario_to_json(generate_scenario(STUDY1))
        assert first == second

    @pytest.mark.parametrize(
        "spec, digest, size",
        [
            pytest.param(
                GeneratorSpec(n_ssps=50, **STUDY1_SHAPE, seed=101),
                "fc8c85995b36889e265c048f0c2b8d04a921accb2b71673a8fca24ca2ceea898", 187_634,
                id="meshed-50",
            ),
            pytest.param(
                # its SSP ids cross the S99/S100 sort boundary
                GeneratorSpec(n_ssps=200, **STUDY1_SHAPE, seed=101),
                "0cfb5ece491e8b23b0e2e64281cd850dc6c343781976e6bcfcde8046cf7beddd", 2_124_787,
                id="coalition-200",
            ),
            pytest.param(
                GeneratorSpec(
                    n_ssps=20, consumers_per_ssp=35, producers_per_ssp=10,
                    passive_consumers=10, passive_consumer_bound=0.15,
                    passive_producers=5, passive_producer_bound=0.10,
                    demand_mean_kwh=12.0, supply_mean_kwh=42.0, noise_std_kwh=3.0, seed=7,
                ),
                "714b5066eb6a15d0c42f395d6a7fa175a827906f4b37b269dcc6e5e526fa9f25", 183_726,
                id="study2-balanced",
            ),
            pytest.param(
                GeneratorSpec(n_ssps=10, **STUDY1_SHAPE, seed=101),
                "943f84dec728ce478b00623977845bcf2e37314d18b91a98217f56f0106adb38", 22_530,
                id="centralized-10",
            ),
        ],
    )
    def test_generator_bytes_are_pinned(self, spec, digest, size):
        # the same spec must give the same file in every version of the
        # generator, not only twice in one process
        text = scenario_to_json(generate_scenario(spec)).encode("utf-8")
        assert (hashlib.sha256(text).hexdigest(), len(text)) == (digest, size)

    def test_file_is_compact_json(self):
        # an indent would send json to its pure-Python encoder
        text = scenario_to_json(generate_scenario(STUDY1))
        assert text.count("\n") == 1 and text.endswith("}\n")
        assert ", " not in text and ": " not in text

    def test_round_trip_identity(self, tmp_path):
        scenario = generate_scenario(STUDY2)
        path = tmp_path / "scenario.json"
        save_scenario(scenario, str(path))
        assert load_scenario(str(path)) == scenario

    def test_truncated_file_names_offset(self, tmp_path):
        scenario = generate_scenario(GeneratorSpec(n_ssps=1, consumers_per_ssp=1, producers_per_ssp=1, seed=2))
        text = scenario_to_json(scenario)
        with pytest.raises(ScenarioFormatError, match="offset"):
            scenario_from_json(text[: len(text) // 2])

    def test_unknown_field_rejected_by_name(self):
        scenario = generate_scenario(GeneratorSpec(n_ssps=1, consumers_per_ssp=1, producers_per_ssp=1, seed=2))
        data = json.loads(scenario_to_json(scenario))
        data["surprise"] = 1
        with pytest.raises(ScenarioFormatError, match="surprise"):
            scenario_from_json(json.dumps(data))

    def test_missing_field_rejected_by_name(self):
        scenario = generate_scenario(GeneratorSpec(n_ssps=1, consumers_per_ssp=1, producers_per_ssp=1, seed=2))
        data = json.loads(scenario_to_json(scenario))
        del data["weights"]["alpha"]
        with pytest.raises(ScenarioFormatError, match="alpha"):
            scenario_from_json(json.dumps(data))

    def test_unknown_kind_rejected_by_name(self):
        scenario = generate_scenario(GeneratorSpec(n_ssps=1, consumers_per_ssp=1, producers_per_ssp=1, seed=2))
        data = json.loads(scenario_to_json(scenario))
        data["ssps"][0]["consumers"][0]["kind"] = "XX"
        with pytest.raises(ScenarioFormatError, match="kind"):
            scenario_from_json(json.dumps(data))

    def test_a_link_column_that_is_not_a_string_is_named_by_the_loader(self, worked_scenario):
        # a link block's header lists column ids, and the loader refuses one
        # that is not a string, as every other id
        data = scenario_to_dict(worked_scenario)
        block = data["connectivity"]["consumers"]["S1"]
        block["cols"].append(7)
        for row in block["rows"].values():
            row.append(0)
        with pytest.raises(ScenarioFormatError, match=r"^connectivity\.consumers\[S1\]\.cols\[4\]: expected a string, got 7$"):
            scenario_from_dict(data)

    def test_each_link_block_goes_to_its_ssp_and_an_ssp_without_one_has_no_links(self):
        scenario = generate_scenario(GeneratorSpec(n_ssps=3, consumers_per_ssp=2, producers_per_ssp=1, seed=2))
        data = scenario_to_dict(scenario)
        blocks = data["connectivity"]["consumers"]
        # the writer emits one block per SSP, in SSP order; the loader reads them in any order
        assert list(blocks) == ["S01", "S02", "S03"]
        data["connectivity"]["consumers"] = {"S03": blocks["S03"], "S01": blocks["S01"]}
        loaded = scenario_from_dict(data)
        no_links = LinkBlock.from_rows((), {})
        assert [cfg.links for cfg in loaded.ssps] == [scenario.ssps[0].links, no_links, scenario.ssps[2].links]
        assert [str(v) for v in validate_scenario(loaded)] == [
            f"S02.C0{k}: utility-reachable (consumer must have N(i, U) = 1)" for k in (1, 2)
        ]

    def test_a_row_key_that_is_not_a_string_is_named_by_validation(self, worked_scenario):
        # a dict built in Python, not parsed from JSON, may carry other keys;
        # a row key is read as its str, and validation names the row
        data = scenario_to_dict(worked_scenario)
        data["connectivity"]["consumers"]["S1"]["rows"][7] = [0, 0, 0, 0]
        violations = validate_scenario(scenario_from_dict(data))
        assert [str(v) for v in violations] == ["7: connectivity-row-resolves (unknown row id)"]

    def test_a_version_2_file_is_refused_naming_schema_version(self, worked_scenario):
        data = scenario_to_dict(worked_scenario)
        data["schema_version"] = 2
        with pytest.raises(ScenarioFormatError, match=r"^schema_version: unsupported value 2, expected 3$"):
            scenario_from_dict(data)

    def test_a_supplier_id_that_is_not_a_string_is_named_by_the_loader(self, worked_scenario):
        # a preference header lists supplier ids, and the loader refuses one
        # that is not a string, as every other id
        data = scenario_to_dict(worked_scenario)
        data["ssps"][0]["preferences"]["suppliers"].append(7)
        for row in data["ssps"][0]["preferences"]["ranks"].values():
            row.append(2)
        with pytest.raises(ScenarioFormatError, match=r"^ssps\[0\]\.preferences\.suppliers\[3\]: expected a string, got 7$"):
            scenario_from_dict(data)


# what JSON (or a dict built in Python) may hold where a rank, a link or the seed belongs
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**62, max_value=2**64),
    st.integers(min_value=2**1023, max_value=2**1100),
    st.floats(),
    st.sampled_from([0.0, -0.0, 1.0, 2.0]),
    st.text(max_size=2),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fact=st.sampled_from(["rank", "link", "seed"]), value=SCALARS)
def test_a_table_holds_what_it_can_and_validation_judges_it(worked_scenario, fact, value):
    # the fixture is only read, so one instance can serve every example
    data = with_entry(scenario_to_dict(worked_scenario), fact, value)
    integer = isinstance(value, int) and not isinstance(value, bool)
    held = {
        "rank": value is None or (integer and 1 <= value < 2**63),
        "link": type(value) in (int, float) and value in (0, 1),
        "seed": True,
    }[fact]
    if not held:
        where = {"rank": "ssps[0].preferences.ranks[AC2][2]", "link": "connectivity.consumers[S1].rows[AC2][2]"}[fact]
        with pytest.raises(ScenarioFormatError, match=rf"^{re.escape(where)}: expected .*, got {re.escape(repr(value))}$"):
            scenario_from_dict(data)
        return
    loaded = scenario_from_dict(data)
    stored = {
        "rank": loaded.ssps[0].preferences.get("AC2", "PP1") or None,
        "link": loaded.ssps[0].links.get("AC2", "PP1"),
        "seed": loaded.seed,
    }[fact]
    # the seed is stored as read, NaN included
    assert stored is value if fact == "seed" else stored == value
    # a null rank is no rank, which AC2's link to PP1 needs; a link of 0
    # leaves AC2 without PP1, which then needs no rank
    violation = {
        "rank": ("AC2", "preference-covered") if value is None else None,
        "link": None,
        "seed": None if integer and -(2**63) <= value < 2**63 else ("seed", "seed-64bit"),
    }[fact]
    assert [(v.entity, v.rule) for v in validate_scenario(loaded)] == ([] if violation is None else [violation])


# what a row may hold: a rank of at least 1, or null for no rank
ROW_VALUES = st.one_of(st.none(), st.integers(1, 2**63 - 1))


@st.composite
def preference_tables(draw) -> PreferenceTable:
    """A header of any ids, duplicates included, and rows as long as it."""
    suppliers = draw(st.lists(st.text(max_size=3), max_size=5))
    row = st.lists(ROW_VALUES, min_size=len(suppliers), max_size=len(suppliers))
    return PreferenceTable.from_rows(suppliers, draw(st.dictionaries(st.text(max_size=3), row, max_size=4)))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=preference_tables())
def test_a_header_and_its_rows_load_as_written(worked_scenario, table):
    scenario = replace(worked_scenario, ssps=(replace(worked_scenario.ssps[0], preferences=table),))
    loaded = scenario_from_json(scenario_to_json(scenario)).ssps[0].preferences
    assert loaded == table
    assert loaded.values.dtype == table.values.dtype


@settings(max_examples=40, deadline=None)
@given(
    spec=st.builds(
        GeneratorSpec,
        n_ssps=st.integers(1, 5),
        consumers_per_ssp=st.integers(0, 3),
        producers_per_ssp=st.integers(0, 3),
        seed=st.integers(0, 2**63 - 1),
    )
)
def test_a_generated_scenario_loads_as_it_was_generated(tmp_path_factory, spec):
    scenario = generate_scenario(spec)
    path = tmp_path_factory.mktemp("round-trip") / "scenario.json"
    save_scenario(scenario, str(path))
    loaded = load_scenario(str(path))
    tables = [(loaded.ssp_links, scenario.ssp_links)]
    tables += [(table(got), table(want)) for got, want in zip(loaded.ssps, scenario.ssps) for table in (lambda cfg: cfg.preferences, lambda cfg: cfg.links)]
    row_ids = [*scenario.ssp_ids, *(c.id for cfg in scenario.ssps for c in cfg.consumers), "X"]
    col_ids = [*scenario.ssp_ids, *(p.id for cfg in scenario.ssps for p in cfg.producers), UTILITY_ID, "X"]
    for got, want in tables:
        assert (got.rows, got.cols) == (want.rows, want.cols)
        assert np.array_equal(got.values, want.values)
        for row_id in row_ids:
            for col_id in col_ids:
                assert got.get(row_id, col_id) == want.get(row_id, col_id)
    assert loaded == scenario


def test_schema_matches_what_the_writer_emits(worked_scenario):
    # the schema lists every object's fields in the order scenario_to_dict writes them
    with open(os.path.join(os.path.dirname(sspsim.scenario.__file__), "scenario.schema.json"), encoding="utf-8") as fh:
        schema = json.load(fh)
    lines = LineConstraintSet((LineConstraint("AC1", "AP1", 0.0, 5.0),))
    data = scenario_to_dict(replace(worked_scenario, line_constraints=lines))
    ssp = schema["properties"]["ssps"]["items"]
    consumer = ssp["properties"]["consumers"]["items"]
    producer = ssp["properties"]["producers"]["items"]
    assert schema["required"] == list(data)
    assert schema["properties"]["weights"]["required"] == list(data["weights"])
    assert ssp["required"] == list(data["ssps"][0])
    assert consumer["required"] == list(data["ssps"][0]["consumers"][0])
    assert producer["required"] == list(data["ssps"][0]["producers"][0])
    assert schema["properties"]["line_constraints"]["items"]["required"] == list(data["line_constraints"][0])
    links = schema["properties"]["connectivity"]
    assert links["required"] == list(data["connectivity"])
    assert links["properties"]["ssps"]["required"] == list(data["connectivity"]["ssps"])
    assert links["properties"]["consumers"]["additionalProperties"]["required"] == list(data["connectivity"]["consumers"]["S1"])
    assert schema["properties"]["schema_version"]["const"] == data["schema_version"] == 3
    assert schema["properties"]["weights"]["properties"]["preference_mode"]["const"] == PREFERENCE_MODE
    assert data["weights"]["preference_mode"] == PREFERENCE_MODE == "coefficient"
    assert consumer["properties"]["kind"]["enum"] == [k.value for k in SubscriberKind if not k.is_producer]
    assert producer["properties"]["kind"]["enum"] == [k.value for k in SubscriberKind if k.is_producer]
