from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sspsim.scenario
from sspsim.model import LineConstraint, LineConstraintSet, PreferenceTable, SubscriberKind, _fits_float, energy_status, validate_scenario
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
from tests.test_model import stored_as_read

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
            local = [cfg.preferences.rank(consumer.id, p.id) for p in cfg.producers]
            partners = [cfg.preferences.rank(consumer.id, other.id) for other in scenario.ssps if other.id != cfg.id]
            assert max(local) < min(partners)

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
                "083974f4899c825efb9552803b915eb069d0906f321c9f28df998a9d1de642ea", 224_893,
                id="meshed-50",
            ),
            pytest.param(
                # its SSP ids cross the S99/S100 sort boundary
                GeneratorSpec(n_ssps=200, **STUDY1_SHAPE, seed=101),
                "c3f20ed044c0b52cce7ed701cdac8c8d5481492b2ff8dfbf49c78ccbeda52b97", 2_478_388,
                id="coalition-200",
            ),
            pytest.param(
                GeneratorSpec(
                    n_ssps=20, consumers_per_ssp=35, producers_per_ssp=10,
                    passive_consumers=10, passive_consumer_bound=0.15,
                    passive_producers=5, passive_producer_bound=0.10,
                    demand_mean_kwh=12.0, supply_mean_kwh=42.0, noise_std_kwh=3.0, seed=7,
                ),
                "97d17a9ba2af2516592fefcc4ae14eaf9f6d55959e303b1c9282acf644db0e57", 256_005,
                id="study2-balanced",
            ),
            pytest.param(
                GeneratorSpec(n_ssps=10, **STUDY1_SHAPE, seed=101),
                "ff476cd81e49d77ba9c344cfccc47ec831fdbefbd757bded596cb51f6a541b4e", 27_549,
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

    def test_non_string_keys_are_named_by_validation(self, worked_scenario):
        # a dict built in Python, not parsed from JSON, may carry other keys;
        # the connectivity rows are copied as they are, and validation names the key
        data = scenario_to_dict(worked_scenario)
        data["connectivity"]["AC1"] = {"AP1": 1, "AP2": 1, "PP1": 1, 7: 0, "U": 1}
        violations = validate_scenario(scenario_from_dict(data))
        assert [str(v) for v in violations] == ["7: connectivity-col-resolves (unknown column id in row AC1)"]

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
    st.integers(min_value=2**1023, max_value=2**1100),
    st.floats(),
    st.text(max_size=2),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fact=st.sampled_from(["rank", "link", "seed"]), value=SCALARS)
def test_any_rank_link_or_seed_loads_as_read_and_validation_judges_it(worked_scenario, fact, value):
    # the fixture is only read, so one instance can serve every example
    loaded = scenario_from_dict(scenario_to_dict(stored_as_read(worked_scenario, fact, value)))
    prefs = loaded.ssps[0].preferences
    stored = {
        "rank": prefs.ranks["AC2"][prefs.index["PP1"]],
        "link": loaded.connectivity.rows["AC2"]["PP1"],
        "seed": loaded.seed,
    }[fact]
    assert stored is value
    integer = isinstance(value, int) and not isinstance(value, bool)
    valid = {
        "rank": integer and value >= 1 and _fits_float(value),
        "link": not isinstance(value, bool) and value in (0, 1),
        "seed": integer and -(2**63) <= value < 2**63,
    }[fact]
    # a null rank is no rank
    rank_rule = "preference-covered" if value is None else "rank-positive-int"
    rule = {"rank": ("AC2", rank_rule), "link": ("AC2", "connectivity-binary"), "seed": ("seed", "seed-64bit")}
    assert [(v.entity, v.rule) for v in validate_scenario(loaded)] == ([] if valid else [rule[fact]])


# what a row may hold: a rank, a value validation refuses, or null for no rank
ROW_VALUES = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text(max_size=2))


@st.composite
def preference_tables(draw) -> PreferenceTable:
    """A header of any ids, duplicates included, and rows as long as it."""
    suppliers = draw(st.lists(st.text(max_size=3), max_size=5))
    row = st.tuples(*[ROW_VALUES] * len(suppliers))
    return PreferenceTable(tuple(suppliers), draw(st.dictionaries(st.text(max_size=3), row, max_size=4)))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=preference_tables())
def test_a_header_and_its_rows_load_as_written(worked_scenario, table):
    scenario = replace(worked_scenario, ssps=(replace(worked_scenario.ssps[0], preferences=table),))
    loaded = scenario_from_json(scenario_to_json(scenario)).ssps[0].preferences
    assert loaded == table
    # 1 == True, so the types are compared too
    assert {c: list(map(type, row)) for c, row in loaded.ranks.items()} == {
        c: list(map(type, row)) for c, row in table.ranks.items()
    }


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
    assert schema["properties"]["weights"]["properties"]["preference_mode"]["const"] == PREFERENCE_MODE
    assert data["weights"]["preference_mode"] == PREFERENCE_MODE == "coefficient"
    assert consumer["properties"]["kind"]["enum"] == [k.value for k in SubscriberKind if not k.is_producer]
    assert producer["properties"]["kind"]["enum"] == [k.value for k in SubscriberKind if k.is_producer]
