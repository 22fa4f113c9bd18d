from __future__ import annotations

import itertools

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sspsim.coalition import (
    ActualNeighborhoodMap,
    BeliefNeighborhoodMap,
    CoalitionSet,
    anm_from_csv,
    anm_to_csv,
    bnm_to_csv,
    empty_map,
    form_coalitions,
    initial_bnm,
    map_from_coalitions,
    meshed_map,
    should_delegate,
    snapshot_anm,
    update_bnm,
)
from sspsim.model import energy_status
from sspsim.scenario import GeneratorSpec, generate_scenario
from tests.oracles import reference_form_coalitions


def groups_as_sets(coalitions: CoalitionSet) -> set[frozenset[str]]:
    return set(coalitions.groups)


class TestFormCoalitions:
    def test_complementary_pair_merges(self):
        result = form_coalitions({"a": 5.0, "b": -5.0}, max_group_size=2)
        assert groups_as_sets(result) == {frozenset({"a", "b"})}

    def test_three_way_greedy_matches_exhaustive_best(self):
        statuses = {"s1": 5.0, "s2": -5.0, "s3": 7.0}
        result = form_coalitions(statuses, max_group_size=2)
        assert groups_as_sets(result) == {frozenset({"s1", "s2"}), frozenset({"s3"})}

        def partition_cost(partition):
            return sum(abs(sum(statuses[m] for m in group)) for group in partition)

        best = min(
            partition_cost(p)
            for p in _partitions(sorted(statuses))
            if all(len(g) <= 2 for g in p)
        )
        assert partition_cost(result.groups) == pytest.approx(best)

    def test_same_sign_statuses_stay_singletons(self):
        result = form_coalitions({"a": 5.0, "b": 2.0, "c": 0.5}, max_group_size=3)
        assert all(len(g) == 1 for g in result.groups)

    def test_deterministic_and_partition_valid(self):
        statuses = {f"s{k}": (-1.0) ** k * (k + 0.5) for k in range(9)}
        first = form_coalitions(statuses, max_group_size=4)
        second = form_coalitions(statuses, max_group_size=4)
        assert first == second
        members = [m for g in first.groups for m in g]
        assert sorted(members) == sorted(statuses)
        assert all(1 <= len(g) <= 4 for g in first.groups)

    def test_rejects_degenerate_inputs(self):
        # no SSP is not degenerate: it forms no coalition, as the reference does
        assert form_coalitions({}, max_group_size=2) == CoalitionSet(()) == reference_form_coalitions({}, 2)
        with pytest.raises(ValueError):
            form_coalitions({"a": 1.0}, max_group_size=0)


# gains of pairs drawn from a pool 1e-13 apart differ by less than the 1e-12
# tie margin, or by a little more, so both branches of the threshold replay run
_NEAR_TIES = [sign * (3.0 + j * 1e-13) for sign in (-1.0, 1.0) for j in range(12)]
# gains of 5e-10 to 2e-9 straddle the 1e-9 floor a merge must beat
_NEAR_FLOOR = [sign * j * 2.5e-10 for sign in (-1.0, 1.0) for j in range(1, 5)]
_STATUS_LISTS = st.one_of(
    st.lists(st.sampled_from(_NEAR_FLOOR), min_size=1, max_size=40),
    st.lists(st.floats(-50.0, 50.0, allow_nan=False), min_size=1, max_size=40),
    st.lists(st.integers(-4, 4).map(float), min_size=1, max_size=40),
    st.lists(st.sampled_from(_NEAR_TIES), min_size=1, max_size=40),
    st.integers(1, 40).map(lambda n: [0.0] * n),
)


class TestFormCoalitionsMatchesTheLoop:
    @settings(max_examples=400, deadline=None)
    @given(values=_STATUS_LISTS, max_group_size=st.integers(1, 6), padded=st.booleans())
    def test_same_groups_in_the_same_order(self, values, max_group_size, padded):
        # unpadded ids ("s10" < "s2") make id order differ from draw order
        statuses = {(f"s{k:02d}" if padded else f"s{k}"): v for k, v in enumerate(values)}
        assert form_coalitions(statuses, max_group_size) == reference_form_coalitions(statuses, max_group_size)

    def test_two_hundred_generated_ssps(self):
        spec = GeneratorSpec(
            n_ssps=200, consumers_per_ssp=10, producers_per_ssp=5,
            demand_mean_kwh=12.0, supply_mean_kwh=24.0, noise_std_kwh=3.0, seed=101,
        )
        statuses = {cfg.id: energy_status(cfg) for cfg in generate_scenario(spec).ssps}
        result = form_coalitions(statuses, 4)
        assert result == reference_form_coalitions(statuses, 4)
        assert len(result) == 105


def _partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in _partitions(rest):
        for k in range(len(sub)):
            yield sub[:k] + [sub[k] | {first}] + sub[k + 1:]
        yield [frozenset({first})] + sub


class TestUpdateBnm:
    def pair_map(self, p: float) -> BeliefNeighborhoodMap:
        return BeliefNeighborhoodMap({("a", "b"): p})

    def test_same_coalition_evidence_reaches_published_value(self):
        together = CoalitionSet((frozenset({"a", "b"}),))
        updated = update_bnm(self.pair_map(0.5), together, eta=0.6)
        assert updated.probability("a", "b") == (1.0 - 0.6) * 0.5 + 0.6

    def test_opposite_evidence_mirrors(self):
        apart = CoalitionSet((frozenset({"a"}), frozenset({"b"})))
        updated = update_bnm(self.pair_map(0.5), apart, eta=0.6)
        assert updated.probability("a", "b") == pytest.approx(0.2)

    def test_full_forgetting_equals_indicator(self):
        together = CoalitionSet((frozenset({"a", "b"}),))
        assert update_bnm(self.pair_map(0.37), together, eta=1.0).probability("a", "b") == 1.0

    @given(prior=st.floats(0.0, 1.0), eta=st.floats(0.001, 1.0), same=st.booleans())
    def test_probability_stays_in_unit_interval(self, prior, eta, same):
        coalitions = (
            CoalitionSet((frozenset({"a", "b"}),))
            if same
            else CoalitionSet((frozenset({"a"}), frozenset({"b"})))
        )
        updated = update_bnm(self.pair_map(prior), coalitions, eta=eta)
        assert 0.0 <= updated.probability("a", "b") <= 1.0

    def test_constant_evidence_converges_monotonically(self):
        together = CoalitionSet((frozenset({"a", "b"}),))
        apart = CoalitionSet((frozenset({"a"}), frozenset({"b"})))
        up = self.pair_map(0.2)
        last = 0.2
        for _ in range(40):
            up = update_bnm(up, together, eta=0.3)
            assert up.probability("a", "b") >= last
            last = up.probability("a", "b")
        assert last == pytest.approx(1.0, abs=1e-4)
        down = self.pair_map(0.9)
        last = 0.9
        for _ in range(40):
            down = update_bnm(down, apart, eta=0.3)
            assert down.probability("a", "b") <= last
            last = down.probability("a", "b")
        assert last == pytest.approx(0.0, abs=1e-4)

    def test_eta_out_of_range_rejected(self):
        together = CoalitionSet((frozenset({"a", "b"}),))
        with pytest.raises(ValueError):
            update_bnm(self.pair_map(0.5), together, eta=0.0)


class TestSnapshotAnm:
    def test_threshold_keeps_strong_pairs(self):
        bnm = BeliefNeighborhoodMap({("s1", "s2"): 0.8, ("s1", "s3"): 0.4, ("s2", "s3"): 0.5})
        anm = snapshot_anm(bnm, tau=0.5)
        assert anm.connected("s1", "s2")
        assert not anm.connected("s1", "s3")
        assert anm.connected("s2", "s3")  # >= is inclusive

    def test_zero_beliefs_give_empty_map(self):
        bnm = BeliefNeighborhoodMap({("a", "b"): 0.0, ("a", "c"): 0.0, ("b", "c"): 0.0})
        assert snapshot_anm(bnm).edges == frozenset()

    def test_threshold_monotone_in_probabilities(self):
        low = BeliefNeighborhoodMap({("a", "b"): 0.45, ("a", "c"): 0.55, ("b", "c"): 0.1})
        high = BeliefNeighborhoodMap({("a", "b"): 0.65, ("a", "c"): 0.75, ("b", "c"): 0.3})
        low_edges = snapshot_anm(low).edges
        high_edges = snapshot_anm(high).edges
        assert low_edges <= high_edges

    def test_certain_pair_survives_every_sample(self):
        bnm = BeliefNeighborhoodMap({("a", "b"): 1.0, ("a", "c"): 0.0})
        for seed in range(100):
            anm = snapshot_anm(bnm, sample_seed=seed)
            assert anm.connected("a", "b")
            assert not anm.connected("a", "c")

    def test_sampling_is_deterministic_per_seed(self):
        bnm = initial_bnm([f"s{k}" for k in range(6)], prior=0.5)
        assert snapshot_anm(bnm, sample_seed=9) == snapshot_anm(bnm, sample_seed=9)


class TestShouldDelegate:
    def test_fires_on_published_update(self):
        old = BeliefNeighborhoodMap({("s1", "s2"): 0.5})
        new = BeliefNeighborhoodMap({("s1", "s2"): 0.8})
        assert should_delegate(old, new, delta=0.2)

    def test_identical_maps_do_not_fire(self):
        bnm = initial_bnm(["a", "b", "c"])
        assert not should_delegate(bnm, bnm)

    def test_threshold_boundary_is_strict_below(self):
        old = BeliefNeighborhoodMap({("a", "b"): 0.50})
        new = BeliefNeighborhoodMap({("a", "b"): 0.69})
        assert not should_delegate(old, new, delta=0.2)

    def test_mismatched_pair_sets_rejected(self):
        with pytest.raises(ValueError):
            should_delegate(initial_bnm(["a", "b"]), initial_bnm(["a", "b", "c"]))


class TestMaps:
    def test_meshed_and_empty_components(self):
        ids = ["s1", "s2", "s3", "s4"]
        assert meshed_map(ids).component_count() == 1
        assert empty_map(ids).component_count() == 4

    def test_component_count_is_the_group_count_of_a_coalition_map(self):
        spec = GeneratorSpec(
            n_ssps=200, consumers_per_ssp=10, producers_per_ssp=5,
            demand_mean_kwh=12.0, supply_mean_kwh=24.0, noise_std_kwh=3.0, seed=101,
        )
        statuses = {cfg.id: energy_status(cfg) for cfg in generate_scenario(spec).ssps}
        coalitions = form_coalitions(statuses, 4)
        assert map_from_coalitions(coalitions).component_count() == len(coalitions.groups) == 105

    def test_a_pair_written_high_id_first_connects_nothing(self):
        # connected() and the engine read an edge only as (a, b) with a < b;
        # the component count reads it the same way
        anm = ActualNeighborhoodMap(("S01", "S02", "S03"), frozenset({("S02", "S01")}))
        assert not anm.connected("S01", "S02")
        assert anm.neighbours(anm.ssp_ids) == {"S01": [], "S02": [], "S03": []}
        assert anm.component_count() == 3

    def test_map_from_coalitions_is_blockwise_mesh(self):
        coalitions = CoalitionSet((frozenset({"a", "b", "c"}), frozenset({"d"})))
        anm = map_from_coalitions(coalitions)
        assert anm.connected("a", "c") and anm.connected("b", "c")
        assert not anm.connected("a", "d")
        assert anm.component_count() == 2

    def test_anm_csv_round_trip(self):
        anm = map_from_coalitions(CoalitionSet((frozenset({"a", "b"}), frozenset({"c"}))))
        assert anm_from_csv(anm_to_csv(anm)) == anm

    def test_anm_csv_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            anm_from_csv("ssp_a,ssp_b,present\na,b,2\n")
        with pytest.raises(ValueError):
            anm_from_csv("wrong,header,here\n")

    @pytest.mark.parametrize("second", ["S02,S01,0", "S01,S02,1", "S02,S01,1"])
    def test_anm_csv_rejects_a_pair_listed_twice(self, second):
        # read row by row, S01,S02,1 then S02,S01,0 would connect the pair
        with pytest.raises(ValueError, match=r"^lines 2 and 4 both list the pair \(S01, S02\)$"):
            anm_from_csv(f"ssp_a,ssp_b,present\nS01,S02,1\nS01,S03,0\n{second}\n")
        # a blank line still counts
        with pytest.raises(ValueError, match=r"^lines 3 and 5 both list the pair \(S01, S02\)$"):
            anm_from_csv(f"ssp_a,ssp_b,present\n\nS01,S02,1\nS01,S03,0\n{second}\n")

    @pytest.mark.parametrize("present", ["0", "1"])
    def test_anm_csv_rejects_a_self_pair_by_line(self, present):
        with pytest.raises(ValueError, match=r"^line 3: expected .* two distinct SSPs, got 'S02,S02,"):
            anm_from_csv(f"ssp_a,ssp_b,present\nS01,S02,1\nS02,S02,{present}\n")

    def test_bnm_csv_lists_pairs(self):
        text = bnm_to_csv(initial_bnm(["a", "b"]))
        assert text.splitlines()[0] == "ssp_a,ssp_b,p"
        assert "a,b,0.5" in text


MAP_IDS = ["S01", "S02", "S03", "S04", "S05", "S06"]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.sampled_from(MAP_IDS), min_size=1, max_size=6, unique=True),
    st.frozensets(st.tuples(st.sampled_from([*MAP_IDS, "S99"]), st.sampled_from([*MAP_IDS, "S99"])), max_size=12),
)
def test_neighbours_and_component_count_read_the_pairs_connected_reads(ids, edges):
    # edges written high id first, self-pairs and SSPs outside the map among
    # the pairs: neither the neighbour lists nor the count may read more than connected()
    anm = ActualNeighborhoodMap(tuple(sorted(ids)), edges)
    graph = nx.Graph()
    graph.add_nodes_from(ids)
    graph.add_edges_from((a, b) for a, b in itertools.combinations(ids, 2) if anm.connected(a, b))
    neighbours = anm.neighbours(ids)
    assert {a: sorted(bs) for a, bs in neighbours.items()} == {a: sorted(graph[a]) for a in ids}
    assert anm.component_count() == nx.number_connected_components(graph)
