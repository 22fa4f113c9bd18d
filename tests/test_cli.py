from __future__ import annotations

import filecmp
import hashlib
import itertools
import json
import math
import os
from dataclasses import replace

import pytest

import sspsim.cli
from sspsim.cli import EXIT_CONFIG, EXIT_INTERNAL, EXIT_NO_CONVERGENCE, EXIT_OK, main
from sspsim.coalition import form_coalitions
from sspsim.lp import _Simplex
from sspsim.model import LineConstraint, LineConstraintSet, energy_status
from sspsim.scenario import GeneratorSpec, generate_scenario, load_scenario, save_scenario
from tests.test_model import JUDGED_BY_VALIDATION, MISPLACED_KINDS, REFUSED_BY_THE_TABLE, stored_as_read, with_entry
from tests.test_protocol import floored_study2

RESULT_FILES = ("commitments.csv", "convergence.csv", "messages.csv", "summary.json")


def run_cli(*argv: str) -> int:
    return main(list(argv))


@pytest.fixture
def worked_file(tmp_path, worked_scenario) -> str:
    path = tmp_path / "worked.json"
    save_scenario(worked_scenario, str(path))
    return str(path)


@pytest.fixture
def pair_file(tmp_path, pair_scenario) -> str:
    path = tmp_path / "pair.json"
    save_scenario(pair_scenario, str(path))
    return str(path)


@pytest.fixture
def nan_energy_file(tmp_path, worked_file) -> str:
    """The worked example with a NaN demand, as `json` writes and reads it."""
    with open(worked_file, encoding="utf-8") as fh:
        data = json.load(fh)
    data["ssps"][0]["consumers"][0]["energy_kwh"] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(data))
    return str(path)


def with_line_bounds(tmp_path, worked_file, *bounds: tuple[float, float]) -> str:
    """The worked example with (AC1, AP1) line bounds, in this order, as `json` writes and reads it."""
    return with_lines(tmp_path, worked_file, *(("AC1", "AP1", lo, hi) for lo, hi in bounds))


def with_lines(tmp_path, worked_file, *lines: tuple[str, str, float, float]) -> str:
    """The worked example with (row, col, min, max) line bounds, as `json` writes and reads them."""
    with open(worked_file, encoding="utf-8") as fh:
        data = json.load(fh)
    data["line_constraints"] = [{"row": r, "col": c, "min_kwh": lo, "max_kwh": hi} for r, c, lo, hi in lines]
    path = tmp_path / "lines.json"
    path.write_text(json.dumps(data))
    return str(path)


# line minimums that no matching meets, though each line alone is valid
UNMEETABLE_MINIMUMS = pytest.mark.parametrize(
    "lines",
    [
        # AC1 wants 13.5 kWh, but its Utility and AP1 lines ask for 16
        [("AC1", "U", 8.0, 20.0), ("AC1", "AP1", 8.0, 20.0)],
        # AP2 produces 12 kWh, but its lines to AC1 and AC2 ask for 14
        [("AC1", "AP2", 7.0, 20.0), ("AC2", "AP2", 7.0, 20.0)],
    ],
    ids=["consumer-minimums-above-demand", "producer-minimums-above-output"],
)


class TestGen:
    def test_study1_flags_produce_valid_scenario(self, tmp_path, capsys):
        out = tmp_path / "study1.json"
        code = run_cli(
            "gen", "--ssps", "20", "--consumers", "10", "--producers", "5", "--seed", "7", "--out", str(out)
        )
        assert code == EXIT_OK
        scenario = load_scenario(str(out))
        assert len(scenario.ssps) == 20
        assert "wrote" in capsys.readouterr().out

    def test_missing_required_flag_exits_2(self, capsys):
        assert run_cli("gen", "--ssps", "20") == EXIT_CONFIG
        assert "usage" in capsys.readouterr().err

    def test_invalid_spec_exits_2(self, tmp_path, capsys):
        code = run_cli(
            "gen", "--ssps", "0", "--consumers", "1", "--producers", "1", "--seed", "1",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == EXIT_CONFIG
        assert "invalid generator spec" in capsys.readouterr().err

    def test_non_finite_mean_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        code = run_cli(
            "gen", "--ssps", "2", "--consumers", "2", "--producers", "1", "--seed", "1",
            "--demand-mean", "nan", "--out", str(out),
        )
        assert code == EXIT_CONFIG
        assert "demand_mean_kwh must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**63)])
    def test_seed_outside_the_generator_range_exits_2(self, tmp_path, capsys, seed):
        out = tmp_path / "x.json"
        code = run_cli("gen", "--ssps", "2", "--consumers", "2", "--producers", "1", "--seed", seed, "--out", str(out))
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "seed must be in [0, 2**63)" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        code = run_cli("gen", "--ssps", "2", "--consumers", "1", "--producers", "1", "--seed", "1", "--out", str(out))
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "cannot write scenario" in err and "Traceback" not in err

    def test_zero_noise_is_deterministic(self, tmp_path):
        args = ["gen", "--ssps", "2", "--consumers", "3", "--producers", "2", "--noise", "0", "--seed", "4"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(*args, "--out", str(a)) == EXIT_OK
        assert run_cli(*args, "--out", str(b)) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()


# sha256 of each artifact of `sspsim run --seed 1` on the scenario of
# `sspsim gen --ssps 6 --consumers 5 --producers 3 --supply-mean 18 --seed 7`,
# first taken when scenario files were at schema version 1: a run reads the
# scenario, not its file encoding, so they hold across file formats
PINNED_RUNS = {
    "meshed": {
        "commitments.csv": "48688725f457a64870b77f5bb3e9a0fa81f8302d4989e912ec407b67fb6f2e42",
        "convergence.csv": "dd4553cca0c8ca22df201903c23f334cf61e8eb68a66c7c421984d3fde4980cd",
        "messages.csv": "e8d075757cb211a06bebf377050411dc561b5d3f0dbebbcfabde5dc6e1d9c2b7",
        "summary.json": "f5d1e83a0343c3c158ea7ea5593428b56b6ef417da49602c2240e2a9b6c97d6f",
    },
    "coalition": {
        "commitments.csv": "9d93fd9b727d8e6597cba3a80161ca55e85d74a52f10e68dfde31c8d6c188a23",
        "convergence.csv": "b70a461801f169ec61049e6b2c7a3272e0a7d89a8c956350557770f3051c3aa0",
        "messages.csv": "ff8c4f68f882bbfa870f0dbb3cbef4f357469cae98da6485db6c4acd76770f72",
        "summary.json": "0d8f6fa62606d0840d754196ef29081858dcfcd1758faf13f773b2c5e8c64802",
    },
}


class TestRun:
    @pytest.mark.parametrize("anm", sorted(PINNED_RUNS))
    def test_run_artifacts_are_pinned_across_versions(self, tmp_path, anm):
        scenario = str(tmp_path / "scenario.json")
        gen = ("--ssps", "6", "--consumers", "5", "--producers", "3", "--supply-mean", "18", "--seed", "7")
        assert run_cli("gen", *gen, "--out", scenario) == EXIT_OK
        out = tmp_path / anm
        assert run_cli("run", "--scenario", scenario, "--anm", anm, "--seed", "1", "--out", str(out)) == EXIT_OK
        assert sorted(os.listdir(out)) == list(RESULT_FILES)
        assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in RESULT_FILES} == PINNED_RUNS[anm]

    def test_worked_example_meshed_zeroes_the_utility(self, tmp_path, worked_file):
        out = tmp_path / "results"
        code = run_cli("run", "--scenario", worked_file, "--anm", "meshed", "--out", str(out), "--seed", "1")
        assert code == EXIT_OK
        for name in RESULT_FILES:
            assert (out / name).is_file()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["final_utility_kwh"] == pytest.approx(0.0, abs=1e-6)
        assert summary["coalitions"] == 1
        assert set(summary["per_ssp"]) == {"S1"}
        header, *cells = (out / "commitments.csv").read_text().splitlines()
        assert header == "ssp,row_id,col_id,kwh"
        keys = [tuple(line.split(",")[1:3]) for line in cells]
        assert ("U", "U") not in keys
        assert {col for row, col in keys if row == "U"} == {"AP1", "AP2", "PP1"}

    def test_disconnected_pair_totals_ten(self, tmp_path, pair_file):
        anm_file = tmp_path / "anm.csv"
        anm_file.write_text("ssp_a,ssp_b,present\nS1,S2,0\n")
        out = tmp_path / "results"
        code = run_cli(
            "run", "--scenario", pair_file, "--anm", "file", "--anm-file", str(anm_file), "--out", str(out)
        )
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["final_utility_kwh"] == pytest.approx(10.0, abs=1e-6)
        assert summary["coalitions"] == 2

    @pytest.mark.parametrize(
        "spec, max_group_size",
        [
            (GeneratorSpec(n_ssps=8, consumers_per_ssp=4, producers_per_ssp=3, supply_mean_kwh=17.0, seed=4), 2),
            (GeneratorSpec(n_ssps=10, consumers_per_ssp=4, producers_per_ssp=2, supply_mean_kwh=24.0, seed=3), 3),
            (GeneratorSpec(n_ssps=10, consumers_per_ssp=4, producers_per_ssp=3, supply_mean_kwh=16.0, seed=1), 3),
        ],
        ids=["8-ssps-pairs", "10-ssps-triples", "10-ssps-mixed"],
    )
    def test_file_map_of_the_coalitions_ends_at_the_sum_of_group_imbalances(self, tmp_path, spec, max_group_size):
        # the coalitions written as a map file, every pair inside a group
        # present: each group reaches its own imbalance, as on a coalition map
        scenario = generate_scenario(spec)
        statuses = {cfg.id: energy_status(cfg) for cfg in scenario.ssps}
        groups = form_coalitions(statuses, max_group_size).groups
        pairs = [f"{a},{b},1" for group in groups for a, b in itertools.combinations(sorted(group), 2)]
        anm_file = tmp_path / "anm.csv"
        anm_file.write_text("\n".join(["ssp_a,ssp_b,present", *pairs]) + "\n")
        scenario_file = tmp_path / "scenario.json"
        save_scenario(scenario, str(scenario_file))
        out = tmp_path / "results"
        argv = ("run", "--scenario", str(scenario_file), "--anm", "file", "--anm-file", str(anm_file))
        assert run_cli(*argv, "--seed", "1", "--out", str(out)) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["coalitions"] == len(groups) > 1
        expected = sum(abs(sum(statuses[ssp_id] for ssp_id in group)) for group in groups)
        assert expected > abs(sum(statuses.values())) + 1.0  # the grouping costs something the mesh would not
        tol = 1e-9 * max(1.0, summary["initial_abs_status_kwh"])
        assert summary["final_utility_kwh"] == pytest.approx(expected, rel=0, abs=tol)

    def test_identical_config_gives_byte_identical_results(self, tmp_path, pair_file):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run_cli("run", "--scenario", pair_file, "--anm", "meshed", "--out", str(out), "--seed", "3") == EXIT_OK
        match, mismatch, errors = filecmp.cmpfiles(out_a, out_b, RESULT_FILES, shallow=False)
        assert sorted(match) == sorted(RESULT_FILES)
        assert not mismatch and not errors

    def test_coalition_mode_reports_group_count(self, tmp_path, pair_file):
        out = tmp_path / "coal"
        code = run_cli(
            "run", "--scenario", pair_file, "--anm", "coalition", "--max-group-size", "2", "--out", str(out)
        )
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["coalitions"] == 1  # the +5/-5 pair merges

    def test_iteration_cap_exits_3(self, tmp_path, pair_file, capsys):
        out = tmp_path / "capped"
        code = run_cli(
            "run", "--scenario", pair_file, "--anm", "meshed", "--out", str(out), "--iteration-cap", "1"
        )
        assert code == EXIT_NO_CONVERGENCE
        assert "did not converge" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_run_removes_the_directories_it_created(self, tmp_path, worked_file):
        scenario = with_lines(tmp_path, worked_file, ("AC1", "U", 8.0, 20.0), ("AC1", "AP1", 8.0, 20.0))
        out = tmp_path / "new" / "results"
        assert run_cli("run", "--scenario", scenario, "--anm", "meshed", "--out", str(out)) == EXIT_CONFIG
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("contents", [(), ("notes.txt",)], ids=["empty", "with-a-file"])
    def test_failed_run_keeps_an_existing_output_directory(self, tmp_path, worked_file, pair_file, contents):
        out = tmp_path / "kept"
        out.mkdir()
        for name in contents:
            (out / name).write_text("kept\n")
        # AC1 with (AC1, U) and (AC1, AP1) minimums of 8 kWh, then an iteration cap of 1
        lines = with_lines(tmp_path, worked_file, ("AC1", "U", 8.0, 20.0), ("AC1", "AP1", 8.0, 20.0))
        assert run_cli("run", "--scenario", lines, "--anm", "meshed", "--out", str(out)) == EXIT_CONFIG
        cap = ("--iteration-cap", "1")
        assert run_cli("run", "--scenario", pair_file, "--anm", "meshed", "--out", str(out), *cap) == EXIT_NO_CONVERGENCE
        assert sorted(os.listdir(out)) == sorted(contents)
        assert all((out / name).read_text() == "kept\n" for name in contents)

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_non_positive_iteration_cap_exits_2(self, tmp_path, pair_file, capsys, cap):
        out = tmp_path / "capped"
        code = run_cli("run", "--scenario", pair_file, "--anm", "meshed", "--out", str(out), "--iteration-cap", cap)
        assert code == EXIT_CONFIG
        assert "--iteration-cap: must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_output_path_that_is_a_file_exits_2(self, tmp_path, worked_file, capsys):
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        code = run_cli("run", "--scenario", worked_file, "--anm", "meshed", "--out", str(taken))
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "cannot write results directory" in err
        assert "Traceback" not in err
        assert taken.read_text() == "not a directory\n"

    @pytest.mark.parametrize("below", ["", "results"], ids=["a-file", "under-a-file"])
    def test_unusable_output_path_exits_2_before_the_engine_runs(self, tmp_path, worked_file, monkeypatch, capsys, below):
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        calls = []
        monkeypatch.setattr(sspsim.cli, "run_engine", lambda *args, **kwargs: calls.append(args))
        code = run_cli("run", "--scenario", worked_file, "--anm", "meshed", "--out", str(taken / below))
        assert code == EXIT_CONFIG
        assert "cannot write results directory" in capsys.readouterr().err
        assert calls == []

    def test_map_file_naming_an_unknown_ssp_exits_2(self, tmp_path, pair_file, capsys):
        anm_file = tmp_path / "anm.csv"
        anm_file.write_text("ssp_a,ssp_b,present\nS1,S99,1\n")
        out = tmp_path / "results"
        code = run_cli("run", "--scenario", pair_file, "--anm", "file", "--anm-file", str(anm_file), "--out", str(out))
        assert code == EXIT_CONFIG
        assert "'S99'" in capsys.readouterr().err
        assert not out.exists()

    def test_map_file_listing_a_pair_twice_exits_2(self, tmp_path, pair_file, capsys):
        anm_file = tmp_path / "anm.csv"
        anm_file.write_text("ssp_a,ssp_b,present\nS1,S2,1\nS2,S1,0\n")
        out = tmp_path / "results"
        code = run_cli("run", "--scenario", pair_file, "--anm", "file", "--anm-file", str(anm_file), "--out", str(out))
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "lines 2 and 3 both list the pair (S1, S2)" in err and "Traceback" not in err
        assert not out.exists()

    def test_map_file_counts_every_scenario_ssp(self, tmp_path):
        # the map links S01 and S02 only; S03 stands alone, so two components
        scenario = tmp_path / "s3.json"
        assert run_cli(
            "gen", "--ssps", "3", "--consumers", "2", "--producers", "1", "--seed", "4", "--out", str(scenario)
        ) == EXIT_OK
        anm_file = tmp_path / "anm.csv"
        anm_file.write_text("ssp_a,ssp_b,present\nS01,S02,1\n")
        out = tmp_path / "results"
        code = run_cli("run", "--scenario", str(scenario), "--anm", "file", "--anm-file", str(anm_file), "--out", str(out))
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["coalitions"] == 2
        assert set(summary["per_ssp"]) == {"S01", "S02", "S03"}

    def test_json_flag_prints_summary(self, tmp_path, worked_file, capsys):
        out = tmp_path / "results"
        code = run_cli("run", "--scenario", worked_file, "--anm", "meshed", "--out", str(out), "--json")
        assert code == EXIT_OK
        printed = json.loads(capsys.readouterr().out)
        assert printed == json.loads((out / "summary.json").read_text())

    def test_env_var_supplies_output_dir(self, tmp_path, worked_file, monkeypatch):
        target = tmp_path / "from-env"
        monkeypatch.setenv("SSPSIM_OUTPUT_DIR", str(target))
        assert run_cli("run", "--scenario", worked_file, "--anm", "meshed") == EXIT_OK
        assert (target / "summary.json").is_file()

    def test_solver_drift_beyond_tolerance_exits_4(self, tmp_path, worked_file, monkeypatch, capsys):
        extract = _Simplex._extract

        def drifted(simplex):
            simplex.xb = simplex.xb + 1e3  # every basic value far past any finite bound
            return extract(simplex)

        monkeypatch.setattr(_Simplex, "_extract", drifted)
        code = run_cli("run", "--scenario", worked_file, "--anm", "meshed", "--out", str(tmp_path / "out"))
        assert code == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert "outside its bounds" in err
        assert "Traceback" not in err

    def test_missing_output_dir_exits_2(self, worked_file, monkeypatch, capsys):
        monkeypatch.delenv("SSPSIM_OUTPUT_DIR", raising=False)
        assert run_cli("run", "--scenario", worked_file, "--anm", "meshed") == EXIT_CONFIG

    @pytest.mark.parametrize(
        "path,value,detail",
        [
            (("ssps",), {"S1": None}, "ssps: expected a list"),
            (("ssps", 0), "S1", "ssps[0]: expected an object"),
            (("ssps", 0, "consumers", 0), 13.5, "ssps[0].consumers[0]: expected an object"),
            (("line_constraints",), [["AC1", "AP1", 0.0, 1.0]], "line_constraints[0]: expected an object"),
            (("weights",), [1.0, 10.0], "weights: expected an object"),
            (("connectivity",), [], "connectivity: expected an object"),
            (("connectivity", "AC1"), {"AP1": 1, "U": 1}, "connectivity: unknown field 'AC1'"),
            (("connectivity", "ssps"), None, "connectivity.ssps: expected an object, got NoneType"),
            (("connectivity", "consumers"), [], "connectivity.consumers: expected an object, got list"),
            (("connectivity", "consumers", "S1"), ["AP1", "U"], "connectivity.consumers[S1]: expected an object, got list"),
            (("connectivity", "consumers", "S1", "cols"), {"AP1": 0}, "connectivity.consumers[S1].cols: expected a list, got dict"),
            (("connectivity", "consumers", "S1", "rows"), [[1, 1, 1, 1]], "connectivity.consumers[S1].rows: expected an object, got list"),
            (
                ("connectivity", "consumers", "S1", "rows", "AC1"),
                {"AP1": 1},
                "connectivity.consumers[S1].rows[AC1]: expected a list, got dict",
            ),
            (("connectivity", "consumers", "S1", "rows", "AC1"), [1, 1], "connectivity.consumers[S1].rows[AC1]: 2 values for 4 columns"),
            (
                ("connectivity", "consumers", "S1", "cols"),
                ["AP1", "AP2", "AP1", "U"],
                "S1: connectivity-header-unique (column AP1 listed more than once)",
            ),
            (
                ("connectivity", "consumers", "S1", "rows", "S1"),
                [0, 0, 0, 0],
                "S1: connectivity-row-resolves (not a row of the block of SSP S1)",
            ),
            (("ssps", 0, "preferences"), {"AC1": {"AP1": 1}}, "ssps[0].preferences: unknown field 'AC1'"),
            (("ssps", 0, "preferences", "suppliers"), {"AP1": 0}, "ssps[0].preferences.suppliers: expected a list, got dict"),
            (("ssps", 0, "preferences", "ranks"), [[1, 2, 3]], "ssps[0].preferences.ranks: expected an object, got list"),
            (("ssps", 0, "preferences", "ranks", "AC1"), {"AP1": 1}, "ssps[0].preferences.ranks[AC1]: expected a list, got dict"),
            (("ssps", 0, "preferences", "ranks", "AC1"), [1, 2], "ssps[0].preferences.ranks[AC1]: 2 values for 3 suppliers"),
            (("ssps", 0, "preferences", "ranks", "AC1"), [1, 2, 3, 4], "ssps[0].preferences.ranks[AC1]: 4 values for 3 suppliers"),
            (
                ("ssps", 0, "preferences", "suppliers"),
                ["AP1", "AP2", "AP1"],
                "S1: preference-header-unique (supplier AP1 listed more than once)",
            ),
            (("ssps", 0, "consumers", 1, "bound"), "0", "consumer AC2.bound: expected a number, got '0'"),
            (("ssps", 0, "producers", 2, "bound"), None, "producer PP1.bound: expected a number, got None"),
            (
                ("ssps", 0, "consumers", 0, "energy_kwh"),
                10**400,
                "consumer AC1.energy_kwh: integer too large for a float",
            ),
            (("weights", "w2"), 10**400, "weights.w2: integer too large for a float"),
            (
                ("line_constraints",),
                [{"row": "AC1", "col": "AP1", "min_kwh": 10**400, "max_kwh": 1.0}],
                "line_constraints[0].min_kwh: integer too large for a float",
            ),
            (
                ("line_constraints",),
                [{"row": "AC1", "col": "AP1", "min_kwh": 0.0, "max_kwh": True}],
                "line_constraints[0].max_kwh: expected a number, got True",
            ),
            (
                ("ssps", 0, "preferences", "ranks", "AC1", 1),
                10**400,
                f"ssps[0].preferences.ranks[AC1][1]: expected a 64-bit integer rank or null, got {10**400}",
            ),
        ],
        ids=[
            "ssps",
            "ssp-entry",
            "consumer",
            "line-entry",
            "weights",
            "connectivity",
            "connectivity-v2-row",
            "link-ssp-block",
            "link-consumer-blocks",
            "link-block",
            "link-header",
            "link-rows",
            "link-row",
            "link-row-short",
            "link-header-duplicate",
            "link-row-misplaced",
            "preferences-v1",
            "preference-header",
            "preference-rows",
            "preference-row",
            "preference-row-short",
            "preference-row-long",
            "preference-header-duplicate",
            "consumer-bound",
            "producer-bound",
            "energy-too-large",
            "w2-too-large",
            "line-min-too-large",
            "line-max",
            "rank-too-large",
        ],
    )
    def test_misshapen_scenario_exits_2_naming_the_field(self, tmp_path, worked_file, capsys, path, value, detail):
        with open(worked_file, encoding="utf-8") as fh:
            data = json.load(fh)
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        scenario = tmp_path / "misshapen.json"
        scenario.write_text(json.dumps(data))
        assert run_cli("run", "--scenario", str(scenario), "--anm", "meshed", "--out", str(tmp_path / "o")) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert detail in err and "Traceback" not in err

    def test_a_version_1_file_exits_2_naming_schema_version(self, tmp_path, worked_file, capsys):
        # version 1 held one {supplier id: rank} object per consumer
        with open(worked_file, encoding="utf-8") as fh:
            data = json.load(fh)
        data["schema_version"] = 1
        for entry in data["ssps"]:
            header, rows = entry["preferences"]["suppliers"], entry["preferences"]["ranks"]
            entry["preferences"] = {c: dict(zip(header, row)) for c, row in rows.items()}
        scenario = tmp_path / "v1.json"
        scenario.write_text(json.dumps(data))
        assert run_cli("run", "--scenario", str(scenario), "--anm", "meshed", "--out", str(tmp_path / "o")) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "schema_version: unsupported value 1, expected 3" in err and "Traceback" not in err

    def test_a_version_2_file_exits_2_naming_schema_version(self, tmp_path, worked_file, capsys):
        # version 2 held one {column id: link} object per connectivity row
        with open(worked_file, encoding="utf-8") as fh:
            data = json.load(fh)
        data["schema_version"] = 2
        blocks = [data["connectivity"]["ssps"], *data["connectivity"]["consumers"].values()]
        data["connectivity"] = {r: dict(zip(b["cols"], row)) for b in blocks for r, row in b["rows"].items()}
        scenario = tmp_path / "v2.json"
        scenario.write_text(json.dumps(data))
        assert run_cli("run", "--scenario", str(scenario), "--anm", "meshed", "--out", str(tmp_path / "o")) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "schema_version: unsupported value 2, expected 3" in err and "Traceback" not in err

    @pytest.mark.parametrize("value", [None, 1, ["AC1"]], ids=["null", "number", "list"])
    @pytest.mark.parametrize(
        "path, field",
        [
            (("ssps", 0, "id"), "ssps[0].id"),
            (("ssps", 0, "consumers", 0, "id"), "ssps[0].consumers[0].id"),
            (("ssps", 0, "producers", 1, "id"), "ssps[0].producers[1].id"),
            (("ssps", 0, "preferences", "suppliers", 1), "ssps[0].preferences.suppliers[1]"),
            (("line_constraints", 0, "row"), "line_constraints[0].row"),
            (("line_constraints", 0, "col"), "line_constraints[0].col"),
        ],
        ids=["ssp", "consumer", "producer", "supplier", "line-row", "line-col"],
    )
    def test_an_id_that_is_not_a_string_exits_2_naming_the_field(self, tmp_path, worked_file, capsys, path, field, value):
        # str() would load null as the id "None", and validation would then
        # name a rule, not the field
        with open(worked_file, encoding="utf-8") as fh:
            data = json.load(fh)
        data["line_constraints"] = [{"row": "AC1", "col": "AP1", "min_kwh": 0.0, "max_kwh": 1.0}]
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        scenario = tmp_path / "id.json"
        scenario.write_text(json.dumps(data))
        out = tmp_path / "o"
        assert run_cli("run", "--scenario", str(scenario), "--anm", "meshed", "--out", str(out)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{field}: expected a string, got {value!r}" in err
        assert "Traceback" not in err and not out.exists()

    def test_integer_with_more_digits_than_int_reads_exits_2(self, tmp_path, worked_file, capsys):
        with open(worked_file, encoding="utf-8") as fh:
            text = fh.read()
        scenario = tmp_path / "digits.json"
        scenario.write_text(text.replace('"energy_kwh":13.5', '"energy_kwh":1' + "0" * 5000, 1))
        assert run_cli("run", "--scenario", str(scenario), "--anm", "meshed", "--out", str(tmp_path / "o")) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "cannot load scenario" in err and "Traceback" not in err

    @pytest.mark.parametrize("fact,value,violation", JUDGED_BY_VALIDATION + MISPLACED_KINDS)
    @pytest.mark.parametrize("command", ["run", "calibrate"])
    def test_rank_link_or_seed_of_the_wrong_type_exits_2_naming_the_entry(
        self, tmp_path, worked_scenario, capsys, command, fact, value, violation
    ):
        # the file holds a rank of 0, a link of 2, null and so on where the value
        # belongs, or a producer's kind under consumers and the other way round
        scenario = tmp_path / "stored.json"
        save_scenario(stored_as_read(worked_scenario, fact, value), str(scenario))
        out = tmp_path / "o"
        options = ("--anm", "meshed", "--out", str(out)) if command == "run" else ("--iterations", "1")
        assert run_cli(command, "--scenario", str(scenario), *options) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert violation in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("fact,value,detail", REFUSED_BY_THE_TABLE)
    @pytest.mark.parametrize("command", ["run", "calibrate"])
    def test_rank_or_link_no_table_holds_exits_2_naming_the_entry(
        self, tmp_path, worked_file, capsys, command, fact, value, detail
    ):
        # the file holds JSON true, 1.5, "2", null or 2**63 where the value belongs
        with open(worked_file, encoding="utf-8") as fh:
            data = with_entry(json.load(fh), fact, value)
        scenario = tmp_path / "refused.json"
        scenario.write_text(json.dumps(data))
        violation = f"cannot load scenario: {detail}"
        out = tmp_path / "o"
        options = ("--anm", "meshed", "--out", str(out)) if command == "run" else ("--iterations", "1")
        assert run_cli(command, "--scenario", str(scenario), *options) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert violation in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["additive", "Coefficient", None])
    @pytest.mark.parametrize("command", ["run", "calibrate"])
    def test_preference_mode_other_than_coefficient_exits_2(self, tmp_path, worked_file, capsys, command, mode):
        # the writer always emits "coefficient"; a file turns the preference steering off with alpha: 0
        with open(worked_file, encoding="utf-8") as fh:
            data = json.load(fh)
        data["weights"]["preference_mode"] = mode
        scenario = tmp_path / "mode.json"
        scenario.write_text(json.dumps(data))
        out = tmp_path / "o"
        options = ("--anm", "meshed", "--out", str(out)) if command == "run" else ("--iterations", "1")
        assert run_cli(command, "--scenario", str(scenario), *options) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"weights.preference_mode: unsupported value {mode!r}" in err and "alpha: 0" in err
        assert "Traceback" not in err and not out.exists()

    def test_integral_float_link_gives_the_same_artifacts(self, tmp_path, worked_file):
        # a writer may emit a link as 1.0; it is read as 1
        with open(worked_file, encoding="utf-8") as fh:
            data = with_entry(json.load(fh), "link", 1.0)
        linked = tmp_path / "float-link.json"
        linked.write_text(json.dumps(data))
        assert '"AC2": [1, 1, 1.0, 1]' in linked.read_text()
        for name, scenario in (("a", worked_file), ("b", str(linked))):
            assert run_cli("run", "--scenario", scenario, "--anm", "meshed", "--out", str(tmp_path / name)) == EXIT_OK
        match, mismatch, errors = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b", RESULT_FILES, shallow=False)
        assert sorted(match) == sorted(RESULT_FILES)

    def test_scenario_not_in_utf8_exits_2(self, tmp_path, worked_file, capsys):
        scenario = tmp_path / "latin1.json"
        with open(worked_file, "rb") as fh:
            scenario.write_bytes(b"\xff" + fh.read())
        assert run_cli("run", "--scenario", str(scenario), "--anm", "meshed", "--out", str(tmp_path / "o")) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "not UTF-8 at byte offset 0" in err and "Traceback" not in err

    def test_unreadable_scenario_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        assert run_cli("run", "--scenario", str(bad), "--anm", "meshed", "--out", str(tmp_path / "o")) == EXIT_CONFIG

    @pytest.mark.parametrize("flag,value", [("--w2", "-1"), ("--w14", "-5"), ("--alpha", "nan")])
    def test_invalid_weight_override_exits_2(self, tmp_path, worked_file, capsys, flag, value):
        code = run_cli(
            "run", "--scenario", worked_file, "--anm", "meshed", "--out", str(tmp_path / "o"), flag, value
        )
        assert code == EXIT_CONFIG
        assert flag[2:] in capsys.readouterr().err

    def test_non_finite_energy_exits_2(self, tmp_path, nan_energy_file, capsys):
        code = run_cli("run", "--scenario", nan_energy_file, "--anm", "meshed", "--out", str(tmp_path / "o"))
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "AC1: finite (energy nan)" in err
        assert "Traceback" not in err

    def test_zero_iterations_exits_2(self, worked_file, capsys):
        assert run_cli("calibrate", "--scenario", worked_file, "--iterations", "0") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "iterations must be >= 1" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "min_kwh,max_kwh,detail",
        [
            (0.0, math.nan, "max_kwh nan"),
            (math.nan, 5.0, "min_kwh nan"),
            (math.inf, math.inf, "min_kwh inf"),
            (-5.0, -1.0, "max -1.0 < 0"),
        ],
        ids=["nan-max", "nan-min", "inf-min", "negative-max"],
    )
    def test_unmeetable_line_bound_exits_2(self, tmp_path, worked_file, capsys, min_kwh, max_kwh, detail):
        scenario = with_line_bounds(tmp_path, worked_file, (min_kwh, max_kwh))
        code = run_cli("run", "--scenario", scenario, "--anm", "meshed", "--out", str(tmp_path / "o"))
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "(AC1, AP1)" in err and detail in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("bounds", [[(0.0, 1.0), (5.0, 9.0)], [(5.0, 9.0), (0.0, 1.0)]], ids=["narrow-first", "wide-first"])
    def test_duplicate_line_constraint_exits_2(self, tmp_path, worked_file, capsys, bounds):
        # with either bound applied alone the run commits a different cm(AC1, AP1)
        scenario = with_line_bounds(tmp_path, worked_file, *bounds)
        code = run_cli("run", "--scenario", scenario, "--anm", "meshed", "--out", str(tmp_path / "o"))
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "(AC1, AP1): line-unique" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_sell_back_line_bound_exits_2(self, tmp_path, worked_file, capsys):
        with open(worked_file, encoding="utf-8") as fh:
            data = json.load(fh)
        data["line_constraints"] = [{"row": "U", "col": "AP1", "min_kwh": 0.0, "max_kwh": 2.0}]
        scenario = tmp_path / "sell-back.json"
        scenario.write_text(json.dumps(data))
        code = run_cli("run", "--scenario", str(scenario), "--anm", "meshed", "--out", str(tmp_path / "o"))
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "(U, AP1): line-not-sell-back" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_line_on_a_remote_producer_exits_2(self, tmp_path, capsys):
        # no run decides a consumer's flow from another SSP's producer: a
        # baseline that applied these [0, 0] lines needed more Utility than
        # the meshed runs
        scenario = generate_scenario(
            GeneratorSpec(n_ssps=3, consumers_per_ssp=4, producers_per_ssp=2, supply_mean_kwh=24.0, noise_std_kwh=8.0, seed=0)
        )
        lines = [
            LineConstraint(c.id, p.id, 0.0, 0.0)
            for cfg in scenario.ssps
            for c in cfg.consumers
            for other in scenario.ssps
            if other is not cfg
            for p in other.producers
        ]
        path = tmp_path / "remote.json"
        save_scenario(replace(scenario, line_constraints=LineConstraintSet(tuple(lines))), str(path))
        code = run_cli("run", "--scenario", str(path), "--anm", "meshed", "--seed", "1", "--out", str(tmp_path / "o"))
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "(S01.C01, S02.P01): line-decided-flow" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @UNMEETABLE_MINIMUMS
    def test_line_minimums_no_matching_meets_exit_2(self, tmp_path, worked_file, capsys, lines):
        scenario = with_lines(tmp_path, worked_file, *lines)
        code = run_cli("run", "--scenario", scenario, "--anm", "meshed", "--out", str(tmp_path / "o"))
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "line constraints no matching can meet" in err and "'S1'" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_line_bound_without_upper_limit_runs(self, tmp_path, worked_file):
        scenario = with_line_bounds(tmp_path, worked_file, (-math.inf, math.inf))
        assert run_cli("run", "--scenario", scenario, "--anm", "meshed", "--out", str(tmp_path / "o")) == EXIT_OK

    def test_offer_below_a_line_floor_is_declined_not_fatal(self, tmp_path):
        # S01 cannot take S03's offer under its 40 kWh line floor: a 0 claim, not exit 4
        scenario = tmp_path / "floored.json"
        save_scenario(floored_study2(40.0), str(scenario))
        out = tmp_path / "o"
        assert run_cli("run", "--scenario", str(scenario), "--anm", "meshed", "--seed", "1", "--out", str(out)) == EXIT_OK
        assert "1,claim,S01,S03,0.0,," in (out / "messages.csv").read_text().splitlines()

    def test_sell_back_cells_carry_no_float_dust(self, tmp_path):
        # sell-backs re-attributed after an export read as 0 at or below
        # RESIDUAL_TOL, exactly like the ones the LP solve writes
        scenario = tmp_path / "s50.json"
        assert run_cli(
            "gen", "--ssps", "50", "--consumers", "10", "--producers", "5", "--supply-mean", "24",
            "--seed", "101", "--out", str(scenario),
        ) == EXIT_OK
        out = tmp_path / "results"
        assert run_cli("run", "--scenario", str(scenario), "--anm", "meshed", "--seed", "1", "--out", str(out)) == EXIT_OK
        sell_backs = [
            float(kwh)
            for _, row_id, _, kwh in (line.split(",") for line in (out / "commitments.csv").read_text().splitlines()[1:])
            if row_id == "U"
        ]
        assert sell_backs
        assert not [kwh for kwh in sell_backs if 0.0 < kwh <= 1e-9]

    def test_weight_override_changes_behavior(self, tmp_path, worked_file):
        out = tmp_path / "weird"
        code = run_cli(
            "run", "--scenario", worked_file, "--anm", "meshed", "--out", str(out), "--w2", "100.0"
        )
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["final_utility_kwh"] == pytest.approx(0.0, abs=1e-6)


class TestReport:
    def make_run(self, tmp_path, scenario_file, name, *extra) -> str:
        out = tmp_path / name
        assert run_cli("run", "--scenario", scenario_file, "--anm", "meshed", "--out", str(out), *extra) == EXIT_OK
        return str(out)

    def test_single_run_lists_every_ssp(self, tmp_path, pair_file, capsys):
        out = self.make_run(tmp_path, pair_file, "r1")
        assert run_cli("report", out) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        ssp_rows = [line for line in lines if line.startswith("S")]
        assert len(ssp_rows) == 2

    def test_two_runs_get_a_comparison(self, tmp_path, pair_file, capsys):
        run_a = self.make_run(tmp_path, pair_file, "ra")
        anm_file = tmp_path / "anm.csv"
        anm_file.write_text("ssp_a,ssp_b,present\nS1,S2,0\n")
        out_b = tmp_path / "rb"
        assert run_cli(
            "run", "--scenario", pair_file, "--anm", "file", "--anm-file", str(anm_file), "--out", str(out_b)
        ) == EXIT_OK
        assert run_cli("report", run_a, str(out_b)) == EXIT_OK
        output = capsys.readouterr().out
        assert "comparison" in output
        assert f"{run_a} <= {out_b}:\tyes" in output

    def test_every_ssp_of_every_run_gets_a_row(self, tmp_path, capsys):
        runs = {"a": {"S1": (3.0, 1.0)}, "b": {"S1": (3.0, 0.5), "S2": (2.0, 0.0)}}
        for name, per_ssp in runs.items():
            (tmp_path / name).mkdir()
            summary = {
                "final_utility_kwh": sum(final for _, final in per_ssp.values()),
                "iterations": 1,
                "coalitions": 1,
                "per_ssp": {
                    ssp_id: {"initial_abs_status_kwh": initial, "final_utility_kwh": final}
                    for ssp_id, (initial, final) in per_ssp.items()
                },
            }
            (tmp_path / name / "summary.json").write_text(json.dumps(summary))
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        for order in ([a, b], [b, a]):
            assert run_cli("report", *order) == EXIT_OK
            rows = {line.split("\t")[0]: line.split("\t")[1:] for line in capsys.readouterr().out.splitlines()}
            cells = {a: ["3.0", "1.0"], b: ["3.0", "0.5"]}
            assert rows["S1"] == cells[order[0]] + cells[order[1]]
            s2 = {a: ["", ""], b: ["2.0", "0.0"]}
            assert rows["S2"] == s2[order[0]] + s2[order[1]]

    def test_empty_directory_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "nothing"
        empty.mkdir()
        assert run_cli("report", str(empty)) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "text,detail",
        [("{ not json", "unreadable summary.json"), ('{"iterations": 3}', "lacks coalitions"), ("[]", "lacks an object")],
        ids=["not-json", "missing-keys", "not-an-object"],
    )
    def test_malformed_summary_exits_2(self, tmp_path, capsys, text, detail):
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "summary.json").write_text(text)
        assert run_cli("report", str(bad)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert detail in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "field,value,detail",
        [
            ("per_ssp", {"S1": 5}, "has per_ssp.S1 = 5, not an object"),
            ("per_ssp", 5, "has per_ssp = 5, not an object"),
            ("final_utility_kwh", "1.5", "has final_utility_kwh = '1.5', not a number"),
        ],
        ids=["per-ssp-entry", "per-ssp", "final-utility"],
    )
    def test_mistyped_summary_exits_2_before_printing(self, tmp_path, pair_file, capsys, field, value, detail):
        # the mistyped run comes second, beside a good one it would be compared with
        good = self.make_run(tmp_path, pair_file, "good")
        bad = self.make_run(tmp_path, pair_file, "bad")
        summary = json.loads((tmp_path / "bad" / "summary.json").read_text())
        summary[field] = value
        (tmp_path / "bad" / "summary.json").write_text(json.dumps(summary))
        capsys.readouterr()
        assert run_cli("report", good, bad) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert f"summary.json in {bad} {detail}" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_summary_without_final_utility_exits_2(self, tmp_path, pair_file, capsys):
        out = self.make_run(tmp_path, pair_file, "r1")
        summary = json.loads((tmp_path / "r1" / "summary.json").read_text())
        del summary["final_utility_kwh"]
        (tmp_path / "r1" / "summary.json").write_text(json.dumps(summary))
        assert run_cli("report", out) == EXIT_CONFIG
        assert "lacks final_utility_kwh" in capsys.readouterr().err


class TestCalibrate:
    def test_prints_weight_json(self, tmp_path, worked_file, capsys):
        assert run_cli("calibrate", "--scenario", worked_file, "--iterations", "1") == EXIT_OK
        weights = json.loads(capsys.readouterr().out)
        assert set(weights) == {"w14", "w2", "w35", "alpha", "beta"}

    def test_invalid_scenario_exits_2(self, nan_energy_file, capsys):
        assert run_cli("calibrate", "--scenario", nan_energy_file, "--iterations", "1") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "AC1: finite (energy nan)" in err
        assert "Traceback" not in err

    @UNMEETABLE_MINIMUMS
    def test_line_minimums_no_matching_meets_exit_2(self, tmp_path, worked_file, capsys, lines):
        scenario = with_lines(tmp_path, worked_file, *lines)
        assert run_cli("calibrate", "--scenario", scenario, "--iterations", "1") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "line constraints no matching can meet" in err and "'S1'" in err
        assert "Traceback" not in err

    def test_zero_iterations_exits_2(self, worked_file, capsys):
        assert run_cli("calibrate", "--scenario", worked_file, "--iterations", "0") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "iterations must be >= 1" in err
        assert "Traceback" not in err
