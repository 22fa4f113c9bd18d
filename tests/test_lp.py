from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sspsim.lp import (
    LinearProgram,
    LpFormatError,
    LpStatus,
    constraint_residuals,
    max_violation,
    solve_lp,
    validate_program,
)
from tests.oracles import OracleSizeError, brute_force_verify


def test_single_variable_minimum():
    lp = LinearProgram()
    lp.add_variable("x", 3.0, 10.0, cost=1.0)
    solution = solve_lp(lp)
    assert solution.status is LpStatus.OPTIMAL
    assert solution.values["x"] == pytest.approx(3.0, abs=1e-9)
    assert solution.objective == pytest.approx(3.0, abs=1e-9)


def test_symmetric_vertex_resolved_by_index():
    lp = LinearProgram()
    lp.add_variable("x", cost=-1.0)
    lp.add_variable("y", cost=-1.0)
    lp.add_constraint({"x": 1.0, "y": 1.0}, "<=", 1.0)
    solution = solve_lp(lp)
    assert solution.objective == pytest.approx(-1.0, abs=1e-9)
    assert (solution.values["x"], solution.values["y"]) == (1.0, 0.0)


def test_infeasible_program_detected_by_both_routes():
    lp = LinearProgram()
    lp.add_variable("x", 0.0, 5.0)
    lp.add_constraint({"x": 1.0}, ">=", 7.0)
    assert solve_lp(lp).status is LpStatus.INFEASIBLE
    assert brute_force_verify(lp, 0.5) == math.inf


def test_unbounded_objective_is_reported_not_clipped():
    lp = LinearProgram()
    lp.add_variable("x", cost=-1.0)
    assert solve_lp(lp).status is LpStatus.UNBOUNDED


def test_equality_and_free_variable():
    lp = LinearProgram()
    lp.add_variable("x", -math.inf, math.inf, cost=1.0)
    lp.add_variable("y", 0.0, 4.0)
    lp.add_constraint({"x": 1.0, "y": 1.0}, "=", 2.0)
    solution = solve_lp(lp)
    assert solution.status is LpStatus.OPTIMAL
    assert solution.values["x"] == pytest.approx(-2.0, abs=1e-9)


def test_transport_toy_matches_oracle():
    # one supply of 5 split across demands of 2 and 3, served kWh rewarded
    lp = LinearProgram()
    lp.add_variable("x1", 0.0, 5.0, cost=-1.0)
    lp.add_variable("x2", 0.0, 5.0, cost=-1.0)
    lp.add_constraint({"x1": 1.0, "x2": 1.0}, "<=", 5.0)
    lp.add_constraint({"x1": 1.0}, "<=", 2.0)
    lp.add_constraint({"x2": 1.0}, "<=", 3.0)
    solution = solve_lp(lp)
    oracle = brute_force_verify(lp, 0.5)
    assert solution.objective == pytest.approx(oracle, abs=1e-6)


def test_oracle_never_beats_solver_on_coarse_grid():
    lp = LinearProgram()
    lp.add_variable("x", 0.0, 2.0, cost=1.0)
    lp.add_constraint({"x": 1.0}, ">=", 0.3)
    solution = solve_lp(lp)
    oracle = brute_force_verify(lp, 0.5)
    assert solution.objective <= oracle + 1e-6
    assert oracle == pytest.approx(0.5)


def test_oracle_refuses_oversized_grids():
    lp = LinearProgram()
    for k in range(8):
        lp.add_variable(f"x{k}", 0.0, 10.0)
    with pytest.raises(OracleSizeError):
        brute_force_verify(lp, 0.1)
    lp2 = LinearProgram()
    lp2.add_variable("x")
    with pytest.raises(OracleSizeError):
        brute_force_verify(lp2, 0.5)


def test_validate_program_names_offenders():
    lp = LinearProgram()
    lp.add_variable("x")
    lp.add_variable("x")
    with pytest.raises(LpFormatError, match="'x'"):
        validate_program(lp)

    lp2 = LinearProgram()
    lp2.add_variable("a", 2.0, 1.0)
    with pytest.raises(LpFormatError, match="'a'"):
        validate_program(lp2)

    lp3 = LinearProgram()
    lp3.add_variable("a")
    lp3.add_constraint({"ghost": 1.0}, "<=", 1.0, name="cap")
    with pytest.raises(LpFormatError, match="cap"):
        validate_program(lp3)

    lp4 = LinearProgram()
    lp4.add_variable("a")
    lp4.add_constraint({"a": 1.0}, "!!", 1.0)
    with pytest.raises(LpFormatError, match="relation"):
        validate_program(lp4)


def test_repeated_solves_are_bit_identical():
    lp = LinearProgram()
    lp.add_variable("x", 0.0, 9.0, cost=-2.0)
    lp.add_variable("y", 0.0, 9.0, cost=-3.0)
    lp.add_constraint({"x": 2.0, "y": 1.0}, "<=", 10.0)
    lp.add_constraint({"x": 1.0, "y": 3.0}, "<=", 15.0)
    first = solve_lp(lp)
    second = solve_lp(lp)
    assert first == second


def test_optimal_solutions_pass_independent_residual_check():
    lp = LinearProgram()
    lp.add_variable("x", 0.0, 9.0, cost=1.0)
    lp.add_variable("y", -3.0, 9.0, cost=1.0)
    lp.add_constraint({"x": 1.0, "y": 2.0}, ">=", 4.0, name="floor")
    lp.add_constraint({"x": 1.0, "y": -1.0}, "<=", 6.0)
    solution = solve_lp(lp)
    residuals = constraint_residuals(lp, solution.values)
    assert max(residuals.values()) < 1e-6
    assert residuals["bounds"] < 1e-9


@st.composite
def tiny_programs(draw):
    n_vars = draw(st.integers(2, 4))
    lp = LinearProgram()
    for k in range(n_vars):
        lp.add_variable(f"v{k}", 0.0, 2.0, cost=float(draw(st.integers(-3, 3))))
    for _ in range(draw(st.integers(1, 3))):
        coeffs = {f"v{k}": float(draw(st.integers(-2, 2))) for k in range(n_vars)}
        relation = draw(st.sampled_from(["<=", ">=", "="]))
        rhs = float(draw(st.integers(0, 4)))
        lp.add_constraint(coeffs, relation, rhs)
    return lp


@settings(max_examples=60, deadline=None)
@given(tiny_programs())
def test_solver_feasibility_and_oracle_dominance(lp):
    solution = solve_lp(lp)
    if solution.status is not LpStatus.OPTIMAL:
        if solution.status is LpStatus.INFEASIBLE:
            assert brute_force_verify(lp, 0.5) == math.inf
        return
    assert max_violation(lp, solution.values) < 1e-6
    oracle = brute_force_verify(lp, 0.5)
    assert solution.objective <= oracle + 1e-6
