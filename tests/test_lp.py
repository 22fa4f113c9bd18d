from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sspsim.lp import (
    FEAS_TOL,
    LinearProgram,
    LpFormatError,
    LpSolution,
    LpStatus,
    LpVariable,
    solve_lp,
    validate_program,
    _Simplex,
)
from sspsim.matching import _build_centralized
from sspsim.scenario import GeneratorSpec, generate_scenario
from tests.oracles import (
    OracleSizeError,
    ReferenceSimplex,
    assert_dual_certificate,
    assert_standardised_alike,
    brute_force_verify,
    constraint_residuals,
    highs,
    program_of,
)


def test_single_variable_minimum():
    solution = solve_lp(program_of([LpVariable(3.0, 10.0)], {0: 1.0}))
    assert solution.status is LpStatus.OPTIMAL
    assert solution.values[0] == pytest.approx(3.0, abs=1e-9)
    assert solution.objective == pytest.approx(3.0, abs=1e-9)


OPT, INF = LpStatus.OPTIMAL, LpStatus.INFEASIBLE


@pytest.mark.parametrize(
    "rows, status",
    [
        ([], OPT),
        ([("<=", -0.0)], OPT),
        ([("<=", -1.0)], INF),
        ([("=", 1.0)], INF),
        ([("=", -1.0)], INF),
        ([("<=", 1.0), ("<=", 1.0), ("=", 0.0), ("<=", 0.0), ("<=", -0.0)], OPT),
        ([("<=", 2.0), ("<=", -0.5)], INF),
        ([("=", 0.0)], OPT),
        ([("=", -0.0)], OPT),
        ([("=", 0.0), ("=", 0.0)], OPT),
        ([("=", 0.0), ("<=", 3.0)], OPT),
    ],
)
def test_a_program_without_columns_is_judged_like_one_with_an_unused_column(rows, status):
    # every row reads 0 <relation> rhs: it holds at 0 or the program is
    # infeasible. Rows of "= 0" alone leave phase 2 without any column: phase
    # 1 drops each as redundant
    rows = [({}, relation, rhs) for relation, rhs in rows]
    bare, padded = program_of([], {}, rows), program_of([LpVariable()], {}, rows)
    got, want = solve_lp(bare), solve_lp(padded)
    assert (got.status, want.status) == (status, status)
    assert (got.values, got.objective, got.duals, got.pivots) == ([], want.objective, want.duals, want.pivots)


def test_symmetric_vertex_resolved_by_index():
    lp = program_of([LpVariable(), LpVariable()], {0: -1.0, 1: -1.0}, [({0: 1.0, 1: 1.0}, "<=", 1.0)])
    solution = solve_lp(lp)
    assert solution.objective == pytest.approx(-1.0, abs=1e-9)
    assert solution.values == [1.0, 0.0]


def test_infeasible_program_detected_by_both_routes():
    lp = program_of([LpVariable(0.0, 5.0)], {}, [({0: -1.0}, "<=", -7.0)])  # x >= 7
    assert solve_lp(lp).status is LpStatus.INFEASIBLE
    assert brute_force_verify(lp, 0.5) == math.inf


def textbook(relation: str = "<=", upper: float = math.inf, sign: float = 1.0) -> LinearProgram:
    """min -2x - 3y over 2x + y <= 10, x + 3y <= 15, the first row written
    with ``relation`` and multiplied by ``sign``."""
    return program_of(
        [LpVariable(0.0, upper), LpVariable(0.0, upper)],
        {0: -2.0, 1: -3.0},
        [({0: 2.0 * sign, 1: 1.0 * sign}, relation, 10.0 * sign), ({0: 1.0, 1: 3.0}, "<=", 15.0)],
    )


@pytest.mark.parametrize("relation, sign", [("<=", 1.0), ("=", 1.0), ("=", -1.0)], ids=["<=", "=", "=-negated"])
def test_duals_of_a_textbook_program(relation, sign):
    # optimum (3, 4) at -18, duals (-3/5, -4/5). The first row binds, so as
    # an equality it has the same optimum and duals; written as
    # -2x - y = -10 (a negated row in the standard form), its dual flips sign
    lp = textbook(relation, sign=sign)
    solution = solve_lp(lp)
    assert solution.values == pytest.approx([3.0, 4.0])
    assert solution.duals == pytest.approx([-0.6 * sign, -0.8])
    assert_dual_certificate(lp, solution)


def test_a_negated_row_that_does_not_bind_has_dual_plus_zero():
    # min -x over the cap x <= 3 and the floor x >= 1 written -x <= -1: the
    # cap binds with dual -1; the floor's dual is 0, and dividing it back by
    # its row's sign -1 must not leave -0.0
    lp = program_of([LpVariable()], {0: -1.0}, [({0: 1.0}, "<=", 3.0), ({0: -1.0}, "<=", -1.0)])
    for solution in (solve_lp(lp), ReferenceSimplex(lp).solve()):
        assert solution.values == [3.0]
        assert solution.duals == [-1.0, 0.0]
        assert math.copysign(1.0, solution.duals[1]) == 1.0


def test_pivots_count_phase_one_and_phase_two():
    # the textbook program starts at its all-slack crash basis: y enters,
    # then x, and the vertex (3, 4) is optimal
    assert solve_lp(textbook()).pivots == 2
    # x >= 7, written -x <= -7, has no crash column: one phase-1 pivot seats
    # x, and phase 2 has nothing to improve; with x <= 5 phase 1 stops
    # infeasible after it
    for upper, status in ((9.0, LpStatus.OPTIMAL), (5.0, LpStatus.INFEASIBLE)):
        lp = program_of([LpVariable(0.0, upper)], {0: 1.0}, [({0: -1.0}, "<=", -7.0)])
        assert (solve_lp(lp).status, solve_lp(lp).pivots) == (status, 1)
    # the crash basis seats x at its bound 5, which is optimal: no pivot
    assert solve_lp(program_of([LpVariable(0.0, 5.0)], {0: -1.0})).pivots == 0
    assert solve_lp(LinearProgram()).pivots == 0


def test_a_degenerate_cycle_switches_to_blands_rule(monkeypatch):
    # Chvatal's cycling example (*Linear Programming*, ch. 3), x1 <= 1 as a row
    lp = program_of(
        [LpVariable() for _ in range(4)],
        {0: -10.0, 1: 57.0, 2: 9.0, 3: 24.0},
        [
            ({0: 0.5, 1: -5.5, 2: -2.5, 3: 9.0}, "<=", 0.0),
            ({0: 0.5, 1: -1.5, 2: -0.5, 3: 1.0}, "<=", 0.0),
            ({0: 1.0}, "<=", 1.0),
        ],
    )
    entered: list[int] = []
    with monkeypatch.context() as spy:
        column = _Simplex._column  # called once per pivot, on the entering column
        spy.setattr(_Simplex, "_column", lambda self, j: entered.append(j) or column(self, j))
        solution = solve_lp(lp)
    # Dantzig's rule, ties to the smallest basis index, cycles: x1..x4 and the
    # slacks of the first two rows (columns 4, 5) enter in turn, and every 6
    # pivots bring back the start basis at objective 0. After 44 stalled
    # pivots (more than 40 + m, m = 3) Bland's rule takes over and leaves the
    # cycle in 5 pivots
    assert entered == [0, 1, 2, 3, 4, 5] * 7 + [0, 1] + [2, 3, 4, 0, 2]
    assert solution == LpSolution(LpStatus.OPTIMAL, [1.0, 0.0, 1.0, 0.0], -1.0, [0.0, -18.0, -1.0], 49)
    assert_standardised_alike(lp)
    assert_dual_certificate(lp, solution)
    oracle = highs(lp)
    assert oracle.status == 0
    assert list(oracle.x) == pytest.approx(solution.values, abs=1e-9)
    assert oracle.fun == pytest.approx(-1.0, abs=1e-9)
    assert list(oracle.ineqlin.marginals) == pytest.approx(solution.duals, abs=1e-9)


def test_redundant_row_dropped_in_phase_one_gets_dual_zero():
    row = ({0: 1.0, 1: 1.0}, "=", 2.0)
    lp = program_of([LpVariable(), LpVariable()], {0: 1.0, 1: 2.0}, [row, row])
    simplex = _Simplex(lp)
    solution = simplex.solve()
    assert len(simplex.row_ids) == 1  # one copy is redundant
    assert sorted(solution.duals) == [0.0, 1.0]
    assert_dual_certificate(lp, solution)


def test_a_row_dropped_in_phase_one_is_cut_out_of_the_column_store():
    # x + y = 2 twice: phase 1 seats x in row 0 and drops row 1 as redundant;
    # phase 2 pivots y in for x, then z (not a crash column: z <= 10 is the
    # bound row 3) for the slack of row 2, now row 1 of the store
    x, y, z = 0, 1, 2
    lp = program_of(
        [LpVariable(), LpVariable(), LpVariable(0.0, 10.0)],
        {y: -1.0, z: -1.0},
        [({x: 1.0, y: 1.0}, "=", 2.0), ({x: 1.0, y: 1.0}, "=", 2.0), ({y: 1.0, z: 1.0}, "<=", 3.0)],
    )
    simplex = _Simplex(lp)
    solution = simplex.solve()
    assert simplex.row_ids.tolist() == [0, 2, 3]
    # x; y; z; the slacks of rows 2 and 3; the artificial of row 0 (row 1's is empty)
    assert simplex.row_ix.tolist() == [0, 0, 1, 1, 2, 1, 2, 0]
    assert simplex.indptr.tolist() == [0, 1, 3, 5, 6, 7, 8, 8]
    assert (solution.values, solution.pivots) == ([0.0, 2.0, 1.0], 3)
    assert_standardised_alike(lp)


def test_a_redundant_row_is_dropped_where_its_artificial_started():
    # z is fixed twice, by -0.5 z = 1.5 (row 0) and by 0.1 z = -0.3 (row 2),
    # both at its lower bound -3. Phase 1 ends with row 2's artificial in
    # basis slot 1. Its own row, row 2, is the redundant one; dropping row 1,
    # the row of its slot, instead left a singular basis
    x, y, z = 0, 1, 2
    lp = program_of(
        [LpVariable(-3.0, -2.0) for _ in (x, y, z)],
        {},
        [
            ({z: -0.5}, "=", 1.5),
            ({x: 1.0, z: -1.0}, "<=", 0.0),
            ({z: 0.1}, "=", -0.30000000000000004),
            ({x: 1.0, y: 0.1}, "=", -3.3),
        ],
    )
    simplex = _Simplex(lp)
    solution = simplex.solve()
    assert simplex.row_ids.tolist() == [0, 1, 3, 4, 5, 6]
    assert solution == LpSolution(LpStatus.OPTIMAL, [-3.0, -3.0, -3.0], 0.0, [0.0] * 4, 4)
    assert max(constraint_residuals(lp, solution.values).values()) < 1e-9
    assert_standardised_alike(lp)
    assert_dual_certificate(lp, solution)


def test_ftran_follows_the_dense_reference_on_a_column_of_inexact_entries():
    # phase 1 pivots x0 and x1 in through columns with entries 0.1 and 1:
    # B^-1 times only a column's entries rounds B^-1[2, 4] one bit away from
    # the dense product, so FTRAN multiplies the column as a dense vector
    x0, x1, x2 = 0, 1, 2
    lp = program_of(
        [LpVariable(-3.0, -0.5)] + [LpVariable(-3.0, -3.0) for _ in range(3)],
        {},
        [
            ({x0: 0.0}, "<=", -4.0),
            ({x0: 1.0, x2: 1.0, x1: 0.1}, "<=", -4.0),
            ({x2: 0.0, x0: 0.1, x1: 0.1}, "=", -0.0),
        ],
    )
    assert_standardised_alike(lp)


def test_the_study2_baseline_is_standardised_without_a_dense_matrix():
    # the dense standard form of this LP (1,220 x 22,020) alone takes 215 MB
    scenario = generate_scenario(GeneratorSpec(
        n_ssps=20, consumers_per_ssp=35, producers_per_ssp=10,
        passive_consumers=10, passive_consumer_bound=0.15, passive_producers=5, passive_producer_bound=0.10,
        demand_mean_kwh=12.0, supply_mean_kwh=15.0, noise_std_kwh=3.0, seed=0,
    ))
    lp, _ = _build_centralized(scenario)
    assert (len(lp.variables), len(lp.constraints)) == (21_500, 920)
    tracemalloc.start()
    try:
        simplex = _Simplex(lp)
        simplex._refactorize()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (simplex.b.size, simplex.cost.size) == (1_220, 22_020)
    assert peak < 40e6


def test_non_optimal_solutions_carry_zero_duals():
    lp = program_of([LpVariable(0.0, 5.0)], {}, [({0: -1.0}, "<=", -7.0), ({0: 1.0}, "<=", 9.0)])
    assert solve_lp(lp).duals == [0.0, 0.0]


def test_unbounded_objective_is_reported_not_clipped():
    assert solve_lp(program_of([LpVariable()], {0: -1.0})).status is LpStatus.UNBOUNDED


@pytest.mark.parametrize("upper", [math.inf, 4.0], ids=["free", "upper-only"])
def test_variable_without_finite_lower_bound_is_rejected(upper):
    y, x = 0, 1
    variables = [LpVariable(0.0, 4.0), LpVariable(-math.inf, upper)]
    lp = program_of(variables, {x: 1.0}, [({x: 1.0, y: 1.0}, "=", 2.0)])
    with pytest.raises(LpFormatError, match=r"^column 1 has no finite lower bound"):
        solve_lp(lp)


def test_transport_toy_matches_oracle():
    # one supply of 5 split across demands of 2 and 3, served kWh rewarded
    lp = program_of(
        [LpVariable(0.0, 5.0), LpVariable(0.0, 5.0)],
        {0: -1.0, 1: -1.0},
        [({0: 1.0, 1: 1.0}, "<=", 5.0), ({0: 1.0}, "<=", 2.0), ({1: 1.0}, "<=", 3.0)],
    )
    solution = solve_lp(lp)
    oracle = brute_force_verify(lp, 0.5)
    assert solution.objective == pytest.approx(oracle, abs=1e-6)


def test_oracle_never_beats_solver_on_coarse_grid():
    lp = program_of([LpVariable(0.0, 2.0)], {0: 1.0}, [({0: -1.0}, "<=", -0.3)])  # x >= 0.3
    solution = solve_lp(lp)
    oracle = brute_force_verify(lp, 0.5)
    assert solution.objective <= oracle + 1e-6
    assert oracle == pytest.approx(0.5)


def test_oracle_refuses_oversized_grids():
    with pytest.raises(OracleSizeError):
        brute_force_verify(program_of([LpVariable(0.0, 10.0) for _ in range(8)], {}), 0.1)
    with pytest.raises(OracleSizeError):
        brute_force_verify(program_of([LpVariable()], {}), 0.5)


def test_validate_program_names_offenders():
    with pytest.raises(LpFormatError, match="^column 0 "):
        validate_program(program_of([LpVariable(2.0, 1.0)], {}))
    with pytest.raises(LpFormatError, match="^row 0: "):
        validate_program(program_of([LpVariable()], {}, [({3: 1.0}, "<=", 1.0)]))
    with pytest.raises(LpFormatError, match="relation"):
        validate_program(program_of([LpVariable()], {}, [({0: 1.0}, "!!", 1.0)]))


def test_a_column_is_its_position():
    # two columns with equal arrays are two columns, each known by the
    # position add_columns returns
    lp = LinearProgram()
    assert lp.add_columns([0.0], [1.0], [-1.0]) == 0
    assert lp.add_columns([0.0], [2.0], [-1.0]) == 1
    assert solve_lp(lp).values == [1.0, 2.0]


@pytest.mark.parametrize("costs", [[], [1.0, 2.0, 3.0]], ids=["too-few", "too-many"])
def test_add_columns_refuses_costs_of_another_length(costs):
    # a cost belongs to one column, as its bounds do; a refused call appends nothing
    lp = program_of([LpVariable()], {0: 1.0})
    with pytest.raises(LpFormatError, match=rf"^columns: 2 lower bounds, 2 upper bounds and {len(costs)} costs$"):
        lp.add_columns([0.0, 0.0], [1.0, 1.0], costs)
    assert (lp.lower.tolist(), lp.upper.tolist(), lp.cost.tolist()) == ([0.0], [math.inf], [1.0])


@pytest.mark.parametrize("key", [1.5, True, "y"], ids=["float", "bool", "name"])
@pytest.mark.parametrize("shape", ["mixed-list", "array"])
def test_the_builders_refuse_a_position_that_is_not_an_integer(key, shape):
    # numpy indexing would truncate 1.5 to column 1 and read True as 1, and a
    # list [0, True] converts to an integer array; a refused call appends nothing
    lp = program_of([LpVariable(), LpVariable()], {0: 1.0}, [({0: 1.0, 1: 1.0}, "<=", 1.0)])
    cols = [0, key] if shape == "mixed-list" else np.array([key, key])
    with pytest.raises(LpFormatError, match="integers"):
        lp.add_rows(["<="], [1.0], [2], cols, [1.0, 1.0])
    assert (len(lp.constraints), lp.entry_cols.tolist()) == (1, [0, 1])


@pytest.mark.parametrize("key", [-1, 2], ids=["negative", "len-variables"])
def test_validate_program_rejects_a_key_that_is_not_a_column(key):
    # numpy indexing would wrap -1 to the last column
    x, y = 0, 1
    rows = [({x: 1.0, y: 1.0}, "<=", 1.0), ({x: 1.0, key: 1.0}, "<=", 1.0)]
    lp = program_of([LpVariable(), LpVariable()], {}, rows)
    with pytest.raises(LpFormatError, match=rf"^row 1: key {key!r} is not a column"):
        validate_program(lp)
    assert list(lp.constraints[1].coeffs) == [x, key]


NON_FINITE_COSTS = {"nan-cost": math.nan, "inf-cost": math.inf, "minus-inf-cost": -math.inf}


def program_with_offenders(kind: str) -> LinearProgram:
    """A program with two offenders of one kind, or of two kinds in two rows."""
    variables = [LpVariable(0.0, 1.0)]
    if kind == "nan-bound":
        variables += [LpVariable(0.0, math.nan), LpVariable(math.nan, 1.0)]
    elif kind == "no-lower":
        variables += [LpVariable(-math.inf, 1.0), LpVariable(-math.inf)]
    elif kind == "crossed":
        variables += [LpVariable(2.0, 1.0), LpVariable(3.0, -math.inf)]
    elif kind in NON_FINITE_COSTS:
        variables += [LpVariable(), LpVariable()]
    cost = {1: NON_FINITE_COSTS[kind], 2: math.nan} if kind in NON_FINITE_COSTS else {}
    rows = [({0: 1.0}, "<=", 1.0)]
    if kind == "relation":
        rows += [({0: 1.0}, "=<", 1.0), ({0: 1.0}, "<=", math.nan)]
    elif kind == "rhs":
        rows += [({0: 1.0}, "<=", math.inf), ({0: 1.0}, "!!", 1.0)]
    elif kind == "key-negative":
        rows += [({0: 1.0, -1: 1.0}, "<=", 0.0), ({7: 1.0}, "<=", 0.0)]
    elif kind == "key-past-the-end":
        # an empty row before the offender's: its row is found from row_starts
        rows += [({}, "<=", 0.0), ({0: 1.0, 1: 1.0}, "<=", 0.0), ({7: 1.0}, "<=", 0.0)]
    return program_of(variables, cost, rows)


@pytest.mark.parametrize(
    "kind, message",
    [
        ("nan-bound", "column 1 has NaN bound"),
        ("no-lower", "column 1 has no finite lower bound (-inf)"),
        ("crossed", "column 1 has lower 2.0 > upper 1.0"),
        # a NaN cost would pivot to the limit, an infinite one end OPTIMAL with objective nan
        ("nan-cost", "column 1 has non-finite cost nan"),
        ("inf-cost", "column 1 has non-finite cost inf"),
        ("minus-inf-cost", "column 1 has non-finite cost -inf"),
        ("relation", "row 1: unknown relation '=<'"),
        ("rhs", "row 1: non-finite rhs inf"),
        ("key-negative", "row 1: key -1 is not a column position in [0, 1)"),
        ("key-past-the-end", "row 2: key 1 is not a column position in [0, 1)"),
    ],
)
def test_solve_lp_names_the_first_offender(kind, message):
    # the array checks find that a program is malformed; the search names its
    # first offender: bounds, then costs, in column order, then relations and
    # rhs in row order, then positions
    with pytest.raises(LpFormatError) as raised:
        solve_lp(program_with_offenders(kind))
    assert str(raised.value) == message


def test_solve_lp_refuses_a_greater_equal_row_naming_it():
    # a >= row is written as its negated <= row
    lp = program_of([LpVariable(0.0, 9.0)], {0: 1.0}, [({0: 1.0}, "<=", 9.0), ({0: 1.0}, ">=", 7.0)])
    with pytest.raises(LpFormatError, match=r"^row 1: unknown relation '>='$"):
        solve_lp(lp)


def test_repeated_solves_are_bit_identical():
    lp = textbook(upper=9.0)
    first = solve_lp(lp)
    second = solve_lp(lp)
    assert first == second


def test_optimal_solutions_pass_independent_residual_check():
    lp = program_of(
        [LpVariable(0.0, 9.0), LpVariable(-3.0, 9.0)],
        {0: 1.0, 1: 1.0},
        [({0: -1.0, 1: -2.0}, "<=", -4.0), ({0: 1.0, 1: -1.0}, "<=", 6.0)],  # row 0: x + 2y >= 4
    )
    solution = solve_lp(lp)
    residuals = constraint_residuals(lp, solution.values)
    assert max(residuals.values()) < 1e-6
    assert residuals["bounds"] < 1e-9


# a relation and the sign its row is multiplied by: a >= row is drawn as its
# negated <= row, so the strategies cover the polytopes of all three relations
LE, EQ, GE_AS_LE = ("<=", 1.0), ("=", 1.0), ("<=", -1.0)
RELATIONS = st.sampled_from([LE, EQ, GE_AS_LE])


@st.composite
def tiny_programs(draw):
    n_vars = draw(st.integers(2, 4))
    variables, objective = [], {}
    for k in range(n_vars):
        variables.append(LpVariable(0.0, 2.0))
        cost = float(draw(st.integers(-3, 3)))
        if cost != 0.0:
            objective[k] = cost
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        coeffs = {k: float(draw(st.integers(-2, 2))) for k in range(n_vars)}
        relation, sign = draw(st.sampled_from([LE, GE_AS_LE, EQ]))
        rhs = float(draw(st.integers(0, 4)))
        rows.append(({k: sign * c for k, c in coeffs.items()}, relation, sign * rhs))
    return program_of(variables, objective, rows)


@settings(max_examples=60, deadline=None)
@given(tiny_programs())
def test_solver_feasibility_and_oracle_dominance(lp):
    solution = solve_lp(lp)
    if solution.status is not LpStatus.OPTIMAL:
        if solution.status is LpStatus.INFEASIBLE:
            assert brute_force_verify(lp, 0.5) == math.inf
        return
    assert max(constraint_residuals(lp, solution.values).values()) < 1e-6
    oracle = brute_force_verify(lp, 0.5)
    assert solution.objective <= oracle + 1e-6


def bounded_at_optimum() -> tuple[_Simplex, int]:
    """A solved simplex whose x sits at its upper bound 2, and x's basis row."""
    simplex = _Simplex(program_of([LpVariable(0.0, 2.0)], {0: -1.0}))
    assert simplex.solve().values == [2.0]
    row = int(np.flatnonzero(simplex.basis == 0)[0])  # column k is standard column k
    return simplex, row


def test_extract_clamps_drift_within_tolerance():
    simplex, row = bounded_at_optimum()
    simplex.xb[row] += FEAS_TOL / 10
    assert simplex._extract().values == [2.0]


def test_extract_refuses_drift_beyond_tolerance():
    simplex, row = bounded_at_optimum()
    simplex.xb[row] += 10 * FEAS_TOL
    with pytest.raises(ArithmeticError, match="of column 0 "):
        simplex._extract()


def test_extract_names_the_first_column_drifted_beyond_tolerance():
    # x drifts within tolerance and is clamped; y and z drift beyond it, and
    # y, the first in column order, is named with its value as a plain float
    variables = [LpVariable(0.0, upper) for upper in (2.0, 3.0, 4.0)]
    lp = program_of(variables, dict.fromkeys(range(3), -1.0))
    simplex = _Simplex(lp)
    assert simplex.solve().values == [2.0, 3.0, 4.0]
    rows = [int(np.flatnonzero(simplex.basis == k)[0]) for k in range(3)]
    simplex.xb[rows] += [FEAS_TOL / 10, 10 * FEAS_TOL, 20 * FEAS_TOL]
    with pytest.raises(ArithmeticError, match=r"^simplex value 3\.00001 of column 1 lies outside its bounds \[0\.0, 3\.0\]"):
        simplex._extract()


FINITE = st.sampled_from([-3.0, -0.5, 0.0, 1.5, 4.0])
COEFFICIENTS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -0.5, 0.1, 3.0])


@st.composite
def standard_form_programs(draw):
    """Variables with a negative, zero or positive lower bound, with and
    without an upper bound; rows of both relations, as drawn or negated, with
    negative, signed-zero and positive rhs and zero coefficients."""
    n_vars = draw(st.integers(1, 6))
    variables, objective = [], {}
    for k in range(n_vars):
        lower = draw(FINITE)
        upper = lower + draw(st.sampled_from([0.0, 1.0, 2.5, math.inf]))
        variables.append(LpVariable(lower, upper))
        if draw(st.booleans()):
            objective[k] = draw(COEFFICIENTS)  # signed zeros too
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        row = draw(st.lists(st.integers(0, n_vars - 1), min_size=1, max_size=n_vars, unique=True))
        relation, sign = draw(RELATIONS)
        rhs = draw(st.sampled_from([-4.0, -0.0, 0.0, 2.0, 5.5]))
        rows.append(({col: sign * draw(COEFFICIENTS) for col in row}, relation, sign * rhs))
    return program_of(variables, objective, rows)


@settings(max_examples=300, deadline=None)
@given(standard_form_programs())
def test_array_standardisation_matches_the_loop_reference(lp):
    assert_standardised_alike(lp)


@settings(max_examples=300, deadline=None)
@given(standard_form_programs())
def test_duals_certify_the_optimum(lp):
    solution = solve_lp(lp)
    if solution.status is LpStatus.OPTIMAL:
        assert_dual_certificate(lp, solution)


@st.composite
def wide_programs(draw):
    """20-60 rows over sparse columns of 1-3 entries, as the matching LPs
    have: enough rows that most pivots move only a few rows of B^-1.
    Inexact coefficients, signed-zero rhs values and finite upper bounds.
    Most draws ask for a feasible program: each row's rhs is then offset
    from its value at the lower bounds in the direction its relation allows,
    and an equality row at 0 keeps the sign of the drawn zero."""
    n_rows = draw(st.integers(20, 60))
    n_vars = draw(st.integers(n_rows // 2, n_rows + 10))
    variables, objective = [], {}
    coeffs: list[dict[int, float]] = [{} for _ in range(n_rows)]
    for col in range(n_vars):
        lower = draw(FINITE)
        variables.append(LpVariable(lower, lower + draw(st.sampled_from([1.0, 2.5, 4.0, math.inf]))))
        objective[col] = draw(COEFFICIENTS)
        for row in draw(st.lists(st.integers(0, n_rows - 1), min_size=1, max_size=3, unique=True)):
            coeffs[row][col] = draw(COEFFICIENTS)
    feasible = draw(st.integers(0, 3)) > 0
    rows = []
    for row in coeffs:
        relation, sign = draw(RELATIONS)
        row = {col: sign * c for col, c in sorted(row.items())}
        rhs = sign * draw(st.sampled_from([-4.0, -0.0, 0.0, 2.0, 5.5]))
        if feasible:
            at_lower = sum(c * variables[col].lower for col, c in row.items())
            offset = 0.0 * rhs if relation == "=" else abs(rhs)
            rhs = offset if at_lower == 0.0 else at_lower + offset
        rows.append((row, relation, rhs))
    return program_of(variables, objective, rows)


@settings(max_examples=150, deadline=None)
@given(wide_programs())
def test_wide_sparse_programs_follow_the_reference_pivots(lp):
    assert_standardised_alike(lp)


def negative_zeros(a: np.ndarray) -> int:
    return int(np.count_nonzero((a == 0.0) & np.signbit(a)))


def assert_identity_start_and_positive_zeros(lp: LinearProgram) -> None:
    """The crash basis is I and scales no row (each row is divided by its
    sign), so ``solve`` starts from B^-1 = I and x_B = b + 0.0 without an
    inverse; B^-1 holds no -0.0 after a solve, nor after a refactorization
    (the restricted update skips the rows where a dense one could flip a
    -0.0)."""
    simplex = _Simplex(lp)
    assert set(simplex.row_divisor.tolist()) <= {-1.0, 1.0}
    simplex._refactorize()
    assert simplex.binv.tobytes() == np.eye(simplex.b.size).tobytes()
    assert simplex.xb.tobytes() == (simplex.b + 0.0).tobytes()
    try:
        simplex.solve()
    except ArithmeticError:
        return
    assert negative_zeros(simplex.binv) == 0
    simplex._refactorize()
    assert negative_zeros(simplex.binv) == 0


@settings(max_examples=200, deadline=None)
@given(st.one_of(standard_form_programs(), wide_programs()))
def test_every_solve_starts_from_the_identity_and_keeps_positive_zeros(lp):
    assert_identity_start_and_positive_zeros(lp)


def study1_centralized_lp(n_ssps: int) -> LinearProgram:
    """The baseline LP of the study-1 shape at scenario seed 101, as the ``centralized-10`` bench workload builds it."""
    scenario = generate_scenario(GeneratorSpec(
        n_ssps=n_ssps, consumers_per_ssp=10, producers_per_ssp=5, demand_mean_kwh=12.0,
        supply_mean_kwh=24.0, noise_std_kwh=3.0, seed=101,
    ))
    return _build_centralized(scenario)[0]


def test_the_centralized_solve_starts_from_the_identity_and_keeps_positive_zeros():
    assert_identity_start_and_positive_zeros(study1_centralized_lp(10))


def test_a_solve_inverts_a_basis_only_to_refactorize(monkeypatch):
    # below 150 pivots no refactorization is due, and the start needs none;
    # the 10-SSP baseline refactorizes once, at pivot 150
    inverses = []
    inverse = np.linalg.inv

    def counted(a):
        inverses.append(a.shape)
        return inverse(a)

    monkeypatch.setattr(np.linalg, "inv", counted)
    lp = program_of([LpVariable(0.0, 9.0)], {0: 1.0}, [({0: -1.0}, "<=", -7.0)])
    for program in (lp, study1_centralized_lp(3)):
        solution = solve_lp(program)
        assert 0 < solution.pivots < 150
    assert inverses == []
    assert solve_lp(study1_centralized_lp(10)).pivots > 150
    assert inverses == [(160, 160)]
