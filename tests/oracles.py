"""Independent oracles, and the loop versions of vectorised code kept as references."""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import replace

import numpy as np
import pytest

from sspsim.coalition import ActualNeighborhoodMap, CoalitionSet
from sspsim.lp import (
    EQUAL,
    FEAS_TOL,
    LESS_EQUAL,
    PIVOT_TOL,
    LinearProgram,
    LpSolution,
    LpStatus,
    LpVariable,
    _Simplex,
    solve_lp,
    validate_program,
)
from sspsim.matching import (
    RESIDUAL_TOL,
    FlexibilityAssignment,
    MatchingInfeasibleError,
    MatchingStructureError,
    PairTable,
    SspView,
    merged_view,
    solve_dist_matching,
    view_for_ssp,
)
from sspsim.model import (
    UTILITY_ID,
    CommitmentMatrix,
    LineConstraintSet,
    MatchingWeights,
    PreferenceTable,
    Scenario,
    Violation,
    energy_status,
    validate_scenario,
)
from sspsim.protocol import (
    CLAIM_KIND,
    OFFER_KIND,
    SEND_EXCESS,
    ConvergenceError,
    ConvergencePoint,
    InvalidScenarioError,
    LogRecord,
    MatchingResult,
    ProtocolViolationError,
    _Agent,
    shuffle_partners,
)


class OracleSizeError(ValueError):
    """Brute-force grid would exceed the enumeration budget."""


def brute_force_verify(lp: LinearProgram, grid_step: float, max_points: int = 1_000_000) -> float:
    """Best objective over the regular feasibility grid; +inf when no grid point is feasible.

    Every variable must have finite bounds. This never consults the simplex,
    so `solve_lp` objectives can be asserted to be no worse than the grid's
    best value.
    """
    validate_program(lp)
    if grid_step <= 0:
        raise OracleSizeError("grid step must be positive")
    axes = []
    total = 1
    for var in lp.variables:
        if not (math.isfinite(var.lower) and math.isfinite(var.upper)):
            raise OracleSizeError(f"variable {var.name!r} lacks finite bounds")
        count = int(math.floor((var.upper - var.lower) / grid_step + FEAS_TOL)) + 1
        axes.append(var.lower + grid_step * np.arange(count))
        total *= count
        if total > max_points:
            raise OracleSizeError(f"grid has more than {max_points} points")
    mesh = np.meshgrid(*axes, indexing="ij") if axes else []
    points = np.stack([m.ravel() for m in mesh]) if mesh else np.zeros((0, 1))
    npts = points.shape[1]
    feasible = np.ones(npts, dtype=bool)
    for row in lp.constraints:
        lhs = np.zeros(npts)
        for col, c in row.coeffs.items():
            lhs += c * points[col]
        if row.relation == LESS_EQUAL:
            feasible &= lhs <= row.rhs + FEAS_TOL
        else:
            feasible &= np.abs(lhs - row.rhs) <= FEAS_TOL
    if not feasible.any():
        return math.inf
    obj = np.zeros(npts)
    for col, c in enumerate(lp.cost.tolist()):
        obj += c * points[col]
    return float(obj[feasible].min())


def constraint_residuals(lp: LinearProgram, values: list[float]) -> dict[str, float]:
    """Independent feasibility check: worst violation per row plus variable bounds.

    Keys are row names (or "row K") and "bounds"; all entries are >= 0 and a
    feasible point keeps them below FEAS_TOL. Deliberately recomputed from the
    raw program, never from solver internals.
    """
    out: dict[str, float] = {}
    bound_violation = 0.0
    for var, x in zip(lp.variables, values, strict=True):
        bound_violation = max(bound_violation, var.lower - x, x - var.upper)
    out["bounds"] = max(bound_violation, 0.0)
    for idx, row in enumerate(lp.constraints):
        lhs = sum(c * values[col] for col, c in row.coeffs.items())
        if row.relation == LESS_EQUAL:
            violation = lhs - row.rhs
        else:
            violation = abs(lhs - row.rhs)
        out[row.name or f"row {idx}"] = max(violation, 0.0)
    return out


def highs(lp):
    """``scipy.optimize.linprog(method="highs")`` on a LinearProgram, as an independent oracle."""
    optimize = pytest.importorskip("scipy.optimize")
    n_cols = len(lp.variables)
    # HiGHS takes A_ub x <= b_ub and A_eq x = b_eq
    by_relation = {LESS_EQUAL: [], EQUAL: []}
    for row in lp.constraints:
        by_relation[row.relation].append(row)

    def matrix(rows):
        out = np.zeros((len(rows), n_cols))
        for i, row in enumerate(rows):
            for col, c in row.coeffs.items():
                out[i, col] = c
        return out if rows else None

    return optimize.linprog(
        lp.cost.tolist(),
        A_ub=matrix(by_relation[LESS_EQUAL]),
        b_ub=[row.rhs for row in by_relation[LESS_EQUAL]] or None,
        A_eq=matrix(by_relation[EQUAL]),
        b_eq=[row.rhs for row in by_relation[EQUAL]] or None,
        bounds=[(v.lower, None if math.isinf(v.upper) else v.upper) for v in lp.variables],
        method="highs",
    )


class ReferenceSimplex(_Simplex):
    """The simplex with its standardisation and decoding written as plain loops.

    One variable, one row and one crash row at a time: the straightforward
    reading of the standard form that ``_Simplex`` builds with array
    operations. Both must give the same matrix, rhs, cost, crash basis,
    artificial columns and row signs, hence the same pivots, solution and
    duals. The standard form is the dense matrix ``a`` that ``_Simplex``
    keeps as a column store, and the basis matrix, FTRAN and the drive-out
    of artificials read it whole; y A sums each column in row order
    (``_row_order_product``), as ``_Simplex`` prices. The pivot loop is the
    plain one that ``_Simplex._iterate`` was tuned from. Values are clamped
    into their bounds without a drift check.
    """

    def _standardise(self) -> None:
        lp = self.lp
        variables = lp.variables  # the views are built on each read
        n_std = len(variables)

        # variable k is standard column k, x = lower + y; a finite upper bound
        # adds a <= row
        rows: list[tuple[dict[int, float], str, float]] = []
        for row in lp.constraints:
            coeffs: dict[int, float] = {}
            shift = 0.0
            for j, c in row.coeffs.items():
                coeffs[j] = 0.0 + c
                shift += c * variables[j].lower
            rows.append((coeffs, row.relation, row.rhs - shift))
        for j, var in enumerate(variables):
            if var.upper != math.inf:
                rows.append(({j: 1.0}, LESS_EQUAL, var.upper - var.lower))

        m = len(rows)
        n_slack = sum(1 for _, rel, _ in rows if rel != EQUAL)
        a = np.zeros((m, n_std + n_slack))
        b = np.zeros(m)
        slack_col = n_std
        for i, (coeffs, rel, rhs) in enumerate(rows):
            for j, c in coeffs.items():
                a[i, j] = c
            b[i] = rhs
            if rel == LESS_EQUAL:
                a[i, slack_col] = 1.0
                slack_col += 1
        neg = b < 0
        a[neg] *= -1.0
        b[neg] *= -1.0
        # the sign each row ends up divided by, for the duals
        self.row_divisor = np.where(neg, -1.0, 1.0)

        # crash basis: a row starts on its first unit column, one whose only
        # entry is this row's +1 (its own slack, or e.g. an unbounded
        # purchase variable); a row without one gets an artificial
        self.basis = np.full(m, -1, dtype=int)
        col_counts = (a != 0.0).sum(axis=0)
        for i in range(m):
            units = np.flatnonzero((a[i] == 1.0) & (col_counts == 1))
            if units.size:
                self.basis[i] = int(units[0])
        n_art = int(np.sum(self.basis < 0))
        art_cols: list[int] = []
        full = np.zeros((m, a.shape[1] + n_art))
        full[:, : a.shape[1]] = a
        next_art = a.shape[1]
        for i in range(m):
            if self.basis[i] < 0:
                full[i, next_art] = 1.0
                self.basis[i] = next_art
                art_cols.append(next_art)
                next_art += 1

        self.a = full
        self.b = b
        self.n_real = a.shape[1]
        self.art_cols = np.array(art_cols, dtype=int)
        self.cost = np.zeros(self.a.shape[1])
        for j, c in enumerate(lp.cost.tolist()):
            self.cost[j] += c

    def _iterate(self, cost: np.ndarray, allowed: int) -> tuple[LpStatus, float]:
        """The pivot loop as first written: the basis costs gathered and the
        matrix sliced on every pivot, numpy's function wrappers, and a
        basis-index argmin over the ratio ties even when only one row ties.
        ``_Simplex._iterate`` must take the same pivots, bit for bit."""
        m = self.a.shape[0]
        max_pivots = 20000 + 200 * (m + allowed)
        bland = False
        stall = 0
        pivots = 0
        objective = float(cost[self.basis] @ self.xb)
        while pivots < max_pivots:
            reduced = cost[:allowed] - _row_order_product(cost[self.basis] @ self.binv, self.a[:, :allowed])
            if bland:
                candidates = np.flatnonzero(reduced < -PIVOT_TOL)
                if candidates.size == 0:
                    return LpStatus.OPTIMAL, objective
                j = int(candidates[0])
            else:
                j = int(np.argmin(reduced))
                if reduced[j] >= -PIVOT_TOL:
                    return LpStatus.OPTIMAL, objective
            direction = self.binv @ self.a[:, j]
            pos = np.flatnonzero(direction > PIVOT_TOL)
            if pos.size == 0:
                return LpStatus.UNBOUNDED, -math.inf
            ratios = self.xb[pos] / direction[pos]
            best = ratios.min()
            tied = pos[np.flatnonzero(ratios <= best + PIVOT_TOL)]
            leave = int(tied[np.argmin(self.basis[tied])])
            theta = max(self.xb[leave] / direction[leave], 0.0)

            pivot_row = self.binv[leave] / direction[leave]
            self.binv -= np.outer(direction, pivot_row)
            self.binv[leave] = pivot_row
            self.xb -= theta * direction
            self.xb[leave] = theta
            np.maximum(self.xb, 0.0, out=self.xb)
            self.basis[leave] = j

            pivots += 1
            self.pivots += 1
            if pivots % 150 == 0:
                self._refactorize()
            new_objective = float(cost[self.basis] @ self.xb)
            if bland:
                if new_objective < objective - 1e-12:
                    bland = False
                    stall = 0
            else:
                stall = stall + 1 if new_objective >= objective - 1e-12 else 0
                if stall > 40 + m:
                    bland = True
            objective = new_objective
        raise ArithmeticError("simplex pivot limit exceeded")

    def _refactorize(self) -> None:
        self.binv = np.linalg.inv(self.a[:, self.basis]) + 0.0
        self.xb = self.binv @ self.b

    def _drive_out_artificials(self) -> None:
        art = set(self.art_cols.tolist())
        drop_slots: list[int] = []
        drop_rows: list[int] = []
        for i in range(self.a.shape[0]):
            if self.basis[i] not in art:
                continue
            row = _row_order_product(self.binv[i], self.a[:, : self.n_real])
            nonzero = np.flatnonzero(np.abs(row) > PIVOT_TOL)
            if nonzero.size == 0:
                # the artificial's own row, wherever phase 1 left its basis slot, is redundant
                drop_slots.append(i)
                drop_rows.append(int(np.flatnonzero(self.a[:, self.basis[i]])[0]))
                continue
            j = int(nonzero[0])
            direction = self.binv @ self.a[:, j]
            pivot_row = self.binv[i] / direction[i] + 0.0  # a negative pivot would store -0.0
            self.binv -= np.outer(direction, pivot_row)
            self.binv[i] = pivot_row
            self.basis[i] = j
            self.xb = self.binv @ self.b
        if drop_rows:
            keep = np.array([i for i in range(self.a.shape[0]) if i not in set(drop_rows)], dtype=int)
            self.a = self.a[keep]
            self.b = self.b[keep]
            self.basis = np.array([j for i, j in enumerate(self.basis) if i not in set(drop_slots)], dtype=int)
            self.row_ids = self.row_ids[keep]
            self._refactorize()

    def _extract(self) -> LpSolution:
        std = np.zeros(self.n_real)
        for i, bi in enumerate(self.basis):
            if bi < self.n_real:
                std[bi] = max(float(self.xb[i]), 0.0)
        values: list[float] = []
        for j, var in enumerate(self.lp.variables):
            x = max(var.lower + std[j], var.lower)
            if math.isfinite(var.upper):
                x = min(x, var.upper)
            values.append(float(x))
        objective = sum(c * values[j] for j, c in enumerate(self.lp.cost.tolist()))
        # y = c_B B^-1, one row at a time back to its original row and scale
        y = self.cost[self.basis] @ self.binv
        duals = [0.0] * len(self.lp.row_names)
        for pos, row in enumerate(self.row_ids.tolist()):
            if row < len(duals):
                duals[row] = float(y[pos] / self.row_divisor[row]) + 0.0
        return LpSolution(LpStatus.OPTIMAL, values, objective, duals, self.pivots)


def _row_order_product(y: np.ndarray, a: np.ndarray) -> np.ndarray:
    """y A, each column's terms added to 0.0 in row order, as ``_Simplex`` prices its column store."""
    total = np.zeros(a.shape[1])
    for term in y[:, None] * a:
        total += term
    return total


def _outcome(simplex: _Simplex) -> LpSolution | type[Exception]:
    try:
        return simplex.solve()
    except ArithmeticError as exc:
        return type(exc)


def _assert_arrays_alike(ref: _Simplex, new: _Simplex, attrs: tuple[str, ...]) -> None:
    for attr in attrs:
        want, got = getattr(ref, attr), getattr(new, attr)
        assert np.array_equal(want, got), attr
        assert (want.shape, want.dtype) == (got.shape, got.dtype), attr
        assert np.ascontiguousarray(want).tobytes() == np.ascontiguousarray(got).tobytes(), attr


def assert_store_holds(ref: ReferenceSimplex, new: _Simplex) -> None:
    """``new``'s column store is ``ref.a``: the same entries, and zeros everywhere else.

    The store lists its entries by column, then row, and ``indptr`` bounds
    each column's run. A stored entry must be ``ref.a``'s bit for bit, so a
    stored zero must keep its sign; a zero that is not stored has no sign
    to keep.
    """
    m, n = ref.a.shape
    assert (new.b.size, new.cost.size, new.indptr.size) == (m, n, n + 1)
    assert np.array_equal(new.col_ix, np.repeat(np.arange(n), np.diff(new.indptr)))
    assert np.array_equal(np.lexsort((new.row_ix, new.col_ix)), np.arange(new.row_ix.size))
    assert new.data.dtype == ref.a.dtype
    assert ref.a[new.row_ix, new.col_ix].tobytes() == new.data.tobytes()
    off_pattern = np.ones((m, n), dtype=bool)
    off_pattern[new.row_ix, new.col_ix] = False
    assert not ref.a[off_pattern].any()


def assert_standardised_alike(lp: LinearProgram) -> None:
    """``_Simplex`` and ``ReferenceSimplex`` build the same standard form and take the same pivots.

    The rhs, cost, crash basis, artificial columns and row signs must agree
    in shape, dtype and bytes, so a zero that changed sign counts as a
    difference; the column store must hold the reference's dense matrix
    (``assert_store_holds``), before the solve and after it, when phase 1
    may have dropped rows. The solutions (or the error raised) must be
    equal, duals and pivot counts included, and so must the final basis, its
    inverse and the basic values, which any step off the reference pivot
    path would change.
    """
    ref, new = ReferenceSimplex(lp), _Simplex(lp)
    _assert_arrays_alike(ref, new, ("b", "cost", "basis", "art_cols", "row_divisor"))
    assert_store_holds(ref, new)
    assert _outcome(ref) == _outcome(new)
    _assert_arrays_alike(ref, new, ("basis", "binv", "xb", "row_ids"))
    assert_store_holds(ref, new)


def assert_dual_certificate(lp: LinearProgram, solution: LpSolution, tol: float = 1e-7) -> None:
    """The duals of an optimal solution have the right signs and prove its objective.

    Recomputed from the raw program, never from solver internals: y_r <= 0 on
    a ``<=`` row; with reduced costs
    rc_j = c_j - sum_r y_r a_rj, a column without an upper bound has
    rc_j >= 0; and strong duality in bounded form,
    sum_r y_r b_r + sum_j (l_j max(rc_j, 0) + u_j min(rc_j, 0)) = objective.
    Tolerances are relative to the size of the terms.
    """
    assert solution.status is LpStatus.OPTIMAL
    duals = solution.duals
    assert len(duals) == len(lp.constraints)
    scale = 1.0 + max((abs(y) for y in duals), default=0.0)
    for row, y in zip(lp.constraints, duals):
        if row.relation == LESS_EQUAL:
            assert y <= tol * scale, (row.name, y)
    reduced = lp.cost.tolist()
    terms = []
    for row, y in zip(lp.constraints, duals):
        terms.append(y * row.rhs)
        for col, c in row.coeffs.items():
            reduced[col] -= y * c
    for var, rc in zip(lp.variables, reduced):
        if math.isinf(var.upper):
            assert rc >= -tol * scale, (var.name, rc)
            terms.append(var.lower * rc)
        else:
            terms.append(var.lower * max(rc, 0.0) + var.upper * min(rc, 0.0))
    bound = math.fsum(terms)
    assert bound == pytest.approx(solution.objective, rel=tol, abs=tol * (1.0 + sum(map(abs, terms))))


def reference_solve_centralized(
    scenario: Scenario, weights: MatchingWeights | None = None
) -> tuple[CommitmentMatrix, FlexibilityAssignment, float]:
    """The per-pair expansion that ``solve_centralized`` replaces: ``merged_view``'s own matching LP.

    One column per (consumer, remote producer) pair, each at the partner
    SSP's rank; its optimum is the reference for the transshipment form's.
    """
    view = merged_view(scenario)
    cm, fx, objective, _ = solve_dist_matching(view, pair_table(view, weights or scenario.weights, scenario.line_constraints))
    return cm, fx, objective


def pair_table(view: SspView, weights: MatchingWeights | None = None, lines: LineConstraintSet | None = None) -> PairTable:
    """The ``PairTable`` that ``solve_dist_matching`` and ``_build`` read ``view`` through, under ``weights`` (the defaults when None) and ``lines``."""
    return PairTable(view, weights or MatchingWeights(), lines)


def accepted_matrix(view: SspView, locked: dict[str, dict[str, float]] | None) -> CommitmentMatrix | None:
    """A matrix of ``view`` whose only cells are ``locked`` (partner -> consumer -> kWh), as an agent's accepted matrix holds its imports; None for None.

    ``solve_dist_matching`` and ``_build`` take it as ``accepted``, where
    ``reference_build`` takes the dict itself."""
    if locked is None:
        return None
    cm = CommitmentMatrix([c.id for c in view.consumers], [*(p.id for p in view.producers), *sorted(locked)])
    for partner_id, cells in locked.items():
        for consumer_id, kwh in cells.items():
            cm.set(consumer_id, partner_id, kwh)
    return cm


def reference_form_coalitions(statuses: dict[str, float], max_group_size: int) -> CoalitionSet:
    """The pairwise-rescan loop that ``form_coalitions`` replaces; it must agree exactly."""
    if not statuses:
        raise ValueError("at least one SSP is required")
    if max_group_size < 1:
        raise ValueError("max_group_size must be >= 1")
    groups: list[tuple[frozenset[str], float]] = [
        (frozenset([ssp_id]), status) for ssp_id, status in sorted(statuses.items())
    ]
    while True:
        best_gain = 1e-9
        best: tuple[int, int] | None = None
        for i in range(len(groups)):
            for k in range(i + 1, len(groups)):
                (members_a, sum_a), (members_b, sum_b) = groups[i], groups[k]
                if len(members_a) + len(members_b) > max_group_size:
                    continue
                gain = abs(sum_a) + abs(sum_b) - abs(sum_a + sum_b)
                if gain > best_gain + 1e-12:
                    best_gain, best = gain, (i, k)
                elif best is not None and abs(gain - best_gain) <= 1e-12:
                    current = (min(groups[best[0]][0]), min(groups[best[1]][0]))
                    candidate = (min(members_a), min(members_b))
                    if candidate < current:
                        best = (i, k)
        if best is None:
            break
        i, k = best
        merged = (groups[i][0] | groups[k][0], groups[i][1] + groups[k][1])
        groups = [g for idx, g in enumerate(groups) if idx not in (i, k)]
        groups.append(merged)
        groups.sort(key=lambda g: min(g[0]))
    return CoalitionSet(tuple(members for members, _ in groups))


def reference_validate_connectivity(scenario: Scenario, ssp_ids: list[str]) -> list[Violation]:
    """The per-entry loop of ``model._validate_connectivity``, block by block; its violations are the reference."""
    out: list[Violation] = []
    known_cols = set(ssp_ids) | {UTILITY_ID}
    known_rows = set(ssp_ids)
    for cfg in scenario.ssps:
        known_rows.update(s.id for s in cfg.consumers)
        known_cols.update(s.id for s in cfg.producers)
    blocks = [(None, scenario.ssp_links, set(ssp_ids), "SSP block")]
    blocks += [(cfg.id, cfg.links, {c.id for c in cfg.consumers}, f"block of SSP {cfg.id}") for cfg in scenario.ssps]
    for ssp_id, block, home, name in blocks:
        for k, col_id in enumerate(block.cols):
            if col_id in block.cols[:k]:
                where = "connectivity" if ssp_id is None else ssp_id
                out.append(Violation(where, "connectivity-header-unique", f"column {col_id} listed more than once"))
        for row_id in block.rows:
            if row_id not in home:
                detail = f"not a row of the {name}" if row_id in known_rows else "unknown row id"
                out.append(Violation(row_id, "connectivity-row-resolves", detail))
            for col_id in block.cols:
                if col_id not in known_cols:
                    out.append(Violation(col_id, "connectivity-col-resolves", f"unknown column id in row {row_id}"))
    for cfg in scenario.ssps:
        for sub in cfg.consumers:
            if not cfg.links.get(sub.id, UTILITY_ID):
                out.append(Violation(sub.id, "utility-reachable", "consumer must have N(i, U) = 1"))
    n = scenario.ssp_links
    for a in ssp_ids:
        if n.get(a, a):
            out.append(Violation(a, "interssp-zero-diagonal", "SSP connected to itself"))
        for b in ssp_ids:
            if a < b and n.get(a, b) != n.get(b, a):
                out.append(Violation(f"({a}, {b})", "interssp-symmetric", "asymmetric inter-SSP entry"))
    return out


def reference_validate_preferences(scenario: Scenario) -> list[Violation]:
    """The per-entry loop of ``model._validate_preferences``; its violations are the reference.

    An entry is a nonzero value of a row."""
    out: list[Violation] = []
    known_suppliers = set(scenario.ssp_ids)
    for cfg in scenario.ssps:
        known_suppliers.update(p.id for p in cfg.producers)
    for cfg in scenario.ssps:
        prefs = cfg.preferences
        header = prefs.cols
        for k, supplier_id in enumerate(header):
            if supplier_id in header[:k]:
                out.append(Violation(cfg.id, "preference-header-unique", f"supplier {supplier_id} listed more than once"))
        consumer_ids = {c.id for c in cfg.consumers}
        partner_ids = [other for other in scenario.ssp_ids if other != cfg.id and scenario.ssp_links.get(cfg.id, other)]
        for consumer in cfg.consumers:
            for producer in cfg.producers:
                if cfg.links.get(consumer.id, producer.id) and not prefs.get(consumer.id, producer.id):
                    out.append(Violation(consumer.id, "preference-covered", f"no rank for local producer {producer.id}"))
            for partner in partner_ids:
                if not prefs.get(consumer.id, partner):
                    out.append(Violation(consumer.id, "preference-covered", f"no rank for partner SSP {partner}"))
        for r, consumer_id in enumerate(prefs.rows):
            if consumer_id not in consumer_ids:
                out.append(Violation(consumer_id, "preference-row-resolves", f"not a consumer of SSP {cfg.id}"))
            for k, supplier_id in enumerate(header):
                if prefs.values[r, k] and supplier_id not in known_suppliers:
                    out.append(Violation(consumer_id, "preference-col-resolves", f"unknown supplier {supplier_id}"))
    return out


# --- the dict-based matching LP builders that the array builders replaced -------------------------
#
# One LpVariable, one reward and one coefficient dict at a time, as
# ``matching.PairTable``, ``matching._build`` and ``matching._build_centralized``
# were first written. The array builders must give the same program, view for
# view and in order, and the same layout.

_RefColumn = tuple[tuple[str, str], LpVariable, float]  # (consumer id, supplier id), its variable, its reward


def _ref_rank(preferences: PreferenceTable, consumer_id: str, supplier_id: str) -> int:
    rank = preferences.get(consumer_id, supplier_id)
    if not rank:
        raise MatchingStructureError(f"no preference rank for ({consumer_id}, {supplier_id})")
    return rank


def _ref_line_bounds(lines: LineConstraintSet | None, row_id: str, col_id: str) -> tuple[float, float]:
    if lines is not None:
        lc = lines.of_row(row_id).get(col_id)
        if lc is not None:
            return max(0.0, lc.min_kwh), lc.max_kwh
    return 0.0, math.inf


class ReferenceRewards:
    """Rewards one pair at a time; beta and the stretch penalty from each consumer's extreme ranks."""

    def __init__(self, weights: MatchingWeights, priority: dict[str, float], ranks: dict[str, list[int]]):
        self._weights = weights
        self._priority = priority
        extremes = [(consumer_id, min(row), max(row)) for consumer_id, row in ranks.items() if row]
        self.beta = weights.beta if weights.beta is not None else float(max([1, *(top for *_, top in extremes)]) + 1)
        self.stretch_penalty = max(
            (self(consumer_id, rank) for consumer_id, *ends in extremes for rank in ends), default=0.0
        ) + 0.01 * weights.w2

    def __call__(self, consumer_id: str, rank: int) -> float:
        weights = self._weights
        return weights.w14 * self._priority[consumer_id] + weights.w35 * (1.0 + weights.alpha * (self.beta - rank))


def _ref_flex(consumers, producers, lines):
    purchases = [LpVariable(f"cm[{c.id}][U]", *_ref_line_bounds(lines, c.id, UTILITY_ID)) for c in consumers]
    cuts = {c.id: LpVariable(f"cut[{c.id}]", 0.0, c.bound * c.energy) for c in consumers if c.bound > 0.0}
    stretches = {p.id: LpVariable(f"stretch[{p.id}]", 0.0, p.bound * p.energy) for p in producers if p.bound > 0.0}
    return purchases, cuts, stretches


class ReferencePairTable:
    """``matching.PairTable`` with one LpVariable per local cm column and rewards read pair by pair."""

    def __init__(self, view: SspView, weights: MatchingWeights, lines: LineConstraintSet | None):
        self._preferences = view.preferences
        self._consumer_ids = [c.id for c in view.consumers]
        partner_ids = sorted(view.partner_capacities)
        local_ids = [[p.id for p in view.producers if view.links.get(c.id, p.id)] for c in view.consumers]
        ranks = [
            [_ref_rank(view.preferences, consumer.id, supplier_id) for supplier_id in local + partner_ids]
            for consumer, local in zip(view.consumers, local_ids)
        ]
        self.rewards = ReferenceRewards(weights, {c.id: c.priority for c in view.consumers}, dict(zip(self._consumer_ids, ranks)))
        self.local: dict[str, list[_RefColumn]] = {
            consumer.id: [
                (
                    (consumer.id, supplier_id),
                    LpVariable(f"cm[{consumer.id}][{supplier_id}]", *_ref_line_bounds(lines, consumer.id, supplier_id)),
                    self.rewards(consumer.id, rank),
                )
                for supplier_id, rank in zip(local, row)
            ]
            for consumer, local, row in zip(view.consumers, local_ids, ranks)
        }
        self.flex = _ref_flex(view.consumers, view.producers, lines)

    def partner_reward(self, consumer_id: str, partner_id: str) -> float:
        return self.rewards(consumer_id, _ref_rank(self._preferences, consumer_id, partner_id))

    def partner_columns(self, partner_id: str) -> list[_RefColumn]:
        return [
            (
                (consumer_id, partner_id),
                LpVariable(f"cm[{consumer_id}][{partner_id}]"),
                self.partner_reward(consumer_id, partner_id),
            )
            for consumer_id in self._consumer_ids
        ]

    def offer_can_improve(self, prices: dict[str, float], offer: tuple[str, float], tol: float) -> bool:
        partner_id, kwh = offer
        gain = 0.0
        for consumer_id in self._consumer_ids:
            gain = max(gain, self.partner_reward(consumer_id, partner_id) - prices[consumer_id])
        return gain * kwh > tol


def program_of(variables: list[LpVariable], cost: dict[int, float], rows: list[tuple] = ()) -> LinearProgram:
    """A program with these variables, costs and rows, made by one call of each array builder.

    ``cost`` maps a column position to its cost; a column it leaves out
    costs 0.0. A row is (coefficients, relation, rhs) or (coefficients,
    relation, rhs, name), its coefficients keyed by column position; a row
    without a name gets "".
    """
    assert set(cost) <= set(range(len(variables))), "a cost for a position that is not a column"
    lp = LinearProgram()
    lp.add_columns(
        [v.name for v in variables],
        [v.lower for v in variables],
        [v.upper for v in variables],
        [cost.get(col, 0.0) for col in range(len(variables))],
    )
    lp.add_rows(
        [row[3] if len(row) > 3 else "" for row in rows],
        [row[1] for row in rows],
        [row[2] for row in rows],
        [len(row[0]) for row in rows],
        [col for row in rows for col in row[0]],
        [c for row in rows for c in row[0].values()],
    )
    return lp


def with_variables(lp: LinearProgram, variables: list[LpVariable]) -> LinearProgram:
    """``lp`` with its variables (names and bounds) replaced, made by the builders."""
    cost = dict(enumerate(lp.cost.tolist()))
    return program_of(variables, cost, [(row.coeffs, row.relation, row.rhs, row.name) for row in lp.constraints])


def _ref_place(consumers, blocks, demand, flex, weights, rewards):
    """The shared columns and costs, each supplier's supply coefficients and each consumer's demand row."""
    purchases, cuts, stretches = flex
    cm_columns = [column for block in blocks for column in block]
    purchase_cols = range(len(cm_columns), len(cm_columns) + len(consumers))
    cut_cols = {consumer_id: purchase_cols.stop + k for k, consumer_id in enumerate(cuts)}
    stretch_cols = {producer_id: purchase_cols.stop + len(cuts) + k for k, producer_id in enumerate(stretches)}
    info = {
        "pairs": [pair for pair, _, _ in cm_columns], "purchase_cols": list(purchase_cols),
        "cut_cols": cut_cols, "stretch_cols": stretch_cols, "objective_offset": 0.0,
    }
    variables = [var for _, var, _ in cm_columns] + [*purchases, *cuts.values(), *stretches.values()]
    cost: dict[int, float] = dict.fromkeys(purchase_cols, weights.w2)
    cost.update(dict.fromkeys(stretch_cols.values(), rewards.stretch_penalty))
    supplied: dict[str, dict[int, float]] = defaultdict(dict)
    demand_rows = []
    start = 0
    for consumer, block, rhs, purchase_col in zip(consumers, blocks, demand, purchase_cols):
        for col, ((_, supplier_id), _, reward) in enumerate(block, start):
            cost[col] = -reward
            supplied[supplier_id][col] = 1.0
        served = dict.fromkeys(range(start, start + len(block)), 1.0)
        served[purchase_col] = 1.0
        if consumer.id in cut_cols:
            served[cut_cols[consumer.id]] = 1.0
        demand_rows.append((served, EQUAL, rhs, f"demand[{consumer.id}]"))
        start += len(block)
    for producer_id, col in stretch_cols.items():
        supplied[producer_id][col] = -1.0
    return variables, cost, info, supplied, demand_rows


def reference_build(view, weights, lines, locked_imports, committed_exports) -> tuple[LinearProgram, dict]:
    """``matching._build``'s program, built one column and one row at a time, and its layout."""
    table = ReferencePairTable(view, weights, lines)
    locked_imports = locked_imports or {}
    live = sorted(p for p, cap in view.partner_capacities.items() if cap.energy > RESIDUAL_TOL)
    offered = [table.partner_columns(p) for p in live]
    locked_in: dict[str, float] = {c.id: 0.0 for c in view.consumers}
    offset = 0.0
    for partner_id, per_consumer in sorted(locked_imports.items()):
        for consumer_id, kwh in sorted(per_consumer.items()):
            locked_in[consumer_id] = locked_in.get(consumer_id, 0.0) + kwh
            offset -= table.partner_reward(consumer_id, partner_id) * kwh
    demand = [max(c.energy - locked_in.get(c.id, 0.0), 0.0) for c in view.consumers]
    blocks = [[*table.local[c.id], *(partner[k] for partner in offered)] for k, c in enumerate(view.consumers)]
    placed = _ref_place(view.consumers, blocks, demand, table.flex, weights, table.rewards)
    variables, cost, info, supplied, demand_rows = placed
    info.update(objective_offset=offset, live_partners=live, export_cols={})
    rows = [(supplied[p.id], LESS_EQUAL, p.energy, f"supply[{p.id}]") for p in view.producers]
    for partner_id in live:
        cap = view.partner_capacities[partner_id]
        coeffs = supplied[partner_id]
        if cap.bound > 0.0:
            coeffs[len(variables)] = -1.0
            variables.append(LpVariable(f"stretch[{partner_id}]", 0.0, cap.bound * cap.energy))
        rows.append((coeffs, LESS_EQUAL, cap.energy, f"supply[{partner_id}]"))
    info["demand_rows"] = list(range(len(rows), len(rows) + len(demand_rows)))
    rows += demand_rows
    if committed_exports > RESIDUAL_TOL:
        coeffs = {}
        rhs = -committed_exports
        for supply, _, energy, _ in rows[: len(view.producers)]:
            coeffs.update(supply)
            rhs += energy
        rows.append((coeffs, LESS_EQUAL, rhs, "export-reservation"))
    return program_of(variables, cost, rows), info


def reference_build_centralized(scenario: Scenario, weights: MatchingWeights) -> tuple[LinearProgram, dict]:
    """``matching._build_centralized``'s program, built one column and one row at a time, and its layout."""
    lines = scenario.line_constraints
    consumers = tuple(c for cfg in scenario.ssps for c in cfg.consumers)
    producers = tuple(p for cfg in scenario.ssps for p in cfg.producers)
    ranks: dict[str, list[int]] = {}
    suppliers = []
    for cfg in scenario.ssps:
        partners = [t for t in scenario.ssps if t.id != cfg.id and t.producers and scenario.ssp_links.get(cfg.id, t.id)]
        for consumer in cfg.consumers:
            local = [p for p in cfg.producers if cfg.links.get(consumer.id, p.id)]
            row = [_ref_rank(cfg.preferences, consumer.id, supplier.id) for supplier in [*local, *partners]]
            ranks[consumer.id] = row
            suppliers.append([
                *((p.id, rank, _ref_line_bounds(lines, consumer.id, p.id)) for p, rank in zip(local, row)),
                *((t.id, rank, (0.0, math.inf)) for t, rank in zip(partners, row[len(local):])),
            ])
    rewards = ReferenceRewards(weights, {c.id: c.priority for c in consumers}, ranks)
    blocks = [
        [
            ((consumer.id, supplier_id), LpVariable(f"cm[{consumer.id}][{supplier_id}]", *bounds), rewards(consumer.id, rank))
            for supplier_id, rank, bounds in columns
        ]
        for consumer, columns in zip(consumers, suppliers)
    ]
    flex = _ref_flex(consumers, producers, lines)
    placed = _ref_place(consumers, blocks, [c.energy for c in consumers], flex, weights, rewards)
    variables, cost, info, supplied, demand_rows = placed
    pooled = [cfg for cfg in scenario.ssps if cfg.id in supplied]
    export_cols = {}
    for cfg in pooled:
        for producer in cfg.producers:
            export_cols[producer.id] = len(variables)
            variables.append(LpVariable(f"export[{producer.id}]"))
    info.update(live_partners=[cfg.id for cfg in pooled], export_cols=export_cols)
    rows = []
    for producer in producers:
        coeffs = supplied[producer.id]
        if producer.id in export_cols:
            coeffs[export_cols[producer.id]] = 1.0
        rows.append((coeffs, LESS_EQUAL, producer.energy, f"supply[{producer.id}]"))
    info["demand_rows"] = list(range(len(rows), len(rows) + len(demand_rows)))
    rows += demand_rows
    for cfg in pooled:
        coeffs = supplied[cfg.id]
        coeffs.update((export_cols[p.id], -1.0) for p in cfg.producers)
        rows.append((coeffs, LESS_EQUAL, 0.0, f"pool[{cfg.id}]"))
    return program_of(variables, cost, rows), info


def layout_of(info) -> dict:
    """A ``matching._BuildInfo`` in the form of the reference builders' layout."""
    consumers, suppliers = info.consumer_ids, info.supplier_ids
    return {
        "pairs": [(consumers[k], suppliers[j]) for k, j in zip(info.cm_consumer.tolist(), info.cm_supplier.tolist())],
        "purchase_cols": list(info.purchase_cols),
        "cut_cols": dict(zip((info.consumer_ids[k] for k in info.cut_of.tolist()), info.cut_cols)),
        "stretch_cols": dict(zip((info.supplier_ids[j] for j in info.stretch_of.tolist()), info.stretch_cols)),
        "objective_offset": info.objective_offset,
        "live_partners": info.live_partners,
        "export_cols": info.export_cols,
        "demand_rows": list(info.demand_rows),
    }


def bits(value):
    """``value`` with every float spelled out bit for bit, so -0.0 differs from 0.0."""
    if isinstance(value, float):
        return ("float", value.hex())
    if isinstance(value, (list, tuple)):
        return tuple(map(bits, value))
    if isinstance(value, dict):
        return tuple((bits(k), bits(v)) for k, v in value.items())
    return (type(value).__name__, value)


def views(lp: LinearProgram) -> list:
    """Every view of a program and its costs, in order: dict equality alone ignores key order."""
    return [
        [(v.name, v.lower, v.upper) for v in lp.variables],
        lp.cost.tolist(),
        [(row.name, list(row.coeffs.items()), row.relation, row.rhs) for row in lp.constraints],
    ]


def assert_builds_alike(got: tuple[LinearProgram, object], want: tuple[LinearProgram, dict]) -> None:
    """An array-built program and its layout equal the reference's, bit for bit, and solve alike.

    The program follows ``ReferenceSimplex`` (``assert_standardised_alike``),
    and its solution is the reference program's, bit for bit."""
    (lp, info), (ref_lp, ref_info) = got, want
    assert bits(views(lp)) == bits(views(ref_lp))
    assert bits(layout_of(info)) == bits(ref_info)
    assert_standardised_alike(lp)
    solution, reference = solve_lp(lp), solve_lp(ref_lp)
    assert solution == reference and bits(solution.values) == bits(reference.values)
    assert bits([solution.objective, solution.duals]) == bits([reference.objective, reference.duals])


def reference_run_engine(
    scenario: Scenario,
    anm: ActualNeighborhoodMap,
    weights: MatchingWeights | None = None,
    seed: int = 0,
    iteration_cap: int = 10000,
) -> MatchingResult:
    """The engine as one global sweep over every SSP in id order, whatever the map's components: the reference for ``run_engine``."""
    weights = weights or scenario.weights
    # w2 <= 0 merely degenerates the objective (calibration deliberately starts
    # there); every structural violation is still a hard stop
    violations = [v for v in validate_scenario(replace(scenario, weights=weights)) if v.rule != "w2-positive"]
    if violations:
        raise InvalidScenarioError("; ".join(str(v) for v in violations[:5]))

    ssp_ids = sorted(scenario.ssp_ids)
    neighbours = anm.neighbours(scenario.ssp_ids)
    agents = {s: _Agent(view_for_ssp(scenario, s, neighbours[s]), weights, scenario.line_constraints) for s in ssp_ids}

    per_ssp_initial = {s: abs(energy_status(agents[s].view)) for s in ssp_ids}
    initial_total = sum(per_ssp_initial.values())
    trace: list[ConvergencePoint] = []
    log: list[LogRecord] = []
    iterations = 0
    rounds = 0
    pending = {s: True for s in ssp_ids}

    # each agent's Utility interaction in ssp_ids order, refreshed only for
    # the agents whose matrix changed since the last record, and summed in
    # that order
    position = {s: k for k, s in enumerate(ssp_ids)}
    utilities = [agents[s].utility_kwh() for s in ssp_ids]
    changed: set[str] = set()

    def record_iteration() -> None:
        nonlocal iterations
        iterations += 1
        if iterations > iteration_cap:
            raise ConvergenceError(
                f"no quiescence within {iteration_cap} iterations", trace, log
            )
        for ssp_id in changed:
            utilities[position[ssp_id]] = agents[ssp_id].utility_kwh()
        changed.clear()
        trace.append(ConvergencePoint(iterations, sum(utilities)))

    def deliver(src: str, dst: str, offered: float, bound: float, round_index: int) -> float:
        """Synchronous exchange: install capacity at the receiver, re-solve,
        and on acceptance claim what the new matrix takes from the sender,
        which adds it to its exports."""
        receiver = agents[dst]
        before = receiver.cm
        base = offered / (1.0 + bound)
        improved = receiver.solve_and_accept(transient=(src, base, bound))
        claimed = 0.0
        if improved:
            changed.add(dst)
            claimed = receiver.claim(src, before)
            if claimed > offered + 1e-6:
                raise ProtocolViolationError(f"{dst} claimed {claimed} kWh from {src}, offered {offered}")
            if claimed > 0.0:
                agents[src].register_export(claimed)
                changed.add(src)
            record_iteration()
            pending[dst] = True
        log.append(LogRecord(round_index, CLAIM_KIND, dst, src, {"amount_kwh": claimed}))
        return claimed

    def emit_offers(ssp_id: str, round_index: int) -> None:
        agent = agents[ssp_id]
        if agent.cm is None:  # unsolved: it waits for offers
            return
        offerable, bound = agent.surplus_offer_terms()
        if offerable <= RESIDUAL_TOL:
            return
        for partner_id in shuffle_partners(agent.table.partner_ids, seed, ssp_id, round_index):
            if offerable <= RESIDUAL_TOL:
                break
            payload = {"energy_kwh": offerable, "bound": bound, "token": SEND_EXCESS}
            log.append(LogRecord(round_index, OFFER_KIND, ssp_id, partner_id, payload))
            offerable -= deliver(ssp_id, partner_id, offerable, bound, round_index)

    while any(pending.values()):
        rounds += 1
        for ssp_id in ssp_ids:
            if not pending[ssp_id]:
                continue
            pending[ssp_id] = False
            # a pending agent is in its first turn, or deliver accepted a
            # solution since it last offered
            if agents[ssp_id].cm is None and agents[ssp_id].solve_and_accept():
                changed.add(ssp_id)
                record_iteration()
            emit_offers(ssp_id, rounds)

    for ssp_id in ssp_ids:
        if agents[ssp_id].cm is None:  # infeasible alone and with every offer it was sent
            raise MatchingInfeasibleError(f"matching LP for {ssp_id!r} infeasible without an offer and with each offer it got")

    per_ssp_final = {s: agents[s].utility_kwh() for s in ssp_ids}
    return MatchingResult(
        commitments={s: agents[s].cm for s in ssp_ids},
        flexibility={s: agents[s].fx for s in ssp_ids},
        trace=trace,
        log=log,
        iterations=iterations,
        rounds=rounds,
        initial_abs_status_kwh=initial_total,
        final_utility_kwh=trace[-1].accumulated_utility_kwh if trace else initial_total,
        per_ssp_initial=per_ssp_initial,
        per_ssp_final=per_ssp_final,
        lp_solves=sum(agent.lp_solves for agent in agents.values()),
        offers_priced_out=sum(agent.offers_priced_out for agent in agents.values()),
    )
