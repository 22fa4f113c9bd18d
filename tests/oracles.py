"""Independent oracles, and the loop versions of vectorised code kept as references."""

from __future__ import annotations

import math

import numpy as np
import pytest

from sspsim.coalition import CoalitionSet
from sspsim.lp import (
    EQUAL,
    FEAS_TOL,
    GREATER_EQUAL,
    LESS_EQUAL,
    PIVOT_TOL,
    LinearProgram,
    LpSolution,
    LpStatus,
    _Simplex,
    validate_program,
)
from sspsim.matching import FlexibilityAssignment, merged_view, solve_dist_matching
from sspsim.model import UTILITY_ID, CommitmentMatrix, MatchingWeights, Scenario, Violation, _fits_float


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
        elif row.relation == GREATER_EQUAL:
            feasible &= lhs >= row.rhs - FEAS_TOL
        else:
            feasible &= np.abs(lhs - row.rhs) <= FEAS_TOL
    if not feasible.any():
        return math.inf
    obj = np.zeros(npts)
    for col, c in lp.objective.items():
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
        elif row.relation == GREATER_EQUAL:
            violation = row.rhs - lhs
        else:
            violation = abs(lhs - row.rhs)
        out[row.name or f"row {idx}"] = max(violation, 0.0)
    return out


class ReferenceSimplex(_Simplex):
    """The simplex with its standardisation and decoding written as plain loops.

    One variable, one row and one crash row at a time: the straightforward
    reading of the standard form that ``_Simplex`` builds with array
    operations. Both must give the same matrix, rhs, cost, crash basis,
    artificial columns and row divisors, hence the same pivots, solution and
    duals. The standard form is the dense matrix ``a`` that ``_Simplex``
    keeps as a column store, and the basis matrix, FTRAN and the drive-out
    of artificials read it whole. The pivot loop is the plain one that
    ``_Simplex._iterate`` was tuned from. Values are clamped into their
    bounds without a drift check.
    """

    def _standardise(self) -> None:
        lp = self.lp
        n_std = len(lp.variables)

        # variable k is standard column k, x = lower + y; a finite upper bound
        # adds a <= row
        rows: list[tuple[dict[int, float], str, float]] = []
        for row in lp.constraints:
            coeffs: dict[int, float] = {}
            shift = 0.0
            for j, c in row.coeffs.items():
                coeffs[j] = 0.0 + c
                shift += c * lp.variables[j].lower
            rows.append((coeffs, row.relation, row.rhs - shift))
        for j, var in enumerate(lp.variables):
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
            elif rel == GREATER_EQUAL:
                a[i, slack_col] = -1.0
                slack_col += 1
        neg = b < 0
        a[neg] *= -1.0
        b[neg] *= -1.0
        # what each row ends up divided by, for the duals
        self.row_divisor = np.where(neg, -1.0, 1.0)

        # crash basis: any positive singleton column serves as a row's start
        # (its own slack, or e.g. an unbounded purchase variable), which often
        # removes phase 1 entirely
        self.basis = np.full(m, -1, dtype=int)
        col_counts = (a != 0.0).sum(axis=0)
        for i in range(m):
            row_nonzero = np.flatnonzero(a[i])
            singles = row_nonzero[col_counts[row_nonzero] == 1]
            pick = singles[a[i, singles] > 0.0]
            if pick.size == 0 and b[i] == 0.0 and singles.size:
                a[i] *= -1.0
                self.row_divisor[i] *= -1.0
                pick = singles[a[i, singles] > 0.0]
            if pick.size:
                j = int(pick[0])
                scale = a[i, j]
                if scale != 1.0:
                    a[i] /= scale
                    b[i] /= scale
                    self.row_divisor[i] *= scale
                self.basis[i] = j
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
        for j, c in lp.objective.items():
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
            reduced = cost[:allowed] - (cost[self.basis] @ self.binv) @ self.a[:, :allowed]
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
        drop_rows: list[int] = []
        for i in range(self.a.shape[0]):
            if self.basis[i] not in art:
                continue
            row = self.binv[i] @ self.a[:, : self.n_real]
            nonzero = np.flatnonzero(np.abs(row) > PIVOT_TOL)
            if nonzero.size == 0:
                drop_rows.append(i)  # redundant constraint
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
            self.basis = self.basis[keep]
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
        objective = sum(c * values[j] for j, c in self.lp.objective.items())
        # y = c_B B^-1, one row at a time back to its original row and scale
        y = self.cost[self.basis] @ self.binv
        duals = [0.0] * len(self.lp.constraints)
        for pos, row in enumerate(self.row_ids.tolist()):
            if row < len(duals):
                duals[row] = float(y[pos] / self.row_divisor[row])
        return LpSolution(LpStatus.OPTIMAL, values, objective, duals, self.pivots)


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

    Arrays must agree in shape, dtype and bytes, so a zero that changed sign
    counts as a difference; the column store must hold the reference's dense
    matrix (``assert_store_holds``), before the solve and after it, when
    phase 1 may have dropped rows. The solutions (or the error raised) must
    be equal, duals and pivot counts included, and so must the final basis,
    its inverse and the basic values, which any step off the reference pivot
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
    a ``<=`` row and y_r >= 0 on a ``>=`` row; with reduced costs
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
        elif row.relation == GREATER_EQUAL:
            assert y >= -tol * scale, (row.name, y)
    reduced = [lp.objective.get(col, 0.0) for col in range(len(lp.variables))]
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
    weights = weights or scenario.weights
    cm, fx, objective, _ = solve_dist_matching(merged_view(scenario), weights, scenario.line_constraints)
    return cm, fx, objective


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
    """The per-entry loop of ``model._validate_connectivity``; its violations are the reference."""
    out: list[Violation] = []
    n = scenario.connectivity
    known_cols = set(ssp_ids) | {UTILITY_ID}
    known_rows = set(ssp_ids)
    for cfg in scenario.ssps:
        known_rows.update(s.id for s in cfg.consumers)
        known_cols.update(s.id for s in cfg.producers)
    for row_id, cols in n.rows.items():
        if row_id not in known_rows:
            out.append(Violation(row_id, "connectivity-row-resolves", "unknown row id"))
        for col_id, value in cols.items():
            if col_id not in known_cols:
                out.append(Violation(col_id, "connectivity-col-resolves", f"unknown column id in row {row_id}"))
            if isinstance(value, bool) or value not in (0, 1):
                out.append(Violation(row_id, "connectivity-binary", f"N({row_id}, {col_id}) = {value}"))
    for cfg in scenario.ssps:
        for sub in cfg.consumers:
            if not n.connected(sub.id, UTILITY_ID):
                out.append(Violation(sub.id, "utility-reachable", "consumer must have N(i, U) = 1"))
    for a in ssp_ids:
        if n.connected(a, a):
            out.append(Violation(a, "interssp-zero-diagonal", "SSP connected to itself"))
        for b in ssp_ids:
            if a < b and n.connected(a, b) != n.connected(b, a):
                out.append(Violation(f"({a}, {b})", "interssp-symmetric", "asymmetric inter-SSP entry"))
    return out


def reference_validate_preferences(scenario: Scenario) -> list[Violation]:
    """The per-entry loop of ``model._validate_preferences``; its violations are the reference."""
    out: list[Violation] = []
    n = scenario.connectivity
    known_suppliers = set(scenario.ssp_ids)
    for cfg in scenario.ssps:
        known_suppliers.update(p.id for p in cfg.producers)
    for cfg in scenario.ssps:
        consumer_ids = {c.id for c in cfg.consumers}
        partner_ids = [other for other in scenario.ssp_ids if other != cfg.id and n.connected(cfg.id, other)]
        for consumer in cfg.consumers:
            for producer in cfg.producers:
                if n.connected(consumer.id, producer.id) and not cfg.preferences.has(consumer.id, producer.id):
                    out.append(Violation(consumer.id, "preference-covered", f"no rank for local producer {producer.id}"))
            for partner in partner_ids:
                if not cfg.preferences.has(consumer.id, partner):
                    out.append(Violation(consumer.id, "preference-covered", f"no rank for partner SSP {partner}"))
        for consumer_id, cols in cfg.preferences.ranks.items():
            if consumer_id not in consumer_ids:
                out.append(Violation(consumer_id, "preference-row-resolves", f"not a consumer of SSP {cfg.id}"))
            for supplier_id, rank in cols.items():
                if supplier_id not in known_suppliers:
                    out.append(Violation(consumer_id, "preference-col-resolves", f"unknown supplier {supplier_id}"))
                if isinstance(rank, bool) or not isinstance(rank, int) or rank < 1 or not _fits_float(rank):
                    out.append(Violation(consumer_id, "rank-positive-int", f"rank {rank!r} for {supplier_id}"))
    return out
