"""Self-contained linear programming: exact representation, a deterministic
two-phase revised simplex, and an independent residual check of its answers.

The solver is a pure function of its input. Identical programs yield
bit-identical solutions: entering columns follow Dantzig's rule with
first-index tie-breaking, degenerate stalls switch to Bland's anti-cycling
rule, leaving rows break ratio ties on the smallest basis variable index, and
all arithmetic is plain float64 on dense arrays.

Instances in this package are modest (tens of thousands of variables at the
very top), so dense linear algebra with an explicit, periodically
refactorised basis inverse is deliberate; there is no sparse factorisation
and no MILP (binary connectivity is data, never a decision variable).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-6

LESS_EQUAL = "<="
EQUAL = "="
GREATER_EQUAL = ">="
_RELATIONS = (LESS_EQUAL, EQUAL, GREATER_EQUAL)


class LpFormatError(ValueError):
    """Structurally malformed program (bad bounds, undeclared variable, ...)."""


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpVariable:
    name: str
    lower: float = 0.0
    upper: float = math.inf


@dataclass(frozen=True)
class LpConstraint:
    coeffs: dict[str, float]
    relation: str
    rhs: float
    name: str = ""


@dataclass
class LinearProgram:
    """Minimise ``objective . x`` subject to bounds and linear constraints."""

    variables: list[LpVariable] = field(default_factory=list)
    objective: dict[str, float] = field(default_factory=dict)
    constraints: list[LpConstraint] = field(default_factory=list)

    def add_variable(self, name: str, lower: float = 0.0, upper: float = math.inf, cost: float = 0.0) -> str:
        self.variables.append(LpVariable(name, lower, upper))
        if cost != 0.0:
            self.objective[name] = self.objective.get(name, 0.0) + cost
        return name

    def add_constraint(self, coeffs: dict[str, float], relation: str, rhs: float, name: str = "") -> None:
        self.constraints.append(LpConstraint(dict(coeffs), relation, rhs, name))


@dataclass(frozen=True)
class LpSolution:
    status: LpStatus
    values: dict[str, float]
    objective: float


def validate_program(lp: LinearProgram) -> None:
    """Raise LpFormatError naming the offending variable or row."""
    seen: set[str] = set()
    for var in lp.variables:
        if var.name in seen:
            raise LpFormatError(f"duplicate variable {var.name!r}")
        seen.add(var.name)
        if math.isnan(var.lower) or math.isnan(var.upper):
            raise LpFormatError(f"variable {var.name!r} has NaN bound")
        if var.lower > var.upper:
            raise LpFormatError(f"variable {var.name!r} has lower {var.lower} > upper {var.upper}")
    for name in lp.objective:
        if name not in seen:
            raise LpFormatError(f"objective references undeclared variable {name!r}")
    for idx, row in enumerate(lp.constraints):
        label = row.name or f"row {idx}"
        if row.relation not in _RELATIONS:
            raise LpFormatError(f"{label}: unknown relation {row.relation!r}")
        if not math.isfinite(row.rhs):
            raise LpFormatError(f"{label}: non-finite rhs {row.rhs}")
        for name in row.coeffs:
            if name not in seen:
                raise LpFormatError(f"{label}: references undeclared variable {name!r}")


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Deterministic two-phase simplex; returns a vertex solution or Infeasible/Unbounded."""
    validate_program(lp)
    if not lp.variables:
        return LpSolution(LpStatus.OPTIMAL, {}, 0.0)
    return _Simplex(lp).solve()


class _Simplex:
    """Two-phase revised simplex over the standardised program.

    Standardisation: every variable is shifted or split to y >= 0, finite
    upper bounds become extra <= rows, and all constraints become equalities
    with slack columns. A crash pass seats any positive singleton column as a
    row's starting basis; only rows left without one get an artificial column
    minimised in phase 1.
    """

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        self._standardise()

    def _standardise(self) -> None:
        lp = self.lp
        self.var_names = [v.name for v in lp.variables]
        index = {v.name: k for k, v in enumerate(lp.variables)}

        # transforms[orig] = (kind, data): how original values are recovered
        self.transforms: list[tuple[str, float | None, int, int]] = []
        n_std = 0
        extra_rows: list[tuple[dict[int, float], str, float]] = []
        for var in lp.variables:
            lo, up = var.lower, var.upper
            if lo == -math.inf and up == math.inf:
                self.transforms.append(("free", None, n_std, n_std + 1))
                n_std += 2
            elif lo == -math.inf:
                self.transforms.append(("negshift", up, n_std, -1))
                n_std += 1
            else:
                self.transforms.append(("shift", lo, n_std, -1))
                if up != math.inf:
                    extra_rows.append(({n_std: 1.0}, LESS_EQUAL, up - lo))
                n_std += 1

        def std_coeffs(coeffs: dict[str, float]) -> tuple[dict[int, float], float]:
            """Rewrite an original-variable row over standard columns.

            Returns (column coefficients, rhs shift to subtract)."""
            out: dict[int, float] = {}
            shift = 0.0
            for name, c in coeffs.items():
                kind, data, j, j2 = self.transforms[index[name]]
                if kind == "shift":
                    out[j] = out.get(j, 0.0) + c
                    shift += c * data
                elif kind == "negshift":
                    out[j] = out.get(j, 0.0) - c
                    shift += c * data
                else:
                    out[j] = out.get(j, 0.0) + c
                    out[j2] = out.get(j2, 0.0) - c
            return out, shift

        rows: list[tuple[dict[int, float], str, float]] = []
        for row in lp.constraints:
            coeffs, shift = std_coeffs(row.coeffs)
            rows.append((coeffs, row.relation, row.rhs - shift))
        rows.extend(extra_rows)

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
                pick = singles[a[i, singles] > 0.0]
            if pick.size:
                j = int(pick[0])
                scale = a[i, j]
                if scale != 1.0:
                    a[i] /= scale
                    b[i] /= scale
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
        self.n_std = n_std
        self.n_real = a.shape[1]
        self.art_cols = np.array(art_cols, dtype=int)
        self.cost = np.zeros(self.a.shape[1])
        for name, c in lp.objective.items():
            kind, data, j, j2 = self.transforms[index[name]]
            if kind == "shift":
                self.cost[j] += c
            elif kind == "negshift":
                self.cost[j] -= c
            else:
                self.cost[j] += c
                self.cost[j2] -= c

    def solve(self) -> LpSolution:
        # revised simplex: the constraint matrix stays read-only, only the
        # m x m basis inverse is updated per pivot
        self.a = np.asfortranarray(self.a)
        m = self.a.shape[0]
        self.binv = np.eye(m)
        self._refactorize()

        if self.art_cols.size:
            phase1 = np.zeros(self.a.shape[1])
            phase1[self.art_cols] = 1.0
            status, objective = self._iterate(phase1, allowed=self.a.shape[1])
            if status is LpStatus.UNBOUNDED:
                raise ArithmeticError("phase-1 objective cannot be unbounded")
            if objective > 1e-7:
                return LpSolution(LpStatus.INFEASIBLE, {v.name: 0.0 for v in self.lp.variables}, math.inf)
            self._drive_out_artificials()

        status, _ = self._iterate(self.cost, allowed=self.n_real)
        if status is LpStatus.UNBOUNDED:
            return LpSolution(LpStatus.UNBOUNDED, {v.name: 0.0 for v in self.lp.variables}, -math.inf)
        return self._extract()

    def _refactorize(self) -> None:
        self.binv = np.linalg.inv(self.a[:, self.basis])
        self.xb = self.binv @ self.b

    def _iterate(self, cost: np.ndarray, allowed: int) -> tuple[LpStatus, float]:
        """Deterministic pivoting: Dantzig's most-negative reduced cost (first
        index on ties) while the objective moves; after a degenerate stall,
        Bland's anti-cycling rule until the objective strictly improves again.
        Leaving row by minimum ratio, ties broken on the smallest basis
        variable index."""
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
            pivot_row = self.binv[i] / direction[i]
            self.binv -= np.outer(direction, pivot_row)
            self.binv[i] = pivot_row
            self.basis[i] = j
            self.xb = self.binv @ self.b
        if drop_rows:
            keep = np.array([i for i in range(self.a.shape[0]) if i not in set(drop_rows)], dtype=int)
            self.a = np.asfortranarray(self.a[keep])
            self.b = self.b[keep]
            self.basis = self.basis[keep]
            self._refactorize()

    def _extract(self) -> LpSolution:
        std = np.zeros(self.n_real)
        for i, bi in enumerate(self.basis):
            if bi < self.n_real:
                std[bi] = max(float(self.xb[i]), 0.0)
        values: dict[str, float] = {}
        for var, (kind, data, j, j2) in zip(self.lp.variables, self.transforms):
            if kind == "shift":
                x = data + std[j]
            elif kind == "negshift":
                x = data - std[j]
            else:
                x = std[j] - std[j2]
            if math.isfinite(var.lower):
                x = max(x, var.lower)
            if math.isfinite(var.upper):
                x = min(x, var.upper)
            values[var.name] = float(x)
        objective = sum(c * values[name] for name, c in self.lp.objective.items())
        return LpSolution(LpStatus.OPTIMAL, values, objective)


def constraint_residuals(lp: LinearProgram, values: dict[str, float]) -> dict[str, float]:
    """Independent feasibility check: worst violation per row plus variable bounds.

    Keys are row names (or "row K") and "bounds"; all entries are >= 0 and a
    feasible point keeps them below FEAS_TOL. Deliberately recomputed from the
    raw program, never from solver internals.
    """
    out: dict[str, float] = {}
    bound_violation = 0.0
    for var in lp.variables:
        x = values[var.name]
        bound_violation = max(bound_violation, var.lower - x, x - var.upper)
    out["bounds"] = max(bound_violation, 0.0)
    for idx, row in enumerate(lp.constraints):
        lhs = sum(c * values[name] for name, c in row.coeffs.items())
        if row.relation == LESS_EQUAL:
            violation = lhs - row.rhs
        elif row.relation == GREATER_EQUAL:
            violation = row.rhs - lhs
        else:
            violation = abs(lhs - row.rhs)
        out[row.name or f"row {idx}"] = max(violation, 0.0)
    return out


def max_violation(lp: LinearProgram, values: dict[str, float]) -> float:
    return max(constraint_residuals(lp, values).values())
