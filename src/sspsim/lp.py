"""Self-contained linear programming: exact representation, a deterministic
two-phase revised simplex, and an independent residual check of its answers.

A program minimises a linear cost over variables that each have a finite
lower bound (the upper bound may be +inf), subject to ``<=``, ``=`` and
``>=`` rows. Every quantity the matching LP decides is non-negative, so a
variable without a finite lower bound is rejected, and each variable is one
standard column shifted by its lower bound.

The solver is a pure function of its input. Identical programs yield
bit-identical solutions: entering columns follow Dantzig's rule with
first-index tie-breaking, degenerate stalls switch to Bland's anti-cycling
rule, leaving rows break ratio ties on the smallest basis variable index, and
all arithmetic is plain float64 on dense arrays.

Instances in this package are modest (tens of thousands of variables at the
very top), so dense linear algebra with an explicit, periodically
refactorised basis inverse is deliberate; there is no sparse factorisation
and no MILP (binary connectivity is data, never a decision variable).

A column is known by its position: ``add_variable`` returns it, the objective
and every row are keyed by it, and a solution lists one value per column in
column order. Variable and row names are labels, used only in messages.

An optimal solution also carries ``duals``, one per row of ``constraints`` in
row order: y = c_B B^-1 at the phase-2 optimum, mapped back through the row
negations and crash scalings of the standard form. They keep the sign
convention of a minimisation (at most 0 on a ``<=`` row, at least 0 on a
``>=`` row), and a row dropped as redundant gets 0. With reduced costs
rc_j = c_j - sum_r y_r a_rj over these rows alone, the objective equals
sum_r y_r b_r + sum_j (l_j max(rc_j, 0) + u_j min(rc_j, 0)); an upper bound
acts as the bound-row dual min(rc_j, 0), so a column with u_j = +inf has
rc_j >= 0.

Every solution counts its ``pivots``: the basis changes of phase 1 and phase
2 together (driving a leftover artificial out of the basis is not counted).
"""

from __future__ import annotations

import itertools
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
    """Structurally malformed program (bad bounds, a key that is not a column, ...)."""


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True, slots=True)
class LpVariable:
    name: str
    lower: float = 0.0
    upper: float = math.inf


@dataclass(frozen=True)
class LpConstraint:
    coeffs: dict[int, float]
    relation: str
    rhs: float
    name: str = ""


@dataclass
class LinearProgram:
    """Minimise ``objective . x`` subject to bounds and linear constraints."""

    variables: list[LpVariable] = field(default_factory=list)
    objective: dict[int, float] = field(default_factory=dict)
    constraints: list[LpConstraint] = field(default_factory=list)

    def add_variable(self, name: str, lower: float = 0.0, upper: float = math.inf, cost: float = 0.0) -> int:
        """Append a column and return its position."""
        col = len(self.variables)
        self.variables.append(LpVariable(name, lower, upper))
        if cost != 0.0:
            self.objective[col] = cost
        return col

    def add_constraint(self, coeffs: dict[int, float], relation: str, rhs: float, name: str = "") -> None:
        self.constraints.append(LpConstraint(dict(coeffs), relation, rhs, name))


@dataclass(frozen=True)
class LpSolution:
    status: LpStatus
    values: list[float]  # one per column, in column order
    objective: float
    duals: list[float]  # one per row of ``constraints``, in row order; all 0 unless optimal
    pivots: int  # simplex pivots of phase 1 and phase 2 together


def validate_program(lp: LinearProgram) -> None:
    """Raise LpFormatError naming the offending variable, row or "objective"."""
    for var in lp.variables:
        if -math.inf < var.lower < math.inf and var.lower <= var.upper:
            continue
        if math.isnan(var.lower) or math.isnan(var.upper):
            raise LpFormatError(f"variable {var.name!r} has NaN bound")
        if not math.isfinite(var.lower):
            raise LpFormatError(f"variable {var.name!r} has no finite lower bound ({var.lower})")
        raise LpFormatError(f"variable {var.name!r} has lower {var.lower} > upper {var.upper}")
    labels = [row.name or f"row {idx}" for idx, row in enumerate(lp.constraints)]
    for label, row in zip(labels, lp.constraints):
        if row.relation not in _RELATIONS:
            raise LpFormatError(f"{label}: unknown relation {row.relation!r}")
        if not math.isfinite(row.rhs):
            raise LpFormatError(f"{label}: non-finite rhs {row.rhs}")
    # every key must be an int column position: numpy indexing would truncate
    # 1.5 to column 1 and wrap -1 to the last column. All keys are checked at
    # once; only a failing program is walked to name the offender.
    n_cols = len(lp.variables)
    keys = list(itertools.chain(lp.objective, *(row.coeffs for row in lp.constraints)))
    if set(map(type, keys)) <= {int} and (not keys or 0 <= min(keys) and max(keys) < n_cols):
        return
    for label, coeffs in [("objective", lp.objective), *zip(labels, (row.coeffs for row in lp.constraints))]:
        for col in coeffs:
            if type(col) is not int or not 0 <= col < n_cols:
                raise LpFormatError(f"{label}: key {col!r} is not a column position in [0, {n_cols})")


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Deterministic two-phase simplex; returns a vertex solution or Infeasible/Unbounded."""
    validate_program(lp)
    if not lp.variables:
        return LpSolution(LpStatus.OPTIMAL, [], 0.0, [0.0] * len(lp.constraints), 0)
    return _Simplex(lp).solve()


class _Simplex:
    """Two-phase revised simplex over the standardised program.

    Standardisation: column k becomes standard column k, y = x - lower >= 0;
    finite upper bounds become extra <= rows, and all constraints become
    equalities with slack columns. A crash pass seats any positive singleton
    column as a row's starting basis; only rows left without one get an
    artificial column minimised in phase 1.

    Standard row i is original row i (constraints, then bound rows) divided
    by ``row_divisor[i]``; ``row_ids`` names the original row of each row
    still in the matrix, as phase 1 may drop redundant ones.
    """

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        self._standardise()
        self.row_ids = np.arange(self.a.shape[0])
        self.pivots = 0

    def _standardise(self) -> None:
        lp = self.lp
        n_vars = len(lp.variables)
        lower = np.array([v.lower for v in lp.variables], dtype=float)
        upper = np.array([v.upper for v in lp.variables], dtype=float)
        bound_cols = np.flatnonzero(upper != math.inf)  # a finite upper bound adds a <= row

        # (row, column, value) triplets: the rows over standard columns, then
        # the bound rows, then one slack per inequality
        m_rows = len(lp.constraints)
        lengths = [len(row.coeffs) for row in lp.constraints]
        var_ix = np.fromiter(itertools.chain(*(row.coeffs for row in lp.constraints)), np.intp, sum(lengths))
        coef = np.fromiter(itertools.chain(*(row.coeffs.values() for row in lp.constraints)), float, sum(lengths))
        row_ix = np.repeat(np.arange(m_rows), lengths)
        # the rhs moves by c * lower, summed in coefficient order per row
        shift = np.zeros(m_rows)
        moves = coef * lower[var_ix]
        if moves.any():
            np.add.at(shift, row_ix, moves)
        rhs = np.array([row.rhs for row in lp.constraints], dtype=float) - shift
        b = np.concatenate([rhs, upper[bound_cols] - lower[bound_cols]])
        m = b.size
        relations = [row.relation for row in lp.constraints] + [LESS_EQUAL] * bound_cols.size
        slack_sign = np.array([0.0 if rel == EQUAL else 1.0 if rel == LESS_EQUAL else -1.0 for rel in relations])
        slack_rows = np.flatnonzero(slack_sign)
        n_real = n_vars + slack_rows.size
        rows = np.concatenate([row_ix, m_rows + np.arange(bound_cols.size), slack_rows])
        cols = np.concatenate([var_ix, bound_cols, n_vars + np.arange(slack_rows.size)])
        vals = np.concatenate([0.0 + coef, np.ones(bound_cols.size), slack_sign[slack_rows]])

        # rows with a negative rhs are negated
        row_sign = np.where(b < 0, -1.0, 1.0)
        b *= row_sign

        # crash basis: any positive singleton column serves as a row's start
        # (its own slack, or e.g. an unbounded purchase variable), which often
        # removes phase 1 entirely; the first such column by index wins, and a
        # zero-rhs row with only negative singletons is negated to use one
        nonzero = vals != 0.0
        single = nonzero & (np.bincount(cols[nonzero], minlength=n_real)[cols] == 1)
        s_rows, s_cols, s_vals = rows[single], cols[single], vals[single] * row_sign[rows[single]]
        pick = np.full(m, n_real)
        np.minimum.at(pick, s_rows[s_vals > 0.0], s_cols[s_vals > 0.0])
        has_single = np.zeros(m, dtype=bool)
        has_single[s_rows] = True
        flip = (pick == n_real) & (b == 0.0) & has_single
        if flip.any():
            row_sign[flip] *= -1.0
            first_neg = np.full(m, n_real)
            np.minimum.at(first_neg, s_rows[s_vals < 0.0], s_cols[s_vals < 0.0])
            pick[flip] = first_neg[flip]
        picked = pick < n_real
        value_at = np.zeros(n_real + 1)
        value_at[s_cols] = s_vals
        scale = np.where(flip, -1.0, 1.0) * value_at[pick]
        scaled = picked & (scale != 1.0)
        b[scaled] /= scale[scaled]

        art_rows = np.flatnonzero(~picked)
        self.basis = pick
        self.basis[art_rows] = n_real + np.arange(art_rows.size)
        self.art_cols = self.basis[art_rows].astype(int)

        # the dense matrix is written once, in the column-major layout the
        # simplex prices with; only negated or scaled rows are touched again
        a = np.zeros((m, n_real + art_rows.size), order="F")
        a[rows, cols] = vals
        divisor = np.where(scaled, row_sign * scale, row_sign)
        for i in np.flatnonzero(divisor != 1.0):
            a[i, :n_real] /= divisor[i]
        a[art_rows, self.art_cols] = 1.0
        self.row_divisor = divisor

        self.a = a
        self.b = b
        self.n_real = n_real
        self.cost = np.zeros(a.shape[1])
        obj_ix = np.array(list(lp.objective), dtype=np.intp)
        self.cost[obj_ix] = 0.0 + np.array(list(lp.objective.values()), dtype=float)

    def solve(self) -> LpSolution:
        # revised simplex: the constraint matrix stays read-only, only the
        # m x m basis inverse is updated per pivot
        self._refactorize()

        if self.art_cols.size:
            phase1 = np.zeros(self.a.shape[1])
            phase1[self.art_cols] = 1.0
            status, objective = self._iterate(phase1, allowed=self.a.shape[1])
            if status is LpStatus.UNBOUNDED:
                raise ArithmeticError("phase-1 objective cannot be unbounded")
            if objective > 1e-7:
                return self._failed(LpStatus.INFEASIBLE, math.inf)
            self._drive_out_artificials()

        status, _ = self._iterate(self.cost, allowed=self.n_real)
        if status is LpStatus.UNBOUNDED:
            return self._failed(LpStatus.UNBOUNDED, -math.inf)
        return self._extract()

    def _failed(self, status: LpStatus, objective: float) -> LpSolution:
        zeros = [0.0] * len(self.lp.constraints)
        return LpSolution(status, [0.0] * len(self.lp.variables), objective, zeros, self.pivots)

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
        a, c = self.a[:, :allowed], cost[:allowed]
        basis, binv, xb = self.basis, self.binv, self.xb
        cb = cost[basis]  # kept in step with the basis
        objective = float(cb @ xb)
        while pivots < max_pivots:
            reduced = c - (cb @ binv) @ a
            if bland:
                candidates = (reduced < -PIVOT_TOL).nonzero()[0]
                if candidates.size == 0:
                    return LpStatus.OPTIMAL, objective
                j = int(candidates[0])
            else:
                j = int(reduced.argmin())
                if reduced[j] >= -PIVOT_TOL:
                    return LpStatus.OPTIMAL, objective
            direction = binv @ a[:, j]
            pos = (direction > PIVOT_TOL).nonzero()[0]
            if pos.size == 0:
                return LpStatus.UNBOUNDED, -math.inf
            ratios = xb[pos] / direction[pos]
            tied = pos[(ratios <= ratios.min() + PIVOT_TOL).nonzero()[0]]
            leave = int(tied[0]) if tied.size == 1 else int(tied[basis[tied].argmin()])
            theta = max(xb[leave] / direction[leave], 0.0)

            pivot_row = binv[leave] / direction[leave]
            binv -= direction[:, None] * pivot_row
            binv[leave] = pivot_row
            xb -= theta * direction
            xb[leave] = theta
            np.maximum(xb, 0.0, out=xb)
            basis[leave] = j
            cb[leave] = cost[j]

            pivots += 1
            self.pivots += 1
            if pivots % 150 == 0:
                self._refactorize()
                binv, xb = self.binv, self.xb
            new_objective = float(cb @ xb)
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
            self.row_ids = self.row_ids[keep]
            self._refactorize()

    def _extract(self) -> LpSolution:
        """Original values from the basic solution.

        A value drifted outside its bounds is clamped back when the drift is
        within FEAS_TOL; larger drift is a solver fault and raises."""
        std = [0.0] * self.n_real
        for bi, x in zip(self.basis.tolist(), self.xb.tolist()):
            if bi < self.n_real:
                std[bi] = max(x, 0.0)
        values: list[float] = []
        for var, y in zip(self.lp.variables, std):
            x = var.lower + y
            if x < var.lower or x > var.upper:
                bound = var.lower if x < var.lower else var.upper
                if abs(x - bound) > FEAS_TOL:
                    raise ArithmeticError(
                        f"simplex value {x!r} of {var.name!r} lies outside its bounds "
                        f"[{var.lower}, {var.upper}] by more than {FEAS_TOL}"
                    )
                x = bound
            values.append(float(x))
        objective = sum(c * values[col] for col, c in self.lp.objective.items())
        return LpSolution(LpStatus.OPTIMAL, values, objective, self._duals(), self.pivots)

    def _duals(self) -> list[float]:
        """y = c_B B^-1 per row of ``constraints``, undoing each row's divisor; 0 on a dropped row."""
        y = self.cost[self.basis] @ self.binv
        duals = np.zeros(self.row_divisor.size)
        duals[self.row_ids] = y / self.row_divisor[self.row_ids]
        return duals[: len(self.lp.constraints)].tolist()


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


def max_violation(lp: LinearProgram, values: list[float]) -> float:
    return max(constraint_residuals(lp, values).values())
