"""Self-contained linear programming: exact representation and a deterministic
two-phase revised simplex.

A program minimises a linear cost over variables that each have a finite
lower bound (the upper bound may be +inf), subject to ``<=``, ``=`` and
``>=`` rows. Every quantity the matching LP decides is non-negative, so a
variable without a finite lower bound is rejected, and each variable is one
standard column shifted by its lower bound.

The solver is a pure function of its input. Identical programs yield
bit-identical solutions: entering columns follow Dantzig's rule with
first-index tie-breaking, degenerate stalls switch to Bland's anti-cycling
rule, leaving rows break ratio ties on the smallest basis variable index, and
all arithmetic is plain float64.

The standard form is kept column by column (compressed sparse columns) and
is never written out as a dense matrix: at the size of the centralized
baseline (1,220 rows x 22,020 columns) it is 99.8% zeros. The basis inverse
is a dense m x m array, updated per pivot and refactorised from the basis
columns every 150 pivots (the revised simplex of Chvatal, *Linear
Programming*, ch. 7). A solve starts from B^-1 = I and x_B = b: the crash
basis is exactly I (each crash column is scaled to 1, each artificial is a
unit column), so no inverse is taken until the first refactorization.

A pivot changes only the rows of B^-1 where the FTRAN column ``direction``
is nonzero, and on the matching LPs that is a few rows (a median of 2 of
160 on the 10-SSP baseline). When fewer than one row in 8 moves, only those
rows are updated; otherwise the whole array is, which is faster for small
or dense updates. On a 2-CPU host, with two moving rows, the restricted
update takes 18 us against 9 us at m = 16, and 23 us against 64 us at
m = 160. Both give every entry the same float, provided B^-1 holds no
-0.0: a dense update computes -0.0 - (+0.0 * -p) = +0.0 in a row it
otherwise leaves unchanged, and the restricted one skips that row. So B^-1
keeps canonical zeros: a refactorization adds 0.0 to the inverse LAPACK
returns, which may hold -0.0, and a pivot row adds 0.0 after its division
(a negative pivot, which only the drive-out of artificials takes, turns
+0.0 into -0.0). The subtractions never make a -0.0 from operands without
one.

FTRAN multiplies B^-1 by the entering column scattered into a dense
vector: that is the product the dense reference in ``tests/oracles.py``
computes, so B^-1 and x_B follow it bit for bit. (A
product over the column's entries alone sums in another order, and on
columns with inexact entries it differs in the last bit.) Pricing sums each
column's terms y_r a_rj in row order, where the dense product y A leaves
the order to BLAS. Most columns of the matching LPs have one or two
entries, each +-1: every product is then exact, and a sum of at most two
exact terms is the same float in any order, fused multiply-add included. A
local producer's column also has an entry in the export-reservation row;
there, and on a general program, a reduced cost may differ from the dense
one in the last bit, which changes the entering column only where two
reduced costs tie to the last bit. The reference tests and the benchmark's
digests check that the pivots stay the same. There is no sparse
factorisation and no MILP (binary connectivity is data, never a decision
variable).

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
from dataclasses import dataclass, field, replace
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
        # every row reads 0 <relation> rhs: phase 1 over one unused column judges them
        padded = LinearProgram([LpVariable("unused")], {}, lp.constraints)
        return replace(_Simplex(padded).solve(), values=[])
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
    still in the store, as phase 1 may drop redundant ones.

    The standard form is a column store: column j holds the entries
    ``data[indptr[j]:indptr[j + 1]]`` in rows ``row_ix[...]``, in row order,
    and ``col_ix`` repeats j for each of them. The real columns (variables,
    then slacks; ``n_real`` of them) come first, the artificials last as unit
    columns. Pricing, FTRAN and the basis matrix read only these entries.
    """

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        self._standardise()
        self.row_ids = np.arange(self.b.size)
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
        divisor = np.where(scaled, row_sign * scale, row_sign)
        self.row_divisor = divisor

        # the column store: each real entry divided by its row's divisor, the
        # artificials' unit entries appended; within a column the triplets
        # are already in row order, so a stable sort by column is enough
        rows = np.concatenate([rows, art_rows])
        cols = np.concatenate([cols, self.art_cols])
        vals = np.concatenate([vals / divisor[rows[: vals.size]], np.ones(art_rows.size)])
        order = np.argsort(cols, kind="stable")
        self.row_ix, self.col_ix, self.data = rows[order], cols[order], vals[order]
        n_cols = n_real + art_rows.size
        self.indptr = _column_starts(self.col_ix, n_cols)

        self.b = b
        self.n_real = n_real
        self.lower, self.upper = lower, upper
        self.cost = np.zeros(n_cols)
        obj_ix = np.array(list(lp.objective), dtype=np.intp)
        self.cost[obj_ix] = 0.0 + np.array(list(lp.objective.values()), dtype=float)

    def solve(self) -> LpSolution:
        # revised simplex: the column store stays read-only, only the m x m
        # basis inverse is updated per pivot; the crash basis is exactly I
        self.binv = np.eye(self.b.size)
        self.xb = self.b + 0.0

        if self.art_cols.size:
            phase1 = np.zeros(self.cost.size)
            phase1[self.art_cols] = 1.0
            status, objective = self._iterate(phase1, allowed=self.cost.size)
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
        """B^-1 and x_B from the basis columns, scattered through their basis slots."""
        m = self.b.size
        slot = np.full(self.cost.size, m)  # column m collects the entries of nonbasic columns
        slot[self.basis] = np.arange(m)
        basis_matrix = np.zeros((m, m + 1))
        basis_matrix[self.row_ix, slot[self.col_ix]] = self.data
        self.binv = np.linalg.inv(basis_matrix[:, :m])
        self.binv += 0.0  # LAPACK may return -0.0, which B^-1 never holds (module docstring)
        self.xb = self.binv @ self.b

    def _entries(self, allowed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(row_ix, data, col_ix) of the entries of the first ``allowed`` columns."""
        end = self.indptr[allowed]
        return self.row_ix[:end], self.data[:end], self.col_ix[:end]

    def _column(self, j: int) -> np.ndarray:
        """Column j as a dense vector: B^-1 times it is the dense reference's FTRAN, bit for bit."""
        column = np.zeros(self.b.size)
        start, stop = self.indptr[j], self.indptr[j + 1]
        column[self.row_ix[start:stop]] = self.data[start:stop]
        return column

    def _iterate(self, cost: np.ndarray, allowed: int) -> tuple[LpStatus, float]:
        """Deterministic pivoting: Dantzig's most-negative reduced cost (first
        index on ties) while the objective moves; after a degenerate stall,
        Bland's anti-cycling rule until the objective strictly improves again.
        Leaving row by minimum ratio, ties broken on the smallest basis
        variable index."""
        m = self.b.size
        max_pivots = 20000 + 200 * (m + allowed)
        bland = False
        stall = 0
        pivots = 0
        priced = self._entries(allowed)
        c = cost[:allowed]
        basis, binv, xb = self.basis, self.binv, self.xb
        cb = cost[basis]  # kept in step with the basis
        objective = float(cb @ xb)
        while pivots < max_pivots:
            reduced = c - _times_columns(cb.dot(binv), *priced, allowed)
            if bland:
                candidates = (reduced < -PIVOT_TOL).nonzero()[0]
                if candidates.size == 0:
                    return LpStatus.OPTIMAL, objective
                j = int(candidates[0])
            else:
                j = int(reduced.argmin())
                if reduced[j] >= -PIVOT_TOL:
                    return LpStatus.OPTIMAL, objective
            direction = binv.dot(self._column(j))
            pos = (direction > PIVOT_TOL).nonzero()[0]
            if pos.size == 0:
                return LpStatus.UNBOUNDED, -math.inf
            ratios = xb[pos] / direction[pos]
            tied = pos[(ratios <= ratios.min() + PIVOT_TOL).nonzero()[0]]
            leave = int(tied[0]) if tied.size == 1 else int(tied[basis[tied].argmin()])
            theta = max(xb[leave] / direction[leave], 0.0)

            _pivot_inverse(binv, direction, leave)
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
        priced = self._entries(self.n_real)
        for i in range(self.b.size):
            if self.basis[i] not in art:
                continue
            row = _times_columns(self.binv[i], *priced, self.n_real)
            nonzero = np.flatnonzero(np.abs(row) > PIVOT_TOL)
            if nonzero.size == 0:
                drop_rows.append(i)  # redundant constraint
                continue
            j = int(nonzero[0])
            _pivot_inverse(self.binv, self.binv.dot(self._column(j)), i)
            self.basis[i] = j
            self.xb = self.binv @ self.b
        if drop_rows:
            keep = np.ones(self.b.size, dtype=bool)
            keep[drop_rows] = False
            live = keep[self.row_ix]
            self.row_ix = (np.cumsum(keep) - 1)[self.row_ix[live]]
            self.col_ix, self.data = self.col_ix[live], self.data[live]
            self.indptr = _column_starts(self.col_ix, self.cost.size)
            self.b = self.b[keep]
            self.basis = self.basis[keep]
            self.row_ids = self.row_ids[keep]
            self._refactorize()

    def _extract(self) -> LpSolution:
        """Original values from the basic solution.

        A value drifted past its upper bound is clamped back when the drift is
        within FEAS_TOL; larger drift is a solver fault and raises, naming the
        first such column. (A value is never below its lower bound: basic
        values are clamped at 0 before the lower bound is added.)"""
        n_vars = len(self.lp.variables)
        std = np.zeros(self.n_real)
        real = self.basis < self.n_real
        std[self.basis[real]] = np.maximum(self.xb[real], 0.0)
        x = self.lower + std[:n_vars]
        for k in np.flatnonzero(x > self.upper).tolist():
            if x[k] - self.upper[k] > FEAS_TOL:
                var = self.lp.variables[k]
                raise ArithmeticError(
                    f"simplex value {float(x[k])!r} of {var.name!r} lies outside its bounds "
                    f"[{var.lower}, {var.upper}] by more than {FEAS_TOL}"
                )
            x[k] = self.upper[k]
        values = x.tolist()
        objective = sum((c * values[col] for col, c in self.lp.objective.items()), 0.0)
        return LpSolution(LpStatus.OPTIMAL, values, objective, self._duals(), self.pivots)

    def _duals(self) -> list[float]:
        """y = c_B B^-1 per row of ``constraints``, undoing each row's divisor; 0 on a dropped row."""
        y = self.cost[self.basis] @ self.binv
        duals = np.zeros(self.row_divisor.size)
        duals[self.row_ids] = y / self.row_divisor[self.row_ids]
        return duals[: len(self.lp.constraints)].tolist()


def _column_starts(col_ix: np.ndarray, n_cols: int) -> np.ndarray:
    """``indptr`` of a column store sorted by column: column j's entries sit at [indptr[j], indptr[j + 1])."""
    return np.searchsorted(col_ix, np.arange(n_cols + 1))


def _pivot_inverse(binv: np.ndarray, direction: np.ndarray, leave: int) -> None:
    """B^-1 after the column with FTRAN ``direction`` replaces basis row ``leave``, in place.

    Row r becomes binv[r] - direction[r] * pivot_row; when fewer than one row
    in 8 has direction[r] != 0, only those rows are computed (the module
    docstring says why both give the same bytes)."""
    pivot_row = binv[leave] / direction[leave] + 0.0
    rows = direction.nonzero()[0]
    if 8 * rows.size < direction.size:
        binv[rows] -= direction[rows, None] * pivot_row
    else:
        binv -= direction[:, None] * pivot_row
    binv[leave] = pivot_row


def _times_columns(y: np.ndarray, rows: np.ndarray, data: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """y A over n columns stored as (row, value, column) entries; each column sums its terms in entry order."""
    return np.bincount(cols, weights=y.take(rows) * data, minlength=n)
