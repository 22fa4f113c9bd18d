"""Self-contained linear programming: exact representation and a deterministic
two-phase revised simplex.

A program minimises a linear cost over variables that each have a finite
lower bound (the upper bound may be +inf), subject to ``<=`` and ``=`` rows;
a ``>=`` row is written as its negated ``<=`` row. Every quantity the
matching LP decides is non-negative, so a variable without a finite lower
bound is rejected, and each variable is one standard column shifted by its
lower bound.

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
basis is exactly I (each crash column is a unit column, and so is each
artificial), so no inverse is taken until the first refactorization.

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
computes, so B^-1 and x_B follow it bit for bit. (A product over the
column's entries alone sums in another order, and on columns with inexact
entries it differs in the last bit.) Pricing sums each column's terms
y_r a_rj in row order, and so does the reference, so both price every
column to the same float and take the same pivots. There is no sparse
factorisation and no MILP (binary connectivity is data, never a decision
variable).

A program is stored as arrays, and only as arrays: per column its lower and
upper bound and cost; per row its relation and rhs, with the coefficients as
compressed sparse rows in insertion order. It is built only by appending
whole arrays (``add_columns``, ``add_rows``), and a column position handed to
``add_rows`` must be an integer. ``validate_program`` checks whole arrays and
walks entries only to find the first offender.
``_standardise`` reads the arrays directly. ``variables`` and
``constraints`` are read-only views in the dataclass and dict form, built on
each read for messages, tests and the benchmark's counters: writing to one
changes nothing. A solution's ``objective`` sums c_j x_j one term at a time
in column order, so two programs whose arrays are equal report the same
float.

A column is known by its position: ``add_columns`` returns the first it
appends, every row refers to columns by position, and a solution lists one
value per column in column order. A row, too, is its position, and an error
names a column or row by position ("column 3", "row 1").

An optimal solution also carries ``duals``, one per row in row order:
y = c_B B^-1 at the phase-2 optimum, mapped back through the row
negations of the standard form. They keep the sign convention of a
minimisation (at most 0 on a ``<=`` row), and a row dropped as redundant
gets 0. With reduced costs rc_j = c_j - sum_r y_r a_rj over these rows
alone, the objective equals
sum_r y_r b_r + sum_j (l_j max(rc_j, 0) + u_j min(rc_j, 0)); an upper bound
acts as the bound-row dual min(rc_j, 0), so a column with u_j = +inf has
rc_j >= 0.

Every solution counts its ``pivots``: the basis changes of phase 1 and phase
2 together (driving a leftover artificial out of the basis is not counted).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-6

LESS_EQUAL = "<="
EQUAL = "="
_RELATIONS = (LESS_EQUAL, EQUAL)
_SLACK_SIGN = {EQUAL: 0.0, LESS_EQUAL: 1.0}


class LpFormatError(ValueError):
    """Structurally malformed program (bad bounds, a position that is not a column, ...)."""


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True, slots=True)
class LpVariable:
    lower: float = 0.0
    upper: float = math.inf


@dataclass(frozen=True)
class LpConstraint:
    coeffs: dict[int, float]
    relation: str
    rhs: float


class LinearProgram:
    """Minimise ``cost . x`` subject to bounds and linear constraints, stored as arrays.

    Columns: ``lower``, ``upper`` and ``cost``, one entry per column. Rows:
    ``relations`` and ``rhs``, one entry per row, and their coefficients as
    compressed sparse rows: row i holds
    ``entry_vals[row_starts[i]:row_starts[i + 1]]`` in the columns
    ``entry_cols[...]``, in insertion order.

    ``add_columns`` and ``add_rows`` append arrays, and are the only
    builders. ``variables`` and ``constraints`` are read-only views built on
    demand.
    """

    def __init__(self) -> None:
        self.lower = np.zeros(0)
        self.upper = np.zeros(0)
        self.cost = np.zeros(0)
        self.relations: list[str] = []
        self.rhs = np.zeros(0)
        self.row_starts = np.zeros(1, dtype=np.intp)
        self.entry_cols = np.zeros(0, dtype=np.intp)
        self.entry_vals = np.zeros(0)

    def add_columns(self, lower, upper, cost) -> int:
        """Append columns with their bounds and costs; returns the position of the first."""
        start = self.lower.size
        lower, upper, cost = (np.asarray(a, dtype=float) for a in (lower, upper, cost))
        if not lower.size == upper.size == cost.size:
            raise LpFormatError(f"columns: {lower.size} lower bounds, {upper.size} upper bounds and {cost.size} costs")
        self.lower = np.concatenate([self.lower, lower])
        self.upper = np.concatenate([self.upper, upper])
        self.cost = np.concatenate([self.cost, cost])
        return start

    def add_rows(self, relations: Sequence[str], rhs, lengths, cols, vals) -> None:
        """Append rows; row k takes its ``lengths[k]`` entries in turn from ``cols`` and ``vals``."""
        ends = np.cumsum(lengths, dtype=np.intp)
        cols, vals, rhs = _positions(cols), np.asarray(vals, dtype=float), np.asarray(rhs, dtype=float)
        if not len(relations) == rhs.size == ends.size or not cols.size == vals.size == ends[-1:].sum():
            raise LpFormatError("rows: relations, rhs, lengths and entries do not agree in size")
        self.relations.extend(relations)
        self.rhs = np.concatenate([self.rhs, rhs])
        self.row_starts = np.concatenate([self.row_starts, self.row_starts[-1] + ends])
        self.entry_cols = np.concatenate([self.entry_cols, cols])
        self.entry_vals = np.concatenate([self.entry_vals, vals])

    @property
    def variables(self) -> list[LpVariable]:
        return list(map(LpVariable, self.lower.tolist(), self.upper.tolist()))

    @property
    def constraints(self) -> list[LpConstraint]:
        keys, vals, starts = self.entry_cols.tolist(), self.entry_vals.tolist(), self.row_starts.tolist()
        return [
            LpConstraint(dict(zip(keys[a:b], vals[a:b])), relation, rhs)
            for a, b, relation, rhs in zip(starts, starts[1:], self.relations, self.rhs.tolist())
        ]


def _positions(cols) -> np.ndarray:
    """``add_rows``' column positions as intp; a float, bool or str position is refused."""
    # np.asarray([0, True]) is an integer array, so a list's items are checked first
    if not isinstance(cols, np.ndarray) and any(isinstance(c, (bool, np.bool_)) for c in cols):
        raise LpFormatError("column positions must be integers, got a bool")
    cols = np.asarray(cols)
    if cols.size and cols.dtype.kind not in "iu":
        raise LpFormatError(f"column positions must be integers, got {cols.dtype}")
    return cols.astype(np.intp, copy=False)


@dataclass(frozen=True)
class LpSolution:
    status: LpStatus
    values: list[float]  # one per column, in column order
    objective: float
    duals: list[float]  # one per row, in row order; all 0 unless optimal
    pivots: int  # simplex pivots of phase 1 and phase 2 together


def validate_program(lp: LinearProgram) -> None:
    """Raise LpFormatError naming the offending column or row by position.

    Each check reads whole arrays; only a program that fails one is walked,
    to name its first offender."""
    lower, upper = lp.lower, lp.upper
    bounded = np.isfinite(lower) & (lower <= upper)
    if not bounded.all():
        k = int(bounded.argmin())
        low, up = lower[k].item(), upper[k].item()
        if math.isnan(low) or math.isnan(up):
            raise LpFormatError(f"column {k} has NaN bound")
        if not math.isfinite(low):
            raise LpFormatError(f"column {k} has no finite lower bound ({low})")
        raise LpFormatError(f"column {k} has lower {low} > upper {up}")
    if not np.isfinite(lp.cost).all():
        k = int(np.isfinite(lp.cost).argmin())
        raise LpFormatError(f"column {k} has non-finite cost {lp.cost[k].item()}")
    if not (set(lp.relations) <= set(_RELATIONS) and np.isfinite(lp.rhs).all()):
        for idx, (relation, rhs) in enumerate(zip(lp.relations, lp.rhs.tolist())):
            if relation not in _RELATIONS:
                raise LpFormatError(f"row {idx}: unknown relation {relation!r}")
            if not math.isfinite(rhs):
                raise LpFormatError(f"row {idx}: non-finite rhs {rhs}")
    # every position must lie in [0, n): numpy indexing would wrap -1 to the
    # last column; add_rows already refused any position but an integer
    n_cols = lower.size
    outside = (lp.entry_cols < 0) | (lp.entry_cols >= n_cols)
    if outside.any():
        k = int(outside.argmax())
        row = int(lp.row_starts.searchsorted(k, "right")) - 1
        raise LpFormatError(f"row {row}: key {lp.entry_cols[k].item()} is not a column position in [0, {n_cols})")


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Deterministic two-phase simplex; returns a vertex solution or Infeasible/Unbounded."""
    validate_program(lp)
    return _Simplex(lp).solve()


class _Simplex:
    """Two-phase revised simplex over the standardised program.

    Standardisation: column k becomes standard column k, y = x - lower >= 0;
    finite upper bounds become extra <= rows, and all constraints become
    equalities with slack columns. A row with a negative rhs is negated. A
    crash pass starts each row on its first unit column (one entry, +1 in
    the standardised row); only rows without one get an artificial column
    minimised in phase 1.

    Standard row i is original row i (constraints, then bound rows) divided
    by its sign ``row_divisor[i]``, -1 or 1; ``row_ids`` names the original
    row of each row still in the store, as phase 1 may drop redundant ones.

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
        lower, upper = lp.lower, lp.upper
        n_vars = lower.size
        bound_cols = np.flatnonzero(upper != math.inf)  # a finite upper bound adds a <= row

        # (row, column, value) triplets: the rows over standard columns, then
        # the bound rows, then one slack per inequality
        m_rows = len(lp.relations)
        var_ix, coef = lp.entry_cols, lp.entry_vals
        row_ix = np.repeat(np.arange(m_rows), np.diff(lp.row_starts))
        # the rhs moves by c * lower, summed in coefficient order per row
        shift = np.zeros(m_rows)
        moves = coef * lower[var_ix]
        if moves.any():
            np.add.at(shift, row_ix, moves)
        rhs = lp.rhs - shift
        b = np.concatenate([rhs, upper[bound_cols] - lower[bound_cols]])
        m = b.size
        relation_signs = np.fromiter(map(_SLACK_SIGN.__getitem__, lp.relations), float, m_rows)
        slack_sign = np.concatenate([relation_signs, np.ones(bound_cols.size)])
        slack_rows = np.flatnonzero(slack_sign)
        n_real = n_vars + slack_rows.size
        rows = np.concatenate([row_ix, m_rows + np.arange(bound_cols.size), slack_rows])
        cols = np.concatenate([var_ix, bound_cols, n_vars + np.arange(slack_rows.size)])
        vals = np.concatenate([0.0 + coef, np.ones(bound_cols.size), slack_sign[slack_rows]])

        # rows with a negative rhs are negated
        row_sign = np.where(b < 0, -1.0, 1.0)
        b *= row_sign

        # crash basis: a row starts on its first unit column, one whose only
        # entry is +1 once the row's sign is applied (its own slack, or e.g.
        # an unbounded purchase variable), which often removes phase 1
        # entirely; a row without one gets an artificial
        nonzero = vals != 0.0
        unit = (vals * row_sign[rows] == 1.0) & (np.bincount(cols[nonzero], minlength=n_real)[cols] == 1)
        pick = np.full(m, n_real)
        np.minimum.at(pick, rows[unit], cols[unit])
        art_rows = np.flatnonzero(pick == n_real)
        self.basis = pick
        self.basis[art_rows] = n_real + np.arange(art_rows.size)
        self.art_cols = self.basis[art_rows].astype(int)
        self.row_divisor = row_sign

        # the column store: each real entry divided by its row's sign, the
        # artificials' unit entries appended; within a column the triplets
        # are already in row order, so a stable sort by column is enough
        rows = np.concatenate([rows, art_rows])
        cols = np.concatenate([cols, self.art_cols])
        vals = np.concatenate([vals / row_sign[rows[: vals.size]], np.ones(art_rows.size)])
        order = np.argsort(cols, kind="stable")
        self.row_ix, self.col_ix, self.data = rows[order], cols[order], vals[order]
        n_cols = n_real + art_rows.size
        self.indptr = _column_starts(self.col_ix, n_cols)

        self.b = b
        self.n_real = n_real
        self.lower, self.upper = lower, upper
        self.cost = np.zeros(n_cols)
        self.cost[:n_vars] = lp.cost + 0.0  # minus a zero reward is -0.0

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
        zeros = [0.0] * len(self.lp.relations)
        return LpSolution(status, [0.0] * self.lp.lower.size, objective, zeros, self.pivots)

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
        if allowed == 0:
            # only a program of equality rows and no columns has no real
            # column: every row reads 0 = rhs, and phase 1 has judged them
            return LpStatus.OPTIMAL, objective
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
        """Pivot each artificial left in the basis out for a real column; where
        none can enter, the artificial's own row is redundant and is dropped
        with the artificial's basis slot.

        Slot i of the basis holds an artificial whose unit entry sits in row
        r; phase 1 may have moved it, so r need not be i. With
        y = B^-1[i], y a_j = 0 for every real column j while y_r = 1: row r
        is a combination of the other rows. Dropping row r and slot i keeps
        the basis nonsingular, since slot i's column is the unit vector of
        row r."""
        art = set(self.art_cols.tolist())
        drop_slots: list[int] = []
        drop_rows: list[int] = []
        priced = self._entries(self.n_real)
        for i in range(self.b.size):
            if self.basis[i] not in art:
                continue
            row = _times_columns(self.binv[i], *priced, self.n_real)
            nonzero = np.flatnonzero(np.abs(row) > PIVOT_TOL)
            if nonzero.size == 0:
                drop_slots.append(i)
                drop_rows.append(int(self.row_ix[self.indptr[self.basis[i]]]))
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
            self.basis = np.delete(self.basis, drop_slots)
            self.row_ids = self.row_ids[keep]
            self._refactorize()

    def _extract(self) -> LpSolution:
        """Original values from the basic solution.

        A value drifted past its upper bound is clamped back when the drift is
        within FEAS_TOL; larger drift is a solver fault and raises, naming the
        first such column. (A value is never below its lower bound: basic
        values are clamped at 0 before the lower bound is added.)"""
        lp = self.lp
        n_vars = lp.lower.size
        std = np.zeros(self.n_real)
        real = self.basis < self.n_real
        std[self.basis[real]] = np.maximum(self.xb[real], 0.0)
        x = self.lower + std[:n_vars]
        for k in np.flatnonzero(x > self.upper).tolist():
            if x[k] - self.upper[k] > FEAS_TOL:
                raise ArithmeticError(
                    f"simplex value {float(x[k])!r} of column {k} lies outside its bounds "
                    f"[{self.lower[k].item()}, {self.upper[k].item()}] by more than {FEAS_TOL}"
                )
            x[k] = self.upper[k]
        # the objective sums its terms one at a time, in column order
        objective = sum((lp.cost * x).tolist(), 0.0)
        return LpSolution(LpStatus.OPTIMAL, x.tolist(), objective, self._duals(), self.pivots)

    def _duals(self) -> list[float]:
        """y = c_B B^-1 per row of ``constraints``, undoing each row's sign; 0 on a dropped row.

        Adding 0.0 turns the -0.0 that a negated row's zero dual becomes into 0.0."""
        y = self.cost[self.basis] @ self.binv
        duals = np.zeros(self.row_divisor.size)
        duals[self.row_ids] = y / self.row_divisor[self.row_ids] + 0.0
        return duals[: len(self.lp.relations)].tolist()


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
