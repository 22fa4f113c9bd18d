"""Build and solve one SSP's matching LP, plus aggregates and the centralized baseline.

The LP decides cm(i, j) placements from local producers and partner SSPs to
local consumers, per-consumer Utility purchases cm(i, U) and the flexibility
factors of passive subscribers; sell-backs cm(U, j), the production nobody
takes, are derived after the solve. Minimised objective, per chosen weights:

* reward every placed kWh by w14 * Pr(i) plus w35 times a preference factor
  that decreases with the consumer's rank of the supplier,
* penalise Utility purchases by w2,
* penalise production stretch (fx(j) - 1) * Ep(j) of local passive producers
  just above the largest placement reward, so flexibility is activated only
  when it avoids Utility interaction, never to overfill flexible demand.

Constraints: per-producer supply caps, the per-consumer demand window
fx(i)*Dc(i) <= served <= Dc(i), flexibility bounds, optional per-pair line
bounds and, inside the protocol, a reservation row that keeps already-exported
energy deliverable. Utility purchase columns are unbounded above, which makes
every instance feasible.

Besides the matrix, a solve returns the consumers' prices: minus the dual of
each demand row, i.e. the reward the consumer's marginal kWh earns now (minus
w2 when the Utility serves it). Only a supplier whose reward beats a price can
improve the LP; ``PairTable.offer_can_improve`` prices a partner's offer that
way (the pricing step of column generation) without building the LP.

Both LPs share one layout, built by ``_place``: the cm columns consumer-major,
then purchases, cuts and stretches, their costs and the demand rows.
``_build`` and ``_build_centralized`` add only their own columns and rows, and
``_solve`` maps the solver status to an error for both. A partner's reward
per kWh comes from ``PairTable.partner_reward`` alone.

The centralized baseline (``solve_centralized``) is one LP over every
subscriber of every SSP, in transshipment form (Ahuja, Magnanti & Orlin,
*Network Flows*, ch. 9). Every producer of a partner SSP t carries t's rank,
so a consumer's columns from t's producers would all have the same reward.
Instead, each consumer has one import column per connected partner SSP with
producers, drawn from t's pool; each producer of a pooled SSP has an export
column (cost 0) in its supply row, and one pool row per SSP keeps the imports
from t within the exports of t's producers. By flow decomposition this LP has
the optimum of the per-pair one (``merged_view``'s): a per-pair solution sums
to a feasible import and export plan, and ``_split_pool`` splits a pool's
flows back into per-producer cells by the north-west corner rule, which
keeps every cell within both its consumer's import and its producer's export.
The pool row is ``<=`` rather than ``=`` (production exported to a pool that
nobody draws on is simply not placed), so its slack starts the simplex and
the LP needs no phase 1 for it.

A line bounds a local cell or a purchase (``line-decided-flow`` rejects one
on a remote producer), and an import takes no (consumer, SSP) line: the
per-pair form has no column for it, so there the baseline relaxes the runs.
"""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .lp import (
    EQUAL,
    LESS_EQUAL,
    LinearProgram,
    LpSolution,
    LpStatus,
    LpVariable,
    solve_lp,
)
from .model import (
    UTILITY_ID,
    CommitmentMatrix,
    ConnectivityMatrix,
    LineConstraintSet,
    MatchingWeights,
    PreferenceTable,
    Scenario,
    SSPConfig,
    Subscriber,
)

RESIDUAL_TOL = 1e-9


class MatchingStructureError(ValueError):
    """View is structurally unusable (e.g. missing preference rank)."""


class MatchingInfeasibleError(RuntimeError):
    """Only possible when line constraints pin flows inconsistently."""


@dataclass(frozen=True)
class PartnerCapacity:
    energy: float
    bound: float


@dataclass(frozen=True)
class SspView:
    """One SSP's local knowledge: its subscribers plus advertised partner capacity.

    ``partner_capacities`` holds only partners reachable per the inter-SSP
    connectivity; capacities are zero until offers arrive.
    """

    ssp_id: str
    consumers: tuple[Subscriber, ...]
    producers: tuple[Subscriber, ...]
    preferences: PreferenceTable
    connectivity: ConnectivityMatrix
    partner_capacities: dict[str, PartnerCapacity] = field(default_factory=dict)


@dataclass(frozen=True)
class FlexibilityAssignment:
    """Chosen fx per local consumer (in [1-bound, 1]) and producer (in [1, 1+bound])."""

    consumers: dict[str, float]
    producers: dict[str, float]


def view_for_ssp(scenario: Scenario, ssp_id: str) -> SspView:
    """Local view with every reachable partner advertised at zero capacity."""
    cfg = scenario.ssp(ssp_id)
    partners = {
        other: PartnerCapacity(0.0, 0.0)
        for other in scenario.ssp_ids
        if other != ssp_id and scenario.connectivity.connected(ssp_id, other)
    }
    return SspView(
        ssp_id=cfg.id,
        consumers=cfg.consumers,
        producers=cfg.producers,
        preferences=cfg.preferences,
        connectivity=scenario.connectivity,
        partner_capacities=partners,
    )


# one cm column: (consumer id, supplier id), its variable, its reward per placed kWh
_Column = tuple[tuple[str, str], LpVariable, float]
# one equality row: its coefficients by column, its rhs and its name
_Row = tuple[dict[int, float], float, str]


@dataclass
class _BuildInfo:
    cm_columns: list[_Column]  # the cm columns, which come first: column k is cm_columns[k]
    purchase_cols: range  # cm(i, U) of each consumer, in consumer order
    cut_cols: dict[str, int]  # demand reduction kWh; fx(i) = 1 - cut/Dc
    stretch_cols: dict[str, int]  # local production increase kWh; fx(j) = 1 + stretch/Ep
    objective_offset: float = 0.0  # minus the reward of the locked imports; set by _build
    demand_rows: range = range(0)  # the demand row of each consumer, in consumer order; set by _add_demand_rows
    live_partners: list[str] = field(default_factory=list)  # partners advertising more than RESIDUAL_TOL, sorted; the pooled SSPs when centralized
    export_cols: dict[str, int] = field(default_factory=dict)  # centralized only: a pooled SSP's producer's export


def _line_bounds(lines: LineConstraintSet | None, row_id: str, col_id: str) -> tuple[float, float]:
    if lines is not None:
        lc = lines.lookup(row_id, col_id)
        if lc is not None:
            return max(0.0, lc.min_kwh), lc.max_kwh
    return 0.0, math.inf


def _flex_variables(
    consumers: Sequence[Subscriber], producers: Sequence[Subscriber], lines: LineConstraintSet | None
) -> tuple[list[LpVariable], dict[str, LpVariable], dict[str, LpVariable]]:
    """The purchase of each consumer, the cut of each passive consumer and the stretch of each passive producer.

    fx factors are carried as kWh variables: cut = (1-fx(i))*Dc, stretch =
    (fx(j)-1)*Ep. Same polytope, and the all-Utility start vertex stays basic.
    """
    purchases = [LpVariable(f"cm[{c.id}][U]", *_line_bounds(lines, c.id, UTILITY_ID)) for c in consumers]
    cuts = {c.id: LpVariable(f"cut[{c.id}]", 0.0, c.bound * c.energy) for c in consumers if c.bound > 0.0}
    stretches = {p.id: LpVariable(f"stretch[{p.id}]", 0.0, p.bound * p.energy) for p in producers if p.bound > 0.0}
    return purchases, cuts, stretches


class _Rewards:
    """The reward per placed kWh, and the constants that depend on every rank of one LP.

    ``ranks`` maps each consumer to the supplier ranks of its cm columns.
    Unless the weights fix it, ``beta`` is the largest rank plus 1, and
    ``stretch_penalty`` lies 0.01 * w2 above the largest reward.
    """

    def __init__(self, weights: MatchingWeights, priority: dict[str, float], ranks: dict[str, list[int]]):
        self._weights = weights
        self._priority = priority
        extremes = [(consumer_id, min(row), max(row)) for consumer_id, row in ranks.items() if row]
        self.beta = weights.beta if weights.beta is not None else float(max([1, *(top for *_, top in extremes)]) + 1)
        # a reward is monotone in the rank, so the largest of a consumer's
        # rewards sits at its lowest or its highest rank
        self.stretch_penalty = max(
            (self(consumer_id, rank) for consumer_id, *ends in extremes for rank in ends), default=0.0
        ) + 0.01 * weights.w2

    def __call__(self, consumer_id: str, rank: int) -> float:
        weights = self._weights
        return weights.w14 * self._priority[consumer_id] + weights.w35 * (1.0 + weights.alpha * (self.beta - rank))


class PairTable:
    """The part of one view's matching LP that offers do not change.

    Built once per (subscribers, partner list, weights, lines); an agent keeps
    its own and hands it to every re-solve. It holds the local cm columns
    (``local``: per consumer, those of its connected local producers in
    producer order, with rewards and line bounds); the purchase, cut and
    stretch variables (``flex``; sell-backs have none: they are derived from
    the solution); and ``rewards``, whose beta and stretch penalty depend on
    the rank of every partner, live or not. Partner columns are made per
    solve, for the partners that advertise capacity: kept for every partner,
    they would cost memory in proportion to consumers x partners.
    """

    def __init__(self, view: SspView, weights: MatchingWeights, lines: LineConstraintSet | None):
        self._partners = frozenset(view.partner_capacities)
        self._preferences = view.preferences
        self._lines = lines
        self._consumer_ids = [c.id for c in view.consumers]
        partner_ids = sorted(self._partners)
        # stable (consumer, supplier) pairs: connected local producers, then
        # every partner; zero-capacity partners get no column but shape beta
        local_ids = [[p.id for p in view.producers if view.connectivity.connected(c.id, p.id)] for c in view.consumers]
        try:
            ranks = [
                [view.preferences.rank(consumer.id, supplier_id) for supplier_id in local + partner_ids]
                for consumer, local in zip(view.consumers, local_ids)
            ]
        except KeyError as exc:
            raise MatchingStructureError(str(exc)) from None
        self.rewards = _Rewards(weights, {c.id: c.priority for c in view.consumers}, dict(zip(self._consumer_ids, ranks)))
        self.local: dict[str, list[_Column]] = {
            consumer.id: [
                (
                    (consumer.id, supplier_id),
                    LpVariable(f"cm[{consumer.id}][{supplier_id}]", *_line_bounds(lines, consumer.id, supplier_id)),
                    self.rewards(consumer.id, rank),
                )
                for supplier_id, rank in zip(local, row)
            ]
            for consumer, local, row in zip(view.consumers, local_ids, ranks)
        }
        # partners that a line with a positive minimum ties to some consumer
        consumer_set = set(self._consumer_ids)
        self.floored = frozenset(
            lc.col_id
            for lc in (lines.constraints if lines is not None else ())
            if lc.row_id in consumer_set and lc.col_id in self._partners
            and _line_bounds(lines, lc.row_id, lc.col_id)[0] > 0.0
        )
        self.flex = _flex_variables(view.consumers, view.producers, lines)

    def partner_reward(self, consumer_id: str, partner_id: str) -> float:
        """Reward per kWh a consumer of the view earns from a partner SSP."""
        return self.rewards(consumer_id, self._preferences.rank(consumer_id, partner_id))

    def partner_columns(self, partner_id: str) -> list[_Column]:
        """The cm columns of a partner, one per consumer in consumer order."""
        return [
            (
                (consumer_id, partner_id),
                LpVariable(f"cm[{consumer_id}][{partner_id}]", *_line_bounds(self._lines, consumer_id, partner_id)),
                self.partner_reward(consumer_id, partner_id),
            )
            for consumer_id in self._consumer_ids
        ]

    def offer_can_improve(self, prices: dict[str, float], offer: tuple[str, float] | None, tol: float) -> bool:
        """Whether an offer can lower the optimum of the LP that ``prices`` come from by more than ``tol``.

        ``prices`` come from an optimal solve of this view's LP, with or
        without another partner's offer installed; ``offer`` is
        (partner id, offered kWh including its flexibility), or None for no
        new capacity, which cannot lower it. Adding the partner's block (its
        cm columns, each in its consumer's demand row, and a supply row whose
        dual is taken as 0) keeps the solve's duals feasible except for the
        new columns, whose reduced cost is prices[i] - reward(i, q). Weak
        duality then bounds the new optimum below by the old one minus
        max_i (reward(i, q) - prices[i])+ times the offered kWh, as the
        block's columns carry at most that many kWh. The bound holds for
        every feasible point, but a line with a positive minimum on a
        (consumer, partner) pair can make the LP infeasible, which only a
        solve reports: such an offer (its partner is in ``floored``) always
        needs one.
        """
        if offer is None:
            return False
        partner_id, kwh = offer
        if partner_id in self.floored:
            return True
        gain = 0.0
        for consumer_id in self._consumer_ids:
            gain = max(gain, self.partner_reward(consumer_id, partner_id) - prices[consumer_id])
        return gain * kwh > tol


def _place(
    consumers: Sequence[Subscriber],
    blocks: list[list[_Column]],
    demand: list[float],
    flex: tuple[list[LpVariable], dict[str, LpVariable], dict[str, LpVariable]],
    weights: MatchingWeights,
    rewards: _Rewards,
) -> tuple[LinearProgram, _BuildInfo, dict[str, dict[int, float]], list[_Row]]:
    """The columns and costs both matching LPs share, with their demand rows.

    Columns: each consumer's block of cm columns, consumer-major, then the
    ``flex`` purchases, cuts and stretches. Returns the LP without rows, its
    layout, each supplier's supply-row coefficients (+1 on the cm columns it
    supplies, -1 on its stretch) and each consumer's demand row (its cm
    columns, purchase and cut = ``demand``) for ``_add_demand_rows``.
    """
    purchases, cuts, stretches = flex
    cm_columns = [column for block in blocks for column in block]
    purchase_cols = range(len(cm_columns), len(cm_columns) + len(consumers))
    cut_cols = {consumer_id: purchase_cols.stop + k for k, consumer_id in enumerate(cuts)}
    stretch_cols = {producer_id: purchase_cols.stop + len(cuts) + k for k, producer_id in enumerate(stretches)}
    info = _BuildInfo(cm_columns, purchase_cols, cut_cols, stretch_cols)
    lp = LinearProgram([var for _, var, _ in cm_columns] + [*purchases, *cuts.values(), *stretches.values()])
    if weights.w2 != 0.0:
        lp.objective.update(dict.fromkeys(purchase_cols, weights.w2))
    if rewards.stretch_penalty != 0.0:
        lp.objective.update(dict.fromkeys(stretch_cols.values(), rewards.stretch_penalty))

    supplied: dict[str, dict[int, float]] = defaultdict(dict)
    demand_rows: list[_Row] = []
    start = 0
    for consumer, block, rhs, purchase_col in zip(consumers, blocks, demand, purchase_cols):
        for col, ((_, supplier_id), _, reward) in enumerate(block, start):
            if reward != 0.0:
                lp.objective[col] = -reward
            supplied[supplier_id][col] = 1.0
        served = dict.fromkeys(range(start, start + len(block)), 1.0)
        served[purchase_col] = 1.0
        if consumer.id in cut_cols:
            served[cut_cols[consumer.id]] = 1.0
        demand_rows.append((served, rhs, f"demand[{consumer.id}]"))
        start += len(block)
    for producer_id, col in stretch_cols.items():
        supplied[producer_id][col] = -1.0
    return lp, info, supplied, demand_rows


def _add_demand_rows(lp: LinearProgram, info: _BuildInfo, rows: list[_Row]) -> None:
    """Add ``_place``'s demand rows as the LP's next rows and record where they went."""
    start = len(lp.constraints)
    for served, rhs, name in rows:
        lp.add_constraint(served, EQUAL, rhs, name=name)
    info.demand_rows = range(start, len(lp.constraints))


def _build(
    view: SspView,
    weights: MatchingWeights,
    lines: LineConstraintSet | None,
    locked_imports: dict[str, dict[str, float]] | None,
    committed_exports: float,
    table: PairTable | None = None,
) -> tuple[LinearProgram, _BuildInfo]:
    """The view's matching LP: ``_place``'s columns, then its rows.

    Columns: the cm columns consumer-major (local producers, then live
    partners), purchases, cuts, local stretches, then the stretches of live
    partners with a bound. Rows: supply per local producer and live partner,
    demand per consumer, then the export reservation. Sell-backs get no
    column: ``solve_dist_matching`` derives them from the placements.

    ``table`` must come from a view with the same subscribers and partner list
    and from the same weights and lines; without one it is computed here. Both
    ways give an equal LinearProgram.
    """
    if table is None:
        table = PairTable(view, weights, lines)
    locked_imports = locked_imports or {}
    live = sorted(p for p, cap in view.partner_capacities.items() if cap.energy > RESIDUAL_TOL)
    offered = [table.partner_columns(p) for p in live]

    # locked imports are constants: their reward keeps the objective comparable
    # across re-solves as claims accumulate
    locked_in: dict[str, float] = {c.id: 0.0 for c in view.consumers}
    offset = 0.0
    for partner_id, per_consumer in sorted(locked_imports.items()):
        for consumer_id, kwh in sorted(per_consumer.items()):
            locked_in[consumer_id] = locked_in.get(consumer_id, 0.0) + kwh
            offset -= table.partner_reward(consumer_id, partner_id) * kwh
    demand = []
    for consumer in view.consumers:
        rhs = consumer.energy - locked_in.get(consumer.id, 0.0)
        if rhs < -RESIDUAL_TOL:
            raise MatchingStructureError(f"locked imports exceed demand of {consumer.id}")
        demand.append(max(rhs, 0.0))

    blocks = [[*table.local[consumer.id], *(partner[k] for partner in offered)] for k, consumer in enumerate(view.consumers)]
    lp, info, supplied, demand_rows = _place(view.consumers, blocks, demand, table.flex, weights, table.rewards)
    info.live_partners = live
    info.objective_offset = offset
    for producer in view.producers:
        lp.add_constraint(supplied[producer.id], LESS_EQUAL, producer.energy, name=f"supply[{producer.id}]")
    for partner_id in live:
        cap = view.partner_capacities[partner_id]
        coeffs = supplied[partner_id]
        if cap.bound > 0.0:
            coeffs[lp.add_variable(f"stretch[{partner_id}]", 0.0, cap.bound * cap.energy)] = -1.0
        lp.add_constraint(coeffs, LESS_EQUAL, cap.energy, name=f"supply[{partner_id}]")
    _add_demand_rows(lp, info, demand_rows)

    if committed_exports > RESIDUAL_TOL:
        # every local supply row at once: exported energy stays deliverable
        coeffs = {}
        rhs = -committed_exports
        for supply in lp.constraints[: len(view.producers)]:
            coeffs.update(supply.coeffs)
            rhs += supply.rhs
        lp.add_constraint(coeffs, LESS_EQUAL, rhs, name="export-reservation")

    return lp, info


def _solve(lp: LinearProgram, label: str) -> LpSolution:
    """Solve a matching LP; only line constraints can make one infeasible."""
    solution = solve_lp(lp)
    if solution.status is LpStatus.INFEASIBLE:
        raise MatchingInfeasibleError(f"{label} infeasible; only line constraints can cause this")
    if solution.status is not LpStatus.OPTIMAL:
        raise RuntimeError(f"{label} reported {solution.status}")
    return solution


def solve_dist_matching(
    view: SspView,
    weights: MatchingWeights,
    lines: LineConstraintSet | None = None,
    *,
    locked_imports: dict[str, dict[str, float]] | None = None,
    committed_exports: float = 0.0,
    table: PairTable | None = None,
) -> tuple[CommitmentMatrix, FlexibilityAssignment, float, dict[str, float]]:
    """Solve the view's matching LP: (matrix, flexibility, objective, prices).

    The Utility row of the returned matrix is the unplaced base production of
    each local producer, net of ``committed_exports`` attributed greedily in
    producer order: day-ahead, declared production that nobody takes is sold
    back. The reported objective folds in the reward of the locked imports,
    so values stay comparable across re-solves of an evolving view.
    ``prices`` maps each consumer to minus the dual of its demand row: the
    reward its marginal kWh earns in this solution. ``table`` is the view's
    PairTable when the caller keeps one across re-solves (see ``_build``).
    """
    lp, info = _build(view, weights, lines, locked_imports, committed_exports, table)
    solution = _solve(lp, f"matching LP for {view.ssp_id!r}")

    locked_imports = locked_imports or {}
    partner_cols = sorted(set(info.live_partners).union(
        p for p, cells in locked_imports.items() if any(v > RESIDUAL_TOL for v in cells.values())
    ))
    supplier_ids = tuple(p.id for p in view.producers) + tuple(partner_cols)
    cm = CommitmentMatrix([c.id for c in view.consumers], supplier_ids)

    values = solution.values
    for (pair, _, _), value in zip(info.cm_columns, values):
        if value > RESIDUAL_TOL:
            cm.set(*pair, value)
    for partner_id, per_consumer in locked_imports.items():
        for consumer_id, kwh in per_consumer.items():
            if kwh > RESIDUAL_TOL:
                cm.set(consumer_id, partner_id, cm.get(consumer_id, partner_id) + kwh)
    for consumer, col in zip(view.consumers, info.purchase_cols):
        if values[col] > RESIDUAL_TOL:
            cm.set(consumer.id, UTILITY_ID, values[col])

    attribute_sell_backs(cm, view.producers, committed_exports)

    fx = _flexibility(info, values, view.consumers, view.producers)
    prices = {c.id: -solution.duals[row] for c, row in zip(view.consumers, info.demand_rows)}
    return cm, fx, solution.objective + info.objective_offset, prices


def _flexibility(
    info: _BuildInfo, values: list[float], consumers: Sequence[Subscriber], producers: Sequence[Subscriber]
) -> FlexibilityAssignment:
    """The fx factors of a solution: 1 - cut/Dc per consumer, 1 + stretch/Ep per producer."""

    def consumer_fx(sub: Subscriber) -> float:
        if sub.id not in info.cut_cols or sub.energy <= RESIDUAL_TOL:
            return 1.0
        return 1.0 - values[info.cut_cols[sub.id]] / sub.energy

    def producer_fx(sub: Subscriber) -> float:
        if sub.id not in info.stretch_cols or sub.energy <= RESIDUAL_TOL:
            return 1.0
        return 1.0 + values[info.stretch_cols[sub.id]] / sub.energy

    return FlexibilityAssignment(
        consumers={c.id: consumer_fx(c) for c in consumers},
        producers={p.id: producer_fx(p) for p in producers},
    )


def attribute_sell_backs(cm: CommitmentMatrix, producers: tuple[Subscriber, ...], exports: float) -> None:
    """Write the Utility sell-back row of ``cm`` from its consumer rows.

    Each producer sells back its unplaced base production; ``exports`` is
    taken out of those residuals greedily in producer order. A cell at or
    below RESIDUAL_TOL reads as 0.
    """
    remaining = exports
    committed = cm.committed_by_column()
    for producer in producers:
        residual = max(0.0, producer.energy - committed.get(producer.id, 0.0))
        share = min(residual, remaining)
        remaining -= share
        kwh = residual - share if residual - share > RESIDUAL_TOL else 0.0
        if kwh or cm.get(UTILITY_ID, producer.id):  # absent cells stay absent
            cm.set(UTILITY_ID, producer.id, kwh)


def check_matching_feasibility(
    view: SspView,
    cm: CommitmentMatrix,
    fx: FlexibilityAssignment,
    tol: float = 1e-6,
) -> list[str]:
    """Independent residual check of the supply caps, demand windows and fx bounds.

    Recomputed from the domain data, not from the LP or the solver, so it can
    catch builder and solver defects alike. Returns human-readable violations.
    """
    problems: list[str] = []
    for producer in view.producers:
        fx_j = fx.producers.get(producer.id, 1.0)
        total = sum(cm.get(row_id, producer.id) for row_id in cm.row_ids())
        if total > fx_j * producer.energy + tol:
            problems.append(f"supply cap of {producer.id}: {total} > {fx_j * producer.energy}")
        if not 1.0 - tol <= fx_j <= 1.0 + producer.bound + tol:
            problems.append(f"fx of {producer.id} = {fx_j} outside [1, {1.0 + producer.bound}]")
    for consumer in view.consumers:
        fx_i = fx.consumers.get(consumer.id, 1.0)
        served = sum(cm.get(consumer.id, col) for col in cm.col_ids())
        if served > consumer.energy + tol:
            problems.append(f"overserved {consumer.id}: {served} > {consumer.energy}")
        if served < fx_i * consumer.energy - tol:
            problems.append(f"underserved {consumer.id}: {served} < {fx_i * consumer.energy}")
        if not 1.0 - consumer.bound - tol <= fx_i <= 1.0 + tol:
            problems.append(f"fx of {consumer.id} = {fx_i} outside [{1.0 - consumer.bound}, 1]")
    for (row_id, col_id), value in cm.cells().items():
        if value < -tol:
            problems.append(f"negative commitment cm({row_id}, {col_id}) = {value}")
        if row_id != UTILITY_ID and col_id != UTILITY_ID and col_id not in view.partner_capacities:
            if not view.connectivity.connected(row_id, col_id) and value > tol:
                problems.append(f"commitment on disconnected pair ({row_id}, {col_id})")
    return problems


def aggregate_surplus(ssp: SSPConfig | SspView, cm: CommitmentMatrix) -> tuple[float, float]:
    """(flex-inclusive surplus, base surplus) over producers that can still supply.

    A producer counts while its base residual Ep - cm(., j) is positive; the
    first component adds (1+bound)*Ep - cm(., j), the second Ep - cm(., j).
    """
    ex_energy = 0.0
    total_energy = 0.0
    committed_by = cm.committed_by_column()
    for producer in ssp.producers:
        committed = committed_by.get(producer.id, 0.0)
        residual = producer.energy - committed
        if residual > RESIDUAL_TOL:
            ex_energy += (1.0 + producer.bound) * producer.energy - committed
            total_energy += residual
    return ex_energy, total_energy


def surplus_bound(ex_energy: float, total_energy: float) -> float:
    """The aggregate bound of an ``aggregate_surplus`` pair; 0 with no residual."""
    if total_energy <= 0.0:
        return 0.0
    return ex_energy / total_energy - 1.0


def merged_view(scenario: Scenario) -> SspView:
    """All subscribers as one SSP; cross-SSP pairs inherit the partner-SSP rank.

    This is the feasibility view of a centralized solution: every (consumer,
    producer) pair the global LP may use, for ``check_matching_feasibility``.
    ``solve_centralized`` does not build its LP from it, which would take one
    column per (consumer, remote producer) pair.
    """
    consumers: list[Subscriber] = []
    producers: list[Subscriber] = []
    ranks: dict[str, dict[str, int]] = {}
    rows: dict[str, dict[str, int]] = {}
    for cfg in scenario.ssps:
        consumers.extend(cfg.consumers)
        producers.extend(cfg.producers)
    for cfg in scenario.ssps:
        for consumer in cfg.consumers:
            consumer_ranks: dict[str, int] = {}
            row: dict[str, int] = {UTILITY_ID: 1}
            for producer in cfg.producers:
                if scenario.connectivity.connected(consumer.id, producer.id):
                    consumer_ranks[producer.id] = cfg.preferences.rank(consumer.id, producer.id)
                    row[producer.id] = 1
            for other in scenario.ssps:
                if other.id == cfg.id or not scenario.connectivity.connected(cfg.id, other.id):
                    continue
                partner_rank = cfg.preferences.rank(consumer.id, other.id)
                for producer in other.producers:
                    consumer_ranks[producer.id] = partner_rank
                    row[producer.id] = 1
            ranks[consumer.id] = consumer_ranks
            rows[consumer.id] = row
    return SspView(
        ssp_id="centralized",
        consumers=tuple(consumers),
        producers=tuple(producers),
        preferences=PreferenceTable(ranks),
        connectivity=ConnectivityMatrix(rows),
    )


def _build_centralized(scenario: Scenario, weights: MatchingWeights) -> tuple[LinearProgram, _BuildInfo]:
    """The centralized LP in transshipment form (see the module docstring).

    Columns: the cm columns consumer-major (every SSP's consumers in scenario
    order): connected local producers, then one import column from the pool
    of each connected partner SSP with producers; then purchases, cuts,
    stretches, and the export of every producer of a pooled SSP. Rows:
    supply per producer, demand per consumer, then one pool row per pooled
    SSP. With a single SSP this is ``_build``'s LP of its view.
    """
    connectivity = scenario.connectivity
    lines = scenario.line_constraints
    consumers = tuple(c for cfg in scenario.ssps for c in cfg.consumers)
    producers = tuple(p for cfg in scenario.ssps for p in cfg.producers)
    ranks: dict[str, list[int]] = {}
    suppliers: list[list[tuple[str, int, tuple[float, float]]]] = []  # per consumer: (supplier id, rank, bounds) of each cm column
    for cfg in scenario.ssps:
        partners = [t for t in scenario.ssps if t.id != cfg.id and t.producers and connectivity.connected(cfg.id, t.id)]
        for consumer in cfg.consumers:
            local = [p for p in cfg.producers if connectivity.connected(consumer.id, p.id)]
            try:
                row = [cfg.preferences.rank(consumer.id, supplier.id) for supplier in [*local, *partners]]
            except KeyError as exc:
                raise MatchingStructureError(str(exc)) from None
            ranks[consumer.id] = row
            # a (consumer, SSP) line bounds no column: an import is unbounded
            suppliers.append([
                *((p.id, rank, _line_bounds(lines, consumer.id, p.id)) for p, rank in zip(local, row)),
                *((t.id, rank, (0.0, math.inf)) for t, rank in zip(partners, row[len(local):])),
            ])
    rewards = _Rewards(weights, {c.id: c.priority for c in consumers}, ranks)
    blocks = [
        [
            ((consumer.id, supplier_id), LpVariable(f"cm[{consumer.id}][{supplier_id}]", *bounds), rewards(consumer.id, rank))
            for supplier_id, rank, bounds in columns
        ]
        for consumer, columns in zip(consumers, suppliers)
    ]
    flex = _flex_variables(consumers, producers, lines)
    lp, info, supplied, demand_rows = _place(consumers, blocks, [c.energy for c in consumers], flex, weights, rewards)

    pooled = [cfg for cfg in scenario.ssps if cfg.id in supplied]
    info.live_partners = [cfg.id for cfg in pooled]
    for cfg in pooled:
        for producer in cfg.producers:
            info.export_cols[producer.id] = lp.add_variable(f"export[{producer.id}]")
    for producer in producers:
        coeffs = supplied[producer.id]
        if producer.id in info.export_cols:
            coeffs[info.export_cols[producer.id]] = 1.0
        lp.add_constraint(coeffs, LESS_EQUAL, producer.energy, name=f"supply[{producer.id}]")
    _add_demand_rows(lp, info, demand_rows)
    for cfg in pooled:
        coeffs = supplied[cfg.id]
        coeffs.update((info.export_cols[p.id], -1.0) for p in cfg.producers)
        lp.add_constraint(coeffs, LESS_EQUAL, 0.0, name=f"pool[{cfg.id}]")
    return lp, info


def _split_pool(cm: CommitmentMatrix, imports: list[tuple[str, float]], exports: list[tuple[str, float]]) -> None:
    """Write one pool's flows into per-producer cells of ``cm`` by the north-west corner rule.

    Consumers draw on the pool in consumer order and producers fill it in
    producer order: a consumer's cell of a producer is the overlap of their
    intervals on the cumulated flows, so no cell exceeds what either side
    carries.
    """
    consumer_ids, taken = zip(*imports)
    producer_ids, given = zip(*exports)
    taken_to = np.cumsum(taken)
    given_to = np.cumsum(given)
    taken_from = np.concatenate([[0.0], taken_to[:-1]])
    given_from = np.concatenate([[0.0], given_to[:-1]])
    overlap = np.minimum.outer(taken_to, given_to) - np.maximum.outer(taken_from, given_from)
    for k, j in zip(*np.nonzero(overlap > RESIDUAL_TOL)):
        cm.set(consumer_ids[k], producer_ids[j], float(overlap[k, j]))


def solve_centralized(
    scenario: Scenario, weights: MatchingWeights | None = None
) -> tuple[CommitmentMatrix, FlexibilityAssignment, float]:
    """Optimality baseline: one global LP over every subscriber of every SSP.

    Solved in transshipment form and decomposed into per-producer cells (see
    the module docstring); the matrix has one column per producer and is
    feasible against ``merged_view``.
    """
    weights = weights or scenario.weights
    lp, info = _build_centralized(scenario, weights)
    solution = _solve(lp, "centralized matching LP")

    consumers = tuple(c for cfg in scenario.ssps for c in cfg.consumers)
    producers = tuple(p for cfg in scenario.ssps for p in cfg.producers)
    cm = CommitmentMatrix([c.id for c in consumers], [p.id for p in producers])
    values = solution.values
    imports: dict[str, list[tuple[str, float]]] = {ssp_id: [] for ssp_id in info.live_partners}
    for ((consumer_id, supplier_id), _, _), value in zip(info.cm_columns, values):
        if supplier_id in imports:
            imports[supplier_id].append((consumer_id, value))
        elif value > RESIDUAL_TOL:
            cm.set(consumer_id, supplier_id, value)
    for cfg in scenario.ssps:
        if cfg.id in imports:
            _split_pool(cm, imports[cfg.id], [(p.id, values[info.export_cols[p.id]]) for p in cfg.producers])
    for consumer, col in zip(consumers, info.purchase_cols):
        if values[col] > RESIDUAL_TOL:
            cm.set(consumer.id, UTILITY_ID, values[col])
    attribute_sell_backs(cm, producers, 0.0)
    return cm, _flexibility(info, values, consumers, producers), solution.objective
