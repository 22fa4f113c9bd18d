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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .lp import (
    EQUAL,
    LESS_EQUAL,
    LinearProgram,
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


@dataclass
class _BuildInfo:
    cm_columns: list[_Column]  # the cm columns, which come first: column k is cm_columns[k]
    purchase_cols: range  # cm(i, U) of each consumer, in consumer order
    demand_rows: range  # the demand row of each consumer, in consumer order
    cut_cols: dict[str, int]  # demand reduction kWh; fx(i) = 1 - cut/Dc
    stretch_cols: dict[str, int]  # local production increase kWh; fx(j) = 1 + stretch/Ep
    live_partners: list[str]  # partners advertising more than RESIDUAL_TOL, sorted
    objective_offset: float


class PairTable:
    """The part of one view's matching LP that offers do not change.

    Built once per (subscribers, partner list, weights, lines); an agent keeps
    its own and hands it to every re-solve. It holds the local cm columns
    (``local``: per consumer, those of its connected local producers in
    producer order, with rewards and line bounds); the ``purchases``, ``cuts``
    and ``stretches`` variables (sell-backs have none: they are derived from
    the solution); and ``beta``, the additive-mode ``offset`` and the
    ``stretch_penalty``, which depend on the rank of every partner, live or
    not. Partner columns are made per solve, for the partners that advertise
    capacity: kept for every partner, they would cost memory in proportion to
    consumers x partners.
    """

    def __init__(self, view: SspView, weights: MatchingWeights, lines: LineConstraintSet | None):
        self._partners = frozenset(view.partner_capacities)
        self._preferences = view.preferences
        self._weights = weights
        self._lines = lines
        self._priority = {c.id: c.priority for c in view.consumers}
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
        extremes = [(c.id, min(row), max(row)) for c, row in zip(view.consumers, ranks) if row]
        self.beta = weights.beta if weights.beta is not None else float(max([1, *(top for *_, top in extremes)]) + 1)
        self.offset = 0.0  # additive-mode preference constants
        if weights.preference_mode != "coefficient":
            for rank in (r for row in ranks for r in row):
                self.offset -= weights.w35 * weights.alpha * (self.beta - rank)
        # a reward is monotone in the rank, so the largest of a consumer's
        # rewards sits at its lowest or its highest rank
        self.stretch_penalty = max(
            (self._rank_reward(consumer_id, rank) for consumer_id, *ends in extremes for rank in ends), default=0.0
        ) + 0.01 * weights.w2

        self.local: dict[str, list[_Column]] = {
            consumer.id: [
                (
                    (consumer.id, supplier_id),
                    LpVariable(f"cm[{consumer.id}][{supplier_id}]", *self._line_bounds(consumer.id, supplier_id)),
                    self._rank_reward(consumer.id, rank),
                )
                for supplier_id, rank in zip(local, row)
            ]
            for consumer, local, row in zip(view.consumers, local_ids, ranks)
        }
        self.n_local = sum(len(columns) for columns in self.local.values())
        # fx factors are carried as kWh variables: cut = (1-fx(i))*Dc, stretch =
        # (fx(j)-1)*Ep. Same polytope, and the all-Utility start vertex stays basic.
        self.purchases = [LpVariable(f"cm[{c.id}][U]", *self._line_bounds(c.id, UTILITY_ID)) for c in view.consumers]
        self.cuts = {c.id: LpVariable(f"cut[{c.id}]", 0.0, c.bound * c.energy) for c in view.consumers if c.bound > 0.0}
        self.stretches = {
            p.id: LpVariable(f"stretch[{p.id}]", 0.0, p.bound * p.energy) for p in view.producers if p.bound > 0.0
        }

    def _rank_reward(self, consumer_id: str, rank: int) -> float:
        weights = self._weights
        factor = 1.0 + weights.alpha * (self.beta - rank) if weights.preference_mode == "coefficient" else 1.0
        return weights.w14 * self._priority[consumer_id] + weights.w35 * factor

    def _line_bounds(self, row_id: str, col_id: str) -> tuple[float, float]:
        if self._lines is not None:
            lc = self._lines.lookup(row_id, col_id)
            if lc is not None:
                return max(0.0, lc.min_kwh), lc.max_kwh
        return 0.0, math.inf

    def partner_columns(self, partner_id: str) -> list[_Column]:
        """The cm columns of a partner, one per consumer in consumer order."""
        return [
            (
                (consumer_id, partner_id),
                LpVariable(f"cm[{consumer_id}][{partner_id}]", *self._line_bounds(consumer_id, partner_id)),
                self._rank_reward(consumer_id, self._preferences.rank(consumer_id, partner_id)),
            )
            for consumer_id in self._consumer_ids
        ]

    def offer_can_improve(self, prices: dict[str, float], offer: tuple[str, float] | None, tol: float) -> bool:
        """Whether an offer can lower the optimum of the LP whose prices are given by more than ``tol``.

        ``prices`` come from an optimal solve of this view's LP; ``offer`` is
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
        solve reports: such an offer always needs one.
        """
        if offer is None:
            return False
        partner_id, kwh = offer
        gain = 0.0
        for consumer_id in self._consumer_ids:
            if self._line_bounds(consumer_id, partner_id)[0] > 0.0:
                return True
            reward = self._rank_reward(consumer_id, self._preferences.rank(consumer_id, partner_id))
            gain = max(gain, reward - prices[consumer_id])
        return gain * kwh > tol

    def reward(self, consumer_id: str, supplier_id: str) -> float:
        """Reward per kWh of the pair; 0 for a pair the view does not have."""
        if consumer_id not in self._priority:
            return 0.0
        if supplier_id in self._partners:
            return self._rank_reward(consumer_id, self._preferences.rank(consumer_id, supplier_id))
        return next((reward for (_, local_id), _, reward in self.local[consumer_id] if local_id == supplier_id), 0.0)


def _build(
    view: SspView,
    weights: MatchingWeights,
    lines: LineConstraintSet | None,
    locked_imports: dict[str, dict[str, float]] | None,
    committed_exports: float,
    table: PairTable | None = None,
) -> tuple[LinearProgram, _BuildInfo]:
    """The view's matching LP, built in one pass over its column positions.

    Columns: the cm columns consumer-major (local producers, then live
    partners), purchases, cuts, local stretches, then the stretches of live
    partners with a bound. Rows: supply per local producer and live partner,
    demand per consumer, then the export reservation. The pass that appends
    the cm columns fills the supply and demand rows. Sell-backs get no
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
    n_cm = table.n_local + len(view.consumers) * len(live)
    purchase_cols = range(n_cm, n_cm + len(view.consumers))
    cut_start = purchase_cols.stop
    cut_cols = {consumer_id: cut_start + k for k, consumer_id in enumerate(table.cuts)}
    stretch_cols = {producer_id: cut_start + len(cut_cols) + k for k, producer_id in enumerate(table.stretches)}
    n_supply = len(view.producers) + len(live)
    demand_rows = range(n_supply, n_supply + len(view.consumers))
    info = _BuildInfo([], purchase_cols, demand_rows, cut_cols, stretch_cols, live, table.offset)

    lp = LinearProgram()
    if weights.w2 != 0.0:
        lp.objective.update(dict.fromkeys(purchase_cols, weights.w2))
    if table.stretch_penalty != 0.0:
        lp.objective.update(dict.fromkeys(stretch_cols.values(), table.stretch_penalty))

    # locked imports are constants: their reward keeps the objective comparable
    # across re-solves as claims accumulate
    locked_in: dict[str, float] = {c.id: 0.0 for c in view.consumers}
    for partner_id, per_consumer in sorted(locked_imports.items()):
        for consumer_id, kwh in sorted(per_consumer.items()):
            locked_in[consumer_id] = locked_in.get(consumer_id, 0.0) + kwh
            info.objective_offset -= table.reward(consumer_id, partner_id) * kwh

    supplied: dict[str, dict[int, float]] = {supplier: {} for supplier in [*(p.id for p in view.producers), *live]}
    demand_rows: list[tuple[dict[int, float], float, str]] = []
    objective = lp.objective
    for k, consumer in enumerate(view.consumers):
        block = [*table.local[consumer.id], *(partner[k] for partner in offered)]
        start = len(info.cm_columns)
        info.cm_columns += block
        for col, ((_, supplier_id), _, reward) in enumerate(block, start):
            if reward != 0.0:
                objective[col] = -reward
            supplied[supplier_id][col] = 1.0
        served = dict.fromkeys(range(start, start + len(block)), 1.0)
        served[purchase_cols[k]] = 1.0
        if consumer.id in cut_cols:
            served[cut_cols[consumer.id]] = 1.0
        rhs = consumer.energy - locked_in.get(consumer.id, 0.0)
        if rhs < -RESIDUAL_TOL:
            raise MatchingStructureError(f"locked imports exceed demand of {consumer.id}")
        demand_rows.append((served, max(rhs, 0.0), f"demand[{consumer.id}]"))
    lp.variables += [var for _, var, _ in info.cm_columns]
    lp.variables += [*table.purchases, *table.cuts.values(), *table.stretches.values()]

    for producer in view.producers:
        coeffs = supplied[producer.id]
        if producer.id in stretch_cols:
            coeffs[stretch_cols[producer.id]] = -1.0
        lp.add_constraint(coeffs, LESS_EQUAL, producer.energy, name=f"supply[{producer.id}]")
    for partner_id in live:
        cap = view.partner_capacities[partner_id]
        coeffs = supplied[partner_id]
        if cap.bound > 0.0:
            coeffs[lp.add_variable(f"stretch[{partner_id}]", 0.0, cap.bound * cap.energy)] = -1.0
        lp.add_constraint(coeffs, LESS_EQUAL, cap.energy, name=f"supply[{partner_id}]")
    for served, rhs, name in demand_rows:
        lp.add_constraint(served, EQUAL, rhs, name=name)

    if committed_exports > RESIDUAL_TOL:
        # every local supply row at once: exported energy stays deliverable
        coeffs = {}
        rhs = -committed_exports
        for supply in lp.constraints[: len(view.producers)]:
            coeffs.update(supply.coeffs)
            rhs += supply.rhs
        lp.add_constraint(coeffs, LESS_EQUAL, rhs, name="export-reservation")

    return lp, info


def build_matching_lp(
    view: SspView, weights: MatchingWeights, lines: LineConstraintSet | None = None
) -> LinearProgram:
    """The matching LP for one view; structural errors name the missing data."""
    lp, _ = _build(view, weights, lines, None, 0.0)
    return lp


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
    back. The reported objective folds constant terms (locked imports,
    additive-mode preference constants) so values stay comparable across
    re-solves of an evolving view. ``prices`` maps each consumer to minus the
    dual of its demand row: the reward its marginal kWh earns in this
    solution. ``table`` is the view's PairTable when the caller keeps one
    across re-solves (see ``_build``).
    """
    lp, info = _build(view, weights, lines, locked_imports, committed_exports, table)
    solution = solve_lp(lp)
    if solution.status is LpStatus.INFEASIBLE:
        raise MatchingInfeasibleError(
            f"matching LP for {view.ssp_id!r} infeasible; only line constraints can cause this"
        )
    if solution.status is not LpStatus.OPTIMAL:
        raise RuntimeError(f"matching LP for {view.ssp_id!r} reported {solution.status}")

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

    def consumer_fx(sub: Subscriber) -> float:
        if sub.id not in info.cut_cols or sub.energy <= RESIDUAL_TOL:
            return 1.0
        return 1.0 - values[info.cut_cols[sub.id]] / sub.energy

    def producer_fx(sub: Subscriber) -> float:
        if sub.id not in info.stretch_cols or sub.energy <= RESIDUAL_TOL:
            return 1.0
        return 1.0 + values[info.stretch_cols[sub.id]] / sub.energy

    fx = FlexibilityAssignment(
        consumers={c.id: consumer_fx(c) for c in view.consumers},
        producers={p.id: producer_fx(p) for p in view.producers},
    )
    prices = {c.id: -solution.duals[row] for c, row in zip(view.consumers, info.demand_rows)}
    return cm, fx, solution.objective + info.objective_offset, prices


def attribute_sell_backs(cm: CommitmentMatrix, producers: tuple[Subscriber, ...], exports: float) -> None:
    """Write the Utility sell-back row of ``cm`` from its consumer rows.

    Each producer sells back its unplaced base production; ``exports`` is
    taken out of those residuals greedily in producer order. A cell at or
    below RESIDUAL_TOL reads as 0.
    """
    remaining = exports
    for producer in producers:
        residual = max(0.0, producer.energy - cm.committed_to_consumers(producer.id))
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
        total = cm.committed_to_consumers(producer.id) + cm.get(UTILITY_ID, producer.id)
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
    for producer in ssp.producers:
        committed = cm.committed_to_consumers(producer.id)
        residual = producer.energy - committed
        if residual > RESIDUAL_TOL:
            ex_energy += (1.0 + producer.bound) * producer.energy - committed
            total_energy += residual
    return ex_energy, total_energy


def aggregate_bound(ssp: SSPConfig | SspView, cm: CommitmentMatrix) -> float:
    """Production-weighted flexibility of the residual supply; 0 with no residual."""
    return surplus_bound(*aggregate_surplus(ssp, cm))


def surplus_bound(ex_energy: float, total_energy: float) -> float:
    """The aggregate bound of an ``aggregate_surplus`` pair; 0 with no residual."""
    if total_energy <= 0.0:
        return 0.0
    return ex_energy / total_energy - 1.0


def merged_view(scenario: Scenario) -> SspView:
    """All subscribers as one SSP; cross-SSP pairs inherit the partner-SSP rank."""
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


def solve_centralized(
    scenario: Scenario, weights: MatchingWeights | None = None
) -> tuple[CommitmentMatrix, FlexibilityAssignment, float]:
    """Optimality baseline: one global LP over every subscriber of every SSP."""
    weights = weights or scenario.weights
    cm, fx, objective, _ = solve_dist_matching(merged_view(scenario), weights, scenario.line_constraints)
    return cm, fx, objective
