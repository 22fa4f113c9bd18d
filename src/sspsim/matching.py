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
fx(i)*Dc(i) <= served <= Dc(i), flexibility bounds, optional line bounds on
local cells and purchases and, inside the protocol, a reservation row that
keeps already-exported energy deliverable. Utility purchase columns are
unbounded above, which makes every instance feasible unless its lines
conflict.

Besides the matrix, a solve returns the consumers' prices: minus the dual of
each demand row, i.e. the reward the consumer's marginal kWh earns now (minus
w2 when the Utility serves it). Only a supplier whose reward beats a price can
improve the LP; ``PairTable.offer_can_improve`` prices a partner's offer that
way (the pricing step of column generation) without building the LP.

An ``SspView`` is an SSP's ``SSPConfig`` plus the capacity each partner
advertises. ``view_for_ssp`` builds it from the config and the candidate SSPs
(every SSP by default, an agent's map neighbours in the engine) that the SSP
links reach, each at zero capacity; only ``merged_view`` builds one from many
SSPs.

One function, ``_pairs``, lays out an SSP's (consumer, supplier) pairs: each
consumer's linked local producers, then every partner SSP, each pair with its
rank and line bounds. ``PairTable`` reads it over a view's partners, and
``_build_centralized`` and ``merged_view`` read it for every SSP over its
linked partners with producers (``_scenario_pairs``).

Both LPs are built as arrays and share one layout, built by ``_place``: the
cm columns consumer-major, then purchases, cuts and stretches, their costs and
the entries of the supply and demand rows. ``_build`` and
``_build_centralized`` add only their own columns and rows, and ``_solve``
maps the solver status to an error for both. Every row but the export
reservation lists its entries in column order, so each builder sorts its
(row, column, value) entries once. ``PairTable`` holds what an agent's LP
keeps across solves (the local columns and the reward of every (consumer,
partner) pair) as arrays, built once per agent with whole-row operations.
It is where the weights and lines are read: ``_build`` and
``solve_dist_matching`` take a view and its table, and the view adds only the
partners' capacities.
Every reward per kWh comes from ``_Rewards.__call__`` alone, evaluated over
arrays in one order of operations. Solutions are read back with array masks.

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

A line bounds a local cell or a purchase, the flows one SSP's LP decides
alone (``line-decided-flow`` rejects any other); a partner's column, and so an
import, is never bounded. Both LPs therefore apply every line exactly.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .lp import (
    EQUAL,
    LESS_EQUAL,
    LinearProgram,
    LpSolution,
    LpStatus,
    solve_lp,
)
from .model import (
    UTILITY_ID,
    CommitmentMatrix,
    LineConstraint,
    LineConstraintSet,
    LinkBlock,
    MatchingWeights,
    PreferenceTable,
    Scenario,
    SSPConfig,
    Subscriber,
)

RESIDUAL_TOL = 1e-9

#: the slack of every comparison in ``check_matching_feasibility``
CHECK_TOL = 1e-6


class MatchingStructureError(ValueError):
    """View is structurally unusable (e.g. missing preference rank)."""


class MatchingInfeasibleError(RuntimeError):
    """Only possible when one SSP's line constraints pin its flows inconsistently."""


@dataclass(frozen=True)
class PartnerCapacity:
    energy: float
    bound: float


@dataclass(frozen=True)
class SspView(SSPConfig):
    """One SSP's local knowledge: its config, plus the capacity its partners advertise.

    The config's ``links`` is the SSP's own block: its consumers against its
    producers and the Utility; the view holds no other SSP's links.
    ``partner_capacities`` holds only partners reachable per the inter-SSP
    links; capacities are zero until offers arrive.
    """

    partner_capacities: dict[str, PartnerCapacity] = field(default_factory=dict)


@dataclass(frozen=True)
class FlexibilityAssignment:
    """Chosen fx per local consumer (in [1-bound, 1]) and producer (in [1, 1+bound])."""

    consumers: dict[str, float]
    producers: dict[str, float]


def view_for_ssp(scenario: Scenario, ssp_id: str, candidates: Sequence[str] | None = None) -> SspView:
    """The SSP's view over its config, with each SSP of ``candidates`` (every SSP by default) that the SSP links reach advertised at zero capacity."""
    cfg = scenario.ssp(ssp_id)
    partners = _linked_ssps(scenario, ssp_id, scenario.ssp_ids if candidates is None else candidates)
    return SspView(
        cfg.id, cfg.consumers, cfg.producers, cfg.preferences, cfg.links,
        partner_capacities=dict.fromkeys(partners, PartnerCapacity(0.0, 0.0)),
    )


@dataclass(frozen=True)
class _CmColumns:
    """cm columns as arrays, in column order: column k places the kWh of supplier
    ``supplier[k]`` with consumer ``consumer[k]`` (indices into the LP's
    consumer and supplier lists)."""

    consumer: np.ndarray
    supplier: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    reward: np.ndarray  # per placed kWh
    names: list[str]


@dataclass(frozen=True)
class _Flex:
    """The purchase of each consumer, the cut of each passive consumer and the stretch of each passive producer, as columns.

    fx factors are carried as kWh variables: cut = (1-fx(i))*Dc, stretch =
    (fx(j)-1)*Ep. Same polytope, and the all-Utility start vertex stays basic.
    """

    names: list[str]
    lower: np.ndarray
    upper: np.ndarray
    cut_of: np.ndarray  # the consumer index of each cut
    stretch_of: np.ndarray  # the producer index of each stretch


@dataclass
class _BuildInfo:
    """Where a matching LP keeps what its solution is read back into.

    The cm columns come first: column k places the kWh of
    ``supplier_ids[cm_supplier[k]]`` with ``consumer_ids[cm_consumer[k]]``.
    Then the purchase of each consumer, the cuts of the consumers ``cut_of``
    and the stretches of the local producers ``stretch_of``.
    """

    consumer_ids: list[str]
    supplier_ids: list[str]  # local producers, then partner SSPs
    cm_consumer: np.ndarray
    cm_supplier: np.ndarray
    cut_of: np.ndarray
    stretch_of: np.ndarray
    objective_offset: float = 0.0  # minus the reward of the locked imports; set by _build
    locked_cells: list[tuple[str, str, float]] = field(default_factory=list)  # the locked imports, (partner, consumer, kWh); set by _build
    demand_rows: range = range(0)  # the demand row of each consumer, in consumer order
    live_partners: list[str] = field(default_factory=list)  # partners advertising more than RESIDUAL_TOL, sorted; the pooled SSPs when centralized
    export_cols: dict[str, int] = field(default_factory=dict)  # centralized only: a pooled SSP's producer's export

    @property
    def purchase_cols(self) -> range:
        start = self.cm_consumer.size
        return range(start, start + len(self.consumer_ids))

    @property
    def cut_cols(self) -> range:
        start = self.purchase_cols.stop
        return range(start, start + self.cut_of.size)

    @property
    def stretch_cols(self) -> range:
        start = self.cut_cols.stop
        return range(start, start + self.stretch_of.size)


def _bounds(line: LineConstraint) -> tuple[float, float]:
    return max(0.0, line.min_kwh), line.max_kwh


def _flex(consumers: Sequence[Subscriber], producers: Sequence[Subscriber], lines: LineConstraintSet | None) -> _Flex:
    purchase_lower, purchase_upper = np.zeros(len(consumers)), np.full(len(consumers), math.inf)
    for k, consumer in enumerate(consumers):
        line = lines.of_row(consumer.id).get(UTILITY_ID) if lines is not None else None
        if line is not None:
            purchase_lower[k], purchase_upper[k] = _bounds(line)
    cut_of = [k for k, c in enumerate(consumers) if c.bound > 0.0]
    stretch_of = [j for j, p in enumerate(producers) if p.bound > 0.0]
    names = [f"cm[{c.id}][U]" for c in consumers]
    names += [f"cut[{consumers[k].id}]" for k in cut_of] + [f"stretch[{producers[j].id}]" for j in stretch_of]
    flexible = [consumers[k].bound * consumers[k].energy for k in cut_of]
    flexible += [producers[j].bound * producers[j].energy for j in stretch_of]
    return _Flex(
        names,
        np.concatenate([purchase_lower, np.zeros(len(flexible))]),
        np.concatenate([purchase_upper, flexible]),
        np.array(cut_of, dtype=np.intp),
        np.array(stretch_of, dtype=np.intp),
    )


def _linked_ssps(scenario: Scenario, ssp_id: str, candidates: Sequence[str]) -> list[str]:
    """The SSPs of ``candidates`` other than ``ssp_id`` that N(ssp_id, .) links it to, in order, read from ``ssp_id``'s row alone."""
    links = scenario.ssp_links
    if ssp_id not in links.row_at:
        return []
    row = [*links.values[links.row_at[ssp_id]].tolist(), 0]  # an absent column reads the 0 appended
    return [other for other in candidates if other != ssp_id and row[links.col_at.get(other, -1)]]


def _pairs(ssp: SSPConfig, partner_ids: Sequence[str], lines: LineConstraintSet | None) -> tuple[np.ndarray, ...]:
    """The (consumer, supplier) pairs of one SSP's LP, consumer-major: each consumer's linked local producers in producer order, then every partner of ``partner_ids`` in that order.

    Returns, per pair, the consumer's index, the supplier's (a producer's, or
    the number of producers plus the partner's), the rank and the line
    bounds; a line bounds only a local pair. Every pair needs a rank: the
    first one without is named.
    """
    consumer_ids = [c.id for c in ssp.consumers]
    supplier_ids = [p.id for p in ssp.producers] + list(partner_ids)
    n_prod = len(ssp.producers)
    paired = np.ones((len(consumer_ids), len(supplier_ids)), dtype=bool)
    paired[:, :n_prod] = ssp.links.take(consumer_ids, supplier_ids[:n_prod]) != 0
    consumer, supplier = np.nonzero(paired)
    rank = ssp.preferences.take(consumer_ids, supplier_ids)[consumer, supplier]
    if not rank.all():
        k = int(np.argmin(rank))  # ranks are at least 0: the first 0 is the first missing rank
        raise MatchingStructureError(f"no preference rank for ({consumer_ids[consumer[k]]}, {supplier_ids[supplier[k]]})")
    # line bounds, visiting only the local pairs of a consumer with a line
    lower, upper = np.zeros(rank.size), np.full(rank.size, math.inf)
    for k, consumer_id in enumerate(consumer_ids if lines is not None else ()):
        row_lines = lines.of_row(consumer_id)
        for i in np.flatnonzero((consumer == k) & (supplier < n_prod)).tolist() if row_lines else ():
            line = row_lines.get(supplier_ids[supplier[i]])
            if line is not None:
                lower[i], upper[i] = _bounds(line)
    return consumer, supplier, rank, lower, upper


def _scenario_pairs(scenario: Scenario, lines: LineConstraintSet | None) -> tuple[np.ndarray, ...]:
    """``_pairs`` of every SSP in scenario order, each over its linked partners with producers.

    Consumer indices count every SSP's consumers; supplier indices count
    every producer, then every SSP.
    """
    pooled = [t.id for t in scenario.ssps if t.producers]
    n_prod = sum(len(cfg.producers) for cfg in scenario.ssps)
    ssp_at = {ssp_id: n_prod + s for s, ssp_id in enumerate(scenario.ssp_ids)}
    parts, n_cons, first = [], 0, 0
    for cfg in scenario.ssps:
        partner_ids = _linked_ssps(scenario, cfg.id, pooled)
        consumer, supplier, *rest = _pairs(cfg, partner_ids, lines)
        supplier_at = np.array([*range(first, first + len(cfg.producers)), *map(ssp_at.get, partner_ids)], dtype=np.intp)
        parts.append((n_cons + consumer, supplier_at[supplier], *rest))
        n_cons, first = n_cons + len(cfg.consumers), first + len(cfg.producers)
    return tuple(map(np.concatenate, zip(*parts)))


class _Rewards:
    """The reward per placed kWh of every (consumer, supplier) pair of one LP, and the constants that depend on all of them.

    ``priority`` and ``ranks`` hold the consumer's priority and the
    supplier's rank of each pair. Unless the weights fix it, ``beta`` is the
    largest rank plus 1; ``of_pairs`` is each pair's reward, and
    ``stretch_penalty`` lies 0.01 * w2 above the largest of them.
    ``_place`` reads the purchase cost w2 from ``weights``.
    """

    def __init__(self, weights: MatchingWeights, priority: np.ndarray, ranks: np.ndarray):
        self.weights = weights
        self.beta = weights.beta if weights.beta is not None else float(max(1, int(ranks.max(initial=1))) + 1)
        self.of_pairs = self(priority, ranks.astype(float))
        self.stretch_penalty = (float(self.of_pairs.max()) if self.of_pairs.size else 0.0) + 0.01 * weights.w2

    def __call__(self, priority, rank):
        """w14 * Pr(i) + w35 * (1 + alpha * (beta - rank)), elementwise over arrays."""
        weights = self.weights
        return weights.w14 * priority + weights.w35 * (1.0 + weights.alpha * (self.beta - rank))


class PairTable:
    """The part of one view's matching LP that offers do not change, as arrays.

    Built once per (subscribers, partner list, weights, lines), the only place
    an SSP's LP reads weights and lines; an agent keeps its own and hands it
    to every re-solve. It holds the local cm columns
    (per consumer, those of its connected local producers in producer order,
    with their rewards and line bounds); the reward of every (consumer,
    partner) pair (``partner_rewards``, consumers x sorted partners); the
    purchase, cut and stretch columns (``flex``; sell-backs have none: they
    are derived from the solution); and ``rewards``, whose beta and stretch
    penalty depend on the rank of every partner, live or not. ``columns``
    lays out the cm columns of one solve.
    """

    def __init__(self, view: SspView, weights: MatchingWeights, lines: LineConstraintSet | None):
        consumers = view.consumers
        self.consumer_ids = [c.id for c in consumers]
        self.producer_ids = [p.id for p in view.producers]
        self.partner_ids = sorted(view.partner_capacities)
        self._consumer_at = {c: k for k, c in enumerate(self.consumer_ids)}
        self._partner_at = {p: q for q, p in enumerate(self.partner_ids)}
        consumer, supplier, ranks, lower, upper = _pairs(view, self.partner_ids, lines)
        n_cons = len(consumers)
        priority = np.array([c.priority for c in consumers], dtype=float)
        self.rewards = _Rewards(weights, priority[consumer], ranks)
        local = supplier < len(self.producer_ids)
        self.local_consumer, self.local_producer = consumer[local], supplier[local]
        self.local_count = np.bincount(self.local_consumer, minlength=n_cons)
        starts = np.cumsum(self.local_count) - self.local_count  # each consumer's first local column
        self.local_offset = np.arange(self.local_consumer.size) - starts[self.local_consumer]
        pairs = zip(self.local_consumer.tolist(), self.local_producer.tolist())
        self.local_names = np.array([f"cm[{self.consumer_ids[k]}][{self.producer_ids[j]}]" for k, j in pairs], dtype=object)
        self.local_lower, self.local_upper, self.local_reward = lower[local], upper[local], self.rewards.of_pairs[local]
        self.partner_rewards = self.rewards.of_pairs[~local].reshape(n_cons, len(self.partner_ids))
        self.flex = _flex(consumers, view.producers, lines)
        self.supply_names = [f"supply[{p}]" for p in self.producer_ids]
        self.demand_names = [f"demand[{c}]" for c in self.consumer_ids]

    def partner_reward(self, consumer_id: str, partner_id: str) -> float:
        """Reward per kWh a consumer of the view earns from a partner SSP."""
        return float(self.partner_rewards[self._consumer_at[consumer_id], self._partner_at[partner_id]])

    def columns(self, live: list[str]) -> _CmColumns:
        """The cm columns of a solve with the partners ``live``, consumer-major: a
        consumer's local columns, then one per live partner, in [0, inf).
        Supplier indices count the local producers, then the live partners."""
        n_cons, n_live, n_local = len(self.consumer_ids), len(live), self.local_consumer.size
        q = np.array([self._partner_at[p] for p in live], dtype=np.intp)
        counts = self.local_count + n_live
        starts = np.cumsum(counts) - counts
        at_local = starts[self.local_consumer] + self.local_offset
        at_partner = (starts + self.local_count)[:, None] + np.arange(n_live)

        def placed(local_part, partner_part, dtype=float) -> np.ndarray:
            out = np.empty(n_local + n_cons * n_live, dtype=dtype)
            out[at_local] = local_part
            out[at_partner] = partner_part
            return out

        partner_names = [[f"cm[{c}][{p}]" for p in live] for c in self.consumer_ids]
        return _CmColumns(
            np.repeat(np.arange(n_cons), counts),
            placed(self.local_producer, len(self.producer_ids) + np.arange(n_live), np.intp),
            placed(self.local_lower, 0.0),
            placed(self.local_upper, math.inf),
            placed(self.local_reward, self.partner_rewards[:, q]),
            placed(self.local_names, np.array(partner_names, dtype=object).reshape(n_cons, n_live), object).tolist(),
        )

    def offer_can_improve(self, prices: dict[str, float], offer: tuple[str, float], tol: float) -> bool:
        """Whether an offer can lower the optimum of the LP that ``prices`` come from by more than ``tol``.

        ``prices`` come from an optimal solve of this view's LP, with or
        without another partner's offer installed; ``offer`` is (partner id,
        offered kWh including its flexibility). Adding the partner's block
        (its cm columns, each in its consumer's demand row, and a supply row
        whose dual is taken as 0) keeps the solve's duals feasible except for
        the new columns, whose reduced cost is prices[i] - reward(i, q). Weak
        duality then bounds the new optimum below by the old one minus
        max_i (reward(i, q) - prices[i])+ times the offered kWh, as the
        block's columns carry at most that many kWh.
        """
        partner_id, kwh = offer
        now = np.fromiter(map(prices.__getitem__, self.consumer_ids), float, len(self.consumer_ids))
        gain = float((self.partner_rewards[:, self._partner_at[partner_id]] - now).max(initial=0.0))
        return gain * kwh > tol


def _place(
    consumer_ids: list[str],
    supplier_ids: list[str],
    cm: _CmColumns,
    flex: _Flex,
    rewards: _Rewards,
) -> tuple[LinearProgram, _BuildInfo, tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """The columns both matching LPs share, with the entries of their supply and demand rows.

    Columns, with their costs: the cm columns (minus each one's reward),
    then the ``flex`` purchases (w2), cuts (0) and stretches (the stretch
    penalty). Returns the LP without rows, its layout, and (row, column, value)
    entries: +1 of each cm column in its supplier's row and -1 of each
    stretch in its producer's row (rows numbered by supplier index), and +1
    of each cm column, purchase and cut in its consumer's row (rows numbered
    by consumer index).
    """
    n_cm, n_cons = cm.consumer.size, len(consumer_ids)
    lp = LinearProgram()
    flex_cost = np.repeat([rewards.weights.w2, 0.0, rewards.stretch_penalty], [n_cons, flex.cut_of.size, flex.stretch_of.size])
    lower, upper = np.concatenate([cm.lower, flex.lower]), np.concatenate([cm.upper, flex.upper])
    lp.add_columns(cm.names + flex.names, lower, upper, np.concatenate([-cm.reward, flex_cost]))
    info = _BuildInfo(consumer_ids, supplier_ids, cm.consumer, cm.supplier, flex.cut_of, flex.stretch_of)
    purchases, cuts, stretches = (np.arange(c.start, c.stop) for c in (info.purchase_cols, info.cut_cols, info.stretch_cols))

    cm_cols = np.arange(n_cm)
    supplied = (
        np.concatenate([cm.supplier, flex.stretch_of]),
        np.concatenate([cm_cols, stretches]),
        np.concatenate([np.ones(n_cm), np.full(stretches.size, -1.0)]),
    )
    served = (np.concatenate([cm.consumer, np.arange(n_cons), flex.cut_of]), np.concatenate([cm_cols, purchases, cuts]))
    return lp, info, supplied, (*served, np.ones(served[0].size))


def _add_rows(
    lp: LinearProgram, entries: Sequence[tuple[np.ndarray, ...]], names: list[str], relations: list[str], rhs: list[float]
) -> None:
    """Add rows from (row, column, value) entries, each row's entries in column order; rows count from 0."""
    rows, cols, vals = (np.concatenate(part) for part in zip(*entries))
    order = np.argsort(rows * len(lp.names) + cols, kind="stable")
    lp.add_rows(names, relations, rhs, np.bincount(rows, minlength=len(names)), cols[order], vals[order])


def _build(
    view: SspView, table: PairTable, accepted: CommitmentMatrix | None, committed_exports: float
) -> tuple[LinearProgram, _BuildInfo]:
    """The view's matching LP: ``_place``'s columns, then its rows.

    Columns: the cm columns consumer-major (local producers, then live
    partners), purchases, cuts, local stretches, then the stretches of live
    partners with a bound. Rows: supply per local producer and live partner,
    demand per consumer, then the export reservation. Sell-backs get no
    column: ``solve_dist_matching`` derives them from the placements.

    Every cost, reward and line bound comes from ``table``, which must come
    from a view with the same subscribers and partner list; ``view`` adds only
    the partners' capacities.

    ``accepted`` is the SSP's last accepted matrix, or None: its partner
    cells are the locked imports, which leave each consumer's demand row and
    enter the objective offset, summed partner by partner in id order, each
    partner's cells in consumer id order. ``info.locked_cells`` lists them
    in that order.
    """
    partners = view.partner_capacities
    live = sorted(p for p, cap in partners.items() if cap.energy > RESIDUAL_TOL)

    # locked imports are constants: their reward keeps the objective comparable
    # across re-solves as claims accumulate
    locked = []
    if accepted is not None:
        locked = sorted((p, c, kwh) for (c, p), kwh in accepted.cells().items() if p in partners)
    locked_in = dict.fromkeys(table.consumer_ids, 0.0)
    offset = 0.0
    for partner_id, consumer_id, kwh in locked:
        locked_in[consumer_id] += kwh
        offset -= table.partner_reward(consumer_id, partner_id) * kwh
    demand = []
    for consumer in view.consumers:
        rhs = consumer.energy - locked_in[consumer.id]
        if rhs < -RESIDUAL_TOL:
            raise MatchingStructureError(f"locked imports exceed demand of {consumer.id}")
        demand.append(max(rhs, 0.0))

    lp, info, supplied, served = _place(
        table.consumer_ids, [*table.producer_ids, *live], table.columns(live), table.flex, table.rewards
    )
    info.live_partners, info.locked_cells, info.objective_offset = live, locked, offset
    n_supply = len(view.producers) + len(live)
    caps = [view.partner_capacities[p] for p in live]
    stretched = [q for q, cap in enumerate(caps) if cap.bound > 0.0]
    zeros = np.zeros(len(stretched))  # the lower bounds and the costs
    first = lp.add_columns([f"stretch[{live[q]}]" for q in stretched], zeros, [caps[q].bound * caps[q].energy for q in stretched], zeros)
    partner_stretch = (
        len(view.producers) + np.array(stretched, dtype=np.intp), first + np.arange(len(stretched)), np.full(len(stretched), -1.0)
    )
    _add_rows(
        lp,
        [supplied, partner_stretch, (n_supply + served[0], *served[1:])],
        table.supply_names + [f"supply[{p}]" for p in live] + table.demand_names,
        [LESS_EQUAL] * n_supply + [EQUAL] * len(view.consumers),
        [p.energy for p in view.producers] + [cap.energy for cap in caps] + demand,
    )
    info.demand_rows = range(n_supply, n_supply + len(view.consumers))

    if committed_exports > RESIDUAL_TOL:
        # every local supply row at once: exported energy stays deliverable
        rhs = -committed_exports
        for producer in view.producers:
            rhs += producer.energy
        end = lp.row_starts[len(view.producers)]
        lp.add_rows(["export-reservation"], [LESS_EQUAL], [rhs], [end], lp.entry_cols[:end], lp.entry_vals[:end])

    return lp, info


def _solve(lp: LinearProgram, label: str) -> LpSolution:
    """Solve a matching LP; only line constraints can make one infeasible."""
    solution = solve_lp(lp)
    if solution.status is LpStatus.INFEASIBLE:
        raise MatchingInfeasibleError(f"{label} infeasible; only line constraints can cause this")
    if solution.status is not LpStatus.OPTIMAL:
        raise RuntimeError(f"{label} reported {solution.status}")
    return solution


def _placed_cells(cm: CommitmentMatrix, info: _BuildInfo, x: np.ndarray, values: list[float], columns: np.ndarray) -> None:
    """Write the cm columns ``columns`` whose value exceeds RESIDUAL_TOL into ``cm``, in column order."""
    hits = columns[x[columns] > RESIDUAL_TOL]
    consumers, suppliers = info.consumer_ids, info.supplier_ids
    for k, j, col in zip(info.cm_consumer[hits].tolist(), info.cm_supplier[hits].tolist(), hits.tolist()):
        cm.set(consumers[k], suppliers[j], values[col])


def _purchases(cm: CommitmentMatrix, info: _BuildInfo, x: np.ndarray, values: list[float]) -> None:
    purchases = info.purchase_cols
    for k in np.flatnonzero(x[purchases.start : purchases.stop] > RESIDUAL_TOL).tolist():
        cm.set(info.consumer_ids[k], UTILITY_ID, values[purchases.start + k])


def solve_dist_matching(
    view: SspView,
    table: PairTable,
    *,
    accepted: CommitmentMatrix | None = None,
    committed_exports: float = 0.0,
) -> tuple[CommitmentMatrix, FlexibilityAssignment, float, dict[str, float]]:
    """Solve the view's matching LP through its ``PairTable``: (matrix, flexibility, objective, prices).

    ``accepted`` is the SSP's last accepted matrix: its partner cells are
    locked imports, constants of this LP that the returned matrix keeps, a
    live partner's cells adding the new placements to them. The Utility row
    of the returned matrix is the unplaced base production of
    each local producer, net of ``committed_exports`` attributed greedily in
    producer order: day-ahead, declared production that nobody takes is sold
    back. The reported objective folds in the reward of the locked imports,
    so values stay comparable across re-solves of an evolving view.
    ``prices`` maps each consumer to minus the dual of its demand row: the
    reward its marginal kWh earns in this solution. ``table`` holds the
    weights and lines (see ``_build``).
    """
    lp, info = _build(view, table, accepted, committed_exports)
    solution = _solve(lp, f"matching LP for {view.id!r}")

    partner_cols = sorted(set(info.live_partners).union(p for p, _, _ in info.locked_cells))
    supplier_ids = tuple(p.id for p in view.producers) + tuple(partner_cols)
    cm = CommitmentMatrix(info.consumer_ids, supplier_ids)

    values = solution.values
    x = np.array(values)
    _placed_cells(cm, info, x, values, np.arange(info.cm_consumer.size))
    for partner_id, consumer_id, kwh in info.locked_cells:
        cm.set(consumer_id, partner_id, cm.get(consumer_id, partner_id) + kwh)
    _purchases(cm, info, x, values)

    attribute_sell_backs(cm, view.producers, committed_exports)

    fx = _flexibility(info, values, view.consumers, view.producers)
    prices = {c: -solution.duals[row] for c, row in zip(info.consumer_ids, info.demand_rows)}
    return cm, fx, solution.objective + info.objective_offset, prices


def _flexibility(
    info: _BuildInfo, values: list[float], consumers: Sequence[Subscriber], producers: Sequence[Subscriber]
) -> FlexibilityAssignment:
    """The fx factors of a solution: 1 - cut/Dc per consumer, 1 + stretch/Ep per producer (1 at Dc or Ep <= RESIDUAL_TOL)."""

    def factors(subs: Sequence[Subscriber], of: np.ndarray, cols: range, sign: float) -> dict[str, float]:
        fx = dict.fromkeys([s.id for s in subs], 1.0)
        for k, col in zip(of.tolist(), cols):
            if subs[k].energy > RESIDUAL_TOL:
                fx[subs[k].id] = 1.0 + sign * (values[col] / subs[k].energy)
        return fx

    return FlexibilityAssignment(
        consumers=factors(consumers, info.cut_of, info.cut_cols, -1.0),
        producers=factors(producers, info.stretch_of, info.stretch_cols, 1.0),
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


def check_matching_feasibility(view: SspView, cm: CommitmentMatrix, fx: FlexibilityAssignment) -> list[str]:
    """Independent residual check of the supply caps, demand windows and fx bounds, each with ``CHECK_TOL`` slack.

    Recomputed from the domain data, not from the LP or the solver, so it can
    catch builder and solver defects alike. Returns human-readable violations.
    """
    problems: list[str] = []
    for producer in view.producers:
        fx_j = fx.producers.get(producer.id, 1.0)
        total = sum(cm.get(row_id, producer.id) for row_id in cm.row_ids())
        if total > fx_j * producer.energy + CHECK_TOL:
            problems.append(f"supply cap of {producer.id}: {total} > {fx_j * producer.energy}")
        if not 1.0 - CHECK_TOL <= fx_j <= 1.0 + producer.bound + CHECK_TOL:
            problems.append(f"fx of {producer.id} = {fx_j} outside [1, {1.0 + producer.bound}]")
    for consumer in view.consumers:
        fx_i = fx.consumers.get(consumer.id, 1.0)
        served = sum(cm.get(consumer.id, col) for col in cm.col_ids())
        if served > consumer.energy + CHECK_TOL:
            problems.append(f"overserved {consumer.id}: {served} > {consumer.energy}")
        if served < fx_i * consumer.energy - CHECK_TOL:
            problems.append(f"underserved {consumer.id}: {served} < {fx_i * consumer.energy}")
        if not 1.0 - consumer.bound - CHECK_TOL <= fx_i <= 1.0 + CHECK_TOL:
            problems.append(f"fx of {consumer.id} = {fx_i} outside [{1.0 - consumer.bound}, 1]")
    for (row_id, col_id), value in cm.cells().items():
        if value < -CHECK_TOL:
            problems.append(f"negative commitment cm({row_id}, {col_id}) = {value}")
        if row_id != UTILITY_ID and col_id != UTILITY_ID and col_id not in view.partner_capacities:
            if not view.links.get(row_id, col_id) and value > CHECK_TOL:
                problems.append(f"commitment on disconnected pair ({row_id}, {col_id})")
    return problems


def aggregate_surplus(ssp: SSPConfig, cm: CommitmentMatrix) -> tuple[float, float]:
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
    consumers = tuple(c for cfg in scenario.ssps for c in cfg.consumers)
    producers = tuple(p for cfg in scenario.ssps for p in cfg.producers)
    n_prod = len(producers)
    consumer, supplier, rank, _, _ = _scenario_pairs(scenario, None)
    # supplier s covers the producers from start[s]: itself, or each producer
    # of a partner SSP; each pair spreads over ``width`` producers
    counts = np.array([len(cfg.producers) for cfg in scenario.ssps], dtype=np.intp)
    start = np.concatenate([np.arange(n_prod), np.cumsum(counts) - counts])
    width = np.concatenate([np.ones(n_prod, dtype=np.intp), counts])[supplier]
    rows = np.repeat(consumer, width)
    cols = np.repeat(start[supplier] - (np.cumsum(width) - width), width) + np.arange(rows.size)
    ranks = np.zeros((len(consumers), n_prod), dtype=np.int64)
    ranks[rows, cols] = np.repeat(rank, width)
    links = np.zeros((len(consumers), n_prod + 1), dtype=np.int64)
    links[rows, cols] = 1
    links[:, n_prod] = 1  # the Utility's column
    consumer_ids = tuple(c.id for c in consumers)
    producer_ids = tuple(p.id for p in producers)
    return SspView(
        id="centralized",
        consumers=consumers,
        producers=producers,
        preferences=PreferenceTable(consumer_ids, producer_ids, ranks),
        links=LinkBlock(consumer_ids, (*producer_ids, UTILITY_ID), links),
    )


def _build_centralized(scenario: Scenario) -> tuple[LinearProgram, _BuildInfo]:
    """The centralized LP in transshipment form (see the module docstring), under the scenario's weights.

    Columns: the cm columns consumer-major (every SSP's consumers in scenario
    order): connected local producers, then one import column from the pool
    of each connected partner SSP with producers; then purchases, cuts,
    stretches, and the export of every producer of a pooled SSP. Rows:
    supply per producer, demand per consumer, then one pool row per pooled
    SSP. With a single SSP this is ``_build``'s LP of its view.
    """
    lines = scenario.line_constraints
    consumers = tuple(c for cfg in scenario.ssps for c in cfg.consumers)
    producers = tuple(p for cfg in scenario.ssps for p in cfg.producers)
    n_prod, n_cons = len(producers), len(consumers)
    supplier_ids = [p.id for p in producers] + list(scenario.ssp_ids)
    supplier_at = {supplier_id: j for j, supplier_id in enumerate(supplier_ids)}
    consumer_of, cm_supplier, ranks, lower, upper = _scenario_pairs(scenario, lines)
    priority = np.array([c.priority for c in consumers], dtype=float)
    rewards = _Rewards(scenario.weights, priority[consumer_of], ranks)
    cm = _CmColumns(
        consumer_of,
        cm_supplier,
        lower,
        upper,
        rewards.of_pairs,
        [f"cm[{consumers[k].id}][{supplier_ids[j]}]" for k, j in zip(consumer_of.tolist(), cm_supplier.tolist())],
    )
    flex = _flex(consumers, producers, lines)
    lp, info, supplied, served = _place([c.id for c in consumers], supplier_ids, cm, flex, rewards)

    # a pooled SSP is one some consumer imports from; its producers export to the pool
    drawn = np.zeros(len(supplier_ids), dtype=bool)
    drawn[cm.supplier] = True
    pooled = [(n_prod + s, cfg) for s, cfg in enumerate(scenario.ssps) if drawn[n_prod + s]]
    info.live_partners = [cfg.id for _, cfg in pooled]
    row_of = np.concatenate([np.arange(n_prod), np.full(len(scenario.ssps), -1)])  # the row of each supplier
    exporters, pools = [], []
    for k, (supplier, cfg) in enumerate(pooled):
        row_of[supplier] = n_prod + n_cons + k
        exporters += [supplier_at[p.id] for p in cfg.producers]
        pools += [row_of[supplier]] * len(cfg.producers)
    n_exports = len(exporters)
    zeros = np.zeros(n_exports)  # the lower bounds and the costs
    first = lp.add_columns([f"export[{producers[j].id}]" for j in exporters], zeros, np.full(n_exports, math.inf), zeros)
    export_cols = first + np.arange(len(exporters))
    info.export_cols = dict(zip((producers[j].id for j in exporters), export_cols.tolist()))
    _add_rows(
        lp,
        [
            (row_of[supplied[0]], *supplied[1:]),
            (np.array(exporters, dtype=np.intp), export_cols, np.ones(len(exporters))),
            (np.array(pools, dtype=np.intp), export_cols, np.full(len(exporters), -1.0)),
            (n_prod + served[0], *served[1:]),
        ],
        [f"supply[{p.id}]" for p in producers] + [f"demand[{c.id}]" for c in consumers]
        + [f"pool[{cfg.id}]" for _, cfg in pooled],
        [LESS_EQUAL] * n_prod + [EQUAL] * n_cons + [LESS_EQUAL] * len(pooled),
        [p.energy for p in producers] + [c.energy for c in consumers] + [0.0] * len(pooled),
    )
    info.demand_rows = range(n_prod, n_prod + n_cons)
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


def solve_centralized(scenario: Scenario) -> tuple[CommitmentMatrix, FlexibilityAssignment, float]:
    """Optimality baseline: one global LP over every subscriber of every SSP, under the scenario's weights.

    Solved in transshipment form and decomposed into per-producer cells (see
    the module docstring); the matrix has one column per producer and is
    feasible against ``merged_view``.
    """
    lp, info = _build_centralized(scenario)
    solution = _solve(lp, "centralized matching LP")

    consumers = tuple(c for cfg in scenario.ssps for c in cfg.consumers)
    producers = tuple(p for cfg in scenario.ssps for p in cfg.producers)
    cm = CommitmentMatrix(info.consumer_ids, [p.id for p in producers])
    values = solution.values
    x = np.array(values)
    cm_cols = np.arange(info.cm_consumer.size)
    _placed_cells(cm, info, x, values, cm_cols[info.cm_supplier < len(producers)])
    for ssp_id in info.live_partners:
        imports = cm_cols[info.cm_supplier == info.supplier_ids.index(ssp_id)]
        taken = list(zip([info.consumer_ids[k] for k in info.cm_consumer[imports].tolist()], x[imports].tolist()))
        _split_pool(cm, taken, [(p.id, values[info.export_cols[p.id]]) for p in scenario.ssp(ssp_id).producers])
    _purchases(cm, info, x, values)
    attribute_sell_backs(cm, producers, 0.0)
    return cm, _flexibility(info, values, consumers, producers), solution.objective
