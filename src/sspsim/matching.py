"""Build and solve one SSP's matching LP, plus aggregates and the centralized baseline.

The LP decides cm(i, j) placements from local producers and partner SSPs to
local consumers, per-consumer Utility purchases cm(i, U), sell-back slots
cm(U, j) and the flexibility factors of passive subscribers. Minimised
objective, per chosen weights:

* reward every placed kWh by w14 * Pr(i) plus w35 times a preference factor
  that decreases with the consumer's rank of the supplier,
* penalise Utility purchases by w2,
* penalise production stretch (fx(j) - 1) * Ep(j) of local passive producers
  just above the largest placement reward, so flexibility is activated only
  when it avoids Utility interaction, never to overfill flexible demand.

Constraints: per-producer supply caps (sell-backs share the budget), the
per-consumer demand window fx(i)*Dc(i) <= served <= Dc(i), flexibility bounds,
optional per-pair line bounds and, inside the protocol, a reservation row that
keeps already-exported energy deliverable. Utility purchase columns are
unbounded above, which makes every instance feasible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .lp import (
    EQUAL,
    LESS_EQUAL,
    LinearProgram,
    LpStatus,
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


@dataclass
class _BuildInfo:
    cm_vars: dict[tuple[str, str], str]
    buy_vars: dict[str, str]
    sell_vars: dict[str, str]
    cut_vars: dict[str, str]  # demand reduction kWh; fx(i) = 1 - cut/Dc
    stretch_vars: dict[str, str]  # production increase kWh; fx(j) = 1 + stretch/Ep
    live_partners: list[str]  # partners advertising more than RESIDUAL_TOL, sorted
    objective_offset: float


def _build(
    view: SspView,
    weights: MatchingWeights,
    lines: LineConstraintSet | None,
    locked_imports: dict[str, dict[str, float]] | None,
    committed_exports: float,
) -> tuple[LinearProgram, _BuildInfo]:
    locked_imports = locked_imports or {}
    partner_ids = sorted(view.partner_capacities)
    # stable (consumer, supplier) pairs: connected local producers, then every
    # partner; zero-capacity partners get no column but still shape beta
    try:
        ranks = {
            (consumer.id, supplier_id): view.preferences.rank(consumer.id, supplier_id)
            for consumer in view.consumers
            for supplier_id in [
                p.id for p in view.producers if view.connectivity.connected(consumer.id, p.id)
            ] + partner_ids
        }
    except KeyError as exc:
        raise MatchingStructureError(str(exc)) from None
    beta = weights.beta if weights.beta is not None else float(max([1, *ranks.values()]) + 1)

    coefficient_mode = weights.preference_mode == "coefficient"
    priority = {c.id: c.priority for c in view.consumers}
    offset = 0.0
    reward: dict[tuple[str, str], float] = {}  # per placed kWh
    for (consumer_id, supplier_id), rank in ranks.items():
        if coefficient_mode:
            factor = 1.0 + weights.alpha * (beta - rank)
        else:
            factor = 1.0
            offset -= weights.w35 * weights.alpha * (beta - rank)
        reward[(consumer_id, supplier_id)] = weights.w14 * priority[consumer_id] + weights.w35 * factor
    stretch_penalty = max(reward.values(), default=0.0) + 0.01 * weights.w2

    lp = LinearProgram()
    live = [p for p in partner_ids if view.partner_capacities[p].energy > RESIDUAL_TOL]
    info = _BuildInfo({}, {}, {}, {}, {}, live, 0.0)

    def line_bounds(row_id: str, col_id: str) -> tuple[float, float]:
        if lines is not None:
            lc = lines.lookup(row_id, col_id)
            if lc is not None:
                return max(0.0, lc.min_kwh), lc.max_kwh
        return 0.0, math.inf

    # supply-row and demand-row coefficients, filled as the cm columns are added
    supplies: dict[str, dict[str, float]] = {j: {} for j in [p.id for p in view.producers] + live}
    served_by: dict[str, dict[str, float]] = {c.id: {} for c in view.consumers}
    for consumer_id, supplier_id in ranks:
        if supplier_id not in supplies:
            continue  # partner without capacity
        lo, up = line_bounds(consumer_id, supplier_id)
        name = lp.add_variable(f"cm[{consumer_id}][{supplier_id}]", lo, up)
        info.cm_vars[(consumer_id, supplier_id)] = name
        served_by[consumer_id][name] = 1.0
        supplies[supplier_id][name] = 1.0
    for consumer in view.consumers:
        lo, up = line_bounds(consumer.id, UTILITY_ID)
        info.buy_vars[consumer.id] = lp.add_variable(f"cm[{consumer.id}][U]", lo, up, cost=weights.w2)
    for producer in view.producers:
        lo, up = line_bounds(UTILITY_ID, producer.id)
        info.sell_vars[producer.id] = lp.add_variable(f"cm[U][{producer.id}]", lo, up)
    # fx factors are carried as kWh variables: cut = (1-fx(i))*Dc, stretch =
    # (fx(j)-1)*Ep. Same polytope, and the all-Utility start vertex stays basic.
    for consumer in view.consumers:
        if consumer.bound > 0.0:
            info.cut_vars[consumer.id] = lp.add_variable(
                f"cut[{consumer.id}]", 0.0, consumer.bound * consumer.energy
            )
    for producer in view.producers:
        if producer.bound > 0.0:
            info.stretch_vars[producer.id] = lp.add_variable(
                f"stretch[{producer.id}]", 0.0, producer.bound * producer.energy, cost=stretch_penalty
            )
    for partner_id in live:
        cap = view.partner_capacities[partner_id]
        if cap.bound > 0.0:
            info.stretch_vars[partner_id] = lp.add_variable(f"stretch[{partner_id}]", 0.0, cap.bound * cap.energy)

    for pair, name in info.cm_vars.items():
        if reward[pair] != 0.0:
            lp.objective[name] = -reward[pair]

    # locked imports are constants: their reward keeps the objective comparable
    # across re-solves as claims accumulate
    locked_in: dict[str, float] = {c.id: 0.0 for c in view.consumers}
    for partner_id, per_consumer in sorted(locked_imports.items()):
        for consumer_id, kwh in sorted(per_consumer.items()):
            locked_in[consumer_id] = locked_in.get(consumer_id, 0.0) + kwh
            offset -= reward.get((consumer_id, partner_id), 0.0) * kwh

    for producer in view.producers:
        coeffs = supplies[producer.id]
        coeffs[info.sell_vars[producer.id]] = 1.0
        if producer.id in info.stretch_vars:
            coeffs[info.stretch_vars[producer.id]] = -1.0
        lp.add_constraint(coeffs, LESS_EQUAL, producer.energy, name=f"supply[{producer.id}]")

    for partner_id in live:
        coeffs = supplies[partner_id]
        if partner_id in info.stretch_vars:
            coeffs[info.stretch_vars[partner_id]] = -1.0
        lp.add_constraint(coeffs, LESS_EQUAL, view.partner_capacities[partner_id].energy, name=f"supply[{partner_id}]")

    for consumer in view.consumers:
        served = served_by[consumer.id]
        served[info.buy_vars[consumer.id]] = 1.0
        rhs = consumer.energy - locked_in.get(consumer.id, 0.0)
        if rhs < -RESIDUAL_TOL:
            raise MatchingStructureError(f"locked imports exceed demand of {consumer.id}")
        rhs = max(rhs, 0.0)
        if consumer.id in info.cut_vars:
            served[info.cut_vars[consumer.id]] = 1.0
        lp.add_constraint(served, EQUAL, rhs, name=f"demand[{consumer.id}]")

    if committed_exports > RESIDUAL_TOL:
        # every local supply row at once: exported energy stays deliverable
        coeffs = {}
        rhs = -committed_exports
        for producer in view.producers:
            coeffs.update(supplies[producer.id])
            rhs += producer.energy
        lp.add_constraint(coeffs, LESS_EQUAL, rhs, name="export-reservation")

    info.objective_offset = offset
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
) -> tuple[CommitmentMatrix, FlexibilityAssignment, float]:
    """Solve the view's matching LP and assemble the commitment matrix.

    The Utility row of the returned matrix is the unplaced base production of
    each local producer, net of ``committed_exports`` attributed greedily in
    producer order: day-ahead, declared production that nobody takes is sold
    back. The reported objective folds constant terms (locked imports,
    additive-mode preference constants) so values stay comparable across
    re-solves of an evolving view.
    """
    lp, info = _build(view, weights, lines, locked_imports, committed_exports)
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

    for (consumer_id, supplier_id), name in info.cm_vars.items():
        value = solution.values[name]
        if value > RESIDUAL_TOL:
            cm.set(consumer_id, supplier_id, value)
    for partner_id, per_consumer in locked_imports.items():
        for consumer_id, kwh in per_consumer.items():
            if kwh > RESIDUAL_TOL:
                cm.set(consumer_id, partner_id, cm.get(consumer_id, partner_id) + kwh)
    for consumer_id, name in info.buy_vars.items():
        value = solution.values[name]
        if value > RESIDUAL_TOL:
            cm.set(consumer_id, UTILITY_ID, value)

    attribute_sell_backs(cm, view.producers, committed_exports)

    def consumer_fx(sub: Subscriber) -> float:
        if sub.id not in info.cut_vars or sub.energy <= RESIDUAL_TOL:
            return 1.0
        return 1.0 - solution.values[info.cut_vars[sub.id]] / sub.energy

    def producer_fx(sub: Subscriber) -> float:
        if sub.id not in info.stretch_vars or sub.energy <= RESIDUAL_TOL:
            return 1.0
        return 1.0 + solution.values[info.stretch_vars[sub.id]] / sub.energy

    fx = FlexibilityAssignment(
        consumers={c.id: consumer_fx(c) for c in view.consumers},
        producers={p.id: producer_fx(p) for p in view.producers},
    )
    return cm, fx, solution.objective + info.objective_offset


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
        residual = producer.energy - cm.committed_to_consumers(producer.id)
        if residual > RESIDUAL_TOL:
            ex_energy += (1.0 + producer.bound) * producer.energy - cm.committed_to_consumers(producer.id)
            total_energy += residual
    return ex_energy, total_energy


def aggregate_bound(ssp: SSPConfig | SspView, cm: CommitmentMatrix) -> float:
    """Production-weighted flexibility of the residual supply; 0 with no residual."""
    ex_energy, total_energy = aggregate_surplus(ssp, cm)
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
    return solve_dist_matching(merged_view(scenario), weights, scenario.line_constraints)
