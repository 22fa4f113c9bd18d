"""Domain types for day-ahead energy commitment among sub-service providers (SSPs).

Vocabulary used throughout the package:

* AP / PP: active / passive producer. Both declare a day-ahead production
  ``energy`` in kWh; a PP can additionally stretch production by up to
  ``bound`` (fraction, e.g. 0.3 = +30%).
* AC / PC: active / passive consumer. Both declare a demand in kWh; a PC can
  be cut by up to ``bound`` (fraction, e.g. 0.2 = -20%).
* Utility ("U"): the external supplier of last resort. It can buy or sell any
  amount; the framework's goal is to minimise interaction with it.
* Commitment matrix cm(i, j): kWh pledged from supplier j (producer, partner
  SSP, or Utility) to consumer i; the extra row ``U`` holds sell-backs.

All quantities are kWh per scheduling slot. Slot duration is metadata only and
never enters a formula. Values are python floats, compared with four named
tolerances: ``matching.RESIDUAL_TOL`` (1e-9 kWh), at or below which an amount
reads as 0; ``protocol.IMPROVE_TOL`` (1e-9), the margin a re-solve must beat;
``lp.FEAS_TOL`` (1e-6), the solver drift past a bound that is clamped; and
``KWH_TOL`` (1e-6), the slack of the priority-sum check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, compress, repeat
from operator import contains
from types import NoneType
from typing import Iterable, Mapping, Sequence

UTILITY_ID = "U"

#: absolute slack of the consumer priority-sum check
KWH_TOL = 1e-6


class SubscriberKind(str, Enum):
    ACTIVE_PRODUCER = "AP"
    PASSIVE_PRODUCER = "PP"
    ACTIVE_CONSUMER = "AC"
    PASSIVE_CONSUMER = "PC"

    @property
    def is_producer(self) -> bool:
        return self in (SubscriberKind.ACTIVE_PRODUCER, SubscriberKind.PASSIVE_PRODUCER)

    @property
    def is_consumer(self) -> bool:
        return not self.is_producer

    @property
    def is_active(self) -> bool:
        return self in (SubscriberKind.ACTIVE_PRODUCER, SubscriberKind.ACTIVE_CONSUMER)


@dataclass(frozen=True)
class Subscriber:
    """One producer or consumer.

    ``energy`` is the declared production (producers) or demand (consumers) in
    kWh. ``bound`` is the flexibility fraction in [0, 1]; active kinds must
    carry 0. ``priority`` is the serving priority in [0, 1], meaningful for
    consumers only; within one SSP consumer priorities sum to 1.
    """

    id: str
    kind: SubscriberKind
    energy: float
    bound: float = 0.0
    priority: float = 0.0


@dataclass(frozen=True)
class PreferenceTable:
    """Rank of each supplier (local producer or partner SSP) per consumer.

    ``suppliers`` is the header: the supplier ids the table ranks, once each.
    ``ranks`` maps a consumer id to its row, one value per header position;
    ``None`` there means no rank. Rows hold their values as given (a file's
    as read, in a tuple), and ``validate_scenario`` judges them: a rank is a
    positive integer, lower = more preferred, ties allowed, and every pair
    allowed by connectivity must have one. ``index`` maps each supplier id
    to its header position; it is built once, when the table is made, and
    with a supplier listed twice (a violation) it points at the first.
    """

    suppliers: tuple[str, ...]
    ranks: Mapping[str, Sequence[int | None]]
    index: Mapping[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # built from the back, so a supplier listed twice keeps its first position
        n = len(self.suppliers)
        object.__setattr__(self, "index", dict(zip(reversed(self.suppliers), range(n - 1, -1, -1))))

    def rank(self, consumer_id: str, supplier_id: str) -> int:
        value = self._value(consumer_id, supplier_id)
        if value is None:
            raise KeyError(f"no preference rank for ({consumer_id}, {supplier_id})")
        return value

    def has(self, consumer_id: str, supplier_id: str) -> bool:
        return self._value(consumer_id, supplier_id) is not None

    def _value(self, consumer_id: str, supplier_id: str) -> int | None:
        row = self.ranks.get(consumer_id)
        k = self.index.get(supplier_id)
        return None if row is None or k is None or k >= len(row) else row[k]


@dataclass(frozen=True)
class ConnectivityMatrix:
    """Binary reachability N(i, j).

    Rows are consumer ids or SSP ids; columns are producer ids, SSP ids, or
    ``UTILITY_ID``. A missing entry means 0 (not connected). Every consumer
    must have N(i, U) = 1, and the inter-SSP block must be symmetric with a
    zero diagonal.
    """

    rows: Mapping[str, Mapping[str, int]]

    def connected(self, row_id: str, col_id: str) -> bool:
        return bool(self.rows.get(row_id, {}).get(col_id, 0))


@dataclass(frozen=True)
class LineConstraint:
    row_id: str
    col_id: str
    min_kwh: float
    max_kwh: float


@dataclass(frozen=True)
class LineConstraintSet:
    """Per-pair flow bounds gammaMin <= cm(i, j) <= gammaMax (identity loss), at most one per pair.

    The set is indexed by row, then column, once, when it is made.
    Validation rejects a second line for a pair (``line-unique``); until then
    the first one in ``constraints`` is the pair's line.
    """

    constraints: tuple[LineConstraint, ...]

    def __post_init__(self) -> None:
        by_row: dict[str, dict[str, LineConstraint]] = {}
        for c in self.constraints:
            by_row.setdefault(c.row_id, {}).setdefault(c.col_id, c)
        object.__setattr__(self, "_by_row", by_row)

    def lookup(self, row_id: str, col_id: str) -> LineConstraint | None:
        return self.of_row(row_id).get(col_id)

    def of_row(self, row_id: str) -> Mapping[str, LineConstraint]:
        """The line of each column that has one with row ``row_id``."""
        return self._by_row.get(row_id, {})


@dataclass(frozen=True)
class MatchingWeights:
    """Weights of the scalarised matching objective.

    ``w14`` scales the priority-weighted service reward, ``w2`` the Utility
    purchase penalty, ``w35`` the preference reward. ``alpha`` and ``beta``
    shape the per-pair preference factor 1 + alpha*(beta - rank); ``beta=None``
    resolves to (max rank in view) + 1 at build time so the factor stays >= 1.
    The factor multiplies w35 in each cm coefficient; ``alpha = 0`` turns the
    preference steering off.
    """

    w14: float = 1.0
    w2: float = 10.0
    w35: float = 0.5
    alpha: float = 0.1
    beta: float | None = None


@dataclass(frozen=True)
class SSPConfig:
    """One SSP: its consumers, producers and local preference table."""

    id: str
    consumers: tuple[Subscriber, ...]
    producers: tuple[Subscriber, ...]
    preferences: PreferenceTable


@dataclass(frozen=True)
class Scenario:
    ssps: tuple[SSPConfig, ...]
    connectivity: ConnectivityMatrix
    weights: MatchingWeights = field(default_factory=MatchingWeights)
    line_constraints: LineConstraintSet | None = None
    seed: int = 0

    def ssp(self, ssp_id: str) -> SSPConfig:
        for cfg in self.ssps:
            if cfg.id == ssp_id:
                return cfg
        raise KeyError(f"unknown SSP id {ssp_id!r}")

    @property
    def ssp_ids(self) -> tuple[str, ...]:
        return tuple(cfg.id for cfg in self.ssps)


@dataclass(frozen=True)
class Violation:
    """One broken invariant, naming the offending entity and the rule."""

    entity: str
    rule: str
    detail: str

    def __str__(self) -> str:
        return f"{self.entity}: {self.rule} ({self.detail})"


def validate_scenario(scenario: Scenario) -> list[Violation]:
    """Check every type invariant; returns an empty list iff the scenario is valid.

    Violations are data, not exceptions: callers decide whether to abort.
    The check is pure and idempotent.
    """
    out: list[Violation] = []
    seen_ids: set[str] = set()

    def claim_id(entity_id: str, entity_kind: str) -> None:
        if entity_id == UTILITY_ID:
            out.append(Violation(entity_id, "reserved-id", f"{entity_kind} may not use the Utility id"))
        if entity_id in seen_ids:
            out.append(Violation(entity_id, "unique-ids", f"duplicate {entity_kind} id"))
        seen_ids.add(entity_id)

    ssp_ids = [cfg.id for cfg in scenario.ssps]
    for cfg in scenario.ssps:
        claim_id(cfg.id, "SSP")
        for sub in cfg.consumers + cfg.producers:
            claim_id(sub.id, "subscriber")
            for name in ("energy", "bound", "priority"):
                value = getattr(sub, name)
                if not math.isfinite(value):
                    out.append(Violation(sub.id, "finite", f"{name} {value}"))
            if sub.energy < 0:
                out.append(Violation(sub.id, "energy-nonnegative", f"energy {sub.energy}"))
            if not 0.0 <= sub.bound <= 1.0:
                out.append(Violation(sub.id, "bound-range", f"bound {sub.bound} outside [0, 1]"))
            if sub.kind.is_active and sub.bound != 0.0:
                out.append(Violation(sub.id, "active-bound-zero", f"active subscriber with bound {sub.bound}"))
            if not 0.0 <= sub.priority <= 1.0:
                out.append(Violation(sub.id, "priority-range", f"priority {sub.priority} outside [0, 1]"))
        for sub in cfg.consumers:
            if sub.kind.is_producer:
                out.append(Violation(sub.id, "kind-placement", "producer listed under consumers"))
        for sub in cfg.producers:
            if sub.kind.is_consumer:
                out.append(Violation(sub.id, "kind-placement", "consumer listed under producers"))
            if sub.priority != 0.0:
                out.append(Violation(sub.id, "producer-priority", "producers carry no serving priority"))
        if cfg.consumers:
            total = sum(s.priority for s in cfg.consumers)
            if abs(total - 1.0) > KWH_TOL:
                out.append(Violation(cfg.id, "priority-sum", f"consumer priorities sum to {total}, expected 1"))

    out.extend(_validate_connectivity(scenario, ssp_ids))
    out.extend(_validate_preferences(scenario))

    for w_name in ("w14", "w2", "w35", "alpha", "beta"):
        value = getattr(scenario.weights, w_name)
        if value is not None and not math.isfinite(value):
            out.append(Violation("weights", "finite", f"{w_name} = {value}"))
    if scenario.weights.w2 <= 0:
        out.append(Violation("weights", "w2-positive", f"w2 = {scenario.weights.w2}; Utility purchases would be free"))
    for w_name in ("w14", "w2", "w35", "alpha"):
        if getattr(scenario.weights, w_name) < 0:
            out.append(Violation("weights", "weight-nonnegative", f"{w_name} < 0"))

    if scenario.line_constraints is not None:
        # a run decides a consumer's flows from the Utility, from the producers
        # of its SSP and from other SSPs, and no other flow
        consumer_ssp = {c.id: cfg.id for cfg in scenario.ssps for c in cfg.consumers}
        producer_ssp = {p.id: cfg.id for cfg in scenario.ssps for p in cfg.producers}
        ssp_set = set(ssp_ids)
        bounded: set[tuple[str, str]] = set()
        for lc in scenario.line_constraints.constraints:
            pair = f"({lc.row_id}, {lc.col_id})"
            home = consumer_ssp.get(lc.row_id)
            # a consumer reaches another SSP by its own SSP's link, N(home, SSP),
            # the entry the engine reads; its own entry N(consumer, SSP) carries nothing
            link_row = home if lc.col_id in ssp_set else lc.row_id
            if (lc.row_id, lc.col_id) in bounded:
                # LineConstraintSet.lookup would silently apply only the first
                out.append(Violation(pair, "line-unique", "more than one line constraint for the pair"))
            bounded.add((lc.row_id, lc.col_id))
            # max_kwh = +inf means no upper bound, but no flow can meet a NaN
            # bound or a lower bound of +inf
            undefined = [
                f"{name} {value}"
                for name, value in (("min_kwh", lc.min_kwh), ("max_kwh", lc.max_kwh))
                if math.isnan(value) or (name == "min_kwh" and value == math.inf)
            ]
            if lc.row_id == UTILITY_ID:
                # a sell-back is the production nobody takes, not a decision
                out.append(Violation(pair, "line-not-sell-back", "sell-backs cm(U, j) are derived and take no bound"))
            elif home is None or not (
                lc.col_id == UTILITY_ID or producer_ssp.get(lc.col_id) == home or (lc.col_id in ssp_set and lc.col_id != home)
            ):
                out.append(Violation(pair, "line-decided-flow", "not a consumer's flow from U, its SSP's producer or another SSP"))
            elif undefined:
                out.append(Violation(pair, "line-bound-defined", ", ".join(undefined)))
            elif lc.min_kwh > lc.max_kwh:
                out.append(Violation(pair, "line-bounds-ordered", f"min {lc.min_kwh} > max {lc.max_kwh}"))
            elif lc.max_kwh < 0.0:
                out.append(Violation(pair, "line-max-nonnegative", f"max {lc.max_kwh} < 0; flows are non-negative"))
            elif not scenario.connectivity.connected(link_row, lc.col_id) and not (lc.min_kwh <= 0.0 <= lc.max_kwh):
                out.append(Violation(pair, "line-bounds-allow-unused", "disconnected pair must admit zero flow"))

    seed = scenario.seed
    if isinstance(seed, bool) or not isinstance(seed, int) or not -(2**63) <= seed < 2**63:
        out.append(Violation("seed", "seed-64bit", f"seed {seed!r} outside 64-bit range"))
    return out


def _validate_connectivity(scenario: Scenario, ssp_ids: list[str]) -> list[Violation]:
    # Each check runs first over a whole row with set and dict-view operations;
    # only a row that fails it is walked entry by entry, so violations keep
    # their text and order.
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
        values = list(cols.values())
        binary = values.count(0) + values.count(1) == len(values) and bool not in set(map(type, values))
        if binary and cols.keys() <= known_cols:
            continue
        for col_id, value in cols.items():
            if col_id not in known_cols:
                out.append(Violation(col_id, "connectivity-col-resolves", f"unknown column id in row {row_id}"))
            if isinstance(value, bool) or value not in (0, 1):
                out.append(Violation(row_id, "connectivity-binary", f"N({row_id}, {col_id}) = {value}"))
    for cfg in scenario.ssps:
        for sub in cfg.consumers:
            if not n.connected(sub.id, UTILITY_ID):
                out.append(Violation(sub.id, "utility-reachable", "consumer must have N(i, U) = 1"))
    ssp_set = set(ssp_ids)
    partners = {a: _linked(n.rows.get(a, {}), ssp_set) for a in ssp_set}
    # the block is symmetric with a zero diagonal iff no SSP lists itself and
    # every partner an SSP lists lists it back
    clean = all(
        a not in linked and all(map(contains, map(partners.__getitem__, linked), repeat(a)))
        for a, linked in partners.items()
    )
    if not clean:
        for a in ssp_ids:
            if n.connected(a, a):
                out.append(Violation(a, "interssp-zero-diagonal", "SSP connected to itself"))
            for b in ssp_ids:
                if a < b and n.connected(a, b) != n.connected(b, a):
                    out.append(Violation(f"({a}, {b})", "interssp-symmetric", "asymmetric inter-SSP entry"))
    return out


def _validate_preferences(scenario: Scenario) -> list[Violation]:
    # Each SSP is checked once: its header as a set, and the values of all
    # its rows chained together, first for their types, then, when every
    # value is an int or None, as the set of its ranks. Only an SSP that
    # fails is walked entry by entry, so violations keep their text and
    # order. An entry is a non-null value under a header position; a value
    # past the header is no entry.
    out: list[Violation] = []
    n = scenario.connectivity
    ssp_ids = scenario.ssp_ids
    known_ssps = set(ssp_ids)
    known_suppliers = set(ssp_ids)
    for cfg in scenario.ssps:
        known_suppliers.update(p.id for p in cfg.producers)
    for cfg in scenario.ssps:
        prefs = cfg.preferences
        header, at, rows = prefs.suppliers, prefs.index, prefs.ranks
        consumer_ids = {c.id for c in cfg.consumers}
        partner_set = _linked(n.rows.get(cfg.id, {}), known_ssps) - {cfg.id}
        types = set(map(type, chain.from_iterable(rows.values())))
        values_ok = types <= {int, NoneType}
        if values_ok:
            # ints are hashable, and every rank fits a float iff the largest does
            ranks = set(chain.from_iterable(rows.values()))
            ranks.discard(None)
            values_ok = min(ranks, default=1) >= 1 and _fits_float(max(ranks, default=1))
        header_ok = len(at) == len(header) and at.keys() <= known_suppliers
        # every consumer has a full row of ints over a header that lists every producer and partner
        covered = (
            NoneType not in types
            and rows.keys() >= consumer_ids
            and at.keys() >= partner_set.union(p.id for p in cfg.producers)
            and set(map(len, rows.values())) <= {len(header)}
        )
        if values_ok and header_ok and covered and rows.keys() <= consumer_ids:
            continue
        if len(at) != len(header):
            for k, supplier_id in enumerate(header):
                if at[supplier_id] != k:
                    out.append(Violation(cfg.id, "preference-header-unique", f"supplier {supplier_id} listed more than once"))
        if not covered:
            partner_ids = [other for other in ssp_ids if other in partner_set]
            for consumer in cfg.consumers:
                for producer in cfg.producers:
                    if n.connected(consumer.id, producer.id) and not prefs.has(consumer.id, producer.id):
                        out.append(Violation(consumer.id, "preference-covered", f"no rank for local producer {producer.id}"))
                for partner in partner_ids:
                    if not prefs.has(consumer.id, partner):
                        out.append(Violation(consumer.id, "preference-covered", f"no rank for partner SSP {partner}"))
        for consumer_id, row in rows.items():
            if consumer_id not in consumer_ids:
                out.append(Violation(consumer_id, "preference-row-resolves", f"not a consumer of SSP {cfg.id}"))
            if values_ok and header_ok:
                continue
            for supplier_id, rank in zip(header, row):
                if rank is None:
                    continue
                if supplier_id not in known_suppliers:
                    out.append(Violation(consumer_id, "preference-col-resolves", f"unknown supplier {supplier_id}"))
                if isinstance(rank, bool) or not isinstance(rank, int) or rank < 1 or not _fits_float(rank):
                    out.append(Violation(consumer_id, "rank-positive-int", f"rank {rank!r} for {supplier_id}"))
    return out


def _fits_float(value: int) -> bool:
    """Whether ``float(value)`` holds ``value``; a rank becomes a float in the preference factor."""
    try:
        float(value)
    except OverflowError:
        return False
    return True


def _linked(cols: Mapping[str, int], ids: set[str]) -> set[str]:
    """The ids in ``ids`` that a connectivity row marks connected (a truthy entry)."""
    return ids.intersection(compress(cols.keys(), cols.values()))


def energy_status(ssp: SSPConfig) -> float:
    """Signed kWh position before matching: total production minus total demand."""
    return sum(p.energy for p in ssp.producers) - sum(c.energy for c in ssp.consumers)


class CommitmentMatrix:
    """kWh pledged from each supplier column to each consumer row.

    Rows are the consumer ids plus ``UTILITY_ID`` (sell-backs); columns are
    local producer ids, partner SSP ids, plus ``UTILITY_ID`` (purchases).
    Missing cells read as 0. cm(U, U) is always 0.
    """

    def __init__(self, consumer_ids: Iterable[str], supplier_ids: Iterable[str]):
        self.consumer_ids = tuple(consumer_ids)
        self.supplier_ids = tuple(supplier_ids)
        self._cells: dict[tuple[str, str], float] = {}

    def set(self, row_id: str, col_id: str, kwh: float) -> None:
        if row_id == UTILITY_ID and col_id == UTILITY_ID:
            raise ValueError("cm(U, U) must stay zero")
        self._cells[(row_id, col_id)] = kwh

    def get(self, row_id: str, col_id: str) -> float:
        return self._cells.get((row_id, col_id), 0.0)

    def row_ids(self) -> tuple[str, ...]:
        return self.consumer_ids + (UTILITY_ID,)

    def col_ids(self) -> tuple[str, ...]:
        return self.supplier_ids + (UTILITY_ID,)

    def committed_by_column(self) -> dict[str, float]:
        """The kWh each column with a consumer cell delivers to consumers, in one pass over the cells.

        Each column is summed in consumer order, so every total is the same
        float; a column without a consumer cell is absent and reads as 0.
        """
        order = {row_id: k for k, row_id in enumerate(self.consumer_ids)}
        consumer_cells = sorted(
            ((order[row_id], col_id, kwh) for (row_id, col_id), kwh in self._cells.items() if row_id in order),
            key=lambda cell: cell[0],
        )
        totals: dict[str, float] = {}
        for _, col_id, kwh in consumer_cells:
            totals[col_id] = totals.get(col_id, 0.0) + kwh
        return totals

    def purchases(self) -> float:
        return sum(self.get(i, UTILITY_ID) for i in self.consumer_ids)

    def sell_backs(self) -> float:
        return sum(self.get(UTILITY_ID, j) for j in self.supplier_ids)

    def cells(self) -> dict[tuple[str, str], float]:
        return dict(self._cells)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CommitmentMatrix):
            return NotImplemented
        return (
            self.consumer_ids == other.consumer_ids
            and self.supplier_ids == other.supplier_ids
            and self._cells == other._cells
        )


def utility_interaction(cm: CommitmentMatrix) -> float:
    """Total kWh exchanged with the Utility: purchases plus sell-backs, both positive."""
    return cm.purchases() + cm.sell_backs()
