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

The fleet tables, ranks and links, grow as N² with N SSPs (408,000 ranks and
51,800 links at 200 SSPs of 10 consumers and 5 producers; 2.1 MB of scenario
file), so they are held as int64 arrays against a header. Each table lives
with what owns it: an SSP holds its ``PreferenceTable`` and the ``LinkBlock``
of its consumers (``SSPConfig.links``, against its producers and U), and the
scenario holds the ``LinkBlock`` of the SSP rows (``Scenario.ssp_links``).
Every reader reads the block that owns the row, so an SSP needs no other
SSP's links. Both kinds are one table type, in which 0 means no entry: a
rank is at least 1, and a link is 1. Each value rule lives in one place.
What a value may be is the kind's, judged where its table is built: the
array constructor refuses a negative rank or a link other than 0 and 1, and
``from_rows`` refuses a file value its kind cannot hold (a rank below 1, a
link other than 0, 1, 0.0 or 1.0, a bool, a str, an integer beyond int64),
naming the entry. Every rule between entries, ids and SSPs is
``validate_scenario``'s, checked over a whole table or block with set and
array operations, and walked entry by entry only to name a violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, compress, repeat
from typing import ClassVar, Iterable, Mapping, Sequence, TypeVar

import numpy as np

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


def _positions(ids: Sequence[str]) -> dict[str, int]:
    """The first position of each id in ``ids``."""
    # built from the back, so an id listed twice keeps its first position
    return dict(zip(reversed(ids), range(len(ids) - 1, -1, -1)))


_T = TypeVar("_T", bound="_Table")


@dataclass(frozen=True, eq=False)
class _Table:
    """Integer values of some rows against a header of columns, as an int64 matrix; 0 means no entry.

    ``rows`` are the row ids and ``cols`` the header; ``values`` is a
    read-only rows x cols matrix. ``row_at`` and ``col_at`` map an id to its
    first position, built once; a row id listed twice is refused. Each kind
    fixes what its values may be, and the table refuses the rest where it is
    built: the array constructor a value outside 0..``TOP``, ``from_rows`` a
    file value its kind's ``_read`` does not take.
    """

    rows: tuple[str, ...]
    cols: tuple[str, ...]
    values: np.ndarray
    row_at: Mapping[str, int] = field(init=False, repr=False)
    col_at: Mapping[str, int] = field(init=False, repr=False)

    #: the largest value; the least is 0, no entry
    TOP: ClassVar[int]
    #: the least value a file writes as an integer
    LEAST: ClassVar[int]
    #: what a file writes for no entry
    NO_ENTRY: ClassVar[object]
    #: what the header lists, and what a file value may be, for the messages of ``from_rows``
    NOUN: ClassVar[str]
    EXPECTED: ClassVar[str]

    def __post_init__(self) -> None:
        values = np.asarray(self.values)
        shape = (len(self.rows), len(self.cols))
        if values.dtype != np.int64 or values.shape != shape:
            raise ValueError(f"expected an int64 array of shape {shape}, got {values.dtype} {values.shape}")
        if values.size and (values.min() < 0 or values.max() > self.TOP):
            raise ValueError(f"a {type(self).__name__} holds values from 0 to {self.TOP}, got {values.min()} to {values.max()}")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "row_at", _positions(self.rows))
        object.__setattr__(self, "col_at", _positions(self.cols))
        if len(self.row_at) != len(self.rows):
            raise ValueError(f"a row is listed more than once in a {type(self).__name__}")

    @staticmethod
    def _read(value: object) -> int | None:
        """The value a file value stands for, or None for one the kind cannot hold."""
        raise NotImplementedError

    @classmethod
    def from_rows(cls: type[_T], cols: Sequence[str], rows: Mapping[str, list]) -> _T:
        """The table of ``rows`` (row id -> one file value per header position).

        Raises ``ValueError`` naming, as ``[row id]`` or ``[row id][position]``,
        the first row that is not a list as long as the header, or the first
        value in row-major order that ``_read`` does not take. A table of
        Python ints alone, the common case, is judged with one type check, one
        ``np.fromiter`` and one range check; any other table value by value.
        """
        cols = tuple(cols)
        lists = list(rows.values())
        if not all(map(isinstance, lists, repeat(list))) or set(map(len, lists)) - {len(cols)}:
            for row_id, row in rows.items():
                if not isinstance(row, list):
                    raise ValueError(f"[{row_id}]: expected a list, got {type(row).__name__}")
                if len(row) != len(cols):
                    raise ValueError(f"[{row_id}]: {len(row)} values for {len(cols)} {cls.NOUN}")
        shape = (len(lists), len(cols))
        values = None
        if set(map(type, chain.from_iterable(lists))) <= {int}:
            try:
                values = np.fromiter(chain.from_iterable(lists), np.int64, shape[0] * shape[1]).reshape(shape)
            except OverflowError:
                pass
        if values is None or (values.size and (values.min() < cls.LEAST or values.max() > cls.TOP)):
            stored = []
            for row_id, row in rows.items():
                for k, value in enumerate(row):
                    kept = cls._read(value)
                    if kept is None:
                        raise ValueError(f"[{row_id}][{k}]: expected {cls.EXPECTED}, got {value!r}")
                    stored.append(kept)
            values = np.array(stored, dtype=np.int64).reshape(shape)
        return cls(tuple(rows), cols, values)

    def to_rows(self) -> dict[str, list]:
        """Each row as a list over the header, ``NO_ENTRY`` for 0: what ``from_rows`` reads back."""
        values = self.values
        if self.NO_ENTRY != 0 and not values.all():
            values = np.where(values == 0, self.NO_ENTRY, values)
        return dict(zip(self.rows, values.tolist()))

    def get(self, row_id: str, col_id: str) -> int:
        """The value of (row id, column id); 0 where either is absent."""
        r, c = self.row_at.get(row_id), self.col_at.get(col_id)
        return 0 if r is None or c is None else int(self.values[r, c])

    def take(self, row_ids: Sequence[str], col_ids: Sequence[str]) -> np.ndarray:
        """The values of every (row id, column id) pair, rows x columns; 0 where either is absent."""
        # an absent id takes position -1: the zero row or column appended here
        padded = np.zeros((len(self.rows) + 1, len(self.cols) + 1), dtype=np.int64)
        padded[:-1, :-1] = self.values
        rows = list(map(self.row_at.get, row_ids, repeat(-1)))
        cols = list(map(self.col_at.get, col_ids, repeat(-1)))
        return padded[rows][:, cols]

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and np.array_equal(self.values, other.values)


class PreferenceTable(_Table):
    """Rank of each supplier (local producer or partner SSP) per consumer.

    ``cols`` lists the supplier ids and ``rows`` the consumer ids. A rank is
    at least 1, lower = more preferred, ties allowed; 0 means no rank, and a
    file writes it as null. ``validate_scenario`` wants a rank for every pair
    a link allows.
    """

    TOP = 2**63 - 1
    LEAST = 1
    NO_ENTRY = None
    NOUN = "suppliers"
    EXPECTED = "a 64-bit integer rank of at least 1, or null"

    @staticmethod
    def _read(value: object) -> int | None:
        if value is None:
            return 0
        return value if type(value) is int and 1 <= value < 2**63 else None


class LinkBlock(_Table):
    """Links N(i, j) of some rows against a header of columns: 1 where i reaches j, 0 where it does not.

    A file writes a link as 0 or 1; a writer may emit 0.0 or 1.0, which count as 0 or 1.
    """

    TOP = 1
    LEAST = 0
    NO_ENTRY = 0
    NOUN = "columns"
    EXPECTED = "a link of 0 or 1"

    @staticmethod
    def _read(value: object) -> int | None:
        return int(value) if type(value) in (int, float) and value in (0, 1) else None


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
    """One SSP: its consumers, producers, local preference table and the links of its consumers (none by default)."""

    id: str
    consumers: tuple[Subscriber, ...]
    producers: tuple[Subscriber, ...]
    preferences: PreferenceTable
    links: LinkBlock = field(default_factory=lambda: LinkBlock.from_rows((), {}))


@dataclass(frozen=True)
class Scenario:
    """SSPs and the links between them: ``ssp_links`` has the SSP rows, symmetric with a zero diagonal."""

    ssps: tuple[SSPConfig, ...]
    ssp_links: LinkBlock
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

    # the SSP block is read once, for the connectivity and the preference rules
    linked = scenario.ssp_links.take(ssp_ids, ssp_ids) != 0
    out.extend(_validate_connectivity(scenario, ssp_ids, linked))
    out.extend(_validate_preferences(scenario, ssp_ids, linked))

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
        # one SSP's LP alone decides a consumer's flows from the Utility and
        # from the producers of its SSP; a flow from another SSP also needs
        # that SSP's offer, so a bound on it could not be kept
        home_of = {c.id: cfg for cfg in scenario.ssps for c in cfg.consumers}
        producer_ssp = {p.id: cfg.id for cfg in scenario.ssps for p in cfg.producers}
        bounded: set[tuple[str, str]] = set()
        for lc in scenario.line_constraints.constraints:
            pair = f"({lc.row_id}, {lc.col_id})"
            home = home_of.get(lc.row_id)
            if (lc.row_id, lc.col_id) in bounded:
                # LineConstraintSet.of_row would silently apply only the first
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
            elif home is None or not (lc.col_id == UTILITY_ID or producer_ssp.get(lc.col_id) == home.id):
                out.append(Violation(pair, "line-decided-flow", "not a consumer's flow from U or its SSP's producer"))
            elif undefined:
                out.append(Violation(pair, "line-bound-defined", ", ".join(undefined)))
            elif lc.min_kwh > lc.max_kwh:
                out.append(Violation(pair, "line-bounds-ordered", f"min {lc.min_kwh} > max {lc.max_kwh}"))
            elif lc.max_kwh < 0.0:
                out.append(Violation(pair, "line-max-nonnegative", f"max {lc.max_kwh} < 0; flows are non-negative"))
            elif not (lc.min_kwh <= 0.0 <= lc.max_kwh) and not home.links.get(lc.row_id, lc.col_id):
                out.append(Violation(pair, "line-bounds-allow-unused", "disconnected pair must admit zero flow"))

    seed = scenario.seed
    if isinstance(seed, bool) or not isinstance(seed, int) or not -(2**63) <= seed < 2**63:
        out.append(Violation("seed", "seed-64bit", f"seed {seed!r} outside 64-bit range"))
    return out


def _validate_connectivity(scenario: Scenario, ssp_ids: list[str], linked: np.ndarray) -> list[Violation]:
    # Each rule runs first over whole blocks, as set and array operations;
    # only a block that fails it is walked row by row, so violations name
    # their entries in block, row and header order: the SSP block, then each
    # SSP's block in SSP order. ``linked`` is the SSP block over ``ssp_ids``.
    out: list[Violation] = []
    known_cols = set(ssp_ids) | {UTILITY_ID}
    known_rows = set(ssp_ids)
    blocks = [(None, scenario.ssp_links, set(ssp_ids))]
    for cfg in scenario.ssps:
        consumer_ids = {s.id for s in cfg.consumers}
        blocks.append((cfg.id, cfg.links, consumer_ids))
        known_rows.update(consumer_ids)
        known_cols.update(s.id for s in cfg.producers)
    for ssp_id, block, home in blocks:
        if len(block.col_at) != len(block.cols):
            for k, col_id in enumerate(block.cols):
                if block.col_at[col_id] != k:
                    where = "connectivity" if ssp_id is None else ssp_id
                    out.append(Violation(where, "connectivity-header-unique", f"column {col_id} listed more than once"))
        unknown_cols = [col_id for col_id in block.cols if col_id not in known_cols]
        if not unknown_cols and home.issuperset(block.row_at):
            continue
        for row_id in block.rows:
            if row_id not in home:
                block_name = "SSP block" if ssp_id is None else f"block of SSP {ssp_id}"
                detail = "unknown row id" if row_id not in known_rows else f"not a row of the {block_name}"
                out.append(Violation(row_id, "connectivity-row-resolves", detail))
            for col_id in unknown_cols:
                out.append(Violation(col_id, "connectivity-col-resolves", f"unknown column id in row {row_id}"))
    for cfg in scenario.ssps:
        # the rows of the SSP's block with N(i, U) = 1, read from its U column once
        u = cfg.links.col_at.get(UTILITY_ID)
        reaching = set() if u is None else set(compress(cfg.links.rows, cfg.links.values[:, u].tolist()))
        if not reaching.issuperset([c.id for c in cfg.consumers]):
            for sub in cfg.consumers:
                if sub.id not in reaching:
                    out.append(Violation(sub.id, "utility-reachable", "consumer must have N(i, U) = 1"))
    # the block is symmetric with a zero diagonal iff it equals its transpose and no SSP lists itself
    if linked.diagonal().any() or (linked != linked.T).any():
        for i, a in enumerate(ssp_ids):
            if linked[i, i]:
                out.append(Violation(a, "interssp-zero-diagonal", "SSP connected to itself"))
            for j, b in enumerate(ssp_ids):
                if a < b and linked[i, j] != linked[j, i]:
                    out.append(Violation(f"({a}, {b})", "interssp-symmetric", "asymmetric inter-SSP entry"))
    return out


def _validate_preferences(scenario: Scenario, ssp_ids: list[str], linked: np.ndarray) -> list[Violation]:
    # Each SSP's table is checked once: its values as one array, its header
    # and rows as sets. Only an SSP that fails is walked entry by entry, so
    # violations keep their text and order. An entry is a nonzero value of
    # a row. ``linked`` is the SSP block over ``ssp_ids``.
    out: list[Violation] = []
    known_suppliers = set(ssp_ids)
    for cfg in scenario.ssps:
        known_suppliers.update(p.id for p in cfg.producers)
    linked = linked.tolist()
    for k, cfg in enumerate(scenario.ssps):
        prefs = cfg.preferences
        header, at = prefs.cols, prefs.col_at
        consumer_ids = {c.id for c in cfg.consumers}
        unique = len(at) == len(header)
        header_ok = unique and known_suppliers.issuperset(at)
        rows_resolve = prefs.row_at.keys() == consumer_ids
        # every consumer has a full row over a header that lists every producer and
        # linked SSP; a self-link, a violation of its own, sends the table to the walk
        listed = chain((p.id for p in cfg.producers), compress(ssp_ids, linked[k]))
        covered = bool(prefs.values.all()) and prefs.row_at.keys() >= consumer_ids and all(map(at.__contains__, listed))
        if header_ok and covered and rows_resolve:
            continue
        if not unique:
            for j, supplier_id in enumerate(header):
                if at[supplier_id] != j:
                    out.append(Violation(cfg.id, "preference-header-unique", f"supplier {supplier_id} listed more than once"))
        if not covered:
            partner_ids = [other for other, link in zip(ssp_ids, linked[k]) if link and other != cfg.id]
            for consumer in cfg.consumers:
                for producer in cfg.producers:
                    if cfg.links.get(consumer.id, producer.id) and not prefs.get(consumer.id, producer.id):
                        out.append(Violation(consumer.id, "preference-covered", f"no rank for local producer {producer.id}"))
                for partner in partner_ids:
                    if not prefs.get(consumer.id, partner):
                        out.append(Violation(consumer.id, "preference-covered", f"no rank for partner SSP {partner}"))
        for consumer_id, row in zip(prefs.rows, prefs.values.tolist()):
            if consumer_id not in consumer_ids:
                out.append(Violation(consumer_id, "preference-row-resolves", f"not a consumer of SSP {cfg.id}"))
            if header_ok:
                continue
            for supplier_id, rank in zip(header, row):
                if rank and supplier_id not in known_suppliers:
                    out.append(Violation(consumer_id, "preference-col-resolves", f"unknown supplier {supplier_id}"))
    return out


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
        self._rows: dict[str, dict[str, float]] = {}  # row id -> column id -> kWh

    def set(self, row_id: str, col_id: str, kwh: float) -> None:
        if row_id == UTILITY_ID and col_id == UTILITY_ID:
            raise ValueError("cm(U, U) must stay zero")
        self._rows.setdefault(row_id, {})[col_id] = kwh

    def get(self, row_id: str, col_id: str) -> float:
        row = self._rows.get(row_id)
        return 0.0 if row is None else row.get(col_id, 0.0)

    def row_ids(self) -> tuple[str, ...]:
        return self.consumer_ids + (UTILITY_ID,)

    def col_ids(self) -> tuple[str, ...]:
        return self.supplier_ids + (UTILITY_ID,)

    def committed_by_column(self) -> dict[str, float]:
        """The kWh each column with a consumer cell delivers to consumers, row by row.

        Each column is summed in consumer order, so every total is the same
        float; a column without a consumer cell is absent and reads as 0.
        """
        totals: dict[str, float] = {}
        rows = self._rows
        for row_id in self.consumer_ids:
            for col_id, kwh in rows.get(row_id, {}).items():
                totals[col_id] = totals.get(col_id, 0.0) + kwh
        return totals

    def purchases(self) -> float:
        return sum(self.get(i, UTILITY_ID) for i in self.consumer_ids)

    def sell_backs(self) -> float:
        return sum(self.get(UTILITY_ID, j) for j in self.supplier_ids)

    def cells(self) -> dict[tuple[str, str], float]:
        """Every set cell, row by row in the order rows were first set, each row's cells in the order they were first set."""
        return {(row_id, col_id): kwh for row_id, row in self._rows.items() for col_id, kwh in row.items()}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CommitmentMatrix):
            return NotImplemented
        return (
            self.consumer_ids == other.consumer_ids
            and self.supplier_ids == other.supplier_ids
            and self._rows == other._rows
        )


def utility_interaction(cm: CommitmentMatrix) -> float:
    """Total kWh exchanged with the Utility: purchases plus sell-backs, both positive."""
    return cm.purchases() + cm.sell_backs()
