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
file), so they are held as int64 arrays against a header: a
``PreferenceTable`` per SSP, and a ``ConnectivityMatrix`` of ``LinkBlock``s.
Each value rule lives in one place. A value's type is judged where its
table is built: ``from_rows`` refuses what no int64 holds (a bool, a float
other than a link's 0.0 or 1.0, a str, a larger integer). Every other rule
is ``validate_scenario``'s, checked over a whole table or block with set and
array operations, and walked entry by entry only to name a violation; N(i, U)
is read per consumer, through ``ConnectivityMatrix.connected``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, compress, repeat
from typing import Callable, Iterable, Mapping, Sequence

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


class TableValueError(ValueError):
    """A row or value that a rank or link table cannot hold.

    ``where`` names it as ``[row id]`` or ``[row id][header position]``;
    ``reason`` says what was expected.
    """

    def __init__(self, where: str, reason: str):
        super().__init__(f"{where}: {reason}")
        self.where = where
        self.reason = reason


def _positions(ids: Sequence[str]) -> dict[str, int]:
    """The first position of each id in ``ids``."""
    # built from the back, so an id listed twice keeps its first position
    return dict(zip(reversed(ids), range(len(ids) - 1, -1, -1)))


def _frozen(values: np.ndarray, dtype: type, shape: tuple[int, int], what: str) -> np.ndarray:
    values = np.asarray(values)
    if values.dtype != dtype or values.shape != shape:
        raise ValueError(f"{what}: expected a {dtype.__name__} array of shape {shape}, got {values.dtype} {values.shape}")
    values.flags.writeable = False
    return values


def _int_matrix(
    rows: Mapping[str, object], width: int, noun: str, accept: Callable[[object], int | None], expected: str
) -> tuple[np.ndarray, np.ndarray | None]:
    """``rows`` (row id -> a list of ``width`` values) as an int64 matrix and a
    mask of its entries, None when every value is one.

    ``accept`` maps a value to the int it stores, or to None for no entry,
    and raises ``TypeError`` for a value the table cannot hold. A table of
    Python ints alone, the common case, is judged with one type check and
    converted with one ``np.fromiter``; any other table value by value.
    """
    values = list(rows.values())
    if not all(map(isinstance, values, repeat(list))) or set(map(len, values)) - {width}:
        for row_id, row in rows.items():
            if not isinstance(row, list):
                raise TableValueError(f"[{row_id}]", f"expected a list, got {type(row).__name__}")
            if len(row) != width:
                raise TableValueError(f"[{row_id}]", f"{len(row)} values for {width} {noun}")
    shape = (len(values), width)
    if set(map(type, chain.from_iterable(values))) <= {int}:
        try:
            return np.fromiter(chain.from_iterable(values), np.int64, shape[0] * width).reshape(shape), None
        except OverflowError:
            pass
    stored, mask = [], []
    for row_id, row in rows.items():
        for k, value in enumerate(row):
            try:
                kept = accept(value)
            except TypeError:
                raise TableValueError(f"[{row_id}][{k}]", f"expected {expected}, got {value!r}") from None
            stored.append(0 if kept is None else kept)
            mask.append(kept is not None)
    return np.array(stored, dtype=np.int64).reshape(shape), None if all(mask) else np.array(mask).reshape(shape)


def _int64(value: object) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or not -(2**63) <= value < 2**63:
        raise TypeError
    return value


def _rank_value(value: object) -> int | None:
    return None if value is None else _int64(value)


def _link_value(value: object) -> int:
    # a writer may emit a link as 0.0 or 1.0; it counts as 0 or 1
    if type(value) is float and value in (0.0, 1.0):
        return int(value)
    return _int64(value)


@dataclass(frozen=True, eq=False)
class PreferenceTable:
    """Rank of each supplier (local producer or partner SSP) per consumer, as arrays.

    ``suppliers`` is the header: the supplier ids the table ranks, once each.
    ``consumers`` lists the row ids. ``ranks`` is a consumers x suppliers
    int64 matrix, and ``ranked`` marks the entries that hold a rank (the
    others read 0). ``validate_scenario`` judges the ranks: a rank is a
    positive integer, lower = more preferred, ties allowed, and every pair
    allowed by connectivity must have one. ``index`` maps each supplier id to
    its header position and ``row_of`` each consumer id to its row; both are
    built once, when the table is made, and with a supplier listed twice (a
    violation) ``index`` points at the first. ``from_rows`` builds a table
    from lists and refuses a value no int64 rank can hold.
    """

    suppliers: tuple[str, ...]
    consumers: tuple[str, ...]
    ranks: np.ndarray
    ranked: np.ndarray
    index: Mapping[str, int] = field(init=False, repr=False)
    row_of: Mapping[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        shape = (len(self.consumers), len(self.suppliers))
        object.__setattr__(self, "ranks", _frozen(self.ranks, np.int64, shape, "ranks"))
        object.__setattr__(self, "ranked", _frozen(self.ranked, np.bool_, shape, "ranked"))
        object.__setattr__(self, "index", _positions(self.suppliers))
        object.__setattr__(self, "row_of", _positions(self.consumers))
        if len(self.row_of) != len(self.consumers):
            raise ValueError("a consumer has more than one row")

    @classmethod
    def from_rows(cls, suppliers: Sequence[str], rows: Mapping[str, list]) -> PreferenceTable:
        """The table of ``rows`` (consumer id -> one value per header position, None for no rank).

        Raises ``TableValueError`` naming a row that is not a list as long as
        the header, or a value that is not an int64 or None: a bool, a float,
        a str or a larger integer.
        """
        suppliers = tuple(suppliers)
        ranks, ranked = _int_matrix(rows, len(suppliers), "suppliers", _rank_value, "a 64-bit integer rank or null")
        return cls(suppliers, tuple(rows), ranks, np.ones(ranks.shape, dtype=bool) if ranked is None else ranked)

    def rank(self, consumer_id: str, supplier_id: str) -> int:
        r, k = self.row_of.get(consumer_id), self.index.get(supplier_id)
        if r is None or k is None or not self.ranked[r, k]:
            raise KeyError(f"no preference rank for ({consumer_id}, {supplier_id})")
        return int(self.ranks[r, k])

    def has(self, consumer_id: str, supplier_id: str) -> bool:
        r, k = self.row_of.get(consumer_id), self.index.get(supplier_id)
        return r is not None and k is not None and bool(self.ranked[r, k])

    def gather(self, consumer_ids: Sequence[str], supplier_ids: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """(ranks, ranked) of every (consumer, supplier) pair, consumers x suppliers; a pair off the table has no rank."""
        rows = list(map(self.row_of.get, consumer_ids, repeat(-1)))
        cols = list(map(self.index.get, supplier_ids, repeat(-1)))
        return _take(self.ranks, rows, cols, 0), _take(self.ranked, rows, cols, False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PreferenceTable):
            return NotImplemented
        return (
            (self.suppliers, self.consumers) == (other.suppliers, other.consumers)
            and np.array_equal(self.ranks, other.ranks)
            and np.array_equal(self.ranked, other.ranked)
        )


def _take(matrix: np.ndarray, rows: list[int], cols: list[int], fill: object) -> np.ndarray:
    """The entries of ``matrix`` at every row position in ``rows`` and column position in ``cols``; ``fill`` at a position of -1."""
    if -1 not in rows and -1 not in cols:
        # the (read-only) matrix itself where every row and column is taken in order
        if rows != list(range(matrix.shape[0])):
            matrix = matrix[rows]
        return matrix if cols == list(range(matrix.shape[1])) else matrix[:, cols]
    if not matrix.size:
        return np.full((len(rows), len(cols)), fill, dtype=matrix.dtype)
    out = matrix[rows][:, cols]
    out[np.less(rows, 0)] = fill
    out[:, np.less(cols, 0)] = fill
    return out


@dataclass(frozen=True, eq=False)
class LinkBlock:
    """Links N(i, j) of some rows against a header of columns, as an int64 matrix.

    ``cols`` is the header and ``rows`` the row ids; ``links`` is a rows x
    cols matrix, whose every entry ``validate_scenario`` wants 0 or 1.
    ``row_at`` and ``col_at`` map an id to its first position. ``from_rows``
    builds a block from lists and refuses a value no int64 link can hold.
    """

    rows: tuple[str, ...]
    cols: tuple[str, ...]
    links: np.ndarray
    row_at: Mapping[str, int] = field(init=False, repr=False)
    col_at: Mapping[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "links", _frozen(self.links, np.int64, (len(self.rows), len(self.cols)), "links"))
        object.__setattr__(self, "row_at", _positions(self.rows))
        object.__setattr__(self, "col_at", _positions(self.cols))
        if len(self.row_at) != len(self.rows):
            raise ValueError("a row is listed more than once in a link block")

    @classmethod
    def from_rows(cls, cols: Sequence[str], rows: Mapping[str, list]) -> LinkBlock:
        """The block of ``rows`` (row id -> one link per header position).

        Raises ``TableValueError`` naming a row that is not a list as long as
        the header, or a value that is neither an int64 nor the float 0.0 or
        1.0: a bool, another float, a str, null or a larger integer.
        """
        cols = tuple(cols)
        links, _ = _int_matrix(rows, len(cols), "columns", _link_value, "a 64-bit integer link")
        return cls(tuple(rows), cols, links)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinkBlock):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and np.array_equal(self.links, other.links)


@dataclass(frozen=True, eq=False)
class ConnectivityMatrix:
    """Binary reachability N(i, j), as link blocks.

    ``ssps`` holds the rows of the SSPs, and ``consumers`` one block per SSP
    id for that SSP's consumers. Columns are producer ids, SSP ids, or
    ``UTILITY_ID``. A missing row or column means 0 (not connected). Every
    consumer must have N(i, U) = 1, and the inter-SSP block must be
    symmetric with a zero diagonal. A row id is found in the first block
    that lists it, the SSP block first; ``validate_scenario`` names a row
    outside its own block.
    """

    ssps: LinkBlock = field(default_factory=lambda: LinkBlock.from_rows((), {}))
    consumers: Mapping[str, LinkBlock] = field(default_factory=dict)
    _where: Mapping[str, tuple[LinkBlock, int]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        where: dict[str, tuple[LinkBlock, int]] = {}
        for block in (*reversed(self.consumers.values()), self.ssps):
            where.update(zip(block.rows, zip(repeat(block), range(len(block.rows)))))
        object.__setattr__(self, "_where", where)

    def blocks(self) -> list[tuple[str | None, LinkBlock]]:
        """(SSP id, block) of each block: the SSP block (id None) first, then the consumer blocks."""
        return [(None, self.ssps), *self.consumers.items()]

    def connected(self, row_id: str, col_id: str) -> bool:
        found = self._where.get(row_id)
        if found is None:
            return False
        block, r = found
        c = block.col_at.get(col_id)
        return c is not None and bool(block.links[r, c])

    def values(self, row_ids: Sequence[str], col_ids: Sequence[str]) -> np.ndarray:
        """N(i, j) of every row id i and column id j, rows x columns, read by block; 0 where either is absent."""
        found = list(map(self._where.get, row_ids))
        out = np.zeros((len(found), len(col_ids)), dtype=np.int64)
        for block in {id(f[0]): f[0] for f in found if f is not None}.values():
            at = [k for k, f in enumerate(found) if f is not None and f[0] is block]
            taken = _take(block.links, [found[k][1] for k in at], list(map(block.col_at.get, col_ids, repeat(-1))), 0)
            if len(at) == len(found):
                return taken
            out[at] = taken
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConnectivityMatrix):
            return NotImplemented
        return self.ssps == other.ssps and dict(self.consumers) == dict(other.consumers)


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
    # Each rule runs first over whole blocks, as set and array operations;
    # only a block that fails it is walked entry by entry, so violations
    # name their entries in block, row and header order. N(i, U) is read
    # per consumer where connected() reads it: a row listed in two blocks
    # is read from the first.
    out: list[Violation] = []
    n = scenario.connectivity
    known_cols = set(ssp_ids) | {UTILITY_ID}
    known_rows = set(ssp_ids)
    home_rows: dict[str | None, set[str]] = {None: set(ssp_ids)}
    for cfg in scenario.ssps:
        home_rows[cfg.id] = {s.id for s in cfg.consumers}
        known_rows.update(home_rows[cfg.id])
        known_cols.update(s.id for s in cfg.producers)
    blocks = n.blocks()
    every_link = np.concatenate([block.links.ravel() for _, block in blocks])
    all_binary = every_link.size == 0 or (int(every_link.min()) >= 0 and int(every_link.max()) <= 1)
    for ssp_id, block in blocks:
        home = home_rows.get(ssp_id, set())
        if len(block.col_at) != len(block.cols):
            for k, col_id in enumerate(block.cols):
                if block.col_at[col_id] != k:
                    where = "connectivity" if ssp_id is None else ssp_id
                    out.append(Violation(where, "connectivity-header-unique", f"column {col_id} listed more than once"))
        links = block.links
        binary = all_binary or links.size == 0 or (int(links.min()) >= 0 and int(links.max()) <= 1)
        cols_ok = known_cols.issuperset(block.col_at)
        if binary and cols_ok and home.issuperset(block.row_at):
            continue
        for row_id, values in zip(block.rows, links.tolist()):
            if row_id not in home:
                block_name = "SSP block" if ssp_id is None else f"block of SSP {ssp_id}"
                detail = "unknown row id" if row_id not in known_rows else f"not a row of the {block_name}"
                out.append(Violation(row_id, "connectivity-row-resolves", detail))
            if binary and cols_ok:
                continue
            for col_id, value in zip(block.cols, values):
                if col_id not in known_cols:
                    out.append(Violation(col_id, "connectivity-col-resolves", f"unknown column id in row {row_id}"))
                if value not in (0, 1):
                    out.append(Violation(row_id, "connectivity-binary", f"N({row_id}, {col_id}) = {value}"))
    for cfg in scenario.ssps:
        for sub in cfg.consumers:
            if not n.connected(sub.id, UTILITY_ID):
                out.append(Violation(sub.id, "utility-reachable", "consumer must have N(i, U) = 1"))
    linked = n.values(ssp_ids, ssp_ids) != 0
    # the block is symmetric with a zero diagonal iff it equals its transpose and no SSP lists itself
    if linked.diagonal().any() or (linked != linked.T).any():
        for i, a in enumerate(ssp_ids):
            if linked[i, i]:
                out.append(Violation(a, "interssp-zero-diagonal", "SSP connected to itself"))
            for j, b in enumerate(ssp_ids):
                if a < b and linked[i, j] != linked[j, i]:
                    out.append(Violation(f"({a}, {b})", "interssp-symmetric", "asymmetric inter-SSP entry"))
    return out


def _validate_preferences(scenario: Scenario) -> list[Violation]:
    # Each SSP's table is checked once: its ranks as one array, its header
    # and rows as sets. Only an SSP that fails is walked entry by entry, so
    # violations keep their text and order. An entry is a ranked position
    # of a row.
    out: list[Violation] = []
    n = scenario.connectivity
    ssp_ids = scenario.ssp_ids
    known_suppliers = set(ssp_ids)
    for cfg in scenario.ssps:
        known_suppliers.update(p.id for p in cfg.producers)
    linked = (n.values(ssp_ids, ssp_ids) != 0).tolist()
    for k, cfg in enumerate(scenario.ssps):
        prefs = cfg.preferences
        header, at = prefs.suppliers, prefs.index
        consumer_ids = {c.id for c in cfg.consumers}
        complete = bool(prefs.ranked.all())
        ranks = prefs.ranks if complete else prefs.ranks[prefs.ranked]
        ranks_ok = ranks.size == 0 or int(ranks.min()) >= 1
        unique = len(at) == len(header)
        header_ok = unique and known_suppliers.issuperset(at)
        rows_resolve = prefs.row_of.keys() == consumer_ids
        # every consumer has a full row over a header that lists every producer and
        # linked SSP; a self-link, a violation of its own, sends the table to the walk
        listed = chain((p.id for p in cfg.producers), compress(ssp_ids, linked[k]))
        covered = complete and prefs.row_of.keys() >= consumer_ids and all(map(at.__contains__, listed))
        if ranks_ok and header_ok and covered and rows_resolve:
            continue
        if not unique:
            for j, supplier_id in enumerate(header):
                if at[supplier_id] != j:
                    out.append(Violation(cfg.id, "preference-header-unique", f"supplier {supplier_id} listed more than once"))
        if not covered:
            partner_ids = [other for other, link in zip(ssp_ids, linked[k]) if link and other != cfg.id]
            for consumer in cfg.consumers:
                for producer in cfg.producers:
                    if n.connected(consumer.id, producer.id) and not prefs.has(consumer.id, producer.id):
                        out.append(Violation(consumer.id, "preference-covered", f"no rank for local producer {producer.id}"))
                for partner in partner_ids:
                    if not prefs.has(consumer.id, partner):
                        out.append(Violation(consumer.id, "preference-covered", f"no rank for partner SSP {partner}"))
        for consumer_id, row, ranked in zip(prefs.consumers, prefs.ranks.tolist(), prefs.ranked.tolist()):
            if consumer_id not in consumer_ids:
                out.append(Violation(consumer_id, "preference-row-resolves", f"not a consumer of SSP {cfg.id}"))
            if ranks_ok and header_ok:
                continue
            for supplier_id, rank in compress(zip(header, row), ranked):
                if supplier_id not in known_suppliers:
                    out.append(Violation(consumer_id, "preference-col-resolves", f"unknown supplier {supplier_id}"))
                if rank < 1:
                    out.append(Violation(consumer_id, "rank-positive-int", f"rank {rank!r} for {supplier_id}"))
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
