"""Seeded scenario generation and strict JSON persistence.

Generation draws each demand and production as max(0, Normal(mean, stddev))
from numpy's PCG64 stream, so a spec (including its seed) always produces the
same scenario byte for byte. The serialized file is the portable artifact: the
generator identity is recorded in it, and reproducing a scenario from the seed
is only guaranteed within this implementation; other implementations should
consume the file.

Each SSP's ranks are stored once against a supplier header (file format
version 3): ``"preferences": {"suppliers": [ids], "ranks": {consumer id:
[rank or null, ...]}}``, one row per consumer, aligned with the header, where
null means no rank. Connectivity is stored the same way, as link blocks:
``"connectivity": {"ssps": block, "consumers": {SSP id: block}}``, where a
block is ``{"cols": [ids], "rows": {row id: [0 or 1, ...]}}``, one for the
SSP rows (``Scenario.ssp_links``) and one per SSP for its consumers
(``SSPConfig.links``). The writer emits one consumer block per SSP, in SSP
order; the loader attaches each to its SSP, gives an SSP without one no
links, and refuses a block keyed by an id that is no SSP of the file,
naming ``connectivity.consumers[<id>]``. The generator's rank header
lists the SSP's producers, then the partner SSPs; each consumer's row takes
two ``rng.permutation`` draws, the producers' first and the partners'
second, written straight into the SSP's rank matrix. These are the same
PCG64 calls, in the same order, as in earlier versions of this module, so a
spec gives the same ranks as before. With N SSPs of C consumers and P
producers, a file holds C × (P + N − 1) ranks per SSP, N² SSP links and
C × (P + 1) consumer links per SSP: 2.1 MB at 200 SSPs of the study-1 shape
(C = 10, P = 5). The writer keeps each table's header and row order and
emits each matrix with one ``tolist()``. The loader refuses every other
``schema_version``, versions 1 and 2 included, and names that field.

The JSON schema is strict: unknown fields are rejected by name, canonical
field order is documented in ``scenario.schema.json`` shipped next to this
module.

The loader checks what it needs to build a ``Scenario``: the JSON shape (a
row is a list as long as its header), numbers it converts to ``float``
(naming the field), kinds and ids, every header's ids included. Each rank
table and link block is built by ``PreferenceTable.from_rows`` or
``LinkBlock.from_rows``, which hold each value to its kind's rule (a rank of
at least 1 or null, a link of 0 or 1) with one type check, one
``np.fromiter`` and one range check per table when every value is an int,
and refuse any other value; the loader names that entry. The seed is stored
as read, and ``model.validate_scenario`` judges it with how the entries, ids
and SSPs fit together.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, TypeVar

import numpy as np

from .model import (
    UTILITY_ID,
    LineConstraint,
    LineConstraintSet,
    LinkBlock,
    MatchingWeights,
    PreferenceTable,
    Scenario,
    SSPConfig,
    Subscriber,
    SubscriberKind,
    validate_scenario,
)

SCHEMA_VERSION = 3
GENERATOR_NAME = "numpy-pcg64"
#: the one preference form: the factor 1 + alpha*(beta - rank) scales w35 in each cm coefficient
PREFERENCE_MODE = "coefficient"

Table = TypeVar("Table", PreferenceTable, LinkBlock)


class ScenarioFormatError(ValueError):
    """Parse or schema failure with a field name or byte offset."""


class GeneratorSpecError(ValueError):
    """Structurally invalid generator spec."""


@dataclass(frozen=True)
class GeneratorSpec:
    """Shape and statistics of a synthetic population of SSPs."""

    n_ssps: int
    consumers_per_ssp: int
    producers_per_ssp: int
    passive_consumers: int = 0
    passive_consumer_bound: float = 0.0
    passive_producers: int = 0
    passive_producer_bound: float = 0.0
    demand_mean_kwh: float = 12.0
    supply_mean_kwh: float = 15.0
    noise_std_kwh: float = 3.0
    seed: int = 0


def _check_spec(spec: GeneratorSpec) -> None:
    if spec.n_ssps < 1:
        raise GeneratorSpecError("n_ssps must be >= 1")
    if spec.consumers_per_ssp < 0 or spec.producers_per_ssp < 0:
        raise GeneratorSpecError("subscriber counts must be >= 0")
    if not 0 <= spec.passive_consumers <= spec.consumers_per_ssp:
        raise GeneratorSpecError("passive_consumers must be within the consumer count")
    if not 0 <= spec.passive_producers <= spec.producers_per_ssp:
        raise GeneratorSpecError("passive_producers must be within the producer count")
    for name in ("passive_consumer_bound", "passive_producer_bound"):
        if not 0.0 <= getattr(spec, name) <= 1.0:
            raise GeneratorSpecError(f"{name} must be in [0, 1]")
    for name in ("demand_mean_kwh", "supply_mean_kwh", "noise_std_kwh"):
        if not math.isfinite(getattr(spec, name)):
            raise GeneratorSpecError(f"{name} must be finite, got {getattr(spec, name)}")
    if spec.noise_std_kwh < 0:
        raise GeneratorSpecError("noise_std_kwh must be >= 0")
    if spec.demand_mean_kwh < 0 or spec.supply_mean_kwh < 0:
        raise GeneratorSpecError("means must be >= 0")
    if not 0 <= spec.seed < 2**63:
        raise GeneratorSpecError(f"seed must be in [0, 2**63), got {spec.seed}")


def generate_scenario(spec: GeneratorSpec, weights: MatchingWeights | None = None) -> Scenario:
    """Deterministic synthetic scenario: uniform priorities, shuffled preference
    ranks (local producers first, partner SSPs after), full local connectivity
    and a full inter-SSP mesh. Always validates clean."""
    _check_spec(spec)
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    ssp_ids = [f"S{k:02d}" for k in range(1, spec.n_ssps + 1)]
    ssps: list[SSPConfig] = []

    for ssp_id in ssp_ids:
        consumers: list[Subscriber] = []
        producers: list[Subscriber] = []
        n_cons = spec.consumers_per_ssp
        priority = 1.0 / n_cons if n_cons else 0.0
        demands = rng.normal(spec.demand_mean_kwh, spec.noise_std_kwh, size=n_cons).tolist()
        supplies = rng.normal(spec.supply_mean_kwh, spec.noise_std_kwh, size=spec.producers_per_ssp).tolist()
        for m in range(n_cons):
            passive = m < spec.passive_consumers
            consumers.append(
                Subscriber(
                    id=f"{ssp_id}.C{m + 1:02d}",
                    kind=SubscriberKind.PASSIVE_CONSUMER if passive else SubscriberKind.ACTIVE_CONSUMER,
                    energy=max(0.0, demands[m]),
                    bound=spec.passive_consumer_bound if passive else 0.0,
                    priority=priority,
                )
            )
        for m in range(spec.producers_per_ssp):
            passive = m < spec.passive_producers
            producers.append(
                Subscriber(
                    id=f"{ssp_id}.P{m + 1:02d}",
                    kind=SubscriberKind.PASSIVE_PRODUCER if passive else SubscriberKind.ACTIVE_PRODUCER,
                    energy=max(0.0, supplies[m]),
                    bound=spec.passive_producer_bound if passive else 0.0,
                )
            )
        partner_ids = [other for other in ssp_ids if other != ssp_id]
        producer_ids = [p.id for p in producers]
        n_local = len(producer_ids)
        # local producers rank 1..P and partner SSPs P+1..P+N-1, each block shuffled
        ranks = np.empty((n_cons, n_local + len(partner_ids)), dtype=np.int64)
        for m in range(n_cons):
            ranks[m, :n_local] = rng.permutation(n_local) + 1
            ranks[m, n_local:] = rng.permutation(len(partner_ids)) + (n_local + 1)
        consumer_ids = tuple(c.id for c in consumers)
        preferences = PreferenceTable(consumer_ids, tuple(producer_ids + partner_ids), ranks)
        links = LinkBlock(consumer_ids, (*producer_ids, UTILITY_ID), np.ones((n_cons, n_local + 1), dtype=np.int64))
        ssps.append(SSPConfig(ssp_id, tuple(consumers), tuple(producers), preferences, links))

    scenario = Scenario(
        ssps=tuple(ssps),
        ssp_links=LinkBlock(tuple(ssp_ids), tuple(ssp_ids), 1 - np.eye(len(ssp_ids), dtype=np.int64)),
        weights=weights or MatchingWeights(),
        line_constraints=None,
        seed=spec.seed,
    )
    violations = validate_scenario(scenario)
    if violations:
        raise GeneratorSpecError(f"generated scenario fails validation: {violations[0]}")
    return scenario


# --- strict JSON persistence -------------------------------------------------

# the fields of each object, each set built once
_SCENARIO_FIELDS = frozenset(("schema_version", "generator", "seed", "weights", "ssps", "connectivity", "line_constraints"))
_WEIGHT_FIELDS = frozenset(("w14", "w2", "w35", "alpha", "beta", "preference_mode"))
_SSP_FIELDS = frozenset(("id", "consumers", "producers", "preferences"))
_CONNECTIVITY_FIELDS = frozenset(("ssps", "consumers"))
_LINE_FIELDS = frozenset(("row", "col", "min_kwh", "max_kwh"))
#: a subscriber's fields; those after id and kind are numbers
_CONSUMER_FIELDS = ("id", "kind", "energy_kwh", "bound", "priority")
_PRODUCER_FIELDS = ("id", "kind", "energy_kwh", "bound")


def scenario_to_dict(scenario: Scenario) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "generator": GENERATOR_NAME,
        "seed": scenario.seed,
        "weights": {
            "w14": scenario.weights.w14,
            "w2": scenario.weights.w2,
            "w35": scenario.weights.w35,
            "alpha": scenario.weights.alpha,
            "beta": scenario.weights.beta,
            "preference_mode": PREFERENCE_MODE,
        },
        "ssps": [
            {
                "id": cfg.id,
                "consumers": [
                    {
                        "id": s.id,
                        "kind": s.kind.value,
                        "energy_kwh": s.energy,
                        "bound": s.bound,
                        "priority": s.priority,
                    }
                    for s in cfg.consumers
                ],
                "producers": [
                    {"id": s.id, "kind": s.kind.value, "energy_kwh": s.energy, "bound": s.bound}
                    for s in cfg.producers
                ],
                "preferences": {"suppliers": list(cfg.preferences.cols), "ranks": cfg.preferences.to_rows()},
            }
            for cfg in scenario.ssps
        ],
        "connectivity": {
            "ssps": _block_dict(scenario.ssp_links),
            "consumers": {cfg.id: _block_dict(cfg.links) for cfg in scenario.ssps},
        },
        "line_constraints": None
        if scenario.line_constraints is None
        else [
            {"row": lc.row_id, "col": lc.col_id, "min_kwh": lc.min_kwh, "max_kwh": lc.max_kwh}
            for lc in scenario.line_constraints.constraints
        ],
    }


def _block_dict(block: LinkBlock) -> dict:
    return {"cols": list(block.cols), "rows": block.to_rows()}


def _object(value: object, where: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioFormatError(f"{where}: expected an object, got {type(value).__name__}")
    return value


def _objects(items: object, where: str) -> list[dict]:
    """``items`` when it is a list of objects; otherwise an error naming it or its first other entry."""
    if not isinstance(items, list):
        raise ScenarioFormatError(f"{where}: expected a list, got {type(items).__name__}")
    bad = next((k for k, item in enumerate(items) if not isinstance(item, dict)), None)
    if bad is not None:
        raise ScenarioFormatError(f"{where}[{bad}]: expected an object, got {type(items[bad]).__name__}")
    return items


def _require_keys(mapping: dict, allowed: frozenset[str], where: str) -> None:
    if mapping.keys() == allowed:
        return
    unknown = sorted(mapping.keys() - allowed)
    if unknown:
        raise ScenarioFormatError(f"{where}: unknown field {unknown[0]!r}")
    missing = sorted(allowed - mapping.keys())
    if missing:
        raise ScenarioFormatError(f"{where}: missing field {missing[0]!r}")


def _string(value: object, where: str) -> str:
    if not isinstance(value, str):
        raise ScenarioFormatError(f"{where}: expected a string, got {value!r}")
    return value


def _number(value: object, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioFormatError(f"{where}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ScenarioFormatError(f"{where}: integer too large for a float") from None


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioFormatError("top level must be an object")
    _require_keys(data, _SCENARIO_FIELDS, "scenario")
    if data["schema_version"] != SCHEMA_VERSION:
        raise ScenarioFormatError(f"schema_version: unsupported value {data['schema_version']!r}, expected {SCHEMA_VERSION}")
    if data["generator"] != GENERATOR_NAME:
        raise ScenarioFormatError(f"unsupported generator {data['generator']!r}")

    w = _object(data["weights"], "weights")
    _require_keys(w, _WEIGHT_FIELDS, "weights")
    if w["preference_mode"] != PREFERENCE_MODE:
        raise ScenarioFormatError(
            f"weights.preference_mode: unsupported value {w['preference_mode']!r}, expected {PREFERENCE_MODE!r};"
            " set alpha: 0 to turn the preference steering off"
        )
    beta = w["beta"]
    weights = MatchingWeights(
        w14=_number(w["w14"], "weights.w14"),
        w2=_number(w["w2"], "weights.w2"),
        w35=_number(w["w35"], "weights.w35"),
        alpha=_number(w["alpha"], "weights.alpha"),
        beta=None if beta is None else _number(beta, "weights.beta"),
    )

    entries = []  # each SSP's id, consumers, producers and ranks
    for k, entry in enumerate(_objects(data["ssps"], "ssps")):
        _require_keys(entry, _SSP_FIELDS, f"ssp {entry.get('id')!r}")
        consumers = _subscribers(entry["consumers"], "consumer", _CONSUMER_FIELDS, f"ssps[{k}].consumers")
        producers = _subscribers(entry["producers"], "producer", _PRODUCER_FIELDS, f"ssps[{k}].producers")
        prefs = _table(entry["preferences"], f"ssps[{k}].preferences", "suppliers", "ranks", PreferenceTable.from_rows)
        entries.append((_string(entry["id"], f"ssps[{k}].id"), consumers, producers, prefs))

    links = _object(data["connectivity"], "connectivity")
    _require_keys(links, _CONNECTIVITY_FIELDS, "connectivity")
    ssp_links = _table(links["ssps"], "connectivity.ssps", "cols", "rows", LinkBlock.from_rows)
    # each block goes to its SSP; an SSP without one has no links
    blocks = dict.fromkeys((ssp_id for ssp_id, *_ in entries), LinkBlock.from_rows((), {}))
    for ssp_id, block in _object(links["consumers"], "connectivity.consumers").items():
        where = f"connectivity.consumers[{ssp_id}]"
        if ssp_id not in blocks:
            raise ScenarioFormatError(f"{where}: not an SSP of the file")
        blocks[ssp_id] = _table(block, where, "cols", "rows", LinkBlock.from_rows)
    ssps = tuple(SSPConfig(*entry, blocks[entry[0]]) for entry in entries)

    lines = None
    if data["line_constraints"] is not None:
        constraints = []
        for k, lc in enumerate(_objects(data["line_constraints"], "line_constraints")):
            where = f"line_constraints[{k}]"
            _require_keys(lc, _LINE_FIELDS, where)
            ends = [_string(lc[name], f"{where}.{name}") for name in ("row", "col")]
            bounds = [_number(lc[name], f"{where}.{name}") for name in ("min_kwh", "max_kwh")]
            constraints.append(LineConstraint(*ends, *bounds))
        lines = LineConstraintSet(tuple(constraints))

    return Scenario(ssps, ssp_links, weights, lines, data["seed"])


def _table(value: object, where: str, header: str, rows: str, build: Callable[[list[str], dict], Table]) -> Table:
    """One rank table or link block: a list of string ids under ``header``, and
    under ``rows`` one row per row id, as long as the header; ``build`` judges the values."""
    table = _object(value, where)
    _require_keys(table, frozenset((header, rows)), where)
    ids = table[header]
    if not isinstance(ids, list):
        raise ScenarioFormatError(f"{where}.{header}: expected a list, got {type(ids).__name__}")
    if not all(map(isinstance, ids, repeat(str))):
        for j, item in enumerate(ids):
            _string(item, f"{where}.{header}[{j}]")
    try:
        return build(ids, _keyed_rows(table[rows], f"{where}.{rows}"))
    except ValueError as exc:  # the table names the row or entry
        raise ScenarioFormatError(f"{where}.{rows}{exc}") from None


def _keyed_rows(value: object, where: str) -> dict:
    """A table's rows, keyed by row id; a key that is not a string (only a dict built in Python has one) becomes its str."""
    rows = _object(value, where)
    if all(map(isinstance, rows, repeat(str))):
        return rows
    return {str(key): row for key, row in rows.items()}


def _subscribers(items: object, role: str, fields: tuple[str, ...], where: str) -> tuple[Subscriber, ...]:
    """The consumers or producers of one SSP entry; the ``fields`` after id and kind are numbers."""
    subscribers = []
    allowed = frozenset(fields)
    for k, sub in enumerate(_objects(items, where)):
        # each check formats the text that names the subscriber only once it fails
        if sub.keys() != allowed:
            _require_keys(sub, allowed, f"{role} {sub.get('id')!r}")
        sub_id = sub["id"] if type(sub["id"]) is str else _string(sub["id"], f"{where}[{k}].id")
        kind = _kind(sub["kind"], sub_id)
        numbers = [sub[name] for name in fields[2:]]
        if not set(map(type, numbers)) <= {float}:  # convert or refuse each, naming it
            numbers = [_number(sub[name], f"{role} {sub_id}.{name}") for name in fields[2:]]
        subscribers.append(Subscriber(sub_id, kind, *numbers))
    return tuple(subscribers)


_KINDS = {kind.value: kind for kind in SubscriberKind}


def _kind(value: object, entity: object) -> SubscriberKind:
    kind = _KINDS.get(value) if isinstance(value, str) else None
    if kind is None:
        raise ScenarioFormatError(f"subscriber {entity!r}: unknown kind {value!r}")
    return kind


def scenario_to_json(scenario: Scenario) -> str:
    # compact: an indent would send json to its pure-Python encoder; the dict
    # is built fresh and holds no cycle, so the encoder need not look for one
    return json.dumps(scenario_to_dict(scenario), separators=(",", ":"), check_circular=False) + "\n"


def scenario_from_json(text: str) -> Scenario:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(f"invalid JSON at offset {exc.pos}: {exc.msg}") from None
    except ValueError as exc:  # an integer with more digits than int() reads
        raise ScenarioFormatError(f"invalid JSON: {exc}") from None
    return scenario_from_dict(data)


def save_scenario(scenario: Scenario, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(scenario_to_json(scenario))


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ScenarioFormatError(f"not UTF-8 at byte offset {exc.start}") from None
    return scenario_from_json(text)
