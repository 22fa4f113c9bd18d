"""Synchronous distributed matching engine.

Each SSP runs as an agent around its local matching LP. The engine sweeps the
agents in id order; an agent that accepts a strictly better solution becomes an
*iteration*, computes its residual aggregate surplus and offers it to its
connected partners one at a time in a seeded shuffled order. Delivering an
offer is synchronous: the receiving agent immediately re-solves with the
offered capacity installed and answers with a claim for what it committed, and
only then does the sender move to the next partner with the decremented
residual. A claim is binding: the claimed cells become constants of the
buyer's future LPs and the seller reserves the exported total, so the pair
stays conserved across every later re-solve.

The wire carries aggregates only (surplus kWh, flexibility bound, claim kWh);
no per-subscriber id or quantity ever leaves an SSP, and ``audit_privacy``
checks exactly that plus, by deterministic replay, that every offered amount
really was the sender's aggregate surplus at emission time.

Quiescence: a full sweep with no accepted improvement and no queued follow-up
work terminates the run. Everything is deterministic in (scenario, anm, seed).

A re-solve that cannot be accepted is skipped; the run is the same as if it
had been made. An agent solves without an offer only while it holds no
solution, in its first turn. Since an acceptance, its LP has only lost
feasible points (the claimed cells are locked at their accepted values and
exports only tighten the reservation row); without new capacity its optimum
cannot fall below ``best_solution``.

An agent holds one pricing certificate (floor, prices): a lower bound
``floor`` on the optimum of its current LP, and consumer prices (minus the
demand-row duals) of a solve whose optimum was ``floor``. An accepted solve
sets both (floor = its objective = ``best_solution``).
``_Agent.solve_and_accept`` returns False without building an LP for an
offer (q, base, bound) that ``PairTable.offer_can_improve`` prices out::

    floor - max_i (reward(i, q) - prices[i])+ * base * (1 + bound)
        >= best_solution - IMPROVE_TOL / 2

The certificate's LP plus q's block has the certificate's duals, with 0 on
q's supply row, as a dual solution that is feasible except for q's columns,
whose reduced costs are prices[i] - reward(i, q); so its optimum is at least
``floor`` minus that product. The current LP embeds in it (locked cells sit
in the columns they were claimed from, and a tighter or new reservation row
only removes points), so its exact optimum cannot beat ``best_solution`` by
IMPROVE_TOL, the acceptance margin; the other half of the margin absorbs the
solver's rounding.

A solve of an offer from p that is not accepted hands its objective and
prices over as the new certificate when its objective is at least
``best_solution - IMPROVE_TOL / 2`` (a lower floor could price out nothing).
The current LP is that LP with p's columns (and p's stretch) fixed at 0,
which their lower bounds of 0 allow (a line never bounds a partner's
column); so the current optimum is at least its objective, and the
embedding above carries over. Equivalently, its duals restricted to the
current LP's rows stay dual feasible, and dropping p's supply row (dual <= 0
against a non-negative offer) only raises their value. This matters because
an accepted LP is often primal degenerate: its duals are one of many optimal
ones, and the prices of a later, non-improving solve can price out offers
that the accepted ones let through.

Only an SSP's own lines can make its LP infeasible: minimums above what its
subscribers hold, or purchase caps that its producers cannot make up. A
feasible first solve is always accepted, and every later LP stays feasible
(claims are locked at accepted values, and exports come out of the accepted
surplus), while an offer only adds columns that may stay at 0. So only the
solves of an SSP that holds no solution yet can be infeasible. Such an SSP
offers nothing and waits for offers, as a partner's kWh can make up for a
purchase cap, so a first solve that comes before any offer does not end the
run. A run that reaches quiescence with an SSP still unsolved raises
``MatchingInfeasibleError``, naming the first such SSP in id order.

``MatchingResult`` counts the solves made (``lp_solves``) and the offers
priced out (``offers_priced_out``); neither enters an artifact.

``calibrate_weights`` tunes the objective weights against whole engine runs.
"""

from __future__ import annotations

import math
import random
import zlib
from dataclasses import dataclass, field, replace

from .coalition import ActualNeighborhoodMap, meshed_map
from .matching import (
    RESIDUAL_TOL,
    FlexibilityAssignment,
    MatchingInfeasibleError,
    PairTable,
    PartnerCapacity,
    SspView,
    aggregate_surplus,
    attribute_sell_backs,
    solve_dist_matching,
    surplus_bound,
)
from .model import (
    CommitmentMatrix,
    MatchingWeights,
    Scenario,
    SSPConfig,
    energy_status,
    utility_interaction,
    validate_scenario,
)

SEND_EXCESS = "SEND_EXCESS"

IMPROVE_TOL = 1e-9

OFFER_KIND = "offer"
CLAIM_KIND = "claim"

_NO_CAPACITY = PartnerCapacity(0.0, 0.0)


class InvalidScenarioError(ValueError):
    """Engine input failed validate_scenario."""


class CalibrationError(ValueError):
    """calibrate_weights was asked for fewer than one iteration."""


class ProtocolViolationError(RuntimeError):
    """A claim exceeded the outstanding offer between two SSPs."""


class ConvergenceError(RuntimeError):
    """Iteration cap hit; carries the partial trace and log for diagnosis."""

    def __init__(self, message: str, trace: list[ConvergencePoint], log: list[LogRecord]):
        super().__init__(message)
        self.trace = trace
        self.log = log


@dataclass(frozen=True)
class LogRecord:
    """One wire message.

    An ``offer`` carries the sender's residual surplus to one partner as
    ``{"energy_kwh", "bound", "token"}``; a ``claim`` is the receiver's binding
    answer ``{"amount_kwh"}``, sent back to the offering SSP.
    """

    round_index: int
    kind: str
    src: str
    dst: str
    payload: dict[str, object]


@dataclass(frozen=True)
class ConvergencePoint:
    iteration: int
    accumulated_utility_kwh: float


@dataclass
class MatchingResult:
    commitments: dict[str, CommitmentMatrix]
    flexibility: dict[str, FlexibilityAssignment]
    trace: list[ConvergencePoint]
    log: list[LogRecord]
    iterations: int
    rounds: int
    initial_abs_status_kwh: float
    final_utility_kwh: float
    per_ssp_initial: dict[str, float]
    per_ssp_final: dict[str, float]
    lp_solves: int  # matching LPs solved, over all agents
    offers_priced_out: int  # offers answered without a solve


def shuffle_partners(partners: list[str], seed: int, ssp_id: str, round_index: int) -> list[str]:
    """Deterministic permutation keyed by (seed, ssp id, round).

    Seeded through CRC32 of the textual key so the order is identical across
    processes (hash() is salted and unusable here)."""
    order = sorted(partners)
    rng = random.Random(zlib.crc32(f"{seed}:{ssp_id}:{round_index}".encode()) & 0xFFFFFFFF)
    rng.shuffle(order)
    return order


class _Agent:
    """One SSP's state: accepted solution, binding import locks, reserved exports.

    The agent owns its view, with every partner at zero capacity (an offer's
    solve replaces only the capacities), the PairTable of its local LP, built
    once over its whole partner list, its pricing certificate (``floor``,
    ``prices``; see the module docstring).
    """

    def __init__(self, cfg: SSPConfig, scenario: Scenario, partners: list[str], weights: MatchingWeights):
        self.cfg = cfg
        self.scenario = scenario
        self.partners = partners
        self.weights = weights
        self.best_solution = float("inf")
        self.cm: CommitmentMatrix | None = None
        self.fx: FlexibilityAssignment | None = None
        self.floor = float("inf")
        self.prices: dict[str, float] | None = None
        self.lp_solves = 0
        self.offers_priced_out = 0
        self.locked: dict[str, dict[str, float]] = {}
        self.exports: dict[str, float] = {}
        self.view = SspView(cfg.id, cfg.consumers, cfg.producers, cfg.preferences, cfg.links, dict.fromkeys(partners, _NO_CAPACITY))
        self.table = PairTable(self.view, weights, scenario.line_constraints)

    def total_exports(self) -> float:
        return sum(self.exports.values())

    def solve_and_accept(self, transient: tuple[str, float, float] | None = None) -> bool:
        """Solve the local LP with the offer ``transient`` installed, or with none; adopt the result only on strict improvement.

        A solve that cannot improve is skipped, and an infeasible one is
        declined while the agent holds no solution (see the module docstring)."""
        view = self.view
        if transient is not None:
            src, base, bound = transient
            tol = self.floor - self.best_solution + IMPROVE_TOL / 2
            if self.prices is not None and not self.table.offer_can_improve(self.prices, (src, base * (1.0 + bound)), tol):
                self.offers_priced_out += 1
                return False
            view = replace(view, partner_capacities={**view.partner_capacities, src: PartnerCapacity(base, bound)})
        self.lp_solves += 1
        try:
            cm, fx, objective, prices = solve_dist_matching(
                view,
                self.weights,
                self.scenario.line_constraints,
                locked_imports=self.locked,
                committed_exports=self.total_exports(),
                table=self.table,
            )
        except MatchingInfeasibleError:
            if self.cm is not None:
                raise
            return False
        if objective < self.best_solution - IMPROVE_TOL:
            self.best_solution = self.floor = objective
            self.cm, self.fx, self.prices = cm, fx, prices
            return True
        if objective >= self.best_solution - IMPROVE_TOL / 2:
            self.floor, self.prices = objective, prices
        return False

    def register_export(self, partner_id: str, kwh: float) -> None:
        assert self.cm is not None
        self.exports[partner_id] = self.exports.get(partner_id, 0.0) + kwh
        attribute_sell_backs(self.cm, self.cfg.producers, self.total_exports())

    def surplus_offer_terms(self) -> tuple[float, float]:
        """(offerable kWh, aggregate bound): residual surplus net of committed exports."""
        assert self.cm is not None
        ex_energy, total_energy = aggregate_surplus(self.cfg, self.cm)
        return max(0.0, ex_energy - self.total_exports()), surplus_bound(ex_energy, total_energy)

    def utility_kwh(self) -> float:
        """Current Utility interaction; the whole |status| while still unsolved."""
        return abs(energy_status(self.cfg)) if self.cm is None else utility_interaction(self.cm)

    def claim_against(self, src: str) -> dict[str, float]:
        """New per-consumer commitments against ``src`` beyond the existing locks."""
        assert self.cm is not None
        held = self.locked.get(src, {})
        out: dict[str, float] = {}
        for consumer in self.cfg.consumers:
            extra = self.cm.get(consumer.id, src) - held.get(consumer.id, 0.0)
            if extra > RESIDUAL_TOL:
                out[consumer.id] = extra
        return out

    def lock_imports(self, src: str, cells: dict[str, float]) -> None:
        held = self.locked.setdefault(src, {})
        for consumer_id, kwh in cells.items():
            held[consumer_id] = held.get(consumer_id, 0.0) + kwh


def _partner_lists(scenario: Scenario, anm: ActualNeighborhoodMap) -> dict[str, list[str]]:
    """Each SSP's partners, sorted: the SSPs of the scenario that both the map and the SSP links link it to.

    Read from the map's edges, as ``anm.connected`` reads them: an edge counts
    as the pair (a, b) with a < b; and from the SSP link block, one entry per edge."""
    neighbours: dict[str, list[str]] = {ssp_id: [] for ssp_id in scenario.ssp_ids}
    for a, b in anm.edges:
        if a < b and a in neighbours and b in neighbours:
            neighbours[a].append(b)
            neighbours[b].append(a)
    ids = sorted(neighbours)
    at = {ssp_id: k for k, ssp_id in enumerate(ids)}
    rows = [k for k, ssp_id in enumerate(ids) for _ in neighbours[ssp_id]]
    cols = [at[p] for ssp_id in ids for p in neighbours[ssp_id]]
    linked = iter(scenario.ssp_links.take(ids, ids)[rows, cols].tolist())  # one entry per map edge, in order
    return {ssp_id: sorted(p for p, link in zip(neighbours[ssp_id], linked) if link) for ssp_id in ids}


def run_engine(
    scenario: Scenario,
    anm: ActualNeighborhoodMap,
    weights: MatchingWeights | None = None,
    seed: int = 0,
    iteration_cap: int = 10000,
) -> MatchingResult:
    """Run every SSP agent to global quiescence under the deterministic schedule."""
    weights = weights or scenario.weights
    # w2 <= 0 merely degenerates the objective (calibration deliberately starts
    # there); every structural violation is still a hard stop
    violations = [v for v in validate_scenario(replace(scenario, weights=weights)) if v.rule != "w2-positive"]
    if violations:
        raise InvalidScenarioError("; ".join(str(v) for v in violations[:5]))

    ssp_ids = sorted(scenario.ssp_ids)
    configs = {cfg.id: cfg for cfg in scenario.ssps}
    agents = {
        ssp_id: _Agent(configs[ssp_id], scenario, partners, weights)
        for ssp_id, partners in _partner_lists(scenario, anm).items()
    }

    per_ssp_initial = {s: abs(energy_status(configs[s])) for s in ssp_ids}
    initial_total = sum(per_ssp_initial.values())
    trace: list[ConvergencePoint] = []
    log: list[LogRecord] = []
    iterations = 0
    rounds = 0
    pending = {s: True for s in ssp_ids}

    # each agent's Utility interaction in ssp_ids order, refreshed only for
    # the agents whose matrix changed since the last record, and summed in
    # that order
    position = {s: k for k, s in enumerate(ssp_ids)}
    utilities = [agents[s].utility_kwh() for s in ssp_ids]
    changed: set[str] = set()

    def record_iteration() -> None:
        nonlocal iterations
        iterations += 1
        if iterations > iteration_cap:
            raise ConvergenceError(
                f"no quiescence within {iteration_cap} iterations", trace, log
            )
        for ssp_id in changed:
            utilities[position[ssp_id]] = agents[ssp_id].utility_kwh()
        changed.clear()
        trace.append(ConvergencePoint(iterations, sum(utilities)))

    def deliver(src: str, dst: str, offered: float, bound: float, round_index: int) -> float:
        """Synchronous exchange: install capacity at the receiver, re-solve,
        lock the claim on both sides."""
        receiver = agents[dst]
        base = offered / (1.0 + bound)
        improved = receiver.solve_and_accept(transient=(src, base, bound))
        claimed = 0.0
        if improved:
            changed.add(dst)
            cells = receiver.claim_against(src)
            claimed = sum(cells.values())
            if claimed > offered + 1e-6:
                raise ProtocolViolationError(f"{dst} claimed {claimed} kWh from {src}, offered {offered}")
            receiver.lock_imports(src, cells)
            if claimed > 0.0:
                agents[src].register_export(dst, claimed)
                changed.add(src)
            record_iteration()
            pending[dst] = True
        log.append(LogRecord(round_index, CLAIM_KIND, dst, src, {"amount_kwh": claimed}))
        return claimed

    def emit_offers(ssp_id: str, round_index: int) -> None:
        agent = agents[ssp_id]
        if agent.cm is None:  # unsolved: it waits for offers
            return
        offerable, bound = agent.surplus_offer_terms()
        if offerable <= RESIDUAL_TOL:
            return
        for partner_id in shuffle_partners(agent.partners, seed, ssp_id, round_index):
            if offerable <= RESIDUAL_TOL:
                break
            payload = {"energy_kwh": offerable, "bound": bound, "token": SEND_EXCESS}
            log.append(LogRecord(round_index, OFFER_KIND, ssp_id, partner_id, payload))
            offerable -= deliver(ssp_id, partner_id, offerable, bound, round_index)

    while any(pending.values()):
        rounds += 1
        for ssp_id in ssp_ids:
            if not pending[ssp_id]:
                continue
            pending[ssp_id] = False
            # a pending agent is in its first turn, or deliver accepted a
            # solution since it last offered
            if agents[ssp_id].cm is None and agents[ssp_id].solve_and_accept():
                changed.add(ssp_id)
                record_iteration()
            emit_offers(ssp_id, rounds)

    for ssp_id in ssp_ids:
        if agents[ssp_id].cm is None:  # infeasible alone and with every offer it was sent
            raise MatchingInfeasibleError(f"matching LP for {ssp_id!r} infeasible without an offer and with each offer it got")

    per_ssp_final = {s: agents[s].utility_kwh() for s in ssp_ids}
    return MatchingResult(
        commitments={s: agents[s].cm for s in ssp_ids},
        flexibility={s: agents[s].fx for s in ssp_ids},
        trace=trace,
        log=log,
        iterations=iterations,
        rounds=rounds,
        initial_abs_status_kwh=initial_total,
        final_utility_kwh=trace[-1].accumulated_utility_kwh if trace else initial_total,
        per_ssp_initial=per_ssp_initial,
        per_ssp_final=per_ssp_final,
        lp_solves=sum(agent.lp_solves for agent in agents.values()),
        offers_priced_out=sum(agent.offers_priced_out for agent in agents.values()),
    )


def calibrate_weights(scenario: Scenario, iterations: int = 4, seed: int = 0) -> MatchingWeights:
    """Coordinate-wise hill climb on (w14, w2, w35) against the meshed run's Utility interaction.

    Steps are multiplicative (x2 then /2); a zero coordinate proposes 1.0 since
    doubling cannot leave zero. Only strictly improving moves are accepted, at
    most one per coordinate per iteration. Deterministic under a fixed seed.
    """
    if iterations < 1:
        raise CalibrationError(f"iterations must be >= 1, got {iterations}")
    anm = meshed_map(scenario.ssp_ids)

    def evaluate(weights: MatchingWeights) -> float:
        return run_engine(scenario, anm, weights=weights, seed=seed).final_utility_kwh

    current = scenario.weights
    best = evaluate(current)
    for _ in range(iterations):
        for coord in ("w14", "w2", "w35"):
            value = getattr(current, coord)
            proposals = [value * 2.0, value / 2.0] if value > 0.0 else [1.0]
            for candidate in proposals:
                trial = replace(current, **{coord: candidate})
                score = evaluate(trial)
                if score < best - 1e-9:
                    current, best = trial, score
                    break
    return current


@dataclass
class AuditReport:
    passed: bool
    findings: list[str] = field(default_factory=list)


def audit_privacy(
    log: list[LogRecord],
    scenario: Scenario,
    anm: ActualNeighborhoodMap,
    weights: MatchingWeights | None = None,
    seed: int = 0,
) -> AuditReport:
    """Verify the wire carried aggregates only, and that they were correct.

    Two independent checks:

    1. Schema: every record is an ``offer`` or a ``claim`` LogRecord whose
       payload holds exactly the aggregate numeric fields (plus the protocol
       token); any extra field, container value, negative or non-finite
       number, or subscriber id in a payload is a finding.
    2. Aggregation correctness by replay: the engine is re-run under the same
       (scenario, anm, weights, seed) and the audited log must match the
       regenerated one message for message, which pins every offer to the
       sender's aggregate surplus at emission time.
    """
    findings: list[str] = []
    ssp_ids = set(scenario.ssp_ids)
    subscriber_ids = {
        sub.id for cfg in scenario.ssps for sub in cfg.consumers + cfg.producers
    }
    allowed = {OFFER_KIND: {"energy_kwh", "bound", "token"}, CLAIM_KIND: {"amount_kwh"}}
    for k, record in enumerate(log):
        where = f"message {k} ({record.kind} {record.src}->{record.dst})"
        if record.kind not in allowed:
            findings.append(f"{where}: unknown message kind")
            continue
        if record.src not in ssp_ids or record.dst not in ssp_ids or record.src == record.dst:
            findings.append(f"{where}: endpoints must be two distinct SSP ids")
        extra = set(record.payload) - allowed[record.kind]
        if extra:
            findings.append(f"{where}: payload field {sorted(extra)[0]!r} is not part of the aggregate wire format")
        missing = allowed[record.kind] - set(record.payload)
        if missing:
            findings.append(f"{where}: payload is missing {sorted(missing)[0]!r}")
        for key, value in record.payload.items():
            if key == "token":
                if value != SEND_EXCESS:
                    findings.append(f"{where}: bad token {value!r}")
                continue
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                findings.append(f"{where}: payload field {key!r} must be a plain number, got {type(value).__name__}")
            elif isinstance(value, float) and not math.isfinite(value):
                findings.append(f"{where}: payload field {key!r} is not finite")
            elif value < -1e-9:
                findings.append(f"{where}: payload field {key!r} is negative")
        for value in record.payload.values():
            if isinstance(value, str) and value in subscriber_ids:
                findings.append(f"{where}: payload leaks subscriber id {value!r}")

    expected = run_engine(scenario, anm, weights=weights, seed=seed).log
    if len(expected) != len(log):
        findings.append(f"log has {len(log)} messages, deterministic replay produced {len(expected)}")
    for k, (got, want) in enumerate(zip(log, expected)):
        if got != want:
            findings.append(
                f"message {k} differs from replay: got {got.kind} {got.payload}, expected {want.kind} {want.payload}"
            )
    return AuditReport(passed=not findings, findings=findings)


def messages_to_csv(log: list[LogRecord]) -> str:
    lines = ["round,kind,src,dst,energy_kwh,bound,token"]
    for record in log:
        if record.kind == OFFER_KIND:
            energy = repr(record.payload["energy_kwh"])
            bound = repr(record.payload["bound"])
            token = str(record.payload["token"])
        else:
            energy = repr(record.payload["amount_kwh"])
            bound = ""
            token = ""
        lines.append(f"{record.round_index},{record.kind},{record.src},{record.dst},{energy},{bound},{token}")
    return "\n".join(lines) + "\n"


def trace_to_csv(trace: list[ConvergencePoint]) -> str:
    lines = ["iteration,accumulated_utility_kwh"]
    for point in trace:
        lines.append(f"{point.iteration},{point.accumulated_utility_kwh!r}")
    return "\n".join(lines) + "\n"
