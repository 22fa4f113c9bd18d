"""Synchronous distributed matching engine.

Each SSP runs as an agent around its local matching LP. An agent is built
from ``view_for_ssp`` over the SSP's map neighbours
(``ActualNeighborhoodMap.neighbours``, which reads an edge as
``ActualNeighborhoodMap.connected`` does), so its partners are the neighbours
that the SSP links reach. The engine sweeps the agents in id
order, in rounds; an agent that accepts a strictly better solution becomes an
*iteration*, computes its residual aggregate surplus and offers it to its
connected partners one at a time in a seeded shuffled order. Delivering an
offer is synchronous: the receiving agent immediately re-solves with the
offered capacity installed and answers with a claim for what it committed, and
only then does the sender move to the next partner with the decremented
residual. A claim is binding, and each side holds it once: the claimed cells
are the partner cells of the buyer's accepted matrix, which its later LPs
take as constants, and the seller adds the claimed kWh to its one exported
total, which its reservation row keeps deliverable; so the pair stays
conserved across every later re-solve.

The wire carries aggregates only (surplus kWh, flexibility bound, claim kWh);
no per-subscriber id or quantity ever leaves an SSP, and ``audit_privacy``
checks exactly that plus, by deterministic replay, that every offered amount
really was the sender's aggregate surplus at emission time.

Quiescence: a full sweep with no accepted improvement and no queued follow-up
work terminates the run. Everything is deterministic in (scenario, anm, seed).

A run is one sweep per share. The connected components of the map
(``coalition.components``) are dealt, largest first, to one share per CPU
(``os.sched_getaffinity``), and never to more shares than there are
components. No map edge leaves a share, so a share's sweep is the global
sweep restricted to its SSPs. Each sweep writes its messages and accepted
solves as events tagged with their turn, (round, id of the SSP whose turn it
is). A turn belongs to one share, so merging the shares' events by turn has
no ties. Replaying the merge gives the global sweep's trace, log, iteration
count, ``ConvergenceError`` (with the same partial trace and log) and first
error exactly. Every share but the last runs in a forked worker, which
pickles its one part through a pipe; a share that cannot be forked runs in
this process. Every worker is reaped before the run returns or raises. A
worker that exits non-zero or sends bytes that do not unpickle stops the run
with a ``RuntimeError`` naming it. So a run with one component, or on one
CPU, forks nothing, and the result is the same bytes for any CPU count.

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

import heapq
import math
import os
import pickle
import random
import sys
import zlib
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import partial
from operator import itemgetter

from .coalition import ActualNeighborhoodMap, components, meshed_map
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
    view_for_ssp,
)
from .model import (
    CommitmentMatrix,
    LineConstraintSet,
    MatchingWeights,
    Scenario,
    energy_status,
    utility_interaction,
    validate_scenario,
)

SEND_EXCESS = "SEND_EXCESS"

IMPROVE_TOL = 1e-9

OFFER_KIND = "offer"
CLAIM_KIND = "claim"


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
    """One SSP's state: its accepted solution, which holds its imports, and its exported total.

    The agent owns its view, with every partner at zero capacity (an offer's
    solve replaces only the capacities), the PairTable of its local LP, built
    once over the view's partners (``table.partner_ids``) from the weights and
    lines, which it keeps nowhere else, and its pricing certificate
    (``floor``, ``prices``; see the module docstring). The partner cells of
    the accepted matrix ``cm`` are the kWh it claimed, which every re-solve
    keeps as constants (``solve_dist_matching``'s ``accepted``); ``exported``
    is the sum of the claims its partners made on it, in the order they
    came, which every re-solve keeps deliverable.
    """

    def __init__(self, view: SspView, weights: MatchingWeights, lines: LineConstraintSet | None):
        self.view = view
        self.best_solution = float("inf")
        self.cm: CommitmentMatrix | None = None
        self.fx: FlexibilityAssignment | None = None
        self.floor = float("inf")
        self.prices: dict[str, float] | None = None
        self.lp_solves = 0
        self.offers_priced_out = 0
        self.exported = 0.0
        self.table = PairTable(view, weights, lines)

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
            cm, fx, objective, prices = solve_dist_matching(view, self.table, accepted=self.cm, committed_exports=self.exported)
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

    def register_export(self, kwh: float) -> None:
        """Add a claim made on this SSP to its exported total, and sell back only what is left."""
        assert self.cm is not None
        self.exported += kwh
        attribute_sell_backs(self.cm, self.view.producers, self.exported)

    def surplus_offer_terms(self) -> tuple[float, float]:
        """(offerable kWh, aggregate bound): residual surplus net of committed exports."""
        assert self.cm is not None
        ex_energy, total_energy = aggregate_surplus(self.view, self.cm)
        return max(0.0, ex_energy - self.exported), surplus_bound(ex_energy, total_energy)

    def utility_kwh(self) -> float:
        """Current Utility interaction; the whole |status| while still unsolved."""
        return abs(energy_status(self.view)) if self.cm is None else utility_interaction(self.cm)

    def claim(self, src: str, before: CommitmentMatrix | None) -> float:
        """The kWh the accepted matrix newly takes from ``src``: the sum, in consumer order, of each consumer's increase of cm(i, src) over ``before``, the matrix held before the solve, where it exceeds RESIDUAL_TOL.

        The sum starts from 0.0, so a claim of nothing is the float 0.0, as
        the claim of an offer whose solve was not accepted is."""
        assert self.cm is not None
        extras = [self.cm.get(c, src) - (0.0 if before is None else before.get(c, src)) for c in self.table.consumer_ids]
        return sum((extra for extra in extras if extra > RESIDUAL_TOL), 0.0)


def run_engine(
    scenario: Scenario,
    anm: ActualNeighborhoodMap,
    weights: MatchingWeights | None = None,
    seed: int = 0,
    iteration_cap: int = 10000,
) -> MatchingResult:
    """Run every SSP agent to global quiescence under the deterministic schedule, one sweep per share of the map's components."""
    scenario = replace(scenario, weights=weights or scenario.weights)
    # w2 <= 0 merely degenerates the objective (calibration deliberately starts
    # there); every structural violation is still a hard stop
    violations = [v for v in validate_scenario(scenario) if v.rule != "w2-positive"]
    if violations:
        raise InvalidScenarioError("; ".join(str(v) for v in violations[:5]))

    ssp_ids = sorted(scenario.ssp_ids)
    neighbours = anm.neighbours(scenario.ssp_ids)
    per_ssp_initial = {s: abs(energy_status(scenario.ssp(s))) for s in ssp_ids}
    parts = _run_shares(scenario, _deal(components(neighbours), _cpu_count()), neighbours, seed, iteration_cap)
    trace, log = _replay(parts, per_ssp_initial, iteration_cap)

    outcomes = {s: outcome for part in parts for s, outcome in part.outcomes.items()}
    for ssp_id in ssp_ids:
        if outcomes[ssp_id][0] is None:  # infeasible alone and with every offer it was sent
            raise MatchingInfeasibleError(f"matching LP for {ssp_id!r} infeasible without an offer and with each offer it got")

    initial_total = sum(per_ssp_initial.values(), 0.0)
    return MatchingResult(
        commitments={s: outcomes[s][0] for s in ssp_ids},
        flexibility={s: outcomes[s][1] for s in ssp_ids},
        trace=trace,
        log=log,
        iterations=len(trace),
        rounds=max((part.rounds for part in parts), default=0),
        initial_abs_status_kwh=initial_total,
        final_utility_kwh=trace[-1].accumulated_utility_kwh if trace else initial_total,
        per_ssp_initial=per_ssp_initial,
        per_ssp_final={s: outcomes[s][2] for s in ssp_ids},
        lp_solves=sum(part.lp_solves for part in parts),
        offers_priced_out=sum(part.offers_priced_out for part in parts),
    )


_Turn = tuple[int, str]  # (round, id of the SSP whose turn it is)


class _PastCap(Exception):
    """A share's own accepted solves passed the iteration cap.

    Its events end here unread: the merged run counts at least as many
    solves, so it passes the cap at this one or before."""


@dataclass
class _Part:
    """One share's run: its messages and accepted solves, each tagged with the turn it came in; the count of those solves, checked against the cap; its rounds and solve counts; and each SSP's (matrix, flexibility, final Utility interaction)."""

    iteration_cap: int
    events: list[tuple[_Turn, object]] = field(default_factory=list)
    turn: _Turn = (0, "")
    iterations: int = 0
    rounds: int = 0
    lp_solves: int = 0
    offers_priced_out: int = 0
    outcomes: dict[str, tuple[CommitmentMatrix | None, FlexibilityAssignment | None, float]] = field(default_factory=dict)

    def message(self, record: LogRecord) -> None:
        self.events.append((self.turn, record))

    def iteration(self, updates: list[tuple[str, float]]) -> None:
        self.events.append((self.turn, updates))
        self.iterations += 1
        if self.iterations > self.iteration_cap:
            raise _PastCap


def _sweep(agents: dict[str, _Agent], seed: int, part: _Part) -> None:
    """Run ``agents``, keyed in id order, to quiescence; write every message and accepted solve to ``part``, each tagged with its turn, and count the rounds swept."""
    pending = dict.fromkeys(agents, True)
    # the agents whose matrix changed since the last accepted solve was recorded
    changed: set[str] = set()

    def record_iteration() -> None:
        part.iteration([(ssp_id, agents[ssp_id].utility_kwh()) for ssp_id in changed])
        changed.clear()

    def deliver(src: str, dst: str, offered: float, bound: float, round_index: int) -> float:
        """Synchronous exchange: install capacity at the receiver, re-solve,
        and on acceptance claim what the new matrix takes from the sender,
        which adds it to its exports."""
        receiver = agents[dst]
        before = receiver.cm
        base = offered / (1.0 + bound)
        improved = receiver.solve_and_accept(transient=(src, base, bound))
        claimed = 0.0
        if improved:
            changed.add(dst)
            claimed = receiver.claim(src, before)
            if claimed > offered + 1e-6:
                raise ProtocolViolationError(f"{dst} claimed {claimed} kWh from {src}, offered {offered}")
            if claimed > 0.0:
                agents[src].register_export(claimed)
                changed.add(src)
            record_iteration()
            pending[dst] = True
        part.message(LogRecord(round_index, CLAIM_KIND, dst, src, {"amount_kwh": claimed}))
        return claimed

    def emit_offers(ssp_id: str, round_index: int) -> None:
        agent = agents[ssp_id]
        if agent.cm is None:  # unsolved: it waits for offers
            return
        offerable, bound = agent.surplus_offer_terms()
        if offerable <= RESIDUAL_TOL:
            return
        for partner_id in shuffle_partners(agent.table.partner_ids, seed, ssp_id, round_index):
            if offerable <= RESIDUAL_TOL:
                break
            payload = {"energy_kwh": offerable, "bound": bound, "token": SEND_EXCESS}
            part.message(LogRecord(round_index, OFFER_KIND, ssp_id, partner_id, payload))
            offerable -= deliver(ssp_id, partner_id, offerable, bound, round_index)

    while any(pending.values()):
        part.rounds += 1
        for ssp_id, agent in agents.items():
            if not pending[ssp_id]:
                continue
            pending[ssp_id] = False
            part.turn = (part.rounds, ssp_id)
            # a pending agent is in its first turn, or deliver accepted a
            # solution since it last offered
            if agent.cm is None and agent.solve_and_accept():
                changed.add(ssp_id)
                record_iteration()
            emit_offers(ssp_id, part.rounds)


def _run_part(scenario: Scenario, ssp_ids: list[str], neighbours: dict[str, list[str]], seed: int, iteration_cap: int) -> _Part:
    """Sweep one share, its SSPs in id order, into its part; an exception ends the part's events as their last, tagged with the turn it arose in (an agent that fails to build, with round 0)."""
    part = _Part(iteration_cap)
    agents: dict[str, _Agent] = {}
    try:
        for ssp_id in ssp_ids:
            part.turn = (0, ssp_id)
            agents[ssp_id] = _Agent(view_for_ssp(scenario, ssp_id, neighbours[ssp_id]), scenario.weights, scenario.line_constraints)
        _sweep(agents, seed, part)
    except Exception as exc:  # raised again where the merged run reaches it
        part.events.append((part.turn, exc))
    part.lp_solves = sum(agent.lp_solves for agent in agents.values())
    part.offers_priced_out = sum(agent.offers_priced_out for agent in agents.values())
    part.outcomes = {s: (agent.cm, agent.fx, agent.utility_kwh()) for s, agent in agents.items()}
    return part


def _replay(parts: list[_Part], per_ssp_initial: dict[str, float], iteration_cap: int) -> tuple[list[ConvergencePoint], list[LogRecord]]:
    """The run's trace and log in the order of one global sweep: the parts' events merged by turn, as each turn belongs to one share.

    Each accepted solve traces the sum of every SSP's Utility interaction in
    id order (``per_ssp_initial``'s), as one global sweep would; the first
    solve past ``iteration_cap`` raises ``ConvergenceError`` with the trace
    and log so far, and an exception event is raised where the merge reaches it."""
    utilities = dict(per_ssp_initial)
    trace: list[ConvergencePoint] = []
    log: list[LogRecord] = []
    for _, event in heapq.merge(*(part.events for part in parts), key=itemgetter(0)):
        if isinstance(event, LogRecord):
            log.append(event)
        elif isinstance(event, Exception):
            raise event
        elif len(trace) >= iteration_cap:
            raise ConvergenceError(f"no quiescence within {iteration_cap} iterations", trace, log)
        else:
            utilities.update(event)
            trace.append(ConvergencePoint(len(trace) + 1, sum(utilities.values())))
    return trace, log


def _cpu_count() -> int:
    """The CPUs this process may run on, or 1 where the platform cannot tell (and may not fork)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _deal(groups: list[list[str]], shares: int) -> list[list[str]]:
    """Each share's SSP ids in id order: the components are dealt, largest first, each to the share with the fewest SSPs so far (the first such share); one share at least, an empty one for no component."""
    dealt: list[list[str]] = [[] for _ in range(max(1, min(shares, len(groups))))]
    for group in sorted(groups, key=len, reverse=True):
        min(dealt, key=len).extend(group)
    return [sorted(share) for share in dealt]


def _run_shares(scenario: Scenario, shares: list[list[str]], neighbours: dict[str, list[str]], seed: int, iteration_cap: int) -> list[_Part]:
    """Each share's part. Every share but the last runs in a forked worker; this process runs the last, and each share it cannot fork."""
    run = partial(_run_part, scenario, neighbours=neighbours, seed=seed, iteration_cap=iteration_cap)
    local = shares[-1:]
    workers: list[tuple[int, int]] = []  # (pid, read end of its pipe)
    try:
        for share in shares[:-1]:
            try:
                workers.append(_fork(partial(run, share)))
            except OSError:  # no pipe or process to spare: a share's part is the same wherever it runs
                local.append(share)
        parts = [run(share) for share in local]
        sent = [_collect(read_fd) for _, read_fd in workers]
    finally:
        # every read end first: a later worker holds copies of the earlier
        # ones, and a worker still writing exits on EPIPE once none is open
        for _, read_fd in workers:
            os.close(read_fd)
        statuses = [os.waitpid(pid, 0)[1] for pid, _ in workers]
    # a worker that exited non-zero may have sent part of a pickle, which the
    # pickler writes frame by frame
    for (pid, _), status, data in zip(workers, statuses, sent):
        if status != 0:
            raise RuntimeError(f"engine worker {pid} failed (exit code {os.waitstatus_to_exitcode(status)})")
        try:
            parts.append(pickle.loads(data))
        except Exception as exc:
            raise RuntimeError(f"engine worker {pid} sent a result that does not unpickle: {exc!r}") from exc
    return parts


def _fork(work: Callable[[], _Part]) -> tuple[int, int]:
    """Start a child that pickles ``work()`` into a pipe and exits; return its pid and the pipe's read end."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:  # the worker leaves by os._exit, never through the caller's frames
        status = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                pickle.dump(work(), pipe, pickle.HIGHEST_PROTOCOL)
            status = 0
        except BrokenPipeError:  # the caller stopped reading: it is raising an error of its own
            pass
        except BaseException as exc:  # reported here: it cannot reach the caller
            print(f"engine worker {os.getpid()}: {type(exc).__name__}: {exc}", file=sys.stderr, flush=True)
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd


def _collect(read_fd: int) -> bytes:
    """What a worker wrote to its pipe, read to the end."""
    with open(read_fd, "rb", closefd=False) as pipe:
        return pipe.read()


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
       payload is a dict of exactly the aggregate numeric fields (plus the
       protocol token); an entry that is no LogRecord, a payload that is no
       dict, and any extra field, container value, negative or non-finite
       number, or subscriber id in a payload is a finding.
    2. Aggregation correctness by replay: the engine is re-run under the same
       (scenario, anm, weights, seed) and the audited log must match the
       regenerated one message for message, which pins every offer to the
       sender's aggregate surplus at emission time.
    """
    findings: list[str] = []
    # kinds and endpoints are looked up in tuples, which compare by == and so
    # take a record field of any type, an unhashable one included
    ssp_ids = scenario.ssp_ids
    subscriber_ids = {
        sub.id for cfg in scenario.ssps for sub in cfg.consumers + cfg.producers
    }
    allowed = {OFFER_KIND: {"energy_kwh", "bound", "token"}, CLAIM_KIND: {"amount_kwh"}}
    for k, record in enumerate(log):
        if not isinstance(record, LogRecord):
            findings.append(f"message {k}: not a LogRecord, got {type(record).__name__}")
            continue
        where = f"message {k} ({record.kind} {record.src}->{record.dst})"
        if record.kind not in (OFFER_KIND, CLAIM_KIND):
            findings.append(f"{where}: unknown message kind")
            continue
        if not isinstance(record.payload, dict):
            findings.append(f"{where}: payload must be a dict, got {type(record.payload).__name__}")
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
            shown = f"{got.kind} {got.payload}" if isinstance(got, LogRecord) else repr(got)
            findings.append(f"message {k} differs from replay: got {shown}, expected {want.kind} {want.payload}")
    return AuditReport(passed=not findings, findings=findings)

