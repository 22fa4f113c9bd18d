"""Coalition formation and neighborhood maps.

Coalitions group SSPs whose surpluses and deficits cancel, so exchange traffic
stays inside small groups instead of a full mesh. The belief map (pairwise
probabilities of ending up in the same coalition) is maintained by exponential
forgetting over observed coalitions; its binary snapshot gates which SSPs may
exchange offers during a run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _pair(a: str, b: str) -> tuple[str, str]:
    if a == b:
        raise ValueError(f"no self-pair for {a!r}")
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class CoalitionSet:
    """Disjoint non-empty groups covering every SSP exactly once."""

    groups: tuple[frozenset[str], ...]

    def group_of(self, ssp_id: str) -> frozenset[str]:
        for group in self.groups:
            if ssp_id in group:
                return group
        raise KeyError(f"{ssp_id!r} in no coalition")

    def same_group(self, a: str, b: str) -> bool:
        return self.group_of(a) is self.group_of(b)

    def __len__(self) -> int:
        return len(self.groups)


@dataclass(frozen=True)
class BeliefNeighborhoodMap:
    """Symmetric pairwise probability that two SSPs belong together."""

    probabilities: dict[tuple[str, str], float]

    def probability(self, a: str, b: str) -> float:
        return self.probabilities[_pair(a, b)]


@dataclass(frozen=True)
class ActualNeighborhoodMap:
    """Binary symmetric snapshot of the belief map: which SSPs may exchange."""

    ssp_ids: tuple[str, ...]
    edges: frozenset[tuple[str, str]]

    def connected(self, a: str, b: str) -> bool:
        if a == b:
            return False
        return _pair(a, b) in self.edges

    def component_count(self) -> int:
        remaining = set(self.ssp_ids)
        count = 0
        while remaining:
            count += 1
            stack = [sorted(remaining)[0]]
            while stack:
                node = stack.pop()
                if node not in remaining:
                    continue
                remaining.remove(node)
                stack.extend(n for n in remaining if self.connected(node, n))
        return count


def meshed_map(ssp_ids: tuple[str, ...] | list[str]) -> ActualNeighborhoodMap:
    ids = tuple(sorted(ssp_ids))
    return ActualNeighborhoodMap(ids, frozenset(_pair(a, b) for a in ids for b in ids if a < b))


def empty_map(ssp_ids: tuple[str, ...] | list[str]) -> ActualNeighborhoodMap:
    return ActualNeighborhoodMap(tuple(sorted(ssp_ids)), frozenset())


def map_from_coalitions(coalitions: CoalitionSet) -> ActualNeighborhoodMap:
    """Full mesh inside each coalition, no edges across coalitions."""
    ids: list[str] = []
    edges: set[tuple[str, str]] = set()
    for group in coalitions.groups:
        members = sorted(group)
        ids.extend(members)
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                edges.add(_pair(a, b))
    return ActualNeighborhoodMap(tuple(sorted(ids)), frozenset(edges))


def initial_bnm(ssp_ids: tuple[str, ...] | list[str], prior: float = 0.5) -> BeliefNeighborhoodMap:
    """Maximum-entropy prior by default: nothing is known about the pairs."""
    ids = sorted(ssp_ids)
    return BeliefNeighborhoodMap({_pair(a, b): prior for i, a in enumerate(ids) for b in ids[i + 1:]})


def form_coalitions(statuses: dict[str, float], max_group_size: int) -> CoalitionSet:
    """Greedy complementary pairing of surplus and deficit groups.

    Repeatedly merges the two groups whose union most reduces the summed
    absolute status (only opposite-signed groups can reduce it), subject to
    ``max_group_size``. Ties break on the smallest member ids, so the result is
    deterministic.
    """
    if not statuses:
        raise ValueError("at least one SSP is required")
    if max_group_size < 1:
        raise ValueError("max_group_size must be >= 1")
    groups: list[tuple[frozenset[str], float]] = [
        (frozenset([ssp_id]), status) for ssp_id, status in sorted(statuses.items())
    ]
    while True:
        best_gain = 1e-9
        best: tuple[int, int] | None = None
        for i in range(len(groups)):
            for k in range(i + 1, len(groups)):
                (members_a, sum_a), (members_b, sum_b) = groups[i], groups[k]
                if len(members_a) + len(members_b) > max_group_size:
                    continue
                gain = abs(sum_a) + abs(sum_b) - abs(sum_a + sum_b)
                if gain > best_gain + 1e-12:
                    best_gain, best = gain, (i, k)
                elif best is not None and abs(gain - best_gain) <= 1e-12:
                    current = (min(groups[best[0]][0]), min(groups[best[1]][0]))
                    candidate = (min(members_a), min(members_b))
                    if candidate < current:
                        best = (i, k)
        if best is None:
            break
        i, k = best
        merged = (groups[i][0] | groups[k][0], groups[i][1] + groups[k][1])
        groups = [g for idx, g in enumerate(groups) if idx not in (i, k)]
        groups.append(merged)
        groups.sort(key=lambda g: min(g[0]))
    return CoalitionSet(tuple(members for members, _ in groups))


def update_bnm(bnm: BeliefNeighborhoodMap, coalitions: CoalitionSet, eta: float) -> BeliefNeighborhoodMap:
    """Exponential forgetting: p' = (1-eta)*p + eta*[same coalition].

    eta in (0, 1]; eta=1 replaces the belief with the latest observation. The
    update keeps every probability in [0, 1] and drives it monotonically to the
    indicator under constant evidence.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must be in (0, 1], got {eta}")
    updated = {}
    for (a, b), p in bnm.probabilities.items():
        evidence = 1.0 if coalitions.same_group(a, b) else 0.0
        updated[(a, b)] = (1.0 - eta) * p + eta * evidence
    return BeliefNeighborhoodMap(updated)


def snapshot_anm(
    bnm: BeliefNeighborhoodMap,
    *,
    tau: float = 0.5,
    sample_seed: int | None = None,
) -> ActualNeighborhoodMap:
    """Binary realization of the belief map.

    Threshold mode (default): edge iff p >= tau. Sample mode (``sample_seed``
    given): each edge present with probability p, drawn deterministically from
    the seed with one draw per pair in sorted order.
    """
    ids = sorted({ssp_id for pair in bnm.probabilities for ssp_id in pair})
    edges: set[tuple[str, str]] = set()
    if sample_seed is None:
        for pair, p in bnm.probabilities.items():
            if p >= tau:
                edges.add(pair)
    else:
        rng = np.random.Generator(np.random.PCG64(sample_seed))
        for pair in sorted(bnm.probabilities):
            if rng.random() < bnm.probabilities[pair]:
                edges.add(pair)
    return ActualNeighborhoodMap(tuple(ids), frozenset(edges))


def should_delegate(old: BeliefNeighborhoodMap, new: BeliefNeighborhoodMap, delta: float = 0.2) -> bool:
    """True iff some pair's belief moved by at least ``delta`` (then a fresh
    snapshot is worth pushing to the SSPs)."""
    if set(old.probabilities) != set(new.probabilities):
        raise ValueError("belief maps cover different pair sets")
    return any(abs(new.probabilities[pair] - old.probabilities[pair]) >= delta for pair in old.probabilities)


def bnm_to_csv(bnm: BeliefNeighborhoodMap) -> str:
    lines = ["ssp_a,ssp_b,p"]
    for (a, b) in sorted(bnm.probabilities):
        lines.append(f"{a},{b},{bnm.probabilities[(a, b)]!r}")
    return "\n".join(lines) + "\n"


def anm_to_csv(anm: ActualNeighborhoodMap) -> str:
    lines = ["ssp_a,ssp_b,present"]
    ids = anm.ssp_ids
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            lines.append(f"{a},{b},{1 if anm.connected(a, b) else 0}")
    return "\n".join(lines) + "\n"


def anm_from_csv(text: str) -> ActualNeighborhoodMap:
    lines = [line for line in text.strip().splitlines() if line]
    if not lines or lines[0] != "ssp_a,ssp_b,present":
        raise ValueError("neighborhood CSV must start with header 'ssp_a,ssp_b,present'")
    ids: set[str] = set()
    edges: set[tuple[str, str]] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 3 or parts[2] not in ("0", "1"):
            raise ValueError(f"line {lineno}: expected 'ssp_a,ssp_b,0|1', got {line!r}")
        a, b, present = parts
        ids.update((a, b))
        if present == "1":
            edges.add(_pair(a, b))
    return ActualNeighborhoodMap(tuple(sorted(ids)), frozenset(edges))
