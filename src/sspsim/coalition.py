"""Coalition formation and neighborhood maps.

Coalitions group SSPs whose surpluses and deficits cancel, so exchange traffic
stays inside small groups instead of a full mesh. The belief map (pairwise
probabilities of ending up in the same coalition) is maintained by exponential
forgetting over observed coalitions; its binary snapshot gates which SSPs may
exchange offers during a run.
"""

from __future__ import annotations

from collections.abc import Sequence
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

    def neighbours(self, ssp_ids: Sequence[str]) -> dict[str, list[str]]:
        """Each SSP's neighbours among ``ssp_ids``, read from the edges as ``connected`` reads them: an edge counts as the pair (a, b) with a < b.

        A list follows the iteration order of ``edges``, not id order.
        """
        neighbours: dict[str, list[str]] = {ssp_id: [] for ssp_id in ssp_ids}
        for a, b in self.edges:
            if a < b and a in neighbours and b in neighbours:
                neighbours[a].append(b)
                neighbours[b].append(a)
        return neighbours

    def component_count(self) -> int:
        return len(components(self.neighbours(self.ssp_ids)))


def components(neighbours: dict[str, list[str]]) -> list[list[str]]:
    """The connected components of the graph that ``neighbours`` lists, each in id order, ordered by their smallest id."""
    unseen = set(neighbours)
    found = []
    for start in sorted(neighbours):
        if start not in unseen:
            continue
        unseen.remove(start)
        members, stack = [start], [start]
        while stack:
            reached = unseen.intersection(neighbours[stack.pop()])
            unseen -= reached
            members.extend(reached)
            stack.extend(reached)
        found.append(sorted(members))
    return found


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
    absolute status, ``|a| + |b| - |a + b|`` (only opposite-signed groups can
    reduce it), subject to ``max_group_size``. The groups are kept in order of
    their smallest member id and scanned pair by pair in that order, (i, k)
    with i < k. The pick replays a running threshold that starts at 1e-9: a
    pair becomes the best when its gain is more than 1e-12 above the current
    best's, and the threshold moves to its gain. A later pair within 1e-12 of
    that gain would win a tie only with a smaller (smallest id, smallest id)
    key, and in scan order no later pair has one, so the last pair to raise
    the threshold is merged. The result is deterministic. Without SSPs there
    is no coalition.

    Cost: the gain matrix is built once, O(N^2); each merge rewrites one row
    and column and scans the row maxima, O(N^2) array work but only O(N)
    Python work, and there are fewer than N merges.
    """
    if max_group_size < 1:
        raise ValueError("max_group_size must be >= 1")
    ids = sorted(statuses)
    members = [frozenset([ssp_id]) for ssp_id in ids]
    sums = np.array([statuses[ssp_id] for ssp_id in ids], dtype=float)
    sizes = np.ones(len(members), dtype=np.int64)
    alive = np.ones(len(members), dtype=bool)
    # gain[i, k]: the gain of merging slots i < k; -inf where no merge may happen.
    # A merged group keeps the slot of its smallest id, so slot order is scan order.
    gain = np.abs(sums)[:, None] + np.abs(sums)[None, :] - np.abs(sums[:, None] + sums[None, :])
    blocked = np.tril(np.ones(gain.shape, dtype=bool)) | np.isnan(gain) | (sizes[:, None] + sizes > max_group_size)
    gain[blocked] = -np.inf
    while True:
        best = _last_threshold_raise(gain)
        if best is None:
            break
        i, k = best
        members[i] = members[i] | members[k]
        sums[i] = sums[i] + sums[k]
        sizes[i] += sizes[k]
        alive[k] = False
        gain[k, :] = -np.inf
        gain[:, k] = -np.inf
        row = np.abs(sums[i]) + np.abs(sums) - np.abs(sums[i] + sums)
        row[~alive | np.isnan(row) | (sizes[i] + sizes > max_group_size)] = -np.inf
        gain[i, i + 1:] = row[i + 1:]
        gain[:i, i] = row[:i]
    return CoalitionSet(tuple(members[slot] for slot in np.flatnonzero(alive)))


def _last_threshold_raise(gain: np.ndarray) -> tuple[int, int] | None:
    """The pair the row-major scan of ``gain`` settles on, or None.

    Only a pair whose gain exceeds every gain before it in the scan can raise
    the threshold, so the replay visits just those: the rows whose maximum
    beats every earlier row's, and inside them the running maxima.
    """
    row_max = gain.max(axis=1, initial=-np.inf)
    earlier = np.maximum.accumulate(np.concatenate(([-np.inf], row_max)))[:-1]
    threshold, best = 1e-9, None
    for i in np.flatnonzero(row_max > np.maximum(earlier, 1e-9)):
        row = gain[i]
        before = np.maximum.accumulate(np.concatenate(([earlier[i]], row)))[:-1]
        for k in np.flatnonzero(row > before):
            if row[k] > threshold + 1e-12:
                threshold, best = float(row[k]), (int(i), int(k))
    return best


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
    """Read ``anm_to_csv``'s format; an error names its line in ``text``, blank lines counted."""
    lines = [(lineno, line.strip()) for lineno, line in enumerate(text.splitlines(), start=1) if line.strip()]
    if not lines or lines[0][1] != "ssp_a,ssp_b,present":
        raise ValueError("neighborhood CSV must start with header 'ssp_a,ssp_b,present'")
    ids: set[str] = set()
    edges: set[tuple[str, str]] = set()
    listed: dict[tuple[str, str], int] = {}  # the line that lists each pair
    for lineno, line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 3 or parts[2] not in ("0", "1") or parts[0] == parts[1]:
            raise ValueError(f"line {lineno}: expected 'ssp_a,ssp_b,0|1' with two distinct SSPs, got {line!r}")
        a, b, present = parts
        pair = _pair(a, b)
        if pair in listed:
            raise ValueError(f"lines {listed[pair]} and {lineno} both list the pair ({pair[0]}, {pair[1]})")
        listed[pair] = lineno
        ids.update((a, b))
        if present == "1":
            edges.add(pair)
    return ActualNeighborhoodMap(tuple(sorted(ids)), frozenset(edges))
