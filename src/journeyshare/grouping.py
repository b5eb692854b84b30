"""Decomposition of a converged joint plan for timetable matching.

A group is found by traversing travellers: those whose routes meet at a stop,
directly or transitively, share a group even when they share no edge, and
each group is timetabled independently.  Within a group, the journey splits
into parts, maximal chains travelled by one fixed set of agents.  The
relevant timetable for a group keeps only services that connect stops of one
part in travel direction, which admits direct trains over a stopping route;
it is a view that holds the network's own departure and walk tuples.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Mapping

from .errors import ConsistencyError
from .planning import AgentId, Edge, Plan
from .best_response import JointPlan
from .transit import NETWORK_ORDER, TimetabledConnection, TransitNetwork, WalkingLink


@dataclass(frozen=True)
class Group:
    """Travellers whose routes are linked through shared stops, not
    necessarily through shared edges, with their plans and edge labels."""

    id: int
    agents: frozenset
    edges: Mapping[Edge, frozenset]
    plans: Mapping[AgentId, Plan]


@dataclass(frozen=True)
class Part:
    """Maximal contiguous segment of a group journey with a constant agent set.

    prev/next give, per agent, the id of the part the agent travels
    immediately before/after this one (None at the journey ends).
    """

    id: int
    agents: frozenset
    stops: tuple[str, ...]
    prev: Mapping[AgentId, int | None]
    next: Mapping[AgentId, int | None]

    def edges(self) -> tuple[Edge, ...]:
        return tuple(zip(self.stops, self.stops[1:]))


def identify_groups(joint: JointPlan) -> list[Group]:
    """Split the joint plan into groups of travellers linked through shared stops.

    Each ungrouped agent, in sorted order, starts a group that takes in every
    traveller sharing a stop with a member, so groups come out ordered by
    their smallest agent id.  Each stop's travellers are visited once.
    """
    travellers_at: dict[str, list[AgentId]] = {}
    for agent, plan in joint.per_agent.items():
        for stop in plan.stops():
            travellers_at.setdefault(stop, []).append(agent)

    groups: list[Group] = []
    grouped: set[AgentId] = set()
    for first in sorted(joint.per_agent):
        if first in grouped:
            continue
        grouped.add(first)
        members = [first]
        for agent in members:  # grows as the traversal reaches new travellers
            for stop in joint.per_agent[agent].stops():
                for other in travellers_at.pop(stop, ()):
                    if other not in grouped:
                        grouped.add(other)
                        members.append(other)
        plans = {agent: joint.per_agent[agent] for agent in members}
        edges = {leg: joint.edges[leg] for plan in plans.values() for leg in plan.legs}
        groups.append(Group(id=len(groups), agents=frozenset(members), edges=edges, plans=plans))
    return groups


def split_into_parts(group: Group) -> list[Part]:
    """Cut every agent's route at each change of travelling companions.

    Runs of consecutive legs with an identical label are shared verbatim by
    all their users (the label says so and plans are simple paths), so the
    same segment discovered through different agents unifies into one part.
    """
    segments: dict[tuple[frozenset, tuple[Edge, ...]], int] = {}
    order: list[tuple[frozenset, tuple[Edge, ...]]] = []
    chains: dict[AgentId, list[int]] = {}
    for agent in sorted(group.agents):
        legs = group.plans[agent].legs
        runs: list[tuple[frozenset, list[Edge]]] = []
        for leg in legs:
            label = group.edges[leg]
            if runs and runs[-1][0] == label:
                runs[-1][1].append(leg)
            else:
                runs.append((label, [leg]))
        chain = []
        for label, seg_legs in runs:
            key = (label, tuple(seg_legs))
            if key not in segments:
                segments[key] = len(segments)
                order.append(key)
            chain.append(segments[key])
        chains[agent] = chain

    prev: dict[int, dict[AgentId, int | None]] = {pid: {} for pid in range(len(order))}
    nxt: dict[int, dict[AgentId, int | None]] = {pid: {} for pid in range(len(order))}
    for agent, chain in chains.items():
        for k, pid in enumerate(chain):
            prev[pid][agent] = chain[k - 1] if k > 0 else None
            nxt[pid][agent] = chain[k + 1] if k + 1 < len(chain) else None

    parts = []
    for pid, (label, seg_legs) in enumerate(order):
        stops = (seg_legs[0][0],) + tuple(leg[1] for leg in seg_legs)
        parts.append(Part(id=pid, agents=label, stops=stops, prev=prev[pid], next=nxt[pid]))
    return parts


def part_precedence(parts: list[Part]) -> list[int]:
    """Topological order of parts under per-agent travel order.

    Raises ConsistencyError when the induced precedence relation has a cycle
    (agents traversing two shared segments in opposite orders cannot be
    timetabled together).
    """
    after: dict[int, set[int]] = {part.id: set() for part in parts}
    indegree = {part.id: 0 for part in parts}
    for part in parts:
        for nxt in part.next.values():
            if nxt is not None and nxt not in after[part.id]:
                after[part.id].add(nxt)
                indegree[nxt] += 1
    ready = [pid for pid, deg in indegree.items() if deg == 0]
    heapq.heapify(ready)
    topo: list[int] = []
    while ready:
        pid = heapq.heappop(ready)
        topo.append(pid)
        for succ in sorted(after[pid]):
            indegree[succ] -= 1
            if indegree[succ] == 0:
                heapq.heappush(ready, succ)
    if len(topo) != len(parts):
        raise ConsistencyError("part precedence contains a cycle")
    return topo


@dataclass(frozen=True)
class RelevantTimetable:
    """A group's relevant timetable as a view of the network's own index.

    departures maps a part stop to each next stop later on one of its parts,
    and walks maps each pair of consecutive part stops to its links; every
    value is the network's own tuple, in the network's order.  The part
    search reads only departures and walks, so it takes this view or the
    network alike.  connections and walking_links are derived on each read.
    """

    departures: Mapping[str, Mapping[str, tuple[TimetabledConnection, ...]]]
    walks: Mapping[tuple[str, str], tuple[WalkingLink, ...]]

    @property
    def connections(self) -> tuple[TimetabledConnection, ...]:
        """The kept legs in NETWORK_ORDER."""
        legs = [conn for to_stops in self.departures.values() for conns in to_stops.values() for conn in conns]
        return tuple(sorted(legs, key=NETWORK_ORDER))

    @property
    def walking_links(self) -> frozenset[WalkingLink]:
        return frozenset(link for links in self.walks.values() for link in links)


def relevant_timetable(parts: list[Part], network: TransitNetwork) -> RelevantTimetable:
    """The part of the network a group's scheduling may use: departures
    linking two stops of one part in travel direction, plus walking links
    between consecutive part stops.

    Reads each part stop's next stops once and keeps the network's tuple for
    those later on the part, so the cost is the part stops' next stops, not
    the departures kept, and no leg is copied.
    """
    departures: dict[str, dict[str, tuple[TimetabledConnection, ...]]] = {}
    walks: dict[tuple[str, str], tuple[WalkingLink, ...]] = {}
    for part in parts:
        position = {stop: i for i, stop in enumerate(part.stops)}
        for stop, i in position.items():
            next_stops = network.departures.get(stop, {})
            ahead = {succ: conns for succ, conns in next_stops.items() if position.get(succ, -1) > i}
            if ahead:
                departures.setdefault(stop, {}).update(ahead)
        for pair in zip(part.stops, part.stops[1:]):
            if pair in network.walks:
                walks[pair] = network.walks[pair]
    return RelevantTimetable(departures, walks)


def group_to_dict(group: Group, parts: list[Part]) -> dict:
    return {
        "group_id": group.id,
        "agents": sorted(group.agents),
        "parts": [{"stops": list(part.stops), "agents": sorted(part.agents)} for part in parts],
    }
