"""Decomposition of a converged joint plan for timetable matching.

Travellers that share no edges, directly or transitively, can be timetabled
independently; within one such group, the journey splits into parts, maximal
chains travelled by one fixed set of agents.  The relevant timetable for a
group keeps only services that connect stops of one part in travel direction,
which admits direct trains over a stopping route.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Mapping

from .errors import ConsistencyError
from .planning import AgentId, Edge, Plan
from .best_response import JointPlan
from .transit import TimetabledConnection, TransitNetwork, WalkingLink


@dataclass(frozen=True)
class Group:
    """A connected, edge-disjoint chunk of the joint plan."""

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
    """Split the joint plan into weakly-connected components.

    Each agent's legs form a chain, so every agent lands in exactly one
    component; groups are returned ordered by their smallest agent id.
    """
    adjacency: dict[str, set[str]] = {}
    for a, b in joint.edges:
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)

    component_of: dict[str, int] = {}
    n_components = 0
    for start in sorted(adjacency):
        if start in component_of:
            continue
        comp = n_components
        n_components += 1
        stack = [start]
        component_of[start] = comp
        while stack:
            node = stack.pop()
            for nxt in adjacency[node]:
                if nxt not in component_of:
                    component_of[nxt] = comp
                    stack.append(nxt)

    agents_by_comp: dict[int, set] = {}
    for agent, plan in joint.per_agent.items():
        comps = {component_of[leg[0]] for leg in plan.legs}
        if len(comps) != 1:
            raise ConsistencyError(f"agent {agent!r} has legs in {len(comps)} components")
        agents_by_comp.setdefault(comps.pop(), set()).add(agent)

    groups = []
    ordered = sorted(agents_by_comp.items(), key=lambda item: min(item[1]))
    for group_id, (comp, agents) in enumerate(ordered):
        edges = {
            leg: users for leg, users in joint.edges.items() if component_of[leg[0]] == comp
        }
        plans = {agent: joint.per_agent[agent] for agent in agents}
        groups.append(Group(id=group_id, agents=frozenset(agents), edges=edges, plans=plans))
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


def relevant_timetable(parts: list[Part], network: TransitNetwork) -> TransitNetwork:
    """The network slice a group's scheduling may use: timetabled legs linking
    two stops of one part in travel direction, plus walking links between
    consecutive part stops, connections in (service_id, run_id, seq) order.

    Reads the network's per-stop index, so the cost is the number of
    departures from the parts' stops, not parts times network size.
    """
    stop_index = network.stop_index
    connections: list[TimetabledConnection] = []
    seen: set[tuple[str, int]] = set()
    walks: set[WalkingLink] = set()
    for part in parts:
        index = {stop: i for i, stop in enumerate(part.stops)}
        for stop, i in index.items():
            for conn in stop_index.departures.get(stop, ()):
                j = index.get(conn.to_stop)
                if j is None or i >= j:
                    continue
                key = (conn.run_id, conn.seq)
                if key not in seen:
                    seen.add(key)
                    connections.append(conn)
        for pair in zip(part.stops, part.stops[1:]):
            walks.update(stop_index.walks.get(pair, ()))

    connections.sort(key=lambda c: (c.service_id, c.run_id, c.seq))
    return TransitNetwork(stops=network.stops, connections=tuple(connections), walking_links=frozenset(walks))


def group_to_dict(group: Group, parts: list[Part]) -> dict:
    return {
        "group_id": group.id,
        "agents": sorted(group.agents),
        "parts": [{"stops": list(part.stops), "agents": sorted(part.agents)} for part in parts],
    }
