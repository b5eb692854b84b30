"""Single-traveller route planning on the relaxed graph.

plan_individual returns a cost-optimal simple path, pricing each edge at its
shared_cost among the travellers riding it.  Solo routes have no riders, so
every edge costs its base cost: they are read off the graph's reverse
shortest-path tree towards the destination without a search.  Best-response
replanning passes the joint plan's edge labels and runs an A* search (Hart,
Nilsson & Raphael, 1968) guided by the base-cost distance to the destination
times the least share of its base cost any edge can cost, which the largest
label fixes: an admissible, consistent heuristic.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import AbstractSet, Hashable, Mapping

from .errors import InputError
from .transit import UNREACHABLE, RelaxedGraph

AgentId = Hashable
Edge = tuple[str, str]

# the share of an edge's solo cost that is split among its n users, and the
# share every user pays regardless of group size
DISCOUNT_SHARE = 0.8
FLOOR_SHARE = 0.2

# The search is guided by (1 - GUIDE_SLACK) * floor * distance.  With the full
# floor, edges whose cost equals floor times their base cost add nothing to the
# estimate, so two labels can tie exactly and float rounding of cost + estimate
# decides which one pops first; an equal-cost path with a worse tie-break can
# then win.  The slack gives every edge a margin of a millionth of its floor
# cost, far above the rounding error of the sums, so the search returns what
# uniform-cost search returns.
GUIDE_SLACK = 1e-6


def shared_cost(c_single: float, n: int) -> float:
    """Cost per traveller of an edge of solo cost c_single in a group of n."""
    if n < 1:
        raise InputError(f"group size must be >= 1, got {n}")
    if c_single < 0:
        raise InputError("cost must be nonnegative")
    return (DISCOUNT_SHARE / n + FLOOR_SHARE) * c_single


@dataclass(frozen=True)
class AgentRequest:
    agent: AgentId
    origin: str
    destination: str

    def __post_init__(self) -> None:
        if self.origin == self.destination:
            raise InputError(f"agent {self.agent!r}: origin equals destination ({self.origin})")


@dataclass(frozen=True)
class Plan:
    """One traveller's route: a chained sequence of relaxed-graph edges."""

    agent: AgentId
    legs: tuple[Edge, ...]
    total_cost: float

    def stops(self) -> tuple[str, ...]:
        if not self.legs:
            return ()
        return (self.legs[0][0],) + tuple(leg[1] for leg in self.legs)

    def to_dict(self) -> dict:
        return {
            "agent": self.agent,
            "origin": self.legs[0][0] if self.legs else None,
            "destination": self.legs[-1][1] if self.legs else None,
            "legs": [list(leg) for leg in self.legs],
            "cost": self.total_cost,
        }


def plan_individual(
    graph: RelaxedGraph,
    request: AgentRequest,
    riders: Mapping[Edge, AbstractSet[AgentId]] = {},
) -> Plan | None:
    """Minimum-cost simple path from origin to destination, or None.

    riders labels edges with their travellers, as JointPlan.edges does; an
    edge costs shared_cost of its base cost (its minimal duration in minutes)
    among its riders and the traveller, so the base cost without riders.
    Ties are broken towards fewer legs, then the lexicographically smallest
    stop sequence, so results are reproducible.  Returns None, without
    searching, when the destination is unreachable.  Without riders the
    route is read off graph.tree_to(destination), which breaks ties the same
    way, and nothing is searched.  With riders, the largest group a label
    allows, its riders and the traveller, fixes the floor: the least share of
    its base cost any edge can cost.  The A* search is guided by just under
    the floor times the base-cost distance to the destination.
    """
    if request.origin not in graph.nodes:
        raise InputError(f"unknown origin stop {request.origin!r}")
    if request.destination not in graph.nodes:
        raise InputError(f"unknown destination stop {request.destination!r}")
    agent, names, position, out_edges = request.agent, graph.names, graph.positions, graph.out_edges
    origin, destination = position[request.origin], position[request.destination]
    distance, next_hop = graph.tree_to(request.destination)
    if distance[origin] == UNREACHABLE:
        return None
    if not riders:
        # each edge costs shared_cost(base, 1), which is float(base), summed
        # from the origin as the search sums it
        edges, stops, cost, node = graph.edges, [request.origin], 0.0, origin
        while node != destination:
            node = next_hop[node]
            stops.append(names[node])
            cost += float(edges[stops[-2], stops[-1]])
        return Plan(agent=agent, legs=tuple(zip(stops, stops[1:])), total_cost=cost)
    crowd = max(len(users) + (agent not in users) for users in riders.values())
    guide = (1.0 - GUIDE_SLACK) * (DISCOUNT_SHARE / crowd + FLOOR_SHARE)

    # Labels are (cost + guide * remaining, cost, hops, path), with paths of
    # node positions, which order as the stop names do.  The estimate is
    # constant per node, so labels at one node still pop in (cost, hops,
    # path) order, and the heuristic is consistent, so the first label
    # settled at a node is its tie-broken optimum; edge costs are strictly
    # positive, so optimal paths are simple.
    heap = [(guide * distance[origin], 0.0, 0, (origin,))]
    settled = bytearray(len(names))
    while heap:
        _, cost, hops, path = heapq.heappop(heap)
        node = path[-1]
        if settled[node]:
            continue
        settled[node] = 1
        if node == destination:
            stops = [names[i] for i in path]
            return Plan(agent=agent, legs=tuple(zip(stops, stops[1:])), total_cost=cost)
        name = names[node]
        for succ, base in out_edges[node]:
            if settled[succ]:
                continue
            remaining = distance[succ]
            if remaining == UNREACHABLE:
                continue
            users = riders.get((name, names[succ]), ())
            g = cost + shared_cost(base, len(users) + (agent not in users))
            heapq.heappush(heap, (g + guide * remaining, g, hops + 1, path + (succ,)))
    return None
