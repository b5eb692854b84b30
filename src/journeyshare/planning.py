"""Single-traveller route planning on the relaxed graph.

plan_individual returns a cost-optimal simple path, pricing each edge at its
shared_cost among the travellers riding it.  Solo routes have no riders, so
every edge costs its base cost: they are read off the graph's reverse
shortest-path tree towards the destination, grown only until the origin is
settled, without a forward search.  Best-response replanning passes an
Occupancy, integer rider counts per edge slot, and runs an A* search (Hart,
Nilsson & Raphael, 1968) guided by a lower bound on the base-cost distance
to the destination, read off that tree as far as it has grown and never
growing it, times the least share of its base cost any edge can cost, which
the largest count fixes: an admissible, consistent heuristic.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Hashable, Iterable

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


class Occupancy:
    """How many travellers ride each relaxed-graph edge.

    counts holds one count per graph.slots slot, and histogram the number of
    edges at each count up to the largest, so that crowd, the largest group a
    traveller on no edge can join, needs no scan.  A best-response search
    takes its traveller off its own legs first: an edge with count k then
    makes a group of k + 1 with the traveller.
    """

    def __init__(self, graph: RelaxedGraph) -> None:
        self.counts = [0] * len(graph.edges)
        self.histogram = [len(graph.edges)]

    @property
    def crowd(self) -> int:
        """One more than the largest count."""
        return len(self.histogram)

    def board(self, slots: Iterable[int]) -> None:
        """Count one more traveller on each slot."""
        counts, histogram = self.counts, self.histogram
        for slot in slots:
            count = counts[slot]
            histogram[count] -= 1
            count += 1
            counts[slot] = count
            if count == len(histogram):
                histogram.append(1)
            else:
                histogram[count] += 1

    def alight(self, slots: Iterable[int]) -> None:
        """Count one traveller fewer on each slot."""
        counts, histogram = self.counts, self.histogram
        for slot in slots:
            count = counts[slot]
            histogram[count] -= 1
            counts[slot] = count - 1
            histogram[count - 1] += 1
            if not histogram[-1]:
                histogram.pop()


def plan_individual(
    graph: RelaxedGraph,
    request: AgentRequest,
    occupancy: Occupancy | None = None,
    expanded: list[int] | None = None,
) -> Plan | None:
    """Minimum-cost simple path from origin to destination, or None.

    occupancy counts the other travellers on each edge; an edge with count k
    costs shared_cost of its base cost (its minimal duration in minutes) in a
    group of k + 1, so its base cost without occupancy.  Ties are broken
    towards fewer legs, then the lexicographically smallest stop sequence, so
    results are reproducible.

    Without occupancy the destination's tree (graph.tree_to) grows until the
    origin is settled, and the route is read off its next hops, which break
    ties the same way, and its cost is the origin's tree distance: the exact
    sum of the integer base costs, so the float that summing each edge's
    shared_cost(base, 1) gives.  An unreachable destination returns None.

    With occupancy the tree is read as it stands and never grown.  The crowd
    fixes the floor: the least share of its base cost any edge can cost.
    The A* search is guided by just under the floor times a lower bound on
    the base-cost distance to the destination: a settled node's distance, or
    the tree's radius for an unsettled one, which is no more than that
    node's distance and no less than any settled one, so the guide stays
    consistent.  An origin the tree already knows to be unreachable returns
    None without a search.  The search returns the same tie-broken optimum
    whatever the guide, so however far the tree has grown.  It appends to
    expanded, if given, the position of every node whose out-edges it
    priced: with the same crowd and the same counts on those out-edges, a
    search for the same request returns the same plan.
    """
    if request.origin not in graph.nodes:
        raise InputError(f"unknown origin stop {request.origin!r}")
    if request.destination not in graph.nodes:
        raise InputError(f"unknown destination stop {request.destination!r}")
    agent, names, position, out_edges = request.agent, graph.names, graph.positions, graph.out_edges
    origin, destination = position[request.origin], position[request.destination]
    tree = graph.tree_to(request.destination)
    if occupancy is None:
        tree.settle(origin)
    distance, radius = tree.distance, tree.radius
    if distance[origin] == UNREACHABLE:
        return None
    if occupancy is None:
        next_hop, stops, node = tree.next_hop, [request.origin], origin
        while node != destination:
            node = next_hop[node]
            stops.append(names[node])
        return Plan(agent=agent, legs=tuple(zip(stops, stops[1:])), total_cost=distance[origin])
    # share[k] * base is the float shared_cost(base, k + 1) returns, as
    # multiplying by 1.0 is exact
    share = [shared_cost(1.0, n) for n in range(1, occupancy.crowd + 1)]
    guide = (1.0 - GUIDE_SLACK) * share[-1]
    counts = occupancy.counts

    # Labels are (cost + guide * remaining, cost, hops, parent's path, node),
    # with paths of node positions, which order as the stop names do; labels
    # that tie up to hops have parent paths of equal length, so they order as
    # their full paths.  The estimate is constant per node, so labels at one
    # node still pop in (cost, hops, path) order, and the heuristic is
    # consistent, so the first label settled at a node is its tie-broken
    # optimum; edge costs are strictly positive, so optimal paths are simple.
    # best holds the least cost pushed to each node, and -1.0 once it is
    # settled: a label dearer than that could never settle its node, so it is
    # not pushed.
    best = [math.inf] * len(names)
    heappush, heappop = heapq.heappush, heapq.heappop
    # the origin's label pops first whatever its estimate
    heap = [(0.0, 0.0, 0, (), origin)]
    while heap:
        _, cost, hops, parent, node = heappop(heap)
        if cost > best[node]:
            continue
        path = parent + (node,)
        if node == destination:
            stops = [names[i] for i in path]
            return Plan(agent=agent, legs=tuple(zip(stops, stops[1:])), total_cost=cost)
        best[node] = -1.0
        if expanded is not None:
            expanded.append(node)
        hops += 1
        for succ, base, slot in out_edges[node]:
            g = cost + share[counts[slot]] * base
            if g > best[succ]:
                continue
            remaining = distance[succ]
            if remaining < 0:
                if remaining == UNREACHABLE:
                    continue
                remaining = radius
            best[succ] = g
            heappush(heap, (g + guide * remaining, g, hops, path, succ))
    return None
