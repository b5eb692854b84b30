"""Independent brute-force oracles used by the tests.

These deliberately avoid the production search code: paths are enumerated
exhaustively, connectivity uses union-find, and costs are summed directly.
The one exception is uniform_cost_plan below, a frozen copy of the planner's
uniform-cost search from before it became goal-directed: the goal-directed
search must return exactly what it returns, tie-break and float sums
included.
"""

from __future__ import annotations

import heapq
import random
from types import SimpleNamespace
from typing import Callable, Iterable

from journeyshare.best_response import JointPlan, shared_cost
from journeyshare.errors import InputError
from journeyshare.metrics import ExperimentResult
from journeyshare.planning import AgentId, AgentRequest, Edge, Plan
from journeyshare.transit import RelaxedGraph


def all_simple_paths(
    edges: Iterable[tuple[str, str]], origin: str, destination: str
) -> list[tuple[str, ...]]:
    """Every simple path from origin to destination, by exhaustive DFS."""
    out: dict[str, list[str]] = {}
    for a, b in edges:
        out.setdefault(a, []).append(b)
    for succs in out.values():
        succs.sort()
    paths: list[tuple[str, ...]] = []

    def dfs(path: list[str]) -> None:
        node = path[-1]
        if node == destination:
            paths.append(tuple(path))
            return
        for nxt in out.get(node, []):
            if nxt not in path:
                path.append(nxt)
                dfs(path)
                path.pop()

    dfs([origin])
    return paths


def brute_force_best_path(
    edges: Iterable[tuple[str, str]],
    origin: str,
    destination: str,
    cost_fn: Callable[[tuple[str, str]], float],
) -> tuple[float, tuple[str, ...]] | None:
    """Minimum-cost simple path under the planner's tie-break order."""
    best = None
    for path in all_simple_paths(edges, origin, destination):
        cost = 0.0
        for leg in zip(path, path[1:]):
            cost += cost_fn(leg)
        key = (cost, len(path) - 1, path)
        if best is None or key < best:
            best = key
    if best is None:
        return None
    return best[0], best[2]


class UnionFind:
    def __init__(self):
        self.parent: dict = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


# --- label-setting search oracle ------------------------------------------
#
# uniform_cost_plan is planning.plan_individual as it was before the search
# became goal-directed, unchanged but for its name and for building its own
# adjacency and base costs from graph.edges.


def uniform_cost_plan(
    graph: RelaxedGraph,
    request: AgentRequest,
    edge_cost: Callable[[Edge], float] | None = None,
) -> Plan | None:
    """Minimum-cost simple path from origin to destination, or None.

    Ties are broken towards fewer legs, then the lexicographically smallest
    stop sequence, so results are reproducible.  Returns None when the
    destination is unreachable.
    """
    if request.origin not in graph.nodes:
        raise InputError(f"unknown origin stop {request.origin!r}")
    if request.destination not in graph.nodes:
        raise InputError(f"unknown destination stop {request.destination!r}")
    if edge_cost is None:
        edge_cost = lambda edge: float(graph.edges[edge])
    out: dict[str, list[str]] = {}
    for a, b in sorted(graph.edges):
        out.setdefault(a, []).append(b)

    # Labels are (cost, hops, path); edge costs are strictly positive, so the
    # first label settled at a node is its tie-broken optimum and optimal
    # paths are automatically simple.
    start = (0.0, 0, (request.origin,))
    heap: list[tuple[float, int, tuple[str, ...]]] = [start]
    settled: set[str] = set()
    while heap:
        cost, hops, path = heapq.heappop(heap)
        node = path[-1]
        if node in settled:
            continue
        settled.add(node)
        if node == request.destination:
            legs = tuple(zip(path, path[1:]))
            return Plan(agent=request.agent, legs=legs, total_cost=cost)
        for succ in out.get(node, ()):
            if succ in settled:
                continue
            step = edge_cost((node, succ))
            if step < 0:
                raise InputError(f"negative edge cost on {(node, succ)}")
            heapq.heappush(heap, (cost + step, hops + 1, path + (succ,)))
    return None


def occupancy_cost(joint: JointPlan, agent: AgentId, graph: RelaxedGraph) -> Callable[[Edge], float]:
    """Edge costs the agent faces when replanning while everyone else stays put.

    Written apart from the planner's own rider pricing, so that the oracles
    can check it.
    """

    def cost(edge: Edge) -> float:
        users = joint.edges.get(edge, frozenset())
        # the group on the edge is its users with the agent added
        return shared_cost(float(graph.edges[edge]), len(users) + (agent not in users))

    return cost


def naive_br_trace(initial: Iterable[Plan], graph: RelaxedGraph, max_rounds: int) -> list[dict[AgentId, Plan]]:
    """Round-robin best response as the paper states it, step by step.

    Every step relabels the edges from scratch, replans its traveller with
    uniform_cost_plan under occupancy_cost, sums the current plan's cost in
    leg order and adopts on a strict <: no counts and no skipped searches.
    Returns every traveller's plan after each step, sweeping until a sweep
    adopts nothing or max_rounds sweeps have run.
    """
    plans = {plan.agent: plan for plan in initial}
    trace = []
    for _ in range(max_rounds):
        improved = False
        for agent in sorted(plans):
            labels: dict[Edge, set] = {}
            for plan in plans.values():
                for leg in plan.legs:
                    labels.setdefault(leg, set()).add(plan.agent)
            cost = occupancy_cost(SimpleNamespace(edges=labels), agent, graph)
            current = plans[agent]
            request = AgentRequest(agent, current.legs[0][0], current.legs[-1][1])
            candidate = uniform_cost_plan(graph, request, cost)
            current_cost = 0.0
            for leg in current.legs:
                current_cost += cost(leg)
            if candidate.total_cost < current_cost:
                plans[agent] = candidate
                improved = True
            trace.append(dict(plans))
        if not improved:
            break
    return trace


def rosenthal_potential(joint: JointPlan, graph: RelaxedGraph) -> float:
    """Potential that decreases whenever a traveller strictly improves.

    Per edge with n users it accumulates the costs a 1st, 2nd, ... nth user
    would pay, making unilateral cost changes equal potential changes.
    """
    value = 0.0
    for edge in sorted(joint.edges):
        base = float(graph.edges[edge])
        for k in range(1, len(joint.edges[edge]) + 1):
            value += shared_cost(base, k)
    return value


def success_rates(results: Iterable[ExperimentResult]) -> dict[int, float]:
    """Fraction of groups with a timetable, per group size."""
    matched: dict[int, int] = {}
    totals: dict[int, int] = {}
    for result in results:
        for record in result.groups:
            totals[record.size] = totals.get(record.size, 0) + 1
            if record.matched:
                matched[record.size] = matched.get(record.size, 0) + 1
    return {size: matched.get(size, 0) / totals[size] for size in sorted(totals)}


def random_digraph(rng: random.Random, n_nodes: int, edge_prob: float = 0.4, max_cost: int = 60):
    """Random strictly-positive-cost digraph as an edge->cost dict."""
    nodes = [f"n{i:02d}" for i in range(n_nodes)]
    edges = {}
    for a in nodes:
        for b in nodes:
            if a != b and rng.random() < edge_prob:
                edges[(a, b)] = rng.randint(1, max_cost)
    return nodes, edges


def brute_force_relevant_timetable(parts, network):
    """Relevant timetable by scanning every connection and walking link of
    the network for every part."""
    from journeyshare.transit import TransitNetwork

    connections = []
    seen = set()
    walks = set()
    walk_index: dict = {}
    for link in network.walking_links:
        walk_index.setdefault((link.from_stop, link.to_stop), []).append(link)

    for part in parts:
        index = {stop: i for i, stop in enumerate(part.stops)}
        for conn in network.connections:
            i = index.get(conn.from_stop)
            j = index.get(conn.to_stop)
            if i is None or j is None or i >= j:
                continue
            key = (conn.run_id, conn.seq)
            if key not in seen:
                seen.add(key)
                connections.append(conn)
        for a, b in zip(part.stops, part.stops[1:]):
            for link in walk_index.get((a, b), []):
                walks.add(link)

    connections.sort(key=lambda c: (c.service_id, c.run_id, c.seq))
    return TransitNetwork(stops=network.stops, connections=tuple(connections), walking_links=frozenset(walks))


def express_excluded_per_run(network) -> set[tuple[str, str]]:
    """The relaxed graph's express filter as it was before it worked per
    stop pattern: every run enumerates its own witness segments.  Runs are
    grouped by sorting, so the oracle does not rely on connection order."""
    grouped: dict = {}
    for conn in network.connections:
        grouped.setdefault(conn.run_id, []).append(conn)
    runs = {run_id: tuple(sorted(legs, key=lambda c: c.seq)) for run_id, legs in sorted(grouped.items())}

    direct_pairs = {(c.from_stop, c.to_stop) for c in network.connections}
    covering: dict[tuple[str, str], list[tuple[str, int, int]]] = {}
    visits_by_run: dict[str, list[str]] = {}
    for run_id, legs in runs.items():
        visits = [legs[0].from_stop] + [leg.to_stop for leg in legs]
        visits_by_run[run_id] = visits
        for i in range(len(visits)):
            for j in range(i + 2, len(visits)):
                pair = (visits[i], visits[j])
                if pair in direct_pairs and pair[0] != pair[1]:
                    covering.setdefault(pair, []).append((run_id, i, j))

    excluded: set[tuple[str, str]] = set()
    locked: set[tuple[str, str]] = set()
    for pair in sorted(covering):
        if pair in locked:
            continue
        for run_id, i, j in sorted(covering[pair]):
            visits = visits_by_run[run_id]
            segment = [(visits[k], visits[k + 1]) for k in range(i, j)]
            if pair in segment:
                continue
            if any(p in excluded for p in segment):
                continue
            excluded.add(pair)
            locked.update(segment)
            break
    return excluded


def relaxed_edges_full_scan(network) -> list[tuple[tuple[str, str], int]]:
    """The relaxed graph's edges, in order, by a scan of every connection and
    every walking link: per stop pair the least duration, sorted by pair,
    less the express filter of express_excluded_per_run."""
    shortest: dict[tuple[str, str], int] = {}
    for leg in [*network.connections, *network.walking_links]:
        pair = (leg.from_stop, leg.to_stop)
        shortest[pair] = min(leg.duration, shortest.get(pair, leg.duration))
    excluded = express_excluded_per_run(network)
    return [(pair, shortest[pair]) for pair in sorted(shortest) if pair not in excluded]


def all_pairs_admissible(network, direction: str, min_km: float, max_km: float) -> list[tuple[str, str]]:
    """admissible_pairs by measuring every origin-quadrant stop against every
    destination-quadrant stop."""
    from journeyshare.experiments import _DIRECTION_RULE, quadrant_axes, quadrant_of
    from journeyshare.transit import haversine_km

    axes = quadrant_axes(network)
    by_quadrant: dict[int, list] = {1: [], 2: [], 3: [], 4: []}
    for stop in network.stops.values():
        quadrant = quadrant_of(stop.lat, stop.lon, axes)
        if quadrant is not None:
            by_quadrant[quadrant].append(stop)
    pairs = []
    for origin_q, dest_q in _DIRECTION_RULE[direction]:
        for origin in by_quadrant[origin_q]:
            for dest in by_quadrant[dest_q]:
                if min_km <= haversine_km((origin.lat, origin.lon), (dest.lat, dest.lon)) <= max_km:
                    pairs.append((origin.id, dest.id))
    return sorted(pairs)


# --- exhaustive scheduling oracle -----------------------------------------
#
# Enumerates every structurally possible chain of moves through a part and
# evaluates earliest arrivals / latest departures per chain directly, then
# replays the two-pass policy (earliest completion + latest start forward,
# journey-initial compression backward) over those exhaustive optima.

DAY = 1440


def part_chains(part, tt) -> list[tuple]:
    """All move sequences from the part's first to its last stop.

    A move is (kind, to_index, departure, duration); departure is None for
    walks, which may start at any minute.
    """
    index = {stop: i for i, stop in enumerate(part.stops)}
    moves: dict[int, list[tuple]] = {i: [] for i in range(len(part.stops))}
    for conn in tt.connections:
        i, j = index.get(conn.from_stop), index.get(conn.to_stop)
        if i is not None and j is not None and i < j:
            moves[i].append(("service", j, conn.departure, conn.duration))
    for link in tt.walking_links:
        i = index.get(link.from_stop)
        if i is not None and i + 1 < len(part.stops) and part.stops[i + 1] == link.to_stop:
            moves[i].append(("walk", i + 1, None, link.duration))
    chains: list[tuple] = []

    def dfs(i: int, acc: list) -> None:
        if i == len(part.stops) - 1:
            chains.append(tuple(acc))
            return
        for move in moves[i]:
            acc.append(move)
            dfs(move[1], acc)
            acc.pop()

    dfs(0, [])
    return chains


def chain_earliest_arrival(chain, ready: int) -> int | None:
    t = ready
    for kind, _, dep, dur in chain:
        if kind == "walk":
            t = t + dur
        else:
            if dep < t:
                return None
            t = dep + dur
        if t > DAY:
            return None
    return t


def chain_latest_departure(chain, arrive_by: int) -> int | None:
    bound = arrive_by
    for kind, _, dep, dur in reversed(chain):
        if kind == "walk":
            bound = bound - dur
        else:
            if dep + dur > bound:
                return None
            bound = dep
    return bound if bound >= 0 else None


def oracle_schedule(parts, tt):
    """Per-part (depart, arrive) under the two-pass policy, by brute force.

    Returns None when some part has no feasible chain within the day.
    """
    from journeyshare.grouping import part_precedence

    topo = part_precedence(parts)
    by_id = {p.id: p for p in parts}
    chains = {p.id: part_chains(p, tt) for p in parts}
    arrive: dict[int, int] = {}
    depart: dict[int, int] = {}
    for pid in topo:
        part = by_id[pid]
        ready = max(
            (arrive[part.prev[a]] for a in part.agents if part.prev[a] is not None),
            default=0,
        )
        arrivals = [t for t in (chain_earliest_arrival(c, ready) for c in chains[pid]) if t is not None]
        if not arrivals:
            return None
        arrive[pid] = min(arrivals)
        departs = [t for t in (chain_latest_departure(c, arrive[pid]) for c in chains[pid]) if t is not None]
        depart[pid] = max(t for t in departs if t >= ready)
    for pid in topo:
        part = by_id[pid]
        if any(part.prev[a] is not None for a in part.agents):
            continue
        bound = min(
            arrive[pid] if part.next[a] is None else depart[part.next[a]]
            for a in sorted(part.agents, key=str)
        )
        departs = [t for t in (chain_latest_departure(c, bound) for c in chains[pid]) if t is not None]
        if departs:
            depart[pid] = max(departs)
    return depart, arrive


def oracle_agent_durations(parts, tt) -> dict | None:
    solved = oracle_schedule(parts, tt)
    if solved is None:
        return None
    depart, arrive = solved
    durations = {}
    for part in parts:
        for agent in part.agents:
            if part.prev[agent] is None:
                first = part.id
                last = part.id
                cursor = part
                while cursor.next[agent] is not None:
                    last = cursor.next[agent]
                    cursor = next(p for p in parts if p.id == last)
                durations[agent] = arrive[last] - depart[first]
    return durations


def oracle_min_solo_duration(part, tt) -> int | None:
    """Duration-optimal solo schedule over one part, by chain enumeration.

    A chain's duration is pinned by its timetabled legs: leading walks start
    just in time, trailing walks leave immediately, middle slack is waiting.
    """
    best = None
    for chain in part_chains(part, tt):
        arrival = chain_earliest_arrival(chain, 0)
        if arrival is None:
            continue
        departure = chain_latest_departure(chain, arrival)
        if departure is None:
            continue
        duration = arrival - departure
        if best is None or duration < best:
            best = duration
    return best


def random_scheduling_instance(rng: random.Random):
    """Random 1..3-part chain/meet structure with <= 20 relevant connections."""
    from journeyshare.grouping import Part
    from journeyshare.transit import TimetabledConnection, TransitNetwork, WalkingLink

    shape = rng.choice(["solo", "chain", "meet"])
    if shape == "solo":
        k = rng.randint(2, 5)
        stops = tuple(f"P{i}" for i in range(k))
        parts = [Part(id=0, agents=frozenset({1}), stops=stops, prev={1: None}, next={1: None})]
    elif shape == "chain":
        parts_stops = [("A", "B", "C"), ("C", "D"), ("D", "E")][: rng.randint(2, 3)]
        parts = []
        prev_id = None
        for idx, stops in enumerate(parts_stops):
            parts.append(
                Part(
                    id=idx,
                    agents=frozenset({1}),
                    stops=stops,
                    prev={1: prev_id},
                    next={1: idx + 1 if idx + 1 < len(parts_stops) else None},
                )
            )
            prev_id = idx
    else:
        parts = [
            Part(id=0, agents=frozenset({1}), stops=("A", "C"), prev={1: None}, next={1: 2}),
            Part(id=1, agents=frozenset({2}), stops=("B", "C"), prev={2: None}, next={2: 2}),
            Part(
                id=2,
                agents=frozenset({1, 2}),
                stops=("C", "D", "E"),
                prev={1: 0, 2: 1},
                next={1: None, 2: None},
            ),
        ]
    all_pairs = []
    for part in parts:
        stops = part.stops
        for i in range(len(stops)):
            for j in range(i + 1, len(stops)):
                all_pairs.append((stops[i], stops[j]))
    connections = []
    walks = set()
    for idx in range(rng.randint(3, 20)):
        a, b = all_pairs[rng.randrange(len(all_pairs))]
        if rng.random() < 0.15:
            walks.add(WalkingLink(a, b, rng.randint(2, 25)))
        else:
            connections.append(
                TimetabledConnection(f"S{idx}", f"R{idx}", 1, a, b, rng.randint(0, 1300), rng.randint(5, 120))
            )
    return parts, TransitNetwork({}, tuple(connections), frozenset(walks))
