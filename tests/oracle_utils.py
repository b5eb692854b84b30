"""Independent brute-force oracles used by the tests.

These deliberately avoid the production search code: paths are enumerated
exhaustively, connectivity uses union-find, and costs are summed directly.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable


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
