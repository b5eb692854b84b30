import random
from array import array
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from journeyshare import planning
from journeyshare.errors import InputError
from journeyshare.experiments import DEFAULT_SYNTH_SPEC, prepare_network
from journeyshare.planning import DISCOUNT_SHARE, FLOOR_SHARE, AgentRequest, Occupancy, plan_individual
from journeyshare.synth import SyntheticNetworkSpec, build_synthetic_network
from journeyshare.transit import UNREACHABLE, UNSETTLED, RelaxedGraph

from conftest import graph_of
from oracle_utils import brute_force_best_path, occupancy_cost, random_digraph, uniform_cost_plan


class TestPlanIndividual:
    def test_six_stop_route_c_to_f(self, six_stop_graph):
        plan = plan_individual(six_stop_graph, AgentRequest(1, "C", "F"))
        assert plan is not None
        assert plan.legs == (("C", "D"), ("D", "E"), ("E", "F"))
        assert plan.total_cost == 145.0

    def test_isolated_origin_unreachable(self):
        graph = graph_of({("A", "B"): 5}, extra_nodes={"Z"})
        assert plan_individual(graph, AgentRequest(1, "Z", "B")) is None

    def test_unknown_stop_raises(self, six_stop_graph):
        with pytest.raises(InputError, match="origin"):
            plan_individual(six_stop_graph, AgentRequest(1, "NOPE", "F"))
        with pytest.raises(InputError, match="destination"):
            plan_individual(six_stop_graph, AgentRequest(1, "C", "NOPE"))

    def test_origin_equals_destination_forbidden(self):
        with pytest.raises(InputError, match="origin equals destination"):
            AgentRequest(1, "C", "C")

    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(11)
        for trial in range(150):
            n = rng.randint(2, 10)
            nodes, edges = random_digraph(rng, n, edge_prob=rng.uniform(0.15, 0.5))
            graph = graph_of(edges, extra_nodes=set(nodes))
            origin, dest = rng.sample(nodes, 2)
            plan = plan_individual(graph, AgentRequest(1, origin, dest))
            oracle = brute_force_best_path(edges, origin, dest, lambda e: float(edges[e]))
            if oracle is None:
                assert plan is None, f"trial {trial}: planner found a path the oracle did not"
            else:
                assert plan is not None, f"trial {trial}: planner missed an existing path"
                assert plan.total_cost == pytest.approx(oracle[0])
                assert plan.stops() == oracle[1]

    def test_deterministic_tie_break_prefers_fewer_legs_then_lexicographic(self):
        # two cost-10 routes A->Z: direct and via M; direct must win
        graph = graph_of({("A", "Z"): 10, ("A", "M"): 5, ("M", "Z"): 5})
        plan = plan_individual(graph, AgentRequest(1, "A", "Z"))
        assert plan.legs == (("A", "Z"),)
        # equal cost and legs: lexicographically smaller intermediate wins
        graph = graph_of({("A", "M"): 5, ("M", "Z"): 5, ("A", "K"): 5, ("K", "Z"): 5})
        plan = plan_individual(graph, AgentRequest(1, "A", "Z"))
        assert plan.stops() == ("A", "K", "Z")

    def test_identical_inputs_identical_output(self):
        rng = random.Random(5)
        _, edges = random_digraph(rng, 8, 0.4)
        graph = graph_of(edges)
        nodes = sorted(graph.nodes)
        for a in nodes[:4]:
            for b in nodes[4:]:
                if a == b:
                    continue
                first = plan_individual(graph, AgentRequest(1, a, b))
                second = plan_individual(graph, AgentRequest(1, a, b))
                assert first == second

    def test_unreachability_matches_independent_traversal(self):
        rng = random.Random(17)
        for _ in range(30):
            nodes, edges = random_digraph(rng, 7, 0.2)
            graph = graph_of(edges, extra_nodes=set(nodes))
            origin, dest = rng.sample(nodes, 2)
            # independent BFS reachability
            frontier, seen = [origin], {origin}
            while frontier:
                cur = frontier.pop()
                for a, b in edges:
                    if a == cur and b not in seen:
                        seen.add(b)
                        frontier.append(b)
            plan = plan_individual(graph, AgentRequest(1, origin, dest))
            assert (plan is not None) == (dest in seen)


@st.composite
def occupancy_searches(draw):
    """A random digraph with integer costs up to 20, small ones often, so that
    equal-cost paths are common; a route through every node from the
    traveller's origin to its destination, with a shortcut from origin to
    destination no dearer than the route; and edge riders among N
    travellers.  The route's legs are always labelled.  In most examples,
    every label carries all N travellers, or all but the replanning one, so
    labelled edges cost exactly their floor, and a guide that leaves the
    traveller out of the largest group overestimates by the most when N is
    small."""
    nodes = [f"n{i}" for i in range(draw(st.integers(2, 9)))]
    pairs = [(a, b) for a in nodes for b in nodes if a != b]
    costs = st.one_of(st.integers(1, 4), st.integers(1, 20))
    edges = draw(st.dictionaries(st.sampled_from(pairs), costs))
    route = draw(st.permutations(nodes))
    route_legs = set(zip(route, route[1:]))
    for leg in sorted(route_legs):
        edges.setdefault(leg, draw(costs))
    edges.setdefault((route[0], route[-1]), draw(st.integers(1, sum(edges[leg] for leg in route_legs))))
    n_agents = draw(st.one_of(st.integers(2, 4), st.integers(1, 14)))
    everyone = frozenset(range(1, n_agents + 1))
    agent = draw(st.sampled_from(sorted(everyone)))
    crowds = [
        st.just(everyone),
        st.just(everyone - {agent}),
        st.frozensets(st.sampled_from(sorted(everyone)), min_size=1),
    ]
    users = draw(st.sampled_from([*crowds, st.one_of(crowds)]))
    riders = {edge: draw(users) for edge in sorted(edges) if edge in route_legs or draw(st.booleans())}
    graph = graph_of(edges, extra_nodes=set(nodes))
    return graph, AgentRequest(agent, route[0], route[-1]), riders, n_agents


def grown_tree(graph, destination):
    """graph.tree_to(destination), grown until every node is settled, so
    that its search is exhausted if some node cannot reach destination."""
    tree = graph.tree_to(destination)
    for node in range(len(graph.names)):
        tree.settle(node)
    return tree


def rider_oracle(graph, request, riders):
    """uniform_cost_plan under the occupancy costs the riders impose."""
    return uniform_cost_plan(graph, request, occupancy_cost(SimpleNamespace(edges=riders), request.agent, graph))


def occupancy_of(graph, riders, agent):
    """The counts a search for agent reads off rider labels: each label's
    travellers other than the agent."""
    occupancy = Occupancy(graph)
    for edge, users in riders.items():
        occupancy.board([graph.slots[edge]] * len(set(users) - {agent}))
    return occupancy


def counted_plan(graph, request, riders):
    """plan_individual under the counts of the rider labels, once the solo
    route has grown the destination's tree until the origin is settled, as
    it has in every best-response search of a batch."""
    plan_individual(graph, request)
    return plan_individual(graph, request, occupancy_of(graph, riders, request.agent))


class TestGoalDirected:
    @settings(max_examples=400, deadline=None)
    @given(occupancy_searches())
    def test_same_plan_as_uniform_cost_search(self, search):
        graph, request, riders, _ = search
        plan = counted_plan(graph, request, riders)
        # Plan equality compares the legs and the total_cost floats with ==
        assert plan == rider_oracle(graph, request, riders)

    def test_exact_ties_keep_the_uniform_cost_tie_break(self, monkeypatch):
        # routes A-B-D-E and A-C-D-E both have base cost 5 and every edge
        # carries all five travellers, so costs its floor, and the two plans
        # cost exactly the same
        graph = graph_of({("A", "B"): 3, ("A", "C"): 1, ("B", "D"): 1, ("C", "D"): 3, ("D", "E"): 1})
        n_agents = 5
        riders = {edge: frozenset(range(1, n_agents + 1)) for edge in graph.edges}
        request = AgentRequest(1, "A", "E")
        # every node settled, so each is guided by its own distance
        grown_tree(graph, "E")
        plan = counted_plan(graph, request, riders)
        assert plan == rider_oracle(graph, request, riders)
        assert plan.stops() == ("A", "B", "D", "E")
        # guided by the full floor, rounding of cost + estimate lets the
        # lexicographically larger route pop first
        monkeypatch.setattr(planning, "GUIDE_SLACK", 0.0)
        assert counted_plan(graph, request, riders).stops() == ("A", "C", "D", "E")

    def test_unreachable_origin_returns_none_without_searching(self, monkeypatch):
        graph = graph_of({("A", "B"): 5, ("B", "C"): 5, ("Z", "Y"): 1})
        occupancy = occupancy_of(graph, {("Z", "Y"): {2}}, 1)
        grown_tree(graph, "C")

        def no_search(*args):
            raise AssertionError("an unreachable destination was searched for")

        monkeypatch.setattr(planning.heapq, "heappop", no_search)
        expanded = []
        assert plan_individual(graph, AgentRequest(1, "Z", "C"), occupancy, expanded) is None
        assert expanded == []

    def test_crowd_counts_the_traveller_on_an_edge_it_is_not_on(self):
        # three others on B-D make a group of four with the traveller, so
        # B-D costs 0.4 of its base cost; a guide from a group of three
        # would overestimate at B and settle D by the direct edge first; B is
        # farther from D than A is, so its distance is settled only in a
        # grown tree
        graph = graph_of({("A", "B"): 1, ("B", "D"): 20, ("A", "D"): 9})
        request = AgentRequest(1, "A", "D")
        grown_tree(graph, "D")
        riders = {("B", "D"): frozenset({2, 3, 4}), ("A", "B"): frozenset({1, 2, 3})}
        plan = counted_plan(graph, request, riders)
        assert plan.stops() == ("A", "B", "D")
        assert plan.total_cost == (DISCOUNT_SHARE / 3 + FLOOR_SHARE) * 1 + (DISCOUNT_SHARE / 4 + FLOOR_SHARE) * 20
        assert plan == rider_oracle(graph, request, riders)

    def test_an_empty_label_prices_its_edge_at_the_base_cost(self):
        # an empty label makes a group of one, so the guide is just under the
        # base-cost distance; the equal-cost routes keep the solo tie-break
        graph = graph_of({("A", "Z"): 10, ("A", "K"): 5, ("K", "Z"): 5, ("A", "M"): 5, ("M", "Z"): 5})
        for edge in graph.edges:
            for destination in ("Z", "K"):
                request = AgentRequest(1, "A", destination)
                riders = {edge: frozenset()}
                plan = counted_plan(graph, request, riders)
                assert plan == plan_individual(graph, request)
                assert plan == rider_oracle(graph, request, riders)

    def test_riders_away_from_the_route_only_loosen_the_guide(self):
        graph = graph_of({("A", "B"): 4, ("B", "C"): 4, ("A", "C"): 10, ("C", "D"): 2, ("Q", "R"): 1, ("D", "A"): 3})
        request = AgentRequest(1, "A", "D")
        riders = {("A", "C"): frozenset({2, 3}), ("Q", "R"): frozenset(range(2, 40)), ("D", "A"): frozenset({1})}
        plan = counted_plan(graph, request, riders)
        assert plan.stops() == ("A", "C", "D")
        assert plan == rider_oracle(graph, request, riders)

    def test_hand_built_graph(self):
        graph = graph_of({("A", "B"): 4, ("B", "C"): 4, ("A", "C"): 10, ("C", "D"): 2})
        request = AgentRequest(1, "A", "D")
        assert plan_individual(graph, request).stops() == ("A", "B", "C", "D")
        # nine riders on A-C, the traveller among them and counted once,
        # make it cheaper than the two legs via B
        riders = {("A", "C"): frozenset(range(1, 10))}
        plan = counted_plan(graph, request, riders)
        assert plan.stops() == ("A", "C", "D")
        assert plan.total_cost == (DISCOUNT_SHARE / 9 + FLOOR_SHARE) * 10 + 2.0
        assert plan == rider_oracle(graph, request, riders)


class TestOccupancy:
    def test_crowd_and_histogram_follow_the_counts(self):
        rng = random.Random(19)
        graph = graph_of({(a, b): 1 for a in "ABCD" for b in "ABCD" if a != b})
        occupancy = Occupancy(graph)
        riding = []
        for _ in range(2000):
            if riding and rng.random() < 0.45:
                occupancy.alight(riding.pop(rng.randrange(len(riding))))
            else:
                slots = rng.sample(range(len(graph.edges)), rng.randint(1, 4))
                occupancy.board(slots)
                riding.append(slots)
            counts = occupancy.counts
            assert counts == [sum(slot in slots for slots in riding) for slot in range(len(graph.edges))]
            assert occupancy.crowd == max(counts) + 1
            assert occupancy.histogram == [counts.count(k) for k in range(max(counts) + 1)]

    def test_slots_follow_the_out_edges_node_by_node(self):
        graph = graph_of({("B", "A"): 2, ("A", "C"): 3, ("A", "B"): 1, ("C", "A"): 4}, extra_nodes={"D"})
        names = graph.names
        flattened = [(names[node], names[succ]) for node, out in enumerate(graph.out_edges) for succ, *_ in out]
        assert [graph.slots[edge] for edge in flattened] == list(range(4))
        assert [[slot for *_, slot in out] for out in graph.out_edges] == [[0, 1], [2], [3], []]

    def test_every_out_edge_carries_its_slot_and_base_cost(self):
        rng = random.Random(29)
        for _ in range(200):
            _, graph = tie_heavy_graph(rng)
            entries = 0
            for node, out in enumerate(graph.out_edges):
                for succ, base, slot in out:
                    edge = (graph.names[node], graph.names[succ])
                    assert slot == graph.slots[edge]
                    assert base == graph.edges[edge]
                    entries += 1
            assert entries == len(graph.edges)


class TestDistanceCache:
    def test_distances_match_brute_force(self):
        rng = random.Random(23)
        for _ in range(60):
            nodes, edges = random_digraph(rng, rng.randint(2, 8), edge_prob=rng.uniform(0.1, 0.5), max_cost=9)
            graph = graph_of(edges, extra_nodes=set(nodes))
            destination = rng.choice(nodes)
            distance = grown_tree(graph, destination).distance
            for node in nodes:
                if node == destination:
                    expected = 0
                else:
                    oracle = brute_force_best_path(edges, node, destination, lambda e: edges[e])
                    expected = UNREACHABLE if oracle is None else oracle[0]
                assert distance[graph.positions[node]] == expected

    def test_computed_once_per_destination(self):
        graph = graph_of({("A", "B"): 1, ("B", "C"): 2})
        assert graph.tree_to("C") is graph.tree_to("C")
        assert list(grown_tree(graph, "B").distance) == [1, 0, UNREACHABLE]
        assert grown_tree(graph, "B") is graph.tree_to("B")

    def test_durations_beyond_64_bits(self):
        graph = graph_of({("A", "B"): 10**19, ("B", "C"): 1, ("A", "C"): 10**20})
        plan = plan_individual(graph, AgentRequest(1, "A", "C"))
        assert plan.stops() == ("A", "B", "C")
        assert plan == uniform_cost_plan(graph, AgentRequest(1, "A", "C"))

    def test_cache_is_not_part_of_equality_or_repr(self):
        edges = {("A", "B"): 1, ("B", "C"): 2}
        warm, cold = graph_of(edges), graph_of(edges)
        before = repr(warm)
        warm.tree_to("C")
        assert warm == cold
        assert repr(warm) == before == repr(cold)


def tie_heavy_graph(rng):
    """A random digraph with costs 1-3, so that equal-cost paths of different
    hop counts and stop names are common, plus nodes without in-edges or
    out-edges, so that some pairs are unreachable."""
    nodes, edges = random_digraph(rng, rng.randint(2, 10), edge_prob=rng.uniform(0.1, 0.6), max_cost=3)
    extra = {f"x{i}" for i in range(rng.randint(0, 2))}
    return sorted(set(nodes) | extra), graph_of(edges, extra_nodes=set(nodes) | extra)


class TestSoloReadOff:
    def test_same_plan_as_uniform_cost_search_on_tie_heavy_graphs(self):
        rng = random.Random(2013)
        unreachable = 0
        for _ in range(1000):
            nodes, graph = tie_heavy_graph(rng)
            for origin in nodes:
                for destination in nodes:
                    if origin != destination:
                        request = AgentRequest(1, origin, destination)
                        plan = plan_individual(graph, request)
                        # Plan equality compares the legs and the total_cost floats with ==
                        assert plan == uniform_cost_plan(graph, request)
                        unreachable += plan is None
        assert unreachable

    def test_same_plan_as_uniform_cost_search_on_the_default_grid(self):
        _, graph = prepare_network(build_synthetic_network(DEFAULT_SYNTH_SPEC))
        for origin in graph.names:
            for destination in graph.names:
                if origin != destination:
                    request = AgentRequest(1, origin, destination)
                    assert plan_individual(graph, request) == uniform_cost_plan(graph, request)

    def test_equal_cost_and_hops_takes_the_lower_numbered_next_hop(self):
        # A-M-Z and A-K-Z cost 10 in two legs, A-Z costs 10 in one, and
        # B-K-Z and B-M-Z tie on both cost and legs
        graph = graph_of({("A", "Z"): 10, ("A", "K"): 5, ("K", "Z"): 5, ("B", "M"): 4, ("M", "Z"): 5, ("B", "K"): 4})
        tree = grown_tree(graph, "Z")
        distance, next_hop = tree.distance, tree.next_hop
        position = graph.positions
        assert next_hop[position["A"]] == position["Z"]
        assert next_hop[position["B"]] == position["K"]
        assert next_hop[position["Z"]] == UNREACHABLE
        assert list(distance) == [10, 9, 5, 5, 0]

    def test_a_warm_tree_routes_without_pushing_onto_a_heap(self, monkeypatch):
        _, graph = prepare_network(build_synthetic_network(DEFAULT_SYNTH_SPEC))
        destination = graph.names[-1]
        requests = [AgentRequest(1, origin, destination) for origin in graph.names[:-1]]
        expected = [uniform_cost_plan(graph, request) for request in requests]
        grown_tree(graph, destination)

        def no_search(*args):
            raise AssertionError("a solo route pushed onto a heap")

        monkeypatch.setattr(planning.heapq, "heappush", no_search)
        assert [plan_individual(graph, request) for request in requests] == expected

    def test_entry_is_two_arrays_over_the_nodes(self):
        graph = graph_of({("A", "B"): 1, ("B", "C"): 2}, extra_nodes={"D"})
        tree = grown_tree(graph, "C")
        assert tree is graph.tree_to("C")
        distance, next_hop = tree.distance, tree.next_hop
        assert isinstance(distance, array) and distance.typecode == "d"
        assert isinstance(next_hop, array) and next_hop.typecode in "bhilq"
        assert len(distance) == len(next_hop) == len(graph.names)
        assert graph.tree_to("C").distance is distance
        assert list(next_hop) == [1, 2, UNREACHABLE, UNREACHABLE]


def settled(tree):
    """The positions the tree has settled, with their distances and next hops."""
    return [(node, d, tree.next_hop[node]) for node, d in enumerate(tree.distance) if d != UNSETTLED]


def same_graph(graph):
    """A copy of graph with no tree grown yet."""
    return RelaxedGraph(nodes=graph.nodes, edges=graph.edges)


def random_riders(rng, graph, n_agents):
    """Rider labels among n_agents travellers on a random subset of the edges."""
    everyone = range(1, n_agents + 1)
    return {
        edge: frozenset(rng.sample(everyone, rng.randint(0, n_agents)))
        for edge in sorted(graph.edges)
        if rng.random() < 0.6
    }


class TestLazyTree:
    def test_solo_plans_match_uniform_cost_search_however_far_the_tree_has_grown(self):
        rng = random.Random(1969)
        unreachable = 0
        for _ in range(300):
            nodes, graph = tie_heavy_graph(rng)
            exhausted = same_graph(graph)
            for destination in nodes:
                grown_tree(exhausted, destination)
            for destination in nodes:
                origins = [node for node in nodes if node != destination]
                rng.shuffle(origins)
                for origin in origins:
                    request = AgentRequest(1, origin, destination)
                    expected = uniform_cost_plan(graph, request)
                    # cold: a fresh tree; partly grown: the origins before
                    # this one grew it; exhausted: every node settled
                    assert plan_individual(same_graph(graph), request) == expected
                    assert plan_individual(graph, request) == expected
                    assert plan_individual(exhausted, request) == expected
                    unreachable += expected is None
        assert unreachable

    def test_best_response_on_partly_grown_trees_matches_the_oracle_and_grows_nothing(self):
        rng = random.Random(1973)
        partial = unreachable = 0
        for _ in range(300):
            nodes, graph = tie_heavy_graph(rng)
            n_agents = rng.randint(1, 6)
            riders = random_riders(rng, graph, n_agents)
            for destination in nodes:
                tree = graph.tree_to(destination)
                for node in rng.sample(range(len(nodes)), rng.randint(0, 2)):
                    tree.settle(node)
                for origin in nodes:
                    if origin == destination:
                        continue
                    request = AgentRequest(rng.randint(1, n_agents), origin, destination)
                    before, radius = settled(tree), tree.radius
                    plan = plan_individual(graph, request, occupancy_of(graph, riders, request.agent))
                    assert plan == rider_oracle(graph, request, riders)
                    assert settled(tree) == before and tree.radius == radius
                    partial += 0 < len(before) < len(nodes)
                    unreachable += plan is None
        assert partial and unreachable

    def test_a_solo_route_settles_no_node_farther_than_its_origin(self):
        # the dense workload's 20x40 grid; the headway does not move the edges
        _, graph = prepare_network(build_synthetic_network(SyntheticNetworkSpec(width=20, height=40, headway_min=600)))
        rng = random.Random(2005)
        for _ in range(20):
            origin, destination = rng.sample(graph.names, 2)
            cold = same_graph(graph)
            plan_individual(cold, AgentRequest(1, origin, destination))
            tree = cold.tree_to(destination)
            reach = tree.distance[graph.positions[origin]]
            assert reach >= 0
            assert all(d <= reach for _, d, _ in settled(tree))
