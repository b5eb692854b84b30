import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from journeyshare.best_response import merge_plans
from journeyshare.errors import ConsistencyError
from journeyshare.grouping import (
    Part,
    identify_groups,
    part_precedence,
    relevant_timetable,
    split_into_parts,
)
from journeyshare.planning import AgentRequest, Plan, plan_individual
from journeyshare.scheduling import schedule_group
from journeyshare.synth import SyntheticNetworkSpec, build_synthetic_network, stop_id
from journeyshare.transit import add_walking_links, load_network

from conftest import graph_of
from oracle_utils import UnionFind, brute_force_relevant_timetable, random_digraph


def path_plan(agent, stops) -> Plan:
    legs = tuple(zip(stops, stops[1:]))
    return Plan(agent=agent, legs=legs, total_cost=float(10 * len(legs)))


@pytest.fixture
def two_agent_overlap():
    """Two travellers sharing the C..F segment of otherwise distinct journeys."""
    p1 = path_plan(1, ("A", "C", "D", "E", "F", "G"))
    p2 = path_plan(2, ("B", "C", "D", "E", "F", "H"))
    return merge_plans([p1, p2])


class TestIdentifyGroups:
    def test_disjoint_routes_make_two_groups(self):
        joint = merge_plans([path_plan(1, ("A", "B")), path_plan(2, ("X", "Y"))])
        groups = identify_groups(joint)
        assert [sorted(g.agents) for g in groups] == [[1], [2]]

    def test_overlapping_journeys_make_one_group(self, two_agent_overlap):
        groups = identify_groups(two_agent_overlap)
        assert len(groups) == 1
        assert groups[0].agents == frozenset({1, 2})
        assert set(groups[0].edges) == set(two_agent_overlap.edges)

    def test_pairwise_chained_overlaps_merge_transitively(self):
        joint = merge_plans(
            [
                path_plan(1, ("A", "B", "C")),
                path_plan(2, ("B", "C", "D")),
                path_plan(3, ("C", "D", "E")),
            ]
        )
        groups = identify_groups(joint)
        assert len(groups) == 1 and groups[0].agents == frozenset({1, 2, 3})

    def test_matches_union_find_oracle_on_random_joint_plans(self):
        rng = random.Random(53)
        for _ in range(120):
            nodes, edges = random_digraph(rng, rng.randint(4, 10), 0.35)
            graph = graph_of(edges, extra_nodes=set(nodes))
            plans = []
            for agent in range(1, rng.randint(2, 6)):
                origin, dest = rng.sample(nodes, 2)
                plan = plan_individual(graph, AgentRequest(agent, origin, dest))
                if plan is not None:
                    plans.append(plan)
            if not plans:
                continue
            joint = merge_plans(plans)
            groups = identify_groups(joint)

            uf = UnionFind()
            for a, b in joint.edges:
                uf.union(a, b)
            expected: dict = {}
            for plan in plans:
                expected.setdefault(uf.find(plan.legs[0][0]), set()).add(plan.agent)
            assert sorted(sorted(g.agents) for g in groups) == sorted(
                sorted(v) for v in expected.values()
            )
            # groups partition the joint plan's edges
            assert sum(len(g.edges) for g in groups) == len(joint.edges)
            seen = set()
            for group in groups:
                assert not (seen & set(group.edges))
                seen.update(group.edges)


class TestSplitIntoParts:
    def test_five_parts_with_shared_middle(self, two_agent_overlap):
        groups = identify_groups(two_agent_overlap)
        parts = split_into_parts(groups[0])
        assert len(parts) == 5
        shared = [p for p in parts if p.agents == frozenset({1, 2})]
        assert len(shared) == 1
        assert shared[0].stops == ("C", "D", "E", "F")
        solo_stops = sorted(p.stops for p in parts if len(p.agents) == 1)
        assert solo_stops == [("A", "C"), ("B", "C"), ("F", "G"), ("F", "H")]

    def test_single_agent_group_is_one_part(self):
        joint = merge_plans([path_plan(1, ("A", "B", "C", "D"))])
        group = identify_groups(joint)[0]
        parts = split_into_parts(group)
        assert len(parts) == 1
        assert parts[0].stops == ("A", "B", "C", "D")
        assert parts[0].prev == {1: None} and parts[0].next == {1: None}

    def test_identical_plans_make_one_shared_part(self):
        joint = merge_plans([path_plan(1, ("A", "B", "C")), path_plan(2, ("A", "B", "C"))])
        parts = split_into_parts(identify_groups(joint)[0])
        assert len(parts) == 1
        assert parts[0].agents == frozenset({1, 2})

    def test_partition_and_reconstruction_on_random_joint_plans(self):
        rng = random.Random(59)
        trials = 0
        while trials < 500:
            nodes, edges = random_digraph(rng, rng.randint(4, 10), 0.4)
            graph = graph_of(edges, extra_nodes=set(nodes))
            plans = []
            for agent in range(1, rng.randint(2, 7)):
                origin, dest = rng.sample(nodes, 2)
                plan = plan_individual(graph, AgentRequest(agent, origin, dest))
                if plan is not None:
                    plans.append(plan)
            if not plans:
                continue
            trials += 1
            joint = merge_plans(plans)
            for group in identify_groups(joint):
                parts = split_into_parts(group)
                # edge partition: every group edge in exactly one part
                part_edges = [leg for part in parts for leg in part.edges()]
                assert sorted(part_edges) == sorted(group.edges)
                # per-agent concatenation reproduces the plan
                for agent in group.agents:
                    chain = {p.id: p for p in parts}
                    current = [p for p in parts if agent in p.agents and p.prev[agent] is None]
                    assert len(current) == 1
                    rebuilt = []
                    pid = current[0].id
                    while pid is not None:
                        part = chain[pid]
                        rebuilt.extend(part.edges())
                        pid = part.next[agent]
                    assert tuple(rebuilt) == group.plans[agent].legs
                # maximality: consecutive parts of an agent differ in label
                for part in parts:
                    for agent, nxt in part.next.items():
                        if nxt is not None:
                            assert chain[nxt].agents != part.agents

    def test_precedence_is_topologically_ordered(self, two_agent_overlap):
        parts = split_into_parts(identify_groups(two_agent_overlap)[0])
        topo = part_precedence(parts)
        position = {pid: i for i, pid in enumerate(topo)}
        for part in parts:
            for nxt in part.next.values():
                if nxt is not None:
                    assert position[part.id] < position[nxt]

    def test_opposite_traversal_orders_raise(self):
        # agent 1 rides A->B then C->D; agent 2 rides C->D then A->B
        p1 = path_plan(1, ("A", "B", "C", "D"))
        p2 = path_plan(2, ("X", "C", "D", "Y", "A", "B"))
        joint = merge_plans([p1, p2])
        parts = split_into_parts(identify_groups(joint)[0])
        with pytest.raises(ConsistencyError, match="cycle"):
            part_precedence(parts)


CORRIDOR_STOPS = [
    "stop_id,name,lat,lon,mode",
    "C,Carl,55.2,-3.0,rail",
    "D,Dott,55.3,-3.0,rail",
    "E,Elm,55.4,-3.0,rail",
    "F,Firth,55.5,-3.0,rail",
    "OUT,Outside,56.5,-3.0,rail",
]

# T1 is a direct train C->F; T2 stops everywhere; T3..T5 cover single hops;
# TX runs against travel direction and TOUT leaves the corridor
CORRIDOR_TIMETABLE = [
    "service_id,run_id,seq,from_stop,to_stop,departure_min,duration_min",
    "T1,T1a,1,C,F,300,80",
    "T2,T2a,1,C,D,240,30",
    "T2,T2a,2,D,E,280,30",
    "T2,T2a,3,E,F,320,30",
    "T3,T3a,1,C,D,400,35",
    "T4,T4a,1,D,E,450,35",
    "T5,T5a,1,E,F,500,35",
    "TX,TXa,1,F,C,600,90",
    "TOUT,TOUTa,1,C,OUT,100,60",
]


class TestRelevantTimetable:
    def test_direct_and_stopping_trains_included(self):
        net = load_network(CORRIDOR_STOPS, CORRIDOR_TIMETABLE)
        p1 = path_plan(1, ("C", "D", "E", "F"))
        p2 = path_plan(2, ("C", "D", "E", "F"))
        parts = split_into_parts(identify_groups(merge_plans([p1, p2]))[0])
        tt = relevant_timetable(parts, net)
        services = {c.service_id for c in tt.connections}
        assert services == {"T1", "T2", "T3", "T4", "T5"}
        # forward direction only, and only within the part
        assert all((c.from_stop, c.to_stop) != ("F", "C") for c in tt.connections)
        assert all(c.to_stop != "OUT" for c in tt.connections)

    def test_two_stop_part_keeps_only_direct_connections(self):
        net = load_network(CORRIDOR_STOPS, CORRIDOR_TIMETABLE)
        parts = split_into_parts(identify_groups(merge_plans([path_plan(1, ("D", "E"))]))[0])
        tt = relevant_timetable(parts, net)
        assert {(c.from_stop, c.to_stop) for c in tt.connections} == {("D", "E")}

    def test_forward_index_soundness(self):
        net = load_network(CORRIDOR_STOPS, CORRIDOR_TIMETABLE)
        parts = split_into_parts(identify_groups(merge_plans([path_plan(1, ("C", "D", "E", "F"))]))[0])
        tt = relevant_timetable(parts, net)
        for conn in tt.connections:
            index = {stop: i for i, stop in enumerate(parts[0].stops)}
            assert index[conn.from_stop] < index[conn.to_stop]

    def test_reduction_on_grid_scale_network(self):
        # a shared corridor keeps well under 10% of a 10x10 grid's connections
        net = build_synthetic_network(SyntheticNetworkSpec(width=10, height=10, headway_min=30, leg_min=10))
        p1 = path_plan(1, tuple(f"S05{r:02d}" for r in range(9, 1, -1)))
        p2 = path_plan(2, tuple(f"S05{r:02d}" for r in range(8, 0, -1)))
        parts = split_into_parts(identify_groups(merge_plans([p1, p2]))[0])
        tt = relevant_timetable(parts, net)
        assert 0 < len(tt.connections) < 0.10 * len(net.connections)


# 0.3 km spacing puts grid neighbours and diagonals within the 0.5 km walking
# range, so the slices below carry walking links as well as connections
WALK_GRID = SyntheticNetworkSpec(width=4, height=5, spacing_km=0.3, headway_min=120, leg_min=10)
WALK_NETWORK = add_walking_links(build_synthetic_network(WALK_GRID), max_distance_km=0.5)


@st.composite
def grid_walk_parts(draw):
    """One to three parts, each a self-avoiding walk over grid neighbours
    and diagonals."""
    parts = []
    for pid in range(draw(st.integers(1, 3))):
        cell = (draw(st.integers(0, WALK_GRID.width - 1)), draw(st.integers(0, WALK_GRID.height - 1)))
        path = [cell]
        for _ in range(draw(st.integers(1, 6))):
            col, row = path[-1]
            steps = [
                (col + dc, row + dr)
                for dc in (-1, 0, 1)
                for dr in (-1, 0, 1)
                if 0 <= col + dc < WALK_GRID.width
                and 0 <= row + dr < WALK_GRID.height
                and (col + dc, row + dr) not in path
            ]
            if not steps:
                break
            path.append(draw(st.sampled_from(steps)))
        stops = tuple(stop_id(col, row) for col, row in path)
        parts.append(Part(id=pid, agents=frozenset({pid}), stops=stops, prev={pid: None}, next={pid: None}))
    return parts


class TestRelevantTimetableOracle:
    @settings(max_examples=150, deadline=None)
    @given(parts=grid_walk_parts())
    def test_indexed_slice_matches_full_scan(self, parts):
        assert WALK_NETWORK.walking_links
        tt = relevant_timetable(parts, WALK_NETWORK)
        expected = brute_force_relevant_timetable(parts, WALK_NETWORK)
        assert tt.connections == expected.connections
        assert tt.walking_links == expected.walking_links

    @settings(max_examples=100, deadline=None)
    @given(parts=grid_walk_parts())
    def test_slice_is_complete_for_scheduling(self, parts):
        # scheduling on the slice and on the whole network gives the same result
        assert schedule_group(parts, relevant_timetable(parts, WALK_NETWORK)) == schedule_group(parts, WALK_NETWORK)
