import logging
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from journeyshare import best_response
from journeyshare.best_response import JointPlan, agent_cost, best_response_step, merge_plans, run_br_phase
from journeyshare.errors import InputError
from journeyshare.planning import FLOOR_SHARE, AgentRequest, Plan, plan_individual, shared_cost

from conftest import graph_of
from oracle_utils import brute_force_best_path, naive_br_trace, occupancy_cost, random_digraph, rosenthal_potential



def path_plan(agent, stops, graph) -> Plan:
    legs = tuple(zip(stops, stops[1:]))
    return Plan(agent=agent, legs=legs, total_cost=float(sum(graph.edges[leg] for leg in legs)))


# stop graph shared by several fixtures: C->D->E->F corridor, D->E joinable
CORRIDOR = graph_of({("C", "D"): 45, ("D", "E"): 70, ("E", "F"): 30})


class TestSharedCost:
    def test_single_traveller_pays_full(self):
        assert shared_cost(100.0, 1) == pytest.approx(100.0)

    def test_two_travellers_pay_sixty_percent(self):
        assert shared_cost(100.0, 2) == pytest.approx(60.0)

    def test_three_travellers_save_53_percent(self):
        cost = shared_cost(100.0, 3)
        assert cost == pytest.approx(100.0 * (0.8 / 3 + 0.2))
        assert 1 - cost / 100.0 == pytest.approx(0.5333, abs=5e-5)

    def test_floor_share_never_undercut(self):
        for n in range(1, 200):
            assert shared_cost(100.0, n) > 20.0

    def test_zero_group_size_rejected(self):
        with pytest.raises(InputError):
            shared_cost(100.0, 0)

    @settings(max_examples=50, deadline=None)
    @given(c=st.floats(0, 1e6), n=st.integers(1, 1000))
    def test_decreasing_in_group_size_with_floor(self, c, n):
        assert shared_cost(c, n + 1) <= shared_cost(c, n)
        assert shared_cost(c, n) >= FLOOR_SHARE * c


class TestMergePlans:
    def test_overlapping_plans_label_shared_edge(self):
        p1 = path_plan(1, ("C", "D", "E", "F"), CORRIDOR)
        p2 = path_plan(2, ("D", "E"), CORRIDOR)
        joint = merge_plans([p1, p2])
        assert dict(joint.edges) == {
            ("C", "D"): frozenset({1}),
            ("D", "E"): frozenset({1, 2}),
            ("E", "F"): frozenset({1}),
        }

    def test_disjoint_plans_have_singleton_labels(self):
        graph = graph_of({("A", "B"): 10, ("X", "Y"): 20})
        joint = merge_plans([path_plan(1, ("A", "B"), graph), path_plan(2, ("X", "Y"), graph)])
        assert all(len(users) == 1 for users in joint.edges.values())

    def test_identical_plans_label_size_k(self):
        plans = [path_plan(agent, ("C", "D", "E"), CORRIDOR) for agent in range(1, 5)]
        joint = merge_plans(plans)
        assert all(users == frozenset({1, 2, 3, 4}) for users in joint.edges.values())

    def test_label_consistency_on_random_plan_sets(self):
        rng = random.Random(23)
        for trial in range(200):
            nodes, edges = random_digraph(rng, rng.randint(3, 12), 0.4)
            graph = graph_of(edges, extra_nodes=set(nodes))
            plans = []
            for agent in range(1, rng.randint(2, 7)):
                origin, dest = rng.sample(nodes, 2)
                plan = plan_individual(graph, AgentRequest(agent, origin, dest))
                if plan is not None:
                    plans.append(plan)
            if not plans:
                continue
            joint = merge_plans(plans)
            # brute-force membership oracle
            for leg in {leg for plan in plans for leg in plan.legs}:
                expected = frozenset(p.agent for p in plans if leg in p.legs)
                assert joint.edges[leg] == expected
            for plan in plans:
                for leg in plan.legs:
                    assert plan.agent in joint.edges[leg]

    @pytest.mark.parametrize(
        "plans, message",
        [
            ([(1, (("C", "D"),)), (2, (("D", "E"),)), (1, (("E", "F"),))], "duplicate plan for agent 1"),
            ([(1, ())], "agent 1 has an empty plan"),
            ([(1, (("C", "D"), ("E", "F")))], "agent 1 plan legs are not chained at ('C', 'D') -> ('E', 'F')"),
            ([(1, (("C", "D"), ("D", "E"), ("E", "C")))], "agent 1 plan revisits a stop"),
        ],
    )
    def test_malformed_plan_sets_are_input_errors(self, plans, message):
        with pytest.raises(InputError) as caught:
            merge_plans(Plan(agent=agent, legs=legs, total_cost=0.0) for agent, legs in plans)
        assert str(caught.value) == message


class TestAgentCost:
    def test_sole_agent_equals_plan_cost(self):
        p1 = path_plan(1, ("C", "D", "E", "F"), CORRIDOR)
        joint = merge_plans([p1])
        assert agent_cost(joint, 1, CORRIDOR) == pytest.approx(p1.total_cost)

    def test_shared_leg_discounted(self):
        p1 = path_plan(1, ("C", "D", "E", "F"), CORRIDOR)
        p2 = path_plan(2, ("D", "E"), CORRIDOR)
        joint = merge_plans([p1, p2])
        assert agent_cost(joint, 1, CORRIDOR) == pytest.approx(45 + 0.6 * 70 + 30)
        assert agent_cost(joint, 2, CORRIDOR) == pytest.approx(0.6 * 70)

    def test_unknown_agent_raises(self):
        joint = merge_plans([path_plan(1, ("C", "D"), CORRIDOR)])
        with pytest.raises(InputError):
            agent_cost(joint, 99, CORRIDOR)


class TestBestResponseStep:
    def test_reduces_to_solo_plan_when_alone(self):
        graph = graph_of({("A", "B"): 10, ("B", "C"): 10, ("A", "C"): 30})
        joint = merge_plans([path_plan(1, ("A", "C"), graph)])
        step = best_response_step(joint, 1, graph)
        solo = plan_individual(graph, AgentRequest(1, "A", "C"))
        assert step.legs == solo.legs and step.total_cost == solo.total_cost

    def test_switches_onto_occupied_parallel_route(self):
        # two A->Z routes of equal solo duration; agent 2 sits on the M route
        graph = graph_of({("A", "M"): 50, ("M", "Z"): 50, ("A", "K"): 50, ("K", "Z"): 50})
        p1 = path_plan(1, ("A", "K", "Z"), graph)
        p2 = path_plan(2, ("A", "M", "Z"), graph)
        joint = merge_plans([p1, p2])
        step = best_response_step(joint, 1, graph)
        assert step.stops() == ("A", "M", "Z")
        assert step.total_cost == pytest.approx(0.6 * 100)

    def test_matches_exhaustive_occupancy_oracle(self):
        rng = random.Random(29)
        for trial in range(150):
            nodes, edges = random_digraph(rng, rng.randint(3, 8), 0.45)
            graph = graph_of(edges, extra_nodes=set(nodes))
            plans = []
            for agent in range(1, 4):
                origin, dest = rng.sample(nodes, 2)
                plan = plan_individual(graph, AgentRequest(agent, origin, dest))
                if plan is not None:
                    plans.append(plan)
            if len(plans) < 2:
                continue
            joint = merge_plans(plans)
            agent = plans[rng.randrange(len(plans))].agent
            step = best_response_step(joint, agent, graph)
            current = joint.per_agent[agent]
            oracle = brute_force_best_path(
                edges,
                current.legs[0][0],
                current.legs[-1][1],
                occupancy_cost(joint, agent, graph),
            )
            assert oracle is not None
            assert step.total_cost == pytest.approx(oracle[0], abs=1e-12)
            assert step.total_cost <= agent_cost(joint, agent, graph) + 1e-12


class TestRunBrPhase:
    def test_single_agent_keeps_initial_plan(self):
        graph = graph_of({("A", "B"): 10, ("B", "C"): 10})
        initial = plan_individual(graph, AgentRequest(1, "A", "C"))
        joint = run_br_phase([initial], graph)
        assert joint.per_agent[1].legs == initial.legs

    def test_overlapping_corridor_converges_to_shared_label(self):
        # corridor plus a detour for agent 2 expensive enough (120 > 70/0.6)
        # that best response must pull agent 2 onto the corridor
        graph = graph_of(
            {("C", "D"): 45, ("D", "E"): 70, ("E", "F"): 30, ("D", "X"): 60, ("X", "E"): 60}
        )
        p1 = path_plan(1, ("C", "D", "E", "F"), graph)
        p2 = path_plan(2, ("D", "X", "E"), graph)
        joint = run_br_phase([p1, p2], graph)
        assert joint.edges[("D", "E")] == frozenset({1, 2})
        assert joint.per_agent[1].stops() == ("C", "D", "E", "F")
        assert joint.per_agent[2].stops() == ("D", "E")

    def test_on_step_gets_a_snapshot_after_every_step(self):
        graph = graph_of(
            {("C", "D"): 45, ("D", "E"): 70, ("E", "F"): 30, ("D", "X"): 60, ("X", "E"): 60}
        )
        p1 = path_plan(1, ("C", "D", "E", "F"), graph)
        p2 = path_plan(2, ("D", "X", "E"), graph)
        seen = []

        def observe(snapshot):
            assert snapshot.edges == merge_plans(snapshot.per_agent.values()).edges
            assert all(type(users) is frozenset for users in snapshot.edges.values())
            seen.append((snapshot, dict(snapshot.per_agent), dict(snapshot.edges)))

        joint = run_br_phase([p1, p2], graph, on_step=observe)
        # two sweeps of two agents; agent 2 adopts the corridor in the first
        assert [snapshot.per_agent[2].stops() for snapshot, _, _ in seen] == [("D", "X", "E")] + [("D", "E")] * 3
        # later steps leave every snapshot as it was observed
        for snapshot, plans, labels in seen:
            assert snapshot.per_agent == plans
            assert merge_plans(snapshot.per_agent.values()).edges == labels
        # snapshots share the plans themselves, not copies of them
        assert seen[-1][0] == joint and seen[-1][0] is not joint
        assert seen[1][0].per_agent[2] is joint.per_agent[2]
        assert seen[0][0].per_agent[1] is p1 and seen[0][0].per_agent[2] is p2

    def test_sweep_cap_logs_and_returns_a_frozen_merge_of_the_capped_plans(self, monkeypatch, caplog):
        from journeyshare import best_response

        monkeypatch.setattr(best_response, "MAX_ROUNDS", 1)
        graph = graph_of(
            {("C", "D"): 45, ("D", "E"): 70, ("E", "F"): 30, ("D", "X"): 60, ("X", "E"): 60}
        )
        p1 = path_plan(1, ("C", "D", "E", "F"), graph)
        p2 = path_plan(2, ("D", "X", "E"), graph)
        after_sweep = []
        with caplog.at_level(logging.WARNING, logger="journeyshare.best_response"):
            joint = run_br_phase([p1, p2], graph, on_step=lambda snapshot: after_sweep.append(dict(snapshot.per_agent)))
        assert "hit MAX_ROUNDS=1 without converging" in caplog.text
        # agent 2 adopts the corridor in the first sweep, so a second one was due
        assert len(after_sweep) == 2
        assert after_sweep[-1][2].stops() == ("D", "E")
        assert all(type(users) is frozenset for users in joint.edges.values())
        assert joint == merge_plans(after_sweep[-1].values())

    def test_returns_frozen_labels_equal_to_a_fresh_merge(self):
        rng = random.Random(53)
        adopted = 0
        for _ in range(80):
            graph, plans = self._random_instance(rng)
            if len(plans) < 2:
                continue
            joint = run_br_phase(plans, graph)
            assert all(type(users) is frozenset for users in joint.edges.values())
            assert joint.edges == merge_plans(joint.per_agent.values()).edges
            assert run_br_phase(plans, graph) == joint
            adopted += any(joint.per_agent[plan.agent] != plan for plan in plans)
        assert adopted >= 5

    def _random_instance(self, rng):
        nodes, edges = random_digraph(rng, rng.randint(4, 9), 0.4)
        graph = graph_of(edges, extra_nodes=set(nodes))
        plans = []
        for agent in range(1, rng.randint(2, 5)):
            origin, dest = rng.sample(nodes, 2)
            plan = plan_individual(graph, AgentRequest(agent, origin, dest))
            if plan is not None:
                plans.append(plan)
        return graph, plans

    def test_random_instances_converge_with_monotone_potential(self):
        rng = random.Random(37)
        tested = 0
        for _ in range(120):
            graph, plans = self._random_instance(rng)
            if len(plans) < 2:
                continue
            tested += 1
            potentials = []
            joint = run_br_phase(
                plans, graph, on_step=lambda j: potentials.append(rosenthal_potential(j, graph))
            )
            for before, after in zip(potentials, potentials[1:]):
                assert after <= before + 1e-9
            # Nash certificate: no agent can improve by a meaningful amount
            for agent in joint.per_agent:
                step = best_response_step(joint, agent, graph)
                assert agent_cost(joint, agent, graph) - step.total_cost < 1e-9
            # individual rationality against the initial plans
            for plan in plans:
                assert agent_cost(joint, plan.agent, graph) <= plan.total_cost
            # empirically few sweeps are needed: on_step fires once per agent per sweep
            assert len(potentials) <= 10 * len(plans)
        assert tested >= 60

    def test_converges_on_larger_instances(self):
        # 8 travellers on a 30-node graph: equilibrium and rationality hold
        rng = random.Random(47)
        nodes, edges = random_digraph(rng, 30, 0.12)
        graph = graph_of(edges, extra_nodes=set(nodes))
        plans = []
        agent = 1
        while len(plans) < 8:
            origin, dest = rng.sample(nodes, 2)
            plan = plan_individual(graph, AgentRequest(agent, origin, dest))
            if plan is not None:
                plans.append(plan)
                agent += 1
        steps = []
        joint = run_br_phase(plans, graph, on_step=lambda j: steps.append(None))
        assert len(steps) <= 100 * 8
        for plan in plans:
            assert agent_cost(joint, plan.agent, graph) <= plan.total_cost
            retry = best_response_step(joint, plan.agent, graph)
            assert agent_cost(joint, plan.agent, graph) - retry.total_cost < 1e-9

    def test_a_step_on_a_plan_off_the_graph_is_an_input_error(self):
        # agent 1's plan uses an edge, but its origin loses all outgoing edges
        graph = graph_of({("B", "C"): 5}, extra_nodes={"A"})
        stale = Plan(agent=1, legs=(("A", "B"), ("B", "C")), total_cost=15.0)
        joint = merge_plans([stale])
        with pytest.raises(InputError, match=r"agent 1 plan leg \('A', 'B'\) is not a relaxed-graph edge"):
            best_response_step(joint, 1, graph)
        # another traveller's stale leg is rejected too
        joint = merge_plans([stale, path_plan(2, ("B", "C"), graph)])
        with pytest.raises(InputError, match=r"agent 1 plan leg \('A', 'B'\) is not a relaxed-graph edge"):
            best_response_step(joint, 2, graph)

    def test_a_plan_off_the_graph_is_an_input_error(self):
        # the stale plan above rides A-B, which the graph no longer has
        graph = graph_of({("B", "C"): 5}, extra_nodes={"A"})
        stale = Plan(agent=1, legs=(("A", "B"), ("B", "C")), total_cost=15.0)
        steps = []
        with pytest.raises(InputError, match=r"agent 1 plan leg \('A', 'B'\) is not a relaxed-graph edge"):
            run_br_phase([stale], graph, on_step=steps.append)
        assert steps == []


@st.composite
def overlapping_phases(draw):
    """A random digraph with small integer costs, so that equal-cost routes
    are common, around a trunk through every node, and two to six travellers
    each going from a trunk stop to a later one, so that their routes
    overlap.  A traveller starts on its solo route or on its trunk segment,
    which need not be cheapest."""
    nodes = [f"n{i}" for i in range(draw(st.integers(3, 9)))]
    trunk = draw(st.permutations(nodes))
    costs = st.one_of(st.integers(1, 4), st.integers(1, 30))
    pairs = [(a, b) for a in nodes for b in nodes if a != b]
    edges = draw(st.dictionaries(st.sampled_from(pairs), costs))
    for leg in zip(trunk, trunk[1:]):
        edges.setdefault(leg, draw(costs))
    graph = graph_of(edges, extra_nodes=set(nodes))
    plans = []
    for agent in range(1, draw(st.integers(2, 6)) + 1):
        start = draw(st.integers(0, len(trunk) - 2))
        end = draw(st.integers(start + 1, len(trunk) - 1))
        if draw(st.booleans()):
            plans.append(plan_individual(graph, AgentRequest(agent, trunk[start], trunk[end])))
        else:
            plans.append(path_plan(agent, trunk[start : end + 1], graph))
    return graph, plans


def legs_and_costs(per_agent):
    """Each traveller's legs and the exact bits of its plan's cost."""
    return {agent: (plan.legs, plan.total_cost.hex()) for agent, plan in per_agent.items()}


def recorded_searches(monkeypatch):
    """The travellers of the plan_individual calls run_br_phase makes, in
    order."""
    searched = []
    search = best_response.plan_individual

    def recording(graph, request, occupancy, expanded):
        searched.append(request.agent)
        return search(graph, request, occupancy, expanded)

    monkeypatch.setattr(best_response, "plan_individual", recording)
    return searched


class TestSkippedSearches:
    @settings(max_examples=300, deadline=None)
    @given(overlapping_phases())
    def test_every_step_matches_the_naive_phase(self, phase):
        graph, plans = phase
        steps = []
        run_br_phase(plans, graph, on_step=lambda snapshot: steps.append(legs_and_costs(snapshot.per_agent)))
        expected = naive_br_trace(plans, graph, best_response.MAX_ROUNDS)
        assert len(steps) == len(expected)
        for step, oracle in zip(steps, expected):
            assert step == legs_and_costs(oracle)

    def test_random_phases_match_the_naive_phase(self, monkeypatch):
        # Denser and more numerous than the Hypothesis examples: travellers
        # from two trunk stops, half of them on their trunk segment, so that
        # adoptions follow one another.  A search skipped after an adoption
        # out of a node it expanded shows here in about one phase in 300.
        searched = recorded_searches(monkeypatch)
        rng = random.Random(71)
        steps_total = 0
        for _ in range(3000):
            nodes = [f"n{i}" for i in range(rng.randint(3, 9))]
            trunk = rng.sample(nodes, len(nodes))
            density = rng.uniform(0.3, 0.5)
            edges = {(a, b): rng.randint(1, 4) for a in nodes for b in nodes if a != b and rng.random() < density}
            for leg in zip(trunk, trunk[1:]):
                edges.setdefault(leg, rng.randint(1, 4))
            graph = graph_of(edges, extra_nodes=set(nodes))
            origins = [rng.randrange(len(trunk) - 1) for _ in range(2)]
            plans = []
            for agent in range(1, rng.randint(2, 6) + 1):
                start = rng.choice(origins)
                end = rng.randint(start + 1, len(trunk) - 1)
                if rng.random() < 0.5:
                    plans.append(path_plan(agent, trunk[start : end + 1], graph))
                else:
                    plans.append(plan_individual(graph, AgentRequest(agent, trunk[start], trunk[end])))
            steps = []
            run_br_phase(plans, graph, on_step=lambda snapshot: steps.append(legs_and_costs(snapshot.per_agent)))
            assert steps == [legs_and_costs(oracle) for oracle in naive_br_trace(plans, graph, best_response.MAX_ROUNDS)]
            steps_total += len(steps)
        # every phase searches each traveller once, so skipping shows as fewer
        assert len(searched) < 0.9 * steps_total

    def test_the_certifying_sweep_searches_less_than_it_steps(self, monkeypatch):
        # agent 2 adopts the corridor in the first sweep, which moves counts
        # out of D, a node agent 1's search expanded; agent 2 itself read
        # nothing that moved since
        graph = graph_of(
            {("C", "D"): 45, ("D", "E"): 70, ("E", "F"): 30, ("D", "X"): 60, ("X", "E"): 60}
        )
        searched = recorded_searches(monkeypatch)
        steps = []
        run_br_phase(
            [path_plan(1, ("C", "D", "E", "F"), graph), path_plan(2, ("D", "X", "E"), graph)],
            graph,
            on_step=lambda snapshot: steps.append(None),
        )
        assert len(steps) == 4
        assert searched == [1, 2, 1]

    def test_an_adoption_out_of_an_expanded_node_is_searched_again(self, monkeypatch):
        # agent 1's A-K-Z and A-M-Z tie solo, and its search expands M; agent
        # 2 then leaves its detour B-D-Z for B-M-Z, so that A-M-Z becomes
        # cheaper for agent 1, though no count on agent 1's legs moved and
        # the crowd stayed at two
        graph = graph_of(
            {("A", "K"): 50, ("K", "Z"): 50, ("A", "M"): 50, ("M", "Z"): 50,
             ("B", "D"): 40, ("D", "Z"): 40, ("B", "M"): 10}
        )
        searched = recorded_searches(monkeypatch)
        joint = run_br_phase([path_plan(1, ("A", "K", "Z"), graph), path_plan(2, ("B", "D", "Z"), graph)], graph)
        assert joint.per_agent[1].stops() == ("A", "M", "Z")
        assert joint.per_agent[2].stops() == ("B", "M", "Z")
        assert searched == [1, 2, 1, 2]

    def test_every_leg_of_a_searched_plan_leaves_an_expanded_node(self, monkeypatch):
        # What lets a skipped step ignore counts on the traveller's own legs:
        # after each search, adopted or not, every leg tail of the traveller's
        # plan is a node that search expanded, so a count moved on a leg
        # stamps a node the skip test reads.
        steps, searches = [], []
        search = best_response.plan_individual

        def recording(graph, request, occupancy, expanded):
            searches.append((len(steps), request.agent, expanded))
            return search(graph, request, occupancy, expanded)

        monkeypatch.setattr(best_response, "plan_individual", recording)
        rng = random.Random(73)
        checked = adopted = 0
        for _ in range(400):
            nodes = [f"n{i}" for i in range(rng.randint(3, 9))]
            trunk = rng.sample(nodes, len(nodes))
            edges = {(a, b): rng.randint(1, 4) for a in nodes for b in nodes if a != b and rng.random() < 0.4}
            for leg in zip(trunk, trunk[1:]):
                edges.setdefault(leg, rng.randint(1, 4))
            graph = graph_of(edges, extra_nodes=set(nodes))
            plans = []
            for agent in range(1, rng.randint(2, 6) + 1):
                start = rng.randrange(len(trunk) - 1)
                end = rng.randint(start + 1, len(trunk) - 1)
                plans.append(path_plan(agent, trunk[start : end + 1], graph))
            steps.clear()
            searches.clear()
            run_br_phase(plans, graph, on_step=steps.append)
            for step, agent, expanded in searches:
                tails = {graph.positions[leg[0]] for leg in steps[step].per_agent[agent].legs}
                assert tails <= set(expanded)
            checked += len(searches)
            adopted += sum(plan is not steps[-1].per_agent[plan.agent] for plan in plans)
        assert checked > 2000 and adopted > 200

    def test_a_crowd_rise_away_from_the_search_is_searched_again(self, monkeypatch):
        # agent 1's only route is A-Z, so its search expands A alone; agent
        # 2 leaves P-S-R to join agent 3 on P-R, which raises the crowd
        # agent 1's search is guided by from two to three
        graph = graph_of({("A", "Z"): 10, ("P", "R"): 30, ("P", "S"): 20, ("S", "R"): 20})
        searched = recorded_searches(monkeypatch)
        joint = run_br_phase(
            [path_plan(1, ("A", "Z"), graph), path_plan(2, ("P", "S", "R"), graph), path_plan(3, ("P", "R"), graph)],
            graph,
        )
        assert joint.edges[("P", "R")] == frozenset({2, 3})
        assert searched == [1, 2, 3, 1]


class TestRosenthalPotential:
    def test_empty_joint_plan(self):
        joint = JointPlan(per_agent={})
        assert rosenthal_potential(joint, CORRIDOR) == 0.0

    def test_two_agents_one_edge(self):
        graph = graph_of({("A", "B"): 100})
        joint = merge_plans(
            [path_plan(1, ("A", "B"), graph), path_plan(2, ("A", "B"), graph)]
        )
        assert rosenthal_potential(joint, graph) == pytest.approx(100 + 60)

    def test_improving_step_strictly_decreases_potential(self):
        rng = random.Random(41)
        checked = 0
        for _ in range(400):
            nodes, edges = random_digraph(rng, rng.randint(4, 8), 0.45)
            graph = graph_of(edges, extra_nodes=set(nodes))
            plans = []
            for agent in (1, 2, 3):
                origin, dest = rng.sample(nodes, 2)
                plan = plan_individual(graph, AgentRequest(agent, origin, dest))
                if plan is not None:
                    plans.append(plan)
            if len(plans) < 2:
                continue
            joint = merge_plans(plans)
            for plan in plans:
                step = best_response_step(joint, plan.agent, graph)
                gain = agent_cost(joint, plan.agent, graph) - step.total_cost
                if gain > 1e-9:
                    checked += 1
                    after = merge_plans([step if p.agent == plan.agent else p for p in plans])
                    drop = rosenthal_potential(joint, graph) - rosenthal_potential(after, graph)
                    assert drop == pytest.approx(gain, rel=1e-9, abs=1e-9)
        assert checked >= 20


class TestTotalAndSerialization:
    def test_joint_plan_round_trips_to_dict(self):
        p1 = path_plan(1, ("C", "D", "E", "F"), CORRIDOR)
        p2 = path_plan(2, ("D", "E"), CORRIDOR)
        doc = merge_plans([p1, p2]).to_dict()
        assert {"from": "D", "to": "E", "agents": [1, 2]} in doc["edges"]
        assert doc["plans"]["2"] == [["D", "E"]]
