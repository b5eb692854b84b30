import random

import pytest

from journeyshare.best_response import agent_cost, merge_plans, run_br_phase
from journeyshare.errors import InputError
from journeyshare.metrics import (
    ExperimentResult,
    GroupRecord,
    cost_improvement,
    prolongation,
)
from journeyshare.planning import AgentRequest, Plan, plan_individual

from conftest import graph_of
from oracle_utils import random_digraph, success_rates



def path_plan(agent, stops, graph) -> Plan:
    legs = tuple(zip(stops, stops[1:]))
    return Plan(agent=agent, legs=legs, total_cost=float(sum(graph.edges[leg] for leg in legs)))


def duration(depart, arrive) -> int:
    return arrive - depart


def costs(plans, joint, graph):
    """The solo and shared cost per agent, as run_pipeline records them."""
    return {p.agent: p.total_cost for p in plans}, {a: agent_cost(joint, a, graph) for a in joint.per_agent}


class TestCostImprovement:
    def test_no_sharing_gives_zero(self):
        graph = graph_of({("A", "B"): 10, ("X", "Y"): 20})
        plans = [path_plan(1, ("A", "B"), graph), path_plan(2, ("X", "Y"), graph)]
        joint = merge_plans(plans)
        assert cost_improvement(*costs(plans, joint, graph)) == 0.0

    def test_two_identical_routes_save_forty_percent(self):
        graph = graph_of({("A", "B"): 50, ("B", "C"): 50})
        plans = [path_plan(a, ("A", "B", "C"), graph) for a in (1, 2)]
        joint = merge_plans(plans)
        assert cost_improvement(*costs(plans, joint, graph)) == pytest.approx(0.4)

    def test_three_identical_routes_save_53_percent(self):
        graph = graph_of({("A", "B"): 100})
        plans = [path_plan(a, ("A", "B"), graph) for a in (1, 2, 3)]
        joint = merge_plans(plans)
        assert cost_improvement(*costs(plans, joint, graph)) == pytest.approx(1 - (0.8 / 3 + 0.2))

    def test_zero_total_cost_is_an_error(self):
        with pytest.raises(InputError, match="zero"):
            cost_improvement({1: 0.0}, {1: 0.0})

    def test_mismatched_agent_sets_rejected(self):
        with pytest.raises(InputError, match="different agents"):
            cost_improvement({1: 10.0, 2: 10.0}, {1: 10.0})

    def test_sums_in_agent_order(self):
        # 1e16 + 1 + 1 rounds to 1e16 one term at a time, but 1 + 1 + 1e16
        # does not: the sums run in sorted agent order, whatever the key order
        initial = {3: 1e16, 1: 1.0, 2: 1.0}
        shared = {3: 1e16, 2: 0.5, 1: 0.5}
        assert cost_improvement(initial, shared) == (1.0 + 1.0 + 1e16 - (0.5 + 0.5 + 1e16)) / (1.0 + 1.0 + 1e16)

    def test_improvement_grows_when_a_label_grows(self):
        # a third traveller joining one edge of a fixed joint plan raises dC
        graph = graph_of({("A", "B"): 50, ("B", "C"): 50})
        p1 = path_plan(1, ("A", "B", "C"), graph)
        p2 = path_plan(2, ("A", "B", "C"), graph)
        before_plans = [p1, p2]
        before = cost_improvement(*costs(before_plans, merge_plans(before_plans), graph))
        p3 = path_plan(3, ("A", "B"), graph)
        after_plans = [p1, p2, p3]
        after = cost_improvement(*costs(after_plans, merge_plans(after_plans), graph))
        assert after > before

    def test_matches_straight_line_reimplementation_after_br(self):
        # two-implementation check of the improvement formula on live runs
        rng = random.Random(73)
        checked = 0
        for _ in range(60):
            nodes, edges = random_digraph(rng, rng.randint(4, 9), 0.45)
            graph = graph_of(edges, extra_nodes=set(nodes))
            plans = []
            for agent in range(1, rng.randint(2, 6)):
                origin, dest = rng.sample(nodes, 2)
                plan = plan_individual(graph, AgentRequest(agent, origin, dest))
                if plan is not None:
                    plans.append(plan)
            if len(plans) < 2:
                continue
            checked += 1
            joint = run_br_phase(plans, graph)
            value = cost_improvement(*costs(plans, joint, graph))
            # independent reimplementation, straight from the formula
            num = sum(p.total_cost for p in plans) - sum(
                sum((0.8 / len(joint.edges[leg]) + 0.2) * edges[leg] for leg in joint.per_agent[p.agent].legs)
                for p in plans
            )
            den = sum(p.total_cost for p in plans)
            assert value == pytest.approx(num / den, abs=1e-12)
            assert value >= 0.0
        assert checked >= 25


class TestProlongation:
    def test_identical_schedules_give_zero(self):
        group = {1: duration(0, 100), 2: duration(10, 110)}
        solo = {1: duration(0, 100), 2: duration(10, 110)}
        assert prolongation(group, solo) == 0.0

    def test_hand_computed_quarter(self):
        group = {1: duration(0, 120), 2: duration(0, 130)}
        solo = {1: duration(0, 100), 2: duration(0, 100)}
        assert prolongation(group, solo) == pytest.approx(0.25)

    def test_missing_solo_marks_not_computable(self):
        group = {1: duration(0, 120)}
        assert prolongation(group, {}) is None

    def test_matches_straight_line_reimplementation(self):
        rng = random.Random(79)
        for _ in range(50):
            agents = list(range(1, rng.randint(2, 6)))
            group = {a: duration(rng.randint(0, 100), rng.randint(200, 500)) for a in agents}
            solo = {a: duration(rng.randint(0, 100), rng.randint(150, 400)) for a in agents}
            expected = (sum(group.values()) - sum(solo.values())) / sum(solo.values())
            assert prolongation(group, solo) == pytest.approx(expected, abs=1e-12)


class TestSuccessRates:
    def _result(self, records):
        return ExperimentResult(scenario="s", n_agents=2, direction="NS", seed=0, groups=records)

    def test_all_matched(self):
        results = [
            self._result([GroupRecord(0, 1, True, False), GroupRecord(1, 2, True, False)]),
            self._result([GroupRecord(0, 2, True, False)]),
        ]
        assert success_rates(results) == {1: 1.0, 2: 1.0}

    def test_absent_sizes_not_reported(self):
        results = [self._result([GroupRecord(0, 2, True, False)])]
        assert 3 not in success_rates(results)

    def test_mixed_counts(self):
        records = [GroupRecord(i, 2, i < 7, False) for i in range(10)]
        results = [self._result(records)]
        assert success_rates(results) == {2: pytest.approx(0.7)}
