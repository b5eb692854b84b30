"""Acceptance gate: one test per release criterion, each printing a verdict.

Run with `pytest -s tests/test_acceptance.py` to see the PASS/FAIL line per
criterion.
"""

import csv
import random
import statistics
import time

import pytest

from journeyshare.best_response import (
    agent_cost,
    best_response_step,
    merge_plans,
    occupancy_cost,
    rosenthal_potential,
    run_br_phase,
    shared_cost,
)
from journeyshare.experiments import default_matrix, run_batch
from journeyshare.grouping import identify_groups, split_into_parts
from journeyshare.metrics import RESULTS_COLUMNS, success_rates
from journeyshare.planning import AgentRequest, Plan, plan_individual
from journeyshare.scheduling import schedule_group, time_limit_for
from journeyshare.transit import DAY_MINUTES

from conftest import graph_of
from oracle_utils import (
    brute_force_best_path,
    oracle_agent_durations,
    random_digraph,
    random_scheduling_instance,
)

EPS = 1e-9


def report(number: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def default_batch():
    started = time.perf_counter()
    results = run_batch(default_matrix())
    return results, time.perf_counter() - started


def random_plans(rng, max_nodes, max_agents):
    nodes, edges = random_digraph(rng, rng.randint(3, max_nodes), 0.4)
    graph = graph_of(edges, extra_nodes=set(nodes))
    plans = []
    for agent in range(1, max_agents + 1):
        origin, dest = rng.sample(nodes, 2)
        plan = plan_individual(graph, AgentRequest(agent, origin, dest))
        if plan is not None:
            plans.append(plan)
    return graph, edges, plans


def test_criterion_1_cost_formula_exactness():
    started = time.perf_counter()
    worst = 0.0
    for c in (1.0, 37.0, 100.0, 612.5):
        for n in range(1, 101):
            reference = (1.0 / n * 0.8 + 0.2) * c  # the discount formula, verbatim
            worst = max(worst, abs(shared_cost(c, n) - reference))
            assert shared_cost(c, n) / c > 0.2
    two = abs(shared_cost(100.0, 2) - 0.6 * 100.0)
    saving3 = 1.0 - shared_cost(100.0, 3) / 100.0
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and two <= 1e-12 and abs(saving3 - 8.0 / 15.0) <= 1e-12 and elapsed < 1.0
    report(1, ok, f"formula max dev {worst:.2e}, n=2 dev {two:.2e}, n=3 saving {saving3:.4%}, {elapsed:.2f}s")


def test_criterion_2_merge_oracle():
    started = time.perf_counter()
    rng = random.Random(101)
    sets_checked = 0
    while sets_checked < 1000:
        _, _, plans = random_plans(rng, max_nodes=12, max_agents=6)
        if not plans:
            continue
        sets_checked += 1
        joint = merge_plans(plans)
        expected = {}
        for plan in plans:
            for leg in plan.legs:
                expected.setdefault(leg, set()).add(plan.agent)
        assert dict(joint.edges) == {leg: frozenset(users) for leg, users in expected.items()}
        assert set(joint.per_agent) == {plan.agent for plan in plans}
    elapsed = time.perf_counter() - started
    report(2, elapsed < 10.0, f"1000 random plan sets merged exactly, {elapsed:.1f}s")


def test_criterion_3_best_response_correctness():
    started = time.perf_counter()
    rng = random.Random(103)
    graphs_checked = 0
    steps_checked = 0
    while graphs_checked < 200:
        graph, edges, plans = random_plans(rng, max_nodes=8, max_agents=3)
        if len(plans) < 2:
            continue
        graphs_checked += 1
        joint = merge_plans(plans)
        for plan in plans:
            step = best_response_step(joint, plan.agent, graph)
            oracle = brute_force_best_path(
                edges,
                plan.legs[0][0],
                plan.legs[-1][1],
                occupancy_cost(joint, plan.agent, graph),
            )
            assert step.total_cost == oracle[0], "step cost differs from exhaustive enumeration"
            steps_checked += 1
        potentials = []
        converged = run_br_phase(
            plans, graph, on_step=lambda j: potentials.append(rosenthal_potential(j, graph))
        )
        for before, after in zip(potentials, potentials[1:]):
            assert after <= before + EPS, "potential increased across a recorded step"
        for agent in converged.per_agent:
            retry = best_response_step(converged, agent, graph)
            assert agent_cost(converged, agent, graph) - retry.total_cost < EPS, "Nash certificate failed"
    elapsed = time.perf_counter() - started
    ok = elapsed < 60.0
    report(3, ok, f"{graphs_checked} graphs, {steps_checked} BR steps vs oracle, Nash + potential hold, {elapsed:.1f}s")


def test_criterion_4_individual_rationality(default_batch):
    results, _ = default_batch
    agents_checked = 0
    for result in results:
        assert not result.errors, f"experiment errors: {result.errors}"
        for agent, cost_after in result.shared_costs.items():
            assert cost_after <= result.initial_costs[agent], (
                f"agent {agent} pays {cost_after} > initial {result.initial_costs[agent]}"
            )
            agents_checked += 1
        if result.delta_c is not None:
            assert result.delta_c >= 0.0
    report(4, agents_checked > 0, f"cost never above solo cost for {agents_checked} agent-experiments, dC >= 0")


def test_criterion_5_parts_and_groups():
    p1 = Plan(agent=1, legs=(("A", "C"), ("C", "D"), ("D", "E"), ("E", "F"), ("F", "G")), total_cost=50.0)
    p2 = Plan(agent=2, legs=(("B", "C"), ("C", "D"), ("D", "E"), ("E", "F"), ("F", "H")), total_cost=50.0)
    groups = identify_groups(merge_plans([p1, p2]))
    assert len(groups) == 1
    parts = split_into_parts(groups[0])
    assert len(parts) == 5
    shared = [p for p in parts if p.agents == frozenset({1, 2})]
    assert len(shared) == 1 and shared[0].stops == ("C", "D", "E", "F")

    rng = random.Random(105)
    plans_checked = 0
    while plans_checked < 500:
        _, _, plans = random_plans(rng, max_nodes=10, max_agents=6)
        if not plans:
            continue
        plans_checked += 1
        joint = merge_plans(plans)
        groups = identify_groups(joint)
        assert sum(len(g.edges) for g in groups) == len(joint.edges)
        for group in groups:
            parts = split_into_parts(group)
            part_edges = [leg for part in parts for leg in part.edges()]
            assert sorted(part_edges) == sorted(group.edges), "edge partition violated"
            by_id = {p.id: p for p in parts}
            for agent in group.agents:
                heads = [p for p in parts if agent in p.agents and p.prev[agent] is None]
                assert len(heads) == 1
                rebuilt = []
                pid = heads[0].id
                while pid is not None:
                    rebuilt.extend(by_id[pid].edges())
                    pid = by_id[pid].next[agent]
                assert tuple(rebuilt) == group.plans[agent].legs, "agent reconstruction violated"
    report(5, True, f"overlap fixture gives 1 group / 5 parts; invariants exact on {plans_checked} joint plans")


def test_criterion_6_scheduler_oracle():
    started = time.perf_counter()
    rng = random.Random(107)
    instances = 0
    feasible = 0
    while instances < 100:
        parts, tt = random_scheduling_instance(rng)
        instances += 1
        result = schedule_group(parts, tt)
        oracle = oracle_agent_durations(parts, tt)
        if oracle is None:
            assert not result.feasible, "scheduler produced a schedule the oracle rules infeasible"
            continue
        assert result.feasible, "scheduler missed a feasible schedule"
        feasible += 1
        itins = result.itineraries
        assert {a: i.duration for a, i in itins.items()} == oracle, "total duration differs from exhaustive search"
        assert sum(i.duration for i in itins.values()) == sum(oracle.values())
        for part in parts:
            legs = result.schedule[part.id].legs
            for leg in legs:
                assert leg.alight > leg.board
            for a, b in zip(legs, legs[1:]):
                assert b.board >= a.alight and b.from_stop == a.to_stop
        for itin in itins.values():
            assert itin.duration <= DAY_MINUTES
            for a, b in zip(itin.legs, itin.legs[1:]):
                assert b.board >= a.alight, "transfer violates arrival <= boarding"
    elapsed = time.perf_counter() - started
    ok = feasible >= 20 and elapsed < 120.0
    report(6, ok, f"{instances} instances ({feasible} feasible) match exhaustive run-choice search, {elapsed:.1f}s")


def test_criterion_7_trend_reproduction(default_batch):
    results, batch_seconds = default_batch
    by_n: dict[int, list] = {}
    for result in results:
        by_n.setdefault(result.n_agents, []).append(result)
    counts = sorted(by_n)
    assert counts == [2, 4, 6, 8, 10, 12, 14]
    runs_per_cell = min(len(by_n[n]) for n in counts)
    assert runs_per_cell >= 40
    assert batch_seconds <= 1800.0

    mean_time = [statistics.mean(r.timings["total"] for r in by_n[n]) for n in counts]
    r = statistics.correlation([float(n) for n in counts], mean_time)
    r_squared = r * r

    mean_dc = [statistics.mean(r.delta_c for r in by_n[n] if r.delta_c is not None) for n in counts]
    dc_monotone = all(a <= b + EPS for a, b in zip(mean_dc, mean_dc[1:]))

    rates = success_rates(results)
    sizes = sorted(rates)
    rate_monotone = all(rates[a] >= rates[b] for a, b in zip(sizes, sizes[1:]))
    two_beats_six = 2 in rates and 6 in rates and rates[2] > rates[6]

    ok = r_squared >= 0.9 and dc_monotone and rate_monotone and two_beats_six
    report(
        7,
        ok,
        f"R^2={r_squared:.3f}, mean dC {mean_dc[0]:.3f}->{mean_dc[-1]:.3f} monotone={dc_monotone}, "
        f"success rates non-increasing={rate_monotone}, size2 {rates.get(2, 0):.2f} > size6 {rates.get(6, 0):.2f}, "
        f"batch {batch_seconds:.0f}s",
    )


def test_criterion_8_time_limit_policy():
    ok = (
        time_limit_for(5) == 300.0
        and time_limit_for(10) == 600.0
        and time_limit_for(11) == 900.0
        and time_limit_for(1) == 300.0
        and time_limit_for(6) == 600.0
    )
    report(8, ok, "limits 300/600/900 s at the size 5/10/11 boundaries")


def test_criterion_9_determinism_and_parallel_invariance(tmp_path):
    matrix = default_matrix()

    def rows_without_timings(path):
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == RESULTS_COLUMNS
        drop = {rows[0].index(c) for c in ("t_initial_s", "t_br_s", "t_schedule_s", "t_total_s")}
        return [[c for i, c in enumerate(row) if i not in drop] for row in rows]

    first, second, parallel = (tmp_path / n for n in ("first.csv", "second.csv", "parallel.csv"))
    run_batch(matrix, first)
    run_batch(matrix, second)
    run_batch(matrix, parallel, parallel=4)
    same_serial = rows_without_timings(first) == rows_without_timings(second)
    same_parallel = rows_without_timings(first) == rows_without_timings(parallel)
    report(9, same_serial and same_parallel, "identical results.csv across reruns and with --parallel")
