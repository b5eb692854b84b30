"""Joint-plan merging and best-response optimisation under group discounts.

Sharing an edge with n-1 others cuts the edge cost to (0.8/n + 0.2) of the
solo duration (planning.shared_cost).  A best-response step is one
plan_individual search that prices edges from an Occupancy: the others'
counts per edge slot, the replanning traveller taken off its own legs.  A
step skips its search when nothing that search would read has changed since
the traveller's last one.  Round-robin best-response replanning under that
cost is a congestion game with a Rosenthal-style potential, so it settles in
a state where no traveller can lower their own cost by rerouting alone.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping

from .errors import InputError
from .planning import AgentId, AgentRequest, Edge, Occupancy, Plan, plan_individual, shared_cost
from .transit import RelaxedGraph

logger = logging.getLogger(__name__)

# the sweep cap of run_br_phase, for pathological cases
MAX_ROUNDS = 100


@dataclass(frozen=True)
class JointPlan:
    """Union of all travellers' plans.  edges, derived from the plans on
    first use, labels each edge with the frozenset of its users."""

    per_agent: Mapping[AgentId, Plan]

    @cached_property
    def edges(self) -> dict[Edge, frozenset]:
        users: dict[Edge, set] = {}
        for plan in self.per_agent.values():
            for leg in plan.legs:
                users.setdefault(leg, set()).add(plan.agent)
        return {leg: frozenset(agents) for leg, agents in users.items()}

    def to_dict(self) -> dict:
        return {
            "edges": [
                {"from": a, "to": b, "agents": sorted(self.edges[(a, b)])}
                for a, b in sorted(self.edges)
            ],
            "plans": {str(agent): [list(leg) for leg in plan.legs] for agent, plan in sorted(self.per_agent.items())},
        }


def merge_plans(plans: Iterable[Plan]) -> JointPlan:
    """Graph union of the plans; InputError for a duplicate agent, an empty
    plan, legs that are not chained or a revisited stop."""
    per_agent: dict[AgentId, Plan] = {}
    for plan in plans:
        if plan.agent in per_agent:
            raise InputError(f"duplicate plan for agent {plan.agent!r}")
        if not plan.legs:
            raise InputError(f"agent {plan.agent!r} has an empty plan")
        for a, b in zip(plan.legs, plan.legs[1:]):
            if a[1] != b[0]:
                raise InputError(f"agent {plan.agent!r} plan legs are not chained at {a} -> {b}")
        if len(set(plan.stops())) != len(plan.stops()):
            raise InputError(f"agent {plan.agent!r} plan revisits a stop")
        per_agent[plan.agent] = plan
    return JointPlan(per_agent=per_agent)


def agent_cost(joint: JointPlan, agent: AgentId, graph: RelaxedGraph) -> float:
    """The agent's discounted plan cost given everyone's current routes."""
    if agent not in joint.per_agent:
        raise InputError(f"agent {agent!r} not present in joint plan")
    total = 0.0
    for leg in joint.per_agent[agent].legs:
        n = len(joint.edges[leg])
        total += shared_cost(float(graph.edges[leg]), n)
    return total


def _leg_slots(plan: Plan, graph: RelaxedGraph) -> tuple[int, ...]:
    """The graph slots of the plan's legs; InputError for a leg off the graph."""
    slots = graph.slots
    for leg in plan.legs:
        if leg not in slots:
            raise InputError(f"agent {plan.agent!r} plan leg {leg} is not a relaxed-graph edge")
    return tuple(map(slots.__getitem__, plan.legs))


def best_response_step(joint: JointPlan, agent: AgentId, graph: RelaxedGraph) -> Plan:
    """The agent's cheapest route against the others' fixed routes.

    Every plan's legs must be graph edges (InputError), so the agent's own
    plan shows that its destination is reachable.
    """
    current = joint.per_agent.get(agent)
    if current is None:
        raise InputError(f"agent {agent!r} not present in joint plan")
    occupancy = Occupancy(graph)
    for plan in joint.per_agent.values():
        slots = _leg_slots(plan, graph)
        if plan.agent != agent:
            occupancy.board(slots)
    request = AgentRequest(agent=agent, origin=current.legs[0][0], destination=current.legs[-1][1])
    return plan_individual(graph, request, occupancy)


def run_br_phase(
    initial: Iterable[Plan],
    graph: RelaxedGraph,
    on_step: Callable[[JointPlan], None] | None = None,
) -> JointPlan:
    """Round-robin best-response sweeps until no traveller improves.

    A plan change is adopted only when its cost is below the traveller's
    current cost as raw floats: there is no epsilon, so float noise can count
    as an improvement.  A sweep without adoptions certifies that no unilateral
    improvement remains.  MAX_ROUNDS caps the sweeps.

    The phase merges the initial plans once, rejecting a leg that is not a
    graph edge (InputError), and counts the travellers per edge slot.  Each
    step takes its traveller off its legs, so that the counts are what a
    plan_individual search reads and price the current plan as agent_cost
    does, and puts it back on the legs it keeps.  A step repeats no search
    whose inputs are unchanged: if no adoption since the traveller's last
    search moved a count on an out-edge of a node that search expanded, and
    the crowd is the same, the search would return the same plan at the same
    cost, and the adoption test would fail again.  The current plan's legs
    leave nodes that search expanded, since A* expands every node of a plan
    no dearer than its result, so their counts are covered too.  The guide,
    and so which nodes a search expands, depends on how far the
    destination's reverse tree has grown, but the plan it returns does not,
    so the rule holds even if the tree grows between two searches.

    on_step gets a snapshot of the joint plan after every step.
    """
    per_agent = dict(merge_plans(initial).per_agent)
    slots = {agent: _leg_slots(plan, graph) for agent, plan in per_agent.items()}
    occupancy = Occupancy(graph)
    for own in slots.values():
        occupancy.board(own)
    counts = occupancy.counts
    # adoptions so far, and the adoption count when a count last moved on
    # an out-edge of each node
    adoptions = 0
    node_moved = [0] * len(graph.names)
    # per agent, (adoptions, crowd, expanded nodes) as of its last search
    searched: dict[AgentId, tuple[int, int, list[int]]] = {}
    position = graph.positions
    agents = sorted(per_agent)
    for round_no in range(1, MAX_ROUNDS + 1):
        improved = False
        for agent in agents:
            own = slots[agent]
            occupancy.alight(own)
            crowd = occupancy.crowd
            last = searched.get(agent)
            unchanged = (
                last is not None
                and last[1] == crowd
                and (last[0] == adoptions or max(map(node_moved.__getitem__, last[2]), default=0) <= last[0])
            )
            if not unchanged:
                current = per_agent[agent]
                request = AgentRequest(agent=agent, origin=current.legs[0][0], destination=current.legs[-1][1])
                expanded: list[int] = []
                candidate = plan_individual(graph, request, occupancy, expanded)
                current_cost = 0.0
                for leg, slot in zip(current.legs, own):
                    current_cost += shared_cost(float(graph.edges[leg]), counts[slot] + 1)
                if candidate.total_cost < current_cost:
                    adoptions += 1
                    for leg in set(current.legs).symmetric_difference(candidate.legs):
                        node_moved[position[leg[0]]] = adoptions
                    per_agent[agent] = candidate
                    slots[agent] = own = _leg_slots(candidate, graph)
                    improved = True
                # the traveller's own move leaves the counts it reads unchanged
                searched[agent] = (adoptions, crowd, expanded)
            occupancy.board(own)
            if on_step is not None:
                on_step(JointPlan(per_agent=dict(per_agent)))
        if not improved:
            logger.debug("best-response phase converged after %d sweep(s)", round_no)
            return JointPlan(per_agent=per_agent)
    logger.warning("best-response phase hit MAX_ROUNDS=%d without converging", MAX_ROUNDS)
    return JointPlan(per_agent=per_agent)
