"""Timetable matching: assigns concrete runs and times to a group's parts.

All members of a part ride the same runs at the same times.  Scheduling is a
deterministic two-pass policy.  The forward pass walks the parts in
precedence order and assigns each part its earliest-completion schedule
(members may have to wait for the slowest companion); among
earliest-completion options it starts the part as late as possible, so the
assignment is unambiguous and nobody idles at a boarding stop needlessly.
The backward pass then delays journey-initial parts as far as their members'
first fixed boarding allows, squeezing out origin waiting time without
touching any downstream board time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping

from .config import EngineConfig
from .errors import ConsistencyError, InputError
from .grouping import Part, part_precedence, relevant_timetable
from .planning import AgentId, Plan
from .transit import DAY_MINUTES, TransitNetwork

MODE_SERVICE = "service"
MODE_WALK = "walk"

_UNREACHED = DAY_MINUTES * 4


@dataclass(frozen=True)
class LegAssignment:
    from_stop: str
    to_stop: str
    mode: str
    run_id: str | None
    board: int
    alight: int


@dataclass(frozen=True)
class PartSchedule:
    part_id: int
    legs: tuple[LegAssignment, ...]

    @property
    def depart(self) -> int:
        return self.legs[0].board

    @property
    def arrive(self) -> int:
        return self.legs[-1].alight


@dataclass(frozen=True)
class Itinerary:
    agent: AgentId
    legs: tuple[LegAssignment, ...]
    depart: int
    arrive: int

    @property
    def duration(self) -> int:
        return self.arrive - self.depart

    def to_dict(self) -> dict:
        return {
            "agent": self.agent,
            "legs": [
                {
                    "from": leg.from_stop,
                    "to": leg.to_stop,
                    "mode": leg.mode,
                    "run_id": leg.run_id,
                    "board": leg.board,
                    "alight": leg.alight,
                }
                for leg in self.legs
            ],
            "depart": self.depart,
            "arrive": self.arrive,
        }


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of scheduling a group or a solo traveller: each part's
    schedule, keyed by part id, with each member's itinerary, or why there
    is none."""

    schedule: Mapping[int, PartSchedule] | None
    timed_out: bool = False
    itineraries: Mapping[AgentId, Itinerary] = field(default_factory=dict)

    @property
    def feasible(self) -> bool:
        return self.schedule is not None


class SchedulingTimeout(Exception):
    """Internal signal: per-group wall-clock budget exhausted."""


class _Deadline:
    def __init__(self, limit_s: float | None):
        self.at = None if limit_s is None else time.perf_counter() + limit_s

    def check(self) -> None:
        if self.at is not None and time.perf_counter() > self.at:
            raise SchedulingTimeout


class _PartSolver:
    """Earliest-arrival / latest-departure searches over one part.

    A move from stop i is (to_index, departure, duration, run_id): first the
    walks to stop i + 1, then the timetabled departures to later part stops,
    both in the network's stop-index order; departure and run_id are None
    for walks, which start any time.
    """

    def __init__(self, part: Part, tt: TransitNetwork):
        self.part = part
        self.size = len(part.stops)
        index = {stop: i for i, stop in enumerate(part.stops)}
        stop_index = tt.stop_index
        self.moves: list[list[tuple[int, int | None, int, str | None]]] = []
        for i, stop in enumerate(part.stops[:-1]):
            walks = stop_index.walks.get((stop, part.stops[i + 1]), ())
            moves = [(i + 1, None, link.duration, None) for link in walks]
            for conn in stop_index.departures.get(stop, ()):
                j = index.get(conn.to_stop, -1)
                if j > i:
                    moves.append((j, conn.departure, conn.duration, conn.run_id))
            self.moves.append(moves)

    def _leg(self, i: int, j: int, run_id: str | None, board: int, alight: int) -> LegAssignment:
        mode = MODE_WALK if run_id is None else MODE_SERVICE
        return LegAssignment(self.part.stops[i], self.part.stops[j], mode, run_id, board, alight)

    def earliest_arrival(self, ready_time: int, deadline: _Deadline) -> tuple[list[LegAssignment], int] | None:
        """Minimal final arrival departing no earlier than ready_time."""
        arrival = [_UNREACHED] * self.size
        parent: list[tuple[int, str | None, int, int] | None] = [None] * self.size
        arrival[0] = ready_time
        for i in range(self.size - 1):
            deadline.check()
            t = arrival[i]
            if t >= _UNREACHED:
                continue
            for j, departure, duration, run_id in self.moves[i]:
                if departure is None:
                    board = t
                elif departure < t:
                    continue
                else:
                    board = departure
                alight = board + duration
                if alight <= DAY_MINUTES and alight < arrival[j]:
                    arrival[j] = alight
                    parent[j] = (i, run_id, board, alight)
        if arrival[-1] >= _UNREACHED:
            return None
        legs: list[LegAssignment] = []
        j = self.size - 1
        while j:
            i, run_id, board, alight = parent[j]
            legs.append(self._leg(i, j, run_id, board, alight))
            j = i
        legs.reverse()
        return _coalesce(legs), arrival[-1]

    def latest_departure(self, arrive_by: int, deadline: _Deadline) -> tuple[list[LegAssignment], int] | None:
        """Maximal start time such that the part still completes by arrive_by."""
        latest = [-_UNREACHED] * self.size
        choice: list[tuple[int, str | None, int, int] | None] = [None] * self.size
        latest[-1] = arrive_by
        for i in range(self.size - 2, -1, -1):
            deadline.check()
            for j, departure, duration, run_id in self.moves[i]:
                bound = latest[j]
                if bound <= -_UNREACHED:
                    continue
                if departure is None:
                    board = bound - duration
                elif departure + duration > bound:
                    continue
                else:
                    board = departure
                if board >= 0 and board > latest[i]:
                    latest[i] = board
                    choice[i] = (j, run_id, board, board + duration)
        if latest[0] <= -_UNREACHED:
            return None
        legs: list[LegAssignment] = []
        i = 0
        while i < self.size - 1:
            j, run_id, board, alight = choice[i]
            legs.append(self._leg(i, j, run_id, board, alight))
            i = j
        return _coalesce(legs), latest[0]


def _coalesce(legs: list[LegAssignment]) -> list[LegAssignment]:
    """Merge consecutive hops on the same run into one boarded segment."""
    merged: list[LegAssignment] = []
    for leg in legs:
        if (
            merged
            and leg.mode == MODE_SERVICE
            and merged[-1].mode == MODE_SERVICE
            and leg.run_id == merged[-1].run_id
            and leg.from_stop == merged[-1].to_stop
        ):
            prev = merged.pop()
            merged.append(
                LegAssignment(prev.from_stop, leg.to_stop, MODE_SERVICE, leg.run_id, prev.board, leg.alight)
            )
        else:
            merged.append(leg)
    return merged


def earliest_arrival_in_part(
    part: Part, ready_time: int, tt: TransitNetwork, time_limit_s: float | None = None
) -> PartSchedule | None:
    """Earliest-completion schedule for one part, or None if infeasible."""
    if not 0 <= ready_time < DAY_MINUTES:
        raise InputError(f"ready_time {ready_time} outside [0, {DAY_MINUTES})")
    solver = _PartSolver(part, tt)
    try:
        found = solver.earliest_arrival(ready_time, _Deadline(time_limit_s))
    except SchedulingTimeout:
        return None
    if found is None:
        return None
    legs, _ = found
    return PartSchedule(part_id=part.id, legs=tuple(legs))


def _agent_chains(parts: list[Part]) -> dict[AgentId, list[int]]:
    by_id = {part.id: part for part in parts}
    chains: dict[AgentId, list[int]] = {}
    agents = sorted({agent for part in parts for agent in part.agents})
    for agent in agents:
        first = [p.id for p in parts if agent in p.agents and p.prev[agent] is None]
        if len(first) != 1:
            raise ConsistencyError(f"agent {agent!r} has {len(first)} journey-initial parts")
        chain = [first[0]]
        while by_id[chain[-1]].next[agent] is not None:
            chain.append(by_id[chain[-1]].next[agent])
        chains[agent] = chain
    return chains


def schedule_group(
    parts: list[Part], tt: TransitNetwork, time_limit_s: float | None = None
) -> ScheduleResult:
    """Two-pass schedule for a whole group, or infeasible/timeout.

    Forward: parts in precedence order, each completing as early as possible
    once every member has arrived, started as late as that completion time
    allows.  Backward: journey-initial parts are re-timed as late as their
    members' first fixed boarding (or own arrival) allows.
    """
    deadline = _Deadline(time_limit_s)
    topo = part_precedence(parts)
    by_id = {part.id: part for part in parts}
    chains = _agent_chains(parts)
    solvers = {part.id: _PartSolver(part, tt) for part in parts}

    schedules: dict[int, PartSchedule] = {}
    try:
        for pid in topo:
            part = by_id[pid]
            ready = 0
            for agent in part.agents:
                prev_pid = part.prev[agent]
                if prev_pid is not None:
                    ready = max(ready, schedules[prev_pid].arrive)
            if ready >= DAY_MINUTES:
                return ScheduleResult(schedule=None)
            found = solvers[pid].earliest_arrival(ready, deadline)
            if found is None:
                return ScheduleResult(schedule=None)
            legs, arrival = found
            # start the part as late as its earliest completion allows
            delayed = solvers[pid].latest_departure(arrival, deadline)
            if delayed is not None:
                legs, _ = delayed
            schedules[pid] = PartSchedule(part_id=pid, legs=tuple(legs))

        # wait compression: only parts that start every one of their members'
        # journeys may move, so no already-fixed boarding is disturbed
        for pid in topo:
            part = by_id[pid]
            if any(part.prev[agent] is not None for agent in part.agents):
                continue
            bounds = []
            for agent in sorted(part.agents, key=str):
                nxt = part.next[agent]
                if nxt is None:
                    bounds.append(schedules[pid].arrive)
                else:
                    bounds.append(schedules[nxt].depart)
            found = solvers[pid].latest_departure(min(bounds), deadline)
            if found is not None:
                legs, _ = found
                schedules[pid] = PartSchedule(part_id=pid, legs=tuple(legs))
    except SchedulingTimeout:
        return ScheduleResult(schedule=None, timed_out=True)

    # each agent's itinerary is its part schedules concatenated
    itineraries: dict[AgentId, Itinerary] = {}
    for agent, chain in chains.items():
        legs = tuple(leg for pid in chain for leg in schedules[pid].legs)
        if legs[-1].alight - legs[0].board > DAY_MINUTES:
            return ScheduleResult(schedule=None)
        itineraries[agent] = Itinerary(agent=agent, legs=legs, depart=legs[0].board, arrive=legs[-1].alight)
    return ScheduleResult(schedule=schedules, itineraries=itineraries)


def plan_as_single_part(plan: Plan) -> Part:
    """Wrap one traveller's plan as a lone part for solo timetabling."""
    return Part(
        id=0,
        agents=frozenset({plan.agent}),
        stops=plan.stops(),
        prev={plan.agent: None},
        next={plan.agent: None},
    )


def schedule_single_agent(
    plan: Plan, network: TransitNetwork, time_limit_s: float | None = None
) -> ScheduleResult:
    """Timetable one traveller's plan in isolation (the prolongation baseline)."""
    part = plan_as_single_part(plan)
    return schedule_group([part], relevant_timetable([part], network), time_limit_s)


def time_limit_for(group_size: int, config: EngineConfig = EngineConfig()) -> float:
    """Per-group timetabling wall-clock budget, stepped by group size."""
    if group_size < 1:
        raise InputError(f"group size must be >= 1, got {group_size}")
    if group_size <= 5:
        return config.sched_limit_small_s
    if group_size <= 10:
        return config.sched_limit_medium_s
    return config.sched_limit_large_s
