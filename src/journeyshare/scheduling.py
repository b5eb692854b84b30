"""Timetable matching: assigns concrete runs and times to a group's parts.

All members of a part ride the same runs at the same times.  Scheduling is a
deterministic two-pass policy: times forward, legs backward.  The forward
pass walks the parts in precedence order and gives each part only its
earliest arrival once every member is there (members may have to wait for
the slowest companion).  The backward pass walks them in reverse and picks
each part's legs once: the latest start that still arrives by a bound.  A
part's bound is its earliest arrival, so nothing downstream moves and the
part boards no earlier than it must; a part that starts every one of its
members' journeys is bounded instead by its members' next boarding (or its
own arrival), which squeezes out origin waiting time without touching any
downstream board time.  A group's wall-clock budget is checked between part
searches, before each one in both passes, never inside a search.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field
from typing import Mapping

from .config import EngineConfig
from .errors import ConsistencyError, InputError
# relevant_timetable is not called here; perfbench wraps scheduling.relevant_timetable by name
from .grouping import Part, part_precedence, relevant_timetable
from .planning import AgentId, Plan
from .transit import DAY_MINUTES, DEPARTURE_ORDER, TransitNetwork

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

    @property
    def depart(self) -> int:
        return self.legs[0].board

    @property
    def arrive(self) -> int:
        return self.legs[-1].alight

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


class _PartSolver:
    """Earliest-arrival time and latest-departure legs over one part.

    A move from stop i is (to_index, departure, duration, run_id): first the
    walks to stop i + 1, then the timetabled departures to later part stops,
    both in the order of tt's walks and departures; departure and run_id are
    None for walks, which start any time.  Among equally good moves both
    searches keep the first, but only the latest-departure search picks legs.

    The moves are read off tt.departures per next stop, and only the next
    stops later on the part are read, so tt may be the whole network or any
    slice of it that holds the part's legs.  A stop with departures to two or
    more later part stops (express legs) has them merged on DEPARTURE_ORDER.
    """

    def __init__(self, part: Part, tt: TransitNetwork):
        self.part = part
        self.size = len(part.stops)
        position = {stop: i for i, stop in enumerate(part.stops)}
        self.moves: list[list[tuple[int, int | None, int, str | None]]] = []
        for i, stop in enumerate(part.stops[:-1]):
            walks = tt.walks.get((stop, part.stops[i + 1]), ())
            moves = [(i + 1, None, link.duration, None) for link in walks]
            ahead = []
            for succ, conns in tt.departures.get(stop, {}).items():
                j = position.get(succ, -1)
                if j > i:
                    ahead.append((j, conns))
            if len(ahead) == 1:
                j, conns = ahead[0]
                moves += [(j, c.departure, c.duration, c.run_id) for c in conns]
            elif ahead:
                merged = heapq.merge(*(conns for _, conns in ahead), key=DEPARTURE_ORDER)
                moves += [(position[c.to_stop], c.departure, c.duration, c.run_id) for c in merged]
            self.moves.append(moves)

    def earliest_arrival(self, ready_time: int) -> int | None:
        """Minimal final arrival departing no earlier than ready_time, or None."""
        arrival = [_UNREACHED] * self.size
        arrival[0] = ready_time
        for i in range(self.size - 1):
            t = arrival[i]
            if t >= _UNREACHED:
                continue
            for j, departure, duration, _ in self.moves[i]:
                if departure is None:
                    board = t
                elif departure < t:
                    continue
                else:
                    board = departure
                alight = board + duration
                if alight <= DAY_MINUTES and alight < arrival[j]:
                    arrival[j] = alight
        return arrival[-1] if arrival[-1] < _UNREACHED else None

    def latest_departure(self, arrive_by: int) -> list[LegAssignment] | None:
        """Legs of the latest start that still completes the part by arrive_by,
        consecutive hops on one run merged into one boarding; None if none does."""
        latest = [-_UNREACHED] * self.size
        choice: list[tuple[int, str | None, int, int] | None] = [None] * self.size
        latest[-1] = arrive_by
        for i in range(self.size - 2, -1, -1):
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
        stops, last = self.part.stops, self.size - 1
        legs: list[LegAssignment] = []
        i = 0
        while i < last:
            j, run_id, board, alight = choice[i]
            if run_id is None:
                mode = MODE_WALK
            else:
                mode = MODE_SERVICE
                # ride on to the boarding's last hop on this run
                while j < last and choice[j][1] == run_id:
                    j, _, _, alight = choice[j]
            legs.append(LegAssignment(stops[i], stops[j], mode, run_id, board, alight))
            i = j
        return legs


def schedule_group(
    parts: list[Part], tt: TransitNetwork, time_limit_s: float | None = None
) -> ScheduleResult:
    """Two-pass schedule for a whole group, or infeasible/timeout.

    Forward: parts in precedence order, each given the earliest arrival it
    can make once every member has arrived.  Backward: parts in reverse
    order, each given the legs of its latest departure arriving by its
    earliest arrival, or, for a journey-initial part, by its members'
    earliest next-part departure or own arrival.  That bound is never before
    the part's earliest arrival, so the earliest-arrival path always meets
    it; with the earliest arrival as bound, the latest departure arrives
    exactly then, so every successor's ready time holds.  A search that
    finds nothing anyway raises ConsistencyError.

    tt may be any network that holds the parts' legs: the prepared network,
    or a slice of it such as relevant_timetable cuts.

    The clock is read once, at the start: before each part's search in
    either pass, a group whose time_limit_s has run out is given up as timed
    out.  None sets no limit.
    """
    deadline = time.perf_counter() + (math.inf if time_limit_s is None else time_limit_s)
    topo = part_precedence(parts)
    by_id = {part.id: part for part in parts}
    # built as the forward pass reaches each part; the backward pass visits no other
    solvers: dict[int, _PartSolver] = {}
    arrival: dict[int, int] = {}
    for pid in topo:
        if time.perf_counter() >= deadline:
            return ScheduleResult(schedule=None, timed_out=True)
        part = by_id[pid]
        ready = max((arrival[prev] for prev in part.prev.values() if prev is not None), default=0)
        if ready >= DAY_MINUTES:
            return ScheduleResult(schedule=None)
        solvers[pid] = _PartSolver(part, tt)
        found = solvers[pid].earliest_arrival(ready)
        if found is None:
            return ScheduleResult(schedule=None)
        arrival[pid] = found

    schedules: dict[int, PartSchedule] = {}
    for pid in reversed(topo):
        if time.perf_counter() >= deadline:
            return ScheduleResult(schedule=None, timed_out=True)
        part = by_id[pid]
        bound = arrival[pid]
        # wait compression: only parts that start every one of their
        # members' journeys may move, so no fixed boarding is disturbed
        if all(prev is None for prev in part.prev.values()):
            bound = min(bound if nxt is None else schedules[nxt].depart for nxt in part.next.values())
        legs = solvers[pid].latest_departure(bound)
        if legs is None:
            raise ConsistencyError(f"part {pid} arrives at {arrival[pid]}, yet no departure arrives by {bound}")
        schedules[pid] = PartSchedule(legs=tuple(legs))

    # each agent's itinerary is its part schedules concatenated; the
    # precedence order visits every agent's parts in travel order
    legs_of: dict[AgentId, list[LegAssignment]] = {}
    for pid in topo:
        for agent in by_id[pid].agents:
            legs_of.setdefault(agent, []).extend(schedules[pid].legs)
    itineraries = {agent: Itinerary(agent=agent, legs=tuple(legs_of[agent])) for agent in sorted(legs_of)}
    if any(itin.duration > DAY_MINUTES for itin in itineraries.values()):
        return ScheduleResult(schedule=None)
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
    """Timetable one traveller's plan in isolation (the prolongation baseline),
    on the network itself: the part search reads only the legs that stay on
    the plan, so no slice is cut."""
    return schedule_group([plan_as_single_part(plan)], network, time_limit_s)


def time_limit_for(group_size: int, config: EngineConfig = EngineConfig()) -> float:
    """Per-group timetabling wall-clock budget, stepped by group size."""
    if group_size < 1:
        raise InputError(f"group size must be >= 1, got {group_size}")
    if group_size <= 5:
        return config.sched_limit_small_s
    if group_size <= 10:
        return config.sched_limit_medium_s
    return config.sched_limit_large_s
