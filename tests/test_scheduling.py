import random
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from journeyshare.best_response import merge_plans
from journeyshare.config import EngineConfig
from journeyshare.errors import ConsistencyError, InputError
from journeyshare.grouping import Part, identify_groups, relevant_timetable, split_into_parts
from journeyshare.planning import Plan
from journeyshare.scheduling import (
    MODE_SERVICE,
    MODE_WALK,
    _PartSolver,
    plan_as_single_part,
    schedule_group,
    schedule_single_agent,
    time_limit_for,
)
from journeyshare.transit import (
    DAY_MINUTES,
    Stop,
    TimetabledConnection,
    TransitNetwork,
    WalkingLink,
    load_network,
    make_network,
)

from conftest import WALK_NETWORK, grid_walk_parts, write_csv
from oracle_utils import brute_force_relevant_timetable, oracle_agent_durations, oracle_schedule


def conn(service, run, seq, a, b, dep, dur) -> TimetabledConnection:
    return TimetabledConnection(service, run, seq, a, b, dep, dur)


def solo_part(stops, agent=1) -> Part:
    return Part(id=0, agents=frozenset({agent}), stops=tuple(stops), prev={agent: None}, next={agent: None})


def earliest_arrival(part, ready_time, tt):
    """The forward search's final arrival, or None."""
    return _PartSolver(part, tt).earliest_arrival(ready_time)


def latest_departure(part, arrive_by, tt):
    """The backward search's legs, or None."""
    return _PartSolver(part, tt).latest_departure(arrive_by)


def path_plan(agent, stops) -> Plan:
    legs = tuple(zip(stops, stops[1:]))
    return Plan(agent=agent, legs=legs, total_cost=float(10 * len(legs)))


# direct train T1 arrives at 330, before stopping train T2's 370
FAST_DIRECT_TT = TransitNetwork(
    stops={},
    connections=(
        conn("T1", "T1a", 1, "C", "F", 250, 80),
        conn("T2", "T2a", 1, "C", "D", 260, 30),
        conn("T2", "T2a", 2, "D", "E", 300, 30),
        conn("T2", "T2a", 3, "E", "F", 340, 30),
    ),
)


class TestEarliestArrivalInPart:
    def test_boards_direct_train_when_it_arrives_first(self):
        part = solo_part(("C", "D", "E", "F"))
        arrive = earliest_arrival(part, 0, FAST_DIRECT_TT)
        assert arrive == 330
        legs = latest_departure(part, arrive, FAST_DIRECT_TT)
        assert [(l.run_id, l.from_stop, l.to_stop) for l in legs] == [("T1a", "C", "F")]

    def test_takes_stopping_train_when_direct_departed(self):
        part = solo_part(("C", "D", "E", "F"))
        arrive = earliest_arrival(part, 255, FAST_DIRECT_TT)
        # T1 left at 250; the stopping run is merged into one boarding
        assert arrive == 370
        legs = latest_departure(part, arrive, FAST_DIRECT_TT)
        assert [(l.run_id, l.from_stop, l.to_stop) for l in legs] == [("T2a", "C", "F")]
        assert legs[0].board == 260

    def test_empty_relevant_timetable_infeasible(self):
        part = solo_part(("C", "D"))
        assert earliest_arrival(part, 0, TransitNetwork({}, ())) is None

    def test_dense_timetable_matches_hand_computation(self):
        # a run every 10 minutes, unit legs: presence t boards ceil(t/10)*10
        connections = []
        for dep in range(0, 200, 10):
            run = f"R{dep:03d}"
            connections.append(conn("S", run, 1, "P0", "P1", dep, 1))
            connections.append(conn("S", run, 2, "P1", "P2", dep + 1, 1))
            connections.append(conn("S", run, 3, "P2", "P3", dep + 2, 1))
        tt = TransitNetwork({}, tuple(connections))
        part = solo_part(("P0", "P1", "P2", "P3"))
        assert earliest_arrival(part, 0, tt) == 3
        assert earliest_arrival(part, 5, tt) == 13
        assert earliest_arrival(part, 10, tt) == 13
        assert earliest_arrival(part, 191, tt) is None

    def test_arrival_exactly_at_midnight_is_within_the_day(self):
        part = solo_part(("C", "D"))
        tt = TransitNetwork({}, (conn("S", "R1", 1, "C", "D", 1400, 40),))
        assert earliest_arrival(part, 0, tt) == DAY_MINUTES
        late = TransitNetwork({}, (conn("S", "R1", 1, "C", "D", 1401, 40),))
        assert earliest_arrival(part, 0, late) is None

    def test_walk_link_bridges_missing_service(self):
        part = solo_part(("C", "D", "E"))
        tt = TransitNetwork(
            {},
            connections=(conn("S", "R1", 1, "D", "E", 100, 20),),
            walking_links=frozenset({WalkingLink("C", "D", 7)}),
        )
        arrive = earliest_arrival(part, 0, tt)
        assert arrive == 120
        assert [l.mode for l in latest_departure(part, arrive, tt)] == [MODE_WALK, MODE_SERVICE]


class TestTieBreaks:
    """Among equally good moves the backward search, which alone picks legs,
    keeps the first in stop-index order: walks, then departures by
    (departure, duration, run_id, seq).  Each network below lists its
    connections by service, which disagrees."""

    def test_same_minute_runs_keep_lowest_run_id(self):
        tt = TransitNetwork(
            {},
            (
                conn("SA", "Z9", 1, "C", "D", 100, 30),
                conn("SB", "R1", 1, "C", "D", 100, 30),
            ),
        )
        part = solo_part(("C", "D"))
        assert [l.run_id for l in latest_departure(part, 130, tt)] == ["R1"]
        assert [l.run_id for l in schedule_group([part], tt).schedule[0].legs] == ["R1"]

    def test_same_minute_shorter_hop_beats_equally_fast_direct_run(self):
        # both reach E at 140; the index lists R1's 10-minute hop before Z9
        tt = TransitNetwork(
            {},
            (
                conn("SA", "Z9", 1, "C", "E", 100, 40),
                conn("SB", "R1", 1, "C", "D", 100, 10),
                conn("SB", "R1", 2, "D", "E", 110, 30),
            ),
        )
        result = schedule_group([solo_part(("C", "D", "E"))], tt)
        assert [(l.run_id, l.from_stop, l.to_stop, l.board, l.alight) for l in result.schedule[0].legs] == [
            ("R1", "C", "E", 100, 140)
        ]

    def test_walk_beats_service_boarding_the_same_minute(self):
        # with the run at minute 0 the backward pass meets the tie
        at_zero = TransitNetwork(
            {},
            connections=(conn("SA", "R1", 1, "C", "D", 0, 10),),
            walking_links=frozenset({WalkingLink("C", "D", 10)}),
        )
        part = solo_part(("C", "D"))
        result = schedule_group([part], at_zero)
        assert [(l.mode, l.board, l.alight) for l in result.schedule[0].legs] == [(MODE_WALK, 0, 10)]


def two_agent_parts():
    """Two travellers: 1 goes A-C-F-G, 2 goes B-C-F-H, shared C-F."""
    p1 = path_plan(1, ("A", "C", "F", "G"))
    p2 = path_plan(2, ("B", "C", "F", "H"))
    group = identify_groups(merge_plans([p1, p2]))[0]
    return split_into_parts(group)


class TestScheduleGroup:
    def test_single_agent_single_part_compresses_origin_wait(self):
        part = solo_part(("C", "D", "E", "F"))
        result = schedule_group([part], FAST_DIRECT_TT)
        assert result.feasible
        sched = result.schedule[0]
        assert sched.arrive == 330
        assert sched.depart == 250  # waits 0..250 squeezed out by compression

    def test_meeting_waits_for_slowest_companion(self):
        parts = two_agent_parts()
        tt = TransitNetwork(
            {},
            connections=(
                conn("SA", "RA", 1, "A", "C", 0, 30),    # agent 1 reaches C at 30
                conn("SB", "RB", 1, "B", "C", 0, 90),    # agent 2 reaches C at 90
                conn("SC", "RC1", 1, "C", "F", 60, 40),  # departs before agent 2 arrives
                conn("SC", "RC2", 1, "C", "F", 120, 40),
                conn("SG", "RG", 1, "F", "G", 200, 10),
                conn("SH", "RH", 1, "F", "H", 200, 10),
            ),
        )
        result = schedule_group(parts, tt)
        assert result.feasible
        shared = next(
            s for s in result.schedule.values() if s.legs[0].from_stop == "C"
        )
        assert shared.legs[0].run_id == "RC2"
        assert shared.legs[0].board == 120

    def test_missing_service_on_shared_part_infeasible(self):
        parts = two_agent_parts()
        tt = TransitNetwork(
            {},
            connections=(
                conn("SA", "RA", 1, "A", "C", 0, 30),
                conn("SB", "RB", 1, "B", "C", 0, 90),
                conn("SG", "RG", 1, "F", "G", 200, 10),
                conn("SH", "RH", 1, "F", "H", 200, 10),
            ),
        )
        result = schedule_group(parts, tt)
        assert not result.feasible and not result.timed_out

    def test_part_solver_built_only_when_the_forward_pass_reaches_it(self, monkeypatch):
        from journeyshare import scheduling

        built = []

        class CountingSolver(scheduling._PartSolver):
            def __init__(self, part, tt):
                built.append(part.id)
                super().__init__(part, tt)

        monkeypatch.setattr(scheduling, "_PartSolver", CountingSolver)
        # 1 and 2 share A-B, then 1 rides on to C alone; nothing serves A-B
        group = identify_groups(merge_plans([path_plan(1, ("A", "B", "C")), path_plan(2, ("A", "B"))]))[0]
        parts = split_into_parts(group)
        assert len(parts) == 2
        tt = TransitNetwork({}, connections=(conn("SC", "RC", 1, "B", "C", 100, 10),))
        result = schedule_group(parts, tt)
        assert not result.feasible and not result.timed_out
        assert len(built) == 1
        assert next(p for p in parts if p.id == built[0]).stops == ("A", "B")

    def test_one_search_each_way_per_part(self, monkeypatch):
        from journeyshare import scheduling

        calls = []

        class CountingSolver(scheduling._PartSolver):
            def earliest_arrival(self, ready_time):
                calls.append(("earliest", self.part.id))
                return super().earliest_arrival(ready_time)

            def latest_departure(self, arrive_by):
                calls.append(("latest", self.part.id))
                return super().latest_departure(arrive_by)

        monkeypatch.setattr(scheduling, "_PartSolver", CountingSolver)
        parts = two_agent_parts()
        served = (
            conn("SA", "RA", 1, "A", "C", 0, 30),
            conn("SB", "RB", 1, "B", "C", 0, 90),
            conn("SG", "RG", 1, "F", "G", 200, 10),
            conn("SH", "RH", 1, "F", "H", 200, 10),
        )
        result = schedule_group(parts, TransitNetwork({}, served + (conn("SC", "RC", 1, "C", "F", 120, 40),)))
        assert result.feasible
        ids = sorted(part.id for part in parts)
        assert sorted(pid for kind, pid in calls if kind == "earliest") == ids
        assert sorted(pid for kind, pid in calls if kind == "latest") == ids
        # nothing serves the shared C-F part: the forward pass fails, no legs are searched
        calls.clear()
        assert not schedule_group(parts, TransitNetwork({}, served)).feasible
        assert calls and all(kind == "earliest" for kind, _ in calls)

    def test_backward_search_finding_nothing_is_a_consistency_error(self, monkeypatch):
        from journeyshare import scheduling

        class NoLegs(scheduling._PartSolver):
            def latest_departure(self, arrive_by):
                return None

        monkeypatch.setattr(scheduling, "_PartSolver", NoLegs)
        with pytest.raises(ConsistencyError, match="^part 0 arrives at 330, yet no departure arrives by 330$"):
            schedule_group([solo_part(("C", "D", "E", "F"))], FAST_DIRECT_TT)

    def test_timeout_reported_distinctly(self):
        parts = two_agent_parts()
        result = schedule_group(parts, TransitNetwork({}, ()), time_limit_s=0.0)
        assert not result.feasible
        assert result.timed_out

    def test_budget_checked_before_each_part_search(self, monkeypatch):
        from journeyshare import scheduling

        calls = []

        class CountingSolver(scheduling._PartSolver):
            def earliest_arrival(self, ready_time):
                calls.append("earliest")
                return super().earliest_arrival(ready_time)

            def latest_departure(self, arrive_by):
                calls.append("latest")
                return super().latest_departure(arrive_by)

        # the clock stands still through the forward pass, then jumps past the limit
        parts = two_agent_parts()
        now = [0.0]

        def clock():
            if len(calls) == len(parts):
                now[0] = 10.0
            return now[0]

        monkeypatch.setattr(scheduling, "_PartSolver", CountingSolver)
        monkeypatch.setattr(scheduling.time, "perf_counter", clock)
        tt = TransitNetwork(
            {},
            (
                conn("SA", "RA", 1, "A", "C", 0, 30),
                conn("SB", "RB", 1, "B", "C", 0, 90),
                conn("SC", "RC", 1, "C", "F", 120, 40),
                conn("SG", "RG", 1, "F", "G", 200, 10),
                conn("SH", "RH", 1, "F", "H", 200, 10),
            ),
        )
        result = schedule_group(parts, tt, time_limit_s=5.0)
        assert not result.feasible and result.timed_out
        assert calls == ["earliest"] * len(parts)
        # with no limit the same clock never stops the group
        calls.clear()
        now[0] = 0.0
        assert schedule_group(parts, tt).feasible
        assert calls.count("latest") == len(parts)

    def test_compression_never_changes_agent_arrivals_or_raises_durations(self):
        parts = two_agent_parts()
        tt = TransitNetwork(
            {},
            connections=(
                conn("SA", "RA1", 1, "A", "C", 0, 30),
                conn("SA", "RA2", 1, "A", "C", 80, 30),
                conn("SB", "RB", 1, "B", "C", 0, 90),
                conn("SC", "RC", 1, "C", "F", 120, 40),
                conn("SG", "RG", 1, "F", "G", 200, 10),
                conn("SH", "RH", 1, "F", "H", 210, 10),
            ),
        )
        result = schedule_group(parts, tt)
        assert result.feasible
        itins = result.itineraries
        # agent 1 rides the later A->C run instead of waiting from minute 0
        assert itins[1].depart == 80
        assert itins[1].arrive == 210
        assert itins[2].depart == 0
        assert itins[2].arrive == 220

    def test_group_exceeding_day_horizon_infeasible(self):
        parts = two_agent_parts()
        tt = TransitNetwork(
            {},
            connections=(
                conn("SA", "RA", 1, "A", "C", 0, 30),
                conn("SB", "RB", 1, "B", "C", 0, 90),
                conn("SC", "RC", 1, "C", "F", 1430, 40),
                conn("SG", "RG", 1, "F", "G", 200, 10),
                conn("SH", "RH", 1, "F", "H", 200, 10),
            ),
        )
        result = schedule_group(parts, tt)
        assert not result.feasible


class TestFeasibilityInvariants:
    def assert_schedule_invariants(self, parts, result):
        schedule = result.schedule
        for part in parts:
            sched = schedule[part.id]
            for leg in sched.legs:
                assert leg.alight > leg.board
            for a, b in zip(sched.legs, sched.legs[1:]):
                assert b.board >= a.alight
                assert b.from_stop == a.to_stop
        itins = result.itineraries
        by_id = {p.id: p for p in parts}
        assert sorted(itins) == sorted({a for p in parts for a in p.agents})
        for agent, itin in itins.items():
            # the itinerary is the agent's chain of part schedules, concatenated
            chain_legs = []
            pid = next(p.id for p in parts if agent in p.agents and p.prev[agent] is None)
            while pid is not None:
                chain_legs.extend(schedule[pid].legs)
                pid = by_id[pid].next[agent]
            assert itin.legs == tuple(chain_legs)
            assert (itin.depart, itin.arrive) == (chain_legs[0].board, chain_legs[-1].alight)
        for itin in itins.values():
            assert itin.duration <= DAY_MINUTES
            assert itin.duration >= sum(l.alight - l.board for l in itin.legs) - sum(
                max(0, b.board - a.alight) for a, b in zip(itin.legs, itin.legs[1:])
            )
            for a, b in zip(itin.legs, itin.legs[1:]):
                assert b.board >= a.alight

    def test_matches_exhaustive_chain_oracle(self):
        from oracle_utils import random_scheduling_instance

        rng = random.Random(67)
        feasible_seen = 0
        for trial in range(150):
            parts, tt = random_scheduling_instance(rng)
            result = schedule_group(parts, tt)
            oracle = oracle_agent_durations(parts, tt)
            if oracle is None:
                assert not result.feasible, f"trial {trial}: oracle infeasible but scheduler succeeded"
                continue
            assert result.feasible, f"trial {trial}: oracle feasible but scheduler failed"
            feasible_seen += 1
            itins = result.itineraries
            durations = {a: itin.duration for a, itin in itins.items()}
            assert durations == oracle, f"trial {trial}"
            depart, arrive = oracle_schedule(parts, tt)
            self.assert_schedule_invariants(parts, result)
        assert feasible_seen >= 30

    def test_group_duration_never_beats_optimal_solo(self):
        # prolongation is nonnegative against duration-optimal solo schedules
        from oracle_utils import oracle_min_solo_duration, random_scheduling_instance

        rng = random.Random(83)
        agents_checked = 0
        for _ in range(150):
            parts, tt = random_scheduling_instance(rng)
            result = schedule_group(parts, tt)
            if not result.feasible:
                continue
            itins = result.itineraries
            by_id = {p.id: p for p in parts}
            for agent, itin in itins.items():
                head = next(p for p in parts if agent in p.agents and p.prev[agent] is None)
                stops = list(head.stops)
                pid = head.next[agent]
                while pid is not None:
                    stops.extend(by_id[pid].stops[1:])
                    pid = by_id[pid].next[agent]
                route = solo_part(tuple(stops), agent)
                solo_best = oracle_min_solo_duration(route, tt)
                assert solo_best is not None
                assert itin.duration >= solo_best
                agents_checked += 1
        assert agents_checked >= 50


class TestScheduleSingleAgent:
    def test_walking_only_route(self):
        stops = [
            "stop_id,name,lat,lon,mode",
            "P,Pier,55.0,-3.0,rail",
            "Q,Quay,55.003,-3.0,coach",
            "R,Road,55.006,-3.0,rail",
        ]
        timetable = write_csv(["service_id,run_id,seq,from_stop,to_stop,departure_min,duration_min"])
        net = load_network(write_csv(stops), timetable)
        from journeyshare.transit import add_walking_links

        net = add_walking_links(net, max_distance_km=0.5, walk_speed_kmh=5.0)
        plan = path_plan(1, ("P", "Q", "R"))
        result = schedule_single_agent(plan, net)
        assert result.feasible
        assert all(l.mode == MODE_WALK for l in result.itineraries[plan.agent].legs)
        walk_minutes = {
            (l.from_stop, l.to_stop): l.duration for l in net.walking_links
        }
        assert result.itineraries[plan.agent].duration == walk_minutes[("P", "Q")] + walk_minutes[("Q", "R")]

    def test_stopping_plan_boards_direct_train(self):
        stops = [
            "stop_id,name,lat,lon,mode",
            "C,Carl,55.2,-3.0,rail",
            "D,Dott,55.3,-3.0,rail",
            "E,Elm,55.4,-3.0,rail",
            "F,Firth,55.5,-3.0,rail",
        ]
        rows = [
            "service_id,run_id,seq,from_stop,to_stop,departure_min,duration_min",
            "T1,T1a,1,C,F,250,80",
            "T2,T2a,1,C,D,240,30",
            "T2,T2a,2,D,E,280,30",
            "T2,T2a,3,E,F,320,30",
        ]
        net = load_network(write_csv(stops), write_csv(rows))
        plan = path_plan(7, ("C", "D", "E", "F"))
        result = schedule_single_agent(plan, net)
        assert result.feasible
        assert [l.run_id for l in result.itineraries[plan.agent].legs] == ["T1a"]
        assert result.itineraries[plan.agent].duration == 80

    def test_dense_fixture_matches_oracle(self):
        rng = random.Random(71)
        stops_header = ["stop_id,name,lat,lon,mode"]
        names = ["C", "D", "E", "F"]
        stops = stops_header + [f"{n},Stop {n},{55 + i * 0.1!r},-3.0,rail" for i, n in enumerate(names)]
        for trial in range(40):
            rows = ["service_id,run_id,seq,from_stop,to_stop,departure_min,duration_min"]
            for idx in range(rng.randint(3, 15)):
                i = rng.randrange(len(names) - 1)
                j = rng.randint(i + 1, len(names) - 1)
                rows.append(
                    f"S{idx},R{idx},1,{names[i]},{names[j]},{rng.randint(0, 1200)},{rng.randint(5, 90)}"
                )
            net = load_network(write_csv(stops), write_csv(rows))
            plan = path_plan(1, tuple(names))
            result = schedule_single_agent(plan, net)
            part = plan_as_single_part(plan)
            tt = relevant_timetable([part], net)
            oracle = oracle_agent_durations([part], tt)
            if oracle is None:
                assert not result.feasible
            else:
                assert result.feasible
                assert result.itineraries[plan.agent].duration == oracle[1]


# a corridor C..G and one more stop X; runs may skip stops, run backwards or
# leave the corridor, so a part stop often has departures to several later
# part stops as well as to stops behind or off the part
CORRIDOR_NAMES = ("C", "D", "E", "F", "G", "X")


@st.composite
def corridor_networks(draw):
    """A network over CORRIDOR_NAMES with one to twelve runs of one to three
    legs and up to four walking links, departures packed into a narrow
    window so that same-minute ties are common."""
    stops = {name: Stop(name, f"Stop {name}", 55 + 0.1 * i, -3.0, "rail") for i, name in enumerate(CORRIDOR_NAMES)}
    connections = []
    for r in range(draw(st.integers(1, 12))):
        visits = draw(st.lists(st.sampled_from(CORRIDOR_NAMES), min_size=2, max_size=4, unique=True))
        t = draw(st.integers(0, 30))
        for seq, (a, b) in enumerate(zip(visits, visits[1:]), start=1):
            duration = draw(st.integers(1, 20))
            connections.append(TimetabledConnection(f"S{r % 3}", f"R{r}", seq, a, b, t, duration))
            t += duration + draw(st.integers(0, 3))
    pairs = st.lists(st.sampled_from(CORRIDOR_NAMES), min_size=2, max_size=2, unique=True)
    walks = frozenset(WalkingLink(a, b, draw(st.integers(1, 30))) for a, b in draw(st.lists(pairs, max_size=4)))
    return TransitNetwork(stops, make_network(stops, connections).connections, walks)


def scanned_moves(part, network):
    """Each part stop's moves by a scan of the whole network: walks to the
    next part stop shortest first, then every departure to a later part stop
    by (departure, duration, run_id, seq), ties in network order."""
    position = {stop: i for i, stop in enumerate(part.stops)}
    by_time = attrgetter("departure", "duration", "run_id", "seq")
    moves = []
    for i, stop in enumerate(part.stops[:-1]):
        pair = (stop, part.stops[i + 1])
        walks = sorted(link.duration for link in network.walking_links if (link.from_stop, link.to_stop) == pair)
        ahead = [c for c in network.connections if c.from_stop == stop and position.get(c.to_stop, -1) > i]
        moves.append(
            [(i + 1, None, duration, None) for duration in walks]
            + [(position[c.to_stop], c.departure, c.duration, c.run_id) for c in sorted(ahead, key=by_time)]
        )
    return moves


class TestPartSolverMoves:
    """The part search reads each stop's departures per next stop; merged,
    they must be the moves a scan of every departure of the stop gives, and a
    solo baseline on the whole network must be the one on its slice."""

    @staticmethod
    def check(stops, network):
        plan = path_plan(1, stops)
        part = plan_as_single_part(plan)
        assert _PartSolver(part, network).moves == scanned_moves(part, network)
        sliced = schedule_group([part], relevant_timetable([part], network))
        assert schedule_single_agent(plan, network) == sliced

    @settings(max_examples=200, deadline=None)
    @given(
        network=corridor_networks(),
        stops=st.lists(st.sampled_from(CORRIDOR_NAMES), min_size=2, max_size=len(CORRIDOR_NAMES), unique=True),
    )
    def test_corridors_with_express_legs(self, network, stops):
        self.check(tuple(stops), network)

    @settings(max_examples=100, deadline=None)
    @given(parts=grid_walk_parts())
    def test_walking_grid(self, parts):
        for part in parts:
            self.check(part.stops, WALK_NETWORK)


@st.composite
def corridor_parts(draw):
    """One to three lone parts over CORRIDOR_NAMES, each its own agent's journey."""
    parts = []
    for pid in range(draw(st.integers(1, 3))):
        stops = draw(st.lists(st.sampled_from(CORRIDOR_NAMES), min_size=2, max_size=len(CORRIDOR_NAMES), unique=True))
        parts.append(Part(id=pid, agents=frozenset({pid}), stops=tuple(stops), prev={pid: None}, next={pid: None}))
    return parts


class TestRelevantTimetableView:
    """A group's relevant timetable holds the network's own departure and
    walk tuples, keeps the legs a scan of every connection keeps, and
    schedules the group as that copied slice and the whole network do."""

    @staticmethod
    def check(parts, network):
        tt = relevant_timetable(parts, network)
        for stop, to_stops in tt.departures.items():
            for succ, conns in to_stops.items():
                assert conns is network.departures[stop][succ]
        for pair, links in tt.walks.items():
            assert links is network.walks[pair]
        sliced = brute_force_relevant_timetable(parts, network)
        assert tt.connections == sliced.connections
        assert tt.walking_links == sliced.walking_links
        result = schedule_group(parts, tt)
        assert result == schedule_group(parts, sliced)
        assert result == schedule_group(parts, network)

    @settings(max_examples=200, deadline=None)
    @given(network=corridor_networks(), parts=corridor_parts())
    def test_corridors_with_express_legs(self, network, parts):
        self.check(parts, network)

    @settings(max_examples=100, deadline=None)
    @given(parts=grid_walk_parts())
    def test_walking_grid(self, parts):
        self.check(parts, WALK_NETWORK)


class TestTimeLimits:
    def test_default_size_stepped_limits(self):
        assert time_limit_for(3) == 300.0
        assert time_limit_for(5) == 300.0
        assert time_limit_for(6) == 600.0
        assert time_limit_for(10) == 600.0
        assert time_limit_for(11) == 900.0

    def test_configurable(self):
        config = EngineConfig(sched_limit_small_s=1.0, sched_limit_medium_s=2.0, sched_limit_large_s=3.0)
        assert time_limit_for(1, config) == 1.0
        assert time_limit_for(7, config) == 2.0
        assert time_limit_for(30, config) == 3.0

    def test_invalid_size(self):
        with pytest.raises(InputError):
            time_limit_for(0)
