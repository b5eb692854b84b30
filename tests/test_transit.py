import dataclasses
import heapq
import math
import pickle
import random
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from journeyshare import synth
from journeyshare.errors import JourneyShareError, ParseError, ReferentialError, ValidationError
from journeyshare.experiments import DEFAULT_SYNTH_SPEC
from journeyshare.synth import SyntheticNetworkSpec, build_synthetic_network
from journeyshare.transit import (
    EARTH_RADIUS_KM,
    NETWORK_ORDER,
    Stop,
    TimetabledConnection,
    TransitNetwork,
    WalkingLink,
    _express_excluded,
    add_walking_links,
    build_relaxed_graph,
    haversine_km,
    load_network,
    load_stops,
    make_network,
    save_network,
)

from conftest import SIX_STOP_STOPS, WALK_NETWORK, write_csv
from oracle_utils import express_excluded_per_run, relaxed_edges_full_scan

STOPS_4 = [
    "stop_id,name,lat,lon,mode",
    "W,West,55.0,-3.0,rail",
    "X,Xing,55.1,-3.0,rail",
    "Y,York,55.2,-3.0,coach",
    "Z,Zed,55.3,-3.0,rail",
]

# two runs over four stops; the final row repeats (RB, seq 3) and must win
TIMETABLE_4 = [
    "service_id,run_id,seq,from_stop,to_stop,departure_min,duration_min",
    "SA,RA,1,W,X,60,10",
    "SA,RA,2,X,Y,75,12",
    "SA,RA,3,Y,Z,90,14",
    "SB,RB,1,Z,Y,600,13",
    "SB,RB,2,Y,X,620,11",
    "SB,RB,3,X,W,640,99",
    "SB,RB,3,X,W,640,9",
]


class TestLoadNetwork:
    def test_dedup_by_run_and_seq_keeps_last(self):
        net = load_network(write_csv(STOPS_4), write_csv(TIMETABLE_4))
        assert len(net.stops) == 4
        assert len(net.connections) == 6
        last = [c for c in net.connections if c.run_id == "RB" and c.seq == 3]
        assert len(last) == 1 and last[0].duration == 9

    def test_empty_timetable(self):
        net = load_network(write_csv(STOPS_4), write_csv(TIMETABLE_4[:1]))
        assert len(net.connections) == 0
        assert len(net.stops) == 4

    def test_unknown_stop_reference(self):
        rows = TIMETABLE_4[:2] + ["SA,RC,1,W,X999,60,10"]
        with pytest.raises(ReferentialError, match="X999"):
            load_network(write_csv(STOPS_4), write_csv(rows))

    def test_unknown_stop_named_by_line_when_loaded_and_by_id_when_built(self):
        timetable = write_csv(TIMETABLE_4[:2] + ["SA,RC,1,W,X999,60,10"])
        with pytest.raises(ReferentialError) as loaded:
            load_network(write_csv(STOPS_4), timetable)
        assert str(loaded.value) == f"{timetable}:3: unknown stop 'X999'"
        stops = load_stops(write_csv(STOPS_4))
        for a, b in (("Q", "W"), ("W", "Q")):
            with pytest.raises(ReferentialError, match="^unknown stop 'Q'$"):
                make_network(stops, [TimetabledConnection("SQ", "RQ", 1, a, b, 60, 10)])

    def test_malformed_row_names_line(self):
        rows = TIMETABLE_4[:1] + ["SA,RA,not_an_int,W,X,60,10"]
        with pytest.raises(ParseError, match=":2"):
            load_network(write_csv(STOPS_4), write_csv(rows))

    def test_bad_header_rejected(self):
        stops = write_csv(["id, name"])
        with pytest.raises(ParseError) as loaded:
            load_network(stops, write_csv(TIMETABLE_4[:1]))
        assert str(loaded.value) == f"{stops}:1: expected header 'stop_id,name,lat,lon,mode', got 'id, name'"

    def test_duplicate_stop_id(self):
        rows = STOPS_4 + ["W,Again,55.4,-3.0,rail"]
        with pytest.raises(ParseError, match="duplicate"):
            load_network(write_csv(rows), write_csv(TIMETABLE_4[:1]))

    def test_non_consecutive_seq_rejected(self):
        rows = TIMETABLE_4[:1] + ["SA,RA,1,W,X,60,10", "SA,RA,3,X,Y,90,10"]
        with pytest.raises(ValidationError, match="consecutive"):
            load_network(write_csv(STOPS_4), write_csv(rows))

    def test_broken_run_chain_rejected(self):
        rows = TIMETABLE_4[:1] + ["SA,RA,1,W,X,60,10", "SA,RA,2,Y,Z,90,10"]
        with pytest.raises(ValidationError, match="previous leg ends"):
            load_network(write_csv(STOPS_4), write_csv(rows))

    def test_departure_before_previous_arrival_rejected(self):
        rows = TIMETABLE_4[:1] + ["SA,RA,1,W,X,60,30", "SA,RA,2,X,Y,80,10"]
        with pytest.raises(ValidationError, match="before arrival"):
            load_network(write_csv(STOPS_4), write_csv(rows))

    @pytest.mark.parametrize(
        "legs, line, problem",
        [
            (
                ["S1,R1,1,W,X,60,10", "S2,R1,2,X,Y,75,12", "S3,R3,1,Z,Y,600,13"],
                3,
                "run R1 spans services ['S1', 'S2']",
            ),
            (
                ["SA,RA,1,W,X,60,10", "SA,RA,3,X,Y,90,10", "SB,RB,1,Z,Y,600,13"],
                3,
                "run RA: seq values not consecutive from 1",
            ),
            (["SB,RB,1,Z,Y,600,13", "SA,RA,2,X,Y,90,10"], 3, "run RA: seq values not consecutive from 1"),
            (
                ["SA,RA,1,W,X,60,10", "SA,RA,2,Y,Z,90,10", "SB,RB,1,Z,Y,600,13"],
                3,
                "run RA seq 2: departs Y but previous leg ends at X",
            ),
            (
                ["SA,RA,2,X,Y,80,10", "SA,RA,1,W,X,60,30", "SB,RB,1,Z,Y,600,13"],
                2,
                "run RA seq 2: departs at 80 before arrival of previous leg",
            ),
        ],
    )
    def test_broken_run_names_line_of_offending_leg(self, legs, line, problem):
        timetable = write_csv(TIMETABLE_4[:1] + legs)
        with pytest.raises(ValidationError) as loaded:
            load_network(write_csv(STOPS_4), timetable)
        assert str(loaded.value) == f"{timetable}:{line}: {problem}"
        # networks built from objects keep the bare message
        connections = []
        for leg in legs:
            service, run, seq, a, b, departure, duration = leg.split(",")
            connections.append(TimetabledConnection(service, run, int(seq), a, b, int(departure), int(duration)))
        with pytest.raises(ValidationError) as made:
            make_network(load_stops(write_csv(STOPS_4)), connections)
        assert str(made.value) == problem

    def test_broken_run_names_line_of_the_row_kept(self):
        # a repeated (run_id, seq) row collapses to its last occurrence, which is the one named
        legs = ["SA,RA,1,W,X,60,10", "SA,RA,2,X,Y,75,12", "SB,RB,1,Z,Y,600,13", "SA,RA,2,Y,Z,75,12"]
        timetable = write_csv(TIMETABLE_4[:1] + legs)
        with pytest.raises(ValidationError) as loaded:
            load_network(write_csv(STOPS_4), timetable)
        assert str(loaded.value) == f"{timetable}:5: run RA seq 2: departs Y but previous leg ends at X"

    @pytest.mark.parametrize(
        "leg, problem",
        [
            ("SA,RA,1,W,W,60,10", "run RA seq 1: leg loops at W"),
            ("SA,RA,1,W,X,-1,10", "run RA seq 1: departure -1 outside [0, 1440)"),
            ("SA,RA,1,W,X,1440,10", "run RA seq 1: departure 1440 outside [0, 1440)"),
            ("SA,RA,1,W,X,60,0", "run RA seq 1: duration must be positive"),
        ],
    )
    def test_bad_leg_names_its_line(self, leg, problem):
        timetable = write_csv(TIMETABLE_4[:3] + [leg])
        with pytest.raises(ParseError) as loaded:
            load_network(write_csv(STOPS_4), timetable)
        assert str(loaded.value) == f"{timetable}:4: {problem}"

    def test_coordinate_out_of_range(self):
        rows = ["stop_id,name,lat,lon,mode", "Q,Quux,95.0,-3.0,rail"]
        with pytest.raises(ParseError, match="latitude"):
            load_network(write_csv(rows), write_csv(TIMETABLE_4[:1]))

    def test_row_after_a_multi_line_field_names_its_own_line(self, tmp_path):
        stops = tmp_path / "ml.csv"
        stops.write_text('stop_id,name,lat,lon,mode\nA,"Two\nlines",55.0,-3.0,rail\nB,Bad,95.0,-3.0,rail\n')
        with pytest.raises(ParseError, match=r"ml\.csv:4: .*latitude"):
            load_stops(stops)
        rows = TIMETABLE_4[:1] + ['"S', 'A",RA,1,W,X,60,10', "SA,RB,not_an_int,W,X,60,10"]
        timetable = write_csv(rows)
        with pytest.raises(ParseError) as loaded:
            load_network(write_csv(STOPS_4), timetable)
        assert str(loaded.value).startswith(f"{timetable}:4: non-integer")

    def test_quoted_newline_survives_a_round_trip(self, tmp_path):
        stops = write_csv(["stop_id,name,lat,lon,mode", 'A,"Two', 'lines",55.0,-3.0,rail', "B,Bee,55.1,-3.0,rail"])
        timetable = write_csv(TIMETABLE_4[:1] + ["SA,RA,1,A,B,60,10"])
        net = load_network(stops, timetable)
        assert net.stops["A"].name == "Two\nlines"
        save_network(net, tmp_path / "stops.csv", tmp_path / "timetable.csv")
        reloaded = load_network(tmp_path / "stops.csv", tmp_path / "timetable.csv")
        assert reloaded.stops == net.stops
        assert reloaded.connections == net.connections

    def test_empty_file_lacks_its_header(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ParseError, match=r"empty\.csv:1: expected header"):
            load_stops(empty)
        with pytest.raises(ParseError, match=r"empty\.csv:1: expected header"):
            load_network(write_csv(STOPS_4), empty)
        assert load_stops(write_csv(STOPS_4[:1])) == {}

    def test_roundtrip_through_files(self, tmp_path):
        net = load_network(write_csv(STOPS_4), write_csv(TIMETABLE_4))
        save_network(net, tmp_path / "stops.csv", tmp_path / "timetable.csv")
        reloaded = load_network(tmp_path / "stops.csv", tmp_path / "timetable.csv")
        assert reloaded.stops == dict(net.stops)
        assert reloaded.connections == net.connections


class TestDepartures:
    def test_departures_by_time_and_walks_shortest_first(self):
        # network order is by service; the index groups by next stop and
        # orders each pair's departures by (departure, duration, run_id, seq)
        connections = (
            TimetabledConnection("SA", "Z9", 1, "W", "X", 100, 30),
            TimetabledConnection("SB", "A1", 1, "W", "Y", 90, 50),
            TimetabledConnection("SC", "R1", 1, "W", "X", 100, 20),
            TimetabledConnection("SD", "R0", 1, "W", "X", 100, 30),
            # Y -> X arrives with falling departures, Y -> Z has one departure
            TimetabledConnection("SE", "E1", 1, "Y", "X", 300, 10),
            TimetabledConnection("SF", "F1", 1, "Y", "X", 200, 10),
            TimetabledConnection("SG", "G1", 1, "Y", "X", 100, 10),
            TimetabledConnection("SH", "H1", 1, "Y", "Z", 50, 10),
            # two-leg pairs: Z -> W ties on departure, Z -> X rises, Z -> Y falls
            TimetabledConnection("SI", "I1", 1, "Z", "W", 100, 20),
            TimetabledConnection("SJ", "J1", 1, "Z", "W", 100, 10),
            TimetabledConnection("SK", "K1", 1, "Z", "X", 50, 10),
            TimetabledConnection("SL", "L1", 1, "Z", "X", 60, 10),
            TimetabledConnection("SM", "M1", 1, "Z", "Y", 90, 10),
            TimetabledConnection("SN", "N1", 1, "Z", "Y", 80, 10),
        )
        walks = frozenset({WalkingLink("W", "X", 9), WalkingLink("W", "X", 4), WalkingLink("X", "W", 4)})
        network = TransitNetwork({}, connections, walks)
        by_next = {
            stop: {succ: [c.run_id for c in conns] for succ, conns in to_stops.items()}
            for stop, to_stops in network.departures.items()
        }
        assert by_next == {
            "W": {"X": ["R1", "R0", "Z9"], "Y": ["A1"]},
            "Y": {"X": ["G1", "F1", "E1"], "Z": ["H1"]},
            "Z": {"W": ["J1", "I1"], "X": ["K1", "L1"], "Y": ["N1", "M1"]},
        }
        # merged on the same key, the next stops give the stop's departures in time order
        by_time = attrgetter("departure", "duration", "run_id", "seq")
        merged = heapq.merge(*network.departures["W"].values(), key=by_time)
        assert [c.run_id for c in merged] == ["A1", "R1", "R0", "Z9"]
        assert [link.duration for link in network.walks[("W", "X")]] == [4, 9]
        assert "X" not in network.departures


# a leg's defect in leg_sets; None, listed first, is a valid leg and what Hypothesis shrinks to
LEG_DEFECTS = (None, None, None, None, "gap", "break", "early", "unknown", "service")
STOP_IDS = ("W", "X", "Y", "Z")


@st.composite
def leg_sets(draw):
    """Legs of one to four runs over the stops of STOPS_4, (run_id, seq)
    unique as load_network leaves them.  Each leg is valid or has one defect:
    a seq gap, a chain break, a departure before the previous arrival, an
    unknown stop, or another service, so that its run spans two."""
    legs = []
    for r in range(draw(st.integers(1, 4))):
        service = draw(st.sampled_from(("SA", "SB", "SC")))
        stop = draw(st.integers(0, 3))
        departure = draw(st.integers(0, 600))
        seq = 0
        for _ in range(draw(st.integers(1, 3))):
            seq += 1
            succ = (stop + draw(st.integers(1, 3))) % 4
            leg_service, from_stop, to_stop, leg_departure = service, STOP_IDS[stop], STOP_IDS[succ], departure
            defect = draw(st.sampled_from(LEG_DEFECTS))
            if defect == "gap":
                seq += 1
            elif defect == "break":
                from_stop = next(s for s in STOP_IDS if s not in (from_stop, to_stop))
            elif defect == "early":
                leg_departure = max(0, departure - 1)
            elif defect == "unknown":
                to_stop = "Q"
            elif defect == "service":
                leg_service = next(s for s in ("SA", "SB") if s != service)
            duration = draw(st.integers(1, 30))
            legs.append(
                TimetabledConnection(leg_service, f"R{r}", seq, from_stop, to_stop, leg_departure, duration)
            )
            departure = leg_departure + duration + draw(st.integers(0, 10))
            stop = succ
    return legs


class TestNetworkOrder:
    STOPS = load_stops(write_csv(STOPS_4))

    @settings(max_examples=300, deadline=None)
    @given(legs=leg_sets(), data=st.data())
    def test_any_order_builds_or_fails_as_the_sorted_legs_do(self, legs, data):
        shuffled = data.draw(st.permutations(legs))
        try:
            expected = make_network(self.STOPS, sorted(legs, key=NETWORK_ORDER))
        except (ReferentialError, ValidationError) as exc:
            expected = exc
        if isinstance(expected, TransitNetwork):
            assert make_network(self.STOPS, shuffled) == expected
            assert make_network(self.STOPS, iter(shuffled)) == expected
            return
        with pytest.raises(JourneyShareError) as got:
            make_network(self.STOPS, shuffled)
        assert type(got.value) is type(expected)
        assert str(got.value) == str(expected)
        assert got.value.leg == expected.leg
        # no trace of the unsorted pass
        assert got.value.__context__ is None

    @pytest.mark.parametrize(
        "spec",
        [DEFAULT_SYNTH_SPEC, SyntheticNetworkSpec(width=20, height=40, headway_min=60)],
        ids=["grid6x20", "grid20x40"],
    )
    def test_grids_hand_over_legs_in_network_order(self, monkeypatch, spec):
        handed = []

        def spy(stops, connections):
            handed.append(list(connections))
            return make_network(stops, handed[-1])

        monkeypatch.setattr(synth, "make_network", spy)
        network = build_synthetic_network(spec)
        assert handed[0] == sorted(handed[0], key=NETWORK_ORDER)
        assert network.connections == tuple(handed[0])


class TestValueObjects:
    STOP = Stop("W", "West", 55.0, -3.0, "rail")
    CONN = TimetabledConnection("SA", "RA", 1, "W", "X", 60, 10)
    LINK = WalkingLink("W", "X", 4)

    @pytest.mark.parametrize("obj", [STOP, CONN, LINK])
    def test_slotted_frozen_and_hashable(self, obj):
        assert not hasattr(obj, "__dict__")
        copy = type(obj)(*dataclasses.astuple(obj))
        assert copy == obj and hash(copy) == hash(obj) and copy is not obj
        assert len({obj, copy}) == 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, dataclasses.fields(obj)[0].name, "Y")
        restored = pickle.loads(pickle.dumps(obj))
        assert restored == obj and hash(restored) == hash(obj)

    def test_replace_builds_a_checked_copy(self):
        moved = dataclasses.replace(self.CONN, seq=2, departure=70)
        assert moved == TimetabledConnection("SA", "RA", 2, "W", "X", 70, 10)
        assert self.CONN.seq == 1
        with pytest.raises(ValidationError, match="loops"):
            dataclasses.replace(self.CONN, to_stop="W")
        assert dataclasses.replace(self.LINK, duration=9) == WalkingLink("W", "X", 9)

    def test_walking_link_set_collapses_equal_links(self):
        links = frozenset({WalkingLink("W", "X", 4), WalkingLink("W", "X", 4), WalkingLink("X", "W", 4)})
        assert links == frozenset({self.LINK, WalkingLink("X", "W", 4)})
        assert WalkingLink("W", "X", 9) not in links

    def test_network_pickle_round_trip(self):
        net = add_walking_links(load_network(write_csv(STOPS_4), write_csv(TIMETABLE_4)), max_distance_km=20.0)
        restored = pickle.loads(pickle.dumps(net))
        assert restored.stops == net.stops
        assert restored.connections == net.connections
        assert restored.walking_links == net.walking_links
        assert restored.departures == net.departures


class TestLegChecks:
    """TimetabledConnection's own __init__, called directly and through
    dataclasses.replace, makes every check with its message."""

    LEG = TimetabledConnection("SA", "RA", 3, "W", "X", 60, 10)
    REJECTED = [
        ({"departure": -1}, "run RA seq 3: departure -1 outside [0, 1440)"),
        ({"departure": 1440}, "run RA seq 3: departure 1440 outside [0, 1440)"),
        ({"duration": 0}, "run RA seq 3: duration must be positive"),
        ({"to_stop": "W"}, "run RA seq 3: leg loops at W"),
    ]

    @pytest.mark.parametrize("changes", [{"departure": 0}, {"departure": 1439}, {"duration": 1}])
    def test_bounds_accepted(self, changes):
        fields = {**dataclasses.asdict(self.LEG), **changes}
        leg = TimetabledConnection(*fields.values())
        assert dataclasses.astuple(leg) == tuple(fields.values())
        assert dataclasses.replace(self.LEG, **changes) == leg

    @pytest.mark.parametrize("changes, message", REJECTED)
    def test_rejected_with_its_message(self, changes, message):
        fields = {**dataclasses.asdict(self.LEG), **changes}
        with pytest.raises(ValidationError) as built:
            TimetabledConnection(*fields.values())
        assert str(built.value) == message
        with pytest.raises(ValidationError) as keyword:
            TimetabledConnection(**fields)
        assert str(keyword.value) == message

    @pytest.mark.parametrize("changes, message", REJECTED)
    def test_replace_checks_again(self, changes, message):
        with pytest.raises(ValidationError) as replaced:
            dataclasses.replace(self.LEG, **changes)
        assert str(replaced.value) == message


class TestHaversine:
    def test_identity(self):
        assert haversine_km((55.95, -3.19), (55.95, -3.19)) == 0.0

    def test_symmetry_random_pairs(self):
        rng = random.Random(20)
        for _ in range(50):
            a = (rng.uniform(-89, 89), rng.uniform(-179, 179))
            b = (rng.uniform(-89, 89), rng.uniform(-179, 179))
            assert haversine_km(a, b) == pytest.approx(haversine_km(b, a), abs=1e-9)

    def test_against_law_of_cosines_oracle(self):
        # independent spherical-law-of-cosines formula
        a = (55.9533, -3.1883)  # Edinburgh
        b = (57.1497, -2.0943)  # Aberdeen
        p1, l1, p2, l2 = map(math.radians, (*a, *b))
        oracle = EARTH_RADIUS_KM * math.acos(
            math.sin(p1) * math.sin(p2) + math.cos(p1) * math.cos(p2) * math.cos(l2 - l1)
        )
        assert haversine_km(a, b) == pytest.approx(oracle, abs=0.1)

    @settings(max_examples=60, deadline=None)
    @given(
        lat1=st.floats(-89, 89), lon1=st.floats(-179, 179),
        lat2=st.floats(-89, 89), lon2=st.floats(-179, 179),
    )
    def test_triangle_bounds(self, lat1, lon1, lat2, lon2):
        d = haversine_km((lat1, lon1), (lat2, lon2))
        assert 0.0 <= d <= math.pi * EARTH_RADIUS_KM + 1e-6


def _two_stop_network(km_apart: float):
    # ~0.008993 degrees latitude per km
    dlat = km_apart / 111.1949
    rows = [
        "stop_id,name,lat,lon,mode",
        "P,Pier,55.0,-3.0,rail",
        f"Q,Quay,{55.0 + dlat!r},-3.0,coach",
    ]
    return load_network(write_csv(rows), write_csv(TIMETABLE_4[:1]))


class TestWalkingLinks:
    def test_links_within_range(self):
        net = add_walking_links(_two_stop_network(0.4), max_distance_km=0.5, walk_speed_kmh=5.0)
        links = {(l.from_stop, l.to_stop): l.duration for l in net.walking_links}
        assert links == {("P", "Q"): 5, ("Q", "P"): 5}

    def test_no_link_beyond_range(self):
        net = add_walking_links(_two_stop_network(2.0), max_distance_km=0.5, walk_speed_kmh=5.0)
        assert not net.walking_links

    def test_idempotent(self):
        once = add_walking_links(_two_stop_network(0.4))
        twice = add_walking_links(once)
        assert once.walking_links == twice.walking_links

    def test_symmetric_parity(self):
        rng = random.Random(4)
        rows = ["stop_id,name,lat,lon,mode"]
        for i in range(30):
            rows.append(f"S{i:02d},Stop {i},{55 + rng.uniform(0, 0.02)!r},{-3 + rng.uniform(0, 0.02)!r},rail")
        net = load_network(write_csv(rows), write_csv(TIMETABLE_4[:1]))
        net = add_walking_links(net, max_distance_km=0.8, walk_speed_kmh=5.0)
        assert net.walking_links
        durations = {(l.from_stop, l.to_stop): l.duration for l in net.walking_links}
        for (a, b), duration in durations.items():
            assert durations[(b, a)] == duration

    def test_link_set_matches_all_pairs_oracle(self):
        # the latitude-window scan must find exactly the in-range pairs
        rng = random.Random(8)
        for trial in range(10):
            rows = ["stop_id,name,lat,lon,mode"]
            coords = {}
            for i in range(25):
                lat = 55 + rng.uniform(0, 0.03)
                lon = -3 + rng.uniform(0, 0.03)
                coords[f"S{i:02d}"] = (lat, lon)
                rows.append(f"S{i:02d},Stop {i},{lat!r},{lon!r},rail")
            net = load_network(write_csv(rows), write_csv(TIMETABLE_4[:1]))
            net = add_walking_links(net, max_distance_km=0.6, walk_speed_kmh=5.0)
            got = {(l.from_stop, l.to_stop) for l in net.walking_links}
            expected = {
                (a, b)
                for a in coords
                for b in coords
                if a != b and haversine_km(coords[a], coords[b]) <= 0.6
            }
            assert got == expected, f"trial {trial}"


class TestRelaxedGraph:
    def test_six_stop_min_cost_edge(self, six_stop_graph):
        assert six_stop_graph.edges[("A", "B")] == 50

    def test_six_stop_stopping_run_edges(self, six_stop_graph):
        assert six_stop_graph.edges[("C", "D")] == 45
        assert six_stop_graph.edges[("D", "E")] == 70
        assert six_stop_graph.edges[("E", "F")] == 30

    def test_express_leg_filtered_out(self):
        rows = [
            "service_id,run_id,seq,from_stop,to_stop,departure_min,duration_min",
            "SV2,stopper,1,C,D,100,45",
            "SV2,stopper,2,D,E,150,70",
            "SV2,stopper,3,E,F,225,30",
            "SV3,nonstop,1,C,F,110,100",
        ]
        graph = build_relaxed_graph(load_network(write_csv(SIX_STOP_STOPS), write_csv(rows)))
        assert set(graph.edges) == {("C", "D"), ("D", "E"), ("E", "F")}

    def test_singleton_timetable(self):
        rows = [
            "service_id,run_id,seq,from_stop,to_stop,departure_min,duration_min",
            "SV1,only,1,A,B,60,25",
        ]
        graph = build_relaxed_graph(load_network(write_csv(SIX_STOP_STOPS), write_csv(rows)))
        assert dict(graph.edges) == {("A", "B"): 25}

    def test_walking_link_becomes_edge(self):
        net = add_walking_links(_two_stop_network(0.4))
        graph = build_relaxed_graph(net)
        assert graph.edges[("P", "Q")] == 5

    def test_edge_cost_is_min_over_backing(self):
        rng = random.Random(99)
        stops = ["stop_id,name,lat,lon,mode"] + [
            f"N{i},Node {i},{55 + i * 0.01!r},-3.0,rail" for i in range(5)
        ]
        rows = ["service_id,run_id,seq,from_stop,to_stop,departure_min,duration_min"]
        expected: dict[tuple[str, str], int] = {}
        run = 0
        for _ in range(40):
            i, j = rng.sample(range(5), 2)
            a, b = f"N{i}", f"N{j}"
            dur = rng.randint(5, 90)
            rows.append(f"S{run},R{run},1,{a},{b},{rng.randint(0, 1300)},{dur}")
            run += 1
            expected[(a, b)] = min(expected.get((a, b), dur), dur)
        graph = build_relaxed_graph(load_network(write_csv(stops), write_csv(rows)))
        # single-leg runs cannot trigger the express filter
        assert dict(graph.edges) == expected

    def test_express_exclusion_also_drops_walking_backing(self):
        # the dropped pair disappears entirely, walking link included
        stops = [
            "stop_id,name,lat,lon,mode",
            "C,Carl,55.200,-3.0,rail",
            "D,Dott,55.201,-3.0,rail",
            "F,Firth,55.202,-3.0,rail",
        ]
        rows = [
            "service_id,run_id,seq,from_stop,to_stop,departure_min,duration_min",
            "SV2,stopper,1,C,D,100,45",
            "SV2,stopper,2,D,F,150,70",
            "SV3,nonstop,1,C,F,110,100",
        ]
        net = add_walking_links(load_network(write_csv(stops), write_csv(rows)), max_distance_km=0.5)
        graph = build_relaxed_graph(net)
        assert ("C", "F") not in graph.edges
        assert ("F", "C") in graph.edges  # reverse walking link is unaffected

    def test_express_filter_soundness_on_random_runs(self):
        # every dropped pair must keep a same-run stopping route in the graph
        rng = random.Random(31)
        for trial in range(40):
            n = rng.randint(4, 7)
            names = [f"N{i}" for i in range(n)]
            stops = ["stop_id,name,lat,lon,mode"] + [
                f"{x},Node,{55 + i * 0.01!r},-3.0,rail" for i, x in enumerate(names)
            ]
            rows = ["service_id,run_id,seq,from_stop,to_stop,departure_min,duration_min"]
            visits_by_run = {}
            for r in range(rng.randint(1, 5)):
                length = rng.randint(2, min(5, n))
                visits = rng.sample(names, length)
                visits_by_run[f"R{r}"] = visits
                t = rng.randint(0, 300)
                for k in range(length - 1):
                    dur = rng.randint(5, 30)
                    rows.append(f"S{r},R{r},{k + 1},{visits[k]},{visits[k + 1]},{t},{dur}")
                    t += dur + rng.randint(0, 10)
            net = load_network(write_csv(stops), write_csv(rows))
            graph = build_relaxed_graph(net)
            direct = {(c.from_stop, c.to_stop) for c in net.connections}
            for pair, cost in graph.edges.items():
                backing = [c.duration for c in net.connections if (c.from_stop, c.to_stop) == pair]
                assert cost == min(backing), f"trial {trial}: {pair} cost is not the backing minimum"
            for pair in direct - set(graph.edges):
                witnesses = []
                for visits in visits_by_run.values():
                    for i, a in enumerate(visits):
                        for j in range(i + 2, len(visits)):
                            if (a, visits[j]) == pair:
                                witnesses.append(visits[i:j + 1])
                assert witnesses, f"trial {trial}: {pair} dropped without a covering run"
                assert any(
                    all(seg in graph.edges for seg in zip(w, w[1:])) for w in witnesses
                ), f"trial {trial}: {pair} dropped but no stopping route fully present"

    @pytest.mark.parametrize("leg_min, walk_min, expected", [(3, 7, 3), (9, 4, 4)])
    def test_pair_with_leg_and_walk_takes_the_shorter(self, leg_min, walk_min, expected):
        stops = load_stops(write_csv(STOPS_4))
        # two legs and two walks back W->X; the first departure is not the shortest
        legs = (
            TimetabledConnection("SA", "RA", 1, "W", "X", 60, leg_min + 5),
            TimetabledConnection("SB", "RB", 1, "W", "X", 90, leg_min),
        )
        walks = frozenset({WalkingLink("W", "X", walk_min + 2), WalkingLink("W", "X", walk_min)})
        graph = build_relaxed_graph(TransitNetwork(stops, legs, walks))
        assert dict(graph.edges) == {("W", "X"): expected}

    def test_edges_match_a_full_scan_on_walking_networks(self):
        rng = random.Random(26)
        networks = [WALK_NETWORK]
        for _ in range(12):
            spec = SyntheticNetworkSpec(
                width=rng.randint(2, 5),
                height=rng.randint(2, 5),
                spacing_km=rng.choice((0.2, 0.3, 0.45)),
                headway_min=rng.choice((60, 120, 240)),
                leg_min=rng.randint(1, 12),
                line_offset_min=rng.randint(0, 20),
            )
            grid = build_synthetic_network(spec)
            # an express run over three stops of the first column, a second
            # duration between its first two stops, and spare walks between
            # random stop pairs, some of them already linked
            names = sorted(grid.stops)
            extra = (
                TimetabledConnection("X", "XR1", 1, names[0], names[2], 480, rng.randint(1, 20)),
                TimetabledConnection("Y", "YR1", 1, names[0], names[1], rng.randint(0, 1400), rng.randint(1, 20)),
            )
            net = add_walking_links(make_network(grid.stops, (*grid.connections, *extra)), max_distance_km=0.5)
            spare = {WalkingLink(*rng.sample(names, 2), rng.randint(1, 15)) for _ in range(10)}
            networks.append(TransitNetwork(net.stops, net.connections, net.walking_links | spare))
        for net in networks:
            assert list(build_relaxed_graph(net).edges.items()) == relaxed_edges_full_scan(net)


def _no_loops(stops: list[str]) -> list[str]:
    """The visit sequence with immediate repeats merged, so no leg loops."""
    out = stops[:1]
    for stop in stops[1:]:
        if stop != out[-1]:
            out.append(stop)
    return out


def _shared_pattern_timetable(rng: random.Random, names: list[str]) -> list[str]:
    """Timetable rows whose runs share stop patterns: stopping patterns that
    may revisit stops, express patterns skipping some of their stops, and
    sometimes a mutually overtaking pair, each pattern run 1-4 times."""
    patterns = []
    for _ in range(rng.randint(1, 3)):
        visits = [rng.choice(names)]
        for _ in range(rng.randint(2, 6)):
            visits.append(rng.choice([x for x in names if x != visits[-1]]))
        patterns.append(visits)
        express = _no_loops([visits[0], *[x for x in visits[1:-1] if rng.random() < 0.4], visits[-1]])
        if len(express) >= 2 and rng.random() < 0.8:
            patterns.append(express)
    if rng.random() < 0.5:
        a, b, c = rng.sample(names, 3)
        patterns += [[a, b, c], [a, c, b]]
    if rng.random() < 0.5:
        a, b, c = rng.sample(names, 3)
        patterns.append([a, b, c, a, b])
    run_ids = [f"R{k:02d}" for k in rng.sample(range(100), 4 * len(patterns))]
    rows = ["service_id,run_id,seq,from_stop,to_stop,departure_min,duration_min"]
    for visits in patterns:
        for _ in range(rng.randint(1, 4)):
            run = run_ids.pop()
            service = f"S{rng.randint(0, 2)}"
            t = rng.randint(0, 600)
            for k in range(len(visits) - 1):
                duration = rng.randint(5, 30)
                rows.append(f"{service},{run},{k + 1},{visits[k]},{visits[k + 1]},{t},{duration}")
                t += duration + rng.randint(0, 10)
    return rows


class TestExpressFilterPerPattern:
    def test_matches_per_run_oracle_on_shared_patterns(self):
        rng = random.Random(12)
        dropped = 0
        for trial in range(150):
            n = rng.randint(4, 7)
            names = [f"N{i}" for i in range(n)]
            stops = ["stop_id,name,lat,lon,mode"] + [
                f"{x},Node,{55 + i * 0.01!r},-3.0,rail" for i, x in enumerate(names)
            ]
            net = load_network(write_csv(stops), write_csv(_shared_pattern_timetable(rng, names)))
            expected = express_excluded_per_run(net)
            assert _express_excluded(net) == expected, f"trial {trial}"
            dropped += bool(expected)
        assert dropped >= 50

    def test_mutual_overtaking_and_circular_patterns(self):
        stops = ["stop_id,name,lat,lon,mode"] + [f"{x},Node,{55 + i * 0.01!r},-3.0,rail" for i, x in enumerate("ABCD")]
        rows = [
            "service_id,run_id,seq,from_stop,to_stop,departure_min,duration_min",
            # B then C, and C then B: each run overtakes the other
            "S1,R2,1,A,B,100,10", "S1,R2,2,B,C,110,10",
            "S1,R1,1,A,C,200,10", "S1,R1,2,C,B,210,10",
            "S1,R3,1,A,C,300,10", "S1,R3,2,C,B,310,10",
            # a circular pattern run twice, and a nonstop leg it covers
            "S2,R5,1,A,D,400,10", "S2,R5,2,D,C,410,10", "S2,R5,3,C,A,420,10", "S2,R5,4,A,D,430,10",
            "S2,R4,1,A,D,500,10", "S2,R4,2,D,C,510,10", "S2,R4,3,C,A,520,10", "S2,R4,4,A,D,530,10",
            "S3,R6,1,D,A,600,10",
        ]
        net = load_network(write_csv(stops), write_csv(rows))
        expected = express_excluded_per_run(net)
        assert _express_excluded(net) == expected
        assert ("A", "B") in expected and ("A", "C") not in expected
        assert ("D", "A") in expected

    def test_dense_grid_with_express_run_matches_oracle(self):
        grid = build_synthetic_network(SyntheticNetworkSpec(width=20, height=40, headway_min=60))
        express = (
            TimetabledConnection("X", "XR1", 1, "S0000", "S0005", 480, 30),
            TimetabledConnection("X", "XR1", 2, "S0005", "S0010", 515, 30),
        )
        net = make_network(grid.stops, (*grid.connections, *express))
        assert express_excluded_per_run(net) == {("S0000", "S0005"), ("S0005", "S0010")}
        assert list(build_relaxed_graph(net).edges.items()) == relaxed_edges_full_scan(net)
