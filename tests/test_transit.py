import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from journeyshare.errors import ParseError, ReferentialError, ValidationError
from journeyshare.transit import (
    EARTH_RADIUS_KM,
    TimetabledConnection,
    TransitNetwork,
    WalkingLink,
    add_walking_links,
    build_relaxed_graph,
    haversine_km,
    load_network,
    load_stops,
    save_network,
)

from conftest import SIX_STOP_STOPS

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
        net = load_network(STOPS_4, TIMETABLE_4)
        assert len(net.stops) == 4
        assert len(net.connections) == 6
        last = [c for c in net.connections if c.run_id == "RB" and c.seq == 3]
        assert len(last) == 1 and last[0].duration == 9

    def test_empty_timetable(self):
        net = load_network(STOPS_4, ["service_id,run_id,seq,from_stop,to_stop,departure_min,duration_min"])
        assert len(net.connections) == 0
        assert len(net.stops) == 4

    def test_unknown_stop_reference(self):
        rows = TIMETABLE_4[:2] + ["SA,RC,1,W,X999,60,10"]
        with pytest.raises(ReferentialError, match="X999"):
            load_network(STOPS_4, rows)

    def test_malformed_row_names_line(self):
        rows = TIMETABLE_4[:1] + ["SA,RA,not_an_int,W,X,60,10"]
        with pytest.raises(ParseError, match=":2"):
            load_network(STOPS_4, rows)

    def test_bad_header_rejected(self):
        with pytest.raises(ParseError, match=":1"):
            load_network(["id,name"], TIMETABLE_4[:1])

    def test_duplicate_stop_id(self):
        rows = STOPS_4 + ["W,Again,55.4,-3.0,rail"]
        with pytest.raises(ParseError, match="duplicate"):
            load_network(rows, TIMETABLE_4[:1])

    def test_non_consecutive_seq_rejected(self):
        rows = TIMETABLE_4[:1] + ["SA,RA,1,W,X,60,10", "SA,RA,3,X,Y,90,10"]
        with pytest.raises(ValidationError, match="consecutive"):
            load_network(STOPS_4, rows)

    def test_broken_run_chain_rejected(self):
        rows = TIMETABLE_4[:1] + ["SA,RA,1,W,X,60,10", "SA,RA,2,Y,Z,90,10"]
        with pytest.raises(ValidationError, match="previous leg ends"):
            load_network(STOPS_4, rows)

    def test_departure_before_previous_arrival_rejected(self):
        rows = TIMETABLE_4[:1] + ["SA,RA,1,W,X,60,30", "SA,RA,2,X,Y,80,10"]
        with pytest.raises(ValidationError, match="before arrival"):
            load_network(STOPS_4, rows)

    def test_coordinate_out_of_range(self):
        rows = ["stop_id,name,lat,lon,mode", "Q,Quux,95.0,-3.0,rail"]
        with pytest.raises(ParseError, match="latitude"):
            load_network(rows, TIMETABLE_4[:1])

    def test_in_memory_sources_are_named_by_kind(self):
        with pytest.raises(ParseError, match="^<stops>:2: "):
            load_stops(["stop_id,name,lat,lon,mode", "S1,x,95,0,rail"])
        rows = TIMETABLE_4[:1] + ["SA,RA,not_an_int,W,X,60,10"]
        with pytest.raises(ParseError, match="^<timetable>:2: "):
            load_network(STOPS_4, rows)

    def test_roundtrip_through_files(self, tmp_path):
        net = load_network(STOPS_4, TIMETABLE_4)
        save_network(net, tmp_path / "stops.csv", tmp_path / "timetable.csv")
        reloaded = load_network(tmp_path / "stops.csv", tmp_path / "timetable.csv")
        assert reloaded.stops == dict(net.stops)
        assert reloaded.connections == net.connections


class TestStopIndex:
    def test_departures_by_time_and_walks_shortest_first(self):
        # network order is by service; the index orders by (departure, duration, run_id, seq)
        connections = (
            TimetabledConnection("SA", "Z9", 1, "W", "X", 100, 30),
            TimetabledConnection("SB", "A1", 1, "W", "Y", 90, 50),
            TimetabledConnection("SC", "R1", 1, "W", "X", 100, 20),
            TimetabledConnection("SD", "R0", 1, "W", "X", 100, 30),
        )
        walks = frozenset({WalkingLink("W", "X", 9), WalkingLink("W", "X", 4), WalkingLink("X", "W", 4)})
        index = TransitNetwork({}, connections, walks).stop_index
        assert [c.run_id for c in index.departures["W"]] == ["A1", "R1", "R0", "Z9"]
        assert [link.duration for link in index.walks[("W", "X")]] == [4, 9]
        assert "X" not in index.departures


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
    return load_network(rows, ["service_id,run_id,seq,from_stop,to_stop,departure_min,duration_min"])


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
        net = load_network(rows, ["service_id,run_id,seq,from_stop,to_stop,departure_min,duration_min"])
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
            net = load_network(rows, ["service_id,run_id,seq,from_stop,to_stop,departure_min,duration_min"])
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
        graph = build_relaxed_graph(load_network(SIX_STOP_STOPS, rows))
        assert set(graph.edges) == {("C", "D"), ("D", "E"), ("E", "F")}

    def test_singleton_timetable(self):
        rows = [
            "service_id,run_id,seq,from_stop,to_stop,departure_min,duration_min",
            "SV1,only,1,A,B,60,25",
        ]
        graph = build_relaxed_graph(load_network(SIX_STOP_STOPS, rows))
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
        graph = build_relaxed_graph(load_network(stops, rows))
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
        net = add_walking_links(load_network(stops, rows), max_distance_km=0.5)
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
            net = load_network(stops, rows)
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
