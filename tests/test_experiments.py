import csv
import dataclasses
import math
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from journeyshare.config import EngineConfig
from journeyshare.errors import ConsistencyError, InputError, ParseError, ScenarioError, ValidationError
from journeyshare.experiments import (
    DEFAULT_SYNTH_SPEC,
    DIRECTIONS,
    admissible_pairs,
    default_matrix,
    prepare_network,
    quadrant_axes,
    quadrant_of,
    reversed_pairs,
    run_batch,
    run_pipeline,
    sample_requests,
    validate_results_file,
)
from journeyshare.metrics import RESULTS_COLUMNS, TIMING_COLUMNS
from journeyshare.planning import AgentRequest
from journeyshare.synth import (
    SyntheticNetworkSpec,
    build_synthetic_network,
    generate_synthetic_network,
)
from journeyshare.transit import Stop, haversine_km, load_network, make_network

from conftest import write_csv
from oracle_utils import all_pairs_admissible

GRID = SyntheticNetworkSpec(width=6, height=8, spacing_km=8.0, headway_min=60, leg_min=10)


# (matrix, golden results.csv in tests/data) pairs; the dense grid is the
# 20x40 grid at headway 60, where slicing and scheduling dominate, and the
# walking grid spaces stops 0.45 km apart, inside the 0.5 km walk limit, so
# its itineraries mix walk and service legs
GOLDEN_BATCHES = [
    (default_matrix(), "default_batch.csv"),
    (
        {
            "scenario": "grid20x40",
            "network": {"synthetic": {"width": 20, "height": 40, "headway_min": 60}},
            "agents": [14],
            "directions": ["NS", "WE"],
            "seeds_per_direction": 1,
            "base_seed": 7000,
        },
        "dense_batch.csv",
    ),
    (
        {
            "scenario": "grid6x8walk",
            "network": {
                "synthetic": {
                    "width": 6,
                    "height": 8,
                    "spacing_km": 0.45,
                    "headway_min": 30,
                    "leg_min": 1,
                    "line_offset_min": 7,
                }
            },
            "agents": [4, 8],
            "seeds_per_direction": 2,
            "base_seed": 7000,
            "min_km": 0.3,
            "max_km": 5.0,
        },
        "walk_batch.csv",
    ),
]


@pytest.fixture(scope="module")
def grid_network():
    return build_synthetic_network(GRID)


class TestSyntheticNetwork:
    def test_ten_by_ten_run_count_formula(self):
        spec = SyntheticNetworkSpec(width=10, height=10, headway_min=30, leg_min=10)
        net = build_synthetic_network(spec)
        assert len(net.stops) == 100
        runs = {c.run_id for c in net.connections}
        # formula: directions x orientations x lines x departures
        departures = (1440 - 90) // 30 + 1
        assert len(runs) == 2 * 2 * 10 * departures

    def test_single_corridor(self):
        spec = SyntheticNetworkSpec(width=1, height=2, headway_min=120, leg_min=15)
        net = build_synthetic_network(spec)
        assert len(net.stops) == 2
        assert {(c.from_stop, c.to_stop) for c in net.connections} == {("S0000", "S0001"), ("S0001", "S0000")}

    @pytest.mark.parametrize(
        "spec",
        [
            GRID,
            DEFAULT_SYNTH_SPEC,
            SyntheticNetworkSpec(width=1, height=2, headway_min=120, leg_min=15),
            SyntheticNetworkSpec(width=5, height=3, headway_min=45, leg_min=12),
        ],
        ids=["grid", "default", "corridor", "5x3"],
    )
    def test_round_trip_through_files(self, tmp_path, spec):
        stops_path, timetable_path = generate_synthetic_network(spec, tmp_path)
        reloaded = load_network(stops_path, timetable_path)
        direct = build_synthetic_network(spec)
        assert reloaded.stops == dict(direct.stops)
        assert reloaded.connections == direct.connections

    @pytest.mark.parametrize(
        "width, height, offsets",
        [(3, 2, {"V00": 0, "V01": 7, "V02": 14, "H00": 21, "H01": 28}), (3, 1, {"H00": 0})],
        ids=["3x2", "3x1"],
    )
    def test_line_stagger_numbers_columns_first(self, width, height, offsets):
        # line i's first run leaves at (i * line_offset_min) % headway_min, both ways
        spec = SyntheticNetworkSpec(width=width, height=height, headway_min=60, leg_min=5, line_offset_min=7)
        first = {}
        for leg in build_synthetic_network(spec).connections:
            first.setdefault(leg.service_id, leg.departure)
        assert first == {line + way: offset for line, offset in offsets.items() for way in "AB"}

    def test_repeated_stop_id_rejected(self):
        # S{col:02d}{row:02d} gives S10100 for column 10, row 100 and for column 101, row 0
        spec = SyntheticNetworkSpec(width=102, height=101, headway_min=1440, leg_min=10)
        with pytest.raises(ValidationError, match="'Grid c10 r100' and 'Grid c101 r0' share stop id S10100"):
            build_synthetic_network(spec)

    def test_service_window_respected(self):
        spec = SyntheticNetworkSpec(width=2, height=2, headway_min=60, leg_min=10, first_departure=360, last_arrival=720)
        net = build_synthetic_network(spec)
        assert min(c.departure for c in net.connections) == 360
        assert max(c.departure + c.duration for c in net.connections) <= 720

    def test_invalid_spec_rejected(self):
        with pytest.raises(InputError):
            SyntheticNetworkSpec(width=1, height=1)
        with pytest.raises(InputError):
            SyntheticNetworkSpec(width=2, height=2, headway_min=0)


class TestQuadrants:
    def test_axes_at_medians(self, grid_network):
        alat, alon = quadrant_axes(grid_network)
        lats = sorted({s.lat for s in grid_network.stops.values()})
        assert lats[3] < alat < lats[4]

    def test_quadrant_numbering(self):
        axes = (50.0, 0.0)
        assert quadrant_of(51, 1, axes) == 1  # NE
        assert quadrant_of(51, -1, axes) == 2  # NW
        assert quadrant_of(49, -1, axes) == 3  # SW
        assert quadrant_of(49, 1, axes) == 4  # SE
        assert quadrant_of(50.0, 1, axes) is None

    def test_ns_pairs_go_north_to_south(self, grid_network):
        axes = quadrant_axes(grid_network)
        pairs = admissible_pairs(grid_network, "NS", 20, 160)
        assert pairs
        stops = grid_network.stops
        for origin, dest in pairs:
            assert stops[origin].lat > axes[0]
            assert stops[dest].lat < axes[0]
            # same side of the east-west axis under the published pairing
            assert (stops[origin].lon > axes[1]) == (stops[dest].lon > axes[1])

    def test_we_pairs_go_west_to_east(self, grid_network):
        axes = quadrant_axes(grid_network)
        for origin, dest in admissible_pairs(grid_network, "WE", 20, 160):
            stops = grid_network.stops
            assert stops[origin].lon < axes[1]
            assert stops[dest].lon > axes[1]

    def test_distance_window_enforced(self, grid_network):
        stops = grid_network.stops
        for origin, dest in admissible_pairs(grid_network, "SN", 20, 160):
            d = haversine_km(
                (stops[origin].lat, stops[origin].lon), (stops[dest].lat, stops[dest].lon)
            )
            assert 20 <= d <= 160

    @pytest.mark.parametrize("spec", [GRID, DEFAULT_SYNTH_SPEC, SyntheticNetworkSpec(width=20, height=40)])
    def test_reverse_direction_pairs_are_the_pairs_turned_round(self, spec):
        network = build_synthetic_network(spec)
        for direction, reverse in (("NS", "SN"), ("WE", "EW")):
            pairs = admissible_pairs(network, direction, 20, 160)
            assert pairs
            assert list(reversed_pairs(pairs)) == list(admissible_pairs(network, reverse, 20, 160))

    def test_latitude_prune_matches_all_pairs_oracle_at_the_bounds(self):
        network = build_synthetic_network(SyntheticNetworkSpec(width=12, height=16, headway_min=600))
        stops = network.stops

        def km(pair):
            return haversine_km(*((stops[s].lat, stops[s].lon) for s in pair))

        for direction in DIRECTIONS:
            candidates = all_pairs_admissible(network, direction, 0.0, 1e9)
            distances = sorted({km(pair) for pair in candidates})
            # bounds that are distances on the grid, so pairs sit exactly on them
            bounds = [
                (distances[int(lo * len(distances))], distances[int(hi * len(distances))])
                for lo, hi in ((0.1, 0.5), (0.0, 0.05), (0.3, 0.9), (0.02, 0.2))
            ]
            # pairs on one meridian are as far apart as their latitude gap allows
            meridian = sorted({km(pair) for pair in candidates if stops[pair[0]].lon == stops[pair[1]].lon})
            bounds += [(d, d) for d in meridian]
            for min_km, max_km in bounds:
                pairs = admissible_pairs(network, direction, min_km, max_km)
                assert list(pairs) == all_pairs_admissible(network, direction, min_km, max_km)
                measured = {km(pair) for pair in pairs}
                assert min_km in measured and max_km in measured

    @pytest.mark.parametrize("direction", ["NS", "WE"])
    def test_dense_grid_pairs_match_all_pairs_oracle(self, direction):
        # the dense workload's 20x40 grid; the headway does not move the stops.
        # SN and EW are these pairs turned round
        # (test_reverse_direction_pairs_are_the_pairs_turned_round)
        network = build_synthetic_network(SyntheticNetworkSpec(width=20, height=40, headway_min=600))
        stops = network.stops
        by_km: dict[float, list] = {}
        for pair in all_pairs_admissible(network, direction, 0.0, 1e9):
            by_km.setdefault(haversine_km(*((stops[s].lat, stops[s].lon) for s in pair)), []).append(pair)
        for min_km, max_km in ((20.0, 160.0), (0.0, 40.0), (50.0, 400.0)):
            expected = sorted(pair for km, pairs in by_km.items() if min_km <= km <= max_km for pair in pairs)
            assert expected and list(admissible_pairs(network, direction, min_km, max_km)) == expected
        # a window of one grid distance admits exactly the pairs haversine_km
        # puts on it, so a distance one rounding step off shows
        distances = sorted(by_km)
        for km in distances[:: len(distances) // 8]:
            assert list(admissible_pairs(network, direction, km, km)) == by_km[km]

    def test_all_stops_in_one_quadrant_is_an_error(self):
        rows = ["stop_id,name,lat,lon,mode"] + [
            f"S{i},Stop,{55.0 + i * 0.001!r},{-3.0 + i * 0.001!r},rail" for i in range(6)
        ]
        timetable = write_csv(["service_id,run_id,seq,from_stop,to_stop,departure_min,duration_min"])
        net = load_network(write_csv(rows), timetable)
        with pytest.raises(ScenarioError):
            sample_requests(admissible_pairs(net, "NS", 0.0001, 160), 2, seed=1)


# the dense workload's 20x40 grid at a headway that builds it cheaply; the
# headway does not move the stops
DENSE_STOPS = SyntheticNetworkSpec(width=20, height=40, headway_min=600)
# a grid whose quadrants are wider and taller than the 160 km window
WIDE_STOPS = SyntheticNetworkSpec(width=28, height=56, headway_min=600)
_REVERSE_OF = {"NS": "SN", "SN": "NS", "WE": "EW", "EW": "WE"}
_PAIR_SPECS = {GRID: "grid", DEFAULT_SYNTH_SPEC: "default", DENSE_STOPS: "dense"}
_PAIR_CASES = [(spec, direction) for spec in _PAIR_SPECS for direction in DIRECTIONS]
_PAIR_CASES += [(WIDE_STOPS, "NS"), (WIDE_STOPS, "WE")]


@pytest.fixture(scope="module")
def pair_networks():
    return {spec: build_synthetic_network(spec) for spec in (*_PAIR_SPECS, WIDE_STOPS)}


class TestPairTable:
    @pytest.mark.parametrize(
        "spec, direction",
        _PAIR_CASES,
        ids=[f"{_PAIR_SPECS.get(spec, 'wide')}-{direction}" for spec, direction in _PAIR_CASES],
    )
    def test_table_is_the_sorted_pair_list(self, pair_networks, spec, direction):
        network = pair_networks[spec]
        table = admissible_pairs(network, direction, 20, 160)
        listed = all_pairs_admissible(network, direction, 20, 160)
        assert listed and list(table) == listed
        assert len(table) == len(listed)
        assert [table[k] for k in range(len(listed))] == listed
        assert table[-1] == listed[-1] and table[-len(listed)] == listed[0]
        for k in (len(listed), len(listed) + 7, -len(listed) - 1):
            with pytest.raises(IndexError):
                table[k]
        for seed in range(50):
            for n in (2, 14):
                assert sample_requests(table, n, seed) == sample_requests(listed, n, seed)
        assert list(reversed_pairs(table)) == list(admissible_pairs(network, _REVERSE_OF[direction], 20, 160))

    def test_empty_table(self, pair_networks):
        table = admissible_pairs(pair_networks[GRID], "NS", 1000, 2000)
        assert len(table) == 0 and list(table) == [] and list(reversed_pairs(table)) == []
        with pytest.raises(IndexError):
            table[0]

    def test_pairs_and_their_reverse_hold_no_tuple_per_pair(self, pair_networks):
        # 76,298 pairs each way: as tuples, the two directions trace about 10 MB
        network = pair_networks[DENSE_STOPS]
        tracemalloc.start()
        try:
            pairs = admissible_pairs(network, "WE")
            reverse = reversed_pairs(pairs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(pairs) == len(reverse) == 76_298
        assert peak < 2_000_000


# scattered stops, as offsets in [-1, 1] from a centre, scaled by a spread in degrees
SCATTERED = st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=4, max_size=60)


class TestPairCells:
    @settings(max_examples=150, deadline=None)
    @given(
        centre=st.tuples(st.floats(-60.0, 60.0), st.floats(-170.0, 170.0)),
        spread_deg=st.sampled_from([0.05, 0.4, 1.5, 4.0]),
        offsets=SCATTERED,
        data=st.data(),
    )
    def test_cells_give_the_all_pairs_table(self, centre, spread_deg, offsets, data):
        stops = {
            f"S{i:02d}": Stop(f"S{i:02d}", "Stop", centre[0] + dlat * spread_deg, centre[1] + dlon * spread_deg, "rail")
            for i, (dlat, dlon) in enumerate(offsets)
        }
        network = make_network(stops, [])

        def km(pair):
            return haversine_km(*((stops[s].lat, stops[s].lon) for s in pair))

        distances = sorted({km(pair) for d in DIRECTIONS for pair in all_pairs_admissible(network, d, 0.0, math.inf)})
        assume(distances)
        # window edges on pair distances, so pairs sit exactly on them
        edge = st.sampled_from(distances)
        low, high = sorted((data.draw(edge), data.draw(edge)))
        windows = [(20.0, 160.0), (low, high), (low, low), (0.0, high), (0.0, 0.0), (0.0, math.inf), (low, math.inf)]
        for min_km, max_km in windows:
            for direction in DIRECTIONS:
                table = admissible_pairs(network, direction, min_km, max_km)
                assert list(table) == all_pairs_admissible(network, direction, min_km, max_km)
                reverse = admissible_pairs(network, _REVERSE_OF[direction], min_km, max_km)
                assert list(reversed_pairs(table)) == list(reverse)


class TestGenerateRequests:
    def test_seed_determinism_and_prefix_property(self, grid_network):
        pairs = admissible_pairs(grid_network, "NS")
        r2a = sample_requests(pairs, 2, seed=11)
        r2b = sample_requests(pairs, 2, seed=11)
        r4 = sample_requests(pairs, 4, seed=11)
        assert r2a == r2b
        assert r4[:2] == [AgentRequest(r.agent, r.origin, r.destination) for r in r2a]

    def test_unknown_direction_rejected(self, grid_network):
        with pytest.raises(InputError):
            admissible_pairs(grid_network, "UP")


def count_solo_baselines(monkeypatch) -> list:
    """The arguments of every solo-baseline call run_pipeline makes from now on."""
    from journeyshare import experiments

    calls = []
    original = experiments.schedule_single_agent
    monkeypatch.setattr(experiments, "schedule_single_agent", lambda *args: calls.append(args) or original(*args))
    return calls


class TestRunPipeline:
    def test_single_agent_degenerate_case(self, grid_network):
        requests = [AgentRequest(agent=1, origin="S0000", destination="S0007")]
        artifacts = run_pipeline(grid_network, requests)
        result = artifacts.result
        assert result.delta_c == 0.0
        assert len(result.groups) == 1
        assert result.groups[0].size == 1

    def test_shared_corridor_improves_cost_and_matches(self, grid_network):
        requests = [
            AgentRequest(agent=1, origin="S0207", destination="S0200"),
            AgentRequest(agent=2, origin="S0206", destination="S0201"),
        ]
        artifacts = run_pipeline(grid_network, requests)
        result = artifacts.result
        assert result.delta_c > 0
        assert len(result.groups) == 1
        assert result.groups[0].size == 2
        assert result.groups[0].matched
        assert result.groups[0].delta_t is not None

    def test_unreachable_destination_flagged_and_excluded(self):
        rows = [
            "stop_id,name,lat,lon,mode",
            "A,Alpha,55.0,-3.0,rail",
            "B,Beta,55.5,-3.0,rail",
            "Z,Zed,56.0,-3.0,rail",
        ]
        tt = [
            "service_id,run_id,seq,from_stop,to_stop,departure_min,duration_min",
            "S1,R1,1,A,B,60,30",
        ]
        net = load_network(write_csv(rows), write_csv(tt))
        requests = [
            AgentRequest(agent=1, origin="A", destination="B"),
            AgentRequest(agent=2, origin="A", destination="Z"),
        ]
        artifacts = run_pipeline(net, requests)
        result = artifacts.result
        assert result.unreachable_agents == [2]
        assert set(result.initial_costs) == {1}
        assert result.delta_c == 0.0

    def test_walk_transfer_bridges_modes_end_to_end(self):
        # rail corridor A-B-C, coach corridor D-E-F, C and D ~0.3 km apart
        stops = [
            "stop_id,name,lat,lon,mode",
            "A,Ayr,55.00,-3.0,rail",
            "B,Brig,55.30,-3.0,rail",
            "C,Cross,55.60,-3.0,rail",
            "D,Dale,55.6027,-3.0,coach",
            "E,Esk,55.90,-3.0,coach",
            "F,Ford,56.20,-3.0,coach",
        ]
        tt = [
            "service_id,run_id,seq,from_stop,to_stop,departure_min,duration_min",
            "R1,R1a,1,A,B,480,30",
            "R1,R1a,2,B,C,515,30",
            "C1,C1a,1,D,E,600,40",
            "C1,C1a,2,E,F,645,40",
        ]
        net = load_network(write_csv(stops), write_csv(tt))
        requests = [AgentRequest(agent=1, origin="A", destination="F")]
        artifacts = run_pipeline(net, requests)
        result = artifacts.result
        assert not result.unreachable_agents
        assert result.groups[0].matched
        itin = artifacts.group_schedules[0].itineraries[1]
        modes = [leg.mode for leg in itin.legs]
        assert modes == ["service", "walk", "service"]
        assert itin.legs[1].from_stop == "C" and itin.legs[1].to_stop == "D"

    def test_failed_group_records_its_error_and_schedules_no_solo_baseline(self, monkeypatch):
        # one circular line A-B-C-D-A: 1 rides A-D and 2 rides C-B, so they
        # share A-B and C-D, which 1 rides in that order and 2 the other way round
        stops = [
            "stop_id,name,lat,lon,mode",
            "A,Ash,55.0,-3.0,rail",
            "B,Bay,55.0,-2.5,rail",
            "C,Cove,55.5,-2.5,rail",
            "D,Dun,55.5,-3.0,rail",
        ]
        tt = ["service_id,run_id,seq,from_stop,to_stop,departure_min,duration_min"]
        for run, start in (("L1a", 60), ("L1b", 400)):
            for seq, (a, b) in enumerate(zip("ABCD", "BCDA"), start=1):
                tt.append(f"L1,{run},{seq},{a},{b},{start + 40 * (seq - 1)},30")
        net = load_network(write_csv(stops), write_csv(tt))
        calls = count_solo_baselines(monkeypatch)
        requests = [AgentRequest(1, "A", "D"), AgentRequest(2, "C", "B")]
        result = run_pipeline(net, requests).result
        assert result.errors == ["group 0: part precedence contains a cycle"]
        assert [(g.size, g.matched) for g in result.groups] == [(2, False)]
        assert calls == []

    def test_solo_baselines_only_for_members_of_matched_groups(self, monkeypatch):
        calls = count_solo_baselines(monkeypatch)
        results = run_batch(default_matrix(agents=(6, 14), seeds_per_direction=1))
        groups = [group for result in results for group in result.groups]
        matched = sum(group.size for group in groups if group.matched)
        assert len(calls) == matched
        # some travellers are in unmatched groups, so this is not everyone
        assert matched < sum(group.size for group in groups)

    def test_slices_once_per_group_not_per_traveller(self, monkeypatch, grid_network):
        from journeyshare import experiments, scheduling

        calls = []
        for module in (experiments, scheduling):
            original = module.relevant_timetable
            monkeypatch.setattr(
                module,
                "relevant_timetable",
                lambda parts, network, original=original: calls.append(parts) or original(parts, network),
            )
        # two travellers share line 2 and a third rides line 5 alone
        requests = [AgentRequest(1, "S0207", "S0200"), AgentRequest(2, "S0206", "S0201"), AgentRequest(3, "S0500", "S0507")]
        artifacts = run_pipeline(grid_network, requests)
        assert [(g.size, g.matched) for g in artifacts.result.groups] == [(2, True), (1, True)]
        # the three solo baselines are timetabled on the network itself
        assert calls == [artifacts.parts[g.id] for g in artifacts.groups]

    def test_duplicate_agent_ids_rejected(self, grid_network):
        requests = [AgentRequest(1, "S0105", "S0100"), AgentRequest(1, "S0104", "S0101")]
        with pytest.raises(InputError, match="duplicate agent id 1"):
            run_pipeline(grid_network, requests)


def tiny_matrix(tmp_path=None):
    return {
        "scenario": "t",
        "network": {
            "synthetic": {
                "width": 4,
                "height": 6,
                "spacing_km": 10.0,
                "headway_min": 120,
                "leg_min": 15,
            }
        },
        "agents": [2, 4],
        "directions": ["NS", "SN"],
        "seeds_per_direction": 2,
        "base_seed": 5,
        "min_km": 15.0,
        "max_km": 160.0,
    }


class TestRunBatch:
    def test_row_counts_and_schema(self, tmp_path):
        out = tmp_path / "results.csv"
        results = run_batch(tiny_matrix(), out)
        assert len(results) == 2 * 2 * 2  # agents x directions x seeds
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == RESULTS_COLUMNS
        # one summary row per experiment plus one row per group
        expected = len(results) + sum(len(r.groups) for r in results)
        assert len(rows) - 1 == expected
        assert validate_results_file(out) == expected

    def test_empty_matrix_writes_header_only(self, tmp_path):
        out = tmp_path / "results.csv"
        run_batch([], out)
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows == [RESULTS_COLUMNS]

    def test_determinism_across_runs_and_parallelism(self, tmp_path):
        def strip_timings(path):
            with open(path) as fh:
                rows = list(csv.reader(fh))
            drop = [rows[0].index(c) for c in ("t_initial_s", "t_br_s", "t_schedule_s", "t_total_s")]
            return [[c for i, c in enumerate(row) if i not in drop] for row in rows]

        a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
        run_batch(tiny_matrix(), a)
        run_batch(tiny_matrix(), b)
        run_batch(tiny_matrix(), c, parallel=4)
        assert strip_timings(a) == strip_timings(b) == strip_timings(c)

    def test_timings_present_and_nonnegative(self, tmp_path):
        out = tmp_path / "results.csv"
        run_batch(tiny_matrix(), out)
        with open(out) as fh:
            for record in csv.DictReader(fh):
                for col in ("t_initial_s", "t_br_s", "t_schedule_s", "t_total_s"):
                    assert float(record[col]) >= 0.0

    def test_individual_rationality_across_batch(self, tmp_path):
        results = run_batch(tiny_matrix())
        for result in results:
            assert not result.errors
            for agent, shared in result.shared_costs.items():
                assert shared <= result.initial_costs[agent]
            if result.delta_c is not None:
                assert result.delta_c >= 0

    def test_default_matrix_shape(self):
        matrix = default_matrix()
        assert matrix["agents"] == [2, 4, 6, 8, 10, 12, 14]
        assert matrix["seeds_per_direction"] == 10
        assert len(matrix["directions"]) == 4

    def test_pairs_computed_once_per_axis(self, monkeypatch):
        from journeyshare import experiments

        computed = []
        original = experiments.admissible_pairs

        def counting(network, direction, *args):
            computed.append(direction)
            return original(network, direction, *args)

        def without_timings(results):
            return [dataclasses.replace(result, timings={}) for result in results]

        monkeypatch.setattr(experiments, "admissible_pairs", counting)
        matrix = {**tiny_matrix(), "directions": ["NS", "SN", "WE", "EW", "NS"], "seeds_per_direction": 1}
        reused = without_timings(run_batch(matrix))
        assert computed == ["NS", "WE", "NS"]
        computed.clear()
        monkeypatch.setattr(experiments, "_REVERSE", dict.fromkeys(experiments.DIRECTIONS, "none"))
        assert without_timings(run_batch(matrix)) == reused
        assert computed == ["NS", "SN", "WE", "EW", "NS"]

    def test_prepare_network_leaves_the_distance_cache_cold(self, grid_network):
        _, graph = prepare_network(grid_network)
        assert set(vars(graph)) == {"nodes", "edges"}

    def test_prepare_network_builds_the_departure_maps(self, grid_network):
        # built in set-up, so the build counts there and not in the first pipeline call
        prepared, _ = prepare_network(grid_network)
        assert {"departures", "walks"} <= set(vars(prepared))

    @pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(EngineConfig)])
    @pytest.mark.parametrize("value", [0, -5, float("nan"), float("inf")])
    def test_engine_config_rejects_a_non_positive_or_non_finite_value(self, grid_network, key, value):
        with pytest.raises(InputError, match=rf"^{key} must be a positive finite number"):
            run_pipeline(grid_network, [AgentRequest(1, "S0000", "S0005")], config=EngineConfig(**{key: value}))

    @pytest.mark.parametrize("key", ["walk_max_km", "walk_speed_kmh", "sched_limit_small_s", "sched_limit_large_s"])
    @pytest.mark.parametrize("value", [0, -5, 0.0])
    def test_non_positive_engine_setting_names_cell_scenario_and_key(self, key, value):
        runs_nothing = {**tiny_matrix(), "seeds_per_direction": 0}
        bad = {**tiny_matrix(), "engine": {key: value}}
        with pytest.raises(InputError, match=rf"matrix cell 1 \(scenario 't'\): engine\.{key} must be positive"):
            run_batch([runs_nothing, bad])

    @pytest.mark.parametrize("matrix, golden", GOLDEN_BATCHES, ids=["default", "dense", "walk"])
    def test_default_batch_matches_golden_output(self, tmp_path, matrix, golden):
        """A batch's results.csv, timing columns aside, equals its golden
        copy in tests/data: the default matrix's default_batch.csv,
        dense_batch.csv for two experiments on a 60,000-connection grid, and
        walk_batch.csv for 16 experiments on a grid with walking links.  A
        change that alters plans on purpose rewrites these files from
        run_batch and says so."""
        golden_path = Path(__file__).parent / "data" / golden
        out = tmp_path / "results.csv"
        run_batch(matrix, out)
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        keep = [i for i, column in enumerate(rows[0]) if column not in TIMING_COLUMNS]
        with open(golden_path, newline="") as fh:
            golden = list(csv.reader(fh))
        for lineno, (row, expected) in enumerate(zip(rows, golden), start=1):
            assert [row[i] for i in keep] == expected, f"{golden_path.name}:{lineno} differs"
        assert len(rows) == len(golden)
        assert validate_results_file(out) == len(golden) - 1

    def test_engine_overrides_in_matrix_cell(self, tmp_path):
        matrix = tiny_matrix()
        matrix["engine"] = {"walk_max_km": 0.9, "walk_speed_kmh": 4.0, "sched_limit_small_s": 60.0}
        results = run_batch(matrix)
        assert results and all(not r.errors for r in results)
        bad = tiny_matrix()
        bad["engine"] = {"walk_pace": 1.0}
        with pytest.raises(InputError, match="engine"):
            run_batch(bad)

    @pytest.mark.parametrize(
        "key, value, named",
        [
            ("agents", [0], "agents"),
            ("agents", [-2], "agents"),
            ("agents", 2, "agents"),
            ("agents", ["x"], "agents"),
            ("agents", [2.5], "agents"),
            ("agents", [True], "agents"),
            ("seeds_per_direction", "a", "seeds_per_direction"),
            ("seeds_per_direction", -1, "seeds_per_direction"),
            ("directions", "NS", "directions"),
            ("directions", ["UP"], "directions"),
            ("engine", {"walk_max_km": "x"}, "engine"),
            ("min_km", -1.0, "min_km"),
            ("min_km", 160.0, "max_km"),
            ("max_km", "far", "max_km"),
            ("network", {"synthetic": {"width": 4.5, "height": 6}}, "network.synthetic.width"),
            ("network", {"stops": 5, "timetable": 6}, "network.stops"),
        ],
    )
    def test_bad_cell_setting_names_cell_scenario_and_key(self, key, value, named):
        runs_nothing = {**tiny_matrix(), "seeds_per_direction": 0}
        bad = {**tiny_matrix(), key: value}
        with pytest.raises(InputError, match=rf"matrix cell 1 \(scenario 't'\): {named} must be"):
            run_batch([runs_nothing, bad])

    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"mode": "bus"}, "stop S0000: unknown mode 'bus'"),
            ({"spacing_km": 6000.0}, "stop S0001: latitude .* out of range"),
        ],
        ids=["mode", "spacing"],
    )
    def test_grid_the_stop_checks_reject_names_the_cell(self, setting, message):
        runs_nothing = {**tiny_matrix(), "seeds_per_direction": 0}
        bad = tiny_matrix()
        bad["network"]["synthetic"].update(setting)
        with pytest.raises(InputError, match=rf"matrix cell 1 \(scenario 't'\): network\.synthetic .*: {message}"):
            run_batch([runs_nothing, bad])

    def test_non_object_cell_rejected(self):
        with pytest.raises(InputError, match="matrix cell 0: expected a JSON object"):
            run_batch([1])

    def test_failed_experiments_write_rows_that_validate(self, tmp_path):
        out = tmp_path / "results.csv"
        # no stop pair of the 4x6 grid lies 200-300 km apart, so every experiment fails
        results = run_batch({**tiny_matrix(), "min_km": 200.0, "max_km": 300.0}, out)
        assert results and all(r.errors for r in results)
        assert validate_results_file(out) == len(results)
        with open(out) as fh:
            for record in csv.DictReader(fh):
                assert record["t_initial_s"] == record["t_br_s"] == record["t_schedule_s"] == "0.000000000"
                assert float(record["t_total_s"]) >= 0.0

    def test_end_to_end_revalidation_of_matched_groups(self, grid_network):
        # every matched group's itineraries satisfy the scheduler invariants
        from journeyshare.experiments import sample_requests, admissible_pairs
        from journeyshare.transit import DAY_MINUTES

        pairs = admissible_pairs(grid_network, "NS", 20, 160)
        validated = 0
        for seed in range(6):
            requests = sample_requests(pairs, 8, seed)
            artifacts = run_pipeline(grid_network, requests, scenario="reval", seed=seed)
            for record in artifacts.result.groups:
                if not record.matched:
                    continue
                itins = artifacts.group_schedules[record.group_id].itineraries
                parts = artifacts.parts[record.group_id]
                schedule = artifacts.group_schedules[record.group_id].schedule
                for part in parts:
                    legs = schedule[part.id].legs
                    assert legs[0].from_stop == part.stops[0]
                    assert legs[-1].to_stop == part.stops[-1]
                for itin in itins.values():
                    assert itin.duration <= DAY_MINUTES
                    for a, b in zip(itin.legs, itin.legs[1:]):
                        assert b.board >= a.alight
                        assert b.from_stop == a.to_stop
                    validated += 1
            if artifacts.result.delta_c is not None:
                assert artifacts.result.delta_c >= 0
        assert validated >= 8


class TestValidateResults:
    def test_rejects_bad_header(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("nope,header\n1,2\n")
        with pytest.raises(ParseError, match=r"bad\.csv:1: expected header 'scenario,.*', got 'nope,header'$"):
            validate_results_file(bad)

    def test_rejects_negative_delta_c(self, tmp_path):
        bad = tmp_path / "bad.csv"
        rows = [",".join(RESULTS_COLUMNS), "s,2,NS,1,-0.5,,,,,,0.1,0.1,0.1,0.3"]
        bad.write_text("\n".join(rows) + "\n")
        with pytest.raises(ConsistencyError, match="delta_c"):
            validate_results_file(bad)

    def test_rejects_missing_timing(self, tmp_path):
        bad = tmp_path / "bad.csv"
        rows = [",".join(RESULTS_COLUMNS), "s,2,NS,1,0.5,,,,,,,0.1,0.1,0.3"]
        bad.write_text("\n".join(rows) + "\n")
        with pytest.raises(ConsistencyError, match="timing"):
            validate_results_file(bad)

    def test_rejects_timed_out_group_marked_matched(self, tmp_path):
        bad = tmp_path / "bad.csv"
        rows = [",".join(RESULTS_COLUMNS), "s,2,NS,1,0.5,0,2,1,1,,0.1,0.1,0.1,0.3"]
        bad.write_text("\n".join(rows) + "\n")
        with pytest.raises(ConsistencyError, match=r"bad\.csv:2: timed-out group marked matched"):
            validate_results_file(bad)

    def test_row_after_a_multi_line_field_names_its_own_line(self, tmp_path):
        bad = tmp_path / "bad.csv"
        rows = [
            ",".join(RESULTS_COLUMNS),
            '"s\nx",2,NS,1,0.5,,,,,,0.1,0.1,0.1,0.3',
            "s,2,NS,1,high,,,,,,0.1,0.1,0.1,0.3",
        ]
        bad.write_text("\n".join(rows) + "\n")
        with pytest.raises(ParseError, match=r"bad\.csv:4: non-numeric delta_c 'high'"):
            validate_results_file(bad)

    def test_blank_rows_are_skipped_and_not_counted(self, tmp_path):
        good = tmp_path / "good.csv"
        rows = [",".join(RESULTS_COLUMNS), "s,2,NS,1,0.5,,,,,,0.1,0.1,0.1,0.3", "", "s,2,NS,2,0.5,,,,,,0.1,0.1,0.1,0.3", ""]
        good.write_text("\n".join(rows) + "\n")
        assert validate_results_file(good) == 2

    @pytest.mark.parametrize(
        "row, message",
        [
            ("s,0,NS,1,0.5,,,,,,0.1,0.1,0.1,0.3", "n_agents must be >= 1"),
            ("s,-1,,0,,,,,,,0.1,0.1,0.1,0.3", "n_agents must be >= 0"),
            ("s,2,XX,1,0.5,,,,,,0.1,0.1,0.1,0.3", "unknown direction 'XX'"),
            ("s,2,ns,1,0.5,,,,,,0.1,0.1,0.1,0.3", "unknown direction 'ns'"),
            ("s,2,NS,1,0.5,-7,2,1,0,,0.1,0.1,0.1,0.3", "negative group_id -7"),
            ("s,2,NS,1,0.5,0,3,1,0,,0.1,0.1,0.1,0.3", "group_size must be from 1 to n_agents 2, got 3"),
            ("adhoc,3,,0,0.5,0,4,0,0,,0.1,0.1,0.1,0.3", "group_size must be from 1 to n_agents 3, got 4"),
            ("s,2,NS,1,0.5,0,0,0,0,,0.1,0.1,0.1,0.3", "group_size must be from 1 to n_agents 2, got 0"),
        ],
    )
    def test_rejects_agent_count_and_direction_run_batch_never_writes(self, tmp_path, row, message):
        bad = tmp_path / "bad.csv"
        bad.write_text(",".join(RESULTS_COLUMNS) + "\n" + row + "\n")
        with pytest.raises(ConsistencyError, match=r"bad\.csv:2: " + message + "$"):
            validate_results_file(bad)

    def test_plan_row_without_direction_or_agents_validates(self, tmp_path):
        good = tmp_path / "good.csv"
        rows = [",".join(RESULTS_COLUMNS), "adhoc,0,,0,,,,,,,0.0,0.0,0.0,0.1", "adhoc,3,,0,0.5,,,,,,0.1,0.1,0.1,0.3"]
        good.write_text("\n".join(rows) + "\n")
        assert validate_results_file(good) == 2

    @pytest.mark.parametrize(
        "row, message",
        [
            # every one of n_agents, direction and seed is bad; the first column is named
            ("s,two,XX,seven,0.5,,,,,,0.1,0.1,0.1,0.3", "non-numeric n_agents 'two'"),
            ("s,2.0,NS,1,0.5,,,,,,0.1,0.1,0.1,0.3", "non-numeric n_agents '2.0'"),
            ("s,2,NS,seven,0.5,,,,,,0.1,0.1,0.1,0.3", "non-numeric seed 'seven'"),
            ("s,2,,1.5,0.5,,,,,,0.1,0.1,0.1,0.3", "non-numeric seed '1.5'"),
            ("s,2,NS,1,high,,,,,,0.1,0.1,0.1,0.3", "non-numeric delta_c 'high'"),
            ("s,2,NS,1,0.5,0,two,1,0,0.1,0.1,0.1,0.1,0.3", "non-numeric group_size 'two'"),
            ("s,2,NS,1,0.5,abc,2,1,0,,0.1,0.1,0.1,0.3", "non-numeric group_id 'abc'"),
            ("s,2,NS,1,0.5,1.5,2,1,0,,0.1,0.1,0.1,0.3", "non-numeric group_id '1.5'"),
            ("s,2,NS", "expected 14 fields, got 3"),
            ("s,2,NS,1,0.5,0,2,1,0,abc,0.1,0.1,0.1,0.3", "non-numeric delta_t 'abc'"),
            ("s,2,NS,1,nan,,,,,,0.1,0.1,0.1,0.3", "non-finite delta_c 'nan'"),
            ("s,2,NS,1,0.5,0,2,1,0,inf,0.1,0.1,0.1,0.3", "non-finite delta_t 'inf'"),
            ("s,2,NS,1,0.5,,,,,,0.1,0.1,0.1,nan", "non-finite t_total_s 'nan'"),
            pytest.param("s," + "x" * 200_000, "field larger than field limit", id="oversized-field"),
        ],
    )
    def test_malformed_row_is_parse_error(self, tmp_path, row, message):
        bad = tmp_path / "bad.csv"
        bad.write_text(",".join(RESULTS_COLUMNS) + "\n" + row + "\n")
        with pytest.raises(ParseError, match=r"bad\.csv:2: " + message):
            validate_results_file(bad)

    @pytest.mark.parametrize(
        "rows, message",
        [
            # two groups with group_id 0, and three groups of size 2 among 2 agents
            (
                ["s,2,NS,1,0.5,,,,,,0.1,0.1,0.1,0.3", "s,2,NS,1,0.5,0,2,1,0,,0.1,0.1,0.1,0.3"]
                + ["s,2,NS,1,0.5,0,2,1,0,,0.1,0.1,0.1,0.3", "s,2,NS,1,0.5,1,2,1,0,,0.1,0.1,0.1,0.3"],
                "4: duplicate group_id 0 in its experiment",
            ),
            (
                ["s,3,NS,1,0.5,,,,,,0.1,0.1,0.1,0.3", "s,3,NS,1,0.5,0,2,1,0,,0.1,0.1,0.1,0.3"]
                + ["s,3,NS,1,0.5,1,2,0,0,,0.1,0.1,0.1,0.3"],
                "4: group sizes add up to 4, more than n_agents 3",
            ),
            # a group row with no summary row, after another experiment's rows
            (
                ["s,2,NS,1,0.5,,,,,,0.1,0.1,0.1,0.3", "s,2,NS,1,0.5,0,2,1,0,,0.1,0.1,0.1,0.3"]
                + ["t,2,NS,9,0.5,0,2,1,0,,0.1,0.1,0.1,0.3"],
                "4: group row does not follow its experiment's summary row",
            ),
            (["s,2,NS,1,0.5,0,2,1,0,,0.1,0.1,0.1,0.3"], "2: group row does not follow its experiment's summary row"),
            # the experiment's summary row comes after its group row
            (
                ["s,2,NS,1,0.5,0,2,1,0,,0.1,0.1,0.1,0.3", "s,2,NS,1,0.5,,,,,,0.1,0.1,0.1,0.3"],
                "2: group row does not follow its experiment's summary row",
            ),
        ],
    )
    def test_rejects_groups_their_experiment_cannot_hold(self, tmp_path, rows, message):
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join([",".join(RESULTS_COLUMNS), *rows]) + "\n")
        with pytest.raises(ConsistencyError, match=r"bad\.csv:" + message + "$"):
            validate_results_file(bad)

    def test_two_cells_may_write_the_same_experiment_fields(self, tmp_path):
        # each summary row starts a new experiment, so group ids and sizes count afresh
        good = tmp_path / "good.csv"
        experiment = ["s,2,NS,1,0.5,,,,,,0.1,0.1,0.1,0.3", "s,2,NS,1,0.5,0,2,1,0,,0.1,0.1,0.1,0.3"]
        good.write_text("\n".join([",".join(RESULTS_COLUMNS), *experiment, *experiment]) + "\n")
        assert validate_results_file(good) == 4
