import csv

import pytest

from journeyshare.errors import ConsistencyError, InputError, ParseError, ScenarioError, ValidationError
from journeyshare.experiments import (
    DEFAULT_SYNTH_SPEC,
    admissible_pairs,
    default_matrix,
    quadrant_axes,
    quadrant_of,
    run_batch,
    run_pipeline,
    sample_requests,
    validate_results_file,
)
from journeyshare.metrics import RESULTS_COLUMNS
from journeyshare.planning import AgentRequest
from journeyshare.synth import (
    SyntheticNetworkSpec,
    build_synthetic_network,
    expected_run_count,
    generate_synthetic_network,
)
from journeyshare.transit import haversine_km, load_network

GRID = SyntheticNetworkSpec(width=6, height=8, spacing_km=8.0, headway_min=60, leg_min=10)


@pytest.fixture(scope="module")
def grid_network():
    return build_synthetic_network(GRID)


class TestSyntheticNetwork:
    def test_ten_by_ten_run_count_formula(self):
        spec = SyntheticNetworkSpec(width=10, height=10, headway_min=30, leg_min=10)
        net = build_synthetic_network(spec)
        assert len(net.stops) == 100
        runs = net.runs()
        # formula: directions x orientations x lines x departures
        departures = (1440 - 90) // 30 + 1
        assert expected_run_count(spec) == 2 * 2 * 10 * departures
        assert len(runs) == expected_run_count(spec)

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

    def test_all_stops_in_one_quadrant_is_an_error(self):
        rows = ["stop_id,name,lat,lon,mode"] + [
            f"S{i},Stop,{55.0 + i * 0.001!r},{-3.0 + i * 0.001!r},rail" for i in range(6)
        ]
        net = load_network(rows, ["service_id,run_id,seq,from_stop,to_stop,departure_min,duration_min"])
        with pytest.raises(ScenarioError):
            sample_requests(admissible_pairs(net, "NS", 0.0001, 160), 2, seed=1)


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
        net = load_network(rows, tt)
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
        net = load_network(stops, tt)
        requests = [AgentRequest(agent=1, origin="A", destination="F")]
        artifacts = run_pipeline(net, requests)
        result = artifacts.result
        assert not result.unreachable_agents
        assert result.groups[0].matched
        itin = artifacts.group_schedules[0].itineraries[1]
        modes = [leg.mode for leg in itin.legs]
        assert modes == ["service", "walk", "service"]
        assert itin.legs[1].from_stop == "C" and itin.legs[1].to_stop == "D"

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
        with pytest.raises(InputError):
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

    @pytest.mark.parametrize(
        "row, message",
        [
            ("s,2,NS,1,high,,,,,,0.1,0.1,0.1,0.3", "non-numeric delta_c 'high'"),
            ("s,2,NS,1,0.5,0,two,1,0,0.1,0.1,0.1,0.1,0.3", "non-numeric group_size 'two'"),
            ("s,2,NS", "expected 14 fields, got 3"),
            ("s,2,NS,1,0.5,0,2,1,0,abc,0.1,0.1,0.1,0.3", "non-numeric delta_t 'abc'"),
            pytest.param("s," + "x" * 200_000, "field larger than field limit", id="oversized-field"),
        ],
    )
    def test_malformed_row_is_parse_error(self, tmp_path, row, message):
        bad = tmp_path / "bad.csv"
        bad.write_text(",".join(RESULTS_COLUMNS) + "\n" + row + "\n")
        with pytest.raises(ParseError, match=r"bad\.csv:2: " + message):
            validate_results_file(bad)
