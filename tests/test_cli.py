import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from journeyshare.cli import main
from journeyshare.synth import SyntheticNetworkSpec, generate_synthetic_network


@pytest.fixture
def grid_dir(tmp_path):
    spec = SyntheticNetworkSpec(width=4, height=6, spacing_km=10.0, headway_min=60, leg_min=15)
    generate_synthetic_network(spec, tmp_path / "net")
    return tmp_path / "net"


def write_requests(path, rows):
    path.write_text("agent,origin,destination\n" + "\n".join(rows) + "\n")


class TestSynthCommand:
    def test_generates_loadable_files(self, tmp_path, capsys):
        code = main(["synth", "--grid", "5x5", "--headway", "30", "--leg", "10", "--out", str(tmp_path / "g")])
        assert code == 0
        assert (tmp_path / "g" / "stops.csv").exists()
        assert (tmp_path / "g" / "timetable.csv").exists()

    def test_grid_the_stop_checks_reject_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "g"
        args = ["--grid", "3x3", "--headway", "30", "--leg", "10", "--spacing-km", "6000", "--out", str(out)]
        code = main(["synth", *args])
        assert code == 1
        assert "latitude" in capsys.readouterr().err
        assert not (out / "stops.csv").exists()

    def test_bad_grid_argument(self, tmp_path, capsys):
        code = main(["synth", "--grid", "5by5", "--headway", "30", "--leg", "10", "--out", str(tmp_path)])
        assert code == 1
        assert "WxH" in capsys.readouterr().err


class TestPlanCommand:
    def test_end_to_end_with_outputs(self, grid_dir, tmp_path, capsys):
        requests = tmp_path / "requests.csv"
        write_requests(requests, ["a1,S0105,S0100", "a2,S0104,S0101"])
        out = tmp_path / "out"
        code = main(
            [
                "plan",
                "--stops", str(grid_dir / "stops.csv"),
                "--timetable", str(grid_dir / "timetable.csv"),
                "--requests", str(requests),
                "--out", str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "cost improvement" in captured
        joint = json.loads((out / "joint_plan.json").read_text())
        assert any(sorted(e["agents"]) == ["a1", "a2"] for e in joint["edges"])
        groups = json.loads((out / "groups.json").read_text())
        assert groups and groups[0]["agents"] == ["a1", "a2"]
        itins = json.loads((out / "itineraries.json").read_text())
        assert set(itins) == {"a1", "a2"}
        plans = (out / "plans.jsonl").read_text().strip().splitlines()
        assert len(plans) == 2
        assert (out / "results.csv").exists()

    def test_plan_results_validate(self, grid_dir, tmp_path, capsys):
        # plan writes no direction
        requests = tmp_path / "requests.csv"
        write_requests(requests, ["a1,S0105,S0100", "a2,S0104,S0101"])
        out = tmp_path / "out"
        code = main(
            [
                "plan",
                "--stops", str(grid_dir / "stops.csv"),
                "--timetable", str(grid_dir / "timetable.csv"),
                "--requests", str(requests),
                "--out", str(out),
            ]
        )
        assert code == 0
        assert main(["validate", "--results", str(out / "results.csv")]) == 0
        assert "invariants hold" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "synth_args, golden",
        [
            (["--headway", "60", "--leg", "15"], "plan_grid"),
            (["--spacing-km", "0.45", "--headway", "30", "--leg", "1", "--line-offset", "7"], "plan_walk"),
        ],
        ids=["grid", "walk"],
    )
    def test_outputs_match_golden_files(self, tmp_path, capsys, synth_args, golden):
        """plan --out on a 6x8 grid with three requests reproduces its golden
        copy in tests/data byte for byte, and results.csv with its four
        timing columns cut.  The walk grid's stops are 0.45 km apart, inside
        the walk limit, so its itineraries walk.  A change that alters plans
        on purpose rewrites these files and says so."""
        assert main(["synth", "--grid", "6x8", *synth_args, "--out", str(tmp_path / "net")]) == 0
        requests = tmp_path / "requests.csv"
        write_requests(requests, ["a1,S0000,S0507", "a2,S0100,S0507", "a3,S0001,S0406"])
        out = tmp_path / "out"
        args = ["--stops", str(tmp_path / "net" / "stops.csv"), "--timetable", str(tmp_path / "net" / "timetable.csv")]
        assert main(["plan", *args, "--requests", str(requests), "--out", str(out)]) == 0
        expected = Path(__file__).parent / "data" / golden
        for name in ("joint_plan.json", "groups.json", "itineraries.json", "plans.jsonl"):
            assert (out / name).read_bytes() == (expected / name).read_bytes(), f"{golden}/{name} differs"
        untimed = [",".join(line.split(",")[:10]) for line in (out / "results.csv").read_text().splitlines()]
        assert untimed == (expected / "results.csv").read_text().splitlines()

    def test_request_file_without_rows_is_parse_error(self, grid_dir, tmp_path, capsys):
        requests = tmp_path / "requests.csv"
        write_requests(requests, [])
        out = tmp_path / "out"
        code = main(
            [
                "plan",
                "--stops", str(grid_dir / "stops.csv"),
                "--timetable", str(grid_dir / "timetable.csv"),
                "--requests", str(requests),
                "--out", str(out),
            ]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert f"{requests}:1: no requests" in err and "Traceback" not in err
        assert not out.exists()

    def test_missing_stop_is_input_error(self, grid_dir, tmp_path, capsys):
        requests = tmp_path / "requests.csv"
        cases = [
            (["a1,NOPE,S0100"], "2: unknown origin stop 'NOPE'"),
            (["a1,S0105,S0100", "a2,S0104,NOPE"], "3: unknown destination stop 'NOPE'"),
        ]
        for rows, message in cases:
            write_requests(requests, rows)
            code = main(
                [
                    "plan",
                    "--stops", str(grid_dir / "stops.csv"),
                    "--timetable", str(grid_dir / "timetable.csv"),
                    "--requests", str(requests),
                ]
            )
            assert code == 1
            assert f"error: {requests}:{message}" in capsys.readouterr().err

    def test_row_after_a_multi_line_field_names_its_own_line(self, grid_dir, tmp_path, capsys):
        requests = tmp_path / "req_ml.csv"
        requests.write_text('agent,origin,destination\n"a\n1",S0105,S0100\na2,S0104,NOPE\n')
        code = main(
            [
                "plan",
                "--stops", str(grid_dir / "stops.csv"),
                "--timetable", str(grid_dir / "timetable.csv"),
                "--requests", str(requests),
            ]
        )
        assert code == 1
        assert f"error: {requests}:4: unknown destination stop 'NOPE'" in capsys.readouterr().err

    def test_empty_timetable_is_input_error(self, grid_dir, tmp_path, capsys):
        timetable = tmp_path / "timetable.csv"
        timetable.write_text("")
        requests = tmp_path / "requests.csv"
        write_requests(requests, ["a1,S0100,S0102"])
        code = main(
            [
                "plan",
                "--stops", str(grid_dir / "stops.csv"),
                "--timetable", str(timetable),
                "--requests", str(requests),
            ]
        )
        assert code == 1
        assert f"error: {timetable}:1: expected header" in capsys.readouterr().err

    def test_broken_run_names_timetable_line(self, grid_dir, tmp_path, capsys):
        timetable = tmp_path / "timetable.csv"
        timetable.write_text(
            "service_id,run_id,seq,from_stop,to_stop,departure_min,duration_min\n"
            "S1,R1,1,S0100,S0101,60,15\n"
            "S1,R1,3,S0101,S0102,80,15\n"
        )
        requests = tmp_path / "requests.csv"
        write_requests(requests, ["a1,S0100,S0102"])
        code = main(
            [
                "plan",
                "--stops", str(grid_dir / "stops.csv"),
                "--timetable", str(timetable),
                "--requests", str(requests),
            ]
        )
        assert code == 1
        assert f"error: {timetable}:3: run R1: seq values not consecutive from 1" in capsys.readouterr().err

    def test_bad_requests_header(self, grid_dir, tmp_path):
        requests = tmp_path / "requests.csv"
        requests.write_text("who,from,to\n")
        code = main(
            [
                "plan",
                "--stops", str(grid_dir / "stops.csv"),
                "--timetable", str(grid_dir / "timetable.csv"),
                "--requests", str(requests),
            ]
        )
        assert code == 1

    def test_duplicate_agent_id_names_file_and_line(self, grid_dir, tmp_path, capsys):
        requests = tmp_path / "requests.csv"
        write_requests(requests, ["1,S0105,S0100", "1,S0104,S0101"])
        code = main(
            [
                "plan",
                "--stops", str(grid_dir / "stops.csv"),
                "--timetable", str(grid_dir / "timetable.csv"),
                "--requests", str(requests),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"{requests}:3:" in err and "duplicate agent id '1'" in err

    def test_origin_equals_destination_names_file_and_line(self, grid_dir, tmp_path, capsys):
        requests = tmp_path / "requests.csv"
        write_requests(requests, ["a1,S0105,S0100", "a2,S0104,S0104"])
        code = main(
            [
                "plan",
                "--stops", str(grid_dir / "stops.csv"),
                "--timetable", str(grid_dir / "timetable.csv"),
                "--requests", str(requests),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"{requests}:3:" in err and "origin equals destination" in err

    def test_requests_path_is_a_directory(self, grid_dir, tmp_path, capsys):
        code = main(
            [
                "plan",
                "--stops", str(grid_dir / "stops.csv"),
                "--timetable", str(grid_dir / "timetable.csv"),
                "--requests", str(tmp_path),
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_config_file_honoured(self, grid_dir, tmp_path):
        cfg = tmp_path / "engine.cfg"
        cfg.write_text("walk.max_km=0.9\nwalk.speed_kmh=4\nsched.limit.small_s=10\n")
        requests = tmp_path / "requests.csv"
        write_requests(requests, ["a1,S0105,S0100"])
        code = main(
            [
                "plan",
                "--stops", str(grid_dir / "stops.csv"),
                "--timetable", str(grid_dir / "timetable.csv"),
                "--requests", str(requests),
                "--config", str(cfg),
            ]
        )
        assert code == 0

    def test_unknown_config_key(self, grid_dir, tmp_path, capsys):
        cfg = tmp_path / "engine.cfg"
        cfg.write_text("walk.pace=1\n")
        requests = tmp_path / "requests.csv"
        write_requests(requests, ["a1,S0105,S0100"])
        code = main(
            [
                "plan",
                "--stops", str(grid_dir / "stops.csv"),
                "--timetable", str(grid_dir / "timetable.csv"),
                "--requests", str(requests),
                "--config", str(cfg),
            ]
        )
        assert code == 1

    def test_config_lines_end_only_at_newlines(self, grid_dir, tmp_path, capsys):
        # a line separator inside a comment neither ends the comment nor shifts the line count
        cfg = tmp_path / "engine.cfg"
        cfg.write_text("# walk\u2028settings\nwalk.pace=1\n", encoding="utf-8")
        requests = tmp_path / "requests.csv"
        write_requests(requests, ["a1,S0105,S0100"])
        code = main(
            [
                "plan",
                "--stops", str(grid_dir / "stops.csv"),
                "--timetable", str(grid_dir / "timetable.csv"),
                "--requests", str(requests),
                "--config", str(cfg),
            ]
        )
        assert code == 1
        assert f"error: {cfg}:2: unknown config key 'walk.pace'" in capsys.readouterr().err


    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_config_value_names_file_and_line(self, grid_dir, tmp_path, capsys, value):
        cfg = tmp_path / "engine.cfg"
        cfg.write_text(f"walk.speed_kmh=4\nwalk.max_km={value}\n")
        requests = tmp_path / "requests.csv"
        write_requests(requests, ["a1,S0105,S0100"])
        code = main(
            [
                "plan",
                "--stops", str(grid_dir / "stops.csv"),
                "--timetable", str(grid_dir / "timetable.csv"),
                "--requests", str(requests),
                "--config", str(cfg),
            ]
        )
        assert code == 1
        assert f"{cfg}:2: walk.max_km must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", ["sched.limit.small_s=-5", "walk.max_km=0", "walk.speed_kmh=-0.0"])
    def test_non_positive_config_value_names_file_and_line(self, grid_dir, tmp_path, capsys, setting):
        cfg = tmp_path / "engine.cfg"
        cfg.write_text(f"# engine\n{setting}\n")
        requests = tmp_path / "requests.csv"
        write_requests(requests, ["a1,S0105,S0100"])
        code = main(
            [
                "plan",
                "--stops", str(grid_dir / "stops.csv"),
                "--timetable", str(grid_dir / "timetable.csv"),
                "--requests", str(requests),
                "--config", str(cfg),
            ]
        )
        assert code == 1
        key = setting.partition("=")[0]
        assert f"{cfg}:2: {key} must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["stops", "timetable", "requests", "config"])
    def test_non_utf8_input_names_file_and_line(self, grid_dir, tmp_path, capsys, target):
        paths = {
            "stops": grid_dir / "stops.csv",
            "timetable": grid_dir / "timetable.csv",
            "requests": tmp_path / "requests.csv",
            "config": tmp_path / "engine.cfg",
        }
        write_requests(paths["requests"], ["a1,S0105,S0100"])
        paths["config"].write_text("walk.max_km=0.5\n")
        first_line = paths[target].read_bytes().split(b"\n")[0]
        paths[target].write_bytes(first_line + b"\n\xff\xfe\n")
        code = main(["plan", *(arg for key, path in paths.items() for arg in (f"--{key}", str(path)))])
        assert code == 1
        assert f"{paths[target]}:2: not valid UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["stops", "timetable", "requests"])
    def test_oversized_field_names_file_and_line(self, grid_dir, tmp_path, capsys, target):
        paths = {
            "stops": grid_dir / "stops.csv",
            "timetable": grid_dir / "timetable.csv",
            "requests": tmp_path / "requests.csv",
        }
        write_requests(paths["requests"], ["a1,S0105,S0100"])
        first_line = paths[target].read_text().split("\n")[0]
        paths[target].write_text(first_line + "\n" + "x" * 200_000 + "\n")
        code = main(["plan", *(arg for key, path in paths.items() for arg in (f"--{key}", str(path)))])
        assert code == 1
        assert f"{paths[target]}:2: field larger than field limit" in capsys.readouterr().err


class TestExperimentAndValidate:
    def test_experiment_then_validate(self, tmp_path, capsys):
        matrix = {
            "scenario": "cli",
            "network": {"synthetic": {"width": 4, "height": 6, "spacing_km": 10.0, "headway_min": 120, "leg_min": 15}},
            "agents": [2],
            "directions": ["NS"],
            "seeds_per_direction": 2,
            "base_seed": 3,
            "min_km": 15.0,
        }
        matrix_path = tmp_path / "matrix.json"
        matrix_path.write_text(json.dumps(matrix))
        out = tmp_path / "out"
        code = main(["experiment", "--matrix", str(matrix_path), "--out", str(out), "--parallel", "2"])
        assert code == 0
        assert (out / "results.csv").exists()

        code = main(["validate", "--results", str(out / "results.csv")])
        assert code == 0
        assert "invariants hold" in capsys.readouterr().out

    def test_non_positive_engine_setting_names_cell_scenario_and_key(self, tmp_path, capsys):
        matrix = {
            "scenario": "cli",
            "network": {"synthetic": {"width": 4, "height": 6, "spacing_km": 10.0, "headway_min": 120, "leg_min": 15}},
            "engine": {"walk_max_km": 0},
        }
        matrix_path = tmp_path / "matrix.json"
        matrix_path.write_text(json.dumps(matrix))
        code = main(["experiment", "--matrix", str(matrix_path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "matrix cell 0 (scenario 'cli'): engine.walk_max_km must be positive, got 0" in capsys.readouterr().err

    def test_validate_flags_violation_with_exit_2(self, tmp_path, capsys):
        from journeyshare.metrics import RESULTS_COLUMNS

        bad = tmp_path / "results.csv"
        bad.write_text(",".join(RESULTS_COLUMNS) + "\ns,2,NS,1,-1.0,,,,,,0.1,0.1,0.1,0.3\n")
        code = main(["validate", "--results", str(bad)])
        assert code == 2

    def test_validate_timed_out_matched_group_exits_2(self, tmp_path, capsys):
        from journeyshare.metrics import RESULTS_COLUMNS

        bad = tmp_path / "results.csv"
        bad.write_text(",".join(RESULTS_COLUMNS) + "\ns,2,NS,1,0.5,0,2,1,1,,0.1,0.1,0.1,0.3\n")
        code = main(["validate", "--results", str(bad)])
        assert code == 2
        assert f"{bad}:2: timed-out group marked matched" in capsys.readouterr().err

    def test_validate_matched_outside_0_1_exits_2(self, tmp_path, capsys):
        from journeyshare.metrics import RESULTS_COLUMNS

        bad = tmp_path / "results.csv"
        bad.write_text(",".join(RESULTS_COLUMNS) + "\ns,2,NS,1,0.5,0,2,2,0,,0.1,0.1,0.1,0.3\n")
        code = main(["validate", "--results", str(bad)])
        assert code == 2
        assert f"{bad}:2: matched/timed_out must be 0 or 1" in capsys.readouterr().err

    def test_validate_group_larger_than_its_experiment_exits_2(self, tmp_path, capsys):
        from journeyshare.metrics import RESULTS_COLUMNS

        bad = tmp_path / "results.csv"
        bad.write_text(",".join(RESULTS_COLUMNS) + "\ns,2,NS,1,0.5,0,3,1,0,,0.1,0.1,0.1,0.3\n")
        code = main(["validate", "--results", str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{bad}:2: group_size must be from 1 to n_agents 2, got 3" in err
        assert "Traceback" not in err

    def test_validate_duplicate_group_id_exits_2(self, tmp_path, capsys):
        from journeyshare.metrics import RESULTS_COLUMNS

        bad = tmp_path / "results.csv"
        rows = ["s,2,NS,1,0.5,,,,,,0.1,0.1,0.1,0.3"] + ["s,2,NS,1,0.5,0,1,1,0,,0.1,0.1,0.1,0.3"] * 2
        bad.write_text("\n".join([",".join(RESULTS_COLUMNS), *rows]) + "\n")
        code = main(["validate", "--results", str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{bad}:4: duplicate group_id 0 in its experiment" in err
        assert "Traceback" not in err

    def test_malformed_matrix_json_is_input_error(self, tmp_path, capsys):
        matrix_path = tmp_path / "matrix.json"
        matrix_path.write_text('{\n  "scenario": "cli",\n  "agents": [2,\n}\n')
        code = main(["experiment", "--matrix", str(matrix_path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert f"{matrix_path}:4: malformed JSON" in capsys.readouterr().err

    def test_validate_non_numeric_field_is_input_error(self, tmp_path, capsys):
        from journeyshare.metrics import RESULTS_COLUMNS

        bad = tmp_path / "results.csv"
        bad.write_text(",".join(RESULTS_COLUMNS) + "\ns,2,NS,1,0.5,,,,,,0.1,fast,0.1,0.3\n")
        code = main(["validate", "--results", str(bad)])
        assert code == 1
        assert f"{bad}:2: non-numeric t_br_s 'fast'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row, message",
        [
            ("s,2,NS,1,nan,,,,,,0.1,0.1,0.1,0.3", "non-finite delta_c 'nan'"),
            ("s,2,NS,1,0.5,0,2,1,0,inf,0.1,0.1,0.1,0.3", "non-finite delta_t 'inf'"),
            ("s,2,NS,1,0.5,,,,,,0.1,0.1,0.1,nan", "non-finite t_total_s 'nan'"),
        ],
    )
    def test_validate_non_finite_field_is_input_error(self, tmp_path, capsys, row, message):
        from journeyshare.metrics import RESULTS_COLUMNS

        bad = tmp_path / "results.csv"
        bad.write_text(",".join(RESULTS_COLUMNS) + "\n" + row + "\n")
        code = main(["validate", "--results", str(bad)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: {bad}:2: {message}" in err
        assert "Traceback" not in err

    def test_non_utf8_matrix_names_file_and_line(self, tmp_path, capsys):
        matrix_path = tmp_path / "matrix.json"
        matrix_path.write_bytes(b'{\n  "scenario": "caf\xe9"\n}\n')
        code = main(["experiment", "--matrix", str(matrix_path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert f"{matrix_path}:2: not valid UTF-8" in capsys.readouterr().err

    def test_non_utf8_results_names_file_and_line(self, tmp_path, capsys):
        from journeyshare.metrics import RESULTS_COLUMNS

        bad = tmp_path / "results.csv"
        bad.write_bytes(",".join(RESULTS_COLUMNS).encode() + b"\ns\x80,2,NS,1,0.5,,,,,,0.1,0.1,0.1,0.3\n")
        code = main(["validate", "--results", str(bad)])
        assert code == 1
        assert f"{bad}:2: not valid UTF-8" in capsys.readouterr().err

    def test_validate_empty_file_names_its_header_line(self, tmp_path, capsys):
        empty = tmp_path / "empty_results.csv"
        empty.write_text("")
        code = main(["validate", "--results", str(empty)])
        assert code == 1
        assert f"error: {empty}:1: expected header" in capsys.readouterr().err

    def test_validate_missing_file(self, tmp_path):
        code = main(["validate", "--results", str(tmp_path / "absent.csv")])
        assert code == 1


# per matrix key, a small pool of valid and invalid values on a 4x6 grid
FUZZ_CELL = st.fixed_dictionaries(
    {
        "network": st.just({"synthetic": {"width": 4, "height": 6, "spacing_km": 10.0, "headway_min": 120, "leg_min": 15}}),
        # always given, since the default of 10 seeds per direction would make an example slow
        "seeds_per_direction": st.sampled_from([0, 1, "a", -1, 1.5, True]),
    },
    optional={
        "scenario": st.sampled_from(["fuzz", "", 7]),
        "agents": st.sampled_from([[2], [1, 3], [4], [], [0], [-2], 2, ["x"], [2.5], [True]]),
        "directions": st.sampled_from([["NS"], ["WE", "SN"], [], "NS", ["UP"]]),
        "base_seed": st.sampled_from([0, 7, "s"]),
        "min_km": st.sampled_from([0.0, 15.0, 200.0, -1.0, "x"]),
        "max_km": st.sampled_from([10.0, 160.0, 300.0, None]),
        "engine": st.sampled_from(
            [{}, {"walk_max_km": 0.9}, {"walk_max_km": "x"}, {"walk_max_km": -1.0}, {"walk_pace": 1}, {"sched_limit_small_s": 0.0}]
        ),
    },
)


class TestExperimentFuzz:
    @settings(max_examples=40, deadline=None)
    @given(matrix=st.one_of(FUZZ_CELL, st.lists(st.one_of(FUZZ_CELL, st.sampled_from([1, "cell", None])), max_size=2)))
    def test_experiment_exits_cleanly_and_its_output_validates(self, matrix):
        with tempfile.TemporaryDirectory() as tmp:
            matrix_path = Path(tmp) / "matrix.json"
            matrix_path.write_text(json.dumps(matrix))
            out = Path(tmp) / "out"
            code = main(["experiment", "--matrix", str(matrix_path), "--out", str(out)])
            assert code in (0, 1)
            if code == 0:
                assert main(["validate", "--results", str(out / "results.csv")]) == 0


# small valid inputs for plan and validate; a fuzz example keeps a prefix of
# one file's lines and appends arbitrary bytes
VALID_INPUTS = {
    "stops": "stop_id,name,lat,lon,mode\nA,Alpha,55.0,-3.0,rail\nB,Beta,55.1,-3.0,rail\nC,Gamma,55.1004,-3.0,coach\n",
    "timetable": (
        "service_id,run_id,seq,from_stop,to_stop,departure_min,duration_min\n"
        "S1,R1,1,A,B,60,10\nS1,R1,2,B,C,75,10\nS2,R2,1,A,B,90,12\n"
    ),
    "requests": "agent,origin,destination\n1,A,C\n2,A,B\n3,B,C\n",
    "config": "walk.max_km=0.5\nwalk.speed_kmh=5\nsched.limit.small_s=10\n",
    "results": (
        "scenario,n_agents,direction,seed,delta_c,group_id,group_size,matched,timed_out,delta_t,"
        "t_initial_s,t_br_s,t_schedule_s,t_total_s\n"
        "s,2,NS,1,0.4,,,,,,0.1,0.1,0.1,0.3\ns,2,NS,1,0.4,0,2,1,0,0.25,0.1,0.1,0.1,0.3\n"
    ),
}
FUZZ_TAIL = st.one_of(st.binary(max_size=40), st.text(max_size=40).map(str.encode))


def fuzzed(target: str, keep: int, tail: bytes) -> bytes:
    lines = VALID_INPUTS[target].encode().splitlines(keepends=True)
    return b"".join(lines[:keep]) + tail


class TestPlanAndValidateFuzz:
    @settings(max_examples=40, deadline=None)
    @given(
        target=st.sampled_from(["stops", "timetable", "requests", "config"]),
        keep=st.integers(0, 4),
        tail=FUZZ_TAIL,
    )
    def test_plan_exits_cleanly(self, target, keep, tail):
        with tempfile.TemporaryDirectory() as tmp:
            args = ["plan"]
            for name, text in VALID_INPUTS.items():
                if name == "results":
                    continue
                path = Path(tmp) / name
                path.write_bytes(fuzzed(name, keep, tail) if name == target else text.encode())
                args += [f"--{name}", str(path)]
            assert main(args) in (0, 1, 2)

    @settings(max_examples=40, deadline=None)
    @given(keep=st.integers(0, 3), tail=FUZZ_TAIL)
    def test_validate_exits_cleanly(self, keep, tail):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "results.csv"
            path.write_bytes(fuzzed("results", keep, tail))
            assert main(["validate", "--results", str(path)]) in (0, 1, 2)
