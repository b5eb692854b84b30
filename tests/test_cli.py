import json

import pytest

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

    def test_missing_stop_is_input_error(self, grid_dir, tmp_path, capsys):
        requests = tmp_path / "requests.csv"
        write_requests(requests, ["a1,NOPE,S0100"])
        code = main(
            [
                "plan",
                "--stops", str(grid_dir / "stops.csv"),
                "--timetable", str(grid_dir / "timetable.csv"),
                "--requests", str(requests),
            ]
        )
        assert code == 1

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

    def test_validate_flags_violation_with_exit_2(self, tmp_path, capsys):
        from journeyshare.metrics import RESULTS_COLUMNS

        bad = tmp_path / "results.csv"
        bad.write_text(",".join(RESULTS_COLUMNS) + "\ns,2,NS,1,-1.0,,,,,,0.1,0.1,0.1,0.3\n")
        code = main(["validate", "--results", str(bad)])
        assert code == 2

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

    def test_validate_missing_file(self, tmp_path):
        code = main(["validate", "--results", str(tmp_path / "absent.csv")])
        assert code == 1
