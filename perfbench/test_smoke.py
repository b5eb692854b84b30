"""Smoke test of the benchmark on a tiny matrix.

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json

import pytest

import run

# eight experiments of 2 and 4 travellers on the default grid, five shared groups matched
TINY = run.experiments.default_matrix(agents=(2, 4), seeds_per_direction=1, base_seed=4)


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_is_printed_with_its_unit(tmp_path, capsys, trace, section):
    report = run.measure(TINY, 0, trace, tmp_path, check_parallel=True)
    run.print_report(report, trace, tmp_path)
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    declared = {metric["name"]: metric["unit"] for metric in run.load_spec()[section]}

    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    per_batch = len(TINY["agents"]) * len(TINY["directions"])
    # one timed batch, one traced batch when tracing, one parallel check batch
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == per_batch * (3 if trace else 2)
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == declared
    assert all(isinstance(metric["value"], (int, float)) for metric in result["metrics"].values())
    printed = {line.split()[0]: line.split()[2] for line in lines[1:-1]}
    assert {name: printed.get(name) for name in declared} == declared
    assert printed["failed_share"] == "ratio"


def test_corrupted_results_csv_raises_failed_share(tmp_path):
    csv_path = tmp_path / "results.csv"
    batch, results, requested = run.run_once(TINY, None, csv_path, False, None)
    assert batch.failed == 0
    rows = csv_path.read_text(encoding="utf-8").splitlines()
    delta_c = rows[0].split(",").index("delta_c")

    def corrupt(value: str) -> int:
        fields = rows[1].split(",")
        fields[delta_c] = value
        csv_path.write_text("\n".join([rows[0], ",".join(fields), *rows[2:]]) + "\n", encoding="utf-8")
        failed, _ = run.check_batch(results, csv_path, requested, batch.digests)
        return failed

    # a changed value fails the experiment whose rows no longer match the reference
    assert corrupt("0.999999999") == 1
    # a row validate_results_file rejects fails the whole batch
    assert corrupt("-0.5") == batch.n_experiments


def test_traced_self_times_lie_within_their_spans(tmp_path):
    run.measure(TINY, 0, True, tmp_path, check_parallel=False)
    records = [json.loads(line) for line in (tmp_path / "trace.jsonl").read_text(encoding="utf-8").splitlines()]
    spans = {(record["batch"], record["id"]): record for record in records}
    for record in records:
        assert 0.0 <= record["self"] <= record["end"] - record["start"]
        if record["parent"] is not None:
            parent = spans[(record["batch"], record["parent"])]
            assert record["self"] <= parent["end"] - parent["start"]
    assert {"best_response.plan_individual", "grouping.relevant_timetable", "metrics.write_results_csv"} <= {
        record["name"] for record in records
    }
