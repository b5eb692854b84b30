"""Benchmark of the journeyshare batch pipeline, end to end and per layer.

    python3 perfbench/run.py --workload paper_batch --seed 1 --seconds 45 --trace 0

The seed, times SEED_STRIDE, becomes the matrix `base_seed`; the program sees
only the generated matrix.  A run repeats the workload's batch while another
one fits in `--seconds`.  Every batch runs the output checks, including that
its results.csv matches the first batch's apart from the timing columns; an
experiment that fails a check counts in `failed`.  With `--trace 0` the run
reports the end-to-end metrics; with `--trace 1` it alternates untraced and
traced batches and reports the per-layer metrics.  The last line of stdout is
the JSON result; the lines before it give each metric with its quartiles over
the run's batches and the sample counts.  Files go to `.perfbench_out/` in the
checkout.  See README.md.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from tracer import Tracer, observing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
try:
    from journeyshare import best_response, experiments, scheduling
    from journeyshare.errors import JourneyShareError
except ImportError as exc:
    sys.exit(f"perfbench: cannot import journeyshare from {SRC}: {exc}")
if Path(experiments.__file__).resolve().parent.parent != SRC.resolve():
    sys.exit(f"perfbench: journeyshare imported from {experiments.__file__}, not from {SRC}")

# The 20x40 grid at headway 60 with the other SyntheticNetworkSpec defaults:
# 60,000 connections, so timetable slicing and scheduling dominate.
DENSE_NETWORK = {"width": 20, "height": 40, "headway_min": 60}
DENSE_SEEDS_PER_DIRECTION = 4
PARALLEL_WORKERS = 2
# run_batch seeds an experiment with base_seed + 100 * direction + replicate,
# so base seeds closer than 400 share experiments; spacing them out makes the
# runs of different --seed values independent samples
SEED_STRIDE = 1000
TIMING_COLUMNS = {"t_initial_s", "t_br_s", "t_schedule_s", "t_total_s"}
IR_EPSILON = 1e-9


def paper_matrix(seed: int) -> dict:
    return experiments.default_matrix(base_seed=seed * SEED_STRIDE)


def dense_matrix(seed: int) -> dict:
    return {
        "scenario": "grid20x40",
        "network": {"synthetic": DENSE_NETWORK},
        "agents": [14],
        "directions": list(experiments.DIRECTIONS),
        "seeds_per_direction": DENSE_SEEDS_PER_DIRECTION,
        "base_seed": seed * SEED_STRIDE,
    }


# name -> (matrix for a seed, whether the run also checks run_batch(parallel=2))
WORKLOADS = {
    "paper_batch": (paper_matrix, True),
    "dense_timetable": (dense_matrix, False),
}


def _experiment_id(args: tuple, kwargs: dict) -> str:
    return f"{kwargs.get('direction')}/{kwargs.get('seed')}/{len(args[1])}"


def _experiment_key(scenario, n_agents, direction, seed) -> tuple[str, str, str, str]:
    return (str(scenario), str(n_agents), str(direction), str(seed))


def _br_with_steps(original, args, kwargs):
    """Run the BR phase with an on_step hook counting steps and adopted plans."""
    initial = list(args[0])
    current = {plan.agent: plan for plan in initial}
    order = sorted(current)
    steps = adopted = 0

    def on_step(joint) -> None:
        nonlocal steps, adopted
        # only the stepping agent's plan can change, and only by adoption
        agent = order[steps % len(order)]
        if joint.per_agent[agent] is not current[agent]:
            adopted += 1
            current[agent] = joint.per_agent[agent]
        steps += 1

    joint = original(initial, *args[1:], on_step=on_step, **kwargs)
    return joint, {"agents": len(order), "steps": steps, "adopted": adopted}


def _slice_counts(args, kwargs, result) -> dict:
    parts, network = args[0], args[1]
    return {"scanned": len(parts) * len(network.connections), "kept": len(result.connections)}


def install_probes(tracer: Tracer, requested: dict, full: bool) -> None:
    """Wrap the calls the end-to-end metrics need; with full, every layer."""

    def record_requests(original, args, kwargs):
        requests = args[1]
        key = _experiment_key(kwargs.get("scenario"), len(requests), kwargs.get("direction"), kwargs.get("seed"))
        requested[key] = {request.agent for request in requests}
        return original(*args, **kwargs), None

    tracer.wrap(
        experiments,
        "build_synthetic_network",
        "transit.build_synthetic_network",
        observing(lambda a, k, r: {"connections": len(r.connections)}),
    )
    tracer.wrap(
        experiments,
        "prepare_network",
        "experiments.prepare_network",
        observing(lambda a, k, r: {"relaxed_edges": len(r[1].edges)}),
    )
    tracer.wrap(experiments, "run_pipeline", "experiments.run_pipeline", record_requests, experiment=_experiment_id)
    if not full:
        return
    tracer.wrap(experiments, "add_walking_links", "transit.add_walking_links")
    tracer.wrap(experiments, "build_relaxed_graph", "transit.build_relaxed_graph")
    tracer.wrap(experiments, "admissible_pairs", "experiments.admissible_pairs")
    tracer.wrap(experiments, "sample_requests", "experiments.sample_requests")
    tracer.wrap(experiments, "plan_individual", "planning.plan_individual")
    tracer.wrap(experiments, "run_br_phase", "best_response.run_br_phase", _br_with_steps)
    tracer.wrap(best_response, "plan_individual", "best_response.plan_individual")
    tracer.wrap(
        experiments, "identify_groups", "grouping.identify_groups", observing(lambda a, k, r: {"groups": len(r)})
    )
    tracer.wrap(
        experiments, "split_into_parts", "grouping.split_into_parts", observing(lambda a, k, r: {"parts": len(r)})
    )
    tracer.wrap(experiments, "relevant_timetable", "grouping.relevant_timetable", observing(_slice_counts))
    tracer.wrap(scheduling, "relevant_timetable", "grouping.relevant_timetable", observing(_slice_counts))
    tracer.wrap(
        experiments,
        "schedule_group",
        "scheduling.schedule_group",
        observing(lambda a, k, r: {"matched": int(r.schedule is not None), "timeouts": int(r.timed_out)}),
    )
    tracer.wrap(
        experiments,
        "schedule_single_agent",
        "scheduling.schedule_single_agent",
        observing(lambda a, k, r: {"timeouts": int(r.timed_out)}),
    )
    tracer.wrap(
        experiments,
        "write_results_csv",
        "metrics.write_results_csv",
        observing(lambda a, k, r: {"rows": sum(1 + len(result.groups) for result in a[0])}),
    )


def experiment_digests(csv_path: Path) -> dict[tuple, str]:
    """Per experiment, a digest of its results.csv rows without the timing columns."""
    hashes: dict = {}
    with open(csv_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        keep = [i for i, column in enumerate(header) if column not in TIMING_COLUMNS]
        for row in reader:
            digest = hashes.setdefault(_experiment_key(*row[:4]), hashlib.sha256())
            digest.update((",".join(row[i] for i in keep) + "\n").encode())
    return {key: digest.hexdigest() for key, digest in hashes.items()}


def check_batch(results, csv_path: Path, requested: dict, reference: dict | None) -> tuple[int, dict]:
    """Run the output checks; returns (experiments failing one, per-experiment digests).

    A results.csv that fails validation fails every experiment of the batch.
    """
    try:
        rows = experiments.validate_results_file(csv_path)
        expected_rows = sum(1 + len(result.groups) for result in results)
        if rows != expected_rows:
            raise ValueError(f"{rows} rows, expected {expected_rows}")
        digests = experiment_digests(csv_path)
    except (JourneyShareError, ValueError, IndexError) as exc:
        print(f"perfbench: {csv_path}: {exc}", file=sys.stderr)
        return len(results), {}
    failed = 0
    for result in results:
        key = _experiment_key(result.scenario, result.n_agents, result.direction, result.seed)
        problems = list(result.errors)
        for agent, shared in result.shared_costs.items():
            if agent not in result.initial_costs or shared > result.initial_costs[agent] + IR_EPSILON:
                problems.append(f"agent {agent} not individually rational")
        if result.delta_c is not None and result.delta_c < 0:
            problems.append(f"negative delta_c {result.delta_c}")
        if set(result.initial_costs) | set(result.unreachable_agents) != requested.get(key):
            problems.append("a requested traveller is missing from the result")
        if reference is not None and digests.get(key) != reference.get(key):
            problems.append("results.csv rows differ from the reference batch")
        if problems:
            failed += 1
            print(f"perfbench: experiment {key}: {'; '.join(problems)}", file=sys.stderr)
    return failed, digests


@dataclass
class Batch:
    wall: float
    cpu: float
    setup: float
    latencies: list[float]
    travellers: int
    n_experiments: int
    failed: int
    digests: dict
    tracer: Tracer = field(repr=False)


def run_once(
    matrix: dict, parallel: int | None, csv_path: Path, full: bool, reference: dict | None
) -> tuple[Batch, list, dict]:
    """One run_batch call with probes installed, followed by the output checks.

    Returns the batch, run_batch's results and the requested agents per experiment.
    """
    requested: dict = {}
    with Tracer() as tracer:
        install_probes(tracer, requested, full)
        cpu0 = os.times()
        results = tracer.call("experiments.run_batch", experiments.run_batch, matrix, csv_path, parallel=parallel)
        cpu1 = os.times()
    failed, digests = check_batch(results, csv_path, requested, reference)
    by_name: dict[str, list[float]] = {}
    for name, start, end, *_ in tracer.spans:
        by_name.setdefault(name, []).append(end - start)
    batch = Batch(
        wall=by_name["experiments.run_batch"][0],
        cpu=sum(cpu1[:4]) - sum(cpu0[:4]),
        setup=sum(by_name["transit.build_synthetic_network"]) + sum(by_name["experiments.prepare_network"]),
        latencies=by_name.get("experiments.run_pipeline", []),
        travellers=sum(result.n_agents for result in results),
        n_experiments=len(results),
        failed=failed,
        digests=digests,
        tracer=tracer,
    )
    return batch, results, requested


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def quality_metrics(results) -> dict[str, list[float]]:
    groups = [record for result in results for record in result.groups]
    # matched groups of two or more; equals 1 + their duration-weighted delta_t
    shared = [record for record in groups if record.size >= 2 and record.delta_t is not None]
    return {
        "matched_share": [sum(record.matched for record in groups) / len(groups)],
        "delta_c_mean": [statistics.fmean(result.delta_c for result in results if result.delta_c is not None)],
        "journey_time_ratio": [
            sum(sum(record.group_durations.values()) for record in shared)
            / sum(sum(record.solo_durations.values()) for record in shared)
        ],
    }


def end_to_end_samples(batches: list[Batch], results: list) -> dict[str, list[float]]:
    """Per metric, the samples whose median is reported; quality from one batch's results."""
    # one sample per batch, so that a slow spell of the host during one batch
    # moves the reported median as little as possible
    latencies = [[latency * 1000.0 for latency in batch.latencies] for batch in batches]
    samples = {
        "setup_s": [batch.setup for batch in batches],
        "agents_per_s": [batch.travellers / (batch.wall - batch.setup) for batch in batches],
        "pipeline_p50_ms": [statistics.median(values) for values in latencies],
        "pipeline_p95_ms": [statistics.quantiles(values, n=20, method="inclusive")[18] for values in latencies],
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0],
    }
    samples.update(quality_metrics(results))
    return samples


def layer_samples(batch: Batch) -> dict[str, float]:
    """Per-layer metrics of one traced batch."""
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, float] = defaultdict(float)
    sweeps: list[float] = []
    for (name, start, end, _, _, span_counts), self_s in zip(batch.tracer.spans, batch.tracer.self_times()):
        total[name] += end - start
        own[name] += self_s
        calls[name] += 1
        for key, value in (span_counts or {}).items():
            counts[f"{name}:{key}"] += value
        if name == "best_response.run_br_phase":
            sweeps.append(span_counts["steps"] / span_counts["agents"])
    replans = calls["best_response.plan_individual"]
    adopted = counts["best_response.run_br_phase:adopted"]
    scanned = counts["grouping.relevant_timetable:scanned"]
    kept = counts["grouping.relevant_timetable:kept"]
    return {
        "transit.load_s": total["transit.build_synthetic_network"],
        "transit.walk_links_s": total["transit.add_walking_links"],
        "transit.relaxed_graph_s": total["transit.build_relaxed_graph"],
        "transit.connections": counts["transit.build_synthetic_network:connections"],
        "transit.relaxed_edges": counts["experiments.prepare_network:relaxed_edges"],
        "planning.solo_route_s": total["planning.plan_individual"],
        "planning.solo_route_calls": calls["planning.plan_individual"],
        "best_response.phase_s": total["best_response.run_br_phase"],
        "best_response.search_s": total["best_response.plan_individual"],
        "best_response.self_s": own["best_response.run_br_phase"],
        "best_response.replans": replans,
        "best_response.sweeps_mean": statistics.fmean(sweeps),
        "best_response.adopted": adopted,
        "best_response.adopted_ratio": adopted / replans,
        "grouping.decompose_s": total["grouping.identify_groups"] + total["grouping.split_into_parts"],
        "grouping.groups": counts["grouping.identify_groups:groups"],
        "grouping.parts_per_group": counts["grouping.split_into_parts:parts"] / calls["grouping.split_into_parts"],
        "grouping.slice_s": total["grouping.relevant_timetable"],
        "grouping.slice_calls": calls["grouping.relevant_timetable"],
        "grouping.slice_scanned": scanned,
        "grouping.slice_kept": kept,
        "grouping.slice_useful_ratio": kept / scanned,
        "scheduling.group_s": total["scheduling.schedule_group"],
        "scheduling.solo_s": own["scheduling.schedule_single_agent"],
        "scheduling.groups_attempted": calls["scheduling.schedule_group"],
        "scheduling.groups_matched": counts["scheduling.schedule_group:matched"],
        "scheduling.timeouts": counts["scheduling.schedule_group:timeouts"]
        + counts["scheduling.schedule_single_agent:timeouts"],
        "metrics.write_csv_s": total["metrics.write_results_csv"],
        "metrics.results_rows": counts["metrics.write_results_csv:rows"],
        "experiments.pipeline_s": total["experiments.run_pipeline"],
        "experiments.sample_s": total["experiments.admissible_pairs"] + total["experiments.sample_requests"],
        "experiments.batch_overhead_s": own["experiments.run_batch"],
    }


def per_layer_samples(untraced: list[Batch], traced: list[Batch]) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {}
    for batch in traced:
        for name, value in layer_samples(batch).items():
            samples.setdefault(name, []).append(value)
    samples["experiments.cores_used"] = [batch.cpu / batch.wall for batch in untraced]
    untraced_wall = statistics.median(batch.wall for batch in untraced)
    samples["trace.overhead_ratio"] = [batch.wall / untraced_wall for batch in traced]
    return samples


@dataclass
class Report:
    header: dict
    attempted: int
    failed: int
    samples: dict[str, list[float]]


def measure(matrix: dict, seconds: float, trace: bool, out_dir: Path, check_parallel: bool) -> Report:
    """Repeat the batch (alternating untraced and traced batches when tracing)
    while another one fits in `seconds`, checking every batch against the
    first; with check_parallel, end with an untimed run_batch(parallel=2)
    that must write the same results.csv."""
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "results.csv"
    untraced: list[Batch] = []
    traced: list[Batch] = []
    reference = None
    deadline = time.perf_counter() + seconds
    while True:
        batch, results, _ = run_once(matrix, None, csv_path, False, reference)
        if reference is None:
            # only the first batch's results are kept, so that peak RSS does
            # not grow with the number of batches that fit in the run
            reference, first_results = batch.digests, results
        untraced.append(batch)
        step = batch.wall
        if trace:
            traced.append(run_once(matrix, None, csv_path, True, reference)[0])
            step += traced[-1].wall
        if time.perf_counter() + step > deadline:
            break
    if trace:
        with open(out_dir / "trace.jsonl", "w", encoding="utf-8") as fh:
            for number, batch in enumerate(traced):
                for record in batch.tracer.records():
                    fh.write(json.dumps({"batch": number, **record}) + "\n")
        samples = per_layer_samples(untraced, traced)
    else:
        samples = end_to_end_samples(untraced, first_results)
    batches = untraced + traced
    if check_parallel:
        batches.append(run_once(matrix, PARALLEL_WORKERS, csv_path, False, reference)[0])
    header = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "batches": len(untraced) + len(traced),
        "experiments_per_batch": untraced[0].n_experiments,
        "travellers_per_batch": untraced[0].travellers,
        "pipeline_samples": sum(len(batch.latencies) for batch in untraced),
        "parallel_check": f"parallel={PARALLEL_WORKERS}" if check_parallel else "no",
    }
    return Report(
        header=header,
        attempted=sum(batch.n_experiments for batch in batches),
        failed=sum(batch.failed for batch in batches),
        samples=samples,
    )


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def print_report(report: Report, trace: bool, out_dir: Path) -> None:
    """Print each metric with unit, median, quartiles and sample count, then the JSON line."""
    spec = load_spec()
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    if set(units) != set(report.samples):
        raise RuntimeError(f"metrics {sorted(report.samples)} do not match BENCHMARK.json {sorted(units)}")
    print("# " + " ".join(f"{key}={value}" for key, value in report.header.items()))
    summary = {"header": report.header, "attempted": report.attempted, "failed": report.failed, "metrics": {}}
    metrics = {}
    for name in units:
        values = report.samples[name]
        q1, median, q3 = quartiles(values)
        metrics[name] = {"value": median, "unit": units[name]}
        summary["metrics"][name] = {"median": median, "q1": q1, "q3": q3, "n": len(values), "unit": units[name]}
        print(f"{name:32s} {median:14.6g} {units[name]:9s} q1={q1:.6g} q3={q3:.6g} n={len(values)}")
    failed_share = report.failed / report.attempted
    print(f"{'failed_share':32s} {failed_share:14.6g} {'ratio':9s} ({report.failed} of {report.attempted} experiments)")
    with open(out_dir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
    result = {
        "correct": report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    build, check_parallel = WORKLOADS[args.workload]
    out_dir = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = measure(build(args.seed), args.seconds, bool(args.trace), out_dir, check_parallel)
    report.header = {"workload": args.workload, "seed": args.seed, **report.header}
    print_report(report, bool(args.trace), out_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
