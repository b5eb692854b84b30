"""End-to-end pipeline and batch experiment runner.

An experiment samples same-direction travel requests from a network, runs the
three phases (solo routing, best-response sharing, timetabling) and records
cost improvement, per-group prolongation and matching outcomes.  Batches are
seed-deterministic: identical matrices produce identical results.csv apart
from the timing columns.
"""

from __future__ import annotations

import csv
import json
import logging
import random
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .best_response import JointPlan, SharedCostModel, agent_cost, run_br_phase
from .config import EngineConfig
from .errors import ConsistencyError, InputError, JourneyShareError, ParseError, ScenarioError
from .grouping import Group, Part, identify_groups, relevant_timetable, split_into_parts
from .metrics import ExperimentResult, GroupRecord, cost_improvement, prolongation, write_results_csv
from .planning import AgentId, AgentRequest, Plan, plan_individual
from .scheduling import (
    Itinerary,
    ScheduleResult,
    SoloScheduleResult,
    agent_itineraries,
    schedule_group,
    schedule_single_agent,
    time_limit_for,
)
from .synth import SyntheticNetworkSpec, build_synthetic_network
from .transit import RelaxedGraph, TransitNetwork, add_walking_links, build_relaxed_graph, haversine_km, load_network

logger = logging.getLogger(__name__)

DIRECTIONS = ("NS", "SN", "WE", "EW")

# Desk-scale default: a 6x20 corridor grid with sparse, staggered service
# (about 2.5 runs per line-direction per day inside a 07:00-20:00 window),
# spare enough that larger groups genuinely fail to fit into the day
DEFAULT_SYNTH_SPEC = SyntheticNetworkSpec(
    width=6,
    height=20,
    spacing_km=8.0,
    headway_min=300,
    leg_min=20,
    first_departure=420,
    last_arrival=1200,
    line_offset_min=37,
)


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    n_agents: int
    direction: str
    min_km: float = 20.0
    max_km: float = 160.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_agents < 2 or self.n_agents % 2 != 0:
            raise InputError(f"scenario agent count must be even and >= 2, got {self.n_agents}")
        if self.direction not in DIRECTIONS:
            raise InputError(f"direction must be one of {DIRECTIONS}, got {self.direction!r}")
        if not 0 <= self.min_km < self.max_km:
            raise InputError("distance window must satisfy 0 <= min < max")


def quadrant_axes(network: TransitNetwork) -> tuple[float, float]:
    """Axes at the median stop latitude/longitude, balancing the quadrants."""
    stops = sorted(network.stops.values(), key=lambda s: s.id)
    if not stops:
        raise ScenarioError("network has no stops")
    return statistics.median(s.lat for s in stops), statistics.median(s.lon for s in stops)


def quadrant_of(lat: float, lon: float, axes: tuple[float, float]) -> int | None:
    """Quadrant number 1..4 (NE, NW, SW, SE); None for stops on an axis."""
    alat, alon = axes
    if lat == alat or lon == alon:
        return None
    if lat > alat:
        return 1 if lon > alon else 2
    return 4 if lon > alon else 3


# origin-quadrant -> destination-quadrant pairings per travel direction;
# the non-N-S directions are the 90-degree rotations of the N-S rule
_DIRECTION_RULE = {
    "NS": ((1, 4), (2, 3)),
    "SN": ((4, 1), (3, 2)),
    "WE": ((2, 1), (3, 4)),
    "EW": ((1, 2), (4, 3)),
}


def admissible_pairs(
    network: TransitNetwork, direction: str, min_km: float = 20.0, max_km: float = 160.0
) -> list[tuple[str, str]]:
    """All origin-destination stop pairs admissible for one travel direction."""
    if direction not in _DIRECTION_RULE:
        raise InputError(f"unknown direction {direction!r}")
    axes = quadrant_axes(network)
    by_quadrant: dict[int, list] = {1: [], 2: [], 3: [], 4: []}
    for stop in sorted(network.stops.values(), key=lambda s: s.id):
        quadrant = quadrant_of(stop.lat, stop.lon, axes)
        if quadrant is not None:
            by_quadrant[quadrant].append(stop)
    pairs: list[tuple[str, str]] = []
    for origin_q, dest_q in _DIRECTION_RULE[direction]:
        for origin in by_quadrant[origin_q]:
            for dest in by_quadrant[dest_q]:
                dist = haversine_km((origin.lat, origin.lon), (dest.lat, dest.lon))
                if min_km <= dist <= max_km:
                    pairs.append((origin.id, dest.id))
    pairs.sort()
    return pairs


def sample_requests(pairs: Sequence[tuple[str, str]], n_agents: int, seed: int) -> list[AgentRequest]:
    """Uniformly sample n agent requests (with replacement) from the pairs."""
    if not pairs:
        raise ScenarioError("no admissible origin-destination pairs for this scenario")
    rng = random.Random(seed)
    requests = []
    for agent in range(1, n_agents + 1):
        origin, dest = pairs[rng.randrange(len(pairs))]
        requests.append(AgentRequest(agent=agent, origin=origin, destination=dest))
    return requests


def generate_requests(network: TransitNetwork, scenario: ScenarioConfig) -> list[AgentRequest]:
    pairs = admissible_pairs(network, scenario.direction, scenario.min_km, scenario.max_km)
    return sample_requests(pairs, scenario.n_agents, scenario.seed)


def prepare_network(network: TransitNetwork, config: EngineConfig = EngineConfig()) -> tuple[TransitNetwork, RelaxedGraph]:
    """Add walking links, index departures per stop and build the relaxed
    graph (do once per network)."""
    prepared = add_walking_links(network, config.walk_max_km, config.walk_speed_kmh)
    prepared.stop_index  # build the cached index here, not in the first pipeline call
    return prepared, build_relaxed_graph(prepared)


@dataclass
class PipelineArtifacts:
    """Everything one pipeline run produced, for inspection and validation."""

    result: ExperimentResult
    graph: RelaxedGraph | None = None
    initial_plans: dict[AgentId, Plan] = field(default_factory=dict)
    joint: JointPlan | None = None
    groups: list[Group] = field(default_factory=list)
    parts: dict[int, list[Part]] = field(default_factory=dict)
    group_schedules: dict[int, ScheduleResult] = field(default_factory=dict)
    group_itineraries: dict[int, dict[AgentId, Itinerary]] = field(default_factory=dict)
    solo: dict[AgentId, SoloScheduleResult] = field(default_factory=dict)


def _map_ordered(fn, items, workers: int | None):
    """Apply fn to items, optionally in a thread pool; results keep item order."""
    if workers is None or workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def run_pipeline(
    network: TransitNetwork,
    requests: Sequence[AgentRequest],
    config: EngineConfig = EngineConfig(),
    model: SharedCostModel = SharedCostModel(),
    scenario: str = "adhoc",
    direction: str = "",
    seed: int = 0,
    parallel: int | None = None,
    prepared: tuple[TransitNetwork, RelaxedGraph] | None = None,
) -> PipelineArtifacts:
    """Run the three phases for one request set and collect all metrics.

    Raises InputError when two requests share an agent id.
    """
    seen: set[AgentId] = set()
    for request in requests:
        if request.agent in seen:
            raise InputError(f"duplicate agent id {request.agent!r} in requests")
        seen.add(request.agent)
    result = ExperimentResult(scenario=scenario, n_agents=len(requests), direction=direction, seed=seed)
    artifacts = PipelineArtifacts(result=result)
    t_start = time.perf_counter()

    if prepared is None:
        prepared = prepare_network(network, config)
    prepared_network, graph = prepared
    artifacts.graph = graph

    t0 = time.perf_counter()
    plans = _map_ordered(lambda req: plan_individual(graph, req), list(requests), parallel)
    result.timings["initial"] = time.perf_counter() - t0

    initial: dict[AgentId, Plan] = {}
    for request, plan in zip(requests, plans):
        if plan is None:
            result.unreachable_agents.append(request.agent)
        else:
            initial[request.agent] = plan
            result.initial_costs[request.agent] = plan.total_cost
    artifacts.initial_plans = initial

    t0 = time.perf_counter()
    if initial:
        joint = run_br_phase(initial.values(), graph, model)
        artifacts.joint = joint
        for agent in sorted(initial):
            result.shared_costs[agent] = agent_cost(joint, agent, model, graph)
        try:
            result.delta_c = cost_improvement(initial.values(), joint, model, graph)
        except InputError as exc:
            result.errors.append(f"cost improvement: {exc}")
    result.timings["br"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if artifacts.joint is not None:
        artifacts.groups = identify_groups(artifacts.joint)

        def schedule_one(group: Group) -> tuple[int, list[Part] | None, ScheduleResult, str | None]:
            try:
                parts = split_into_parts(group)
                tt = relevant_timetable(parts, prepared_network, group_id=group.id)
                limit = time_limit_for(len(group.agents), config)
                return group.id, parts, schedule_group(parts, tt, limit), None
            except JourneyShareError as exc:
                return group.id, None, ScheduleResult(schedule=None), f"group {group.id}: {exc}"

        group_outcomes = _map_ordered(schedule_one, artifacts.groups, parallel)

        solo_limit = time_limit_for(1, config)
        agents = sorted(initial)
        solo_results = _map_ordered(
            lambda agent: schedule_single_agent(initial[agent], prepared_network, solo_limit),
            agents,
            parallel,
        )
        artifacts.solo = dict(zip(agents, solo_results))

        for group, (group_id, parts, sched, error) in zip(artifacts.groups, group_outcomes):
            if error is not None:
                result.errors.append(error)
            if parts is not None:
                artifacts.parts[group_id] = parts
            artifacts.group_schedules[group_id] = sched
            group_durations: dict[AgentId, int] = {}
            solo_durations: dict[AgentId, int] = {}
            delta_t = None
            if sched.schedule is not None and parts is not None:
                itins = agent_itineraries(parts, sched.schedule)
                artifacts.group_itineraries[group_id] = itins
                group_durations = {a: itin.duration for a, itin in sorted(itins.items())}
                solo_itins = {a: artifacts.solo[a].itinerary for a in itins}
                solo_durations = {
                    a: itin.duration for a, itin in sorted(solo_itins.items()) if itin is not None
                }
                delta_t = prolongation(itins, solo_itins)
            result.groups.append(
                GroupRecord(
                    group_id=group_id,
                    size=len(group.agents),
                    matched=sched.schedule is not None,
                    timed_out=sched.timed_out,
                    group_durations=group_durations,
                    solo_durations=solo_durations,
                    delta_t=delta_t,
                )
            )
    result.timings["schedule"] = time.perf_counter() - t0
    result.timings["total"] = time.perf_counter() - t_start
    return artifacts


def _load_cell_network(cell: dict) -> TransitNetwork:
    source = cell.get("network", {})
    if "synthetic" in source:
        try:
            spec = SyntheticNetworkSpec(**source["synthetic"])
        except TypeError as exc:
            raise InputError(f"bad synthetic network settings: {exc}") from exc
        return build_synthetic_network(spec)
    if "stops" in source and "timetable" in source:
        return load_network(source["stops"], source["timetable"])
    raise InputError("cell network must give either 'synthetic' or 'stops'+'timetable'")


def default_matrix(
    agents: Sequence[int] = (2, 4, 6, 8, 10, 12, 14),
    seeds_per_direction: int = 10,
    base_seed: int = 1729,
) -> dict:
    """The default desk-scale batch: one synthetic grid scenario."""
    spec = DEFAULT_SYNTH_SPEC
    return {
        "scenario": f"grid{spec.width}x{spec.height}",
        "network": {
            "synthetic": {
                "width": spec.width,
                "height": spec.height,
                "spacing_km": spec.spacing_km,
                "headway_min": spec.headway_min,
                "leg_min": spec.leg_min,
                "first_departure": spec.first_departure,
                "last_arrival": spec.last_arrival,
                "line_offset_min": spec.line_offset_min,
            }
        },
        "agents": list(agents),
        "directions": list(DIRECTIONS),
        "seeds_per_direction": seeds_per_direction,
        "base_seed": base_seed,
        "min_km": 20.0,
        "max_km": 160.0,
    }


def load_matrix(path: str | Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}:{exc.lineno}: malformed JSON: {exc.msg}") from exc
    return data if isinstance(data, list) else [data]


def run_batch(
    matrix: dict | list[dict],
    out_path: str | Path | None = None,
    parallel: int | None = None,
) -> list[ExperimentResult]:
    """Run every cell of the matrix; optionally write results.csv."""
    cells = matrix if isinstance(matrix, list) else [matrix]
    results: list[ExperimentResult] = []
    for cell_index, cell in enumerate(cells):
        scenario = cell.get("scenario", f"cell{cell_index}")
        network = _load_cell_network(cell)
        try:
            config = EngineConfig(**cell.get("engine", {}))
        except TypeError as exc:
            raise InputError(f"cell {scenario!r}: bad engine settings: {exc}") from exc
        prepared = prepare_network(network, config)
        agents_list = cell.get("agents", [2])
        directions = cell.get("directions", list(DIRECTIONS))
        seeds_per_direction = int(cell.get("seeds_per_direction", 10))
        base_seed = int(cell.get("base_seed", 0))
        min_km = float(cell.get("min_km", 20.0))
        max_km = float(cell.get("max_km", 160.0))
        for di, direction in enumerate(directions):
            pairs = admissible_pairs(network, direction, min_km, max_km)
            for replicate in range(seeds_per_direction):
                seed = base_seed + 100000 * cell_index + 100 * di + replicate
                for n_agents in agents_list:
                    try:
                        requests = sample_requests(pairs, n_agents, seed)
                        artifacts = run_pipeline(
                            network,
                            requests,
                            config=config,
                            scenario=scenario,
                            direction=direction,
                            seed=seed,
                            parallel=parallel,
                            prepared=prepared,
                        )
                        results.append(artifacts.result)
                    except JourneyShareError as exc:
                        logger.error("experiment %s/%s/%d/%d failed: %s", scenario, direction, seed, n_agents, exc)
                        failed = ExperimentResult(
                            scenario=scenario, n_agents=n_agents, direction=direction, seed=seed
                        )
                        failed.errors.append(str(exc))
                        results.append(failed)
    results.sort(key=lambda r: (r.scenario, r.n_agents, r.direction, r.seed))
    if out_path is not None:
        write_results_csv(results, out_path)
    return results


def _number(record: dict[str, str], col: str, where: str, kind=float):
    """record[col] as a number; ParseError naming where and the column otherwise."""
    try:
        return kind(record[col])
    except ValueError:
        raise ParseError(f"{where}: non-numeric {col} {record[col]!r}") from None


def validate_results_file(path: str | Path) -> int:
    """Re-check row-level invariants of a results.csv; returns the row count."""
    from .metrics import RESULTS_COLUMNS

    with open(path, encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != RESULTS_COLUMNS:
            raise InputError(f"{path}: unexpected header {header}")
        count = 0
        for lineno, row in enumerate(reader, start=2):
            count += 1
            where = f"{path}:{lineno}"
            if len(row) != len(RESULTS_COLUMNS):
                raise ParseError(f"{where}: expected {len(RESULTS_COLUMNS)} fields, got {len(row)}")
            record = dict(zip(RESULTS_COLUMNS, row))
            if record["delta_c"]:
                if _number(record, "delta_c", where) < -1e-12:
                    raise ConsistencyError(f"{path}:{lineno}: negative delta_c {record['delta_c']}")
            is_summary = record["group_id"] == ""
            if is_summary and (record["group_size"] or record["matched"] or record["delta_t"]):
                raise ConsistencyError(f"{path}:{lineno}: summary row carries group fields")
            if not is_summary:
                if record["matched"] not in ("0", "1") or record["timed_out"] not in ("0", "1"):
                    raise ConsistencyError(f"{path}:{lineno}: matched/timed_out must be  0 or 1")
                if record["delta_t"] and record["matched"] != "1":
                    raise ConsistencyError(f"{path}:{lineno}: delta_t present on unmatched group")
                if _number(record, "group_size", where, int) < 1:
                    raise ConsistencyError(f"{path}:{lineno}: group_size must be >= 1")
            for col in ("t_initial_s", "t_br_s", "t_schedule_s", "t_total_s"):
                if record[col] == "" or _number(record, col, where) < 0:
                    raise ConsistencyError(f"{path}:{lineno}: missing or negative timing {col}")
    return count
