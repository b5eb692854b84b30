"""End-to-end pipeline and batch experiment runner.

An experiment samples same-direction travel requests from a network, runs the
three phases (solo routing, best-response sharing, timetabling) and records
cost improvement, per-group prolongation and matching outcomes.  Batches are
seed-deterministic: identical matrices produce identical results.csv apart
from the timing columns.
"""

from __future__ import annotations

import io
import json
import logging
import math
import random
import statistics
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Sequence

from .best_response import JointPlan, agent_cost, run_br_phase
from .config import EngineConfig
from .errors import ConsistencyError, InputError, JourneyShareError, ParseError, ScenarioError, csv_rows, read_text
from .grouping import Group, Part, identify_groups, relevant_timetable, split_into_parts
from .metrics import ExperimentResult, GroupRecord, cost_improvement, prolongation, write_results_csv
from .planning import AgentId, AgentRequest, Plan, plan_individual
from .scheduling import ScheduleResult, schedule_group, schedule_single_agent, time_limit_for
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
    initial_plans: dict[AgentId, Plan] = field(default_factory=dict)
    joint: JointPlan | None = None
    groups: list[Group] = field(default_factory=list)
    parts: dict[int, list[Part]] = field(default_factory=dict)
    group_schedules: dict[int, ScheduleResult] = field(default_factory=dict)
    solo: dict[AgentId, ScheduleResult] = field(default_factory=dict)


def run_pipeline(
    network: TransitNetwork,
    requests: Sequence[AgentRequest],
    config: EngineConfig = EngineConfig(),
    scenario: str = "adhoc",
    direction: str = "",
    seed: int = 0,
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

    t0 = time.perf_counter()
    initial: dict[AgentId, Plan] = {}
    for request in requests:
        plan = plan_individual(graph, request)
        if plan is None:
            result.unreachable_agents.append(request.agent)
        else:
            initial[request.agent] = plan
            result.initial_costs[request.agent] = plan.total_cost
    artifacts.initial_plans = initial
    result.timings["initial"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if initial:
        joint = run_br_phase(initial.values(), graph)
        artifacts.joint = joint
        for agent in sorted(initial):
            result.shared_costs[agent] = agent_cost(joint, agent, graph)
        try:
            result.delta_c = cost_improvement(initial.values(), joint, graph)
        except InputError as exc:
            result.errors.append(f"cost improvement: {exc}")
    result.timings["br"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if artifacts.joint is not None:
        solo_limit = time_limit_for(1, config)
        for agent in sorted(initial):
            artifacts.solo[agent] = schedule_single_agent(initial[agent], prepared_network, solo_limit)
        artifacts.groups = identify_groups(artifacts.joint)
        for group in artifacts.groups:
            try:
                parts = split_into_parts(group)
                tt = relevant_timetable(parts, prepared_network)
                sched = schedule_group(parts, tt, time_limit_for(len(group.agents), config))
                artifacts.parts[group.id] = parts
            except JourneyShareError as exc:
                result.errors.append(f"group {group.id}: {exc}")
                sched = ScheduleResult(schedule=None)
            artifacts.group_schedules[group.id] = sched
            solo_itins = {a: artifacts.solo[a].itineraries.get(a) for a in sched.itineraries}
            result.groups.append(
                GroupRecord(
                    group_id=group.id,
                    size=len(group.agents),
                    matched=sched.feasible,
                    timed_out=sched.timed_out,
                    group_durations={a: itin.duration for a, itin in sched.itineraries.items()},
                    solo_durations={a: itin.duration for a, itin in solo_itins.items() if itin is not None},
                    delta_t=prolongation(sched.itineraries, solo_itins) if sched.feasible else None,
                )
            )
    result.timings["schedule"] = time.perf_counter() - t0
    result.timings["total"] = time.perf_counter() - t_start
    return artifacts


def _load_cell_network(source: dict, where: str) -> TransitNetwork:
    if "synthetic" in source:
        try:
            spec = SyntheticNetworkSpec(**source["synthetic"])
        except (TypeError, InputError) as exc:
            raise InputError(f"{where}: bad network.synthetic settings: {exc}") from exc
        try:
            return build_synthetic_network(spec)
        except JourneyShareError as exc:
            raise InputError(f"{where}: network.synthetic gives a bad grid: {exc}") from exc
    if "stops" in source and "timetable" in source:
        return load_network(source["stops"], source["timetable"])
    raise InputError(f"{where}: network must give either 'synthetic' or 'stops'+'timetable'")


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
    try:
        data = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: malformed JSON: {exc.msg}") from exc
    return data if isinstance(data, list) else [data]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


def _is_finite(value) -> bool:
    return _is_number(value) and math.isfinite(value)


# the rule for each network.synthetic key, by the type SyntheticNetworkSpec gives it
_TYPE_RULES = {
    "int": ("an integer", _is_int),
    "float": ("a finite number", _is_finite),
    "str": ("a string", lambda v: isinstance(v, str)),
}
_SYNTHETIC_RULES = {f.name: _TYPE_RULES[f.type] for f in fields(SyntheticNetworkSpec)}


def _cell_settings(cell, cell_index: int) -> dict:
    """The cell's settings with defaults filled in.

    Raises InputError naming the cell index, the scenario and the first key
    whose value breaks its rule.
    """
    if not isinstance(cell, dict):
        raise InputError(f"matrix cell {cell_index}: expected a JSON object, got {cell!r}")
    settings = {
        "scenario": f"cell{cell_index}",
        "network": {},
        "engine": {},
        "agents": [2],
        "directions": list(DIRECTIONS),
        "seeds_per_direction": 10,
        "base_seed": 0,
        "min_km": 20.0,
        "max_km": 160.0,
        **cell,
    }
    rules = {
        "scenario": ("a string", lambda v: isinstance(v, str)),
        "network": ("an object", lambda v: isinstance(v, dict)),
        "engine": ("an object of finite numbers", lambda v: isinstance(v, dict) and all(map(_is_finite, v.values()))),
        "agents": ("a list of integers >= 1", lambda v: isinstance(v, list) and all(_is_int(n) and n >= 1 for n in v)),
        "directions": (
            f"a list drawn from {list(DIRECTIONS)}",
            lambda v: isinstance(v, list) and all(d in DIRECTIONS for d in v),
        ),
        "seeds_per_direction": ("an integer >= 0", lambda v: _is_int(v) and v >= 0),
        "base_seed": ("an integer", _is_int),
        "min_km": ("a number >= 0", lambda v: _is_number(v) and v >= 0),
        "max_km": ("a number above min_km", lambda v: _is_number(v) and v > settings["min_km"]),
    }

    def require(key: str, value, rule: str, holds) -> None:
        if not holds(value):
            raise InputError(
                f"matrix cell {cell_index} (scenario {settings['scenario']!r}): {key} must be {rule}, got {value!r}"
            )

    for key, (rule, holds) in rules.items():
        require(key, settings[key], rule, holds)
    network = settings["network"]
    if "synthetic" in network:
        require("network.synthetic", network["synthetic"], "an object", lambda v: isinstance(v, dict))
        for key, value in network["synthetic"].items():
            if key in _SYNTHETIC_RULES:
                require(f"network.synthetic.{key}", value, *_SYNTHETIC_RULES[key])
    for key in ("stops", "timetable"):
        if key in network:
            require(f"network.{key}", network[key], "a path string", lambda v: isinstance(v, str))
    return settings


def run_batch(
    matrix: dict | list[dict],
    out_path: str | Path | None = None,
    parallel: int | None = None,
) -> list[ExperimentResult]:
    """Run every cell of the matrix; optionally write results.csv.

    Experiments run one after another.  `parallel` is accepted for existing
    callers and ignored: threads do not speed up this pure-Python work under
    the GIL, and perfbench's tracer, which wraps run_pipeline, keeps one span
    stack that calls from two threads corrupt.  Raises InputError for a cell
    whose settings break a rule of _cell_settings.
    """
    cells = matrix if isinstance(matrix, list) else [matrix]
    results: list[ExperimentResult] = []
    for cell_index, cell in enumerate(cells):
        settings = _cell_settings(cell, cell_index)
        scenario = settings["scenario"]
        where = f"matrix cell {cell_index} (scenario {scenario!r})"
        network = _load_cell_network(settings["network"], where)
        try:
            config = EngineConfig(**settings["engine"])
        except TypeError as exc:
            raise InputError(f"{where}: bad engine settings: {exc}") from exc
        prepared = prepare_network(network, config)
        for di, direction in enumerate(settings["directions"]):
            pairs = admissible_pairs(network, direction, settings["min_km"], settings["max_km"])
            for replicate in range(settings["seeds_per_direction"]):
                seed = settings["base_seed"] + 100000 * cell_index + 100 * di + replicate
                for n_agents in settings["agents"]:
                    t_start = time.perf_counter()
                    try:
                        requests = sample_requests(pairs, n_agents, seed)
                        artifacts = run_pipeline(
                            network,
                            requests,
                            config=config,
                            scenario=scenario,
                            direction=direction,
                            seed=seed,
                            prepared=prepared,
                        )
                        results.append(artifacts.result)
                    except JourneyShareError as exc:
                        logger.error("experiment %s/%s/%d/%d failed: %s", scenario, direction, seed, n_agents, exc)
                        failed = ExperimentResult(
                            scenario=scenario, n_agents=n_agents, direction=direction, seed=seed
                        )
                        failed.errors.append(str(exc))
                        # a failed experiment reached no phase, but validate still needs every timing
                        failed.timings = dict.fromkeys(("initial", "br", "schedule"), 0.0)
                        failed.timings["total"] = time.perf_counter() - t_start
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

    with io.StringIO(read_text(path)) as fh:
        reader = csv_rows(fh, str(path))
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
                if record["matched"] == "1" and record["timed_out"] == "1":
                    raise ConsistencyError(f"{path}:{lineno}: timed-out group marked matched")
                if record["delta_t"]:
                    if record["matched"] != "1":
                        raise ConsistencyError(f"{path}:{lineno}: delta_t present on unmatched group")
                    _number(record, "delta_t", where)
                if _number(record, "group_size", where, int) < 1:
                    raise ConsistencyError(f"{path}:{lineno}: group_size must be >= 1")
            for col in ("t_initial_s", "t_br_s", "t_schedule_s", "t_total_s"):
                if record[col] == "" or _number(record, col, where) < 0:
                    raise ConsistencyError(f"{path}:{lineno}: missing or negative timing {col}")
    return count
