"""End-to-end pipeline and batch experiment runner.

An experiment samples same-direction travel requests from a network, runs the
three phases (solo routing, best-response sharing, timetabling) and records
cost improvement, per-group prolongation and matching outcomes.  Batches are
seed-deterministic: identical matrices produce identical results.csv apart
from the timing columns.
"""

from __future__ import annotations

import json
import logging
import math
import random
import statistics
import time
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Iterator, Sequence
from dataclasses import asdict, dataclass, field, fields
from itertools import accumulate
from pathlib import Path

from .best_response import JointPlan, agent_cost, run_br_phase
from .config import EngineConfig
from .errors import ConsistencyError, InputError, JourneyShareError, ParseError, ScenarioError, read_csv, read_text
from .grouping import Group, Part, identify_groups, relevant_timetable, split_into_parts
from .metrics import (
    RESULTS_COLUMNS, TIMING_COLUMNS, ExperimentResult, GroupRecord, cost_improvement, prolongation, write_results_csv
)
from .planning import AgentId, AgentRequest, Plan, plan_individual
from .scheduling import ScheduleResult, schedule_group, schedule_single_agent, time_limit_for
from .synth import SyntheticNetworkSpec, build_synthetic_network
from .transit import (
    EARTH_RADIUS_KM,
    RelaxedGraph,
    TransitNetwork,
    add_walking_links,
    build_relaxed_graph,
    haversine_km,
    latitude_window_deg,
    load_network,
)

logger = logging.getLogger(__name__)

# the admissible distance between a request's origin and destination, in km
PAIR_MIN_KM = 20.0
PAIR_MAX_KM = 160.0

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
    stops = network.stops.values()
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
DIRECTIONS = tuple(_DIRECTION_RULE)


class PairTable(Sequence[tuple[str, str]]):
    """The admissible (origin, destination) stop pairs of one direction, in
    sorted order, with no tuple held per pair.

    `stops` holds the network's stop ids in id order, and a stop is named by
    its position there.  `origins` holds the origins that have a pair, in id
    order, and `rows[i]` the destination positions of `origins[i]`, sorted
    ascending (admissible_pairs gathers them cell by cell, not in order).
    `ends[i]` is the number of pairs in rows 0..i, so the k-th pair is found
    by bisecting the ends, and `size` is the number of pairs.
    """

    __slots__ = ("stops", "origins", "rows", "ends", "size")

    def __init__(self, stops: list[str], origins: Sequence[int], rows: list[array]):
        self.stops = stops
        self.origins = array("i", origins)
        self.rows = rows
        self.ends = array("q", accumulate(map(len, rows)))
        self.size = self.ends[-1] if rows else 0

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, k: int) -> tuple[str, str]:
        size = self.size
        if k < 0:
            k += size
        if not 0 <= k < size:
            raise IndexError("pair index out of range")
        ends = self.ends
        i = bisect_right(ends, k)
        row = self.rows[i]
        # row i holds pairs ends[i] - len(row) up to ends[i]
        return self.stops[self.origins[i]], self.stops[row[k - ends[i] + len(row)]]

    def __iter__(self) -> Iterator[tuple[str, str]]:
        stops = self.stops
        for origin, row in zip(self.origins, self.rows):
            for dest in row:
                yield stops[origin], stops[dest]


# slack, in km, on a cell's radius and on the window a cell is decided against
_CELL_MARGIN_KM = 1e-6


def _cells(
    members: list[tuple], stops: list, height: float, width: float
) -> tuple[list[tuple], list[int], list[float], list[float]]:
    """Destination stops of admissible_pairs bucketed into cells height
    degrees of latitude by width degrees of longitude.

    Each cell is (centre lat radians, centre lon radians, cos of centre lat
    radians, radius km, member positions, members); its radius is the largest
    centre-to-member haversine_km plus _CELL_MARGIN_KM.  The cells are listed
    band by band in rising latitude, band b holding cells[first[b]:first[b + 1]]
    and members from latitude lows[b] up to highs[b].
    """
    grid: dict[float, dict[float, list]] = {}
    for member in members:
        stop = stops[member[0]]
        grid.setdefault(stop.lat // height, {}).setdefault(stop.lon // width, []).append(member)
    cells: list[tuple] = []
    first: list[int] = []
    lows: list[float] = []
    highs: list[float] = []
    for band in sorted(grid):
        first.append(len(cells))
        lats = []
        for in_cell in grid[band].values():
            points = [(stops[member[0]].lat, stops[member[0]].lon) for member in in_cell]
            cell_lats, cell_lons = zip(*points)
            centre = ((min(cell_lats) + max(cell_lats)) / 2.0, (min(cell_lons) + max(cell_lons)) / 2.0)
            radius = max(haversine_km(centre, point) for point in points) + _CELL_MARGIN_KM
            lat = math.radians(centre[0])
            cells.append((lat, math.radians(centre[1]), math.cos(lat), radius, [m[0] for m in in_cell], in_cell))
            lats += cell_lats
        lows.append(min(lats))
        highs.append(max(lats))
    first.append(len(cells))
    return cells, first, lows, highs


def admissible_pairs(
    network: TransitNetwork, direction: str, min_km: float = PAIR_MIN_KM, max_km: float = PAIR_MAX_KM
) -> PairTable:
    """All origin-destination stop pairs admissible for one travel direction,
    as a PairTable: one array of destination positions per origin, with no
    tuple per pair.

    The destination quadrant's stops are bucketed into cells about max_km / 6
    on a side (_cells).  An origin visits only the bands of cells its latitude
    window reaches, and bounds each cell's members by the triangle
    inequality: each lies within the centre's distance plus or minus the
    cell's radius.  A cell whose bounds lie inside the window narrowed by
    _CELL_MARGIN_KM is taken whole; one whose bounds lie outside the window
    widened by it is skipped; each member of any other cell is measured as
    before.  A member whose latitude gap alone puts it beyond max_km is
    skipped unmeasured, and the others are measured with haversine_km's
    expression, evaluated in the same order so that it is the same float,
    with each stop's radians and latitude cosine taken once per call.  Each
    row of destination positions is then sorted.

    So the table is the one measuring every pair gives:
    - the margin, 1e-6 km, is far above the float error of the expression,
      which is about 1e-12 km at these distances, so no pair the bounds
      decide has a measured distance on the other side of a window edge;
    - every pair of a cell taken whole also passes the latitude prune: its
      distance is at most max_km, and haversine_km gives at least 111.19 km
      per degree of latitude gap, beyond the 111.0 of latitude_window_deg.
    """
    if direction not in _DIRECTION_RULE:
        raise InputError(f"unknown direction {direction!r}")
    axes = quadrant_axes(network)
    stops = sorted(network.stops.values(), key=lambda s: s.id)
    # per quadrant, each stop as (position, lat, lat radians, lon radians, cos of lat radians)
    by_quadrant: dict[int, list] = {1: [], 2: [], 3: [], 4: []}
    for position, stop in enumerate(stops):
        quadrant = quadrant_of(stop.lat, stop.lon, axes)
        if quadrant is not None:
            lat = math.radians(stop.lat)
            by_quadrant[quadrant].append((position, stop.lat, lat, math.radians(stop.lon), math.cos(lat)))
    window = latitude_window_deg(max_km)
    # a cell is a sixth of the window high, and as many km wide at the axis latitude
    height = window / 6
    width = height / math.cos(math.radians(axes[0]))
    take_min, take_max = min_km + _CELL_MARGIN_KM, max_km - _CELL_MARGIN_KM
    skip_min, skip_max = min_km - _CELL_MARGIN_KM, max_km + _CELL_MARGIN_KM
    sin, asin, sqrt, diameter = math.sin, math.asin, math.sqrt, 2.0 * EARTH_RADIUS_KM
    rows: dict[int, array] = {}
    for origin_q, dest_q in _DIRECTION_RULE[direction]:
        cells, first, lows, highs = _cells(by_quadrant[dest_q], stops, height, width)
        for origin, lat_deg, lat1, lon1, cos1 in by_quadrant[origin_q]:
            row: list[int] = []
            reach = cells[first[bisect_left(highs, lat_deg - window)] : first[bisect_right(lows, lat_deg + window)]]
            for lat2, lon2, cos2, radius, positions, members in reach:
                km = diameter * asin(sqrt(sin((lat2 - lat1) / 2.0) ** 2 + cos1 * cos2 * sin((lon2 - lon1) / 2.0) ** 2))
                if take_min <= km - radius and km + radius <= take_max:
                    row += positions
                elif skip_min <= km + radius and km - radius <= skip_max:
                    row += [
                        dest
                        for dest, dest_lat_deg, lat2, lon2, cos2 in members
                        if abs(dest_lat_deg - lat_deg) <= window
                        and min_km
                        <= diameter * asin(sqrt(sin((lat2 - lat1) / 2.0) ** 2 + cos1 * cos2 * sin((lon2 - lon1) / 2.0) ** 2))
                        <= max_km
                    ]
            if row:
                rows[origin] = array("i", sorted(row))
    origins = sorted(rows)
    return PairTable([stop.id for stop in stops], origins, [rows[origin] for origin in origins])


# the direction whose admissible pairs are a direction's own, turned round
_REVERSE = {"NS": "SN", "SN": "NS", "WE": "EW", "EW": "WE"}


def reversed_pairs(pairs: PairTable) -> PairTable:
    """admissible_pairs of the reverse direction, from one direction's.

    The reverse direction swaps the origin and destination quadrants, and
    haversine_km is symmetric, so every pair passes the same distance test.
    So the table is transposed, not re-sorted: visiting the origins in id
    order and appending each to its destinations' rows leaves every row
    ascending.
    """
    rows = [array("i") for _ in pairs.stops]
    for origin, row in zip(pairs.origins, pairs.rows):
        for dest in row:
            rows[dest].append(origin)
    origins = [position for position, row in enumerate(rows) if row]
    return PairTable(pairs.stops, origins, [rows[origin] for origin in origins])


def sample_requests(pairs: Sequence[tuple[str, str]], n_agents: int, seed: int) -> list[AgentRequest]:
    """Uniformly sample n agent requests (with replacement) from the pairs."""
    if not pairs:
        raise ScenarioError("no admissible origin-destination pairs for this scenario")
    rng = random.Random(seed)
    size = len(pairs)
    requests = []
    for agent in range(1, n_agents + 1):
        origin, dest = pairs[rng.randrange(size)]
        requests.append(AgentRequest(agent=agent, origin=origin, destination=dest))
    return requests


def prepare_network(network: TransitNetwork, config: EngineConfig = EngineConfig()) -> tuple[TransitNetwork, RelaxedGraph]:
    """Add walking links, index departures per stop and next stop, and build
    the relaxed graph (do once per network)."""
    prepared = add_walking_links(network, config.walk_max_km, config.walk_speed_kmh)
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
            result.delta_c = cost_improvement(result.initial_costs, result.shared_costs)
        except InputError as exc:
            result.errors.append(f"cost improvement: {exc}")
    result.timings["br"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if artifacts.joint is not None:
        solo_limit = time_limit_for(1, config)
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
            group_durations = {a: itin.duration for a, itin in sched.itineraries.items()}
            # the solo baselines, which only a matched group (one with itineraries) reads
            solo_durations = {}
            for a in group_durations:
                solo = schedule_single_agent(initial[a], prepared_network, solo_limit).itineraries.get(a)
                if solo is not None:
                    solo_durations[a] = solo.duration
            result.groups.append(
                GroupRecord(
                    group_id=group.id,
                    size=len(group.agents),
                    matched=sched.feasible,
                    timed_out=sched.timed_out,
                    group_durations=group_durations,
                    solo_durations=solo_durations,
                    delta_t=prolongation(group_durations, solo_durations) if sched.feasible else None,
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
        "network": {"synthetic": asdict(spec)},
        "agents": list(agents),
        "directions": list(DIRECTIONS),
        "seeds_per_direction": seeds_per_direction,
        "base_seed": base_seed,
        "min_km": PAIR_MIN_KM,
        "max_km": PAIR_MAX_KM,
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
        "min_km": PAIR_MIN_KM,
        "max_km": PAIR_MAX_KM,
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
    for key, value in settings["engine"].items():
        require(f"engine.{key}", value, "positive", lambda v: v > 0)
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
        pairs, previous = [], None
        for di, direction in enumerate(settings["directions"]):
            if previous == _REVERSE[direction]:
                pairs = reversed_pairs(pairs)
            else:
                pairs = admissible_pairs(network, direction, settings["min_km"], settings["max_km"])
            previous = direction
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
    """record[col] as a finite number; ParseError naming where and the column otherwise."""
    try:
        value = kind(record[col])
    except ValueError:
        raise ParseError(f"{where}: non-numeric {col} {record[col]!r}") from None
    if not math.isfinite(value):
        raise ParseError(f"{where}: non-finite {col} {record[col]!r}")
    return value


def validate_results_file(path: str | Path) -> int:
    """Re-check row-level invariants of a results.csv; returns the row count."""
    count = 0
    for lineno, row in read_csv(path, RESULTS_COLUMNS):
        count += 1
        where = f"{path}:{lineno}"
        record = dict(zip(RESULTS_COLUMNS, row))
        # run_batch writes a direction and at least one agent; plan writes no
        # direction, and older plan outputs hold rows of no agent
        least = 1 if record["direction"] else 0
        n_agents = _number(record, "n_agents", where, int)
        if n_agents < least:
            raise ConsistencyError(f"{where}: n_agents must be >= {least}")
        if record["direction"] and record["direction"] not in DIRECTIONS:
            raise ConsistencyError(f"{where}: unknown direction {record['direction']!r}")
        _number(record, "seed", where, int)
        if record["delta_c"]:
            if _number(record, "delta_c", where) < -1e-12:
                raise ConsistencyError(f"{where}: negative delta_c {record['delta_c']}")
        is_summary = record["group_id"] == ""
        if is_summary and (record["group_size"] or record["matched"] or record["delta_t"]):
            raise ConsistencyError(f"{where}: summary row carries group fields")
        if not is_summary:
            if _number(record, "group_id", where, int) < 0:
                raise ConsistencyError(f"{where}: negative group_id {record['group_id']}")
            if record["matched"] not in ("0", "1") or record["timed_out"] not in ("0", "1"):
                raise ConsistencyError(f"{where}: matched/timed_out must be 0 or 1")
            if record["matched"] == "1" and record["timed_out"] == "1":
                raise ConsistencyError(f"{where}: timed-out group marked matched")
            if record["delta_t"]:
                if record["matched"] != "1":
                    raise ConsistencyError(f"{where}: delta_t present on unmatched group")
                _number(record, "delta_t", where)
            group_size = _number(record, "group_size", where, int)
            if not 1 <= group_size <= n_agents:
                raise ConsistencyError(f"{where}: group_size must be from 1 to n_agents {n_agents}, got {group_size}")
        for col in TIMING_COLUMNS:
            if record[col] == "" or _number(record, col, where) < 0:
                raise ConsistencyError(f"{where}: missing or negative timing {col}")
    return count
