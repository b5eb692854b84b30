"""Synthetic grid networks for desk-scale experiments.

Stops form a W x H grid; every row and every column carries a line served in
both directions at a fixed headway inside a service window.  Grids are built
directly as network objects; generate_synthetic_network writes them with
save_network, so the files reload through load_network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .errors import InputError, ValidationError
from .transit import DAY_MINUTES, Stop, TimetabledConnection, TransitNetwork, make_network, save_network

KM_PER_DEG_LAT = 111.1949
BASE_LAT = 50.0
BASE_LON = 0.0


@dataclass(frozen=True)
class SyntheticNetworkSpec:
    width: int
    height: int
    spacing_km: float = 8.0
    headway_min: int = 30
    leg_min: int = 10
    mode: str = "rail"
    first_departure: int = 0
    last_arrival: int = DAY_MINUTES
    # per-line phase stagger so that transfers between lines genuinely wait
    line_offset_min: int = 0

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1 or self.width * self.height < 2:
            raise InputError("grid must contain at least two stops")
        if self.spacing_km <= 0 or self.headway_min <= 0 or self.leg_min <= 0:
            raise InputError("spacing, headway and leg duration must be positive")
        if not 0 <= self.first_departure < self.last_arrival <= DAY_MINUTES:
            raise InputError("service window must satisfy 0 <= first < last <= 1440")
        if self.line_offset_min < 0:
            raise InputError("line offset must be nonnegative")


def stop_id(col: int, row: int) -> str:
    return f"S{col:02d}{row:02d}"


def _departures(spec: SyntheticNetworkSpec, line_length: int, line_index: int) -> list[int]:
    travel = (line_length - 1) * spec.leg_min
    offset = (line_index * spec.line_offset_min) % spec.headway_min
    deps = []
    t = spec.first_departure + offset
    while t + travel <= spec.last_arrival:
        deps.append(t)
        t += spec.headway_min
    return deps


def build_synthetic_network(spec: SyntheticNetworkSpec) -> TransitNetwork:
    """The grid of the spec as network objects; raises ValidationError when
    Stop's checks reject a stop or two grid cells share a stop id.

    The legs are emitted in NETWORK_ORDER while the grid's ids stay two
    digits (width and height up to 100), so make_network keeps them as they
    come; a wider grid's legs are sorted there."""
    dlat = spec.spacing_km / KM_PER_DEG_LAT
    dlon = spec.spacing_km / (KM_PER_DEG_LAT * math.cos(math.radians(BASE_LAT)))
    stops: dict[str, Stop] = {}
    for col in range(spec.width):
        for row in range(spec.height):
            lat = BASE_LAT + row * dlat
            lon = BASE_LON + col * dlon
            stop = Stop(stop_id(col, row), f"Grid c{col} r{row}", lat, lon, spec.mode)
            if stop.id in stops:
                raise ValidationError(f"grid cells {stops[stop.id].name!r} and {stop.name!r} share stop id {stop.id}")
            stops[stop.id] = stop

    connections: list[TimetabledConnection] = []

    def emit_line(service: str, line_stops: list[str], line_index: int) -> None:
        for dep in _departures(spec, len(line_stops), line_index):
            run = f"{service}T{dep:04d}"
            for k in range(len(line_stops) - 1):
                departure = dep + k * spec.leg_min
                connections.append(
                    TimetabledConnection(service, run, k + 1, line_stops[k], line_stops[k + 1], departure, spec.leg_min)
                )

    # rows (H) before columns (V), A before B: service-id order.  The line
    # indices, which set the stagger, are numbered columns first
    v_lines = spec.width if spec.height >= 2 else 0
    if spec.width >= 2:
        for row in range(spec.height):
            line_stops = [stop_id(col, row) for col in range(spec.width)]
            emit_line(f"H{row:02d}A", line_stops, v_lines + row)
            emit_line(f"H{row:02d}B", line_stops[::-1], v_lines + row)
    if spec.height >= 2:
        for col in range(spec.width):
            line_stops = [stop_id(col, row) for row in range(spec.height)]
            emit_line(f"V{col:02d}A", line_stops, col)
            emit_line(f"V{col:02d}B", line_stops[::-1], col)
    return make_network(stops, connections)


def generate_synthetic_network(spec: SyntheticNetworkSpec, out_dir: str | Path) -> tuple[Path, Path]:
    """Write stops.csv / timetable.csv for the grid and return their paths;
    a grid that fails a check writes nothing."""
    network = build_synthetic_network(spec)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stops_path = out_dir / "stops.csv"
    timetable_path = out_dir / "timetable.csv"
    save_network(network, stops_path, timetable_path)
    return stops_path, timetable_path
