"""Transit data model: stops, timetabled connections, walking links, and the
relaxed stop graph used for route planning.

The timetable is a set of vehicle *runs*: a run is one journey of one vehicle,
an ordered chain of legs.  The relaxed graph collapses the timetable to a
directed stop graph whose edge costs are minimal leg durations; nonstop legs
that overtake a stopping run between the same stops are filtered out so that
a route found on the graph names every intermediate stop it passes.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Mapping

from .errors import ParseError, ReferentialError, ValidationError, csv_rows, read_text

EARTH_RADIUS_KM = 6371.0
DAY_MINUTES = 1440

MODES = ("rail", "coach", "walk-node")

STOPS_HEADER = ["stop_id", "name", "lat", "lon", "mode"]
TIMETABLE_HEADER = [
    "service_id",
    "run_id",
    "seq",
    "from_stop",
    "to_stop",
    "departure_min",
    "duration_min",
]


@dataclass(frozen=True)
class Stop:
    """A point of access to the network, identified by an ATCO-style code."""

    id: str
    name: str
    lat: float
    lon: float
    mode: str

    def __post_init__(self) -> None:
        if not self.id:
            raise ValidationError("stop id must be non-empty")
        if not -90.0 <= self.lat <= 90.0:
            raise ValidationError(f"stop {self.id}: latitude {self.lat} out of range")
        if not -180.0 <= self.lon <= 180.0:
            raise ValidationError(f"stop {self.id}: longitude {self.lon} out of range")
        if self.mode not in MODES:
            raise ValidationError(f"stop {self.id}: unknown mode {self.mode!r}")


@dataclass(frozen=True)
class TimetabledConnection:
    """One leg of one vehicle run: depart from_stop, arrive to_stop later."""

    service_id: str
    run_id: str
    seq: int
    from_stop: str
    to_stop: str
    departure: int
    duration: int

    def __post_init__(self) -> None:
        if self.from_stop == self.to_stop:
            raise ValidationError(f"run {self.run_id} seq {self.seq}: leg loops at {self.from_stop}")
        if not 0 <= self.departure < DAY_MINUTES:
            raise ValidationError(
                f"run {self.run_id} seq {self.seq}: departure {self.departure} outside [0, {DAY_MINUTES})"
            )
        if self.duration <= 0:
            raise ValidationError(f"run {self.run_id} seq {self.seq}: duration must be positive")


@dataclass(frozen=True)
class WalkingLink:
    """An untimetabled link usable at any minute of the day."""

    from_stop: str
    to_stop: str
    duration: int


@dataclass(frozen=True)
class StopIndex:
    """Timetabled connections grouped by from_stop, each stop's departures in
    (departure, duration, run_id, seq) order; walking links grouped by stop
    pair, shortest first."""

    departures: Mapping[str, tuple[TimetabledConnection, ...]]
    walks: Mapping[tuple[str, str], tuple[WalkingLink, ...]]


@dataclass(frozen=True)
class TransitNetwork:
    """Immutable container for stops, timetabled connections and walking links."""

    stops: Mapping[str, Stop]
    connections: tuple[TimetabledConnection, ...]
    walking_links: frozenset[WalkingLink] = frozenset()

    @cached_property
    def stop_index(self) -> StopIndex:
        """Departures and walking links per stop, built on first use.

        The index references the network's own connection and link objects,
        ordered as StopIndex says (exact ties keep network order); scheduling
        keeps the first of equally good moves in this order.
        """
        departures: dict[str, list[TimetabledConnection]] = {}
        for conn in self.connections:
            departures.setdefault(conn.from_stop, []).append(conn)
        walks: dict[tuple[str, str], list[WalkingLink]] = {}
        for link in self.walking_links:
            walks.setdefault((link.from_stop, link.to_stop), []).append(link)
        by_time = attrgetter("departure", "duration", "run_id", "seq")
        return StopIndex(
            departures={stop: tuple(sorted(conns, key=by_time)) for stop, conns in departures.items()},
            walks={pair: tuple(sorted(links, key=attrgetter("duration"))) for pair, links in walks.items()},
        )

    def runs(self) -> dict[str, tuple[TimetabledConnection, ...]]:
        """Connections grouped by run id, each run ordered by seq."""
        grouped: dict[str, list[TimetabledConnection]] = {}
        for conn in self.connections:
            grouped.setdefault(conn.run_id, []).append(conn)
        return {
            run_id: tuple(sorted(legs, key=lambda c: c.seq))
            for run_id, legs in sorted(grouped.items())
        }


@dataclass(frozen=True)
class RelaxedGraph:
    """Directed stop graph with minimal inter-stop durations."""

    nodes: frozenset[str]
    edges: Mapping[tuple[str, str], int]
    out_neighbours: Mapping[str, tuple[str, ...]] = field(default_factory=dict)

    def neighbours(self, node: str) -> tuple[str, ...]:
        return self.out_neighbours.get(node, ())


def haversine_km(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Great-circle distance in kilometres between two (lat, lon) points."""
    lat1, lon1 = math.radians(a[0]), math.radians(a[1])
    lat2, lon2 = math.radians(b[0]), math.radians(b[1])
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(h))


def _open_csv(source: str | Path | Iterable[str], label: str) -> tuple[Iterable[str], str]:
    if isinstance(source, (str, Path)):
        path = Path(source)
        return read_text(path).splitlines(), str(path)
    return source, label


def _check_header(row: list[str], expected: list[str], name: str) -> None:
    if [c.strip() for c in row] != expected:
        raise ParseError(f"{name}:1: expected header {','.join(expected)!r}, got {','.join(row)!r}")


def load_stops(source: str | Path | Iterable[str]) -> dict[str, Stop]:
    lines, name = _open_csv(source, "<stops>")
    reader = csv_rows(lines, name)
    stops: dict[str, Stop] = {}
    for lineno, row in enumerate(reader, start=1):
        if lineno == 1:
            _check_header(row, STOPS_HEADER, name)
            continue
        if not row:
            continue
        if len(row) != len(STOPS_HEADER):
            raise ParseError(f"{name}:{lineno}: expected {len(STOPS_HEADER)} fields, got {len(row)}")
        stop_id, stop_name, lat, lon, mode = (c.strip() for c in row)
        try:
            stop = Stop(stop_id, stop_name, float(lat), float(lon), mode)
        except ValueError as exc:
            raise ParseError(f"{name}:{lineno}: bad coordinate in {row!r}") from exc
        except ValidationError as exc:
            raise ParseError(f"{name}:{lineno}: {exc}") from exc
        if stop.id in stops:
            raise ParseError(f"{name}:{lineno}: duplicate stop id {stop.id!r}")
        stops[stop.id] = stop
    return stops


def make_network(stops: Mapping[str, Stop], connections: Iterable[TimetabledConnection]) -> TransitNetwork:
    """The network, connections ordered by (service_id, run_id, seq); ValidationError on a broken run."""
    connections = tuple(sorted(connections, key=lambda c: (c.service_id, c.run_id, c.seq)))
    network = TransitNetwork(stops=stops, connections=connections)
    for run_id, legs in network.runs().items():
        services = {c.service_id for c in legs}
        if len(services) > 1:
            raise ValidationError(f"run {run_id} spans services {sorted(services)}")
        for k, leg in enumerate(legs, start=1):
            if leg.seq != k:
                raise ValidationError(f"run {run_id}: seq values not consecutive from 1")
        for prev, nxt in zip(legs, legs[1:]):
            if nxt.from_stop != prev.to_stop:
                raise ValidationError(
                    f"run {run_id} seq {nxt.seq}: departs {nxt.from_stop} but previous leg ends at {prev.to_stop}"
                )
            if nxt.departure < prev.departure + prev.duration:
                raise ValidationError(
                    f"run {run_id} seq {nxt.seq}: departs at {nxt.departure} before arrival of previous leg"
                )
    return network


def load_network(
    stops_source: str | Path | Iterable[str],
    timetable_source: str | Path | Iterable[str],
) -> TransitNetwork:
    """Load and validate a network from the stops and timetable CSV files.

    Duplicate timetable rows (same run_id and seq) collapse to the last
    occurrence.  Raises ParseError on malformed rows, ReferentialError on
    dangling stop ids and ValidationError on broken run structure.
    """
    stops = load_stops(stops_source)
    lines, name = _open_csv(timetable_source, "<timetable>")
    reader = csv_rows(lines, name)
    rows: dict[tuple[str, int], TimetabledConnection] = {}
    for lineno, row in enumerate(reader, start=1):
        if lineno == 1:
            _check_header(row, TIMETABLE_HEADER, name)
            continue
        if not row:
            continue
        if len(row) != len(TIMETABLE_HEADER):
            raise ParseError(f"{name}:{lineno}: expected {len(TIMETABLE_HEADER)} fields, got {len(row)}")
        service_id, run_id, seq, from_stop, to_stop, departure, duration = (c.strip() for c in row)
        try:
            conn = TimetabledConnection(
                service_id, run_id, int(seq), from_stop, to_stop, int(departure), int(duration)
            )
        except ValueError as exc:
            raise ParseError(f"{name}:{lineno}: non-integer field in {row!r}") from exc
        except ValidationError as exc:
            raise ParseError(f"{name}:{lineno}: {exc}") from exc
        for stop_id in (conn.from_stop, conn.to_stop):
            if stop_id not in stops:
                raise ReferentialError(f"{name}:{lineno}: unknown stop {stop_id!r}")
        rows[(conn.run_id, conn.seq)] = conn
    return make_network(stops, rows.values())


def save_network(network: TransitNetwork, stops_path: str | Path, timetable_path: str | Path) -> None:
    """Write a network to the two CSV formats accepted by load_network.

    Walking links are derived data and are not serialized; re-add them with
    add_walking_links after reloading.
    """
    with open(stops_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(STOPS_HEADER)
        for stop in sorted(network.stops.values(), key=lambda s: s.id):
            writer.writerow([stop.id, stop.name, repr(stop.lat), repr(stop.lon), stop.mode])
    with open(timetable_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TIMETABLE_HEADER)
        for conn in network.connections:
            writer.writerow(
                [conn.service_id, conn.run_id, conn.seq, conn.from_stop, conn.to_stop, conn.departure, conn.duration]
            )


def walking_duration_min(distance_km: float, walk_speed_kmh: float) -> int:
    # coincident stops would give 0, which would break edge-cost positivity
    return max(1, math.ceil(60.0 * distance_km / walk_speed_kmh))


def add_walking_links(
    network: TransitNetwork,
    max_distance_km: float = 0.5,
    walk_speed_kmh: float = 5.0,
) -> TransitNetwork:
    """Return a network with walking links between all stop pairs within range.

    Links are added in both directions with duration ceil(60 * d / speed)
    minutes; applying the operation twice yields the same link set.
    """
    if max_distance_km <= 0:
        raise ValidationError("max_distance_km must be positive")
    if walk_speed_kmh <= 0:
        raise ValidationError("walk_speed_kmh must be positive")
    links = set(network.walking_links)
    by_lat = sorted(network.stops.values(), key=lambda s: (s.lat, s.id))
    # stops further apart in latitude than the threshold cannot be in range
    max_dlat = max_distance_km / 111.0 + 1e-9
    for i, a in enumerate(by_lat):
        for b in by_lat[i + 1:]:
            if b.lat - a.lat > max_dlat:
                break
            dist = haversine_km((a.lat, a.lon), (b.lat, b.lon))
            if dist > max_distance_km:
                continue
            minutes = walking_duration_min(dist, walk_speed_kmh)
            links.add(WalkingLink(a.id, b.id, minutes))
            links.add(WalkingLink(b.id, a.id, minutes))
    return TransitNetwork(stops=network.stops, connections=network.connections, walking_links=frozenset(links))


def _run_visits(legs: tuple[TimetabledConnection, ...]) -> list[str]:
    return [legs[0].from_stop] + [leg.to_stop for leg in legs]


def _express_excluded(network: TransitNetwork) -> set[tuple[str, str]]:
    """Ordered stop pairs whose nonstop legs are dropped from the relaxed graph.

    A pair (A, B) with timetabled legs is dropped when some run travels from
    A to B through at least one intermediate stop; that run's consecutive-pair
    edges then stand in for the nonstop leg.  Consecutive pairs used as a
    witness are locked so that every dropped pair keeps a fully present
    stopping route in the final graph, even when runs overtake each other
    mutually.
    """
    direct_pairs = {(c.from_stop, c.to_stop) for c in network.connections}
    covering: dict[tuple[str, str], list[tuple[str, int, int]]] = {}
    visits_by_run: dict[str, list[str]] = {}
    for run_id, legs in network.runs().items():
        visits = _run_visits(legs)
        visits_by_run[run_id] = visits
        for i in range(len(visits)):
            for j in range(i + 2, len(visits)):
                pair = (visits[i], visits[j])
                if pair in direct_pairs and pair[0] != pair[1]:
                    covering.setdefault(pair, []).append((run_id, i, j))

    excluded: set[tuple[str, str]] = set()
    locked: set[tuple[str, str]] = set()
    for pair in sorted(covering):
        if pair in locked:
            continue
        for run_id, i, j in sorted(covering[pair]):
            visits = visits_by_run[run_id]
            segment = [(visits[k], visits[k + 1]) for k in range(i, j)]
            if pair in segment:
                continue
            if any(p in excluded for p in segment):
                continue
            excluded.add(pair)
            locked.update(segment)
            break
    return excluded


def build_relaxed_graph(network: TransitNetwork) -> RelaxedGraph:
    """Collapse the timetable to a directed graph of minimal leg durations."""
    excluded = _express_excluded(network)
    shortest: dict[tuple[str, str], int] = {}
    for leg in (*network.connections, *network.walking_links):
        pair = (leg.from_stop, leg.to_stop)
        if pair not in excluded:
            shortest[pair] = min(leg.duration, shortest.get(pair, leg.duration))
    edges = {pair: shortest[pair] for pair in sorted(shortest)}

    out: dict[str, list[str]] = {}
    for a, b in edges:
        out.setdefault(a, []).append(b)
    out_neighbours = {a: tuple(sorted(bs)) for a, bs in out.items()}
    return RelaxedGraph(
        nodes=frozenset(network.stops),
        edges=edges,
        out_neighbours=out_neighbours,
    )
