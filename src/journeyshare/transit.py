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
import heapq
import math
from array import array
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from operator import attrgetter, lt
from pathlib import Path
from typing import Iterable, Mapping

from .errors import JourneyShareError, ParseError, ReferentialError, ValidationError, read_csv

EARTH_RADIUS_KM = 6371.0
DAY_MINUTES = 1440
# a ReverseTree's entry for a node with no path to the destination (once its
# search is exhausted), and for a node its search has not settled yet
UNREACHABLE = -1
UNSETTLED = -2
# a ReverseTree's tentative key for a settled node: below every key, so no
# candidate replaces it
_SETTLED = -1
# the network's leg order, in which each run is one contiguous slice, in seq order
NETWORK_ORDER = attrgetter("service_id", "run_id", "seq")
# the order of a stop pair's departures, which earliest-arrival scans rely on
DEPARTURE_ORDER = attrgetter("departure", "duration", "run_id", "seq")
_departure = attrgetter("departure")

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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True, init=False)
class TimetabledConnection:
    """One leg of one vehicle run: depart from_stop, arrive to_stop later.

    __init__ (dataclasses.replace's too) rejects a looping leg, a departure outside
    the day and a non-positive duration, then sets each slot through its member
    descriptor, not the object.__setattr__ per field of a frozen dataclass __init__.
    """

    service_id: str
    run_id: str
    seq: int
    from_stop: str
    to_stop: str
    departure: int
    duration: int

    def __init__(
        self, service_id: str, run_id: str, seq: int, from_stop: str, to_stop: str, departure: int, duration: int
    ) -> None:
        if from_stop == to_stop:
            raise ValidationError(f"run {run_id} seq {seq}: leg loops at {from_stop}")
        if not 0 <= departure < DAY_MINUTES:
            raise ValidationError(f"run {run_id} seq {seq}: departure {departure} outside [0, {DAY_MINUTES})")
        if duration <= 0:
            raise ValidationError(f"run {run_id} seq {seq}: duration must be positive")
        _set_service_id(self, service_id)
        _set_run_id(self, run_id)
        _set_seq(self, seq)
        _set_from_stop(self, from_stop)
        _set_to_stop(self, to_stop)
        _set_departure(self, departure)
        _set_duration(self, duration)


# each slot's member-descriptor setter, bound once: the frozen class's __setattr__ refuses every write
(_set_service_id, _set_run_id, _set_seq, _set_from_stop, _set_to_stop, _set_departure, _set_duration) = (
    TimetabledConnection.__dict__[name].__set__ for name in TimetabledConnection.__slots__
)


@dataclass(frozen=True, slots=True)
class WalkingLink:
    """An untimetabled link usable at any minute of the day."""

    from_stop: str
    to_stop: str
    duration: int


def _in_departure_order(conns: list[TimetabledConnection]) -> tuple[TimetabledConnection, ...]:
    """conns in DEPARTURE_ORDER, sorted only when their departures do not
    strictly rise.  Two legs are compared directly: most pairs of a small
    group slice have two, and there the C-level check would cost more than
    the sort it saves."""
    if len(conns) > 2:
        minutes = list(map(_departure, conns))
        if not all(map(lt, minutes, minutes[1:])):
            conns.sort(key=DEPARTURE_ORDER)
    elif len(conns) == 2 and conns[0].departure >= conns[1].departure:
        conns.sort(key=DEPARTURE_ORDER)
    return tuple(conns)


@dataclass(frozen=True)
class TransitNetwork:
    """Immutable container for stops, timetabled connections and walking links.

    make_network leaves the connections in NETWORK_ORDER.  departures and
    walks, built on first use (in prepare_network), index the network's own
    connection and link objects per stop pair.
    """

    stops: Mapping[str, Stop]
    connections: tuple[TimetabledConnection, ...]
    walking_links: frozenset[WalkingLink] = frozenset()

    @cached_property
    def departures(self) -> dict[str, dict[str, tuple[TimetabledConnection, ...]]]:
        """from_stop -> to_stop -> departures in DEPARTURE_ORDER; merged on that
        key, a stop's departures to some next stops come in that order, the
        order in which scheduling keeps the first of equally good moves."""
        grouped: dict[str, dict[str, list[TimetabledConnection]]] = defaultdict(lambda: defaultdict(list))
        for conn in self.connections:
            grouped[conn.from_stop][conn.to_stop].append(conn)
        return {
            stop: {succ: _in_departure_order(conns) for succ, conns in to_stops.items()}
            for stop, to_stops in grouped.items()
        }

    @cached_property
    def walks(self) -> dict[tuple[str, str], tuple[WalkingLink, ...]]:
        """(from_stop, to_stop) -> its walking links, shortest first."""
        grouped: dict[tuple[str, str], list[WalkingLink]] = {}
        for link in self.walking_links:
            grouped.setdefault((link.from_stop, link.to_stop), []).append(link)
        return {pair: tuple(sorted(links, key=attrgetter("duration"))) for pair, links in grouped.items()}


@dataclass(frozen=True)
class RelaxedGraph:
    """Directed stop graph with minimal inter-stop durations.

    The search indexes (names, positions, out_edges, slots) and the
    per-destination trees are built on first use and are not fields, so
    they take no part in == or repr.
    """

    nodes: frozenset[str]
    edges: Mapping[tuple[str, str], int]

    @cached_property
    def names(self) -> tuple[str, ...]:
        """The nodes in sorted order; a node's position is its index here, so
        positions compare as the names do."""
        return tuple(sorted(self.nodes))

    @cached_property
    def positions(self) -> dict[str, int]:
        """Each node's index into names and into the arrays of tree_to."""
        return {node: i for i, node in enumerate(self.names)}

    @cached_property
    def out_edges(self) -> tuple[tuple[tuple[int, int, int], ...], ...]:
        """Per node position, the (successor position, base cost, slot) of
        its out-edges, successors in name order."""
        position = self.positions
        out: list[list[tuple[int, int, int]]] = [[] for _ in self.names]
        for slot, ((node, succ), base) in enumerate(sorted(self.edges.items())):
            out[position[node]].append((position[succ], base, slot))
        return tuple(map(tuple, out))

    @cached_property
    def slots(self) -> dict[tuple[str, str], int]:
        """Each edge's slot, as out_edges gives it: its index among the
        sorted edges."""
        return {edge: slot for slot, edge in enumerate(sorted(self.edges))}

    @cached_property
    def _in_edges(self) -> list[list[tuple[int, int]]]:
        """Per node position, the (predecessor position, weight) of its
        in-edges.  The weight, ((base cost * n + 1) * n + predecessor) * n
        for n nodes, is what the edge adds to a ReverseTree key whose node
        and next-hop fields are zero: its base cost to the distance, one hop,
        and the predecessor as the node."""
        n = len(self.names)
        in_edges: list[list[tuple[int, int]]] = [[] for _ in self.names]
        for node, out in enumerate(self.out_edges):
            for succ, base, _ in out:
                in_edges[succ].append((node, ((base * n + 1) * n + node) * n))
        return in_edges

    @cached_property
    def _trees(self) -> dict[str, ReverseTree]:
        return {}

    def tree_to(self, destination: str) -> ReverseTree:
        """The reverse shortest-path tree towards destination, created on
        first request with only the destination settled, and kept for the
        life of the graph; it grows as its settle calls ask."""
        tree = self._trees.get(destination)
        if tree is None:
            tree = self._trees[destination] = ReverseTree(self._in_edges, self.positions[destination])
        return tree


class ReverseTree:
    """A reverse shortest-path tree towards one destination, grown on demand.

    distance and next_hop are arrays indexed by node position.  A settled
    node has its base-cost distance to the destination (a float, exact for
    the integer sums of realistic durations, so that no duration the
    timetable accepts overflows the array) and its next hop: its
    lowest-numbered successor on a path of least cost and, among those,
    fewest legs (UNREACHABLE at the destination).  Every other node has
    UNSETTLED in both, until the search is exhausted and it becomes
    UNREACHABLE.  radius is the distance last settled: no settled node is
    farther, and no unsettled node is nearer.

    settle(node) resumes a reverse Dijkstra search until node is settled, as
    Reverse Resumable A* does (Silver, "Cooperative Pathfinding", AIIDE
    2005).  Each heap entry is one exact integer key, ((distance * n + hops)
    * n + node) * n + next hop for n nodes, so one comparison orders two
    ways to reach a node by (distance, hops, next hop).  Following next hops
    walks a node's lexicographically smallest stop sequence among its
    (cost, hops)-optimal paths, since each continues on an optimal path of
    its next node.  That node's key is smaller, as base costs are positive,
    so it settles first: a node's path can be read off once it is settled.

    The search state, a heap and a tentative key per node (_SETTLED once
    settled, so that no key is held for it), is dropped once the search is
    exhausted.
    """

    __slots__ = ("distance", "next_hop", "radius", "_in_edges", "_heap", "_key")

    def __init__(self, in_edges: list[list[tuple[int, int]]], destination: int) -> None:
        n = len(in_edges)
        self.distance = array("d", [UNSETTLED]) * n
        self.next_hop = array("i", [UNSETTLED]) * n
        self.distance[destination] = 0
        self.next_hop[destination] = UNREACHABLE
        self.radius = 0.0
        self._in_edges = in_edges
        # the destination is settled; its in-neighbours' keys, sorted, are a heap
        key: list[int | float] = [math.inf] * n
        key[destination] = _SETTLED
        for pred, weight in in_edges[destination]:
            key[pred] = weight + destination
        self._key = key
        self._heap = sorted(key[pred] for pred, _ in in_edges[destination])

    def settle(self, target: int) -> None:
        """Grow the tree until target is settled or the search is exhausted."""
        distance = self.distance
        if distance[target] != UNSETTLED:
            return
        heap, key, in_edges, next_hop = self._heap, self._key, self._in_edges, self.next_hop
        n = len(in_edges)
        nn = n * n
        nnn = nn * n
        heappop, heappush = heapq.heappop, heapq.heappush
        while heap:
            k = heappop(heap)
            rest = k % nn
            node = rest // n
            if key[node] != k:
                continue
            key[node] = _SETTLED
            distance[node] = k // nnn
            next_hop[node] = rest % n
            # k with its node and next-hop fields zeroed
            base = k - rest
            for pred, weight in in_edges[node]:
                candidate = base + weight + node
                if candidate < key[pred]:
                    key[pred] = candidate
                    heappush(heap, candidate)
            if node == target:
                self.radius = distance[node]
                return
        for node, d in enumerate(distance):
            if d == UNSETTLED:
                distance[node] = next_hop[node] = UNREACHABLE
        self.radius = max(distance)
        self._heap = self._key = None


def haversine_km(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Great-circle distance in kilometres between two (lat, lon) points.

    experiments.admissible_pairs evaluates this expression inline, in the
    same order, for each cell centre and each stop it measures, and bounds its
    cells by it; a change here must be made there too.
    """
    lat1, lon1 = math.radians(a[0]), math.radians(a[1])
    lat2, lon2 = math.radians(b[0]), math.radians(b[1])
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(h))


def latitude_window_deg(km: float) -> float:
    """A latitude gap, in degrees, beyond which two points are more than km apart.

    haversine_km is at least EARTH_RADIUS_KM times the latitude gap in
    radians, 111.19 km per degree; dividing by 111.0 instead leaves a margin
    that no float rounding in either formula can use up.
    """
    return km / 111.0 + 1e-9


def load_stops(path: str | Path) -> dict[str, Stop]:
    stops: dict[str, Stop] = {}
    for lineno, row in read_csv(path, STOPS_HEADER):
        stop_id, stop_name, lat, lon, mode = (c.strip() for c in row)
        try:
            stop = Stop(stop_id, stop_name, float(lat), float(lon), mode)
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: bad coordinate in {row!r}") from exc
        except ValidationError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        if stop.id in stops:
            raise ParseError(f"{path}:{lineno}: duplicate stop id {stop.id!r}")
        stops[stop.id] = stop
    return stops


def _bad_leg(kind: type[JourneyShareError], leg: TimetabledConnection, problem: str) -> JourneyShareError:
    """kind(problem), carrying leg, the first offending leg in network order,
    for load_network to name its line."""
    exc = kind(problem)
    exc.leg = leg
    return exc


def _check_runs(stops: Mapping[str, Stop], legs: tuple[TimetabledConnection, ...]) -> None:
    """Check legs as they come, in one pass and without grouping the runs.

    Each leg's stops are checked against stops, raising ReferentialError
    naming the first unknown one, and each leg against the one before it,
    raising ValidationError on a broken run.  A run start whose (service_id,
    run_id) does not rise above the previous run's raises JourneyShareError
    itself, which sorted legs never do; with seq rising by one within each
    run, a pass that raises nothing shows that legs are in NETWORK_ORDER.
    """
    started: set[str] = set()
    prev = None
    for leg in legs:
        if leg.from_stop not in stops or leg.to_stop not in stops:
            unknown = leg.to_stop if leg.from_stop in stops else leg.from_stop
            raise _bad_leg(ReferentialError, leg, f"unknown stop {unknown!r}")
        if prev is None or leg.run_id != prev.run_id or leg.service_id != prev.service_id:
            if prev is not None and (leg.service_id, leg.run_id) < (prev.service_id, prev.run_id):
                raise JourneyShareError("legs out of network order")
            if leg.run_id in started:
                services = sorted({c.service_id for c in legs if c.run_id == leg.run_id})
                raise _bad_leg(ValidationError, leg, f"run {leg.run_id} spans services {services}")
            started.add(leg.run_id)
            if leg.seq != 1:
                raise _bad_leg(ValidationError, leg, f"run {leg.run_id}: seq values not consecutive from 1")
        elif leg.seq != prev.seq + 1:
            raise _bad_leg(ValidationError, leg, f"run {leg.run_id}: seq values not consecutive from 1")
        elif leg.from_stop != prev.to_stop:
            raise _bad_leg(
                ValidationError,
                leg,
                f"run {leg.run_id} seq {leg.seq}: departs {leg.from_stop} but previous leg ends at {prev.to_stop}",
            )
        elif leg.departure < prev.departure + prev.duration:
            raise _bad_leg(
                ValidationError,
                leg,
                f"run {leg.run_id} seq {leg.seq}: departs at {leg.departure} before arrival of previous leg",
            )
        prev = leg


def make_network(stops: Mapping[str, Stop], connections: Iterable[TimetabledConnection]) -> TransitNetwork:
    """The network, connections in NETWORK_ORDER.

    The connections are checked as they come (_check_runs); only if they are
    out of order or faulty are they sorted and checked again, so that the
    fault raised, a ReferentialError or ValidationError carrying its leg, is
    the first in network order.
    """
    legs = tuple(connections)
    try:
        _check_runs(stops, legs)
        return TransitNetwork(stops=stops, connections=legs)
    except JourneyShareError:
        pass
    legs = tuple(sorted(legs, key=NETWORK_ORDER))
    _check_runs(stops, legs)
    return TransitNetwork(stops=stops, connections=legs)


def load_network(stops_path: str | Path, timetable_path: str | Path) -> TransitNetwork:
    """Load and validate a network from the stops and timetable CSV files.

    Duplicate timetable rows (same run_id and seq) collapse to the last
    occurrence.  Raises ParseError on malformed rows, ReferentialError on
    dangling stop ids and ValidationError on broken run structure, each
    naming the file and line of the offending row.
    """
    stops = load_stops(stops_path)
    rows: dict[tuple[str, int], TimetabledConnection] = {}
    line_of: dict[tuple[str, int], int] = {}
    for lineno, row in read_csv(timetable_path, TIMETABLE_HEADER):
        service_id, run_id, seq, from_stop, to_stop, departure, duration = (c.strip() for c in row)
        try:
            conn = TimetabledConnection(
                service_id, run_id, int(seq), from_stop, to_stop, int(departure), int(duration)
            )
        except ValueError as exc:
            raise ParseError(f"{timetable_path}:{lineno}: non-integer field in {row!r}") from exc
        except ValidationError as exc:
            raise ParseError(f"{timetable_path}:{lineno}: {exc}") from exc
        rows[(conn.run_id, conn.seq)] = conn
        line_of[(conn.run_id, conn.seq)] = lineno
    try:
        return make_network(stops, rows.values())
    except (ReferentialError, ValidationError) as exc:
        raise type(exc)(f"{timetable_path}:{line_of[(exc.leg.run_id, exc.leg.seq)]}: {exc}") from None


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
    max_dlat = latitude_window_deg(max_distance_km)
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


def _express_excluded(network: TransitNetwork) -> set[tuple[str, str]]:
    """Ordered stop pairs whose nonstop legs are dropped from the relaxed graph.

    A pair (A, B) with timetabled legs is dropped when some run travels from
    A to B through at least one intermediate stop; that run's consecutive-pair
    edges then stand in for the nonstop leg.  Consecutive pairs used as a
    witness are locked so that every dropped pair keeps a fully present
    stopping route in the final graph, even when runs overtake each other
    mutually.

    Everything here depends only on the runs' stop patterns (visit
    sequences), so it is computed once per distinct pattern, not per run.
    Runs sharing a pattern offer identical witness segments, and a segment
    that fails for one fails for all, so each pattern stands in as its least
    run id; witnesses are tried in (run id, i, j) order as if every run had
    been enumerated.  Each run's visits are read straight off the
    connections, where NETWORK_ORDER leaves every run one contiguous slice,
    and a pair has timetabled legs when network.departures holds it.
    """
    first_run: dict[tuple[str, ...], str] = {}
    for run_id, legs in groupby(network.connections, attrgetter("run_id")):
        first = next(legs)
        visits = (first.from_stop, first.to_stop, *[leg.to_stop for leg in legs])
        if visits not in first_run or run_id < first_run[visits]:
            first_run[visits] = run_id
    # every stop but a pattern's last has departures, and none to itself
    departures = network.departures
    covering: dict[tuple[str, str], list[tuple[str, int, int, tuple[str, ...]]]] = {}
    for visits, run_id in first_run.items():
        for i, a in enumerate(visits[:-2]):
            direct = departures[a]
            for j in range(i + 2, len(visits)):
                if visits[j] in direct:
                    covering.setdefault((a, visits[j]), []).append((run_id, i, j, visits))

    excluded: set[tuple[str, str]] = set()
    locked: set[tuple[str, str]] = set()
    for pair in sorted(covering):
        if pair in locked:
            continue
        # (run id, i, j) is unique, so sorting never compares the visits
        for _, i, j, visits in sorted(covering[pair]):
            segment = list(zip(visits[i:j], visits[i + 1:j + 1]))
            if pair in segment:
                continue
            if any(p in excluded for p in segment):
                continue
            excluded.add(pair)
            locked.update(segment)
            break
    return excluded


def build_relaxed_graph(network: TransitNetwork) -> RelaxedGraph:
    """Collapse the timetable to a directed graph of minimal leg durations.

    The express filter is computed per stop pattern (_express_excluded); per
    stop pair, the minimal duration is the least of its departures' durations
    and its first, shortest walk, read off the network's departures and walks.
    """
    excluded = _express_excluded(network)
    duration = attrgetter("duration")
    shortest: dict[tuple[str, str], int] = {}
    for stop, to_stops in network.departures.items():
        for succ, conns in to_stops.items():
            shortest[stop, succ] = min(map(duration, conns))
    for pair, (link, *_) in network.walks.items():
        if link.duration < shortest.get(pair, math.inf):
            shortest[pair] = link.duration
    edges = {pair: shortest[pair] for pair in sorted(shortest) if pair not in excluded}
    return RelaxedGraph(nodes=frozenset(network.stops), edges=edges)
