import atexit
import functools
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import strategies as st

from journeyshare.grouping import Part
from journeyshare.synth import SyntheticNetworkSpec, build_synthetic_network, stop_id
from journeyshare.transit import RelaxedGraph, add_walking_links


@functools.cache
def _csv_root() -> str:
    root = tempfile.mkdtemp(prefix="journeyshare-tests-")
    atexit.register(shutil.rmtree, root, ignore_errors=True)
    return root


def write_csv(lines: list[str]) -> Path:
    """Write lines, one row each, to a new file rows.csv in a fresh temporary
    directory and return its path.

    Unlike the tmp_path fixture this works anywhere, in plain loops and
    Hypothesis tests too; every directory is removed when the session exits.
    """
    path = Path(tempfile.mkdtemp(dir=_csv_root())) / "rows.csv"
    path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    return path


SIX_STOP_STOPS = [
    "stop_id,name,lat,lon,mode",
    "A,Alpha,55.00,-3.00,rail",
    "B,Beta,55.10,-3.00,rail",
    "C,Gamma,55.20,-3.00,rail",
    "D,Delta,55.30,-3.00,rail",
    "E,Epsilon,55.40,-3.00,rail",
    "F,Zeta,55.50,-3.00,rail",
]

# A->B has two runs (50 and 60 min); C..F is served by a stopping run
# whose leg durations 45/70/30 are reused by the shared-cost fixtures
SIX_STOP_TIMETABLE = [
    "service_id,run_id,seq,from_stop,to_stop,departure_min,duration_min",
    "SV1,SV1a,1,A,B,100,50",
    "SV9,SV9a,1,A,B,200,60",
    "SV2,SV2a,1,C,D,100,45",
    "SV2,SV2a,2,D,E,150,70",
    "SV2,SV2a,3,E,F,225,30",
]


def graph_of(edges: dict[tuple[str, str], int], extra_nodes: set[str] = frozenset()) -> RelaxedGraph:
    """Build a relaxed graph directly from an edge-cost mapping."""
    nodes = set(extra_nodes)
    for (a, b), cost in edges.items():
        assert cost > 0
        nodes.update((a, b))
    return RelaxedGraph(nodes=frozenset(nodes), edges=dict(edges))


@pytest.fixture
def six_stop_network():
    from journeyshare.transit import load_network

    return load_network(write_csv(SIX_STOP_STOPS), write_csv(SIX_STOP_TIMETABLE))


@pytest.fixture
def six_stop_graph(six_stop_network):
    from journeyshare.transit import build_relaxed_graph

    return build_relaxed_graph(six_stop_network)


# 0.3 km spacing puts grid neighbours and diagonals within the 0.5 km walking
# range, so slices and part searches on it meet walking links as well as connections
WALK_GRID = SyntheticNetworkSpec(width=4, height=5, spacing_km=0.3, headway_min=120, leg_min=10)
WALK_NETWORK = add_walking_links(build_synthetic_network(WALK_GRID), max_distance_km=0.5)


@st.composite
def grid_walk_parts(draw):
    """One to three parts, each a self-avoiding walk over grid neighbours
    and diagonals."""
    parts = []
    for pid in range(draw(st.integers(1, 3))):
        cell = (draw(st.integers(0, WALK_GRID.width - 1)), draw(st.integers(0, WALK_GRID.height - 1)))
        path = [cell]
        for _ in range(draw(st.integers(1, 6))):
            col, row = path[-1]
            steps = [
                (col + dc, row + dr)
                for dc in (-1, 0, 1)
                for dr in (-1, 0, 1)
                if 0 <= col + dc < WALK_GRID.width
                and 0 <= row + dr < WALK_GRID.height
                and (col + dc, row + dr) not in path
            ]
            if not steps:
                break
            path.append(draw(st.sampled_from(steps)))
        stops = tuple(stop_id(col, row) for col, row in path)
        parts.append(Part(id=pid, agents=frozenset({pid}), stops=stops, prev={pid: None}, next={pid: None}))
    return parts
