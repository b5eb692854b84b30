import atexit
import functools
import shutil
import tempfile
from pathlib import Path

import pytest

from journeyshare.transit import RelaxedGraph


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
