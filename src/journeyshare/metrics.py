"""Evaluation quantities (relative cost improvement, journey prolongation)
and the results.csv rows that record them per experiment and group."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from .errors import InputError
from .planning import AgentId

TIMING_COLUMNS = ("t_initial_s", "t_br_s", "t_schedule_s", "t_total_s")
RESULTS_COLUMNS = [
    "scenario",
    "n_agents",
    "direction",
    "seed",
    "delta_c",
    "group_id",
    "group_size",
    "matched",
    "timed_out",
    "delta_t",
    *TIMING_COLUMNS,
]


@dataclass(frozen=True)
class GroupRecord:
    """Per-group outcome of the timetabling phase."""

    group_id: int
    size: int
    matched: bool
    timed_out: bool
    group_durations: Mapping[AgentId, int] = field(default_factory=dict)
    solo_durations: Mapping[AgentId, int] = field(default_factory=dict)
    delta_t: float | None = None


@dataclass
class ExperimentResult:
    scenario: str
    n_agents: int
    direction: str
    seed: int
    initial_costs: dict[AgentId, float] = field(default_factory=dict)
    shared_costs: dict[AgentId, float] = field(default_factory=dict)
    delta_c: float | None = None
    groups: list[GroupRecord] = field(default_factory=list)
    unreachable_agents: list[AgentId] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)


def cost_improvement(initial_costs: Mapping[AgentId, float], shared_costs: Mapping[AgentId, float]) -> float:
    """Relative saving of the shared joint plan over the solo plans.

    (sum of solo costs - sum of discounted costs) / sum of solo costs, both
    summed in agent order over the same agents.
    """
    if set(initial_costs) != set(shared_costs):
        raise InputError("solo and shared costs cover different agents")
    solo_total = 0.0
    shared_total = 0.0
    for agent in sorted(initial_costs):
        solo_total += initial_costs[agent]
        shared_total += shared_costs[agent]
    if solo_total == 0.0:
        raise InputError("total initial cost is zero; improvement undefined")
    return (solo_total - shared_total) / solo_total


def prolongation(group_durations: Mapping[AgentId, int], solo_durations: Mapping[AgentId, int]) -> float | None:
    """Relative extra travel time of the shared schedule over solo schedules.

    Reads each member's recorded durations in minutes; returns None when a
    member has no solo duration.
    """
    if any(agent not in solo_durations for agent in group_durations):
        return None
    solo_total = sum(solo_durations[agent] for agent in group_durations)
    if solo_total == 0:
        raise InputError("total solo duration is zero; prolongation undefined")
    return (sum(group_durations.values()) - solo_total) / solo_total


def _format(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.9f}"
    return str(value)


def result_rows(result: ExperimentResult) -> list[list[str]]:
    """One summary row (empty group fields) plus one row per group."""
    base = [result.scenario, result.n_agents, result.direction, result.seed, result.delta_c]
    timing = [
        result.timings.get("initial"),
        result.timings.get("br"),
        result.timings.get("schedule"),
        result.timings.get("total"),
    ]
    rows = [[_format(v) for v in base + [None, None, None, None, None] + timing]]
    for record in result.groups:
        rows.append(
            [
                _format(v)
                for v in base
                + [record.group_id, record.size, record.matched, record.timed_out, record.delta_t]
                + timing
            ]
        )
    return rows


def write_results_csv(results: Iterable[ExperimentResult], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULTS_COLUMNS)
        for result in results:
            writer.writerows(result_rows(result))
