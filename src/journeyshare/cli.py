"""Command-line interface.

Subcommands:
    plan        run the full pipeline for a request file against a network
    experiment  run a batch matrix and write results.csv
    synth       generate a synthetic grid network
    validate    re-check invariants of a results.csv

Exit codes: 0 success, 1 input error, 2 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path
from typing import Container

from .config import EngineConfig, load_config
from .errors import ConsistencyError, InputError, JourneyShareError, ParseError, read_csv
from .experiments import load_matrix, run_batch, run_pipeline, validate_results_file
from .grouping import group_to_dict
from .metrics import write_results_csv
from .planning import AgentRequest
from .synth import SyntheticNetworkSpec, generate_synthetic_network
from .transit import load_network

logger = logging.getLogger(__name__)


def load_requests(path: str | Path, stops: Container[str]) -> list[AgentRequest]:
    """The file's requests; ParseError at path:line for a bad row, a stop not
    in stops, or a file with no request."""
    requests = []
    first_line: dict[str, int] = {}
    for lineno, row in read_csv(path, ["agent", "origin", "destination"]):
        agent, origin, destination = (c.strip() for c in row)
        if agent in first_line:
            raise ParseError(f"{path}:{lineno}: duplicate agent id {agent!r} (first on line {first_line[agent]})")
        first_line[agent] = lineno
        try:
            requests.append(AgentRequest(agent=agent, origin=origin, destination=destination))
        except InputError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        for kind, stop in (("origin", origin), ("destination", destination)):
            if stop not in stops:
                raise ParseError(f"{path}:{lineno}: unknown {kind} stop {stop!r}")
    if not requests:
        raise ParseError(f"{path}:1: no requests")
    return requests


def _cmd_plan(args: argparse.Namespace) -> int:
    network = load_network(args.stops, args.timetable)
    requests = load_requests(args.requests, network.stops)
    config = load_config(args.config) if args.config else EngineConfig()
    artifacts = run_pipeline(network, requests, config=config)
    result = artifacts.result

    out = Path(args.out) if args.out else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        if artifacts.joint is not None:
            (out / "joint_plan.json").write_text(
                json.dumps(artifacts.joint.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
            )
        groups_doc = [
            group_to_dict(group, artifacts.parts.get(group.id, []))
            for group in artifacts.groups
        ]
        (out / "groups.json").write_text(json.dumps(groups_doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        itineraries = {
            str(agent): itin.to_dict()
            for sched in artifacts.group_schedules.values()
            for agent, itin in sorted(sched.itineraries.items())
        }
        (out / "itineraries.json").write_text(
            json.dumps(itineraries, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        with open(out / "plans.jsonl", "w", encoding="utf-8") as fh:
            for agent in sorted(artifacts.initial_plans):
                fh.write(json.dumps(artifacts.initial_plans[agent].to_dict(), sort_keys=True) + "\n")
        write_results_csv([result], out / "results.csv")

    matched = sum(1 for g in result.groups if g.matched)
    print(f"agents: {result.n_agents} (unreachable: {len(result.unreachable_agents)})")
    if result.delta_c is not None:
        print(f"cost improvement: {result.delta_c:.4f}")
    print(f"groups: {len(result.groups)} (with timetable: {matched})")
    for record in result.groups:
        status = "ok" if record.matched else ("timeout" if record.timed_out else "no timetable")
        extra = f", prolongation {record.delta_t:.4f}" if record.delta_t is not None else ""
        print(f"  group {record.group_id}: size {record.size}, {status}{extra}")
    if result.errors:
        for err in result.errors:
            print(f"warning: {err}", file=sys.stderr)
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    matrix = load_matrix(args.matrix)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = run_batch(matrix, out_dir / "results.csv", parallel=args.parallel)
    failures = sum(1 for r in results if r.errors)
    print(f"experiments: {len(results)} (with errors: {failures})")
    print(f"results written to {out_dir / 'results.csv'}")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    try:
        width, height = (int(v) for v in args.grid.lower().split("x"))
    except ValueError:
        raise JourneyShareError(f"--grid expects WxH, got {args.grid!r}") from None
    spec = SyntheticNetworkSpec(
        width=width,
        height=height,
        spacing_km=args.spacing_km,
        headway_min=args.headway,
        leg_min=args.leg,
        first_departure=args.first_departure,
        last_arrival=args.last_arrival,
        line_offset_min=args.line_offset,
    )
    stops_path, timetable_path = generate_synthetic_network(spec, args.out)
    print(f"wrote {stops_path} and {timetable_path}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    rows = validate_results_file(args.results)
    print(f"{args.results}: {rows} rows, all invariants hold")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="journeyshare", description=__doc__.splitlines()[0])
    parser.add_argument("-v", "--verbose", action="store_true", help="enable debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="plan shared journeys for a request file")
    p.add_argument("--stops", required=True, help="stops.csv path")
    p.add_argument("--timetable", required=True, help="timetable.csv path")
    p.add_argument("--requests", required=True, help="requests csv (agent,origin,destination)")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--out", help="directory for JSON/CSV outputs")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("experiment", help="run a batch matrix")
    p.add_argument("--matrix", required=True, help="matrix JSON file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--parallel", type=int, default=None, help="accepted and ignored: experiments run one after another")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("synth", help="generate a synthetic grid network")
    p.add_argument("--grid", required=True, help="grid dimensions WxH, e.g. 10x10")
    p.add_argument("--headway", type=int, required=True, help="service headway in minutes")
    p.add_argument("--leg", type=int, required=True, help="leg duration in minutes")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--spacing-km", type=float, default=8.0, help="stop spacing in km")
    p.add_argument("--first-departure", type=int, default=0, help="service window start")
    p.add_argument("--last-arrival", type=int, default=1440, help="service window end")
    p.add_argument("--line-offset", type=int, default=0, help="per-line departure stagger in minutes")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("validate", help="re-check invariants of a results.csv")
    p.add_argument("--results", required=True, help="results.csv path")
    p.set_defaults(func=_cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING)
    try:
        return args.func(args)
    except ConsistencyError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except JourneyShareError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
