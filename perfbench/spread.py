"""Run-to-run spread of the end-to-end metrics, as the acceptance rule computes it.

    python3 perfbench/spread.py --workload paper_batch --seeds 1 2 3 4 5 [--out spread.json]

Runs the benchmark command once per seed (one process after another) with
`run_seconds` from BENCHMARK.json, then prints for each end-to-end metric the
median of the runs, the quartiles from `statistics.quantiles(values, n=4)`,
the spread (q3 - q1) / median and the metric's bound.  A spread above a third
of the bound is flagged: such a metric cannot show a change of the bound's
size and is to be reported as unresolved, not as unchanged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, help="override run_seconds")
    parser.add_argument("--out", type=Path, help="write the runs and the summary as JSON")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]

    runs = []
    for seed in args.seeds:
        command = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        ]
        completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} experiments failed", file=sys.stderr)
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    summary = {}
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [run["metrics"][name]["value"] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound}
        flag = "" if spread < bound / 3 else "  <-- above a third of the bound"
        print(f"{name:18s} median={median:<12.6g} q1={q1:<12.6g} q3={q3:<12.6g} spread={spread:.4f} bound={bound}{flag}")
    if args.out:
        args.out.write_text(json.dumps({"workload": args.workload, "runs": runs, "summary": summary}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
