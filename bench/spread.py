"""Run-to-run spread of the end-to-end metrics.

Runs bench/run.py once per seed on each workload and reports, per metric,
the median of the runs, their first and third quartiles
(`statistics.quantiles(values, n=4)`) and the spread (q3 - q1) / median
next to the metric's bound from BENCHMARK.json.  Run from the root of a
checkout:

    python3 bench/spread.py --seeds 10 [--workloads cli mc] [--out FILE]

With --out the figures are also written as JSON (bench/baseline.json holds
the ones recorded for the unchanged package).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument(
        "--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(args.seeds))
    report: dict = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    ok = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            lines = proc.stdout.strip().split("\n")
            result = json.loads(lines[-1])
            env = next(line for line in lines if line.startswith("# env "))
            report.setdefault("environment", json.loads(env[len("# env "):]))
            if proc.returncode != 0 or not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: failed\n{proc.stderr}", file=sys.stderr)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        stats = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            spread = (q3 - q1) / median
            stats[name] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread,
                "bound": bounds[name], "values": vals,
            }
            flag = "" if spread < bounds[name] / 3 else "  <-- above bound/3"
            print(f"{workload:<7} {name:<12} median {median:<12.6g} "
                  f"spread {spread:6.3f}  bound {bounds[name]}{flag}", flush=True)
        report["workloads"][workload] = stats
    report["environment"].pop("seed", None)
    report["environment"].pop("workload", None)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
