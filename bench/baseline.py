"""Run the benchmark over several seeds and record medians and spreads.

    python3 bench/baseline.py --seeds 1-10 --out bench/baseline.json

Runs ``bench/run.py`` once per (workload, seed), one at a time, with the
``run_seconds`` of BENCHMARK.json. For every metric it prints the median
and the spread (distance between the first and third quartile, as a share
of the median) next to the metric's bound, and writes all runs to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{out.stderr}")
    env = json.loads(lines[0].split(" ", 1)[1])
    return json.loads(lines[-1]), env


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write the runs and their summary here")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    failed = False
    for workload in args.workloads.split(","):
        runs, env = [], None
        for seed in seed_list(args.seeds):
            result, env = one_run(workload, seed, spec["run_seconds"], args.trace)
            failed |= not result["correct"]
            runs.append({"seed": seed, **result})
            print(workload, seed, result["correct"],
                  {k: round(v["value"], 4) for k, v in result["metrics"].items()},
                  flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                         else (med, med, med))
            spread = (q3 - q1) / med if med else 0.0
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                             "unit": runs[0]["metrics"][name]["unit"]}
            if name in bounds:
                print(f"  {name}: median {med:.6g} spread {spread:.3f}"
                      f" (bound {bounds[name]}, target < {bounds[name] / 3:.3f})")
        env = {k: v for k, v in env.items() if k not in ("seed", "workload")}
        report["workloads"][workload] = {"environment": env, "summary": summary,
                                         "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
