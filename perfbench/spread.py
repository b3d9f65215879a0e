"""Run the benchmark once per seed and summarise each metric across runs.

    python3 perfbench/spread.py --workload extend --seeds 1-10 [--out FILE]

Run from the root of a checkout.  Each run is untraced and lasts
BENCHMARK.json's ``run_seconds``.  For each end-to-end metric it prints
the run count, median, quartiles (``statistics.quantiles(values, n=4)``),
the spread (third minus first quartile, as a share of the median), the
highest percentile with ten runs beyond it, and the bound from
BENCHMARK.json.  ``--out`` also writes every run's result and the summary
as JSON.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from stats import num, quartiles, spread, table, tail

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    bench = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = []
    for seed in seed_list(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed",
             str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True)
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"seed {seed}: no result (exit {proc.returncode})\n{proc.stderr[-2000:]}")
            return 1
        result["seed"] = seed
        runs.append(result)
        shown = {k: num(v["value"]) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {shown}", flush=True)

    summary = {}
    rows = []
    for name, entry in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, mid, q3 = quartiles(values)
        share = spread(values)
        t = tail(values)
        summary[name] = {"unit": entry["unit"], "samples": len(values), "median": mid,
                         "q1": q1, "q3": q3, "spread": share}
        rows.append([name, entry["unit"], len(values), mid, q1, q3, f"{share:.3f}",
                     f"p{num(t[0])} {num(t[1])}" if t else "-", str(bounds[name])])
    print(table(["metric", "unit", "runs", "median", "q1", "q3", "spread", "tail", "bound"], rows))
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "runs": runs, "summary": summary}, indent=1) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
