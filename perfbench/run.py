"""racover benchmark: one workload, one seed, closed loop, one operation at
a time.

    python3 perfbench/run.py --workload classify|extend|chain --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout; it imports ``racover`` from ``src/``.
Every pass runs in a fresh interpreter (perfbench/worker.py), so the
library's lazy caches start cold as in a CLI run.  Passes repeat until
``--seconds`` have gone by, at least one.  Set-up is also measured alone,
several times before the passes and several times after them.

With ``--trace 0`` the run reports the end-to-end metrics, medians over
passes and set-ups.  With ``--trace 1`` each round is an untraced pass
followed by a traced one, and the run reports the per-layer metrics of
the traced pass, the untraced pass's stage times, and the tracing
overhead.  Tables for people go first; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Every operation's answer is checked (see workloads.py); a
wrong answer or an exception is a failed operation and makes the run
incorrect.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List

from stats import summary_row, table

HERE = Path(__file__).resolve().parent
WORKLOADS = ("classify", "extend", "chain")
SETUP_SAMPLES = 30  # before the passes, and as many after
RUN_LIMIT_S = 170.0  # a run ends within 180 s
END_TO_END = (("setup_s", "s"), ("solve_s", "s"), ("peak_rss_mib", "MiB"))
STAGES = ("census_s", "chromatic_s", "extend_s", "certify_s", "write_s", "verify_s")
COUNTS = ("census_nodes", "seeds_decided")


class WorkerError(Exception):
    pass


class Runner:
    """Spawns worker interpreters against one checkout, within a deadline."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.workdir = root / ".perfbench" / f"work-{os.getpid()}"
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        )

    def worker(self, mode: str) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise WorkerError("out of time before the pass started")
        cmd = [sys.executable, str(HERE / "worker.py"), self.workload, str(self.seed),
               mode, str(self.workdir)]
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise WorkerError(f"{mode} pass did not finish within the run's time limit") from None
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise WorkerError(f"{mode} pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return json.loads(lines[-1])


def stage_rows(passes: List[dict]) -> list:
    rows = []
    for stage in STAGES:
        values = [p["stages"][stage] for p in passes if stage in p["stages"]]
        if values:
            rows.append(summary_row(stage, "s", values))
    for count in COUNTS:
        values = [p["counts"][count] for p in passes if count in p["counts"]]
        if values:
            rows.append(summary_row(count, "count", values))
    rows.append(summary_row("ops_failed_ratio", "ratio",
                            [p["failed"] / p["attempted"] for p in passes]))
    latencies = [v for p in passes for v in p["latencies"].values()]
    rows.append(summary_row("op_latency_s", "s", latencies))
    return rows


def end_to_end(setups: List[float], passes: List[dict]) -> Dict[str, tuple]:
    samples = {"setup_s": setups}
    for name in ("solve_s", "peak_rss_mib"):
        samples[name] = [p[name] for p in passes]
    rows = [summary_row(name, unit, samples[name]) for name, unit in END_TO_END]
    print(table(["metric", "unit", "samples", "median", "tail"], rows + stage_rows(passes)))
    return {name: (median(samples[name]), unit) for name, unit in END_TO_END}


def per_layer(plain: List[dict], traced: List[dict]) -> Dict[str, tuple]:
    print(table(["metric", "unit", "samples", "median", "tail"],
                [summary_row("solve_s", "s", [p["solve_s"] for p in plain])] + stage_rows(plain)))
    last = traced[-1]
    layers = {k: tuple(v) for k, v in last["layers"].items()}
    rows = []
    for key, (value, _) in layers.items():
        if key.endswith(".self_s"):
            base = key[: -len(".self_s")]
            calls, busy = layers[f"{base}.calls"][0], layers[f"{base}.s"][0]
            if calls:
                rows.append([base, calls, busy, value, f"{100 * value / last['solve_s']:.1f}"])
    rows.sort(key=lambda r: -r[3])
    gf2 = layers["gf2.calls"][0], layers["gf2.s"][0]
    rows.append(["gf2 (all public calls)", gf2[0], gf2[1], "-", "-"])
    print()
    print(f"per-layer, traced pass of {last['solve_s']:.3f} s ({last['spans']} spans):")
    print(table(["function", "calls", "s", "self_s", "self %"], rows))
    counters = [[k, v[1], v[0]] for k, v in layers.items()
                if not k.endswith((".calls", ".s", ".self_s"))]
    print(table(["counter", "unit", "value"], counters))
    plain_s = median(p["solve_s"] for p in plain)
    traced_s = median(p["solve_s"] for p in traced)
    print(f"tracing overhead: traced solve_s {traced_s:.3f} s - untraced solve_s "
          f"{plain_s:.3f} s = {traced_s - plain_s:.3f} s")
    out = dict(layers)
    for stage in STAGES:
        out[f"job.{stage}"] = (median(p["stages"].get(stage, 0.0) for p in plain), "s")
    out["job.seeds_decided"] = (median(p["counts"].get("seeds_decided", 0) for p in plain), "count")
    out["job.ops_failed_ratio"] = (
        sum(p["failed"] for p in plain) / sum(p["attempted"] for p in plain), "ratio")
    out["job.solve_s"] = (plain_s, "s")
    out["trace.solve_s"] = (traced_s, "s")
    out["trace.overhead_s"] = (traced_s - plain_s, "s")
    out["trace.spans"] = (last["spans"], "count")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "racover" / "__init__.py").is_file():
        print(f"{root}: no src/racover here; run from the root of a racover checkout",
              file=sys.stderr)
        return 2

    runner = Runner(root, args.workload, args.seed)
    print(f"racover benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, at least {args.seconds:g} s")
    plain: List[dict] = []
    traced: List[dict] = []
    setups: List[float] = []
    problems: List[str] = []
    start = time.monotonic()
    try:
        # set-ups are sampled before and after the passes, so that the
        # samples span the run rather than one moment of it
        if not args.trace:
            setups += [runner.worker("setup")["setup_s"] for _ in range(SETUP_SAMPLES)]
        while True:
            round_start = time.monotonic()
            plain.append(runner.worker("pass"))
            if args.trace:
                traced.append(runner.worker("trace"))
            now = time.monotonic()
            # stop at --seconds, or early when another round might overrun
            if now - start >= args.seconds or runner.deadline - now < 2 * (now - round_start):
                break
        if not args.trace:
            setups += [runner.worker("setup")["setup_s"] for _ in range(SETUP_SAMPLES)]
    except WorkerError as exc:
        problems.append(str(exc))

    done = plain + traced
    attempted = sum(p["attempted"] for p in done) + len(problems)
    failed = sum(p["failed"] for p in done) + len(problems)
    problems += [msg for p in done for msg in p["problems"]]
    metrics: Dict[str, tuple] = {}
    if args.trace and traced:
        metrics = per_layer(plain, traced)
    elif not args.trace and plain:
        metrics = end_to_end(setups + [p["setup_s"] for p in plain], plain)
    for msg in problems:
        print(f"FAILED {msg}", file=sys.stderr)
    correct = failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
