"""One pass of one workload in a fresh interpreter; prints one JSON line.

    PYTHONPATH=src python3 perfbench/worker.py WORKLOAD SEED MODE WORKDIR

MODE is ``setup`` (set-up only), ``pass`` (set-up and the job) or
``trace`` (the same with the tracer installed).  Set-up runs from this
file's first statement until ``racover`` is imported and the dodecahedron
and the 120-cell are built.
"""
from time import perf_counter

T0 = perf_counter()

import json  # noqa: E402 - the clock starts before any import
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def run_pass(workload: str, seed: int, mode: str, workdir: Path, size=None) -> dict:
    import workloads
    from racover import polytopes

    D = polytopes.make_dodecahedron()
    Z = polytopes.make_120cell()
    out: dict = {"setup_s": perf_counter() - T0}
    if mode == "setup":
        return out
    ref = workloads.load_reference()
    D, Z = workloads.input_polytopes(workload, D, Z, seed)
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    ledger = workloads.Ledger(tracer)
    t0 = perf_counter()
    try:
        workloads.JOBS[workload](ledger, D, Z, seed, ref, size or workloads.FULL, workdir)
    finally:
        out["solve_s"] = perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    out.update(
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        attempted=ledger.attempted,
        failed=ledger.failed,
        problems=ledger.problems,
        stages=ledger.stages,
        latencies=ledger.latencies,
        counts=ledger.counts,
    )
    if tracer is not None:
        spans = workdir.parent / "traces" / f"{workload}-seed{seed}.jsonl"
        tracer.write_spans(spans)
        out["layers"] = tracer.metrics()
        out["spans"] = len(tracer.spans)
    return out


if __name__ == "__main__":
    workload, seed, mode, workdir = sys.argv[1:5]
    print(json.dumps(run_pass(workload, int(seed), mode, Path(workdir))))
