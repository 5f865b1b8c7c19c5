"""Closed-loop benchmark of gridmesh runs; see bench/README.md.

    python3 bench/run.py --workload topo_case9_5g --seed 1 --seconds 15 --trace 0

Run from the repository root. One client in this process executes one run at
a time against the package's own node objects until ``--seconds`` have
passed, then checks every run's result bytes against the monolithic oracle.
With ``--trace 0`` the last line of output is a JSON object carrying the
end-to-end metrics; with ``--trace 1`` the same loop runs untraced and then
again with timing wrappers installed, and the JSON carries the per-layer
metrics and the tracing overhead. Human-readable lines come before it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 21
MIN_RUN_S = 0.01             # no run is faster; sizes the input pool
IMPORT_PROBE = ("import time; t = time.perf_counter(); "
                "import gridmesh, gridmesh.nodes, gridmesh.virtualdemo; "
                "print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Time to import the package in a fresh interpreter, as a user pays it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout)


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    out = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                         capture_output=True, text=True, timeout=30)
    return out.stdout.strip() or "unknown"


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten runs beyond it, and its value.

    With fewer than eleven runs no percentile qualifies; the maximum is
    returned, at 100.
    """
    v = sorted(values)
    k = len(v) - 10
    if k < 1:
        return 100.0, v[-1]
    return 100.0 * k / len(v), v[k - 1]


def timed_loop(wl, inputs, seconds: float, tracer=None):
    """Run inputs in order, one at a time, until ``seconds`` have passed."""
    records = []
    cpu0 = time.process_time()
    stop = time.perf_counter() + seconds
    for inp in inputs:
        if time.perf_counter() >= stop:
            break
        if tracer:
            tracer.run = inp.index
        records.append(wl.run(inp))
        if tracer:
            tracer.run = None
    cpu_s = time.process_time() - cpu0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if len(records) == len(inputs):
        raise RuntimeError("input pool exhausted before the time was up")
    return records, cpu_s, rss_mb


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "gridmesh").is_dir():
        print(f"bench: no package source at {SRC / 'gridmesh'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    wl = workloads.WORKLOADS[args.workload](args.seed, work)
    try:
        return measure(wl, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(wl, args, work: Path) -> int:
    setups = []
    for rep in range(SETUP_REPS):
        imp = import_seconds()
        start = time.perf_counter()
        wl.setup(rep)
        setups.append(imp + time.perf_counter() - start)
        if rep < SETUP_REPS - 1:
            wl.teardown()
    try:
        inputs = wl.inputs(int(args.seconds * (1 + args.trace) / MIN_RUN_S) + 2)
        wl.run(inputs[0])                                  # warm-up, not timed
        records, cpu_s, rss_mb = timed_loop(wl, inputs[1:], args.seconds)
        traced, tracer = [], None
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced, _, _ = timed_loop(wl, inputs[1 + len(records):], args.seconds,
                                          tracer)
            finally:
                tracer.uninstall()
        check_start = time.perf_counter()
        for rec in records + traced:
            wl.finish(rec)
        stages = {rec.input.index: wl.stages(rec.input) for rec in traced if rec.ok}
        results = {rec.input.index: wl.result(rec.input) for rec in records + traced}
    finally:
        wl.teardown()
    # unlinking fsynced files is slow on some disks: overlap it with the oracle
    cleanup = threading.Thread(target=shutil.rmtree, args=(work,),
                               kwargs={"ignore_errors": True})
    cleanup.start()
    failed = [rec.input.index for rec in records + traced
              if not rec.ok or results[rec.input.index] != wl.oracle(rec.input)]
    cleanup.join()
    check_s = time.perf_counter() - check_start

    walls = [rec.wall_ms for rec in records]
    p50 = statistics.median(walls)
    pct, tail_ms = tail(walls)
    n = len(records)
    end_to_end = {
        "run_ms_p50": (p50, "ms"),
        "run_ms_tail": (tail_ms, "ms"),
        "cpu_ms_per_run": (cpu_s * 1e3 / n, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    attempted = n + len(traced)
    print(f"bench {wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"git={git_sha()} nproc={os.cpu_count()}")
    print("case " + " ".join(f"{k}={v}" for k, v in wl.case_counts().items()))
    print(f"closed loop, 1 client: {n} runs in {args.seconds:g} s")
    for name, (value, unit) in end_to_end.items():
        note = f"  (p{pct:.1f} of {n} runs)" if name == "run_ms_tail" else ""
        note = note or (f"  (n={n})" if name.startswith("run_ms") else "")
        print(f"  {name:<16} {value:12.4f} {unit}{note}")
    print(f"  {'fail_ratio':<16} {len(failed) / attempted:12.4f} ratio  "
          f"({len(failed)}/{attempted} runs failed or differ from the oracle; "
          f"checked in {check_s:.1f} s)")

    if args.trace:
        metrics = layer_metrics(wl, tracer, traced, stages, p50)
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0


def layer_metrics(wl, tracer, traced, stages, untraced_p50: float) -> dict:
    import tracing
    import workloads
    per_run = tracer.per_run()
    zero = dict.fromkeys(tracing.LAYER_METRICS, 0)
    rows = [dict(per_run.get(rec.input.index, zero),
                 **stages.get(rec.input.index, dict.fromkeys(workloads.STAGE_METRICS, 0)))
            for rec in traced]
    units = {k: u for k, (u, _, _) in tracing.LAYER_METRICS.items()}
    units.update(dict.fromkeys(workloads.STAGE_METRICS, "ms"))
    metrics = {k: {"value": statistics.median(r[k] for r in rows), "unit": u}
               for k, u in units.items()}
    traced_p50 = statistics.median(rec.wall_ms for rec in traced)
    metrics["trace.untraced_run_ms_p50"] = {"value": untraced_p50, "unit": "ms"}
    metrics["trace.traced_run_ms_p50"] = {"value": traced_p50, "unit": "ms"}
    metrics["trace.overhead_pct"] = {"value": 100.0 * (traced_p50 / untraced_p50 - 1),
                                     "unit": "%"}

    print(f"traced: {len(traced)} runs; per-layer values are medians over runs "
          f"of per-run totals (ms summed across threads)")
    for k, m in metrics.items():
        print(f"  {k:<34} {m['value']:12.4f} {m['unit']}")
    selfs = tracer.self_ms()
    by_name: dict[str, float] = {}
    for s in tracer.spans:
        if s.run is not None:
            by_name[s.name] = by_name.get(s.name, 0.0) + selfs[s.id]
    print("self time per run, top spans:")
    for name, ms in sorted(by_name.items(), key=lambda kv: -kv[1])[:12]:
        print(f"  {name:<34} {ms / len(traced):12.4f} ms")
    out = ROOT / ".bench_out" / f"trace-{wl.name}-seed{wl.seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(tracer.to_json()))
    print(f"spans: {len(tracer.spans)} written to {out.relative_to(ROOT)}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
