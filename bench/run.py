"""boundbell benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; boundbell is imported from its ``src``.
Workloads: bell_opt, extract_corpus, cli_pipeline (see NOTES.md).

The run first times set-up in fresh child interpreters, then repeats passes
over the workload's seeded job list, one job at a time, until ``--seconds``
have gone by (the last pass is completed).  Every answer is checked.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics, per traced pass, plus the tracing overhead; its spans are
written to ``bench/out/``.  The last line of standard output is the JSON
result; the lines before it name every metric with its unit, the stamp that
makes results comparable, and every failed job.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

from env import BENCH, OUT, ROOT, MissingPackage, child_env, require_package, stamp

SETUP_SAMPLES = 15


def _p90(samples: list[float]) -> tuple[float, int]:
    """Nearest-rank 90th percentile and the number of samples above it."""
    ordered = sorted(samples)
    value = ordered[max(0, math.ceil(0.9 * len(ordered)) - 1)]
    return value, sum(1 for s in ordered if s > value)


def measure_setup(workload: str, seed: int) -> list[float]:
    """Spawn-to-ready time of fresh interpreters that import and generate inputs."""
    samples = []
    for i in range(SETUP_SAMPLES):
        workdir = OUT / f"setup-{os.getpid()}-{i}"
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "probe.py"), workload, str(seed), str(workdir)],
            env=child_env(),
            stdout=subprocess.PIPE,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.close()
        finally:
            code = proc.wait(timeout=60)
            shutil.rmtree(workdir, ignore_errors=True)
        if line.strip() != b"ready" or code != 0:
            raise RuntimeError(f"set-up probe for {workload} exited with {code}")
        samples.append(elapsed)
    return samples


def run_passes(workload: str, inputs, seconds: float, workdir, trace: bool):
    """Passes until ``seconds`` elapse; with ``trace`` every other pass is traced."""
    import tracing
    import workloads

    spec = workloads.WORKLOADS[workload]
    passes: list[tuple[bool, float, workloads.Pass, tracing.Tracer | None]] = []
    start = time.perf_counter()
    # Stop before a pass that would end past the deadline, judged by the
    # previous pass; traced runs need one untraced and one traced pass.
    while (
        not passes
        or time.perf_counter() - start + passes[-1][1] <= seconds
        or (trace and len(passes) < 2)
    ):
        traced = trace and len(passes) % 2 == 1
        p = workloads.Pass()
        tracer = tracing.Tracer() if traced else None
        ctx = workloads.Context(workdir, traced, len(passes))
        if tracer:
            tracer.install()
        try:
            t0 = time.perf_counter()
            spec.run_pass(inputs, p, ctx)
            solve = time.perf_counter() - t0
        finally:
            if tracer:
                tracer.uninstall()
        passes.append((traced, solve, p, tracer))
    return passes


def end_to_end(workload, passes, setup, failed, attempted) -> tuple[dict, dict, list[str]]:
    # Each pass gives one solve time, one median and one p90 job latency, and
    # the run reports their means over its passes.  On a shared host the same
    # job can run up to 1.9x slower for stretches of seconds to minutes; a
    # median pooled over the whole run then jumps between the fast and the
    # slow level with the share of the run spent in each, while a mean of
    # per-pass figures moves in proportion to that share (NOTES.md).
    solves = [s for _, s, _, _ in passes]
    timed = [p.latencies for _, _, p, _ in passes if p.latencies]
    p50s = [statistics.median(lat) for lat in timed]
    p90s, beyond = zip(*(_p90(lat) for lat in timed))
    jobs = sum(len(lat) for lat in timed)
    if workload == "cli_pipeline":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        rss_note = "largest child process"
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rss_note = "benchmark process"
    values = {
        "solve_s": statistics.fmean(solves),
        "job_p50_ms": statistics.fmean(p50s) * 1e3,
        "job_p90_ms": statistics.fmean(p90s) * 1e3,
        "peak_rss_mb": rss_kb / 1024,
        "setup_s": statistics.median(setup),
    }
    notes = {
        "solve_s": f"mean of {len(solves)} passes: " + " ".join(f"{x:.4f}" for x in solves),
        "job_p50_ms": f"mean of {len(p50s)} per-pass medians over {jobs} jobs",
        "job_p90_ms": f"mean of {len(p90s)} per-pass p90s; {sum(beyond)} of {jobs} jobs above their pass's p90",
        "peak_rss_mb": rss_note,
        "setup_s": f"median of {len(setup)} set-ups: " + " ".join(f"{x:.4f}" for x in setup),
    }
    # fail_ratio is 0 on correct code; the result line carries it as failed/attempted.
    lines = [f"fail_ratio {failed / attempted!r} 1 # {failed} of {attempted} jobs"]
    return values, notes, lines


def per_layer(passes) -> tuple[dict, list[str], list[dict]]:
    import tracing

    traced = [(s, p, t) for is_traced, s, p, t in passes if is_traced]
    plain = [s for is_traced, s, _, _ in passes if not is_traced]
    k = len(traced)
    groups: list[dict] = []
    startups: list[float] = []
    for i, (_, p, tracer) in enumerate(traced):
        groups.append({**tracer.dump(), "group": f"pass {i} benchmark process"})
        groups += [{**child, "group": f"pass {i} {child['group']}"} for child in p.child_traces]
        startups.extend(p.startups)
    totals: dict[str, list[float]] = {}
    counters: Counter = Counter()
    for g in groups:
        tracing.add_totals(totals, tracing.layer_totals(g["spans"]))
        counters.update(g["counters"])
    values: dict[str, float] = {}
    for label in tracing.LAYERS:
        calls, busy, errors, self_s = totals.get(label, [0, 0.0, 0, 0.0])
        values[f"{label}.calls"] = calls / k
        values[f"{label}.busy_s"] = busy / k
        values[f"{label}.errors"] = errors / k
        values[f"{label}.self_s"] = self_s / k
    for name in ("extraction.extract.steps", "serialize.bytes_out"):
        values[name] = counters.get(name, 0) / k
    restarts = sum(p.counters["restarts"] for _, p, _ in traced)
    hits = sum(p.counters["hits"] for _, p, _ in traced)
    values["bell.optimize.hit_ratio"] = hits / restarts if restarts else 0.0
    values["cli.startup_s"] = statistics.median(startups) if startups else 0.0
    values["trace.overhead_s"] = statistics.median(s for s, _, _ in traced) - statistics.median(plain)
    lines = [
        f"traced passes {k}, untraced passes {len(plain)}; per-layer values are per traced pass",
        f"hit ratio base: {hits} of {restarts} restarts",
    ]
    return values, lines, groups


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        require_package()
    except MissingPackage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads
    from tracing import write_spans

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    info = stamp(args.workload, args.seed, args.seconds, args.trace)
    print("stamp " + json.dumps(info, sort_keys=True))
    if info["blas_threads"] is not None and info["blas_threads"] > info["nproc"]:
        print(f"warning: BLAS uses {info['blas_threads']} threads on {info['nproc']} CPUs")

    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        inputs = workloads.WORKLOADS[args.workload].make_inputs(args.seed, workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        passes = run_passes(args.workload, inputs, args.seconds, workdir, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for _, _, p, _ in passes)
    failures = [f for _, _, p, _ in passes for f in p.failures]
    if args.trace:
        values, lines, groups = per_layer(passes)
        notes = {}
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        write_spans(spans_path, groups)
        lines.append(f"spans written to {spans_path.relative_to(ROOT)}")
    else:
        values, notes, lines = end_to_end(args.workload, passes, setup, len(failures), attempted)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for m in wanted:
        note = f" # {notes[m['name']]}" if m["name"] in notes else ""
        print(f"{m['name']} {values[m['name']]!r} {m['unit']}{note}")
    for line in lines:
        print(line)
    for job, reason in dict(failures).items():
        print(f"failed job: {job}: {reason}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
