"""Self-check of the benchmark itself: ``python3 bench/selfcheck.py``.

Checks the checker, not the program:

1. every workload, untraced and traced, prints every metric that
   BENCHMARK.json names, with its unit, and a well-formed result line;
2. each workload's oracle, fed a deliberately wrong expected value, fails
   jobs, so fail_ratio rises and the failing inputs are named;
3. in a directory holding only BENCHMARK.json and the benchmark, the run
   exits non-zero without printing a result.

Takes about two minutes.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from env import BENCH, OUT, ROOT, require_package

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

problems: list[str] = []


def report(ok: bool, what: str) -> None:
    print(f"[{'ok' if ok else 'FAIL'}] {what}", flush=True)
    if not ok:
        problems.append(what)


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_emission(spec: dict) -> None:
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, w["name"], trace)
            what = f"{w['name']} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                report(False, f"{what}: no result line (exit {proc.returncode}) {proc.stderr[-300:]}")
                continue
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
            printed = {tuple(line.split()[:1] + line.split()[2:3]) for line in lines[:-1]}
            report(
                proc.returncode == 0
                and set(result) == RESULT_KEYS
                and result["correct"] is True
                and result["attempted"] >= 1
                and got == wanted
                and all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
                and all((name, unit) in printed for name, unit in wanted.items()),
                f"{what}: emits all {len(wanted)} metrics with units, correct={result.get('correct')}",
            )
            if trace == 0:
                report(any(line.startswith("fail_ratio ") for line in lines), f"{what}: prints fail_ratio")


def check_wrong_oracles() -> None:
    require_package()
    import oracles
    import workloads

    workdir = OUT / "selfcheck-work"

    def expect_failures(what: str, name: str, inputs, patch: dict) -> None:
        saved = {k: getattr(oracles, k) for k in patch}
        for k, v in patch.items():
            setattr(oracles, k, v)
        p = workloads.Pass()
        try:
            workloads.WORKLOADS[name].run_pass(inputs, p, workloads.Context(workdir))
        finally:
            for k, v in saved.items():
                setattr(oracles, k, v)
        ratio = len(p.failures) / p.attempted if p.attempted else 0.0
        report(ratio > 0 and all(job for job, _ in p.failures),
               f"{name}: wrong {what} gives fail_ratio {ratio:.3f} ({len(p.failures)} of {p.attempted})")

    ppt_min_eig, xy_value = oracles.ppt_min_eig, oracles.xy_value
    expect_failures("x/y threshold value", "bell_opt", 7,
                    {"xy_value": lambda n, alpha=None: xy_value(n, alpha) + 1e-6})
    expect_failures("quantum bound", "bell_opt", 7, {"quantum_bound": lambda n: 0.5})
    corpus = workloads.extract_corpus_inputs(7, workdir)
    expect_failures("Schmidt coefficient", "extract_corpus", corpus[:3] + corpus[-1:], {"INV_SQRT2": 0.7})
    try:
        inputs = workloads.cli_pipeline_inputs(7, workdir)
        expect_failures("x/y threshold value", "cli_pipeline", inputs,
                        {"xy_value": lambda n, alpha=None: xy_value(n, alpha) + 1e-6})
        expect_failures("PPT minimum eigenvalue", "cli_pipeline", inputs,
                        {"ppt_min_eig": lambda n, size: ppt_min_eig(n, size) + 1e-6})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_bare_directory() -> None:
    bare = OUT / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run_bench(bare, "bell_opt", 0)
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        report(proc.returncode != 0 and not last[0].startswith("{"),
               f"without src/ the run exits {proc.returncode} and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_bare_directory()
    check_wrong_oracles()
    check_emission(spec)
    print("self-check passed" if not problems else f"self-check FAILED: {len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
