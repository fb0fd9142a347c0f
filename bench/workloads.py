"""The three closed-loop workloads: seeded inputs, one pass, answer checks.

Each workload turns the benchmark's seed into inputs once, then runs passes
over the same job list, one job at a time (``bell_opt`` draws fresh optimizer
starts for each pass, fixed by seed and pass number).  A job is one threshold
row, one optimizer restart, one extraction or one CLI command.
Every answer is checked against :mod:`oracles`; a failed check or an
exception marks the job failed and names it, and the input stays in the
corpus.
"""

from __future__ import annotations

import csv
import json
import math
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracles
from env import BENCH, child_env

from boundbell import bell, extraction, states, tensor

THRESHOLD_NS = range(2, 11)
# (N, single-restart jobs per pass).  With the 9 threshold rows that makes 21
# jobs: the median falls in the middle of the N = 6 restarts and the p90 in
# the middle of the N = 8 restarts, never on the edge between two kinds of job.
RESTARTS = ((6, 5), (7, 3), (8, 4))
# Every restart runs exactly this many coordinate-ascent sweeps, with no early
# stop.  Under the default stopping rule a restart takes 3 sweeps from most
# starts and 4 from some, so a job's cost would depend on its random start.
RESTART_SWEEPS = 3
CORPUS_SIZE = 120
CORPUS_MAX_DIM = 4096
CORPUS_SHAPE_SEED = 20011070
GHZ_NS = range(3, 9)
CHILD_TIMEOUT_S = 150


@dataclass
class Pass:
    """What one pass over the job list did."""

    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[tuple[str, str]] = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)
    child_traces: list[dict] = field(default_factory=list)
    startups: list[float] = field(default_factory=list)

    def fail(self, job: str, exc: BaseException) -> None:
        self.failures.append((job, f"{type(exc).__name__}: {exc}"))

    def run(self, job: str, work: Callable, check: Callable) -> object:
        """Time ``work()`` as one job, then check its answer outside the timing."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = work()
        except Exception as exc:
            self.latencies.append(time.perf_counter() - t0)
            self.fail(job, exc)
            return None
        self.latencies.append(time.perf_counter() - t0)
        try:
            check(result)
        except Exception as exc:
            self.fail(job, exc)
        return result


@dataclass
class Context:
    workdir: Path
    traced: bool = False
    pass_index: int = 0


# ------------------------------------------------------------------ bell_opt


def bell_opt_inputs(seed: int, workdir: Path) -> int:
    return seed


def restart_seeds(seed: int, pass_index: int) -> list[tuple[int, list[int]]]:
    """Optimizer seeds for one pass: fresh each pass, fixed by (seed, pass)."""
    rng = np.random.default_rng([seed, pass_index])
    return [(n, [int(s) for s in rng.integers(0, 2**31 - 1, k)]) for n, k in RESTARTS]


def _xy_row(n: int) -> float:
    return bell.bell_value(states.rho_family(states.RhoFamilySpec(n)), bell.BellSettings.xy(n))


def bell_opt_pass(seed: int, p: Pass, ctx: Context) -> None:
    """x/y threshold table for N = 2..10, then single-restart optimizer jobs.

    Each pass draws new starts, so a run's hit ratio covers many starts
    instead of the few one seed picks; the fixed sweep count keeps their
    cost alike.
    """
    for n in THRESHOLD_NS:
        p.run(f"xy row N={n}", lambda: _xy_row(n), lambda v: oracles.check_xy_row(n, v))
    for n, seeds in restart_seeds(seed, ctx.pass_index):
        alpha = oracles.default_alpha(n)
        xy = oracles.xy_value(n)
        try:
            rho = states.rho_family(states.RhoFamilySpec(n))
        except Exception as exc:
            for s in seeds:
                p.attempted += 1
                p.counters["restarts"] += 1
                p.fail(f"restart N={n} seed={s}", exc)
            continue

        def check(result):
            settings, value = result
            oracles.check_optimized(n, value, settings.a, settings.a_prime, alpha)

        for s in seeds:
            result = p.run(
                f"restart N={n} seed={s}",
                lambda: bell.optimize_settings(
                    rho, restarts=1, seed=s, tol=-math.inf, max_sweeps=RESTART_SWEEPS
                ),
                check,
            )
            p.counters["restarts"] += 1
            p.counters["hits"] += int(result is not None and result[1] >= xy - oracles.HIT_MARGIN)


# ------------------------------------------------------------ extract_corpus


def _corpus_shapes() -> list[tuple[int, ...]]:
    """Fixed local-dimension tuples, 3-6 parties with dims 2-4, global dim <= 4096.

    A state's cost follows its shape, so every seed gets the same shapes and
    the seed draws party order and amplitudes; runs on different seeds then
    measure the same mix.
    """
    rng = np.random.default_rng(CORPUS_SHAPE_SEED)
    shapes = []
    while len(shapes) < CORPUS_SIZE:
        dims = tuple(int(d) for d in rng.integers(2, 5, size=int(rng.integers(3, 7))))
        if math.prod(dims) <= CORPUS_MAX_DIM:
            shapes.append(dims)
    return shapes


def extract_corpus_inputs(seed: int, workdir: Path) -> list[tuple[str, tensor.PureState, bool]]:
    """Random pure states of the corpus shapes and GHZ states N = 3..8."""
    rng = np.random.default_rng(seed)
    corpus = []
    for i, shape in enumerate(_corpus_shapes()):
        dims = tuple(int(d) for d in rng.permutation(shape))
        amps = rng.standard_normal(math.prod(dims)) + 1j * rng.standard_normal(math.prod(dims))
        amps /= np.linalg.norm(amps)
        corpus.append((f"random #{i} dims={dims}", tensor.PureState(tensor.PartyLayout(dims), amps), False))
    for n in GHZ_NS:
        alpha = float(rng.uniform(0.0, 2 * math.pi))
        amps = np.zeros(1 << n, dtype=complex)
        amps[0] = oracles.INV_SQRT2
        amps[-1] = complex(math.cos(alpha), math.sin(alpha)) * oracles.INV_SQRT2
        corpus.append((f"ghz N={n} alpha={alpha!r}", tensor.PureState(tensor.PartyLayout.qubits(n), amps), True))
    return corpus


def _extract_job(psi):
    result = extraction.extract(psi)
    replayed = extraction.replay(psi, result.steps)
    return result, extraction.reduce_to_parties(replayed, result.pair)


def extract_corpus_pass(corpus, p: Pass, ctx: Context) -> None:
    """extract, replay, reduce_to_parties per state."""
    for job, psi, is_ghz in corpus:

        def check(out):
            result, reduced = out
            final = result.final_state
            oracles.expect(reduced.layout == final.layout, "replayed pair layout differs")
            f = oracles.fidelity(reduced.amplitudes, final.amplitudes)
            oracles.expect(f >= 1.0 - oracles.FIDELITY_TOL, f"replay fidelity {f!r}")
            oracles.check_pair(
                final.amplitudes, final.layout.dims, result.schmidt_coeffs, result.probability, is_ghz
            )

        p.run(job, lambda: _extract_job(psi), check)


# -------------------------------------------------------------- cli_pipeline

# The dense path at its largest: N = 11 operators are 2048 x 2048 complex
# (64 MiB), and the state and bell commands on them peak at about 290 and
# 370 MB.  N = 12 commands take 3.5-6 s each, so a 15-19 s pass would fit
# once or twice in a run, and solve_s and the p90 would rest on one or two
# samples.
BIG_N = 11
OPT_RESTARTS = 1
CHEAP_ROUNDS = 3
SWEEP_N_MAX = 9
SWEEP_SCAN_MAX = 6


@dataclass(frozen=True)
class CheapRound:
    alpha7: float
    alpha8: float
    extract_dims: tuple[int, ...]
    extract_seed: int
    sweep_alpha: float


@dataclass(frozen=True)
class CliInputs:
    alpha_big: float
    opt_seed: int
    rounds: tuple[CheapRound, ...]


def _phase(rng) -> float:
    return float(rng.uniform(0.0, 2 * math.pi))


def cli_pipeline_inputs(seed: int, workdir: Path) -> CliInputs:
    """Seeded command arguments, plus N = 8 operator files written here."""
    rng = np.random.default_rng(seed)
    inputs = CliInputs(
        alpha_big=_phase(rng),
        opt_seed=int(rng.integers(0, 2**31 - 1)),
        rounds=tuple(
            CheapRound(
                alpha7=_phase(rng),
                alpha8=_phase(rng),
                extract_dims=tuple(int(d) for d in rng.integers(2, 5, size=5)),
                extract_seed=int(rng.integers(0, 2**31 - 1)),
                sweep_alpha=_phase(rng),
            )
            for _ in range(CHEAP_ROUNDS)
        ),
    )
    workdir.mkdir(parents=True, exist_ok=True)
    for i, r in enumerate(inputs.rounds):
        (workdir / f"rho8_{i}.json").write_text(json.dumps(oracles.entries_obj(8, r.alpha8)))
    return inputs


def _launch(argv: list[str], p: Pass, ctx: Context) -> subprocess.CompletedProcess:
    """Run one CLI command as a child process and wait for it to end."""
    spans_path = ctx.workdir / f"job{p.attempted}.spans.json"
    if ctx.traced:
        cmd = [sys.executable, str(BENCH / "launch.py"), str(spans_path), *argv]
    else:
        cmd = [sys.executable, "-m", "boundbell.cli", *argv]
    env = child_env(BENCH_SPAWN_NS=str(time.time_ns()))
    result = subprocess.run(
        cmd, cwd=ctx.workdir, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if ctx.traced and spans_path.is_file():
        dump = json.loads(spans_path.read_text())
        dump["group"] = " ".join(argv)
        p.child_traces.append(dump)
        p.startups.append(dump["startup_s"])
        spans_path.unlink()
    return result


def _exit_ok(res: subprocess.CompletedProcess) -> None:
    oracles.expect(res.returncode == 0, f"exit code {res.returncode}: {res.stderr.strip()[-300:]}")


def _load(workdir: Path, name: str) -> dict:
    return json.loads((workdir / name).read_text())


def _check_state(res: subprocess.CompletedProcess, workdir: Path, n: int, alpha: float) -> None:
    _exit_ok(res)
    want = oracles.family_entries(n, alpha)
    oracles.expect(json.loads(res.stdout)["nonzero_entries"] == len(want), "nonzero_entries")
    op = _load(workdir, f"rho{n}.json")
    oracles.expect(op["dims"] == [2] * n, f"dims {op['dims']}")
    got = {(r, c): complex(re, im) for r, c, re, im in op["entries"]}
    oracles.expect(got.keys() == want.keys(), "operator file has the wrong nonzero pattern")
    for key, v in want.items():
        oracles.expect_close(f"entry {key}", abs(got[key] - v), 0.0, oracles.ENTRY_TOL)
    amps = {i: complex(re, im) for i, re, im in _load(workdir, f"rho{n}.ghz.json")["amps"]}
    oracles.expect(amps.keys() == {0, (1 << n) - 1}, "GHZ file has the wrong support")
    oracles.expect_close("GHZ amplitude 0", abs(amps[0] - oracles.INV_SQRT2), 0.0, oracles.ENTRY_TOL)
    phase = complex(math.cos(alpha), math.sin(alpha)) * oracles.INV_SQRT2
    oracles.expect_close("GHZ amplitude 1..1", abs(amps[(1 << n) - 1] - phase), 0.0, oracles.ENTRY_TOL)


def _check_bell_report(res: subprocess.CompletedProcess, workdir: Path, name: str, value: float) -> None:
    _exit_ok(res)
    report = _load(workdir, name)
    oracles.expect_close("report value", report["value"], value, oracles.XY_TOL)
    oracles.expect(report["violation"] == (abs(report["value"]) > 1.0), "violation flag")


def _check_scan7(res: subprocess.CompletedProcess, workdir: Path, name: str) -> None:
    _exit_ok(res)
    n = 7
    report = _load(workdir, name)
    due = oracles.cuts(n)
    oracles.expect(len(report["reports"]) == len(due), f"{len(report['reports'])} reports")
    for row, cut in zip(report["reports"], due):
        oracles.expect(tuple(row["subset"]) == cut, f"subset {row['subset']} where {cut} was due")
        want = oracles.ppt_min_eig(n, len(cut))
        oracles.expect_close(f"min_eig cut={cut}", row["min_eig"], want, oracles.PPT_TOL)
        verdict = "PSD" if want == 0.0 else "NOT_PSD"
        oracles.expect(row["verdict"] == verdict, f"verdict {row['verdict']} for cut {cut}, expected {verdict}")
    oracles.expect(
        report["summary"] == {"ppt_single": True, "npt_pairs": True, "bound_entangled_claim": True},
        f"summary {report['summary']}",
    )


def _check_optimize8(res: subprocess.CompletedProcess, workdir: Path) -> None:
    _exit_ok(res)
    n = 8
    report = _load(workdir, "bell8.json")
    settings = _load(workdir, "settings8.json")
    oracles.check_optimized(n, report["value"], settings["a"], settings["a_prime"], oracles.default_alpha(n))
    oracles.expect(report["settings"] == settings, "report and settings file disagree")
    oracles.expect(report["violation"] == (abs(report["value"]) > 1.0), "violation flag")


def _settings8_value(workdir: Path, alpha: float) -> float:
    settings = _load(workdir, "settings8.json")
    return oracles.bell_expectation(oracles.family_entries(8, alpha), settings["a"], settings["a_prime"])


def _check_extract(res: subprocess.CompletedProcess, workdir: Path, name: str, dims: tuple[int, ...]) -> None:
    _exit_ok(res)
    report = _load(workdir, name)
    summary = report["summary"]
    final = report["final_state"]
    amps = np.zeros(math.prod(final["dims"]), dtype=complex)
    for i, re, im in final["amps"]:
        amps[i] = complex(re, im)
    oracles.check_pair(amps, final["dims"], summary["schmidt_coeffs"], summary["probability"], False)
    weights = math.prod(s["weight"] for s in report["steps"])
    oracles.expect_close("probability vs step weights", summary["probability"], weights, 1e-12 * weights)
    oracles.expect(report["config"]["dims"] == list(dims), "config dims")


def _check_sweep(res: subprocess.CompletedProcess, workdir: Path, name: str, alpha: float) -> None:
    _exit_ok(res)
    with open(workdir / name, newline="") as f:
        rows = list(csv.DictReader(f))
    oracles.expect([int(r["n"]) for r in rows] == list(range(2, SWEEP_N_MAX + 1)), "sweep rows")
    for r in rows:
        n = int(r["n"])
        oracles.expect(float(r["alpha"]) == alpha, f"alpha column {r['alpha']} at N={n}")
        value = float(r["bell_xy"])
        oracles.expect_close(f"x/y value N={n}", value, oracles.xy_value(n, alpha), oracles.XY_TOL)
        oracles.expect(r["violation"] == str(abs(value) > 1.0), f"violation flag at N={n}")
        if n <= SWEEP_SCAN_MAX:
            npt = {2: "", 3: "False"}.get(n, "True")
            want = ("True", npt, "True" if n >= 4 else "False")
        else:
            want = ("", "", "")
        got = (r["ppt_single"], r["npt_pairs"], r["bound_entangled_claim"])
        oracles.expect(got == want, f"N={n} PPT columns {got}, expected {want}")


def cli_pipeline_pass(inp: CliInputs, p: Pass, ctx: Context) -> None:
    """CLI commands in sequence, one child process at a time.

    The N = 11 pair and the N = 8 optimization run once per pass; the four
    sub-second commands run once per cheap round, each round on its own
    seeded inputs, so the median command latency rests on more than a
    couple of samples of start-up-dominated children.
    """
    w = ctx.workdir
    n, big = BIG_N, f"rho{BIG_N}.json"
    for old in w.iterdir():  # a failed command must not find last pass's file
        if not old.name.startswith("rho8_"):
            old.unlink()
    commands = [
        (
            f"state --n {n}",
            ["state", "--n", str(n), "--alpha", repr(inp.alpha_big), "--out", big],
            lambda r: _check_state(r, w, n, inp.alpha_big),
        ),
        (
            f"bell --input {big}",
            ["bell", "--input", big, "--out", f"bell{n}.json"],
            lambda r: _check_bell_report(r, w, f"bell{n}.json", oracles.xy_value(n, inp.alpha_big)),
        ),
        (
            "bell --n 8 --settings optimize",
            ["bell", "--n", "8", "--settings", "optimize", "--restarts", str(OPT_RESTARTS), "--seed", str(inp.opt_seed),
             "--settings-out", "settings8.json", "--out", "bell8.json"],
            lambda r: _check_optimize8(r, w),
        ),
    ]
    for i, rd in enumerate(inp.rounds):
        dims = ",".join(map(str, rd.extract_dims))
        commands += [
            (
                f"scan --n 7 --alpha {rd.alpha7!r}",
                ["scan", "--n", "7", "--alpha", repr(rd.alpha7), "--out", f"scan7_{i}.json"],
                lambda r, i=i: _check_scan7(r, w, f"scan7_{i}.json"),
            ),
            (
                f"bell --input rho8_{i}.json --settings settings8.json",
                ["bell", "--input", f"rho8_{i}.json", "--settings", "settings8.json", "--out", f"bell8_{i}.json"],
                lambda r, i=i, rd=rd: _check_bell_report(r, w, f"bell8_{i}.json", _settings8_value(w, rd.alpha8)),
            ),
            (
                f"extract --random {dims} --seed {rd.extract_seed}",
                ["extract", "--random", dims, "--seed", str(rd.extract_seed), "--out", f"extract_{i}.json"],
                lambda r, i=i, rd=rd: _check_extract(r, w, f"extract_{i}.json", rd.extract_dims),
            ),
            (
                f"sweep --alpha {rd.sweep_alpha!r}",
                ["sweep", "--n-min", "2", "--n-max", str(SWEEP_N_MAX), "--scan-max", str(SWEEP_SCAN_MAX),
                 "--alpha", repr(rd.sweep_alpha), "--format", "csv", "--out", f"sweep_{i}.csv"],
                lambda r, i=i, rd=rd: _check_sweep(r, w, f"sweep_{i}.csv", rd.sweep_alpha),
            ),
        ]
    for job, argv, check in commands:
        p.run(job, lambda: _launch(argv, p, ctx), check)


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable
    run_pass: Callable


WORKLOADS = {
    "bell_opt": Workload(bell_opt_inputs, bell_opt_pass),
    "extract_corpus": Workload(extract_corpus_inputs, extract_corpus_pass),
    "cli_pipeline": Workload(cli_pipeline_inputs, cli_pipeline_pass),
}
