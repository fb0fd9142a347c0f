"""Command-line front end producing reproducible JSON/CSV reports.

Commands: ``state`` (serialize a family member), ``scan`` (PPT bipartition
scan), ``bell`` (Bell expectation with fixed, file, or optimized settings),
``extract`` (run the pair-extraction protocol), ``sweep`` (bell+scan
threshold table over a range of N).

Each ``cmd_*`` only computes and returns its report, its summary lines and,
for ``scan``/``sweep``, its CSV table; ``main`` writes the summary to stderr
and the report (JSON, or CSV under ``--format csv``) to ``--out`` or else to
stdout.  ``state``'s ``--out`` names its operator file: its report goes to stdout.

Exit codes: 0 ok, 2 usage/range errors (input files with non-numeric values,
JSON nested too deeply and two outputs naming one file included), 3 not
entangled, 4 requested pair unavailable, 5 numeric degeneracy.
``BOUNDBELL_TOL`` overrides the default tolerance of each command.  ``main``
returns the code; ``entry_point`` (the ``boundbell`` script and ``python -m
boundbell.cli``) flushes stdout and ends the process without interpreter
teardown, with code 2 if stdout is closed or its flush fails.  A stderr that
cannot be written loses only its own lines.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import math
import os
import sys
from pathlib import Path

from .bell import DEFAULT_OPT_TOL, DEFAULT_RESTARTS, BellSettings, bell_value, optimize_settings
from .extraction import (
    NotEntangledError,
    NumericDegeneracyError,
    PairUnavailableError,
    extract,
)
from .ppt import DEFAULT_PPT_TOL, PSD, Verdicts, classify_family, cut_verdicts, scan
# ppt_check stays importable from here: bench/tracing.py rebinds it.
from .ppt import ppt_check  # noqa: F401
from .serialize import (
    amplitudes_to_obj,
    canonical_dumps,
    dump_json,
    extraction_to_obj,
    load_json,
    operator_from_obj,
    operator_to_obj,
    settings_from_obj,
    settings_to_obj,
    state_from_obj,
)
# state_to_obj stays importable from here: bench/tracing.py rebinds it.
from .serialize import state_to_obj  # noqa: F401
from .states import RhoFamilySpec, _ghz_terms, default_alpha, ghz, random_pure, rho_family
from .tensor import PartyLayout

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NOT_ENTANGLED = 3
EXIT_PAIR_UNAVAILABLE = 4
EXIT_NUMERIC_DEGENERACY = 5

_TOL_ENV = "BOUNDBELL_TOL"
_CONFIG_KEYS = (
    "command", "n", "alpha", "tol", "seed", "restarts", "settings", "pair", "dims",
    "input", "out", "format", "n_min", "n_max", "scan_max",
)

# exception type -> exit code, first match wins: subclasses before ValueError
_EXIT_CODES = {
    NotEntangledError: EXIT_NOT_ENTANGLED,
    PairUnavailableError: EXIT_PAIR_UNAVAILABLE,
    NumericDegeneracyError: EXIT_NUMERIC_DEGENERACY,
    ValueError: EXIT_USAGE,
    OSError: EXIT_USAGE,
}


def _config(args, **resolved) -> dict:
    """Configuration echoed into every report: each key as ``resolved`` gives
    it, else as the command's option of that name, else None."""
    given = {**vars(args), **resolved}
    return {key: given.get(key) for key in _CONFIG_KEYS}


def tolerance(text) -> float:
    """Parse a --tol or BOUNDBELL_TOL value: a finite, non-negative number."""
    value = float(text)
    if not 0.0 <= value < math.inf:
        raise ValueError(f"tolerance must be a finite non-negative number, got {text!r}")
    return value


def _violates(value: float, tol: float) -> bool:
    """Bell verdict: |value| exceeds the local bound 1 by more than tol, so a
    value that reaches 1 only through rounding is no violation."""
    return bool(abs(value) - 1.0 > tol)


def _alpha(text: str | None) -> float | None:
    """--alpha as a number; 'auto' and no --alpha give None, resolved to pi*(N-1)/4."""
    return None if text in (None, "auto") else float(text)


def _family_member(alpha_text: str | None, n: int) -> tuple:
    """Family operator and its spec for --n/--alpha; the spec checks the range of n."""
    spec = RhoFamilySpec(n, _alpha(alpha_text))
    return rho_family(spec), spec


def _note(text: str) -> None:
    """``text`` to stderr and flushed; a stderr that cannot take it drops it."""
    with contextlib.suppress(OSError):
        sys.stderr.write(text)
        sys.stderr.flush()


def _emit(report: dict, table, out: str | None) -> None:
    """The report as canonical JSON or, given a ``table`` (header, rows), as
    CSV with floats written by repr, to ``out`` or else stdout."""
    if table is not None:
        header, rows = table
        buf = io.StringIO()
        csv.writer(buf).writerows([header, *rows])
        text = buf.getvalue()
    else:
        text = canonical_dumps(report)
    if out is None:
        if sys.stdout is None:  # fd 1 was closed at start-up
            raise OSError("stdout is closed")
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _separate_outputs(option: str, path, other: str, other_path) -> None:
    """ValueError when two output options resolve to the same file."""
    if path and other_path and Path(path).resolve() == Path(other_path).resolve():
        raise ValueError(f"{option} and {other} both name the file {str(path)!r}")


def _load_operator_source(args) -> tuple:
    """Operator plus (n, alpha) metadata from --input or --n/--alpha."""
    if args.input is not None:
        rho = operator_from_obj(load_json(args.input))
        return rho, rho.layout.num_parties, None
    if args.n is None:
        raise ValueError("provide either --input or --n")
    rho, spec = _family_member(args.alpha, args.n)
    return rho, spec.n, spec.alpha


def cmd_state(args) -> tuple:
    if args.n is None:
        raise ValueError("provide --n")
    rho, spec = _family_member(args.alpha, args.n)

    out = Path(args.operator_out)
    ghz_out = Path(args.ghz_out) if args.ghz_out else out.with_suffix(".ghz.json")
    _separate_outputs("--out", out, "--ghz-out", ghz_out)
    dump_json(operator_to_obj(rho), out)
    dump_json(amplitudes_to_obj(*_ghz_terms(spec.n, spec.alpha)), ghz_out)  # no dense vector

    report = {
        "config": _config(args, alpha=spec.alpha, out=str(out)),
        "operator_file": str(out),
        "ghz_file": str(ghz_out),
        "nonzero_entries": int(rho.vals.size),
    }
    return report, "", None


def cmd_scan(args) -> tuple:
    rho, n, alpha = _load_operator_source(args)
    reports = scan(rho, args.tol)
    summary = cut_verdicts(reports, n)._asdict()

    report = {
        "config": _config(args, n=n, alpha=alpha),
        "N": n,
        "alpha": alpha,
        "reports": [
            {"subset": list(r.subset), "min_eig": r.min_eigenvalue, "verdict": r.verdict}
            for r in reports
        ],
        "all_ppt": all(r.verdict == PSD for r in reports),
        "summary": summary,
    }
    table = (
        ("subset", "min_eigenvalue", "verdict"),
        ([" ".join(map(str, r.subset)), repr(r.min_eigenvalue), r.verdict] for r in reports),
    )
    return report, " ".join(f"{key}={value}" for key, value in summary.items()) + "\n", table


def cmd_bell(args) -> tuple:
    _separate_outputs("--settings-out", args.settings_out, "--out", args.out)
    rho, n, alpha = _load_operator_source(args)
    optimized = args.settings == "optimize"
    if optimized:
        settings, value = optimize_settings(
            rho, restarts=args.restarts, tol=args.tol, seed=args.seed
        )
        if args.settings_out:
            dump_json(settings_to_obj(settings), args.settings_out)
    elif args.settings == "xy":
        settings = BellSettings.xy(rho.layout.num_parties)
        value = bell_value(rho, settings)
    else:
        settings = settings_from_obj(load_json(args.settings))
        value = bell_value(rho, settings)

    config = _config(args, n=n, alpha=alpha)
    if not optimized:  # seed and restarts steer the optimizer only
        config.update(seed=None, restarts=None)
    report = {
        "config": config,
        "value": value,
        "bound": 1.0,
        "violation": _violates(value, args.tol),
        "settings": settings_to_obj(settings),
    }
    return report, f"value={value!r} bound=1.0 violation={report['violation']}\n", None


def _int_list(option: str, text: str, count: int | None = None) -> tuple[int, ...]:
    """``option``'s text as comma-separated integers, ``count`` of them if given;
    ValueError naming the option and the text otherwise."""
    try:
        values = tuple(int(x) for x in text.split(","))
    except ValueError:
        values = None
    if values is None or count not in (None, len(values)):
        how_many = "" if count is None else f"{count} "
        raise ValueError(f"{option} expects {how_many}comma-separated integers, got {text!r}")
    return values


def cmd_extract(args) -> tuple:
    sources = [args.input is not None, args.ghz is not None, args.random is not None]
    if sum(sources) != 1:
        raise ValueError("provide exactly one of --input, --ghz, --random")
    dims = alpha = None  # --alpha steers --ghz only
    if args.input is not None:
        psi = state_from_obj(load_json(args.input))
    elif args.ghz is not None:  # the phase defaults to 0 here, not to auto
        alpha = 0.0 if args.alpha is None else _alpha(args.alpha)
        alpha = default_alpha(args.ghz) if alpha is None else alpha
        psi = ghz(args.ghz, alpha)
    else:
        dims = _int_list("--random", args.random)
        psi = random_pure(PartyLayout(dims), args.seed)

    pair = None if args.pair is None else _int_list("--pair", args.pair, 2)
    result = extract(psi, pair)

    config = _config(args, n=psi.layout.num_parties, alpha=alpha, pair=pair, dims=dims)
    if args.random is None:  # the seed steers --random only
        config["seed"] = None
    report = {"config": config, **extraction_to_obj(result)}
    summary = (
        f"pair={result.pair} probability={result.probability!r} "
        f"schmidt_coeffs={result.schmidt_coeffs!r}\n"
    )
    return report, summary, None


def cmd_sweep(args) -> tuple:
    if args.n_min > args.n_max:
        raise ValueError("need --n-min <= --n-max")
    members = [_family_member(args.alpha, n) for n in range(args.n_min, args.n_max + 1)]
    rows = []
    for rho, spec in members:
        n, alpha = spec.n, spec.alpha
        value = bell_value(rho, BellSettings.xy(n))
        row = {"n": n, "alpha": alpha, "bell_xy": value, "violation": _violates(value, args.tol)}
        row.update(dict.fromkeys(Verdicts._fields))  # None outside the PPT range
        if n <= args.scan_max:
            row.update(classify_family(n, alpha, args.tol)._asdict())
        rows.append(row)

    config = _config(args, alpha=_alpha(args.alpha))
    summary = "".join(
        f"n={row['n']} bell_xy={row['bell_xy']!r} violation={row['violation']}\n" for row in rows
    )
    # CSV header from the first row: every row has the same keys
    return {"config": config, "rows": rows}, summary, (rows[0], (row.values() for row in rows))


def _shared(flag: str, **kwargs) -> argparse.ArgumentParser:
    """A parent parser declaring one option that several commands take."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(flag, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boundbell",
        description="Bound-entangled state family: PPT scans, Bell violation, pair extraction.",
    )
    parser.set_defaults(out=None, format=None)  # for commands without --out or --format
    sub = parser.add_subparsers(dest="command", required=True)

    source = _shared("--input", default=None, help="operator JSON file (extract: pure-state)")
    n = _shared("--n", type=int, default=None)
    alpha = _shared("--alpha", default=None, help="GHZ phase or 'auto' (default; extract: 0)")
    tol = _shared("--tol", type=tolerance, default=None)
    seed = _shared("--seed", type=int, default=0)
    fmt = _shared("--format", choices=("json", "csv"), default="json")
    out = _shared("--out", default=None, help="report file; stdout without one")

    p_state = sub.add_parser("state", parents=[n, alpha],
                             help="serialize a family member and its GHZ component")
    p_state.add_argument("--out", dest="operator_out", metavar="OUT", required=True,
                         help="operator JSON file")
    p_state.add_argument("--ghz-out", dest="ghz_out", default=None)
    p_state.set_defaults(func=cmd_state)

    p_scan = sub.add_parser("scan", parents=[source, n, alpha, tol, fmt, out],
                            help="PPT-check all bipartitions up to size N/2")
    p_scan.set_defaults(func=cmd_scan, default_tol=DEFAULT_PPT_TOL)

    p_bell = sub.add_parser("bell", parents=[source, n, alpha, tol, seed, out],
                            help="Bell expectation for xy/file/optimized settings")
    p_bell.add_argument("--settings", default="xy", help="'xy', 'optimize', or a settings JSON path")
    p_bell.add_argument("--restarts", type=int, default=DEFAULT_RESTARTS)
    p_bell.add_argument("--settings-out", dest="settings_out", default=None)
    p_bell.set_defaults(func=cmd_bell, default_tol=DEFAULT_OPT_TOL)

    p_extract = sub.add_parser("extract", parents=[source, alpha, seed, out],
                               help="extract a maximally entangled pair")
    p_extract.add_argument("--ghz", type=int, default=None)
    p_extract.add_argument("--random", default=None, help="comma-separated local dims")
    p_extract.add_argument("--pair", default=None)
    p_extract.set_defaults(func=cmd_extract)

    p_sweep = sub.add_parser("sweep", parents=[alpha, tol, fmt, out],
                             help="bell+scan threshold table over a range of N")
    p_sweep.add_argument("--n-min", dest="n_min", type=int, default=2)
    p_sweep.add_argument("--n-max", dest="n_max", type=int, default=8)
    p_sweep.add_argument("--scan-max", dest="scan_max", type=int, default=8,
                         help="largest N to include in the PPT part")
    p_sweep.set_defaults(func=cmd_sweep, default_tol=DEFAULT_PPT_TOL)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "default_tol" in args and args.tol is None:
            args.tol = tolerance(os.environ.get(_TOL_ENV, args.default_tol))
        report, summary, table = args.func(args)
        _note(summary)
        _emit(report, table if args.format == "csv" else None, args.out)
    except tuple(_EXIT_CODES) as exc:
        _note(f"error: {exc}\n")
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
    return EXIT_OK


def entry_point() -> None:
    """Run ``main`` and end the process with its code, skipping interpreter
    teardown once stdout is flushed (reports are written and closed, stderr
    lines flushed as written, and no exit hooks registered).  A failed flush
    is a failed write, as in ``main``: exit 2.  Started with fd 2 closed, the
    process writes its summary nowhere; with fd 1 closed, a stdout report fails."""
    if sys.stderr is None:  # fd 2 was closed at start-up
        sys.stderr = io.StringIO()
    try:
        code = main()
    except SystemExit as exc:  # argparse: usage errors and --help
        code = exc.code
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        code = EXIT_USAGE
        _note(f"error: {exc}\n")
    os._exit(code)


if __name__ == "__main__":
    entry_point()
