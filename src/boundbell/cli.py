"""Command-line front end producing reproducible JSON/CSV reports.

Commands: ``state`` (serialize a family member), ``scan`` (PPT bipartition
scan), ``bell`` (Bell expectation with fixed, file, or optimized settings),
``extract`` (run the pair-extraction protocol), ``sweep`` (bell+scan
threshold table over a range of N).

Exit codes: 0 ok, 2 usage/range errors, 3 not entangled, 4 requested pair
unavailable, 5 numeric degeneracy.  ``BOUNDBELL_TOL`` overrides the default
tolerance of each command.  ``main`` returns the code; ``entry_point`` (the
``boundbell`` script and ``python -m boundbell.cli``) flushes the standard
streams and ends the process without interpreter teardown.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys
from pathlib import Path

from .bell import DEFAULT_OPT_TOL, BellSettings, bell_value, optimize_settings
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
    canonical_dumps,
    dump_json,
    extraction_to_obj,
    load_json,
    operator_from_obj,
    operator_to_obj,
    settings_from_obj,
    settings_to_obj,
    state_from_obj,
    state_to_obj,
)
from .states import RhoFamilySpec, default_alpha, ghz, random_pure, rho_family
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


def _config(**given) -> dict:
    """Resolved configuration echoed into every report: every key, None unless given."""
    return {**dict.fromkeys(_CONFIG_KEYS), **given}


def tolerance(text) -> float:
    """Parse a --tol or BOUNDBELL_TOL value: a finite, non-negative number."""
    value = float(text)
    if not 0.0 <= value < math.inf:
        raise ValueError(f"tolerance must be a finite non-negative number, got {text!r}")
    return value


def _default_tol(fallback: float) -> float:
    env = os.environ.get(_TOL_ENV)
    return fallback if env is None else tolerance(env)


def _violates(value: float, tol: float) -> bool:
    """Bell verdict: |value| exceeds the local bound 1 by more than tol, so a
    value that reaches 1 only through rounding is no violation."""
    return bool(abs(value) - 1.0 > tol)


def _resolve_alpha(text: str, n: int) -> float:
    if text == "auto":
        return default_alpha(n)
    return float(text)


def _family_member(alpha_text: str, n: int) -> tuple:
    """Family operator and its spec for --n/--alpha; the spec checks the range of n."""
    spec = RhoFamilySpec(n, _resolve_alpha(alpha_text, n))
    return rho_family(spec), spec


def _emit(report: dict, out: str | None) -> None:
    if out is None:
        sys.stdout.write(canonical_dumps(report))
    else:
        dump_json(report, out)


def _emit_csv(header, rows, out: str | None) -> None:
    """CSV table (csv writes floats by repr) to ``out``, or to stdout without one."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    if out is None:
        sys.stdout.write(buf.getvalue())
    else:
        Path(out).write_text(buf.getvalue(), encoding="utf-8")


def _load_operator_source(args) -> tuple:
    """Operator plus (n, alpha) metadata from --input or --n/--alpha."""
    if args.input is not None:
        rho = operator_from_obj(load_json(args.input))
        return rho, rho.layout.num_parties, None
    if args.n is None:
        raise ValueError("provide either --input or --n")
    rho, spec = _family_member(args.alpha, args.n)
    return rho, spec.n, spec.alpha


def cmd_state(args) -> int:
    rho, spec = _family_member(args.alpha, args.n)
    psi = ghz(spec.n, spec.alpha)

    out = Path(args.out)
    ghz_out = Path(args.ghz_out) if args.ghz_out else out.with_suffix(".ghz.json")
    dump_json(operator_to_obj(rho), out)
    dump_json(state_to_obj(psi), ghz_out)

    report = {
        "config": _config(command="state", n=spec.n, alpha=spec.alpha, out=str(out)),
        "operator_file": str(out),
        "ghz_file": str(ghz_out),
        "nonzero_entries": int(rho.vals.size),
    }
    sys.stdout.write(canonical_dumps(report))
    return EXIT_OK


def cmd_scan(args) -> int:
    tol = args.tol if args.tol is not None else _default_tol(DEFAULT_PPT_TOL)
    rho, n, alpha = _load_operator_source(args)
    reports = scan(rho, tol)
    summary = cut_verdicts(reports, n)._asdict()

    config = _config(
        command="scan", n=n, alpha=alpha, tol=tol, input=args.input, out=args.out,
        format=args.format,
    )
    report = {
        "config": config,
        "N": n,
        "alpha": alpha,
        "reports": [
            {"subset": list(r.subset), "min_eig": r.min_eigenvalue, "verdict": r.verdict}
            for r in reports
        ],
        "all_ppt": all(r.verdict == PSD for r in reports),
        "summary": summary,
    }
    sys.stderr.write(" ".join(f"{key}={value}" for key, value in summary.items()) + "\n")
    if args.format == "csv":
        _emit_csv(
            ["subset", "min_eigenvalue", "verdict"],
            ([" ".join(map(str, r.subset)), repr(r.min_eigenvalue), r.verdict] for r in reports),
            args.out,
        )
    else:
        _emit(report, args.out)
    return EXIT_OK


def cmd_bell(args) -> int:
    tol = args.tol if args.tol is not None else _default_tol(DEFAULT_OPT_TOL)
    rho, n, alpha = _load_operator_source(args)
    optimized = False
    if args.settings == "xy":
        settings = BellSettings.xy(rho.layout.num_parties)
        value = bell_value(rho, settings)
    elif args.settings == "optimize":
        optimized = True
        settings, value = optimize_settings(
            rho, restarts=args.restarts, tol=tol, seed=args.seed
        )
    else:
        settings = settings_from_obj(load_json(args.settings))
        value = bell_value(rho, settings)

    config = _config(
        command="bell",
        n=n,
        alpha=alpha,
        tol=tol,
        seed=args.seed if optimized else None,
        restarts=args.restarts if optimized else None,
        settings=args.settings,
        input=args.input,
        out=args.out,
    )
    report = {
        "config": config,
        "value": value,
        "bound": 1.0,
        "violation": _violates(value, tol),
        "settings": settings_to_obj(settings),
    }
    sys.stderr.write(f"value={value!r} bound=1.0 violation={report['violation']}\n")
    if optimized and args.settings_out:
        dump_json(settings_to_obj(settings), args.settings_out)
    _emit(report, args.out)
    return EXIT_OK


def _parse_pair(text: str) -> tuple[int, int]:
    parts = [int(x) for x in text.split(",")]
    if len(parts) != 2:
        raise ValueError(f"--pair expects two comma-separated indices, got {text!r}")
    return parts[0], parts[1]


def cmd_extract(args) -> int:
    sources = [args.input is not None, args.ghz is not None, args.random is not None]
    if sum(sources) != 1:
        raise ValueError("provide exactly one of --input, --ghz, --random")
    dims = None
    if args.input is not None:
        psi = state_from_obj(load_json(args.input))
    elif args.ghz is not None:
        psi = ghz(args.ghz, _resolve_alpha(args.alpha, args.ghz))
    else:
        dims = tuple(int(d) for d in args.random.split(","))
        psi = random_pure(PartyLayout(dims), args.seed)

    pair = _parse_pair(args.pair) if args.pair else None
    result = extract(psi, pair)

    config = _config(
        command="extract",
        n=psi.layout.num_parties,
        seed=args.seed if args.random is not None else None,
        pair=pair,
        dims=dims,
        input=args.input,
        out=args.out,
    )
    report = {"config": config, **extraction_to_obj(result)}
    sys.stderr.write(
        f"pair={result.pair} probability={result.probability!r} "
        f"schmidt_coeffs={result.schmidt_coeffs!r}\n"
    )
    _emit(report, args.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    tol = args.tol if args.tol is not None else _default_tol(DEFAULT_PPT_TOL)
    if args.n_min > args.n_max:
        raise ValueError("need --n-min <= --n-max")
    members = [_family_member(args.alpha, n) for n in range(args.n_min, args.n_max + 1)]
    rows = []
    for rho, spec in members:
        n, alpha = spec.n, spec.alpha
        value = bell_value(rho, BellSettings.xy(n))
        row = {"n": n, "alpha": alpha, "bell_xy": value, "violation": _violates(value, tol)}
        row.update(dict.fromkeys(Verdicts._fields))  # None outside the PPT range
        if n <= args.scan_max:
            row.update(classify_family(n, alpha, tol)._asdict())
        rows.append(row)
        sys.stderr.write(
            f"n={n} bell_xy={row['bell_xy']!r} violation={row['violation']}\n"
        )

    config = _config(
        command="sweep",
        alpha=None if args.alpha == "auto" else float(args.alpha),
        tol=tol,
        n_min=args.n_min,
        n_max=args.n_max,
        scan_max=args.scan_max,
        out=args.out,
        format=args.format,
    )
    report = {"config": config, "rows": rows}
    if args.format == "csv":  # header from the first row: every row has the same keys
        _emit_csv(rows[0], (row.values() for row in rows), args.out)
    else:
        _emit(report, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boundbell",
        description="Bound-entangled state family: PPT scans, Bell violation, pair extraction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_state = sub.add_parser("state", help="serialize a family member and its GHZ component")
    p_state.add_argument("--n", type=int, required=True)
    p_state.add_argument("--alpha", default="auto")
    p_state.add_argument("--out", required=True)
    p_state.add_argument("--ghz-out", dest="ghz_out", default=None)
    p_state.set_defaults(func=cmd_state)

    p_scan = sub.add_parser("scan", help="PPT-check all bipartitions up to size N/2")
    p_scan.add_argument("--input", default=None, help="operator JSON file")
    p_scan.add_argument("--n", type=int, default=None)
    p_scan.add_argument("--alpha", default="auto")
    p_scan.add_argument("--tol", type=tolerance, default=None)
    p_scan.add_argument("--format", choices=("json", "csv"), default="json")
    p_scan.add_argument("--out", default=None)
    p_scan.set_defaults(func=cmd_scan)

    p_bell = sub.add_parser("bell", help="Bell expectation for xy/file/optimized settings")
    p_bell.add_argument("--input", default=None)
    p_bell.add_argument("--n", type=int, default=None)
    p_bell.add_argument("--alpha", default="auto")
    p_bell.add_argument("--settings", default="xy", help="'xy', 'optimize', or a settings JSON path")
    p_bell.add_argument("--restarts", type=int, default=16)
    p_bell.add_argument("--tol", type=tolerance, default=None)
    p_bell.add_argument("--seed", type=int, default=0)
    p_bell.add_argument("--out", default=None)
    p_bell.add_argument("--settings-out", dest="settings_out", default=None)
    p_bell.set_defaults(func=cmd_bell)

    p_extract = sub.add_parser("extract", help="extract a maximally entangled pair")
    p_extract.add_argument("--input", default=None, help="pure-state JSON file")
    p_extract.add_argument("--ghz", type=int, default=None)
    p_extract.add_argument("--alpha", default="0.0")
    p_extract.add_argument("--random", default=None, help="comma-separated local dims")
    p_extract.add_argument("--seed", type=int, default=0)
    p_extract.add_argument("--pair", default=None)
    p_extract.add_argument("--out", default=None)
    p_extract.set_defaults(func=cmd_extract)

    p_sweep = sub.add_parser("sweep", help="bell+scan threshold table over a range of N")
    p_sweep.add_argument("--n-min", dest="n_min", type=int, default=2)
    p_sweep.add_argument("--n-max", dest="n_max", type=int, default=8)
    p_sweep.add_argument("--alpha", default="auto")
    p_sweep.add_argument("--scan-max", dest="scan_max", type=int, default=8,
                         help="largest N to include in the PPT part")
    p_sweep.add_argument("--tol", type=tolerance, default=None)
    p_sweep.add_argument("--format", choices=("json", "csv"), default="json")
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


def entry_point() -> None:
    """Run ``main`` and end the process with its code, skipping interpreter
    teardown once stdout and stderr are flushed: reports are already written
    and closed, and the package registers no exit hooks.  A flush that fails
    (a closed pipe) leaves the ending to ``sys.exit``, as before."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    entry_point()
