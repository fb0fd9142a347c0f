"""CLI commands, exit codes, file formats, and byte-level determinism."""

import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import boundbell
from boundbell import cli
from boundbell import (
    BellSettings, PartyLayout, PureState, RhoFamilySpec, bell_value, ghz, rho_family,
)
from boundbell.cli import main
from boundbell.family import xy_value
from boundbell.serialize import (
    dump_json,
    load_json,
    operator_entries_from_obj,
    operator_from_obj,
    operator_to_obj,
    settings_to_obj,
    state_to_obj,
)
from helpers import dense_matrix, dense_operator, pure_operator, traced_peak


def run(argv):
    return main([str(a) for a in argv])


def test_state_round_trip(tmp_path):
    out = tmp_path / "rho4.json"
    assert run(["state", "--n", 4, "--alpha", "auto", "--out", out]) == 0
    rho = operator_from_obj(load_json(out))
    expected = rho_family(RhoFamilySpec(4))
    assert np.array_equal(dense_matrix(rho), dense_matrix(expected))
    ghz_file = tmp_path / "rho4.ghz.json"
    assert ghz_file.exists()
    obj = load_json(out)
    assert len(obj["entries"]) == 12


def test_state_range_error(tmp_path):
    assert run(["state", "--n", 1, "--out", tmp_path / "x.json"]) == 2
    assert run(["state", "--n", 32, "--out", tmp_path / "x.json"]) == 2


def test_state_refuses_one_file_for_both_outputs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(["state", "--n", 4, "--out", "x.json", "--ghz-out", tmp_path / "x.json"]) == 2
    assert "error: --out and --ghz-out" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_state_writes_the_ghz_file_above_the_dense_cap(tmp_path):
    # the GHZ file lists its two amplitudes; only reading it back densely is capped
    out = tmp_path / "big.json"
    assert run(["state", "--n", 20, "--alpha", "0.7", "--out", out]) == 0
    obj = load_json(tmp_path / "big.ghz.json")
    assert obj["dims"] == [2] * 20
    assert [row[0] for row in obj["amps"]] == [0, 2**20 - 1]
    np.testing.assert_allclose(
        [row[1:] for row in obj["amps"]], [[2**-0.5, 0.0], [np.cos(0.7) * 2**-0.5, np.sin(0.7) * 2**-0.5]],
        rtol=0, atol=1e-15,
    )
    assert len(operator_from_obj(load_json(out)).vals) == 44
    assert run(["extract", "--input", tmp_path / "big.ghz.json", "--out", tmp_path / "e.json"]) == 2


@pytest.mark.parametrize("n", [2, 3, 7, 12])
def test_state_ghz_file_is_the_dense_states_encoding(tmp_path, n):
    for alpha in ("0", "0.7", "-1.3", "auto"):
        out = tmp_path / f"rho{n}.json"
        assert run(["state", "--n", n, "--alpha", alpha, "--out", out]) == 0
        spec = RhoFamilySpec(n, None if alpha == "auto" else float(alpha))
        dump_json(state_to_obj(ghz(n, spec.alpha)), tmp_path / "dense.json")
        got = (tmp_path / f"rho{n}.ghz.json").read_bytes()
        assert got == (tmp_path / "dense.json").read_bytes(), alpha


def test_scan_family(tmp_path):
    out = tmp_path / "scan6.json"
    assert run(["scan", "--n", 6, "--tol", "1e-9", "--out", out]) == 0
    report = load_json(out)
    assert report["summary"]["npt_pairs"] is True
    assert report["summary"]["ppt_single"] is True
    assert report["all_ppt"] is False
    assert report["config"]["alpha"] == pytest.approx(np.pi * 5 / 4)


def test_scan_from_input_file(tmp_path):
    layout = PartyLayout.qubits(2)
    mixed = dense_operator(layout, np.eye(4) / 4)
    src = tmp_path / "mixed.json"
    dump_json(operator_to_obj(mixed), src)
    out = tmp_path / "scan.json"
    assert run(["scan", "--input", src, "--out", out]) == 0
    assert load_json(out)["all_ppt"] is True


def test_scan_refuses_a_one_party_operator(tmp_path):
    src = tmp_path / "one.json"
    src.write_text('{"dims": [2], "entries": [[0, 0, 0.5, 0.0], [1, 1, 0.5, 0.0]]}')
    assert run(["scan", "--input", src]) == 2


@pytest.mark.parametrize("n", range(2, 9))
def test_scan_summary_matches_sweep_verdicts(tmp_path, n):
    # scan's reports stop at size N // 2 (singles only at N = 3); sweep checks (1,) and (1, 2)
    assert run(["scan", "--n", n, "--out", tmp_path / "scan.json"]) == 0
    assert run(["sweep", "--n-min", n, "--n-max", n, "--scan-max", n,
                "--out", tmp_path / "sweep.json"]) == 0
    (row,) = load_json(tmp_path / "sweep.json")["rows"]
    summary = load_json(tmp_path / "scan.json")["summary"]
    verdicts = ("ppt_single", "npt_pairs", "bound_entangled_claim")
    assert summary == {key: row[key] for key in verdicts}


def test_scan_csv(tmp_path):
    out = tmp_path / "scan.csv"
    assert run(["scan", "--n", 4, "--format", "csv", "--out", out]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "subset,min_eigenvalue,verdict"
    assert len(lines) == 1 + 10  # 4 singles + 6 pairs


def test_bell_xy_threshold(tmp_path):
    out = tmp_path / "bell8.json"
    assert run(["bell", "--n", 8, "--settings", "xy", "--out", out]) == 0
    report = load_json(out)
    assert report["value"] == pytest.approx(2**3.5 / 9, abs=1e-10)
    assert report["violation"] is True

    out7 = tmp_path / "bell7.json"
    assert run(["bell", "--n", 7, "--settings", "xy", "--out", out7]) == 0
    report7 = load_json(out7)
    assert report7["value"] == pytest.approx(1.0, abs=1e-10)
    assert report7["violation"] is False


@pytest.mark.parametrize("alpha", [None, 0.3])
def test_bell_input_of_family_files_matches_the_closed_form(tmp_path, alpha):
    # x/y terms are 0 and rho[1...1, 0...0] 2^N, so the plain sum is exact
    for n in range(2, 32):
        phase = [] if alpha is None else ["--alpha", alpha]
        src, plain = (tmp_path / f"{name}{n}.json" for name in ("rho", "plain"))
        assert run(["state", "--n", n, *phase, "--out", src]) == 0
        assert run(["bell", "--input", src, "--tol", 0, "--out", plain]) == 0
        value = load_json(plain)["value"]
        assert value == xy_value(RhoFamilySpec(n, alpha)), n
        verdict = n >= 8 if alpha is None else abs(value) > 1.0  # exactly 1.0 at N = 7
        assert load_json(plain)["violation"] is verdict, (n, value)


@pytest.mark.parametrize(
    "n, violation", [(3, False), (5, False), (6, False), (7, False), (8, True), (9, True)]
)
def test_optimized_violation_verdict_has_a_margin(tmp_path, monkeypatch, n, violation):
    # at N = 3, 5, 7 no setting takes the value past 2^((N-1)/2)/(N+1) <= 1
    # (family.never_violates), so no tolerance, 0 included, makes a violation
    # of the optimizer's 1 + 4e-16 at N = 7, with its settings or read back.
    # The tolerance is the verdict's margin alone: the optimizer stops at its
    # own, so every tolerance finds the default run's value and settings.
    out, best = tmp_path / "bell.json", tmp_path / "best.json"
    for seed in range(4):
        found = []
        for tol, env in [([], None), (["--tol", 0], None), ([], "0")]:
            if env is None:
                monkeypatch.delenv("BOUNDBELL_TOL", raising=False)
            else:
                monkeypatch.setenv("BOUNDBELL_TOL", env)
            assert run(["bell", "--n", n, "--settings", "optimize", "--seed", seed, *tol,
                        "--settings-out", best, "--out", out]) == 0
            report = load_json(out)
            assert report["value"] == pytest.approx(2 ** ((n - 1) / 2) / (n + 1), abs=1e-9)
            assert report["violation"] is violation, (seed, tol, env, report["value"])
            found.append((report["value"], report["settings"]))
            assert run(["bell", "--n", n, "--settings", best, *tol, "--out", out]) == 0
            assert load_json(out)["violation"] is violation, (seed, tol, env, load_json(out)["value"])
        assert found[1] == found[0] and found[2] == found[0], seed


@pytest.mark.parametrize("settings", ["xy", "optimize", "file"])
def test_bell_rejects_a_qudit_operator(tmp_path, settings):
    src = tmp_path / "qudit.json"
    src.write_text('{"dims": [2, 3], "entries": [[0, 0, 0.5, 0.0], [5, 5, 0.5, 0.0]]}')
    if settings == "file":
        settings = tmp_path / "xy.json"
        dump_json({"a": [[1, 0, 0]] * 2, "a_prime": [[0, 1, 0]] * 2}, settings)
    assert run(["bell", "--input", src, "--settings", settings]) == 2


def test_bell_refuses_one_file_for_settings_and_report(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["bell", "--n", 4, "--settings", "optimize", "--restarts", 1, "--settings-out", "b.json"]
    assert run(argv + ["--out", "./b.json"]) == 2
    assert "error: --settings-out and --out" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (["scan", "--input", "r4.json", "--out", "r4.json"], "--input and --out"),
        (["bell", "--input", "r4.json", "--out", "./r4.json"], "--input and --out"),
        (["bell", "--input", "r4.json", "--settings-out", "r4.json"], "--input and --settings-out"),
        (["bell", "--n", "4", "--settings", "xy4.json", "--out", "xy4.json"], "--settings and --out"),
        (["bell", "--input", "r4.json", "--settings", "xy4.json", "--settings-out", "xy4.json"],
         "--settings and --settings-out"),
        (["extract", "--input", "r4.json", "--out", "r4.json"], "--input and --out"),
    ],
    ids=["scan", "bell", "bell-settings-out", "bell-settings-file", "bell-settings-both", "extract"],
)
def test_outputs_never_overwrite_an_input(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    assert run(["state", "--n", 4, "--out", "r4.json", "--ghz-out", "g4.json"]) == 0
    dump_json({"a": [[1, 0, 0]] * 4, "a_prime": [[0, 1, 0]] * 4}, "xy4.json")
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    capsys.readouterr()
    assert run(argv) == 2
    assert f"error: {message} both name the file" in capsys.readouterr().err
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


@pytest.mark.parametrize("alpha", [None, 0.3])
def test_bell_family_with_a_settings_file_matches_the_numpy_path(tmp_path, alpha):
    # bell --n N --settings FILE sums the member's entries in plain Python:
    # random directions agree with bell_value to rounding, x/y bit for bit
    rng = np.random.default_rng(22)
    phase = [] if alpha is None else ["--alpha", alpha]
    for n in range(2, 13):
        directions = rng.normal(size=(2, n, 3))
        directions /= np.linalg.norm(directions, axis=2, keepdims=True)
        settings = BellSettings(directions[0], directions[1])
        dump_json(settings_to_obj(settings), tmp_path / "random.json")
        dump_json(settings_to_obj(BellSettings.xy(n)), tmp_path / "xy.json")
        want = bell_value(rho_family(RhoFamilySpec(n, alpha)), settings)
        for name in ("random", "xy", "closed"):
            argv = [] if name == "closed" else ["--settings", tmp_path / f"{name}.json"]
            assert run(["bell", "--n", n, *phase, *argv, "--out", tmp_path / f"{name}.out"]) == 0
        assert load_json(tmp_path / "random.out")["value"] == pytest.approx(want, rel=0, abs=1e-12)
        assert load_json(tmp_path / "xy.out")["value"] == load_json(tmp_path / "closed.out")["value"]


def test_bell_optimize_and_settings_file(tmp_path):
    phi = PureState(PartyLayout.qubits(2), np.array([1, 0, 0, 1]) / np.sqrt(2))
    src = tmp_path / "phi.json"
    dump_json(operator_to_obj(pure_operator(phi)), src)
    out = tmp_path / "opt.json"
    settings_out = tmp_path / "best.json"
    assert run(
        ["bell", "--input", src, "--settings", "optimize", "--restarts", 4,
         "--seed", 5, "--out", out, "--settings-out", settings_out]
    ) == 0
    report = load_json(out)
    assert report["value"] >= np.sqrt(2) - 1e-6
    # re-evaluate the emitted settings file through the CLI
    out2 = tmp_path / "reval.json"
    assert run(["bell", "--input", src, "--settings", settings_out, "--out", out2]) == 0
    assert load_json(out2)["value"] == pytest.approx(report["value"], abs=1e-10)


@pytest.mark.parametrize(
    "text",
    [
        '{"a": [[NaN, 0, 0], [1, 0, 0]], "a_prime": [[0, 1, 0], [0, 1, 0]]}',
        '{"a": [[1, 0, 0], [1, 0, 0]]}',
        '{"a_prime": [[0, 1, 0], [0, 1, 0]]}',
        '[[1, 0, 0], [1, 0, 0]]',
        '{"a": [1, 0], "a_prime": [[0, 1, 0], [0, 1, 0]]}',
        "[" * 100000 + "]" * 100000,
        '{"a": [["1", 0, 0], [1, 0, 0]], "a_prime": [[0, 1, 0], [0, 1, 0]]}',
        '{"a": [[true, 0, 0], [1, 0, 0]], "a_prime": [[0, 1, 0], [0, 1, 0]]}',
        '{"a": [[1%s, 0, 0], [1, 0, 0]], "a_prime": [[0, 1, 0], [0, 1, 0]]}' % ("0" * 400),
    ],
    ids=[
        "nan", "no-a-prime", "no-a", "not-an-object", "scalar-direction", "nested-too-deep",
        "string-component", "boolean-component", "component-past-double",
    ],
)
def test_bell_malformed_settings_file_exit_code(tmp_path, text):
    settings = tmp_path / "settings.json"
    settings.write_text(text)
    assert run(["bell", "--n", 2, "--settings", settings]) == 2


def exit_code(argv):
    """main's return value, or the code of the SystemExit argparse raises."""
    try:
        return run(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("command", ["scan", "bell"])
@pytest.mark.parametrize(
    "text",
    [
        '{"dims": [2, 2], "entries": [[-1, -1, 1.0, 0.0]]}',
        '{"dims": [2, 2], "entries": [[4, 4, 1.0, 0.0]]}',
        '{"dims": [2, 2], "entries": [[0.5, 0, 1.0, 0.0]]}',
        '{"dims": [2, 2], "entries": [[0, 0, 0.5, 0.0], [0, 0, 0.5, 0.0]]}',
        '{"entries": [[0, 0, 1.0, 0.0]]}',
        '{"dims": [2, 2]}',
        '{"dims": [2, 2], "entries": [[0, 0, NaN, 0.0], [3, 3, 1.0, 0.0]]}',
        '{"dims": [2, 2], "entries": [[0, 0, 5.0, 0.0]]}',
        '{"dims": [2, 2], "entries": [[0, 0, 1.0, 0.0], [0, 1, 0.5, 0.0]]}',
        '{"dims": [2, 2], "entries": [[0, 0, 1.0]]}',
        '[[0, 0, 1.0, 0.0]]',
        '{"dims": [2.9, 2], "entries": [[0, 0, 1.0, 0.0]]}',
        "[" * 100000 + "]" * 100000,
        '{"dims": [2, 2], "entries": [[0, 0, "1.0", 0.0]]}',
        '{"dims": [2, 2], "entries": [["0", 0, 1.0, 0.0]]}',
        '{"dims": [2, 2], "entries": [[0, 0, true, 0]]}',
        '{"dims": [2, 2], "entries": [[0, 0, 1%s, 0]]}' % ("0" * 400),
    ],
    ids=[
        "negative-index", "index-out-of-range", "fractional-index", "duplicate-entry",
        "no-dims", "no-entries", "nan-value", "trace-five", "not-hermitian",
        "short-entry", "not-an-object", "fractional-dims", "nested-too-deep",
        "string-value", "string-index", "boolean-value", "value-past-double",
    ],
)
def test_malformed_operator_file_exit_code(tmp_path, command, text):
    src = tmp_path / "op.json"
    src.write_text(text)
    assert exit_code([command, "--input", src]) == 2


# Defects planted in a valid file of equal diagonal entries (13 qubits).
DEFECTS = {
    "negative-index": lambda rows: rows[0].__setitem__(0, -1),
    "index-out-of-range": lambda rows: rows[0].__setitem__(1, 1 << 13),
    "fractional-index": lambda rows: rows[0].__setitem__(0, 0.5),
    "duplicate-entry": lambda rows: rows.append(list(rows[0])),
    "nan-value": lambda rows: rows[0].__setitem__(2, math.nan),
    "trace-five": lambda rows: rows[0].__setitem__(2, 4.0 + rows[0][2]),
    "not-hermitian": lambda rows: rows.append([0, 1, 0.5, 0.0]),
    "short-entry": lambda rows: rows[0].pop(),
    "string-value": lambda rows: rows[0].__setitem__(2, "1.0"),
    "string-index": lambda rows: rows[0].__setitem__(0, "0"),
    "boolean-value": lambda rows: rows[0].__setitem__(3, False),
    "value-past-double": lambda rows: rows[0].__setitem__(2, 10**400),
    "index-past-double": lambda rows: rows[0].__setitem__(1, 10**400),
}


@pytest.mark.parametrize("above_cap", [False, True], ids=["plain", "numpy"])
@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_malformed_operator_file_exit_code_on_both_paths(tmp_path, monkeypatch, capsys, defect, above_cap):
    obj = _diagonal_operator(cli.PLAIN_MAX_ENTRIES + 1 if above_cap else cli.PLAIN_MAX_ENTRIES - 1)
    obj["dims"] = [2] * 13
    DEFECTS[defect](obj["entries"])
    src = tmp_path / "op.json"
    src.write_text(json.dumps(obj))
    dump_json({"a": [[1, 0, 0]] * 13, "a_prime": [[0, 1, 0]] * 13}, tmp_path / "xy.json")
    plain = []  # the files the plain decoder took
    monkeypatch.setattr(
        cli, "operator_entries_from_obj", lambda obj: plain.append(obj) or operator_entries_from_obj(obj)
    )
    for settings in ("xy", tmp_path / "xy.json"):
        assert exit_code(["bell", "--input", src, "--settings", settings]) == 2, settings
    assert len(plain) == (0 if above_cap else 2)
    with pytest.raises(ValueError) as numpy_error:
        operator_from_obj(obj)
    with pytest.raises(ValueError) as plain_error:
        operator_entries_from_obj(obj)
    # the same words, and the same trace: both decoders sum it exactly
    assert str(plain_error.value) == str(numpy_error.value)
    capsys.readouterr()


def test_every_decoder_takes_the_exact_trace(tmp_path, capsys):
    # this diagonal sums to 1 - 9.99999e-11 exactly, inside the 1e-10 tolerance,
    # but to 1 - 1.0000001e-10 added left to right: bell --input decodes it in
    # plain Python, scan --input and --settings optimize with numpy
    diag = [0.9654801388982029, 0.4361618666274293, 0.626648290866804, -1.028290296492436]
    src = tmp_path / "op.json"
    dump_json({"dims": [2, 2], "entries": [[i, i, v, 0.0] for i, v in enumerate(diag)]}, src)
    commands = (
        ["bell", "--input", src],
        ["scan", "--input", src],
        ["bell", "--input", src, "--settings", "optimize", "--restarts", 1],
    )
    assert [run([*argv, "--out", tmp_path / "report.json"]) for argv in commands] == [0, 0, 0]
    capsys.readouterr()


@pytest.mark.parametrize(
    "text, settings, message",
    [
        ('{"dims": [3, 3], "entries": [[0, 0, 1.0, 0.0]]}', "xy", "all-qubit layout"),
        ('{"dims": [2, 2], "entries": [[0, 0, 1.0, 0.0]]}', [[1, 0, 0]] * 3, "settings cover 3 parties, state has 2"),
        ('{"dims": [2, 2], "entries": []}', "xy", "operator trace 0.0 deviates from 1"),
    ],
    ids=["qutrit-layout", "settings-party-count", "no-entry"],
)
def test_plain_bell_input_errors(tmp_path, capsys, text, settings, message):
    src = tmp_path / "op.json"
    src.write_text(text)
    if settings != "xy":
        dump_json({"a": settings, "a_prime": settings}, tmp_path / "s.json")
        settings = tmp_path / "s.json"
    assert exit_code(["bell", "--input", src, "--settings", settings]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        '{"dims": [2, 2], "amps": [[-1, 1.0, 0.0]]}',
        '{"dims": [2, 2], "amps": [[5, 1.0, 0.0]]}',
        '{"dims": [2, 2], "amps": [[0.5, 1.0, 0.0]]}',
        '{"dims": [2, 2], "amps": [[0, 0.6, 0.0], [3, 0.8, 0.0], [0, 0.6, 0.0]]}',
        '{"dims": [2, 2], "amps": [[0, NaN, 0.0], [3, 1.0, 0.0]]}',
        '{"dims": [2, 2], "amps": [[0, 0.6], [3, 0.8]]}',
        '{"dims": [2, 2]}',
        '{"amps": [[0, 1.0, 0.0]]}',
        '[[0, 1.0, 0.0]]',
        '{"dims": [2.9, 2], "amps": [[0, 0.6, 0.0], [3, 0.8, 0.0]]}',
        "[" * 100000 + "]" * 100000,
        '{"dims": [2, 2], "amps": [[0, "1.0", 0.0]]}',
        '{"dims": [2, 2], "amps": [["0", 1.0, 0.0]]}',
        '{"dims": [2, 2], "amps": [[0, true, 0]]}',
        '{"dims": [2, 2], "amps": [[0, 1%s, 0.0]]}' % ("0" * 400),
        '{"dims": [2, 2], "amps": [[0, 0.6, 0.0], [3, 0.8]]}',
    ],
    ids=[
        "negative-index", "index-out-of-range", "fractional-index",
        "duplicate-index", "nan-value", "short-row", "no-amps", "no-dims",
        "not-an-object", "fractional-dims", "nested-too-deep", "string-value",
        "string-index", "boolean-value", "value-past-double", "ragged-rows",
    ],
)
def test_malformed_state_file_exit_code(tmp_path, text):
    src = tmp_path / "psi.json"
    src.write_text(text)
    assert exit_code(["extract", "--input", src]) == 2


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
@pytest.mark.parametrize("command", ["scan", "bell", "sweep"])
def test_bad_tolerance_exit_code(monkeypatch, capsys, command, tol):
    # one check (family.tolerance) for --tol, BOUNDBELL_TOL and ppt_check, quoting the text given
    argv = [command] + (["--n-max", 4] if command == "sweep" else ["--n", 4])
    assert exit_code(argv + ["--tol", tol]) == 2
    assert f"argument --tol: invalid tolerance value: '{tol}'" in capsys.readouterr().err
    monkeypatch.setenv("BOUNDBELL_TOL", tol)
    assert exit_code(argv) == 2
    assert capsys.readouterr().err == f"error: tolerance must be a finite non-negative number, got '{tol}'\n"


def test_extract_ghz(tmp_path):
    out = tmp_path / "ex.json"
    assert run(["extract", "--ghz", 5, "--out", out]) == 0
    report = load_json(out)
    assert report["summary"]["pair"] == [1, 2]
    assert report["summary"]["probability"] == pytest.approx(1.0, abs=1e-10)


def test_extract_ghz_probability_is_at_most_one(tmp_path):
    for n in range(3, 9):
        out = tmp_path / f"ghz{n}.json"
        assert run(["extract", "--ghz", n, "--out", out]) == 0
        probability = load_json(out)["summary"]["probability"]
        assert 1.0 - 1e-15 <= probability <= 1.0, (n, probability)


def test_extract_random_seeded(tmp_path):
    out = tmp_path / "ex.json"
    assert run(["extract", "--random", "2,2,2", "--seed", 7, "--out", out]) == 0
    coeffs = load_json(out)["summary"]["schmidt_coeffs"]
    assert coeffs[0] == pytest.approx(2**-0.5, abs=1e-8)
    assert coeffs[1] == pytest.approx(2**-0.5, abs=1e-8)


def test_extract_product_exit_code(tmp_path):
    prod = PureState(PartyLayout.qubits(2), np.array([1, 0, 0, 0], dtype=complex))
    src = tmp_path / "prod.json"
    dump_json(state_to_obj(prod), src)
    assert run(["extract", "--input", src]) == 3


def test_extract_pair_unavailable_exit_code(tmp_path):
    # party 1 is a product spectator of a GHZ state and never survives
    amps = np.kron([1, 0], ghz(3, 0.0).amplitudes)
    src = tmp_path / "spectator.json"
    dump_json(state_to_obj(PureState(PartyLayout.qubits(4), amps)), src)
    assert run(["extract", "--input", src, "--pair", "1,2"]) == 4


@pytest.mark.parametrize(
    "argv",
    [
        ["--random", "2,2", "--pair", "1,1"],  # repeated party
        ["--random", "2,2,2", "--seed", 1, "--pair", "1,9"],  # party out of range
        ["--ghz", 3, "--pair", "0,2"],
    ],
)
def test_extract_malformed_pair_exit_code(argv):
    assert run(["extract", *argv]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["--random", ",".join(["2"] * 31)],
        ["--ghz", 13],
        ["--input", "STATE"],
    ],
    ids=["random-31-qubits", "ghz-13", "state-file-31-qubits"],
)
def test_extract_refuses_dense_states_above_the_cap(tmp_path, argv):
    src = tmp_path / "psi.json"
    src.write_text(json.dumps({"dims": [2] * 31, "amps": [[0, 1.0, 0.0]]}))
    argv = [src if a == "STATE" else a for a in argv]
    code, peak = traced_peak(lambda: run(["extract", *argv]))
    assert code == 2
    assert peak < 4 * 2**20, peak


def test_extract_source_validation(tmp_path):
    assert run(["extract"]) == 2
    assert run(["extract", "--ghz", 3, "--random", "2,2"]) == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["extract", "--random", "2,,2"], "--random expects comma-separated integers, got '2,,2'"),
        (["extract", "--random", "2.5,2"], "--random expects comma-separated integers, got '2.5,2'"),
        (["extract", "--ghz", 3, "--pair", "1,"], "--pair expects 2 comma-separated integers, got '1,'"),
        (["extract", "--ghz", 3, "--pair", "a,b"], "--pair expects 2 comma-separated integers, got 'a,b'"),
        (["extract", "--ghz", 3, "--pair", "1,2,3"],
         "--pair expects 2 comma-separated integers, got '1,2,3'"),
        (["extract", "--ghz", 3, "--pair", ""], "--pair expects 2 comma-separated integers, got ''"),
        (["extract", "--random", "2,2,2", "--seed", -5], "seed must be a non-negative integer, got -5"),
        (["bell", "--n", 4, "--settings", "optimize", "--seed", -1],
         "seed must be a non-negative integer, got -1"),
    ],
    ids=["random-empty-item", "random-fraction", "pair-empty-item", "pair-letters", "pair-three",
         "pair-empty", "extract-negative-seed", "optimize-negative-seed"],
)
def test_malformed_integer_options_are_named(capsys, argv, message):
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_sweep_json_and_csv(tmp_path):
    out = tmp_path / "sweep.json"
    assert run(
        ["sweep", "--n-min", 2, "--n-max", 5, "--scan-max", 5, "--out", out]
    ) == 0
    rows = load_json(out)["rows"]
    assert [r["n"] for r in rows] == [2, 3, 4, 5]
    assert all(r["violation"] is False for r in rows)
    assert rows[2]["bound_entangled_claim"] is True

    csv_out = tmp_path / "sweep.csv"
    assert run(
        ["sweep", "--n-min", 2, "--n-max", 4, "--scan-max", 0, "--format", "csv",
         "--out", csv_out]
    ) == 0
    lines = csv_out.read_text().strip().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("n,alpha,bell_xy")


def test_sweep_to_31_parties(tmp_path):
    out = tmp_path / "sweep.csv"
    start = time.perf_counter()
    assert run(["sweep", "--n-min", 2, "--n-max", 31, "--scan-max", 31, "--format", "csv",
                "--out", out]) == 0
    assert time.perf_counter() - start < 10.0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,alpha,bell_xy,violation,ppt_single,npt_pairs,bound_entangled_claim"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == list(range(2, 32))
    for row in rows:
        n = int(row[0])
        want = 2 ** ((n - 1) / 2) / (n + 1)
        assert abs(float(row[2]) - want) <= 1e-12 * want, n
        assert row[3] == str(n >= 8), n
        if n >= 4:
            assert row[4:] == ["True"] * 3, n  # ppt_single, npt_pairs, claim


def test_reports_byte_identical_across_runs(tmp_path):
    # the output path is part of the embedded config, so rerun onto the
    # same paths and capture bytes in between
    scan_out = tmp_path / "scan.json"
    sweep_out = tmp_path / "sweep.csv"
    ex_out = tmp_path / "ex.json"
    captured = []
    for _ in range(2):
        run(["scan", "--n", 4, "--out", scan_out])
        run(["sweep", "--n-min", 2, "--n-max", 4, "--scan-max", 4,
             "--format", "csv", "--out", sweep_out])
        run(["extract", "--random", "2,3,2", "--seed", 42, "--out", ex_out])
        captured.append(
            (scan_out.read_bytes(), sweep_out.read_bytes(), ex_out.read_bytes())
        )
    assert captured[0] == captured[1]


def test_config_echoes_resolved_alpha(tmp_path):
    out = tmp_path / "report.json"
    for argv, alpha in [
        (["bell", "--n", 6, "--settings", "xy"], np.pi * 5 / 4),
        (["extract", "--ghz", 4, "--alpha", "auto"], np.pi * 3 / 4),
        (["extract", "--ghz", 4, "--alpha", 0.3], 0.3),
        (["extract", "--ghz", 4], 0.0),  # extract's phase defaults to 0
        (["extract", "--random", "2,2", "--alpha", 0.3], None),  # no phase to echo
    ]:
        assert run([*argv, "--out", out]) == 0
        config = load_json(out)["config"]
        assert config["alpha"] == (None if alpha is None else pytest.approx(alpha)), argv
        assert config["command"] == argv[0]


@pytest.mark.parametrize("alpha", ["inf", "nan"])
def test_extract_ghz_rejects_a_non_finite_alpha(capsys, alpha):
    # the same message as every other command, and no numpy warning first
    assert run(["extract", "--ghz", 4, "--alpha", alpha]) == 2
    assert capsys.readouterr().err == "error: alpha must be finite\n"


def test_every_config_block_lists_the_same_keys(tmp_path, capsys):
    keys = {
        "command", "n", "alpha", "tol", "seed", "restarts", "settings", "pair", "dims",
        "input", "out", "format", "n_min", "n_max", "scan_max",
    }
    run(["state", "--n", 3, "--out", tmp_path / "rho.json"])
    assert set(json.loads(capsys.readouterr().out)["config"]) == keys
    for argv in (
        ["scan", "--n", 3],
        ["bell", "--n", 3],
        ["extract", "--random", "2,2", "--pair", "1,2"],
        ["sweep", "--n-max", 3],
    ):
        out = tmp_path / f"{argv[0]}.json"
        assert run([*argv, "--out", out]) == 0
        assert set(load_json(out)["config"]) == keys, argv[0]


@pytest.mark.parametrize(
    "argv, summary",
    [
        (["state", "--n", "3"], ""),
        (["scan", "--n", "4"], "ppt_single=True npt_pairs=True bound_entangled_claim=True\n"),
        (["scan", "--n", "4", "--format", "csv"],
         "ppt_single=True npt_pairs=True bound_entangled_claim=True\n"),
        (["bell", "--n", "3"], r"value=0\.5 bound=1\.0 violation=False\n"),
        (["extract", "--ghz", "3"],
         r"pair=\(1, 2\) probability=(1\.0|0\.9)\d* schmidt_coeffs=\(0\.7071\d+, 0\.7071\d+\)\n"),
        (["sweep", "--n-min", "3", "--n-max", "4"],
         r"n=3 bell_xy=0\.5 violation=False\nn=4 bell_xy=0\.5656\d+ violation=False\n"),
        (["sweep", "--n-min", "3", "--n-max", "4", "--format", "csv"],
         r"n=3 bell_xy=0\.5 violation=False\nn=4 bell_xy=0\.5656\d+ violation=False\n"),
    ],
    ids=["state", "scan", "scan-csv", "bell", "extract", "sweep", "sweep-csv"],
)
def test_report_goes_to_out_or_else_to_stdout(tmp_path, monkeypatch, capsys, argv, summary):
    # stderr gets the summary alone; the report goes to --out, else to stdout
    monkeypatch.chdir(tmp_path)
    if argv[0] == "state":  # --out names the operator file: the report always goes to stdout
        for extra, ghz_file in (([], "rho.ghz.json"), (["--ghz-out", "psi.json"], "psi.json")):
            assert run([*argv, "--out", "rho.json", *extra]) == 0
            printed, err = capsys.readouterr()
            report = json.loads(printed)
            assert (report["operator_file"], report["ghz_file"], err) == ("rho.json", ghz_file, "")
            assert load_json("rho.json") == operator_to_obj(rho_family(RhoFamilySpec(3)))
            assert load_json(ghz_file) == state_to_obj(ghz(3, np.pi / 2))
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "psi.json", "rho.ghz.json", "rho.json"
        ]
        return
    assert run(argv) == 0
    printed, err = capsys.readouterr()
    assert re.fullmatch(summary, err), err
    assert run([*argv, "--out", "report"]) == 0
    assert capsys.readouterr() == ("", err)
    written = (tmp_path / "report").read_bytes().decode()
    if "csv" in argv:
        assert written == printed
    else:  # the same report, but for the echo of --out in its config
        report = json.loads(printed)
        report["config"]["out"] = "report"
        assert json.loads(written) == report


def test_tolerance_env_override(tmp_path, monkeypatch):
    # an absurdly loose tolerance flips the pair verdicts of an operator file to PSD
    # (the family's own verdicts are exact and take no tolerance)
    assert run(["state", "--n", 4, "--out", tmp_path / "rho4.json"]) == 0
    monkeypatch.setenv("BOUNDBELL_TOL", "1.0")
    out = tmp_path / "scan.json"
    assert run(["scan", "--input", tmp_path / "rho4.json", "--out", out]) == 0
    assert load_json(out)["summary"]["npt_pairs"] is False
    assert load_json(out)["config"]["tol"] == 1.0
    monkeypatch.delenv("BOUNDBELL_TOL")
    assert run(["scan", "--input", tmp_path / "rho4.json", "--out", out]) == 0
    assert load_json(out)["summary"]["npt_pairs"] is True


VERDICTS = ("ppt_single", "npt_pairs", "bound_entangled_claim")
PAPER_VERDICTS = {2: [True, None, False], 3: [True, False, False]}  # N >= 4: all True


@pytest.mark.parametrize("n", range(2, 13))
def test_scan_gives_the_papers_verdicts_at_tolerance_zero(tmp_path, n):
    # the minima are exact: 0 on single cuts, -1/(2(N+1)) on larger ones, 1/6 at N = 2
    out = tmp_path / "scan.json"
    assert run(["scan", "--n", n, "--tol", 0, "--out", out]) == 0
    report = load_json(out)
    assert [report["summary"][key] for key in VERDICTS] == PAPER_VERDICTS.get(n, [True] * 3)
    for row in report["reports"]:
        size = len(row["subset"])
        want = 1 / 6 if n == 2 else 0.0 if size in (1, n - 1) else -1 / (2 * (n + 1))
        assert (row["min_eig"], row["verdict"]) == (want, "PSD" if want >= 0 else "NOT_PSD")


def test_sweep_gives_the_papers_verdicts_at_tolerance_zero(tmp_path):
    out = tmp_path / "sweep.json"
    assert run(["sweep", "--n-min", 2, "--n-max", 31, "--scan-max", 31, "--tol", 0,
                "--out", out]) == 0
    for row in load_json(out)["rows"]:
        n = row["n"]
        assert [row[key] for key in VERDICTS] == PAPER_VERDICTS.get(n, [True] * 3), n
        assert row["violation"] is (n >= 8), n


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--n", 8],
        ["sweep", "--n-min", 2, "--n-max", 31, "--scan-max", 31],
        ["bell", "--n", 7],
        ["bell", "--n", 8],
    ],
    ids=["scan", "sweep", "bell7", "bell8"],
)
def test_family_reports_do_not_depend_on_the_tolerance(tmp_path, argv):
    # no family verdict sits within rounding of its boundary, so --tol moves nothing but its echo
    reports = []
    for tol in (0, 1e-9, 0.5):
        assert run([*argv, "--tol", tol, "--out", tmp_path / "r.json"]) == 0
        report = load_json(tmp_path / "r.json")
        assert report["config"].pop("tol") == tol
        reports.append(report)
    assert reports[0] == reports[1] == reports[2]


@pytest.mark.parametrize("mode", ["xy", "file", "optimize"])
def test_bell_writes_the_settings_it_used(tmp_path, mode):
    settings = {"a": [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                "a_prime": [[0.0, 1.0, 0.0]] * 3}
    dump_json(settings, tmp_path / "given.json")
    option = {"xy": "xy", "file": tmp_path / "given.json", "optimize": "optimize"}[mode]
    used = tmp_path / "used.json"
    assert run(["bell", "--n", 3, "--settings", option, "--restarts", 1,
                "--settings-out", used, "--out", tmp_path / "bell.json"]) == 0
    report = load_json(tmp_path / "bell.json")
    assert load_json(used) == report["settings"]
    if mode == "xy":
        assert report["settings"] == {"a": [[1.0, 0.0, 0.0]] * 3, "a_prime": [[0.0, 1.0, 0.0]] * 3}
    elif mode == "file":
        assert report["settings"] == settings


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2


def child_env(**extra) -> dict:
    """Environment of a CLI child that imports this checkout's boundbell, with
    block-buffered stdout and stderr unless ``extra`` sets PYTHONUNBUFFERED."""
    src = str(Path(boundbell.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONPATH": path, **extra}


def _diagonal_operator(count: int) -> dict:
    """A qubit operator file of ``count`` equal diagonal entries, trace 1."""
    return {"dims": [2] * count.bit_length(), "entries": [[i, i, 1.0 / count, 0.0] for i in range(count)]}


def test_scan_and_sweep_do_not_import_numpy_ma(tmp_path):
    # numpy.ma costs ~20 ms of start-up in every CLI child that loads numpy;
    # plain np.unique imports it.  The family commands load no numpy at all,
    # and bell --input of a small file neither, unless it optimizes: these
    # take scan and bell down the numpy path.
    assert run(["state", "--n", 7, "--out", tmp_path / "rho7.json"]) == 0
    code = (
        "import sys\n"
        "from boundbell.cli import main\n"
        f"main(['scan', '--input', {str(tmp_path / 'rho7.json')!r}, '--out', {str(tmp_path / 'scan.json')!r}])\n"
        f"main(['bell', '--input', {str(tmp_path / 'rho7.json')!r}, '--settings', 'optimize', '--restarts', '1', '--out', {str(tmp_path / 'bell.json')!r}])\n"
        f"main(['sweep', '--n-max', '5', '--out', {str(tmp_path / 'sweep.json')!r}])\n"
        "print('numpy' in sys.modules, 'numpy.ma' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "True False\n"


# what a plain child must never load: numpy, and dataclasses with the inspect it imports
PLAIN = ("numpy", "dataclasses", "inspect")
NUMERIC = ("boundbell.bell", "boundbell.extraction", "boundbell.ppt", "boundbell.states")
BUDGET_MODULES = (*PLAIN, "csv", "fractions", *NUMERIC)


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["state", "--n", "11", "--out", "rho11.json"], ()),
        (["scan", "--n", "7", "--out", "scan7.json"], ("fractions",)),
        (["sweep", "--n-min", "2", "--n-max", "31", "--scan-max", "31", "--out", "sweep.json"],
         ("fractions",)),
        (["bell", "--n", "8", "--settings-out", "xy.json", "--out", "bell8.json"], ()),
        (["bell", "--input", "rho11.json", "--out", "bell11.json"], ()),  # a small operator file
        (["bell", "--input", "rho11.json", "--settings", "xy11.json"], ()),
        (["bell", "--n", "8", "--settings", "xy8.json"], ()),  # the member's 2N+4 entries
        (["bell", "--input", "big.json", "--out", "big.out.json"],  # above the plain cap
         (*PLAIN, "boundbell.bell")),
        (["bell", "--input", "rho11.json", "--settings", "optimize", "--restarts", "1"],
         (*PLAIN, "boundbell.bell")),
        (["bell", "--n", "8", "--settings", "optimize", "--restarts", "1"],
         (*PLAIN, "boundbell.bell")),
        (["scan", "--input", "rho11.json", "--out", "scan11.json"], (*PLAIN, "boundbell.ppt")),
        (["extract", "--random", "2,3,2", "--seed", "7", "--out", "extract.json"],
         (*PLAIN, "boundbell.extraction", "boundbell.states")),
        (["extract", "--input", "rho5.ghz.json", "--out", "extract5.json"],
         (*PLAIN, "boundbell.extraction")),
        (["sweep", "--n-max", "9", "--scan-max", "6", "--format", "csv"], ("csv", "fractions")),
    ],
    ids=["state", "scan", "sweep", "bell-xy", "bell-input", "bell-input-file-settings",
         "bell-file-settings", "bell-input-above-cap", "bell-input-optimize", "bell-optimize",
         "scan-input", "extract", "extract-input", "sweep-csv"],
)
def test_family_commands_do_not_import_numpy(tmp_path, argv, loaded):
    # the closed forms serve the family commands, and the plain path the
    # member's entries and small operator files with x/y or file settings:
    # none loads numpy or dataclasses.  csv loads for --format csv alone,
    # fractions for the exact PPT minima alone, and each numpy child only
    # the numeric modules its command calls.
    assert run(["state", "--n", 11, "--out", tmp_path / "rho11.json"]) == 0
    assert run(["state", "--n", 5, "--out", tmp_path / "rho5.json"]) == 0
    dump_json({"a": [[1, 0, 0]] * 11, "a_prime": [[0, 1, 0]] * 11}, tmp_path / "xy11.json")
    dump_json({"a": [[1, 0, 0]] * 8, "a_prime": [[0, 1, 0]] * 8}, tmp_path / "xy8.json")
    dump_json(_diagonal_operator(cli.PLAIN_MAX_ENTRIES + 1), tmp_path / "big.json")
    code = (
        "import sys\n"
        "from boundbell.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        f"print([m for m in {BUDGET_MODULES!r} if m in sys.modules])\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env(),
        cwd=tmp_path, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    # state and reports to stdout print first
    assert done.stdout.splitlines()[-1] == repr([m for m in BUDGET_MODULES if m in loaded])


def _cli_inputs(workdir: Path) -> None:
    """The input files of the child-process cases, written alike into each run's directory."""
    prod = PureState(PartyLayout.qubits(2), np.array([1, 0, 0, 0], dtype=complex))
    dump_json(state_to_obj(prod), workdir / "prod.json")
    # party 1 is a product spectator of a GHZ state and never survives
    spectator = np.kron([1, 0], ghz(3, 0.0).amplitudes)
    dump_json(state_to_obj(PureState(PartyLayout.qubits(4), spectator)), workdir / "spectator.json")
    # party 1's second singular value is e, just above the 1e-10 cutoff; those of
    # parties 2 and 3 are e/sqrt(2), below it: one entangled party, exit 5
    e = 1.2e-10
    amps = np.zeros(8, dtype=complex)
    amps[0], amps[0b101], amps[0b110] = np.sqrt(1 - e * e), e / np.sqrt(2), e / np.sqrt(2)
    dump_json(state_to_obj(PureState(PartyLayout.qubits(3), amps)), workdir / "degenerate.json")


@pytest.mark.parametrize(
    "argv, code",
    [
        (["state", "--n", "3", "--out", "rho3.json"], 0),
        (["scan", "--n", "5", "--format", "csv"], 0),
        (["bell", "--n", "4", "--out", "bell4.json"], 0),
        (["sweep", "--n-max", "4"], 0),
        (["scan", "--n", "4", "--tol", "nan"], 2),
        (["no-such-command"], 2),
        (["state", "--n", "1", "--out", "rho1.json"], 2),
        (["extract", "--input", "prod.json"], 3),
        (["extract", "--input", "spectator.json", "--pair", "1,2", "--out", "ex.json"], 4),
        (["extract", "--input", "degenerate.json"], 5),
    ],
)
def test_cli_child_matches_main(tmp_path, monkeypatch, capsys, argv, code):
    # a real `python -m boundbell.cli` child ends through entry_point, without
    # interpreter teardown; what it leaves must be what main leaves in-process
    inside, child = tmp_path / "inside", tmp_path / "child"
    for workdir in (inside, child):
        workdir.mkdir()
        _cli_inputs(workdir)
    monkeypatch.chdir(inside)
    assert exit_code(argv) == code
    out, err = capsys.readouterr()
    done = subprocess.run(
        [sys.executable, "-m", "boundbell.cli", *argv],
        cwd=child, capture_output=True, env=child_env(), timeout=120,
    )
    assert (done.returncode, done.stdout, done.stderr) == (code, out.encode(), err.encode())
    files = {path.name: path.read_bytes() for path in inside.iterdir()}
    assert {path.name: path.read_bytes() for path in child.iterdir()} == files


@pytest.mark.parametrize("buffered", [True, False])
def test_cli_child_with_closed_stdout_exits_2(buffered):
    # unbuffered, main's own write fails; buffered, the report waits in the
    # buffer and entry_point's flush fails: either way the error and exit 2
    child = subprocess.Popen(
        [sys.executable, "-m", "boundbell.cli", "bell", "--n", "3"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=child_env() if buffered else child_env(PYTHONUNBUFFERED="1"),
    )
    child.stdout.close()  # long before the child has imported numpy
    err = child.stderr.read().decode()
    child.stderr.close()
    assert child.wait(timeout=120) == 2
    assert err == "value=0.5 bound=1.0 violation=False\nerror: [Errno 32] Broken pipe\n"


def test_cli_child_with_closed_stderr_writes_its_report():
    # started with fd 2 closed, the interpreter sets sys.stderr to None; the
    # summary goes nowhere, the report and the exit code are a normal run's
    argv = [sys.executable, "-m", "boundbell.cli", "bell", "--n", "3"]
    normal = subprocess.run(argv, capture_output=True, env=child_env(), timeout=120)
    closed = subprocess.run(
        argv, stdout=subprocess.PIPE, env=child_env(), timeout=120,
        preexec_fn=lambda: os.close(2),
    )
    assert normal.returncode == 0 and normal.stdout.startswith(b"{")
    assert (closed.returncode, closed.stdout) == (0, normal.stdout)


def test_cli_child_with_closed_stdout_fails_only_a_stdout_report(tmp_path, monkeypatch):
    # started with fd 1 closed, the interpreter sets sys.stdout to None: a report
    # bound for stdout fails as a write there would, a report for --out is written
    inside, workdir = tmp_path / "inside", tmp_path / "child"
    inside.mkdir()
    workdir.mkdir()
    monkeypatch.chdir(inside)
    assert run(["bell", "--n", "3", "--out", "bell3.json"]) == 0
    argv = [sys.executable, "-m", "boundbell.cli", "bell", "--n", "3"]
    closed = dict(
        cwd=workdir, stderr=subprocess.PIPE, env=child_env(), timeout=120,
        preexec_fn=lambda: os.close(1),
    )
    summary = b"value=0.5 bound=1.0 violation=False\n"
    to_file = subprocess.run([*argv, "--out", "bell3.json"], **closed)
    assert (to_file.returncode, to_file.stderr) == (0, summary)
    assert (workdir / "bell3.json").read_bytes() == (inside / "bell3.json").read_bytes()
    to_stdout = subprocess.run(argv, **closed)
    assert (to_stdout.returncode, to_stdout.stderr) == (2, summary + b"error: stdout is closed\n")


def _read_only_stderr() -> None:
    """Child set-up: fd 2 open on the null device for reading only."""
    fd = os.open(os.devnull, os.O_RDONLY)
    os.dup2(fd, 2)
    os.close(fd)


@pytest.mark.parametrize(
    "argv, code",
    [(["bell", "--n", "3"], 0), (["scan", "--n", "4", "--tol", "nan"], 2), (["extract", "--input", "prod.json"], 3)],
)
def test_cli_child_with_unwritable_stderr_keeps_report_and_code(tmp_path, monkeypatch, capsys, argv, code):
    # every stderr write fails (EBADF): the lines are lost, the report and exit code are not
    _cli_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert exit_code(argv) == code
    out = capsys.readouterr().out
    done = subprocess.run(
        [sys.executable, "-m", "boundbell.cli", *argv], cwd=tmp_path, stdout=subprocess.PIPE,
        env=child_env(), timeout=120, preexec_fn=_read_only_stderr,
    )
    assert (done.returncode, done.stdout) == (code, out.encode())


def test_readme_examples_run(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = re.search(r"## Command line.*?```sh\n(.*?)```", readme, re.S).group(1)
    sketch = re.search(r"## Library sketch.*?```python\n(.*?)```", readme, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    lines = [line.split("#")[0] for line in commands.splitlines()]
    argvs = [shlex.split(line)[1:] for line in lines if line.startswith("boundbell ")]
    assert len(argvs) == 7
    for argv in argvs:
        assert run(argv) == 0, argv
    exec(sketch, {})
