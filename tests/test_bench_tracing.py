"""The benchmark's span recorder must find every function it rebinds."""

import importlib
import importlib.util
from pathlib import Path

import boundbell.extraction as extraction
from boundbell import PartyLayout, cli, ghz, random_pure
from boundbell.serialize import dump_json

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_binding_resolves_to_a_callable():
    for module_name, name, _ in load_tracing().BINDINGS:
        target = getattr(importlib.import_module(module_name), name, None)
        assert callable(target), f"{module_name}.{name}"


def test_extract_calls_traced_tensor_layers():
    # extraction must look schmidt and apply_local up as module globals
    # at call time, or their spans vanish from the benchmark's layer metrics;
    # the random 5-party and qutrit states project pivots in case B before
    # case A.  A case-B round reads its branches off the pivot's Schmidt
    # decomposition: its equalize and project steps apply no filter.
    tracing = load_tracing()
    inputs = (
        (ghz(3, 0.0), False),
        (random_pure(PartyLayout((2,) * 5), 3), True),
        (random_pure(PartyLayout((3, 2, 3)), 71), True),
    )
    for psi, projects in inputs:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            result = extraction.extract(psi)  # looked up after install, so traced
        finally:
            tracer.uninstall()
        names = [span[0] for span in tracer.spans]
        assert {"extraction.extract", "tensor.schmidt", "tensor.apply_local"} <= set(names)
        kinds = [step.op.kind for step in result.steps]
        assert ("project" in kinds) == projects
        assert names.count("tensor.apply_local") == len(kinds) - 2 * kinds.count("project")


def test_tracer_sees_each_numeric_call_of_a_cli_command_once(tmp_path):
    # the commands import their numeric names from the defining modules where
    # they call them, so each call records one span; optimizing a family
    # member decodes its operator file and builds nothing through rho_family
    tracing = load_tracing()
    rho7, big = tmp_path / "rho7.json", tmp_path / "big.json"
    assert cli.main(["state", "--n", "7", "--out", str(rho7)]) == 0
    count = cli.PLAIN_MAX_ENTRIES + 1  # above the plain cap: bell_value sums it
    entries = [[i, i, 1.0 / count, 0.0] for i in range(count)]
    dump_json({"dims": [2] * count.bit_length(), "entries": entries}, big)
    numeric = ("bell.optimize_settings", "bell.bell_value", "ppt.scan", "extraction.extract")
    commands = (
        ["bell", "--n", "8", "--settings", "optimize", "--restarts", "1"],
        ["bell", "--input", str(big)],
        ["scan", "--input", str(rho7)],
        ["extract", "--random", "2,3,2", "--seed", "7"],
    )
    for argv, layer in zip(commands, numeric):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert cli.main([*argv, "--out", str(tmp_path / "report.json")]) == 0
        finally:
            tracer.uninstall()
        names = [span[0] for span in tracer.spans]
        assert [names.count(name) for name in numeric] == [int(name == layer) for name in numeric]
        assert "states.rho_family" not in names, argv
