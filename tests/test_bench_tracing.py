"""The benchmark's span recorder must find every function it rebinds."""

import importlib
import importlib.util
from pathlib import Path

import boundbell.extraction as extraction
from boundbell import PartyLayout, ghz, random_pure

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
    # the random 5-party state projects pivots in case B before case A
    tracing = load_tracing()
    for psi, projects in ((ghz(3, 0.0), False), (random_pure(PartyLayout((2,) * 5), 3), True)):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            result = extraction.extract(psi)  # looked up after install, so traced
        finally:
            tracer.uninstall()
        names = {span[0] for span in tracer.spans}
        assert {"extraction.extract", "tensor.schmidt", "tensor.apply_local"} <= names
        assert ("project" in [step.op.kind for step in result.steps]) == projects
