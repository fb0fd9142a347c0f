"""Span recorder that traces boundbell's public functions from outside.

Tracing rebinds a function's name, in every module that looks it up at call
time, to a wrapper that records a span: name, start, end, parent and whether
it raised.  No file of the package changes, and nothing reaches the
package's reports.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import Counter
from contextlib import contextmanager

ENCODERS = (
    "operator_to_obj",
    "state_to_obj",
    "settings_to_obj",
    "extraction_to_obj",
    "canonical_dumps",
    "dump_json",
)
DECODERS = ("load_json", "operator_from_obj", "state_from_obj", "settings_from_obj")

# (module that looks the name up, name, layer label)
BINDINGS = (
    [
        ("boundbell.states", "rho_family", "states.rho_family"),
        ("boundbell.ppt", "rho_family", "states.rho_family"),
        ("boundbell.cli", "rho_family", "states.rho_family"),
        ("boundbell.ppt", "partial_transpose", "tensor.partial_transpose"),
        ("boundbell.ppt", "hermitian_eigenvalues", "tensor.hermitian_eigenvalues"),
        ("boundbell.ppt", "ppt_check", "ppt.ppt_check"),
        ("boundbell.cli", "ppt_check", "ppt.ppt_check"),
        ("boundbell.ppt", "scan", "ppt.scan"),
        ("boundbell.cli", "scan", "ppt.scan"),
        ("boundbell.bell", "bell_value", "bell.bell_value"),
        ("boundbell.cli", "bell_value", "bell.bell_value"),
        ("boundbell.bell", "optimize_settings", "bell.optimize_settings"),
        ("boundbell.cli", "optimize_settings", "bell.optimize_settings"),
        ("boundbell.extraction", "schmidt", "tensor.schmidt"),
        ("boundbell.extraction", "apply_local", "tensor.apply_local"),
        ("boundbell.extraction", "extract", "extraction.extract"),
        ("boundbell.cli", "extract", "extraction.extract"),
        ("boundbell.extraction", "replay", "extraction.replay"),
        ("boundbell.extraction", "reduce_to_parties", "extraction.reduce_to_parties"),
    ]
    + [("boundbell.cli", name, "serialize.encode") for name in ENCODERS]
    + [("boundbell.cli", name, "serialize.decode") for name in DECODERS]
)

LAYERS = tuple(dict.fromkeys(label for _, _, label in BINDINGS)) + ("cli.main",)


def _counts_after(name: str, args, result) -> dict[str, int]:
    """Work counters read off a traced call's arguments and result."""
    if name == "canonical_dumps":
        return {"serialize.bytes_out": len(result.encode("utf-8"))}
    if name == "dump_json":
        return {"serialize.bytes_out": os.path.getsize(args[1])}
    if name == "extract":
        return {"extraction.extract.steps": len(result.steps)}
    return {}


class Tracer:
    """Spans as lists ``[name, start, end, parent, raised]``; parent is an index or -1."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, False]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        except BaseException:
            record[4] = True
            raise
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()

    def _wrap(self, fn, name: str, label: str):
        def traced(*args, **kwargs):
            with self.span(label):
                result = fn(*args, **kwargs)
            self.counters.update(_counts_after(name, args, result))
            return result

        return traced

    def install(self) -> None:
        for module_name, name, label in BINDINGS:
            module = importlib.import_module(module_name)
            original = getattr(module, name)
            self._saved.append((module, name, original))
            setattr(module, name, self._wrap(original, name, label))

    def uninstall(self) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters)}


def layer_totals(spans: list[list]) -> dict[str, list[float]]:
    """Per label: [calls, busy seconds, errors, self seconds].

    Self time is a span's duration minus the durations of its direct
    children; children of one span run one after another, so they never
    overlap.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, list[float]] = {}
    for i, (name, start, end, _, raised) in enumerate(spans):
        row = totals.setdefault(name, [0, 0.0, 0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += int(raised)
        row[3] += end - start - child_time[i]
    return totals


def add_totals(into: dict[str, list[float]], more: dict[str, list[float]]) -> None:
    for name, row in more.items():
        acc = into.setdefault(name, [0, 0.0, 0, 0.0])
        for k in range(4):
            acc[k] += row[k]


def write_spans(path, groups: list[dict]) -> None:
    """Write every recorded span; each group is one process's spans."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as out:
        json.dump(
            [
                {
                    "group": g["group"],
                    "spans": [
                        {"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "raised": s[4]}
                        for s in g["spans"]
                    ],
                }
                for g in groups
            ],
            out,
        )
