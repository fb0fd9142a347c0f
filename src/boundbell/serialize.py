"""JSON wire formats shared between the library and the CLI.

Operators: ``{"dims": [..], "entries": [[row, col, re, im], ...]}`` with only
the nonzero entries, row/col as global basis indices.  Pure states:
``{"dims": [..], "amps": [[idx, re, im], ...]}``.  Doubles survive the round
trip bit-exactly (Python's JSON emits shortest-repr floats).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .bell import BellSettings
from .extraction import ExtractionResult
from .tensor import DensityOperator, PartyLayout, PureState


def operator_to_obj(op: DensityOperator) -> dict:
    rows, cols = np.nonzero(op.matrix)
    entries = [
        [int(r), int(c), float(op.matrix[r, c].real), float(op.matrix[r, c].imag)]
        for r, c in zip(rows, cols)
    ]
    return {"dims": list(op.layout.dims), "entries": entries}


def operator_from_obj(obj: dict) -> DensityOperator:
    layout = PartyLayout(tuple(int(d) for d in obj["dims"]))
    m = np.zeros((layout.dim, layout.dim), dtype=complex)
    for r, c, re, im in obj["entries"]:
        m[int(r), int(c)] = complex(float(re), float(im))
    return DensityOperator(layout, m)


def state_to_obj(psi: PureState) -> dict:
    idx = np.nonzero(psi.amplitudes)[0]
    amps = [
        [int(i), float(psi.amplitudes[i].real), float(psi.amplitudes[i].imag)]
        for i in idx
    ]
    return {"dims": list(psi.layout.dims), "amps": amps}


def state_from_obj(obj: dict) -> PureState:
    layout = PartyLayout(tuple(int(d) for d in obj["dims"]))
    amps = np.zeros(layout.dim, dtype=complex)
    for i, re, im in obj["amps"]:
        amps[int(i)] = complex(float(re), float(im))
    return PureState(layout, amps)


def settings_to_obj(settings: BellSettings) -> dict:
    return {
        "a": [list(v) for v in settings.a],
        "a_prime": [list(v) for v in settings.a_prime],
    }


def settings_from_obj(obj: dict) -> BellSettings:
    try:
        return BellSettings(
            tuple(tuple(float(x) for x in v) for v in obj["a"]),
            tuple(tuple(float(x) for x in v) for v in obj["a_prime"]),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"settings need 'a' and 'a_prime' direction lists ({exc!r})") from exc


def _matrix_entries(m: np.ndarray) -> list[list]:
    rows, cols = np.nonzero(m)
    return [
        [int(r), int(c), float(m[r, c].real), float(m[r, c].imag)]
        for r, c in zip(rows, cols)
    ]


def extraction_to_obj(result: ExtractionResult) -> dict:
    steps = [
        {
            "party": step.op.party,
            "kind": step.op.kind,
            "dim": int(step.op.matrix.shape[0]),
            "entries": _matrix_entries(step.op.matrix),
            "weight": float(step.weight),
        }
        for step in result.steps
    ]
    return {
        "steps": steps,
        "summary": {
            "pair": list(result.pair),
            "probability": float(result.probability),
            "schmidt_coeffs": [float(c) for c in result.schmidt_coeffs],
            "surviving_parties": list(result.surviving_parties),
        },
        "final_state": state_to_obj(result.final_state),
    }


def canonical_dumps(obj: dict) -> str:
    """Deterministic report rendering: sorted keys, fixed layout."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def dump_json(obj: dict, path) -> None:
    Path(path).write_text(canonical_dumps(obj), encoding="utf-8")


def load_json(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))
