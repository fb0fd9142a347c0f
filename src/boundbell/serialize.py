"""JSON wire formats shared between the library and the CLI.

Operators: ``{"dims": [..], "entries": [[row, col, re, im], ...]}`` with only
the nonzero entries, row/col as global basis indices.  Pure states:
``{"dims": [..], "amps": [[idx, re, im], ...]}``.  Doubles survive the round
trip bit-exactly (Python's JSON emits shortest-repr floats).  An operator's
entries are its COO arrays, row-major.  Decoding rejects, never repairs: a
file must be a valid trace-1 operator or a normalized state, with integer
dims, no index listed twice and JSON numbers only (no string, boolean or
null stands in for one), nested no deeper than the parser can follow.

Importing this module loads no numpy, so the family commands can use its
JSON helpers and encoders.  :func:`operator_entries_from_obj` decodes an
operator into plain Python, making every check of :func:`operator_from_obj`
in the same order and words; the other decoders, which build arrays, import
numpy and the numpy-backed modules when called.
"""

from __future__ import annotations

import cmath
import json
import math
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING

from .family import HERMITIAN_TOL, BellSettings, OperatorEntries, PartyLayout

if TYPE_CHECKING:
    import numpy as np

    from .extraction import ExtractionResult
    from .tensor import DensityOperator, PureState

TRACE_TOL = 1e-10


def _entries(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> list[list]:
    return [
        [r, c, v.real, v.imag] for r, c, v in zip(rows.tolist(), cols.tolist(), vals.tolist())
    ]


def operator_to_obj(op: DensityOperator) -> dict:
    return {"dims": list(op.layout.dims), "entries": _entries(op.rows, op.cols, op.vals)}


def _check_numbers(rows, what: str) -> None:
    """ValueError unless every item of every row is a JSON number; a
    non-iterable row raises TypeError, which callers report as malformed."""
    if not set(map(type, chain.from_iterable(rows))) <= {int, float}:
        raise ValueError(f"{what} must hold numbers only")


def _layout_table(obj: dict, key: str, to_table) -> tuple:
    """Layout plus ``to_table`` of the rows under ``key``; ValueError on a
    missing key, a malformed row, a value that is no number or one past the
    range of a double."""
    try:
        layout = PartyLayout(obj["dims"])
        _check_numbers(obj[key], f"rows of '{key}'")
        return layout, to_table(obj[key])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"need 'dims' and '{key}' lists ({exc!r})") from exc
    except OverflowError as exc:
        raise ValueError(f"numbers in '{key}' must fit a double ({exc})") from exc


def _float_table(rows) -> np.ndarray:
    """The rows as a float array; rows of unequal length give an empty 1-d
    one, which fails every width check."""
    import numpy as np

    try:
        return np.array(rows, dtype=float)
    except ValueError:  # an inhomogeneous shape
        return np.zeros(0)


def _decode_table(obj: dict, key: str, width: int) -> tuple[PartyLayout, np.ndarray, np.ndarray]:
    """Layout plus the index columns and complex values of the rows
    ``[index x width, re, im]`` under ``key``; ValueError on any defect
    :func:`_layout_table` names, an index not an integer in range, an index
    listed twice or a non-finite value."""
    import numpy as np

    layout, table = _layout_table(obj, key, _float_table)
    if table.ndim != 2 or table.shape[1] != width + 2:
        raise ValueError(f"every row of '{key}' must hold {width} indices, re and im")
    index = table[:, :width]
    if not np.all((index >= 0) & (index < layout.dim) & (index == np.floor(index))):
        raise ValueError(f"indices must be integers in 0..{layout.dim - 1}")
    index = index.astype(np.int64)
    # sorted flat keys, not np.unique: that imports numpy.ma (~20 ms) into each CLI run
    keys = np.sort(np.ravel_multi_index(tuple(index.T), (layout.dim,) * width))
    if np.any(keys[1:] == keys[:-1]):
        raise ValueError(f"an index is listed twice in '{key}'")
    vals = table[:, width:].copy().view(complex)[:, 0]  # bit-exact, signed zeros included
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"values in '{key}' must be finite")
    return layout, index, vals


def operator_from_obj(obj: dict) -> DensityOperator:
    """Decode an operator; ValueError on any defect :func:`_decode_table` names,
    a non-Hermitian value, or a trace other than 1."""
    from .tensor import DensityOperator

    layout, index, vals = _decode_table(obj, "entries", 2)
    rho = DensityOperator(layout, index[:, 0], index[:, 1], vals)
    if not abs(rho.trace - 1.0) <= TRACE_TOL:
        raise ValueError(f"operator trace {rho.trace!r} deviates from 1 beyond {TRACE_TOL}")
    return rho


def operator_entries_from_obj(obj: dict) -> OperatorEntries:
    """Decode an operator without numpy: the checks of :func:`operator_from_obj`
    (:func:`_decode_table`'s, then :class:`tensor.DensityOperator`'s and the
    trace's), in its order and words.  Zero values are dropped before the
    Hermiticity check, as there; the entries keep the file's order."""
    layout, table = _layout_table(obj, "entries", lambda rows: [list(map(float, row)) for row in rows])
    if any(len(row) != 4 for row in table):
        raise ValueError("every row of 'entries' must hold 2 indices, re and im")
    d = layout.dim
    if not all(0 <= x < d and x.is_integer() for row in table for x in row[:2]):
        raise ValueError(f"indices must be integers in 0..{d - 1}")
    entries = {(int(r), int(c)): complex(re, im) for r, c, re, im in table}
    if len(entries) < len(table):
        raise ValueError("an index is listed twice in 'entries'")
    if not all(map(cmath.isfinite, entries.values())):
        raise ValueError("values in 'entries' must be finite")
    entries = {key: v for key, v in entries.items() if v}
    dev = max((abs(v - entries.get((c, r), 0j).conjugate()) for (r, c), v in entries.items()), default=0.0)
    if not dev <= HERMITIAN_TOL:
        raise ValueError(f"matrix deviates from Hermiticity by {dev:.3e} (> {HERMITIAN_TOL})")
    trace = math.fsum(v.real for (r, c), v in entries.items() if r == c)
    if not abs(trace - 1.0) <= TRACE_TOL:
        raise ValueError(f"operator trace {trace!r} deviates from 1 beyond {TRACE_TOL}")
    return OperatorEntries(layout, tuple((r, c, v) for (r, c), v in entries.items()))


def state_to_obj(psi: PureState) -> dict:
    """State file listing the nonzero amplitudes."""
    (idx,) = psi.amplitudes.nonzero()
    amps = [[int(i), float(v.real), float(v.imag)] for i, v in zip(idx, psi.amplitudes[idx])]
    return {"dims": list(psi.layout.dims), "amps": amps}


def state_from_obj(obj: dict) -> PureState:
    """Decode a pure state; ValueError on any defect :func:`_decode_table` names
    or a norm other than 1."""
    import numpy as np

    from .tensor import PureState

    layout, index, vals = _decode_table(obj, "amps", 1)
    amps = np.zeros(layout.dense_dim, dtype=complex)
    amps[index[:, 0]] = vals
    return PureState(layout, amps)


def settings_to_obj(settings: BellSettings) -> dict:
    return {
        "a": [list(v) for v in settings.a],
        "a_prime": [list(v) for v in settings.a_prime],
    }


def settings_from_obj(obj: dict) -> BellSettings:
    try:
        _check_numbers([*obj["a"], *obj["a_prime"]], "setting directions")
        return BellSettings(
            tuple(tuple(float(x) for x in v) for v in obj["a"]),
            tuple(tuple(float(x) for x in v) for v in obj["a_prime"]),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"settings need 'a' and 'a_prime' direction lists ({exc!r})") from exc
    except OverflowError as exc:
        raise ValueError(f"setting directions must fit a double ({exc})") from exc


def _matrix_entries(m: np.ndarray) -> list[list]:
    rows, cols = m.nonzero()
    return _entries(rows, cols, m[rows, cols])


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
    """Parse a JSON file; ValueError on malformed JSON, nesting too deep included."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise ValueError(f"{path}: {exc}") from exc
