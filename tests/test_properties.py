"""Property tests of the sparse operator core against its dense oracles."""

import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from boundbell import DensityOperator, PartyLayout, partial_transpose, ppt_check  # noqa: E402
from boundbell.serialize import operator_from_obj, operator_to_obj  # noqa: E402
from helpers import dense_matrix, dense_min_eigenvalue, dense_partial_transpose  # noqa: E402

_FLOATS = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def sparse_operators(draw):
    """A trace-1 Hermitian operator with a few entries on a 1..4 party layout."""
    dims = tuple(draw(st.lists(st.integers(2, 3), min_size=1, max_size=4)))
    layout = PartyLayout(dims)
    entries = {}
    for _ in range(draw(st.integers(0, 6))):
        r = draw(st.integers(0, layout.dim - 1))
        c = draw(st.integers(0, layout.dim - 1))
        v = complex(draw(_FLOATS), 0.0 if r == c else draw(_FLOATS))
        entries[(r, c)] = v
        entries[(c, r)] = v.conjugate()
    entries[(0, 0)] = entries.get((0, 0), 0.0) + 1.0 - sum(
        v.real for (r, c), v in entries.items() if r == c
    )
    rows, cols = zip(*entries)
    return DensityOperator(layout, rows, cols, list(entries.values()))


@st.composite
def operators_and_subsets(draw):
    rho = draw(sparse_operators())
    n = rho.layout.num_parties
    subset = draw(st.sets(st.integers(1, n), min_size=1, max_size=n))
    return rho, tuple(sorted(subset))


def _bits(op):
    return op.rows.tobytes(), op.cols.tobytes(), op.vals.tobytes()


@settings(max_examples=150, deadline=None)
@given(sparse_operators())
def test_decode_inverts_encode_bit_exactly(rho):
    back = operator_from_obj(json.loads(json.dumps(operator_to_obj(rho))))
    assert back.layout == rho.layout
    assert _bits(back) == _bits(rho)


@settings(max_examples=150, deadline=None)
@given(operators_and_subsets())
def test_partial_transpose_is_an_involution(case):
    rho, subset = case
    assert _bits(partial_transpose(partial_transpose(rho, subset), subset)) == _bits(rho)


@settings(max_examples=150, deadline=None)
@given(operators_and_subsets())
def test_partial_transpose_and_min_eigenvalue_match_dense(case):
    rho, subset = case
    dense = dense_partial_transpose(rho, subset)
    assert np.array_equal(dense_matrix(partial_transpose(rho, subset)), dense)
    if len(subset) < rho.layout.num_parties:
        scale = max(1.0, float(np.max(np.abs(dense))))
        want = dense_min_eigenvalue(dense)
        assert abs(ppt_check(rho, subset).min_eigenvalue - want) <= 1e-12 * scale
