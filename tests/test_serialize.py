"""Wire-format round trips (bit-exact for doubles) and trace serialization."""

import json

import numpy as np

from boundbell import (
    BellSettings,
    FilterOperator,
    PartyLayout,
    RhoFamilySpec,
    extract,
    ghz,
    random_pure,
    reduce_to_parties,
    replay,
    rho_family,
)
from boundbell.extraction import ExtractionStep
from boundbell.serialize import (
    canonical_dumps,
    extraction_to_obj,
    operator_from_obj,
    operator_to_obj,
    settings_from_obj,
    settings_to_obj,
    state_from_obj,
    state_to_obj,
)
from helpers import dense_matrix


def test_operator_round_trip_bit_exact():
    rho = rho_family(RhoFamilySpec(4))
    obj = json.loads(json.dumps(operator_to_obj(rho)))
    back = operator_from_obj(obj)
    assert np.array_equal(dense_matrix(back), dense_matrix(rho))
    assert back.layout.dims == rho.layout.dims


def test_operator_sparse_entries_only():
    rho = rho_family(RhoFamilySpec(4))
    obj = operator_to_obj(rho)
    assert len(obj["entries"]) == np.count_nonzero(dense_matrix(rho)) == 12
    # 10 diagonal slots plus the two GHZ corners carry the 2N+1 = 9
    # rank-1 pieces of the mixture
    diagonal = [e for e in obj["entries"] if e[0] == e[1]]
    assert len(diagonal) == 10


def test_state_round_trip_bit_exact():
    for seed in (0, 1, 2):
        psi = random_pure(PartyLayout((2, 3, 2)), seed=seed)
        obj = json.loads(json.dumps(state_to_obj(psi)))
        back = state_from_obj(obj)
        assert np.array_equal(back.amplitudes, psi.amplitudes)
    sparse = ghz(5, 0.3)
    obj = state_to_obj(sparse)
    assert len(obj["amps"]) == 2


def test_settings_round_trip():
    settings = BellSettings.xy(4)
    back = settings_from_obj(json.loads(json.dumps(settings_to_obj(settings))))
    assert back.a == settings.a
    assert back.a_prime == settings.a_prime


def test_extraction_trace_replayable():
    psi = random_pure(PartyLayout((2, 2, 2)), seed=33)
    res = extract(psi)
    obj = json.loads(json.dumps(extraction_to_obj(res)))
    steps = []
    for raw in obj["steps"]:
        d = raw["dim"]
        m = np.zeros((d, d), dtype=complex)
        for r, c, re, im in raw["entries"]:
            m[r, c] = complex(re, im)
        steps.append(ExtractionStep(FilterOperator(raw["party"], m, raw["kind"]), raw["weight"]))
    full = replay(psi, steps)
    reduced = reduce_to_parties(full, tuple(obj["summary"]["pair"]))
    target = state_from_obj(obj["final_state"])
    fidelity = abs(np.vdot(reduced.amplitudes, target.amplitudes)) ** 2
    assert fidelity >= 1 - 1e-8
    assert obj["summary"]["probability"] == res.probability


def test_canonical_dumps_deterministic():
    rho = rho_family(RhoFamilySpec(3))
    a = canonical_dumps(operator_to_obj(rho))
    b = canonical_dumps(operator_to_obj(rho_family(RhoFamilySpec(3))))
    assert a == b
    assert a.endswith("\n")
