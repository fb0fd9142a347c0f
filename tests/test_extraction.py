"""Pair-extraction protocol: filters, case analysis, full runs, replay."""

import json
from pathlib import Path

import numpy as np
import pytest

from boundbell import (
    NotEntangledError,
    PairUnavailableError,
    PartyLayout,
    PureState,
    apply_local,
    classify_branch,
    equalize_filter,
    extract,
    ghz,
    random_pure,
    reduce_to_parties,
    replay,
    schmidt,
    target_pair_choice,
)
from helpers import basis_state, brute_single_rank, party_ranks, tensor_product

FIXTURES = Path(__file__).parent / "fixtures"

INV_SQRT2 = 2**-0.5


def product_state(n=3):
    rng = np.random.default_rng(55)
    factors = []
    for _ in range(n):
        amps = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        factors.append(PureState(PartyLayout((2,)), amps / np.linalg.norm(amps)))
    return tensor_product(factors)


# ---------------------------------------------------------------- profile


def test_profile_ghz():
    assert party_ranks(ghz(4, 0.0)) == [(1, 2), (2, 2), (3, 2), (4, 2)]


def test_profile_product():
    assert party_ranks(product_state()) == [(1, 1), (2, 1), (3, 1)]


def test_profile_matches_brute_force_oracle():
    # generic ranks are min(d_party, d_rest): the middle qutrit reaches 3
    psi = random_pure(PartyLayout((2, 3, 2)), seed=404)
    profile = party_ranks(psi)
    for party, rank in profile:
        assert rank == brute_single_rank(psi, party)
    assert [r for _, r in profile] == [2, 3, 2]


def test_profile_ranks_match_schmidt_decomposition(extraction_corpus):
    # ranks count values-only singular values; the full decomposition is the
    # reference, on every corpus state and every state the protocol passes through
    for name, psi in extraction_corpus:
        state = psi
        for step in (None,) + extract(psi).steps:
            if step is not None:
                state = replay(state, [step])
            for party, rank in party_ranks(state):
                assert rank == schmidt(state, (party,))[0].size, (name, party)


@pytest.mark.parametrize("second, rank", [(1e-9, 2), (1e-11, 1)])
def test_profile_ranks_beside_the_cutoff(second, rank):
    # the second singular value sits just above or just below the 1e-10 cutoff
    for dims in [(2, 2), (2, 3, 2), (3, 3)]:
        layout = PartyLayout(dims)
        amps = np.zeros(layout.dim, dtype=complex)
        amps[0] = np.sqrt(1.0 - second**2)
        amps[-1] = second
        psi = PureState(layout, amps)
        for party, r in party_ranks(psi):
            assert r == rank == schmidt(psi, (party,))[0].size


# ---------------------------------------------------------------- equalize


def test_equalize_already_balanced():
    psi = PureState(PartyLayout.qubits(2), np.array([1, 0, 0, 1]) / np.sqrt(2))
    fop, post, weight = equalize_filter(psi, 1)
    assert abs(weight - 1.0) < 1e-12
    np.testing.assert_allclose(fop.matrix, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(post.amplitudes, psi.amplitudes, atol=1e-12)


def test_equalize_skewed_two_qubit():
    amps = np.zeros(4, dtype=complex)
    amps[0] = np.sqrt(0.9)
    amps[3] = np.sqrt(0.1)
    psi = PureState(PartyLayout.qubits(2), amps)
    fop, post, weight = equalize_filter(psi, 1)
    assert abs(weight - 0.2) < 1e-12
    coeffs, _, _ = schmidt(post, (1,))
    np.testing.assert_allclose(coeffs, [INV_SQRT2, INV_SQRT2], atol=1e-10)


def test_equalize_ghz_any_party():
    for party in (1, 2, 3, 4):
        fop, _, weight = equalize_filter(ghz(4, 1.3), party)
        assert abs(weight - 1.0) < 1e-12
        np.testing.assert_allclose(fop.matrix, np.eye(2), atol=1e-12)


def test_equalize_truncates_higher_rank():
    psi = random_pure(PartyLayout((3, 3)), seed=32)
    coeffs, _, _ = schmidt(psi, (1,))
    assert coeffs.size == 3
    _, post, weight = equalize_filter(psi, 1)
    assert abs(weight - 2 * coeffs[1] ** 2) < 1e-12
    post_coeffs, _, _ = schmidt(post, (1,))
    assert post_coeffs.size == 2
    np.testing.assert_allclose(post_coeffs, [INV_SQRT2, INV_SQRT2], atol=1e-10)


def test_equalize_rejects_product_party():
    with pytest.raises(ValueError):
        equalize_filter(product_state(), 1)


# ---------------------------------------------------------------- classify


def test_classify_ghz_case_a():
    info = classify_branch(ghz(3, 0.0), 1)
    assert info.case == "A"
    assert info.branch_product == (True, True)
    assert info.same_parties == ()
    assert info.distinct_parties == (2, 3)
    assert info.orthogonal_parties == (2, 3)


def test_classify_entangled_branch_case_b():
    # branch 0 = (|00>+|11>)/sqrt2, branch 1 = (|01>+|10>)/sqrt2: both entangled
    amps = np.zeros(8, dtype=complex)
    amps[[0, 3]] = 0.5
    amps[[5, 6]] = 0.5
    psi = PureState(PartyLayout.qubits(3), amps)
    info = classify_branch(psi, 1)
    assert info.case == "B"
    assert info.branch_product == (False, False)


def test_classify_shared_local_factor_counts_as_same():
    chi = np.array([0.6, 0.8], dtype=complex)
    amps = np.zeros(8, dtype=complex)
    t = amps.reshape(2, 2, 2)
    t[0, :, 0] = chi / np.sqrt(2)  # |0> chi |0>
    t[1, :, 1] = chi / np.sqrt(2)  # |1> chi |1>
    psi = PureState(PartyLayout.qubits(3), amps)
    info = classify_branch(psi, 1)
    assert info.case == "A"
    assert info.same_parties == (2,)
    assert info.distinct_parties == (3,)
    assert info.overlaps[2] > 1 - 1e-10
    assert info.overlaps[3] < 1e-10


def one_product_branch(product_first: bool) -> PureState:
    """(|0> b0 + |1> b1)/sqrt2 with orthogonal branches |01> and (|00>+|11>)/sqrt2."""
    t = np.zeros((2, 2, 2), dtype=complex)
    product, entangled = (0, 1) if product_first else (1, 0)
    t[product, 0, 1] = INV_SQRT2
    t[entangled, 0, 0] = t[entangled, 1, 1] = 0.5
    return PureState(PartyLayout.qubits(3), t.reshape(-1))


@pytest.mark.parametrize("product_first", [True, False])
def test_classify_one_product_branch_reports_both(product_first):
    # the product test stops at a branch's first impure party, yet both
    # branches are tested
    info = classify_branch(one_product_branch(product_first), 1)
    assert info.case == "B"
    assert info.branch_product == (product_first, not product_first)
    assert info.factors is None


@pytest.mark.parametrize("product_first", [True, False])
def test_extract_projects_onto_the_entangled_branch(product_first):
    res = extract(one_product_branch(product_first))
    equalize, project = res.steps[:2]
    assert (equalize.op.kind, equalize.op.party) == ("equalize", 1)
    assert (project.op.kind, project.op.party) == ("project", 1)
    entangled = 1 if product_first else 0
    expected = np.zeros((2, 2))
    expected[entangled, entangled] = 1.0
    assert np.array_equal(project.op.matrix, expected)
    np.testing.assert_allclose(res.schmidt_coeffs, [INV_SQRT2, INV_SQRT2], atol=1e-12)


def test_classify_rejects_unbalanced():
    amps = np.zeros(4, dtype=complex)
    amps[0] = np.sqrt(0.9)
    amps[3] = np.sqrt(0.1)
    with pytest.raises(ValueError):
        classify_branch(PureState(PartyLayout.qubits(2), amps), 1)


# ---------------------------------------------------------------- pair choice


def test_target_pair_choice_rules():
    assert target_pair_choice({2, 3, 5}) == (2, 3)
    assert target_pair_choice({1, 4}, requested=(1, 4)) == (1, 4)
    with pytest.raises(PairUnavailableError):
        target_pair_choice({1, 2, 3}, requested=(1, 5))
    # a plain ValueError: 1.7 is malformed, not a party that failed to survive
    for survivors, requested in [((1, 2, 3), (1.7, 2.2)), ((1, 2.5, 3), None)]:
        with pytest.raises(ValueError) as err:
            target_pair_choice(survivors, requested)
        assert err.type is ValueError, (survivors, requested)
    assert target_pair_choice((1, 2, 3), (1.0, np.int64(2))) == (1, 2)


# ---------------------------------------------------------------- extract


def test_extract_ghz_deterministic():
    for n in (3, 4, 5, 6):
        res = extract(ghz(n, 0.4))
        assert res.pair == (1, 2)
        assert abs(res.probability - 1.0) < 1e-10
        assert res.surviving_parties == tuple(range(1, n + 1))
        np.testing.assert_allclose(res.schmidt_coeffs, [INV_SQRT2, INV_SQRT2], atol=1e-10)


def test_extract_product_raises():
    with pytest.raises(NotEntangledError):
        extract(product_state())


def test_extract_requested_pair():
    res = extract(ghz(5, 0.0), pair=(2, 5))
    assert res.pair == (2, 5)
    assert abs(res.probability - 1.0) < 1e-10
    np.testing.assert_allclose(res.schmidt_coeffs, [INV_SQRT2, INV_SQRT2], atol=1e-10)


def test_extract_requested_pair_unavailable():
    # party 1 is a spectator product factor and never survives
    psi = tensor_product(
        [basis_state(PartyLayout((2,)), 0), ghz(3, 0.0)]
    )
    res = extract(psi)
    assert res.surviving_parties == (2, 3, 4)
    with pytest.raises(PairUnavailableError):
        extract(psi, pair=(1, 2))


def test_extract_rejects_malformed_pair():
    # checked against the layout before the protocol runs: a plain ValueError,
    # not PairUnavailableError, which is for valid parties that do not survive
    for pair in [(1, 1), (1, 9), (0, 2), (1, 2, 3), (1.7, 2.2)]:
        with pytest.raises(ValueError) as err:
            extract(ghz(3, 0.0), pair=pair)
        assert err.type is ValueError, pair
    assert extract(ghz(3, 0.0), pair=(1.0, np.int64(2))).pair == (1, 2)


def test_extract_spectator_factor_becomes_same_site():
    psi = tensor_product([basis_state(PartyLayout((2,)), 1), ghz(3, 0.2)])
    res = extract(psi)
    assert res.pair == (2, 3)
    assert abs(res.probability - 1.0) < 1e-10


def test_extract_corpus_properties(extraction_corpus):
    with open(FIXTURES / "extraction_probs.json", encoding="utf-8") as f:
        frozen = json.load(f)
    for case_id, psi in extraction_corpus:
        res = extract(psi)
        assert res.probability > 0.0
        np.testing.assert_allclose(
            res.schmidt_coeffs, [INV_SQRT2, INV_SQRT2], atol=1e-8
        )
        # probability equals the product of the recorded step weights
        product = 1.0
        for step in res.steps:
            product *= step.weight
        assert abs(product - res.probability) < 1e-14
        # every recorded filter is a valid measurement element
        for step in res.steps:
            assert np.linalg.norm(step.op.matrix, 2) <= 1 + 1e-12
        # regression: per-case success probabilities are frozen
        assert abs(res.probability - frozen[case_id]) < 1e-10


def test_extract_replay_fidelity(extraction_corpus):
    for case_id, psi in extraction_corpus[:50]:
        res = extract(psi)
        full = replay(psi, res.steps)
        reduced = reduce_to_parties(full, res.pair)
        fidelity = abs(np.vdot(reduced.amplitudes, res.final_state.amplitudes)) ** 2
        assert fidelity >= 1 - 1e-8, case_id


def test_extract_case_b_strictly_shrinks_entanglement(extraction_corpus):
    for case_id, psi in extraction_corpus[:40]:
        res = extract(psi)
        state = psi
        entangled_before = sum(1 for _, r in party_ranks(state) if r >= 2)
        for step in res.steps:
            vec, weight = apply_local(state, step.op)
            state = PureState(state.layout, vec / np.sqrt(weight))
            if step.op.kind == "project":
                entangled_now = sum(1 for _, r in party_ranks(state) if r >= 2)
                assert entangled_now < entangled_before, case_id
                entangled_before = entangled_now


def test_extract_pivot_is_first_entangled_party_of_several(extraction_corpus):
    # the per-round scan stops at the second entangled party: the pivot must
    # still be the lowest party of rank >= 2, and another must exist
    for case_id, psi in extraction_corpus[:40]:
        state = psi
        for step in extract(psi).steps:
            if step.op.kind == "equalize":
                entangled = [p for p, r in party_ranks(state) if r >= 2]
                assert step.op.party == entangled[0], case_id
                assert len(entangled) >= 2, case_id
            state = replay(state, [step])


def test_projected_pivot_keeps_rank_one(extraction_corpus):
    # extract drops a party from its live state once it is projected in case B:
    # that is exact only if its rank stays 1 in every later state of the protocol
    projections = 0
    for case_id, psi in extraction_corpus:
        state, projected = psi, []
        for step in extract(psi).steps:
            state = replay(state, [step])
            if step.op.kind == "project":
                projected.append(step.op.party)
                projections += 1
            for party in projected:
                assert party_ranks(state)[party - 1] == (party, 1), case_id
    assert projections >= 400  # 407 on this corpus, at least one per state


def _five_and_six_party_states():
    for seed in range(20):
        dims = tuple(int(d) for d in np.random.default_rng(seed).integers(2, 4, size=5 + seed % 2))
        yield seed, random_pure(PartyLayout(dims), seed)


def test_extract_final_state_matches_full_reduction():
    # extract reduces only its live state, without the projected pivots; the
    # public reduce_to_parties eigensolves each one: 5 and 6 parties, >= 2 projections
    for seed, psi in _five_and_six_party_states():
        res = extract(psi)
        assert sum(step.op.kind == "project" for step in res.steps) >= 2, seed
        reduced = reduce_to_parties(replay(psi, res.steps), res.pair)
        assert reduced.layout == res.final_state.layout
        np.testing.assert_allclose(reduced.amplitudes, res.final_state.amplitudes, rtol=0, atol=1e-12)


def test_step_weights_match_the_replayed_state(extraction_corpus):
    # extract computes its weights on the live state, without the projected
    # pivots; each must be the weight of its filter on the replayed input state
    cases = list(extraction_corpus) + list(_five_and_six_party_states())
    for case_id, psi in cases:
        state = psi
        for step in extract(psi).steps:
            vec, weight = apply_local(state, step.op)
            if step.op.kind != "measure_pm":  # recorded as 1: both outcomes succeed
                assert abs(step.weight - weight) <= 1e-12, case_id
            state = PureState(state.layout, vec / np.sqrt(weight))


def test_extract_coefficients_are_schmidts(extraction_corpus):
    # extract reads the final pair's coefficients off schmidt's SVD, skipping its vectors
    states = [psi for _, psi in extraction_corpus] + [ghz(n, a) for n in range(2, 11) for a in (0.0, 0.7)]
    for psi in states:
        res = extract(psi)
        c = schmidt(res.final_state, (1,))[0]
        assert repr(res.schmidt_coeffs) == repr((float(c[0]), float(c[1]) if c.size > 1 else 0.0))


def test_extract_case_a_orthogonal_site(extraction_corpus):
    # whenever the first classification lands in case A, some party is
    # locally orthogonal between the branches
    seen_case_a = 0
    for _, psi in extraction_corpus[:60]:
        pivot = next(p for p, r in party_ranks(psi) if r >= 2)
        _, balanced, _ = equalize_filter(psi, pivot)
        info = classify_branch(balanced, pivot)
        if info.case == "A":
            seen_case_a += 1
            assert info.orthogonal_parties
    info = classify_branch(equalize_filter(ghz(4, 0.0), 1)[1], 1)
    assert info.case == "A" and info.orthogonal_parties


def test_extract_qutrit_layouts():
    res = extract(random_pure(PartyLayout((3, 2, 3)), seed=71))
    np.testing.assert_allclose(res.schmidt_coeffs, [INV_SQRT2, INV_SQRT2], atol=1e-8)
    assert res.final_state.layout.num_parties == 2


def test_extract_single_party_rejected():
    psi = random_pure(PartyLayout((3,)), seed=2)
    with pytest.raises(NotEntangledError):
        extract(psi)
