"""Pair-extraction protocol: filters, case analysis, full runs, replay."""

import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import boundbell.extraction as extraction
from boundbell import (
    FilterOperator,
    NotEntangledError,
    PairUnavailableError,
    PartyLayout,
    PureState,
    apply_local,
    extract,
    ghz,
    random_pure,
    reduce_to_parties,
    replay,
    schmidt,
    target_pair_choice,
)
from boundbell.extraction import OVERLAP_TOL, _biorthogonal_op, _distinct_factors
from boundbell.tensor import FILTER_KINDS
from helpers import (
    basis_state,
    brute_single_rank,
    classify_branch,
    equalize_filter,
    party_ranks,
    tensor_product,
    tensordot_reduce_to_parties,
)

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
                assert rank == schmidt(state, party)[0].size, (name, party)


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
            assert r == rank == schmidt(psi, party)[0].size


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
    coeffs, _, _ = schmidt(post, 1)
    np.testing.assert_allclose(coeffs, [INV_SQRT2, INV_SQRT2], atol=1e-10)


def test_equalize_ghz_any_party():
    for party in (1, 2, 3, 4):
        fop, _, weight = equalize_filter(ghz(4, 1.3), party)
        assert abs(weight - 1.0) < 1e-12
        np.testing.assert_allclose(fop.matrix, np.eye(2), atol=1e-12)


def test_equalize_truncates_higher_rank():
    psi = random_pure(PartyLayout((3, 3)), seed=32)
    coeffs, _, _ = schmidt(psi, 1)
    assert coeffs.size == 3
    _, post, weight = equalize_filter(psi, 1)
    assert abs(weight - 2 * coeffs[1] ** 2) < 1e-12
    post_coeffs, _, _ = schmidt(post, 1)
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
    assert list(info.distinct) == [2, 3]  # no party keeps its factor
    for chi, tau in info.distinct.values():  # and each is locally orthogonal
        assert abs(np.vdot(chi, tau)) <= OVERLAP_TOL


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
    assert list(info.distinct) == [3]  # the distinct parties; party 2, the rest, is the same
    chi, tau = info.distinct[3]
    assert abs(np.vdot(chi, tau)) < 1e-10


def qubit_product(*vectors) -> PureState:
    return tensor_product([PureState(PartyLayout((2,)), np.asarray(v, dtype=complex)) for v in vectors])


def test_distinct_factors_keeps_party_order_and_needs_an_orthogonal_site():
    tilted = [0.6, 0.8]  # overlap 0.6 with |0>: distinct, not orthogonal
    phi0 = qubit_product([1, 0], [1, 0], [1, 0])
    distinct = _distinct_factors(phi0, qubit_product([1, 0], tilted, [0, 1]), (2, 3, 4))
    assert list(distinct) == [3, 4]
    np.testing.assert_allclose(distinct[3][1], tilted, atol=1e-12)
    no_site = r"without a locally orthogonal site; overlaps \[\(2, .*\), \(3, .*\), \(4, .*\)\]$"
    with pytest.raises(extraction.NumericDegeneracyError, match=no_site):
        _distinct_factors(phi0, qubit_product([1, 0], tilted, tilted), (2, 3, 4))


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
    assert info.distinct is None


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
    # a plain ValueError: 1.7, 1.0 and True are malformed, not parties that failed to survive
    for survivors, requested in [
        ((1, 2, 3), (1.7, 2.2)), ((1, 2.5, 3), None), ((1, 2, 3), (1.0, 2)),
        ((1, 2, 3), (True, 3)), ((1.0, 2, 3), None),
    ]:
        with pytest.raises(ValueError) as err:
            target_pair_choice(survivors, requested)
        assert err.type is ValueError, (survivors, requested)
    assert target_pair_choice((1, 2, 3), (np.int64(1), 2)) == (1, 2)


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
    for pair in [(1, 1), (1, 9), (0, 2), (1, 2, 3), (1.7, 2.2), (1.0, 2), (True, 2)]:
        with pytest.raises(ValueError) as err:
            extract(ghz(3, 0.0), pair=pair)
        assert err.type is ValueError, pair
    assert extract(ghz(3, 0.0), pair=(np.int64(1), 2)).pair == (1, 2)


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


def test_reduce_to_parties_is_bit_identical_to_tensordot(extraction_corpus):
    # a discarded party is contracted as its factor times its party matrix; the
    # bits must be those of np.tensordot over its axis, on random layouts and
    # kept sets and on the replayed states whose pair extract keeps
    rng = np.random.default_rng(27)
    cases = []
    for seed in range(300):
        n = int(rng.integers(2, 7))
        dims = tuple(int(d) for d in rng.integers(2, 5, size=n))
        keep = rng.choice(np.arange(1, n + 1), size=int(rng.integers(1, n + 1)), replace=False)
        cases.append((random_pure(PartyLayout(dims), seed), tuple(sorted(keep.tolist()))))
    for _, psi in list(extraction_corpus[:60]) + list(_five_and_six_party_states()):
        res = extract(psi)
        cases.append((replay(psi, res.steps), res.pair))
    for psi, keep in cases:
        got, want = reduce_to_parties(psi, keep), tensordot_reduce_to_parties(psi, keep)
        assert got.layout == want.layout, (psi.layout, keep)
        assert got.amplitudes.tobytes() == want.amplitudes.tobytes(), (psi.layout, keep)


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


def _record_decompositions(monkeypatch) -> list:
    """The (live state, party, Schmidt rank) of each ``schmidt`` call ``extract`` makes."""
    calls = []
    real = extraction.schmidt

    def record(psi, party):
        out = real(psi, party)
        calls.append((psi, party, out[0].size))
        return out

    monkeypatch.setattr(extraction, "schmidt", record)
    return calls


def _pivots_and_later(calls) -> tuple[list, list]:
    """Each round's (live state, pivot), the first party of rank >= 2 on that
    state, and the parties decomposed on a round's state after its pivot."""
    pivots, later = {}, []
    for live, party, rank in calls:
        if id(live) in pivots:
            later.append(party)
        elif rank >= 2:
            pivots[id(live)] = (live, party)
    return list(pivots.values()), later


def test_case_b_rounds_continue_on_the_equalized_branches(extraction_corpus, monkeypatch):
    # extract reads a case-B round's branch off the rows of the pivot's Schmidt
    # decomposition; the oracle applies the equalize filter to the same live
    # state and splits and normalizes the result
    calls = _record_decompositions(monkeypatch)
    rounds = 0
    for case_id, psi in list(extraction_corpus) + list(_five_and_six_party_states()):
        calls.clear()
        projects = [step.op for step in extract(psi).steps if step.op.kind == "project"]
        lives = _pivots_and_later(calls)[0]
        assert len(lives) == len(projects) + 1, case_id
        for (live, pivot), (after, _), project in zip(lives, lives[1:], projects):
            info = classify_branch(equalize_filter(live, pivot)[1], pivot)
            index = 0 if not info.branch_product[0] else 1
            assert info.case == "B" and project.matrix[index, index] == 1.0, case_id
            np.testing.assert_allclose(after.amplitudes, info.branches[index].amplitudes, rtol=0, atol=1e-12)
            rounds += 1
        live, pivot = lives[-1]
        assert classify_branch(equalize_filter(live, pivot)[1], pivot).case == "A", case_id
    assert rounds == 477  # 407 on the corpus, 70 on the five- and six-party states


def test_a_round_tests_its_second_branch_only_after_a_product_first(extraction_corpus, monkeypatch):
    # a case-B round whose branch 0 is entangled runs one product test; a round
    # that projects onto branch 1, or lands in case A, runs two
    verdicts = []
    real = extraction._is_product
    monkeypatch.setattr(extraction, "_is_product", lambda phi: verdicts.append(real(phi)) or verdicts[-1])
    first_entangled = 0
    for case_id, psi in extraction_corpus:
        verdicts.clear()
        projected = [int(step.op.matrix[1, 1].real) for step in extract(psi).steps if step.op.kind == "project"]
        expected = [v for index in projected for v in ([False] if index == 0 else [True, False])]
        assert verdicts == expected + [True, True], case_id
        first_entangled += projected.count(0)
    assert first_entangled > 0


def test_a_case_b_round_runs_one_svd_per_decomposition(monkeypatch):
    # the rank check, the equalize and the project filter take certificates, so
    # a case-B round's only SVDs are its decompositions, one for a first-party pivot
    svds, starts = [], []  # starts: (live state, SVDs so far) at each decomposition
    real_svd, real_schmidt = np.linalg.svd, extraction.schmidt
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svds.append(1) or real_svd(*a, **k))
    monkeypatch.setattr(
        extraction, "schmidt", lambda psi, party: starts.append((psi, len(svds))) or real_schmidt(psi, party)
    )
    for seed, psi in _five_and_six_party_states():
        starts.clear()
        extract(psi)
        firsts = [i for i, (live, _) in enumerate(starts) if i == 0 or live is not starts[i - 1][0]]
        assert len(firsts) >= 3, seed  # at least two case-B rounds
        for a, b in zip(firsts, firsts[1:]):
            assert starts[b][1] - starts[a][1] == b - a, seed
        assert firsts[1] == 1 and starts[1][1] - starts[0][1] == 1, seed


def test_extract_builds_its_filters_without_an_svd(extraction_corpus, monkeypatch):
    # every filter kind passes the norm certificate.  A biorthogonal filter's
    # Gram matrix has eigenvalues s_min**2 / s_k**2 on eigenvectors of equal
    # moduli (its factors are unit vectors), so its largest row sum is exactly
    # 1, for non-orthogonal factors too
    building, built, svds = [], Counter(), Counter()
    real_svd, real_check = np.linalg.svd, FilterOperator.__post_init__

    def svd(*args, **kwargs):
        svds[building[-1] if building else None] += 1
        return real_svd(*args, **kwargs)

    def check(self):
        building.append(self.kind)
        built[self.kind] += 1
        try:
            real_check(self)
        finally:
            building.pop()

    monkeypatch.setattr(np.linalg, "svd", svd)
    monkeypatch.setattr(FilterOperator, "__post_init__", check)
    for psi in [psi for _, psi in extraction_corpus] + [ghz(n, 0.7) for n in (3, 4, 5)]:
        extract(psi)
    # (|000> + |1>|b>|1>)/sqrt2 with <0|b> = 0.6: party 2's duals are not orthogonal
    amps = np.concatenate([np.eye(1, 4)[0], np.kron([0.6, 0.8], [0.0, 1.0])]) / np.sqrt(2)
    res = extract(PureState(PartyLayout.qubits(3), amps))
    assert [step.op.kind for step in res.steps].count("biorthogonal") == 2
    assert res.steps[1].op.party == 2 and abs(np.vdot(*res.steps[1].op.matrix[:2])) > 0.1
    assert all(built[kind] for kind in FILTER_KINDS), built
    assert sum(svds[kind] for kind in FILTER_KINDS) == 0, svds


def _pair_with_a_product_rest(c1, theta, rest):
    """c0 |0>|0...0> + c1 |1>|b...b> over 1 + ``rest`` qubits, |b> = cos(theta)|0> + sin(theta)|1>."""
    b = np.array([np.cos(theta), np.sin(theta)])
    tail = np.ones(1)
    for _ in range(rest):
        tail = np.kron(tail, b)
    amps = np.concatenate([np.sqrt(1 - c1**2) * np.eye(1, 1 << rest)[0], c1 * tail])
    return PureState(PartyLayout.qubits(1 + rest), amps)


def test_rank_check_falls_back_to_the_svd_where_the_purity_cannot_certify(monkeypatch):
    # the fallback is a Schmidt decomposition of a later party on the pivot's state
    calls = _record_decompositions(monkeypatch)
    extract(random_pure(PartyLayout((2, 3, 2, 2)), 4))
    assert _pivots_and_later(calls)[1] == []  # every round certified by a purity
    # parties 1 and 2 share the coefficients (~1, 1e-6): party 2's purity,
    # 1 - 2e-12, is above the certificate's threshold; the SVD finds rank 2
    calls.clear()
    res = extract(_pair_with_a_product_rest(1e-6, np.pi / 2, 2))
    assert _pivots_and_later(calls)[1] == [2] and res.pair == (1, 2)
    assert res.probability == pytest.approx(2e-12, rel=1e-9)
    # party 1 at s2 = 1.3e-10 against five parties at 6e-11 each: every later
    # party takes the SVD and reports rank 1
    calls.clear()
    psi = _pair_with_a_product_rest(1e-5, 6e-6, 5)
    assert [brute_single_rank(psi, p) for p in range(1, 7)] == [2, 1, 1, 1, 1, 1]
    with pytest.raises(extraction.NumericDegeneracyError, match=r"exactly one party \(1\)"):
        extract(psi)
    assert _pivots_and_later(calls)[1] == [2, 3, 4, 5, 6]


def test_biorthogonal_op_matches_the_pinv_formulation():
    # one SVD of [chi tau] gives the duals and their norm; the reference takes
    # the pseudo-inverse and then its 2-norm, two SVDs
    rng = np.random.default_rng(29)
    for d in (2, 3, 4):
        for overlap in (1.01e-8, 1e-6, 1e-3, 0.3, 0.7, 0.99, 1 - 1e-6, 1 - 1.01e-8):
            for _ in range(5):
                q, _ = np.linalg.qr(rng.standard_normal((d, 2)) + 1j * rng.standard_normal((d, 2)))
                chi, perp = q[:, 0], q[:, 1]
                tau = np.exp(1j * rng.uniform(0, 2 * np.pi)) * (overlap * chi + np.sqrt(1 - overlap**2) * perp)
                ref = np.zeros((d, d), dtype=complex)
                ref[:2] = np.linalg.pinv(np.stack([chi, tau], axis=1))
                ref /= np.linalg.norm(ref, 2)
                op = _biorthogonal_op(1, chi, tau).matrix
                np.testing.assert_allclose(op, ref, rtol=0, atol=1e-12)
                assert abs(np.linalg.norm(op, 2) - 1.0) <= 1e-12, (d, overlap)


def test_extract_coefficients_are_schmidts(extraction_corpus):
    # extract reads the final pair's coefficients off schmidt's SVD, skipping its vectors
    states = [psi for _, psi in extraction_corpus] + [ghz(n, a) for n in range(2, 11) for a in (0.0, 0.7)]
    for psi in states:
        res = extract(psi)
        c = schmidt(res.final_state, 1)[0]
        assert repr(res.schmidt_coeffs) == repr((float(c[0]), float(c[1]) if c.size > 1 else 0.0))


def test_extract_case_a_orthogonal_site(extraction_corpus):
    # a run's last round lands in case A: some party is locally orthogonal
    # between the branches, and the distinct parties get the biorthogonal filters
    for case_id, psi in extraction_corpus[:60]:
        steps = extract(psi).steps
        last = max(i for i, step in enumerate(steps) if step.op.kind == "equalize")
        pivot = steps[last].op.party  # spent parties are pure factors, the same in both branches
        info = classify_branch(equalize_filter(replay(psi, steps[:last]), pivot)[1], pivot)
        assert info.case == "A", case_id
        assert min(abs(np.vdot(chi, tau)) for chi, tau in info.distinct.values()) <= OVERLAP_TOL
        assert list(info.distinct) == [step.op.party for step in steps if step.op.kind == "biorthogonal"]
    info = classify_branch(equalize_filter(ghz(4, 0.0), 1)[1], 1)
    assert info.case == "A" and list(info.distinct) == [2, 3, 4]


def test_extract_qutrit_layouts():
    res = extract(random_pure(PartyLayout((3, 2, 3)), seed=71))
    np.testing.assert_allclose(res.schmidt_coeffs, [INV_SQRT2, INV_SQRT2], atol=1e-8)
    assert res.final_state.layout.num_parties == 2


def test_extract_single_party_rejected():
    psi = random_pure(PartyLayout((3,)), seed=2)
    with pytest.raises(NotEntangledError):
        extract(psi)
