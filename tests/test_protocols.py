"""Coefficient-level protocols: amplify, measure out, join, project, permute."""
from __future__ import annotations

import hashlib
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entact import (
    DegenerateStateError,
    FamilyState,
    Grouping,
    Splitting,
    amplify,
    distill_pipeline,
    example_state,
    iter_set_partitions,
    join_povm,
    measure_out_party,
    permute_parties,
    project_to_effective_pair,
    random_family_state,
    required_amplification,
    validate,
)
from reference import coefficients_from_density, dense_projector_sum, permute_dense


def test_amplify_identity_and_ratio_law():
    state = FamilyState.from_unnormalized(3, 0.6, 0.1, (0.2, 0.1, 0.05))
    assert amplify(state, 1) == state
    out = amplify(state, 4)
    assert validate(out) == []
    half0 = state.delta / 2
    half1 = out.delta / 2
    for k in range(1, 4):
        got = out.coefficient(k) / half1
        want = (state.coefficient(k) / half0) ** 4
        assert got == pytest.approx(want, rel=1e-12)
    # the worked value: ratio 0.8 to the fourth power
    assert out.coefficient(1) / half1 == pytest.approx(0.4096, rel=1e-12)


def test_amplify_rejects_bad_input():
    state = random_family_state(3, seed=0)
    for m in (0, 1.5, 2.0, True):
        with pytest.raises(ValueError, match="positive integer"):
            amplify(state, m)
    flat = FamilyState(3, 0.25, 0.25, (0.125, 0.0, 0.125))
    with pytest.raises(DegenerateStateError):
        amplify(flat, 2)
    assert amplify(flat, 1) == flat


@settings(max_examples=50)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=5),
)
def test_amplify_preserves_indicator(n, seed, m):
    state = random_family_state(n, seed=seed)
    out = amplify(state, m)
    assert validate(out) == []
    assert out.indicator_vector() == state.indicator_vector()


def test_measure_out_merges_and_keeps_gap():
    state = random_family_state(5, seed=14)
    for party in (1, 2, 3, 4):
        m = required_amplification(state, party)
        base = amplify(state, m)
        child = measure_out_party(base, party)
        assert child.n == 4
        assert validate(child) == []
        # the merge conserves mass and the corner gap of what it was fed
        assert child.delta == pytest.approx(base.delta, abs=1e-15)
        assert child.total_weight() == pytest.approx(base.total_weight(), abs=1e-12)


def test_measure_out_worked_merge():
    # removing party 2 of 3 pairs label j with label j + 2
    state = FamilyState(3, 0.3, 0.1, (0.05, 0.1, 0.15))
    child = measure_out_party(state, 2)
    assert child.n == 2
    assert child.lam0_plus == pytest.approx(0.3 + 0.1)
    assert child.lam0_minus == pytest.approx(0.1 + 0.1)
    assert child.lam[0] == pytest.approx(0.05 + 0.15)
    assert child.delta == pytest.approx(state.delta)


def test_measure_out_guards():
    state = random_family_state(3, seed=1)
    with pytest.raises(ValueError):
        measure_out_party(state, 3)  # the anchor party cannot be removed directly
    with pytest.raises(ValueError):
        measure_out_party(state, 0)
    with pytest.raises(ValueError):
        measure_out_party(random_family_state(2, seed=1), 1)


def test_protocol_moves_reject_non_integer_party():
    # True and 1.0 would pass for party 1 in a range test
    state = random_family_state(4, 1)
    with pytest.raises(ValueError, match="party True is not an integer"):
        measure_out_party(state, True)
    with pytest.raises(ValueError, match=r"party 1\.0 is not an integer"):
        measure_out_party(state, 1.0)
    with pytest.raises(ValueError, match=r"party 1\.0 is not an integer"):
        required_amplification(state, 1.0)
    with pytest.raises(ValueError, match="party True is not an integer"):
        permute_parties(state, (True, 2, 3, 4))


def test_required_amplification_worked_case():
    state = FamilyState(3, 0.3, 0.0, (0.15, 0.1, 0.1))
    # merging labels 2 and 3 over party 1 gives 0.2 > 0.15 = half the gap
    assert required_amplification(state, 1) == 2
    assert measure_out_party(state, 1).indicator(1) == 0
    child = measure_out_party(amplify(state, 2), 1)
    assert child.indicator(1) == 1


def test_measure_near_threshold_ratios_exhaust_the_cap():
    near = 0.2 * (1.0 - 1e-9)
    state = FamilyState.from_unnormalized(3, 0.4, 0.0, (0.0, near, near))
    with pytest.raises(DegenerateStateError):
        required_amplification(state, 1)
    with pytest.raises(DegenerateStateError):
        measure_out_party(amplify(state, required_amplification(state, 1)), 1)


def test_join_povm_straddled_labels_drop():
    state = random_family_state(4, seed=6)
    group = {1, 2}
    out = join_povm(state, group)
    assert validate(out) == []
    for mask in range(1, 8):
        sp = Splitting(4, mask)
        if {p for p in group if sp.bit(p)} not in (set(), group):
            assert out.coefficient(mask) == 0.0
        else:
            assert out.indicator(mask) == state.indicator(mask)


def test_join_povm_weight_validation():
    state = random_family_state(4, seed=8)
    with pytest.raises(ValueError):
        join_povm(state, {1})


def test_join_povm_rejects_non_integer_party():
    # True equals party 1 as a set member, but it names no party
    with pytest.raises(ValueError, match="party True is not an integer"):
        join_povm(example_state("VI"), [2, True])


def test_project_to_effective_pair():
    state = random_family_state(4, seed=4)
    split = Splitting(4, 3)
    pair = project_to_effective_pair(state, split)
    assert pair.delta == pytest.approx(state.delta)
    assert pair.lam[0] == state.coefficient(3)
    assert pair.indicator(1) == state.indicator(3)
    assert bool(pair.indicator(1)) == (pair.fidelity > 0.5)
    normalized = FamilyState.from_unnormalized(2, pair.lam0_plus, pair.lam0_minus, pair.lam)
    assert normalized.total_weight() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        project_to_effective_pair(state, Splitting(5, 3))


def _assert_dense_relabel(state, order):
    # the dense route moves the parties' tensor axes; no label arithmetic is shared
    want = coefficients_from_density(permute_dense(dense_projector_sum(state), order))
    got = permute_parties(state, order)
    assert got.lam0_plus == pytest.approx(want.lam0_plus, abs=1e-12)
    assert got.lam0_minus == pytest.approx(want.lam0_minus, abs=1e-12)
    assert got.lam == pytest.approx(want.lam, abs=1e-12)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_permute_parties_matches_dense_relabel_on_a_cycle(n):
    # a cycle is not its own inverse, so this fixes the direction of the relabel
    _assert_dense_relabel(random_family_state(n, seed=n), (*range(2, n + 1), 1))


def test_permute_parties_swap():
    state = random_family_state(3, seed=17)
    out = permute_parties(state, (3, 2, 1))
    assert out.coefficient(1) == state.coefficient(3)
    assert out.coefficient(2) == state.coefficient(2)
    assert out.coefficient(3) == state.coefficient(1)
    assert out.lam0_plus == state.lam0_plus
    assert permute_parties(out, (3, 2, 1)) == state


@settings(max_examples=40)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=3000), st.data())
def test_permute_parties_roundtrip(n, seed, data):
    state = random_family_state(n, seed=seed)
    order = tuple(data.draw(st.permutations(range(1, n + 1))))
    _assert_dense_relabel(state, order)
    out = permute_parties(state, order)
    assert validate(out) == []
    inverse = [0] * n
    for new_pos, old in enumerate(order, start=1):
        inverse[old - 1] = new_pos
    assert permute_parties(out, tuple(inverse)) == state


def test_permute_validation():
    state = random_family_state(3, seed=0)
    with pytest.raises(ValueError):
        permute_parties(state, (1, 2))
    with pytest.raises(ValueError):
        permute_parties(state, (1, 1, 2))


def test_pipeline_worked_four_party_run():
    state = example_state("VI")
    grouping = Grouping.from_sets(4, [[1], [2], [3, 4]])
    trace = distill_pipeline(state, grouping, {1}, {2})
    assert trace.succeeded
    assert trace.witness is None
    assert trace.outcome is not None
    assert trace.outcome.indicator(1)
    assert trace.outcome.fidelity == pytest.approx(1.0)
    kinds = [step.kind for step in trace.steps]
    assert kinds == ["start", "join", "permute", "measure", "measure", "project"]
    # projecting {3,4} zeroes every splitting it straddles
    assert trace.steps[1].digest == "1111111"
    assert trace.steps[-1].state.n == 2
    assert trace.final_split is not None
    assert str(trace.final_split) == "(A2)-(A1)"


def test_pipeline_reports_witness_on_failure():
    state = example_state("VI")
    grouping = Grouping.from_sets(4, [[1, 3], [2], [4]])
    trace = distill_pipeline(state, grouping, {1, 3}, {2})
    assert not trace.succeeded
    assert trace.witness is not None
    assert trace.witness.mask == 5
    assert trace.outcome is None
    assert [step.kind for step in trace.steps] == ["start"]


def test_pipeline_validates_pair_membership():
    state = example_state("VI")
    grouping = Grouping.from_sets(4, [[1, 3], [2], [4]])
    with pytest.raises(ValueError):
        distill_pipeline(state, grouping, {1}, {2})
    with pytest.raises(ValueError, match="same group 1,3"):
        distill_pipeline(state, grouping, {1, 3}, {1, 3})


# trace count and sha256 of the float-free trace content below; floats
# are left out so that the stored numbers may change while the moves,
# parties and digests may not
PINNED_TRACES = (671, "ce8b5fe3f56b9177d9f451ce859e8dc1039a1f6165b62fec52ff3368e62008d4")


def _trace_key(trace):
    steps = tuple(
        (s.kind, s.note, s.digest, s.party, s.amplification, s.order, s.parties)
        for s in trace.steps
    )
    witness = trace.witness.mask if trace.witness else None
    final = trace.final_split.mask if trace.final_split else None
    return (steps, witness, final, trace.succeeded)


def test_pipeline_traces_match_pinned_hash():
    states = [example_state("VI"), example_state("VII")]
    states += [random_family_state(5, seed=s) for s in range(3)]
    h = hashlib.sha256()
    count = 0
    for state in states:
        for blocks in iter_set_partitions(state.n):
            if len(blocks) < 2:
                continue
            grouping = Grouping.from_sets(state.n, blocks)
            for c, d in combinations(grouping.groups, 2):
                h.update(repr(_trace_key(distill_pipeline(state, grouping, c, d))).encode())
                count += 1
    assert (count, h.hexdigest()) == PINNED_TRACES
