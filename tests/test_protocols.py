"""Coefficient-level protocols: amplify, measure out, join, project, permute."""
from __future__ import annotations

import hashlib
import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entact import protocols
from entact import (
    DegenerateStateError,
    FamilyState,
    Grouping,
    Splitting,
    amplify,
    distill_pipeline,
    example_pattern,
    example_state,
    iter_set_partitions,
    join_povm,
    measure_out_party,
    necessary_distillable,
    permute_parties,
    project_to_effective_pair,
    random_family_state,
    required_amplification,
    validate,
)
from entact.model import _Kept
from reference import coefficients_from_density, dense_projector_sum, exact_pipeline, permute_dense


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


def test_every_party_range_reads_one_message():
    # Splitting.bit, Grouping.group_of and the measuring moves share one range rule
    state = random_family_state(4, 1)
    calls = (Splitting(4, 5).bit, Grouping.all_separate(4).group_of,
             lambda p: measure_out_party(state, p), lambda p: required_amplification(state, p))
    for call in calls:
        for party in (0, 5, -1):
            with pytest.raises(ValueError, match=rf"^party {party} outside 1\.\.4$"):
                call(party)


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


def test_required_amplification_leaves_a_label_on_the_threshold_out():
    # label 2 sits exactly on delta/2 = 0.15, so it is separable: its parent
    # pair (0.15, 0.0) needs no power, although the sum never drops below 0.15
    state = FamilyState(3, 0.3, 0.0, (0.0, 0.15, 0.0))
    assert required_amplification(state, 1) == 1
    assert state.indicator_vector() == (1, 0, 1)


def test_measure_near_threshold_ratios_take_the_least_power():
    # both parents sit 1e-9 below the half-gap, so the least power is about ln 2 / 1e-9;
    # the bisection finds it with no cap on the search
    near = 0.2 * (1.0 - 1e-9)
    state = FamilyState.from_unnormalized(3, 0.4, 0.0, (0.0, near, near))
    assert required_amplification(state, 1) == 693_147_277
    assert measure_out_party(amplify(state, 693_147_277), 1).indicator_vector() == (1,)


def test_an_amplified_separable_ratio_past_the_float_range_is_refused():
    # measuring party 2 needs power 69 for the two parents at 0.99 of the half-gap, which
    # takes the separable label at 1e5 half-gaps to 1e345
    state = FamilyState.from_unnormalized(3, 1.0, 0.0, (0.495, 5e4, 0.495))
    with pytest.raises(DegenerateStateError,
                       match=r"^measuring party 2 out: power 69 takes the ratio of label 2 past"):
        distill_pipeline(state, Grouping.all_separate(3), {1}, {3})
    assert exact_pipeline(state, Grouping.all_separate(3), {1}, {3})[0] == (69,)
    with pytest.raises(DegenerateStateError, match=r"^power 69 takes the ratio of label 2 past"):
        amplify(state, 69)


def test_a_gap_too_thin_for_the_ratios_is_refused_and_no_gap_is_blocked():
    # a subnormal half-gap puts label 3's ratio past the float range before any power;
    # swapping parties 1 and 3 to put the anchor in c makes it label 1
    thin = FamilyState.from_unnormalized(3, 1e-320, 0.0, (0.0, 0.0, 0.5))
    assert necessary_distillable(thin, Grouping.all_separate(3), {1}, {2})
    with pytest.raises(DegenerateStateError, match="past the float range, the largest at label 1$"):
        distill_pipeline(thin, Grouping.all_separate(3), {1}, {2})
    # with no gap every label is separable, so the verdict stops the run at its witness
    flat = FamilyState(3, 0.25, 0.25, (0.125, 0.0, 0.125))
    trace = distill_pipeline(flat, Grouping.all_separate(3), {1}, {2})
    assert trace.witness is not None and trace.steps[0].digest == "000"
    assert not trace.precision_limited


@settings(max_examples=300)
@given(st.floats(min_value=5e-324, max_value=1e307), st.floats(min_value=0.0, max_value=1.7e308),
       st.integers(min_value=-3, max_value=3))
def test_the_ratio_test_agrees_with_the_weight_test(half, v, ulps):
    # the pipeline reads v / h < 1.0 where FamilyState._indicators reads v < h
    near = half
    for _ in range(abs(ulps)):
        near = math.nextafter(near, math.inf if ulps > 0 else 0.0)
    for w in (v, near):
        assert (w < half) == (w / half < 1.0)
        state = FamilyState(2, 2.0 * half, 0.0, (w,))
        assert (protocols._ratios(state)[1][0] < 1.0) == bool(state.indicator(1))


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


@pytest.mark.parametrize("groups", [[[1], [2], [3, 4]], [[1], [2], [3], [4]]])
def test_pipeline_refuses_a_specification(groups):
    # the verdicts read a Specification, but the moves need weights: the joined grouping
    # used to fail on a missing `delta`, and the all-separate one returned a blocked trace
    # whose `precision_limited` failed the same way
    with pytest.raises(ValueError, match="^the protocol runs on a FamilyState, got Specification; "
                                         "realize a Specification with from_specification first$"):
        distill_pipeline(example_pattern("VI"), Grouping.from_sets(4, groups), {1}, {2})


def test_pipeline_validates_pair_membership():
    state = example_state("VI")
    grouping = Grouping.from_sets(4, [[1, 3], [2], [4]])
    with pytest.raises(ValueError):
        distill_pipeline(state, grouping, {1}, {2})
    with pytest.raises(ValueError, match="same group 1,3"):
        distill_pipeline(state, grouping, {1, 3}, {1, 3})
    # 2.0 finds group {2} by hash; it used to escape later as a bare TypeError
    with pytest.raises(ValueError, match=r"^party 2\.0 is not an integer$"):
        distill_pipeline(state, Grouping.from_sets(4, [[1], [2], [3, 4]]), {1}, {2.0})


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


def _v_ladder_runs():
    """Pattern V with grouping 1|2|{3..n} and pair (1, 2), for n = 6..14."""
    for n in range(6, 15):
        yield example_state("V", n), Grouping.from_sets(n, [[1], [2], range(3, n + 1)]), {1}, {2}


def _every_pipeline_run():
    """Every grouping and pair of VI, VII and random states (n = 3..6, seeds 0..2), then the V ladder."""
    states = [example_state("VI"), example_state("VII")]
    states += [random_family_state(n, s) for n in range(3, 7) for s in range(3)]
    for state in states:
        for blocks in iter_set_partitions(state.n):
            grouping = Grouping.from_sets(state.n, blocks)
            for c, d in combinations(grouping.groups, 2):
                yield state, grouping, c, d
    yield from _v_ladder_runs()


def _trace_digest(runs) -> tuple[int, str]:
    h = hashlib.sha256()
    count = 0
    for state, grouping, c, d in runs:
        h.update(repr(distill_pipeline(state, grouping, c, d)).encode())
        count += 1
    return count, h.hexdigest()


# run count and sha256 of the repr of every trace, floats and ratios included: the moves
# keep every float operation, its operands and its order
PINNED_FULL_TRACES = (3359, "b737b2808327468b11f5cad4979b514bbf3c51afcf5a0620f7348d8a84424764")


def test_every_pipeline_trace_matches_its_pinned_bytes():
    assert _trace_digest(_every_pipeline_run()) == PINNED_FULL_TRACES


# float corners cancel the gap once amplification lets the separable labels dominate,
# so these distillable pairs end below the half-gap by a margin the states cannot show;
# the ratios keep it (the exact final ratios are 0.9999512... and 0.9882684...)
THIN_MARGIN_RUNS = [
    (random_family_state(6, 20), Grouping.from_sets(6, [[1, 5], [2], [3], [4], [6]]), {1, 5}, {4}),
    (FamilyState(4, 0.13104544789632247, 0.002456817677348717,
                 (0.06344107404478985, 0.058763144921620845, 0.05903134981143051,
                  0.06332371770188873, 0.06849726180906075, 0.05945683605880375,
                  0.06073548286556999)),
     Grouping.all_separate(4), {1}, {3}),
]
THIN_MARGIN_RATIOS = (0.99995, 0.98827)


@pytest.mark.parametrize("state, grouping, c, d", THIN_MARGIN_RUNS, ids=["seed-20", "n4"])
def test_thin_margin_pairs_are_distillable(state, grouping, c, d):
    assert validate(state) == []
    assert necessary_distillable(state, grouping, c, d)


@pytest.mark.parametrize("run, ratio", zip(THIN_MARGIN_RUNS, THIN_MARGIN_RATIOS), ids=["seed-20", "n4"])
def test_thin_margin_pairs_distill(run, ratio):
    trace = distill_pipeline(*run)
    assert trace.succeeded
    final = trace.steps[-1].ratios[trace.final_split.mask - 1]
    assert final < 1.0 and final == pytest.approx(ratio, abs=5e-6)
    assert trace.precision_limited


def _near_threshold_state(n, seed):
    """A state whose labels all weigh within 10 % of its half-gap."""
    rng = random.Random(7000 + 10 * seed + n)
    u = rng.random()
    half = (1 - 0.5 * u) / 2
    lam = [half * (1 + 0.1 * rng.uniform(-1, 1)) for _ in range((1 << (n - 1)) - 1)]
    return FamilyState.from_unnormalized(n, 1.0, 0.5 * u, lam)


def _powers(trace):
    return tuple(s.amplification for s in trace.steps if s.kind == "measure")


def test_near_threshold_pairs_distill_with_the_exact_powers():
    # every grouping and pair of 45 near-threshold states; an error or a failure here is a
    # distillable pair the float pipeline lost
    distillable = 0
    for n, seeds in ((4, range(20)), (5, range(20)), (6, range(5))):
        for seed in seeds:
            state = _near_threshold_state(n, seed)
            for blocks in iter_set_partitions(n):
                grouping = Grouping.from_sets(n, blocks)
                for c, d in combinations(grouping.groups, 2):
                    if not necessary_distillable(state, grouping, c, d):
                        continue
                    distillable += 1
                    trace = distill_pipeline(state, grouping, c, d)
                    powers, final = exact_pipeline(state, grouping, c, d)
                    where = (n, seed, str(grouping), sorted(c), sorted(d))
                    assert trace.succeeded and final < 1, where
                    assert _powers(trace) == powers, where
    assert distillable == 1326


def test_every_pipeline_run_matches_its_exact_replay():
    count = 0
    for state, grouping, c, d in _every_pipeline_run():
        trace = distill_pipeline(state, grouping, c, d)
        count += 1
        assert not trace.precision_limited
        if trace.witness is None:
            powers, final = exact_pipeline(state, grouping, c, d)
            assert (_powers(trace), trace.succeeded) == (powers, final < 1)
    assert count == 3359


def _swap_orders(n):
    for i, j in combinations(range(1, n + 1), 2):
        order = list(range(1, n + 1))
        order[i - 1], order[j - 1] = j, i
        yield tuple(order)


@pytest.mark.parametrize("n", range(2, 9))
def test_move_tables_match_their_definitions(n):
    labels = range(1, 1 << (n - 1))
    for party in range(1, n):
        # parent 0 of child label k: k with a 0 bit put in at the measured party's place
        low = (1 << (party - 1)) - 1
        want = [(k >> (party - 1) << party | k & low) - 1 for k in range(1, 1 << (n - 2))]
        assert list(protocols._table(protocols._low_parents, n, party)) == want
    for gmask in range(1, 1 << n):
        group = [p for p in range(1, n + 1) if gmask >> (p - 1) & 1]
        if len(group) < 2:
            continue
        want = [len(labels) if len({Splitting(n, m).bit(p) for p in group}) == 2 else m - 1
                for m in labels]
        assert list(protocols._table(protocols._join_sources, n, gmask)) == want
    for order in [tuple(range(1, n + 1)), *_swap_orders(n)]:
        # new label m has the old parties order[p - 1] of its side
        want = [Splitting.from_side(n, {order[p - 1] for p in Splitting(n, m).side_b}).mask - 1
                for m in labels]
        assert list(protocols._table(protocols._relabel_sources, n, order)) == want


def _ladder_and_sixteen_party_moves():
    """The reprs of the V ladder's traces, then of a join, three measurements and a swap on V(16)."""
    out = [repr(distill_pipeline(state, g, c, d)) for state, g, c, d in _v_ladder_runs()]
    state = example_state("V", 16)
    out.append(repr(join_povm(state, range(3, 17))))
    out += [repr(measure_out_party(state, p)) for p in (1, 8, 15)]
    out.append(repr(permute_parties(state, next(_swap_orders(16)))))
    return out


def test_move_tables_stay_within_their_budget_and_rebuild_alike(monkeypatch):
    monkeypatch.setattr(protocols, "_tables", _Kept(protocols._tables.budget))
    kept = _ladder_and_sixteen_party_moves()
    assert 0 < protocols._tables.held <= protocols._tables.budget
    assert protocols._tables.held == sum(map(len, protocols._tables.values()))
    # a cache that starts afresh every few tables, and one that holds none, give the same bytes
    for budget in (1 << 12, 0):
        monkeypatch.setattr(protocols, "_tables", _Kept(budget))
        assert _ladder_and_sixteen_party_moves() == kept
        assert protocols._tables.held <= budget
