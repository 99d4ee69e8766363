"""Core model: splittings, states, groupings, specifications."""
from __future__ import annotations

import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entact import (
    NORMALIZATION_TOL,
    FamilyState,
    Grouping,
    Specification,
    Splitting,
    amplify,
    any_two_activation_requirement,
    example_pattern,
    example_state,
    from_specification,
    grouping_report,
    iter_set_partitions,
    necessary_distillable,
    parties_from_bitmask,
    party_bitmask,
    project_to_effective_pair,
    random_family_state,
    search_specifications,
    validate,
)
from entact.model import GROUPING_PARTY_CAP, _Kept
from entact.oracle import min_pt_eigenvalue
from reference import ghz_basis_vector, separating_splittings, straddles


def test_splitting_label_bounds():
    Splitting(3, 1)
    Splitting(3, 3)
    with pytest.raises(ValueError):
        Splitting(3, 0)
    with pytest.raises(ValueError):
        Splitting(3, 4)
    with pytest.raises(ValueError):
        Splitting(1, 1)


def test_splitting_rejects_non_integer_input():
    with pytest.raises(ValueError, match="splitting label True is not an integer"):
        Splitting(4, True)
    with pytest.raises(ValueError, match=r"splitting label 1\.0 is not an integer"):
        Splitting(4, 1.0)
    with pytest.raises(ValueError, match=r"integer n of at least 2, got n=4\.0"):
        Splitting(4.0, 1)
    with pytest.raises(ValueError, match=r"got n=1$"):
        Splitting(1, 1)
    with pytest.raises(ValueError, match=r"party 1\.0 is not an integer"):
        Splitting(4, 3).bit(1.0)
    with pytest.raises(ValueError, match="party True is not an integer"):
        Splitting(4, 3).bit(True)


def test_every_layer_applies_one_party_count_rule():
    for call, what in (
        (lambda n: random_family_state(n, 1), "a random state"),
        (lambda n: example_pattern("V", n), "a pattern"),
        (lambda n: search_specifications(n, lambda spec: True), "a search"),
        (lambda n: ghz_basis_vector(n, 0, 1), "a basis vector"),
    ):
        for n in (1, 3.0, True):
            message = rf"{what} needs an integer n of at least 2, got n={re.escape(repr(n))}$"
            with pytest.raises(ValueError, match=message):
                call(n)
    with pytest.raises(ValueError, match=r"a partition needs an integer n of at least 1, got n=2\.0"):
        next(iter_set_partitions(2.0))
    for n in (4.0, True, 0):
        message = rf"a grouping needs an integer n of at least 1, got n={re.escape(repr(n))}$"
        with pytest.raises(ValueError, match=message):
            Grouping.all_separate(n)
        with pytest.raises(ValueError, match=message):
            Grouping.with_joined(n, [1, 2])
    # a state refuses a bad party count when it is built
    for n in (1, 4.0, True):
        message = rf"^a state needs an integer n of at least 2, got n={re.escape(repr(n))}$"
        with pytest.raises(ValueError, match=message):
            FamilyState(n, 0.5, 0.5, ())
        with pytest.raises(ValueError, match=message):
            FamilyState(n, 0.5, 0.0, (0.0,) * 7)


def test_splitting_sides_and_bits():
    s = Splitting(4, 5)
    assert s.side_b == {1, 3}
    assert s.side_a == {2, 4}
    assert [s.bit(i) for i in (1, 2, 3, 4)] == [1, 0, 1, 0]
    assert str(s) == "(A2A4)-(A1A3)"
    with pytest.raises(ValueError):
        s.bit(5)


def test_splitting_text_leaves_identity_unchanged():
    # every label at n <= 8 and sampled ones at n = 20, against the text of the two side sets
    rng = random.Random(8)
    samples = [(n, mask) for n in range(2, 9) for mask in range(1, 1 << (n - 1))]
    samples += [(20, rng.randrange(1, 1 << 19)) for _ in range(200)] + [(20, 1), (20, (1 << 19) - 1)]
    for n, mask in samples:
        split = Splitting(n, mask)
        before = (repr(split), hash(split))
        text = "({})-({})".format(
            *("".join(f"A{p}" for p in sorted(side)) for side in (split.side_a, split.side_b)))
        assert str(split) == text
        assert (repr(split), hash(split)) == before
        assert split == Splitting(n, mask)
        assert Splitting(n, mask) == split


def test_from_side_complements_when_anchor_included():
    # naming the side holding the anchor lands on the same splitting
    assert Splitting.from_side(4, {1, 3}).mask == 5
    assert Splitting.from_side(4, {2, 4}).mask == 5
    assert Splitting.from_side(3, {1}).mask == 1
    assert Splitting.from_side(3, {2, 3}).mask == 1
    with pytest.raises(ValueError):
        Splitting.from_side(3, {1, 2, 3})
    with pytest.raises(ValueError):
        Splitting.from_side(3, set())
    with pytest.raises(ValueError):
        Splitting.from_side(3, {0, 1})


def test_from_side_rejects_float_party():
    with pytest.raises(ValueError, match=r"party 1\.0 is not an integer"):
        Splitting.from_side(4, {1.0})


def test_from_side_rejects_string_party():
    with pytest.raises(ValueError, match="party '1' is not an integer"):
        Splitting.from_side(4, {"1", 9})


def test_reference_scan_rejects_bool_party():
    with pytest.raises(ValueError, match="party True is not an integer"):
        separating_splittings(4, {True}, {2})
    with pytest.raises(ValueError, match="party True is not an integer"):
        straddles(Splitting(4, 5), {True, 2})
    # integers out of range keep their message
    with pytest.raises(ValueError, match=r"side contains parties outside 1\.\.4: \[0, 9\]"):
        Splitting.from_side(4, {0, 1, 9})


@given(st.integers(min_value=0, max_value=1023))
def test_party_bitmask_roundtrip(mask):
    assert party_bitmask(parties_from_bitmask(mask)) == mask


def test_worked_three_party_state():
    s = FamilyState(3, 0.5, 0.0, (0.0, 0.25, 0.0))
    assert validate(s) == []
    assert s.delta == 0.5
    assert s.indicator_vector() == (1, 0, 1)
    # the middle label sits exactly on the boundary and counts as separable
    assert s.indicator(2) == 0
    assert s.coefficient(2) == 0.25
    with pytest.raises(ValueError):
        s.coefficient(4)
    assert s.indicator(1) == 1


def test_from_unnormalized_normalizes():
    s = FamilyState.from_unnormalized(3, 3.0, 1.0, (1.0, 2.0, 0.5))
    assert validate(s) == []
    assert abs(s.total_weight() - 1.0) < 1e-15
    # ratios survive normalization
    assert abs(s.lam0_plus / s.lam0_minus - 3.0) < 1e-12
    with pytest.raises(ValueError):
        FamilyState.from_unnormalized(3, 0.0, 0.0, (0.0, 0.0, 0.0))


def test_state_shape_is_checked_when_built():
    # a wrong coefficient count would reach the verdicts and answer silently
    for lam in ((0.25, 0.0), (0.0, 0.0, 0.0, 0.3, 0.3, 0.3, 0.3)):
        with pytest.raises(ValueError, match=rf"^coefficient array has length {len(lam)}, expected 3$"):
            FamilyState(3, 0.5, 0.0, lam)
    state = FamilyState(3, 0.5, 0.0, [0.0, 0.25, 0.0])
    assert type(state.lam) is tuple
    assert state == FamilyState(3, 0.5, 0.0, (0.0, 0.25, 0.0))
    assert hash(state) == hash(FamilyState(3, 0.5, 0.0, (0.0, 0.25, 0.0)))


def test_a_table_too_short_for_its_n_is_refused_by_its_size():
    # the shape rule names n and the length, and never forms 2^(n-1) for a table far too short
    message = r"^a (state|specification) with n=100000 needs 2\^99999 - 1 entries, got 1$"
    for build in (lambda: FamilyState(100000, 0.5, 0.0, (0.25,)),
                  lambda: Specification(100000, (1,)),
                  lambda: Specification.from_mapping(100000, {1: 1})):
        with pytest.raises(ValueError, match=message):
            build()
    with pytest.raises(ValueError, match=r"^a state with n=4 needs 2\^3 - 1 entries, got 2$"):
        FamilyState(4, 0.5, 0.0, (0.25, 0.0))
    # a length L with 2L + 1 at least the count keeps the exact message
    with pytest.raises(ValueError, match=r"^coefficient array has length 3, expected 7$"):
        FamilyState(4, 0.5, 0.0, (0.25, 0.0, 0.0))
    with pytest.raises(ValueError, match=r"^need 7 bits for n=4, got 3$"):
        Specification(4, (0, 1, 0))


def test_validate_sums_huge_integer_weights_as_floats():
    # each weight is a finite real, but their exact integer sum overflows a float
    problems = validate(FamilyState(3, 10**308, 0, (10**308,) * 3))
    assert problems == [f"total weight inf deviates from 1 by more than {NORMALIZATION_TOL}"]


def test_validate_accepts_normalized_states_with_long_tables():
    # a running sum of 65,535 weights drifts past the tolerance; the exact sum does not
    for state in (example_state("V", 17), random_family_state(17, 1), example_state("V", 18)):
        assert validate(state) == [], state.n


def test_validate_names_a_weight_too_long_to_print_by_its_size():
    # 10**5000 has more digits than the interpreter prints
    assert validate(FamilyState(2, 10**5000, 0, (0,))) == [
        "lam0_plus is not finite (<int of 16610 bits>)"
    ]


def test_validate_reports_problems():
    assert any("negative" in p for p in validate(FamilyState(3, 0.6, 0.0, (-0.1, 0.25, 0.05))))
    assert any("lam0_plus < lam0_minus" in p for p in validate(FamilyState(2, 0.2, 0.4, (0.2,))))
    assert any("total weight" in p for p in validate(FamilyState(2, 0.9, 0.0, (0.3,))))
    assert validate(FamilyState(2, 1.2, -0.2, (0.0,))) == ["lam0_minus is negative (-0.2)"]
    nan = float("nan")
    assert any("lam0_minus is not finite" in p for p in validate(FamilyState(2, 0.5, nan, (0.25,))))
    assert any("labels [2]" in p for p in validate(FamilyState(3, 0.5, 0.0, (0.25, nan, 0.0))))


@pytest.mark.parametrize(
    "state, problem",
    [
        (FamilyState(2, "0.6", 0.0, (0.2,)), "lam0_plus is not a real number ('0.6')"),
        (FamilyState(2, 0.6, None, (0.2,)), "lam0_minus is not a real number (None)"),
        (FamilyState(2, True, 0.0, (0.0,)), "lam0_plus is not a real number (True)"),
        (FamilyState(2, 0.6j, 0.0, (0.2,)), "lam0_plus is not a real number (0.6j)"),
        (FamilyState(3, 0.5, 0.0, (0.2, None, 0.05)), "non-real coefficients at labels [2]"),
        (FamilyState(3, 0.5, 0.0, (True, 0.2, 0.05)), "non-real coefficients at labels [1]"),
        (FamilyState(3, 0.5, 0.0, ("0.2", 0.2, False)), "non-real coefficients at labels [1, 3]"),
        (FamilyState(2, 10**400, 0.0, (0.2,)), "lam0_plus is not finite"),
        (FamilyState(3, 0.5, 0.0, (0.2, -10**400, 0.05)), "non-finite coefficients at labels [2]"),
    ],
)
def test_validate_reports_weights_that_are_not_finite_real_numbers(state, problem):
    # reported, never raised; a bool weight does not pass for 0.0 or 1.0
    assert any(p.startswith(problem) for p in validate(state)), validate(state)


@settings(max_examples=60)
@given(st.integers(min_value=3, max_value=7), st.data())
def test_separating_count_is_power_of_two(n, data):
    parties = list(range(1, n + 1))
    csize = data.draw(st.integers(min_value=1, max_value=n - 1))
    c = data.draw(st.permutations(parties)).copy()[:csize]
    rest = [p for p in parties if p not in c]
    dsize = data.draw(st.integers(min_value=1, max_value=len(rest)))
    d = rest[:dsize]
    splits = separating_splittings(n, c, d)
    assert len(splits) == 1 << (n - len(c) - len(d))
    for sp in splits:
        cbits = {sp.bit(p) for p in c}
        dbits = {sp.bit(p) for p in d}
        assert len(cbits) == 1 and len(dbits) == 1 and cbits != dbits
    masks = [sp.mask for sp in splits]
    assert masks == sorted(masks)


def test_separating_frozen_five_party_case():
    masks = [sp.mask for sp in separating_splittings(5, {1}, {2})]
    assert masks == [1, 2, 5, 6, 9, 10, 13, 14]
    with pytest.raises(ValueError):
        separating_splittings(5, {1, 2}, {2, 3})


def test_straddles():
    s = Splitting(4, 5)  # sides {1,3} and {2,4}
    assert straddles(s, {1, 2})
    assert straddles(s, {3, 4})
    assert not straddles(s, {1, 3})
    assert not straddles(s, {2})
    with pytest.raises(ValueError):
        straddles(s, {5})


def test_grouping_partition_rules():
    g = Grouping.from_sets(4, [[3, 4], [1], [2]])
    assert g.as_lists() == [[1], [2], [3, 4]]  # canonical order by smallest member
    assert g.group_of(4) == frozenset({3, 4})
    assert str(g) == "1|2|3,4"
    assert Grouping.all_separate(3).as_lists() == [[1], [2], [3]]
    assert Grouping.with_joined(5, (2, 4)).as_lists() == [[1], [2, 4], [3], [5]]
    with pytest.raises(ValueError, match=r"groups overlap on parties \[2\]"):
        Grouping.from_sets(4, [[1, 2], [2, 3], [4]])
    with pytest.raises(ValueError, match=r"groups must partition 1\.\.4; missing \[4\]$"):
        Grouping.from_sets(4, [[1, 2], [3]])
    with pytest.raises(ValueError, match=r"groups must partition 1\.\.4; unknown \[5\]$"):
        Grouping.from_sets(4, [[1, 2], [3, 4, 5]])
    with pytest.raises(ValueError, match=r"missing \[4\]; unknown \[0\]$"):
        Grouping.from_sets(4, [[0, 1], [2, 3]])
    # a huge party number is reported, not turned into a huge mask
    with pytest.raises(ValueError, match=rf"unknown \[{10**12}\]$"):
        Grouping.from_sets(2, [[1, 2], [10**12]])
    with pytest.raises(ValueError, match="groups must be non-empty"):
        Grouping.from_sets(3, [[1, 2], [], [3]])


def test_grouping_cover_error_joins_the_groups_by_or():
    # overlapping groups with an unknown party: the union is an OR, so party 2
    # counts once and only party 4 is missing (a sum of masks would report [2, 3])
    with pytest.raises(ValueError, match=r"^groups must partition 1\.\.4; missing \[4\]; unknown \[9\]$"):
        Grouping(4, ([1, 2], [2, 3], [9]))


def test_grouping_keeps_masks_out_of_compare_and_repr():
    g = Grouping.from_sets(4, [[3, 4], [1], [2]])
    assert g.masks == (1, 2, 12)  # in the canonical order of the groups
    assert g == Grouping.from_masks(4, (1, 2, 12))
    assert hash(g) == hash(Grouping.from_masks(4, (1, 2, 12)))
    assert "masks" not in repr(g)


def test_grouping_accepts_list_groups():
    g = Grouping(4, ([1, 2], [3], [4]))
    assert g.groups == (frozenset({1, 2}), frozenset({3}), frozenset({4}))
    assert g.masks == (3, 4, 8)


def test_grouping_rejects_non_integer_party():
    with pytest.raises(ValueError, match="party True is not an integer"):
        Grouping(2, ({True}, {2}))
    with pytest.raises(ValueError, match=r"party 1\.0 is not an integer"):
        Grouping(3, ({1.0}, {2}, {3}))
    with pytest.raises(ValueError, match="party '1' is not an integer"):
        Grouping(2, ({"1"}, {2}))
    # True and 1.0 equal 1, so only the party rule keeps them from finding group {1}
    for party in (True, 1.0, "1"):
        with pytest.raises(ValueError, match=rf"^party {re.escape(repr(party))} is not an integer$"):
            Grouping.all_separate(3).group_of(party)
    for party in (0, 4):
        with pytest.raises(ValueError, match=rf"^party {party} outside 1\.\.3$"):
            Grouping.all_separate(3).group_of(party)


def test_impostor_next_to_its_integer_is_rejected_not_deduplicated():
    # True == 1.0 == 1 hash alike, so a set would fold them into party 1
    with pytest.raises(ValueError, match="party True is not an integer"):
        Splitting.from_side(4, [1, True])
    with pytest.raises(ValueError, match=r"party 1\.0 is not an integer"):
        separating_splittings(4, [1, 1.0], [2])
    with pytest.raises(ValueError, match="party True is not an integer"):
        Grouping(4, ([1, True], [2], [3], [4]))
    with pytest.raises(ValueError, match=r"party 1\.0 is not an integer"):
        Grouping(4, ([1, 1.0], [2], [3], [4]))
    with pytest.raises(ValueError, match="party True is not an integer"):
        Grouping.with_joined(4, [1, True])


def test_unhashable_party_is_named():
    with pytest.raises(ValueError, match=r"party \[1\] is not an integer"):
        Splitting.from_side(4, [[1]])
    with pytest.raises(ValueError, match=r"party \[1\] is not an integer"):
        Grouping(4, ([[1]], [2], [3], [4]))


def test_grouping_rejects_bad_party_count():
    for n in (0, -1, True, 2.0, "2"):
        with pytest.raises(ValueError, match=f"n={n!r}"):
            Grouping(n, ())
    with pytest.raises(ValueError, match="n=True"):
        Grouping(True, ({1},))


def test_grouping_from_masks_rejects_bad_masks():
    cases = (
        ((1, 3, 12), r"groups overlap on parties \[1\]"),
        ((1, 0, 14), "groups must be non-empty"),
        ((1, 2, 4), r"missing \[4\]$"),
        ((1, 2, 4, 8, 16), r"unknown \[5\]$"),
        ((2, 1, 12), "ascending order of their lowest member"),
        ((1, 12, 2), "ascending order of their lowest member"),
        ((1, -2, 12), "group mask -2"),
        ((1, 2.0, 12), r"group mask 2\.0"),
    )
    for masks, message in cases:
        with pytest.raises(ValueError, match=message):
            Grouping.from_masks(4, masks)
    with pytest.raises(ValueError, match="n=0"):
        Grouping.from_masks(0, ())


@given(st.integers(min_value=2, max_value=6), st.data())
def test_specification_int_roundtrip(n, data):
    labels = (1 << (n - 1)) - 1
    value = data.draw(st.integers(min_value=0, max_value=(1 << labels) - 1))
    spec = Specification.from_int(n, value)
    assert spec.to_int() == value
    assert Specification(n, spec.bits) == spec
    assert set(spec.ones()) == {m for m in range(1, labels + 1) if value >> (m - 1) & 1}


def test_specification_int_matches_its_shift_definition():
    rng = random.Random(16)
    for n in range(2, 17):
        labels = (1 << (n - 1)) - 1
        for value in (0, (1 << labels) - 1, rng.getrandbits(labels), rng.getrandbits(labels)):
            spec = Specification.from_int(n, value)
            assert spec.bits == tuple(value >> (m - 1) & 1 for m in range(1, labels + 1))
            assert spec.to_int() == sum(b << i for i, b in enumerate(spec.bits)) == value
            bits = tuple(rng.getrandbits(1) for _ in range(labels))
            assert Specification.from_int(n, Specification(n, bits).to_int()).bits == bits


def test_specification_validation():
    with pytest.raises(ValueError):
        Specification(3, (0, 1))
    with pytest.raises(ValueError):
        Specification(3, (0, 2, 1))
    with pytest.raises(ValueError):
        Specification.from_mapping(3, {1: 1, 2: 0})
    for bad in (2, True, 1.0):
        with pytest.raises(ValueError):
            Specification.from_mapping(3, {1: bad, 2: 0, 3: 1})
    for n in (True, 1, 0, -3, 3.0, "3"):
        with pytest.raises(ValueError, match=f"n={n!r}"):
            Specification(n, ())
        with pytest.raises(ValueError, match=f"n={n!r}"):
            Specification.from_mapping(n, {})
    # a large n fails on the mapping's size alone, without forming 2^99
    message = r"^a specification with n=100 needs 2\^99 - 1 entries, got 0$"
    with pytest.raises(ValueError, match=message):
        Specification.from_mapping(100, {})
    message = r"^mapping must cover every label 1\.\.7; missing \[2, 5, 6, 7\]$"
    with pytest.raises(ValueError, match=message):
        Specification.from_mapping(4, {1: 1, 3: 0, 4: 1})
    spec = Specification.from_mapping(3, {1: 1, 2: 0, 3: 1})
    assert spec.bits == (1, 0, 1)
    # every key is a label: True and 3.0 would pass for labels 1 and 3
    for key, message in ((True, "label True is not an integer"),
                         (3.0, r"label 3\.0 is not an integer"),
                         ("3", "label '3' is not an integer"),
                         (9, r"label 9 outside \[1, 3\] for n=3")):
        mapping = {1: 1, 2: 0, 3: 1}
        mapping.pop(key, None)
        mapping[key] = 1
        with pytest.raises(ValueError, match=rf"^{message}$"):
            Specification.from_mapping(3, mapping)
    assert spec.value(2) == 0
    assert Specification.constant(4, 1).bits == (1,) * 7
    assert Specification.constant(3, 0).bits == (0, 0, 0)
    # the 0/1 rule sees the bit as given: 0.7 is not 0 and "1" or True is not 1
    for bit in (0.7, "1", True, 2):
        message = rf"^specification bit {re.escape(repr(bit))} of label 1 is not 0 or 1$"
        with pytest.raises(ValueError, match=message):
            Specification.constant(3, bit)
    # the error names the first bad label
    with pytest.raises(ValueError, match=r"^specification bit 2 of label 2 is not 0 or 1$"):
        Specification(3, (1, 2, -1))


def test_specification_stores_its_bits_as_a_tuple():
    spec = Specification(3, [1, 0, 1])
    assert type(spec.bits) is tuple
    assert spec == Specification(3, (1, 0, 1))
    assert hash(spec) == hash(Specification(3, (1, 0, 1)))
    assert from_specification(spec).indicator_vector() == (1, 0, 1)


def test_every_label_argument_applies_one_label_rule():
    state, spec = example_state("VI"), example_pattern("VI")
    for call in (state.coefficient, state.indicator, spec.value):
        for label in (True, 1.0, "1"):
            with pytest.raises(ValueError, match=rf"^label {re.escape(repr(label))} is not an integer$"):
                call(label)
        for label in (0, 8, -1):
            with pytest.raises(ValueError, match=rf"^label {label} outside \[1, 7\] for n=4$"):
                call(label)
    with pytest.raises(ValueError, match=r"^splitting label 8 outside \[1, 7\] for n=4$"):
        Splitting(4, 8)
    for value in (True, 1.0, "7"):
        message = rf"^specification value {re.escape(repr(value))} is not an integer$"
        with pytest.raises(ValueError, match=message):
            Specification.from_int(3, value)
    for value in (-1, 8, 100):
        with pytest.raises(ValueError, match=rf"^specification value {value} outside \[0, 2\^3\) for n=3$"):
            Specification.from_int(3, value)
    assert Specification.from_int(3, 0).bits == (0, 0, 0)
    assert Specification.from_int(3, 7).bits == (1, 1, 1)


def test_label_errors_of_a_huge_n_state_the_bound_as_a_power():
    with pytest.raises(ValueError,
                       match=r"^splitting label 0 outside \[1, \(2\^99999 - 1\)\] for n=100000$"):
        Splitting(100000, 0)
    with pytest.raises(ValueError, match=r"^splitting label <int of 16610 bits> outside \[1, 3\] for n=3$"):
        Splitting(3, 10**5000)


def test_value_errors_of_a_huge_n_state_the_bound_as_a_power():
    message = r"^specification value -1 outside \[0, 2\^\(2\^99999 - 1\)\) for n=100000$"
    with pytest.raises(ValueError, match=message):
        Specification.from_int(100000, -1)


HUGE = 10**5000  # more digits than the interpreter turns into text
HUGE_TEXT = "<int of 16610 bits>"


def test_a_state_of_a_huge_n_is_named_by_its_size():
    message = f"a state with n={HUGE_TEXT} needs 2^{HUGE_TEXT} - 1 entries, got 1"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        FamilyState(HUGE, 0.5, 0, (0.25,))


def test_a_specification_of_a_huge_n_is_named_by_its_size():
    message = f"a specification with n={HUGE_TEXT} needs 2^{HUGE_TEXT} - 1 entries, got 1"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Specification(HUGE, (1,))
    message = (f"a specification with n={HUGE_TEXT} walks 2^{HUGE_TEXT} - 1 labels; "
               "construction caps at n=20")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Specification.from_function(HUGE, bool)
    message = f"specification value -1 outside [0, 2^(2^{HUGE_TEXT} - 1)) for n={HUGE_TEXT}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Specification.from_int(HUGE, -1)


def test_a_splitting_of_a_huge_n_is_named_by_its_size():
    message = f"splitting label 0 outside [1, (2^{HUGE_TEXT} - 1)] for n={HUGE_TEXT}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Splitting(HUGE, 0)
    message = f"a splitting needs an integer n of at least 2, got n=-{HUGE_TEXT}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Splitting(-HUGE, 1)
    # ordinary counts keep their digits
    with pytest.raises(ValueError, match=r"^a splitting needs an integer n of at least 2, got n=-3$"):
        Splitting(-3, 1)


@pytest.mark.parametrize("build", [
    lambda n: Grouping(n, ({1},)),
    lambda n: Grouping.from_sets(n, [[1]]),
    lambda n: Grouping.from_masks(n, (1,)),
    lambda n: Grouping.all_separate(n),
    lambda n: Grouping.with_joined(n, (1, 2)),
])
def test_every_grouping_constructor_refuses_a_party_count_past_the_cap(build):
    # refused before a loop over the parties or a mask of n bits
    assert GROUPING_PARTY_CAP >= 10_000
    for n, shown in ((HUGE, HUGE_TEXT), (GROUPING_PARTY_CAP + 1, str(GROUPING_PARTY_CAP + 1))):
        message = (f"a grouping with n={shown} has a mask bit per party; "
                   f"groupings cap at n={GROUPING_PARTY_CAP}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build(n)


def test_a_grouping_at_the_cap_is_built():
    n = GROUPING_PARTY_CAP
    everyone = range(1, n + 1)
    assert Grouping(n, (everyone,)).masks == ((1 << n) - 1,)
    assert Grouping.from_masks(n, (1, (1 << n) - 2)).group_of(n) == set(everyone) - {1}
    assert Grouping.with_joined(n, everyone).groups == (frozenset(everyone),)


def test_groupings_of_ten_thousand_single_parties_are_built():
    # one step per set bit of each group mask, not one per bit below its top party
    n = 10_000
    separate = Grouping.all_separate(n)
    assert separate.groups == tuple(frozenset({p}) for p in range(1, n + 1))
    assert separate.masks == tuple(1 << (p - 1) for p in range(1, n + 1))
    assert Grouping.from_masks(n, separate.masks).groups == separate.groups
    joined = Grouping.with_joined(n, (1, n))
    assert joined.groups == (frozenset({1, n}),) + tuple(frozenset({p}) for p in range(2, n))
    assert joined.masks[0] == 1 | 1 << (n - 1)


@pytest.mark.parametrize("mask, shown", [(-1, "-1"), (-HUGE, f"-{HUGE_TEXT}")], ids=["minus-one", "huge"])
def test_a_negative_party_bitmask_is_refused(mask, shown):
    with pytest.raises(ValueError, match=f"^{re.escape(f'party bitmask {shown} is negative')}$"):
        parties_from_bitmask(mask)


@pytest.mark.parametrize("call, message", [
    (lambda: Splitting(4, 1).bit(HUGE), f"party {HUGE_TEXT} outside 1..4"),
    (lambda: Splitting.from_side(4, {HUGE}), f"side contains parties outside 1..4: [{HUGE_TEXT}]"),
    (lambda: Grouping.from_sets(2, [[1, 2], [HUGE]]),
     f"groups must partition 1..2; unknown [{HUGE_TEXT}]"),
], ids=["bit", "from_side", "from_sets"])
def test_a_party_number_past_the_digit_limit_is_named_by_its_size(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("masks, message", [
    ((-HUGE,), f"group mask -{HUGE_TEXT} is not a nonnegative integer"),
    ((1 << 20000, 1), "groups must come in ascending order of their lowest member, "
                      "got masks [<int of 20001 bits>, 1]"),
    # ordinary masks print as before
    ((1, 2.0, 12), "group mask 2.0 is not a nonnegative integer"),
    ((2, True, 12), "group mask True is not a nonnegative integer"),
    ((2, 1, 12), "groups must come in ascending order of their lowest member, got masks [2, 1, 12]"),
    ((2, 1, "x"), "groups must come in ascending order of their lowest member, got masks [2, 1, 'x']"),
], ids=["huge-negative", "huge-order", "float", "bool", "order", "order-then-text"])
def test_a_group_mask_is_named_by_its_size(masks, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Grouping.from_masks(4, masks)


@pytest.mark.parametrize("weights", [(-HUGE, 0, (0,)), (10**400, 0, (0,)), (0.5, 0.0, (10**400,))],
                         ids=["huge-negative-corner", "corner-past-float", "label-past-float"])
def test_an_int_weight_past_the_float_range_is_no_positive_finite_total(weights):
    with pytest.raises(ValueError, match="^total weight must be positive and finite, got "):
        FamilyState.from_unnormalized(2, *weights)


VI_GROUPING = Grouping.from_masks(4, (1, 2, 12))


@pytest.mark.parametrize("call, message", [
    (lambda: necessary_distillable(example_state("VI"), VI_GROUPING, {HUGE}, {2}),
     f"c=[{HUGE_TEXT}] is not a group of 1|2|3,4"),
    (lambda: grouping_report(example_state("VI"), VI_GROUPING).pair({1}, {HUGE}),
     f"d=[{HUGE_TEXT}] is not a group of 1|2|3,4"),
    (lambda: amplify(example_state("VI"), -HUGE),
     f"amplification power must be a positive integer, got -{HUGE_TEXT}"),
    (lambda: example_pattern("IV", HUGE, j=HUGE),
     f"j must lie in [1, <int of 16609 bits>] for n={HUGE_TEXT}"),
    (lambda: search_specifications(10**6, bool),
     "searching n=1000000 means 2**(2^999999 - 1) candidates; pass max_n=1000000 to confirm"),
    (lambda: search_specifications(10**20, bool),
     f"searching n={10**20} means 2**(2^{10**20 - 1} - 1) candidates; pass max_n={10**20} to confirm"),
    (lambda: search_specifications(HUGE, any_two_activation_requirement()),
     f"this requirement is for n=5, the search has n={HUGE_TEXT}"),
], ids=["pair-c", "report-pair-d", "amplify", "pattern-j", "search-million", "search-1e20",
        "search-requirement"])
def test_a_huge_count_in_a_message_is_named_by_its_size(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: grouping_report(example_state("VI"), Grouping.all_separate(5)),
     "grouping is for n=5, the input has n=4"),
    (lambda: necessary_distillable(example_state("V", 5), VI_GROUPING, {1}, {2}),
     "grouping is for n=4, the input has n=5"),
    (lambda: project_to_effective_pair(example_state("VI"), Splitting(3, 1)),
     "splitting is for n=3, state has n=4"),
    (lambda: min_pt_eigenvalue(np.eye(16), Splitting(3, 1)),
     "splitting is for n=3, matrix has n=4"),
    (lambda: any_two_activation_requirement()(Specification.constant(4, 1)),
     "this requirement is for n=5, the specification has n=4"),
], ids=["report", "pair", "effective-pair", "matrix", "requirement-call"])
def test_every_party_count_mismatch_names_both_counts(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_a_store_keeps_tables_within_its_budget():
    store = _Kept(10)
    # a table larger than the budget is returned and never kept
    assert store.keep("big", "x" * 11, 11) == "x" * 11
    assert store == {} and store.held == 0
    # held is the sum of the kept sizes
    for key, size in (("a", 4), ("b", 3), ("c", 3)):
        assert store.keep(key, key * size, size) == key * size
    assert store == {"a": "aaaa", "b": "bbb", "c": "ccc"} and store.held == 10
    # a table that would pass the budget empties the store first
    store.keep("d", "dd", 2)
    assert store == {"d": "dd"} and store.held == 2
    store.keep("e", "e" * 10, 10)
    assert store == {"e": "e" * 10} and store.held == 10
    assert store.held == sum(map(len, store.values()))
    store.clear()
    assert store == {} and store.held == 0
    # a budget of 0 keeps nothing
    none = _Kept(0)
    assert none.keep("one", "?", 1) == "?"
    assert none == {} and none.held == 0
