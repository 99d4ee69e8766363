"""Grouping analysis: pair verdicts, reports, partition sweeps, searches."""
from __future__ import annotations

import random
from itertools import combinations

import pytest

from entact import (
    BUILTIN_REQUIREMENTS,
    FamilyState,
    Grouping,
    Specification,
    classify_groupings,
    distillation_witness,
    example_pattern,
    example_state,
    from_specification,
    grouping_report,
    iter_set_partitions,
    necessary_distillable,
    random_family_state,
    search_specifications,
)
from entact import analysis
from entact.analysis import _compile
from entact.model import _group_parties
from reference import separating_splittings, straddles

BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203, 7: 877, 8: 4140}


def test_pair_verdict_worked_cases():
    state = example_state("VI")
    good = Grouping.from_sets(4, [[1], [2], [3, 4]])
    assert necessary_distillable(state, good, {1}, {2})
    assert distillation_witness(state, good, {1}, {2}) is None
    # with 3 and 4 joined even the pairs involving the joined group work
    assert necessary_distillable(state, good, {1}, {3, 4})
    assert necessary_distillable(state, good, {2}, {3, 4})

    bad = Grouping.from_sets(4, [[1, 3], [2], [4]])
    assert not necessary_distillable(state, bad, {1, 3}, {2})
    w = distillation_witness(state, bad, {1, 3}, {2})
    assert w is not None
    assert w.mask == 5
    assert str(w) == "(A2A4)-(A1A3)"


def test_pair_arguments_must_name_groups():
    state = example_state("VI")
    g = Grouping.from_sets(4, [[1], [2], [3, 4]])
    with pytest.raises(ValueError):
        necessary_distillable(state, g, {1, 2}, {3, 4})
    with pytest.raises(ValueError):
        necessary_distillable(state, g, {3, 4}, {3, 4})
    with pytest.raises(ValueError):
        necessary_distillable(state, Grouping.all_separate(3), {1}, {2})  # n mismatch


@pytest.mark.parametrize("c, d, bad", [({True}, {2}, "True"), ({1.0}, {2}, r"1\.0"),
                                       ({1}, {2.0}, r"2\.0"), ({3, True}, {2}, "True")])
def test_pair_members_are_checked_before_they_are_hashed(c, d, bad):
    # True and 1.0 hash as 1, so without the party rule {True} would find group {1}
    state = example_state("VI")
    g = Grouping.from_sets(4, [[1], [2], [3, 4]])
    message = rf"^party {bad} is not an integer$"
    with pytest.raises(ValueError, match=message):
        necessary_distillable(state, g, c, d)
    with pytest.raises(ValueError, match=message):
        distillation_witness(state, g, c, d)
    with pytest.raises(ValueError, match=message):
        grouping_report(state, g).pair(c, d)
    with pytest.raises(ValueError, match=message):
        _compile(4, activate=[(g, c, d)], silent=[])


def test_witness_properties_hold_whenever_reported():
    state = random_family_state(5, seed=33)
    for part in iter_set_partitions(5):
        grouping = Grouping.from_sets(5, part)
        report = grouping_report(state, grouping)
        for pv in report.pairs:
            if pv.distillable:
                assert pv.witness is None
                continue
            w = pv.witness
            assert w is not None
            assert state.indicator(w.mask) == 0
            assert not any(straddles(w, grp) for grp in grouping.groups)
            # the witness really separates the pair
            cbits = {w.bit(p) for p in pv.c}
            dbits = {w.bit(p) for p in pv.d}
            assert len(cbits) == 1 and len(dbits) == 1 and cbits != dbits
    # reference: scan every separating splitting for the lowest blocking one
    for n in range(3, 7):
        for seed in range(4):
            state = random_family_state(n, seed=100 * n + seed)
            for part in iter_set_partitions(n):
                grouping = Grouping.from_sets(n, part)
                for c in grouping.groups:
                    for d in grouping.groups:
                        if c == d:
                            continue
                        want = next(
                            (sp for sp in separating_splittings(n, c, d)
                             if state.indicator(sp.mask) == 0
                             and not any(straddles(sp, g) for g in grouping.groups)),
                            None,
                        )
                        assert distillation_witness(state, grouping, c, d) == want
                        assert necessary_distillable(state, grouping, c, d) == (want is None)


def test_grouping_report_shape():
    state = example_state("VII")
    g = Grouping.from_sets(5, [[1, 2], [3], [4], [5]])
    report = grouping_report(state, g)
    assert len(report.pairs) == 6
    assert report.any_distillable == any(p.distillable for p in report.pairs)
    pv = report.pair({3}, {4})
    assert pv.c == frozenset({3}) and pv.d == frozenset({4})
    with pytest.raises(ValueError, match="same group 1,2"):
        report.pair({1, 2}, {1, 2})
    other = grouping_report(example_state("VI"), Grouping.from_sets(4, [[1], [2], [3, 4]]))
    with pytest.raises(ValueError, match=r"c=\[1, 3\] is not a group of 1\|2\|3,4"):
        other.pair({1, 3}, {2})


def _reference_ghz(state, grouping):
    """Largest clique of the pair graph by brute force, from the single-pair path.

    Ties go to the group-index set with the smallest bitmask.
    """
    groups = grouping.groups
    k = len(groups)
    edges = {
        (i, j) for i, j in combinations(range(k), 2)
        if necessary_distillable(state, grouping, groups[i], groups[j])
    }
    for size in range(k, 0, -1):
        cliques = [c for c in combinations(range(k), size)
                   if all(p in edges for p in combinations(c, 2))]
        if cliques:
            best = min(cliques, key=lambda c: sum(1 << i for i in c))
            return tuple(groups[i] for i in best)


CATALOG_STATES = (
    example_state("I", n=6, j=2),
    example_state("II", n=6, band=(30, 70)),
    example_state("III", n=5, group={1, 3, 5}),
    example_state("IV", n=6, j=2),
    example_state("V", n=6),
    example_state("VI"),
    example_state("VII"),
)


def test_grouping_report_matches_pair_path_and_brute_force_clique():
    states = list(CATALOG_STATES)
    states += [random_family_state(n, seed) for n in range(3, 8) for seed in range(3)]
    for state in states:
        for part in iter_set_partitions(state.n):
            grouping = Grouping.from_sets(state.n, part)
            report = grouping_report(state, grouping)
            assert [(pv.c, pv.d) for pv in report.pairs] == list(combinations(grouping.groups, 2))
            for pv in report.pairs:
                assert pv.witness == distillation_witness(state, grouping, pv.c, pv.d)
                assert pv.distillable == necessary_distillable(state, grouping, pv.c, pv.d)
            # distillable pairs are transitive, so the GHZ cliques are classes
            linked = {(pv.c, pv.d) for pv in report.pairs if pv.distillable}
            linked |= {(d, c) for c, d in linked}
            for a, b in linked:
                for b2, c in linked:
                    assert b != b2 or a == c or (a, c) in linked
            assert report.ghz == _reference_ghz(state, grouping)


def test_ghz_groups_is_a_clique():
    state = example_state("VII")
    g = Grouping.from_sets(5, [[3, 4], [1], [2], [5]])
    report = grouping_report(state, g)
    assert frozenset({1}) in report.ghz and frozenset({2}) in report.ghz
    for a in report.ghz:
        for b in report.ghz:
            if a != b:
                assert report.pair(a, b).distillable


def test_iter_set_partitions_counts_and_order():
    for n in range(1, 7):
        parts = list(iter_set_partitions(n))
        assert len(parts) == BELL[n]
        assert parts[0] == (tuple(range(1, n + 1)),)
        assert parts[-1] == tuple((i,) for i in range(1, n + 1))
        assert len(set(parts)) == BELL[n]
    two = list(iter_set_partitions(5, blocks=2))
    assert len(two) == 15  # Stirling number of the second kind
    assert all(len(part) == 2 for part in two)
    with pytest.raises(ValueError):
        list(iter_set_partitions(0))


@pytest.mark.parametrize("blocks", [True, 2.0, "2", 0, -1])
def test_iter_set_partitions_rejects_a_block_count_that_is_not_a_plain_int(blocks):
    # the check runs when the walk is asked for, before any partition
    with pytest.raises(ValueError, match=f"got blocks={blocks!r}"):
        iter_set_partitions(4, blocks)


def test_iter_set_partitions_with_blocks_matches_filtered_walk():
    for n in range(1, 8):
        every = list(iter_set_partitions(n))
        for blocks in range(1, n + 3):
            want = [part for part in every if len(part) == blocks]
            assert list(iter_set_partitions(n, blocks)) == want


def _reference_partitions(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """Restricted-growth strings in lexicographic order, each turned into its blocks."""
    strings = [[0]]
    for _ in range(n - 1):
        strings = [a + [b] for a in strings for b in range(max(a) + 2)]
    return [
        tuple(tuple(p for p in range(1, n + 1) if a[p - 1] == b) for b in range(max(a) + 1))
        for a in strings
    ]


def test_iter_set_partitions_matches_reference_walk():
    for n in range(1, 9):
        want = _reference_partitions(n)
        assert list(iter_set_partitions(n)) == want
        for blocks in range(1, n + 1):
            assert list(iter_set_partitions(n, blocks)) == [p for p in want if len(p) == blocks]


def test_classify_groupings_matches_report_per_grouping(monkeypatch):
    states = list(CATALOG_STATES)
    states += [random_family_state(n, seed) for n in range(2, 8) for seed in range(3)]
    # n = 8: a random state and a Specification input
    states += [random_family_state(8, 0), example_pattern("IV", 8, j=2)]
    # a tiny memo cap starts the memo afresh many times per sweep
    caps = (analysis._MEMO_CAP, 3)
    for state in states:
        n = state.n
        for two_groups_only, blocks in ((False, None), (True, 2)):
            want = [
                grouping_report(state, Grouping.from_sets(n, part))
                for part in iter_set_partitions(n, blocks)
            ]
            for cap in caps:
                monkeypatch.setattr(analysis, "_MEMO_CAP", cap)
                got = list(classify_groupings(state, two_groups_only=two_groups_only))
                assert len(got) == len(want)
                for mine, ref in zip(got, want):
                    assert mine == ref
                    assert mine.grouping.masks == ref.grouping.masks


def test_classify_groupings_shares_verdict_objects():
    state = random_family_state(6, seed=1)
    verdicts: dict = {}
    for report in classify_groupings(state):
        for pv in report.pairs:
            key = (pv.c, pv.d, pv.witness)
            assert verdicts.setdefault(key, pv) is pv


def test_classify_groupings_covers_every_partition():
    state = random_family_state(4, seed=0)
    reports = list(classify_groupings(state))
    assert len(reports) == BELL[4]
    assert len({rep.grouping for rep in reports}) == BELL[4]


@pytest.fixture
def no_skeletons(monkeypatch):
    """An empty skeleton cache for the test, restored afterwards."""
    monkeypatch.setattr(analysis, "_skeletons", {})


def test_classify_groupings_guard(no_skeletons):
    labels = (1 << 10) - 1
    big = FamilyState(11, 1.0, 0.0, (0.0,) * labels)
    # the guard is checked when the sweep is asked for, not at its first report
    with pytest.raises(ValueError, match="pass guard=11 to confirm"):
        classify_groupings(big)
    head = next(classify_groupings(big, guard=11))
    assert head.grouping.groups == (frozenset(range(1, 12)),)
    # 11 parties pass the bound of 8: the walk is neither built ahead nor kept
    assert analysis._skeletons == {}


@pytest.mark.parametrize("n", range(2, 11))
def test_partition_count_matches_the_walk(n):
    for blocks in (None, *range(1, n + 2)):
        assert analysis._partition_count(n, blocks) == len(list(iter_set_partitions(n, blocks)))


def _reports_one_by_one(state, two_groups_only=False):
    n = state.n
    return [grouping_report(state, Grouping.from_sets(n, part))
            for part in iter_set_partitions(n, 2 if two_groups_only else None)]


def _kept_groupings():
    return sum(len(head) for skeleton in analysis._skeletons.values() for head in skeleton)


def test_later_sweeps_reuse_the_skeleton(no_skeletons):
    a, b = random_family_state(7, 0), random_family_state(7, 1)
    spec = example_pattern("IV", 7, j=2)
    first = list(classify_groupings(a))
    assert list(analysis._skeletons) == [7]
    for state in (b, a, spec):
        got = list(classify_groupings(state))
        assert got == _reports_one_by_one(state)
        # the kept skeleton hands every sweep the same Grouping objects
        assert all(mine.grouping is old.grouping for mine, old in zip(got, first))
    assert list(classify_groupings(a, two_groups_only=True)) == _reports_one_by_one(a, True)
    assert _kept_groupings() == BELL[7]


@pytest.mark.parametrize("bound", [0, 3, 8])
def test_sweeps_under_a_small_skeleton_budget(monkeypatch, no_skeletons, bound):
    monkeypatch.setattr(analysis, "_KEPT_PARTIES", bound)
    states = [random_family_state(n, seed) for n in (3, 4, 5, 4, 3) for seed in (0, 1)]
    for state in states:
        for two_groups_only in (False, True):
            got = list(classify_groupings(state, two_groups_only=two_groups_only))
            assert got == _reports_one_by_one(state, two_groups_only)
            assert all(n <= bound for n in analysis._skeletons)
    assert sorted(analysis._skeletons) == [n for n in (3, 4, 5) if n <= bound]
    assert _kept_groupings() == sum(BELL[n] for n in analysis._skeletons)


def test_walked_sweeps_equal_kept_ones(monkeypatch, no_skeletons):
    states = [random_family_state(n, seed=n) for n in range(2, 9)]
    kept = [list(classify_groupings(state)) for state in states]
    monkeypatch.setattr(analysis, "_KEPT_PARTIES", 0)
    monkeypatch.setattr(analysis, "_skeletons", {})
    assert [list(classify_groupings(state)) for state in states] == kept
    assert analysis._skeletons == {}


def test_skeleton_cache_stays_within_its_budget(no_skeletons):
    for n in (8, 2, 5, 9, 7, 6, 8, 3, 11, 4, 13, 8):
        state = random_family_state(n, seed=n)
        for two_groups_only in (False, True):
            if n <= 8 or two_groups_only:
                for _ in classify_groupings(state, guard=n, two_groups_only=two_groups_only):
                    pass
                assert _kept_groupings() == sum(BELL[m] for m in analysis._skeletons) <= 5294
    # an n = 8 sweep is kept; n = 9 passes the bound of 8 and is walked without being kept
    assert 8 in analysis._skeletons and 9 not in analysis._skeletons


def test_two_group_sweeps_leave_the_store_as_it_was(no_skeletons):
    for n in range(2, 9):
        for _ in classify_groupings(random_family_state(n, seed=n)):
            pass
    # every full sweep within the bound of 8 parties: 5,294 groupings
    assert sorted(analysis._skeletons) == list(range(2, 9))
    assert sum(BELL[n] for n in range(2, 9)) == 5294
    assert _kept_groupings() == 5294
    kept = dict(analysis._skeletons)
    for n in range(2, 15):
        state = random_family_state(n, seed=n)
        for _ in classify_groupings(state, guard=n, two_groups_only=True):
            pass
        assert analysis._skeletons.keys() == kept.keys() and _kept_groupings() == 5294
        assert all(analysis._skeletons[m] is skeleton for m, skeleton in kept.items())
    # the party-set cache holds one set per group mask of 8 parties, not 4,096 sets
    assert _group_parties.cache_info().currsize <= 256


def test_the_kept_n8_skeleton_shares_one_party_set_per_mask(no_skeletons):
    for _ in classify_groupings(random_family_state(8, seed=8)):
        pass
    groupings = [g for head in analysis._skeletons[8] for g in head]
    assert len(groupings) == BELL[8]
    assert len({id(group) for g in groupings for group in g.groups}) == 255


def test_an_abandoned_sweep_keeps_the_full_skeleton(no_skeletons):
    state = random_family_state(6, seed=2)
    sweep = classify_groupings(state)
    head = next(sweep)
    assert head.grouping.groups == (frozenset(range(1, 7)),)
    sweep.close()
    # a skeleton within the party bound is built whole, and kept, before the first report
    assert list(analysis._skeletons) == [6] and _kept_groupings() == BELL[6]
    assert list(classify_groupings(state)) == _reports_one_by_one(state)
    assert _kept_groupings() == BELL[6]


def test_interleaved_sweeps_equal_sequential_ones(no_skeletons):
    a, b = random_family_state(6, seed=3), example_pattern("V", 6)
    together = list(zip(classify_groupings(a), classify_groupings(b)))
    assert [r for r, _ in together] == _reports_one_by_one(a)
    assert [r for _, r in together] == _reports_one_by_one(b)
    # the first sweep kept the skeleton and the second reused it, so it is kept once
    assert _kept_groupings() == BELL[6]
    assert list(zip(classify_groupings(a), classify_groupings(b))) == together
    # a cold sweep keeps the skeleton at its first report, and a sweep run meanwhile reuses it
    analysis._skeletons.clear()
    late = classify_groupings(a)
    first = next(late)
    assert list(classify_groupings(b)) == [r for _, r in together]
    assert [first, *late] == [r for r, _ in together]
    assert _kept_groupings() == BELL[6]


@pytest.mark.parametrize("guard", [True, 4.5, 10.0, "10", None, 0])
def test_classify_groupings_rejects_a_guard_that_is_not_a_plain_int(guard):
    with pytest.raises(ValueError, match=f"got guard={guard!r}"):
        classify_groupings(random_family_state(3, 0), guard=guard)


def test_classify_two_groups_only_matches_report_per_grouping():
    for n in range(2, 10):
        state = random_family_state(n, seed=n)
        got = list(classify_groupings(state, two_groups_only=True))
        assert len(got) == (1 << (n - 1)) - 1
        want = [grouping_report(state, Grouping.from_sets(n, p)) for p in iter_set_partitions(n, 2)]
        assert got == want
        assert [r.grouping.masks for r in got] == [r.grouping.masks for r in want]


def test_classify_two_groups_only():
    state = example_state("III", n=5, group={1, 3, 5})
    reports = list(classify_groupings(state, two_groups_only=True))
    assert len(reports) == 15
    hits = [rep.grouping for rep in reports if rep.any_distillable]
    assert hits == [Grouping.from_sets(5, [[1, 3, 5], [2, 4]])]


def test_specification_behavior_matches_realized_state():
    spec = example_pattern("VII")
    assert spec.n == 5
    assert any(spec.bits)
    assert spec.value(1) == 1 and spec.value(3) == 0
    assert not grouping_report(spec, Grouping.all_separate(5)).any_distillable
    state = from_specification(spec)
    for part in iter_set_partitions(5):
        g = Grouping.from_sets(5, part)
        assert grouping_report(spec, g).any_distillable == grouping_report(state, g).any_distillable
    g34 = Grouping.with_joined(5, (3, 4))
    assert necessary_distillable(spec, g34, {1}, {2}) == necessary_distillable(state, g34, {1}, {2})
    assert necessary_distillable(spec, g34, {1}, {2}) is True
    # whole reports (pairs, witnesses, GHZ clique) agree for the catalog and seeded patterns
    rng = random.Random(8)
    patterns = [
        example_pattern("I", n=6, j=2),
        example_pattern("II", n=6, band=(30, 70)),
        example_pattern("III", n=5, group={1, 3, 5}),
        example_pattern("IV", n=6, j=2),
        example_pattern("V", n=6),
        example_pattern("VI"),
        example_pattern("VII"),
    ]
    patterns += [
        Specification.from_int(n, rng.getrandbits((1 << (n - 1)) - 1))
        for n in range(3, 7) for _ in range(3)
    ]
    for pattern in patterns:
        realized = from_specification(pattern)
        for part in iter_set_partitions(pattern.n):
            g = Grouping.from_sets(pattern.n, part)
            assert grouping_report(pattern, g) == grouping_report(realized, g), (pattern, g)


def test_builtin_requirement_names_and_guards():
    assert set(BUILTIN_REQUIREMENTS) == {"any-two", "example-vii"}
    req = BUILTIN_REQUIREMENTS["example-vii"]()
    assert req(example_pattern("VII"))
    assert not req(Specification.constant(5, 1))
    assert not req(Specification.constant(5, 0))
    with pytest.raises(ValueError):
        req(Specification.constant(4, 1))
    any_two = BUILTIN_REQUIREMENTS["any-two"]()
    assert not any_two(Specification.constant(5, 0))
    with pytest.raises(ValueError):
        any_two(Specification.constant(4, 1))


ALL_SEPARATE = Grouping.all_separate(5)
G34, G35, G45 = (Grouping.with_joined(5, pair) for pair in ((3, 4), (3, 5), (4, 5)))


def reference_any_two(spec):
    """The any-two requirement written directly over pair verdicts."""
    if not any(spec.bits):
        return False
    if grouping_report(spec, ALL_SEPARATE).any_distillable:
        return False
    return all(necessary_distillable(spec, g, {1}, {2}) for g in (G34, G35, G45))


def reference_example_vii(spec):
    """The example-vii requirement written directly over pair verdicts."""
    together = tuple(m for m in range(1, 16) if (m & 1) == (m >> 1 & 1))
    if any(spec.value(m) for m in together):
        return False
    if not any(spec.bits):
        return False
    if grouping_report(spec, ALL_SEPARATE).any_distillable:
        return False
    if not necessary_distillable(spec, G34, {1}, {2}):
        return False
    if not necessary_distillable(spec, G35, {1}, {2}):
        return False
    return not grouping_report(spec, G45).any_distillable


@pytest.mark.parametrize(
    "name, reference",
    [("any-two", reference_any_two), ("example-vii", reference_example_vii)],
)
def test_compiled_requirement_matches_reference(name, reference):
    clauses = BUILTIN_REQUIREMENTS[name]()
    assert clauses.n == 5 and clauses.ones
    for value in range(1 << 15):
        want = reference(Specification.from_int(5, value))
        assert clauses.holds(value) == want, (name, value)


def _reference_label_set(grouping, c, d):
    """Bitmask of the splittings separating c from d that no group straddles, by plain scan."""
    return sum(
        1 << (sp.mask - 1) for sp in separating_splittings(grouping.n, c, d)
        if not any(straddles(sp, g) for g in grouping.groups)
    )


def test_compiled_clauses_match_reference_scan():
    for n in range(3, 7):
        for part in iter_set_partitions(n):
            grouping = Grouping.from_sets(n, part)
            pairs = list(combinations(grouping.groups, 2))
            for c, d in pairs:
                want = _reference_label_set(grouping, c, d)
                assert _compile(n, [(grouping, c, d)], []).ones == want
                assert _compile(n, [(grouping, d, c)], []).ones == want
            if pairs:
                clauses = _compile(n, [(grouping, *pairs[0])], [grouping])
                assert clauses.zeros == tuple(_reference_label_set(grouping, c, d) for c, d in pairs)


def test_search_returns_descending_first_match():
    found = search_specifications(4, lambda spec: True)
    assert found == Specification.constant(4, 1)
    assert search_specifications(3, lambda spec: False) is None


def test_search_respects_size_guard():
    with pytest.raises(ValueError):
        search_specifications(6, lambda spec: True)
    found = search_specifications(6, lambda spec: True, max_n=6)
    assert found == Specification.constant(6, 1)
    with pytest.raises(ValueError):
        search_specifications(1, lambda spec: True)
    # a compiled requirement names its own party count before the guard
    with pytest.raises(ValueError, match="^this requirement is for n=5, the search has n=6$"):
        search_specifications(6, BUILTIN_REQUIREMENTS["any-two"](), max_n=6)


@pytest.mark.parametrize("max_n", ["5", True, 5.0, None, 1, 0])
def test_search_rejects_a_guard_that_is_not_a_plain_int(max_n):
    # "5" used to escape as a bare TypeError, and True was read as 1
    with pytest.raises(
        ValueError, match=rf"^a search needs an integer max_n of at least 2, got max_n={max_n!r}$"
    ):
        search_specifications(3, lambda spec: True, max_n=max_n)
