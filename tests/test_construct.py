"""Constructors: states from specifications, catalog patterns, random sampling."""
from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entact import (
    FamilyState,
    Specification,
    Splitting,
    example_pattern,
    example_state,
    from_specification,
    random_family_state,
    validate,
)
from entact.model import BUILD_PARTY_CAP


@settings(max_examples=40)
@given(st.integers(min_value=2, max_value=6), st.data())
def test_from_specification_realizes_indicator(n, data):
    labels = (1 << (n - 1)) - 1
    value = data.draw(st.integers(min_value=0, max_value=(1 << labels) - 1))
    spec = Specification.from_int(n, value)
    state = from_specification(spec)
    assert validate(state) == []
    assert state.indicator_vector() == spec.bits


def test_from_specification_margin_controls_clearance():
    spec = Specification.from_mapping(3, {1: 0, 2: 1, 3: 0})
    tight = from_specification(spec, margin=0.1)
    wide = from_specification(spec, margin=1.0)
    for st_ in (tight, wide):
        assert st_.indicator_vector() == (0, 1, 0)
        assert st_.coefficient(2) == 0.0
    # zero-bit labels sit above the boundary by the margin factor
    assert tight.coefficient(1) / (tight.delta / 2) == pytest.approx(1.1)
    assert wide.coefficient(1) / (wide.delta / 2) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        from_specification(spec, margin=0.0)
    with pytest.raises(ValueError):
        from_specification(spec, margin=1.5)
    for bad in (-0.2, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="lam0_minus must be finite and nonnegative"):
            from_specification(spec, lam0_minus=bad)


def test_real_parameters_follow_the_weight_rule():
    # True would pass for 1, a string would escape as TypeError, and 10**400 overflows a float
    spec = example_pattern("VI")
    for margin in (True, "0.5", 10**400):
        message = rf"^margin must lie in \(0, 1\], got {re.escape(repr(margin))}$"
        with pytest.raises(ValueError, match=message):
            from_specification(spec, margin=margin)
    for lam0_minus in (True, 10**400, "0"):
        message = rf"^lam0_minus must be finite and nonnegative, got {re.escape(repr(lam0_minus))}$"
        with pytest.raises(ValueError, match=message):
            from_specification(spec, lam0_minus=lam0_minus)
    assert from_specification(spec, margin=1, lam0_minus=0) == from_specification(spec, 1.0, 0.0)


@pytest.mark.parametrize("band", [(True, 50), ("a", 50), (10, 20, 30), (10,), 50, "ab"])
def test_pattern_ii_band_is_two_real_numbers(band):
    message = rf"^band must be two real numbers \(lo, hi\), got {re.escape(repr(band))}$"
    with pytest.raises(ValueError, match=message):
        example_pattern("II", n=10, band=band)


def test_from_specification_rejects_a_gap_lost_to_rounding():
    # lam0_minus + 1.0 rounds to lam0_minus, so the gap and every indicator would be 0
    with pytest.raises(ValueError, match="lam0_minus=1e\\+16"):
        example_state("VI", lam0_minus=1e16)
    assert example_state("VI", lam0_minus=1e6).indicator_vector() == example_pattern("VI").bits


def test_catalog_i_popcount_band():
    spec = example_pattern("I", n=6, j=2)
    for m in spec.ones():
        assert m.bit_count() in (2, 4)
    assert all(m.bit_count() in (2, 4) for m in range(1, 32) if spec.value(m))
    assert spec.value(3) == 1 and spec.value(1) == 0 and spec.value(7) == 0
    with pytest.raises(ValueError):
        example_pattern("I", n=6)
    with pytest.raises(ValueError):
        example_pattern("I", n=6, j=6)


def test_catalog_ii_percent_band():
    spec = example_pattern("II", n=10, band=(40, 60))
    ones = set(spec.ones())
    assert len(ones) == 336
    for m in ones:
        assert 4 <= m.bit_count() <= 6
    # integer band edges are inclusive despite the percent arithmetic
    assert spec.value((1 << 4) - 1) == 1
    assert spec.value((1 << 3) - 1) == 0
    with pytest.raises(ValueError):
        example_pattern("II", n=10)


def test_catalog_iii_single_splitting():
    spec = example_pattern("III", n=5, group={1, 3, 5})
    assert spec.ones() == (Splitting.from_side(5, {1, 3, 5}).mask,)
    assert spec.ones() == (10,)


def test_catalog_iv_trimmed_band():
    spec = example_pattern("IV", n=8, j=3)
    ones = set(spec.ones())
    assert len(ones) == 91
    for m in ones:
        assert min(m.bit_count(), 8 - m.bit_count()) >= 3
    with pytest.raises(ValueError):
        example_pattern("IV", n=8, j=5)


@pytest.mark.parametrize("key, n", [("I", 4), ("IV", 6)])
@pytest.mark.parametrize("j", [1.5, True, 2.0, "2", 0])
def test_catalog_j_is_a_plain_int(key, n, j):
    # 1.5 gave I an all-zero pattern and IV the pattern of j = 2; True gave j = 1's
    with pytest.raises(ValueError, match=rf"^a pattern needs an integer j of at least 1, got j={j!r}$"):
        example_pattern(key, n, j=j)


def test_catalog_v_extreme_sizes():
    spec = example_pattern("V", n=6)
    assert len(spec.ones()) == 6
    for m in spec.ones():
        assert m.bit_count() in (1, 5)


def test_catalog_vi_fixed_four_party():
    spec = example_pattern("VI")
    assert spec.n == 4
    assert set(spec.ones()) == {1, 2, 3}
    with pytest.raises(ValueError):
        example_pattern("VI", n=5)


def test_catalog_vii_fixed_five_party():
    spec = example_pattern("VII")
    assert spec.n == 5
    assert spec.ones() == (1, 2, 6, 9, 10, 13, 14)
    assert spec.to_int() == 13091


def test_catalog_unknown_id():
    with pytest.raises(ValueError):
        example_pattern("VIII")


def test_example_state_matches_pattern():
    state = example_state("VI")
    assert isinstance(state, FamilyState)
    assert state.indicator_vector() == example_pattern("VI").bits


@given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=500))
def test_random_states_are_valid_and_clear_of_boundary(n, seed):
    state = random_family_state(n, seed=seed)
    assert validate(state) == []
    half = state.delta / 2
    assert half > 0
    for lam in state.lam:
        assert abs(lam - half) >= 0.05 * half


def test_random_state_is_deterministic():
    assert random_family_state(4, seed=7) == random_family_state(4, seed=7)
    assert random_family_state(4, seed=7) != random_family_state(4, seed=8)


def test_constructors_refuse_a_party_count_past_the_cap_before_walking_labels():
    # n = 40 has 2^39 - 1 labels: a walk would never end, so the refusal comes first
    assert BUILD_PARTY_CAP >= 16
    builds = [
        ("random state", lambda: random_family_state(40, seed=1)),
        ("specification", lambda: example_state("V", 40)),
        ("specification", lambda: Specification.constant(40, 0)),
        ("specification", lambda: Specification.from_function(40, lambda m: 1)),
        ("specification", lambda: Specification.from_int(40, 5)),
    ]
    for what, build in builds:
        message = rf"^a {what} with n=40 walks 2\^39 - 1 labels; construction caps at n={BUILD_PARTY_CAP}$"
        with pytest.raises(ValueError, match=message):
            build()
    assert len(example_pattern("V", 16).bits) == (1 << 15) - 1


def _side_b(n, m):
    """The parties on side B of label m: those whose bit is set."""
    return {p for p in range(1, n) if m >> (p - 1) & 1}


def _catalog_reference(n, key, j=None, band=None, group=None):
    """Distillable labels of a catalog pattern, read off the table in example_pattern's docstring."""
    everyone = set(range(1, n + 1))

    def distills(m):
        side = _side_b(n, m)
        size = len(side)
        if key == "I":
            return size in (j, n - j)
        if key == "II":
            # exact for the band edges below: each lo * n and hi * n is a whole number
            lo, hi = band
            return lo * n <= 100 * size <= hi * n
        if key == "III":
            return side in (set(group), everyone - set(group))
        if key == "IV":
            return size >= j and n - size >= j
        if key == "V":
            return size in (1, n - 1)
        # side B never holds party n, so it is the side that names VI's and VII's splittings
        if key == "VI":
            return side in ({1}, {2}, {1, 2})
        # VII: parties 1 and 2 on opposite sides, and not side {1, 3} against {2, 4, 5}
        return (1 in side) != (2 in side) and side != {1, 3}

    return tuple(1 if distills(m) else 0 for m in range(1, 1 << (n - 1)))


def _bands(n):
    """Integer percentage bands whose edges include every exact side-size fraction of n."""
    edges = sorted({0, 25, 40, 50, 60, 75, 100} | {100 * k // n for k in range(n + 1)
                                                   if 100 * k % n == 0})
    return [(lo, hi) for lo in edges for hi in edges if lo <= hi]


def _proper_subsets(n):
    for m in range(1, (1 << n) - 1):
        yield {p for p in range(1, n + 1) if m >> (p - 1) & 1}


def test_catalog_matches_its_docstring_table():
    for n in range(2, 11):
        assert example_pattern("V", n).bits == _catalog_reference(n, "V")
        for j in range(1, n):
            assert example_pattern("I", n, j=j).bits == _catalog_reference(n, "I", j=j)
        for j in range(1, n // 2 + 1):
            assert example_pattern("IV", n, j=j).bits == _catalog_reference(n, "IV", j=j)
        for band in _bands(n):
            got = example_pattern("II", n, band=band).bits
            assert got == _catalog_reference(n, "II", band=band), (n, band)
        if n <= 6:
            for group in _proper_subsets(n):
                got = example_pattern("III", n, group=group).bits
                assert got == _catalog_reference(n, "III", group=group), (n, group)
    assert (40, 60) in _bands(10) and (50, 50) in _bands(10)
    assert example_pattern("VI").bits == _catalog_reference(4, "VI")
    assert example_pattern("VII").bits == _catalog_reference(5, "VII")
    assert example_pattern(" vii ") == example_pattern("VII", 5)


@pytest.mark.parametrize("call, message", [
    (lambda: example_pattern("VIII"),
     "unknown pattern 'VIII'; choose from I, II, III, IV, V, VI, VII"),
    (lambda: example_pattern(" x "),
     "unknown pattern ' x '; choose from I, II, III, IV, V, VI, VII"),
    (lambda: example_pattern("V", 6, j=2), "pattern V does not take j"),
    (lambda: example_pattern("I", 6, j=2, band=(0, 50), group={1}),
     "pattern I does not take band, group"),
    (lambda: example_pattern("VI", 5, j=1), "pattern VI does not take j"),
    (lambda: example_pattern("I", 6), "pattern I needs j"),
    (lambda: example_pattern("II", 6), "pattern II needs band"),
    (lambda: example_pattern("III", 6), "pattern III needs group"),
    (lambda: example_pattern("IV", j=1), "pattern IV needs n"),
    (lambda: example_pattern("V"), "pattern V needs n"),
    (lambda: example_pattern("VI", 5), "pattern VI is defined for n=4"),
    (lambda: example_pattern("VII", 4), "pattern VII is defined for n=5"),
    (lambda: example_pattern("I", 1, j=5), "a pattern needs an integer n of at least 2, got n=1"),
    (lambda: example_pattern("V", 4.0), "a pattern needs an integer n of at least 2, got n=4.0"),
    (lambda: example_pattern("I", 6, j=6), "j must lie in [1, 5] for n=6"),
    (lambda: example_pattern("I", 40, j=50), "j must lie in [1, 39] for n=40"),
    (lambda: example_pattern("IV", 6, j=4), "j must lie in [1, 3] for n=6"),
    (lambda: example_pattern("IV", 3, j=2), "j must lie in [1, 1] for n=3"),
    (lambda: example_pattern("II", 10, band=(60, 40)), "band must satisfy 0 <= lo <= hi <= 100"),
    (lambda: example_pattern("II", 10, band=(-1, 40)), "band must satisfy 0 <= lo <= hi <= 100"),
    (lambda: example_pattern("II", 10, band=(40, 100.5)),
     "band must satisfy 0 <= lo <= hi <= 100"),
    (lambda: example_pattern("II", 40, band=(60, 40)), "band must satisfy 0 <= lo <= hi <= 100"),
    (lambda: example_pattern("III", 5, group={1, 7}), "side contains parties outside 1..5: [7]"),
    (lambda: example_pattern("III", 5, group=range(1, 6)),
     "side must be a proper subset of the parties"),
    (lambda: example_pattern("III", 5, group=()), "side must not be empty"),
    (lambda: example_pattern("II", 40, band=(40, 60)),
     "a specification with n=40 walks 2^39 - 1 labels; construction caps at n=20"),
])
def test_catalog_error_texts(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
