"""Constructors: states from specifications, catalog patterns, random sampling."""
from __future__ import annotations

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
