"""Build family states from indicator targets.

The generic route takes a Specification (the wanted indicator bit per
splitting label) and realizes it with a uniform recipe: labels that
should come out distillable get coefficient zero, all other labels sit
strictly above the threshold.  A small catalog of named patterns covers
the shapes the analysis layer exercises, and random_family_state makes
seeded fuzz inputs that keep clear of the indicator boundary.
"""
from __future__ import annotations

import random
from typing import Iterable

from .model import (FamilyState, Specification, Splitting, _build_labels, _check_nonnegative,
                    _check_size, _is_real, _number_text)

# each pattern's parameters, and its party count when the pattern fixes one
_CATALOG = {"I": ({"j"}, None), "II": ({"band"}, None), "III": ({"group"}, None),
            "IV": ({"j"}, None), "V": (set(), None), "VI": (set(), 4), "VII": (set(), 5)}


def from_specification(
    spec: Specification, margin: float = 0.5, lam0_minus: float = 0.0
) -> FamilyState:
    """Realize an indicator specification as a concrete normalized state.

    Labels marked 1 get coefficient 0, labels marked 0 get a coefficient
    a factor (1 + margin) above the half-gap, and the gap itself is
    fixed at 1 before normalization.  Normalizing scales coefficients
    and gap alike, so the realized indicator vector equals ``spec.bits``
    exactly, with `margin` controlling how far the separable labels sit
    from the boundary.  A `lam0_minus` so large that the gap rounds
    away raises ValueError instead of returning another pattern.
    """
    if not (_is_real(margin) and 0.0 < margin <= 1.0):
        raise ValueError(f"margin must lie in (0, 1], got {margin!r}")
    _check_nonnegative(lam0_minus, "lam0_minus")
    high = 0.5 * (1.0 + margin)
    lam = tuple(0.0 if b else high for b in spec.bits)
    state = FamilyState.from_unnormalized(spec.n, lam0_minus + 1.0, lam0_minus, lam)
    if state.indicator_vector() != spec.bits:
        # a large lam0_minus swallows the unit gap: lam0_minus + 1.0 rounds
        # to lam0_minus at 1e16, and the gap loses its bits well before that
        raise ValueError(
            f"lam0_minus={lam0_minus!r} is too large: the corner gap rounds away "
            "and the state no longer realizes the specification"
        )
    return state


def example_pattern(
    example: str,
    n: int | None = None,
    *,
    j: int | None = None,
    band: tuple[float, float] | None = None,
    group: Iterable[int] | None = None,
) -> Specification:
    """Named indicator patterns used throughout the analysis tests.

    I    sides of size exactly j or n - j are distillable (needs n, j)
    II   side size within a percentage band of n (needs n, band=(lo, hi))
    III  one chosen splitting is distillable, nothing else (needs n, group)
    IV   both sides hold at least j parties (needs n, j)
    V    only the single-party splittings are distillable (needs n)
    VI   fixed four-party pattern: the splittings isolating party 1,
         party 2, or the pair {1,2} are distillable
    VII  fixed five-party pattern: every splitting separating parties 1
         and 2 is distillable except the one that sides 1 with 3

    I, II, IV and V are side-size rules: a label distills by the size of
    its side B alone.  III, VI and VII are label sets.
    """
    key = example.strip().upper()
    if key not in _CATALOG:
        raise ValueError(f"unknown pattern {example!r}; choose from {', '.join(_CATALOG)}")
    needs, fixed = _CATALOG[key]
    given = {name for name, present in
             (("j", j is not None), ("band", band is not None), ("group", group is not None))
             if present}
    if given - needs:
        raise ValueError(f"pattern {key} does not take {', '.join(sorted(given - needs))}")
    if needs - given:
        raise ValueError(f"pattern {key} needs {', '.join(sorted(needs - given))}")
    if fixed is not None:
        if n is not None and n != fixed:
            raise ValueError(f"pattern {key} is defined for n={fixed}")
        n = fixed
    elif n is None:
        raise ValueError(f"pattern {key} needs n")
    _check_size(n, 2, "pattern")

    if j is not None:
        _check_size(j, 1, "pattern", "j")
        top = n - 1 if key == "I" else n // 2
        if not 1 <= j <= top:
            raise ValueError(f"j must lie in [1, {_number_text(top)}] for n={_number_text(n)}")

    if key == "III":
        labels = {Splitting.from_side(n, group).mask}
    elif key == "VI":
        labels = {Splitting.from_side(4, side).mask for side in ({1}, {2}, {1, 2})}
    elif key == "VII":
        # the splittings separating 1 from 2, minus the one whose side is {1, 3}
        labels = ({m for m in range(1, 16) if (s := Splitting(5, m)).bit(1) != s.bit(2)}
                  - {Splitting.from_side(5, {1, 3}).mask})
    else:
        # a rule on the size k of side B
        if key == "I":
            distills = lambda k: k in (j, n - j)
        elif key == "IV":
            distills = lambda k: j <= k <= n - j
        elif key == "V":
            distills = lambda k: k in (1, n - 1)
        else:
            if not (isinstance(band, (tuple, list)) and len(band) == 2
                    and all(map(_is_real, band))):
                raise ValueError(f"band must be two real numbers (lo, hi), got {band!r}")
            lo, hi = band
            if not 0.0 <= lo <= hi <= 100.0:
                raise ValueError("band must satisfy 0 <= lo <= hi <= 100")
            # compare percentages via lo*n <= 100*k <= hi*n; the epsilon keeps
            # integer band edges exact despite float percentages
            distills = lambda k: lo * n - 1e-9 <= 100.0 * k <= hi * n + 1e-9
        return Specification.from_function(n, lambda m: distills(m.bit_count()))
    return Specification.from_function(n, labels.__contains__)


def example_state(
    example: str,
    n: int | None = None,
    *,
    j: int | None = None,
    band: tuple[float, float] | None = None,
    group: Iterable[int] | None = None,
    margin: float = 0.5,
    lam0_minus: float = 0.0,
) -> FamilyState:
    """Catalog pattern realized as a state; see example_pattern for the ids."""
    pattern = example_pattern(example, n, j=j, band=band, group=group)
    return from_specification(pattern, margin=margin, lam0_minus=lam0_minus)


def random_family_state(n: int, seed: int) -> FamilyState:
    """Seeded random state whose coefficients keep clear of the threshold.

    Every label lands either well below the half-gap (ratio at most
    0.45) or well above it (ratio 1.1 to 1.55), so comparisons against
    the dense route never hinge on ties.  Same seed, same state.
    """
    labels = _build_labels(n, "random state")
    rng = random.Random(seed)
    lam0_minus = rng.uniform(0.0, 0.3)
    gap = rng.uniform(0.5, 1.0)
    half = 0.5 * gap
    lam = []
    for _ in labels:
        below = rng.random() < 0.5
        ratio = rng.uniform(0.0, 0.45) if below else rng.uniform(1.1, 1.55)
        lam.append(ratio * half)
    state = FamilyState.from_unnormalized(n, lam0_minus + gap, lam0_minus, lam)
    spread = 0.5 * state.delta
    assert all(abs(v - spread) > 1e-6 * spread for v in state.lam)
    return state
