"""Build family states from indicator targets.

The generic route takes a Specification (the wanted indicator bit per
splitting label) and realizes it with a uniform recipe: labels that
should come out distillable get coefficient zero, all other labels sit
strictly above the threshold.  A small catalog of named patterns covers
the shapes the analysis layer exercises, and random_family_state makes
seeded fuzz inputs that keep clear of the indicator boundary.
"""
from __future__ import annotations

import math
import random
from typing import Iterable

from .model import FamilyState, Specification, Splitting, _check_size

_CATALOG = ("I", "II", "III", "IV", "V", "VI", "VII")


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
    if not 0.0 < margin <= 1.0:
        raise ValueError(f"margin must lie in (0, 1], got {margin}")
    if not 0.0 <= lam0_minus < math.inf:
        raise ValueError(f"lam0_minus must be finite and nonnegative, got {lam0_minus}")
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
    """
    key = example.strip().upper()
    if key not in _CATALOG:
        raise ValueError(f"unknown pattern {example!r}; choose from {', '.join(_CATALOG)}")
    given = {name for name, present in
             (("j", j is not None), ("band", band is not None), ("group", group is not None))
             if present}
    needs = {"I": {"j"}, "II": {"band"}, "III": {"group"}, "IV": {"j"},
             "V": set(), "VI": set(), "VII": set()}[key]
    if given - needs:
        raise ValueError(f"pattern {key} does not take {', '.join(sorted(given - needs))}")
    if needs - given:
        raise ValueError(f"pattern {key} needs {', '.join(sorted(needs - given))}")
    fixed = {"VI": 4, "VII": 5}
    if key in fixed:
        if n is not None and n != fixed[key]:
            raise ValueError(f"pattern {key} is defined for n={fixed[key]}")
        n = fixed[key]
    elif n is None:
        raise ValueError(f"pattern {key} needs n")
    _check_size(n, 2, "pattern")

    if key == "I":
        if not 1 <= j <= n - 1:
            raise ValueError(f"j must lie in [1, {n - 1}] for n={n}")
        sizes = {j, n - j}
        return Specification.from_function(n, lambda m: m.bit_count() in sizes)

    if key == "II":
        lo, hi = band
        if not 0.0 <= lo <= hi <= 100.0:
            raise ValueError("band must satisfy 0 <= lo <= hi <= 100")
        # compare percentages via lo*n <= 100*p <= hi*n; the epsilon keeps
        # integer band edges exact despite float percentages
        return Specification.from_function(
            n, lambda m: lo * n - 1e-9 <= 100.0 * m.bit_count() <= hi * n + 1e-9
        )

    if key == "III":
        target = Splitting.from_side(n, group).mask
        return Specification.from_function(n, lambda m: m == target)

    if key == "IV":
        if not 1 <= j <= n // 2:
            raise ValueError(f"j must lie in [1, {n // 2}] for n={n}")
        return Specification.from_function(
            n, lambda m: min(m.bit_count(), n - m.bit_count()) >= j
        )

    if key == "V":
        return Specification.from_function(n, lambda m: m.bit_count() in (1, n - 1))

    if key == "VI":
        ones = {Splitting.from_side(4, side).mask for side in ({1}, {2}, {1, 2})}
        return Specification.from_function(4, lambda m: m in ones)

    # VII: distillable exactly on the splittings separating 1 from 2,
    # minus the single splitting whose side is {1, 3}
    spared = Splitting.from_side(5, {1, 3}).mask
    return Specification.from_function(
        5, lambda m: (m & 1) != (m >> 1 & 1) and m != spared
    )


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
    _check_size(n, 2, "random state")
    rng = random.Random(seed)
    lam0_minus = rng.uniform(0.0, 0.3)
    gap = rng.uniform(0.5, 1.0)
    half = 0.5 * gap
    lam = []
    for _ in range(1, 1 << (n - 1)):
        below = rng.random() < 0.5
        ratio = rng.uniform(0.0, 0.45) if below else rng.uniform(1.1, 1.55)
        lam.append(ratio * half)
    state = FamilyState.from_unnormalized(n, lam0_minus + gap, lam0_minus, lam)
    spread = 0.5 * state.delta
    assert all(abs(v - spread) > 1e-6 * spread for v in state.lam)
    return state
