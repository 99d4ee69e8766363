"""GHZ-diagonal multiqubit states and bipartite-splitting combinatorics.

Parties are numbered 1..n.  A bipartite splitting is identified by an
integer label in [1, 2^(n-1) - 1]: bit (i - 1) is set exactly when party i
sits on the side that does not contain party n.  Party n therefore always
belongs to side A, side B is read off the label bits, and the all-zero
label (everybody on one side) is not a splitting.

The same labels index the coefficients of a :class:`FamilyState`:
``lam[i]`` holds the weight of the basis pair with label ``i + 1``.
Keeping the two conventions identical is what lets the indicator
arithmetic, the constructors and the dense oracle agree entry for entry.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Callable, Iterable, Iterator, Mapping

NORMALIZATION_TOL = 1e-12


def party_bitmask(parties: Iterable[int]) -> int:
    """Pack a collection of party numbers (1-based) into an integer bitmask."""
    mask = 0
    for p in parties:
        mask |= 1 << (p - 1)
    return mask


def parties_from_bitmask(mask: int) -> frozenset[int]:
    return frozenset(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def _check_party_set(n: int, parties: Iterable[int], what: str) -> frozenset[int]:
    ps = frozenset(parties)
    if not ps:
        raise ValueError(f"{what} must not be empty")
    bad = [p for p in ps if not (isinstance(p, int) and 1 <= p <= n)]
    if bad:
        raise ValueError(f"{what} contains parties outside 1..{n}: {sorted(bad)}")
    return ps


@dataclass(frozen=True)
class Splitting:
    """One bipartition of the n parties, stored by its side-B label."""

    n: int
    mask: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("a splitting needs at least two parties")
        if not 1 <= self.mask <= (1 << (self.n - 1)) - 1:
            raise ValueError(
                f"splitting label {self.mask} outside [1, {(1 << (self.n - 1)) - 1}] for n={self.n}"
            )

    @classmethod
    def from_side(cls, n: int, parties: Iterable[int]) -> "Splitting":
        """Build the splitting that separates `parties` from the rest."""
        side = _check_party_set(n, parties, "side")
        if len(side) == n:
            raise ValueError("side must be a proper subset of the parties")
        if n in side:
            side = frozenset(range(1, n + 1)) - side
        return cls(n, party_bitmask(side))

    def bit(self, party: int) -> int:
        """1 when `party` lies on side B (the side without party n)."""
        if not 1 <= party <= self.n:
            raise ValueError(f"party {party} outside 1..{self.n}")
        if party == self.n:
            return 0
        return self.mask >> (party - 1) & 1

    @property
    def side_b(self) -> frozenset[int]:
        return parties_from_bitmask(self.mask)

    @property
    def side_a(self) -> frozenset[int]:
        return frozenset(range(1, self.n + 1)) - self.side_b

    def __str__(self) -> str:
        fmt = lambda side: "".join(f"A{p}" for p in sorted(side))
        return f"({fmt(self.side_a)})-({fmt(self.side_b)})"


@dataclass(frozen=True)
class FamilyState:
    """Mixed n-qubit state diagonal in the GHZ-like basis.

    ``lam0_plus`` and ``lam0_minus`` weight the two label-0 basis vectors,
    ``lam[i]`` weights *both* vectors of the pair with label ``i + 1``, so
    a normalized state satisfies  lam0_plus + lam0_minus + 2*sum(lam) = 1.
    Instances are immutable; every operation returns a new state.
    """

    n: int
    lam0_plus: float
    lam0_minus: float
    lam: tuple[float, ...]

    @classmethod
    def from_unnormalized(
        cls, n: int, lam0_plus: float, lam0_minus: float, lam: Iterable[float]
    ) -> "FamilyState":
        lam = tuple(lam)
        total = lam0_plus + lam0_minus + 2.0 * sum(lam)
        if not 0.0 < total < math.inf:
            raise ValueError(f"total weight must be positive and finite, got {total}")
        return cls(n, lam0_plus / total, lam0_minus / total, tuple(v / total for v in lam))

    @property
    def delta(self) -> float:
        """Gap between the two label-0 weights; half of it is the indicator threshold."""
        return self.lam0_plus - self.lam0_minus

    @property
    def fidelity(self) -> float:
        """Overlap with the even corner vector after normalization."""
        return self.lam0_plus / self.total_weight()

    @property
    def label_count(self) -> int:
        return (1 << (self.n - 1)) - 1

    def coefficient(self, label: int) -> float:
        if not 1 <= label <= self.label_count:
            raise ValueError(f"label {label} outside [1, {self.label_count}]")
        return self.lam[label - 1]

    def indicator(self, label: int) -> int:
        """1 when the splitting with this label has a negative partial transpose.

        The comparison is strict: a coefficient sitting exactly on delta/2
        belongs to the separable side.
        """
        return 1 if self.coefficient(label) < 0.5 * self.delta else 0

    def indicator_vector(self) -> tuple[int, ...]:
        return self._indicators

    @cached_property
    def _indicators(self) -> tuple[int, ...]:
        # computed once per instance: a sweep asks for it once per grouping
        half = 0.5 * self.delta
        return tuple(1 if v < half else 0 for v in self.lam)

    def total_weight(self) -> float:
        return self.lam0_plus + self.lam0_minus + 2.0 * sum(self.lam)


def npt_indicator(state: FamilyState, split: Splitting) -> int:
    """Distillability indicator of `state` across `split` (1 = distillable)."""
    if split.n != state.n:
        raise ValueError(f"splitting is for n={split.n}, state has n={state.n}")
    return state.indicator(split.mask)


def validate(state: FamilyState) -> list[str]:
    """Report invariant violations instead of raising; an empty list means valid."""
    problems: list[str] = []
    if state.n < 2:
        problems.append(f"party count {state.n} below 2")
        return problems
    want = (1 << (state.n - 1)) - 1
    if len(state.lam) != want:
        problems.append(f"coefficient array has length {len(state.lam)}, expected {want}")
        return problems
    corners = (("lam0_plus", state.lam0_plus), ("lam0_minus", state.lam0_minus))
    for name, value in corners:
        if not math.isfinite(value):
            problems.append(f"{name} is not finite ({value})")
    nonfinite = [i + 1 for i, v in enumerate(state.lam) if not math.isfinite(v)]
    if nonfinite:
        problems.append(f"non-finite coefficients at labels {nonfinite[:8]}")
    if problems:
        return problems
    for name, value in corners:
        if value < 0.0:
            problems.append(f"{name} is negative ({value})")
    negative = [i + 1 for i, v in enumerate(state.lam) if v < 0.0]
    if negative:
        problems.append(f"negative coefficients at labels {negative[:8]}")
    if state.lam0_plus < state.lam0_minus:
        problems.append(
            f"lam0_plus < lam0_minus (gap {state.delta}); the corner gap must be nonnegative"
        )
    total = state.total_weight()
    if abs(total - 1.0) > NORMALIZATION_TOL:
        problems.append(f"total weight {total!r} deviates from 1 by more than {NORMALIZATION_TOL}")
    return problems


def _subset_masks(free: int) -> Iterator[int]:
    sub = free
    while True:
        yield sub
        if sub == 0:
            break
        sub = (sub - 1) & free


def _separating_masks(n: int, cmask: int, dmask: int) -> list[int]:
    """Labels of every splitting placing the c-parties opposite the d-parties."""
    ref = 1 << (n - 1)
    full = (1 << n) - 1
    free = full ^ cmask ^ dmask
    if cmask & ref:
        bases: tuple[int, ...] = (dmask,)
    elif dmask & ref:
        bases = (cmask,)
    else:
        bases = (cmask, dmask)
    free &= ~ref
    out = [base | sub for base in bases for sub in _subset_masks(free)]
    out.sort()
    return out


def separating_splittings(n: int, c: Iterable[int], d: Iterable[int]) -> list[Splitting]:
    """All splittings with the parties of `c` on one side and those of `d` on the other.

    The free parties range over both sides, so the result always holds
    exactly 2^(n - |c| - |d|) splittings, sorted by label.
    """
    cset = _check_party_set(n, c, "c")
    dset = _check_party_set(n, d, "d")
    if cset & dset:
        raise ValueError(f"party sets overlap: {sorted(cset & dset)}")
    return [Splitting(n, m) for m in _separating_masks(n, party_bitmask(cset), party_bitmask(dset))]


def straddles(split: Splitting, group: Iterable[int]) -> bool:
    """True when `group` has members on both sides of `split`."""
    gmask = party_bitmask(_check_party_set(split.n, group, "group"))
    comp = ((1 << split.n) - 1) ^ split.mask
    return bool(gmask & split.mask) and bool(gmask & comp)


@dataclass(frozen=True)
class Grouping:
    """A set partition of the parties into cooperating groups."""

    n: int
    groups: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for g in self.groups:
            if not g:
                raise ValueError("groups must be non-empty")
            if seen & g:
                raise ValueError(f"groups overlap on parties {sorted(seen & g)}")
            seen |= g
        if seen != set(range(1, self.n + 1)):
            missing = set(range(1, self.n + 1)) - seen
            extra = seen - set(range(1, self.n + 1))
            raise ValueError(
                f"groups must partition 1..{self.n}"
                + (f"; missing {sorted(missing)}" if missing else "")
                + (f"; unknown {sorted(extra)}" if extra else "")
            )
        # canonical order: by smallest member
        object.__setattr__(
            self, "groups", tuple(sorted((frozenset(g) for g in self.groups), key=min))
        )

    @classmethod
    def from_sets(cls, n: int, sets: Iterable[Iterable[int]]) -> "Grouping":
        return cls(n, tuple(frozenset(s) for s in sets))

    @classmethod
    def all_separate(cls, n: int) -> "Grouping":
        return cls(n, tuple(frozenset({i}) for i in range(1, n + 1)))

    @classmethod
    def with_joined(cls, n: int, *joined: Iterable[int]) -> "Grouping":
        """Grouping with the given multi-party groups; everyone else stays single."""
        groups = [frozenset(g) for g in joined]
        taken = set().union(*groups) if groups else set()
        groups.extend(frozenset({i}) for i in range(1, n + 1) if i not in taken)
        return cls(n, tuple(groups))

    def group_of(self, party: int) -> frozenset[int]:
        for g in self.groups:
            if party in g:
                return g
        raise ValueError(f"party {party} not covered")

    def as_lists(self) -> list[list[int]]:
        return [sorted(g) for g in self.groups]

    def __str__(self) -> str:
        return "|".join(",".join(str(p) for p in sorted(g)) for g in self.groups)


def _spec_labels(n: int) -> range:
    """Labels 1..2^(n-1)-1 of an n-party specification; rejects a bad n."""
    if type(n) is not int or n < 2:
        raise ValueError(f"a specification needs an integer n of at least 2, got n={n!r}")
    return range(1, 1 << (n - 1))


@dataclass(frozen=True)
class Specification:
    """Target indicator value for every splitting label, as a 0/1 table."""

    n: int
    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        want = _spec_labels(self.n).stop - 1
        if len(self.bits) != want:
            raise ValueError(f"need {want} bits for n={self.n}, got {len(self.bits)}")
        if any(type(b) is not int or b not in (0, 1) for b in self.bits):
            raise ValueError("specification bits must be the integers 0 or 1")

    @classmethod
    def from_function(cls, n: int, fn: Callable[[int], int]) -> "Specification":
        return cls(n, tuple(1 if fn(m) else 0 for m in _spec_labels(n)))

    @classmethod
    def from_mapping(cls, n: int, mapping: Mapping[int, int]) -> "Specification":
        labels = _spec_labels(n)
        unknown = sorted(m for m in mapping if m not in labels)
        if unknown or len(mapping) != labels.stop - 1:
            # scan labels lazily: a large n must fail fast, not build all 2^(n-1) labels
            missing = list(islice((m for m in labels if m not in mapping), 8))
            raise ValueError(
                f"mapping must cover every label 1..{labels.stop - 1}"
                + (f"; missing {missing}" if missing else "")
                + (f"; unknown {unknown[:8]}" if unknown else "")
            )
        return cls(n, tuple(mapping[m] for m in labels))

    @classmethod
    def constant(cls, n: int, bit: int) -> "Specification":
        return cls(n, tuple(int(bit) for _ in _spec_labels(n)))

    @classmethod
    def from_int(cls, n: int, value: int) -> "Specification":
        return cls.from_function(n, lambda m: value >> (m - 1) & 1)

    def value(self, label: int) -> int:
        if not 1 <= label <= len(self.bits):
            raise ValueError(f"label {label} outside [1, {len(self.bits)}]")
        return self.bits[label - 1]

    def indicator_vector(self) -> tuple[int, ...]:
        """The bits, so that a specification stands in for a state in every verdict."""
        return self.bits

    def to_int(self) -> int:
        return sum(b << i for i, b in enumerate(self.bits))

    def ones(self) -> tuple[int, ...]:
        return tuple(i + 1 for i, b in enumerate(self.bits) if b)
