"""GHZ-diagonal multiqubit states, their splittings and groupings, and the input rules.

Parties are numbered 1..n.  A bipartite splitting is identified by an
integer label in [1, 2^(n-1) - 1]: bit (i - 1) is set exactly when party i
sits on the side that does not contain party n.  Party n therefore always
belongs to side A, side B is read off the label bits, and the all-zero
label (everybody on one side) is not a splitting.

The same labels index the coefficients of a :class:`FamilyState`:
``lam[i]`` holds the weight of the basis pair with label ``i + 1``.
Keeping the two conventions identical is what lets the indicator
arithmetic, the constructors and the dense oracle agree entry for entry.

Each input rule has one home here, and every layer calls it:
`_check_size` for a party count (`_check_grouping_size` for a grouping's,
up to GROUPING_PARTY_CAP), `_check_party` for a party number (a
plain int, never True or 1.0, and in 1..n when given n),
`_check_party_set`, `_check_order` for a relabeling, `_check_label` for
a splitting label, `_check_group_masks` for a partition into groups,
`_table_size` for the 2^(n-1) - 1 entries of a label table,
`_build_labels` for a constructor that walks them (n up to
BUILD_PARTY_CAP), `_check_same_n` for two inputs that must share a
party count, `_is_real` with `_is_finite` for a weight or any other real
parameter, and `_check_nonnegative` for a finite nonnegative one.  Errors
show a number through `_number_text` (an int past the interpreter's digit
limit by its sign and size) and any other value through `_value_text`.
`FamilyState._indicators` is the one indicator decision on weights (the
protocol's ratio test, v / h < 1.0, agrees with it on every float), `_KEPT_PARTIES`
the one bound on what sweeps keep, and `_Kept` the move tables' budget.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Sequence

NORMALIZATION_TOL = 1e-12

# the largest party count whose 2^(n-1) - 1 labels a constructor walks one by one
BUILD_PARTY_CAP = 20

# the largest party count a Grouping holds: the masks of n single-party groups take
# n^2/2 bits, 6 MB at the cap, and a larger n is refused before any mask is formed
GROUPING_PARTY_CAP = 10_000


def party_bitmask(parties: Iterable[int]) -> int:
    """Pack a collection of party numbers (1-based) into an integer bitmask."""
    mask = 0
    for p in parties:
        mask |= 1 << (p - 1)
    return mask


def parties_from_bitmask(mask: int) -> frozenset[int]:
    """The parties of a bitmask, one step per set bit (bit p - 1 is party p)."""
    if mask < 0:
        raise ValueError(f"party bitmask {_number_text(mask)} is negative")
    parties = []
    while mask:
        low = mask & -mask
        parties.append(low.bit_length())
        mask ^= low
    return frozenset(parties)


def _party_text(parties: Iterable[int]) -> str:
    """The one text form of a party set: its members in ascending order, comma-separated."""
    return ",".join(map(str, sorted(parties)))


# the most parties whose sweep a process keeps (`analysis._skeletons`); `_group_parties`
# holds one party set per group mask of such a sweep, shared by every Grouping
_KEPT_PARTIES = 8
_group_parties = lru_cache(maxsize=1 << _KEPT_PARTIES)(parties_from_bitmask)


class _Kept(dict):
    """A process-wide cache of tables: `held` units kept, at most `budget` in all.

    `keep(key, table, size)` keeps a table of `size` units and returns it.
    A table larger than the budget is never kept, and one that would take
    `held` past the budget empties the store first.
    """

    def __init__(self, budget: int) -> None:
        super().__init__()
        self.budget, self.held = budget, 0

    def keep(self, key: object, table, size: int):
        if size <= self.budget:
            if self.held + size > self.budget:
                self.clear()
            self[key] = table
            self.held += size
        return table

    def clear(self) -> None:
        super().clear()
        self.held = 0


def _number_text(value: object) -> str:
    """A number as an error shows it; an int past the interpreter's digit limit by its size."""
    try:
        return str(value)
    except ValueError:
        sign = "-" if value < 0 else ""
        return f"{sign}<{type(value).__name__} of {int(value).bit_length()} bits>"


def _value_text(value: object) -> str:
    """A caller's value as an error shows it: an int through `_number_text`, else its repr."""
    return _number_text(value) if type(value) is int else repr(value)


def _parties_text(parties: Iterable[int]) -> str:
    """Party numbers as an error lists them, ascending, each through `_number_text`."""
    return "[" + ", ".join(map(_number_text, sorted(parties))) + "]"


def _check_size(n: object, least: int, what: str, name: str = "n") -> int:
    """A count, by default the party count n, must be a plain int of at least `least`."""
    if type(n) is not int or n < least:
        raise ValueError(f"a {what} needs an integer {name} of at least {least}, "
                         f"got {name}={_value_text(n)}")
    return n


def _check_same_n(n: int, other: int, what: str, against: str) -> None:
    """`what`, made for `other` parties, must match `against`, which has n."""
    if other != n:
        raise ValueError(f"{what} is for n={_number_text(other)}, "
                         f"{against} has n={_number_text(n)}")


def _check_grouping_size(n: object) -> int:
    """A grouping's party count, 1 to GROUPING_PARTY_CAP, checked before any mask is formed."""
    if type(n) is not int or not 1 <= n <= GROUPING_PARTY_CAP:
        _check_size(n, 1, "grouping")  # names a count that is no int or below 1
        raise ValueError(f"a grouping with n={_number_text(n)} has a mask bit per party; "
                         f"groupings cap at n={GROUPING_PARTY_CAP}")
    return n


def _check_party(p: object, n: int | None = None) -> int:
    """A party number must be a plain int, in 1..n when given n; True or 1.0 would pass for 1."""
    if type(p) is not int:
        raise ValueError(f"party {p!r} is not an integer")
    if n is not None and not 1 <= p <= n:
        raise ValueError(f"party {_number_text(p)} outside 1..{_number_text(n)}")
    return p


def _largest_label(n: int) -> str:
    """2^(n-1) - 1 as an error prints it: in digits up to n = 64, beyond that as a power."""
    return str((1 << (n - 1)) - 1) if n <= 64 else f"(2^{_number_text(n - 1)} - 1)"


def _table_size(n: object, length: int, what: str) -> int:
    """The 2^(n-1) - 1 entries a label table for n parties needs, checking n first.

    A length L with 2L + 1 below that count is refused by bit lengths alone: a huge n never
    forms 2^(n-1).
    """
    if _check_size(n, 2, what) > (length + 1).bit_length() + 1:
        raise ValueError(f"a {what} with n={_number_text(n)} needs 2^{_number_text(n - 1)} - 1 "
                         f"entries, got {length}")
    return (1 << (n - 1)) - 1


def _check_label(label: object, n: int, what: str = "label") -> int:
    """A splitting label must be a plain int in [1, 2^(n-1) - 1]; True would pass for label 1.

    Neither the test nor the error forms 2^(n-1) for a huge n.
    """
    if type(label) is not int:
        raise ValueError(f"{what} {label!r} is not an integer")
    if label <= 0 or label.bit_length() >= n:
        raise ValueError(
            f"{what} {_number_text(label)} outside [1, {_largest_label(n)}] for n={_number_text(n)}"
        )
    return label


def _check_party_set(n: int, parties: Iterable[int], what: str) -> frozenset[int]:
    # each element is checked before it is hashed, so no impostor dedupes away
    ps = frozenset(map(_check_party, parties))
    if not ps:
        raise ValueError(f"{what} must not be empty")
    bad = [p for p in ps if not 1 <= p <= n]
    if bad:
        raise ValueError(
            f"{what} contains parties outside 1..{_number_text(n)}: {_parties_text(bad)}"
        )
    return ps


def _check_order(n: int, order: Iterable[int]) -> tuple[int, ...]:
    """A relabeling order lists every party 1..n once; new party i is old party order[i-1]."""
    order = tuple(map(_check_party, order))
    if sorted(order) != list(range(1, n + 1)):
        raise ValueError(f"order must be a permutation of 1..{n}")
    return order


@dataclass(frozen=True, slots=True)
class Splitting:
    """One bipartition of the n parties, stored by its side-B label."""

    n: int
    mask: int

    def __post_init__(self) -> None:
        _check_label(self.mask, _check_size(self.n, 2, "splitting"), "splitting label")

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
        if _check_party(party, self.n) == self.n:
            return 0
        return self.mask >> (party - 1) & 1

    @property
    def side_b(self) -> frozenset[int]:
        return parties_from_bitmask(self.mask)

    @property
    def side_a(self) -> frozenset[int]:
        return frozenset(range(1, self.n + 1)) - self.side_b

    def __str__(self) -> str:
        # one pass over parties 1..n: bit p - 1 of the label puts party p on side B
        mask, sides = self.mask, ([], [])
        for p in range(1, self.n + 1):
            sides[mask >> (p - 1) & 1].append(f"A{p}")
        return f"({''.join(sides[0])})-({''.join(sides[1])})"


@dataclass(frozen=True, slots=True)
class FamilyState:
    """Mixed n-qubit state diagonal in the GHZ-like basis.

    ``lam0_plus`` and ``lam0_minus`` weight the two label-0 basis vectors,
    ``lam[i]`` weights *both* vectors of the pair with label ``i + 1``, so
    a normalized state satisfies  lam0_plus + lam0_minus + 2*sum(lam) = 1.
    Instances are immutable; every operation returns a new state.  A
    state is built with n >= 2 and 2^(n-1) - 1 coefficients, or not at all.
    """

    n: int
    lam0_plus: float
    lam0_minus: float
    lam: tuple[float, ...]
    _lazy_indicators: tuple[int, ...] | None = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "lam", tuple(self.lam))
        object.__setattr__(self, "_lazy_indicators", None)
        want = _table_size(self.n, len(self.lam), "state")
        if len(self.lam) != want:
            raise ValueError(f"coefficient array has length {len(self.lam)}, expected {want}")

    @classmethod
    def from_unnormalized(
        cls, n: int, lam0_plus: float, lam0_minus: float, lam: Iterable[float]
    ) -> "FamilyState":
        lam = tuple(lam)
        try:
            total = lam0_plus + lam0_minus + 2.0 * sum(lam)
        except OverflowError:  # an int weight beyond the float range
            raise ValueError("total weight must be positive and finite, "
                             "got an int weight beyond the float range") from None
        if not 0.0 < total < math.inf:
            raise ValueError(f"total weight must be positive and finite, got {total}")
        return cls(n, lam0_plus / total, lam0_minus / total, tuple([v / total for v in lam]))

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
        return self.lam[_check_label(label, self.n) - 1]

    def indicator(self, label: int) -> int:
        """1 when the splitting with this label has a negative partial transpose."""
        return self._indicators[_check_label(label, self.n) - 1]

    def indicator_vector(self) -> tuple[int, ...]:
        return self._indicators

    @property
    def _indicators(self) -> tuple[int, ...]:
        """Label k is 1 exactly when lam[k - 1] < delta/2, computed on first read and kept.

        The comparison is strict: a coefficient on delta/2 is separable.
        """
        if self._lazy_indicators is None:
            half = 0.5 * self.delta
            object.__setattr__(self, "_lazy_indicators",
                               tuple([1 if v < half else 0 for v in self.lam]))
        return self._lazy_indicators

    def total_weight(self) -> float:
        return self.lam0_plus + self.lam0_minus + 2.0 * sum(self.lam)


def _is_real(value: object) -> bool:
    """A weight must be a real number; True would pass for 1.0."""
    return type(value) is not bool and isinstance(value, numbers.Real)


def _is_finite(value: numbers.Real) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _check_nonnegative(value: object, name: str) -> None:
    """A real parameter such as a tolerance must be a finite, nonnegative real."""
    if not (_is_real(value) and _is_finite(value) and value >= 0.0):
        raise ValueError(f"{name} must be finite and nonnegative, got {_value_text(value)}")


def validate(state: FamilyState) -> list[str]:
    """Report invalid values instead of raising; an empty list means valid."""
    problems: list[str] = []
    corners = (("lam0_plus", state.lam0_plus), ("lam0_minus", state.lam0_minus))
    for name, value in corners:
        if not _is_real(value):
            problems.append(f"{name} is not a real number ({value!r})")
        elif not _is_finite(value):
            problems.append(f"{name} is not finite ({_number_text(value)})")
    nonreal = [i + 1 for i, v in enumerate(state.lam) if not _is_real(v)]
    if nonreal:
        problems.append(f"non-real coefficients at labels {nonreal[:8]}")
    nonfinite = [i + 1 for i, v in enumerate(state.lam) if _is_real(v) and not _is_finite(v)]
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
    # every weight is a finite real by now, so float() cannot overflow; a sum of huge ints could.
    # The table is summed exactly and rounded once: a plain running sum of the 65,535 weights
    # of a normalized 17-party state drifts past NORMALIZATION_TOL
    try:
        lam_sum = math.fsum(map(float, state.lam))
    except OverflowError:
        lam_sum = sum(map(float, state.lam))
    total = float(state.lam0_plus) + float(state.lam0_minus) + 2.0 * lam_sum
    if abs(total - 1.0) > NORMALIZATION_TOL:
        problems.append(f"total weight {total!r} deviates from 1 by more than {NORMALIZATION_TOL}")
    return problems


def _cover_error(n: int, union: int, unknown: Iterable[int]) -> ValueError:
    missing = sorted(parties_from_bitmask(((1 << n) - 1) & ~union))
    unknown = sorted(unknown)
    return ValueError(
        f"groups must partition 1..{n}"
        + (f"; missing {_parties_text(missing)}" if missing else "")
        + (f"; unknown {_parties_text(unknown)}" if unknown else "")
    )


def _check_group_masks(n: int, masks: tuple[int, ...]) -> None:
    """The partition rule of a Grouping, on group bitmasks (bit p - 1 for party p).

    Groups are non-empty and disjoint, they come in ascending order of
    their lowest member, and their union is 1..n.
    """
    union = low = 0
    for m in masks:
        if type(m) is not int or m < 0:
            raise ValueError(f"group mask {_value_text(m)} is not a nonnegative integer")
        if not m:
            raise ValueError("groups must be non-empty")
        if union & m:
            raise ValueError(f"groups overlap on parties {sorted(parties_from_bitmask(union & m))}")
        if m & -m < low:
            raise ValueError(
                "groups must come in ascending order of their lowest member, "
                f"got masks [{', '.join(map(_value_text, masks))}]"
            )
        low = m & -m
        union |= m
    if union != (1 << n) - 1:
        raise _cover_error(n, union, parties_from_bitmask(union >> n << n))


def _holding_labels(group_masks: Sequence[int]) -> tuple[int, ...]:
    """For each group, the labels of the splittings no group straddles that hold it.

    Such a splitting has whole groups on each side, and its label, the
    side without party n, is a union of the groups lacking party n: all
    groups but the one with the largest mask.  Entry i has bit m - 1 set
    when union m holds group i, the layout of `Specification.to_int`; the
    group of party n holds no label.  Disjoint masks add, so joining
    group g to every union so far shifts the labels by g: the unions,
    bit u for union u, grow as A | A << g, and each earlier group's entry
    as h | h << g.  Groups i and j are separated by the labels in
    holds[i] ^ holds[j].
    """
    last = max(group_masks)
    unions = 1  # the empty union, label 0, which is no splitting
    holds = [0] * len(group_masks)
    for i, g in enumerate(group_masks):
        if g != last:
            holds = [h | h << g for h in holds]
            holds[i] = unions << g
            unions |= unions << g
    return tuple(h >> 1 for h in holds)


@dataclass(frozen=True, slots=True)
class Grouping:
    """A set partition of the parties into cooperating groups.

    `groups` is kept in canonical order, by smallest member; `masks`
    holds the bitmask of each group in the same order.  `_holds`, the
    label masks every verdict on the grouping reads (`_holding_labels`),
    is built on first read and kept in its own slot, as
    `FamilyState._indicators` is.
    """

    n: int
    groups: tuple[frozenset[int], ...]
    masks: tuple[int, ...] = field(init=False, compare=False, repr=False)
    _lazy_holds: tuple[int, ...] | None = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        n = _check_grouping_size(self.n)
        # parties outside 1..n get no bit, so that a huge number cannot build a huge mask
        unknown: set[int] = set()
        masks = []
        union = 0
        for g in self.groups:
            members = list(map(_check_party, g))
            inside = [p for p in members if 1 <= p <= n]
            if len(inside) < len(members):
                unknown.update(p for p in members if not 1 <= p <= n)
            masks.append(party_bitmask(inside))
            union |= masks[-1]
        if unknown:
            raise _cover_error(n, union, unknown)
        masks.sort(key=lambda m: m & -m)
        self._set_masks(tuple(masks))

    def _set_masks(self, masks: tuple[int, ...]) -> None:
        """Check the group masks, then store them and their party sets; `_holds` waits."""
        _check_group_masks(self.n, masks)
        object.__setattr__(self, "groups", tuple(map(_group_parties, masks)))
        object.__setattr__(self, "masks", masks)
        object.__setattr__(self, "_lazy_holds", None)

    @classmethod
    def from_masks(cls, n: int, masks: Iterable[int]) -> "Grouping":
        """The grouping with these group bitmasks, given in canonical order.

        The masks pass the same rule as the groups of the constructor,
        but nothing is sorted: a mask out of order is an error.
        """
        grouping = object.__new__(cls)
        object.__setattr__(grouping, "n", _check_grouping_size(n))
        grouping._set_masks(tuple(masks))
        return grouping

    @classmethod
    def from_sets(cls, n: int, sets: Iterable[Iterable[int]]) -> "Grouping":
        return cls(n, tuple(sets))

    @classmethod
    def all_separate(cls, n: int) -> "Grouping":
        _check_grouping_size(n)
        return cls(n, tuple(frozenset({i}) for i in range(1, n + 1)))

    @classmethod
    def with_joined(cls, n: int, *joined: Iterable[int]) -> "Grouping":
        """Grouping with the given multi-party groups; everyone else stays single."""
        _check_grouping_size(n)
        groups = [frozenset(map(_check_party, g)) for g in joined]
        taken = set().union(*groups) if groups else set()
        groups.extend(frozenset({i}) for i in range(1, n + 1) if i not in taken)
        return cls(n, tuple(groups))

    @property
    def _holds(self) -> tuple[int, ...]:
        """The label mask of each group, `_holding_labels`, built on first read and kept."""
        if self._lazy_holds is None:
            object.__setattr__(self, "_lazy_holds", _holding_labels(self.masks))
        return self._lazy_holds

    def group_of(self, party: int) -> frozenset[int]:
        bit = 1 << (_check_party(party, self.n) - 1)
        return next(g for m, g in zip(self.masks, self.groups) if m & bit)

    def as_lists(self) -> list[list[int]]:
        return [sorted(g) for g in self.groups]

    def __str__(self) -> str:
        return "|".join(map(_party_text, self.groups))


def _build_labels(n: int, what: str) -> range:
    """Labels 1..2^(n-1)-1 for a constructor to walk; rejects a bad n and n > BUILD_PARTY_CAP."""
    if _check_size(n, 2, what) > BUILD_PARTY_CAP:
        raise ValueError(f"a {what} with n={_number_text(n)} walks 2^{_number_text(n - 1)} - 1 "
                         f"labels; construction caps at n={BUILD_PARTY_CAP}")
    return range(1, 1 << (n - 1))


@dataclass(frozen=True, slots=True)
class Specification:
    """Target indicator value for every splitting label, as a 0/1 table."""

    n: int
    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        # stored as a tuple, as the annotation says: a list would leave the
        # specification unhashable and unequal to the same bits as a tuple
        object.__setattr__(self, "bits", tuple(self.bits))
        want = _table_size(self.n, len(self.bits), "specification")
        if len(self.bits) != want:
            raise ValueError(f"need {want} bits for n={self.n}, got {len(self.bits)}")
        for label, b in enumerate(self.bits, 1):
            if type(b) is not int or b not in (0, 1):
                raise ValueError(f"specification bit {b!r} of label {label} is not 0 or 1")

    @classmethod
    def from_function(cls, n: int, fn: Callable[[int], int]) -> "Specification":
        return cls(n, tuple(1 if fn(m) else 0 for m in _build_labels(n, "specification")))

    @classmethod
    def from_mapping(cls, n: int, mapping: Mapping[int, int]) -> "Specification":
        labels = range(1, _table_size(n, len(mapping), "specification") + 1)
        # each key is checked before it is looked up: True or 3.0 would pass for a label
        for m in mapping:
            _check_label(m, n)
        if len(mapping) != len(labels):
            missing = [m for m in labels if m not in mapping][:8]
            raise ValueError(f"mapping must cover every label 1..{len(labels)}; missing {missing}")
        return cls(n, tuple(mapping[m] for m in labels))

    @classmethod
    def constant(cls, n: int, bit: int) -> "Specification":
        return cls(n, tuple(bit for _ in _build_labels(n, "specification")))

    @classmethod
    def from_int(cls, n: int, value: int) -> "Specification":
        """The specification whose bit for label m is bit m - 1 of `value`."""
        _check_size(n, 2, "specification")
        if type(value) is not int:
            raise ValueError(f"specification value {value!r} is not an integer")
        # the sign first: a negative value is refused before the cap on n
        if value < 0 or value >> (labels := len(_build_labels(n, "specification"))):
            raise ValueError(
                f"specification value {_number_text(value)} outside [0, 2^{_largest_label(n)}) "
                f"for n={_number_text(n)}"
            )
        # one binary digit per label, label 1 last, as `to_int` reads them
        digits = format(value, f"0{labels}b")
        return cls(n, tuple([1 if d == "1" else 0 for d in reversed(digits)]))

    def value(self, label: int) -> int:
        return self.bits[_check_label(label, self.n) - 1]

    def indicator_vector(self) -> tuple[int, ...]:
        """The bits, so that a specification stands in for a state in every verdict."""
        return self.bits

    def to_int(self) -> int:
        """The integer whose bit m - 1 is the bit for label m, read from one binary string."""
        return int("".join(["1" if b else "0" for b in reversed(self.bits)]), 2)

    def ones(self) -> tuple[int, ...]:
        return tuple(i + 1 for i, b in enumerate(self.bits) if b)
