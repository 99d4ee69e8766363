"""Grouping verdicts and searches over indicator specifications.

The central question: given a partition of the parties into cooperating
groups, can groups c and d end up with a distillable pair between them?
The answer needs only the indicator vector.  A splitting blocks the pair
when it puts c opposite d, carries indicator 0, and is straddled by no
group; the pair is distillable exactly when no splitting blocks it.

Every verdict reads one table, built by `_union_table`: the splittings
no group straddles, which are the unions of the groups lacking party
n, and for each group the unions that hold it.  A union separates two
groups exactly when it holds one of them, so `grouping_report`, the
single-pair verdicts and the clauses of `_compile` are all reads of
the table of their grouping.  A sweep builds one table per partition
of parties 1..n-1, with party n alone, and shares it across the
placements of party n: when party n joins group i, the grouping's
unions are those without group i, so masking them out of the shared
table gives the same signatures in the same label order.  Groups
distill exactly when the same indicator-0 unions hold both:
distillability within a grouping is an equivalence, whose classes are
the GHZ-capable collections.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Iterator, Sequence

from .model import (FamilyState, Grouping, Specification, Splitting, _check_party, _check_same_n,
                    _check_size, _largest_label, _number_text, _parties_text, _party_text)

# Verdict objects of one sweep, shared by all its reports: the Splitting of
# each label and the PairVerdict of each (c mask, d mask, label).
_Memo = tuple[dict[int, Splitting], dict[tuple[int, int, int], "PairVerdict"]]

_SWEEP_GUARD = 10  # the largest party count a sweep takes unless asked for more

# Verdicts a sweep's memo holds before it starts afresh (the largest n = 8 sweep seen: 8,231).
_MEMO_CAP = 1 << 14


def _union_table(group_masks: Sequence[int]) -> tuple[list[int], list[int]]:
    """The splittings no group straddles, and which of them hold each group.

    Such a splitting has a union of groups on each side, and its label is
    the side without party n: a union of the groups lacking party n, which
    are all groups but the one with the largest mask.  Union s joins
    those groups at the bits of s; with the groups in ascending mask
    order its label grows with s, since disjoint masks compare by their
    highest party.  Returns (unions, inside): unions[s] is the label of
    union s (unions[0] = 0 is no splitting), and bit s of inside[i] is
    set when union s holds group i.  Union s separates groups i and j
    exactly at the bits of inside[i] ^ inside[j].
    """
    free = sorted(range(len(group_masks)), key=group_masks.__getitem__)[:-1]
    # union s holds the group at position p of free when bit p of s is set:
    # runs of 2^p clear and 2^p set bits
    full = (1 << (1 << len(free))) - 1
    unions = [0]
    inside = [0] * len(group_masks)
    for i in free:
        g = group_masks[i]
        run = len(unions)
        unions += [u | g for u in unions]
        inside[i] = full // ((1 << 2 * run) - 1) * (((1 << run) - 1) << run)
    return unions, inside


def _zero_unions(indicator: Sequence[int], unions: Sequence[int]) -> int:
    """Bitmask of the unions with indicator 0: the splittings that can block a pair."""
    zero = 0
    for s in range(1, len(unions)):
        if not indicator[unions[s] - 1]:
            zero |= 1 << s
    return zero


def _lowest_label(unions: Sequence[int], blockers: int) -> int:
    """Label of the lowest union at the bits of `blockers`, or 0 when there is none."""
    return unions[(blockers & -blockers).bit_length() - 1] if blockers else 0


def _resolve_pair(n: int, grouping: Grouping, c, d) -> tuple[int, int]:
    """Indices of groups c and d in `grouping`."""
    _check_same_n(n, grouping.n, "grouping", "the input")
    groups = grouping.groups
    # each member is checked before it is hashed: True or 2.0 would find group {1} or {2}
    cset = frozenset(map(_check_party, c))
    dset = frozenset(map(_check_party, d))
    for name, s in (("c", cset), ("d", dset)):
        if s not in groups:
            raise ValueError(f"{name}={_parties_text(s)} is not a group of {grouping}")
    if cset == dset:
        raise ValueError(
            f"c and d are the same group {_party_text(cset)}; "
            "a pair needs two different groups"
        )
    return groups.index(cset), groups.index(dset)


def _pair_label(state: FamilyState | Specification, grouping: Grouping, c, d) -> int:
    """Lowest label blocking groups c and d, or 0 when the pair distills."""
    i, j = _resolve_pair(state.n, grouping, c, d)
    unions, inside = _union_table(grouping.masks)
    zero = _zero_unions(state.indicator_vector(), unions)
    return _lowest_label(unions, zero & (inside[i] ^ inside[j]))


def necessary_distillable(state: FamilyState | Specification, grouping: Grouping, c, d) -> bool:
    """Can groups c and d of `grouping` distill a pair between them?

    True when every splitting separating c from d is either distillable
    itself or straddled by some group of the grouping.  The condition is
    clearly necessary; for this family the protocol layer realizes it,
    so it is the exact answer.  It depends on the indicator vector
    alone, so a Specification gives the verdict of every state that
    realizes it.
    """
    return not _pair_label(state, grouping, c, d)


def distillation_witness(
    state: FamilyState | Specification, grouping: Grouping, c, d
) -> Splitting | None:
    """Lowest-label splitting blocking the pair, or None when none does.

    Like every verdict, it reads the indicator vector alone.
    """
    label = _pair_label(state, grouping, c, d)
    return Splitting(state.n, label) if label else None


@dataclass(frozen=True)
class PairVerdict:
    """Verdict for one unordered pair of groups."""

    c: frozenset[int]
    d: frozenset[int]
    distillable: bool
    witness: Splitting | None


@dataclass(frozen=True)
class GroupingReport:
    """Pair verdicts of one grouping, an equivalence on its groups, and `ghz`, its largest class."""

    grouping: Grouping
    pairs: tuple[PairVerdict, ...]
    ghz: tuple[frozenset[int], ...]

    @property
    def any_distillable(self) -> bool:
        return any(p.distillable for p in self.pairs)

    def pair(self, c, d) -> PairVerdict:
        groups = self.grouping.groups
        i, j = _resolve_pair(self.grouping.n, self.grouping, c, d)
        return next(pv for pv in self.pairs if {pv.c, pv.d} == {groups[i], groups[j]})


def _report(
    grouping: Grouping, unions: Sequence[int], sig: Sequence[int], memo: _Memo
) -> GroupingReport:
    """The report of `grouping` from its signatures over the union table `unions`.

    sig[i] is the bitmask of the indicator-0 unions holding group i, over
    a table whose label grows with the union index.  Groups i and j are
    blocked by the lowest union where their signatures differ.  The
    memo's Splitting and PairVerdict objects are reused and extended.
    """
    groups = grouping.groups
    masks = grouping.masks
    splits, verdicts = memo
    pairs = []
    linked = False
    for i, j in combinations(range(len(groups)), 2):
        blockers = sig[i] ^ sig[j]
        label = unions[(blockers & -blockers).bit_length() - 1] if blockers else 0
        key = (masks[i], masks[j], label)
        pv = verdicts.get(key)
        if pv is None:
            if label not in splits:
                splits[label] = Splitting(grouping.n, label)
            pv = verdicts[key] = PairVerdict(groups[i], groups[j], not label, splits[label])
        pairs.append(pv)
        linked = linked or not label
    best = 1
    if linked:
        classes: dict[int, int] = {}
        for i, s in enumerate(sig):
            classes[s] = classes.get(s, 0) | 1 << i
        best = min(classes.values(), key=lambda c: (-c.bit_count(), c))
    ghz = tuple(g for i, g in enumerate(groups) if best >> i & 1)
    return GroupingReport(grouping, tuple(pairs), ghz)


def grouping_report(state: FamilyState | Specification, grouping: Grouping) -> GroupingReport:
    """Verdict for every pair of groups, plus the largest GHZ-capable collection.

    Groups i and j distill exactly when their signatures, the
    indicator-0 unions holding each, are equal, so the groups whose
    pairs all distill, which can share a GHZ-type state, are the classes
    of equal signatures, and `ghz` is the largest class (on ties, the one
    with the lowest group-index bitmask).  The report depends on the
    indicator vector alone, as every verdict does.
    """
    _check_same_n(state.n, grouping.n, "grouping", "the input")
    unions, inside = _union_table(grouping.masks)
    zero = _zero_unions(state.indicator_vector(), unions)
    return _report(grouping, unions, [zero & s for s in inside], ({0: None}, {}))


def _grow(n: int, least: int, most: int) -> Iterator[tuple[int, ...]]:
    """Group bitmasks of the partitions of {1..n} into `least`..`most` blocks.

    In restricted-growth order, built a party at a time, recursing once
    per party: the next party joins each open group in turn, then opens
    a new one if `most` allows.  A branch that can no longer reach
    `least` groups stops.  Groups come in order of their lowest member,
    the canonical order of a Grouping.
    """
    masks: list[int] = []

    def grow(p: int) -> Iterator[tuple[int, ...]]:
        if len(masks) + n - p < least:
            return
        if p == n:
            yield tuple(masks)
            return
        bit = 1 << p
        for i in range(len(masks)):
            masks[i] |= bit
            yield from grow(p + 1)
            masks[i] ^= bit
        if len(masks) < most:
            masks.append(bit)
            yield from grow(p + 1)
            masks.pop()

    return grow(0)


def iter_set_partitions(n: int, blocks: int | None = None) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All partitions of {1..n} in restricted-growth order, first-member blocks first.

    With `blocks` set, only partitions with exactly that many blocks.
    Both counts are checked when the walk is asked for.
    """
    _check_size(n, 1, "partition")
    if blocks is None:
        walk = _grow(n, 1, n)
    else:
        walk = _grow(n, _check_size(blocks, 1, "partition", "blocks"), blocks)
    return (
        tuple(tuple(p for p in range(1, n + 1) if m >> (p - 1) & 1) for m in masks)
        for masks in walk
    )


def _sweep(state: FamilyState | Specification, blocks: int | None) -> Iterator[GroupingReport]:
    """Reports of the groupings with `blocks` groups, or of all when None.

    In restricted-growth order.  Walks the partitions of parties
    1..n-1, the heads; party n is the last digit of the order, so each
    head's completions follow it: party n joins group 0..m-1, then
    stands alone as group m.  A head's union table, built with party n
    alone, serves all m + 1 completions.  Its unions are those of the
    groups lacking party n, and no union holds group m; when party n
    joins group i, the grouping's own unions are those without group i,
    and masking keeps their label order, so every lowest label is the
    same.  Group i's signature is then 0 in every placement.
    """
    n = state.n
    last = 1 << (n - 1)
    indicator = state.indicator_vector()
    heads = _grow(n - 1, 1, n - 1) if blocks is None else _grow(n - 1, blocks - 1, blocks)
    memo: _Memo = ({0: None}, {})
    for head in heads:
        m = len(head)
        placed = head + (last,)  # party n alone, as group m
        unions, inside = _union_table(placed)
        zero = _zero_unions(indicator, unions)
        for i in range(m + 1):
            # joining group i keeps m groups; standing alone, as group m, makes m + 1
            k = m if i < m else m + 1
            if blocks is not None and blocks != k:
                continue
            keep = zero & ~inside[i]
            sig = [keep & s for s in inside[:k]]
            masks = placed[:i] + (placed[i] | last,) + placed[i + 1:k]
            if len(memo[1]) >= _MEMO_CAP:
                memo = ({0: None}, {})
            yield _report(Grouping.from_masks(n, masks), unions, sig, memo)


def _check_sweep(n: int, guard: object, name: str = "guard") -> None:
    """A sweep of n parties needs a guard of at least n; errors spell the guard as `name`."""
    if n > _check_size(guard, 1, "sweep", name):
        raise ValueError(f"sweeping all groupings of {n} parties is a large enumeration; "
                         f"pass {name}={n} to confirm")


def classify_groupings(
    state: FamilyState | Specification, *, guard: int = _SWEEP_GUARD,
    two_groups_only: bool = False,
) -> Iterator[GroupingReport]:
    """Report every grouping of the parties (or every two-group split).

    The reports read the indicator vector alone, one union table per
    partition of parties 1..n-1, shared by the placements of party n.
    The reports of one sweep share their immutable PairVerdict and
    Splitting objects: a pair of groups that meets the same verdict in
    many groupings holds one object for all of them, until the memo
    reaches `_MEMO_CAP` verdicts and starts afresh.  The number of set
    partitions grows very fast, hence the guard on the party count,
    checked when the sweep is asked for; raise it knowingly.
    """
    _check_sweep(state.n, guard)
    return _sweep(state, 2 if two_groups_only else None)


Requirement = Callable[[Specification], bool]


@dataclass(frozen=True)
class Clauses:
    """A requirement compiled to label bitmasks, bit m-1 for label m.

    Every label in `ones` must be 1, and every mask in `zeros` must hold
    at least one 0.  The layout is that of Specification.to_int, so a
    search tests candidates as plain integers.  Called on a Specification
    the object is a Requirement like any other.
    """

    n: int
    ones: int
    zeros: tuple[int, ...]

    def holds(self, value: int) -> bool:
        ones = self.ones
        return value & ones == ones and all(value & z != z for z in self.zeros)

    def __call__(self, spec: Specification) -> bool:
        _check_same_n(spec.n, self.n, "this requirement", "the specification")
        return self.holds(spec.to_int())


def _label_set(unions: Sequence[int], inside: Sequence[int], i: int, j: int) -> int:
    """Bitmask of U(g, c, d) for groups i and j: the pair is distillable exactly when all of it is 1."""
    separating = inside[i] ^ inside[j]
    return sum(1 << (u - 1) for s, u in enumerate(unions) if separating >> s & 1)


def _compile(
    n: int,
    activate: Iterable[tuple[Grouping, set[int], set[int]]],
    silent: Iterable[Grouping],
    zero_labels: Iterable[int] = (),
) -> Clauses:
    """Compile demanded and forbidden pair verdicts to Clauses.

    Every (g, c, d) in `activate` must be distillable, no pair of any
    grouping in `silent` may be, and every label in `zero_labels` is 0.
    A demanded pair puts its whole label set into `ones`; a forbidden
    pair needs some label of its set to be 0.  A non-empty `ones` also
    makes the pattern entangled, so that needs no clause of its own.
    """
    ones = 0
    for grouping, c, d in activate:
        i, j = _resolve_pair(n, grouping, c, d)
        ones |= _label_set(*_union_table(grouping.masks), i, j)
    zeros = [1 << (m - 1) for m in zero_labels]
    for grouping in silent:
        _check_same_n(n, grouping.n, "grouping", "the input")
        unions, inside = _union_table(grouping.masks)
        zeros += [_label_set(unions, inside, i, j) for i, j in combinations(range(len(inside)), 2)]
    assert ones, "a requirement without a demanded activation does not imply entanglement"
    return Clauses(n, ones, tuple(zeros))


def any_two_activation_requirement() -> Clauses:
    """Joining any two of parties 3, 4, 5 must activate the pair (1, 2).

    On top of that the pattern must be entangled yet give no pair at all
    when every party acts alone.  No five-party pattern meets this; the
    interest is in search_specifications certifying the exhaustion.
    """
    joined = [Grouping.with_joined(5, pair) for pair in ((3, 4), (3, 5), (4, 5))]
    return _compile(
        5, activate=[(g, {1}, {2}) for g in joined], silent=[Grouping.all_separate(5)]
    )


def example_vii_requirement() -> Clauses:
    """Pin of the five-party activation pattern in the catalog.

    Behavior: entangled, nothing distillable with all parties separate,
    joining {3,4} or {3,5} activates the pair (1,2), while joining
    {4,5} activates nothing.  Structure: splittings that keep parties 1
    and 2 on the same side stay separable.  Run through
    search_specifications this recovers the catalog pattern VII.
    """
    joined = [Grouping.with_joined(5, pair) for pair in ((3, 4), (3, 5))]
    return _compile(
        5,
        activate=[(g, {1}, {2}) for g in joined],
        silent=[Grouping.all_separate(5), Grouping.with_joined(5, (4, 5))],
        zero_labels=[m for m in range(1, 16) if (m & 1) == (m >> 1 & 1)],
    )


BUILTIN_REQUIREMENTS: dict[str, Callable[[], Clauses]] = {
    "any-two": any_two_activation_requirement,
    "example-vii": example_vii_requirement,
}


def search_specifications(
    n: int, requirement: Requirement, max_n: int = 5
) -> Specification | None:
    """First specification, in descending integer order, meeting the requirement.

    Enumerates every 0/1 assignment over the 2**(n-1) - 1 labels
    starting from all-ones, so the first hit concedes separability on as
    few splittings as possible.  Returns None when the requirement is
    unsatisfiable.  Compiled Clauses are tested on the bare integers;
    any other requirement is called on each candidate Specification.
    The candidate count doubles with every label, hence the guard;
    raising max_n past 5 is the caller's own risk.
    """
    _check_size(n, 2, "search")
    _check_size(max_n, 2, "search", "max_n")
    if isinstance(requirement, Clauses):
        _check_same_n(n, requirement.n, "this requirement", "the search")
        test = requirement.holds
    else:
        def test(value: int) -> bool:
            return requirement(Specification.from_int(n, value))
    if n > max_n:
        raise ValueError(f"searching n={_number_text(n)} means 2**{_largest_label(n)} candidates; "
                         f"pass max_n={_number_text(n)} to confirm")
    for value in range((1 << ((1 << (n - 1)) - 1)) - 1, -1, -1):
        if test(value):
            return Specification.from_int(n, value)
    return None
