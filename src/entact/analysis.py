"""Grouping verdicts and searches over indicator specifications.

The central question: given a partition of the parties into cooperating
groups, can groups c and d end up with a distillable pair between them?
The answer needs only the indicator vector.  A splitting blocks the pair
when it puts c opposite d, carries indicator 0, and is straddled by no
group; the pair is distillable exactly when no splitting blocks it.

Every verdict is bit arithmetic on label masks in the layout of
`Specification.to_int`, bit m - 1 for label m.  The splittings no group
straddles are the unions of the groups lacking party n, and each
Grouping keeps, per group, the mask of those that hold it
(`model._holding_labels`).  A union separates two groups exactly when it
holds one of them, so groups i and j are separated by the labels in
holds[i] ^ holds[j]; the state enters as one mask of its indicator-0
labels, `_zero_labels`.  `grouping_report`, the single-pair verdicts and
the clauses of `_compile` all read those masks.  A sweep reads one set
of masks per partition of parties 1..n-1, that of the grouping with
party n alone, and shares it across the placements of party n: when
party n joins group i, the grouping's unions are those without group i,
so masking out the labels that hold group i gives its signatures.
The Groupings of those placements, a head of them per partition, depend
on n alone: they form the sweep's skeleton, which `_sweep` keeps in
`_skeletons` for every later full sweep of at most `_KEPT_PARTIES` (8)
parties.  Groups distill exactly when the same indicator-0 labels hold
both: distillability within a grouping is an equivalence, whose classes
are the GHZ-capable collections.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Iterator, Sequence

from .model import (_KEPT_PARTIES, FamilyState, Grouping, Specification, Splitting, _check_party,
                    _check_same_n, _check_size, _largest_label, _number_text, _parties_text,
                    _party_text)

# Verdict objects of one sweep, shared by all its reports: the Splitting of
# each label and the PairVerdict of each (c mask, d mask, label).
_Memo = tuple[dict[int, Splitting], dict[tuple[int, int, int], "PairVerdict"]]

_SWEEP_GUARD = 10  # the largest party count a sweep takes unless asked for more

# Verdicts a sweep's memo holds before it starts afresh (the largest n = 8 sweep seen: 8,231).
_MEMO_CAP = 1 << 14

# The skeletons of past full sweeps of at most _KEPT_PARTIES parties, by n: per head, the
# Groupings of party n joining each group of a partition of parties 1..n-1, then standing alone.
_skeletons: dict[int, list[tuple[Grouping, ...]]] = {}


def _zero_labels(state: FamilyState | Specification) -> int:
    """Bitmask of the labels with indicator 0: the splittings that can block a pair."""
    # one binary digit per label, the highest first: 1 where the indicator is 0
    return int("".join(["0" if v else "1" for v in reversed(state.indicator_vector())]), 2)


def _resolve_pair(n: int, grouping: Grouping, c, d) -> tuple[int, int]:
    """Indices of groups c and d in `grouping`."""
    _check_same_n(n, grouping.n, "grouping", "the input")
    groups = grouping.groups
    # each member is checked before it is hashed: True or 2.0 would find group {1} or {2}
    cset = frozenset(map(_check_party, c))
    dset = frozenset(map(_check_party, d))
    found = []
    for name, s in (("c", cset), ("d", dset)):
        try:
            found.append(groups.index(s))
        except ValueError:
            raise ValueError(f"{name}={_parties_text(s)} is not a group of {grouping}") from None
    if found[0] == found[1]:
        raise ValueError(f"c and d are the same group {_party_text(cset)}; "
                         "a pair needs two different groups")
    return found[0], found[1]


def _pair_label(state: FamilyState | Specification, grouping: Grouping, c, d) -> int:
    """Lowest label blocking groups c and d, or 0 when the pair distills.

    Reads the separating labels, holds[i] ^ holds[j], lowest first and
    stops at the first with indicator 0.
    """
    i, j = _resolve_pair(state.n, grouping, c, d)
    holds = grouping._holds
    indicator = state.indicator_vector()
    separating = holds[i] ^ holds[j]
    while separating:
        low = separating & -separating
        label = low.bit_length()
        if not indicator[label - 1]:
            return label
        separating ^= low
    return 0


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


@dataclass(frozen=True, slots=True)
class PairVerdict:
    """Verdict for one unordered pair of groups."""

    c: frozenset[int]
    d: frozenset[int]
    distillable: bool
    witness: Splitting | None


@dataclass(frozen=True, slots=True)
class GroupingReport:
    """Pair verdicts of one grouping, an equivalence on its groups, and `ghz`, its largest class."""

    grouping: Grouping
    pairs: tuple[PairVerdict, ...]
    ghz: tuple[frozenset[int], ...]

    @property
    def any_distillable(self) -> bool:
        return any(p.distillable for p in self.pairs)

    def pair(self, c, d) -> PairVerdict:
        i, j = sorted(_resolve_pair(self.grouping.n, self.grouping, c, d))
        k = len(self.grouping.groups)  # pairs run in combinations(range(k), 2) order
        return self.pairs[i * (2 * k - i - 1) // 2 + j - i - 1]


def _report(
    grouping: Grouping, sig: Sequence[int], index_pairs: Iterable[tuple[int, int]], memo: _Memo,
) -> GroupingReport:
    """The report of `grouping` from the signatures of its groups.

    sig[i] is the mask of the indicator-0 labels holding group i, bit
    m - 1 for label m; `index_pairs` are the pairs (i, j), i < j, of its
    groups in order.  Groups i and j are blocked by the lowest label
    where their signatures differ, 0 when none does.  The memo's
    Splitting and PairVerdict objects are reused and extended.
    """
    groups = grouping.groups
    masks = grouping.masks
    splits, verdicts = memo
    pairs = []
    linked = False
    for i, j in index_pairs:
        blockers = sig[i] ^ sig[j]
        label = (blockers & -blockers).bit_length()
        key = (masks[i], masks[j], label)
        pv = verdicts.get(key)
        if pv is None:
            if label not in splits:
                splits[label] = Splitting(grouping.n, label)
            pv = verdicts[key] = PairVerdict(groups[i], groups[j], not label, splits[label])
        pairs.append(pv)
        linked = linked or not label
    if not linked:
        return GroupingReport(grouping, tuple(pairs), groups[:1])
    classes: dict[int, int] = {}
    for i, s in enumerate(sig):
        classes[s] = classes.get(s, 0) | 1 << i
    best = min(classes.values(), key=lambda c: (-c.bit_count(), c))
    ghz = tuple(g for i, g in enumerate(groups) if best >> i & 1)
    return GroupingReport(grouping, tuple(pairs), ghz)


def grouping_report(state: FamilyState | Specification, grouping: Grouping) -> GroupingReport:
    """Verdict for every pair of groups, plus the largest GHZ-capable collection.

    Groups i and j distill exactly when their signatures, the
    indicator-0 labels holding each, are equal, so the groups whose
    pairs all distill, which can share a GHZ-type state, are the classes
    of equal signatures, and `ghz` is the largest class (on ties, the one
    with the lowest group-index bitmask).  The report depends on the
    indicator vector alone, as every verdict does.
    """
    _check_same_n(state.n, grouping.n, "grouping", "the input")
    return next(_reports(state, (grouping,)))


def _reports(
    state: FamilyState | Specification, groupings: Iterable[Grouping]
) -> Iterator[GroupingReport]:
    """The report of each grouping, from one zero mask and one memo, reset at `_MEMO_CAP`."""
    zero = _zero_labels(state)
    memo: _Memo = ({0: None}, {})
    for grouping in groupings:
        if len(memo[1]) >= _MEMO_CAP:
            memo = ({0: None}, {})
        sig = [zero & h for h in grouping._holds]
        yield _report(grouping, sig, combinations(range(len(sig)), 2), memo)


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


def _build_skeleton(n: int) -> Iterator[tuple[Grouping, ...]]:
    """The heads of a full sweep of n parties, in restricted-growth order, one at a time.

    Walks the partitions of parties 1..n-1; party n is the last digit of
    the order, so each partition's m + 1 completions follow it: party n
    joins group 0..m-1, then stands alone as group m.  A head is the
    tuple of their Groupings, each validated here, once.
    """
    last = 1 << (n - 1)
    for head in _grow(n - 1, 1, n - 1):
        yield tuple(Grouping.from_masks(n, head[:i] + (head[i] | last,) + head[i + 1:])
                    for i in range(len(head))) + (Grouping.from_masks(n, head + (last,)),)


def _partition_count(n: int, blocks: int | None) -> int:
    """Number of groupings a sweep reports: partitions of n parties, of `blocks` groups if set."""
    row = [1]  # S(m, k) for k = 0..m, from m = 0 up
    for _ in range(n):
        row = [0] + [k * row[k] + row[k - 1] for k in range(1, len(row))] + [1]
    return sum(row) if blocks is None else row[blocks] if blocks < len(row) else 0


def _sweep(state: FamilyState | Specification) -> Iterator[GroupingReport]:
    """Reports of every grouping, in restricted-growth order.

    The skeleton's heads are kept ones, or built whole and kept for at
    most _KEPT_PARTIES parties, else walked.  The state enters only here,
    as one mask of indicator-0 labels per sweep.  A head's label masks
    are those of its last Grouping, party n alone as group m, and serve
    all m + 1 placements.  Its unions are those of the groups lacking
    party n, and no union holds group m; when party n joins group i, the
    grouping's own unions are those without group i, so a placement's
    signatures are those of the head with the labels holding group i
    masked out.  Group i's signature is then 0, as the group of party n
    holds no label.
    """
    n = state.n
    heads = _skeletons.get(n)
    if heads is None:
        heads = _build_skeleton(n)
        if n <= _KEPT_PARTIES:
            heads = _skeletons[n] = list(heads)
    zero = _zero_labels(state)
    pairs = [tuple(combinations(range(k), 2)) for k in range(n + 1)]  # by group count
    memo: _Memo = ({0: None}, {})
    for head in heads:
        *joined, alone = head
        holds = alone._holds
        zero_in = [zero & h for h in holds]  # each group's indicator-0 labels
        m = len(joined)
        if len(memo[1]) >= _MEMO_CAP:
            memo = ({0: None}, {})
        for i, grouping in enumerate(joined):
            out = ~holds[i]
            yield _report(grouping, [out & z for z in zero_in[:m]], pairs[m], memo)
        yield _report(alone, zero_in, pairs[m + 1], memo)


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

    The reports read the indicator vector alone, as one mask of its
    indicator-0 labels per sweep.  A full sweep reads the label masks of
    one grouping per partition of parties 1..n-1, shared by the
    placements of party n; the Groupings of those placements, which
    hold the masks, are its skeleton.  The first full sweep of at most
    `_KEPT_PARTIES` (8) parties builds it whole before its first report
    and keeps it in `_skeletons`, and later sweeps reuse it, so their
    reports hold the same Grouping objects.  Those of 2..8 parties
    together keep 5,294 Groupings in 1.5 MB; a larger skeleton is walked
    on every sweep and never kept.  The reports of one full sweep share
    their immutable PairVerdict and Splitting objects until the memo
    reaches `_MEMO_CAP` verdicts and starts afresh.  A two-group split
    reads the masks of each bipartition's own Grouping, shares one memo
    in the same way, and keeps nothing.  The number of set partitions
    grows very fast, hence the guard on the party count, checked when
    the sweep is asked for; raise it knowingly.
    """
    _check_sweep(state.n, guard)
    if two_groups_only:
        n = state.n
        return _reports(state, (Grouping.from_masks(n, masks) for masks in _grow(n, 2, 2)))
    return _sweep(state)


Requirement = Callable[[Specification], bool]


@dataclass(frozen=True, slots=True)
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


def _compile(
    n: int,
    activate: Iterable[tuple[Grouping, set[int], set[int]]],
    silent: Iterable[Grouping],
    zero_labels: Iterable[int] = (),
) -> Clauses:
    """Compile demanded and forbidden pair verdicts to Clauses.

    Every (g, c, d) in `activate` must be distillable, no pair of any
    grouping in `silent` may be, and every label in `zero_labels` is 0.
    The label set of groups i and j, holds[i] ^ holds[j], is what
    separates them; the pair is distillable exactly when all of it is 1.
    A demanded pair puts its whole label set into `ones`; a forbidden
    pair needs some label of its set to be 0.  A non-empty `ones` also
    makes the pattern entangled, so that needs no clause of its own.
    """
    ones = 0
    for grouping, c, d in activate:
        i, j = _resolve_pair(n, grouping, c, d)
        ones |= grouping._holds[i] ^ grouping._holds[j]
    zeros = [1 << (m - 1) for m in zero_labels]
    for grouping in silent:
        _check_same_n(n, grouping.n, "grouping", "the input")
        zeros += [a ^ b for a, b in combinations(grouping._holds, 2)]
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
        zero_labels=[m for m in range(1, 16) if (s := Splitting(5, m)).bit(1) == s.bit(2)],
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
