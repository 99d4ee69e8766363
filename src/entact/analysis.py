"""Grouping verdicts and searches over indicator specifications.

The central question: given a partition of the parties into cooperating
groups, can groups c and d end up with a distillable pair between them?
The answer needs only the indicator vector.  A splitting blocks the pair
when it puts c opposite d, carries indicator 0, and is straddled by no
group; the pair is distillable exactly when no splitting blocks it.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Iterator, Sequence

from .model import (
    FamilyState,
    Grouping,
    Specification,
    Splitting,
    party_bitmask,
)


def _subset_unions(masks: Sequence[int]) -> list[int]:
    """Union of every subset of `masks`: entry s joins masks[i] for each bit i of s."""
    unions = [0]
    for g in masks:
        unions += [u | g for u in unions]
    return unions


def _separating_labels(
    n: int, group_masks: Sequence[int], cmask: int, dmask: int
) -> list[int]:
    """Labels of the splittings that separate c from d and no group straddles.

    Such a splitting has a union of groups on each side, so the labels
    are exactly side B = whichever of c, d lacks party n (either, when
    neither holds it) joined with any union of the other groups lacking
    party n: 2^(k-2) distinct labels for k groups.
    """
    ref = 1 << (n - 1)
    others = [g for g in group_masks if g != cmask and g != dmask and not g & ref]
    unions = _subset_unions(others)
    return [m | u for m in (cmask, dmask) if not m & ref for u in unions]


def _verdict(
    n: int,
    indicator: Sequence[int],
    group_masks: Sequence[int],
    cmask: int,
    dmask: int,
) -> tuple[bool, int | None]:
    """Core decision; returns (ok, lowest blocking label or None)."""
    labels = _separating_labels(n, group_masks, cmask, dmask)
    blocking = [m for m in labels if not indicator[m - 1]]
    return (False, min(blocking)) if blocking else (True, None)


def _grouping_masks(grouping: Grouping) -> tuple[int, ...]:
    return tuple(party_bitmask(g) for g in grouping.groups)


def _check_grouping(n: int, grouping: Grouping) -> None:
    if grouping.n != n:
        raise ValueError(f"grouping is for n={grouping.n}, the input has n={n}")


def _resolve_pair(n: int, grouping: Grouping, c, d) -> tuple[frozenset[int], frozenset[int]]:
    _check_grouping(n, grouping)
    cset = frozenset(c)
    dset = frozenset(d)
    for name, s in (("c", cset), ("d", dset)):
        if s not in grouping.groups:
            raise ValueError(f"{name}={sorted(s)} is not a group of {grouping}")
    if cset == dset:
        raise ValueError(
            f"c and d are the same group {','.join(map(str, sorted(cset)))}; "
            "a pair needs two different groups"
        )
    return cset, dset


def _pair_verdict(
    state: FamilyState | Specification, grouping: Grouping, c, d
) -> tuple[bool, int | None]:
    cset, dset = _resolve_pair(state.n, grouping, c, d)
    return _verdict(
        state.n,
        state.indicator_vector(),
        _grouping_masks(grouping),
        party_bitmask(cset),
        party_bitmask(dset),
    )


def necessary_distillable(state: FamilyState | Specification, grouping: Grouping, c, d) -> bool:
    """Can groups c and d of `grouping` distill a pair between them?

    True when every splitting separating c from d is either distillable
    itself or straddled by some group of the grouping.  The condition is
    clearly necessary; for this family the protocol layer realizes it,
    so it is the exact answer.  It depends on the indicator vector
    alone, so a Specification gives the verdict of every state that
    realizes it.
    """
    return _pair_verdict(state, grouping, c, d)[0]


def distillation_witness(
    state: FamilyState | Specification, grouping: Grouping, c, d
) -> Splitting | None:
    """Lowest-label splitting blocking the pair, or None when none does.

    Like every verdict, it reads the indicator vector alone.
    """
    _, label = _pair_verdict(state, grouping, c, d)
    return None if label is None else Splitting(state.n, label)


@dataclass(frozen=True)
class PairVerdict:
    """Verdict for one unordered pair of groups."""

    c: frozenset[int]
    d: frozenset[int]
    distillable: bool
    witness: Splitting | None


@dataclass(frozen=True)
class GroupingReport:
    """All pair verdicts under one grouping plus the best joint collection."""

    grouping: Grouping
    pairs: tuple[PairVerdict, ...]
    ghz: tuple[frozenset[int], ...]

    @property
    def any_distillable(self) -> bool:
        return any(p.distillable for p in self.pairs)

    def pair(self, c, d) -> PairVerdict:
        cset, dset = _resolve_pair(self.grouping.n, self.grouping, c, d)
        return next(pv for pv in self.pairs if {pv.c, pv.d} == {cset, dset})


def _pair_labels(
    n: int, indicator: Sequence[int], group_masks: Sequence[int]
) -> list[int]:
    """Lowest blocking label of every pair of groups, from one pass over the unions of groups.

    The splittings no group straddles are the unions of the groups that
    lack party n.  Union s joins the groups at the bits of s; with those
    groups in ascending mask order its label grows with s, since disjoint
    masks compare by their highest party.  One pass over s collects the
    zero unions as the bits of `zero`, lowest label first.  A zero union
    blocks each pair with exactly one group inside it, so a pair's lowest
    blocking label, the one `_verdict` finds, sits at the lowest bit of
    zero & (inside[i] ^ inside[j]).  Returns that label, or 0 when the
    pair distills, for each pair (i, j), i < j, in order.
    """
    ref = 1 << (n - 1)
    k = len(group_masks)
    free = sorted((i for i in range(k) if not group_masks[i] & ref), key=group_masks.__getitem__)
    unions = _subset_unions([group_masks[i] for i in free])
    width = len(unions)
    zero = 0
    for s in range(1, width):
        if not indicator[unions[s] - 1]:
            zero |= 1 << s
    # inside[i] has bit s set when union s holds group i, the one at position
    # p of free: alternating runs of 2^p clear and 2^p set bits
    inside = [0] * k
    for p, i in enumerate(free):
        run = 1 << p
        inside[i] = ((1 << width) - 1) // ((1 << 2 * run) - 1) * (((1 << run) - 1) << run)
    labels = []
    for i in range(k):
        row = zero & inside[i]
        for j in range(i + 1, k):
            blockers = row ^ zero & inside[j]
            labels.append(unions[(blockers & -blockers).bit_length() - 1] if blockers else 0)
    return labels


def _largest_clique(adj: Sequence[int]) -> int:
    """Largest clique of the graph with neighbour rows `adj`, smallest on ties.

    clique[sub] holds when sub minus its lowest member is a clique all
    adjacent to that member; the first sub of each new size wins.
    """
    if not any(adj):
        return 1
    clique = bytearray(1 << len(adj))
    clique[0] = 1
    best = best_size = 0
    for sub in range(1, 1 << len(adj)):
        low = sub & -sub
        rest = sub ^ low
        if clique[rest] and not rest & ~adj[low.bit_length() - 1]:
            clique[sub] = 1
            size = sub.bit_count()
            if size > best_size:
                best, best_size = sub, size
    return best


def grouping_report(state: FamilyState | Specification, grouping: Grouping) -> GroupingReport:
    """Verdict for every pair of groups, plus the largest GHZ-capable clique.

    A collection of groups can share a GHZ-type state exactly when every
    pair in the collection is distillable, so the `ghz` field is the
    largest clique in the pair graph (smallest such clique on ties).
    The report depends on the indicator vector alone, as every verdict
    does.
    """
    _check_grouping(state.n, grouping)
    groups = grouping.groups
    k = len(groups)
    labels = _pair_labels(state.n, state.indicator_vector(), _grouping_masks(grouping))
    splits: dict[int, Splitting | None] = {0: None}
    pairs = []
    adj = [0] * k
    for (i, j), label in zip(combinations(range(k), 2), labels):
        if label not in splits:
            splits[label] = Splitting(state.n, label)
        pairs.append(PairVerdict(groups[i], groups[j], not label, splits[label]))
        if not label:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    best = _largest_clique(adj)
    ghz = tuple(groups[i] for i in range(k) if best >> i & 1)
    return GroupingReport(grouping, tuple(pairs), ghz)


def iter_set_partitions(n: int, blocks: int | None = None) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All partitions of {1..n} in restricted-growth order, first-member blocks first.

    With `blocks` set, only partitions with exactly that many blocks.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if blocks is not None and blocks < 1:
        raise ValueError("blocks must be at least 1")
    if blocks is not None and blocks > n:
        return
    # a[i] is the block of party i + 1 and top[i] the largest of a[:i + 1];
    # no digit rises past blocks - 1, since that partition has too many blocks
    cap = n if blocks is None else blocks
    a = [0] * n
    top = [0] * n
    while True:
        count = top[-1] + 1
        if blocks is None or count == blocks:
            sets: list[list[int]] = [[] for _ in range(count)]
            for idx, block in enumerate(a):
                sets[block].append(idx + 1)
            yield tuple(tuple(s) for s in sets)
        i = n - 1
        while i > 0 and (a[i] > top[i - 1] or a[i] + 1 >= cap):
            i -= 1
        if i == 0:
            return
        a[i] += 1
        t = max(top[i - 1], a[i])
        top[i:] = [t] * (n - i)
        a[i + 1:] = [0] * (n - i - 1)


def classify_groupings(
    state: FamilyState | Specification, *, guard: int = 10, two_groups_only: bool = False
) -> Iterator[GroupingReport]:
    """Report every grouping of the parties (or every two-group split).

    The reports read the indicator vector alone.  The number of set
    partitions grows very fast, hence the guard on the party count;
    raise it knowingly.
    """
    if state.n > guard:
        raise ValueError(
            f"sweeping all groupings of {state.n} parties is a large enumeration; "
            f"pass guard={state.n} to confirm"
        )
    blocks = 2 if two_groups_only else None
    for part in iter_set_partitions(state.n, blocks):
        yield grouping_report(state, Grouping.from_sets(state.n, part))


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
        self._check_n(spec.n)
        return self.holds(spec.to_int())

    def _check_n(self, n: int) -> None:
        if n != self.n:
            raise ValueError(f"this requirement is defined for n={self.n}, not n={n}")


def _label_set(n: int, group_masks: Sequence[int], cmask: int, dmask: int) -> int:
    """Bitmask of U(g, c, d): the pair is distillable exactly when all of it is 1."""
    out = 0
    for m in _separating_labels(n, group_masks, cmask, dmask):
        out |= 1 << (m - 1)
    return out


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
        cset, dset = _resolve_pair(n, grouping, c, d)
        masks = _grouping_masks(grouping)
        ones |= _label_set(n, masks, party_bitmask(cset), party_bitmask(dset))
    zeros = [1 << (m - 1) for m in zero_labels]
    for grouping in silent:
        _check_grouping(n, grouping)
        masks = _grouping_masks(grouping)
        zeros += [_label_set(n, masks, a, b) for a, b in combinations(masks, 2)]
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
    if n < 2:
        raise ValueError("n must be at least 2")
    if isinstance(requirement, Clauses):
        requirement._check_n(n)
        test = requirement.holds
    else:
        def test(value: int) -> bool:
            return requirement(Specification.from_int(n, value))
    if n > max_n:
        labels = (1 << (n - 1)) - 1
        raise ValueError(
            f"searching n={n} means 2**{labels} candidates; pass max_n={n} to confirm"
        )
    for value in range((1 << ((1 << (n - 1)) - 1)) - 1, -1, -1):
        if test(value):
            return Specification.from_int(n, value)
    return None
