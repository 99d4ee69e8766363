"""Coefficient-level protocol operations.

Every operation here maps family states to family states, down to the
final two-party outcome, while tracking exactly how the coefficients and
the corner gap move.  Each move is one private function on a tuple of
label values (`_joined`, `_relabeled`, `_merged`, `_powered`, and
`_power` for the least power a measurement needs).  The public moves
wrap them for a `FamilyState`, and `distill_pipeline` runs them on the
state's ratios to its half-gap (`_ratios` on the way in, `_state` for
each step's physical state), so the gap itself, which float corners lose
once amplified separable labels are absorbed into both, is never formed.
The dense replay of each operation on full density matrices and an exact
replay of the pipeline on rationals live with the tests, in
`tests/reference.py`, so the routes can be compared there.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from operator import add
from typing import Callable, Iterable

from .analysis import distillation_witness
from .model import (FamilyState, Grouping, Splitting, _check_order, _check_party,
                    _check_party_set, _check_same_n, _Kept, _party_text, _value_text,
                    party_bitmask)

# The index tables of the moves by (builder, n, key): arrays of 4-byte indices that depend
# only on small integers, so each is built once and kept, up to 2^18 (1 MiB) in all.
_tables = _Kept(1 << 18)


def _table(build: Callable[[int, object], Iterable[int]], n: int, key: object) -> array:
    """The index table build(n, key), from the cache when it is there."""
    table = _tables.get((build, n, key))
    if table is None:
        table = array("I", build(n, key))
        _tables.keep((build, n, key), table, len(table))
    return table


class DegenerateStateError(ValueError):
    """A state has no corner gap, or a ratio to it leaves the float range."""


def _ratios(state: FamilyState) -> tuple[float, tuple[float, ...]]:
    """The state's weights over its half-gap h: lam0_minus's, then each label's as in `lam`.

    The even corner's ratio is lam0_minus's plus 2.  For every float v >= 0
    and h > 0, v / h < 1.0 exactly when v < h, so the label ratios show
    the indicators of `FamilyState._indicators`.  With no gap every ratio
    is infinite, and every label separable.
    """
    half = 0.5 * state.delta
    if not half > 0.0:
        return math.inf, (math.inf,) * len(state.lam)
    return state.lam0_minus / half, tuple([v / half for v in state.lam])


def _largest(odd: float, ratios: tuple[float, ...]) -> int:
    """The label of the largest ratio, 0 for the odd corner: the first to leave the float range."""
    top = max(ratios)
    return ratios.index(top) + 1 if top > odd else 0


def _state(n: int, odd: float, ratios: tuple[float, ...]) -> FamilyState:
    """The normalized state whose odd corner and labels weigh `odd` and `ratios` half-gaps."""
    try:
        return FamilyState.from_unnormalized(n, odd + 2.0, odd, ratios)
    except ValueError:  # the weights sum past the float range
        raise DegenerateStateError("the ratios to the half-gap sum past the float range, "
                                   f"the largest at label {_largest(odd, ratios)}") from None


def _powered(odd: float, ratios: tuple[float, ...], m: int) -> tuple[float, tuple[float, ...]]:
    """The odd corner's and every label's ratio to the m-th power, the half-gap staying 1."""
    try:
        return odd ** m, tuple([v ** m for v in ratios])
    except OverflowError:
        raise DegenerateStateError(f"power {m} takes the ratio of label {_largest(odd, ratios)} "
                                   "past the float range") from None


def amplify(state: FamilyState, m: int) -> FamilyState:
    """Raise every coefficient-to-gap ratio to the m-th power.

    Models m rounds of the gap-preserving local filter: coefficients and
    the half-gap all become their m-th powers before renormalizing, so a
    ratio r to the threshold turns into r**m.  Indicators are unchanged
    while margins widen, which is what makes helper measurements safe.
    """
    if type(m) is not int or m < 1:
        raise ValueError(f"amplification power must be a positive integer, got {_value_text(m)}")
    if m == 1:
        return state
    if not state.delta > 0.0:
        raise DegenerateStateError("amplification needs a positive corner gap")
    return _state(state.n, *_powered(*_ratios(state), m))


def _check_measurable(state: FamilyState, party: int) -> None:
    if state.n < 3:
        raise ValueError("measuring a party out needs at least three parties")
    if _check_party(party, state.n) == state.n:
        raise ValueError(
            f"party {state.n} anchors the labeling and cannot be measured out; "
            "relabel with permute_parties first"
        )


def _low_parents(n: int, party: int) -> list[int]:
    """The lam index of parent 0 of each child label left by measuring `party`.

    Parent 0 of child label k is the k-th label with the bit of `party`
    clear, and parent 1 is that label with the bit set, so its lam index
    is parent 0's plus that bit.
    """
    bit = 1 << (party - 1)
    return [z - 1 for z in range(1, 1 << (n - 1)) if not z & bit]


def _power(n: int, values: tuple[float, ...], party: int) -> int:
    """The least m with a**m + b**m < 1 for the ratios a, b of every two distillable parents.

    `values` are ratios to the half-gap, each label's as in `lam`.  The
    sum is exactly the child's ratio after `_powered` and `_merged`, so
    one expression decides the power and the child's indicator.  It falls
    as m grows and is below 1 once max(a, b)**m < 1/2, so m is found by
    bisection under log(1/2) / log(max(a, b)), with no cap.
    """
    bit = 1 << (party - 1)
    low = _table(_low_parents, n, party)
    pairs = [(a, b) for a, b in zip(map(values.__getitem__, low), map(values[bit:].__getitem__, low))
             if a < 1.0 and b < 1.0]

    def fits(m: int) -> bool:
        return all(a ** m + b ** m < 1.0 for a, b in pairs)

    if fits(1):
        return 1
    lo, hi = 1, int(math.log(0.5) / math.log(max(map(max, pairs)))) + 1
    while not fits(hi):  # rounding may leave the bound a step short
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if fits(mid) else (mid, hi)
    return hi


def required_amplification(state: FamilyState, party: int) -> int:
    """Smallest power letting the merge after measuring `party` keep its indicators.

    Measuring merges the two parent coefficients of every child label by
    addition.  When both parents are distillable (indicator 1) their sum
    may still land above the half-gap; powering first shrinks sub-threshold
    ratios fast enough that some finite power always works.  The power is
    decided on the ratios to the half-gap (`_power`), as in distill_pipeline.
    """
    _check_measurable(state, party)
    return _power(state.n, _ratios(state)[1], party)


def _merged(n: int, values: tuple[float, ...], party: int) -> tuple[float, tuple[float, ...]]:
    """The value of the label isolating `party`, and each child's sum of its two parents."""
    bit = 1 << (party - 1)
    low = _table(_low_parents, n, party)
    # parent 1 of each child sits `bit` places after parent 0
    return values[bit - 1], tuple(map(add, map(values.__getitem__, low),
                                      map(values[bit:].__getitem__, low)))


def measure_out_party(state: FamilyState, party: int) -> FamilyState:
    """Measure one non-anchor party in the balanced basis, keep the even outcome.

    The surviving parties close ranks: labels above `party` shift down
    one position.  Each child coefficient is the sum of its two parents,
    and both corner weights absorb the coefficient of the label that
    isolated the measured party, so the corner gap and the total weight
    are preserved exactly; no renormalization happens.  The merge is
    exact and does no amplification: to keep children of two
    distillable parents distillable, amplify by required_amplification
    first, as distill_pipeline does.  The parent indices are one table
    per (n, party), shared with required_amplification and kept in
    `_tables`, the moves' index cache.
    """
    _check_measurable(state, party)
    absorbed, merged = _merged(state.n, state.lam, party)
    return FamilyState(state.n - 1, state.lam0_plus + absorbed, state.lam0_minus + absorbed, merged)


def _join_sources(n: int, gmask: int) -> list[int]:
    """The lam index each label reads under the join of `gmask`.

    A label the group does not straddle reads its own; one it straddles
    reads one past the end, where `_joined` puts a zero.
    """
    full = (1 << n) - 1
    end = (1 << (n - 1)) - 1
    return [end if gmask & label and gmask & (full ^ label) else label - 1
            for label in range(1, end + 1)]


def _joined(n: int, values: tuple[float, ...], gmask: int) -> tuple[float, ...]:
    """The label values with every label the group `gmask` straddles set to 0."""
    padded = values + (0.0,)
    return tuple(map(padded.__getitem__, _table(_join_sources, n, gmask)))


def join_povm(state: FamilyState, parties: Iterable[int]) -> FamilyState:
    """Let a group of parties act as one unit by projecting it onto its all-0/all-1 span.

    The projector keeps exactly the basis patterns on which every member
    agrees, so every label the group straddles drops to exactly 0 and
    the rest, corners included, keep their coefficients before
    renormalizing.  A group member measured later therefore merges each
    label with a zero, and only the group's last member needs
    amplification.  Which labels the group straddles is one table per
    (n, group mask), kept in `_tables`.
    """
    gmask = party_bitmask(_check_party_set(state.n, parties, "group"))
    if gmask.bit_count() < 2:
        raise ValueError("joining needs at least two parties")
    return FamilyState.from_unnormalized(state.n, state.lam0_plus, state.lam0_minus,
                                         _joined(state.n, state.lam, gmask))


def project_to_effective_pair(state: FamilyState, split: Splitting) -> FamilyState:
    """Collapse a splitting to its effective two-party state.

    Each side projects onto the span of its all-zero and all-one
    patterns.  Only the corner pair and the pair labeled by the
    splitting survive, which leaves a two-party family state.  Like
    measure_out_party's result it is unnormalized, and its one label is
    distillable exactly when the splitting is.
    """
    _check_same_n(state.n, split.n, "splitting", "state")
    return FamilyState(2, state.lam0_plus, state.lam0_minus, (state.coefficient(split.mask),))


def _relabel_sources(n: int, order: tuple[int, ...]) -> list[int]:
    """The old lam index of each new label under `order`."""
    full, anchor = (1 << n) - 1, 1 << (n - 1)
    # patterns[label] is the old pattern of a new label, built a party at a time
    patterns = [0]
    for q in order[:-1]:
        patterns += [p | 1 << (q - 1) for p in patterns]
    return [(p ^ full if p & anchor else p) - 1 for p in patterns[1:]]


def _relabeled(n: int, values: tuple[float, ...], order: tuple[int, ...]) -> tuple[float, ...]:
    """The label values under the relabeling `order`."""
    return tuple(map(values.__getitem__, _table(_relabel_sources, n, order)))


def permute_parties(state: FamilyState, order: Iterable[int]) -> FamilyState:
    """Relabel parties so that new party i is old party order[i-1].

    Pure bookkeeping.  Whenever a relabeled pattern puts the anchor
    party on the wrong side the whole pattern is complemented; that maps
    basis pairs to basis pairs and leaves the corner weights in place.
    The old label of each new label is one table per (n, order), kept
    in `_tables`.
    """
    lam = _relabeled(state.n, state.lam, _check_order(state.n, order))
    return FamilyState(state.n, state.lam0_plus, state.lam0_minus, lam)


@dataclass(frozen=True, slots=True)
class PipelineStep:
    """One stage of a distillation run, with the state it produced.

    `ratios` are what the run carries: each label's weight over the
    half-gap, label k's at index k - 1 as in `state.lam`, or None on the
    one step of a run the verdict stops.  `state` is the normalized state
    they describe (the input itself on the start step).
    """

    kind: str
    note: str
    state: FamilyState
    ratios: tuple[float, ...] | None = None
    party: int | None = None
    amplification: int | None = None
    order: tuple[int, ...] | None = None
    parties: tuple[int, ...] | None = None

    @property
    def digest(self) -> str:
        """The indicator vector the ratios show as a 0/1 string, label 1 first.

        A run the verdict stops converts nothing, so its one step reads
        the ratios of its state here.
        """
        ratios = _ratios(self.state)[1] if self.ratios is None else self.ratios
        return "".join(["1" if r < 1.0 else "0" for r in ratios])


@dataclass(frozen=True, slots=True)
class PipelineTrace:
    """Full record of one pipeline run."""

    grouping: Grouping
    c: frozenset[int]
    d: frozenset[int]
    succeeded: bool
    steps: tuple[PipelineStep, ...]
    witness: Splitting | None
    outcome: FamilyState | None
    final_split: Splitting | None

    @property
    def precision_limited(self) -> bool:
        """True when some step's float state shows other indicators than its ratios.

        The corners of an amplified state can be too close for floats to
        hold the gap between them; the run's verdict, read off the
        ratios, stands, but `outcome.indicator(1)` may then disagree.
        """
        return any(s.digest != "".join(map(str, s.state.indicator_vector())) for s in self.steps)


def distill_pipeline(state: FamilyState, grouping: Grouping, c, d) -> PipelineTrace:
    """Run the activation protocol for one pair of groups, end to end.

    Order of play: check the splitting-level verdict (bailing out with
    the lowest blocking splitting), project every multi-party group onto
    its all-0/all-1 span, relabel so the anchor party sits in c, measure
    the helper parties out from the highest label down, each after the
    least amplification that keeps its children's indicators, then
    collapse the remaining c-d splitting to its effective pair.  Every
    move runs on the ratios to the half-gap, which the moves leave at 1,
    and `succeeded` reads the final pair's ratio.  Whenever the verdict
    holds this ends in a distillable pair.  The moves act on weights, so
    a Specification is refused: `from_specification` realizes one.
    """
    if not isinstance(state, FamilyState):
        raise ValueError(f"the protocol runs on a FamilyState, got {type(state).__name__}; "
                         "realize a Specification with from_specification first")
    cset = frozenset(c)
    dset = frozenset(d)
    note = f"input state on {state.n} parties"
    witness = distillation_witness(state, grouping, cset, dset)
    if witness is not None:
        return PipelineTrace(grouping, cset, dset, False, (PipelineStep("start", note, state),),
                             witness, None, None)
    odd, ratios = _ratios(state)
    steps = [PipelineStep("start", note, state, ratios)]

    n = state.n
    for g in grouping.groups:
        if len(g) < 2:
            continue
        ratios = _joined(n, ratios, party_bitmask(g))
        steps.append(PipelineStep("join", f"joint filter on parties {_party_text(g)}",
                                  _state(n, odd, ratios), ratios, parties=tuple(sorted(g))))

    order = tuple(range(1, n + 1))
    if n not in cset:
        low = min(cset)
        order = tuple(n if q == low else low if q == n else q for q in order)
        ratios = _relabeled(n, ratios, order)
        steps.append(PipelineStep("permute", f"swapped parties {low} and {n} so the anchor sits in c",
                                  _state(n, odd, ratios), ratios, order=order))

    # order swaps two parties, so it also maps each old party to its new one
    kept = sorted(order[q - 1] for q in cset | dset)
    for helper in [q for q in range(n, 0, -1) if q not in kept]:
        power = _power(n, ratios, helper)
        if power > 1:
            try:
                odd, ratios = _powered(odd, ratios, power)
            except DegenerateStateError as exc:
                raise DegenerateStateError(f"measuring party {helper} out: {exc}") from None
        absorbed, ratios = _merged(n, ratios, helper)
        odd += absorbed
        n -= 1
        steps.append(PipelineStep("measure", f"measured helper {helper} out (amplification {power})",
                                  _state(n, odd, ratios), ratios, party=helper, amplification=power))

    # the survivors close ranks, so each keeps its rank among them as its label
    dnew = {order[q - 1] for q in dset}
    final_split = Splitting(n, party_bitmask(rank for rank, q in enumerate(kept, start=1) if q in dnew))
    cur = steps[-1].state
    outcome = project_to_effective_pair(cur, final_split)
    steps.append(PipelineStep("project", f"collapsed the pair across {final_split}", cur, ratios))
    return PipelineTrace(grouping, cset, dset, ratios[final_split.mask - 1] < 1.0, tuple(steps),
                         None, outcome, final_split)
