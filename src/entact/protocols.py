"""Coefficient-level protocol operations.

Every operation here maps family states to family states, down to the
final two-party outcome, while tracking exactly how the coefficients and
the corner gap move.  The dense replay of each operation on full
density matrices lives with the tests, in `tests/reference.py`, so the
two routes can be compared there.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .analysis import distillation_witness
from .model import (FamilyState, Grouping, Splitting, _check_order, _check_party,
                    _check_party_set, _check_same_n, _party_text, _value_text, party_bitmask)

AMPLIFY_CAP = 64


class DegenerateStateError(ValueError):
    """An operation needed more corner gap than the state provides."""


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
    half = 0.5 * state.delta
    if half <= 0.0:
        raise DegenerateStateError("amplification needs a positive corner gap")
    return FamilyState.from_unnormalized(
        state.n,
        state.lam0_minus ** m + 2.0 * half ** m,
        state.lam0_minus ** m,
        tuple(v ** m for v in state.lam),
    )


def _check_measurable(state: FamilyState, party: int) -> None:
    if state.n < 3:
        raise ValueError("measuring a party out needs at least three parties")
    if _check_party(party, state.n) == state.n:
        raise ValueError(
            f"party {state.n} anchors the labeling and cannot be measured out; "
            "relabel with permute_parties first"
        )


def _parent_pairs(n: int, party: int) -> list[tuple[int, int]]:
    """The lam indices (parent 0, parent 1) of each child label left by measuring `party`.

    Parent 0 of child label k is the k-th label with the bit of `party`
    clear, and parent 1 is that label with the bit set.
    """
    bit = 1 << (party - 1)
    return [(z - 1, z - 1 + bit) for z in range(1, 1 << (n - 1)) if not z & bit]


def required_amplification(state: FamilyState, party: int) -> int:
    """Smallest power letting the merge after measuring `party` keep its indicators.

    Measuring merges the two parent coefficients of every child label by
    addition.  When both parents are distillable (indicator 1) their sum
    may still land above the half-gap; powering first shrinks sub-threshold
    ratios fast enough that some finite power always works.  Searches
    1..AMPLIFY_CAP and raises DegenerateStateError beyond the cap.
    """
    _check_measurable(state, party)
    half = 0.5 * state.delta
    lam, ind = state.lam, state.indicator_vector()
    pairs = [(lam[a], lam[b]) for a, b in _parent_pairs(state.n, party) if ind[a] and ind[b]]
    for m in range(1, AMPLIFY_CAP + 1):
        target = half ** m
        if all(a ** m + b ** m < target for a, b in pairs):
            return m
    raise DegenerateStateError(
        f"coefficients sit too close to the half-gap; no power up to {AMPLIFY_CAP} separates them"
    )


def measure_out_party(state: FamilyState, party: int) -> FamilyState:
    """Measure one non-anchor party in the balanced basis, keep the even outcome.

    The surviving parties close ranks: labels above `party` shift down
    one position.  Each child coefficient is the sum of its two parents,
    and both corner weights absorb the coefficient of the label that
    isolated the measured party, so the corner gap and the total weight
    are preserved exactly; no renormalization happens.  The merge is
    exact and does no amplification: to keep children of two
    distillable parents distillable, amplify by required_amplification
    first, as distill_pipeline does.
    """
    _check_measurable(state, party)
    lam = state.lam
    absorbed = lam[(1 << (party - 1)) - 1]
    merged = tuple([lam[a] + lam[b] for a, b in _parent_pairs(state.n, party)])
    return FamilyState(state.n - 1, state.lam0_plus + absorbed, state.lam0_minus + absorbed, merged)


def join_povm(state: FamilyState, parties: Iterable[int]) -> FamilyState:
    """Let a group of parties act as one unit by projecting it onto its all-0/all-1 span.

    The projector keeps exactly the basis patterns on which every member
    agrees, so every label the group straddles drops to exactly 0 and
    the rest, corners included, keep their coefficients before
    renormalizing.  A group member measured later therefore merges each
    label with a zero, and only the group's last member needs
    amplification.
    """
    gmask = party_bitmask(_check_party_set(state.n, parties, "group"))
    if gmask.bit_count() < 2:
        raise ValueError("joining needs at least two parties")
    full = (1 << state.n) - 1
    lam = tuple(
        0.0 if gmask & label and gmask & (full ^ label) else v
        for label, v in enumerate(state.lam, start=1)
    )
    return FamilyState.from_unnormalized(state.n, state.lam0_plus, state.lam0_minus, lam)


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


def permute_parties(state: FamilyState, order: Iterable[int]) -> FamilyState:
    """Relabel parties so that new party i is old party order[i-1].

    Pure bookkeeping.  Whenever a relabeled pattern puts the anchor
    party on the wrong side the whole pattern is complemented; that maps
    basis pairs to basis pairs and leaves the corner weights in place.
    """
    n = state.n
    order = _check_order(n, order)
    full, anchor = (1 << n) - 1, 1 << (n - 1)
    # patterns[label] is the old pattern of a new label, built a party at a time
    patterns = [0]
    for q in order[:-1]:
        patterns += [p | 1 << (q - 1) for p in patterns]
    lam = tuple(state.lam[(p ^ full if p & anchor else p) - 1] for p in patterns[1:])
    return FamilyState(n, state.lam0_plus, state.lam0_minus, lam)


@dataclass(frozen=True)
class PipelineStep:
    """One stage of a distillation run, with the state it produced."""

    kind: str
    note: str
    state: FamilyState
    party: int | None = None
    amplification: int | None = None
    order: tuple[int, ...] | None = None
    parties: tuple[int, ...] | None = None

    @property
    def digest(self) -> str:
        """The state's indicator vector as a 0/1 string, label 1 first."""
        return "".join(map(str, self.state.indicator_vector()))


@dataclass(frozen=True)
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


def distill_pipeline(state: FamilyState, grouping: Grouping, c, d) -> PipelineTrace:
    """Run the activation protocol for one pair of groups, end to end.

    Order of play: check the splitting-level verdict (bailing out with
    the lowest blocking splitting), project every multi-party group onto
    its all-0/all-1 span, relabel so the anchor party sits in c, measure
    the helper parties out from the highest label down, then collapse
    the remaining c-d splitting to its effective pair.  Whenever the
    verdict holds this ends in a distillable pair.
    """
    cset = frozenset(c)
    dset = frozenset(d)
    steps = [PipelineStep("start", f"input state on {state.n} parties", state)]
    witness = distillation_witness(state, grouping, cset, dset)
    if witness is not None:
        return PipelineTrace(grouping, cset, dset, False, tuple(steps), witness, None, None)

    cur = state
    for g in grouping.groups:
        if len(g) < 2:
            continue
        cur = join_povm(cur, g)
        steps.append(
            PipelineStep(
                "join",
                f"joint filter on parties {_party_text(g)}",
                cur,
                parties=tuple(sorted(g)),
            )
        )

    n = cur.n
    order = tuple(range(1, n + 1))
    if n not in cset:
        low = min(cset)
        order = tuple(n if q == low else low if q == n else q for q in order)
        cur = permute_parties(cur, order)
        steps.append(
            PipelineStep(
                "permute",
                f"swapped parties {low} and {n} so the anchor sits in c",
                cur,
                order=order,
            )
        )

    # order swaps two parties, so it also maps each old party to its new one
    kept = sorted(order[q - 1] for q in cset | dset)
    for helper in (q for q in range(n, 0, -1) if q not in kept):
        power = required_amplification(cur, helper)
        cur = measure_out_party(amplify(cur, power), helper)
        steps.append(
            PipelineStep(
                "measure",
                f"measured helper {helper} out (amplification {power})",
                cur,
                party=helper,
                amplification=power,
            )
        )

    # the survivors close ranks, so each keeps its rank among them as its label
    dnew = {order[q - 1] for q in dset}
    final_split = Splitting(
        cur.n, party_bitmask(rank for rank, q in enumerate(kept, start=1) if q in dnew)
    )
    outcome = project_to_effective_pair(cur, final_split)
    steps.append(PipelineStep("project", f"collapsed the pair across {final_split}", cur))
    return PipelineTrace(
        grouping, cset, dset, bool(outcome.indicator(1)), tuple(steps), None, outcome, final_split
    )
