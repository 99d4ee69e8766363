"""Acceptance gate for the package.

Every criterion is a plain checker function that raises AssertionError
with a self-documenting message; thin pytest wrappers expose each one as
a test, and running this file directly (`python3 tests/test_acceptance.py`)
prints one PASS/FAIL line per criterion and exits nonzero on failures.

For the size-band and percent-band patterns split into three or more
groups, criteria 2b and 3b state the exact law the activation rule gives:
a pair of groups distills exactly when every union of groups holding one
but not the other has a distillable size.  Criterion 10 pins the
counterexamples to the older claim that such splits activate nothing,
through the verdict layer, the protocol pipeline and (at 8 parties) the
dense oracle.
"""
from __future__ import annotations

import random
import sys

import numpy as np

from entact import (
    BUILTIN_REQUIREMENTS,
    Grouping,
    Specification,
    Splitting,
    amplify,
    classify_groupings,
    distill_pipeline,
    example_pattern,
    example_state,
    from_specification,
    grouping_report,
    iter_set_partitions,
    join_povm,
    measure_out_party,
    necessary_distillable,
    permute_parties,
    project_to_effective_pair,
    random_family_state,
    required_amplification,
    search_specifications,
    validate,
)
from entact.oracle import build_density, min_pt_eigenvalue, ppt_agreement_report
from reference import (
    coefficients_from_density,
    effective_pair_dense,
    join_dense,
    measure_plus_dense,
    permute_dense,
    separating_splittings,
    straddles,
)

DENSE_TOL = 1e-10  # partial-transpose eigenvalue tolerance
CROSS_TOL = 1e-10  # dense route versus coefficient route
MASS_TOL = 1e-12   # normalization and conservation


def _require(cond, msg):
    if not cond:
        raise AssertionError(msg)


def _party_list(parties):
    return ",".join(map(str, sorted(parties)))


# criterion 1 ---------------------------------------------------------------

def check_dense_agreement_fuzz():
    """Criterion 1: for 200 seeded random states at each of n = 3, 4, 5 the
    coefficient-level indicator of every splitting agrees with an actual
    partial transpose and eigensolve at tolerance 1e-10."""
    for n in (3, 4, 5):
        for seed in range(200):
            state = random_family_state(n, seed=seed)
            report = ppt_agreement_report(state, tol=DENSE_TOL)
            if report.all_agree:
                continue
            bad = [c for c in report.checks if not c.agree]
            raise AssertionError(
                f"dense disagreement for n={n} seed={seed}: "
                + "; ".join(
                    f"{c.split} indicator {c.indicator} min-eig {c.min_eigenvalue:+.3e}"
                    for c in bad
                )
            )


# criterion 2: size-band pattern (catalog I) --------------------------------

def check_size_band_two_group_table():
    """Criterion 2a: for the 8-party size-3 band pattern, a split into two
    groups distills exactly when the group sizes are 3 and 5; all 127
    two-group partitions are checked."""
    spec = example_pattern("I", n=8, j=3)
    state = from_specification(spec)
    _require(state.indicator_vector() == spec.bits,
             "realized state drifts from its specification")
    count = 0
    for part in iter_set_partitions(8, blocks=2):
        sizes = {len(part[0]), len(part[1])}
        want = sizes == {3, 5}
        got = necessary_distillable(spec, Grouping.from_sets(8, part), set(part[0]), set(part[1]))
        _require(
            got == want,
            f"two-group table wrong at ({_party_list(part[0])}) x ({_party_list(part[1])}): "
            f"got {got}, expected {want}",
        )
        count += 1
    _require(count == 127, f"expected 127 two-group partitions, saw {count}")


def _union_size_law(sizes, i, j, allowed):
    """Group-size form of the activation rule for a pattern whose bits
    depend only on side size: groups i and j distill exactly when every
    union of groups holding i but not j has an allowed size.

    Those unions are the unstraddled splittings separating the pair; their
    sizes are |group i| plus each subset sum of the other groups' sizes.
    The allowed sets used here are closed under s -> n - s, so the side
    holding j needs no separate check."""
    unions = {sizes[i]}
    for k, size in enumerate(sizes):
        if k not in (i, j):
            unions |= {u + size for u in unions}
    return unions <= allowed


def _check_law_at(spec, part, i, j, allowed):
    grouping = Grouping.from_sets(spec.n, part)
    c, d = set(part[i]), set(part[j])
    want = _union_size_law([len(blk) for blk in part], i, j, allowed)
    got = necessary_distillable(spec, grouping, c, d)
    if got != want:
        raise AssertionError(
            f"under {grouping} the pair ({_party_list(c)}) x ({_party_list(d)}) gives "
            f"{got}, but the union-size law gives {want}:\n"
            + _explain_activation(spec, grouping, c, d)
        )
    return got


def check_size_band_multigroup_law():
    """Criterion 2b: for the 8-party size-3 band pattern split into three or
    more groups, a pair (c, d) distills exactly when every union of groups
    holding c but not d has size 3 or 5; all 4012 such partitions (28210
    pair verdicts) are checked against the verdict layer.  The law
    activates exactly the 280 partitions of shape 3|3|2, and in each one
    only the two triples distill."""
    spec = example_pattern("I", n=8, j=3)
    partitions = verdicts = activating = 0
    for part in iter_set_partitions(8):
        if len(part) < 3:
            continue
        partitions += 1
        sizes = [len(blk) for blk in part]
        active = []
        for i in range(len(part)):
            for j in range(i + 1, len(part)):
                if _check_law_at(spec, part, i, j, {3, 5}):
                    active.append((sizes[i], sizes[j]))
                verdicts += 1
        if active:
            activating += 1
            _require(
                sorted(sizes) == [2, 3, 3] and active == [(3, 3)],
                f"{Grouping.from_sets(8, part)} activates pairs of sizes {active}; "
                "only the two triples of a 3|3|2 partition should",
            )
    _require(partitions == 4012, f"expected 4012 partitions, saw {partitions}")
    _require(verdicts == 28210, f"expected 28210 pair verdicts, saw {verdicts}")
    _require(activating == 280,
             f"expected the 280 partitions of shape 3|3|2 to activate, saw {activating}")


def _explain_activation(spec, grouping, c, d):
    lines = []
    for sp in separating_splittings(spec.n, c, d):
        if spec.value(sp.mask):
            status = "distillable"
        else:
            grp = next((g for g in grouping.groups if straddles(sp, g)), None)
            status = (
                f"separable, straddled by {{{_party_list(grp)}}}"
                if grp
                else "separable and unstraddled (BLOCKING)"
            )
        lines.append(f"    {sp}: {status}")
    return "\n".join(lines)


# criterion 3: the rest of the pattern catalog ------------------------------

def check_percent_band_two_group_table():
    """Criterion 3a: for the 10-party 40-60 percent band pattern, a split into
    two groups distills exactly when the sizes are 4+6 or 5+5; all 511
    two-group partitions are checked."""
    spec = example_pattern("II", n=10, band=(40, 60))
    state = from_specification(spec)
    _require(state.indicator_vector() == spec.bits,
             "realized state drifts from its specification")
    count = 0
    for part in iter_set_partitions(10, blocks=2):
        sizes = {len(part[0]), len(part[1])}
        want = sizes in ({4, 6}, {5})
        got = necessary_distillable(spec, Grouping.from_sets(10, part), set(part[0]), set(part[1]))
        _require(
            got == want,
            f"two-group table wrong at sizes {sorted(sizes)}: got {got}, expected {want}",
        )
        count += 1
    _require(count == 511, f"expected 511 two-group partitions, saw {count}")


PERCENT_BAND_WITNESSES = (
    ((1, 2, 3, 4), (5, 6, 7, 8, 9), (10,)),
    ((1, 2, 3, 4), (5, 6, 7, 8), (9, 10)),
    ((1, 2, 3, 4), (5, 6, 7, 8), (9,), (10,)),
)


def _integer_partitions(n, largest):
    """Partitions of n into parts of at most `largest`, each in descending order."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _integer_partitions(n - first, first):
            yield (first,) + rest


def _size_signature_cases(n, min_groups):
    """One canonical (partition, i, j) per (block sizes, pair sizes) signature:
    consecutive blocks of the given sizes, and the first pair of blocks with
    the given sizes."""
    for sizes in _integer_partitions(n, n):
        if len(sizes) < min_groups:
            continue
        part, start = [], 1
        for size in sizes:
            part.append(tuple(range(start, start + size)))
            start += size
        seen = set()
        for i in range(len(sizes)):
            for j in range(i + 1, len(sizes)):
                if (sizes[i], sizes[j]) not in seen:
                    seen.add((sizes[i], sizes[j]))
                    yield part, i, j


def check_percent_band_multigroup_law():
    """Criterion 3b: for the 10-party 40-60 percent band pattern split into
    three or more groups, a pair (c, d) distills exactly when every union
    of groups holding c but not d has 4 to 6 parties.

    The pattern's bits depend only on side size, so every verdict depends
    only on the block sizes and the pair's sizes; one canonical partition
    per such signature thus stands for every partition of the ten parties.
    The law is checked on all 109 signatures with three or more groups.  Exactly three
    signatures activate: pair sizes {4,5} with one party left over, and
    pair sizes {4,4} with the two leftover parties as one group or as two.
    The three named witness partitions activate their first two groups."""
    spec = example_pattern("II", n=10, band=(40, 60))
    for label in range(1, len(spec.bits) + 1):
        side = label.bit_count()
        _require(spec.value(label) == (4 <= side <= 6),
                 f"label {label} with a side of {side} parties breaks the size-only band")
    allowed = {4, 5, 6}
    signatures = 0
    active = set()
    for part, i, j in _size_signature_cases(10, min_groups=3):
        signatures += 1
        if _check_law_at(spec, part, i, j, allowed):
            sizes = tuple(len(blk) for blk in part)
            active.add((sizes, (sizes[i], sizes[j])))
    _require(signatures == 109, f"expected 109 size signatures, saw {signatures}")
    want = {
        ((5, 4, 1), (5, 4)),
        ((4, 4, 2), (4, 4)),
        ((4, 4, 1, 1), (4, 4)),
    }
    _require(active == want, f"activating signatures {sorted(active)}, expected {sorted(want)}")
    for part in PERCENT_BAND_WITNESSES:
        _require(_check_law_at(spec, part, 0, 1, allowed),
                 f"witness {Grouping.from_sets(10, part)} should activate its first two groups")


def check_single_splitting_catalog():
    """Criterion 3c: the 5-party single-splitting pattern (side {1,3,5})
    activates exactly one pair across all 52 partitions: the two sides of
    the chosen splitting, grouped as themselves."""
    spec = example_pattern("III", n=5, group={1, 3, 5})
    state = from_specification(spec)
    _require(state.indicator_vector() == spec.bits,
             "realized state drifts from its specification")
    hits = []
    for part in iter_set_partitions(5):
        grouping = Grouping.from_sets(5, part)
        for pv in grouping_report(state, grouping).pairs:
            if pv.distillable:
                hits.append((str(grouping), _party_list(pv.c), _party_list(pv.d)))
    _require(
        hits == [("1,3,5|2,4", "1,3,5", "2,4")],
        f"activation table wrong, got {hits!r}",
    )


def check_trimmed_band_catalog():
    """Criterion 3d: for the 8-party trimmed band (both sides at least 3), a
    pair of groups distills exactly when both groups hold at least three
    parties, across every one of the 4140 partitions."""
    spec = example_pattern("IV", n=8, j=3)
    _require(from_specification(spec).indicator_vector() == spec.bits,
             "realized state drifts from its specification")
    checked = 0
    for part in iter_set_partitions(8):
        grouping = Grouping.from_sets(8, part)
        for i in range(len(part)):
            for j in range(i + 1, len(part)):
                want = len(part[i]) >= 3 and len(part[j]) >= 3
                got = necessary_distillable(spec, grouping, set(part[i]), set(part[j]))
                _require(
                    got == want,
                    f"under {grouping} the pair ({_party_list(part[i])}) x "
                    f"({_party_list(part[j])}) gives {got}, expected {want}",
                )
                checked += 1
    _require(checked > 20_000, f"sweep looks truncated: {checked} pair verdicts")


def check_extreme_size_catalog():
    """Criterion 3e: for the pattern distilling only one-versus-rest
    splittings, separate parties get nothing, joining all but two parties
    activates exactly the two leftovers, and no partition whose largest
    group keeps below n-2 parties activates anything.  A scaled 8-party
    run repeats the join."""
    spec = example_pattern("V", n=6)
    _require(not grouping_report(spec, Grouping.all_separate(6)).any_distillable,
             "separate parties should distill nothing")
    g = Grouping.with_joined(6, (1, 2, 3, 4))
    _require(necessary_distillable(spec, g, {5}, {6}),
             "joining {1,2,3,4} should activate (5) x (6)")
    _require(not necessary_distillable(spec, g, {1, 2, 3, 4}, {5}),
             "the joined group itself should stay cut off from party 5")
    _require(not necessary_distillable(spec, g, {1, 2, 3, 4}, {6}),
             "the joined group itself should stay cut off from party 6")
    for part in iter_set_partitions(6):
        if max(len(blk) for blk in part) <= 3 and len(part) >= 2:
            grouping = Grouping.from_sets(6, part)
            if grouping_report(spec, grouping).any_distillable:
                raise AssertionError(
                    f"groups of at most 3 of 6 parties should activate nothing, "
                    f"but {grouping} does"
                )
    # (scaled)
    spec8 = example_pattern("V", n=8)
    _require(
        necessary_distillable(spec8, Grouping.with_joined(8, tuple(range(1, 7))), {7}, {8}),
        "(scaled) joining {1..6} of 8 should activate (7) x (8)",
    )


def check_four_party_catalog():
    """Criterion 3f: frozen activation table of the fixed four-party pattern:
    exactly four of the 15 partitions activate some pair, and with {3,4}
    joined all three groups can share a GHZ-type state."""
    state = example_state("VI")
    active = {str(rep.grouping) for rep in classify_groupings(state) if rep.any_distillable}
    want = {"1|2|3,4", "1,2|3,4", "1|2,3,4", "1,3,4|2"}
    _require(active == want,
             f"activating partitions {sorted(active)}, expected {sorted(want)}")
    rep = grouping_report(state, Grouping.from_sets(4, [[1], [2], [3, 4]]))
    _require(
        rep.ghz == (frozenset({1}), frozenset({2}), frozenset({3, 4})),
        f"GHZ clique wrong: {rep.ghz}",
    )


def check_five_party_catalog():
    """Criterion 3g: frozen behavior of the fixed five-party pattern: joining
    {3,4} or {3,5} activates (1) x (2), joining {4,5} activates nothing,
    and every splitting keeping 1 and 2 together is separable."""
    spec = example_pattern("VII")
    _require(spec.ones() == (1, 2, 6, 9, 10, 13, 14),
             f"frozen label set wrong: {spec.ones()}")
    _require(spec.to_int() == 13091, f"frozen packed value wrong: {spec.to_int()}")
    _require(any(spec.bits), "the pattern should be entangled")
    _require(not grouping_report(spec, Grouping.all_separate(5)).any_distillable,
             "separate parties should distill nothing")
    _require(necessary_distillable(spec, Grouping.with_joined(5, (3, 4)), {1}, {2}),
             "joining {3,4} should activate (1) x (2)")
    _require(necessary_distillable(spec, Grouping.with_joined(5, (3, 5)), {1}, {2}),
             "joining {3,5} should activate (1) x (2)")
    _require(not grouping_report(spec, Grouping.with_joined(5, (4, 5))).any_distillable,
             "joining {4,5} should activate nothing")
    for m in range(1, 16):
        if (m & 1) == (m >> 1 & 1):
            _require(spec.value(m) == 0,
                     f"splitting label {m} keeps 1 and 2 together and must be separable")


def check_scaled_size_band_table():
    """Criterion 3h (scaled): the size-band shape at n=6, j=2 repeats the
    two-group law, distilling exactly at group sizes 2 and 4."""
    spec = example_pattern("I", n=6, j=2)
    count = 0
    for part in iter_set_partitions(6, blocks=2):
        want = {len(part[0]), len(part[1])} == {2, 4}
        got = necessary_distillable(spec, Grouping.from_sets(6, part), set(part[0]), set(part[1]))
        _require(got == want, f"(scaled) table wrong at ({part[0]}) x ({part[1]})")
        count += 1
    _require(count == 31, f"expected 31 two-group partitions, saw {count}")


# criterion 4 ---------------------------------------------------------------

def check_join_exactness():
    """Criterion 4: over 100 seeded cases, joining a random group projects
    every straddled label to exactly 0 and leaves the indicator of every
    unstraddled splitting unchanged."""
    for seed in range(100):
        n = 3 + seed % 4
        state = random_family_state(n, seed=seed)
        rng = random.Random(1000 + seed)
        group = set(rng.sample(range(1, n + 1), rng.randint(2, n)))
        out = join_povm(state, group)
        problems = validate(out)
        _require(not problems, f"joined state invalid (seed {seed}): {problems}")
        for mask in range(1, out.label_count + 1):
            sp = Splitting(n, mask)
            if straddles(sp, group):
                _require(
                    out.coefficient(mask) == 0.0,
                    f"straddled splitting {sp} kept coefficient {out.coefficient(mask)!r} "
                    f"after joining {{{_party_list(group)}}} (seed {seed})",
                )
            else:
                _require(
                    out.indicator(mask) == state.indicator(mask),
                    f"unstraddled splitting {sp} changed its indicator after joining "
                    f"{{{_party_list(group)}}} (seed {seed})",
                )


# criterion 5 ---------------------------------------------------------------

def check_measurement_merge():
    """Criterion 5: over 100 seeded 5-party states and every measurable party,
    measuring out merges children by exact coefficient addition, conserves
    the total mass and the corner gap of the state it is fed, and keeps
    children of two distillable parents distillable."""
    for seed in range(100):
        state = random_family_state(5, seed=5000 + seed)
        for party in (1, 2, 3, 4):
            m = required_amplification(state, party)
            base = amplify(state, m)
            child = measure_out_party(base, party)
            _require(abs(child.delta - base.delta) <= MASS_TOL,
                     f"corner gap moved (seed {seed}, party {party})")
            _require(abs(child.total_weight() - 1.0) <= MASS_TOL,
                     f"mass not conserved (seed {seed}, party {party})")
            # independent re-derivation: drop the party's bit from each label
            pos = party - 1
            merged = {}
            for parent in range(1, base.label_count + 1):
                low = parent & ((1 << pos) - 1)
                merged_label = low | ((parent >> (pos + 1)) << pos)
                merged[merged_label] = merged.get(merged_label, 0.0) + base.lam[parent - 1]
            _require(child.lam0_plus == base.lam0_plus + merged[0],
                     f"even corner absorption wrong (seed {seed}, party {party})")
            _require(child.lam0_minus == base.lam0_minus + merged[0],
                     f"odd corner absorption wrong (seed {seed}, party {party})")
            for label in range(1, child.label_count + 1):
                _require(child.lam[label - 1] == merged[label],
                         f"child label {label} not the exact parent sum "
                         f"(seed {seed}, party {party})")
                parents = [p for p in range(1, base.label_count + 1)
                           if (p & ((1 << pos) - 1)) | ((p >> (pos + 1)) << pos) == label]
                if all(base.indicator(p) for p in parents):
                    _require(child.indicator(label) == 1,
                             f"child of two distillable parents lost distillability "
                             f"(seed {seed}, party {party}, label {label})")


# criterion 6 ---------------------------------------------------------------

def _pipeline_case(state, grouping, c, d):
    want = necessary_distillable(state, grouping, c, d)
    trace = distill_pipeline(state, grouping, c, d)
    _require(
        trace.succeeded == want,
        f"pipeline and verdict disagree under {grouping} for "
        f"({_party_list(c)}) x ({_party_list(d)}): pipeline {trace.succeeded}, "
        f"verdict {want}",
    )
    if want:
        out = trace.outcome
        _require(out is not None and out.indicator(1) and out.fidelity > 0.5,
                 f"successful pipeline did not end distillable under {grouping}")
        _require(validate(trace.steps[-1].state) == [],
                 f"pipeline produced an invalid state under {grouping}")
    else:
        w = trace.witness
        _require(w is not None, f"failed pipeline carries no witness under {grouping}")
        _require(state.indicator(w.mask) == 0,
                 f"witness {w} is itself distillable under {grouping}")
        cbits = {w.bit(p) for p in c}
        dbits = {w.bit(p) for p in d}
        _require(len(cbits) == 1 and len(dbits) == 1 and cbits != dbits,
                 f"witness {w} does not separate the pair under {grouping}")
        _require(not any(straddles(w, g) for g in grouping.groups),
                 f"witness {w} is straddled by a group of {grouping}")


def _sweep_all_partitions(state):
    for part in iter_set_partitions(state.n):
        if len(part) < 2:
            continue
        grouping = Grouping.from_sets(state.n, part)
        for i in range(len(part)):
            for j in range(i + 1, len(part)):
                _pipeline_case(state, grouping, frozenset(part[i]), frozenset(part[j]))


def _sweep_size_signatures(state):
    # patterns that depend only on splitting sizes are permutation invariant,
    # so one pipeline per (block sizes, pair sizes) signature covers them
    for part, i, j in _size_signature_cases(state.n, min_groups=2):
        grouping = Grouping.from_sets(state.n, part)
        _pipeline_case(state, grouping, frozenset(part[i]), frozenset(part[j]))


def _random_partition_cases(state, count, seed):
    rng = random.Random(seed)
    n = state.n
    done = 0
    while done < count:
        growth = [0]
        for _ in range(n - 1):
            growth.append(rng.randint(0, max(growth) + 1))
        blocks = max(growth) + 1
        if blocks < 2:
            continue
        part = [[] for _ in range(blocks)]
        for idx, blk in enumerate(growth):
            part[blk].append(idx + 1)
        i, j = rng.sample(range(blocks), 2)
        grouping = Grouping.from_sets(n, part)
        _pipeline_case(state, grouping, frozenset(part[i]), frozenset(part[j]))
        done += 1


def check_pipeline_matches_predicate():
    """Criterion 6: the protocol pipeline succeeds exactly where the
    splitting-level verdict says it must.  Full partition-and-pair sweeps
    for the small catalog states; one pipeline per size signature for the
    permutation-invariant 8- and 10-party patterns plus 200 random
    partitions at 10 parties.  Pattern V with 1|2|{3..n} for n = 6..14,
    where amplification compounds over many helpers, and full sweeps of
    40 seeded random 5-party states, which are not catalog states.  Every
    failure must carry a valid witness."""
    _sweep_all_partitions(example_state("III", n=5, group={1, 3, 5}))
    _sweep_all_partitions(example_state("V", n=6))
    for n in range(6, 15):
        grouping = Grouping.from_sets(n, [[1], [2], range(3, n + 1)])
        _pipeline_case(example_state("V", n=n), grouping, {1}, {2})
    for seed in range(40):
        _sweep_all_partitions(random_family_state(5, seed=seed))
    _sweep_all_partitions(example_state("VI"))
    _sweep_all_partitions(example_state("VII"))
    _sweep_size_signatures(example_state("I", n=8, j=3))
    _sweep_size_signatures(example_state("IV", n=8, j=3))
    wide = example_state("II", n=10, band=(40, 60))
    _sweep_size_signatures(wide)
    _random_partition_cases(wide, count=200, seed=20260816)


# criterion 7 ---------------------------------------------------------------

def _states_close(a, b, what):
    _require(a.n == b.n, f"{what}: party counts differ ({a.n} vs {b.n})")
    worst = max(
        abs(a.lam0_plus - b.lam0_plus),
        abs(a.lam0_minus - b.lam0_minus),
        max(abs(x - y) for x, y in zip(a.lam, b.lam)),
    )
    _require(worst <= CROSS_TOL, f"{what}: routes differ by {worst:.3e}")


def check_dense_protocol_crosschecks():
    """Criterion 7: measuring out, joining, permuting, projecting and
    amplifying agree between the coefficient route and the dense
    density-matrix route at tolerance 1e-10, for 20 seeds at n = 3 and 4."""
    for n in (3, 4):
        for seed in range(20):
            state = random_family_state(n, seed=9000 + seed)
            mat = build_density(state)
            tag = f"n={n} seed={seed}"

            for party in range(1, n):
                fam = measure_out_party(state, party)
                back = coefficients_from_density(measure_plus_dense(mat, party))
                _states_close(fam, back, f"measure party {party}, {tag}")

            fam = join_povm(state, {1, 2})
            back = coefficients_from_density(join_dense(mat, [1, 2]))
            _states_close(fam, back, f"join {{1,2}}, {tag}")

            order = tuple(range(n, 0, -1))
            fam = permute_parties(state, order)
            back = coefficients_from_density(permute_dense(mat, order))
            _states_close(fam, back, f"reverse parties, {tag}")

            for mask in (1, (1 << (n - 1)) - 1):
                sp = Splitting(n, mask)
                dense4 = effective_pair_dense(mat, sp)
                pair = project_to_effective_pair(state, sp)
                fam4 = build_density(pair) / pair.total_weight()
                dev = float(np.abs(dense4 - fam4).max())
                _require(dev <= CROSS_TOL, f"projection across {sp} differs by {dev:.3e}, {tag}")

            base = coefficients_from_density(mat)
            for m in (2, 3):
                amp = amplify(state, m)
                half_b = 0.5 * base.delta
                half_a = 0.5 * amp.delta
                for k in range(1, base.label_count + 1):
                    want = (base.coefficient(k) / half_b) ** m
                    got = amp.coefficient(k) / half_a
                    _require(
                        abs(got - want) <= CROSS_TOL * max(1.0, want),
                        f"amplification power {m} breaks the ratio law at label {k}, {tag}",
                    )


# criterion 8 ---------------------------------------------------------------

def check_separating_counts():
    """Criterion 8: for every n from 3 to 8 and every pair of single parties
    there are exactly 2^(n-2) separating splittings, all distinct and all
    actually separating."""
    for n in range(3, 9):
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                splits = separating_splittings(n, {i}, {j})
                _require(
                    len(splits) == 1 << (n - 2),
                    f"expected {1 << (n - 2)} separating splittings for "
                    f"({i}) x ({j}) at n={n}, got {len(splits)}",
                )
                _require(len({sp.mask for sp in splits}) == len(splits),
                         f"duplicate splittings for ({i}) x ({j}) at n={n}")
                for sp in splits:
                    _require(sp.bit(i) != sp.bit(j),
                             f"{sp} does not separate {i} from {j}")


# criterion 9 ---------------------------------------------------------------

def check_specification_searches():
    """Criterion 9: the descending search recovers the fixed five-party
    catalog pattern from its behavior alone, proves the any-two activation
    requirement unsatisfiable over five parties by exhaustion, and returns
    the all-ones pattern first when everything qualifies."""
    found = search_specifications(5, BUILTIN_REQUIREMENTS["example-vii"]())
    _require(found is not None, "specification search found nothing")
    _require(found == example_pattern("VII"),
             f"specification search landed on {found.ones()} instead of the catalog pattern")
    _require(search_specifications(5, BUILTIN_REQUIREMENTS["any-two"]()) is None,
             "the any-two requirement should be unsatisfiable over five parties")
    _require(search_specifications(4, lambda spec: True) == Specification.constant(4, 1),
             "descending order should hit the all-ones pattern first")


# criterion 10 --------------------------------------------------------------

def _first_activating(spec, partitions):
    return next((part for part in partitions
                 if len(part) >= 3
                 and grouping_report(spec, Grouping.from_sets(spec.n, part)).any_distillable),
                None)


def check_multigroup_counterexamples():
    """Criterion 10: the claim that three or more groups activate nothing in
    the two band patterns is refuted by construction.  The first
    activating 8-party partition in sweep order is 1,2,3|4,5,6|7,8 (only
    the triples distill) and the first activating percent-band witness is
    1,2,3,4|5,6,7,8,9|10.  For both, no separating splitting blocks the
    pair and the pipeline ends above fidelity 1/2; the oracle finds a
    negative partial transpose on each unstraddled separating splitting,
    in the dense matrix at 8 parties and in the agreement report at 10."""
    spec8 = example_pattern("I", n=8, j=3)
    first8 = _first_activating(spec8, iter_set_partitions(8))
    _require(first8 == ((1, 2, 3), (4, 5, 6), (7, 8)),
             f"first activating 8-party partition is {first8}")
    g8 = Grouping.from_sets(8, first8)
    active = [(i, j) for i in range(3) for j in range(i + 1, 3)
              if necessary_distillable(spec8, g8, first8[i], first8[j])]
    _require(active == [(0, 1)], f"{g8} activates pairs {active}, expected only the triples")

    spec10 = example_pattern("II", n=10, band=(40, 60))
    first10 = _first_activating(spec10, PERCENT_BAND_WITNESSES)
    _require(first10 == PERCENT_BAND_WITNESSES[0],
             f"first activating witness is {first10}")

    for spec, part in ((spec8, first8), (spec10, first10)):
        grouping = Grouping.from_sets(spec.n, part)
        c, d = set(part[0]), set(part[1])
        explanation = _explain_activation(spec, grouping, c, d)
        _require("BLOCKING" not in explanation,
                 f"a splitting blocks the pair under {grouping}:\n{explanation}")
        trace = distill_pipeline(from_specification(spec), grouping, c, d)
        _require(trace.succeeded and trace.outcome.fidelity > 0.5,
                 f"pipeline under {grouping} did not end above fidelity 1/2")

    mat = build_density(from_specification(spec8))
    open_splits = [sp for sp in separating_splittings(8, first8[0], first8[1])
                   if not any(straddles(sp, g) for g in g8.groups)]
    _require(len(open_splits) == 2,
             f"expected two unstraddled separating splittings, saw {len(open_splits)}")
    for sp in open_splits:
        ev = min_pt_eigenvalue(mat, sp)
        _require(ev < -DENSE_TOL,
                 f"dense oracle finds {sp} not distillable (min eigenvalue {ev:+.3e})")

    g10 = Grouping.from_sets(10, first10)
    report10 = ppt_agreement_report(from_specification(spec10), tol=DENSE_TOL)
    open10 = [sp for sp in separating_splittings(10, first10[0], first10[1])
              if not any(straddles(sp, g) for g in g10.groups)]
    _require(report10.all_agree and open10,
             f"agreement report at 10 parties: all_agree {report10.all_agree}, "
             f"{len(open10)} unstraddled separating splittings")
    for sp in open10:
        ev = report10.checks[sp.mask - 1].min_eigenvalue
        _require(ev < -DENSE_TOL,
                 f"oracle finds {sp} not distillable (min eigenvalue {ev:+.3e})")


# pytest wrappers -----------------------------------------------------------

def test_criterion_1_dense_agreement():
    check_dense_agreement_fuzz()


def test_criterion_2_size_band_two_group_table():
    check_size_band_two_group_table()


def test_criterion_2_size_band_multigroup_claim():
    # named after the claim this law refutes; criterion 10 pins the refutation
    check_size_band_multigroup_law()


def test_criterion_3_percent_band_two_group_table():
    check_percent_band_two_group_table()


def test_criterion_3_percent_band_multigroup_claim():
    # named after the claim this law refutes; criterion 10 pins the refutation
    check_percent_band_multigroup_law()


def test_criterion_3_single_splitting_catalog():
    check_single_splitting_catalog()


def test_criterion_3_trimmed_band_catalog():
    check_trimmed_band_catalog()


def test_criterion_3_extreme_size_catalog():
    check_extreme_size_catalog()


def test_criterion_3_four_party_catalog():
    check_four_party_catalog()


def test_criterion_3_five_party_catalog():
    check_five_party_catalog()


def test_criterion_3_scaled_size_band_table():
    check_scaled_size_band_table()


def test_criterion_4_join_exactness():
    check_join_exactness()


def test_criterion_5_measurement_merge():
    check_measurement_merge()


def test_criterion_6_pipeline_matches_predicate():
    check_pipeline_matches_predicate()


def test_criterion_7_dense_protocol_crosschecks():
    check_dense_protocol_crosschecks()


def test_criterion_8_separating_counts():
    check_separating_counts()


def test_criterion_9_specification_searches():
    check_specification_searches()


def test_criterion_10_expected_failures():
    check_multigroup_counterexamples()


# standalone runner ----------------------------------------------------------

CRITERIA = (
    ("criterion 1: dense agreement fuzz", check_dense_agreement_fuzz),
    ("criterion 2a: size-band two-group table", check_size_band_two_group_table),
    ("criterion 2b: size-band multigroup law", check_size_band_multigroup_law),
    ("criterion 3a: percent-band two-group table", check_percent_band_two_group_table),
    ("criterion 3b: percent-band multigroup law", check_percent_band_multigroup_law),
    ("criterion 3c: single-splitting catalog", check_single_splitting_catalog),
    ("criterion 3d: trimmed-band catalog", check_trimmed_band_catalog),
    ("criterion 3e: extreme-size catalog", check_extreme_size_catalog),
    ("criterion 3f: four-party catalog", check_four_party_catalog),
    ("criterion 3g: five-party catalog", check_five_party_catalog),
    ("criterion 3h: scaled size-band table", check_scaled_size_band_table),
    ("criterion 4: join exactness", check_join_exactness),
    ("criterion 5: measurement merge conservation", check_measurement_merge),
    ("criterion 6: pipeline matches predicate", check_pipeline_matches_predicate),
    ("criterion 7: dense protocol cross-checks", check_dense_protocol_crosschecks),
    ("criterion 8: separating splitting counts", check_separating_counts),
    ("criterion 9: specification searches", check_specification_searches),
    ("criterion 10: multigroup counterexamples", check_multigroup_counterexamples),
)


def _main() -> int:
    failed = 0
    for name, checker in CRITERIA:
        try:
            checker()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL  {name}")
            first = str(exc).splitlines()[0] if str(exc) else "(no message)"
            print(f"      {first}")
        else:
            print(f"PASS  {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(_main())
