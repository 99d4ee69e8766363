"""Definition-level references that the tests hold the package to.

`separating_splittings` lists every splitting that puts two party sets on
opposite sides, and `straddles` says whether a group has members on both
sides of a splitting.  The package decides the same questions from one
label mask per group.  `dense_projector_sum` writes a state out as the
plain sum of full-size basis projectors, which the oracle's support-only
build must reproduce bit for bit, and `partial_transpose_dense` swaps
tensor axes, which the oracle's index map must reproduce bit for bit.
`pt_min_eigenvalues` solves the partial transpose of every splitting of
a family state one splitting at a time, from the state's own projector
entries; the oracle's one-pass report must give the same floats.
The dense replay of the protocol
moves (`measure_plus_dense`, `join_dense`, `effective_pair_dense`,
`permute_dense`, read back by `coefficients_from_density`) carries out
each move index by index on explicit matrices.  `exact_pipeline` replays
the protocol on `fractions.Fraction` ratios to the half-gap, so it loses
no margin that floats cannot hold.  These stay here, outside
the package, so that no package code can share the reference it is
compared against; nothing here comes from the oracle either, so the
basis index below is written from its definition, not borrowed.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from entact.model import (
    FamilyState,
    Grouping,
    Splitting,
    _check_order,
    _check_party,
    _check_party_set,
    _check_size,
    party_bitmask,
)


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


def _basis_index(n: int, label: int) -> int:
    """Computational index of the label's even basis vector.

    Party i < n is flipped when bit i - 1 of the label is set, and party 1
    is the top bit of the index.
    """
    return sum(1 << (n - i) for i in range(1, n) if label >> (i - 1) & 1)


def ghz_basis_vector(n: int, label: int, sign: int) -> np.ndarray:
    """One real basis vector: the label's bit pattern superposed with its complement."""
    _check_size(n, 2, "basis vector")
    if not 0 <= label <= (1 << (n - 1)) - 1:
        raise ValueError(f"label {label} outside [0, {(1 << (n - 1)) - 1}]")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    dim = 1 << n
    v = np.zeros(dim, dtype=np.float64)
    idx = _basis_index(n, label)
    v[idx] = 1.0 / math.sqrt(2.0)
    v[dim - 1 - idx] = sign / math.sqrt(2.0)
    return v


def dense_projector_sum(state: FamilyState) -> np.ndarray:
    """The state as a sum of full-size basis projectors, in float64."""
    dim = 1 << state.n
    rho = np.zeros((dim, dim), dtype=np.float64)
    for sign, weight in ((1, state.lam0_plus), (-1, state.lam0_minus)):
        v = ghz_basis_vector(state.n, 0, sign)
        rho += weight * np.outer(v, v)
    for label in range(1, state.label_count + 1):
        weight = state.lam[label - 1]
        if weight == 0.0:
            continue
        for sign in (1, -1):
            v = ghz_basis_vector(state.n, label, sign)
            rho += weight * np.outer(v, v)
    return rho


def _projector_support_entries(state: FamilyState):
    """The nonzero entries of the projector sum, written out label by label.

    Each label's two projectors hold +-h = +-(1/sqrt 2)^2 on the 2 by 2
    support of its basis indices; the entry values are summed in the
    order `dense_projector_sum` adds them (the + projector, then the -
    one), so they are the same floats.
    """
    dim = 1 << state.n
    amp = 1.0 / math.sqrt(2.0)
    h = amp * amp
    diag = np.zeros(dim, dtype=np.float64)
    rows, cols, values = [], [], []
    weights = [(state.lam0_plus, state.lam0_minus)]
    weights += [(w, w) for w in state.lam]
    for label, (w_plus, w_minus) in enumerate(weights):
        idx = _basis_index(state.n, label)
        twin = dim - 1 - idx
        w_plus, w_minus = float(w_plus), float(w_minus)
        diag[idx] = diag[twin] = (0.0 + w_plus * h) + w_minus * h
        corner = (0.0 + w_plus * h) + w_minus * -h
        if corner != 0.0:
            rows += [idx, twin]
            cols += [twin, idx]
            values += [corner, corner]
    return diag, np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64), np.array(values)


def pt_min_eigenvalues(state: FamilyState) -> list[float]:
    """The smallest partial-transpose eigenvalue of every splitting, one splitting at a time.

    For splitting label m, with B the basis bits of side B (party i is
    bit n - i), the partial transpose moves each off-diagonal entry
    (i, j) to ((i & ~B) | (j & B), (j & ~B) | (i & B)) and keeps the
    diagonal.  The smallest eigenvalue is then the least of the diagonal
    entries no moved entry touches and of one full solve of the block
    of indices that they do touch.
    """
    diag, rows, cols, values = _projector_support_entries(state)
    out = []
    for label in range(1, state.label_count + 1):
        bits = sum(1 << (state.n - p) for p in range(1, state.n) if label >> (p - 1) & 1)
        pt_rows = (rows & ~bits) | (cols & bits)
        pt_cols = (cols & ~bits) | (rows & bits)
        touched = np.zeros(diag.size, dtype=bool)
        touched[pt_rows] = True
        touched[pt_cols] = True
        low = np.inf
        if not touched.all():
            low = float(diag[~touched].min())
        keep = np.flatnonzero(touched)
        if keep.size:
            block = np.diag(diag[keep])
            block[np.searchsorted(keep, pt_rows), np.searchsorted(keep, pt_cols)] = values
            low = min(low, float(np.linalg.eigvalsh(block).min()))
        out.append(low)
    return out


def _party_count(mat: np.ndarray) -> int:
    """The party count n of a square 2^n by 2^n matrix, n >= 2."""
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    dim = mat.shape[0]
    n = dim.bit_length() - 1
    if dim != 1 << n or n < 2:
        raise ValueError(f"dimension {dim} is not a power of two of at least 4")
    return n


def coefficients_from_density(mat: np.ndarray, tol: float = 1e-10) -> FamilyState:
    """Read the family coefficients off a dense matrix, verifying the form.

    The corner weights come from the top-left entry plus or minus the
    corner, the pair weights from the diagonal.  The projector sum of
    those numbers must then match the matrix entrywise within tol,
    otherwise the input was not in the family and a ValueError explains
    the largest deviation.
    """
    n = _party_count(mat)
    dim = 1 << n
    lam0_plus = float((mat[0, 0] + mat[0, dim - 1]).real)
    lam0_minus = float((mat[0, 0] - mat[0, dim - 1]).real)
    lam = tuple(
        float(mat[_basis_index(n, label), _basis_index(n, label)].real)
        for label in range(1, (1 << (n - 1)))
    )
    candidate = FamilyState(n, lam0_plus, lam0_minus, lam)
    deviation = float(np.abs(mat - dense_projector_sum(candidate)).max())
    if deviation > tol:
        raise ValueError(
            f"matrix is not in the family's diagonal-plus-corner form "
            f"(max deviation {deviation:.3e} > {tol:.1e})"
        )
    return candidate


def partial_transpose_dense(mat: np.ndarray, parties) -> np.ndarray:
    """The partial transpose by its definition: swap each party's row and column axes."""
    n = _party_count(mat)
    ps = _check_party_set(n, parties, "parties")
    axes = list(range(2 * n))
    for p in ps:
        axes[p - 1], axes[n + p - 1] = axes[n + p - 1], axes[p - 1]
    return mat.reshape([2] * (2 * n)).transpose(axes).reshape(mat.shape)


def measure_plus_dense(mat: np.ndarray, party: int) -> np.ndarray:
    """Dense counterpart of measure_out_party: balanced-basis result, renormalized."""
    n = _party_count(mat)
    if not 1 <= _check_party(party) < n:
        raise ValueError(f"party must lie in 1..{n - 1}; the anchor party stays")
    tensor = mat.reshape([2] * (2 * n))
    sub = 0.5 * tensor.sum(axis=(party - 1, n + party - 1))
    dim = 1 << (n - 1)
    rho = sub.reshape(dim, dim)
    return rho / np.trace(rho).real


def join_dense(mat: np.ndarray, parties) -> np.ndarray:
    """Dense counterpart of join_povm: keep the indices where all members agree."""
    n = _party_count(mat)
    members = sorted(_check_party_set(n, parties, "parties"))
    if len(members) < 2:
        raise ValueError(f"need at least two parties within 1..{n}")
    keep = np.array(
        [len({z >> (n - p) & 1 for p in members}) == 1 for z in range(1 << n)], dtype=np.float64
    )
    out = mat * np.outer(keep, keep)
    return out / np.trace(out).real


def effective_pair_dense(mat: np.ndarray, split: Splitting) -> np.ndarray:
    """Dense counterpart of project_to_effective_pair: a normalized 4x4 block.

    Row order is (side A, side B) in {00, 01, 10, 11}; each side's qubit
    is 0 when all its parties read 0 and 1 when they all read 1.
    """
    n = _party_count(mat)
    if split.n != n:
        raise ValueError(f"splitting is for n={split.n}, matrix has n={n}")
    i_b = sum(1 << (n - i) for i in split.side_b)
    i_a = sum(1 << (n - i) for i in split.side_a)
    idxs = [0, i_b, i_a, i_b | i_a]
    sub = mat[np.ix_(idxs, idxs)].copy()
    return sub / np.trace(sub).real


def permute_dense(mat: np.ndarray, order) -> np.ndarray:
    """Dense counterpart of permute_parties: new party i is old party order[i-1]."""
    n = _party_count(mat)
    order = _check_order(n, order)
    row_axes = [order[pos] - 1 for pos in range(n)]
    axes = row_axes + [n + a for a in row_axes]
    return mat.reshape([2] * (2 * n)).transpose(axes).reshape(mat.shape)


def _least_exact_power(a: Fraction, b: Fraction) -> int:
    """The least m >= 1 with a**m + b**m < 1, for 0 <= a, b < 1, by exact tests only."""
    def fits(m: int) -> bool:
        return a ** m + b ** m < 1

    lo, hi = 0, 1
    while not fits(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if fits(mid) else (mid, hi)
    return hi


def exact_pipeline(state: FamilyState, grouping: Grouping, c: Iterable[int],
                   d: Iterable[int]) -> tuple[tuple[int, ...], Fraction]:
    """Replay the protocol for the pair (c, d) on exact ratios to the half-gap.

    Returns the power taken before each helper's measurement and the
    final pair's exact ratio, below 1 exactly when the pair distills.
    Written from the moves' definitions: a join zeroes every label its
    group straddles; when party n is not in c, parties min(c) and n swap,
    and each new label reads the old label of the same side; the helpers
    go from the highest party down, each measured after the least power
    that keeps below 1 every child of two parents below 1, its child k
    summing the two labels that inserting its bit into k gives.  The
    half-gap stays 1, and the corners, which decide nothing, are left out.
    """
    cset, dset = frozenset(c), frozenset(d)
    n = state.n
    half = (Fraction(state.lam0_plus) - Fraction(state.lam0_minus)) / 2
    lam = [Fraction(v) / half for v in state.lam]

    def held() -> None:
        assert all(type(v) is Fraction for v in lam)

    held()
    for g in grouping.groups:
        if len(g) > 1:
            lam = [Fraction(0) if straddles(Splitting(n, m), g) else v
                   for m, v in enumerate(lam, start=1)]
    held()
    low = n if n in cset else min(cset)
    new = {q: n if q == low else low if q == n else q for q in range(1, n + 1)}
    if low != n:
        # new party p is old party new[p], since the relabel is a swap
        lam = [lam[Splitting.from_side(n, {new[p] for p in Splitting(n, m).side_b}).mask - 1]
               for m in range(1, len(lam) + 1)]
        held()
    kept = sorted(new[q] for q in cset | dset)
    powers = []
    for helper in [q for q in range(n, 0, -1) if q not in kept]:
        bit = 1 << (helper - 1)
        parents = []
        for k in range(1, 1 << (n - 2)):
            p0 = (k >> (helper - 1)) << helper | k & (bit - 1)
            parents.append((lam[p0 - 1], lam[(p0 | bit) - 1]))
        m = max([_least_exact_power(a, b) for a, b in parents if a < 1 and b < 1], default=1)
        powers.append(m)
        lam = [a ** m + b ** m for a, b in parents]
        n -= 1
        held()
    dnew = {new[q] for q in dset}
    label = party_bitmask(rank for rank, q in enumerate(kept, start=1) if q in dnew)
    return tuple(powers), lam[label - 1]
