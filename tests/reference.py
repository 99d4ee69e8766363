"""Definition-level references that the tests hold the package to.

`separating_splittings` lists every splitting that puts two party sets on
opposite sides, and `straddles` says whether a group has members on both
sides of a splitting.  The package decides the same questions from one
table of group unions.  `dense_projector_sum` writes a state out as the
plain sum of full-size basis projectors, which the oracle's support-only
build must reproduce bit for bit.  These stay here, outside the package,
so that no package code can share the reference it is compared against.
"""
from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from entact.model import FamilyState, Splitting, _check_party_set, party_bitmask
from entact.oracle import ghz_basis_vector


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
