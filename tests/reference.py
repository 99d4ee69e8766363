"""Definition-level reference scans that the tests hold the verdict core to.

`separating_splittings` lists every splitting that puts two party sets on
opposite sides, and `straddles` says whether a group has members on both
sides of a splitting.  The package decides the same questions from one
table of group unions; these scans stay here, outside the package, so
that no package code can share the reference it is compared against.
"""
from __future__ import annotations

from typing import Iterable, Iterator

from entact.model import Splitting, _check_party_set, party_bitmask


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

