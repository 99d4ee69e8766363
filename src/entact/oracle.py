"""Brute-force partial-transpose checks on the entries of the density matrix.

Everything in this module works on the explicit matrix entries of a
state and knows nothing about the coefficient-level shortcuts: states
are assembled as sums of basis projectors, and separability across a
splitting is decided by an actual partial transpose and eigensolve.
That independence is the point; the fast route is validated against
this one.  The reshape definition of the partial transpose, the dense
replay of the protocol moves and the full-size projector sum the build
is held to live with the tests in `tests/reference.py`, which shares no
code with this module.

Entries.  `_projector_entries` lists the (row, column, value) entries of
the projector sum, each projector added on its two-index support; a
family matrix has about 2^(n+1) of them, not 4^n.  `build_density`
scatters them into a 2^n by 2^n matrix.

Partial transpose as an index map.  Party i is basis bit n - i (party 1
is the top bit).  With B the bits of the transposed parties, a partial
transpose leaves the diagonal fixed and moves each entry (i, j) to
((i & ~B) | (j & B), (j & ~B) | (i & B)); the map is its own inverse.
`ppt_agreement_report` maps only the nonzero off-diagonal entries for
each splitting, and `partial_transpose` applies the same map to every
entry of a dense matrix.

Deflated solve.  An index whose row and column hold no nonzero entry off
the diagonal spans an invariant subspace, so its diagonal entry is an
eigenvalue; the remaining, coupled indices go through one `eigvalsh` of
their block.  `_deflated_mins` does this for a stack of S matrices that
share the diagonal, given as (S, E) arrays of where each holds the E
nonzero off-diagonal entries: the report passes every splitting's
mapped entries (S = 2^(n-1) - 1), `min_pt_eigenvalue` one row.  In one
vectorized pass it sorts each row's coupled indices, and reads each
row's smallest uncoupled diagonal entry off one sort of the diagonal:
a row couples at most 2E indices, so that entry is among the first
2E + 1 sorted ones, and a `searchsorted` tests which of those are
coupled.  Only each row's block solve runs one splitting at a time.  A
family state's partial transpose couples two indices; a dense matrix
couples all of them and gets one full solve.  No label, indicator or
family formula enters the solve.

Two caps.  The dense views (`build_density`, `partial_transpose`,
`min_pt_eigenvalue`) form 4^n entries and stop at DENSE_PARTY_CAP
parties.  The agreement report never forms the matrix: its cost is the
2^n diagonal and one small solve per splitting, about 2^n of each, and
it stops at REPORT_PARTY_CAP parties.

The family's states are diagonal in a basis of real vectors with real
weights, so their matrices, and every partial transpose of them, are
real symmetric: the entries are float64.  The dense views keep the dtype
of the matrix they are given, and `np.linalg.eigvalsh` picks the real or
the complex solver from it, so a complex Hermitian input (the same state
after a local phase, say) is still accepted and goes through the same
index map and solve.  A non-finite entry is refused, never solved.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import FamilyState, Splitting, _check_nonnegative, _check_party_set, _check_same_n

DENSE_PARTY_CAP = 8
REPORT_PARTY_CAP = 16


def _check_cap(n: int, cap: int = DENSE_PARTY_CAP, route: str = "dense route") -> None:
    if n > cap:
        raise ValueError(f"{route} caps at {cap} parties (dimension {1 << cap}); requested n={n}")


def _party_count(mat: np.ndarray) -> int:
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    dim = mat.shape[0]
    n = dim.bit_length() - 1
    if dim != 1 << n or n < 2:
        raise ValueError(f"dimension {dim} is not a power of two of at least 4")
    _check_cap(n)
    return n


def _label_bits(n: int) -> list[int]:
    """Each label's side-B basis bits, which are also its even basis index.

    Built a party at a time: party i < n sets bit n - i.
    """
    idx = [0]
    for i in range(1, n):
        idx += [x | 1 << (n - i) for x in idx]
    return idx


def _side_bits(n: int, parties) -> int:
    """The basis bits of a party set."""
    return sum(1 << (n - p) for p in _check_party_set(n, parties, "parties"))


def _transpose_entries(rows: np.ndarray, cols: np.ndarray, bits):
    """Where transposing the basis bits `bits` moves the entries at (rows, cols).

    `bits` is an int, or a column of them that maps the entries once per row.
    """
    keep = ~bits
    return (rows & keep) | (cols & bits), (cols & keep) | (rows & bits)


def _projector_entries(state: FamilyState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (rows, cols, values) entries of the state's sum of basis projectors.

    Each projector is added on its two-index support only, in the order
    of the dense sum (every + projector, then every - one; the labels'
    supports are disjoint), so every value is bitwise what that sum
    gives: the cancellations between a label's two projectors leave
    exact zeros, which the deflated solve relies on.
    """
    idx = np.array(_label_bits(state.n))
    support = np.stack([idx, (1 << state.n) - 1 - idx], axis=1)
    rows, cols = np.broadcast_arrays(support[:, :, None], support[:, None, :])
    # a basis vector's two entries are +-1/sqrt(2), so each projector holds +-h on its support
    amp = 1.0 / math.sqrt(2.0)
    h = amp * amp
    plus = np.array([[h, h], [h, h]])
    minus = np.array([[h, -h], [-h, h]])
    w_plus = np.array((state.lam0_plus, *state.lam), dtype=np.float64)[:, None, None]
    w_minus = np.array((state.lam0_minus, *state.lam), dtype=np.float64)[:, None, None]
    # an infinite weight cancels against itself to NaN, which the callers' checks name
    with np.errstate(invalid="ignore"):
        values = (0.0 + w_plus * plus) + w_minus * minus
    return rows.ravel(), cols.ravel(), values.ravel()


def _check_finite(rows: np.ndarray, cols: np.ndarray, values: np.ndarray) -> None:
    """Refuse a non-finite entry, naming the first one in row-major order."""
    bad = ~np.isfinite(values)
    if bad.any():
        rows, cols, values = rows[bad], cols[bad], values[bad]
        k = np.lexsort((cols, rows))[0]
        raise ValueError(f"matrix entry ({rows[k]}, {cols[k]}) is not finite: {values[k]}")


def _deflated_mins(
    diag: np.ndarray, rows: np.ndarray, cols: np.ndarray, values: np.ndarray
) -> list[float]:
    """Smallest eigenvalue of each Hermitian matrix in a stack that shares one diagonal.

    Row s of the (S, E) arrays (rows, cols) says where matrix s holds the
    E nonzero off-diagonal `values`, each position once.  An index in
    none of a row's entries spans an invariant subspace of that matrix,
    so its diagonal entry is an eigenvalue; the row's other, coupled
    indices go into one `eigvalsh` of their block.  Everything but that
    solve is done for all rows at once.
    """
    count, size = rows.shape
    dim = diag.size
    # each row's coupled indices in ascending order, the first of each run kept;
    # offsetting row s by s * dim lines all rows up in one ascending array of keys
    coupled = np.sort(np.concatenate((rows, cols), axis=1), axis=1)
    first = np.ones(coupled.shape, dtype=bool)
    first[:, 1:] = coupled[:, 1:] != coupled[:, :-1]
    offset = np.arange(count)[:, None] * dim
    keys = (coupled + offset)[first]
    keep = coupled[first]
    sizes = first.sum(axis=1)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    # a row couples at most 2E indices, so its smallest uncoupled diagonal
    # entry lies among the first 2E + 1 of the diagonal in ascending order
    real = diag.real
    order = np.argsort(real, kind="stable")[: 2 * size + 1]
    probe = order + offset
    free = np.append(keys, count * dim)[np.searchsorted(keys, probe)] != probe
    pick = free.argmax(axis=1)
    lows = np.where(free[np.arange(count), pick], real[order[pick]], np.inf).tolist()
    # each entry's place in its row's block
    block_rows = np.searchsorted(keys, rows + offset) - starts[:, None]
    block_cols = np.searchsorted(keys, cols + offset) - starts[:, None]
    block_diag = diag[keep]
    out = []
    for s, (a, b) in enumerate(zip(starts.tolist(), ends.tolist())):
        eig = lows[s]
        if b > a:
            block = np.diag(block_diag[a:b])
            block[block_rows[s], block_cols[s]] = values
            eig = min(eig, float(np.linalg.eigvalsh(block).min()))
        out.append(eig)
    return out


def build_density(state: FamilyState) -> np.ndarray:
    """Assemble the state as an explicit sum of basis projectors, in float64."""
    _check_cap(state.n)
    dim = 1 << state.n
    rows, cols, values = _projector_entries(state)
    rho = np.zeros((dim, dim), dtype=np.float64)
    rho[rows, cols] = values
    return rho


def partial_transpose(mat: np.ndarray, parties) -> np.ndarray:
    """Transpose the given parties' indices only."""
    n = _party_count(mat)
    rows, cols = np.indices(mat.shape)
    # the map is its own inverse, so reading every entry through it moves them all
    return mat[_transpose_entries(rows, cols, _side_bits(n, parties))]


def min_pt_eigenvalue(mat: np.ndarray, split: Splitting) -> float:
    """Smallest eigenvalue after transposing one side of the splitting."""
    n = _party_count(mat)
    _check_same_n(n, split.n, "splitting", "matrix")
    rows, cols = np.nonzero(mat)
    values = mat[rows, cols]
    _check_finite(rows, cols, values)
    off = rows != cols
    rows, cols = _transpose_entries(rows[off], cols[off], _side_bits(n, split.side_b))
    return _deflated_mins(mat.diagonal(), rows[None], cols[None], values[off])[0]


@dataclass(frozen=True, slots=True)
class SplitCheck:
    """Dense verdict for one splitting next to the coefficient-level indicator."""

    split: Splitting
    indicator: int
    min_eigenvalue: float
    agree: bool


@dataclass(frozen=True, slots=True)
class AgreementReport:
    n: int
    tol: float
    checks: tuple[SplitCheck, ...]

    @property
    def all_agree(self) -> bool:
        return all(c.agree for c in self.checks)


def ppt_agreement_report(state: FamilyState, tol: float = 1e-10) -> AgreementReport:
    """Compare the indicator of every splitting against the partial-transpose route.

    Indicator 1 must show a partial-transpose eigenvalue below -tol;
    indicator 0 must not.  Exact boundary states land on the separable
    side in both routes.  A negative, non-finite or bool tol is rejected.
    The matrix is never formed: the diagonal stays put, and only the
    nonzero off-diagonal entries are mapped, for every splitting at once.
    """
    _check_nonnegative(tol, "tolerance")
    _check_cap(state.n, REPORT_PARTY_CAP, "agreement report")
    rows, cols, values = _projector_entries(state)
    _check_finite(rows, cols, values)
    on = rows == cols
    diag = np.zeros(1 << state.n, dtype=np.float64)
    diag[rows[on]] = values[on]
    off = ~on & (values != 0)
    bits = np.array(_label_bits(state.n)[1:])[:, None]
    eigs = _deflated_mins(diag, *_transpose_entries(rows[off], cols[off], bits), values[off])
    checks = []
    for mask, eig in enumerate(eigs, start=1):
        s = state.indicator(mask)
        agree = (eig < -tol) if s else (eig >= -tol)
        checks.append(SplitCheck(Splitting(state.n, mask), s, eig, agree))
    return AgreementReport(state.n, tol, tuple(checks))
