"""Dense density-matrix brute force for small party counts.

Everything in this module works on explicit 2**n by 2**n matrices and
knows nothing about the coefficient-level shortcuts: states are
assembled as sums of basis projectors, separability across a splitting
is decided by an actual partial transpose and eigensolve, and the
protocol operations are carried out index by index.  That independence
is the point; the fast route is validated against this one.

The family's states are diagonal in a basis of real vectors with real
weights, so their matrices, and every partial transpose of them, are
real symmetric: `build_density` returns float64.  Every other function
keeps the dtype of the matrix it is given, and `np.linalg.eigvalsh`
picks the real or the complex solver from it, so a complex Hermitian
input (the same state after a local phase, say) is still accepted and
goes through the same code.  Only the scalar type differs; the route
stays an explicit sum of projectors, a partial transpose and a full
eigensolve.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import FamilyState, Splitting, _check_order, _check_party, _check_party_set, _check_size

DENSE_PARTY_CAP = 8


def _check_cap(n: int) -> None:
    if n > DENSE_PARTY_CAP:
        raise ValueError(
            f"dense route caps at {DENSE_PARTY_CAP} parties "
            f"(dimension {1 << DENSE_PARTY_CAP}); requested n={n}"
        )


def _party_count(mat: np.ndarray) -> int:
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    dim = mat.shape[0]
    n = dim.bit_length() - 1
    if dim != 1 << n or n < 2:
        raise ValueError(f"dimension {dim} is not a power of two of at least 4")
    _check_cap(n)
    return n


def _pair_index(n: int, label: int) -> int:
    """Computational index of the label's even basis vector; party 1 is the top bit."""
    idx = 0
    for i in range(1, n):
        if label >> (i - 1) & 1:
            idx |= 1 << (n - i)
    return idx


def ghz_basis_vector(n: int, label: int, sign: int) -> np.ndarray:
    """One real basis vector: the label's bit pattern superposed with its complement."""
    _check_cap(_check_size(n, 2, "basis vector"))
    if not 0 <= label <= (1 << (n - 1)) - 1:
        raise ValueError(f"label {label} outside [0, {(1 << (n - 1)) - 1}]")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    dim = 1 << n
    v = np.zeros(dim, dtype=np.float64)
    idx = _pair_index(n, label)
    v[idx] = 1.0 / math.sqrt(2.0)
    v[dim - 1 - idx] = sign / math.sqrt(2.0)
    return v


def build_density(state: FamilyState) -> np.ndarray:
    """Assemble the state as an explicit sum of basis projectors, in float64."""
    _check_cap(state.n)
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


def partial_transpose(mat: np.ndarray, parties) -> np.ndarray:
    """Transpose the given parties' indices only."""
    n = _party_count(mat)
    ps = _check_party_set(n, parties, "parties")
    tensor = mat.reshape([2] * (2 * n))
    axes = list(range(2 * n))
    for p in ps:
        axes[p - 1], axes[n + p - 1] = axes[n + p - 1], axes[p - 1]
    return tensor.transpose(axes).reshape(mat.shape)


def min_pt_eigenvalue(mat: np.ndarray, split: Splitting) -> float:
    """Smallest eigenvalue after transposing one side of the splitting."""
    n = _party_count(mat)
    if split.n != n:
        raise ValueError(f"splitting is for n={split.n}, matrix has n={n}")
    return float(np.linalg.eigvalsh(partial_transpose(mat, split.side_b)).min())


@dataclass(frozen=True)
class SplitCheck:
    """Dense verdict for one splitting next to the coefficient-level indicator."""

    split: Splitting
    indicator: int
    min_eigenvalue: float
    agree: bool


@dataclass(frozen=True)
class AgreementReport:
    n: int
    tol: float
    checks: tuple[SplitCheck, ...]

    @property
    def all_agree(self) -> bool:
        return all(c.agree for c in self.checks)


def ppt_agreement_report(state: FamilyState, tol: float = 1e-10) -> AgreementReport:
    """Compare the indicator of every splitting against the dense route.

    Indicator 1 must show a partial-transpose eigenvalue below -tol;
    indicator 0 must not.  Exact boundary states land on the separable
    side in both routes.  A negative, non-finite or bool tol is rejected.
    """
    if type(tol) is bool or not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tolerance must be finite and nonnegative, got {tol!r}")
    _check_cap(state.n)
    rho = build_density(state)
    checks = []
    for mask in range(1, state.label_count + 1):
        split = Splitting(state.n, mask)
        eig = min_pt_eigenvalue(rho, split)
        s = state.indicator(mask)
        agree = (eig < -tol) if s else (eig >= -tol)
        checks.append(SplitCheck(split, s, eig, agree))
    return AgreementReport(state.n, tol, tuple(checks))


def coefficients_from_density(mat: np.ndarray, tol: float = 1e-10) -> FamilyState:
    """Read the family coefficients off a dense matrix, verifying the form.

    The corner weights come from the top-left entry plus or minus the
    corner, the pair weights from the diagonal.  The matrix is then
    rebuilt from those numbers and must match entrywise within tol,
    otherwise the input was not in the family and a ValueError explains
    the largest deviation.
    """
    n = _party_count(mat)
    dim = 1 << n
    lam0_plus = float((mat[0, 0] + mat[0, dim - 1]).real)
    lam0_minus = float((mat[0, 0] - mat[0, dim - 1]).real)
    lam = tuple(
        float(mat[_pair_index(n, label), _pair_index(n, label)].real)
        for label in range(1, (1 << (n - 1)))
    )
    candidate = FamilyState(n, lam0_plus, lam0_minus, lam)
    deviation = float(np.abs(mat - build_density(candidate)).max())
    if deviation > tol:
        raise ValueError(
            f"matrix is not in the family's diagonal-plus-corner form "
            f"(max deviation {deviation:.3e} > {tol:.1e})"
        )
    return candidate


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
