"""Dense brute-force oracle: density matrices, partial transpose, agreement."""
from __future__ import annotations

import math

import numpy as np
import pytest

from entact import FamilyState, Splitting, example_state, random_family_state
from entact.oracle import (
    DENSE_PARTY_CAP,
    _min_eigenvalue,
    build_density,
    min_pt_eigenvalue,
    partial_transpose,
    ppt_agreement_report,
)
from reference import (
    coefficients_from_density,
    dense_projector_sum,
    effective_pair_dense,
    ghz_basis_vector,
    join_dense,
    measure_plus_dense,
    permute_dense,
)


def test_basis_vectors_are_orthonormal():
    n = 3
    vecs = [ghz_basis_vector(n, k, s) for k in range(1 << (n - 1)) for s in (+1, -1)]
    gram = np.array([[abs(np.vdot(a, b)) for b in vecs] for a in vecs])
    assert np.allclose(gram, np.eye(len(vecs)), atol=1e-14)
    with pytest.raises(ValueError):
        ghz_basis_vector(3, 4, +1)
    with pytest.raises(ValueError):
        ghz_basis_vector(3, 0, 0)


def test_worked_density_matrix():
    mat = build_density(FamilyState(3, 0.5, 0.0, (0.0, 0.25, 0.0)))
    # label 2 occupies computational indices 2 and 5 (second party flipped)
    expect = np.zeros((8, 8))
    expect[0, 0] = expect[7, 7] = 0.25
    expect[0, 7] = expect[7, 0] = 0.25
    expect[2, 2] = expect[5, 5] = 0.25
    assert np.allclose(mat, expect, atol=1e-15)
    assert np.isclose(np.trace(mat), 1.0)


def test_partial_transpose_is_involutive():
    rng = np.random.default_rng(5)
    raw = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    mat = raw + raw.conj().T
    for parties in ([2], [1, 3], [4], [2, 4]):
        double = partial_transpose(partial_transpose(mat, parties), parties)
        assert np.allclose(double, mat, atol=1e-14)
    full = partial_transpose(mat, [1, 2, 3, 4])
    assert np.allclose(full, mat.T, atol=1e-14)
    with pytest.raises(ValueError):
        partial_transpose(mat, [5])
    with pytest.raises(ValueError):
        partial_transpose(np.zeros((3, 3)), [1])


def test_min_pt_eigenvalue_closed_form():
    # only the corner coherence moves under the partial transpose, so the
    # minimum is the transposed pair's small eigenvalue or a bare diagonal
    state = FamilyState.from_unnormalized(4, 0.5, 0.1, (0.05, 0.3, 0.02, 0.3, 0.3, 0.01, 0.3))
    mat = build_density(state)
    half = state.delta / 2
    corner = (state.lam0_plus + state.lam0_minus) / 2
    for mask in range(1, 8):
        eig = min_pt_eigenvalue(mat, Splitting(4, mask))
        others = min(c for k, c in enumerate(state.lam, start=1) if k != mask)
        expected = min(state.coefficient(mask) - half, corner, others)
        assert eig == pytest.approx(expected, abs=1e-12)


def _catalog_and_random_states():
    yield example_state("I", 8, j=3)
    yield example_state("II", 7, band=(30, 70))
    yield example_state("III", 6, group={1, 3, 5})
    yield example_state("IV", 8, j=2)
    yield example_state("V", 8)
    yield example_state("VI")
    yield example_state("VII")
    yield example_state("V", 5, lam0_minus=0.1)
    for n in range(2, DENSE_PARTY_CAP + 1):
        for seed in range(3):
            yield random_family_state(n, seed)


def _coupled_count(mat: np.ndarray) -> int:
    off = mat != 0
    np.fill_diagonal(off, False)
    return int((off.any(axis=0) | off.any(axis=1)).sum())


def test_build_density_equals_the_dense_projector_sum():
    for state in _catalog_and_random_states():
        mat = build_density(state)
        ref = dense_projector_sum(state)
        assert np.array_equal(mat, ref)
        assert np.array_equal(np.signbit(mat), np.signbit(ref))


def test_family_partial_transposes_keep_their_exact_zeros():
    # a build that leaves rounding residue where a label's two projectors
    # cancel couples every index, and the deflated solve would stop deflating
    for state in _catalog_and_random_states():
        mat = build_density(state)
        assert _coupled_count(mat) <= 2
        for mask in range(1, state.label_count + 1):
            pt = partial_transpose(mat, Splitting(state.n, mask).side_b)
            assert _coupled_count(pt) <= 2, (state.n, mask)


def _sparse_hermitian(rng, dim, density, complex_):
    mat = np.diag(rng.normal(size=dim))
    hits = rng.random((dim, dim)) < density
    vals = rng.normal(size=(dim, dim))
    if complex_:
        vals = vals + 1j * rng.normal(size=(dim, dim))
    off = np.tril(np.where(hits, vals, 0), -1)
    return mat + off + off.conj().T


def test_deflated_min_eigenvalue_matches_the_full_solve():
    rng = np.random.default_rng(1413)
    cases = []
    for dim in (1, 2, 3, 8, 17, 64):
        for complex_ in (False, True):
            for density in (0.0, 0.02, 0.1, 1.0):
                cases.append(_sparse_hermitian(rng, dim, density, complex_))
    tiny = np.diag(rng.normal(size=16))
    tiny[3, 11] = tiny[11, 3] = 1e-300
    cases.append(tiny)
    for mat in cases:
        full = np.linalg.eigvalsh(mat)
        scale = max(1.0, float(np.abs(full).max()))
        assert abs(_min_eigenvalue(mat) - full.min()) <= 1e-12 * scale
    diag = np.diag(rng.normal(size=32))
    assert _min_eigenvalue(diag) == diag.diagonal().min()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("row, col", [(0, 0), (1, 1), (0, 15), (3, 5)])
def test_min_pt_eigenvalue_rejects_non_finite_entries(value, row, col):
    mat = build_density(example_state("VI"))
    mat[row, col] = value
    with pytest.raises(ValueError, match=rf"entry \({row}, {col}\) is not finite"):
        min_pt_eigenvalue(mat, Splitting(4, 1))
    with pytest.raises(ValueError, match=rf"entry \({row}, {col}\) is not finite"):
        min_pt_eigenvalue(mat.astype(np.complex128), Splitting(4, 3))


def test_agreement_on_random_states():
    for seed in range(12):
        state = random_family_state(4, seed=seed)
        report = ppt_agreement_report(state)
        assert report.all_agree, [str(c.split) for c in report.checks if not c.agree]
        assert len(report.checks) == 7


def test_agreement_at_the_boundary():
    # a label exactly at half the corner gap is separable; eig lands at zero
    state = FamilyState(3, 0.4, 0.0, (0.2, 0.05, 0.05))
    assert state.indicator(1) == 0
    report = ppt_agreement_report(state)
    assert report.all_agree
    eig = min_pt_eigenvalue(build_density(state), Splitting(3, 1))
    assert eig == pytest.approx(0.0, abs=1e-12)


def test_party_cap_enforced():
    big = FamilyState(DENSE_PARTY_CAP + 1, 1.0, 0.0, (0.0,) * ((1 << DENSE_PARTY_CAP) - 1))
    with pytest.raises(ValueError, match=f"dense route caps at {DENSE_PARTY_CAP} parties"):
        build_density(big)
    # a wrong coefficient count never reaches the build: the state refuses it
    for lam in ((0.1,) * 6, (0.1,) * 8):
        with pytest.raises(ValueError, match=f"length {len(lam)}, expected 7"):
            FamilyState(4, 0.3, 0.0, lam)


def test_coefficient_extraction_roundtrip():
    state = random_family_state(4, seed=42)
    back = coefficients_from_density(build_density(state))
    assert back.n == 4
    assert back.lam0_plus == pytest.approx(state.lam0_plus, abs=1e-12)
    assert back.lam0_minus == pytest.approx(state.lam0_minus, abs=1e-12)
    for a, b in zip(back.lam, state.lam):
        assert a == pytest.approx(b, abs=1e-12)


def test_coefficient_extraction_rejects_outsiders():
    mat = np.eye(8) / 8.0
    mat[1, 2] = mat[2, 1] = 0.05  # coherence the family cannot express
    with pytest.raises(ValueError):
        coefficients_from_density(mat)


def test_measure_dense_matches_family_route():
    from entact import measure_out_party

    state = random_family_state(4, seed=3)
    fam = measure_out_party(state, 2)
    out = measure_plus_dense(build_density(state), 2)
    assert out.shape == (8, 8)
    assert np.isclose(np.trace(out), 1.0)
    back = coefficients_from_density(out)
    assert back.n == 3
    assert back.lam0_plus == pytest.approx(fam.lam0_plus, abs=1e-12)
    assert back.lam0_minus == pytest.approx(fam.lam0_minus, abs=1e-12)
    for a, b in zip(back.lam, fam.lam):
        assert a == pytest.approx(b, abs=1e-12)


def test_join_dense_matches_family_route():
    from entact import join_povm

    state = random_family_state(4, seed=9)
    fam = join_povm(state, {1, 2})
    back = coefficients_from_density(join_dense(build_density(state), [1, 2]))
    assert back.lam0_plus == pytest.approx(fam.lam0_plus, abs=1e-12)
    assert back.lam0_minus == pytest.approx(fam.lam0_minus, abs=1e-12)
    for a, b in zip(back.lam, fam.lam):
        assert a == pytest.approx(b, abs=1e-12)


def test_effective_pair_dense_matches_family_form():
    state = random_family_state(5, seed=11)
    split = Splitting(5, 6)
    sub = effective_pair_dense(build_density(state), split)
    assert sub.shape == (4, 4)
    assert np.isclose(np.trace(sub), 1.0)
    norm = state.lam0_plus + state.lam0_minus + 2 * state.coefficient(split.mask)
    corner = (state.lam0_plus - state.lam0_minus) / 2 / norm
    assert sub[0, 0] == pytest.approx((state.lam0_plus + state.lam0_minus) / 2 / norm, abs=1e-12)
    assert sub[0, 3] == pytest.approx(corner, abs=1e-12)
    assert sub[1, 1] == pytest.approx(state.coefficient(split.mask) / norm, abs=1e-12)


def test_pair_density_agrees_with_dense_projection():
    from entact import project_to_effective_pair

    state = random_family_state(5, seed=11)
    split = Splitting(5, 6)
    pair = project_to_effective_pair(state, split)
    mat = build_density(pair) / pair.total_weight()
    sub = effective_pair_dense(build_density(state), split)
    assert np.allclose(mat, sub, atol=1e-12)


def test_permute_dense_swaps_axes():
    state = random_family_state(3, seed=2)
    mat = build_density(state)
    out = permute_dense(mat, (3, 2, 1))
    back = coefficients_from_density(out)
    assert back.coefficient(1) == pytest.approx(state.coefficient(3), abs=1e-12)
    assert back.coefficient(2) == pytest.approx(state.coefficient(2), abs=1e-12)
    assert back.coefficient(3) == pytest.approx(state.coefficient(1), abs=1e-12)
    with pytest.raises(ValueError):
        permute_dense(mat, (1, 2))
    with pytest.raises(ValueError):
        permute_dense(mat, (1, 2, 2))


def _complex_projector_sum(state: FamilyState) -> np.ndarray:
    """The state written out independently, as complex vectors and projectors."""
    n, dim = state.n, 1 << state.n
    rho = np.zeros((dim, dim), dtype=np.complex128)
    weights = [(0, 1, state.lam0_plus), (0, -1, state.lam0_minus)]
    weights += [(k, s, w) for k, w in enumerate(state.lam, start=1) for s in (1, -1)]
    for label, sign, weight in weights:
        # party i < n is flipped when bit i - 1 of the label is set; party 1 is the top bit
        idx = sum(1 << (n - i) for i in range(1, n) if label >> (i - 1) & 1)
        v = np.zeros(dim, dtype=np.complex128)
        v[idx] = 1 / math.sqrt(2)
        v[dim - 1 - idx] = sign / math.sqrt(2)
        rho += weight * np.outer(v, v.conj())
    return rho


def _sample_states():
    yield example_state("VI")
    yield example_state("VII")
    yield example_state("V", 3)
    yield example_state("IV", 6, j=2)
    for n in range(3, 7):
        for seed in range(2):
            yield random_family_state(n, seed)


def test_family_matrices_are_real():
    assert ghz_basis_vector(4, 5, -1).dtype == np.float64
    for state in _sample_states():
        mat = build_density(state)
        assert mat.dtype == np.float64
        assert np.abs(mat - _complex_projector_sum(state)).max() <= 1e-15
        assert partial_transpose(mat, [1]).dtype == np.float64


def test_complex_hermitian_input_matches_the_real_route():
    # a local phase diag(1, e^{i phi}) on one party makes the matrix truly
    # complex and leaves every partial-transpose spectrum unchanged
    for k, state in enumerate(_sample_states()):
        n = state.n
        rho = build_density(state)
        party = k % n + 1
        bit = np.arange(1 << n) >> (n - party) & 1
        phase = np.exp(1j * 0.7 * bit)
        twisted = phase[:, None] * rho * phase.conj()[None, :]
        assert twisted.dtype == np.complex128
        assert np.abs(twisted.imag).max() > 0.01
        for mask in range(1, state.label_count + 1):
            split = Splitting(n, mask)
            assert min_pt_eigenvalue(twisted, split) == pytest.approx(
                min_pt_eigenvalue(rho, split), abs=1e-12
            )


def test_oracle_party_arguments_must_be_integers():
    mat = build_density(random_family_state(3, seed=1))
    with pytest.raises(ValueError, match="party True is not an integer"):
        partial_transpose(mat, [True])
    with pytest.raises(ValueError, match=r"party 1\.0 is not an integer"):
        partial_transpose(mat, [1.0])
    with pytest.raises(ValueError, match="party '1' is not an integer"):
        partial_transpose(mat, ["1"])
    with pytest.raises(ValueError, match="party True is not an integer"):
        join_dense(mat, [True, 2])
    with pytest.raises(ValueError, match="party True is not an integer"):
        measure_plus_dense(mat, True)
    with pytest.raises(ValueError, match=r"party 1\.0 is not an integer"):
        measure_plus_dense(mat, 1.0)
    with pytest.raises(ValueError, match="party True is not an integer"):
        permute_dense(mat, (True, 2, 3))
    with pytest.raises(ValueError, match="tolerance"):
        ppt_agreement_report(random_family_state(3, seed=1), tol=True)
