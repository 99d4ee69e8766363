"""Dense brute-force oracle: density matrices, partial transpose, agreement."""
from __future__ import annotations

import numpy as np
import pytest

from entact import FamilyState, Splitting, random_family_state
from entact.oracle import (
    DENSE_PARTY_CAP,
    build_density,
    coefficients_from_density,
    effective_pair_dense,
    ghz_basis_vector,
    join_dense,
    measure_plus_dense,
    min_pt_eigenvalue,
    partial_transpose,
    permute_dense,
    ppt_agreement_report,
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
    big = FamilyState(DENSE_PARTY_CAP + 1, 1.0, 0.0, (0.0,) * (1 << DENSE_PARTY_CAP))
    with pytest.raises(ValueError):
        build_density(big)


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
