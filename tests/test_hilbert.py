"""State vectors, projectors, Born rule, collapse, tensors, spectral families."""
from __future__ import annotations

import numpy as np
import pytest

from qconcepts.errors import CollapseImpossible, DimensionMismatch, ModelError
from qconcepts.hilbert import (
    Projector,
    SpectralFamily,
    StateVector,
    born_probability,
    collapse,
    inner_product,
    schmidt_rank,
    tensor_product,
    validate_spectral_family,
)

RNG = np.random.default_rng(20240811)


def random_state(dim, rng=RNG):
    z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector(z / np.linalg.norm(z))


def random_unitary(dim, rng=RNG):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ------------------------------------------------------------------ StateVector

def test_state_vector_accepts_unit_norm():
    s = StateVector([1 / np.sqrt(2), 1j / np.sqrt(2)])
    assert s.dim == 2
    assert s.norm() == pytest.approx(1.0, abs=1e-12)


def test_state_vector_rejects_non_unit_norm():
    with pytest.raises(ModelError):
        StateVector([1.0, 1.0])


def test_state_vector_unnormalized_flag_allows_any_norm():
    s = StateVector([3.0, 4.0], normalized=False)
    assert s.norm() == pytest.approx(5.0, abs=1e-12)


def test_state_vector_rejects_empty():
    with pytest.raises(ModelError):
        StateVector([])


# ---------------------------------------------------------------- inner product

def test_inner_product_conjugates_first_argument():
    a = StateVector([1.0, 0.0])
    b = StateVector([0.0, 1j])
    # <a|b> of basis vectors
    assert inner_product(a, a) == pytest.approx(1.0)
    assert inner_product(a, b) == 0
    c = StateVector([1 / np.sqrt(2), 1j / np.sqrt(2)])
    d = StateVector([1 / np.sqrt(2), 1 / np.sqrt(2)])
    # conj on the left slot: <c|d> = (1 - i)/2
    assert inner_product(c, d) == pytest.approx(0.5 - 0.5j, abs=1e-12)
    assert inner_product(d, c) == pytest.approx(0.5 + 0.5j, abs=1e-12)


def test_inner_product_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        inner_product(StateVector([1.0, 0.0]), StateVector([1.0, 0.0, 0.0]))


# ------------------------------------------------------------------- Projector

def test_projector_diagonal_indices():
    p = Projector(basis_indices=(2, 0), dim=4)
    assert p.is_diagonal
    assert p.basis_indices == (0, 2)
    assert p.dim == 4
    m = p.matrix
    assert np.array_equal(m, np.diag([1.0, 0.0, 1.0, 0.0]).astype(complex))


def test_projector_dense_validation():
    v = np.array([1.0, 1.0]) / np.sqrt(2)
    m = np.outer(v, v)
    p = Projector(matrix=m)
    assert p.dim == 2
    assert not p.is_diagonal


def test_projector_rejects_non_idempotent():
    with pytest.raises(ModelError):
        Projector(matrix=np.array([[0.5, 0.0], [0.0, 1.0]]) * 1.2)


def test_projector_rejects_non_hermitian():
    with pytest.raises(ModelError):
        Projector(matrix=np.array([[1.0, 0.5], [0.0, 0.0]]))


def test_projector_requires_exactly_one_source():
    with pytest.raises(ModelError):
        Projector()
    with pytest.raises(ModelError):
        Projector(matrix=np.eye(2), basis_indices=(0,), dim=2)


def test_projector_indices_validated():
    with pytest.raises(ModelError):
        Projector(basis_indices=(4,), dim=3)
    with pytest.raises(ModelError):
        Projector(basis_indices=(0, 0), dim=3)


def test_projector_complement():
    p = Projector(basis_indices=(0,), dim=3)
    q = p.complement()
    assert q.basis_indices == (1, 2)
    assert np.allclose(p.matrix + q.matrix, np.eye(3))


def test_projector_apply_zeroes_excluded_coordinates():
    p = Projector(basis_indices=(1,), dim=3)
    out = p.apply(np.array([1.0, 2.0, 3.0], dtype=complex))
    assert np.array_equal(out, np.array([0.0, 2.0, 0.0], dtype=complex))


# ------------------------------------------------------------------- Born rule

def test_born_probability_diagonal_sums_squares():
    s = StateVector([0.6, 0.8j])
    p = Projector(basis_indices=(0,), dim=2)
    assert born_probability(s, p) == pytest.approx(0.36, abs=1e-12)
    assert born_probability(s, p.complement()) == pytest.approx(0.64, abs=1e-12)


def test_born_probability_matches_quadratic_form():
    for dim in (2, 3, 5):
        s = random_state(dim)
        u = random_unitary(dim)
        m = u[:, :2] @ u[:, :2].conj().T
        p = Projector(matrix=m)
        direct = float(np.real(s.components.conj() @ m @ s.components))
        assert born_probability(s, p) == pytest.approx(direct, abs=1e-12)


def test_born_probability_clips_rounding_overshoot():
    s = StateVector([1.0, 0.0])
    p = Projector(basis_indices=(0, 1), dim=2)
    val = born_probability(s, p)
    assert 0.0 <= val <= 1.0


def test_born_probability_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        born_probability(StateVector([1.0, 0.0]), Projector(basis_indices=(0,), dim=3))


# --------------------------------------------------------------------- collapse

def test_collapse_renormalizes():
    s = StateVector(np.array([0.6, 0.0, 0.8]) + 0j)
    p = Projector(basis_indices=(0, 1), dim=3)
    c = collapse(s, p)
    assert c.norm() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(c.components, [1.0, 0.0, 0.0])


def test_collapse_impossible_on_zero_probability():
    s = StateVector([1.0, 0.0])
    p = Projector(basis_indices=(1,), dim=2)
    with pytest.raises(CollapseImpossible):
        collapse(s, p)


def test_collapse_preserves_relative_phases():
    s = StateVector(np.array([0.5, 0.5j, np.sqrt(0.5)], dtype=complex))
    p = Projector(basis_indices=(0, 1), dim=3)
    c = collapse(s, p)
    ratio = c.components[1] / c.components[0]
    assert ratio == pytest.approx(1j, abs=1e-12)


# ----------------------------------------------------------------- tensor space

def test_tensor_product_basis_order_first_factor_slowest():
    a = StateVector([1.0, 0.0])
    b = StateVector([0.0, 1.0])
    t = tensor_product(a, b)
    assert np.array_equal(t.components, np.array([0, 1, 0, 0], dtype=complex))


def test_tensor_product_norm_multiplicative():
    for _ in range(100):
        da, db = RNG.integers(2, 6, size=2)
        a = RNG.normal(size=da) + 1j * RNG.normal(size=da)
        b = RNG.normal(size=db) + 1j * RNG.normal(size=db)
        t = tensor_product(StateVector(a, normalized=False),
                           StateVector(b, normalized=False))
        assert t.norm() == pytest.approx(
            np.linalg.norm(a) * np.linalg.norm(b), rel=1e-12)


def test_schmidt_rank_product_and_entangled():
    a, b = random_state(3), random_state(4)
    prod = tensor_product(a, b)
    assert schmidt_rank(prod, (3, 4)) == 1
    bell = StateVector(np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))
    assert schmidt_rank(bell, (2, 2)) == 2


def test_schmidt_rank_dimension_check():
    with pytest.raises(ModelError):
        schmidt_rank(StateVector([1.0, 0.0]), (2, 2))


# ------------------------------------------------------------- spectral families

def outcome_family(dim):
    projs = tuple(Projector(basis_indices=(k,), dim=dim) for k in range(dim))
    return SpectralFamily(projs, dim)


def test_validate_complete_orthogonal_family():
    report = validate_spectral_family(outcome_family(4))
    assert report.ok
    assert report.orthogonality_violations == ()
    assert report.completeness_defect == pytest.approx(0.0, abs=1e-12)


def test_validate_family_reports_overlap_and_defect():
    overlapping = SpectralFamily(
        (Projector(basis_indices=(0, 1), dim=3), Projector(basis_indices=(1,), dim=3)),
        3,
    )
    report = validate_spectral_family(overlapping)
    assert not report.ok
    assert [(i, j) for i, j, _ in report.orthogonality_violations] == [(0, 1)]

    incomplete = SpectralFamily((Projector(basis_indices=(0,), dim=3),), 3)
    report = validate_spectral_family(incomplete)
    assert not report.ok
    assert report.completeness_defect > 0.5


def test_born_over_family_sums_to_one():
    for dim in (2, 3, 5):
        s = random_state(dim)
        total = sum(born_probability(s, p) for p in outcome_family(dim).projectors)
        assert total == pytest.approx(1.0, abs=1e-9)
