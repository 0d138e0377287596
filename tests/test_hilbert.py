"""State vectors, projectors, Born rule, tensors, spectral families."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qconcepts.errors import DimensionMismatch, ModelError, NoInterferenceSolution
from qconcepts.hilbert import (
    ALGEBRAIC_TOL,
    STRUCTURAL_TOL,
    Projector,
    SpectralFamily,
    StateVector,
    arccos_clamped,
    born_probability,
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


# --------------------------------------------------------------- arccos_clamped

def test_arccos_clamped_refuses_a_nan_cosine():
    # catches the range test written as abs(arg) > 1 + COS_CLAMP_SLACK, False for NaN
    with pytest.raises(NoInterferenceSolution, match="scalar") as exc:
        arccos_clamped(np.nan, "scalar")
    assert np.isnan(exc.value.argument)
    with pytest.raises(NoInterferenceSolution, match="element 1"):
        arccos_clamped(np.array([0.5, np.nan, 2.0]), lambda i: f"element {i}")


# ------------------------------------------------------------------ StateVector

def test_state_vector_accepts_unit_norm():
    s = StateVector([1 / np.sqrt(2), 1j / np.sqrt(2)])
    assert s.components.size == 2
    assert s.norm() == pytest.approx(1.0, abs=1e-12)


def test_state_vector_rejects_non_unit_norm():
    with pytest.raises(ModelError):
        StateVector([1.0, 1.0])


def test_state_vector_refuses_a_nan_component():
    # catches the norm check written as abs(nrm - 1.0) > STRUCTURAL_TOL, False for NaN
    with pytest.raises(ModelError, match="not normalized: .* = nan"):
        StateVector([np.nan, 0.0])


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
    assert p.basis_indices is not None
    assert p.basis_indices == (0, 2)
    assert p.dim == 4
    m = p.matrix
    assert np.array_equal(m, np.diag([1.0, 0.0, 1.0, 0.0]).astype(complex))


def test_projector_dense_validation():
    v = np.array([1.0, 1.0]) / np.sqrt(2)
    m = np.outer(v, v)
    p = Projector(matrix=m)
    assert p.dim == 2
    assert p.basis_indices is None


def test_projector_rejects_non_idempotent():
    with pytest.raises(ModelError):
        Projector(matrix=np.array([[0.5, 0.0], [0.0, 1.0]]) * 1.2)


def test_projector_rejects_non_hermitian():
    with pytest.raises(ModelError):
        Projector(matrix=np.array([[1.0, 0.5], [0.0, 0.0]]))


def test_projector_refuses_a_nan_entry():
    # catches the Hermitian check written as max|m - m^H| > STRUCTURAL_TOL, False for NaN
    with pytest.raises(ModelError, match="not Hermitian"):
        Projector(matrix=[[np.nan, 0.0], [0.0, 0.0]])


def test_projector_refuses_a_square_that_overflows_to_nan():
    # finite and Hermitian, but |b|^2 overflows and OpenBLAS's complex product
    # gives nan+nanj on the diagonal of m @ m; catches the idempotence check
    # written as max|m @ m - m| > STRUCTURAL_TOL, False for NaN
    b = 1e155 + 1e155j
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ModelError, match="not idempotent"):
            Projector(matrix=[[0.0, b], [np.conj(b), 0.0]])


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


def test_projector_refuses_a_matrix_that_is_not_square():
    for matrix in (np.ones((2, 3)), np.ones(2)):
        with pytest.raises(ModelError, match="must be square"):
            Projector(matrix=matrix)


def test_diagonal_projector_needs_a_dim():
    with pytest.raises(ModelError, match="explicit dim"):
        Projector(basis_indices=(0,))


def test_spectral_family_refuses_a_member_of_another_dim():
    with pytest.raises(DimensionMismatch, match="disagree on dim"):
        SpectralFamily((Projector(basis_indices=(0,), dim=2),
                        Projector(basis_indices=(0,), dim=3)), 2)


def test_projector_apply_zeroes_excluded_coordinates():
    p = Projector(basis_indices=(1,), dim=3)
    out = p.apply(np.array([1.0, 2.0, 3.0], dtype=complex))
    assert np.array_equal(out, np.array([0.0, 2.0, 0.0], dtype=complex))


# ------------------------------------------------------------------- Born rule

def test_born_probability_diagonal_sums_squares():
    s = StateVector([0.6, 0.8j])
    p = Projector(basis_indices=(0,), dim=2)
    assert born_probability(s, p) == pytest.approx(0.36, abs=1e-12)
    assert born_probability(s, Projector(basis_indices=(1,), dim=2)) == pytest.approx(0.64, abs=1e-12)


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


@pytest.mark.parametrize("projector", [
    Projector(basis_indices=(0,), dim=2), Projector(basis_indices=(0, 1), dim=2),
    Projector(matrix=np.eye(2))], ids=["one-index", "two-index", "dense"])
def test_born_probability_refuses_a_nan_state(projector):
    # a NaN compares False both ways, so a range test must be written to fail on it
    with pytest.raises(ModelError, match=r"outside \[0, 1\]: nan"):
        born_probability(np.array([np.nan, 0.0]), projector)


def test_born_probability_refuses_a_value_that_is_not_real():
    # an anti-Hermitian part of 4e-10 passes the projector's Hermitian and
    # idempotence checks (its square is 1.6e-19), and gives <s|M|s> an
    # imaginary part of 4e-10 on s = (1, i)/sqrt(2)
    eps = 4e-10
    projector = Projector(matrix=np.array([[1.0, eps], [-eps, 0.0]]))
    state = StateVector(np.array([1.0, 1j]) / np.sqrt(2.0))
    with pytest.raises(ModelError, match="not real: imag = 4.000e-10"):
        born_probability(state, projector)


def _born_zero_filled(comps, projector):
    """Reference Born rule: vdot of the state with its zero-filled projection."""
    if comps.shape[0] != projector.dim:
        raise DimensionMismatch(f"projector dim {projector.dim} vs state dim {comps.shape[0]}")
    if projector.basis_indices is not None:
        proj = np.zeros_like(comps)
        if projector.basis_indices:
            sel = np.array(projector.basis_indices)
            proj[sel] = comps[sel]
    else:
        proj = projector.matrix @ comps
    val = complex(np.vdot(comps, proj))
    if abs(val.imag) > ALGEBRAIC_TOL:
        raise ModelError(f"Born probability not real: imag = {val.imag:.3e}")
    p = val.real
    if p < -STRUCTURAL_TOL or p > 1.0 + STRUCTURAL_TOL:
        raise ModelError(f"Born probability outside [0, 1]: {p!r}")
    return min(max(p, 0.0), 1.0)


def _outcome(born, comps, projector):
    """The result's exact bits, or the error's type and message."""
    try:
        return float(born(comps, projector)).hex()
    except ModelError as exc:
        return type(exc), str(exc)


@st.composite
def _states_and_projectors(draw):
    dim = draw(st.integers(1, 40))
    parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * dim, max_size=2 * dim))
    comps = np.array(parts[:dim]) + 1j * np.array(parts[dim:])
    norm = np.linalg.norm(comps)
    if norm > 0.0 and draw(st.booleans()):
        comps = comps / norm
    single = st.tuples(st.integers(0, dim - 1))
    indices = draw(st.one_of(single, single, st.sets(st.integers(0, dim - 1))))
    proj_dim = draw(st.sampled_from([dim, dim, dim, dim + 1]))
    return comps, Projector(basis_indices=indices, dim=proj_dim)


@settings(derandomize=True, deadline=None, max_examples=500)
@given(case=_states_and_projectors())
def test_born_probability_is_bitwise_the_zero_filled_vdot(case):
    comps, projector = case
    assert _outcome(born_probability, comps, projector) == \
        _outcome(_born_zero_filled, comps, projector)


@pytest.mark.parametrize("dim", [25, 3001])
def test_born_probability_on_every_basis_direction_of_a_large_state(dim):
    comps = random_state(dim, np.random.default_rng(dim)).components
    for k in range(dim):
        projector = Projector(basis_indices=(k,), dim=dim)
        assert _outcome(born_probability, comps, projector) == \
            _outcome(_born_zero_filled, comps, projector)


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
def test_schmidt_rank_refuses_non_finite_components(bad):
    # numpy's SVD would raise LinAlgError (not a ModelError) on these
    state = np.array([bad, 0.0, 0.0, 1.0])
    with pytest.raises(ModelError, match="finite"):
        schmidt_rank(state, (2, 2))
    with pytest.raises(ModelError, match="finite"):
        schmidt_rank(StateVector(state, normalized=False), (2, 2))


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
