"""Kernel results are adopted in place, without the public constructors'
copy and check.  These tests pin that adoption lets nothing through: every
overflow is still a RowError naming its rows, a program fault is still an
InternalError, results stay read-only, and the public constructors still
copy and validate what a caller hands them."""

import numpy as np
import pytest

from spinorspace import bilinears as bl
from spinorspace import clifford as cl
from spinorspace import fierz, lounesto
from spinorspace import spinor_forms as sf
from spinorspace.bilinears import BilinearSet
from spinorspace.spinor_forms import ClassicalSpinor

ROWS = np.array([[1, 0, 1, 0], [1e200, 0, 1, 0], [0, 1j, 0, 1]])

KERNELS = {
    "covariants": lambda c: bl.bilinear_covariants(ClassicalSpinor(c, cl.WEYL)),
    "euclidean": bl.euclidean_bilinears,
    "classify": lambda c: lounesto.classify(ClassicalSpinor(c, cl.DIRAC)),
}


@pytest.mark.parametrize("kernel", KERNELS.values(), ids=KERNELS.keys())
def test_overflowing_row_is_still_a_row_error(kernel):
    with pytest.raises(cl.RowError, match="do not fit in float64") as excinfo:
        kernel(ROWS)
    assert excinfo.value.rows.tolist() == [False, True, False]
    with pytest.raises(cl.RowError, match="do not fit in float64") as excinfo:
        kernel(ROWS[1])
    assert excinfo.value.rows.ndim == 0 and excinfo.value.rows


def test_reality_fault_is_internal_unless_a_row_does_not_fit(monkeypatch):
    forms = np.zeros((16, 4, 4), dtype=complex)
    forms[1] = 1j * np.eye(4)  # anti-Hermitian: its sandwich is imaginary
    monkeypatch.setattr(bl, "_forms", lambda signature, rep: forms)
    with pytest.raises(cl.InternalError, match="omega acquired an imaginary part"):
        bl.bilinear_covariants(ClassicalSpinor([[1, 0, 1, 0], [0, 1, 0, 0]], cl.WEYL))
    # a row whose sandwich overflows is the input's fault, named first
    with pytest.raises(cl.RowError, match="do not fit in float64") as excinfo:
        bl.bilinear_covariants(ClassicalSpinor([[1, 0, 1, 0], [1e200, 0, 0, 0]], cl.WEYL))
    assert excinfo.value.rows.tolist() == [False, True]


def test_adopted_results_are_read_only(rng):
    psi = ClassicalSpinor(rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4)), cl.DIRAC)
    b = bl.bilinear_covariants(psi)
    z = fierz.aggregate(b)
    arrays = [b.stack(), bl.euclidean_bilinears(psi.components).stack(), lounesto.classify(psi).bilinears.stack(),
              z.coeffs, (z * z).coeffs, (z + z).coeffs, (z - z).coeffs, (-z).coeffs, (2j * z).coeffs,
              z.reverse().coeffs, z.conjugate().coeffs, z.grade(2).coeffs, sf.algebraic_from_classical(psi).matrix]
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[..., 0] = 1.0


def test_adopted_covariants_equal_the_validated_route(rng):
    for rep in (cl.WEYL, cl.DIRAC):
        psi = ClassicalSpinor(rng.standard_normal((50, 4)) + 1j * rng.standard_normal((50, 4)), rep)
        b = bl.bilinear_covariants(psi)
        assert b == BilinearSet.from_stack(b.stack())
        assert b == BilinearSet(b.sigma, b.omega, b.J, b.K, b.S)
        assert lounesto.classify(psi).bilinears.signature is cl.Signature.MINKOWSKI


def test_algebraic_from_classical_adopts_a_first_column_matrix(rng):
    psi = ClassicalSpinor(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)), cl.WEYL)
    xi = sf.algebraic_from_classical(psi)
    assert not xi.matrix[..., 1:].any()
    assert np.array_equal(xi.matrix[..., 0], psi.to_rep(cl.DIRAC).components)
    assert np.array_equal(sf.AlgebraicSpinor(xi.matrix).matrix, xi.matrix)


def test_public_algebraic_spinor_still_checks_its_columns():
    m = np.zeros((4, 4), dtype=complex)
    m[:, 0] = [1, 2j, 0, 1]
    assert np.array_equal(sf.AlgebraicSpinor(m).matrix, m)
    m[2, 3] = 1e-6
    with pytest.raises(ValueError, match="first column"):
        sf.AlgebraicSpinor(m)
    batch = np.zeros((3, 4, 4), dtype=complex)
    batch[..., 0] = 1.0
    batch[1, 0, 1] = 1.0
    with pytest.raises(ValueError, match="first column"):
        sf.AlgebraicSpinor(batch)


def test_public_constructors_still_copy_and_validate():
    v = np.arange(16.0)
    b = BilinearSet.from_stack(v)
    v[0] = 99.0
    assert b.sigma == 0.0 and not b.stack().flags.writeable
    with pytest.raises(ValueError, match="covariants must be finite"):
        BilinearSet.from_stack(np.full((2, 16), np.inf))
    with pytest.raises(ValueError, match="covariants must be finite"):
        BilinearSet(np.nan, 0.0, np.zeros(4), np.zeros(4), np.zeros(6))
    c = np.zeros(16, dtype=complex)
    mv = cl.Multivector(cl.Signature.MINKOWSKI, c)
    c[0] = 1.0
    assert mv.coeffs[0] == 0 and not mv.coeffs.flags.writeable
    with pytest.raises(ValueError, match="finite"):
        ClassicalSpinor([np.inf, 0, 0, 0])
