"""A batch is computed row by row with the single-item arithmetic.

Covariants and products must equal the per-row calls bit for bit.  The
identity residuals and the aggregate may sum in another order, so they are
held to 1e-15 times scale^2 (scale for the aggregate, which is linear in
the covariants), scale being a row's covariant component norm.
"""

import numpy as np
import pytest

from spinorspace import clifford as cl
from spinorspace import classmap, fierz, lounesto
from spinorspace import topology as tp
from spinorspace.bilinears import BilinearSet, bilinear_covariants, euclidean_bilinears
from spinorspace.spinor_forms import ClassicalSpinor

ROWS = 40
REL = 1e-15
FIELDS = ("sigma", "omega", "J", "K", "S")


def stack(rng, rows=ROWS):
    c = rng.standard_normal((rows, 4)) + 1j * rng.standard_normal((rows, 4))
    return c * np.exp(rng.uniform(-3, 3, size=(rows, 1)))


def batch_and_rows(rng, kind):
    """A batched covariant set of kind weyl, dirac or euclidean and its rows."""
    comps = stack(rng)
    if kind == "euclidean":
        return euclidean_bilinears(comps), [euclidean_bilinears(c) for c in comps]
    rep = cl.rep_by_tag(kind)
    return (bilinear_covariants(ClassicalSpinor(comps, rep)),
            [bilinear_covariants(ClassicalSpinor(c, rep)) for c in comps])


KINDS = ["weyl", "dirac", "euclidean"]


@pytest.mark.parametrize("kind", KINDS)
def test_covariants_bitwise(rng, kind):
    batch, rows = batch_and_rows(rng, kind)
    for name in FIELDS:
        assert np.array_equal(getattr(batch, name), np.array([getattr(r, name) for r in rows]))
    assert isinstance(rows[0].sigma, float)
    assert batch.sigma.shape == (ROWS,) and batch.S.shape == (ROWS, 6)


@pytest.mark.parametrize("signature", [cl.Signature.MINKOWSKI, cl.Signature.EUCLIDEAN])
def test_products_bitwise(rng, signature):
    a = cl.Multivector(signature, rng.standard_normal((ROWS, 16)) + 1j * rng.standard_normal((ROWS, 16)))
    b = cl.Multivector(signature, rng.standard_normal((ROWS, 16)) + 1j * rng.standard_normal((ROWS, 16)))
    single = [cl.Multivector(signature, x) for x in a.coeffs], [cl.Multivector(signature, x) for x in b.coeffs]
    per_row = np.array([cl.geometric_product(x, y).coeffs for x, y in zip(*single)])
    assert np.array_equal(cl.geometric_product(a, b).coeffs, per_row)
    assert np.array_equal(cl.left_mul_matrix(a), np.array([cl.left_mul_matrix(x) for x in single[0]]))
    assert np.array_equal(cl.right_mul_matrix(b), np.array([cl.right_mul_matrix(y) for y in single[1]]))
    # a batch against a single multivector broadcasts
    one = single[1][0]
    assert np.array_equal((a * one).coeffs, np.array([(x * one).coeffs for x in single[0]]))


def assert_rows_close(batched, per_row, scale, power):
    per_row = np.array(per_row)
    bound = REL * scale.reshape((-1,) + (1,) * (per_row.ndim - 1)) ** power
    assert np.all(np.abs(np.asarray(batched) - per_row) <= bound)


@pytest.mark.parametrize("kind", KINDS)
def test_aggregate_and_identities_match_rows(rng, kind):
    batch, rows = batch_and_rows(rng, kind)
    scale = batch.component_norm()
    z = fierz.aggregate(batch)
    zs = [fierz.aggregate(r) for r in rows]
    assert z.coeffs.shape == (ROWS, 16)
    assert_rows_close(z.coeffs, [x.coeffs for x in zs], scale, 1)
    assert_rows_close(fierz.boomerang_residual(z, batch.sigma),
                      [fierz.boomerang_residual(x, r.sigma) for x, r in zip(zs, rows)], np.ones(ROWS), 0)
    assert_rows_close(fierz.generalized_fpk_residuals(z, batch),
                      [fierz.generalized_fpk_residuals(x, r) for x, r in zip(zs, rows)], scale, 2)
    if kind == "euclidean":
        assert_rows_close(fierz.euclidean_fierz_residuals(batch),
                          [fierz.euclidean_fierz_residuals(r) for r in rows], scale, 2)
    else:
        res = fierz.fpk_residuals(batch)
        singles = [fierz.fpk_residuals(r) for r in rows]
        for name in ("r1", "r2", "r3", "r4"):
            assert_rows_close(getattr(res, name), [getattr(s, name) for s in singles], scale, 2)
        assert isinstance(singles[0].r4, float)
        flags = fierz._fpk_check(batch._on_ray()[0], 1e-8)[1]
        assert np.array_equal(flags, [fierz._fpk_check(r._on_ray()[0], 1e-8)[1] for r in rows])


@pytest.mark.parametrize("rep", [cl.WEYL, cl.DIRAC])
def test_classify_batch_matches_rows(rng, rep):
    spinors = [s.components for target in lounesto.LounestoClass if target.is_regular or target.is_singular
               for s in lounesto.generate(target, seed=3, count=4, rep=rep)]
    comps = np.array(spinors) * np.exp(rng.uniform(-5, 5, size=(len(spinors), 1)))
    batch = lounesto.classify(ClassicalSpinor(comps, rep))
    assert_report_rows(batch, [lounesto.classify(ClassicalSpinor(c, rep)) for c in comps])


def assert_report_rows(batch, rows):
    """Every column of a batched classification report equals the per-row reports."""
    assert list(batch.lounesto_class) == [r.lounesto_class for r in rows]
    assert np.array_equal(batch.bilinears.stack(), [r.bilinears.stack() for r in rows])
    assert np.array_equal(batch.margin, [r.margin for r in rows])
    for key, flags in batch.zero_flags.items():
        assert flags.tolist() == [r.zero_flags[key] for r in rows]
    assert all(r.tol == batch.tol for r in rows)


def test_reconstruct_batch_matches_rows(rng):
    psi = ClassicalSpinor(stack(rng), cl.DIRAC)
    z = fierz.aggregate(bilinear_covariants(psi))
    xi = fierz.default_probe_spinor(z, cl.DIRAC)
    got = fierz.reconstruct(z, xi, psi_ref=psi).components
    rows = []
    for c in psi.components:
        one = ClassicalSpinor(c, cl.DIRAC)
        zc = fierz.aggregate(bilinear_covariants(one))
        rows.append(fierz.reconstruct(zc, fierz.default_probe_spinor(zc, cl.DIRAC), psi_ref=one).components)
    assert_rows_close(got, rows, np.linalg.norm(psi.components, axis=-1), 1)


def test_row_errors_name_their_rows():
    psi = ClassicalSpinor([[1, 0, 1, 0], [1e200, 0, 1, 0], [0, 1, 0, 1]], cl.WEYL)
    with pytest.raises(cl.RowError, match="do not fit in float64") as excinfo:
        bilinear_covariants(psi)
    assert excinfo.value.rows.tolist() == [False, True, False]
    zero = ClassicalSpinor([[1, 0, 1, 0], [0, 0, 0, 0]], cl.WEYL)
    with pytest.raises(cl.RowError, match="zero spinor") as excinfo:
        lounesto.classify(zero)
    assert excinfo.value.rows.tolist() == [False, True]


def test_map_to_class4_batch_matches_rows(rng):
    """At tol 0.3 some images lose K or S, so the degenerate flags vary."""
    m = classmap.build_M(classmap.random_params(rng))
    tol = 0.3
    comps = []
    for c in stack(rng, 200):
        try:
            classmap.map_to_class4(m, ClassicalSpinor(c, cl.WEYL), tol)
        except ValueError:
            continue
        comps.append(c)
    batch = classmap.map_to_class4(m, ClassicalSpinor(np.array(comps), cl.WEYL), tol)
    rows = [classmap.map_to_class4(m, ClassicalSpinor(c, cl.WEYL), tol) for c in comps]
    assert np.array_equal(batch.spinor.components, [r.spinor.components for r in rows])
    assert list(batch.degenerate) == [r.degenerate for r in rows]
    assert {r.degenerate for r in rows} >= {(), ("K",), ("S",)}
    assert_report_rows(batch.report, [r.report for r in rows])
    assert isinstance(rows[0].degenerate, tuple)


def test_map_to_class4_row_errors(rng):
    m = classmap.build_M(classmap.random_params(rng))
    _, _, vh = np.linalg.svd(m.matrix)
    regular, c5, c6, kernel = [1, 0, 1, 0], [1, 0, 0, -1], [1, 0, 0, 0], vh[-1].conj()
    assert lounesto.classify(ClassicalSpinor(kernel, cl.WEYL)).lounesto_class.is_regular
    phi = ClassicalSpinor([regular, c6, c5, kernel, c6, regular], cl.WEYL)
    with pytest.raises(cl.RowError, match="got 6") as excinfo:
        classmap.map_to_class4(m, phi)
    assert excinfo.value.rows.tolist() == [False, True, False, False, True, False]
    with pytest.raises(cl.RowError, match="got 5") as excinfo:
        classmap.map_to_class4(m, ClassicalSpinor(phi.components[[0, 2, 3]], cl.WEYL))
    assert excinfo.value.rows.tolist() == [False, True, False]
    with pytest.raises(cl.RowError, match="kernel") as excinfo:
        classmap.map_to_class4(m, ClassicalSpinor(phi.components[[0, 3, 5]], cl.WEYL))
    assert excinfo.value.rows.tolist() == [False, True, False]
    with pytest.raises(cl.RowError, match="chiral") as excinfo:
        classmap.map_to_class4(m, ClassicalSpinor(phi.components[[0, 5]], cl.DIRAC))
    assert excinfo.value.rows.tolist() == [True, True]


def test_mapping_diagnostics_batch_matches_rows(rng):
    """frobenius, constraint_residuals and no_inverse_witness of a
    (4, 10, 4, 4) batch equal the single calls bit for bit, which give
    floats.  LAPACK's determinant of a stack is the 2-d one's row for row;
    the modulus is np.hypot in both, as numpy's np.abs of a complex can
    round apart from Python's abs of one."""
    params = [classmap.random_params(rng) for _ in range(ROWS)]
    v = np.array([p.stack() for p in params]).reshape(4, ROWS // 4, 9) * np.exp(rng.uniform(-3, 3, (4, ROWS // 4, 1)))
    batch = classmap.build_M(classmap.MappingParams(*np.moveaxis(v, -1, 0)))
    rows = [classmap.build_M(classmap.MappingParams(*row)) for row in v.reshape(ROWS, 9)]
    frobenius = [r.frobenius() for r in rows]
    assert isinstance(frobenius[0], float)
    assert batch.frobenius().tobytes() == np.reshape(frobenius, (4, -1)).tobytes()
    single = [classmap.constraint_residuals(r.matrix) for r in rows]
    assert isinstance(single[0][0], float) and isinstance(single[0][1], float)
    for got, want in zip(classmap.constraint_residuals(batch.matrix), zip(*single)):
        assert got.tobytes() == np.reshape(want, (4, -1)).tobytes()
    det = [classmap.no_inverse_witness(r.matrix) for r in rows]
    assert isinstance(det[0], float)
    assert classmap.no_inverse_witness(batch.matrix).tobytes() == np.reshape(det, (4, -1)).tobytes()
    assert classmap.no_inverse_witness(np.stack([np.eye(4), 2 * np.eye(4)])) == pytest.approx([1.0, 16.0], rel=1e-15)


def test_mapping_diagnostics_overflow_quietly():
    """Entries near 1e200 give a non-finite value per matrix with no warning."""
    m = classmap.build_M(classmap.MappingParams(*np.full((9, 2), 1e200 + 1e200j)))
    assert np.isinf(m.frobenius()).all()
    assert not np.isfinite(classmap.constraint_residuals(m.matrix)).any()
    assert classmap.no_inverse_witness(m.matrix).shape == (2,)


def test_bilinear_set_batch_shapes_must_agree():
    with pytest.raises(ValueError, match="4 components"):
        BilinearSet(np.zeros(3), np.zeros(3), np.zeros((2, 4)), np.zeros((3, 4)), np.zeros((3, 6)))
    with pytest.raises(ValueError, match="same batch shape"):
        BilinearSet(np.zeros(3), 0.0, np.zeros((3, 4)), np.zeros((3, 4)), np.zeros((3, 6)))


@pytest.mark.parametrize("kind", KINDS)
def test_project_regular_batch_matches_rows(rng, kind):
    batch, rows = batch_and_rows(rng, kind)
    out = tp.project_regular(batch)
    assert np.array_equal(out.stack(), [tp.project_regular(r).stack() for r in rows])
    assert out.signature is batch.signature and not out.K.any() and not out.S.any()


def test_fpk_membership_batch_matches_rows(rng):
    batch, rows = batch_and_rows(rng, "weyl")
    # a broken identity in one row and the all-zero point in another
    v = np.array(batch.stack())
    v[1, 2] *= 1.5
    v[2] = 0.0
    batch = BilinearSet.from_stack(v)
    got = tp.fpk_membership(batch)
    assert got.shape == (ROWS,) and not got[1] and got[2]
    assert got.tolist() == [tp.fpk_membership(BilinearSet.from_stack(x)) for x in v]


@pytest.mark.parametrize("rep", [cl.WEYL, cl.DIRAC])
def test_rescale_class_invariance_batch_matches_rows(rng, rep):
    spinors = [s.components for target in lounesto.LounestoClass if target.is_regular or target.is_singular
               for s in lounesto.generate(target, seed=5, count=3, rep=rep)]
    psi = ClassicalSpinor(np.array(spinors), rep)
    for c in (2.5 - 1j, 1e-9j, *np.exp(rng.uniform(-20, 20, size=3))):
        got = lounesto.rescale_class_invariance(psi, c)
        rows = [lounesto.rescale_class_invariance(ClassicalSpinor(x, rep), c) for x in spinors]
        assert got.tolist() == rows and all(rows) and isinstance(rows[0], bool)
    with pytest.raises(ValueError, match="zero spinor"):
        lounesto.rescale_class_invariance(ClassicalSpinor([spinors[0], np.zeros(4)], rep), 2.0)
