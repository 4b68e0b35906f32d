"""One overflow path.

Arithmetic that can overflow runs in a function decorated with
clifford._quiet, the package's one np.errstate, and its result goes
through clifford._fitting.  The covariant kernel takes no tensor scale of
its own, only the frozen one of its signature, so it has no path that can
overflow after its sandwiches.  These tests read the package's syntax
trees and pin that no other np.errstate, and no with block entering one,
comes back, and that a norm beyond float64 is inf without a warning, as
are the closed-form Euclidean components and the Minkowski square and dot
of inputs whose squares overflow; the sphere check then names the rows.  A
non-finite scale factor is no overflow: it raises its own RowError for the
rows it scales, and finite factors keep the overflow message.
"""

import ast
import inspect
import warnings
from pathlib import Path

import numpy as np
import pytest

from spinorspace import bilinears, clifford, spinor_forms, topology

SRC = Path(__file__).resolve().parent.parent / "src" / "spinorspace"
TREES = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def test_the_one_errstate_is_the_quiet_decorator():
    calls = [(module, node) for module, tree in TREES.items() for node in ast.walk(tree)
             if isinstance(node, ast.Call) and "errstate" in (getattr(node.func, "attr", None),
                                                              getattr(node.func, "id", None))]
    assert [(module, ast.unparse(node)) for module, node in calls] == [("clifford", "np.errstate(all='ignore')")]
    assigned = [ast.unparse(node.targets[0]) for node in TREES["clifford"].body
                if isinstance(node, ast.Assign) and node.value is calls[0][1]]
    assert assigned == ["_quiet"]
    assert isinstance(clifford._quiet, np.errstate)


def test_no_with_block_enters_an_errstate():
    for module, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    text = ast.unparse(item.context_expr)
                    assert "errstate" not in text and "_quiet" not in text, f"{module}: with {text}"


@pytest.mark.parametrize("kernel", [bilinears.bilinear_covariants, bilinears.euclidean_bilinears],
                         ids=["covariants", "euclidean"])
def test_covariant_kernels_take_only_the_spinor(kernel):
    assert list(inspect.signature(kernel).parameters) == ["psi"]


def test_quaternion_matrices_have_no_fit_check_of_their_own():
    assert not hasattr(spinor_forms, "_fitting_matrix")


@pytest.mark.parametrize("record", [
    clifford.scalar(1e200),
    spinor_forms.ClassicalSpinor([1e200, 0, 0, 0]),
    spinor_forms.Quaternion(1e200),
], ids=["multivector", "spinor", "quaternion"])
def test_norm_beyond_float64_is_inf_without_a_warning(record):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert record.norm() == np.inf


def quat_matrix_of(q):
    return spinor_forms.quat_matrix(q, q, q, q)


SCALINGS = {
    "multivector": lambda f, ones: clifford.scalar(ones) * f,
    "multivector-left": lambda f, ones: f * clifford.scalar(ones),
    "quaternion": lambda f, ones: spinor_forms.Quaternion(ones) * f,
    "quaternion-left": lambda f, ones: f * spinor_forms.Quaternion(ones),
    "quat-matrix": lambda f, ones: quat_matrix_of(spinor_forms.Quaternion(ones)).scale(f),
    "quat-matrix-left": lambda f, ones: f * quat_matrix_of(spinor_forms.Quaternion(ones)),
}


@pytest.mark.parametrize("scale", SCALINGS.values(), ids=SCALINGS.keys())
@pytest.mark.parametrize("factor", [np.nan, np.inf, -np.inf])
def test_a_non_finite_scale_factor_is_named(scale, factor):
    with pytest.raises(clifford.RowError, match="^scale factor must be finite$") as excinfo:
        scale(factor, 1.0)
    assert excinfo.value.rows.shape == () and excinfo.value.rows


@pytest.mark.parametrize("scale", SCALINGS.values(), ids=SCALINGS.keys())
def test_a_batch_names_the_rows_whose_factor_is_not_finite(scale):
    with pytest.raises(clifford.RowError, match="^scale factor must be finite$") as excinfo:
        scale(np.array([2.0, np.nan, 1e300, -np.inf]), np.ones(4))
    assert excinfo.value.rows.tolist() == [False, True, False, True]
    with pytest.raises(clifford.RowError, match="^scale factor must be finite$") as excinfo:
        scale(np.nan, np.ones(3))
    assert excinfo.value.rows.tolist() == [True, True, True]


@pytest.mark.parametrize("scale", SCALINGS.values(), ids=SCALINGS.keys())
def test_overflow_from_finite_factors_keeps_its_message(scale):
    with pytest.raises(clifford.RowError, match="product does not fit in float64$") as excinfo:
        scale(np.array([2.0, 1e300]), np.array([1.0, 1e10]))
    assert excinfo.value.rows.tolist() == [False, True]


# a class-1 spinor whose squares, and so its covariants, overflow float64
HUGE = np.array([1, 2j, 0.5, 1 + 1j]) * 1e200


def test_closed_form_components_beyond_float64_are_inf_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sigma, omega, j = bilinears.euclidean_components_closed_form(HUGE)
        assert sigma == np.inf and not np.isfinite(j).all()
        sigmas, _, _ = bilinears.euclidean_components_closed_form(np.stack([HUGE, HUGE / 1e200]))
        assert sigmas[0] == np.inf and np.isfinite(sigmas[1])


def test_sphere_check_names_a_spinor_whose_norm_overflows():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(clifford.RowError, match="^sigma = inf; normalize the spinor to unit norm first$") as e:
            topology.regular_sphere_check(HUGE)
        assert e.value.rows.shape == () and e.value.rows
        with pytest.raises(clifford.RowError, match="^sigma = inf; normalize") as e:
            topology.regular_sphere_check(np.stack([np.array([1.0, 0, 0, 0]), HUGE]))
        assert e.value.rows.tolist() == [False, True]


@pytest.mark.parametrize("form", [lambda v: bilinears.minkowski_square(v), lambda v: bilinears.minkowski_dot(v, v)],
                         ids=["square", "dot"])
def test_minkowski_forms_beyond_float64_are_inf_without_a_warning(form):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert form(np.array([1e200, 0.0, 0.0, 0.0])) == np.inf
        assert form(np.array([0.0, 1e200, 0.0, 0.0])) == -np.inf
