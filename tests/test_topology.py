"""Regular-sector projection, sphere checks, and winding numbers."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_spinor
from spinorspace import topology as tp
from spinorspace.bilinears import BilinearSet, bilinear_covariants, minkowski_square
from spinorspace.clifford import RowError
from spinorspace.fierz import fpk_residuals
from spinorspace.spinor_forms import ClassicalSpinor


def circle(radius=1.0, center=(0.0, 0.0), n=64, reverse=False):
    t = np.linspace(0.0, 2.0 * np.pi, n + 1)
    pts = np.stack([center[0] + radius * np.cos(t), center[1] + radius * np.sin(t)], axis=1)
    pts[-1] = pts[0]
    return pts[::-1] if reverse else pts


# -- projection -----------------------------------------------------------------


def test_project_regular_zeroes_k_and_s(rng):
    p = BilinearSet(1.0, 0.0, rng.standard_normal(4),
                    rng.standard_normal(4), rng.standard_normal(6))
    out = tp.project_regular(p)
    assert out.sigma == p.sigma and out.omega == p.omega
    assert np.array_equal(out.J, p.J)
    assert np.all(out.K == 0) and np.all(out.S == 0)


def test_project_regular_idempotent(rng):
    p = BilinearSet(0.5, -2.0, rng.standard_normal(4),
                    rng.standard_normal(4), rng.standard_normal(6))
    once = tp.project_regular(p)
    twice = tp.project_regular(once)
    assert np.array_equal(once.K, twice.K) and np.array_equal(once.S, twice.S)


def test_projection_preserves_first_identity(rng):
    for _ in range(20):
        b = bilinear_covariants(random_spinor(rng))
        out = tp.project_regular(b)
        r1 = minkowski_square(out.J) - out.sigma ** 2 - out.omega ** 2
        assert abs(r1) < 1e-10 * np.linalg.norm(b.J) ** 2


# -- winding --------------------------------------------------------------------


def test_winding_canonical_circles():
    assert tp.winding_number(circle()) == 1
    assert tp.winding_number(circle(center=(3.0, 0.0))) == 0
    assert tp.winding_number(circle(reverse=True)) == -1


def test_winding_report_fields():
    rep = tp.winding_report(circle())
    assert rep.winding == 1
    assert np.isclose(rep.angle_sum, 2.0 * np.pi)
    assert rep.residue < 1e-9


def test_winding_multiple_loops():
    double = np.vstack([circle()[:-1], circle()])
    assert tp.winding_number(double) == 2


def test_winding_rejects_origin_vertex():
    pts = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="origin"):
        tp.winding_number(pts)


def test_winding_rejects_coarse_path():
    pts = np.array([[1.0, 0.0], [-1.0, 0.1], [1.0, 0.2], [1.0, 0.0]])
    with pytest.raises(ValueError, match="coarse"):
        tp.winding_number(pts)


def test_winding_rejects_open_path():
    pts = circle()[:-1]
    with pytest.raises(ValueError, match="closed"):
        tp.winding_number(pts)


def linspace_circle():
    """The unit circle from linspace(0, 2 pi): its last vertex misses the
    first by a rounding residue, (1, -2.4e-16) against (1, 0)."""
    t = np.linspace(0.0, 2.0 * np.pi, 200)
    return np.stack([np.cos(t), np.sin(t)], axis=1)


def test_winding_accepts_a_path_closed_within_rounding():
    pts = linspace_circle()
    assert pts[-1, 1] != 0.0
    assert tp.winding_number(pts) == 1


def test_winding_rejects_a_path_open_by_a_relative_gap():
    """A gap of 9e-6 |first| is open, though each component is within the
    1e-5 relative tolerance of np.allclose."""
    pts = linspace_circle()
    pts[-1] = pts[0] * (1.0 + 9e-6)
    with pytest.raises(ValueError, match="closed"):
        tp.winding_number(pts)


def test_winding_rejects_endpoints_whose_gap_overflows():
    """The same error, with no overflow warning (the suite makes warnings errors)."""
    pts = [[1.7e308, 0.0], [0.0, 1.7e308], [-1.7e308, 0.0]]
    with pytest.raises(ValueError, match="path must be closed: first and last vertex must coincide"):
        tp.winding_number(pts)


def test_winding_rejects_short_path():
    with pytest.raises(ValueError, match="at least 3"):
        tp.winding_number([[1.0, 0.0], [1.0, 0.0]])


@pytest.mark.parametrize("vertex", [0, 3, 64])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_winding_rejects_non_finite_vertex(vertex, bad):
    """A NaN or infinite vertex is named by its index, not reported as an
    open or too coarse path."""
    pts = circle()
    pts[vertex, 1] = bad
    with pytest.raises(ValueError, match=f"path vertex {vertex} is not a finite"):
        tp.winding_number(pts)


def test_winding_additive_under_concatenation(rng):
    for _ in range(50):
        r1, r2 = rng.uniform(0.5, 2.0, size=2)
        c2 = (rng.uniform(2.5, 4.0), 0.0) if rng.integers(2) else (0.0, 0.0)
        a = circle(radius=r1)
        b = circle(radius=r2, center=c2)
        base = a[0]
        # connect through the shared base point and return
        path = np.vstack([a[:-1], [base], b - (b[0] - base)])
        wa, wb = tp.winding_number(a), tp.winding_number(b + (base - b[0]))
        assert tp.winding_number(path) == wa + wb


def test_winding_negates_under_reversal(rng):
    for _ in range(20):
        pts = circle(radius=rng.uniform(0.5, 3.0))
        assert tp.winding_number(pts[::-1]) == -tp.winding_number(pts)


@given(st.floats(min_value=1e-3, max_value=1e3))
def test_winding_scale_invariance(c):
    pts = circle()
    assert tp.winding_number(c * pts) == 1


def test_winding_matches_one_form_quadrature(rng):
    """Cross-check: midpoint quadrature of the closed 1-form along each
    segment agrees with the angle-increment route."""
    for _ in range(10):
        pts = circle(radius=rng.uniform(0.5, 2.0),
                     center=(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)),
                     n=128)
        total = 0.0
        for p, q in zip(pts[:-1], pts[1:]):
            ts = np.linspace(0.0, 1.0, 33)[:-1] + 0.5 / 32
            xy = p[None, :] + ts[:, None] * (q - p)[None, :]
            d = (q - p) / 32.0
            sigma, omega = xy[:, 0], xy[:, 1]
            total += np.sum((sigma * d[1] - omega * d[0]) / (sigma ** 2 + omega ** 2))
        assert np.isclose(total / (2.0 * np.pi), tp.winding_number(pts), atol=1e-3)


def test_class1_family_path_has_winding(rng):
    """A loop of regular states keeps (sigma, omega) off the origin, so the
    winding count is defined."""
    from spinorspace.lounesto import LounestoClass, generate

    psi = generate(LounestoClass.C1, seed=5, count=1)[0]
    b0 = bilinear_covariants(psi)
    pts = []
    for t in np.linspace(0.0, 2.0 * np.pi, 129):
        # rotate the scalar pair along the loop; stays in the regular sector
        sigma = b0.sigma * np.cos(t) - b0.omega * np.sin(t)
        omega = b0.sigma * np.sin(t) + b0.omega * np.cos(t)
        pts.append([sigma, omega])
    pts = np.array(pts)
    pts[-1] = pts[0]
    assert tp.winding_number(pts) == 1


# -- sphere constraint ------------------------------------------------------------


def test_sphere_check_basis_spinor():
    assert tp.regular_sphere_check([1, 0, 0, 0]) == 0.0


def test_sphere_check_random_normalized(rng):
    worst = 0.0
    for _ in range(1000):
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi = psi / np.linalg.norm(psi)
        worst = max(worst, tp.regular_sphere_check(psi))
    assert worst < 1e-10


def test_sphere_check_rejects_unnormalized():
    with pytest.raises(ValueError, match="normalize"):
        tp.regular_sphere_check([2, 0, 0, 0])


# -- membership gate ----------------------------------------------------------------


def test_membership_spinor_point(rng):
    assert tp.fpk_membership(bilinear_covariants(random_spinor(rng)))


def test_membership_rejects_timelike_k_without_current():
    p = BilinearSet(0.0, 0.0, np.zeros(4), np.array([1.0, 0, 0, 0]), np.zeros(6))
    assert not tp.fpk_membership(p)


def test_membership_zero_point_degenerate():
    p = BilinearSet(0.0, 0.0, np.zeros(4), np.zeros(4), np.zeros(6))
    assert tp.fpk_membership(p)


def test_membership_agrees_with_residuals(rng):
    b = bilinear_covariants(random_spinor(rng))
    assert fpk_residuals(b).max_abs() < 1e-8 * b.component_norm() ** 2


def test_sphere_check_takes_batches(rng):
    assert tp.regular_sphere_check(np.eye(4)[:3]).tolist() == [0.0, 0.0, 0.0]
    psi = rng.standard_normal((200, 4)) + 1j * rng.standard_normal((200, 4))
    psi /= np.linalg.norm(psi, axis=-1, keepdims=True)
    got = tp.regular_sphere_check(psi.reshape(10, 20, 4))
    assert got.shape == (10, 20)
    # each row is the single call's deviation, bit for bit
    assert got.ravel().tolist() == [tp.regular_sphere_check(p) for p in psi]


def test_sphere_check_names_unnormalized_rows():
    psi = np.array([[1, 0, 0, 0], [2, 0, 0, 0], [0, 1j, 0, 0], [0, 0, 0, 3], [np.nan, 0, 0, 0]])
    with pytest.raises(RowError, match="normalize") as excinfo:
        tp.regular_sphere_check(psi)
    assert excinfo.value.rows.tolist() == [False, True, False, True, True]
    with pytest.raises(RowError, match="sigma = nan"):
        tp.regular_sphere_check([np.nan, 0, 0, 0])


def test_projection_equals_the_zeroed_stack(rng):
    b = bilinear_covariants(ClassicalSpinor(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))))
    v = np.array(b.stack())
    v[:, 6:] = 0.0
    assert tp.project_regular(b) == BilinearSet.from_stack(v)
    assert tp.project_regular(tp.project_regular(b)) == tp.project_regular(b)


def test_large_closed_path_residue_stays_at_rounding_level():
    """A closed path's angle sum is a whole number of turns up to rounding:
    400002 vertices, each step just under pi/2 (m turns in 4m + 1 steps),
    radii from 1e-300 to 1e300."""
    m = 100_000
    rng = np.random.default_rng(31)
    theta = 2.0 * np.pi * m * np.arange(4 * m + 2) / (4 * m + 1)
    radius = 10.0 ** rng.uniform(-300, 300, theta.shape)
    pts = np.stack([radius * np.cos(theta), radius * np.sin(theta)], axis=1)
    pts[-1] = pts[0]
    report = tp.winding_report(pts)
    assert report.winding == m
    assert report.residue < 1e-9
