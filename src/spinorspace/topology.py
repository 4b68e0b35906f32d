"""Topology of the covariant space: the regular-sector projection, sphere
constraints, and winding numbers of closed paths in the (sigma, omega) plane.

The quadratic identity J.J = sigma^2 + omega^2 keeps regular covariant
points away from the plane origin, so a closed path of regular states has a
well-defined integer count of encirclements.  Winding is computed from
summed signed angle increments, which is exact for polylines; the 1-form
(sigma d omega - omega d sigma) / (sigma^2 + omega^2) integrates to the same
number and is kept as a quadrature cross-check in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bilinears import BilinearSet, euclidean_components_closed_form
from .clifford import RowError, _checked_tol, _matmul, _modulus, _numbers, _unbox
from .fierz import _fpk_check
from .lounesto import DEFAULT_TOL

__all__ = [
    "WindingReport",
    "project_regular",
    "winding_number",
    "winding_report",
    "regular_sphere_check",
    "fpk_membership",
]

MAX_SEGMENT_ANGLE = np.pi / 2
# a path is closed when |last - first| <= CLOSURE_GAP_LIMIT |first|
CLOSURE_GAP_LIMIT = 1e-12


def project_regular(p: BilinearSet) -> BilinearSet:
    """Zero K and S, keeping (sigma, J, omega); idempotent, row by row for a batch."""
    v = p.stack().copy()
    v[..., 6:] = 0.0
    return p._like(v)


@dataclass(frozen=True)
class WindingReport:
    winding: int
    angle_sum: float
    residue: float


def _validate_path(path) -> np.ndarray:
    pts = _numbers(path, np.float64, BilinearSet._holds)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
        raise ValueError("path must be a list of at least 3 (sigma, omega) pairs")
    finite = np.isfinite(pts).all(axis=1)
    if not finite.all():
        raise ValueError(f"path vertex {int(np.argmin(finite))} is not a finite (sigma, omega) pair")
    # a quarter of each endpoint, whose norm and gap cannot overflow
    first, last = pts[[0, -1]] / 4
    if np.hypot(*(last - first)) > CLOSURE_GAP_LIMIT * np.hypot(*first):
        raise ValueError("path must be closed: first and last vertex must coincide")
    radii = np.hypot(pts[:, 0], pts[:, 1])
    if np.any(radii == 0.0):
        raise ValueError("path touches the excluded origin of the (sigma, omega) plane")
    return pts


def winding_report(path) -> WindingReport:
    """Winding number of a closed polyline around the plane origin.

    The path is closed when its last vertex is within CLOSURE_GAP_LIMIT
    (1e-12) of its first, relative to |first| in the Euclidean norm; an
    open path raises.

    Per-segment angle increments must stay below pi/2; a coarser path risks
    a silent miscount (and a segment through the origin shows up as an
    increment of pi), so both cases raise.  A closed path's angle sum is a
    whole number of turns up to rounding, which residue reports.
    """
    pts = _validate_path(path)
    angles = np.arctan2(pts[:, 1], pts[:, 0])
    increments = np.diff(angles)
    increments = (increments + np.pi) % (2.0 * np.pi) - np.pi
    if np.any(_modulus(increments) >= MAX_SEGMENT_ANGLE):
        raise ValueError(
            "path too coarse: a segment turns by pi/2 or more around the origin "
            "(or passes through it); refine the path"
        )
    total = float(np.sum(increments))
    turns = total / (2.0 * np.pi)
    nearest = int(np.rint(turns))
    return WindingReport(nearest, total, float(abs(turns - nearest)))


def winding_number(path) -> int:
    return winding_report(path).winding


def regular_sphere_check(psi, tol: float = 1e-8) -> float:
    """Deviation |J.J + omega^2 - 1| of a Euclidean-normalized spinor; a
    (..., 4) batch gives one deviation per row, each the single call's.

    The input must satisfy sigma = 1 (i.e. unit norm); rows that do not,
    non-finite ones included, raise RowError naming them, with a
    normalization hint.  tol must be finite and non-negative (ValueError).
    """
    _checked_tol(tol)
    sigma, omega, j = euclidean_components_closed_form(psi)
    off = ~(_modulus(np.asarray(sigma) - 1.0) <= tol)
    if off.any():
        raise RowError(
            f"sigma = {np.asarray(sigma)[off].flat[0]:.6g}; normalize the spinor to unit norm first", off
        )
    # j . j as a (1, 4) x (4, 1) product per row: the dot of a single J, bit for bit
    jj = _matmul(j[..., None, :], j[..., :, None])[..., 0, 0]
    return _unbox(_modulus(jj + np.asarray(omega) ** 2 - 1.0))


def fpk_membership(p: BilinearSet, tol: float = DEFAULT_TOL) -> bool:
    """Whether the point satisfies the quadratic covariant identities (the
    membership gate of the physical sector), per point of a batch and alike
    at every scale.  The all-zero point passes as a degenerate member; tol
    must be finite and non-negative (ValueError)."""
    _checked_tol(tol)
    return _unbox(np.logical_and.reduce(_fpk_check(p._on_ray()[0], tol)[1], axis=-1))
