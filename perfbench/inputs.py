"""Seeded inputs for the benchmark workloads.

Everything here is drawn from a ``numpy.random.Generator`` the caller seeds,
so one seed gives the same files.  Nothing imports spinorspace: the class of
a drawn spinor is fixed by a closed form written out independently below.
"""

from __future__ import annotations

import numpy as np

# change of basis from the chiral (weyl) to the standard (dirac) components
WEYL_TO_DIRAC = np.array(
    [[1, 0, 1, 0], [0, 1, 0, 1], [-1, 0, 1, 0], [0, -1, 0, 1]], dtype=np.complex128
) / np.sqrt(2.0)

# relative size below which a drawn spinor is redrawn; keeps every input far
# from the classifier's 1e-8 threshold, so no seed gives a borderline class
MARGIN = 0.05


def chiral_overlap(weyl: np.ndarray) -> np.ndarray:
    """u^dag v of chiral halves (u, v).  In the chiral representation
    sigma = 2 Re(u^dag v) and omega = -2 Im(u^dag v), so a spinor is class 1
    exactly when both parts are nonzero."""
    weyl = np.atleast_2d(weyl)
    return np.sum(weyl[:, :2].conj() * weyl[:, 2:], axis=1)


def regular_weyl(rng: np.random.Generator, n: int) -> np.ndarray:
    """n class-1 spinors in chiral components, sigma and omega both at least
    MARGIN |psi|^2 in size."""
    out = np.empty((n, 4), dtype=np.complex128)
    filled = 0
    while filled < n:
        z = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
        overlap = chiral_overlap(z)
        norm2 = np.sum(np.abs(z) ** 2, axis=1)
        keep = z[(np.abs(overlap.real) >= MARGIN * norm2) & (np.abs(overlap.imag) >= MARGIN * norm2)]
        take = keep[: n - filled]
        out[filled:filled + len(take)] = take
        filled += len(take)
    return out


def pairs(components: np.ndarray) -> list[list[float]]:
    return [[float(c.real), float(c.imag)] for c in components]


def spinor_doc(ids: list[str], reps: list[str], weyl: np.ndarray) -> dict:
    """A spinor file; entries tagged 'dirac' are converted to dirac components."""
    entries = []
    for ident, rep, comps in zip(ids, reps, weyl):
        if rep == "dirac":
            comps = WEYL_TO_DIRAC @ comps
        entries.append({"id": ident, "rep": rep, "components": pairs(comps)})
    return {"version": 1, "entries": entries}


def mapping_params(rng: np.random.Generator) -> dict:
    """Nine free entries of a generic class-4 mapping; m12 kept away from 0."""
    names = ("m11", "m12", "m13", "m14", "m22", "m41", "m42", "m43", "m44")
    while True:
        values = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        if abs(values[1]) >= 0.5:
            return {name: [float(v.real), float(v.imag)] for name, v in zip(names, values)}


def winding_path(rng: np.random.Generator, vertices: int) -> tuple[list[list[float]], int]:
    """A closed (sigma, omega) polyline of the given length and its winding
    number, one of +-1..+-4.  Radius and angle wobble with whole periods, so
    the path closes; each segment turns by far less than pi/2."""
    winding = int(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]))
    t = np.linspace(0.0, 1.0, vertices)
    wobble = rng.integers(1, 6, size=2)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=2)
    scale = rng.uniform(0.5, 2.0)
    theta = 2.0 * np.pi * winding * t + 0.4 * np.sin(2.0 * np.pi * wobble[0] * t + phase[0])
    radius = scale * (1.0 + 0.3 * np.sin(2.0 * np.pi * wobble[1] * t + phase[1]))
    pts = np.stack([radius * np.cos(theta), radius * np.sin(theta)], axis=1)
    pts[-1] = pts[0]
    return pts.tolist(), winding
