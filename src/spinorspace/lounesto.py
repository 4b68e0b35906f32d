"""Lounesto classification of spinors by the zero pattern of their covariants,
plus seeded generators producing representatives of each class.

The six classes split on which of sigma, omega, K, S vanish (J never does for
a column spinor, since J_0 equals the squared norm).  Three extra labels
cover covariant sets with J = 0 that still satisfy the quadratic identities;
such sets cannot come from a nonzero column spinor, so they are reachable
only through raw covariant input.  Anything violating the identities or
matching no known pattern is reported as anomalous.
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import conventions
from .bilinears import BilinearSet, _covariants, _fitting
from .clifford import GammaRep, RowError, Signature, WEYL, _ldexp_quiet, _ray, _unbox
from .fierz import _fpk_check
from .spinor_forms import ClassicalSpinor

__all__ = [
    "LounestoClass",
    "ClassificationReport",
    "DEFAULT_TOL",
    "classify",
    "classify_bilinears",
    "generate",
    "rescale_class_invariance",
]

DEFAULT_TOL = 1e-8


class LounestoClass(enum.Enum):
    C1 = "1"
    C2 = "2"
    C3 = "3"
    C4 = "4"
    C5 = "5"
    C6 = "6"
    POLE = "pole"
    FLAG = "flag"
    FLAG_POLE_J0 = "flag-pole-j0"
    ANOMALOUS = "anomalous"

    @property
    def is_regular(self) -> bool:
        return self in (LounestoClass.C1, LounestoClass.C2, LounestoClass.C3)

    @property
    def is_singular(self) -> bool:
        return self in (LounestoClass.C4, LounestoClass.C5, LounestoClass.C6)


@dataclass(frozen=True)
class ClassificationReport:
    """Class, covariants, zero flags and margin of one spinor or a batch.

    For a batch of shape B, lounesto_class is an object array of shape B,
    each zero flag a bool array and margin a float array of shape B; a
    single report has scalars throughout.
    """

    lounesto_class: LounestoClass
    bilinears: BilinearSet
    zero_flags: dict
    tol: float
    margin: float

    def as_dict(self) -> dict:
        """Plain JSON values of a single report."""
        return {"class": self.lounesto_class.value, **self.bilinears.as_dict(),
                "zero_flags": dict(self.zero_flags), "tol": self.tol, "margin": self.margin}


_PATTERN_KEYS = ("sigma", "omega", "J", "K", "S")
# where each of sigma, omega, J, K, S starts in a covariant stack
_PATTERN_STARTS = np.array([0, 1, 2, 6, 10])


@functools.lru_cache(maxsize=None)
def _pattern_table() -> np.ndarray:
    """Class of every zero pattern, indexed by the nonzero flags in
    _PATTERN_KEYS order read as little-endian bits."""
    table = np.empty(2 ** len(_PATTERN_KEYS), dtype=object)
    for bits in itertools.product((False, True), repeat=len(_PATTERN_KEYS)):
        code = sum(bit << i for i, bit in enumerate(bits))
        table[code] = _pattern_class(dict(zip(_PATTERN_KEYS, bits)))
    table.flags.writeable = False
    return table


def _pattern_class(nonzero: dict) -> LounestoClass:
    if nonzero["J"]:
        if nonzero["sigma"] and nonzero["omega"]:
            return LounestoClass.C1
        if nonzero["sigma"]:
            return LounestoClass.C2
        if nonzero["omega"]:
            return LounestoClass.C3
        if nonzero["K"] and nonzero["S"]:
            return LounestoClass.C4
        if nonzero["S"]:
            return LounestoClass.C5
        if nonzero["K"]:
            return LounestoClass.C6
        return LounestoClass.ANOMALOUS
    # J = 0 sector: the scalars must vanish too, else the identities fail
    if nonzero["sigma"] or nonzero["omega"]:
        return LounestoClass.ANOMALOUS
    if nonzero["K"] and nonzero["S"]:
        return LounestoClass.FLAG_POLE_J0
    if nonzero["K"]:
        return LounestoClass.POLE
    if nonzero["S"]:
        return LounestoClass.FLAG
    return LounestoClass.ANOMALOUS


def _pattern(v: np.ndarray, scale, tol: float):
    """Classes, zero flags and margins of the (..., 16) covariant stack v
    against thresholds tol * scale, computed once for the whole batch.  The
    margin is the smallest ratio of a kept magnitude to its threshold (0
    when nothing is kept, which also covers scale 0)."""
    if not tol > 0.0:
        raise ValueError(f"classification tolerance must be positive, got {tol!r}")
    threshold = tol * np.asarray(scale)
    norms = np.sqrt(np.add.reduceat(v * v, _PATTERN_STARTS, axis=-1))
    nonzero = norms > threshold[..., None]
    code = np.packbits(nonzero, axis=-1, bitorder="little")[..., 0]
    smallest = norms.min(axis=-1, where=nonzero, initial=np.inf)
    margin = np.where(code, smallest / threshold, 0.0)
    cls = _pattern_table()[code]
    zero = ~nonzero
    if zero.ndim == 1:
        zero_flags = dict(zip(_PATTERN_KEYS, zero.tolist()))
    else:
        zero_flags = {key: zero[..., i] for i, key in enumerate(_PATTERN_KEYS)}
    return cls, zero_flags, _unbox(margin)


def classify(psi: ClassicalSpinor, tol: float = DEFAULT_TOL) -> ClassificationReport:
    """Classify a nonzero spinor, or a batch of them at once.

    Thresholds are tol * |psi|^2.  Everything is computed on psi scaled by
    the power of two 2^-e that brings its largest real or imaginary part
    into [0.5, 1), so no covariant underflows or overflows and the class is
    the same at every scale of psi.  The report carries those covariants
    times 4^e: the scaling is exact, so they equal the covariants of psi
    itself wherever those are normal floats.  Zero spinors, and spinors
    whose covariants overflow float64, raise RowError naming their rows.
    """
    ray, exponent = _ray(psi.components)
    zero = ~ray.any(axis=-1)
    if zero.any():
        raise RowError("zero spinor cannot be classified", zero)
    v = _covariants(ray, conventions.S_SCALE, Signature.MINKOWSKI, psi.rep)
    # J_0 = psi^dag psi: the squared norm of the ray is its own J_0
    cls, zero_flags, margin = _pattern(v, v[..., 2], tol)
    v = _fitting(_ldexp_quiet(v, 2 * exponent))
    return ClassificationReport(cls, BilinearSet._of(v, signature=Signature.MINKOWSKI), zero_flags, tol, margin)


def classify_bilinears(b: BilinearSet, tol: float = DEFAULT_TOL) -> LounestoClass:
    """Classify a raw covariant set, or a batch of them (an object array of
    classes), on its ray, so alike at every scale.  The zero set (by its
    pattern) and sets breaking the quadratic identities are anomalous."""
    if b.signature is not Signature.MINKOWSKI:
        raise ValueError("classification applies to time-minus covariants")
    ray = BilinearSet._of(_ray(b.stack())[0], signature=b.signature)
    cls, _, _ = _pattern(ray.stack(), ray.component_norm(), tol)
    return _unbox(np.where(_fpk_check(ray, tol)[1].all(axis=-1), cls, LounestoClass.ANOMALOUS))


def rescale_class_invariance(psi: ClassicalSpinor, c: complex, tol: float = DEFAULT_TOL) -> bool:
    """Whether classify(c psi) agrees with classify(psi), per spinor of a batch;
    true for every c != 0 since all covariants scale by |c|^2 and thresholds
    are norm-relative.  Zero spinors raise classify's RowError."""
    if c == 0:
        raise ValueError("rescaling factor must be nonzero")
    scaled = ClassicalSpinor(c * psi.components, psi.rep)
    return _unbox(classify(scaled, tol).lounesto_class == classify(psi, tol).lounesto_class)


# -- seeded generators --------------------------------------------------------

_MAX_ATTEMPTS = 200


def _complex_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _draw_c1(rng: np.random.Generator) -> np.ndarray:
    return _complex_vector(rng, 4)


def _draw_regular(phase: complex, rng: np.random.Generator) -> np.ndarray:
    # upper and lower parts whose nonzero overlap has the given phase: a real
    # one (1) kills omega but not sigma, an imaginary one (1j) sigma but not omega
    chi = _complex_vector(rng, 2)
    w = _complex_vector(rng, 2)
    w = w - (np.vdot(chi, w) / np.vdot(chi, chi)) * chi
    c = rng.standard_normal()
    while abs(c) < 0.2:
        c = rng.standard_normal()
    return np.concatenate([chi, phase * c * chi + w])


def _draw_c5(rng: np.random.Generator) -> np.ndarray:
    # Majorana-type pairing of the chiral halves
    chi = _complex_vector(rng, 2)
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    lower = phase * np.array([-np.conj(chi[1]), np.conj(chi[0])])
    return np.concatenate([chi, lower])


def _draw_c6(rng: np.random.Generator) -> np.ndarray:
    chi = _complex_vector(rng, 2)
    if rng.integers(2) == 0:
        return np.concatenate([chi, np.zeros(2, dtype=np.complex128)])
    return np.concatenate([np.zeros(2, dtype=np.complex128), chi])


def _draw_c4(rng: np.random.Generator) -> np.ndarray:
    # push a generic regular spinor through a singular class-4 mapping
    from .classmap import MappingParams, build_M

    while True:
        values = _complex_vector(rng, 9)
        if abs(values[1]) > 0.2:
            break
    params = MappingParams(*values)
    m = build_M(params).matrix
    phi = _draw_c1(rng)
    return m @ phi


_DRAWERS = {
    LounestoClass.C1: _draw_c1,
    LounestoClass.C2: functools.partial(_draw_regular, 1),
    LounestoClass.C3: functools.partial(_draw_regular, 1j),
    LounestoClass.C4: _draw_c4,
    LounestoClass.C5: _draw_c5,
    LounestoClass.C6: _draw_c6,
}


def generate(
    target: LounestoClass,
    seed: int,
    count: int,
    rep: GammaRep = WEYL,
    tol: float = DEFAULT_TOL,
) -> list[ClassicalSpinor]:
    """Deterministically generate `count` spinors classifying into `target`.

    Only the six column-spinor classes are generatable; the J = 0 labels have
    no nonzero column representative (J_0 = |psi|^2), and anomalous sets by
    definition come from no spinor at all.

    Candidates are drawn one at a time and classified a round at a time.  A
    round draws no more candidates than are still needed, so the draws and
    the spinors kept are those of classifying each draw on its own.  Fewer
    than `count` accepted within _MAX_ATTEMPTS * count draws is a
    ValueError.
    """
    if target not in _DRAWERS:
        raise ValueError(f"cannot generate spinors for class {target.value!r}")
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = np.random.default_rng(np.random.PCG64(seed))
    draw = _DRAWERS[target]
    accepted: list[np.ndarray] = []
    attempts_left = _MAX_ATTEMPTS * count
    while len(accepted) < count:
        size = min(count - len(accepted), attempts_left)
        if size == 0:
            raise ValueError(
                f"generator for class {target.value} failed to converge"
            )
        attempts_left -= size
        candidates = ClassicalSpinor(np.array([draw(rng) for _ in range(size)]), WEYL)
        kept = candidates.components[candidates.norm() >= 1e-6]
        if len(kept):
            accepted += list(kept[classify(ClassicalSpinor(kept, WEYL), tol).lounesto_class == target])
    spinors = ClassicalSpinor(np.array(accepted), WEYL).to_rep(rep)
    return [ClassicalSpinor(c, rep) for c in spinors.components]
