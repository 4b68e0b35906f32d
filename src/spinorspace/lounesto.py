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
from dataclasses import dataclass

import numpy as np

from .bilinears import _COVARIANT_FIELDS, _GROUP_STARTS, BilinearSet, _covariants_on_ray
from .clifford import GammaRep, RowError, Signature, WEYL, _fitting, _frozen, _numbers, _quiet, _unbox
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
# the smallest tolerance, a normal float: a margin is below about 2 / tol
_TINY = float(np.finfo(float).tiny)


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


_PATTERN_KEYS = tuple(name for name, _ in _COVARIANT_FIELDS)
# the bit of each of sigma, omega, J, K, S in a pattern's code
_PATTERN_BITS = _frozen(1 << np.arange(len(_PATTERN_KEYS)))


def _code_table(keys: tuple, label) -> np.ndarray:
    """label(flags) for every setting of the flags, a dict over keys, as a
    read-only table indexed by the flags in keys order read as little-endian bits."""
    table = np.empty(2 ** len(keys), dtype=object)
    for code in range(len(table)):
        table[code] = label({key: bool(code >> i & 1) for i, key in enumerate(keys)})
    return _frozen(table)


@functools.lru_cache(maxsize=None)
def _pattern_table() -> np.ndarray:
    """Class of every zero pattern, indexed by its nonzero flags (_code_table)."""
    return _code_table(_PATTERN_KEYS, _pattern_class)


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
    if not _TINY <= tol < np.inf:
        raise ValueError(f"classification tolerance must be positive and finite, at least {_TINY!r}, got {tol!r}")
    threshold = tol * np.asarray(scale)
    norms = np.sqrt(np.add.reduceat(v * v, _GROUP_STARTS, axis=-1))
    nonzero = norms > threshold[..., None]
    code = nonzero @ _PATTERN_BITS
    smallest = np.minimum.reduce(norms, axis=-1, where=nonzero, initial=np.inf)
    margin = np.where(code, smallest / threshold, 0.0)
    cls = _pattern_table()[code]
    if nonzero.ndim == 1:
        zero_flags = {key: not kept for key, kept in zip(_PATTERN_KEYS, nonzero.tolist())}
    else:
        zero = ~nonzero
        zero_flags = {key: zero[..., i] for i, key in enumerate(_PATTERN_KEYS)}
    return cls, zero_flags, _unbox(margin)


def classify(psi: ClassicalSpinor, tol: float = DEFAULT_TOL) -> ClassificationReport:
    """Classify a nonzero spinor, or a batch of them at once.

    Thresholds are tol * |psi|^2.  Everything is computed on psi's
    power-of-two ray (bilinears._covariants_on_ray), so no covariant
    underflows or overflows and the class is the same at every scale of
    psi.  The report carries psi's own covariants, exact wherever they are
    normal floats.  Zero spinors, and spinors whose covariants overflow
    float64, raise RowError naming their rows.
    """
    try:
        _, _, v, b = _covariants_on_ray(psi.components, Signature.MINKOWSKI, psi.rep)
    except RowError:
        # a zero spinor or a bad tolerance comes first: classifying the ray, which fits, raises it
        classify(psi._on_ray()[0], tol)
        raise
    # J_0 = psi^dag psi, the squared norm of the ray: at least 1/4 unless psi is zero
    norm2 = v[..., 2]
    if not np.logical_and.reduce(norm2, axis=None):
        raise RowError("zero spinor cannot be classified", norm2 == 0.0)
    cls, zero_flags, margin = _pattern(v, norm2, tol)
    return ClassificationReport(cls, BilinearSet._of(b, signature=Signature.MINKOWSKI), zero_flags, tol, margin)


def classify_bilinears(b: BilinearSet, tol: float = DEFAULT_TOL) -> LounestoClass:
    """Classify a raw covariant set, or a batch of them (an object array of
    classes), on its ray, so alike at every scale.  Thresholds are
    tol * component_norm() / 2, which is tol * |psi|^2 for a spinor's
    covariants (Fierz completeness), as in classify.  The zero set (by its
    pattern) and sets breaking the quadratic identities are anomalous."""
    if b.signature is not Signature.MINKOWSKI:
        raise ValueError("classification applies to time-minus covariants")
    ray, _ = b._on_ray()
    cls, _, _ = _pattern(ray.stack(), ray.component_norm() / 2, tol)
    return _unbox(np.where(_fpk_check(ray, tol)[1].all(axis=-1), cls, LounestoClass.ANOMALOUS))


@_quiet
def rescale_class_invariance(psi: ClassicalSpinor, c: complex, tol: float = DEFAULT_TOL) -> bool:
    """Whether classify(c psi) agrees with classify(psi), per spinor of a batch;
    true for every finite c != 0 since all covariants scale by |c|^2 and
    thresholds are norm-relative.  A zero or non-finite c is a ValueError;
    spinors whose c psi overflows, and zero spinors, raise RowError naming
    their rows."""
    c = _numbers(c, np.complex128, "scale factors")
    if c == 0:
        raise ValueError("rescaling factor must be nonzero")
    if not np.isfinite(c):
        raise ValueError(f"rescaling factor must be finite, got {c.item()!r}")
    scaled = ClassicalSpinor(_fitting(c * psi.components, "rescaled spinor does not fit in float64"), psi.rep)
    return _unbox(classify(scaled, tol).lounesto_class == classify(psi, tol).lounesto_class)


# -- seeded generators --------------------------------------------------------

_MAX_ATTEMPTS = 200


def _complex_vector(rng: np.random.Generator, n: int, size: tuple = ()) -> np.ndarray:
    # each vector's n real parts, then its n imaginary parts: the stream of drawing one at a time
    parts = rng.standard_normal(size + (2, n))
    return parts[..., 0, :] + 1j * parts[..., 1, :]


def _one_at_a_time(draw_one):
    """The drawer of (size, 4) rounds whose candidates draw_one(rng) draws one at a time."""
    return lambda rng, size: np.array([draw_one(rng) for _ in range(size)], dtype=complex).reshape(size, 4)


def _draw_c1(rng: np.random.Generator, size: int) -> np.ndarray:
    return _complex_vector(rng, 4, (size,))


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


def _draw_c4(rng: np.random.Generator, size: int) -> np.ndarray:
    # per candidate the nine parameters of a singular class-4 mapping, redrawn
    # until |m12| > 0.2 (it starts at 0), then the regular spinor pushed through
    from .classmap import MappingParams, build_M   # classmap imports this module
    draws = np.zeros((size, 13), dtype=complex)
    for row in draws:
        while abs(row[1]) <= 0.2:
            row[:9] = _complex_vector(rng, 9)
        row[9:] = _complex_vector(rng, 4)
    return np.matmul(build_M(MappingParams(*draws[:, :9].T)).matrix, draws[:, 9:, None])[..., 0]


_DRAWERS = {
    LounestoClass.C1: _draw_c1,
    LounestoClass.C2: _one_at_a_time(functools.partial(_draw_regular, 1)),
    LounestoClass.C3: _one_at_a_time(functools.partial(_draw_regular, 1j)),
    LounestoClass.C4: _draw_c4,
    LounestoClass.C5: _one_at_a_time(_draw_c5),
    LounestoClass.C6: _one_at_a_time(_draw_c6),
}

# the bound, relative to |psi|^2, that the FPK identities put on the norm of
# what each class must keep: from J.J = sigma^2 + omega^2 <= J_0^2 = |psi|^4,
# sigma or omega (classes 2, 3) at most 1 and the smaller of the two (class 1)
# at most 1/sqrt(2); J (classes 5, 6), causal, at most sqrt(2) in Euclidean
# norm, as |J|^2 = 2 |psi|^4 - sigma^2 - omega^2.  By Fierz completeness
# component_norm()^2 = 4 |psi|^4, so |K|^2 + |S|^2 = 2 |psi|^4 for every
# spinor, and class 4, which keeps both, keeps the smaller at most 1
_REACH = {
    LounestoClass.C1: 0.5 ** 0.5,
    LounestoClass.C2: 1.0,
    LounestoClass.C3: 1.0,
    LounestoClass.C4: 1.0,
    LounestoClass.C5: 2.0 ** 0.5,
    LounestoClass.C6: 2.0 ** 0.5,
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

    A tolerance at or above the target's bound in _REACH is a ValueError
    before the first draw: classify keeps a group only above tol |psi|^2,
    and no spinor keeps what the target needs there.

    A round is one call draw(rng, size) of the target's drawer, (size, 4)
    Weyl candidates on the stream of drawing them one at a time (class 4's
    mapped inside it), then one classify.  A round draws no more candidates
    than are still needed, so the draws and the spinors kept are those of
    classifying each draw on its own.  Fewer than `count` accepted within
    _MAX_ATTEMPTS * count draws is a ValueError.
    """
    if target not in _DRAWERS:
        raise ValueError(f"cannot generate spinors for class {target.value!r}")
    if count < 1:
        raise ValueError("count must be at least 1")
    # an infinite tol is left to classify's tolerance check
    if _REACH[target] <= tol < np.inf:
        raise ValueError(f"generator for class {target.value} cannot reach tol {tol!r}: the FPK identities "
                         f"bound what the class must keep by {_REACH[target]!r} |psi|^2")
    rng = np.random.default_rng(np.random.PCG64(seed))
    draw = _DRAWERS[target]
    rounds: list[np.ndarray] = []
    accepted, attempts_left = 0, _MAX_ATTEMPTS * count
    while accepted < count:
        size = min(count - accepted, attempts_left)
        if size == 0:
            raise ValueError(f"generator for class {target.value} failed to converge")
        attempts_left -= size
        candidates = ClassicalSpinor(draw(rng, size), WEYL)
        kept = candidates._like(candidates.components[candidates.norm() >= 1e-6])
        rounds.append(kept.components[classify(kept, tol).lounesto_class == target])
        accepted += len(rounds[-1])
    spinors = ClassicalSpinor._of(np.concatenate(rounds), rep=WEYL).to_rep(rep)
    return [ClassicalSpinor._of(c, rep=rep) for c in spinors.components]
