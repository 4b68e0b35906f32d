"""Clifford algebra engine for the time-minus Minkowski signature and its
Euclidean counterpart.

A multivector carries 16 complex coefficients over a fixed blade basis of a
four dimensional quadratic space.  Blades are ordered by grade, then
lexicographically, with generator indices ascending inside each blade:

    1 | e0 e1 e2 e3 | e01 e02 e03 e12 e13 e23 | e012 e013 e023 e123 | e0123

The geometric product is driven by a precomputed (16, 16) product table per
signature: each blade pair maps to one output blade and a sign.  The sign
counts transpositions and shared generators, so algebraic identities hold to
machine precision on top of exact integer signs.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BLADES",
    "BLADE_INDEX",
    "BLADE_NAMES",
    "BLADE_GRADES",
    "Signature",
    "Multivector",
    "GammaRep",
    "WEYL",
    "DIRAC",
    "scalar",
    "zero",
    "basis_vector",
    "blade",
    "pseudoscalar",
    "from_blade_dict",
    "geometric_product",
    "reversion",
    "grade_projection",
    "adjoint_dagger",
    "rep_matrix",
    "idempotent_f",
    "weyl_to_dirac_matrix",
]

BLADES: tuple[tuple[int, ...], ...] = (
    (),
    (0,), (1,), (2,), (3,),
    (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
    (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3),
    (0, 1, 2, 3),
)
BLADE_INDEX: dict[tuple[int, ...], int] = {b: i for i, b in enumerate(BLADES)}
BLADE_NAMES: tuple[str, ...] = tuple(
    "1" if not b else "e" + "".join(str(i) for i in b) for b in BLADES
)
BLADE_GRADES: tuple[int, ...] = tuple(len(b) for b in BLADES)
DIM = 16


class Signature(enum.Enum):
    """Metric signature tag; fixes the squares of the four generators."""

    MINKOWSKI = "minkowski"
    EUCLIDEAN = "euclidean"

    @property
    def metric(self) -> tuple[float, float, float, float]:
        if self is Signature.MINKOWSKI:
            return (1.0, -1.0, -1.0, -1.0)
        return (1.0, 1.0, 1.0, 1.0)


def _blade_product(
    a: tuple[int, ...], b: tuple[int, ...], metric: tuple[float, ...]
) -> tuple[tuple[int, ...], float]:
    """Multiply two basis blades, returning the canonical blade and its sign.

    Sorting a + b takes one transposition per pair x in a, y in b with x > y;
    each shared generator then contracts to its square metric[g].
    """
    sign = (-1.0) ** sum(x > y for x in a for y in b)
    for g in set(a) & set(b):
        sign *= metric[g]
    return tuple(sorted(set(a) ^ set(b))), sign


@functools.lru_cache(maxsize=None)
def _product_table(signature: Signature) -> tuple[np.ndarray, np.ndarray]:
    """(16, 16) tables with blade_i blade_j = sign[i, j] * blade_{index[i, j]}.

    Each row and each column of index is a permutation of the 16 blades.
    """
    index = np.empty((DIM, DIM), dtype=np.intp)
    sign = np.empty((DIM, DIM))
    for i, bi in enumerate(BLADES):
        for j, bj in enumerate(BLADES):
            bk, sign[i, j] = _blade_product(bi, bj, signature.metric)
            index[i, j] = BLADE_INDEX[bk]
    index.flags.writeable = False
    sign.flags.writeable = False
    return index, sign


_REVERSION_SIGNS = np.array([(-1.0) ** (k * (k - 1) // 2) for k in BLADE_GRADES])
_GRADE_MASKS = {k: np.array([g == k for g in BLADE_GRADES]) for k in range(5)}


@dataclass(frozen=True)
class Multivector:
    """Immutable multivector: 16 complex blade coefficients plus a signature."""

    signature: Signature
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.array(self.coeffs, dtype=np.complex128)
        if c.shape != (DIM,):
            raise ValueError(f"expected {DIM} blade coefficients, got shape {c.shape}")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "Multivector") -> "Multivector":
        self._check_signature(other)
        return Multivector(self.signature, self.coeffs + other.coeffs)

    def __sub__(self, other: "Multivector") -> "Multivector":
        self._check_signature(other)
        return Multivector(self.signature, self.coeffs - other.coeffs)

    def __neg__(self) -> "Multivector":
        return Multivector(self.signature, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return geometric_product(self, other)
        return Multivector(self.signature, self.coeffs * complex(other))

    def __rmul__(self, other) -> "Multivector":
        return Multivector(self.signature, self.coeffs * complex(other))

    def _check_signature(self, other: "Multivector") -> None:
        if self.signature is not other.signature:
            raise ValueError(
                f"signature mismatch: {self.signature.value} vs {other.signature.value}"
            )

    # -- involutions and projections --------------------------------------

    def reverse(self) -> "Multivector":
        return Multivector(self.signature, self.coeffs * _REVERSION_SIGNS)

    def conjugate(self) -> "Multivector":
        """Complex conjugation of the blade coefficients."""
        return Multivector(self.signature, self.coeffs.conj())

    def grade(self, k: int) -> "Multivector":
        return grade_projection(self, k)

    @property
    def scalar_part(self) -> complex:
        return complex(self.coeffs[0])

    def norm(self) -> float:
        """Euclidean 2-norm of the coefficient vector."""
        return float(np.linalg.norm(self.coeffs))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    def isclose(self, other: "Multivector", tol: float = 1e-12) -> bool:
        self._check_signature(other)
        return bool(np.max(np.abs(self.coeffs - other.coeffs)) <= tol)

    def __repr__(self) -> str:
        terms = []
        for name, c in zip(BLADE_NAMES, self.coeffs):
            if c != 0:
                if c.imag == 0:
                    terms.append(f"{c.real:+g}*{name}")
                else:
                    terms.append(f"({c:+g})*{name}")
        body = " ".join(terms) if terms else "0"
        return f"<{body} [{self.signature.value}]>"


# -- constructors ---------------------------------------------------------


def zero(signature: Signature = Signature.MINKOWSKI) -> Multivector:
    return Multivector(signature, np.zeros(DIM, dtype=np.complex128))


def scalar(value: complex, signature: Signature = Signature.MINKOWSKI) -> Multivector:
    c = np.zeros(DIM, dtype=np.complex128)
    c[0] = value
    return Multivector(signature, c)


def blade(
    indices: tuple[int, ...],
    coeff: complex = 1.0,
    signature: Signature = Signature.MINKOWSKI,
) -> Multivector:
    """Basis blade from an ascending generator index tuple, e.g. (0, 1) for e0e1."""
    key = tuple(indices)
    if key not in BLADE_INDEX:
        raise ValueError(f"not a canonical blade index tuple: {indices}")
    c = np.zeros(DIM, dtype=np.complex128)
    c[BLADE_INDEX[key]] = coeff
    return Multivector(signature, c)


def basis_vector(mu: int, signature: Signature = Signature.MINKOWSKI) -> Multivector:
    if not 0 <= mu <= 3:
        raise ValueError(f"generator index out of range: {mu}")
    return blade((mu,), 1.0, signature)


def pseudoscalar(signature: Signature = Signature.MINKOWSKI) -> Multivector:
    return blade((0, 1, 2, 3), 1.0, signature)


def from_blade_dict(
    data: dict[tuple[int, ...], complex],
    signature: Signature = Signature.MINKOWSKI,
) -> Multivector:
    c = np.zeros(DIM, dtype=np.complex128)
    for key, value in data.items():
        c[BLADE_INDEX[tuple(key)]] = value
    return Multivector(signature, c)


# -- core operations ------------------------------------------------------


def _mul_matrix(coeffs: np.ndarray, index: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """M with M[index[i, j], j] = sign[i, j] coeffs[i]; no entry is written
    twice because each column of index is a permutation."""
    m = np.zeros((DIM, DIM), dtype=np.complex128)
    m[index, np.arange(DIM)] = sign * coeffs[:, None]
    return m


def geometric_product(a: Multivector, b: Multivector) -> Multivector:
    a._check_signature(b)
    left = _mul_matrix(a.coeffs, *_product_table(a.signature))
    return Multivector(a.signature, left @ b.coeffs)


def left_mul_matrix(a: Multivector) -> np.ndarray:
    """Matrix L with (a b).coeffs = L @ b.coeffs."""
    return _mul_matrix(a.coeffs, *_product_table(a.signature))


def right_mul_matrix(a: Multivector) -> np.ndarray:
    """Matrix R with (b a).coeffs = R @ b.coeffs."""
    index, sign = _product_table(a.signature)
    return _mul_matrix(a.coeffs, index.T, sign.T)


def reversion(a: Multivector) -> Multivector:
    """Grade involution with the grade-k part scaled by (-1)^(k(k-1)/2)."""
    return a.reverse()


def grade_projection(a: Multivector, k: int) -> Multivector:
    if not 0 <= k <= 4:
        raise ValueError(f"grade out of range: {k}")
    return Multivector(a.signature, np.where(_GRADE_MASKS[k], a.coeffs, 0.0))


def adjoint_dagger(a: Multivector) -> Multivector:
    """Adjoint e0 * reverse(conj(a)) * e0; matches Hermitian conjugation of the
    matrix image in any representation with g0 Hermitian and gk anti-Hermitian."""
    if a.signature is not Signature.MINKOWSKI:
        raise ValueError("adjoint is defined for the Minkowski signature only")
    e0 = basis_vector(0, a.signature)
    return e0 * a.conjugate().reverse() * e0


# -- matrix representations ------------------------------------------------

_S1 = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_S2 = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_S3 = np.array([[1, 0], [0, -1]], dtype=np.complex128)
PAULI = (_S1, _S2, _S3)
_I2 = np.eye(2, dtype=np.complex128)
_O2 = np.zeros((2, 2), dtype=np.complex128)


def _block(a, b, c, d) -> np.ndarray:
    m = np.block([[a, b], [c, d]])
    m.flags.writeable = False
    return m


@dataclass(frozen=True, eq=False)
class GammaRep:
    """Four 4x4 generator matrices for a concrete spinor representation."""

    tag: str
    gammas: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


WEYL = GammaRep(
    "weyl",
    (
        _block(_O2, _I2, _I2, _O2),
        _block(_O2, _S1, -_S1, _O2),
        _block(_O2, _S2, -_S2, _O2),
        _block(_O2, _S3, -_S3, _O2),
    ),
)

# chosen so that the complexified idempotent is represented by the matrix unit E11
DIRAC = GammaRep(
    "dirac",
    (
        _block(_I2, _O2, _O2, -_I2),
        _block(_O2, _S1, -_S1, _O2),
        _block(_O2, _S2, -_S2, _O2),
        _block(_O2, _S3, -_S3, _O2),
    ),
)

_REP_BY_TAG = {"weyl": WEYL, "dirac": DIRAC}


def rep_by_tag(tag: str) -> GammaRep:
    try:
        return _REP_BY_TAG[tag]
    except KeyError:
        raise ValueError(f"unknown representation tag: {tag!r}") from None


@functools.lru_cache(maxsize=None)
def _blade_matrices(rep: GammaRep) -> np.ndarray:
    """(16, 4, 4) stack of blade images, products taken in canonical order."""
    mats = np.empty((DIM, 4, 4), dtype=np.complex128)
    for i, b in enumerate(BLADES):
        m = np.eye(4, dtype=np.complex128)
        for mu in b:
            m = m @ rep.gammas[mu]
        mats[i] = m
    mats.flags.writeable = False
    return mats


def rep_matrix(a: Multivector, rep: GammaRep = WEYL) -> np.ndarray:
    """4x4 complex image of a Minkowski multivector under e_mu -> gamma_mu."""
    if a.signature is not Signature.MINKOWSKI:
        raise ValueError("matrix representation requires the Minkowski signature")
    return np.tensordot(a.coeffs, _blade_matrices(rep), axes=(0, 0))


def idempotent_f(complexified: bool = False) -> Multivector:
    """Primitive idempotent (1 + e0)/2, or its complexified refinement
    (1 + e0)(1 + i e1e2)/4 generating the spinor ideal."""
    one = scalar(1.0)
    f = 0.5 * (one + basis_vector(0))
    if not complexified:
        return f
    return f * (0.5 * (one + blade((1, 2), 1j)))


def weyl_to_dirac_matrix() -> np.ndarray:
    """Unitary U with U gamma_weyl U^dagger = gamma_dirac (acts on components)."""
    return _block(_I2, _I2, -_I2, _I2) / np.sqrt(2.0)
