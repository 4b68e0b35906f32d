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

Every operation takes a leading batch shape: coefficients are (..., 16)
arrays and a single multivector is the batch of shape ().  Reductions such
as norm() give a float for shape () and an array of the batch shape
otherwise.  Batched rows are computed with the same arithmetic as single
ones, so a row of a batch equals the single result bit for bit.
"""

from __future__ import annotations

import enum
import functools
import operator
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
    "RowError",
    "InternalError",
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


class RowError(ValueError):
    """A batched computation that fails for some rows of its batch.

    rows is a boolean mask over the batch shape marking the failing rows (a
    0-d True for a single item), so a caller can report them and compute the
    others; for a single item this is an ordinary ValueError.
    """

    def __init__(self, message: str, rows) -> None:
        super().__init__(message)
        self.rows = np.asarray(rows, dtype=bool)


class InternalError(RuntimeError):
    """A result that breaks an invariant the code guarantees: a fault of the
    program, not of its input."""


def _unbox(x):
    """Python scalar for a 0-d result, the array itself for a batch."""
    x = np.asarray(x)
    return x.item() if x.ndim == 0 else x


def _ray(values: np.ndarray, axis=-1) -> tuple[np.ndarray, np.ndarray]:
    """(ray, e): real or complex values scaled exactly by the power of two
    2^-e that brings the largest real or imaginary part of each row (over
    axis, kept in e) into [0.5, 1), with e = 0 for a zero row."""
    parts = values.view(np.float64)
    _, e = np.frexp(np.abs(parts).max(axis=axis, keepdims=True))
    return np.ldexp(parts, -e).view(values.dtype), e


# ldexp whose overflow to inf passes without a warning: callers check the result
_ldexp_quiet = np.errstate(over="ignore")(np.ldexp)


class _View:
    """Named view array[..., index] of a record: a float for one entry of a
    single item, a view of the array otherwise.  Read once, then kept in the
    record's __dict__."""

    def __init__(self, name: str, index) -> None:
        self.name, self.index = name, index

    def __get__(self, record, owner=None):
        if record is None:
            return self
        value = record.__dict__[self.name] = _unbox(record._array[..., self.index])
        return value


def _tag_text(tag) -> str:
    """A record's tag as text: an enum (a signature) by its value."""
    return tag.value if isinstance(tag, enum.Enum) else str(tag)


# a view of the whole array is the array itself, read through a C-level getter
_WHOLE = property(operator.attrgetter("_array"))


class Record:
    """One read-only array plus its tags: the base of the array types.

    A subclass names its tags (signature, rep, params) in _tags and its
    views in _views as (name, index) pairs, each read as array[..., index],
    with the index ... naming the whole array.  Its public constructor
    builds a fresh array and hands it to Record.__init__, which runs the
    subclass's check hook __post_init__ on it and adopts it; kernels adopt
    their fresh results with _of, with no copy and no check.  Two records
    are equal when their type, tags and array are; records are immutable
    and unhashable.

    The hook keeps the name of the dataclass hook it replaced because the
    benchmark's tracer (perfbench/tracer.py) times spinor construction by
    wrapping ClassicalSpinor.__post_init__.
    """

    _tags: tuple[str, ...] = ()
    _views: tuple[tuple[str, object], ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        for name, index in cls.__dict__.get("_views", ()):
            setattr(cls, name, _WHOLE if index is ... else _View(name, index))

    def __init__(self, array: np.ndarray, **tags) -> None:
        self.__post_init__(array)
        array.setflags(write=False)
        self.__dict__.update(tags, _array=array)

    def __post_init__(self, array: np.ndarray) -> None:
        """Check hook of the public constructor: raise ValueError for an
        array the type does not hold.  Accepts every array by default."""

    @classmethod
    def _of(cls, array: np.ndarray, **tags):
        """The record that keeps array, a fresh kernel result, with no copy and no check."""
        record = object.__new__(cls)
        array.setflags(write=False)
        record.__dict__.update(tags, _array=array)
        return record

    def stack(self) -> np.ndarray:
        """The read-only array that holds the record."""
        return self._array

    def _check_tags(self, other: "Record") -> None:
        for name in self._tags:
            mine, theirs = getattr(self, name), getattr(other, name)
            if mine != theirs:
                raise ValueError(f"{name} mismatch: {_tag_text(mine)} vs {_tag_text(theirs)}")

    def isclose(self, other: "Record", tol: float = 1e-12) -> bool:
        """Whether every entry of every row is within tol; records with
        other tags raise ValueError."""
        self._check_tags(other)
        return bool(np.max(np.abs(self._array - other._array)) <= tol)

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and all(getattr(self, t) == getattr(other, t) for t in self._tags)
                and np.array_equal(self._array, other._array))

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"{type(self).__name__} is read-only: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        tags = "".join(f", {name}={_tag_text(getattr(self, name))}" for name in self._tags)
        return f"{type(self).__name__}({self._array!r}{tags})"


class Signature(enum.Enum):
    """Metric signature tag; fixes the squares of the four generators."""

    MINKOWSKI = "minkowski"
    EUCLIDEAN = "euclidean"

    @property
    def metric(self) -> tuple[float, float, float, float]:
        if self is Signature.MINKOWSKI:
            return (1.0, -1.0, -1.0, -1.0)
        return (1.0, 1.0, 1.0, 1.0)


# each blade as a bitmask with bit g set for generator g, and the blade of each mask
_MASKS = np.array([sum(1 << g for g in b) for b in BLADES])
_BY_MASK = np.empty(DIM, dtype=np.intp)
_BY_MASK[_MASKS] = np.arange(DIM)


@functools.lru_cache(maxsize=None)
def _product_table(signature: Signature) -> tuple[np.ndarray, np.ndarray]:
    """(16, 16) tables with blade_i blade_j = sign[i, j] * blade_{index[i, j]}.

    The product's generators are the symmetric difference of the masks.
    Sorting a + b takes one transposition per pair x in a, y in b with x > y;
    each shared generator then contracts to its square metric[g].  Each row
    and each column of index is a permutation of the 16 blades.
    """
    bits = _MASKS[:, None] >> np.arange(4) & 1
    above = bits[:, ::-1].cumsum(axis=1)[:, ::-1] - bits   # generators of blade i above g
    swaps = (above[:, None, :] * bits[None, :, :]).sum(axis=-1)
    shared = bits[:, None, :] & bits[None, :, :]
    sign = (-1.0) ** swaps * np.where(shared == 1, signature.metric, 1.0).prod(axis=-1)
    index = _BY_MASK[_MASKS[:, None] ^ _MASKS[None, :]]
    index.flags.writeable = False
    sign.flags.writeable = False
    return index, sign


@functools.lru_cache(maxsize=None)
def _mul_gather(signature: Signature, right: bool) -> tuple[np.ndarray, np.ndarray]:
    """(source, sign) with M[k, j] = sign[k, j] * coeffs[source[k, j]] for the
    left (or right) multiplication matrix M of a multivector with coefficients
    coeffs: the product table read by output blade."""
    index, sign = _product_table(signature)
    if right:
        index, sign = index.T, sign.T
    source = np.argsort(index, axis=0)
    gathered = np.take_along_axis(sign, source, axis=0)
    source.flags.writeable = False
    gathered.flags.writeable = False
    return source, gathered


_REVERSION_SIGNS = np.array([(-1.0) ** (k * (k - 1) // 2) for k in BLADE_GRADES])
_GRADE_MASKS = {k: np.array([g == k for g in BLADE_GRADES]) for k in range(5)}


class Multivector(Record):
    """Immutable multivector: complex blade coefficients plus a signature.

    coeffs has shape (..., 16): the leading axes are a batch of multivectors
    sharing the signature, and shape (16,) is a single one.
    """

    _tags = ("signature",)
    _views = (("coeffs", ...),)

    # an array times a multivector scales it row by row (see _scale)
    # instead of numpy broadcasting over the multivector as an object
    __array_ufunc__ = None

    def __init__(self, signature: Signature, coeffs) -> None:
        super().__init__(np.array(coeffs, dtype=np.complex128), signature=signature)

    def __post_init__(self, c: np.ndarray) -> None:
        if c.shape[-1:] != (DIM,):
            raise ValueError(f"expected {DIM} blade coefficients, got shape {c.shape}")

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "Multivector") -> "Multivector":
        self._check_tags(other)
        return Multivector._of(self.coeffs + other.coeffs, signature=self.signature)

    def __sub__(self, other: "Multivector") -> "Multivector":
        self._check_tags(other)
        return Multivector._of(self.coeffs - other.coeffs, signature=self.signature)

    def __neg__(self) -> "Multivector":
        return Multivector._of(-self.coeffs, signature=self.signature)

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return geometric_product(self, other)
        return self._scale(other)

    def __rmul__(self, other) -> "Multivector":
        return self._scale(other)

    def _scale(self, factor) -> "Multivector":
        """Scale by a number, or row by row by an array of the batch shape."""
        factor = np.asarray(factor, dtype=np.complex128)[..., None]
        return Multivector._of(self.coeffs * factor, signature=self.signature)

    # -- involutions and projections --------------------------------------

    def reverse(self) -> "Multivector":
        return Multivector._of(self.coeffs * _REVERSION_SIGNS, signature=self.signature)

    def conjugate(self) -> "Multivector":
        """Complex conjugation of the blade coefficients."""
        return Multivector._of(self.coeffs.conj(), signature=self.signature)

    def grade(self, k: int) -> "Multivector":
        return grade_projection(self, k)

    @property
    def scalar_part(self) -> complex:
        return _unbox(self.coeffs[..., 0])

    def norm(self) -> float:
        """Euclidean 2-norm of the coefficient vector."""
        return _unbox(np.sqrt((self.coeffs.conj() * self.coeffs).real.sum(axis=-1)))

    def max_abs(self) -> float:
        return _unbox(np.abs(self.coeffs).max(axis=-1))


# -- constructors ---------------------------------------------------------


def zero(signature: Signature = Signature.MINKOWSKI) -> Multivector:
    return Multivector(signature, np.zeros(DIM, dtype=np.complex128))


def scalar(value: complex, signature: Signature = Signature.MINKOWSKI) -> Multivector:
    """Scalar multivector; an array of values gives a batch of that shape."""
    c = np.zeros(np.shape(value) + (DIM,), dtype=np.complex128)
    c[..., 0] = value
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


def _mul_matrix(a: Multivector, right: bool) -> np.ndarray:
    """(..., 16, 16) stack of the left (or right) multiplication matrices of
    a: entry [index[i, j], j] of L is sign[i, j] a_i, and R uses the
    transposed table.  Each column of index is a permutation, so every entry
    is one signed coefficient, gathered in a single pass."""
    source, sign = _mul_gather(a.signature, right)
    return sign * np.take(a.coeffs, source, axis=-1)


def geometric_product(a: Multivector, b: Multivector) -> Multivector:
    """a b, broadcasting the batch shapes of a and b against each other."""
    a._check_tags(b)
    return Multivector._of(np.matmul(_mul_matrix(a, False), b.coeffs[..., None])[..., 0], signature=a.signature)


def left_mul_matrix(a: Multivector) -> np.ndarray:
    """Matrix L with (a b).coeffs = L @ b.coeffs; (..., 16, 16) for a batch."""
    return _mul_matrix(a, False)


def right_mul_matrix(a: Multivector) -> np.ndarray:
    """Matrix R with (b a).coeffs = R @ b.coeffs; (..., 16, 16) for a batch."""
    return _mul_matrix(a, True)


def reversion(a: Multivector) -> Multivector:
    """Grade involution with the grade-k part scaled by (-1)^(k(k-1)/2)."""
    return a.reverse()


def grade_projection(a: Multivector, k: int) -> Multivector:
    if not 0 <= k <= 4:
        raise ValueError(f"grade out of range: {k}")
    return Multivector._of(np.where(_GRADE_MASKS[k], a.coeffs, 0.0), signature=a.signature)


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

    def __str__(self) -> str:
        return self.tag


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
    """(16, 4, 4) stack of blade images, products taken in canonical order:
    every blade holding generator g takes its factor gamma_g in turn."""
    mats = np.broadcast_to(np.eye(4, dtype=np.complex128), (DIM, 4, 4))
    for g, gamma in enumerate(rep.gammas):
        mats = np.where((_MASKS >> g & 1).astype(bool)[:, None, None], mats @ gamma, mats)
    mats.flags.writeable = False
    return mats


def rep_matrix(a: Multivector, rep: GammaRep = WEYL) -> np.ndarray:
    """4x4 complex image of a Minkowski multivector under e_mu -> gamma_mu;
    (..., 4, 4) for a batch."""
    if a.signature is not Signature.MINKOWSKI:
        raise ValueError("matrix representation requires the Minkowski signature")
    return np.einsum("...k,kij->...ij", a.coeffs, _blade_matrices(rep))


def idempotent_f(complexified: bool = False) -> Multivector:
    """Primitive idempotent (1 + e0)/2, or its complexified refinement
    (1 + e0)(1 + i e1e2)/4 generating the spinor ideal."""
    one = scalar(1.0)
    f = 0.5 * (one + basis_vector(0))
    if not complexified:
        return f
    return f * (0.5 * (one + blade((1, 2), 1j)))


_WEYL_TO_DIRAC = np.block([[_I2, _I2], [-_I2, _I2]]) / np.sqrt(2.0)
_WEYL_TO_DIRAC.flags.writeable = False


def weyl_to_dirac_matrix() -> np.ndarray:
    """Unitary U with U gamma_weyl U^dagger = gamma_dirac (acts on components);
    one shared read-only array."""
    return _WEYL_TO_DIRAC
