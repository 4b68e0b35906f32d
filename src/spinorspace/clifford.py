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
    "Record",
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
    "left_mul_matrix",
    "right_mul_matrix",
    "reversion",
    "grade_projection",
    "adjoint_dagger",
    "rep_by_tag",
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


# the one way arithmetic that can overflow runs: a function decorated with it
# computes quietly, and its result goes through _fitting.  Only a decorator:
# one np.errstate object cannot be entered twice, but its decorated calls nest
_quiet = np.errstate(all="ignore")

# the one matrix product and the one modulus: numpy's routines whose rounding the host picks
_matmul = np.matmul
_modulus = np.abs


def _fitting(values: np.ndarray, message: str, axis=-1) -> np.ndarray:
    """values itself; rows (over axis) holding a non-finite entry raise RowError(message)."""
    if not np.logical_and.reduce(np.isfinite(values), axis=None):
        raise RowError(message, ~np.isfinite(values).all(axis=axis))
    return values


# the number rule: for each dtype, the array kinds it takes, the scalar types
# of those kinds (Python's and numpy's), and how its message names them
_SCALAR_TYPES = {int, float, complex, *np.sctypeDict.values()}
_NUMBER_RULE = {dtype: (kinds, {t for t in _SCALAR_TYPES if np.dtype(t).kind in kinds}, words)
                for dtype, kinds, words in ((np.float64, "iuf", "ints or floats"),
                                            (np.complex128, "iufc", "ints, floats or complex numbers"))}


def _numbers(value, dtype, holds: str) -> np.ndarray:
    """value, an array or nested lists of numbers, as a fresh array of dtype
    (np.float64 or np.complex128), the package's one number rule.  Ints and
    floats, Python's or numpy's, pass, and complex numbers for complex128;
    a bool, a string, None, any other object, or an int beyond float range
    raises ValueError("<holds> must be ints or floats"), or "... ints,
    floats or complex numbers".  A numeric ndarray pays a dtype-kind test
    and the copy, a single number a type test and the conversion, anything
    else (ndarray subclasses too) one object array and one type-set test."""
    kinds, types, words = _NUMBER_RULE[dtype]
    try:
        if type(value) is np.ndarray and value.dtype.kind in kinds or type(value) in types:
            return np.array(value, dtype)
        items = np.array(value, dtype=object)
        if set(map(type, items.ravel().tolist())) <= types:
            return items.astype(dtype)
    except (ValueError, OverflowError):
        pass
    raise ValueError(f"{holds} must be {words}")


def _checked_tol(tol: float) -> float:
    """tol itself when finite and non-negative, the rule of a check's
    tolerance and of the command line's --tol; anything else is a ValueError."""
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tolerance must be finite and non-negative, got {tol!r}")
    return tol


def _unbox(x):
    """Python scalar for a 0-d result, the array itself for a batch."""
    x = np.asarray(x)
    return x.item() if x.ndim == 0 else x


def _matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """m v row by row, (..., n, k) matrices times (..., k) vectors, through _matmul."""
    return _matmul(m, v[..., None])[..., 0]


@_quiet
def _row_norm(record, axis=-1) -> float:
    """Euclidean 2-norm of each row (over axis) of a record's array, bound as
    norm(); inf where the squares overflow."""
    return _unbox(np.sqrt(np.add.reduce((record._array.conj() * record._array).real, axis=axis)))


def _row_max_abs(record) -> float:
    """Largest modulus in each row of a record's array, bound as max_abs()."""
    return _unbox(np.maximum.reduce(_modulus(record._array), axis=-1))


def _ray(values: np.ndarray, axis=-1) -> tuple[np.ndarray, np.ndarray]:
    """(ray, e): real or complex values scaled exactly by the power of two
    2^-e that brings the largest real or imaginary part of each row (over
    axis, kept in e) into [0.5, 1), with e = 0 for a zero row."""
    parts = values.view(np.float64)
    _, e = np.frexp(np.maximum.reduce(_modulus(parts), axis=axis, keepdims=True))
    return np.ldexp(parts, -e).view(values.dtype), e


# ldexp whose overflow to inf passes without a warning: callers check the result
_ldexp_quiet = _quiet(np.ldexp)


def _frozen(*arrays: np.ndarray):
    """The arrays marked read-only: the one way a shared table or constant
    is published.  One array gives the array itself, several a tuple."""
    for array in arrays:
        array.flags.writeable = False
    return arrays[0] if len(arrays) == 1 else arrays


def _tag_text(tag) -> str:
    """A record's tag as text: an enum (a signature) by its value."""
    return tag.value if isinstance(tag, enum.Enum) else str(tag)


# a view of the whole array is the array itself, read through a C-level getter
_WHOLE = property(operator.attrgetter("_array"))


def _view(index) -> property:
    """The named view array[..., index] of a record, computed on each read:
    a float for one entry of a single item, a view of the array otherwise."""
    return property(lambda record: _unbox(record._array[..., index]))


class Record:
    """One read-only array plus its tags: the base of the array types.

    A subclass names its tags (signature, rep, params) in _tags, its views
    in _views as (name, index) pairs, each a property read as
    array[..., index] (_view) with the index ... naming the whole array,
    and what its array holds in _holds.  Its public constructor reads its
    input through the number rule (_numbers) into a fresh array and hands it
    to Record.__init__, which runs the subclass's check hook __post_init__
    on it, rejects it unless every entry is finite and adopts it; kernels
    adopt their fresh results with _of, with no copy and no check, or with
    _like, keeping a record's tags.  Only those three write a record's
    __dict__.  A binary operation reads its operand through _operand; the
    products, the representation, the aggregate, the residuals, classify and
    reconstruct check their first record argument with _expect.  Two
    records are equal when their type, tags and array are; records are
    immutable and unhashable.

    The hook keeps the name of the dataclass hook it replaced because the
    benchmark's tracer (perfbench/tracer.py) times spinor construction by
    wrapping ClassicalSpinor.__post_init__.
    """

    _tags: tuple[str, ...] = ()
    _views: tuple[tuple[str, object], ...] = ()
    _holds = "entries"

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        for name, index in cls.__dict__.get("_views", ()):
            setattr(cls, name, _WHOLE if index is ... else _view(index))

    def __init__(self, array: np.ndarray, **tags) -> None:
        self.__post_init__(array)
        if not np.logical_and.reduce(np.isfinite(array), axis=None):
            raise ValueError(f"{self._holds} must be finite")
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

    def _like(self, array: np.ndarray):
        """The record of this type and these tags that keeps array, adopted as _of adopts it."""
        record = object.__new__(type(self))
        array.setflags(write=False)
        record.__dict__.update(self.__dict__, _array=array)
        return record

    def stack(self) -> np.ndarray:
        """The read-only array that holds the record."""
        return self._array

    def _on_ray(self, axis=-1):
        """(ray, e): the record on its power-of-two ray (_ray over axis) with its tags, record = ray 2^e."""
        array, e = _ray(self._array, axis)
        return self._like(array), e

    @classmethod
    def _expect(cls, value) -> None:
        """Raise TypeError("expected a <type>, got <its type>") unless value is
        a record of this type: the rule of a record argument and of an operand."""
        if type(value) is not cls:
            raise TypeError(f"expected a {cls.__name__}, got {type(value).__name__}")

    def _operand(self, other) -> np.ndarray:
        """The array of other, the operand of a binary operation: anything but
        a record of this type raises TypeError (_expect), one with other tags ValueError."""
        self._expect(other)
        for name in self._tags:
            mine, theirs = getattr(self, name), getattr(other, name)
            if mine != theirs:
                raise ValueError(f"{name} mismatch: {_tag_text(mine)} vs {_tag_text(theirs)}")
        return other._array

    @_quiet
    def isclose(self, other: "Record", tol: float = 1e-12) -> bool:
        """Whether every entry of every row is within tol of other's (_operand);
        False, with no warning, where a difference overflows."""
        return bool(np.maximum.reduce(_modulus(self._array - self._operand(other)), axis=None) <= tol)

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and all(getattr(self, t) == getattr(other, t) for t in self._tags)
                and np.array_equal(self._array, other._array))

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"{type(self).__name__} is read-only: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        tags = "".join(f", {name}={_tag_text(getattr(self, name))}" for name in self._tags)
        return f"{type(self).__name__}({self._array!r}{tags})"


class _Linear:
    """Vector-space arithmetic of an algebra record, mixed in ahead of Record:
    + and - with a record of its type and tags, unary -, and * by a number on
    either side.  A type names its entries in _noun and the trailing axes of
    one row in _rank; rows that do not fit in float64 raise RowError (_fit)."""

    _rank = 1

    # an array times a record scales it row by row (see _scale) instead of
    # numpy broadcasting over the record as an object
    __array_ufunc__ = None

    def _fit(self, values: np.ndarray, what: str) -> np.ndarray:
        """values; rows holding a non-finite entry raise RowError("<noun> <what> does not fit in float64")."""
        return _fitting(values, f"{self._noun} {what} does not fit in float64", tuple(range(-self._rank, 0)))

    @_quiet
    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._like(self._fit(self._array + self._operand(other), "sum"))

    def __sub__(self, other):
        return self + -other if isinstance(other, type(self)) else NotImplemented

    def __neg__(self):
        return self._like(-self._array)

    @_quiet
    def _scale(self, factor):
        """Scale by a number, or row by row by an array of the batch shape,
        that the number rule (_numbers) takes for the record's dtype, else
        TypeError.  Rows whose factor is not finite raise RowError("scale
        factor must be finite"); it is looked at only when the product fails."""
        try:
            f = _numbers(factor, self._array.dtype.type, "scale factors")[(...,) + (None,) * self._rank]
        except ValueError:
            raise TypeError(f"cannot scale a {self._noun} by {type(factor).__name__}") from None
        product = self._array * f
        try:
            return self._like(self._fit(product, "product"))
        except RowError:
            _fitting(np.broadcast_to(f, product.shape), "scale factor must be finite", tuple(range(-self._rank, 0)))
            raise

    __mul__ = __rmul__ = _scale


class Signature(enum.Enum):
    """Metric signature tag; fixes the squares of the four generators."""

    MINKOWSKI = "minkowski"
    EUCLIDEAN = "euclidean"

    # members are singletons, so identity hashes them; that runs in C, where
    # Enum's hash by name is a Python call on every cached-table lookup
    __hash__ = object.__hash__

    @property
    def metric(self) -> tuple[float, float, float, float]:
        if self is Signature.MINKOWSKI:
            return (1.0, -1.0, -1.0, -1.0)
        return (1.0, 1.0, 1.0, 1.0)


# each blade as a bitmask with bit g set for generator g, and the blade of each mask
_MASKS = _frozen(np.array([sum(1 << g for g in b) for b in BLADES]))
_BY_MASK = _frozen(np.argsort(_MASKS))


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
    return _frozen(_BY_MASK[_MASKS[:, None] ^ _MASKS[None, :]], sign)


@functools.lru_cache(maxsize=None)
def _mul_gather(signature: Signature, right: bool) -> tuple[np.ndarray, np.ndarray]:
    """(source, sign) with M[k, j] = sign[k, j] * coeffs[source[k, j]] for the
    left (or right) multiplication matrix M of a multivector with coefficients
    coeffs: the product table read by output blade."""
    index, sign = _product_table(signature)
    if right:
        index, sign = index.T, sign.T
    source = np.argsort(index, axis=0)
    return _frozen(source, np.take_along_axis(sign, source, axis=0))


_REVERSION_SIGNS = _frozen(np.array([(-1.0) ** (k * (k - 1) // 2) for k in BLADE_GRADES]))
_GRADE_MASKS = {k: _frozen(np.array([g == k for g in BLADE_GRADES])) for k in range(5)}


class Multivector(_Linear, Record):
    """Immutable multivector: complex blade coefficients plus a signature.

    coeffs has shape (..., 16): the leading axes are a batch of multivectors
    sharing the signature, and shape (16,) is a single one.
    """

    _tags = ("signature",)
    _views = (("coeffs", ...),)
    _holds = "blade coefficients"
    _noun = "multivector"

    def __init__(self, signature: Signature, coeffs) -> None:
        super().__init__(_numbers(coeffs, np.complex128, self._holds), signature=signature)

    def __post_init__(self, c: np.ndarray) -> None:
        if c.shape[-1:] != (DIM,):
            raise ValueError(f"expected {DIM} blade coefficients, got shape {c.shape}")

    def __mul__(self, other):
        return geometric_product(self, other) if isinstance(other, Multivector) else self._scale(other)

    # -- involutions and projections --------------------------------------

    def reverse(self) -> "Multivector":
        return self._like(self.coeffs * _REVERSION_SIGNS)

    def conjugate(self) -> "Multivector":
        """Complex conjugation of the blade coefficients."""
        return self._like(self.coeffs.conj())

    def grade(self, k: int) -> "Multivector":
        return grade_projection(self, k)

    @property
    def scalar_part(self) -> complex:
        return _unbox(self.coeffs[..., 0])

    norm = _row_norm
    max_abs = _row_max_abs


# -- constructors ---------------------------------------------------------


def _from_slots(signature: Signature, slots, values) -> Multivector:
    """The multivector of the (..., k) values at k blade slots (indices or a slice), every other blade 0."""
    c = np.zeros(values.shape[:-1] + (DIM,), dtype=np.complex128)
    c[..., slots] = values
    return Multivector(signature, c)


def zero(signature: Signature = Signature.MINKOWSKI) -> Multivector:
    return scalar(0.0, signature)


def scalar(value: complex, signature: Signature = Signature.MINKOWSKI) -> Multivector:
    """Scalar multivector; an array of values gives a batch of that shape."""
    return _from_slots(signature, [0], _numbers(value, np.complex128, Multivector._holds)[..., None])


def blade(
    indices: tuple[int, ...],
    coeff: complex = 1.0,
    signature: Signature = Signature.MINKOWSKI,
) -> Multivector:
    """Basis blade from an ascending generator index tuple, e.g. (0, 1) for e0e1."""
    return from_blade_dict({tuple(indices): coeff}, signature)


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
    """Multivector of coefficients keyed by canonical blade index tuples; other keys are a ValueError."""
    slots = [BLADE_INDEX.get(tuple(key)) for key in data]
    if None in slots:
        raise ValueError(f"not a canonical blade index tuple: {list(data)[slots.index(None)]}")
    values = [_numbers(value, np.complex128, Multivector._holds) for value in data.values()]
    if any(value.ndim for value in values):
        raise ValueError("expected one coefficient per blade")
    return _from_slots(signature, slots, np.array(values))


# -- core operations ------------------------------------------------------


def _mul_matrix(a: Multivector, right: bool) -> np.ndarray:
    """(..., 16, 16) stack of the left (or right) multiplication matrices of
    a: entry [index[i, j], j] of L is sign[i, j] a_i, and R uses the
    transposed table.  Each column of index is a permutation, so every entry
    is one signed coefficient, gathered in a single pass."""
    Multivector._expect(a)
    source, sign = _mul_gather(a.signature, right)
    return sign * a.coeffs.take(source, axis=-1)


def geometric_product(a: Multivector, b: Multivector) -> Multivector:
    """a b, broadcasting the batch shapes of a and b against each other."""
    return a._like(_matvec(_mul_matrix(a, False), a._operand(b)))


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
    return a._like(np.where(_GRADE_MASKS[k], a.coeffs, 0.0))


def adjoint_dagger(a: Multivector) -> Multivector:
    """Adjoint e0 * reverse(conj(a)) * e0; matches Hermitian conjugation of the
    matrix image in any representation with g0 Hermitian and gk anti-Hermitian."""
    if a.signature is not Signature.MINKOWSKI:
        raise ValueError("adjoint is defined for the Minkowski signature only")
    e0 = basis_vector(0, a.signature)
    return e0 * a.conjugate().reverse() * e0


# -- matrix representations ------------------------------------------------

PAULI = _frozen(np.array([[0, 1], [1, 0]], dtype=np.complex128),
                np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
                np.array([[1, 0], [0, -1]], dtype=np.complex128))
_I2 = _frozen(np.eye(2, dtype=np.complex128))
_O2 = _frozen(np.zeros((2, 2), dtype=np.complex128))


def _block(a, b, c, d) -> np.ndarray:
    """The read-only 4x4 matrix [[a, b], [c, d]] of 2x2 blocks."""
    return _frozen(np.block([[a, b], [c, d]]))


@dataclass(frozen=True, eq=False)
class GammaRep:
    """Four 4x4 generator matrices for a concrete spinor representation."""

    tag: str
    gammas: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

    def __str__(self) -> str:
        return self.tag


# the spatial generators, the same in both representations
_SPATIAL = tuple(_block(_O2, s, -s, _O2) for s in PAULI)

WEYL = GammaRep("weyl", (_block(_O2, _I2, _I2, _O2),) + _SPATIAL)

# chosen so that the complexified idempotent is represented by the matrix unit E11
DIRAC = GammaRep("dirac", (_block(_I2, _O2, _O2, -_I2),) + _SPATIAL)

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
        mats = np.where((_MASKS >> g & 1).astype(bool)[:, None, None], _matmul(mats, gamma), mats)
    return _frozen(mats)


def rep_matrix(a: Multivector, rep: GammaRep = WEYL) -> np.ndarray:
    """4x4 complex image of a Minkowski multivector under e_mu -> gamma_mu;
    (..., 4, 4) for a batch."""
    Multivector._expect(a)
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


_WEYL_TO_DIRAC = _frozen(np.block([[_I2, _I2], [-_I2, _I2]]) / np.sqrt(2.0))


def weyl_to_dirac_matrix() -> np.ndarray:
    """Unitary U with U gamma_weyl U^dagger = gamma_dirac (acts on components);
    one shared read-only array."""
    return _WEYL_TO_DIRAC
