"""Exact arithmetic in prime fields F_p.

Values are residues bound to a :class:`FieldConfig`; mixing different
moduli raises :class:`FieldMismatchError`. The supported moduli are the
primes up to 2**31; Python integers are unbounded, so the cap is the range
this package is built and tested for, not an overflow guard.

Storage: a :class:`FieldVector` is one field plus a tuple of plain ints in
[0, p). Every vector operation here reduces its results mod p and builds
that tuple directly; :class:`FieldElement` appears only at the API edge --
monomial coefficients, the scalar of :meth:`FieldVector.scale`, and the
coordinates ``elements``, iteration and indexing hand out. Scheme
parameters are plain int residues, like the vectors' coordinates.
File input is range-checked before it becomes a vector (see
:mod:`harmcode.fileio`).

Randomness: callers pass a seeded ``random.Random`` (Mersenne Twister).
:func:`sample_uniform_vector` draws one ``randrange(p)`` per coordinate,
lowest index first, so a given seed always produces the identical stream
of vectors -- a requirement for reproducible share files. It makes
randrange's own draws (``getrandbits(p.bit_length())``, redrawn while
>= p, as CPython 3.10-3.12 do) without randrange's per-call overhead.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

from .errors import (
    DimensionMismatchError,
    FieldMismatchError,
    NotPrimeError,
    ZeroInversionError,
)

MAX_MODULUS = 2**31


_WITNESSES = (2, 7, 61)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with bases 2, 7 and 61.

    Exact for every n < 4,759,123,141 (Jaeschke 1993), which covers the
    supported moduli up to 2**31.
    """
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldConfig:
    """The prime field F_p for a fixed prime p <= 2**31.

    Primality is checked eagerly (Miller-Rabin); everything downstream
    assumes a field and never re-checks.
    """

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or isinstance(p, bool):
            raise NotPrimeError(f"modulus must be an int, got {type(p).__name__}")
        if p < 2 or p > MAX_MODULUS or not _is_prime(p):
            raise NotPrimeError(f"modulus must be a prime in [2, 2^31], got {p}")
        self.p = p

    def __eq__(self, other):
        return isinstance(other, FieldConfig) and self.p == other.p

    def __hash__(self):
        return hash(("FieldConfig", self.p))

    def __repr__(self):
        return f"FieldConfig({self.p})"

    def element(self, value: int) -> "FieldElement":
        """Reduce an integer into the field."""
        return FieldElement(value % self.p, self)

    def zero(self) -> "FieldElement":
        return FieldElement(0, self)

    def one(self) -> "FieldElement":
        return FieldElement(1, self)

    def vector(self, values: Iterable[int]) -> "FieldVector":
        """Build a vector, reducing each integer mod p."""
        p = self.p
        values = tuple([v % p for v in values])
        if not values:
            raise DimensionMismatchError("vectors need at least one coordinate")
        return FieldVector._of(self, values)

    def zero_vector(self, dim: int) -> "FieldVector":
        if dim < 1:
            raise DimensionMismatchError("vectors need at least one coordinate")
        return FieldVector._of(self, (0,) * dim)


class FieldElement:
    """A residue 0 <= value < p. Immutable by convention: never reassign."""

    __slots__ = ("value", "field")

    def __init__(self, value: int, field: FieldConfig):
        if not 0 <= value < field.p:
            raise ValueError(f"residue {value} outside [0, {field.p})")
        self.value = value
        self.field = field

    def _coerce(self, other) -> "FieldElement":
        if not isinstance(other, FieldElement):
            raise TypeError(f"expected FieldElement, got {type(other).__name__}")
        if other.field.p != self.field.p:
            raise FieldMismatchError(
                f"mixed moduli: {self.field.p} vs {other.field.p}"
            )
        return other

    def __add__(self, other):
        other = self._coerce(other)
        return FieldElement((self.value + other.value) % self.field.p, self.field)

    def __sub__(self, other):
        other = self._coerce(other)
        return FieldElement((self.value - other.value) % self.field.p, self.field)

    def __neg__(self):
        return FieldElement(-self.value % self.field.p, self.field)

    def __mul__(self, other):
        other = self._coerce(other)
        return FieldElement((self.value * other.value) % self.field.p, self.field)

    def __pow__(self, exponent: int):
        """Square-and-multiply power; 0**0 is 1 by convention."""
        if exponent < 0:
            raise ValueError("exponent must be nonnegative; use inv() for reciprocals")
        return FieldElement(pow(self.value, exponent, self.field.p), self.field)

    def inv(self) -> "FieldElement":
        """Multiplicative inverse via Fermat: a**(p-2)."""
        if self.value == 0:
            raise ZeroInversionError(f"0 has no inverse mod {self.field.p}")
        return FieldElement(pow(self.value, self.field.p - 2, self.field.p), self.field)

    def __truediv__(self, other):
        other = self._coerce(other)
        return self * other.inv()

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and self.value == other.value
            and self.field.p == other.field.p
        )

    def __hash__(self):
        return hash((self.value, self.field.p))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"{self.value}%{self.field.p}"


class FieldVector:
    """Fixed-length vector over one field: the field once, plus a tuple of
    ints in [0, p).

    ``FieldVector(elements)`` builds one from :class:`FieldElement` values and
    checks that they share a field. ``elements``, iteration and indexing
    hand coordinates back as elements, built on demand.
    """

    __slots__ = ("field", "_values")

    def __init__(self, elements: Sequence[FieldElement]):
        elements = tuple(elements)
        if not elements:
            raise DimensionMismatchError("vectors need at least one coordinate")
        first = elements[0].field
        for e in elements[1:]:
            if e.field.p != first.p:
                raise FieldMismatchError("vector coordinates from different fields")
        self.field = first
        self._values = tuple(e.value for e in elements)

    @classmethod
    def _of(cls, field: FieldConfig, values: tuple[int, ...]) -> "FieldVector":
        """Wrap a nonempty tuple of residues already in [0, p), unchecked."""
        vec = object.__new__(cls)
        vec.field = field
        vec._values = values
        return vec

    @property
    def dim(self) -> int:
        return len(self._values)

    @property
    def elements(self) -> tuple[FieldElement, ...]:
        f = self.field
        return tuple(FieldElement(v, f) for v in self._values)

    def values(self) -> tuple[int, ...]:
        return self._values

    def _check(self, other) -> "FieldVector":
        if not isinstance(other, FieldVector):
            raise TypeError(f"expected FieldVector, got {type(other).__name__}")
        if other.field.p != self.field.p:
            raise FieldMismatchError(
                f"mixed moduli: {self.field.p} vs {other.field.p}"
            )
        if other.dim != self.dim:
            raise DimensionMismatchError(f"dim {self.dim} vs {other.dim}")
        return other

    def __add__(self, other):
        other = self._check(other)
        p = self.field.p
        return FieldVector._of(self.field, tuple(
            [(a + b) % p for a, b in zip(self._values, other._values)]))

    def __sub__(self, other):
        other = self._check(other)
        p = self.field.p
        return FieldVector._of(self.field, tuple(
            [(a - b) % p for a, b in zip(self._values, other._values)]))

    def scale(self, s: FieldElement) -> "FieldVector":
        if s.field.p != self.field.p:
            raise FieldMismatchError("scalar from a different field")
        p, sv = self.field.p, s.value
        return FieldVector._of(self.field, tuple([sv * a % p for a in self._values]))

    def __eq__(self, other):
        return (
            isinstance(other, FieldVector)
            and self.field.p == other.field.p
            and self._values == other._values
        )

    def __hash__(self):
        return hash((self.field.p, self._values))

    def __iter__(self):
        f = self.field
        return (FieldElement(v, f) for v in self._values)

    def __len__(self):
        return len(self._values)

    def __getitem__(self, idx):
        f = self.field
        if isinstance(idx, slice):
            return tuple(FieldElement(v, f) for v in self._values[idx])
        return FieldElement(self._values[idx], f)

    def __repr__(self):
        return f"FieldVector{self._values}%{self.field.p}"


def sample_uniform_vector(rng: random.Random, field: FieldConfig, dim: int) -> FieldVector:
    """Uniform vector in F_p^dim, one randrange(p) per coordinate in index order.

    randrange(p) is rejection sampling: k-bit draws, k = p.bit_length(),
    the first one below p kept. So the coordinates are the draws below p,
    in order, and each round makes only as many draws as coordinates are
    missing -- the stream randrange would consume, draw for draw.
    """
    if dim < 1:
        raise DimensionMismatchError("dim must be >= 1")
    draw, p = rng.getrandbits, field.p
    k = p.bit_length()
    values = []
    while len(values) < dim:
        values += [r for _ in range(dim - len(values)) if (r := draw(k)) < p]
    return FieldVector._of(field, tuple(values))
