"""Exact arithmetic in prime fields F_p.

Values are residues bound to a :class:`FieldConfig`; mixing different
moduli raises :class:`FieldMismatchError`. The supported moduli are the
primes up to 2**31; Python integers are unbounded, so the cap is the range
this package is built and tested for, not an overflow guard.

Randomness: callers pass a seeded ``random.Random`` (Mersenne Twister).
:func:`sample_uniform_vector` draws one ``randrange(p)`` per coordinate,
lowest index first, so a given seed always produces the identical stream
of vectors -- a requirement for reproducible share files.
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


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class FieldConfig:
    """The prime field F_p for a fixed prime p <= 2**31.

    Primality is checked eagerly (trial division); everything downstream
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
        return FieldVector(tuple(FieldElement(v % self.p, self) for v in values))

    def zero_vector(self, dim: int) -> "FieldVector":
        return FieldVector(tuple(FieldElement(0, self) for _ in range(dim)))


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
    """Fixed-length tuple of residues from one field."""

    __slots__ = ("elements",)

    def __init__(self, elements: Sequence[FieldElement]):
        elements = tuple(elements)
        if not elements:
            raise DimensionMismatchError("vectors need at least one coordinate")
        first = elements[0].field
        for e in elements[1:]:
            if e.field.p != first.p:
                raise FieldMismatchError("vector coordinates from different fields")
        self.elements = elements

    @property
    def field(self) -> FieldConfig:
        return self.elements[0].field

    @property
    def dim(self) -> int:
        return len(self.elements)

    def values(self) -> tuple[int, ...]:
        return tuple(e.value for e in self.elements)

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
        f = self.field
        return FieldVector(tuple(
            FieldElement((a.value + b.value) % f.p, f)
            for a, b in zip(self.elements, other.elements)
        ))

    def __sub__(self, other):
        other = self._check(other)
        f = self.field
        return FieldVector(tuple(
            FieldElement((a.value - b.value) % f.p, f)
            for a, b in zip(self.elements, other.elements)
        ))

    def scale(self, s: FieldElement) -> "FieldVector":
        if s.field.p != self.field.p:
            raise FieldMismatchError("scalar from a different field")
        f = self.field
        return FieldVector(tuple(
            FieldElement((s.value * a.value) % f.p, f) for a in self.elements
        ))

    def __eq__(self, other):
        return (
            isinstance(other, FieldVector)
            and self.field.p == other.field.p
            and self.values() == other.values()
        )

    def __hash__(self):
        return hash((self.field.p, self.values()))

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __getitem__(self, idx):
        return self.elements[idx]

    def __repr__(self):
        return f"FieldVector{self.values()}%{self.field.p}"


def combine(a: FieldElement, u: FieldVector, b: FieldElement, v: FieldVector) -> FieldVector:
    """One two-term linear combination a*u + b*v.

    This is the unit of work the recursive encoder is measured in.
    """
    u._check(v)
    if a.field.p != u.field.p or b.field.p != u.field.p:
        raise FieldMismatchError("scalar from a different field")
    f = u.field
    av, bv = a.value, b.value
    return FieldVector(tuple(
        FieldElement((av * x.value + bv * y.value) % f.p, f)
        for x, y in zip(u.elements, v.elements)
    ))


def sample_uniform_vector(rng: random.Random, field: FieldConfig, dim: int) -> FieldVector:
    """Uniform vector in F_p^dim, one randrange(p) per coordinate in index order."""
    if dim < 1:
        raise DimensionMismatchError("dim must be >= 1")
    return FieldVector(tuple(
        FieldElement(rng.randrange(field.p), field) for _ in range(dim)
    ))
