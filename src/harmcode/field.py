"""Exact arithmetic in prime fields F_p.

Values are residues bound to a :class:`FieldConfig`, one instance per prime;
mixing different moduli raises :class:`FieldMismatchError`. The supported
moduli are the primes up to 2**31; Python integers are unbounded, so the
cap is the range this package is built and tested for, not an overflow guard.

Scalars: the package has one scalar type, the exact int residue in
[0, p). Vector coordinates, monomial coefficients, scheme parameters,
encoding-matrix entries and decode weights are all plain ints, and every
integer a caller supplies becomes a residue through one function,
:meth:`FieldConfig.residues`. A :class:`FieldVector` is one field plus a
tuple of residues; every vector operation here reduces its results mod p
and builds that tuple directly. File input is range-checked before it
becomes a vector (see :mod:`harmcode.fileio`).

Randomness: callers pass a seeded ``random.Random`` (Mersenne Twister).
:func:`sample_uniform_vector` draws one ``randrange(p)`` per coordinate,
lowest index first, so a given seed always produces the identical stream
of vectors -- a requirement for reproducible share files. It makes
randrange's own draws (``getrandbits(p.bit_length())``, redrawn while
>= p, as CPython 3.10-3.12 do) without randrange's per-call overhead, all
of a round's draws in one ``getrandbits(32 * n)``. That rests on two
CPython facts, which cover every k <= 32: ``getrandbits(32 * n)`` is n
successive 32-bit Mersenne Twister words, the first one lowest, and
``getrandbits(k)`` is one such word shifted right by 32 - k.
"""

from __future__ import annotations

import operator
import random
import struct
from collections.abc import Iterable
from functools import lru_cache

from .errors import (
    DimensionMismatchError,
    FieldMismatchError,
    NotPrimeError,
)

MAX_MODULUS = 2**31


_WITNESSES = (2, 7, 61)
_FIELDS: dict = {}  # p -> its one FieldConfig


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
    """The prime field F_p for a fixed prime p <= 2**31, one instance per p:
    primality is checked (Miller-Rabin) when p is first seen, and every later
    ``FieldConfig(p)``, pickle, copy or deepcopy returns that instance, so
    fields are equal iff identical. Nothing downstream re-checks a field.
    :meth:`residues` is the one place where integers become residues of it.
    """

    __slots__ = ("p",)

    def __new__(cls, p: int):
        if not isinstance(p, int) or isinstance(p, bool):
            raise NotPrimeError(f"modulus must be an int, got {type(p).__name__}")
        field = _FIELDS.get(p)
        if field is None:
            if p < 2 or p > MAX_MODULUS or not _is_prime(p):
                raise NotPrimeError(f"modulus must be a prime in [2, 2^31], got {p}")
            field = object.__new__(cls)
            field.p = operator.index(p)  # an exact int, even from an int subclass
            field = _FIELDS.setdefault(field.p, field)
        return field

    def __reduce__(self):
        return FieldConfig, (self.p,)

    def __repr__(self):
        return f"FieldConfig({self.p})"

    def residues(self, values: Iterable[int]) -> tuple[int, ...]:
        """Each value reduced to its residue in [0, p), as an exact int.

        Values go through ``operator.index``: a bool or an int subclass
        becomes a plain int, and anything that is not an integer -- a float,
        a Fraction, a Decimal -- raises TypeError.
        """
        p = self.p
        return tuple([v % p for v in map(operator.index, values)])

    def vector(self, values: Iterable[int]) -> "FieldVector":
        """Build a vector from integers, each reduced by :meth:`residues`."""
        values = self.residues(values)
        if not values:
            raise DimensionMismatchError("vectors need at least one coordinate")
        return FieldVector._of(self, values)

    def zero_vector(self, dim: int) -> "FieldVector":
        if dim < 1:
            raise DimensionMismatchError("vectors need at least one coordinate")
        return FieldVector._of(self, (0,) * dim)


class FieldVector:
    """Fixed-length vector over one field: the field once, plus a tuple of
    residues, exact ints in [0, p), that :meth:`values` hands out.

    Build one with :meth:`FieldConfig.vector`, which reduces its integers
    through :meth:`FieldConfig.residues`, with :meth:`FieldConfig.zero_vector`
    or with :func:`sample_uniform_vector`.
    """

    __slots__ = ("field", "_values")

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

    def values(self) -> tuple[int, ...]:
        return self._values

    def _check(self, other) -> "FieldVector":
        if not isinstance(other, FieldVector):
            raise TypeError(f"expected FieldVector, got {type(other).__name__}")
        if other.field is not self.field:
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

    def __eq__(self, other):
        return (
            isinstance(other, FieldVector)
            and self.field is other.field
            and self._values == other._values
        )

    def __hash__(self):
        return hash((self.field.p, self._values))

    def __len__(self):
        return len(self._values)

    def __repr__(self):
        return f"FieldVector{self._values}%{self.field.p}"


# A rejected candidate's word, all ones: a kept one is below p < 2^31, so its
# top byte is below 0x80 and no run of four 0xff bytes starts inside it.
_REJECTED = b"\xff" * 4


@lru_cache(maxsize=64)
def _draws(n: int, p: int) -> tuple:
    """The layout of up to n candidates of bit = p.bit_length() bits, one per
    4-byte slot, as (mask, ones, bias, bit, words): mask holds the low bit bits
    of every slot, ones 1 and bias 2^bit - p in every slot, and the Struct
    ``words`` unpacks n slots. A round of fewer candidates reads the same
    mask, ones and bias: its slots above its own are 0, and 0 + bias < 2^bit."""
    bit = p.bit_length()
    ones = int.from_bytes(b"\x01\x00\x00\x00" * n, "little")
    return ones * ((1 << bit) - 1), ones, ones * ((1 << bit) - p), bit, struct.Struct(f"<{n}I")


def sample_uniform_vector(rng: random.Random, field: FieldConfig, dim: int) -> FieldVector:
    """Uniform vector in F_p^dim, one randrange(p) per coordinate in index order.

    randrange(p) is rejection sampling: k-bit draws, k = p.bit_length(),
    the first one below p kept. So the coordinates are the draws below p,
    in order, and each round makes only as many draws as coordinates are
    missing -- the stream randrange would consume, draw for draw.

    A round of n draws is one ``getrandbits(32 * n)``. CPython builds that
    int from n successive 32-bit Mersenne Twister words, the first one
    lowest, and ``getrandbits(k)`` for k <= 32 is one such word shifted
    right by 32 - k; so ``>> (32 - k) & mask`` leaves in each 4-byte slot
    the draw one ``getrandbits(k)`` call would return. Adding 2^k - p to
    every slot sets bit k in exactly the slots >= p. When one is set, the
    rejected slots become 0xffffffff and one ``bytes.replace`` cuts them.
    The CPython facts cover every k <= 32; the test and the cut need
    k <= 31, which every supported prime has, so a cap above 2^31 must
    change this draw.
    """
    if dim < 1:
        raise DimensionMismatchError("dim must be >= 1")
    draw, p = rng.getrandbits, field.p
    mask, ones, bias, bit, words = _draws(dim, p)
    shift = 32 - bit
    drawn = b""
    while n := dim - (len(drawn) >> 2):
        v = draw(32 * n) >> shift & mask
        if rejected := (v + bias) >> bit & ones:
            drawn += (v | rejected * 0xFFFFFFFF).to_bytes(4 * n, "little").replace(_REJECTED, b"")
        else:
            drawn += v.to_bytes(4 * n, "little")
    return FieldVector._of(field, words.unpack(drawn))


def sample_keys(rng: random.Random, field: FieldConfig, num_keys: int,
                dim: int) -> list[FieldVector]:
    """``num_keys`` keys in F_p^dim, split in order from one vector of num_keys * dim: the
    stream of one :func:`sample_uniform_vector` per key, each stopping at its dim-th draw < p."""
    values = sample_uniform_vector(rng, field, num_keys * dim).values()
    return [FieldVector._of(field, values[i:i + dim]) for i in range(0, len(values), dim)]
