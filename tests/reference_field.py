"""Reference scalar arithmetic in F_p, one residue object at a time.

The library keeps every scalar as a plain int residue. The tests compare
its packed and generated kernels against this slow, obviously correct
element type, which checks its field on every operation.
"""

import operator

from harmcode.errors import FieldMismatchError, ZeroInversionError
from harmcode.field import FieldConfig, FieldVector


class FieldElement:
    """A residue 0 <= value < p. Immutable by convention: never reassign.

    The value is stored through ``operator.index``, so a float raises
    TypeError instead of carrying a float "residue" through the arithmetic.
    """

    __slots__ = ("value", "field")

    def __init__(self, value: int, field: FieldConfig):
        value = operator.index(value)
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


def element(field: FieldConfig, value: int) -> FieldElement:
    """Reduce an integer into the field."""
    return FieldElement(value % field.p, field)


def elements(vec) -> list[FieldElement]:
    """A vector's coordinates as elements of its field."""
    return [FieldElement(v, vec.field) for v in vec.values()]


def vector(field: FieldConfig, coords) -> FieldVector:
    """The vector with these element coordinates, each checked to be of ``field``."""
    for e in coords:
        if e.field != field:
            raise FieldMismatchError("vector coordinates from different fields")
    return field.vector([e.value for e in coords])


def scale(vec: FieldVector, a: FieldElement) -> FieldVector:
    """a times each coordinate, in element arithmetic."""
    return vector(vec.field, [a * e for e in elements(vec)])
