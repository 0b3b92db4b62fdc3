"""Exception types shared across the package. Every refusal of bad
parameters, sizes, fields or files is a ``HarmcodeError``, a ``ValueError``;
the CLI maps these, and any ``OSError`` from a path, to exit code 2. A value
of the wrong type (a float where an int belongs, a list where a vector
belongs) still raises ``TypeError``, and an index out of range ``IndexError``."""


class HarmcodeError(ValueError):
    """Root of every harmcode refusal."""


class NotPrimeError(HarmcodeError):
    """Modulus is not a prime in the supported range."""


class FieldMismatchError(HarmcodeError):
    """Operands are bound to prime fields with different moduli."""


class ZeroInversionError(HarmcodeError, ZeroDivisionError):
    """Multiplicative inverse of zero was requested."""


class DimensionMismatchError(HarmcodeError):
    """Vector lengths, dataset sizes, or output counts do not line up."""


class DegreeMismatchError(HarmcodeError):
    """Polynomial degree is outside what the operation supports."""


class ConstantPolynomialError(HarmcodeError):
    """Constant maps carry no gradient structure; schemes reject them."""


class FieldTooSmallError(HarmcodeError):
    """The prime field has no room for the required scheme parameters."""


class InvalidParamsError(HarmcodeError):
    """Supplied scheme parameters violate their constraints."""

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        super().__init__("; ".join(violations))
        self.violations = list(violations)


class ParameterCorruptionError(HarmcodeError):
    """Decoder hit a zero denominator that valid parameters rule out."""


class BudgetExceededError(HarmcodeError):
    """Exhaustive enumeration would exceed the configured state budget."""


class SchemaViolationError(HarmcodeError):
    """File is not JSON (bad syntax or UTF-8, too deep, an integer past the
    digit limit) or does not match the expected schema."""


class ResidueRangeError(HarmcodeError):
    """Integer in a JSON document is outside the residue range [0, p)."""


class CountMismatchError(HarmcodeError):
    """Row or vector counts in a JSON document disagree with the declared sizes."""
