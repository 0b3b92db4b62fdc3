"""Every scheme here is a linear code: an encoding matrix and a decode vector.

A scheme with K inputs and ``num_keys`` uniform keys hands worker w

    share_w = sum_k E[w][k] X_k + sum_t E[w][K+t] Z_t

and recovers f = g(X_1)+...+g(X_K) from the worker outputs as
sum_w v_w g(share_w). :class:`EncodingMatrix` holds E and
:class:`DecodeVector` holds v, both as int residues in [0, p), reduced once
by :meth:`~harmcode.field.FieldConfig.residues` when they are built.
:class:`LinearCode` binds one parameter set to its
:class:`~harmcode.sim.Scheme` entry and builds each on first use. The
scheme modules only supply the coefficients.

Both maps are applied by one kernel, :func:`_apply_rows`: rows of int
coefficients over columns of residues. Each column a row uses is packed
once per call into one Python int with a slot per coordinate, and each row
sums c * packed over its terms in C. One call of :func:`_residues` then
reduces every row with a slot-wise Barrett step and one conditional
subtraction of p over all of its slots at once, and unpacks each row's
residues with one Struct. :func:`_layout` sizes the slots from the densest
row: its slot sums stay below terms * (p-1)^2 < 2^s, and a slot holds each
sum times mu = floor(2^s / p) and bit p.bit_length(), so no carry or borrow
crosses a slot at any row length or modulus. The decode vector is the
one-row case, with the worker outputs as its columns. The harmonic chain
encoder runs on the same layout.
"""

from __future__ import annotations

import struct
from functools import cached_property, lru_cache, partial
from typing import Callable, Sequence

from .errors import DimensionMismatchError, FieldMismatchError, InvalidParamsError
from .field import FieldConfig, FieldVector
from .poly import Dataset


@lru_cache(maxsize=64)
def _layout(m: int, p: int, terms: int) -> tuple:
    """The packed layout of m slots for sums of at most ``terms`` products of
    two residues, as (s, mu, mask, ones, bias, bit, slots):

    - s covers the largest slot sum, terms * (p-1)^2 < 2^s, and mu = 2^s // p
      (terms = 0, rows that are all zero, gives s = mu = 0: every sum is 0);
    - a slot is the fewest bytes, ``width``, that hold both 2^s * mu and
      bit = p.bit_length(), and at least the 8 its residue is read from;
    - mask holds the low 8 * width - s bits of every slot, where
      v * mu >> s leaves each slot's quotient; ones holds 1 and bias
      2^bit - p in every slot;
    - the Struct ``slots`` packs a residue into each slot's low 8 bytes,
      zeros above it.
    """
    s = (terms * (p - 1) ** 2).bit_length()
    mu = (1 << s) // p
    bit = p.bit_length()
    width = max(8, -(-max((mu << s).bit_length(), bit + 1) // 8))
    ones = int.from_bytes((b"\x01" + bytes(width - 1)) * m, "little")
    return (s, mu, ones * ((1 << (8 * width - s)) - 1), ones, ones * ((1 << bit) - p), bit,
            struct.Struct("<" + ("Q" + "x" * (width - 8)) * m))


def _pack(layout: tuple, values: Sequence[int]) -> int:
    """Residues laid one per slot, lowest coordinate in the lowest slot."""
    return int.from_bytes(layout[-1].pack(*values), "little")


def _residues(sums: Sequence[int], layout: tuple, p: int) -> list[tuple[int, ...]]:
    """The slots of each packed sum, reduced mod p.

    A Barrett step, v - (((v * mu) >> s) & mask) * p, leaves every slot in
    [0, 2p); adding 2^bit - p then sets bit ``bit`` in exactly the slots
    still >= p, and one more subtraction of p clears them.
    """
    s, mu, mask, ones, bias, bit, slots = layout
    size, unpack = slots.size, slots.unpack
    out = []
    for v in sums:
        v -= (v * mu >> s & mask) * p
        v -= ((v + bias) >> bit & ones) * p
        out.append(unpack(v.to_bytes(size, "little")))
    return out


def _compile(rows: tuple[tuple[int, ...], ...]):
    """Per row, its (column, coefficient) nonzero terms; the columns the rows
    read; and the most terms in a row."""
    terms = tuple(tuple((k, c) for k, c in enumerate(row) if c) for row in rows)
    return (terms, frozenset(k for row in terms for k, _ in row),
            max(map(len, terms), default=0))


def _apply_rows(plan, cols: Sequence[Sequence[int]], m: int, p: int) -> list[tuple[int, ...]]:
    """sum_k c * cols[k] mod p for each row's (k, c) terms, m coordinates wide."""
    terms, columns, most = plan
    layout = _layout(m, p, most)
    packed = {k: _pack(layout, cols[k]) for k in columns}
    return _residues([sum([c * packed[k] for k, c in row]) for row in terms], layout, p)


class EncodingMatrix:
    """N x (K + num_keys) matrix of residues: columns 1..K multiply
    X_1..X_K, the last num_keys columns multiply the keys Z_1..Z_num_keys.

    Every row must give some key a nonzero coefficient -- the per-worker
    privacy witness -- and construction refuses rows that break it.
    """

    __slots__ = ("field", "K", "num_keys", "rows", "_plan")

    def __init__(self, field: FieldConfig, K: int, rows: Sequence[Sequence[int]],
                 num_keys: int = 1):
        width = K + num_keys
        rows = tuple(field.residues(row) for row in rows)
        for w, row in enumerate(rows, start=1):
            if len(row) != width:
                raise DimensionMismatchError(
                    f"row {w} has {len(row)} entries, expected {width}")
            if not any(row[K:]):
                raise InvalidParamsError(
                    [f"row {w} gives every key a zero coefficient and would leak data"])
        self.field = field
        self.K = K
        self.num_keys = num_keys
        self.rows = rows
        self._plan = _compile(rows)

    @property
    def N(self) -> int:
        return len(self.rows)

    def apply(self, data: Dataset, *keys: FieldVector) -> list[FieldVector]:
        """Shares in worker order: share_w = sum_k row[w][k] X_k + sum_t row[w][K+t] Z_t."""
        if data.K != self.K:
            raise DimensionMismatchError(f"dataset has K={data.K}, matrix has K={self.K}")
        if len(keys) != self.num_keys:
            raise DimensionMismatchError(f"need {self.num_keys} keys, got {len(keys)}")
        p = self.field.p
        if data.field.p != p:
            raise FieldMismatchError(f"dataset over F_{data.field.p}, matrix over F_{p}")
        for z in keys:
            if z.field.p != p:
                raise FieldMismatchError(f"key over F_{z.field.p}, matrix over F_{p}")
            if z.dim != data.m:
                raise DimensionMismatchError(f"key dim {z.dim} != data dim {data.m}")
        cols = [item.values() for item in data.items] + [z.values() for z in keys]
        field, of = self.field, FieldVector._of
        return [of(field, values) for values in
                _apply_rows(self._plan, cols, data.m, p)]

    def __eq__(self, other):
        return (
            isinstance(other, EncodingMatrix)
            and self.field == other.field
            and self.K == other.K
            and self.num_keys == other.num_keys
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"EncodingMatrix(F_{self.field.p}, {self.N}x{self.K + self.num_keys})"


class DecodeVector:
    """The N master-side weights, as residues; applying them to worker
    outputs yields f."""

    __slots__ = ("field", "weights", "_plan")

    def __init__(self, field: FieldConfig, weights: Sequence[int]):
        self.field = field
        self.weights = field.residues(weights)
        self._plan = _compile((self.weights,))

    @property
    def N(self) -> int:
        return len(self.weights)

    def int_weights(self) -> tuple[int, ...]:
        return self.weights

    def apply(self, outputs: Sequence[FieldVector]) -> FieldVector:
        """sum_w weight_w * output_w over the workers."""
        outputs = list(outputs)
        if len(outputs) != self.N:
            raise DimensionMismatchError(
                f"expected {self.N} worker outputs, got {len(outputs)}")
        dim = outputs[0].dim
        for out in outputs:
            if out.field != self.field:
                raise FieldMismatchError(
                    f"output over F_{out.field.p}, decode vector over F_{self.field.p}")
            if out.dim != dim:
                raise DimensionMismatchError("outputs of differing dimensions")
        [values] = _apply_rows(self._plan, [out.values() for out in outputs], dim,
                               self.field.p)
        return FieldVector._of(self.field, values)

    def __eq__(self, other):
        return (
            isinstance(other, DecodeVector)
            and self.field == other.field
            and self.weights == other.weights
        )

    def __repr__(self):
        return f"DecodeVector{self.weights}"


class LinearCode:
    """One parameter set of one scheme, as a linear code.

    ``scheme`` is the parameters' :class:`~harmcode.sim.Scheme` entry; the
    kind, the key count, the builders, ``fast_encode`` and the worker
    function all come from it. ``matrix``, ``vector`` and ``encoder`` are
    built on first use and kept, so an encode-only caller never builds the
    decode vector and a decode-only caller never builds the matrix, and a
    bad parameter set still makes a handle and fails at its first encode.
    """

    def __init__(self, scheme, params):
        self.scheme = scheme
        self.params = params
        self.kind = scheme.name
        self.num_keys = params.K if scheme.keys_per_input else 1
        self.worker_fn = None if scheme.worker_fn is None else partial(scheme.worker_fn, params)

    @property
    def field(self) -> FieldConfig:
        return self.params.field

    @property
    def K(self) -> int:
        return self.params.K

    @property
    def d(self) -> int:
        return self.params.d

    @property
    def worker_count(self) -> int:
        return self.params.N

    @cached_property
    def matrix(self) -> EncodingMatrix:
        return self.scheme.build_matrix(self.params)

    @cached_property
    def vector(self) -> DecodeVector:
        return self.scheme.build_vector(self.params)

    @cached_property
    def encoder(self) -> Callable[..., list[FieldVector]]:
        if self.scheme.fast_encode is None:
            return self.matrix.apply
        return self.scheme.fast_encode(self.params)

    def encode(self, data: Dataset, keys: Sequence[FieldVector]) -> list[FieldVector]:
        if len(keys) != self.num_keys:
            raise DimensionMismatchError(f"need {self.num_keys} keys, got {len(keys)}")
        return self.encoder(data, *keys)

    def decode(self, outputs: Sequence[FieldVector]) -> FieldVector:
        return self.vector.apply(outputs)

    def __repr__(self):
        return f"LinearCode({self.kind}, {self.params!r})"
