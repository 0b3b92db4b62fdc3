"""Every scheme here is a linear code: an encoding matrix and a decode vector.

A scheme with K inputs and ``num_keys`` uniform keys hands worker w

    share_w = sum_k E[w][k] X_k + sum_t E[w][K+t] Z_t

and recovers f = g(X_1)+...+g(X_K) from the worker outputs as
sum_w v_w g(share_w). :class:`EncodingMatrix` holds E, :class:`DecodeVector`
holds v, and :class:`LinearCode` binds one parameter set to both, building
each on first use. The scheme modules only supply the coefficients.

:meth:`EncodingMatrix.apply` picks a kernel per row from the row's own
nonzero count. A row of one or two terms is one reducing pass over the
coordinates. A denser row is a sum of big-int multiply-adds: each column
that such a row uses is packed once per call into one Python int with a
128-bit slot per coordinate, the row sums c * packed over its terms in C,
and its slots are reduced mod p once. No carry crosses a slot, so this is
exact while terms * (p-1)^2 < 2^128; at the supported moduli p <= 2^31
that would take a row of 2^66 terms to break.
"""

from __future__ import annotations

import struct
from functools import cached_property, lru_cache
from typing import Callable, Optional, Sequence

from .errors import DimensionMismatchError, FieldMismatchError, InvalidParamsError
from .field import FieldConfig, FieldElement, FieldVector, combine_values
from .poly import Dataset


def _accumulate(terms, dim: int) -> list[int]:
    """sum of c * column over the (c, column) pairs, coordinatewise.

    Left unreduced: ``FieldConfig.vector`` reduces each coordinate mod p.
    """
    acc = [0] * dim
    for c, col in terms:
        acc = [s + c * x for s, x in zip(acc, col)]
    return acc


@lru_cache(maxsize=64)
def _packers(m: int) -> tuple[struct.Struct, struct.Struct]:
    """The packed kernel's Structs for m coordinates: the (low, high) 64-bit
    words of every slot, and a residue followed by a zero high word."""
    return struct.Struct(f"<{2 * m}Q"), struct.Struct("<" + "Q8x" * m)


class EncodingMatrix:
    """N x (K + num_keys) scalar matrix: columns 1..K multiply X_1..X_K,
    the last num_keys columns multiply the keys Z_1..Z_num_keys.

    Every row must give some key a nonzero coefficient -- the per-worker
    privacy witness -- and construction refuses rows that break it.

    ``apply`` runs a row of one or two nonzero terms as one fused pass,
    (a*x + b*y) mod p, and a row of three or more as packed big-int
    multiply-adds over 128-bit slots, exact for terms * (p-1)^2 < 2^128.
    """

    __slots__ = ("field", "K", "num_keys", "rows", "_terms", "_packed_columns")

    def __init__(self, field: FieldConfig, K: int,
                 rows: Sequence[Sequence[FieldElement]], num_keys: int = 1):
        width = K + num_keys
        rows = tuple(tuple(r) for r in rows)
        for w, row in enumerate(rows, start=1):
            if len(row) != width:
                raise DimensionMismatchError(
                    f"row {w} has {len(row)} entries, expected {width}")
            if not any(e.value for e in row[K:]):
                raise InvalidParamsError(
                    [f"row {w} gives every key a zero coefficient and would leak data"])
        self.field = field
        self.K = K
        self.num_keys = num_keys
        self.rows = rows
        # (column, coefficient) for the nonzero entries of each row
        self._terms = tuple(tuple((k, e.value) for k, e in enumerate(row) if e.value)
                            for row in rows)
        # the columns the packed (three or more term) rows read
        self._packed_columns = frozenset(
            k for terms in self._terms if len(terms) > 2 for k, _ in terms)

    @property
    def N(self) -> int:
        return len(self.rows)

    def int_rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(e.value for e in row) for row in self.rows)

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
        m, field, of = data.m, self.field, FieldVector._of
        if self._packed_columns:
            slots, pad = _packers(m)
            packed = {k: int.from_bytes(pad.pack(*cols[k]), "little")
                      for k in self._packed_columns}
            r = (1 << 64) % p
        shares = []
        for terms in self._terms:
            if len(terms) == 1:
                (k, a), = terms
                values = tuple([a * x % p for x in cols[k]])
            elif len(terms) == 2:
                (k, a), (j, b) = terms
                values = combine_values(a, cols[k], b, cols[j], p)
            else:
                w = slots.unpack(sum([c * packed[k] for k, c in terms]).to_bytes(16 * m, "little"))
                values = tuple([(lo + hi * r) % p for lo, hi in zip(w[::2], w[1::2])])
            shares.append(of(field, values))
        return shares

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
    """The N master-side weights; applying them to worker outputs yields f."""

    __slots__ = ("field", "weights")

    def __init__(self, field: FieldConfig, weights: Sequence[FieldElement]):
        self.field = field
        self.weights = tuple(weights)

    @property
    def N(self) -> int:
        return len(self.weights)

    def int_weights(self) -> tuple[int, ...]:
        return tuple(w.value for w in self.weights)

    def apply(self, outputs: Sequence[FieldVector]) -> FieldVector:
        """sum_w weight_w * output_w over the workers."""
        outputs = list(outputs)
        if len(outputs) != self.N:
            raise DimensionMismatchError(
                f"expected {self.N} worker outputs, got {len(outputs)}")
        dim = outputs[0].dim
        for out in outputs:
            if out.field != self.field:
                raise DimensionMismatchError("output from a different field")
            if out.dim != dim:
                raise DimensionMismatchError("outputs of differing dimensions")
        return self.field.vector(_accumulate(
            [(w.value, out.values()) for w, out in zip(self.weights, outputs)], dim))

    def __eq__(self, other):
        return (
            isinstance(other, DecodeVector)
            and self.field == other.field
            and self.weights == other.weights
        )

    def __repr__(self):
        return f"DecodeVector{self.int_weights()}"


class LinearCode:
    """One parameter set of one scheme, as a linear code.

    ``matrix``, ``vector`` and ``encoder`` come from the scheme's builders
    on first use and are kept, so an encode-only caller never builds the
    decode vector and a decode-only caller never builds the matrix.
    ``fast_encode``, when given, is a builder ``params -> encode(data,
    *keys)``; the encoder it builds takes the place of ``matrix.apply`` and
    must give the same shares. Because it is built on first use, a bad
    parameter set still makes a handle and fails at its first encode.
    ``worker_fn`` is set only by a scheme that fixes g itself.
    """

    def __init__(self, kind: str, params, num_keys: int,
                 build_matrix: Callable[..., EncodingMatrix],
                 build_vector: Callable[..., DecodeVector],
                 fast_encode: Optional[Callable[..., Callable[..., list[FieldVector]]]] = None,
                 worker_fn: Optional[Callable[[FieldVector], FieldVector]] = None):
        self.kind = kind
        self.params = params
        self.num_keys = num_keys
        self.worker_fn = worker_fn
        self._build_matrix = build_matrix
        self._build_vector = build_vector
        self._build_encoder = fast_encode

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
        return self._build_matrix(self.params)

    @cached_property
    def vector(self) -> DecodeVector:
        return self._build_vector(self.params)

    @cached_property
    def encoder(self) -> Callable[..., list[FieldVector]]:
        if self._build_encoder is None:
            return self.matrix.apply
        return self._build_encoder(self.params)

    def encode(self, data: Dataset, keys: Sequence[FieldVector]) -> list[FieldVector]:
        if len(keys) != self.num_keys:
            raise DimensionMismatchError(f"need {self.num_keys} keys, got {len(keys)}")
        return self.encoder(data, *keys)

    def decode(self, outputs: Sequence[FieldVector]) -> FieldVector:
        return self.vector.apply(outputs)

    def __repr__(self):
        return f"LinearCode({self.kind}, {self.params!r})"
