"""Every scheme here is a linear code: an encoding matrix and a decode vector.

A scheme with K inputs and ``num_keys`` uniform keys hands worker w

    share_w = sum_k E[w][k] X_k + sum_t E[w][K+t] Z_t

and recovers f = g(X_1)+...+g(X_K) from the worker outputs as
sum_w v_w g(share_w). Both are a :class:`LinearMap`, rows of int residues
in [0, p) reduced once by :meth:`~harmcode.field.FieldConfig.residues` when
built: :class:`EncodingMatrix` is E, and :class:`DecodeVector` is v, the
one-row map over the N worker outputs. :class:`LinearCode` binds one
parameter set to its :class:`~harmcode.sim.Scheme` entry and builds each on
first use. The scheme modules only supply the coefficients.

Every code works on residues underneath: its core turns the residue
columns X_1..X_K, Z_1..Z_num_keys (tuples of ints in [0, p)) into one
residue tuple per worker, and N worker outputs as residue tuples into f's
residues. The public methods -- :meth:`EncodingMatrix.apply`,
:meth:`DecodeVector.apply`, :meth:`LinearCode.encode` and
:meth:`LinearCode.decode` -- are shells over that core: they check their
vectors' fields and widths once (:func:`_columns` for an encode) and wrap
the residues the core returns as :class:`~harmcode.field.FieldVector`
objects. A caller that has checked its inputs itself, as
:func:`harmcode.sim.run_trial` does, calls the core directly and wraps
nothing per share.

Every map is applied by one kernel, :func:`_apply_rows`: rows of int
coefficients over columns of residues, in one of two packings, whichever
makes fewer packed operations. A map with N rows, ``width`` = len(columns)
columns read and ``nnz`` nonzero coefficients, all kept on the map when it
is built, applied m coordinates wide, packs

- *wide*: each column it reads, once per call, into one Python int with a
  slot per coordinate; each row sums c * packed over its terms in C,
  starting from its first product, and a coefficient of 1 adds its packed
  column with no multiply: width packs, a product of m slots per
  coefficient other than 1 and N row reductions in all. The rule below
  counts every one of the nnz terms as a product, a pack weighing
  _PACK = 4 of them;
- *narrow*, when ``m * width < nnz + N + 4 * width``: each coefficient
  column, once per map and kept in its ``narrow``, into one int with a slot
  per row; each coordinate i sums cols[k][i] * packed_k over the columns in
  C, m * width products in all.

One call of :func:`_residues` then reduces every packed sum with a
slot-wise Barrett step and one conditional subtraction of p over all of its
slots at once, and unpacks each with one Struct. :func:`_layout` sizes the
slots from the map's heaviest row, the largest sum of one row's
coefficients: a slot sums one row's coefficients times residues of at most
p-1 -- over a coordinate when wide, over the columns when narrow -- so it
stays below heaviest * (p-1) < 2^s either way, and a slot holds each sum
times mu = floor(2^s / p) and bit p.bit_length(), so no carry or borrow
crosses a slot at any row length or modulus. Every coefficient is at most
p-1, so no slot is wider than the densest row's terms * (p-1)^2 would make
it. A slot takes 1, 2, 4 or 8 bytes, the fewest of them that hold it, or
past 8 the fewest whole bytes that do. Shamir's coefficients are 1 and
theta_r <= d+1, so at p = 2^31-1 and d = 3 its slots take 8 bytes, where
the general residues of harmonic's and LCC's maps take 13. At the small
primes of an exhaustive audit every slot takes 1, 2 or 4 bytes: harmonic's
chain takes 2 at p <= 11 and 4 at p = 13 to 101, and LCC's and Shamir's
matrices take 1 at p <= 5. The decode vector is the one-row case, with its N
worker outputs as columns: it packs narrow while m * N < 5N + 1, so at
n <= 5 outputs, and wide above. The measured crossovers put a pack at
about 0.5 products for Shamir's sparse 48 x 32 matrix, 3 for harmonic's
18 x 9 one, 4 for Shamir's 32 x 16 one and 7 or more for LCC's dense 25 x 9
one and for one-row maps of 10 to 48 weights; at 4, every map on the
benchmark's workloads takes its faster kernel.

Two encoders bypass the matrix kernel on the wide layout, each a scheme's
``fast_encode``: harmonic's chain (:func:`harmcode.harmonic.residue_encoder`)
always, and LCC's differences over its consecutive points
(:func:`harmcode.baselines.lcc_residue_encoder`) where :func:`_packs_narrow`
would pack its matrix wide and their slots are no wider than the matrix's;
elsewhere LCC's encoder applies the matrix.

Every scheme's coefficients that come from interpolation -- LCC's matrix
and decode vector, Shamir's decode weights and harmonic's group weights --
come from one routine, :func:`_lagrange_rows`.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Callable, Sequence
from functools import cached_property, lru_cache
from operator import mul

from .errors import (
    DimensionMismatchError,
    FieldMismatchError,
    InvalidParamsError,
    ParameterCorruptionError,
)
from .field import FieldConfig, FieldVector
from .poly import Dataset


@lru_cache(maxsize=64)
def _layout(m: int, p: int, top: int) -> tuple:
    """The packed layout of m slots for sums of at most ``top``, as
    (s, mu, mask, ones, bias, bit, slots):

    - s covers the largest slot sum, top < 2^s, and mu = 2^s // p (top = 0,
      rows that are all zero, gives s = mu = 0: every sum is 0);
    - a slot is the fewest bytes, ``width``, that hold both 2^s * mu and
      bit = p.bit_length(): the smallest of 1, 2, 4 and 8 that do, else
      the fewest above 8;
    - mask holds the low 8 * width - s bits of every slot, where
      v * mu >> s leaves each slot's quotient; ones holds 1 and bias
      2^bit - p in every slot;
    - the Struct ``slots`` packs a residue into each slot, or into its low
      8 bytes with zeros above them when it is wider; slots of 1, 2, 4 or 8
      bytes are spelled as one count code (B, H, I or Q), because CPython
      keeps about 32 bytes per code of a format.
    """
    s = top.bit_length()
    mu = (1 << s) // p
    bit = p.bit_length()
    width = -(-max((mu << s).bit_length(), bit + 1) // 8)
    if width <= 8:
        width = 1 << (width - 1).bit_length()
        fmt = f"<{m}" + "BHIQ"[width.bit_length() - 1]
    else:
        fmt = "<" + ("Q" + "x" * (width - 8)) * m
    ones = int.from_bytes((b"\x01" + bytes(width - 1)) * m, "little")
    return (s, mu, ones * ((1 << (8 * width - s)) - 1), ones, ones * ((1 << bit) - p), bit,
            struct.Struct(fmt))


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


# A per-call column pack (a Struct pack and an int.from_bytes) costs about
# as much as this many slot products at the sizes where the kernels meet.
_PACK = 4


def _packs_narrow(m: int, rows: int, width: int, nnz: int) -> bool:
    """Whether a map of ``rows`` rows reading ``width`` columns through
    ``nnz`` nonzero coefficients packs narrow m wide:
    ``m * width < nnz + rows + _PACK * width``, fewer packed operations, a
    pack weighing _PACK products. A map of no terms never does."""
    return nnz > 0 and m * width < nnz + rows + _PACK * width


def _apply_rows(lmap, cols: Sequence[Sequence[int]], m: int, p: int) -> list[tuple[int, ...]]:
    """sum_k c * cols[k] mod p for each row's ``terms`` of the map, m wide,
    packed narrow when :func:`_packs_narrow` says so and wide otherwise."""
    if _packs_narrow(m, len(lmap.rows), len(lmap.columns), lmap.nnz):
        return _apply_narrow(lmap, cols, m, p)
    return _apply_wide(lmap, cols, m, p)


def _apply_wide(lmap, cols: Sequence[Sequence[int]], m: int, p: int) -> list[tuple[int, ...]]:
    """Each column read packed over the m coordinates, one product per
    coefficient other than 1 -- a 1 adds its packed column as it is -- and
    each row summed from its first product; a row of no terms sums to 0."""
    layout = _layout(m, p, lmap.heaviest * (p - 1))
    packed = {k: _pack(layout, cols[k]) for k in lmap.columns}
    sums = []
    for row in lmap.terms:
        products = [packed[k] if c == 1 else c * packed[k] for k, c in row]
        sums.append(sum(products[1:], products[0]) if products else 0)
    return _residues(sums, layout, p)


def _apply_narrow(lmap, cols: Sequence[Sequence[int]], m: int, p: int) -> list[tuple[int, ...]]:
    """Each coefficient column packed over the map's rows, once per map into
    its ``narrow``, and one product per column read at each coordinate. A
    one-row map (a decode vector) has one slot per column: a one-slot pack
    of c is c itself and a one-slot reduction is % p, so it packs and
    unpacks nothing, and its first apply, the only one a ``harmcode decode``
    makes, costs what its later ones do. A map that reads no column would
    get no coordinates here; the rule never sends one (nnz = 0)."""
    rows, columns = lmap.rows, lmap.columns
    if lmap.narrow is None:
        if len(rows) == 1:
            lmap.narrow = [None, [rows[0][k] for k in columns]]
        else:
            layout = _layout(len(rows), p, lmap.heaviest * (p - 1))
            lmap.narrow = [layout, [_pack(layout, [row[k] for row in rows]) for k in columns]]
    layout, coeffs = lmap.narrow
    sums = [sum(map(mul, values, coeffs)) for values in zip(*[cols[k] for k in columns])]
    if layout is None:
        return [tuple([v % p for v in sums])]
    return list(zip(*_residues(sums, layout, p)))


def _columns(field: FieldConfig, K: int, num_keys: int, data: Dataset,
             keys: Sequence[FieldVector]) -> list[tuple[int, ...]]:
    """X_1..X_K, Z_1..Z_num_keys as residue columns, once the dataset's K and
    field, the key count and each key's field and width match the code's."""
    if not isinstance(data, Dataset):
        raise TypeError(f"expected Dataset, got {type(data).__name__}")
    if data.K != K:
        raise DimensionMismatchError(f"dataset has K={data.K}, code has K={K}")
    if len(keys) != num_keys:
        raise DimensionMismatchError(f"need {num_keys} keys, got {len(keys)}")
    if data.field is not field:
        raise FieldMismatchError(f"dataset over F_{data.field.p}, code over F_{field.p}")
    m = data.m
    for z in keys:
        if not isinstance(z, FieldVector):
            raise TypeError(f"expected FieldVector, got {type(z).__name__}")
        if z.field is not field:
            raise FieldMismatchError(f"key over F_{z.field.p}, code over F_{field.p}")
        if z.dim != m:
            raise DimensionMismatchError(f"key dim {z.dim} != data dim {m}")
    return [item.values() for item in data.items] + [z.values() for z in keys]


def _vectors(field: FieldConfig, rows: Sequence[tuple[int, ...]]) -> list[FieldVector]:
    """Each residue tuple a core returned, wrapped as a vector of ``field``."""
    of = FieldVector._of
    return [of(field, values) for values in rows]


def _lagrange_rows(points: Sequence[int], ats: Sequence[int], p: int) -> list[list[int]]:
    """Row r is [L_k(ats[r]) for every node k] as residues, L_k the Lagrange
    basis over ``points``; points and ats are residues.
    ParameterCorruptionError when two points coincide, which every scheme's
    valid parameters rule out.

    Barycentric form (Berrut & Trefethen, SIAM Rev. 2004): with
    den_k = prod_{j != k} (x_k - x_j) and ell = prod_j (at - x_j),

        L_k(at) = (ell / (at - x_k)) / den_k,

    where ell / (at - x_k) is an exact integer division. The 1 / den_k are
    (D / den_k) / D with D = prod_k den_k, so a call makes one modular
    inversion. At a node the row is that node's unit vector.
    """
    if len(set(points)) != len(points):
        raise ParameterCorruptionError(
            f"interpolation points {list(points)} coincide; the parameters are invalid")
    dens = [math.prod([xk - xj for xj in points if xj != xk]) % p for xk in points]
    total = math.prod(dens)
    inv = pow(total, -1, p)
    weights = [total // den * inv % p for den in dens]
    rows = []
    for at in ats:
        diffs = [at - x for x in points]
        if 0 in diffs:
            rows.append([int(dx == 0) for dx in diffs])
            continue
        ell = math.prod(diffs)
        rows.append([ell // dx * w % p for w, dx in zip(weights, diffs)])
    return rows


class LinearMap:
    """Rows of residues over ``field`` and what the kernels read of them:
    per row, its (column, coefficient) nonzero ``terms``; the ``columns``
    read, ascending; ``heaviest``, the largest sum of one row's
    coefficients, which times p-1 bounds a slot; ``nnz``, the nonzero
    count; and ``narrow``, None until the first narrow apply fills in the
    row-packed layout (None for one row) and coefficient columns."""

    __slots__ = ("field", "rows", "terms", "columns", "heaviest", "nnz", "narrow")

    def __init__(self, field: FieldConfig, rows: Sequence[Sequence[int]]):
        self.field = field
        self.rows = rows = tuple(field.residues(row) for row in rows)
        self.terms = terms = tuple(tuple((k, c) for k, c in enumerate(row) if c) for row in rows)
        self.columns = tuple(sorted({k for row in terms for k, _ in row}))
        self.heaviest = max(map(sum, rows), default=0)
        self.nnz = sum(map(len, terms))
        self.narrow = None

    def apply_residues(self, cols: Sequence[Sequence[int]], m: int) -> list[tuple[int, ...]]:
        """Each row's residues from the residue columns, each m wide,
        unchecked: a matrix's shares from X_1..X_K, Z_1..Z_num_keys."""
        return _apply_rows(self, cols, m, self.field.p)

    def __eq__(self, other):
        """Same type, field and rows, and for a matrix the same K and key count."""
        return type(other) is type(self) and all(
            getattr(self, a, None) == getattr(other, a, None)
            for a in ("field", "rows", "K", "num_keys"))


class EncodingMatrix(LinearMap):
    """N x (K + num_keys) matrix of residues: columns 1..K multiply
    X_1..X_K, the last num_keys columns multiply the keys Z_1..Z_num_keys.

    Every row must give some key a nonzero coefficient -- the per-worker
    privacy witness -- and construction refuses rows that break it.
    """

    __slots__ = ("K", "num_keys")

    def __init__(self, field: FieldConfig, K: int, rows: Sequence[Sequence[int]],
                 num_keys: int = 1):
        super().__init__(field, rows)
        width = K + num_keys
        for w, row in enumerate(self.rows, start=1):
            if len(row) != width:
                raise DimensionMismatchError(
                    f"row {w} has {len(row)} entries, expected {width}")
            if not any(row[K:]):
                raise InvalidParamsError(
                    [f"row {w} gives every key a zero coefficient and would leak data"])
        self.K, self.num_keys = K, num_keys

    @property
    def N(self) -> int:
        return len(self.rows)

    def apply(self, data: Dataset, *keys: FieldVector) -> list[FieldVector]:
        """Shares in worker order: share_w = sum_k row[w][k] X_k + sum_t row[w][K+t] Z_t."""
        cols = _columns(self.field, self.K, self.num_keys, data, keys)
        return _vectors(self.field, self.apply_residues(cols, data.m))

    def __repr__(self):
        return f"EncodingMatrix(F_{self.field.p}, {self.N}x{self.K + self.num_keys})"


class DecodeVector(LinearMap):
    """The N master-side weights, as residues: the one-row map over the N
    worker outputs; applying it to them yields f."""

    __slots__ = ("weights",)

    def __init__(self, field: FieldConfig, weights: Sequence[int]):
        super().__init__(field, (weights,))
        self.weights = self.rows[0]
        if not self.weights:
            raise DimensionMismatchError("decode vectors need at least one weight")

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
        for out in outputs:
            if not isinstance(out, FieldVector):
                raise TypeError(f"expected FieldVector, got {type(out).__name__}")
            if out.field is not self.field:
                raise FieldMismatchError(
                    f"output over F_{out.field.p}, decode vector over F_{self.field.p}")
            if out.dim != outputs[0].dim:
                raise DimensionMismatchError("outputs of differing dimensions")
        return FieldVector._of(self.field, self.apply_residues(
            [out.values() for out in outputs], outputs[0].dim))

    def apply_residues(self, outputs: Sequence[Sequence[int]], n: int) -> tuple[int, ...]:
        """The core of :meth:`apply`: f's residues from the N outputs' residue
        tuples, each n wide, unchecked."""
        [values] = _apply_rows(self, outputs, n, self.field.p)
        return values

    def __repr__(self):
        return f"DecodeVector{self.weights}"


class LinearCode:
    """One parameter set of one scheme, as a linear code.

    ``scheme`` is the parameters' :class:`~harmcode.sim.Scheme` entry; the
    kind, the key count, the builders, ``fast_encode`` and the worker
    function all come from it. ``matrix``, ``vector`` and the residue
    encoder are built on first use and kept, so an encode-only caller never
    builds the decode vector and a decode-only caller never builds the
    matrix, and a bad parameter set still makes a handle and fails at its
    first encode.

    :meth:`encode_residues` and ``vector.apply_residues`` are the code's
    core; :meth:`encode` and :meth:`decode` check and wrap around them. A
    subclass that changes the shares overrides :meth:`encode_residues`, so
    that both paths see the change.
    """

    def __init__(self, scheme, params):
        self.scheme = scheme
        self.params = params
        self.kind = scheme.name
        self.field = params.field
        self.K = params.K
        self.d = params.d
        self.worker_count = params.N
        self.num_keys = params.K if scheme.keys_per_input else 1
        self.worker_fn = None if scheme.worker_fn is None else scheme.worker_fn(params)

    @cached_property
    def matrix(self) -> EncodingMatrix:
        return self.scheme.build_matrix(self.params)

    @cached_property
    def vector(self) -> DecodeVector:
        return self.scheme.build_vector(self.params)

    @cached_property
    def _encoder(self) -> Callable[[Sequence[Sequence[int]], int], list[tuple[int, ...]]]:
        if self.scheme.fast_encode is None:
            return self.matrix.apply_residues
        return self.scheme.fast_encode(self.params)

    def encode_residues(self, cols: Sequence[Sequence[int]], m: int) -> list[tuple[int, ...]]:
        """Each share's residues, in worker order, from the residue columns
        X_1..X_K, Z_1..Z_num_keys, each m wide, unchecked."""
        return self._encoder(cols, m)

    def encode(self, data: Dataset, keys: Sequence[FieldVector]) -> list[FieldVector]:
        cols = _columns(self.field, self.K, self.num_keys, data, keys)
        return _vectors(self.field, self.encode_residues(cols, data.m))

    def decode(self, outputs: Sequence[FieldVector]) -> FieldVector:
        return self.vector.apply(outputs)

    def __repr__(self):
        return f"LinearCode({self.kind}, {self.params!r})"
