"""Sparse polynomial maps g: F_p^m -> F_p^n and the gradient-type sum oracle.

A map is stored per output coordinate as a tuple of monomials
(coefficient, exponent vector). Representations are canonical: within one
output coordinate the exponent vectors are distinct, no zero coefficients
are stored, and every individual exponent is at most p-1.

``direct_gradient_sum`` is the brute-force reference for
f(X_1, ..., X_K) = g(X_1) + ... + g(X_K); every coded scheme in this
package is checked against it.
"""

from __future__ import annotations

import itertools
import random
from typing import Sequence

from .errors import (
    DegreeMismatchError,
    DimensionMismatchError,
    FieldMismatchError,
)
from .field import FieldConfig, FieldElement, FieldVector, sample_uniform_vector


class Monomial:
    """coeff * prod_k x_k**exps[k], with coeff != 0 and exponents >= 0."""

    __slots__ = ("coeff", "exps")

    def __init__(self, coeff: FieldElement, exps: Sequence[int]):
        exps = tuple(exps)
        if coeff.value == 0:
            raise ValueError("zero terms are not stored")
        if any(e < 0 for e in exps):
            raise ValueError("exponents must be nonnegative")
        self.coeff = coeff
        self.exps = exps

    @property
    def degree(self) -> int:
        return sum(self.exps)

    def __eq__(self, other):
        return (
            isinstance(other, Monomial)
            and self.coeff == other.coeff
            and self.exps == other.exps
        )

    def __hash__(self):
        return hash((self.coeff, self.exps))

    def __repr__(self):
        return f"Monomial({self.coeff!r}, {self.exps})"


class PolyMap:
    """A polynomial map F_p^m -> F_p^n in canonical sparse form.

    Construction also compiles each output coordinate once into
    ``(coeff, ((var, exp), ...))`` pairs with the zero exponents dropped, so
    ``eval`` costs O(terms x support) -- a degree-d monomial touches at most
    d variables -- instead of O(terms x m).
    """

    __slots__ = ("field", "m", "n", "outputs", "_degree", "_compiled")

    def __init__(self, field: FieldConfig, m: int,
                 outputs: Sequence[Sequence[Monomial]]):
        if m < 1:
            raise DimensionMismatchError("input dimension m must be >= 1")
        if not outputs:
            raise DimensionMismatchError("need at least one output coordinate")
        cap = field.p - 1
        canon = []
        for coord in outputs:
            coord = tuple(coord)
            seen = set()
            for mono in coord:
                if len(mono.exps) != m:
                    raise DimensionMismatchError(
                        f"exponent vector length {len(mono.exps)} != m={m}")
                if mono.coeff.field != field:
                    raise FieldMismatchError("monomial coefficient from another field")
                if any(e > cap for e in mono.exps):
                    raise ValueError(
                        f"exponent above p-1={cap}; not a canonical representation")
                if mono.exps in seen:
                    raise ValueError(f"duplicate exponent vector {mono.exps}; merge terms")
                seen.add(mono.exps)
            canon.append(coord)
        self.field = field
        self.m = m
        self.n = len(canon)
        self.outputs = tuple(canon)
        degs = [mono.degree for coord in self.outputs for mono in coord]
        self._degree = max(degs) if degs else 0
        self._compiled = tuple(
            tuple((mono.coeff.value, tuple((k, e) for k, e in enumerate(mono.exps) if e))
                  for mono in coord)
            for coord in self.outputs)

    @classmethod
    def from_terms(cls, field: FieldConfig, m: int,
                   terms_per_output: Sequence[Sequence[tuple]]) -> "PolyMap":
        """Build from raw (coeff_int, exps) pairs, merging duplicate exponent vectors."""
        outputs = []
        for raw in terms_per_output:
            acc: dict[tuple, int] = {}
            for coeff, exps in raw:
                exps = tuple(exps)
                acc[exps] = (acc.get(exps, 0) + coeff) % field.p
            coord = [Monomial(FieldElement(c, field), e)
                     for e, c in acc.items() if c != 0]
            coord.sort(key=lambda mono: mono.exps)
            outputs.append(coord)
        return cls(field, m, outputs)

    @classmethod
    def univariate(cls, field: FieldConfig, coeffs: Sequence[int]) -> "PolyMap":
        """g(x) = coeffs[0] + coeffs[1]*x + ... as a 1-in 1-out map."""
        return cls.from_terms(field, 1, [[(c, (e,)) for e, c in enumerate(coeffs)]])

    def eval(self, x: FieldVector) -> FieldVector:
        """Evaluate exactly in F_p; output dimension n."""
        if not isinstance(x, FieldVector):
            raise TypeError(f"expected FieldVector, got {type(x).__name__}")
        if x.field != self.field:
            raise FieldMismatchError("input vector from a different field")
        if x.dim != self.m:
            raise DimensionMismatchError(f"input dim {x.dim} != m={self.m}")
        p = self.field.p
        xs = x.values()
        out = []
        for coord in self._compiled:
            acc = 0
            for t, support in coord:
                for k, e in support:
                    t = t * pow(xs[k], e, p) % p
                acc += t
            out.append(acc)
        return self.field.vector(out)

    def total_degree(self) -> int:
        """Max total degree over all stored monomials; 0 for a constant map."""
        return self._degree

    def __eq__(self, other):
        return (
            isinstance(other, PolyMap)
            and self.field == other.field
            and self.m == other.m
            and self.outputs == other.outputs
        )

    def __hash__(self):
        return hash((self.field, self.m, self.outputs))

    def __repr__(self):
        terms = sum(len(c) for c in self.outputs)
        return f"PolyMap(F_{self.field.p}, m={self.m}, n={self.n}, terms={terms})"


class Dataset:
    """K input vectors X_1 ... X_K sharing one field and one dimension."""

    __slots__ = ("items",)

    def __init__(self, items: Sequence[FieldVector]):
        items = tuple(items)
        if not items:
            raise DimensionMismatchError("dataset needs at least one item")
        first = items[0]
        for it in items[1:]:
            if it.field != first.field:
                raise FieldMismatchError("dataset items from different fields")
            if it.dim != first.dim:
                raise DimensionMismatchError("dataset items of different dimensions")
        self.items = items

    @property
    def K(self) -> int:
        return len(self.items)

    @property
    def m(self) -> int:
        return self.items[0].dim

    @property
    def field(self) -> FieldConfig:
        return self.items[0].field

    def __iter__(self):
        return iter(self.items)

    def __len__(self):
        return len(self.items)

    def __getitem__(self, idx):
        return self.items[idx]

    def __eq__(self, other):
        return isinstance(other, Dataset) and self.items == other.items

    def __repr__(self):
        return f"Dataset(K={self.K}, m={self.m}, F_{self.field.p})"


def direct_gradient_sum(g: PolyMap, data: Dataset) -> FieldVector:
    """Brute-force oracle: g(X_1) + ... + g(X_K), one eval per item."""
    acc = g.eval(data.items[0])
    for item in data.items[1:]:
        acc = acc + g.eval(item)
    return acc


class MultilinearMap:
    """Alternating subset-sum blend of g over d input blocks.

    Evaluates
        g'(X_1, ..., X_d) = sum over S of [d] of (-1)**|S| * g(sum of X_j, j in S)
    by direct summation over all 2**d subsets. For g of exact total degree
    d this kills every term of degree below d and is linear in each block
    separately; it is not identically zero whenever p > d.
    """

    __slots__ = ("g", "d")

    def __init__(self, g: PolyMap, d: int):
        self.g = g
        self.d = d

    @property
    def block_dim(self) -> int:
        return self.g.m

    @property
    def out_dim(self) -> int:
        return self.g.n

    @property
    def field(self) -> FieldConfig:
        return self.g.field

    def __call__(self, blocks: Sequence[FieldVector]) -> FieldVector:
        blocks = list(blocks)
        if len(blocks) != self.d:
            raise DimensionMismatchError(f"expected {self.d} blocks, got {len(blocks)}")
        for b in blocks:
            if b.dim != self.g.m:
                raise DimensionMismatchError(f"block dim {b.dim} != m={self.g.m}")
        field = self.g.field
        zero_in = field.zero_vector(self.g.m)
        acc = field.zero_vector(self.g.n)
        for mask in range(1 << self.d):
            s = zero_in
            bits = 0
            for j in range(self.d):
                if mask >> j & 1:
                    s = s + blocks[j]
                    bits += 1
            val = self.g.eval(s)
            acc = acc + val if bits % 2 == 0 else acc - val
        return acc

    def expand(self) -> PolyMap:
        """Symbolic form over the d*m flattened block variables.

        Only offered for d*m <= 12; recovers each coefficient by probing
        with one unit vector per block, which is exact because the map is
        linear in every block.
        """
        d, m = self.d, self.g.m
        if d * m > 12:
            raise ValueError(f"symbolic expansion capped at 12 variables, got {d * m}")
        field = self.g.field
        units = [field.vector([1 if t == k else 0 for t in range(m)]) for k in range(m)]
        raw: list[list[tuple]] = [[] for _ in range(self.g.n)]
        for combo in itertools.product(range(m), repeat=d):
            val = self([units[k] for k in combo])
            exps = [0] * (d * m)
            for j, k in enumerate(combo):
                exps[j * m + k] += 1
            for t, v in enumerate(val.values()):
                if v:
                    raw[t].append((v, tuple(exps)))
        return PolyMap.from_terms(field, d * m, raw)

    def __repr__(self):
        return f"MultilinearMap(d={self.d}, m={self.g.m}, n={self.g.n}, F_{self.field.p})"


def multilinearize(g: PolyMap, d: int) -> MultilinearMap:
    """Turn a map of exact total degree d into a d-block multilinear map."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if g.total_degree() != d:
        raise DegreeMismatchError(
            f"d={d} must equal the map's total degree {g.total_degree()}")
    return MultilinearMap(g, d)


def _random_exps(rng: random.Random, m: int, total: int, cap: int) -> tuple[int, ...]:
    """Random exponent vector of exact total degree, each entry <= cap."""
    exps = []
    remaining = total
    for k in range(m):
        left = m - k - 1
        lo = max(0, remaining - left * cap)
        hi = min(cap, remaining)
        e = rng.randint(lo, hi)
        exps.append(e)
        remaining -= e
    return tuple(exps)


def random_poly(rng: random.Random, field: FieldConfig, m: int, n: int, d: int) -> PolyMap:
    """Random sparse map of total degree exactly d (one degree-d term forced)."""
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    cap = field.p - 1
    if d > m * cap:
        raise ValueError(
            f"no canonical monomial of degree {d} exists in {m} variables over F_{field.p}")
    outputs = []
    for t in range(n):
        used: set[tuple] = set()

        def fresh(total: int):
            # A few resamples; give up on collision-heavy totals (m=1 has
            # exactly one vector per total). First call per coordinate
            # always succeeds, so no coordinate ends up empty.
            for _ in range(20):
                e = _random_exps(rng, m, total, cap)
                if e not in used:
                    used.add(e)
                    return e
            return None

        terms = []
        if t == 0:
            terms.append((rng.randrange(1, field.p), fresh(d)))
        for _ in range(rng.randint(1, 2)):
            e = fresh(rng.randint(0, d))
            if e is not None:
                terms.append((rng.randrange(1, field.p), e))
        outputs.append(terms)
    return PolyMap.from_terms(field, m, outputs)


def random_dataset(rng: random.Random, field: FieldConfig, K: int, m: int) -> Dataset:
    """K uniform vectors, drawn item-major then coordinate-major."""
    return Dataset([sample_uniform_vector(rng, field, m) for _ in range(K)])
