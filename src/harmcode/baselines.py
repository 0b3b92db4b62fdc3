"""Reference schemes sharing the harmonic module's encode/decode contract.

Each is a linear code (see :mod:`harmcode.linear`); this module holds
their parameters and the builders of their encoding matrices and decode
vectors, and the encode/decode functions delegate to those.

* Shamir-style MPC: every input is masked separately (X_k + Z_k * theta),
  each of the d+1 share points gets one worker per input, and each
  g(X_k) is recovered by interpolating at 0. K(d+1) workers, K keys.
* Lagrange coded computing (LCC): one degree-K vector polynomial hits the
  K inputs plus one key at fixed anchors; workers evaluate it elsewhere,
  and the composed degree-Kd polynomial is interpolated back. Kd+1
  workers, one key.
* Freshman scheme: for the special family g(X) = A (X_1^d, ..., X_m^d)^T
  with d equal to the field characteristic, two workers suffice because
  coordinatewise (a+b)^p = a^p + b^p makes g additive.
"""

from __future__ import annotations

from typing import Sequence

from .errors import (
    DimensionMismatchError,
    FieldTooSmallError,
    InvalidParamsError,
)
from .field import FieldConfig, FieldVector
from .linear import DecodeVector, EncodingMatrix
from .poly import Dataset


def _lagrange_rows(points: Sequence[int], ats: Sequence[int], p: int) -> list[list[int]]:
    """Row r is [L_k(ats[r]) for every node k] as residues, L_k the Lagrange
    basis over the distinct `points`.

    Barycentric form (Berrut & Trefethen, SIAM Rev. 2004): with the weights
    w_k = 1 / prod_{j != k} (x_k - x_j), computed once,

        L_k(at) = prod_j (at - x_j) * w_k / (at - x_k),

    so the rows cost O(n (n + len(ats))) for n points. At a node the row is
    that node's unit vector.
    """
    weights = []
    for k, xk in enumerate(points):
        den = 1
        for j, xj in enumerate(points):
            if j != k:
                den = den * (xk - xj) % p
        weights.append(pow(den, -1, p))
    rows = []
    for at in ats:
        diffs = [(at - x) % p for x in points]
        if 0 in diffs:
            hit = diffs.index(0)
            rows.append([int(k == hit) for k in range(len(points))])
            continue
        ell = 1
        for dx in diffs:
            ell = ell * dx % p
        rows.append([ell * w * pow(dx, -1, p) % p for w, dx in zip(weights, diffs)])
    return rows


# ---------------------------------------------------------------------------
# Shamir-style MPC baseline


class ShamirParams:
    """Per-variable masking at d+1 nonzero share points; N = K(d+1).

    The share points thetas are ints, reduced to residues before they are
    checked.
    """

    __slots__ = ("field", "K", "d", "thetas")

    def __init__(self, field: FieldConfig, K: int, d: int, thetas: Sequence[int]):
        if K < 1 or d < 1:
            raise InvalidParamsError([f"need K >= 1 and d >= 1, got K={K}, d={d}"])
        thetas = field.residues(thetas)
        if len(thetas) != d + 1:
            raise InvalidParamsError(
                [f"need exactly d+1={d + 1} share points, got {len(thetas)}"])
        if 0 in thetas:
            raise InvalidParamsError(
                ["share point 0 would store an input in the clear"])
        if len(set(thetas)) != len(thetas):
            raise InvalidParamsError([f"share points {list(thetas)} are not distinct"])
        self.field = field
        self.K = K
        self.d = d
        self.thetas = thetas

    @property
    def N(self) -> int:
        return self.K * (self.d + 1)

    def __repr__(self):
        return (f"ShamirParams(F_{self.field.p}, K={self.K}, d={self.d}, "
                f"thetas={list(self.thetas)})")


def shamir_params(field: FieldConfig, K: int, d: int) -> ShamirParams:
    """Canonical points theta_r = r for r = 1..d+1 (needs p >= d+2)."""
    if d + 1 >= field.p:
        raise FieldTooSmallError(
            f"F_{field.p} has only {field.p - 1} nonzero points, need {d + 1}; "
            f"any prime >= {d + 2} works")
    return ShamirParams(field, K, d, range(1, d + 2))


def shamir_encoding_matrix(params: ShamirParams) -> EncodingMatrix:
    """Row (k, r) is X_k + theta_r Z_k, k-major, with one key column per input."""
    K = params.K
    rows = []
    for k in range(K):
        for theta in params.thetas:
            row = [0] * (2 * K)
            row[k] = 1
            row[K + k] = theta
            rows.append(row)
    return EncodingMatrix(params.field, K, rows, num_keys=K)


def shamir_decode_vector(params: ShamirParams) -> DecodeVector:
    """Each input's d+1 outputs interpolated at 0: the same weights per input."""
    field = params.field
    [lams] = _lagrange_rows(params.thetas, [0], field.p)
    return DecodeVector(field, lams * params.K)


def shamir_encode(params: ShamirParams, data: Dataset,
                  keys: Sequence[FieldVector]) -> list[FieldVector]:
    """Share for worker (k, r) is X_k + Z_k * theta_r, k-major order."""
    keys = list(keys)
    if len(keys) != params.K:
        raise DimensionMismatchError(
            f"need one key per input ({params.K}), got {len(keys)}")
    return shamir_encoding_matrix(params).apply(data, *keys)


def shamir_decode(params: ShamirParams, outputs: Sequence[FieldVector]) -> FieldVector:
    """Interpolate each input's degree-d output curve at 0, then sum."""
    return shamir_decode_vector(params).apply(outputs)


# ---------------------------------------------------------------------------
# Lagrange coded computing baseline


class LCCParams:
    """Anchors alpha_1..alpha_{K+1} (inputs + key) and N = Kd+1 evaluation points.

    Evaluation points must avoid the K data anchors -- that keeps the key's
    basis coefficient nonzero in every share -- and be pairwise distinct so
    the composed polynomial can be interpolated back. Both are ints,
    reduced to residues before they are checked.
    """

    __slots__ = ("field", "K", "d", "alphas", "gammas")

    def __init__(self, field: FieldConfig, K: int, d: int,
                 alphas: Sequence[int], gammas: Sequence[int]):
        if K < 1 or d < 1:
            raise InvalidParamsError([f"need K >= 1 and d >= 1, got K={K}, d={d}"])
        alphas = field.residues(alphas)
        gammas = field.residues(gammas)
        if len(alphas) != K + 1:
            raise InvalidParamsError(
                [f"need K+1={K + 1} anchors, got {len(alphas)}"])
        if len(gammas) != K * d + 1:
            raise InvalidParamsError(
                [f"need Kd+1={K * d + 1} evaluation points, got {len(gammas)}"])
        if len(set(alphas)) != len(alphas):
            raise InvalidParamsError([f"anchors {list(alphas)} are not distinct"])
        if len(set(gammas)) != len(gammas):
            raise InvalidParamsError([f"evaluation points {list(gammas)} are not distinct"])
        clash = sorted(set(gammas) & set(alphas[:K]))
        if clash:
            raise InvalidParamsError(
                [f"evaluation points {clash} coincide with data anchors and leak inputs"])
        self.field = field
        self.K = K
        self.d = d
        self.alphas = alphas
        self.gammas = gammas

    @property
    def N(self) -> int:
        return self.K * self.d + 1

    def __repr__(self):
        return f"LCCParams(F_{self.field.p}, K={self.K}, d={self.d}, N={self.N})"


def lcc_params(field: FieldConfig, K: int, d: int) -> LCCParams:
    """Canonical points: anchors 0..K and evaluations K+1..K+N.

    When the field is one residue short, the key anchor K doubles as the
    last evaluation point (a share equal to Z leaks nothing); below that
    there is no collision-free layout.
    """
    p = field.p
    N = K * d + 1
    room = p - (K + 1)
    if N <= room:
        gammas = range(K + 1, K + N + 1)
    elif N == room + 1:
        gammas = [*range(K + 1, p), K]
    else:
        raise FieldTooSmallError(
            f"F_{p} cannot host {N} evaluation points clear of {K} data anchors; "
            f"any prime >= {K + N + 1} works")
    return LCCParams(field, K, d, range(K + 1), gammas)


def lcc_encoding_matrix(params: LCCParams) -> EncodingMatrix:
    """Row i is the Lagrange basis over the anchors evaluated at gamma_i.

    O((N + K) K); a gamma on the key anchor (the short-field layout of
    :func:`lcc_params`) gets the key's unit row.
    """
    field = params.field
    rows = _lagrange_rows(params.alphas, params.gammas, field.p)
    return EncodingMatrix(field, params.K, rows)


def lcc_decode_vector(params: LCCParams) -> DecodeVector:
    """Output i weighs sum_k L_i(alpha_k), L_i the basis over the evaluation points.

    O(N (N + K)): one basis row per data anchor, summed column by column.
    """
    field = params.field
    rows = _lagrange_rows(params.gammas, params.alphas[:params.K], field.p)
    return DecodeVector(field, [sum(col) for col in zip(*rows)])


def lcc_encode(params: LCCParams, data: Dataset, z: FieldVector) -> list[FieldVector]:
    """Share i is u(gamma_i) for the degree-<=K vector polynomial with
    u(alpha_k) = X_k and u(alpha_{K+1}) = Z."""
    return lcc_encoding_matrix(params).apply(data, z)


def lcc_decode(params: LCCParams, outputs: Sequence[FieldVector]) -> FieldVector:
    """Interpolate the degree-<=Kd output polynomial through the evaluation
    points and sum its values at the K data anchors."""
    return lcc_decode_vector(params).apply(outputs)


# ---------------------------------------------------------------------------
# Freshman scheme (degree = characteristic)


class FreshmanParams:
    """Two-worker scheme for g(X) = A (X_1^d, ..., X_m^d)^T with d = char F.

    The matrix A holds ints, reduced to residues, and must be nonzero after
    that; the implied degree d is always the field characteristic, which is
    what makes x -> x^d additive.
    """

    __slots__ = ("field", "K", "m", "n", "matrix")

    def __init__(self, field: FieldConfig, K: int, m: int, n: int,
                 matrix: Sequence[Sequence[int]]):
        if K < 1:
            raise InvalidParamsError([f"K must be >= 1, got {K}"])
        if m < 1 or n < 1:
            raise InvalidParamsError([f"need m >= 1 and n >= 1, got m={m}, n={n}"])
        matrix = tuple(field.residues(row) for row in matrix)
        if len(matrix) != n or any(len(row) != m for row in matrix):
            raise InvalidParamsError([f"matrix must be {n}x{m}"])
        if not any(map(any, matrix)):
            raise InvalidParamsError(["matrix must be nonzero"])
        self.field = field
        self.K = K
        self.m = m
        self.n = n
        self.matrix = matrix

    @property
    def d(self) -> int:
        return self.field.p

    @property
    def N(self) -> int:
        return 2

    def __repr__(self):
        return (f"FreshmanParams(F_{self.field.p}, K={self.K}, "
                f"m={self.m}, n={self.n}, d={self.d})")


def freshman_encoding_matrix(params: FreshmanParams) -> EncodingMatrix:
    """Rows (0, ..., 0 | 1) and (1, ..., 1 | 1): shares Z and Z + X_1 + ... + X_K."""
    return EncodingMatrix(params.field, params.K, [[0] * params.K + [1], [1] * (params.K + 1)])


def freshman_decode_vector(params: FreshmanParams) -> DecodeVector:
    """(-1, 1): g(Z + sum X_k) - g(Z)."""
    return DecodeVector(params.field, [-1, 1])


def freshman_encode(params: FreshmanParams, data: Dataset,
                    z: FieldVector) -> list[FieldVector]:
    """Two shares: Z and Z + X_1 + ... + X_K."""
    if data.m != params.m or z.dim != params.m:
        raise DimensionMismatchError(
            f"expected dimension {params.m}, got data {data.m} / key {z.dim}")
    return freshman_encoding_matrix(params).apply(data, z)


def freshman_apply(params: FreshmanParams, x: FieldVector) -> FieldVector:
    """The scheme's own worker function: A applied to coordinatewise d-th powers."""
    if x.dim != params.m:
        raise DimensionMismatchError(f"input dim {x.dim} != m={params.m}")
    p = params.field.p
    powers = [pow(v, params.d, p) for v in x.values()]
    out = []
    for row in params.matrix:
        out.append(sum(e * v for e, v in zip(row, powers)) % p)
    return params.field.vector(out)


def freshman_oracle(params: FreshmanParams, data: Dataset) -> FieldVector:
    """Brute-force sum of freshman_apply over the dataset items."""
    acc = freshman_apply(params, data.items[0])
    for item in data.items[1:]:
        acc = acc + freshman_apply(params, item)
    return acc


def freshman_decode(params: FreshmanParams,
                    outputs: Sequence[FieldVector]) -> FieldVector:
    """g(Z + sum X_k) - g(Z), exact because d-th powers add in characteristic d."""
    return freshman_decode_vector(params).apply(outputs)
