"""Reference schemes sharing the harmonic module's encode/decode contract.

Each is a linear code (see :mod:`harmcode.linear`); this module holds
their parameters and the builders of their encoding matrices and decode
vectors. Shamir and LCC take their weights from the shared Lagrange
routine, :func:`harmcode.linear._lagrange_rows`, and their module
encode/decode functions delegate to the builders. The freshman scheme has
no module encode or decode: a handle (:func:`harmcode.sim.make_handle`)
encodes and decodes it, and its worker function, a :class:`FreshmanMap`,
has PolyMap's ``eval`` and checks the data width there.

* Shamir-style MPC: every input is masked separately (X_k + Z_k * theta),
  each of the d+1 share points gets one worker per input, and each
  g(X_k) is recovered by interpolating at 0. K(d+1) workers, K keys.
* Lagrange coded computing (LCC): one degree-K vector polynomial hits the
  K inputs plus one key at fixed anchors; workers evaluate it elsewhere,
  and the composed degree-Kd polynomial is interpolated back. Kd+1
  workers, one key. :func:`lcc_residue_encoder` tabulates the shares by
  differences, with additions only. :func:`difference_ops` alone says
  where they run: at the default anchors 0..K and evaluation points
  K+1..K+N, when their slot bound (:func:`_difference_bound`, from p, K
  and N) is at most (K+1)(p-1)^2, the dense matrix row's. There the handle
  takes them from the m where their packed operations weigh less than the
  matrix's narrow kernel (m = 15 at K = 8, d = 3); everywhere else it
  applies the matrix, as :func:`lcc_encode` always does.
* Freshman scheme: for the special family g(X) = A (X_1^d, ..., X_m^d)^T
  with d equal to the field characteristic, two workers suffice because
  coordinatewise (a+b)^p = a^p + b^p makes g additive; as a function on
  F_p^m, g is A X, since x^p = x (Fermat), and that is how it is evaluated.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from operator import mul

from .errors import (
    DimensionMismatchError,
    FieldMismatchError,
    FieldTooSmallError,
    InvalidParamsError,
)
from .field import FieldConfig, FieldVector
from .linear import DecodeVector, EncodingMatrix, _lagrange_rows, _layout, _pack, _residues
from .poly import Dataset, PolyMap


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


def _difference_bound(p: int, K: int, N: int) -> int:
    """The largest slot sum :func:`lcc_residue_encoder`'s differences can
    form over N steps: level j of the table lies in [0, 2^j p), and each
    step adds level j+1, already stepped, to level j, for j = K-1 down
    to 0. Those are the steps run here on the levels' largest values."""
    tops = [(p << j) - 1 for j in range(K + 1)]
    for _ in range(N):
        for j in reversed(range(K)):
            tops[j] += tops[j + 1]
    return max(tops)


def _difference_top(params: LCCParams) -> int | None:
    """The slot bound of :func:`lcc_residue_encoder`'s differences where they
    run: at :func:`lcc_params`' consecutive layout, anchors 0..K and
    evaluation points K+1..K+N, when :func:`_difference_bound` is at most
    (K+1)(p-1)^2, the dense matrix row's, so that their slots are never
    wider than the matrix's. None at any other points (explicit ones, or the
    short-field layout) or where the bound is wider."""
    p, K, N = params.field.p, params.K, params.N
    if params.alphas != tuple(range(K + 1)) or params.gammas != tuple(range(K + 1, K + N + 1)):
        return None
    top = _difference_bound(p, K, N)
    return top if top <= (K + 1) * (p - 1) ** 2 else None


def difference_ops(params: LCCParams) -> tuple[int, int, int, int] | None:
    """The packed operations of one call of the differences, as (packs,
    products, additions, reductions): K+1 column packs, no product, K(K+1)
    additions for the K(K+1)/2 subtractions and their offsets, NK for the
    shares, and N reductions; None where the differences do not run, and a
    handle then applies its matrix. A handle weighs them against its
    matrix's narrow kernel (:func:`~harmcode.linear._narrow_below`)."""
    if _difference_top(params) is None:
        return None
    K, N = params.K, params.N
    return K + 1, 0, K * (K + 1) + N * K, N


def lcc_residue_encoder(params: LCCParams) -> Callable[..., list[tuple[int, ...]]]:
    """LCC's encoder by differences on residues, as ``encode(cols, m)`` like
    ``EncodingMatrix.apply_residues``: each share's residues from the
    unchecked residue columns X_1..X_K, Z, each m wide, for params where
    :func:`difference_ops` is not None.

    There, at :func:`lcc_params`' consecutive layout, share w is u(K+w) for
    the degree-<=K polynomial with u(0..K) = X_1..X_K, Z, and it is
    tabulated by differences (Knuth, TAOCP vol. 2, 4.6.4) on packed ints,
    with no products: the backward differences of u at K from K(K+1)/2
    subtractions, each adding 2^(j-1) p to every slot of level j so that
    level j lies in [0, 2^j p), then K additions per share, and one
    :func:`~harmcode.linear._residues` call. The slots are sized by
    :func:`_difference_bound`, once per parameter set. The differences give
    the matrix's shares at every m; a handle takes them only from the m
    where :func:`difference_ops` weighs less than the matrix's narrow
    kernel. ValueError at any other params.
    """
    p, K, N = params.field.p, params.K, params.N
    top = _difference_top(params)
    if top is None:
        raise ValueError(f"LCC's differences do not run at {params!r}")

    def encode(cols: Sequence[Sequence[int]], m: int) -> list[tuple[int, ...]]:
        layout = _layout(m, p, top)
        ones = layout[3]
        table = [_pack(layout, col) for col in cols]
        # level j in place: table[i] = Delta^j u(i) for i <= K-j, so that
        # table[K-j] ends as the backward difference nabla^j u(K)
        for j in range(1, K + 1):
            offset = ones * (p << (j - 1))
            for i in range(K - j + 1):
                table[i] = table[i + 1] - table[i] + offset
        diffs = table[::-1]
        shares = []
        for _ in range(N):
            for j in reversed(range(K)):
                diffs[j] += diffs[j + 1]
            shares.append(diffs[0])
        return _residues(shares, layout, p)

    return encode


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


class FreshmanMap:
    """The scheme's own g, x -> A (x_1^d, ..., x_m^d)^T, as its worker
    function. It is used as a :class:`~harmcode.poly.PolyMap` is, and its
    ``eval`` is PolyMap's: a type check, then this map's check of the
    vector's field and width (``_check``), then its evaluator on residues
    (``_evaluate``)."""

    __slots__ = ("field", "m", "n", "matrix")

    def __init__(self, params: FreshmanParams):
        self.field = params.field
        self.m = params.m
        self.n = params.n
        self.matrix = params.matrix

    def _check(self, field: FieldConfig, dim: int) -> None:
        if field is not self.field:
            raise FieldMismatchError(f"input over F_{field.p}, params over F_{self.field.p}")
        if dim != self.m:
            raise DimensionMismatchError(f"input dim {dim} != m={self.m}")

    def _evaluate(self, values: Sequence[int]) -> tuple[int, ...]:
        """A x: d = p and x^p = x for every x in F_p (Fermat), so
        A (x_1^p, ..., x_m^p)^T is A x as a function on F_p^m."""
        p = self.field.p
        return tuple([sum(map(mul, row, values)) % p for row in self.matrix])

    eval = PolyMap.eval
