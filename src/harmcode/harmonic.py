"""Harmonic-progression coded sharing for gradient-type sums.

Given K inputs X_1..X_K in F_p^m and one uniform key Z, the encoder
emits N = K(d-1)+2 shares such that applying any polynomial map g of
total degree <= d to every share lets the master recover
g(X_1)+...+g(X_K) with one fixed linear combination, while each single
share on its own is uniform whatever the data is (every share carries Z
with a nonzero coefficient).

The masking chain runs on reciprocals of the progression c, c-1, ..., c-K:

    P_0 = Z,    P_j = ((c-j+1) * P_{j-1} - X_j) / (c-j)

so that P_j = (c/(c-j)) Z - (1/(c-j)) (X_1+...+X_j). Worker 1 stores P_0
and worker N stores P_K. Group j (d-1 workers) stores blends of X_j with
the previous chain value,

    share(i,j) = (1 - q_ij) X_j + q_ij P_{j-1},   q_ij = beta_i (c-j+1) / c.

Restricted to the line t -> (1-t) X_j + t P_{j-1}, g becomes a univariate
polynomial of degree <= d whose value is known at the d-1 points q_ij
(group outputs), at 1 (g(P_{j-1})), and at (c-j+1)/(c-j) (g(P_j), because
the chain recursion places P_j on the same line). Interpolating the value
at 0 yields

    Q_j = sum_i w_ij g(share(i,j)) = g(X_j) - A_j g(P_{j-1}) + B_j g(P_j)

where w_ij, A_j and -B_j are the Lagrange weights at 0 over those d+1
points, made by the routine that makes Shamir's and LCC's weights,
:func:`harmcode.linear._lagrange_rows`. The progression forces
A_{j+1} = B_j, so summing the Q_j telescopes: everything cancels except
sum_j g(X_j), A_1 g(P_0), and B_K g(P_K), and the head and tail workers
supply those last two directly.

The recursive encoder (:func:`residue_encoder`) turns a_j, b_j and q_ij
into int residues once per parameter set -- once per handle, for a
:class:`~harmcode.linear.LinearCode` -- and works on residue columns, like
every code's core; the handle's ``encode`` is its check-and-wrap shell.
Each call packs Z and every X_j into one int with a slot per coordinate,
and runs every chain step and every blend as one multiply-add
a * P + b * X on those ints. A chain step ends with a slot-wise Barrett
step that leaves P_j in [0, 2p), so each sum stays below 4 (p-1)^2; one
call of :func:`~harmcode.linear._residues` then reduces the blends and
P_K to [0, p) together.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Sequence

from .errors import (
    FieldTooSmallError,
    InvalidParamsError,
    ParameterCorruptionError,
    ZeroInversionError,
)
from .field import FieldConfig, FieldVector
from .linear import (DecodeVector, EncodingMatrix, _columns, _lagrange_rows, _layout, _pack,
                     _residues, _vectors)
from .poly import Dataset


class EncodeStats:
    """Operation counter for the recursive encoder."""

    def __init__(self):
        self.two_term_combos = 0


class HarmonicParams:
    """Scheme parameters: field, K, d, the chain anchor c, and blend points betas.

    c and the betas are ints, stored as residues in [0, p) made by
    :meth:`~harmcode.field.FieldConfig.residues`.
    Construction only checks shape (d-1 betas); the arithmetic constraints
    live in :func:`validate_params` so that deliberately broken parameter
    sets can still be built and probed.
    """

    __slots__ = ("field", "K", "d", "c", "betas")

    def __init__(self, field: FieldConfig, K: int, d: int,
                 c: int, betas: Sequence[int]):
        if K < 1:
            raise InvalidParamsError([f"K must be >= 1, got {K}"])
        if d < 1:
            raise InvalidParamsError([f"d must be >= 1, got {d}"])
        c, *betas = field.residues([c, *betas])
        if len(betas) != d - 1:
            raise InvalidParamsError(
                [f"need exactly d-1={d - 1} betas, got {len(betas)}"])
        self.field = field
        self.K = K
        self.d = d
        self.c = c
        self.betas = tuple(betas)

    @property
    def N(self) -> int:
        return self.K * (self.d - 1) + 2

    def __eq__(self, other):
        return (
            isinstance(other, HarmonicParams)
            and (self.field, self.K, self.d, self.c, self.betas)
            == (other.field, other.K, other.d, other.c, other.betas)
        )

    def __repr__(self):
        return (f"HarmonicParams(F_{self.field.p}, K={self.K}, d={self.d}, "
                f"c={self.c}, betas={list(self.betas)})")


def _forbidden_betas(field: FieldConfig, K: int, c: int) -> set[int]:
    """{0} plus every defined ratio c/(c-i) for i = 0..K."""
    p, bad = field.p, {0}
    for i in range(K + 1):
        den = (c - i) % p
        if den != 0:
            bad.add(c * pow(den, -1, p) % p)
    return bad


def validate_params(params: HarmonicParams) -> list[str]:
    """All constraint violations (empty list means the parameters are valid).

    Checks: c > K (for a residue c, exactly when every chain denominator c-j
    is nonzero), and the betas are pairwise distinct, nonzero, and avoid
    every ratio c/(c-i) for i = 0..K (so all interpolation points stay distinct).
    """
    p, K, c, betas = params.field.p, params.K, params.c, params.betas
    violations = []
    if c <= K:
        violations.append(f"c={c} collides with a residue of 0..{K} mod {p}")
    if len(set(betas)) != len(betas):
        violations.append(f"betas {list(betas)} are not pairwise distinct")
    bad = _forbidden_betas(params.field, K, c)
    for b in betas:
        if b in bad:
            violations.append(f"beta={b} lies in the forbidden set {sorted(bad)}")
    return violations


def select_params(field: FieldConfig, K: int, d: int,
                  c=None, betas=None) -> HarmonicParams:
    """Deterministic parameter choice, with optional explicit overrides.

    Default scan: c is K+1, then betas are taken in ascending order from 2
    upward, skipping the forbidden set. Any prime p >= K + d + 2 is
    guaranteed to have room. Overrides (ints, reduced mod p) are validated
    and rejected with the full violation list.
    """
    if K < 1 or d < 1:
        raise InvalidParamsError([f"need K >= 1 and d >= 1, got K={K}, d={d}"])
    p = field.p
    if c is not None:
        [c] = field.residues([c])
    elif K + 1 < p:
        c = K + 1
    else:
        raise FieldTooSmallError(
            f"F_{p} has no anchor c outside 0..{K}; any prime >= {K + d + 2} works")
    if betas is None:
        bad = _forbidden_betas(field, K, c)
        betas = []
        for cand in range(2, p):
            if len(betas) == d - 1:
                break
            if cand not in bad:
                betas.append(cand)
        if len(betas) < d - 1:
            raise FieldTooSmallError(
                f"F_{p} has only {len(betas)} usable betas, need {d - 1}; "
                f"any prime >= {K + d + 2} works")
    params = HarmonicParams(field, K, d, c, betas)
    violations = validate_params(params)
    if violations:
        raise InvalidParamsError(violations)
    return params


def _scalars(params: HarmonicParams) -> tuple[int, list[tuple[int, int, tuple]]]:
    """The encoders' scalars as residues: 1/c and, per chain step j = 1..K,
    (a_j, b_j, ((1 - q_ij, q_ij), ...)) with a_j = (c-j+1)/(c-j), b_j = -1/(c-j)
    (P_j = a_j P_{j-1} + b_j X_j) and group j's blend points q_ij = beta_i (c-j+1)/c.
    ZeroInversionError when c <= K, which validate_params rules out."""
    p, c = params.field.p, params.c
    if c <= params.K:
        raise ZeroInversionError(f"c={c} puts a zero among c, c-1, ..., c-{params.K} mod {p}")
    c_inv = pow(c, -1, p)
    steps = []
    for j in range(1, params.K + 1):
        inv_cj = pow(c - j, -1, p)
        qs = [b * (c - j + 1) * c_inv % p for b in params.betas]
        pairs = tuple([((1 - q) % p, q) for q in qs])
        steps.append(((c - j + 1) * inv_cj % p, -inv_cj % p, pairs))
    return c_inv, steps


# a * P + b * X with P in [0, 2p) and a, b general residues stays below
# 4 (p-1)^2, four products of two residues: the chain's slots are sized for
# sums up to _CHAIN_TERMS * (p-1)^2
_CHAIN_TERMS = 4


def _chain(p: int, steps, cols: Sequence[Sequence[int]],
           m: int) -> tuple[tuple, list[int], list[int]]:
    """P_0 = Z to P_K and X_1..X_K packed on m slots, and their layout, from
    the residue columns X_1..X_K, Z. Each step P_j = a_j P_{j-1} + b_j X_j is
    one multiply-add and one Barrett step, so every slot of P_1..P_K lies in
    [0, 2p), not yet [0, p)."""
    layout = _layout(m, p, _CHAIN_TERMS * (p - 1) ** 2)
    shift, mu, mask = layout[:3]
    xs = [_pack(layout, x) for x in cols[:-1]]
    prev = _pack(layout, cols[-1])
    chain = [prev]
    for (a, b, _), x in zip(steps, xs):
        v = a * prev + b * x
        prev = v - (v * mu >> shift & mask) * p
        chain.append(prev)
    return layout, chain, xs


def residue_encoder(params: HarmonicParams) -> Callable[..., list[tuple[int, ...]]]:
    """The recursive encoder of one parameter set on residues, as
    ``encode(cols, m)`` like ``EncodingMatrix.apply_residues``: each share's
    residues from the unchecked residue columns X_1..X_K, Z, each m wide.
    Share 0 is Z = P_0 itself.

    Its scalars come from :func:`_scalars`, once; each call then makes K*d
    two-term combinations (K chain steps, K(d-1) blends), each one
    multiply-add on packed ints. ZeroInversionError here when c <= K.
    """
    p, steps = params.field.p, _scalars(params)[1]

    def encode(cols: Sequence[Sequence[int]], m: int) -> list[tuple[int, ...]]:
        layout, chain, xs = _chain(p, steps, cols, m)
        sums = [r * x + q * prev
                for (_, _, pairs), x, prev in zip(steps, xs, chain) for r, q in pairs]
        sums.append(chain[-1])
        return [tuple(cols[-1])] + _residues(sums, layout, p)

    return encode


def intermediate_vars(params: HarmonicParams, data: Dataset, z: FieldVector) -> list[FieldVector]:
    """The masking chain P_0..P_K as residues in [0, p), one two-term
    combination per step."""
    field = params.field
    cols = _columns(field, params.K, 1, data, (z,))
    layout, chain, _ = _chain(field.p, _scalars(params)[1], cols, data.m)
    return _vectors(field, _residues(chain, layout, field.p))


def encoding_matrix(params: HarmonicParams) -> EncodingMatrix:
    """Closed-form share coefficients in worker order.

    head:   (0, ..., 0 | 1)
    (i,j):  column j is 1 - q_ij, columns k < j are -beta_i/c, Z is beta_i
            (substituting the chain formula for P_{j-1} into the blend)
    tail:   columns 1..K are -1/(c-K), Z is c/(c-K)
    """
    field, K = params.field, params.K
    c_inv, steps = _scalars(params)
    rows = [[0] * K + [1]]
    for j, (_, _, pairs) in enumerate(steps, start=1):
        for beta, (r, _) in zip(params.betas, pairs):
            rows.append([-beta * c_inv] * (j - 1) + [r] + [0] * (K - j) + [beta])
    b_K = steps[-1][1]
    rows.append([b_K] * K + [-params.c * b_K])
    return EncodingMatrix(field, K, rows)


def encode(params: HarmonicParams, data: Dataset, z: FieldVector,
           stats: EncodeStats | None = None) -> list[FieldVector]:
    """Shares in worker order via :func:`residue_encoder`, the data and the
    one key z = P_0 checked by :func:`~harmcode.linear._columns` and the
    shares wrapped as vectors, as a handle's ``encode`` does.

    The result is coordinate-identical to ``encoding_matrix(params).apply(data, z)``.
    ``stats`` gains K*d, K chain steps plus K(d-1) blends; it is kept only
    for perfbench, until ROADMAP item 2b deletes this function.
    """
    field, core = params.field, residue_encoder(params)
    shares = _vectors(field, core(_columns(field, params.K, 1, data, (z,)), data.m))
    if stats is not None:
        stats.two_term_combos += params.K * params.d
    return shares


class GroupCoeffs(namedtuple("GroupCoeffs", ("weights", "a", "b"))):
    """Combining a group's outputs with `weights` yields
    g(X_j) - a * g(P_{j-1}) + b * g(P_j); every value a residue."""

    __slots__ = ()


def _group_row(params: HarmonicParams, j: int) -> list[int]:
    """Group j's Lagrange weights at 0 over its d+1 points on the line
    t -> (1-t) X_j + t P_{j-1}: q_1j..q_(d-1)j, 1 and r = (c-j+1)/(c-j).

    The weights at 0 do not change when every point is multiplied by the
    same nonzero factor, so the points are taken times c(c-j) --
    beta_i (c-j+1)(c-j), c(c-j) and c(c-j+1) -- and placing them needs no
    inversion. ParameterCorruptionError when that factor is zero (c is 0
    or j, so a c among 0..K hits some group) or two points coincide (a beta
    of c/(c-j+1) or c/(c-j), or two equal betas), which validate_params
    rules out.
    """
    p, c = params.field.p, params.c
    if c * (c - j) % p == 0:
        raise ParameterCorruptionError(
            f"c={c} puts a zero among c and c-{j} mod {p}; parameters fail validate_params")
    s = (c - j + 1) * (c - j)
    points = [beta * s % p for beta in params.betas]
    points += (c * (c - j) % p, c * (c - j + 1) % p)
    [row] = _lagrange_rows(points, (0,), p)
    return row


def group_coeffs(params: HarmonicParams, j: int) -> GroupCoeffs:
    """Interpolation weights for group j and the chain coefficients A_j, B_j:
    group j's Lagrange row (:func:`_group_row`) is (weights, A_j, -B_j), as
    g(X_j) = sum_i w_ij g(share(i,j)) + A_j g(P_{j-1}) - B_j g(P_j). For
    d = 1 the group is empty."""
    if not 1 <= j <= params.K:
        raise IndexError(f"group index j={j} outside [1, {params.K}]")
    row = _group_row(params, j)
    return GroupCoeffs(tuple(row[:-2]), row[-2], -row[-1] % params.field.p)


def decode_vector(params: HarmonicParams) -> DecodeVector:
    """Master weights: A_1 for the head, the group weights, -B_K for the tail.

    Summing the per-group combinations telescopes (A_{j+1} = B_j) down to
    sum_j g(X_j) - A_1 g(P_0) + B_K g(P_K); adding A_1 times the head
    output and -B_K times the tail output leaves exactly the gradient sum.
    For d = 1 this degenerates to (c, -(c-K)).
    """
    rows = [_group_row(params, j) for j in range(1, params.K + 1)]
    weights = [rows[0][-2]]
    for row in rows:
        weights += row[:-2]
    weights.append(rows[-1][-1])
    return DecodeVector(params.field, weights)
