"""Master/worker simulation, trial reports, and the exhaustive privacy auditor.

Workers are simulated as pure function applications: a trial encodes the
dataset with fresh seeded keys, applies g to every share, decodes, and
compares against the brute-force gradient sum. A trial checks its inputs
once, at its boundary, and then runs on residues: the code's residue core
encodes and decodes, and g's compiled evaluator computes every worker's
output and the oracle, with no vector made per share. The public
``encode``, ``decode`` and ``g.eval`` are check-and-wrap shells over the
same cores (see :mod:`harmcode.linear`). The privacy auditor
enumerates *every* dataset and key value, tabulates exact integer counts
of each worker's share, and declares a worker private only when its share
distribution is literally identical for all dataset values -- mutual
information is derived from the same counts for reporting, but the
pass/fail criterion never touches floating point.

The auditor encodes once per batch of consecutive values of X_1, not once
per (dataset, key) pair: every X_2..X_K tuple and every key tuple is laid
along the coordinates. Coordinate (r*key_states + j)*m + i of one value's
W coordinates holds coordinate i of the r-th X_2..X_K tuple under the j-th
key tuple, and X_1 repeats that value throughout, so slice r*key_states + j
of those coordinates of every share is the share for that dataset value
and key tuple. A batch lays its values' W coordinates one after another,
as many values as make at least ``_AUDIT_CALL_FLOOR`` coordinates, so a
tiny audit pays an encode call's fixed cost once, not p^m times. This
needs encode to act on every coordinate alike and independently, as every
linear code does (share_w = sum_k E[w][k] X_k + sum_t E[w][K+t] Z_t,
coordinatewise).
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter, namedtuple
from collections.abc import Sequence

from . import baselines, harmonic
from .errors import (
    BudgetExceededError,
    ConstantPolynomialError,
    DegreeMismatchError,
    DimensionMismatchError,
    InvalidParamsError,
    SchemaViolationError,
)
from .field import FieldConfig, FieldVector, sample_keys
from .linear import LinearCode, _columns
from .poly import Dataset, PolyMap, _gradient_sum

DEFAULT_AUDIT_BUDGET = 10_000_000
# The fewest coordinates the auditor puts in one encode call when one value
# of X_1 gives fewer: below it a call's fixed cost outweighs its arithmetic.
# A floor, not a cap: a wider call is never split.
_AUDIT_CALL_FLOOR = 2**12


def _to_json(report) -> dict:
    """A report's fields in declaration order, tuples as lists."""
    return {k: list(v) if isinstance(v, tuple) else v for k, v in zip(report._fields, report)}


class TrialReport(namedtuple("TrialReport", (
        "scheme", "p", "K", "d", "m", "n", "seed", "decoded", "oracle", "exact_match",
        "worker_evals", "num_keys"))):
    """Outcome of one encode/compute/decode round against the oracle."""

    __slots__ = ()
    to_json = _to_json


class PrivacyReport(namedtuple("PrivacyReport", (
        "scheme", "p", "K", "d", "m", "mi_bits_per_worker", "conditional_equal_per_worker",
        "dataset_states", "key_states"))):
    """Per-worker result of an exhaustive share-distribution audit."""

    __slots__ = ()
    to_json = _to_json

    @property
    def all_private(self) -> bool:
        return all(self.conditional_equal_per_worker)


# ---------------------------------------------------------------------------
# The scheme table: every per-scheme fact, said once


class Scheme(namedtuple("Scheme", (
        "name", "params_type", "defaults", "build_matrix", "build_vector", "scalars", "lists",
        "from_points", "keys_per_input", "fast_encode", "worker_fn"),
        defaults=((), (), None, False, None, None))):
    """One scheme: how to build its params, what its shares-file header
    stores, and the parts of its LinearCode.

    ``defaults(field, K, d, m)`` builds the default params (m, the data
    width, only sizes freshman's placeholder matrix); ``from_points``, or
    ``params_type`` when None, builds them from explicit points. The header
    stores the attributes in ``scalars`` as residues, in ``lists`` as lists.
    ``fast_encode`` is a pair (build, ops) for a scheme with a wide encoder
    of its own: ``ops(params)`` counts its packed operations per call, or
    is None where it does not run, and where it runs ``build(params)``
    makes it, ``encode(cols, m)``, which must give the matrix's shares. The
    handle weighs that count against the matrix's narrow kernel
    (:func:`~harmcode.linear._narrow_below`); with no count it applies the
    matrix, by the matrix's own ``narrow_below``.
    ``worker_fn(params)``, set only by a scheme that fixes g itself, builds
    that g, used as a PolyMap is: ``eval``, ``_check`` and ``_evaluate``
    (see :class:`~harmcode.baselines.FreshmanMap`).
    """

    __slots__ = ()

    def params(self, field: FieldConfig, K: int, d: int, m: int = 1, **points):
        """Params from the given points, or the defaults when none is given."""
        if points:
            params = (self.from_points or self.params_type)(field, K, d, **points)
        else:
            params = self.defaults(field, K, d, m)
        if params.d != d:  # freshman's d is always the characteristic
            raise SchemaViolationError(
                f"{self.name} over F_{field.p} needs d={params.d}, got d={d}")
        return params


SCHEMES = {s.name: s for s in (
    Scheme("harmonic", harmonic.HarmonicParams,
           lambda f, K, d, m: harmonic.select_params(f, K, d),
           harmonic.encoding_matrix, harmonic.decode_vector,
           scalars=("c",), lists=("betas",), from_points=harmonic.select_params,
           fast_encode=(harmonic.residue_encoder, harmonic.chain_ops)),
    Scheme("lcc", baselines.LCCParams,
           lambda f, K, d, m: baselines.lcc_params(f, K, d),
           baselines.lcc_encoding_matrix, baselines.lcc_decode_vector,
           lists=("alphas", "gammas"),
           fast_encode=(baselines.lcc_residue_encoder, baselines.difference_ops)),
    Scheme("shamir", baselines.ShamirParams,
           lambda f, K, d, m: baselines.shamir_params(f, K, d),
           baselines.shamir_encoding_matrix, baselines.shamir_decode_vector,
           lists=("thetas",), keys_per_input=True),
    Scheme("freshman", baselines.FreshmanParams,
           lambda f, K, d, m: baselines.FreshmanParams(f, K, m, 1, [[1] * m]),
           baselines.freshman_encoding_matrix, baselines.freshman_decode_vector,
           worker_fn=baselines.FreshmanMap),
)}
_BY_TYPE = {s.params_type: s for s in SCHEMES.values()}


def scheme_of(params) -> Scheme:
    """The table entry of a params object."""
    if type(params) not in _BY_TYPE:
        raise TypeError(f"no scheme for {type(params).__name__}")
    return _BY_TYPE[type(params)]


def make_handle(params) -> LinearCode:
    """The linear code of a params object."""
    return LinearCode(scheme_of(params), params)


class ClearStorageScheme(LinearCode):
    """Fault-injection handle: ``inner``'s linear code, except that worker
    ``leak_worker`` stores X_1 in the clear.

    Exists to prove the auditor rejects leaky schemes; never use outside
    tests and the audit tooling. Only the shares differ from ``inner``'s,
    and they differ in the residue core, so ``encode``, the auditor and
    ``run_trial`` all see the leak. The leaking row has no key coefficient,
    which EncodingMatrix refuses, so ``matrix`` is still the inner code's.
    """

    def __init__(self, inner: LinearCode, leak_worker: int = 0):
        if not 0 <= leak_worker < inner.worker_count:
            raise IndexError(f"leak worker {leak_worker} outside [0, {inner.worker_count})")
        super().__init__(inner.scheme, inner.params)
        self.kind = f"leaky-{inner.kind}"
        self.leak_worker = leak_worker

    def encode_residues(self, cols: Sequence[Sequence[int]], m: int) -> list[tuple[int, ...]]:
        shares = super().encode_residues(cols, m)
        shares[self.leak_worker] = tuple(cols[0])
        return shares


# ---------------------------------------------------------------------------
# Trial runner


def run_trial(scheme, g: PolyMap | None, data: Dataset, seed: int) -> TrialReport:
    """Encode with seeded keys, apply g at every worker, decode, compare.

    A scheme with its own worker function (freshman) fixes g (pass None);
    every other scheme takes an explicit non-constant map of total degree
    <= scheme.d. Keys are drawn from random.Random(seed), one vector per
    key in key order.

    The inputs are checked once, here: g's degree and width, the data's
    field against g's (``g._check``, as ``g.eval`` does), then the dataset
    and keys against the code (``_columns``, as ``scheme.encode`` does).
    The rest runs on residues and gives what
    ``scheme.decode([g.eval(s) for s in scheme.encode(data, keys)])`` and
    ``direct_gradient_sum(g, data)`` give.
    """
    if scheme.worker_fn is not None:
        if g is not None:
            raise InvalidParamsError("this scheme fixes its own g; pass g=None")
        g = scheme.worker_fn
    else:
        if g is None:
            raise InvalidParamsError("scheme needs an explicit polynomial map g")
        if g.total_degree() == 0:
            raise ConstantPolynomialError("constant g has no gradient structure")
        if g.total_degree() > scheme.d:
            raise DegreeMismatchError(
                f"g has degree {g.total_degree()}, scheme supports <= {scheme.d}")
        if g.m != data.m:
            raise DimensionMismatchError(f"g expects m={g.m}, data has m={data.m}")
    g._check(data.field, data.m)
    field, m = scheme.field, data.m
    keys = sample_keys(random.Random(seed), field, scheme.num_keys, m)
    cols = _columns(field, scheme.K, scheme.num_keys, data, keys)
    evaluate = g._evaluate
    outputs = [evaluate(share) for share in scheme.encode_residues(cols, m)]
    decoded = scheme.vector.apply_residues(outputs, g.n)
    oracle = _gradient_sum(g, cols[:data.K])
    return TrialReport(
        scheme=scheme.kind,
        p=field.p,
        K=data.K,
        d=scheme.d,
        m=m,
        n=g.n,
        seed=seed,
        decoded=decoded,
        oracle=oracle,
        exact_match=decoded == oracle,
        worker_evals=scheme.worker_count,
        num_keys=scheme.num_keys,
    )


# ---------------------------------------------------------------------------
# Exhaustive privacy auditor


def privacy_audit_exhaustive(scheme, m: int = 1,
                             budget: int = DEFAULT_AUDIT_BUDGET) -> PrivacyReport:
    """Enumerate every dataset and key value; judge each worker's share law.

    A worker passes when its share distribution (exact integer counts over
    key draws) is identical for every dataset value -- equivalent to zero
    mutual information under *any* input prior. Each law is kept as the
    worker's shares under every key tuple, in key order, and two laws are
    equal when their sorted shares are, multiplicity included. Counts are
    built only for a worker that fails; the reported MI assumes a uniform
    prior and is computed from them.

    One value of X_1 takes W = p^((K-1)m) * key_states * m coordinates.
    Coordinate (r*key_states + j)*m + i of them, in X_2..X_K and in each
    key, is coordinate i of the r-th X_2..X_K tuple and of the j-th key
    tuple (``itertools.product`` order), and in X_1 it is that value's
    coordinate i: the value repeated W/m times. ``scheme.encode`` is called
    once per batch of b = max(1, _AUDIT_CALL_FLOOR // W) consecutive values
    of X_1 (in product order; the last batch may be short), so
    ceil(p^m / b) times, on n * W coordinates for a batch of n values: X_1
    holds the batch's values one after another, and X_2..X_K and the keys
    are one value's columns tiled n times. The floor only gathers calls
    narrower than it; where W >= _AUDIT_CALL_FLOOR every call is one value
    of X_1, W wide, so a large audit holds no more at once than one value
    needs. The scheme must act on every coordinate alike and
    independently, so that each consecutive slice of key_states * m
    coordinates of a share is one dataset value's shares under every key
    tuple, in dataset order; every linear code does. Each worker keeps one
    share tuple per call. Its laws are cut from them in C -- the tuples
    chained, the coordinates zipped into m-tuples when m > 1, then
    key_states shares zipped into each dataset value's slice -- and each
    sorted slice is compared with the first. m is checked, then the
    budget, before anything is built.
    """
    if m < 1:
        raise DimensionMismatchError(f"m must be >= 1, got {m}")
    field = scheme.field
    p = field.p
    K = scheme.K
    nkeys = scheme.num_keys
    dataset_states = p ** (K * m)
    key_states = p ** (nkeys * m)
    total = dataset_states * key_states
    if total > budget:
        raise BudgetExceededError(
            f"audit needs {total} states (> budget {budget}); "
            f"raise the budget to at least {total} to run it")
    N = scheme.worker_count
    of = FieldVector._of
    # The X_2..X_K columns and the keys of one value of X_1: the r-th
    # X_2..X_K tuple under every key tuple j, for r in turn.
    rest_tuples = list(itertools.product(range(p), repeat=(K - 1) * m))
    key_tuples = list(itertools.product(range(p), repeat=nkeys * m))
    rest = [tuple(itertools.chain.from_iterable(
                x[k * m:(k + 1) * m] * key_states for x in rest_tuples))
            for k in range(K - 1)]
    keys = [tuple(itertools.chain.from_iterable(
                z[t * m:(t + 1) * m] for z in key_tuples)) * len(rest_tuples)
            for t in range(nkeys)]
    repeats = len(rest_tuples) * key_states  # W // m
    per_call = max(1, _AUDIT_CALL_FLOOR // (repeats * m))
    values = list(itertools.product(range(p), repeat=m))
    # laws[w][c]: worker w's share coordinates for the c-th call's values of
    # X_1, key_states * m of them per X_2..X_K tuple
    laws: list[list[tuple[int, ...]]] = [[] for _ in range(N)]
    for start in range(0, len(values), per_call):
        batch = values[start:start + per_call]
        # the batch's values one after another, each with one value's columns
        x_1 = of(field, tuple(itertools.chain.from_iterable(x * repeats for x in batch)))
        data = Dataset([x_1] + [of(field, col * len(batch)) for col in rest])
        for w, share in enumerate(scheme.encode(data, [of(field, z * len(batch)) for z in keys])):
            laws[w].append(share.values())

    def slices(calls):
        # each dataset value's shares under every key tuple, in dataset
        # order, cut in C: the coordinates in m-tuples (at m = 1 the residues
        # themselves are the shares), then key_states of them per slice
        shares = itertools.chain.from_iterable(calls)
        if m > 1:
            shares = zip(*[shares] * m)
        return zip(*[shares] * key_states)

    cond_equal = []
    mi_bits = []
    for calls in laws:
        cut = slices(calls)
        reference = sorted(next(cut))
        equal = all(map(reference.__eq__, map(sorted, cut)))
        cond_equal.append(equal)
        if equal:
            mi_bits.append(0.0)
        else:
            counts = list(map(Counter, slices(calls)))
            marginal: Counter = Counter()
            for c in counts:
                marginal.update(c)
            mi = 0.0
            for c in counts:
                for share, j in c.items():
                    # P(x,s)=j/total, P(x)=key_states/total, P(s)=marginal/total
                    mi += (j / total) * math.log2(j * total / (key_states * marginal[share]))
            mi_bits.append(mi)
    return PrivacyReport(
        scheme=scheme.kind,
        p=p,
        K=K,
        d=scheme.d,
        m=m,
        mi_bits_per_worker=tuple(mi_bits),
        conditional_equal_per_worker=tuple(cond_equal),
        dataset_states=dataset_states,
        key_states=key_states,
    )


# ---------------------------------------------------------------------------
# Worker-count comparison


class WorkerCountRow(namedtuple("WorkerCountRow", ("scheme", "workers", "special_case_only"),
                                defaults=(False,))):
    """WorkerCountRow(scheme, workers, special_case_only)"""

    __slots__ = ()


def worker_count_table(K: int, d: int) -> tuple[WorkerCountRow, ...]:
    """Workers each scheme needs for K inputs of degree d.

    The freshman row is flagged: it only applies when d equals the field
    characteristic and g has the coordinatewise-powers form.
    """
    if K < 1 or d < 1:
        raise InvalidParamsError([f"need K >= 1 and d >= 1, got K={K}, d={d}"])
    return (
        WorkerCountRow("harmonic", K * (d - 1) + 2),
        WorkerCountRow("lcc", K * d + 1),
        WorkerCountRow("shamir", K * (d + 1)),
        WorkerCountRow("freshman", 2, special_case_only=True),
    )
