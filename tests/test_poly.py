"""Polynomial maps: evaluation, degrees, the gradient-sum oracle, and the
multilinear blend construction."""

import itertools
import random

import pytest

from harmcode.errors import (
    DegreeMismatchError,
    DimensionMismatchError,
)
from harmcode.field import FieldConfig, FieldVector, sample_uniform_vector
from harmcode.poly import (
    Dataset,
    Monomial,
    PolyMap,
    direct_gradient_sum,
    multilinearize,
    random_dataset,
    random_poly,
)

F5 = FieldConfig(5)
F7 = FieldConfig(7)


def uni(field, coeffs):
    return PolyMap.univariate(field, coeffs)


def test_eval_examples():
    g = uni(F5, [0, 0, 1])  # x^2
    assert g.eval(F5.vector([3])).values() == (4,)
    assert g.eval(F5.vector([0])).values() == (0,)
    # 2*x1*x2 + x2 at (2,3): 2*6+3 = 15 = 0 mod 5
    h = PolyMap.from_terms(F5, 2, [[(2, (1, 1)), (1, (0, 1))]])
    assert h.eval(F5.vector([2, 3])).values() == (0,)


def dense_eval(g, x):
    """Reference evaluator: FieldElement arithmetic over every exponent of
    every monomial, zero exponents included (x**0 == 1, also for x = 0)."""
    out = []
    for coord in g.outputs:
        acc = g.field.zero()
        for mono in coord:
            term = mono.coeff
            for xe, e in zip(x.elements, mono.exps):
                term = term * xe ** e
            acc = acc + term
        out.append(acc)
    return FieldVector(out)


def _sparse_map(rng, field, m, n):
    """A map whose monomials touch a few random variables each, with
    exponents up to p-1 and a constant term in every output."""
    p = field.p
    raw = []
    for _ in range(n):
        terms = [(rng.randrange(1, p), (0,) * m)]
        for _ in range(rng.randint(1, 4)):
            exps = [0] * m
            for k in rng.sample(range(m), rng.randint(1, min(m, 3))):
                exps[k] = rng.choice([1, p - 1, rng.randint(1, p - 1)])
            terms.append((rng.randrange(1, p), tuple(exps)))
        raw.append(terms)
    return PolyMap.from_terms(field, m, raw)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 2**31 - 1])
def test_eval_matches_dense_reference(p):
    field = FieldConfig(p)
    rng = random.Random(p)
    for m in [1, 2, 5, 17, 64]:
        maps = [_sparse_map(rng, field, m, 3)]
        maps += [random_poly(rng, field, m, 2, d) for d in range(1, 5) if d <= m * (p - 1)]
        for g in maps:
            for _ in range(4):
                x = field.vector([rng.choice([0, 1, p - 1, rng.randrange(p)])
                                  for _ in range(m)])
                assert g.eval(x) == dense_eval(g, x)
            assert g.eval(field.zero_vector(m)) == dense_eval(g, field.zero_vector(m))


def test_eval_dimension_checks():
    g = uni(F5, [0, 1])
    with pytest.raises(DimensionMismatchError):
        g.eval(F5.vector([1, 2]))


def test_total_degree_examples():
    assert uni(F5, [0, 0, 1]).total_degree() == 2
    # x1*x2^2 + x1
    g = PolyMap.from_terms(F5, 2, [[(1, (1, 2)), (1, (1, 0))]])
    assert g.total_degree() == 3
    assert PolyMap.from_terms(F5, 1, [[(3, (0,))]]).total_degree() == 0


def test_total_degree_matrix_quadratic_form():
    # g(X) = X^T X w for 2x2 X (flattened row-major) and fixed w: output r is
    # sum_{s,u} X[u][r] X[u][s] w[s], purely quadratic terms.
    w = (2, 3)
    raw = []
    for r in range(2):
        terms = []
        for s in range(2):
            for u in range(2):
                exps = [0, 0, 0, 0]
                exps[2 * u + r] += 1
                exps[2 * u + s] += 1
                terms.append((w[s], tuple(exps)))
        raw.append(terms)
    g = PolyMap.from_terms(F5, 4, raw)
    assert g.total_degree() == 2


def test_canonical_form_enforced():
    with pytest.raises(ValueError):
        PolyMap(F5, 1, [[Monomial(F5.element(1), (5,))]])  # exponent > p-1
    with pytest.raises(ValueError):
        Monomial(F5.element(0), (1,))  # zero term
    with pytest.raises(ValueError):
        PolyMap(F5, 1, [[Monomial(F5.element(1), (1,)),
                         Monomial(F5.element(2), (1,))]])  # unmerged duplicates


def test_from_terms_merges_and_drops():
    g = PolyMap.from_terms(F5, 1, [[(2, (1,)), (3, (1,)), (4, (0,)), (1, (0,))]])
    # 2x+3x = 5x = 0 drops; 4+1 = 5 = 0 drops; leaves the zero polynomial
    assert g.outputs == ((),)
    assert g.total_degree() == 0
    assert g.eval(F5.vector([3])).values() == (0,)


def test_direct_gradient_sum_examples():
    g = uni(F5, [0, 0, 1])
    data = Dataset([F5.vector([1]), F5.vector([2])])
    assert direct_gradient_sum(g, data).values() == (0,)  # 1 + 4 = 5 = 0
    single = Dataset([F5.vector([3])])
    assert direct_gradient_sum(g, single) == g.eval(F5.vector([3]))
    # x^3 over F_3 is the Frobenius map, canonical degree 1; the sum over
    # data (1, 2) is 1 + 2 = 0 mod 3 (the degree-p form itself lives in the
    # freshman scheme, where exponents above p-1 are legal).
    f3 = FieldConfig(3)
    frob = uni(f3, [0, 1])
    d2 = Dataset([f3.vector([1]), f3.vector([2])])
    assert direct_gradient_sum(frob, d2).values() == (0,)
    assert (pow(1, 3, 3) + pow(2, 3, 3)) % 3 == 0


def test_direct_gradient_sum_permutation_invariant():
    rng = random.Random(11)
    g = random_poly(rng, F7, 2, 2, 3)
    items = [sample_uniform_vector(rng, F7, 2) for _ in range(4)]
    base = direct_gradient_sum(g, Dataset(items))
    for perm in itertools.permutations(range(4)):
        assert direct_gradient_sum(g, Dataset([items[i] for i in perm])) == base


def test_eval_linear_in_coefficients():
    rng = random.Random(5)
    for _ in range(20):
        g1 = random_poly(rng, F7, 2, 1, 3)
        g2 = random_poly(rng, F7, 2, 1, 2)
        terms1 = [(m.coeff.value, m.exps) for m in g1.outputs[0]]
        terms2 = [(m.coeff.value, m.exps) for m in g2.outputs[0]]
        g_sum = PolyMap.from_terms(F7, 2, [terms1 + terms2])
        x = sample_uniform_vector(rng, F7, 2)
        assert g_sum.eval(x) == g1.eval(x) + g2.eval(x)


# ---------------------------------------------------------------------------
# multilinear blend


def test_multilinearize_square_example():
    # g(x) = x^2, d=2: blend is g(0) - g(x1) - g(x2) + g(x1+x2) = 2 x1 x2.
    g = uni(F5, [0, 0, 1])
    ml = multilinearize(g, 2)
    got = ml([F5.vector([2]), F5.vector([3])])
    assert got.values() == (2,)  # 2*2*3 = 12 = 2 mod 5
    for x1 in range(5):
        for x2 in range(5):
            expect = 2 * x1 * x2 % 5
            assert ml([F5.vector([x1]), F5.vector([x2])]).values() == (expect,)


def test_multilinearize_zero_block_annihilates():
    rng = random.Random(17)
    g = random_poly(rng, F7, 2, 2, 3)
    ml = multilinearize(g, 3)
    blocks = [sample_uniform_vector(rng, F7, 2) for _ in range(3)]
    for slot in range(3):
        probe = list(blocks)
        probe[slot] = F7.zero_vector(2)
        assert ml(probe).values() == (0, 0)


def test_multilinearize_cube_exhaustive_against_subset_sum():
    # g(x) = x^3 over F_7, d=3. Independent oracle: the subset-sum definition
    # recomputed from scratch here; algebra pins the blend to -6 x1 x2 x3
    # (the only surviving monomial), i.e. 1*x1*x2*x3 mod 7.
    g = uni(F7, [0, 0, 0, 1])
    ml = multilinearize(g, 3)
    for x1, x2, x3 in itertools.product(range(7), repeat=3):
        oracle = 0
        for mask in range(8):
            s = 0
            bits = 0
            for j, x in enumerate((x1, x2, x3)):
                if mask >> j & 1:
                    s += x
                    bits += 1
            val = pow(s % 7, 3, 7)
            oracle += val if bits % 2 == 0 else -val
        oracle %= 7
        got = ml([F7.vector([x1]), F7.vector([x2]), F7.vector([x3])]).values()[0]
        assert got == oracle
        assert got == (-6 * x1 * x2 * x3) % 7


def test_multilinearize_block_linearity_every_slot():
    rng = random.Random(23)
    g = random_poly(rng, F7, 2, 1, 3)
    ml = multilinearize(g, 3)
    for _ in range(25):
        blocks = [sample_uniform_vector(rng, F7, 2) for _ in range(3)]
        u = sample_uniform_vector(rng, F7, 2)
        v = sample_uniform_vector(rng, F7, 2)
        a = F7.element(rng.randrange(7))
        b = F7.element(rng.randrange(7))
        for slot in range(3):
            left = list(blocks)
            left[slot] = u.scale(a) + v.scale(b)
            with_u = list(blocks)
            with_u[slot] = u
            with_v = list(blocks)
            with_v[slot] = v
            assert ml(left) == ml(with_u).scale(a) + ml(with_v).scale(b)


def test_multilinearize_nonzero_when_char_exceeds_degree():
    # Exhaustive on a small instance; random search on a larger one.
    g = uni(F5, [0, 0, 1])
    ml = multilinearize(g, 2)
    assert any(ml([F5.vector([a]), F5.vector([b])]).values() != (0,)
               for a in range(5) for b in range(5))
    rng = random.Random(31)
    g2 = random_poly(rng, FieldConfig(11), 2, 1, 3)
    ml2 = multilinearize(g2, 3)
    assert any(
        ml2([sample_uniform_vector(rng, FieldConfig(11), 2) for _ in range(3)]).values()
        != (0,)
        for _ in range(500)
    )


def test_multilinearize_expand_matches_evaluator():
    rng = random.Random(41)
    g = random_poly(rng, F7, 2, 2, 3)
    ml = multilinearize(g, 3)
    expanded = ml.expand()
    assert expanded.m == 6
    assert expanded.n == 2
    for _ in range(30):
        blocks = [sample_uniform_vector(rng, F7, 2) for _ in range(3)]
        flat = F7.vector([x for b in blocks for x in b.values()])
        assert expanded.eval(flat) == ml(blocks)


def test_multilinearize_rejects_bad_degree():
    g = uni(F5, [0, 0, 1])
    with pytest.raises(ValueError):
        multilinearize(g, 0)
    with pytest.raises(DegreeMismatchError):
        multilinearize(g, 3)


def test_multilinearize_expand_cap():
    rng = random.Random(43)
    g = random_poly(rng, F7, 5, 1, 3)  # 15 flattened variables > 12
    with pytest.raises(ValueError):
        multilinearize(g, 3).expand()


# ---------------------------------------------------------------------------
# random generation


def test_random_poly_shape_and_degree():
    rng = random.Random(7)
    g = random_poly(rng, F5, 1, 1, 2)
    assert g.m == 1 and g.n == 1
    assert g.total_degree() == 2
    assert any(m.degree == 2 for m in g.outputs[0])


def test_random_poly_exact_degree_always():
    rng = random.Random(9)
    for _ in range(100):
        m = rng.randint(1, 3)
        n = rng.randint(1, 2)
        d = rng.randint(1, 4)
        g = random_poly(rng, F7, m, n, d)
        assert g.total_degree() == d


def test_random_poly_deterministic():
    a = random_poly(random.Random(77), F7, 2, 2, 3)
    b = random_poly(random.Random(77), F7, 2, 2, 3)
    assert a == b


def test_random_poly_impossible_degree():
    with pytest.raises(ValueError):
        random_poly(random.Random(0), FieldConfig(3), 1, 1, 3)  # d > m(p-1) = 2


def test_dataset_validation():
    with pytest.raises(DimensionMismatchError):
        Dataset([])
    with pytest.raises(DimensionMismatchError):
        Dataset([F5.vector([1]), F5.vector([1, 2])])
    d = random_dataset(random.Random(1), F5, 3, 2)
    assert d.K == 3 and d.m == 2
    assert d == random_dataset(random.Random(1), F5, 3, 2)
