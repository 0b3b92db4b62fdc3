"""Polynomial maps: evaluation, degrees, the gradient-sum oracle, and the
multilinear blend construction."""

import copy
import gc
import itertools
import pickle
import random
import weakref
from fractions import Fraction

import pytest

from harmcode.errors import (
    DegreeMismatchError,
    DimensionMismatchError,
    FieldMismatchError,
)
from harmcode.field import FieldConfig, sample_uniform_vector
from harmcode.poly import (
    Dataset,
    Monomial,
    PolyMap,
    direct_gradient_sum,
    multilinearize,
    random_dataset,
    random_poly,
)
from reference_field import FieldElement, element, elements, scale, vector

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
    xs = elements(x)
    out = []
    for coord in g.outputs:
        acc = element(g.field, 0)
        for mono in coord:
            term = FieldElement(mono.coeff, g.field)
            for xe, e in zip(xs, mono.exps):
                term = term * xe ** e
            acc = acc + term
        out.append(acc)
    return vector(g.field, out)


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


def _points(rng, field, m, count):
    """The zero vector, the all-(p-1) vector and `count` uniform vectors."""
    p = field.p
    return ([field.zero_vector(m), field.vector([p - 1] * m)]
            + [sample_uniform_vector(rng, field, m) for _ in range(count)])


def test_eval_cancelled_and_constant_outputs():
    # output 0 cancels to nothing in from_terms, output 1 is constant only,
    # output 2 loses a cancelling pair and keeps 3*x_2
    g = PolyMap.from_terms(F7, 2, [
        [(3, (1, 2)), (4, (1, 2)), (2, (0, 0)), (5, (0, 0))],
        [(6, (0, 0))],
        [(1, (2, 0)), (6, (2, 0)), (3, (0, 1))],
    ])
    assert g.outputs[0] == ()
    for x in itertools.product(range(7), repeat=2):
        x = F7.vector(x)
        assert g.eval(x) == dense_eval(g, x)
        assert g.eval(x).values()[:2] == (0, 6)
    const = PolyMap.from_terms(F7, 3, [[(4, (0, 0, 0))], [(1, (0, 0, 0))]])
    assert const.total_degree() == 0
    for x in _points(random.Random(1), F7, 3, 5):
        assert const.eval(x).values() == (4, 1) == dense_eval(const, x).values()


def test_eval_over_f2_exhaustive():
    f2 = FieldConfig(2)
    rng = random.Random(2)
    g = _sparse_map(rng, f2, 4, 3)
    assert all(e <= 1 for coord in g.outputs for mono in coord for e in mono.exps)
    for x in itertools.product(range(2), repeat=4):
        x = f2.vector(x)
        assert g.eval(x) == dense_eval(g, x)


@pytest.mark.parametrize("p", [3, 7, 2**31 - 1])
def test_eval_exponents_p_minus_one(p):
    field = FieldConfig(p)
    e = p - 1
    # x1^(p-1) * x2^(p-1) + 2 x1^(p-1): Fermat makes each factor 0 or 1
    g = PolyMap.from_terms(field, 2, [[(1, (e, e)), (2, (e, 0))], [(1, (0, e))]])
    for x in _points(random.Random(p), field, 2, 6) + [field.vector([0, 3 % p])]:
        got = g.eval(x)
        assert got == dense_eval(g, x)
        a, b = (int(v != 0) for v in x.values())
        assert got.values() == ((a * b + 2 * a) % p, b)


def test_eval_twenty_thousand_terms_in_one_output():
    field = FieldConfig(2**31 - 1)
    rng = random.Random(20000)
    terms = [(rng.randrange(1, field.p), (i // 200, i % 200)) for i in range(20000)]
    g = PolyMap.from_terms(field, 2, [terms, [(1, (1, 0))]])
    assert len(g.outputs[0]) == 20000
    for x in _points(rng, field, 2, 1):
        assert g.eval(x) == dense_eval(g, x)


def test_eval_monomial_over_three_thousand_variables():
    field = FieldConfig(2**31 - 1)
    rng = random.Random(3000)
    exps = tuple(rng.choice([1, 2, 5, field.p - 1]) for _ in range(3000))
    g = PolyMap.from_terms(field, 3000, [[(7, exps), (1, (0,) * 3000)]])
    assert g.total_degree() == sum(exps)
    for x in _points(rng, field, 3000, 2) + [field.vector([1] * 3000)]:
        assert g.eval(x) == dense_eval(g, x)
    assert g.eval(field.vector([1] * 3000)).values() == (8,)


def test_monomial_refuses_non_integer_exponents():
    with pytest.raises(TypeError):
        Monomial(2, (1.5,))
    with pytest.raises(TypeError):
        Monomial(2, (1, 2.0))
    with pytest.raises(TypeError):
        PolyMap.from_terms(F5, 1, [[(1, (1.5,))]])


def test_monomial_int_exponents_behave_as_before():
    mono = Monomial(2, (True, 2, False))
    assert mono.exps == (1, 2, 0)
    assert all(type(e) is int for e in mono.exps)
    assert mono.degree == 3
    flagged = PolyMap(F5, 3, [[mono]])
    plain = PolyMap.from_terms(F5, 3, [[(2, (1, 2, 0))]])
    assert flagged == plain
    assert flagged.total_degree() == 3
    for x in itertools.product(range(5), repeat=3):
        x = F5.vector(x)
        assert flagged.eval(x) == plain.eval(x) == dense_eval(plain, x)


def test_monomial_coefficients_are_exact_int_residues():
    for coeff, want in [(3, 3), (True, 1), (_Sneaky(4), 4)]:
        mono = Monomial(coeff, (1,))
        assert type(mono.coeff) is int and mono.coeff == want
        assert PolyMap(F5, 1, [[mono]]) == PolyMap.from_terms(F5, 1, [[(want, (1,))]])
    with pytest.raises(ValueError):
        Monomial(0, (1,))
    for coeff in (5, 7, -1, -4):  # outside [1, p) for p = 5
        with pytest.raises(ValueError):
            PolyMap(F5, 1, [[Monomial(coeff, (1,))]])
    for coeff in (2.0, 2.5, Fraction(2)):
        with pytest.raises(TypeError):
            Monomial(coeff, (1,))
        with pytest.raises(TypeError):
            PolyMap.from_terms(F5, 1, [[(coeff, (1,))]])


class _Sneaky(int):
    """An int that formats as code which would change a generated evaluator."""

    def __str__(self):
        return "len('injected')"

    __repr__ = __str__

    def __format__(self, spec):
        return str(self)


def test_generated_source_uses_exact_ints_only():
    field = FieldConfig(_Sneaky(7))
    sneaky = PolyMap(field, 2, [[
        Monomial(_Sneaky(3), (_Sneaky(2), 1)),
        Monomial(_Sneaky(5), (0, _Sneaky(3))),
    ]])
    plain = PolyMap.from_terms(F7, 2, [[(3, (2, 1)), (5, (0, 3))]])
    for a, b in itertools.product(range(7), repeat=2):
        assert sneaky.eval(field.vector([a, b])).values() == plain.eval(F7.vector([a, b])).values()
        assert plain.eval(F7.vector([a, b])).values() == ((3 * a * a * b + 5 * b ** 3) % 7,)


def test_polymap_pickles_and_copies():
    g = random_poly(random.Random(8), F7, 3, 2, 3)
    x = F7.vector([1, 5, 6])
    for clone in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
        assert clone == g
        assert clone.eval(x) == g.eval(x)


def test_dropped_map_frees_its_evaluator_without_the_cycle_collector():
    g = random_poly(random.Random(9), F7, 2, 2, 2)
    evaluator = weakref.ref(g._evaluate)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del g
        assert evaluator() is None
    finally:
        if enabled:
            gc.enable()


def test_eval_dimension_checks():
    g = uni(F5, [0, 1])
    with pytest.raises(DimensionMismatchError):
        g.eval(F5.vector([1, 2]))
    with pytest.raises(TypeError, match="expected FieldVector, got list"):
        g.eval([1])


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
        PolyMap(F5, 1, [[Monomial(1, (5,))]])  # exponent > p-1
    with pytest.raises(ValueError):
        Monomial(0, (1,))  # zero term
    with pytest.raises(ValueError):
        PolyMap(F5, 1, [[Monomial(1, (1,)),
                         Monomial(2, (1,))]])  # unmerged duplicates
    with pytest.raises(ValueError, match="nonnegative"):
        Monomial(1, (1, -1))
    with pytest.raises(DimensionMismatchError, match="m must be >= 1"):
        PolyMap(F5, 0, [[Monomial(1, ())]])
    with pytest.raises(DimensionMismatchError, match="at least one output"):
        PolyMap(F5, 1, [])
    with pytest.raises(DimensionMismatchError, match="exponent vector length 1 != m=2"):
        PolyMap(F5, 2, [[Monomial(1, (1,))]])


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


def test_direct_gradient_sum_refuses_foreign_data():
    g = random_poly(random.Random(3), F5, 2, 2, 2)
    with pytest.raises(FieldMismatchError):
        direct_gradient_sum(g, Dataset([F7.vector([1, 2]), F7.vector([3, 4])]))
    with pytest.raises(DimensionMismatchError):
        direct_gradient_sum(g, Dataset([F5.vector([1, 2, 3]), F5.vector([3, 4, 0])]))
    with pytest.raises(DimensionMismatchError):
        direct_gradient_sum(g, Dataset([F5.vector([1])]))


@pytest.mark.parametrize("p", [2, 5, 2**31 - 1])
def test_direct_gradient_sum_is_the_coordinatewise_sum_of_evals(p):
    field = FieldConfig(p)
    rng = random.Random(p)
    for K in range(1, 7):
        for m, n, d in [(1, 1, 1), (2, 3, 2), (4, 2, 3)]:
            if d > m * (p - 1):
                continue
            g = random_poly(rng, field, m, n, d)
            data = random_dataset(rng, field, K, m)
            evals = [g.eval(x).values() for x in data]
            expect = tuple(sum(v[t] for v in evals) % p for t in range(n))
            got = direct_gradient_sum(g, data)
            assert got.field == field
            assert got.values() == expect


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
        terms1 = [(m.coeff, m.exps) for m in g1.outputs[0]]
        terms2 = [(m.coeff, m.exps) for m in g2.outputs[0]]
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
    with pytest.raises(DimensionMismatchError, match="expected 2 blocks, got 1"):
        ml([F5.vector([2])])
    with pytest.raises(DimensionMismatchError, match="block dim 2 != m=1"):
        ml([F5.vector([2]), F5.vector([3, 1])])
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
        a = element(F7, rng.randrange(7))
        b = element(F7, rng.randrange(7))
        for slot in range(3):
            left = list(blocks)
            left[slot] = scale(u, a) + scale(v, b)
            with_u = list(blocks)
            with_u[slot] = u
            with_v = list(blocks)
            with_v[slot] = v
            assert ml(left) == scale(ml(with_u), a) + scale(ml(with_v), b)


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
    with pytest.raises(ValueError, match="degree must be >= 1, got 0"):
        random_poly(random.Random(0), F5, 1, 1, 0)


def test_dataset_validation():
    with pytest.raises(DimensionMismatchError):
        Dataset([])
    with pytest.raises(DimensionMismatchError):
        Dataset([F5.vector([1]), F5.vector([1, 2])])
    with pytest.raises(FieldMismatchError):
        Dataset([F5.vector([1]), F7.vector([1])])
    d = random_dataset(random.Random(1), F5, 3, 2)
    assert d.K == 3 and d.m == 2
    assert d == random_dataset(random.Random(1), F5, 3, 2)
