"""Prime-field arithmetic: exactness, axioms, sampling discipline."""

import copy
import math
import operator
import pickle
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmcode.baselines import FreshmanParams, LCCParams, ShamirParams
from harmcode.errors import (
    DimensionMismatchError,
    FieldMismatchError,
    NotPrimeError,
    ZeroInversionError,
)
from harmcode.field import (
    FieldConfig,
    FieldVector,
    _is_prime,
    sample_keys,
    sample_uniform_vector,
)
from harmcode.harmonic import HarmonicParams, select_params
from harmcode.linear import DecodeVector, EncodingMatrix
from reference_field import FieldElement, element

PRIMES = [2, 3, 5, 7, 11, 13, 101, 65537, 2147483647]


def is_prime_trial_division(n):
    """Reference primality test: trial division by every odd f <= sqrt(n)."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def test_config_rejects_composites_and_out_of_range():
    for bad in [0, 1, 4, 6, 9, 15, 2**31 + 11, -7]:
        with pytest.raises(NotPrimeError):
            FieldConfig(bad)
    for bad in [5.0, "5", True]:
        with pytest.raises(NotPrimeError, match="modulus must be an int"):
            FieldConfig(bad)
    for good in PRIMES:
        assert FieldConfig(good).p == good


def test_miller_rabin_matches_trial_division():
    for n in range(20_000):
        assert _is_prime(n) == is_prime_trial_division(n), n
    # 2^31 - 1 is prime; 46337^2 is the square of the largest prime below
    # sqrt(2^31); the rest are strong pseudoprimes to bases 2, (2, 3) and
    # (2, 3, 5), which a single witness would let through.
    for n in [2**31 - 1, 46337**2, 2047, 1373653, 25326001]:
        assert _is_prime(n) == is_prime_trial_division(n), n
    assert _is_prime(2**31 - 1)
    for n in [46337**2, 2047, 1373653, 25326001]:
        with pytest.raises(NotPrimeError):
            FieldConfig(n)


def test_config_equality_is_by_modulus():
    assert FieldConfig(5) == FieldConfig(5)
    assert FieldConfig(5) != FieldConfig(7)


def test_one_field_per_prime():
    for p in PRIMES:
        field = FieldConfig(p)
        assert FieldConfig(p) is field
        assert copy.copy(field) is field and copy.deepcopy(field) is field
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(field, protocol)) is field
    assert FieldConfig(5) is not FieldConfig(7)
    # an int subclass finds the same field, and a first one stores a plain int
    class Index(int):
        pass
    assert FieldConfig(Index(5)) is FieldConfig(5)
    field = FieldConfig(Index(7919))
    assert type(field.p) is int and FieldConfig(7919) is field


# each refusal of test_config_rejects_composites_and_out_of_range, with its text
REFUSALS = [
    *[(bad, f"modulus must be a prime in [2, 2^31], got {bad}")
      for bad in [0, 1, 4, 6, 9, 15, 2**31 + 11, -7]],
    (5.0, "modulus must be an int, got float"),
    ("5", "modulus must be an int, got str"),
    (True, "modulus must be an int, got bool"),
    (False, "modulus must be an int, got bool"),
    (Fraction(5), "modulus must be an int, got Fraction"),
]


@pytest.mark.parametrize("bad,text", REFUSALS)
def test_refusals_keep_their_text_once_fields_exist(bad, text):
    # 5 and 2 are fields by now, and 5.0, True and Fraction(5) hash as 5 or 1
    FieldConfig(2), FieldConfig(5)
    for _ in range(2):
        with pytest.raises(NotPrimeError) as info:
            FieldConfig(bad)
        assert str(info.value) == text


def test_unpickled_field_and_vectors_pass_the_field_checks():
    field = pickle.loads(pickle.dumps(FieldConfig(13)))
    vector = DecodeVector(FieldConfig(13), [1, 2])
    outputs = [field.vector([3, 1]), pickle.loads(pickle.dumps(FieldConfig(13).vector([4, 12])))]
    assert vector.apply(outputs).values() == (11, 12)
    assert copy.deepcopy(outputs[0]).field is FieldConfig(13)
    with pytest.raises(FieldMismatchError):
        vector.apply([FieldConfig(11).vector([3, 1]), outputs[1]])


def test_add_examples():
    f5, f7 = FieldConfig(5), FieldConfig(7)
    assert (element(f5, 3) + element(f5, 4)).value == 2
    assert (element(f5, 0) + element(f5, 4)).value == 4
    assert (element(f7, 6) + element(f7, 6)).value == 5


def test_mul_examples():
    f5, f7 = FieldConfig(5), FieldConfig(7)
    assert (element(f5, 4) * element(f5, 3)).value == 2
    for x in range(5):
        assert (element(f5, 1) * element(f5, x)).value == x
    assert (element(f7, 3) * element(f7, 5)).value == 1


def test_inv_examples():
    f5, f11 = FieldConfig(5), FieldConfig(11)
    assert element(f5, 3).inv().value == 2
    assert element(f5, 4).inv().value == 4
    assert element(f11, 7).inv().value == 8  # 7*8 = 56 = 1 mod 11
    with pytest.raises(ZeroInversionError):
        element(f5, 0).inv()


def test_pow_examples():
    f5, f3 = FieldConfig(5), FieldConfig(3)
    assert (element(f5, 2) ** 3).value == 3
    for x in range(5):
        assert (element(f5, x) ** 0).value == 1  # 0**0 == 1 by convention
    assert (element(f3, 2) ** 3).value == 2
    with pytest.raises(ValueError):
        element(f5, 2) ** -1


def test_mismatched_fields_rejected():
    a = element(FieldConfig(5), 1)
    b = element(FieldConfig(7), 1)
    for op in [lambda: a + b, lambda: a - b, lambda: a * b, lambda: a / b]:
        with pytest.raises(FieldMismatchError):
            op()


def test_element_range_enforced():
    f5 = FieldConfig(5)
    with pytest.raises(ValueError):
        FieldElement(5, f5)
    with pytest.raises(ValueError):
        FieldElement(-1, f5)
    with pytest.raises(TypeError):
        FieldElement(2.5, f5)


@settings(max_examples=80, deadline=None)
@given(
    p=st.sampled_from(PRIMES),
    xs=st.tuples(st.integers(min_value=0, max_value=2**40),
                 st.integers(min_value=0, max_value=2**40),
                 st.integers(min_value=0, max_value=2**40)),
)
def test_field_axioms(p, xs):
    field = FieldConfig(p)
    a, b, c = (element(field, x) for x in xs)
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == element(field, 0)
    if a.value != 0:
        assert a * a.inv() == element(field, 1)


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from(PRIMES), x=st.integers(min_value=1, max_value=2**40))
def test_fermat(p, x):
    field = FieldConfig(p)
    a = element(field, x)
    if a.value != 0:
        assert (a ** (p - 1)) == element(field, 1)


def test_vector_ops_and_errors():
    f5 = FieldConfig(5)
    u = f5.vector([1, 2, 3])
    v = f5.vector([4, 4, 4])
    assert (u + v).values() == (0, 1, 2)
    assert (u - v).values() == (2, 3, 4)
    with pytest.raises(DimensionMismatchError):
        u + f5.vector([1, 2])
    with pytest.raises(FieldMismatchError):
        u + FieldConfig(7).vector([1, 2, 3])
    for op in (operator.add, operator.sub):
        with pytest.raises(TypeError, match="expected FieldVector, got list"):
            op(u, [1, 2, 3])
    with pytest.raises(DimensionMismatchError):
        f5.vector(())
    with pytest.raises(TypeError):
        FieldVector([1, 2, 3])  # vectors are built by FieldConfig.vector


def test_sampling_range_and_determinism():
    f13 = FieldConfig(13)
    v = sample_uniform_vector(random.Random(42), f13, 6)
    assert v.dim == 6
    assert all(0 <= x < 13 for x in v.values())
    again = sample_uniform_vector(random.Random(42), f13, 6)
    assert v == again
    with pytest.raises(DimensionMismatchError):
        sample_uniform_vector(random.Random(0), f13, 0)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 65521, 2**30 + 3, 2**31 - 1])
def test_sampling_draws_the_randrange_stream(p):
    # 5,000 draws, in one vector and in vectors of 1, 7 and 64 coordinates;
    # the generator must be left where randrange(p) would leave it. At
    # 2^30 + 3 about half of all 31-bit draws are >= p, so most calls take
    # several rounds of draws.
    field = FieldConfig(p)
    for seed, dims in ((p, [5000]), (p + 1, [1, 7, 64] * 69 + [32])):
        ref = random.Random(seed)
        expected = [ref.randrange(p) for _ in range(5000)]
        rng = random.Random(seed)
        drawn = [x for dim in dims for x in sample_uniform_vector(rng, field, dim).values()]
        assert drawn == expected
        assert rng.random() == ref.random()


@pytest.mark.parametrize("p", [2, 3, 5, 7, 2**31 - 1])
def test_sample_keys_draws_the_per_key_stream(p):
    # 1..16 keys of m = 1..9 coordinates, one generator per side and seed
    # running through every shape: the keys, and the generator state after
    # each draw, equal one sample_uniform_vector call per key
    field = FieldConfig(p)
    for seed in range(50):
        ref, rng = random.Random(seed), random.Random(seed)
        for num_keys in range(1, 17):
            for m in range(1, 10):
                want = [sample_uniform_vector(ref, field, m) for _ in range(num_keys)]
                keys = sample_keys(rng, field, num_keys, m)
                assert keys == want
                assert all(z.field is field for z in keys)
                assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("p", [2**30 + 3, 2**31 - 1])
def test_sample_keys_at_the_wide_shape(p):
    # Shamir's keys at K = 8, m = 512: 4,096 coordinates, each the next
    # randrange(p), and the generator left where those draws leave it
    field = FieldConfig(p)
    for seed in range(5):
        ref, rng = random.Random(seed), random.Random(seed)
        want = [ref.randrange(p) for _ in range(8 * 512)]
        keys = sample_keys(rng, field, 8, 512)
        assert [z.values() for z in keys] == [tuple(want[i:i + 512]) for i in range(0, 4096, 512)]
        assert rng.getstate() == ref.getstate()


def test_sampling_uniformity_five_sigma():
    # p=5, dim=3, 1e5 draws: every per-coordinate residue frequency must sit
    # within 5 sigma of 1/5. Seeded, so the check is deterministic.
    f5 = FieldConfig(5)
    rng = random.Random(2024)
    trials = 100_000
    counts = [[0] * 5 for _ in range(3)]
    for _ in range(trials):
        v = sample_uniform_vector(rng, f5, 3)
        for coord, x in enumerate(v.values()):
            counts[coord][x] += 1
    q = 1 / 5
    tol = 5 * math.sqrt(q * (1 - q) / trials)
    for coord in range(3):
        for residue in range(5):
            freq = counts[coord][residue] / trials
            assert abs(freq - q) < tol, (coord, residue, freq)


def _random_ints(rng, p, dim):
    # Mix in the edge residues 0 and p-1 so reductions wrap both ways.
    return [rng.choice([0, p - 1, rng.randrange(p)]) for _ in range(dim)]


@pytest.mark.parametrize("p", PRIMES)
def test_vector_kernels_match_elementwise_arithmetic(p):
    field = FieldConfig(p)
    rng = random.Random(p)
    for dim in [1, 2, 7, 64]:
        xs, ys = _random_ints(rng, p, dim), _random_ints(rng, p, dim)
        ex = [FieldElement(x, field) for x in xs]
        ey = [FieldElement(y, field) for y in ys]
        u, v = field.vector(xs), field.vector(ys)
        a = element(field, rng.randrange(p))
        want = {
            "add": [x + y for x, y in zip(ex, ey)],
            "sub": [x - y for x, y in zip(ex, ey)],
            "scale": [a * x for x in ex],
        }
        got = {
            "add": u + v,
            "sub": u - v,
            "scale": field.vector([a.value * x for x in xs]),
        }
        for op, vec in got.items():
            assert vec.values() == tuple(e.value for e in want[op]), op
            assert vec.field == field


def test_vector_reduces_coordinates_and_refuses_empty():
    f13 = FieldConfig(13)
    assert f13.vector([3, 25, -1]).values() == (3, 12, 12)
    assert f13.zero_vector(3).values() == (0, 0, 0)
    with pytest.raises(DimensionMismatchError):
        f13.vector([])
    with pytest.raises(DimensionMismatchError):
        f13.zero_vector(0)


F11 = FieldConfig(11)


class _Int(int):
    """An int subclass, which every residue site must store as a plain int."""


# Every constructor that takes caller-supplied integers, each reducing them
# through FieldConfig.residues: (build with value v in one slot, read that slot).
RESIDUE_SITES = {
    "residues": (lambda v: F11.residues([3, v]), lambda r: r[1]),
    "vector": (lambda v: F11.vector([3, v]), lambda x: x.values()[1]),
    "EncodingMatrix": (lambda v: EncodingMatrix(F11, 1, [[v, 1]]), lambda e: e.rows[0][0]),
    "DecodeVector": (lambda v: DecodeVector(F11, [2, v]), lambda dv: dv.weights[1]),
    "HarmonicParams.c": (lambda v: HarmonicParams(F11, 2, 2, v, [2]), lambda h: h.c),
    "HarmonicParams.betas": (lambda v: HarmonicParams(F11, 2, 2, 4, [v]),
                             lambda h: h.betas[0]),
    "select_params.c": (lambda v: select_params(F11, 2, 2, c=v), lambda h: h.c),
    "ShamirParams.thetas": (lambda v: ShamirParams(F11, 1, 1, [3, v]),
                            lambda sp: sp.thetas[1]),
    "LCCParams.alphas": (lambda v: LCCParams(F11, 1, 1, [3, v], [5, 6]),
                         lambda lp: lp.alphas[1]),
    "LCCParams.gammas": (lambda v: LCCParams(F11, 1, 1, [3, 4], [5, v]),
                         lambda lp: lp.gammas[1]),
    "FreshmanParams.matrix": (lambda v: FreshmanParams(F11, 1, 1, 1, [[v]]),
                              lambda fp: fp.matrix[0][0]),
}


@pytest.mark.parametrize("bad", [4.0, 1.5, Fraction(4), Decimal(4)], ids=repr)
@pytest.mark.parametrize("site", RESIDUE_SITES)
def test_residue_sites_refuse_non_integers(site, bad):
    build, _ = RESIDUE_SITES[site]
    with pytest.raises(TypeError):
        build(bad)


@pytest.mark.parametrize("site", RESIDUE_SITES)
def test_residue_sites_store_exact_ints(site):
    build, read = RESIDUE_SITES[site]
    # c = 1 collides with 0..K for every K, so select_params refuses c=True
    # as a parameter; the other sites take True as the residue 1
    values = [(_Int(15), 15), (_Int(-7), -7)]
    if site != "select_params.c":
        values.append((True, 1))
    for value, plain in values:
        got = read(build(value))
        assert type(got) is int
        assert got == read(build(plain)) == plain % 11
