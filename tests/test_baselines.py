"""Shamir-MPC, LCC, and freshman schemes: construction, validity, counts."""

import itertools
import random
import re
from collections import Counter

import pytest

from harmcode.errors import (
    DimensionMismatchError,
    FieldMismatchError,
    FieldTooSmallError,
    InvalidParamsError,
)
from harmcode.baselines import (
    FreshmanMap,
    FreshmanParams,
    LCCParams,
    ShamirParams,
    lcc_decode,
    lcc_decode_vector,
    lcc_encode,
    lcc_encoding_matrix,
    lcc_params,
    shamir_decode,
    shamir_encode,
    shamir_params,
)
from harmcode.field import FieldConfig, sample_uniform_vector
from harmcode.poly import Dataset, PolyMap, direct_gradient_sum, random_dataset, random_poly
from harmcode.sim import make_handle, run_trial
from reference_field import element


def interp_eval(points, at, p):
    """Independent Lagrange oracle: value at `at` of the polynomial through
    the (x, y) pairs, everything as plain ints mod p."""
    total = 0
    for i, (xi, yi) in enumerate(points):
        num, den = 1, 1
        for k, (xk, _) in enumerate(points):
            if k != i:
                num = num * (at - xk) % p
                den = den * (xi - xk) % p
        total = (total + yi * num * pow(den, p - 2, p)) % p
    return total


def basis_coeff(field, points, k, at):
    """Reference Lagrange basis for node k over the int `points` at `at`,
    straight from the product formula in FieldElement arithmetic."""
    points = [element(field, x) for x in points]
    at = element(field, at)
    num = element(field, 1)
    den = element(field, 1)
    for k2, xo in enumerate(points):
        if k2 != k:
            num = num * (at - xo)
            den = den * (points[k] - xo)
    return num * den.inv()


# ---------------------------------------------------------------------------
# Shamir


def test_shamir_params_canonical_points():
    field = FieldConfig(11)
    params = shamir_params(field, 3, 2)
    assert list(params.thetas) == [1, 2, 3]
    assert params.N == 9


def test_shamir_rejects_zero_or_duplicate_points():
    field = FieldConfig(11)
    with pytest.raises(InvalidParamsError):
        ShamirParams(field, 2, 1, (0, 1))
    with pytest.raises(InvalidParamsError):
        ShamirParams(field, 2, 1, (2, 2))
    # points are reduced before they are checked: 5 is share point 0 in F_5
    with pytest.raises(InvalidParamsError, match="share point 0"):
        ShamirParams(FieldConfig(5), 2, 1, (5, 1))
    with pytest.raises(FieldTooSmallError):
        shamir_params(FieldConfig(3), 2, 2)  # needs 3 nonzero points, has 2


def test_shamir_k1_d1_share_formulas():
    field = FieldConfig(7)
    params = shamir_params(field, 1, 1)
    x1, z1 = 5, 3
    shares = shamir_encode(params, Dataset([field.vector([x1])]),
                           [field.vector([z1])])
    assert [s.values()[0] for s in shares] == [(x1 + z1 * 1) % 7, (x1 + z1 * 2) % 7]


def test_shamir_share_distribution_uniform_exhaustive():
    # For fixed X, every worker's share sweeps F_5 uniformly as keys vary.
    field = FieldConfig(5)
    params = shamir_params(field, 2, 2)
    data = Dataset([field.vector([3]), field.vector([1])])
    hist = [Counter() for _ in range(params.N)]
    for z1, z2 in itertools.product(range(5), repeat=2):
        keys = [field.vector([z1]), field.vector([z2])]
        for w, share in enumerate(shamir_encode(params, data, keys)):
            hist[w][share.values()] += 1
    for h in hist:
        assert sorted(h.values()) == [5, 5, 5, 5, 5]


def test_shamir_decode_matches_interpolation_oracle():
    field = FieldConfig(13)
    params = shamir_params(field, 2, 3)
    rng = random.Random(1)
    g = random_poly(rng, field, 1, 1, 3)
    data = random_dataset(rng, field, 2, 1)
    keys = [sample_uniform_vector(rng, field, 1) for _ in range(2)]
    shares = shamir_encode(params, data, keys)
    outputs = [g.eval(s) for s in shares]
    got = shamir_decode(params, outputs)
    thetas = list(params.thetas)
    width = params.d + 1
    total = 0
    for k in range(2):
        pts = [(thetas[r], outputs[k * width + r].values()[0]) for r in range(width)]
        total = (total + interp_eval(pts, 0, 13)) % 13
    assert got.values() == (total,)
    assert got == direct_gradient_sum(g, data)


def test_shamir_linear_g_d1():
    field = FieldConfig(11)
    params = shamir_params(field, 3, 1)
    g = PolyMap.univariate(field, [0, 4])  # 4x, no constant
    rng = random.Random(2)
    data = random_dataset(rng, field, 3, 1)
    keys = [sample_uniform_vector(rng, field, 1) for _ in range(3)]
    outputs = [g.eval(s) for s in shamir_encode(params, data, keys)]
    assert shamir_decode(params, outputs) == direct_gradient_sum(g, data)


def test_shamir_wrong_key_count():
    field = FieldConfig(7)
    params = shamir_params(field, 2, 1)
    data = Dataset([field.vector([1]), field.vector([2])])
    with pytest.raises(DimensionMismatchError):
        shamir_encode(params, data, [field.vector([1])])


# ---------------------------------------------------------------------------
# LCC


def test_lcc_params_canonical_points():
    field = FieldConfig(101)
    params = lcc_params(field, 3, 2)
    assert list(params.alphas) == [0, 1, 2, 3]
    assert list(params.gammas) == [4, 5, 6, 7, 8, 9, 10]
    assert params.N == 7


def test_lcc_params_tight_field_fallback():
    # F_5, K=2, d=1 has exactly enough residues if the key anchor doubles as
    # the last evaluation point.
    params = lcc_params(FieldConfig(5), 2, 1)
    assert list(params.alphas) == [0, 1, 2]
    assert list(params.gammas) == [3, 4, 2]


def test_lcc_params_collision_error():
    with pytest.raises(FieldTooSmallError):
        lcc_params(FieldConfig(5), 2, 2)  # needs 5 points clear of 2 anchors


def test_lcc_rejects_anchor_collisions():
    field = FieldConfig(11)
    alphas = tuple(range(3))
    gammas = (0,) + tuple(range(4, 8))
    with pytest.raises(InvalidParamsError):
        LCCParams(field, 2, 2, alphas, gammas)  # gamma hits data anchor 0
    with pytest.raises(InvalidParamsError, match="coincide with data anchors"):
        LCCParams(field, 2, 2, alphas, (11, 4, 5, 6, 7))  # 11 is anchor 0 mod 11


def test_lcc_coefficients_match_product_formula():
    short_layouts = 0
    for p in [7, 11, 13, 31]:
        field = FieldConfig(p)
        for K in range(1, 4):
            for d in range(1, 4):
                try:
                    params = lcc_params(field, K, d)
                except FieldTooSmallError:
                    continue
                alphas, gammas = params.alphas, params.gammas
                if gammas[-1] == alphas[K]:
                    short_layouts += 1
                assert lcc_encoding_matrix(params).rows == tuple(
                    tuple(basis_coeff(field, alphas, k, gamma).value for k in range(K + 1))
                    for gamma in gammas), (p, K, d)
                want = []
                for i in range(params.N):
                    w = element(field, 0)
                    for alpha in alphas[:K]:
                        w = w + basis_coeff(field, gammas, i, alpha)
                    want.append(w.value)
                assert lcc_decode_vector(params).weights == tuple(want), (p, K, d)
    assert short_layouts == 3  # F_7 with (K, d) = (2, 2), (3, 1); F_13 with (3, 3)


def test_lcc_data_polynomial_roundtrip():
    # Interpolating the shares back (degree <= K needs K+1 of the N points)
    # recovers every X_k at its anchor.
    field = FieldConfig(13)
    params = lcc_params(field, 2, 2)
    rng = random.Random(3)
    data = random_dataset(rng, field, 2, 3)
    z = sample_uniform_vector(rng, field, 3)
    shares = lcc_encode(params, data, z)
    gam = list(params.gammas)
    for k in range(2):
        alpha = params.alphas[k]
        rec = []
        for t in range(3):
            pts = [(gam[i], shares[i].values()[t]) for i in range(3)]  # K+1 = 3
            rec.append(interp_eval(pts, alpha, 13))
        assert tuple(rec) == data.items[k].values()
    # and the key anchor reproduces Z
    rec_z = [interp_eval([(gam[i], shares[i].values()[t]) for i in range(3)],
                         params.alphas[2], 13) for t in range(3)]
    assert tuple(rec_z) == z.values()


def test_lcc_key_basis_coefficient_nonzero_everywhere():
    # ell_{K+1}(gamma_i) = prod_k (gamma_i - alpha_k)/(alpha_{K+1} - alpha_k) != 0.
    for p, K, d in [(13, 2, 2), (11, 3, 1), (5, 2, 1)]:
        field = FieldConfig(p)
        params = lcc_params(field, K, d)
        a = list(params.alphas)
        for gamma in params.gammas:
            num = 1
            for k in range(K):
                num = num * (gamma - a[k]) % p
            assert num != 0


def test_lcc_single_input_single_evaluation():
    # K=1 collapses to evaluating g at one coded point.
    field = FieldConfig(11)
    params = lcc_params(field, 1, 3)
    rng = random.Random(4)
    g = random_poly(rng, field, 2, 1, 3)
    data = random_dataset(rng, field, 1, 2)
    z = sample_uniform_vector(rng, field, 2)
    outputs = [g.eval(s) for s in lcc_encode(params, data, z)]
    assert lcc_decode(params, outputs) == g.eval(data.items[0])


def test_lcc_share_reproduction_identity():
    # h interpolated through (gamma_i, output_i) gives back output_i.
    field = FieldConfig(13)
    params = lcc_params(field, 2, 2)
    rng = random.Random(5)
    g = random_poly(rng, field, 1, 1, 2)
    data = random_dataset(rng, field, 2, 1)
    z = sample_uniform_vector(rng, field, 1)
    outputs = [g.eval(s) for s in lcc_encode(params, data, z)]
    gam = list(params.gammas)
    pts = [(gam[i], outputs[i].values()[0]) for i in range(params.N)]
    for i in range(params.N):
        assert interp_eval(pts, gam[i], 13) == outputs[i].values()[0]


def test_lcc_decode_matches_oracle():
    rng = random.Random(6)
    for p, K, d in [(13, 2, 2), (11, 2, 2), (13, 3, 2), (11, 1, 3)]:
        field = FieldConfig(p)
        params = lcc_params(field, K, d)
        for _ in range(10):
            g = random_poly(rng, field, 2, 2, d)
            data = random_dataset(rng, field, K, 2)
            z = sample_uniform_vector(rng, field, 2)
            outputs = [g.eval(s) for s in lcc_encode(params, data, z)]
            assert lcc_decode(params, outputs) == direct_gradient_sum(g, data)


# ---------------------------------------------------------------------------
# freshman


def test_freshman_hand_example_p3():
    field = FieldConfig(3)
    params = FreshmanParams(field, 2, 1, 1, [[1]])
    data = Dataset([field.vector([1]), field.vector([2])])
    z = field.vector([1])
    handle = make_handle(params)
    shares = handle.encode(data, [z])
    assert [s.values()[0] for s in shares] == [1, 1]  # 1, 1+1+2 = 4 = 1
    outputs = [FreshmanMap(params).eval(s) for s in shares]
    assert [o.values()[0] for o in outputs] == [1, 1]
    assert handle.decode(outputs).values() == (0,)
    assert (pow(1, 3, 3) + pow(2, 3, 3)) % 3 == 0  # the target value


def test_freshman_hand_example_p2():
    field = FieldConfig(2)
    params = FreshmanParams(field, 2, 1, 1, [[1]])
    data = Dataset([field.vector([1]), field.vector([1])])
    handle = make_handle(params)
    for z in range(2):
        shares = handle.encode(data, [field.vector([z])])
        outputs = [FreshmanMap(params).eval(s) for s in shares]
        assert handle.decode(outputs).values() == (0,)  # 1 + 1 = 0 mod 2


def test_freshman_zero_data_shares_coincide():
    field = FieldConfig(5)
    params = FreshmanParams(field, 3, 2, 1, [[1, 2]])
    data = Dataset([field.zero_vector(2)] * 3)
    z = field.vector([4, 2])
    shares = make_handle(params).encode(data, [z])
    assert shares[0] == shares[1] == z


def test_freshman_share_distribution_uniform_exhaustive():
    field = FieldConfig(3)
    params = FreshmanParams(field, 2, 1, 1, [[1]])
    data = Dataset([field.vector([2]), field.vector([1])])
    hist = [Counter(), Counter()]
    for z in range(3):
        for w, share in enumerate(make_handle(params).encode(data, [field.vector([z])])):
            hist[w][share.values()] += 1
    for h in hist:
        assert sorted(h.values()) == [1, 1, 1]


def test_freshman_matches_oracle_randomized():
    rng = random.Random(7)
    for p in [2, 3, 5]:
        field = FieldConfig(p)
        for _ in range(100):
            K = rng.randint(1, 3)
            m = rng.randint(1, 2)
            n = rng.randint(1, 2)
            matrix = [[rng.randrange(p) for _ in range(m)]
                      for _ in range(n)]
            if not any(e for row in matrix for e in row):
                matrix[0][0] = 1
            params = FreshmanParams(field, K, m, n, matrix)
            data = random_dataset(rng, field, K, m)
            z = sample_uniform_vector(rng, field, m)
            handle = make_handle(params)
            outputs = [FreshmanMap(params).eval(s) for s in handle.encode(data, [z])]
            assert handle.decode(outputs) == direct_gradient_sum(FreshmanMap(params), data)


def test_freshman_two_workers_always():
    for p in [2, 3, 5]:
        field = FieldConfig(p)
        for K in [1, 2, 5]:
            params = FreshmanParams(field, K, 1, 1, [[1]])
            assert params.N == 2
            assert params.d == p


def test_freshman_rejects_zero_matrix():
    field = FieldConfig(3)
    with pytest.raises(InvalidParamsError):
        FreshmanParams(field, 1, 2, 1, [[0, 0]])
    with pytest.raises(InvalidParamsError, match="nonzero"):
        FreshmanParams(FieldConfig(5), 1, 1, 1, [[5]])  # 5 is 0 in F_5


def test_freshman_handle_encodes_data_of_any_width():
    # the batched auditor encodes this code at width 9, not m = 1, so the
    # handle's encode takes any width; its worker function checks m
    field = FieldConfig(3)
    handle = make_handle(FreshmanParams(field, 2, 1, 1, [[1]]))
    for width in (1, 2, 9):
        data = Dataset([field.vector([1] * width), field.vector([2] * width)])
        z = field.vector([1] * width)
        shares = handle.encode(data, [z])
        assert [s.values() for s in shares] == [(1,) * width, (1,) * width]
    with pytest.raises(DimensionMismatchError):
        handle.worker_fn.eval(field.vector([1, 2]))



def test_freshman_worker_function_refuses_another_field():
    # the same check PolyMap.eval, the other worker function, makes
    params = FreshmanParams(FieldConfig(5), 2, 2, 1, [[1, 1]])
    x = FieldConfig(7).vector([6, 3])
    for worker in (FreshmanMap(params).eval, make_handle(params).worker_fn.eval):
        with pytest.raises(FieldMismatchError, match="F_7"):
            worker(x)
        with pytest.raises(TypeError, match="expected FieldVector"):
            worker([1, 3])
        assert worker(FieldConfig(5).vector([1, 3])) == FieldConfig(5).vector([4])  # 1^5 + 3^5

def test_freshman_map_is_a_applied_to_pth_powers_exhaustive():
    # eval computes A x, which on F_p is A (x_1^p, ..., x_m^p) by Fermat
    rng = random.Random(24)
    for p in (2, 3, 5, 7):
        field = FieldConfig(p)
        for m, n in itertools.product((1, 2), repeat=2):
            matrix = [[0] * m]
            while not any(map(any, matrix)):
                matrix = [[rng.randrange(p) for _ in range(m)] for _ in range(n)]
            worker = FreshmanMap(FreshmanParams(field, 2, m, n, matrix))
            for x in itertools.product(range(p), repeat=m):
                expected = tuple(sum(a * pow(v, p) for a, v in zip(row, x)) % p
                                 for row in matrix)
                assert worker.eval(field.vector(x)).values() == expected, (p, matrix, x)


def test_freshman_trial_with_wrong_width_raises():
    field = FieldConfig(5)
    handle = make_handle(FreshmanParams(field, 2, 1, 1, [[1]]))
    data = Dataset([field.vector([1, 2]), field.vector([3, 4])])
    with pytest.raises(DimensionMismatchError):
        run_trial(handle, None, data, seed=0)


def test_freshman_wrong_output_count():
    field = FieldConfig(3)
    params = FreshmanParams(field, 1, 1, 1, [[1]])
    with pytest.raises(DimensionMismatchError):
        make_handle(params).decode([field.vector([1])])


# ---------------------------------------------------------------------------
# cross-scheme contracts


def test_all_baselines_oracle_contract():
    rng = random.Random(8)
    field = FieldConfig(13)
    for K, d in [(1, 1), (2, 2), (3, 2), (2, 3)]:
        sh = shamir_params(field, K, d)
        lc = lcc_params(field, K, d)
        for _ in range(10):
            g = random_poly(rng, field, 1, 1, d)
            data = random_dataset(rng, field, K, 1)
            want = direct_gradient_sum(g, data)
            keys = [sample_uniform_vector(rng, field, 1) for _ in range(K)]
            out_sh = [g.eval(s) for s in shamir_encode(sh, data, keys)]
            assert shamir_decode(sh, out_sh) == want
            z = sample_uniform_vector(rng, field, 1)
            out_lc = [g.eval(s) for s in lcc_encode(lc, data, z)]
            assert lcc_decode(lc, out_lc) == want


def test_worker_count_ordering():
    for K in range(1, 8):
        for d in range(1, 6):
            harmonic_n = K * (d - 1) + 2
            lcc_n = K * d + 1
            shamir_n = K * (d + 1)
            assert harmonic_n <= lcc_n <= shamir_n
            if K >= 2:
                assert harmonic_n < lcc_n


F3, F11 = FieldConfig(3), FieldConfig(11)


@pytest.mark.parametrize("build,message", [
    (lambda: ShamirParams(F11, 0, 1, (1, 2)), "need K >= 1 and d >= 1, got K=0, d=1"),
    (lambda: ShamirParams(F11, 2, 0, (1,)), "need K >= 1 and d >= 1, got K=2, d=0"),
    (lambda: ShamirParams(F11, 2, 2, (1, 2)), "need exactly d+1=3 share points, got 2"),
    (lambda: LCCParams(F11, 0, 2, (0,), (1,)), "need K >= 1 and d >= 1, got K=0, d=2"),
    (lambda: LCCParams(F11, 2, 0, (0, 1, 2), (3,)), "need K >= 1 and d >= 1, got K=2, d=0"),
    (lambda: LCCParams(F11, 2, 2, (0, 1), range(3, 8)), "need K+1=3 anchors, got 2"),
    (lambda: LCCParams(F11, 2, 2, (0, 1, 2), range(3, 7)),
     "need Kd+1=5 evaluation points, got 4"),
    (lambda: LCCParams(F11, 2, 2, (0, 1, 12), range(3, 8)), "anchors [0, 1, 1] are not distinct"),
    (lambda: LCCParams(F11, 2, 2, (0, 1, 2), (3, 4, 5, 6, 14)),
     "evaluation points [3, 4, 5, 6, 3] are not distinct"),
    (lambda: FreshmanParams(F3, 0, 1, 1, [[1]]), "K must be >= 1, got 0"),
    (lambda: FreshmanParams(F3, 1, 0, 1, [[]]), "need m >= 1 and n >= 1, got m=0, n=1"),
    (lambda: FreshmanParams(F3, 1, 1, 0, []), "need m >= 1 and n >= 1, got m=1, n=0"),
    (lambda: FreshmanParams(F3, 1, 2, 1, [[1]]), "matrix must be 1x2"),
    (lambda: FreshmanParams(F3, 1, 1, 2, [[1]]), "matrix must be 2x1"),
])
def test_baseline_params_refuse_malformed_shapes(build, message):
    with pytest.raises(InvalidParamsError, match=re.escape(message)):
        build()
