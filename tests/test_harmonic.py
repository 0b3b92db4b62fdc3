"""Harmonic scheme: parameters, chain, matrix, coefficients, decoding.

The frozen reference values for p=5, K=2, d=2, c=4, beta=4 are:
chain rows (0,0,1), (3,0,3), (2,2,2); matrix rows (0,0,1), (2,0,4),
(4,3,4), (2,2,2); group coefficients j=1: w=(1,), A=2, B=2 and
j=2: w=(3,), A=2, B=4; decode vector (2,1,3,1).
"""

import itertools
import random

import pytest

from harmcode import harmonic
from harmcode.errors import (
    DimensionMismatchError,
    FieldTooSmallError,
    InvalidParamsError,
    ParameterCorruptionError,
    ZeroInversionError,
)
from harmcode.field import FieldConfig, sample_uniform_vector
from harmcode.harmonic import (
    EncodeStats,
    HarmonicParams,
    decode_vector,
    encode,
    encoding_matrix,
    group_coeffs,
    intermediate_vars,
    select_params,
    validate_params,
)
from harmcode.linear import EncodingMatrix
from harmcode.sim import make_handle
from harmcode.poly import (
    Dataset,
    PolyMap,
    direct_gradient_sum,
    random_dataset,
    random_poly,
)
from reference_field import element, scale

F5 = FieldConfig(5)


def worked_example_params():
    return select_params(F5, 2, 2, c=4, betas=[4])


# ---------------------------------------------------------------------------
# parameter selection and validation


def test_select_params_scan_f5():
    params = select_params(F5, 2, 2)
    assert params.c == 3
    # forbidden betas for c=3: {0, 3/3=1, 3/2=4, 3/1=3}; scan from 2 hits 2
    assert list(params.betas) == [2]
    assert validate_params(params) == []


def test_select_params_scan_f7():
    params = select_params(FieldConfig(7), 2, 2)
    assert params.c == 3
    # forbidden: {0, 1, 3/2=5, 3}; 2 is free
    assert list(params.betas) == [2]


def test_select_params_override_fixture():
    params = worked_example_params()
    assert params.c == 4
    assert list(params.betas) == [4]
    assert validate_params(params) == []


def test_select_params_rejects_bad_override():
    with pytest.raises(InvalidParamsError):
        select_params(F5, 2, 2, c=2)  # c in 0..K
    with pytest.raises(InvalidParamsError):
        select_params(F5, 2, 2, c=4, betas=[1])  # 1 always forbidden


def test_select_params_field_too_small():
    with pytest.raises(FieldTooSmallError):
        select_params(FieldConfig(3), 3, 2)  # no c outside 0..3 mod 3
    with pytest.raises(FieldTooSmallError):
        select_params(F5, 2, 4)  # needs 3 betas, only one candidate survives


PRIMES_BELOW_200 = [p for p in range(2, 200) if all(p % q for q in range(2, p))]


@pytest.mark.parametrize("p", PRIMES_BELOW_200 + [2**31 - 1])
def test_select_params_default_anchor_is_k_plus_one(p):
    # c must exceed K and be a residue, so the one default anchor is K + 1,
    # and a field with K + 1 >= p has none
    field = FieldConfig(p)
    for K in range(1, 45):
        for d in range(1, 7):
            if K + 1 >= p:
                with pytest.raises(FieldTooSmallError) as err:
                    select_params(field, K, d)
                assert str(err.value) == (f"F_{p} has no anchor c outside 0..{K}; "
                                          f"any prime >= {K + d + 2} works")
                continue
            try:
                params = select_params(field, K, d)
            except FieldTooSmallError as err:
                assert f"usable betas, need {d - 1}" in str(err)
                continue
            assert params.c == K + 1


def test_anchor_rule_is_c_above_k_at_every_small_prime():
    # d = 1 has no betas, so the anchor is the only thing that can fail:
    # validate_params names it, and every encoder refuses it, exactly when
    # c <= K, including K >= p where the residues 0..K cover the field
    for p in [p for p in PRIMES_BELOW_200 if p <= 31]:
        field = FieldConfig(p)
        for K in range(1, 2 * p + 1):
            data = Dataset([field.vector([k]) for k in range(1, K + 1)])
            z = field.vector([1])
            for c in range(p):
                params = HarmonicParams(field, K, 1, c, ())
                anchor = f"c={c} collides with a residue of 0..{K} mod {p}"
                assert (anchor in validate_params(params)) == (c <= K)
                builds = (lambda: encode(params, data, z),
                          lambda: encoding_matrix(params),
                          lambda: intermediate_vars(params, data, z),
                          lambda: make_handle(params).encode(data, [z]))
                for build in builds:
                    if c <= K:
                        with pytest.raises(ZeroInversionError):
                            build()
                    else:
                        build()


def test_validate_params_reports_violations():
    bad_c = HarmonicParams(F5, 2, 2, 2, (4,))
    assert any("c=2" in v for v in validate_params(bad_c))
    bad_beta = HarmonicParams(F5, 2, 2, 4, (1,))
    assert any("beta=1" in v for v in validate_params(bad_beta))
    dup = HarmonicParams(FieldConfig(11), 1, 3, 2, (4, 4))
    assert any("distinct" in v for v in validate_params(dup))


def test_params_structural_checks():
    with pytest.raises(InvalidParamsError):
        HarmonicParams(F5, 2, 2, 4, ())  # needs d-1 = 1 beta
    with pytest.raises(InvalidParamsError):
        HarmonicParams(F5, 0, 2, 4, (4,))
    with pytest.raises(InvalidParamsError, match="d must be >= 1"):
        HarmonicParams(F5, 2, 0, 4, ())
    for K, d in ((0, 2), (2, 0)):
        with pytest.raises(InvalidParamsError, match="need K >= 1 and d >= 1"):
            select_params(F5, K, d)
    # points are reduced mod p before anything else looks at them
    F11 = FieldConfig(11)
    assert HarmonicParams(F11, 2, 2, 15, (13,)) == HarmonicParams(F11, 2, 2, 4, (2,))


# ---------------------------------------------------------------------------
# masking chain


def chain_direct(params, data, z):
    """Independent oracle: P_j = (c/(c-j)) Z - (1/(c-j)) sum_{k<=j} X_k."""
    field = params.field
    p = field.p
    c = params.c
    out = []
    for j in range(params.K + 1):
        inv_cj = pow((c - j) % p, p - 2, p)
        coeffs_z = c * inv_cj % p
        acc = []
        for t in range(z.dim):
            s = sum(item.values()[t] for item in data.items[:j]) % p
            acc.append((coeffs_z * z.values()[t] - inv_cj * s) % p)
        out.append(field.vector(acc))
    return out


def test_chain_fixture_rows():
    params = worked_example_params()
    rows = []
    for t in range(3):
        basis = [[1 if idx == t else 0] for idx in range(3)]
        data = Dataset([F5.vector(v) for v in basis[:2]])
        z = F5.vector(basis[2])
        chain = intermediate_vars(params, data, z)
        rows.append([v.values()[0] for v in chain])
    by_j = list(zip(*rows))
    assert by_j[0] == (0, 0, 1)   # P0 = Z
    assert by_j[1] == (3, 0, 3)   # P1 = 3 X1 + 3 Z
    assert by_j[2] == (2, 2, 2)   # P2 = 2 X2 + 2 X1 + 2 Z


def test_chain_head_is_key():
    rng = random.Random(1)
    for p, K in [(7, 1), (11, 3), (13, 4)]:
        field = FieldConfig(p)
        params = select_params(field, K, 2)
        data = random_dataset(rng, field, K, 2)
        z = sample_uniform_vector(rng, field, 2)
        assert intermediate_vars(params, data, z)[0] == z


def test_chain_recursion_matches_direct_formula():
    rng = random.Random(2)
    for _ in range(40):
        p = rng.choice([7, 11, 13, 101])
        field = FieldConfig(p)
        K = rng.randint(1, 4)
        d = rng.randint(1, 3)
        try:
            params = select_params(field, K, d)
        except FieldTooSmallError:
            continue
        m = rng.randint(1, 3)
        data = random_dataset(rng, field, K, m)
        z = sample_uniform_vector(rng, field, m)
        assert intermediate_vars(params, data, z) == chain_direct(params, data, z)


def test_intermediate_vars_are_residues_though_the_chain_runs_below_2p():
    rng = random.Random(6)
    above_p = 0
    for p in (7, 11, 13):
        field = FieldConfig(p)
        for K in (1, 2, 3):
            params = select_params(field, K, 2)
            data = random_dataset(rng, field, K, 64)
            z = sample_uniform_vector(rng, field, 64)
            layout, chain, _ = harmonic._chain(field, K, harmonic._scalars(params)[1], data, (z,))
            bits = 8 * layout[-1].size // 64
            slots = [v >> (i * bits) & (2**bits - 1) for v in chain for i in range(64)]
            assert max(slots) < 2 * p
            # so a chain step a_j P + b_j X peaks at (p-1)(2p-1) + (p-1)^2
            assert (p - 1) * (3 * p - 2) < 2 ** layout[0]
            above_p += sum(v >= p for v in slots)
            chain = intermediate_vars(params, data, z)
            assert all(0 <= x < p for v in chain for x in v.values())
            assert chain == chain_direct(params, data, z)
    assert above_p > 0  # the packed chain did hold slots in [p, 2p)


def test_chain_dimension_errors():
    params = worked_example_params()
    data = Dataset([F5.vector([1]), F5.vector([2])])
    with pytest.raises(DimensionMismatchError):
        intermediate_vars(params, data, F5.vector([1, 2]))
    with pytest.raises(DimensionMismatchError):
        intermediate_vars(params, Dataset([F5.vector([1])]), F5.vector([1]))


# ---------------------------------------------------------------------------
# encoding matrix and encoder


def test_matrix_fixture_rows():
    matrix = encoding_matrix(worked_example_params())
    assert matrix.rows == ((0, 0, 1), (2, 0, 4), (4, 3, 4), (2, 2, 2))


def test_matrix_z_column_nonzero_grid():
    for p in [7, 11, 13]:
        field = FieldConfig(p)
        for K in range(1, 4):
            for d in range(1, 4):
                if p < K + d + 2:
                    continue
                matrix = encoding_matrix(select_params(field, K, d))
                assert all(row[-1] != 0 for row in matrix.rows)


def test_matrix_construction_rejects_zero_z_entry():
    with pytest.raises(InvalidParamsError):
        EncodingMatrix(F5, 2, [[1, 0, 0]])


def test_matrix_rows_match_unit_vector_probing():
    # Oracle: feed basis vectors through the recursive encoder; column t of
    # row w is the share worker w gets when exactly input t is 1.
    rng = random.Random(3)
    for _ in range(12):
        p = rng.choice([7, 11, 13])
        field = FieldConfig(p)
        K = rng.randint(1, 3)
        d = rng.randint(1, 3)
        if p < K + d + 2:
            continue
        params = select_params(field, K, d)
        matrix = encoding_matrix(params)
        probed = [[0] * (K + 1) for _ in range(params.N)]
        for t in range(K + 1):
            basis = [[1 if idx == t else 0] for idx in range(K + 1)]
            data = Dataset([field.vector(v) for v in basis[:K]])
            z = field.vector(basis[K])
            shares = encode(params, data, z)
            for w, share in enumerate(shares):
                probed[w][t] = share.values()[0]
        assert matrix.rows == tuple(tuple(r) for r in probed)


def test_encode_fixture_values():
    # Applying the frozen matrix rows to X1=1, X2=2, Z=3 gives (3, 4, 2, 2).
    params = worked_example_params()
    data = Dataset([F5.vector([1]), F5.vector([2])])
    shares = encode(params, data, F5.vector([3]))
    assert [s.values()[0] for s in shares] == [3, 4, 2, 2]


def test_encode_k1_d1_two_shares():
    field = FieldConfig(7)
    params = select_params(field, 1, 1)
    c = params.c
    x1, z = 4, 6
    shares = encode(params, Dataset([field.vector([x1])]), field.vector([z]))
    assert len(shares) == 2
    assert shares[0].values() == (z,)
    inv = pow(c - 1, 5, 7)
    assert shares[1].values() == ((c * inv * z - inv * x1) % 7,)


def test_share_count_grid():
    field = FieldConfig(101)
    for K in range(1, 6):
        for d in range(1, 5):
            params = select_params(field, K, d)
            data = random_dataset(random.Random(K * 10 + d), field, K, 1)
            z = field.vector([7])
            assert len(encode(params, data, z)) == K * (d - 1) + 2 == params.N


def test_encode_identical_to_matrix_apply():
    rng = random.Random(4)
    for _ in range(20):
        p = rng.choice([7, 11, 13, 101])
        field = FieldConfig(p)
        K = rng.randint(1, 4)
        d = rng.randint(1, 4)
        try:
            params = select_params(field, K, d)
        except FieldTooSmallError:
            continue
        m = rng.randint(1, 3)
        data = random_dataset(rng, field, K, m)
        z = sample_uniform_vector(rng, field, m)
        assert encode(params, data, z) == encoding_matrix(params).apply(data, z)


def test_encoder_operation_count():
    # K chain steps plus one blend per group worker: K*d combos, <= 2N here
    rng = random.Random(5)
    for p in (13, 7, 11):
        field = FieldConfig(p)
        for K in range(1, 4):
            for d in range(1, 4):
                try:
                    params = select_params(field, K, d)
                except FieldTooSmallError:
                    continue
                data = random_dataset(rng, field, K, 2)
                z = sample_uniform_vector(rng, field, 2)
                stats = EncodeStats()
                encode(params, data, z, stats)
                assert stats.two_term_combos == K * d
                assert stats.two_term_combos <= 2 * params.N


# ---------------------------------------------------------------------------
# group coefficients and decoding


def test_group_coeffs_fixture():
    params = worked_example_params()
    g1 = group_coeffs(params, 1)
    assert list(g1.weights) == [1]
    assert g1.a == 2
    assert g1.b == 2
    g2 = group_coeffs(params, 2)
    assert list(g2.weights) == [3]
    assert g2.a == 2
    assert g2.b == 4
    with pytest.raises(IndexError):
        group_coeffs(params, 3)


def test_group_coeffs_telescoping_random():
    rng = random.Random(6)
    for _ in range(60):
        p = rng.choice([11, 101, 65537])
        field = FieldConfig(p)
        K = rng.randint(2, 5)
        d = rng.randint(1, 5)
        c = rng.randrange(K + 1, p)
        from harmcode.harmonic import _forbidden_betas
        bad = _forbidden_betas(field, K, c)
        pool = [v for v in range(2, p) if v not in bad]
        rng.shuffle(pool)
        betas = tuple(pool[:d - 1])
        params = HarmonicParams(field, K, d, c, betas)
        assert validate_params(params) == []
        for j in range(1, K):
            assert group_coeffs(params, j + 1).a == group_coeffs(params, j).b


def reference_group_coeffs(params, j):
    """Group j's (weights, A_j, B_j) as residues from the closed-form
    products, in FieldElement arithmetic with one guarded inversion at a
    time -- an independent check of group_coeffs' Lagrange path:

        A_j = (c-j+1) prod_i beta_i (c-j+1) / (beta_i (c-j+1) - c)
        B_j = (c-j)   prod_i beta_i (c-j)   / (beta_i (c-j)   - c)
        w_ij = [r / ((1 - q_ij)(r - q_ij))] * prod_{i' != i} beta_i' / (beta_i' - beta_i)

    with q_ij = beta_i (c-j+1)/c and r = (c-j+1)/(c-j).
    """
    field = params.field
    c = element(field, params.c)
    betas = [element(field, b) for b in params.betas]

    def inv(x):
        if x.value == 0:
            raise ParameterCorruptionError("zero denominator")
        return x.inv()

    cj1 = element(field, c.value - j + 1)
    cj = element(field, c.value - j)
    a, b = cj1, cj
    for beta in betas:
        a = a * (beta * cj1) * inv(beta * cj1 - c)
        b = b * (beta * cj) * inv(beta * cj - c)
    r = cj1 * inv(cj)
    weights = []
    for i, beta in enumerate(betas):
        q = beta * cj1 * inv(c)
        w = r * inv((element(field, 1) - q) * (r - q))
        for i2, other in enumerate(betas):
            if i2 != i:
                w = w * other * inv(other - beta)
        weights.append(w.value)
    return tuple(weights), a.value, b.value


def test_group_coeffs_match_field_element_reference():
    cases = [(p, K, d) for p in (7, 11, 13) for K in (1, 2, 3) for d in (1, 2, 3)]
    # the benchmark's (K, d) at its prime
    cases += [(2**31 - 1, 8, 3), (2**31 - 1, 16, 2), (2**31 - 1, 8, 2)]
    checked = 0
    for p, K, d in cases:
        try:
            params = select_params(FieldConfig(p), K, d)
        except FieldTooSmallError:
            continue
        for j in range(1, K + 1):
            got = group_coeffs(params, j)
            assert (got.weights, got.a, got.b) == reference_group_coeffs(params, j)
            checked += 1
    # all 27 small (p, K, d) have default params, and so do the benchmark's
    assert checked == 3 * 3 * (1 + 2 + 3) + 8 + 16 + 8


def test_decode_vector_fixture():
    assert decode_vector(worked_example_params()).int_weights() == (2, 1, 3, 1)


def test_decode_vector_d1_closed_form():
    # d=1: empty groups leave (c, -(c-K)).
    for p, K in [(7, 3), (11, 2), (13, 5)]:
        field = FieldConfig(p)
        params = select_params(field, K, 1)
        c = params.c
        assert decode_vector(params).int_weights() == (c, (-(c - K)) % p)


def test_decode_vector_d1_exhaustive_affine():
    # p=7, K=3, affine g: every (X1, X2, X3, Z) decodes to the oracle.
    field = FieldConfig(7)
    params = select_params(field, 3, 1)
    g = PolyMap.univariate(field, [5, 3])  # 3x + 5
    vec = decode_vector(params)
    for x1, x2, x3, z in itertools.product(range(7), repeat=4):
        data = Dataset([field.vector([v]) for v in (x1, x2, x3)])
        shares = encode(params, data, field.vector([z]))
        outputs = [g.eval(s) for s in shares]
        assert vec.apply(outputs) == direct_gradient_sum(g, data)


def test_decode_exhaustive_p11_k2_d3():
    # All 11^3 scalar instances for a fixed cubic.
    field = FieldConfig(11)
    params = select_params(field, 2, 3)
    g = PolyMap.univariate(field, [1, 2, 0, 1])  # x^3 + 2x + 1
    vec = decode_vector(params)
    for x1, x2, z in itertools.product(range(11), repeat=3):
        data = Dataset([field.vector([x1]), field.vector([x2])])
        shares = encode(params, data, field.vector([z]))
        outputs = [g.eval(s) for s in shares]
        assert vec.apply(outputs) == direct_gradient_sum(g, data)


def test_decode_linearity():
    params = worked_example_params()
    field, decode = params.field, make_handle(params).decode
    zeros = [field.zero_vector(2) for _ in range(params.N)]
    assert decode(zeros) == field.zero_vector(2)
    rng = random.Random(8)
    outputs = [sample_uniform_vector(rng, field, 2) for _ in range(params.N)]
    scaled = [field.vector([3 * v for v in o.values()]) for o in outputs]
    assert decode(scaled) == scale(decode(outputs), element(field, 3))


def test_decode_wrong_count_or_dim():
    params = worked_example_params()
    field = params.field
    outputs = [field.vector([1]) for _ in range(params.N - 1)]
    with pytest.raises(DimensionMismatchError):
        make_handle(params).decode(outputs)
    ragged = [field.vector([1])] * (params.N - 1) + [field.vector([1, 2])]
    with pytest.raises(DimensionMismatchError):
        make_handle(params).decode(ragged)


def test_degree_robustness():
    # A scheme built for degree d also decodes every lower-degree g.
    rng = random.Random(9)
    field = FieldConfig(13)
    params = select_params(field, 2, 3)
    for d_poly in [1, 2, 3]:
        for _ in range(10):
            g = random_poly(rng, field, 2, 2, d_poly)
            data = random_dataset(rng, field, 2, 2)
            z = sample_uniform_vector(rng, field, 2)
            outputs = [g.eval(s) for s in encode(params, data, z)]
            assert make_handle(params).decode(outputs) == direct_gradient_sum(g, data)


def test_universality_matrix_independent_of_g():
    field = FieldConfig(11)
    params_a = select_params(field, 3, 2)
    params_b = select_params(field, 3, 2)
    assert encoding_matrix(params_a) == encoding_matrix(params_b)
    assert decode_vector(params_a) == decode_vector(params_b)


def test_corrupt_params_raise_at_decode():
    # beta = c/(c-1) collides with an interpolation point; the guard fires.
    field = FieldConfig(7)
    params = HarmonicParams(field, 1, 2, 2, (2,))
    assert validate_params(params) != []
    with pytest.raises(ParameterCorruptionError):
        decode_vector(params)
    # c in 0..K puts a zero among the denominators c and c-j; the guard must
    # fire before a bare pow(0, -1, p) raises its ValueError
    for c in (0, 1, 2):
        params = HarmonicParams(field, 2, 2, c, (3,))
        assert validate_params(params) != []
        with pytest.raises(ParameterCorruptionError):
            decode_vector(params)
    # with no betas (d = 1) only the guard on c itself catches c = 0
    params = HarmonicParams(field, 2, 1, 0, ())
    with pytest.raises(ParameterCorruptionError):
        decode_vector(params)


def test_exhaustive_validity_f5_sampled_quadratics():
    # Smaller sibling of the acceptance sweep: 5 sampled maps, all 125 states.
    params = select_params(F5, 2, 2)
    vec = decode_vector(params)
    rng = random.Random(10)
    share_sets = {}
    for x1, x2, z in itertools.product(range(5), repeat=3):
        data = Dataset([F5.vector([x1]), F5.vector([x2])])
        share_sets[(x1, x2, z)] = (data, encode(params, data, F5.vector([z])))
    for _ in range(5):
        g = random_poly(rng, F5, 1, 1, rng.randint(1, 2))
        for (x1, x2, z), (data, shares) in share_sets.items():
            outputs = [g.eval(s) for s in shares]
            assert vec.apply(outputs) == direct_gradient_sum(g, data)


def test_broken_anchor_raises_zero_inversion_in_encoders():
    # c in 0..K makes a chain denominator c-j vanish; validate_params rules it out
    field = FieldConfig(7)
    data = Dataset([field.vector([1]), field.vector([2])])
    for c in (0, 1, 2):
        params = HarmonicParams(field, 2, 2, c, (3,))
        assert validate_params(params) != []
        with pytest.raises(ZeroInversionError):
            encode(params, data, field.vector([3]))
        with pytest.raises(ZeroInversionError):
            encoding_matrix(params)
        handle = make_handle(params)  # the encoder is built on first use
        with pytest.raises(ZeroInversionError):
            handle.encode(data, [field.vector([3])])


def test_handle_builds_its_scalars_once_on_first_encode(monkeypatch):
    params = select_params(FieldConfig(11), 3, 3)
    rng = random.Random(9)
    cases = []
    for _ in range(50):
        data = random_dataset(rng, params.field, 3, 2)
        z = sample_uniform_vector(rng, params.field, 2)
        cases.append((data, z, encode(params, data, z)))
    calls = []
    scalars = harmonic._scalars

    def counted(pr):
        calls.append(pr)
        return scalars(pr)

    monkeypatch.setattr(harmonic, "_scalars", counted)
    handle = make_handle(params)
    assert calls == []
    for data, z, shares in cases:
        assert handle.encode(data, [z]) == shares
    assert len(calls) == 1
