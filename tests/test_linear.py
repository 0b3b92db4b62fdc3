"""Every scheme as one linear code: the handle, the module functions and the
encoding matrix / decode vector must agree share for share."""

import random

import pytest

from harmcode import baselines, harmonic
from harmcode.baselines import FreshmanParams, lcc_params, shamir_params
from harmcode.errors import FieldMismatchError, FieldTooSmallError, InvalidParamsError
from harmcode.field import FieldConfig, FieldVector, sample_uniform_vector
from harmcode.harmonic import select_params
from harmcode.linear import DecodeVector, EncodingMatrix, LinearCode, _layout, _residues
from harmcode.poly import Dataset, direct_gradient_sum, random_dataset, random_poly
from harmcode.sim import SCHEMES, ClearStorageScheme, make_handle
from reference_field import FieldElement, element, vector

# scheme -> (params builder, module encode taking the key list, module decode)
MODULE = {
    "harmonic": (select_params,
                 lambda pr, data, keys: harmonic.encode(pr, data, *keys), harmonic.decode),
    "shamir": (shamir_params, baselines.shamir_encode, baselines.shamir_decode),
    "lcc": (lcc_params,
            lambda pr, data, keys: baselines.lcc_encode(pr, data, *keys), baselines.lcc_decode),
}


def grid():
    """(scheme, params) over p in {5, 7, 11, 13}, K <= 3, d <= 3 where they exist,
    plus freshman at p in {2, 3}."""
    for p in (5, 7, 11, 13):
        field = FieldConfig(p)
        for K in (1, 2, 3):
            for d in (1, 2, 3):
                for scheme, (build, _, _) in MODULE.items():
                    try:
                        yield scheme, build(field, K, d)
                    except FieldTooSmallError:
                        pass
    for p in (2, 3):
        field = FieldConfig(p)
        for K in (1, 2, 3):
            yield "freshman", FreshmanParams(field, K, 2, 1, [[1, 1]])


GRID = list(grid())


def module_paths(scheme):
    if scheme == "freshman":
        return (lambda pr, data, keys: baselines.freshman_encode(pr, data, *keys),
                baselines.freshman_decode)
    return MODULE[scheme][1:]


def test_grid_covers_every_scheme():
    assert {scheme for scheme, _ in GRID} == {"harmonic", "shamir", "lcc", "freshman"}


@pytest.mark.parametrize("scheme,params", GRID, ids=[f"{s}-{pr!r}" for s, pr in GRID])
def test_handle_module_and_matrix_agree(scheme, params):
    handle = make_handle(params)
    assert handle.kind == scheme
    module_encode, module_decode = module_paths(scheme)
    field, K = params.field, params.K
    rng = random.Random(f"{scheme}-{field.p}-{K}-{params.d}")
    m = 2
    for _ in range(3):
        data = random_dataset(rng, field, K, m)
        keys = [sample_uniform_vector(rng, field, m) for _ in range(handle.num_keys)]
        shares = handle.encode(data, keys)
        assert shares == module_encode(params, data, keys)
        assert shares == handle.matrix.apply(data, *keys)
        assert len(shares) == handle.worker_count
        if handle.worker_fn is None:
            g = random_poly(rng, field, m, 1, params.d)
            outputs = [g.eval(s) for s in shares]
            oracle = direct_gradient_sum(g, data)
        else:
            outputs = [handle.worker_fn(s) for s in shares]
            oracle = baselines.freshman_oracle(params, data)
        decoded = handle.decode(outputs)
        assert decoded == oracle
        assert decoded == module_decode(params, outputs)
        assert decoded == handle.vector.apply(outputs)


@pytest.mark.parametrize("scheme,params", GRID, ids=[f"{s}-{pr!r}" for s, pr in GRID])
def test_every_row_has_a_key_coefficient(scheme, params):
    matrix = make_handle(params).matrix
    assert matrix.num_keys == make_handle(params).num_keys
    assert all(any(row[params.K:]) for row in matrix.rows)


def test_zeroed_shamir_key_column_is_refused():
    field = FieldConfig(7)
    matrix = baselines.shamir_encoding_matrix(shamir_params(field, 2, 2))
    rows = [list(row) for row in matrix.rows]
    # worker (1, 1) carries X_1 + theta_1 Z_1; zero its Z_1 entry
    rows[0][2] = 0
    with pytest.raises(InvalidParamsError):
        EncodingMatrix(field, 2, rows, num_keys=2)


def test_matrix_and_vector_are_built_once_and_only_on_demand():
    built = []
    params = shamir_params(FieldConfig(11), 2, 2)

    def build_matrix(pr):
        built.append("matrix")
        return baselines.shamir_encoding_matrix(pr)

    def build_vector(pr):
        built.append("vector")
        return baselines.shamir_decode_vector(pr)

    scheme = SCHEMES["shamir"]._replace(build_matrix=build_matrix, build_vector=build_vector)
    code = LinearCode(scheme, params)
    rng = random.Random(0)
    data = random_dataset(rng, params.field, 2, 1)
    keys = [sample_uniform_vector(rng, params.field, 1) for _ in range(2)]
    code.encode(data, keys)
    code.encode(data, keys)
    assert built == ["matrix"]
    code.decode(code.encode(data, keys))
    code.decode(code.encode(data, keys))
    assert built == ["matrix", "vector"]


def test_harmonic_handle_encodes_without_the_matrix():
    handle = make_handle(select_params(FieldConfig(13), 3, 2))
    rng = random.Random(1)
    data = random_dataset(rng, handle.field, 3, 2)
    handle.encode(data, [sample_uniform_vector(rng, handle.field, 2)])
    assert "matrix" not in vars(handle)


def test_clear_storage_forwards_the_worker_function():
    field = FieldConfig(3)
    inner = make_handle(FreshmanParams(field, 2, 1, 1, [[1]]))
    assert ClearStorageScheme(inner).worker_fn is inner.worker_fn
    assert ClearStorageScheme(make_handle(select_params(FieldConfig(5), 2, 2))).worker_fn is None


def foreign_field_cases():
    """(label, encode(data, keys), decode(outputs), num_keys, field, foreign
    output field): handles of every scheme plus the harmonic encoding matrix
    and decode vector."""
    f11, f3 = FieldConfig(11), FieldConfig(3)
    for params, foreign in ((select_params(f11, 2, 2), FieldConfig(7)),
                            (lcc_params(f11, 2, 2), FieldConfig(7)),
                            (shamir_params(f11, 2, 2), FieldConfig(7)),
                            (FreshmanParams(f3, 2, 1, 1, [[1]]), FieldConfig(5))):
        handle = make_handle(params)
        yield handle.kind, handle.encode, handle.decode, handle.num_keys, params.field, foreign
    params = select_params(f11, 2, 2)
    matrix = harmonic.encoding_matrix(params)
    yield ("harmonic-matrix", lambda data, keys: matrix.apply(data, *keys),
           harmonic.decode_vector(params).apply, 1, f11, FieldConfig(7))


FOREIGN = list(foreign_field_cases())


@pytest.mark.parametrize("label,encode,decode,num_keys,field,foreign", FOREIGN,
                         ids=[c[0] for c in FOREIGN])
def test_encoders_refuse_data_and_keys_from_another_field(label, encode, decode, num_keys,
                                                          field, foreign):
    other = FieldConfig(7)
    data = Dataset([field.vector([1]), field.vector([2])])
    keys = [field.vector([t + 1]) for t in range(num_keys)]
    assert len(encode(data, keys)) > 0
    with pytest.raises(FieldMismatchError):
        encode(Dataset([other.vector([1]), other.vector([2])]), keys)
    for t in range(num_keys):
        foreign_keys = list(keys)
        foreign_keys[t] = other.vector([t + 1])
        with pytest.raises(FieldMismatchError):
            encode(data, foreign_keys)


@pytest.mark.parametrize("label,encode,decode,num_keys,field,foreign", FOREIGN,
                         ids=[c[0] for c in FOREIGN])
def test_decoders_refuse_outputs_from_another_field(label, encode, decode, num_keys,
                                                    field, foreign):
    data = Dataset([field.vector([1]), field.vector([2])])
    outputs = encode(data, [field.vector([t + 1]) for t in range(num_keys)])
    assert decode(outputs).field == field
    for w in range(len(outputs)):
        mixed = list(outputs)
        mixed[w] = foreign.vector([1])
        with pytest.raises(FieldMismatchError):
            decode(mixed)


def reference_apply(field, rows, columns):
    """out_w[i] = sum_k row_w[k] * column_k[i], one FieldElement at a time."""
    out = []
    for row in rows:
        coords = []
        for i in range(columns[0].dim):
            acc = element(field, 0)
            for e, column in zip(row, columns):
                acc = acc + element(field, e) * FieldElement(column.values()[i], field)
            coords.append(acc)
        out.append(vector(field, coords))
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 2**31 - 1])
@pytest.mark.parametrize("m", [1, 2, 3, 512])
def test_apply_matches_elementwise_dot_products(p, m):
    # K = 16 data columns and one key, as LCC at K = 16: rows of 1, 2, 3, 5
    # and 17 nonzero terms, and the worst slot, every coefficient and every
    # coordinate p - 1 over all 17 columns. Each row, and a row of zeros, is
    # also a decode vector with the 17 columns as its worker outputs.
    field, K = FieldConfig(p), 16
    rng = random.Random(f"apply-{p}-{m}")
    rows = [[0] * K + [rng.randrange(1, p)] for _ in range(2)]
    for terms in (2, 3, 5, 17, 17):
        for _ in range(2):
            row = [0] * K + [rng.randrange(1, p)]
            for k in rng.sample(range(K), terms - 1):
                row[k] = rng.randrange(1, p)
            rows.append(row)
    rows.append([p - 1] * (K + 1))
    matrix = EncodingMatrix(field, K, rows)
    assert sorted({sum(map(bool, row)) for row in matrix.rows}) == [1, 2, 3, 5, 17]
    weights = rows + [[0] * (K + 1)]
    top = field.vector([p - 1] * m)
    for data, key in ((random_dataset(rng, field, K, m), sample_uniform_vector(rng, field, m)),
                      (Dataset([top] * K), top)):
        columns = list(data.items) + [key]
        want = reference_apply(field, weights, columns)
        assert want[-1] == field.zero_vector(m)
        assert matrix.apply(data, key) == want[:-1]
        for row, f in zip(weights, want):
            assert DecodeVector(field, row).apply(columns) == f


def test_dense_harmonic_matrix_matches_the_chain_encoder():
    params = select_params(FieldConfig(2**31 - 1), 8, 3)
    matrix = harmonic.encoding_matrix(params)
    assert max(sum(map(bool, row)) for row in matrix.rows) == 9
    rng = random.Random(8)
    data = random_dataset(rng, params.field, 8, 512)
    z = sample_uniform_vector(rng, params.field, 512)
    assert matrix.apply(data, z) == make_handle(params).encode(data, [z])


def test_empty_matrix_applies_to_no_shares():
    field = FieldConfig(7)
    data = Dataset([field.vector([1, 2]), field.vector([3, 4])])
    assert EncodingMatrix(field, 2, []).apply(data, field.vector([5, 6])) == []


LAYOUT_PRIMES = [2, 3, 5, 7, 11, 13, 65521, 2**31 - 1]
LAYOUT_TERMS = [1, 2, 3, 4, 17, 2**16, 2**17, 2**20]


def slot_bits(layout, m):
    return 8 * layout[-1].size // m


def packed_sums(layout, sums):
    """Slot sums laid one per slot, which may exceed the 8 bytes _pack fills."""
    bits = slot_bits(layout, len(sums))
    return sum(v << (i * bits) for i, v in enumerate(sums))


# terms = 0 is the layout of an all-zero decode vector or a matrix with no rows
@pytest.mark.parametrize("p", LAYOUT_PRIMES)
@pytest.mark.parametrize("terms", [0] + LAYOUT_TERMS)
def test_layout_bounds_every_slot(p, terms):
    m = 3
    layout = _layout(m, p, terms)
    s, mu, mask, ones, bias, bit, _ = layout
    bits = slot_bits(layout, m)
    assert bits % 8 == 0 and bits >= 64
    assert terms * (p - 1) ** 2 < 2**s
    assert mu == 2**s // p
    assert 2**s * mu < 2**bits       # no slot's v * mu reaches the next slot
    assert bit == p.bit_length() < bits
    for i in range(m):
        assert [v >> (i * bits) & (2**bits - 1) for v in (ones, mask, bias)] == [
            1, 2**(bits - s) - 1, 2**bit - p]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
@pytest.mark.parametrize("terms", [0, 1, 2, 3, 4])
def test_residues_of_every_slot_sum(p, terms):
    top = terms * (p - 1) ** 2
    sums = list(range(top + 1))
    layout = _layout(len(sums), p, terms)
    want = tuple(v % p for v in sums)
    # two rows: every sum, then every sum in reverse
    got = _residues([packed_sums(layout, sums), packed_sums(layout, sums[::-1])], layout, p)
    assert got == [want, want[::-1]]


@pytest.mark.parametrize("terms", LAYOUT_TERMS)
def test_residues_at_the_top_of_the_range(terms):
    p = 2**31 - 1
    top = terms * (p - 1) ** 2
    q = top // p
    # the top sums, the multiples of p at and below them, and their neighbours
    sums = [top - k for k in range(64)] + [
        k * p + e for k in (q, q - 1, q - 2, 1) for e in (-1, 0, 1, p - 1) if k * p + e <= top]
    layout = _layout(len(sums), p, terms)
    assert _residues([packed_sums(layout, sums)], layout, p) == [tuple(v % p for v in sums)]


@pytest.mark.parametrize("p", [7, 11, 13, 2**31 - 1])
def test_packed_chain_encoder_matches_the_matrix_and_the_reference(p):
    # every datum and the key p - 1: the largest products the chain meets
    field = FieldConfig(p)
    for K, d in ((1, 1), (2, 2), (3, 3)):
        params = select_params(field, K, d)
        matrix = harmonic.encoding_matrix(params)
        rng = random.Random(f"chain-{p}-{K}-{d}")
        top = field.vector([p - 1] * 5)
        for data, z in ((Dataset([top] * K), top),
                        (random_dataset(rng, field, K, 5), sample_uniform_vector(rng, field, 5))):
            shares = harmonic.encoder(params)(data, z)
            assert shares == matrix.apply(data, z)
            assert shares == reference_apply(field, matrix.rows, list(data.items) + [z])
