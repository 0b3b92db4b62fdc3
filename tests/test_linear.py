"""Every scheme as one linear code: the handle, the module functions and the
encoding matrix / decode vector must agree share for share."""

import itertools
import random
import struct
from unittest import mock

import pytest

from harmcode import baselines, harmonic, linear
from harmcode.baselines import FreshmanParams, lcc_params, shamir_params
from harmcode.errors import (
    DimensionMismatchError,
    FieldMismatchError,
    FieldTooSmallError,
    InvalidParamsError,
)
from harmcode.field import FieldConfig, FieldVector, sample_uniform_vector
from harmcode.harmonic import select_params
from harmcode.linear import (DecodeVector, EncodingMatrix, LinearCode, _apply_narrow,
                             _apply_wide, _layout, _pack, _residues)
from harmcode.poly import Dataset, direct_gradient_sum, random_dataset, random_poly
from harmcode.sim import SCHEMES, ClearStorageScheme, make_handle, privacy_audit_exhaustive
from reference_field import FieldElement, element, vector

# scheme -> (params builder, module encode taking the key list, module decode)
MODULE = {
    "harmonic": (select_params,
                 lambda pr, data, keys: harmonic.encode(pr, data, *keys),
                 lambda pr, outputs: harmonic.decode_vector(pr).apply(outputs)),
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
        return (lambda pr, data, keys: baselines.freshman_encoding_matrix(pr).apply(data, *keys),
                lambda pr, outputs: baselines.freshman_decode_vector(pr).apply(outputs))
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
        else:
            g = baselines.FreshmanMap(params)
            outputs = [handle.worker_fn.eval(s) for s in shares]
        oracle = direct_gradient_sum(g, data)
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
    rows[0] = rows[0][:3]  # a row one entry short of K + num_keys
    with pytest.raises(DimensionMismatchError, match="row 1 has 3 entries, expected 4"):
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
    # K = 3, d = 2 encodes narrow below m = 5, so m = 5 takes the chain
    handle = make_handle(select_params(FieldConfig(13), 3, 2))
    rng = random.Random(1)
    data = random_dataset(rng, handle.field, 3, 5)
    handle.encode(data, [sample_uniform_vector(rng, handle.field, 5)])
    assert "matrix" not in vars(handle)
    assert "_wide" in vars(handle)


def test_harmonic_handle_encodes_narrow_without_the_chain():
    handle = make_handle(select_params(FieldConfig(13), 3, 2))
    rng = random.Random(1)
    data = random_dataset(rng, handle.field, 3, 4)
    z = sample_uniform_vector(rng, handle.field, 4)
    shares = handle.encode(data, [z])
    assert "_wide" not in vars(handle)
    assert "matrix" in vars(handle)
    assert shares == harmonic.encode(handle.params, data, z)


def test_clear_storage_forwards_the_worker_function():
    x = FieldConfig(3).vector([2])
    inner = make_handle(FreshmanParams(FieldConfig(3), 2, 1, 1, [[1]]))
    leaky = ClearStorageScheme(inner)
    assert isinstance(leaky, LinearCode)
    assert leaky.worker_fn.eval(x) == inner.worker_fn.eval(x)
    assert (leaky.matrix, leaky.vector, leaky.num_keys) == (inner.matrix, inner.vector,
                                                             inner.num_keys)
    for params in (select_params(FieldConfig(5), 2, 2), shamir_params(FieldConfig(5), 2, 1)):
        inner = make_handle(params)
        leaky = ClearStorageScheme(inner, leak_worker=1)
        assert isinstance(leaky, LinearCode)
        assert leaky.worker_fn is None
        assert (leaky.matrix, leaky.vector, leaky.num_keys) == (inner.matrix, inner.vector,
                                                                 inner.num_keys)
        assert leaky.kind == f"leaky-{inner.kind}"


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
def test_encoders_refuse_datasets_and_keys_of_another_shape(label, encode, decode, num_keys,
                                                            field, foreign):
    # one check, linear._columns, behind every handle and EncodingMatrix.apply
    data = Dataset([field.vector([1, 2]), field.vector([2, 0])])
    keys = [field.vector([t, 1]) for t in range(num_keys)]
    assert len(encode(data, keys)) > 0
    with pytest.raises(DimensionMismatchError, match="dataset has K=3"):
        encode(Dataset([*data.items, field.vector([0, 1])]), keys)
    for count in (num_keys - 1, num_keys + 1):
        with pytest.raises(DimensionMismatchError, match=f"need {num_keys} keys, got {count}"):
            encode(data, (keys + keys)[:count])
    for t in range(num_keys):
        narrow = list(keys)
        narrow[t] = field.vector([1])
        with pytest.raises(DimensionMismatchError, match="key dim 1 != data dim 2"):
            encode(data, narrow)


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
    # a decode vector has no such case: its apply would read outputs[0]
    with pytest.raises(DimensionMismatchError, match="at least one weight"):
        DecodeVector(field, [])


def test_maps_are_equal_by_kind_field_rows_and_key_split():
    field = FieldConfig(11)
    one_key = EncodingMatrix(field, 2, [[1, 2, 3]])
    two_keys = EncodingMatrix(field, 1, [[1, 2, 3]], num_keys=2)
    vector = DecodeVector(field, [1, 2, 3])
    assert one_key == EncodingMatrix(field, 2, [[12, 2, -8]])
    assert vector == DecodeVector(field, [12, 2, -8])
    # a one-row matrix is never the decode vector of its entries
    assert one_key != vector and vector != one_key
    assert one_key.rows == vector.rows
    assert vector != linear.LinearMap(field, [[1, 2, 3]])
    # the same rows with another K / key split, and with no rows at all
    assert one_key != two_keys
    assert EncodingMatrix(field, 2, []) != EncodingMatrix(field, 1, [], num_keys=2)
    assert EncodingMatrix(field, 2, []) != EncodingMatrix(field, 2, [], num_keys=2)
    assert vector != DecodeVector(FieldConfig(13), [1, 2, 3])
    # a narrow apply fills in a map's packing, not what it equals
    vector.apply([field.vector([1])] * 3)
    assert vector.narrow is not None and vector == DecodeVector(field, [1, 2, 3])
    for lmap in (one_key, two_keys, vector):
        with pytest.raises(TypeError):
            hash(lmap)


TOP = 2**31 - 1

# (label, K, rows over F_TOP, key count): maps on both sides of the rule
PACKING_MAPS = [
    *[(f"lcc-{K}-2", K, baselines.lcc_encoding_matrix(lcc_params(FieldConfig(TOP), K, 2)).rows, 1)
      for K in (2, 8, 16)],
    *[(f"shamir-{K}-2", K,
       baselines.shamir_encoding_matrix(shamir_params(FieldConfig(TOP), K, 2)).rows, K)
      for K in (2, 8)],
    ("harmonic-8-3", 8, harmonic.encoding_matrix(select_params(FieldConfig(TOP), 8, 3)).rows, 1),
]


def on_pattern(rows, p, top):
    """The rows' nonzero pattern over F_p: each nonzero e becomes p - 1 when
    ``top``, else e mod (p - 1) + 1, so width, nnz and the densest row stay."""
    return [[(p - 1 if top else e % (p - 1) + 1) if e else 0 for e in row] for row in rows]


def rule_is_narrow(code, m):
    """Whether ``_apply_rows`` sends a matrix or vector to the narrow kernel
    at m coordinates, as observed through the dispatch itself."""
    with mock.patch.object(linear, "_apply_narrow", lambda *args: "narrow"), \
            mock.patch.object(linear, "_apply_wide", lambda *args: "wide"):
        return linear._apply_rows(code, None, m, 2) == "narrow"


@pytest.mark.parametrize("p", [2, 3, 5, 13, TOP])
@pytest.mark.parametrize("label,K,rows,num_keys", PACKING_MAPS, ids=[m[0] for m in PACKING_MAPS])
def test_both_packings_match_the_reference(p, label, K, rows, num_keys):
    # every m from 1 to ceil((nnz + rows + 4 * width) / width) + 1, so the rule
    # sends the map both ways; the map's own coefficients at F_TOP, its pattern
    # elsewhere, and the pattern at p - 1, with random data and every datum
    # p - 1: the worst slot
    field = FieldConfig(p)
    rng = random.Random(f"packings-{label}-{p}")
    nnz, width = sum(map(bool, sum(rows, ()))), len(rows[0])
    top_m = -(-(nnz + len(rows) + 4 * width) // width) + 1
    for coeffs in ([rows] if p == TOP else []) + [on_pattern(rows, p, top) for top in (False, True)]:
        matrix = EncodingMatrix(field, K, coeffs, num_keys=num_keys)
        assert {rule_is_narrow(matrix, m) for m in range(1, top_m + 1)} == {True, False}
        worst = field.vector([p - 1] * top_m)
        for columns in ([sample_uniform_vector(rng, field, top_m) for _ in range(width)],
                        [worst] * width):
            want = [s.values() for s in reference_apply(field, matrix.rows, columns)]
            for m in range(1, top_m + 1):
                cols = [c.values()[:m] for c in columns]
                data = Dataset([field.vector(c) for c in cols[:K]])
                keys = [field.vector(c) for c in cols[K:]]
                shares = [w[:m] for w in want]
                assert [s.values() for s in matrix.apply(data, *keys)] == shares
                assert _apply_narrow(matrix, cols, m, p) == shares
                assert _apply_wide(matrix, cols, m, p) == shares


@pytest.mark.parametrize("p", [2, 13, TOP])
def test_narrow_packing_skips_a_zero_column_and_empty_maps(p):
    field = FieldConfig(p)
    rng = random.Random(f"narrow-edges-{p}")
    # column 1 of 4 is all zero: three columns read, 15 nonzeros over 5 rows,
    # so narrow while 3m < 15 + 5 + 4 * 3
    rows = [[rng.randrange(1, p), 0, rng.randrange(1, p), rng.randrange(1, p)] for _ in range(5)]
    rows[0] = [p - 1, 0, p - 1, p - 1]
    matrix = EncodingMatrix(field, 3, rows)
    for m in (1, 2, 10, 11):
        data = random_dataset(rng, field, 3, m)
        z = sample_uniform_vector(rng, field, m)
        want = reference_apply(field, matrix.rows, list(data.items) + [z])
        assert rule_is_narrow(matrix, m) == (m < 11)
        assert matrix.apply(data, z) == want
        cols = [x.values() for x in data.items] + [z.values()]
        assert _apply_narrow(matrix, cols, m, p) == [w.values() for w in want]
    # no rows: no shares on either packing, and the rule packs it wide
    empty = EncodingMatrix(field, 2, [])
    cols = [(1, 2), (3, 4), (5, 6)]
    assert not rule_is_narrow(empty, 2)
    assert _apply_narrow(empty, cols, 2, p) == _apply_wide(empty, cols, 2, p) == []
    # all-zero weights read no column, which the narrow kernel cannot apply:
    # the rule packs them wide at every m, and they decode to zeros
    zeros = DecodeVector(field, [0, 0, 0])
    for m in (1, 2, 5):
        assert not rule_is_narrow(zeros, m)
        outputs = [sample_uniform_vector(rng, field, m) for _ in range(3)]
        assert zeros.apply(outputs) == field.zero_vector(m)


def grid_maps(rng, p):
    """Maps of 1, 2, 3 and 6 rows over 1, 2, 5 and 9 columns: random
    coefficients with about a third zero, the same with every other row all
    zero, every coefficient p - 1, a single nonzero, and small coefficients
    drawn from 1..4 (below p) with one row of the largest, so that its sum
    is the map's heaviest and every column p - 1 fills its slots to the
    layout's bound; each as (rows, its LinearMap)."""
    for n_rows in (1, 2, 3, 6):
        for width in (1, 2, 5, 9):
            rand = [[rng.randrange(p) if rng.random() < 2 / 3 else 0 for _ in range(width)]
                    for _ in range(n_rows)]
            striped = [row if r % 2 else [0] * width for r, row in enumerate(rand)]
            single = [[0] * width for _ in range(n_rows)]
            single[-1][-1] = rng.randrange(1, p)
            big = min(4, p - 1)
            small = [[rng.randint(1, big) for _ in range(width)] for _ in range(n_rows)]
            small[rng.randrange(n_rows)] = [big] * width
            for rows in (rand, striped, [[p - 1] * width] * n_rows, single, small):
                if any(map(any, rows)):
                    yield rows, linear.LinearMap(FieldConfig(p), rows)


@pytest.mark.parametrize("p", [2, 3, 5, 13, 101, TOP])
def test_both_kernels_agree_on_every_shape(p):
    # one-row maps (decode vectors) and all-zero rows included; columns random,
    # and every coordinate p - 1, the worst slot; every m in 1..9 and 128.
    # The primes reach every slot width: 1 byte at p <= 13, 2 at 3 to 101, 4
    # at 13 and 101, and 8, 11, 12 or 13 bytes at TOP
    field = FieldConfig(p)
    rng = random.Random(f"kernel-grid-{p}")
    for rows, lmap in grid_maps(rng, p):
        for m in list(range(1, 10)) + [128]:
            for columns in ([sample_uniform_vector(rng, field, m) for _ in rows[0]],
                            [field.vector([p - 1] * m)] * len(rows[0])):
                want = [s.values() for s in reference_apply(field, rows, columns)]
                cols = [c.values() for c in columns]
                assert _apply_wide(lmap, cols, m, p) == want
                assert _apply_narrow(lmap, cols, m, p) == want
                assert linear._apply_rows(lmap, cols, m, p) == want


def unit_maps(p):
    """Rows of 1s over 5 columns, as (label, rows): all 1s; rows whose only
    term is a 1, with an all-zero row; 1s beside other coefficients; and one
    row of zero weights, a decode vector of nnz = 0, which the rule sends
    wide."""
    yield "ones", [[1] * 5] * 3
    yield "lone-ones", [[int(k == r) for k in range(5)] for r in range(5)] + [[0] * 5]
    yield "mixed", [[1, min(3, p - 1), 0, 1, p - 1], [0, 0, 0, 0, 1], [p - 1, 1, 1, 0, 0]]
    yield "zero-weights", [[0] * 5]


@pytest.mark.parametrize("p", [2, 3, 5, 13, 101, TOP])
def test_wide_rows_add_unit_terms_unmultiplied(p):
    # a 1 adds its packed column as it is and each row sums from its first
    # product: every map of unit_maps against the reference, at m in
    # {1, 2, 9, 128}, columns random and every coordinate p - 1. A row whose
    # only term is a 1 gives its column back, and the caller's columns stay
    # as they were
    field = FieldConfig(p)
    rng = random.Random(f"unit-rows-{p}")
    for label, rows in unit_maps(p):
        lmap = linear.LinearMap(field, rows)
        for m in (1, 2, 9, 128):
            for columns in ([sample_uniform_vector(rng, field, m) for _ in range(5)],
                            [field.vector([p - 1] * m)] * 5):
                want = [s.values() for s in reference_apply(field, rows, columns)]
                cols = [list(c.values()) for c in columns]
                assert _apply_wide(lmap, cols, m, p) == want, label
                assert linear._apply_rows(lmap, cols, m, p) == want, label
                assert cols == [list(c.values()) for c in columns]
                if label == "lone-ones":
                    assert want == [c.values() for c in columns] + [(0,) * m]
                if label == "zero-weights":
                    assert lmap.narrow_below == 0
                    assert DecodeVector(field, rows[0]).apply(columns) == field.zero_vector(m)


def test_shamir_wide_rows_through_both_kernels():
    # Shamir's K = 8, d = 3 matrix at p = 2^31 - 1: rows X_k + theta_r Z_k,
    # theta_r = 1..4, so every X_k term and the theta_1 row's Z_k term is a
    # 1. At m = 512 both kernels equal the reference
    matrix = baselines.shamir_encoding_matrix(shamir_params(F_TOP, 8, 3))
    assert sum(set(row) <= {0, 1} for row in matrix.rows) == 8
    rng = random.Random("shamir-unit-rows")
    columns = [sample_uniform_vector(rng, F_TOP, 512) for _ in range(16)]
    want = [s.values() for s in reference_apply(F_TOP, matrix.rows, columns)]
    cols = [c.values() for c in columns]
    assert _apply_wide(matrix, cols, 512, TOP) == want
    assert _apply_narrow(matrix, cols, 512, TOP) == want


# (label, code, m): the largest m the rule packs narrow, one more is wide;
# rows, width and nnz in the comments, narrow while
# m * width < nnz + rows + 4 * width
F_TOP = FieldConfig(TOP)
RULE_SHAPES = [
    # 32 x 16, 64 nonzeros: narrow up to m = 9 (144 < 160)
    ("shamir-8-3", baselines.shamir_encoding_matrix(shamir_params(F_TOP, 8, 3)), 9),
    # 48 x 32, 96 nonzeros: narrow up to m = 8, which includes many-inputs' m = 4
    ("shamir-16-2", baselines.shamir_encoding_matrix(shamir_params(F_TOP, 16, 2)), 8),
    # 25 x 9, 225 nonzeros: narrow up to m = 31
    ("lcc-8-3", baselines.lcc_encoding_matrix(lcc_params(F_TOP, 8, 3)), 31),
    # 33 x 17, 561 nonzeros: narrow up to m = 38
    ("lcc-16-2", baselines.lcc_encoding_matrix(lcc_params(F_TOP, 16, 2)), 38),
    # 18 x 9, 98 nonzeros: narrow up to m = 16
    ("harmonic-8-3", harmonic.encoding_matrix(select_params(F_TOP, 8, 3)), 16),
    # one row of N weights: narrow while m * N < 5N + 1, so at n <= 5 outputs
    ("harmonic-decode-16-2", harmonic.decode_vector(select_params(F_TOP, 16, 2)), 5),
    ("lcc-decode-16-2", baselines.lcc_decode_vector(lcc_params(F_TOP, 16, 2)), 5),
    ("shamir-decode-16-2", baselines.shamir_decode_vector(shamir_params(F_TOP, 16, 2)), 5),
]


@pytest.mark.parametrize("label,code,top", RULE_SHAPES, ids=[s[0] for s in RULE_SHAPES])
def test_rule_packs_narrow_up_to_where_the_packings_meet(label, code, top):
    assert [rule_is_narrow(code, m) for m in range(1, top + 3)] == [True] * top + [False] * 2
    assert rule_is_narrow(code, 512) is False


def kernels_built(handle):
    """Which of the matrix and the wide encoder a handle has built."""
    return [k for k in ("matrix", "_wide") if k in vars(handle)]


# (scheme, K, d, t): a handle at p = 2^31 - 1 encodes through its matrix's
# narrow kernel below m = t and through its wide encoder from m = t.
# Harmonic's chain, LCC's differences and Shamir's running sums weigh their
# packed operations against the narrow matrix; at K = 1, d = 1 and K = 2,
# d = 2 LCC's matrix alone would pack narrow up to m = 6 and m = 10, where
# the differences run from m = 3 and m = 5, and Shamir's alone up to m = 9
# at K = 8, d = 3 and m = 8 at K = 16, d = 2 (RULE_SHAPES), where the running
# sums run from m = 4. Freshman and LCC at K = 16, whose differences do not
# run (their bound is wider than the dense row's), take the matrix's
# narrow_below and apply it wide from there
THRESHOLDS = [
    ("harmonic", 16, 2, 7),   # many-inputs, m = 4: narrow
    ("harmonic", 8, 3, 7),    # wide, m = 512: the chain
    ("harmonic", 8, 2, 7),    # file-pipeline, m = 128: the chain
    ("harmonic", 3, 3, 6),
    ("harmonic", 1, 1, 3),
    ("lcc", 8, 3, 15),
    ("lcc", 8, 2, 14),
    ("lcc", 1, 1, 3),
    ("lcc", 2, 2, 5),
    ("lcc", 16, 2, 39),       # 33 x 17, 561 nonzeros
    ("shamir", 8, 3, 4),      # wide, m = 512: the running sums
    ("shamir", 16, 2, 4),     # many-inputs, m = 4: the running sums
    ("shamir", 8, 2, 4),      # file-pipeline, m = 128: the running sums
    ("shamir", 1, 1, 2),
    ("freshman", 3, TOP, 6),  # 2 x 4, 5 nonzeros
]


@pytest.mark.parametrize("scheme,K,d,t", THRESHOLDS)
def test_handles_encode_narrow_below_their_threshold(scheme, K, d, t):
    params = SCHEMES[scheme].params(F_TOP, K, d)
    assert make_handle(params)._threshold == t
    # the scheme's own wide encoder builds no matrix; the matrix's wide
    # kernel needs it
    wide = ["_wide"] if make_handle(params)._ops else ["matrix", "_wide"]
    rng = random.Random(f"threshold-{scheme}-{K}-{d}")
    for m, kernels in ((t - 1, ["matrix"]), (t, wide)):
        handle = make_handle(params)
        cols = [tuple(rng.randrange(TOP) for _ in range(m))
                for _ in range(K + handle.num_keys)]
        shares = handle.encode_residues(cols, m)
        assert kernels_built(handle) == kernels, m
        want = reference_apply(F_TOP, handle.matrix.rows, [F_TOP.vector(col) for col in cols])
        assert shares == [s.values() for s in want]


@pytest.mark.parametrize("p", [5, 7, 13, 101, 2**30 + 3, 2**31 - 1])
def test_handles_match_the_matrix_across_their_threshold(p):
    # random, all-(p-1) and all-zero columns at m = 1 and on both sides of
    # each handle's threshold t
    field = FieldConfig(p)
    for scheme, K, d in itertools.product(("harmonic", "lcc", "shamir"), range(1, 17),
                                          (1, 2, 3)):
        try:
            params = MODULE[scheme][0](field, K, d)
        except FieldTooSmallError:
            continue
        handle = make_handle(params)
        t, width = handle._threshold, K + handle.num_keys
        rng = random.Random(f"across-{p}-{scheme}-{K}-{d}")
        for m in sorted({1, t - 1, t, t + 1} - {-1, 0}):
            for cols in ([tuple(rng.randrange(p) for _ in range(m)) for _ in range(width)],
                         [(p - 1,) * m] * width, [(0,) * m] * width):
                assert handle.encode_residues(cols, m) == handle.matrix.apply_residues(cols, m), (
                    scheme, K, d, m)


@pytest.mark.parametrize("K,d,m,kernel", [
    (16, 2, 4, "matrix"),   # many-inputs: the matrix packs narrow below m = 7
    (8, 3, 512, "_wide"),   # wide
    (8, 2, 128, "_wide"),   # file-pipeline
])
def test_harmonic_workload_shapes_take_their_paths(K, d, m, kernel):
    p = 2**31 - 1
    handle = make_handle(select_params(FieldConfig(p), K, d))
    cols = [(p - 1,) * m] * (K + 1)
    shares = handle.encode_residues(cols, m)
    assert kernels_built(handle) == [kernel]
    assert shares == harmonic.encoding_matrix(handle.params).apply_residues(cols, m)


@pytest.mark.parametrize("K,d,m,kernel", [
    (16, 2, 4, "_wide"),    # many-inputs: the running sums from m = 4
    (8, 3, 512, "_wide"),   # wide
    (8, 2, 128, "_wide"),   # file-pipeline
    (8, 3, 3, "matrix"),    # below the running sums' threshold
])
def test_shamir_workload_shapes_take_their_paths(K, d, m, kernel):
    p = 2**31 - 1
    handle = make_handle(shamir_params(FieldConfig(p), K, d))
    cols = [(p - 1,) * m] * (2 * K)
    shares = handle.encode_residues(cols, m)
    assert kernels_built(handle) == [kernel]
    assert shares == baselines.shamir_encoding_matrix(handle.params).apply_residues(cols, m)


def test_shamir_audit_tiny_calls_take_the_running_sums():
    # audit-tiny's Shamir instance (p = 5, K = 2, d = 2) and its leaky
    # mutant encode every value of X_1 in one call, 625 coordinates wide
    field = FieldConfig(5)
    for handle in (make_handle(shamir_params(field, 2, 2)),
                   ClearStorageScheme(make_handle(shamir_params(field, 2, 2)), 1)):
        widths = []
        encode_residues = handle.encode_residues
        handle.encode_residues = lambda cols, m: widths.append(m) or encode_residues(cols, m)
        report = privacy_audit_exhaustive(handle, m=1)
        assert report.conditional_equal_per_worker[1] is (handle.kind == "shamir")
        assert widths == [5**4]
        assert kernels_built(handle) == ["_wide"]


@pytest.mark.parametrize("p", [11, 5])
def test_harmonic_audit_tiny_calls_take_the_chain(p):
    # audit-tiny's harmonic instance (p = 11) and its leaky mutant (p = 5)
    # encode every value of X_1 in one call, 1,331 and 125 coordinates wide
    for handle in (make_handle(select_params(FieldConfig(p), 2, 2)),
                   ClearStorageScheme(make_handle(select_params(FieldConfig(p), 2, 2)), 1)):
        widths = []
        encode_residues = handle.encode_residues
        handle.encode_residues = lambda cols, m: widths.append(m) or encode_residues(cols, m)
        report = privacy_audit_exhaustive(handle, m=1)
        assert report.conditional_equal_per_worker[0] is True
        assert widths == [p**3]
        assert kernels_built(handle) == ["_wide"]


def layouts_made(apply):
    """What ``apply()`` returns, and the (slot count, layout) of every
    layout it builds."""
    made = []
    layout = linear._layout
    with mock.patch.object(linear, "_layout",
                           lambda *args: made.append((args[0], layout(*args))) or made[-1][1]):
        return apply(), made


def test_shamir_wide_matrix_packs_eight_byte_slots():
    # Shamir's rows hold 1 on X_k and theta_r <= d + 1 on Z_k: at the `wide`
    # shape (K = 8, d = 3, m = 512) a slot of the matrix, which
    # shamir_encode applies, sums below 5 (p - 1) < 2^34, so its slots are
    # 8 bytes, one count code, where 2 (p - 1)^2 took 12
    matrix = baselines.shamir_encoding_matrix(shamir_params(F_TOP, 8, 3))
    rng = random.Random("shamir-wide")
    worst = F_TOP.vector([TOP - 1] * 512)
    for columns in ([worst] * 16, [sample_uniform_vector(rng, F_TOP, 512) for _ in range(16)]):
        shares, made = layouts_made(lambda: matrix.apply(Dataset(columns[:8]), *columns[8:]))
        assert [(slots, layout[-1].format) for slots, layout in made] == [(512, "<512Q")]
        assert shares == reference_apply(F_TOP, matrix.rows, columns)


def workload_codes():
    """(label, code, m) for every matrix and decode vector of the four
    workloads: `wide`, `many-inputs` and `file-pipeline` at F_TOP, and
    `audit-tiny`'s K = 2, d = 2 at each of its primes 5, 7 and 11."""
    for p, K, d, m, n in ((TOP, 8, 3, 512, 4), (TOP, 16, 2, 4, 2), (TOP, 8, 2, 128, 4),
                          (5, 2, 2, 1, 1), (7, 2, 2, 1, 1), (11, 2, 2, 1, 1)):
        for scheme, (build, _, _) in MODULE.items():
            try:
                params = build(FieldConfig(p), K, d)
            except FieldTooSmallError:
                continue
            handle = make_handle(params)
            yield f"{scheme}-{p}-{K}-{d}", handle.matrix, m
            yield f"{scheme}-decode-{p}-{K}-{d}", handle.vector, n


def test_no_slot_is_wider_than_the_densest_rows_bound():
    # every matrix and decode vector of RULE_SHAPES and of the workloads, on
    # both kernels: the heaviest row's layout is never wider than the one
    # sized for the densest row's terms * (p - 1)^2
    codes = RULE_SHAPES + list(workload_codes())
    assert len(codes) == len(RULE_SHAPES) + 34  # 36 less LCC's pair at F_5, too small
    for label, code, m in codes:
        p = code.field.p
        most = max(sum(map(bool, row)) for row in code.rows)
        cols = [(p - 1,) * m] * len(code.rows[0])
        fresh = linear.LinearMap(code.field, code.rows)
        made = (layouts_made(lambda: _apply_wide(code, cols, m, p))[1]
                + layouts_made(lambda: _apply_narrow(fresh, cols, m, p))[1])
        assert made, label
        for slots, layout in made:
            assert layout[-1].size <= _layout(slots, p, most * (p - 1) ** 2)[-1].size, label


def least_wide_m(rows):
    """The least m at which m * width < nnz + rows + 4 * width fails, width
    the columns some row reads and nnz the nonzero coefficients; 0 for rows
    with no nonzero coefficient."""
    nonzero = [(k, c) for row in rows for k, c in enumerate(row) if c]
    nnz, width = len(nonzero), len({k for k, _ in nonzero})
    if not nnz:
        return 0
    m = 1
    while m * width < nnz + len(rows) + 4 * width:
        m += 1
    return m


@pytest.mark.parametrize("p", [2, 13, 101, TOP])
def test_each_map_keeps_the_one_rule_and_dispatches_by_it(p):
    # every map of grid_maps, RULE_SHAPES and the workloads' maps: the
    # threshold a map keeps from when it is built is the inequality's, and
    # _apply_rows turns from narrow to wide between t - 1 and t; maps of no
    # terms keep 0 and pack wide at every m
    field = FieldConfig(p)
    maps = [lmap for _, lmap in grid_maps(random.Random(f"one-rule-{p}"), p)]
    if p == TOP:
        maps += [code for _, code, _ in RULE_SHAPES + list(workload_codes())]
    for lmap in maps:
        t = least_wide_m(lmap.rows)
        assert lmap.narrow_below == t > 1, lmap.rows
        assert (rule_is_narrow(lmap, t - 1), rule_is_narrow(lmap, t)) == (True, False)
    for empty in (EncodingMatrix(field, 2, []), DecodeVector(field, [0, 0, 0]),
                  linear.LinearMap(field, [[0] * 5] * 3)):
        assert least_wide_m(empty.rows) == empty.narrow_below == 0
        assert not rule_is_narrow(empty, 1)


@pytest.mark.parametrize("N", [18, 25, 32, 48])
def test_decode_vectors_pack_narrow_up_to_five_outputs(N):
    # every decode on `wide` and `file-pipeline` has n = 4 outputs, where the
    # narrow kernel is the faster one; at n = 6 and above the wide one is
    rng = random.Random(f"decode-rule-{N}")
    vector = DecodeVector(F_TOP, [TOP - 1] + [rng.randrange(1, TOP) for _ in range(N - 1)])
    for n in (2, 3, 4, 6, 8):
        assert rule_is_narrow(vector, n) == (n <= 4)
        for outputs in ([sample_uniform_vector(rng, F_TOP, n) for _ in range(N)],
                        [F_TOP.vector([TOP - 1] * n)] * N):
            want = reference_apply(F_TOP, [vector.weights], outputs)[0].values()
            cols = [out.values() for out in outputs]
            assert _apply_narrow(vector, cols, n, TOP) == [want]
            assert _apply_wide(vector, cols, n, TOP) == [want]
            assert vector.apply(outputs).values() == want


def test_row_packed_columns_are_built_once_and_only_for_narrow_maps(monkeypatch):
    packed = []
    pack = linear._pack
    monkeypatch.setattr(linear, "_pack", lambda layout, values: packed.append(len(values))
                        or pack(layout, values))
    field = FieldConfig(TOP)
    params = lcc_params(field, 16, 2)
    rng = random.Random(16)

    def apply(matrix, m):
        data = random_dataset(rng, field, 16, m)
        z = sample_uniform_vector(rng, field, m)
        assert matrix.apply(data, z) == reference_apply(field, matrix.rows, list(data.items) + [z])

    # narrow at m = 4 (68 < 561 + 33 + 68): the 17 coefficient columns, 33
    # rows each, once
    narrow = baselines.lcc_encoding_matrix(params)
    assert narrow.narrow is None
    apply(narrow, 4)
    assert packed == [33] * 17
    for _ in range(9):
        apply(narrow, 4)
    assert packed == [33] * 17
    # slots sized for the heaviest row's coefficient sum, one slot per row
    layout, columns = narrow.narrow
    assert layout == _layout(33, TOP, max(map(sum, narrow.rows)) * (TOP - 1))
    assert len(columns) == 17
    # wide at m = 128 (2176 >= 662): every pack is a data column, every call
    packed.clear()
    wide = baselines.lcc_encoding_matrix(params)
    for _ in range(3):
        apply(wide, 128)
    assert packed == [128] * 17 * 3
    assert wide.narrow is None
    # a decode vector at m <= 5 (m * 33 < 33 + 1 + 4 * 33) packs nothing:
    # its 33 weights are its one-slot coefficient columns as they are, no
    # layout is built, and its worker outputs are never packed
    packed.clear()
    vector = baselines.lcc_decode_vector(params)

    def decode(m):
        outputs = [sample_uniform_vector(rng, field, m) for _ in range(vector.N)]
        assert vector.apply(outputs) == reference_apply(field, [vector.weights], outputs)[0]

    for m in (1, 2, 4, 5, 1):
        decode(m)
    assert packed == []
    assert vector.narrow == [None, list(vector.weights)]
    # at m = 6 and 128 it packs wide: its worker outputs, every call
    for m in (6, 128, 6):
        packed.clear()
        decode(m)
        assert packed == [m] * vector.N


LAYOUT_PRIMES = [2, 3, 5, 7, 11, 13, 31, 8191, 65521, 2**30 + 3, 2**31 - 1]
LAYOUT_TERMS = [1, 2, 3, 4, 17, 2**16, 2**17, 2**20]
# every Mersenne prime up to 2^31: the primes whose layouts fold
MERSENNE = [3, 7, 31, 127, 8191, 131071, 524287, 2**31 - 1]


def slot_bits(layout, m):
    return 8 * layout[-1].size // m


def fewest_slot_bits(largest, bit):
    """The fewest of 8, 16, 32, 64, 72, 80, ... bits that hold both
    ``largest`` and bit + 1 bits."""
    return next(b for b in itertools.chain((8, 16, 32), itertools.count(64, 8))
                if largest < 2**b and bit < b)


def fold_top(p, t):
    """The largest (v & p) + (v >> k) over 0 <= v <= t at p = 2^k - 1: by
    trying every v when t is small, else at the two candidates, t itself
    and the last v below t's high part with all k low bits set."""
    k = p.bit_length()
    if t < 2**12:
        return max((v & p) + (v >> k) for v in range(t + 1))
    return max((t & p) + (t >> k), p + (t >> k) - 1)


def folded_top(p, top, count):
    """The largest slot value left after ``count`` folds of sums <= top."""
    for _ in range(count):
        top = fold_top(p, top)
    return top


def packed_sums(layout, sums):
    """Slot sums laid one per slot, which may exceed p - 1, the largest value
    _pack lays."""
    bits = slot_bits(layout, len(sums))
    return sum(v << (i * bits) for i, v in enumerate(sums))


def test_exactly_the_mersenne_primes_fold():
    # every prime below 2^13, and the larger primes the suite runs at
    primes = [p for p in range(2, 2**13) if all(p % q for q in range(2, int(p**0.5) + 1))]
    for p in primes + [65521, 131071, 524287, 2**30 + 3, 2**31 - 1]:
        kind = _layout(3, p, 4 * (p - 1) ** 2)[0].func
        assert kind is (linear._fold if p in MERSENNE else linear._barrett), p


def test_fold_top_is_at_one_of_two_candidates():
    # the largest fold of any v <= t, tried v by v, is at t itself or at the
    # last v below t's high part with every low bit set, once t >= 2^k
    for p in (3, 7, 31, 127):
        k, best = p.bit_length(), 0
        for t in range(2**14):
            best = max(best, (t & p) + (t >> k))
            if t >> k:
                assert best == max((t & p) + (t >> k), p + (t >> k) - 1), (p, t)


# terms = 0 is the layout of an all-zero decode vector or a matrix with no rows
@pytest.mark.parametrize("p", LAYOUT_PRIMES)
@pytest.mark.parametrize("terms", [0] + LAYOUT_TERMS)
def test_layout_bounds_every_slot(p, terms):
    m = 3
    top = terms * (p - 1) ** 2
    layout = _layout(m, p, top)
    step, ones, bias, bit, slots = layout
    bits = slot_bits(layout, m)
    assert top < 2**bits
    assert bit == p.bit_length() < bits    # room for the subtraction's bit + 1
    # and no slot is wider than it needs: 1, 2, 4 or 8 bytes, or whole bytes
    # above 8
    if p in MERSENNE:
        # count folds take every slot sum below 2p, and one fewer does not;
        # low keeps each slot's k low bits, high its bits from k up
        count, k, low, high = step.args
        assert step.func is linear._fold and 2**k - 1 == p and k == bit
        assert folded_top(p, top, count) < 2 * p
        assert count == 0 or folded_top(p, top, count - 1) >= 2 * p
        assert bits == fewest_slot_bits(top, bit)
        masks = [(low, p), (high, 2**(bits - k) - 1)]
    else:
        s, mu, mask, q = step.args
        assert step.func is linear._barrett and q == p
        assert top < 2**s
        assert mu == 2**s // p
        assert 2**s * mu < 2**bits       # no slot's v * mu reaches the next slot
        assert bits == fewest_slot_bits(2**s * mu, bit)
        masks = [(mask, 2**(bits - s) - 1)]
    for packed, each in [(ones, 1), (bias, 2**bit - p)] + masks:
        assert [packed >> (i * bits) & (2**bits - 1) for i in range(m)] == [each] * m
    values = (p - 1, 0, p // 2)
    assert _pack(layout, values) == packed_sums(layout, values)
    assert slots.unpack(_pack(layout, values).to_bytes(slots.size, "little")) == values


# each prime's slot code for sums up to 4 (p - 1)^2, the chain's bound: 1, 2,
# 4 and 8 bytes. The Mersenne primes fold, so their slots hold the sums alone
SLOT_CODES = {2: "B", 5: "H", 7: "B", 11: "H", 31: "H", 101: "I", 8191: "I", 65521: "Q",
              2**31 - 1: "Q"}


@pytest.mark.parametrize("p", list(SLOT_CODES))
def test_eight_byte_slots_are_one_count_code(p):
    # every slot of 8 bytes or fewer is one count code, B, H, I or Q, however
    # many slots; 10,201 slots: the p = 101 harmonic audit's encode width
    rng = random.Random(p)
    code = SLOT_CODES[p]
    size = struct.calcsize(code)
    top = 4 * (p - 1) ** 2
    for m in (1, 25, 10_201):
        layout = _layout(m, p, top)
        slots = layout[-1]
        assert slots.size == size * m
        assert slots.format == f"<{m}{code}"
        if p in MERSENNE:
            assert 8 * size == fewest_slot_bits(top, layout[3])
        else:
            s, mu = layout[0].args[:2]
            assert 8 * size == fewest_slot_bits(2**s * mu, layout[3])
        values = [rng.randrange(p) for _ in range(m)]
        per_slot = struct.Struct("<" + code * m)
        packed = slots.pack(*values)
        assert packed == per_slot.pack(*values)
        assert slots.unpack(packed) == per_slot.unpack(packed) == tuple(values)
        assert _pack(layout, values) == int.from_bytes(packed, "little")


def test_workload_maps_keep_their_layouts_at_top():
    # p = 2^31 - 1 folds: harmonic's chain sums below 4 (p-1)^2 < 2^64 and
    # LCC's differences below 2^63, so both take 8-byte slots, one count
    # code, at `wide` and `file-pipeline`; the matrices of general residues
    # that `many-inputs` applies narrow sum past 2^64 and take 9, Q and one
    # pad byte. Shamir's running sums hold at most 2 (p-1) < 2^32 and take
    # 4-byte slots on all three, where its matrix took 8. The decode
    # vectors, at n <= 4 outputs, pack narrow on no layout. Each slot holds
    # its sums, and the fold count takes them below 2p (the running sums,
    # already below 2p, fold none and run no step)
    def code(size):
        return {4: "I", 8: "Q"}.get(size, "Q" + "x" * (size - 8))

    layouts_of = {  # (K, d, m, n) -> (slots, slot bytes) of harmonic, LCC and Shamir
        (8, 3, 512, 4): ((512, 8), (512, 8), (512, 4)),     # wide
        (16, 2, 4, 2): ((18, 9), (33, 9), (4, 4)),          # many-inputs: two narrow
        (8, 2, 128, 4): ((128, 8), (128, 8), (128, 4)),     # file-pipeline
    }
    for (K, d, m, n), layouts in layouts_of.items():
        for scheme, (count, size) in zip(("harmonic", "lcc", "shamir"), layouts):
            handle = make_handle(MODULE[scheme][0](F_TOP, K, d))
            cols = [(TOP - 1,) * m] * (K + handle.num_keys)
            outputs = [(TOP - 1,) * n] * handle.worker_count
            # harmonic's chain, LCC's differences and Shamir's running sums
            # build their layouts through linear's
            made, layout = [], linear._layout

            def record(slots, p, top):
                made.append((slots, top, layout(slots, p, top)))
                return made[-1][-1]

            with mock.patch.object(harmonic, "_layout", record), \
                    mock.patch.object(baselines, "_layout", record), \
                    mock.patch.object(linear, "_layout", record):
                handle.encode_residues(cols, m)
                handle.vector.apply_residues(outputs, n)
            want = f"<{count}{code(size)}" if size <= 8 else "<" + code(size) * count
            assert [(n_slots, made_layout[-1].format) for n_slots, _, made_layout in made] == [
                (count, want)], (scheme, K, d, m)
            [(_, top, (step, _, _, bit, _))] = made
            assert step.func is linear._fold and top < 2 ** (8 * size) and bit < 8 * size
            assert folded_top(TOP, top, step.args[0]) < 2 * TOP


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 31])
@pytest.mark.parametrize("terms", [0, 1, 2, 3, 4])
def test_residues_of_every_slot_sum(p, terms):
    # p = 3, 7 and 31 fold, the others take a Barrett step
    top = terms * (p - 1) ** 2
    sums = list(range(top + 1))
    layout = _layout(len(sums), p, top)
    want = tuple(v % p for v in sums)
    # two rows: every sum, then every sum in reverse
    got = _residues([packed_sums(layout, sums), packed_sums(layout, sums[::-1])], layout, p)
    assert got == [want, want[::-1]]


def residues_at_the_top(p, terms):
    """Reduces sums near terms * (p - 1)^2 on its layout, checks each
    against v % p, and returns the layout's step function."""
    top = terms * (p - 1) ** 2
    q = top // p
    shift = p.bit_length()
    # the top sums, the multiples of p at and below them, and their
    # neighbours; and the sums whose folds peak: every low bit set under
    # each of the eight highest high parts, and every run of low ones
    sums = [top - k for k in range(64)] + [
        k * p + e for k in (q, q - 1, q - 2, 1) for e in (-1, 0, 1, p - 1) if k * p + e <= top]
    sums += [(h << shift) - 1 for h in range(top >> shift, max((top >> shift) - 8, 0), -1)]
    sums += [2**j - 1 for j in range(1, top.bit_length())]
    layout = _layout(len(sums), p, top)
    assert max(sums) <= top
    assert _residues([packed_sums(layout, sums)], layout, p) == [tuple(v % p for v in sums)]
    return layout[0].func


@pytest.mark.parametrize("terms", LAYOUT_TERMS)
def test_residues_at_the_top_of_the_range(terms):
    assert residues_at_the_top(2**31 - 1, terms) is linear._fold


@pytest.mark.parametrize("terms", LAYOUT_TERMS)
def test_barrett_residues_at_the_top_of_the_range(terms):
    assert residues_at_the_top(2**30 + 3, terms) is linear._barrett


def fold_kernels(params):
    """Every kernel that encodes one parameter set, by name: its matrix
    narrow and wide, and harmonic's chain, LCC's differences or Shamir's
    running sums where they run; and its decode vector narrow and wide."""
    handle = make_handle(params)
    p = params.field.p
    encoders = {"narrow": lambda cols, m: _apply_narrow(handle.matrix, cols, m, p),
                "wide": lambda cols, m: _apply_wide(handle.matrix, cols, m, p)}
    if handle.kind == "harmonic":
        encoders["chain"] = harmonic.residue_encoder(params)
    elif handle.kind == "lcc" and baselines.difference_ops(params) is not None:
        encoders["differences"] = baselines.lcc_residue_encoder(params)
    elif handle.kind == "shamir" and baselines.running_sum_ops(params) is not None:
        encoders["running sums"] = baselines.shamir_residue_encoder(params)
    decoders = {"narrow": lambda outs, n: _apply_narrow(handle.vector, outs, n, p),
                "wide": lambda outs, n: _apply_wide(handle.vector, outs, n, p)}
    return handle, encoders, decoders


@pytest.mark.parametrize("p", MERSENNE)
def test_every_kernel_folds_to_the_reference_at_mersenne_primes(p):
    # harmonic, LCC and Shamir at every K and d the prime has room for, on
    # random, all-zero and all-(p - 1) columns, at m = 1, 2 and 9: each
    # encode kernel's shares, and each decode kernel's sum of the shares as
    # worker outputs, equal the element-wise reference
    field = FieldConfig(p)
    rng = random.Random(f"fold-{p}")
    ran = set()
    for scheme, K, d in itertools.product(("harmonic", "lcc", "shamir"), (1, 2, 3, 8, 16),
                                          (1, 2, 3)):
        try:
            params = MODULE[scheme][0](field, K, d)
        except FieldTooSmallError:
            continue
        handle, encoders, decoders = fold_kernels(params)
        width = K + handle.num_keys
        for columns in ([sample_uniform_vector(rng, field, 9) for _ in range(width)],
                        [field.zero_vector(9)] * width, [field.vector([p - 1] * 9)] * width):
            want = [s.values() for s in reference_apply(field, handle.matrix.rows, columns)]
            f = reference_apply(field, [handle.vector.weights], [field.vector(w) for w in want])
            for m in (1, 2, 9):
                cols = [c.values()[:m] for c in columns]
                shares = [w[:m] for w in want]
                for name, encode in encoders.items():
                    assert encode(cols, m) == shares, (scheme, K, d, m, name)
                    ran.add((scheme, name))
                for name, decode in decoders.items():
                    assert decode(shares, m) == [f[0].values()[:m]], (scheme, K, d, m, name)
    # every kernel ran, Shamir's running sums at each prime and LCC's
    # differences at each but 3, where LCC takes the short-field layout
    kernels = {("harmonic", "chain"), ("shamir", "running sums"),
               *itertools.product(("harmonic", "lcc", "shamir"), ("narrow", "wide"))}
    assert ran == kernels | ({("lcc", "differences")} if p > 3 else set())


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
            shares = make_handle(params).encode(data, [z])
            assert shares == matrix.apply(data, z)
            assert shares == reference_apply(field, matrix.rows, list(data.items) + [z])
