"""Every scheme as one linear code: the handle, the module functions and the
encoding matrix / decode vector must agree share for share."""

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
                             _apply_wide, _layout, _residues)
from harmcode.poly import Dataset, direct_gradient_sum, random_dataset, random_poly
from harmcode.sim import SCHEMES, ClearStorageScheme, make_handle
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
    handle = make_handle(select_params(FieldConfig(13), 3, 2))
    rng = random.Random(1)
    data = random_dataset(rng, handle.field, 3, 2)
    handle.encode(data, [sample_uniform_vector(rng, handle.field, 2)])
    assert "matrix" not in vars(handle)


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
    """Whether ``_apply_rows`` sends a matrix's or vector's plan to the narrow
    kernel at m coordinates, as observed through the dispatch itself."""
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
    layout's bound; each as (rows, plan)."""
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


@pytest.mark.parametrize("p", [2, 3, 5, TOP])
def test_both_kernels_agree_on_every_shape(p):
    # one-row maps (decode vectors) and all-zero rows included; columns random,
    # and every coordinate p - 1, the worst slot; every m in 1..9 and 128
    field = FieldConfig(p)
    rng = random.Random(f"kernel-grid-{p}")
    for rows, plan in grid_maps(rng, p):
        for m in list(range(1, 10)) + [128]:
            for columns in ([sample_uniform_vector(rng, field, m) for _ in rows[0]],
                            [field.vector([p - 1] * m)] * len(rows[0])):
                want = [s.values() for s in reference_apply(field, rows, columns)]
                cols = [c.values() for c in columns]
                assert _apply_wide(plan, cols, m, p) == want
                assert _apply_narrow(plan, cols, m, p) == want
                assert linear._apply_rows(plan, cols, m, p) == want


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
    # shape (K = 8, d = 3, m = 512) a slot sums below 5 (p - 1) < 2^34, so
    # its slots are 8 bytes, one count code, where 2 (p - 1)^2 took 12
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
    layout = _layout(m, p, terms * (p - 1) ** 2)
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


@pytest.mark.parametrize("p", [5, 7, 11, 101])
def test_eight_byte_slots_are_one_count_code(p):
    # 10,201 slots: the p = 101 harmonic audit's encode width
    rng = random.Random(p)
    for m in (1, 25, 10_201):
        slots = _layout(m, p, 4 * (p - 1) ** 2)[-1]
        assert slots.size == 8 * m
        assert slots.format == f"<{m}Q"  # one code however many slots
        values = [rng.randrange(p) for _ in range(m)]
        per_slot = struct.Struct("<" + "Q" * m)
        packed = slots.pack(*values)
        assert packed == per_slot.pack(*values)
        assert slots.unpack(packed) == per_slot.unpack(packed) == tuple(values)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
@pytest.mark.parametrize("terms", [0, 1, 2, 3, 4])
def test_residues_of_every_slot_sum(p, terms):
    top = terms * (p - 1) ** 2
    sums = list(range(top + 1))
    layout = _layout(len(sums), p, top)
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
    layout = _layout(len(sums), p, top)
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
            shares = make_handle(params).encode(data, [z])
            assert shares == matrix.apply(data, z)
            assert shares == reference_apply(field, matrix.rows, list(data.items) + [z])
