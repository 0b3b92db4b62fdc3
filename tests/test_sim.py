"""Trial harness, scheme handles, and the exhaustive privacy auditor."""

import itertools
import json
import math
import random
from collections import Counter

import pytest

from harmcode.errors import (
    BudgetExceededError,
    ConstantPolynomialError,
    DegreeMismatchError,
    DimensionMismatchError,
    FieldMismatchError,
    FieldTooSmallError,
    SchemaViolationError,
)
from harmcode.baselines import FreshmanParams, lcc_params, shamir_params
from harmcode.field import FieldConfig, sample_keys
from harmcode.harmonic import GroupCoeffs, encoding_matrix, select_params
from harmcode.poly import Dataset, PolyMap, direct_gradient_sum, random_dataset, random_poly
from harmcode.sim import (
    SCHEMES,
    ClearStorageScheme,
    PrivacyReport,
    Scheme,
    TrialReport,
    WorkerCountRow,
    make_handle,
    privacy_audit_exhaustive,
    run_trial,
    scheme_of,
    worker_count_table,
)

F5 = FieldConfig(5)


def fixture_handle():
    return make_handle(select_params(F5, 2, 2, c=4, betas=[4]))


def quadratic_g():
    return PolyMap.univariate(F5, [1, 2, 3])  # 3x^2 + 2x + 1


def test_run_trial_fixture_exact():
    report = run_trial(fixture_handle(), quadratic_g(),
                       Dataset([F5.vector([1]), F5.vector([4])]), seed=99)
    assert report.exact_match
    assert report.scheme == "harmonic"
    assert report.worker_evals == 4
    assert report.num_keys == 1


def test_run_trial_deterministic():
    data = Dataset([F5.vector([2]), F5.vector([3])])
    a = run_trial(fixture_handle(), quadratic_g(), data, seed=5)
    b = run_trial(fixture_handle(), quadratic_g(), data, seed=5)
    assert a == b


def test_run_trial_k1_linear_all_schemes():
    field = FieldConfig(11)
    g = PolyMap.univariate(field, [4, 6])
    data = Dataset([field.vector([9])])
    handles = [
        make_handle(select_params(field, 1, 1)),
        make_handle(shamir_params(field, 1, 1)),
        make_handle(lcc_params(field, 1, 1)),
    ]
    for handle in handles:
        assert run_trial(handle, g, data, seed=3).exact_match


def test_run_trial_seed_sweep_small_grid():
    rng = random.Random(12)
    for p, K, d in [(11, 2, 2), (13, 3, 2), (11, 1, 3)]:
        field = FieldConfig(p)
        handles = [
            make_handle(select_params(field, K, d)),
            make_handle(shamir_params(field, K, d)),
            make_handle(lcc_params(field, K, d)),
        ]
        for seed in range(20):
            g = random_poly(rng, field, 2, 1, d)
            data = random_dataset(rng, field, K, 2)
            for handle in handles:
                assert run_trial(handle, g, data, seed).exact_match


def test_run_trial_freshman_builtin_g():
    field = FieldConfig(3)
    params = FreshmanParams(field, 2, 1, 1, [[1]])
    handle = make_handle(params)
    data = Dataset([field.vector([1]), field.vector([2])])
    report = run_trial(handle, None, data, seed=1)
    assert report.exact_match
    assert report.d == 3
    with pytest.raises(ValueError):
        run_trial(handle, PolyMap.univariate(field, [0, 1]), data, seed=1)


def test_run_trial_rejections():
    handle = fixture_handle()
    data = Dataset([F5.vector([1]), F5.vector([2])])
    with pytest.raises(ConstantPolynomialError):
        run_trial(handle, PolyMap.univariate(F5, [3]), data, seed=0)
    with pytest.raises(DegreeMismatchError):
        run_trial(handle, PolyMap.univariate(F5, [0, 0, 0, 1]), data, seed=0)
    with pytest.raises(ValueError):
        run_trial(handle, None, data, seed=0)
    with pytest.raises(DimensionMismatchError):
        run_trial(handle, quadratic_g(), Dataset([F5.vector([1])]), seed=0)
    g2 = PolyMap.from_terms(F5, 2, [[(1, (1, 1))]])
    with pytest.raises(DimensionMismatchError, match="g expects m=2, data has m=1"):
        run_trial(handle, g2, data, seed=0)


def test_run_trial_refuses_g_over_another_field():
    # the texts g.eval and the encoders give: g against the data, then the
    # data against the code
    F7 = FieldConfig(7)
    data = Dataset([F5.vector([1]), F5.vector([2])])
    for handle in (fixture_handle(), make_handle(lcc_params(F5, 2, 1)),
                   make_handle(shamir_params(F5, 2, 2))):
        with pytest.raises(FieldMismatchError, match="input vector from a different field"):
            run_trial(handle, PolyMap.univariate(F7, [0, 1]), data, seed=0)
        with pytest.raises(FieldMismatchError, match="dataset over F_7, code over F_5"):
            run_trial(handle, PolyMap.univariate(F7, [0, 1]),
                      Dataset([F7.vector([1]), F7.vector([2])]), seed=0)


def residue_path_handles():
    """(label, handle, g or None, data, seed): every scheme, freshman (g =
    None) included, and a ClearStorageScheme mutant of each, at p in
    {5, 7, 11, 2^31 - 1}, K <= 4, d <= 3 and m in {1, 4, 9}, wherever the
    field has room."""
    rng = random.Random(2026)
    for p in (5, 7, 11, 2**31 - 1):
        field = FieldConfig(p)
        for K, d, m in itertools.product(range(1, 5), range(1, 4), (1, 4, 9)):
            n = rng.randint(1, 3)
            g = random_poly(rng, field, m, n, d)
            data = random_dataset(rng, field, K, m)
            matrix = [[rng.randrange(p) for _ in range(m)] for _ in range(n)]
            matrix[0][0] = 1
            builds = [(lambda f, K, d: FreshmanParams(f, K, m, n, matrix), None),
                      (select_params, g), (lcc_params, g), (shamir_params, g)]
            for build, worker_g in builds:
                try:
                    handle = make_handle(build(field, K, d))
                except FieldTooSmallError:
                    continue
                leaky = ClearStorageScheme(handle, rng.randrange(handle.worker_count))
                for code in (handle, leaky):
                    yield (f"{code.kind}-{p}-{K}-{d}-{m}", code, worker_g, data,
                           rng.randrange(2**32))


def test_run_trial_on_residues_matches_the_public_path():
    kinds = set()
    for label, handle, g, data, seed in residue_path_handles():
        kinds.add(handle.kind)
        report = run_trial(handle, g, data, seed)
        worker = (handle.worker_fn if g is None else g).eval
        keys = sample_keys(random.Random(seed), handle.field, handle.num_keys, data.m)
        shares = handle.encode(data, keys)
        decoded = handle.decode([worker(s) for s in shares]).values()
        oracle = (direct_gradient_sum(g, data).values() if g is not None else
                  tuple(sum(col) % handle.field.p
                        for col in zip(*[worker(x).values() for x in data.items])))
        assert report.decoded == decoded, label
        assert report.oracle == oracle, label
        assert report.exact_match == (decoded == oracle), label
        assert report.exact_match or handle.kind.startswith("leaky-"), label
    assert kinds == {kind + scheme for kind in ("", "leaky-")
                     for scheme in ("freshman", "harmonic", "lcc", "shamir")}


def assert_json_is_fields_in_order(report, keys):
    # validate and privacy-audit print to_json unsorted, so the key order is
    # part of their output; every tuple field comes out as a list
    doc = report.to_json()
    assert list(doc) == keys
    for key in keys:
        value = getattr(report, key)
        expected = list(value) if isinstance(value, tuple) else value
        assert type(doc[key]) is type(expected) and doc[key] == expected


@pytest.mark.parametrize("record,fields,defaults,example,text", [
    (TrialReport, ("scheme", "p", "K", "d", "m", "n", "seed", "decoded", "oracle",
                   "exact_match", "worker_evals", "num_keys"), {},
     TrialReport("lcc", 13, 2, 2, 1, 1, 5, (1,), (1,), True, 5, 1),
     "TrialReport(scheme='lcc', p=13, K=2, d=2, m=1, n=1, seed=5, decoded=(1,), "
     "oracle=(1,), exact_match=True, worker_evals=5, num_keys=1)"),
    (PrivacyReport, ("scheme", "p", "K", "d", "m", "mi_bits_per_worker",
                     "conditional_equal_per_worker", "dataset_states", "key_states"), {},
     PrivacyReport("lcc", 7, 2, 2, 1, (0.0,), (True,), 49, 7),
     "PrivacyReport(scheme='lcc', p=7, K=2, d=2, m=1, mi_bits_per_worker=(0.0,), "
     "conditional_equal_per_worker=(True,), dataset_states=49, key_states=7)"),
    (Scheme, ("name", "params_type", "defaults", "build_matrix", "build_vector", "scalars",
              "lists", "from_points", "keys_per_input", "fast_encode", "worker_fn"),
     {"scalars": (), "lists": (), "from_points": None, "keys_per_input": False,
      "fast_encode": None, "worker_fn": None},
     Scheme("x", int, len, len, len),
     "Scheme(name='x', params_type=<class 'int'>, defaults=<built-in function len>, "
     "build_matrix=<built-in function len>, build_vector=<built-in function len>, "
     "scalars=(), lists=(), from_points=None, keys_per_input=False, fast_encode=None, "
     "worker_fn=None)"),
    (WorkerCountRow, ("scheme", "workers", "special_case_only"), {"special_case_only": False},
     WorkerCountRow("lcc", 5), "WorkerCountRow(scheme='lcc', workers=5, special_case_only=False)"),
    (GroupCoeffs, ("weights", "a", "b"), {}, GroupCoeffs((1, 2), 3, 4),
     "GroupCoeffs(weights=(1, 2), a=3, b=4)"),
])
def test_records_keep_their_fields_defaults_and_repr(record, fields, defaults, example, text):
    assert record._fields == fields
    assert record._field_defaults == defaults
    assert repr(example) == text
    assert record.__doc__ and not hasattr(example, "__dict__")


def test_trial_report_json_keys():
    report = run_trial(fixture_handle(), quadratic_g(),
                       Dataset([F5.vector([0]), F5.vector([1])]), seed=7)
    assert isinstance(report.decoded, tuple) and isinstance(report.oracle, tuple)
    assert_json_is_fields_in_order(report, [
        "scheme", "p", "K", "d", "m", "n", "seed", "decoded", "oracle",
        "exact_match", "worker_evals", "num_keys"])
    doc = json.loads(json.dumps(report.to_json()))
    assert doc["exact_match"] is True


# ---------------------------------------------------------------------------
# privacy auditor


def test_audit_harmonic_f5():
    report = privacy_audit_exhaustive(fixture_handle())
    assert report.mi_bits_per_worker == (0.0, 0.0, 0.0, 0.0)
    assert report.conditional_equal_per_worker == (True, True, True, True)
    assert report.all_private
    assert report.dataset_states == 25
    assert report.key_states == 5


def test_audit_shamir_lcc_freshman_small():
    shamir = make_handle(shamir_params(F5, 2, 2))
    assert privacy_audit_exhaustive(shamir).all_private
    lcc = make_handle(lcc_params(F5, 2, 1))
    assert privacy_audit_exhaustive(lcc).all_private
    f3 = FieldConfig(3)
    freshman = make_handle(FreshmanParams(f3, 2, 1, 1, [[1]]))
    assert privacy_audit_exhaustive(freshman).all_private


def test_audit_clear_storage_leak_detected():
    leaky = ClearStorageScheme(fixture_handle(), leak_worker=0)
    report = privacy_audit_exhaustive(leaky)
    assert not report.all_private
    assert report.conditional_equal_per_worker[0] is False
    assert all(report.conditional_equal_per_worker[1:])
    # leaking X_1 under a uniform prior carries exactly log2(p) bits
    assert math.isclose(report.mi_bits_per_worker[0], math.log2(5),rel_tol=1e-12)
    assert report.mi_bits_per_worker[1:] == (0.0, 0.0, 0.0)
    for worker in (-1, 4):
        with pytest.raises(IndexError, match=r"outside \[0, 4\)"):
            ClearStorageScheme(fixture_handle(), leak_worker=worker)


class RawMatrixScheme:
    """A scheme that applies raw integer rows with the reference kernel,
    so it can carry rows that EncodingMatrix refuses."""

    kind = "zeroed-key"
    num_keys = 1
    d = 2

    def __init__(self, field, K, rows):
        self.field = field
        self.K = K
        self.rows = rows
        self.worker_count = len(rows)

    def encode(self, data, keys):
        p = self.field.p
        cols = [item.values() for item in data.items] + [keys[0].values()]
        shares = []
        for row in self.rows:
            acc = [0] * data.m
            for coeff, col in zip(row, cols):
                acc = [(s + coeff * x) % p for s, x in zip(acc, col)]
            shares.append(self.field.vector(acc))
        return shares


def zeroed_key_scheme():
    """Z-coefficient-zeroing fault: the fixture's encoding rows with the key
    column forced to 0."""
    params = select_params(F5, 2, 2, c=4, betas=[4])
    rows = [list(r) for r in encoding_matrix(params).rows]
    for r in rows:
        r[-1] = 0
    return RawMatrixScheme(F5, 2, rows)


def test_audit_zeroed_key_column_fails():
    report = privacy_audit_exhaustive(zeroed_key_scheme())
    assert not report.all_private
    assert not any(report.conditional_equal_per_worker[1:])  # every blend leaks
    # head row becomes all-zero: constant share, private but useless
    assert report.conditional_equal_per_worker[0] is True


def test_audit_budget():
    handle = make_handle(select_params(FieldConfig(101), 2, 2))
    with pytest.raises(BudgetExceededError):
        privacy_audit_exhaustive(handle, m=1, budget=1000)
    # m=2 multiplies the state space: p^(K*2) * p^2
    report = privacy_audit_exhaustive(fixture_handle(), m=2, budget=10**7)
    assert report.all_private
    assert report.dataset_states == 5**4
    assert report.key_states == 5**2


def test_privacy_report_json_keys():
    for handle in (fixture_handle(), ClearStorageScheme(fixture_handle())):
        report = privacy_audit_exhaustive(handle)
        assert isinstance(report.mi_bits_per_worker, tuple)
        assert isinstance(report.conditional_equal_per_worker, tuple)
        assert_json_is_fields_in_order(report, [
            "scheme", "p", "K", "d", "m", "mi_bits_per_worker",
            "conditional_equal_per_worker", "dataset_states", "key_states"])
        json.dumps(report.to_json())


def reference_audit(scheme, m=1):
    """The per-state auditor: one encode per (dataset, key) pair, each on m
    coordinates, counted share by share. The batched auditor must give the
    same report, floats included."""
    field, K, nkeys = scheme.field, scheme.K, scheme.num_keys
    p = field.p
    dataset_states = p ** (K * m)
    key_states = p ** (nkeys * m)
    total = dataset_states * key_states
    N = scheme.worker_count
    all_keys = [[field.vector(z_flat[i * m:(i + 1) * m]) for i in range(nkeys)]
                for z_flat in itertools.product(range(p), repeat=nkeys * m)]
    counts = [[] for _ in range(N)]
    for x_flat in itertools.product(range(p), repeat=K * m):
        data = Dataset([field.vector(x_flat[i * m:(i + 1) * m]) for i in range(K)])
        per_worker = [Counter() for _ in range(N)]
        for keys in all_keys:
            for w, share in enumerate(scheme.encode(data, keys)):
                per_worker[w][share.values()] += 1
        for w in range(N):
            counts[w].append(per_worker[w])
    cond_equal, mi_bits = [], []
    for per_x in counts:
        equal = all(c == per_x[0] for c in per_x)
        cond_equal.append(equal)
        mi = 0.0
        if not equal:
            marginal = Counter()
            for c in per_x:
                marginal.update(c)
            for c in per_x:
                for share, j in c.items():
                    mi += (j / total) * math.log2(j * total / (key_states * marginal[share]))
        mi_bits.append(mi)
    return PrivacyReport(scheme.kind, p, K, scheme.d, m, tuple(mi_bits), tuple(cond_equal),
                         dataset_states, key_states)


REFERENCE_BUDGET = 20_000


def fitting_handles(p):
    """Every scheme's default handle over F_p at K, d in {1, 2} (freshman at
    d = p) that the field is large enough for."""
    field = FieldConfig(p)
    handles = []
    for name, scheme in SCHEMES.items():
        for K in (1, 2):
            for d in ((p,) if name == "freshman" else (1, 2)):
                try:
                    handles.append(make_handle(scheme.params(field, K, d)))
                except FieldTooSmallError:
                    continue
    return handles


def assert_same_report(scheme, m):
    batched = privacy_audit_exhaustive(scheme, m=m).to_json()
    reference = reference_audit(scheme, m).to_json()
    assert json.dumps(batched, sort_keys=True) == json.dumps(reference, sort_keys=True)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_batched_audit_matches_per_state_reference(p):
    cases = 0
    for handle in fitting_handles(p):
        for m in (1, 2):
            if p ** ((handle.K + handle.num_keys) * m) <= REFERENCE_BUDGET:
                assert_same_report(handle, m)
                cases += 1
    assert cases == {3: 12, 5: 24, 7: 21, 11: 21}[p]


def test_batched_audit_matches_reference_on_faults():
    f3, f7 = FieldConfig(3), FieldConfig(7)
    inners = [(fixture_handle(), (1, 2)),
              (make_handle(lcc_params(f7, 2, 2)), (1,)),
              (make_handle(lcc_params(F5, 1, 2)), (1, 2)),
              (make_handle(shamir_params(F5, 2, 2)), (1,)),
              (make_handle(shamir_params(F5, 1, 2)), (1, 2)),
              (make_handle(FreshmanParams(f3, 2, 1, 1, [[1]])), (1, 2))]
    for inner, ms in inners:
        for w in range(inner.worker_count):
            for m in ms:
                assert_same_report(ClearStorageScheme(inner, leak_worker=w), m)
    for m in (1, 2):
        assert_same_report(zeroed_key_scheme(), m)


def test_batched_audit_matches_reference_at_three_inputs():
    # K = 3 lays two X_2..X_K columns along the coordinates
    f7 = FieldConfig(7)
    for inner in (make_handle(select_params(f7, 3, 2)), make_handle(lcc_params(f7, 3, 1))):
        assert_same_report(inner, 1)
        for w in range(inner.worker_count):
            assert_same_report(ClearStorageScheme(inner, leak_worker=w), 1)


class TableScheme:
    """One worker at p = 3, K = 1, one key, whose share is TABLE[x][z]
    coordinate by coordinate. Its laws (0, 0, 1) and (0, 1, 1) share a
    support and differ only in multiplicity, so comparing sets would pass it."""

    kind = "table"
    field = FieldConfig(3)
    K = 1
    num_keys = 1
    d = 1
    worker_count = 1
    TABLE = ((0, 0, 1), (0, 1, 1), (0, 0, 1))

    def encode(self, data, keys):
        xs, zs = data.items[0].values(), keys[0].values()
        return [self.field.vector([self.TABLE[x][z] for x, z in zip(xs, zs)])]


def test_audit_flags_laws_that_differ_only_in_multiplicity():
    scheme = TableScheme()
    for m in (1, 2):
        report = privacy_audit_exhaustive(scheme, m=m)
        assert report.conditional_equal_per_worker == (False,)
        assert report.mi_bits_per_worker[0] > 0
        assert_same_report(scheme, m)


class CountingScheme:
    """Forwards to a handle and counts its encode calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def encode(self, data, keys):
        self.calls += 1
        return self.inner.encode(data, keys)


def test_audit_encodes_once_per_value_of_x1():
    for handle, m in [(fixture_handle(), 1), (fixture_handle(), 2),
                      (make_handle(shamir_params(F5, 2, 2)), 1)]:
        widths = []

        class WidthScheme(CountingScheme):
            def encode(self, data, keys):
                widths.append({v.dim for v in (*data.items, *keys)})
                return super().encode(data, keys)

        counting = WidthScheme(handle)
        report = privacy_audit_exhaustive(counting, m=m)
        assert counting.calls == 5 ** m
        # every X_2 value under every key tuple, m coordinates each
        W = 5 ** m * report.key_states * m
        assert widths == [{W}] * counting.calls


def test_audit_lays_x2_and_key_tuples_along_the_coordinates():
    # Shamir over F_3 at K=2, m=2: two keys, so the layout of X_2 and of
    # both keys shows
    f3, m = FieldConfig(3), 2
    handle = make_handle(shamir_params(f3, 2, 1))
    calls = []

    class RecordingScheme(CountingScheme):
        def encode(self, data, keys):
            calls.append(([x.values() for x in data.items], [z.values() for z in keys]))
            return self.inner.encode(data, keys)

    privacy_audit_exhaustive(RecordingScheme(handle), m=m)
    values = list(itertools.product(range(3), repeat=m))  # of X_1, and of X_2
    key_tuples = list(itertools.product(range(3), repeat=2 * m))
    W = len(values) * len(key_tuples) * m
    assert len(calls) == len(values)
    for (items, keys), x_1 in zip(calls, values):
        assert len(items) == len(keys) == 2
        assert all(len(v) == W for v in items + keys)
        assert items[0] == x_1 * (W // m)  # X_1 is constant within a call
        for r, x_2 in enumerate(values):
            for j, z in enumerate(key_tuples):
                for i in range(m):
                    c = (r * len(key_tuples) + j) * m + i
                    assert items[1][c] == x_2[i]
                    assert keys[0][c] == z[i]
                    assert keys[1][c] == z[m + i]


def test_audit_budget_checked_before_any_encode():
    class RaisingScheme(CountingScheme):
        def encode(self, data, keys):
            raise AssertionError("encode called before the budget check")

    handle = RaisingScheme(make_handle(select_params(FieldConfig(101), 2, 2)))
    with pytest.raises(BudgetExceededError):
        privacy_audit_exhaustive(handle, m=1, budget=1000)
    with pytest.raises(AssertionError):
        privacy_audit_exhaustive(handle, m=1, budget=101 ** 3)


@pytest.mark.parametrize("m", [0, -1])
def test_audit_refuses_m_below_one(m):
    # refused before the budget check, which a budget of 0 would fail
    with pytest.raises(DimensionMismatchError):
        privacy_audit_exhaustive(fixture_handle(), m=m, budget=0)


# ---------------------------------------------------------------------------
# worker counts and handles


def test_worker_count_table_examples():
    rows = {r.scheme: r for r in worker_count_table(10, 2)}
    assert (rows["harmonic"].workers, rows["lcc"].workers,
            rows["shamir"].workers) == (12, 21, 30)
    assert rows["freshman"].workers == 2
    assert rows["freshman"].special_case_only

    rows = {r.scheme: r.workers for r in worker_count_table(1, 1)}
    assert (rows["harmonic"], rows["lcc"], rows["shamir"]) == (2, 2, 2)

    rows = {r.scheme: r.workers for r in worker_count_table(2, 2)}
    assert (rows["harmonic"], rows["lcc"], rows["shamir"]) == (4, 5, 6)

    with pytest.raises(ValueError):
        worker_count_table(0, 1)


def test_make_handle_dispatch():
    assert make_handle(select_params(F5, 2, 2)).kind == "harmonic"
    assert make_handle(shamir_params(F5, 2, 2)).kind == "shamir"
    assert make_handle(lcc_params(F5, 2, 1)).kind == "lcc"
    f3 = FieldConfig(3)
    assert make_handle(FreshmanParams(f3, 1, 1, 1, [[1]])).kind == "freshman"
    with pytest.raises(TypeError):
        make_handle(object())


def test_handle_worker_counts_match_formulas():
    field = FieldConfig(101)
    for K in range(1, 5):
        for d in range(1, 4):
            assert make_handle(select_params(field, K, d)).worker_count \
                == K * (d - 1) + 2
            assert make_handle(shamir_params(field, K, d)).worker_count \
                == K * (d + 1)
            assert make_handle(lcc_params(field, K, d)).worker_count == K * d + 1


def test_scheme_table_defaults_and_points():
    # p=11, K=2, d=2 hosts every scheme but freshman, whose d is p
    field = FieldConfig(11)
    assert tuple(SCHEMES) == ("harmonic", "lcc", "shamir", "freshman")
    for name, scheme in SCHEMES.items():
        d = field.p if name == "freshman" else 2
        params = scheme.params(field, 2, d, m=3)
        assert scheme_of(params) is scheme
        handle = make_handle(params)
        assert (handle.kind, handle.d, handle.num_keys) == (
            name, d, 2 if scheme.keys_per_input else 1)
        assert (handle.worker_fn is None) == (scheme.worker_fn is None)
        # rebuilding from the stored points gives the same parameters
        points = {key: getattr(params, key) for key in scheme.scalars + scheme.lists}
        again = scheme.params(field, 2, d, m=3, **points)
        assert make_handle(again).matrix == handle.matrix
        assert make_handle(again).vector == handle.vector
    assert SCHEMES["freshman"].params(field, 2, 11, m=3).m == 3
    with pytest.raises(SchemaViolationError):
        SCHEMES["freshman"].params(field, 2, 2)
    with pytest.raises(TypeError):
        scheme_of(object())
