"""Trial harness, scheme handles, and the exhaustive privacy auditor."""

import json
import math
import random

import pytest

from harmcode.errors import (
    BudgetExceededError,
    ConstantPolynomialError,
    DegreeMismatchError,
    DimensionMismatchError,
    SchemaViolationError,
)
from harmcode.baselines import FreshmanParams, lcc_params, shamir_params
from harmcode.field import FieldConfig
from harmcode.harmonic import encoding_matrix, select_params
from harmcode.poly import Dataset, PolyMap, random_dataset, random_poly
from harmcode.sim import (
    SCHEMES,
    ClearStorageScheme,
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
    params = FreshmanParams(field, 2, 1, 1, [[field.one()]])
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


def test_trial_report_json_keys():
    report = run_trial(fixture_handle(), quadratic_g(),
                       Dataset([F5.vector([0]), F5.vector([1])]), seed=7)
    doc = json.loads(json.dumps(report.to_json()))
    for key in ["scheme", "p", "K", "d", "m", "n", "seed", "exact_match",
                "decoded", "oracle", "worker_evals", "num_keys"]:
        assert key in doc
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
    freshman = make_handle(FreshmanParams(f3, 2, 1, 1, [[f3.one()]]))
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


def test_audit_zeroed_key_column_fails():
    # Z-coefficient-zeroing fault: rebuild the fixture's encoding rows with
    # the key column forced to 0 and audit the resulting raw-matrix scheme.
    params = select_params(F5, 2, 2, c=4, betas=[4])
    rows = [list(r) for r in encoding_matrix(params).int_rows()]
    for r in rows:
        r[-1] = 0

    class RawMatrixScheme:
        kind = "zeroed-key"
        num_keys = 1
        field = F5
        K = 2
        d = 2
        worker_count = 4

        def encode(self, data, keys):
            cols = [item.values() for item in data.items] + [keys[0].values()]
            shares = []
            for row in rows:
                acc = [0] * data.m
                for coeff, col in zip(row, cols):
                    acc = [(s + coeff * x) % 5 for s, x in zip(acc, col)]
                shares.append(F5.vector(acc))
            return shares

    report = privacy_audit_exhaustive(RawMatrixScheme())
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
    report = privacy_audit_exhaustive(fixture_handle())
    doc = json.loads(json.dumps(report.to_json()))
    for key in ["scheme", "p", "K", "d", "m", "mi_bits_per_worker",
                "conditional_equal_per_worker", "dataset_states", "key_states"]:
        assert key in doc


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
    assert make_handle(FreshmanParams(f3, 1, 1, 1, [[f3.one()]])).kind == "freshman"
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
