"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
timings. Every comparison is exact field arithmetic; there are no
tolerances anywhere.
"""

import contextlib
import itertools
import math
import random
import time

from harmcode.baselines import (
    FreshmanParams,
    lcc_params,
    shamir_params,
)
from harmcode.cli import main
from harmcode.errors import FieldTooSmallError
from harmcode.field import FieldConfig, sample_uniform_vector
from harmcode.harmonic import (
    EncodeStats,
    decode_vector,
    encode,
    encoding_matrix,
    group_coeffs,
    select_params,
    validate_params,
    HarmonicParams,
)
from harmcode.poly import (
    Dataset,
    PolyMap,
    direct_gradient_sum,
    multilinearize,
    random_dataset,
    random_poly,
)
from harmcode.sim import (
    ClearStorageScheme,
    make_handle,
    privacy_audit_exhaustive,
    run_trial,
    worker_count_table,
)


@contextlib.contextmanager
def criterion(label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"{label}: FAIL ({time.perf_counter() - start:.2f}s)")
        raise
    print(f"{label}: PASS ({time.perf_counter() - start:.2f}s)")


GRID_PRIMES = (7, 11, 13)


def grid_cells():
    """The randomized-validity grid: p >= K + d + 2 throughout."""
    for p in GRID_PRIMES:
        for K in (1, 2, 3):
            for d in (1, 2, 3):
                if p >= K + d + 2:
                    for m in (1, 2):
                        for n in (1, 2):
                            yield p, K, d, m, n


def test_criterion_01_worked_example_reproduction(capsys):
    with criterion("criterion 01 (worked-example reproduction)"):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "P0 = (0, 0, 1)" in out
        assert "P1 = (3, 0, 3)" in out
        assert "P2 = (2, 2, 2)" in out
        assert "worker 1: (0, 0, 1)" in out
        assert "worker 2: (2, 0, 4)" in out
        assert "worker 3: (4, 3, 4)" in out
        assert "worker 4: (2, 2, 2)" in out
        assert "decode vector: (2, 1, 3, 1)" in out
        assert "100/100 trials exact" in out
        assert "all reference values reproduced" in out


def test_criterion_02_worker_count_optimum():
    with criterion("criterion 02 (worker-count optimum)"):
        field = FieldConfig(101)
        rng = random.Random(2)
        for K in range(1, 11):
            for d in range(1, 6):
                hp = select_params(field, K, d)
                assert hp.N == K * (d - 1) + 2
                lp = lcc_params(field, K, d)
                assert lp.N == K * d + 1
                sp = shamir_params(field, K, d)
                assert sp.N == K * (d + 1)
                data = random_dataset(rng, field, K, 1)
                z = sample_uniform_vector(rng, field, 1)
                assert len(encode(hp, data, z)) == hp.N
                rows = {r.scheme: r.workers for r in worker_count_table(K, d)}
                assert rows == {"harmonic": K * (d - 1) + 2, "lcc": K * d + 1,
                                "shamir": K * (d + 1), "freshman": 2}
        # the roughly-K vs 2K vs 3K regime at K=10, d=2
        rows = {r.scheme: r.workers for r in worker_count_table(10, 2)}
        assert (rows["harmonic"], rows["lcc"], rows["shamir"]) == (12, 21, 30)


def test_criterion_03_validity_exhaustive_f5():
    with criterion("criterion 03 (exhaustive validity, p=5 K=2 d=2)"):
        field = FieldConfig(5)
        params = select_params(field, 2, 2)
        vec = decode_vector(params)
        share_sets = []
        for x1, x2, z in itertools.product(range(5), repeat=3):
            data = Dataset([field.vector([x1]), field.vector([x2])])
            share_sets.append((data, encode(params, data, field.vector([z]))))
        assert len(share_sets) == 125
        rng = random.Random(3)
        degrees = [2] * 12 + [1] * 8
        checks = 0
        mismatches = 0
        for d_poly in degrees:
            g = random_poly(rng, field, 1, 1, d_poly)
            for data, shares in share_sets:
                outputs = [g.eval(s) for s in shares]
                checks += 1
                if vec.apply(outputs) != direct_gradient_sum(g, data):
                    mismatches += 1
        assert checks == 2500
        assert mismatches == 0


def test_criterion_04_validity_randomized_grid():
    with criterion("criterion 04 (randomized validity grid)"):
        master = random.Random(20260401)
        trials_per_cell = 100
        totals = {"harmonic": 0, "shamir": 0, "lcc": 0, "freshman": 0}
        cells = {"harmonic": 0, "shamir": 0, "lcc": 0, "freshman": 0}
        exact = 0
        total = 0
        for p, K, d, m, n in grid_cells():
            field = FieldConfig(p)
            handles = [
                make_handle(select_params(field, K, d)),
                make_handle(shamir_params(field, K, d)),
            ]
            try:
                handles.append(make_handle(lcc_params(field, K, d)))
            except FieldTooSmallError:
                pass
            # freshman needs d equal to the characteristic: no cell qualifies
            assert d != p
            for handle in handles:
                cells[handle.kind] += 1
            for _ in range(trials_per_cell):
                g = random_poly(master, field, m, n, d)
                data = random_dataset(master, field, K, m)
                seed = master.randrange(2**32)
                for handle in handles:
                    report = run_trial(handle, g, data, seed)
                    total += 1
                    exact += report.exact_match
                    totals[handle.kind] += 1
        assert exact == total
        n_cells = len(list(grid_cells()))
        assert cells["harmonic"] == cells["shamir"] == n_cells
        assert cells["lcc"] > 0
        assert cells["freshman"] == 0


def test_criterion_05_privacy_exhaustive():
    with criterion("criterion 05 (exhaustive privacy audits)"):
        f5 = FieldConfig(5)
        f3 = FieldConfig(3)
        handles = [
            make_handle(select_params(f5, 2, 2)),
            make_handle(shamir_params(f5, 2, 2)),
            make_handle(lcc_params(f5, 2, 1)),  # the only LCC size that fits F_5, K=2
            make_handle(FreshmanParams(f3, 2, 1, 1, [[1]])),
        ]
        for handle in handles:
            report = privacy_audit_exhaustive(handle, m=1)
            assert report.all_private, handle.kind
            assert report.mi_bits_per_worker == (0.0,) * handle.worker_count
        leaky = ClearStorageScheme(make_handle(select_params(f5, 2, 2)))
        report = privacy_audit_exhaustive(leaky, m=1)
        assert not report.all_private
        assert math.isclose(report.mi_bits_per_worker[0], math.log2(5), rel_tol=1e-12)


def test_criterion_06_telescoping_identity():
    with criterion("criterion 06 (telescoping A_{j+1} = B_j)"):
        from harmcode.harmonic import _forbidden_betas

        rng = random.Random(6)
        draws = 0
        while draws < 1000:
            p = rng.choice([11, 101, 65537])
            field = FieldConfig(p)
            K = rng.randint(2, 5)
            d = rng.randint(1, 5)
            c = rng.randrange(K + 1, p)
            bad = _forbidden_betas(field, K, c)
            pool = [v for v in range(2, min(p, 4000)) if v not in bad]
            if len(pool) < d - 1:
                continue
            rng.shuffle(pool)
            params = HarmonicParams(field, K, d, c, tuple(pool[:d - 1]))
            assert validate_params(params) == []
            for j in range(1, K):
                assert group_coeffs(params, j + 1).a == group_coeffs(params, j).b
            draws += 1


def test_criterion_07_universality():
    with criterion("criterion 07 (universality and degree robustness)"):
        rng = random.Random(7)
        for p, K, d in [(11, 3, 2), (13, 2, 3)]:
            field = FieldConfig(p)
            reference_matrix = encoding_matrix(select_params(field, K, d))
            reference_vector = decode_vector(select_params(field, K, d))
            for _ in range(10):
                g = random_poly(rng, field, 2, 1, d)
                params = select_params(field, K, d)
                assert encoding_matrix(params) == reference_matrix
                assert decode_vector(params) == reference_vector
                # the scheme also decodes g and every lower degree exactly
                handle = make_handle(params)
                data = random_dataset(rng, field, K, 2)
                assert run_trial(handle, g, data, rng.randrange(2**32)).exact_match
            for d_low in range(1, d):
                for _ in range(5):
                    g = random_poly(rng, field, 2, 1, d_low)
                    data = random_dataset(rng, field, K, 2)
                    handle = make_handle(select_params(field, K, d))
                    assert run_trial(handle, g, data, rng.randrange(2**32)).exact_match


def test_criterion_08_multilinearization():
    with criterion("criterion 08 (multilinear blend properties)"):
        rng = random.Random(8)
        for d, p in [(2, 5), (3, 7), (3, 11)]:
            assert p > d
            field = FieldConfig(p)
            g = random_poly(rng, field, 1, 1, d)
            ml = multilinearize(g, d)
            nonzero_seen = False
            for _ in range(100):
                blocks = [sample_uniform_vector(rng, field, 1) for _ in range(d)]
                u = sample_uniform_vector(rng, field, 1)
                v = sample_uniform_vector(rng, field, 1)
                a = field.element(rng.randrange(p))
                for slot in range(d):
                    plus = list(blocks)
                    plus[slot] = u + v
                    with_u = list(blocks)
                    with_u[slot] = u
                    with_v = list(blocks)
                    with_v[slot] = v
                    assert ml(plus) == ml(with_u) + ml(with_v)
                    scaled = list(blocks)
                    scaled[slot] = u.scale(a)
                    assert ml(scaled) == ml(with_u).scale(a)
                if ml(blocks).values() != (0,):
                    nonzero_seen = True
            assert nonzero_seen  # p > d guarantees the blend is not the zero map
        # frozen algebra: g(x) = x^2 blends to 2*x1*x2, checked on all of F_5^2
        f5 = FieldConfig(5)
        ml = multilinearize(PolyMap.univariate(f5, [0, 0, 1]), 2)
        for x1 in range(5):
            for x2 in range(5):
                got = ml([f5.vector([x1]), f5.vector([x2])])
                assert got.values() == (2 * x1 * x2 % 5,)


def test_criterion_09_characteristic_sharpness():
    with criterion("criterion 09 (two workers at char = degree)"):
        rng = random.Random(9)
        for p in [2, 3, 5]:
            field = FieldConfig(p)
            for K in [1, 2, 3]:
                harmonic_bound = K * (p - 1) + 2
                matrix = [[1]]
                handle = make_handle(FreshmanParams(field, K, 1, 1, matrix))
                assert handle.worker_count == 2 < harmonic_bound
                for _ in range(20):
                    data = random_dataset(rng, field, K, 1)
                    report = run_trial(handle, None, data, rng.randrange(2**32))
                    assert report.exact_match
                    assert report.worker_evals == 2


def test_criterion_10_encoder_linearity():
    with criterion("criterion 10 (encoder operation bound)"):
        rng = random.Random(10)
        for p, K, d, m, n in grid_cells():
            field = FieldConfig(p)
            params = select_params(field, K, d)
            stats = EncodeStats()
            data = random_dataset(rng, field, K, m)
            z = sample_uniform_vector(rng, field, m)
            shares = encode(params, data, z, stats)
            assert len(shares) == params.N
            assert stats.two_term_combos <= 2 * params.N
