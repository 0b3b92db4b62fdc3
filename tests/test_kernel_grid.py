"""tools/kernel_grid.py compares two trees' kernels case by case and times
them."""

import argparse
import importlib.util
import json
import os
import shutil

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_kernel_grid():
    spec = importlib.util.spec_from_file_location(
        "kernel_grid", os.path.join(ROOT, "tools", "kernel_grid.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def equivalence_of(tmp_path, old=None, new=None):
    """The small grid's equivalence report of this tree against a copy of
    its src with ``old`` replaced by ``new`` in baselines.py."""
    src = tmp_path / "src"
    shutil.copytree(os.path.join(ROOT, "src"), src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    if old is not None:
        path = src / "harmcode" / "baselines.py"
        text = path.read_text()
        assert text.count(old) == 1
        path.write_text(text.replace(old, new))
    return load_kernel_grid().equivalence(str(src), "small")


def test_the_tree_is_equivalent_to_itself(tmp_path):
    code, report = equivalence_of(tmp_path)
    assert code == 0
    # (p, K, m) each once for freshman, whose d is p, and at both d for the
    # other three
    assert report["cases"] == 2 * 2 * 5 + 3 * 2 * 2 * 2 * 5
    assert report["counts"] == {"shares": 0, "decoded": 0, "kernel": 0, "refused": 0}


def test_a_kernel_change_is_reported_and_not_failed(tmp_path):
    # a parent whose Shamir handles have no running sums applies the matrix:
    # the same shares from another kernel
    code, report = equivalence_of(tmp_path, "return 2 * params.K, 0, params.N, params.N",
                                  "return None")
    assert code == 0
    kernels = report["differences"]["kernel"]
    assert kernels and {(was, now) for _, was, now in kernels} <= {("narrow", "own"),
                                                                  ("wide", "own")}
    assert {key.split()[0] for key, _, _ in kernels} == {"shamir"}
    assert report["counts"]["shares"] == report["counts"]["decoded"] == 0


def test_a_share_change_fails(tmp_path):
    code, report = equivalence_of(tmp_path, "share += z\n", "share += z if shares else 0\n")
    assert code == 1
    assert report["counts"]["shares"] > 0 and report["counts"]["kernel"] == 0


def test_timing_times_each_kernel_that_runs(tmp_path):
    out = tmp_path / "timing.json"
    kernel_grid = load_kernel_grid()
    assert kernel_grid.main(["timing", "--scheme", "shamir", "--p", "3,7", "--K", "1",
                             "--d", "2", "--m", "1,4", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    # Shamir at d = 2 needs p >= 4, so p = 3 is skipped; at p = 7 its
    # running sums run from m = 3
    assert [(row["p"], row["m"], sorted(row["us"]), row["taken"]) for row in
            report["rows"]] == [(7, 1, ["narrow", "own", "wide"], "narrow"),
                                (7, 4, ["narrow", "own", "wide"], "own")]
    assert report["shapes"] == 2 and 0 <= report["taken_within"] <= 2


def test_default_timing_shapes_are_the_workloads(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import specs

    kernel_grid = load_kernel_grid()
    shapes = kernel_grid.timing_shapes(argparse.Namespace(scheme=None, p=None, K=None,
                                                          d=None, m=None))
    sizes = [specs.WIDE, specs.MANY_INPUTS, specs.FILE_PIPELINE]
    assert shapes[:9] == [(s, w["p"], w["K"], w["d"], w["m"]) for w in sizes
                          for s in specs.SCHEMES]
    # one audit-tiny call takes every value of X_1 under every X_2 and key
    # value: p^(K + num_keys) coordinates at m = 1
    assert shapes[9:] == [("harmonic", 11, 2, 2, 11**3), ("lcc", 7, 2, 2, 7**3),
                          ("shamir", 5, 2, 2, 5**4)]
