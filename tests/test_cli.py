"""The command-line surface: golden demo output, exit codes, file pipelines."""

import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import harmcode
from harmcode import cli
from harmcode.cli import main
from harmcode.errors import FieldTooSmallError
from harmcode.field import FieldConfig
from harmcode.fileio import load_decoded, load_shares, write_outputs
from harmcode.harmonic import select_params
from harmcode.poly import Dataset, PolyMap, direct_gradient_sum

DEMO_GOLDEN = """\
harmonic coding worked example (p=5, K=2, d=2, c=4, betas=[4])
masking chain coefficients over (X1, X2, Z):
  P0 = (0, 0, 1)
  P1 = (3, 0, 3)
  P2 = (2, 2, 2)
encoding matrix rows over (X1, X2, Z):
  worker 1: (0, 0, 1)
  worker 2: (2, 0, 4)
  worker 3: (4, 3, 4)
  worker 4: (2, 2, 2)
decode vector: (2, 1, 3, 1)
matrix quadratic g over F_5 (m=4, n=4): 100/100 trials exact
all reference values reproduced
"""


def test_demo_golden_output(capsys):
    assert main(["demo"]) == 0
    assert capsys.readouterr().out == DEMO_GOLDEN


def test_demo_tampered_anchor(capsys):
    assert main(["demo", "--c", "3"]) == 1
    out = capsys.readouterr().out
    assert "MISMATCH" in out
    assert "NOT reproduced" in out


def test_demo_invalid_override_is_config_error(capsys):
    # c=3 forbids beta=4, so forcing both is a parameter violation (exit 2).
    assert main(["demo", "--c", "3", "--betas", "4"]) == 2


def test_validate_harmonic(capsys):
    assert main(["validate", "--scheme", "harmonic", "--p", "11", "--K", "3",
                 "--d", "3", "--trials", "50", "--seed", "7"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 50
    for line in lines:
        doc = json.loads(line)
        assert doc["exact_match"] is True
        assert doc["scheme"] == "harmonic"
        assert doc["worker_evals"] == 8


def test_validate_stream_is_deterministic(capsys):
    args = ["validate", "--scheme", "lcc", "--p", "13", "--K", "2", "--d", "2",
            "--trials", "10", "--seed", "3"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_validate_freshman(capsys):
    assert main(["validate", "--scheme", "freshman", "--p", "5", "--d", "5",
                 "--trials", "20", "--seed", "1"]) == 0
    assert main(["validate", "--scheme", "freshman", "--p", "5", "--d", "4"]) == 2


def test_validate_with_task_file(tmp_path, capsys):
    task = tmp_path / "task.json"
    task.write_text(json.dumps({
        "p": 11, "m": 1, "n": 1,
        "g": [[{"coeff": 1, "exps": [2]}, {"coeff": 3, "exps": [0]}]],
    }))
    assert main(["validate", "--scheme", "harmonic", "--p", "11", "--K", "2",
                 "--d", "2", "--trials", "5", "--task", str(task)]) == 0
    capsys.readouterr()
    # run_trial refuses a task of degree above --d and a constant task
    # before the first trial line is printed
    const = tmp_path / "const.json"
    const.write_text(json.dumps({
        "p": 11, "m": 1, "n": 1, "g": [[{"coeff": 3, "exps": [0]}]],
    }))
    for task_file, d, message in ((task, "1", "degree 2"), (const, "2", "constant")):
        assert main(["validate", "--scheme", "harmonic", "--p", "11", "--K", "2",
                     "--d", d, "--trials", "5", "--task", str(task_file)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err


def test_validate_n_defaults_to_the_task_and_must_match_it(tmp_path, capsys):
    task = tmp_path / "task.json"
    task.write_text(json.dumps({
        "p": 11, "m": 1, "n": 2,
        "g": [[{"coeff": 1, "exps": [2]}], [{"coeff": 4, "exps": [1]}]],
    }))
    base = ["validate", "--scheme", "harmonic", "--p", "11", "--K", "2", "--d", "2",
            "--trials", "3"]
    # an explicit --n that differs from the task's n is refused, not dropped
    assert main(base + ["--task", str(task), "--n", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "n=2" in captured.err
    for extra in ([], ["--n", "2"]):
        assert main(base + ["--task", str(task)] + extra) == 0
        docs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(docs) == 3 and all(doc["n"] == 2 for doc in docs)
    # without a task, n defaults to 1
    assert main(base) == 0
    docs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(docs) == 3 and all(doc["n"] == 1 for doc in docs)


def m2_task(tmp_path):
    task = tmp_path / "task_m2.json"
    task.write_text(json.dumps({
        "p": 11, "m": 2, "n": 1,
        "g": [[{"coeff": 1, "exps": [1, 1]}, {"coeff": 3, "exps": [0, 1]}]],
    }))
    return ["validate", "--scheme", "harmonic", "--p", "11", "--d", "2", "--trials", "3",
            "--task", str(task)]


def test_validate_m_defaults_to_the_task(tmp_path, capsys):
    for extra in ([], ["--m", "2"]):
        assert main(m2_task(tmp_path) + extra) == 0
        captured = capsys.readouterr()
        docs = [json.loads(line) for line in captured.out.splitlines()]
        assert captured.err == ""
        assert len(docs) == 3 and all(doc["m"] == 2 and doc["exact_match"] for doc in docs)


def test_validate_refuses_an_m_that_differs_from_the_task(tmp_path, capsys):
    # refused as a usage error naming the flag, as --n is, not dropped
    for m in ("1", "3"):
        assert main(m2_task(tmp_path) + ["--m", m]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: task file has m=2, flags say --m {m}\n"


@pytest.mark.parametrize("argv, func, expected", [
    (["demo"], cli.cmd_demo, {"command": "demo", "c": None, "betas": None}),
    (["validate", "--scheme", "lcc", "--p", "7", "--d", "2"], cli.cmd_validate,
     {"command": "validate", "scheme": "lcc", "p": 7, "K": 2, "d": 2, "m": None, "n": None,
      "trials": 100, "seed": 0, "task": None, "c": None, "betas": None}),
    (["privacy-audit", "--scheme", "shamir", "--p", "5", "--d", "1"], cli.cmd_privacy_audit,
     {"command": "privacy-audit", "scheme": "shamir", "p": 5, "K": 2, "d": 1, "m": None,
      "c": None, "betas": None, "inject_leak": False}),
    (["encode", "--scheme", "harmonic", "--p", "11", "--d", "3", "--data", "x.json",
      "--out", "y.json"], cli.cmd_encode,
     {"command": "encode", "scheme": "harmonic", "p": 11, "d": 3, "data": "x.json",
      "out": "y.json", "seed": 0, "c": None, "betas": None}),
    (["validate", "--scheme", "harmonic", "--p", "11", "--K", "3", "--d", "3", "--m", "2",
      "--n", "4", "--trials", "9", "--seed", "8", "--task", "t.json", "--c", "7",
      "--betas", "2,5"], cli.cmd_validate,
     {"command": "validate", "scheme": "harmonic", "p": 11, "K": 3, "d": 3, "m": 2, "n": 4,
      "trials": 9, "seed": 8, "task": "t.json", "c": 7, "betas": "2,5"}),
])
def test_parser_flags_and_defaults_are_pinned(argv, func, expected):
    args = vars(cli._build_parser().parse_args(argv))
    assert args.pop("func") is func
    assert args == expected


@pytest.mark.parametrize("argv", [
    ["validate", "--p", "7", "--d", "2"],
    ["validate", "--scheme", "lcc", "--d", "2"],
    ["validate", "--scheme", "lcc", "--p", "7"],
    ["validate", "--scheme", "nope", "--p", "7", "--d", "2"],
    ["privacy-audit", "--scheme", "lcc", "--p", "7"],
    ["encode", "--scheme", "lcc", "--p", "7", "--d", "2", "--out", "y.json"],
    ["compare", "--d", "2"],
    ["compare", "--K", "2"],
    ["decode", "--shares", "s.json", "--outputs", "o.json"],
    ["demo", "--K", "2"],
])
def test_parser_refuses_missing_or_foreign_flags(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli._build_parser().parse_args(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("p", [5, 7, 11, 13, 2**31 - 1])
def test_probe_chain_rows_match_the_closed_form(p):
    # P_j = c/(c-j) Z - 1/(c-j) (X_1 + ... + X_j), over (X_1..X_K, Z)
    field = FieldConfig(p)
    checked = 0
    for K in range(1, 7):
        for d in (2, 3):
            try:
                params = select_params(field, K, d)
            except FieldTooSmallError:
                continue
            c = params.c
            expected = []
            for j in range(K + 1):
                inv = pow(c - j, -1, p)
                expected.append(tuple([-inv % p] * j + [0] * (K - j) + [c * inv % p]))
            assert cli._probe_chain_rows(params) == expected
            checked += 1
    # any prime >= K + d + 2 hosts the defaults
    assert checked == 12 if p >= 11 else checked > 0


def test_validate_config_errors():
    assert main(["validate", "--scheme", "harmonic", "--p", "6", "--d", "2"]) == 2
    assert main(["validate", "--scheme", "harmonic", "--p", "3", "--K", "3",
                 "--d", "3"]) == 2
    assert main(["validate", "--scheme", "lcc", "--p", "5", "--K", "2",
                 "--d", "2"]) == 2  # no room for 5 evaluation points


@pytest.mark.parametrize("argv,message", [
    (["validate", "--scheme", "harmonic", "--p", "11", "--d", "2", "--betas", "1,x"],
     "--betas must be comma-separated integers, got '1,x'"),
    (["validate", "--scheme", "harmonic", "--p", "11", "--d", "2", "--trials", "0"],
     "--trials must be >= 1"),
    (["validate", "--scheme", "harmonic", "--p", "11", "--d", "2", "--m", "0"],
     "--m and --n must be >= 1"),
    (["validate", "--scheme", "harmonic", "--p", "11", "--d", "2", "--n", "0"],
     "--m and --n must be >= 1"),
    (["validate", "--scheme", "freshman", "--p", "11", "--d", "11", "--task", "TASK"],
     "freshman fixes its own g; --task is not accepted"),
    (["validate", "--scheme", "harmonic", "--p", "13", "--d", "2", "--task", "TASK"],
     "task file is over F_11, flags say F_13"),
    (["privacy-audit", "--scheme", "harmonic", "--p", "5", "--d", "2", "--m", "0"],
     "--m must be >= 1"),
])
def test_flag_refusals_are_usage_errors(tmp_path, capsys, argv, message):
    task = tmp_path / "task.json"
    task.write_text(json.dumps({"p": 11, "m": 1, "n": 1, "g": [[{"coeff": 1, "exps": [2]}]]}))
    argv = [str(task) if flag == "TASK" else flag for flag in argv]
    args = cli._build_parser().parse_args(argv)
    with pytest.raises(cli.UsageError, match=re.escape(message)):
        args.func(args)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_privacy_audit_clean_and_leaky(capsys):
    assert main(["privacy-audit", "--scheme", "harmonic", "--p", "5", "--K", "2",
                 "--d", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mi_bits_per_worker"] == [0.0, 0.0, 0.0, 0.0]
    assert all(doc["conditional_equal_per_worker"])

    assert main(["privacy-audit", "--scheme", "shamir", "--p", "5", "--K", "2",
                 "--d", "2"]) == 0
    capsys.readouterr()

    assert main(["privacy-audit", "--scheme", "harmonic", "--p", "5", "--K", "2",
                 "--d", "2", "--inject-leak"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["conditional_equal_per_worker"][0] is False


def test_privacy_audit_budget_env(monkeypatch, capsys):
    monkeypatch.setenv("PRIVACY_AUDIT_BUDGET", "10")
    assert main(["privacy-audit", "--scheme", "harmonic", "--p", "5", "--K", "2",
                 "--d", "2"]) == 2
    monkeypatch.setenv("PRIVACY_AUDIT_BUDGET", "not-a-number")
    assert main(["privacy-audit", "--scheme", "harmonic", "--p", "5", "--K", "2",
                 "--d", "2"]) == 2


def test_compare_text_and_json(capsys):
    assert main(["compare", "--K", "10", "--d", "2"]) == 0
    out = capsys.readouterr().out
    assert "harmonic  12" in out
    assert "lcc       21" in out
    assert "shamir    30" in out
    assert main(["compare", "--K", "2", "--d", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["workers"] == {"harmonic": 4, "lcc": 5, "shamir": 6, "freshman": 2}
    assert doc["special_case_only"] == ["freshman"]


@pytest.mark.parametrize("sizes", [["--K", "0", "--d", "2"], ["--K", "2", "--d", "0"]])
def test_compare_rejects_sizes_below_one(capsys, sizes):
    assert main(["compare"] + sizes) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: need K >= 1 and d >= 1")


@pytest.mark.parametrize("scheme,p,d", [
    ("harmonic", 11, 2),
    ("shamir", 11, 2),
    ("lcc", 11, 2),
    ("freshman", 11, 11),
])
def test_encode_decode_pipeline(tmp_path, capsys, scheme, p, d):
    field = FieldConfig(p)
    data_doc = {"K": 2, "data": [[1, 2], [3, 4]]}
    data_path = tmp_path / "data.json"
    data_path.write_text(json.dumps(data_doc))
    shares_path = tmp_path / "shares.json"
    outputs_path = tmp_path / "outputs.json"
    out_path = tmp_path / "f.json"

    assert main(["encode", "--scheme", scheme, "--p", str(p), "--d", str(d),
                 "--data", str(data_path), "--out", str(shares_path),
                 "--seed", "9"]) == 0
    capsys.readouterr()

    params, shares = load_shares(shares_path)
    data = Dataset([field.vector(r) for r in data_doc["data"]])
    if scheme == "freshman":
        # degree-p map: coordinatewise p-th powers summed (matrix of ones)
        from harmcode.baselines import FreshmanMap
        outputs = [FreshmanMap(params).eval(s) for s in shares]
        oracle = direct_gradient_sum(FreshmanMap(params), data)
    else:
        g = PolyMap.from_terms(field, 2, [[(1, (2, 0)), (3, (0, 1))]])
        outputs = [g.eval(s) for s in shares]
        oracle = direct_gradient_sum(g, data)
    write_outputs(outputs_path, outputs)

    assert main(["decode", "--shares", str(shares_path),
                 "--outputs", str(outputs_path), "--out", str(out_path)]) == 0
    capsys.readouterr()
    assert load_decoded(out_path, field) == oracle


def test_encode_is_byte_deterministic(tmp_path, capsys):
    data_path = tmp_path / "data.json"
    data_path.write_text(json.dumps({"K": 2, "data": [[1], [2]]}))
    s1, s2 = tmp_path / "s1.json", tmp_path / "s2.json"
    for out in (s1, s2):
        assert main(["encode", "--scheme", "harmonic", "--p", "11", "--d", "2",
                     "--data", str(data_path), "--out", str(out), "--seed", "4"]) == 0
    capsys.readouterr()
    assert s1.read_bytes() == s2.read_bytes()


def test_encode_over_a_longer_file_equals_a_fresh_encode(tmp_path, capsys):
    # K = 3 writes more shares than K = 2; the second encode to the same
    # --out must leave no tail of the first
    d3, d2 = tmp_path / "d3.json", tmp_path / "d2.json"
    d3.write_text(json.dumps({"K": 3, "data": [[1, 2], [3, 4], [5, 6]]}))
    d2.write_text(json.dumps({"K": 2, "data": [[1, 2], [3, 4]]}))
    same, fresh = tmp_path / "same.json", tmp_path / "fresh.json"
    for data, out in ((d3, same), (d2, same), (d2, fresh)):
        assert main(["encode", "--scheme", "harmonic", "--p", "11", "--d", "2",
                     "--data", str(data), "--out", str(out), "--seed", "4"]) == 0
    capsys.readouterr()
    assert same.read_bytes() == fresh.read_bytes()


def test_decode_to_devnull(tmp_path, capsys):
    data_path, shares_path = tmp_path / "data.json", tmp_path / "shares.json"
    data_path.write_text(json.dumps({"K": 2, "data": [[1], [2]]}))
    assert main(["encode", "--scheme", "harmonic", "--p", "11", "--d", "2",
                 "--data", str(data_path), "--out", str(shares_path)]) == 0
    outputs_path = tmp_path / "outputs.json"
    write_outputs(outputs_path, [FieldConfig(11).vector([w]) for w in range(4)])
    capsys.readouterr()
    assert main(["decode", "--shares", str(shares_path), "--outputs", str(outputs_path),
                 "--out", os.devnull]) == 0
    assert capsys.readouterr().err == ""


def test_cached_parser_survives_a_rejected_argv(tmp_path, capsys):
    # argparse rejects the argv and exits 2; the parser it leaves behind is
    # the one every later call reuses
    with pytest.raises(SystemExit) as exc:
        main(["encode", "--scheme", "harmonic", "--p", "eleven", "--d", "2"])
    assert exc.value.code == 2
    assert cli._build_parser() is cli._build_parser()
    data_path = tmp_path / "data.json"
    data_path.write_text(json.dumps({"K": 2, "data": [[1, 2], [3, 4]]}))
    outputs_path = tmp_path / "outputs.json"
    write_outputs(outputs_path, [FieldConfig(11).vector([w, 2 * w]) for w in range(4)])

    def argvs(tag):
        shares, out = tmp_path / f"shares-{tag}.json", tmp_path / f"f-{tag}.json"
        return [["encode", "--scheme", "harmonic", "--p", "11", "--d", "2",
                 "--data", str(data_path), "--out", str(shares), "--seed", "5"],
                ["decode", "--shares", str(shares), "--outputs", str(outputs_path),
                 "--out", str(out)]], (shares, out)

    cached, cached_files = argvs("cached")
    for argv in cached:
        assert main(argv) == 0
    capsys.readouterr()
    fresh, fresh_files = argvs("fresh")
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(harmcode.__file__).parent.parent)}
    for argv in fresh:
        subprocess.run([sys.executable, "-m", "harmcode.cli", *argv], env=env,
                       check=True, capture_output=True)
    for a, b in zip(cached_files, fresh_files):
        assert a.read_bytes() == b.read_bytes()


def test_decode_wrong_output_count(tmp_path, capsys):
    data_path = tmp_path / "data.json"
    data_path.write_text(json.dumps({"K": 2, "data": [[1], [2]]}))
    shares_path = tmp_path / "shares.json"
    assert main(["encode", "--scheme", "harmonic", "--p", "11", "--d", "2",
                 "--data", str(data_path), "--out", str(shares_path)]) == 0
    capsys.readouterr()
    outputs_path = tmp_path / "outputs.json"
    outputs_path.write_text(json.dumps({"outputs": [[1], [2], [3]]}))  # N-1
    assert main(["decode", "--shares", str(shares_path),
                 "--outputs", str(outputs_path), "--out", str(tmp_path / "f.json")]) == 2


def test_bad_schema_files_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["encode", "--scheme", "harmonic", "--p", "11", "--d", "2",
                 "--data", str(bad), "--out", str(tmp_path / "s.json")]) == 2
    missing = tmp_path / "missing.json"
    assert main(["decode", "--shares", str(missing),
                 "--outputs", str(missing), "--out", str(tmp_path / "f.json")]) == 2


@pytest.mark.parametrize("scheme,d", [("lcc", 2), ("shamir", 2), ("freshman", 11)])
def test_point_flags_rejected_where_the_scheme_ignores_them(tmp_path, capsys, scheme, d):
    data_path = tmp_path / "data.json"
    data_path.write_text(json.dumps({"K": 2, "data": [[1], [2]]}))
    base = {
        "encode": ["encode", "--scheme", scheme, "--p", "11", "--d", str(d),
                   "--data", str(data_path), "--out", str(tmp_path / "s.json")],
        "validate": ["validate", "--scheme", scheme, "--p", "11", "--d", str(d),
                     "--trials", "2"],
        "privacy-audit": ["privacy-audit", "--scheme", scheme, "--p", "11", "--d", str(d)],
    }
    for argv in base.values():
        assert main(argv) == 0  # the same command runs without the point flags
        for flags in (["--c", "5"], ["--betas", "1,2"], ["--c", "5", "--betas", "1"]):
            capsys.readouterr()
            assert main(argv + flags) == 2
            assert "takes no --" in capsys.readouterr().err


def test_point_flags_accepted_by_harmonic(tmp_path, capsys):
    data_path = tmp_path / "data.json"
    data_path.write_text(json.dumps({"K": 2, "data": [[1], [2]]}))
    shares_path = tmp_path / "s.json"
    assert main(["encode", "--scheme", "harmonic", "--p", "11", "--d", "3",
                 "--data", str(data_path), "--out", str(shares_path),
                 "--c", "7", "--betas", "2,5"]) == 0
    params, _ = load_shares(shares_path)
    assert (params.c, list(params.betas)) == (7, [2, 5])
    # freshman's degree is the characteristic, from flags as from files
    assert main(["encode", "--scheme", "freshman", "--p", "11", "--d", "2",
                 "--data", str(data_path), "--out", str(shares_path)]) == 2


def test_cli_imports_pull_in_no_dataclasses_inspect_or_typing():
    # every harmcode command is a cold start; dataclasses and what it imports
    # (inspect, ast, dis, tokenize) took over half of `import harmcode`, and
    # typing (with re and enum) about a third of the rest. Annotations take
    # their names from collections.abc. Under -S, site has imported none of them
    src = str(pathlib.Path(harmcode.__file__).parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
            "import harmcode, harmcode.cli, harmcode.fileio; "
            "print(*sorted(set(sys.modules) - before))")
    result = subprocess.run([sys.executable, "-S", "-c", code, src],
                            check=True, capture_output=True, text=True)
    added = set(result.stdout.split())
    assert "harmcode.cli" in added
    assert not {"dataclasses", "inspect", "typing"} & added
