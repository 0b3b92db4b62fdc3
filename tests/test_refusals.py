"""One error root, and exit 0 or 2 for any file or path the CLI is given.

Every class in ``harmcode.errors``, and ``cli.UsageError``, is a
``HarmcodeError``, so ``cli.main`` maps all of them, and any ``OSError``,
with one clause. The fuzz below is seeded and stdlib-only. It starts from
valid task, dataset, shares (all four schemes), outputs and decoded files
and feeds every file flag mutated copies: each JSON value (the root, every
key, the first three entries of every list) swapped for seventeen others,
a 5,000-digit integer or a 100,000-deep array; single-byte flips, 0xff
among them; truncations; and a directory in place of the path.
"""

import copy
import json
import random

import pytest

import harmcode
from harmcode import cli, errors
from harmcode.cli import main
from harmcode.field import FieldConfig
from harmcode.fileio import load_decoded

P = 11
SWAPS = (None, -1, 0, 1, 2, 3, 4, 11, 12, 1.5, "x", [], {}, [0], [[0]], True, 10**30)
# raw JSON text spliced in where a placeholder string was dumped: an integer
# past the interpreter's default digit limit (4,300 on 3.11+), and an array
# nested deeper than any recursion limit
RAW = {"@big@": "9" * 5000, "@deep@": "[" * 100_000 + "]" * 100_000}
SCHEME_D = {"harmonic": 2, "lcc": 2, "shamir": 2, "freshman": P}
TASK = {"p": P, "m": 2, "n": 1,
        "g": [[{"coeff": 1, "exps": [2, 0]}, {"coeff": 3, "exps": [0, 1]}]]}
DATASET = {"K": 2, "data": [[1, 2], [3, 4]]}
DECODED = {"f": [3, 5]}


def test_every_error_is_a_harmcode_error_with_its_old_bases():
    classes = [cls for cls in vars(errors).values()
               if isinstance(cls, type) and issubclass(cls, BaseException)]
    assert len(classes) == 14  # the root and its 13 refusals
    for cls in classes:
        assert getattr(harmcode, cls.__name__) is cls
    for cls in classes + [cli.UsageError]:
        # existing `except ValueError` callers see every one of them
        assert issubclass(cls, harmcode.HarmcodeError)
        assert issubclass(cls, ValueError)
    assert issubclass(errors.ZeroInversionError, ZeroDivisionError)


def _paths(node, path=()):
    """The root, every key, and the first three entries of every list."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node[:3])
    else:
        children = ()
    for key, child in children:
        yield from _paths(child, path + (key,))


def _swapped(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _mutations(doc, rng):
    """The bytes of mutated copies of ``doc``, in a fixed order for a seed."""
    for path in _paths(doc):
        for value in SWAPS + tuple(RAW):
            text = json.dumps(_swapped(doc, path, value))
            for placeholder, raw in RAW.items():
                text = text.replace(json.dumps(placeholder), raw)
            yield text.encode()
    good = json.dumps(doc).encode()
    for byte in [0xFF] + [rng.randrange(256) for _ in range(5)]:
        at = rng.randrange(len(good))
        yield good[:at] + bytes([byte]) + good[at + 1:]
    for cut in [0] + rng.sample(range(1, len(good)), 3):
        yield good[:cut]


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def _encode(scheme, data, out):
    return ["encode", "--scheme", scheme, "--p", str(P), "--d", str(SCHEME_D[scheme]),
            "--data", str(data), "--out", str(out)]


def _decode(shares, outputs, out):
    return ["decode", "--shares", str(shares), "--outputs", str(outputs), "--out", str(out)]


def _validate(task):
    return ["validate", "--scheme", "harmonic", "--p", str(P), "--d", "2", "--m", "2",
            "--trials", "1", "--task", str(task)]


def _run(argv, capsys, blob=b""):
    """main's exit code, after checking it is 0 with a silent stderr or 2
    with exactly one ``error:`` line."""
    code = main(argv)
    err = capsys.readouterr().err
    assert (code == 0 and err == "" or
            code == 2 and err.startswith("error: ") and err.count("\n") == 1), \
        (argv, code, err[:300], blob[:120])
    return code


def test_every_file_flag_exits_0_or_2(tmp_path, capsys):
    rng = random.Random(20210)
    out, bad, folder = tmp_path / "out.json", tmp_path / "bad.json", tmp_path / "folder"
    folder.mkdir()
    data = _write(tmp_path / "data.json", DATASET)
    task = _write(tmp_path / "task.json", TASK)
    assert _run(_validate(task), capsys) == 0
    files = {}  # scheme -> (shares doc, shares path, outputs doc, outputs path)
    for scheme in SCHEME_D:
        shares = tmp_path / f"shares-{scheme}.json"
        assert _run(_encode(scheme, data, shares), capsys) == 0
        shares_doc = json.loads(shares.read_text())
        outputs_doc = {"outputs": [[w] for w in range(len(shares_doc["shares"]))]}
        outputs = _write(tmp_path / f"outputs-{scheme}.json", outputs_doc)
        assert _run(_decode(shares, outputs, out), capsys) == 0
        files[scheme] = shares_doc, shares, outputs_doc, outputs

    cases = [(TASK, lambda i: _validate(bad)),
             (DATASET, lambda i: _encode(list(SCHEME_D)[i % 4], bad, out))]
    for shares_doc, shares, outputs_doc, outputs in files.values():
        cases.append((shares_doc, lambda i, outputs=outputs: _decode(bad, outputs, out)))
        cases.append((outputs_doc, lambda i, shares=shares: _decode(shares, bad, out)))
    codes = set()
    for doc, argv in cases:
        for i, blob in enumerate(_mutations(doc, rng)):
            bad.write_bytes(blob)
            codes.add(_run(argv(i), capsys, blob))
    assert codes == {0, 2}

    shares, outputs = files["harmonic"][1], files["harmonic"][3]
    for argv in (_validate(folder), _encode("harmonic", folder, out),
                 _encode("harmonic", data, folder), _decode(folder, outputs, out),
                 _decode(shares, folder, out), _decode(shares, outputs, folder)):
        assert _run(argv, capsys) == 2


def test_load_decoded_returns_or_raises_a_harmcode_error(tmp_path):
    # no flag reads a decoded file, so its loader is fuzzed directly
    path = tmp_path / "f.json"
    loaded = refused = 0
    for blob in _mutations(DECODED, random.Random(20211)):
        path.write_bytes(blob)
        try:
            load_decoded(path, FieldConfig(P))
            loaded += 1
        except harmcode.HarmcodeError:
            refused += 1
    assert loaded and refused
    with pytest.raises(OSError):
        load_decoded(tmp_path, FieldConfig(P))
