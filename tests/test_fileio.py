"""JSON schemas: round-trips and distinct, named violations."""

import json
import os
import stat

import pytest

from harmcode import harmonic
from harmcode.errors import (
    CountMismatchError,
    ResidueRangeError,
    SchemaViolationError,
)
from harmcode.baselines import (
    FreshmanParams,
    lcc_encode,
    lcc_params,
    shamir_encode,
    shamir_params,
)
from harmcode.field import FieldConfig
from harmcode.fileio import (
    load_dataset,
    load_decoded,
    load_outputs,
    load_shares,
    load_task,
    params_to_json,
    write_dataset,
    write_decoded,
    write_outputs,
    write_shares,
    write_task,
)
from harmcode.harmonic import encode, select_params
from harmcode.poly import Dataset, PolyMap
from harmcode.sim import make_handle

F5 = FieldConfig(5)


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return path


def test_task_roundtrip(tmp_path):
    g = PolyMap.from_terms(F5, 2, [[(2, (1, 1)), (1, (0, 1))], [(3, (2, 0))]])
    path = tmp_path / "task.json"
    write_task(path, g)
    assert json.loads(path.read_text())["g"] == [
        [{"coeff": 1, "exps": [0, 1]}, {"coeff": 2, "exps": [1, 1]}],
        [{"coeff": 3, "exps": [2, 0]}]]
    field, loaded = load_task(path)
    assert field == F5
    assert loaded == g
    again = tmp_path / "again.json"
    write_task(again, loaded)
    assert again.read_bytes() == path.read_bytes()


def test_dataset_roundtrip(tmp_path):
    data = Dataset([F5.vector([1, 2]), F5.vector([3, 4])])
    path = tmp_path / "data.json"
    write_dataset(path, data)
    assert load_dataset(path, F5) == data


def test_shares_roundtrip_all_schemes(tmp_path):
    data = Dataset([F5.vector([1]), F5.vector([2])])
    z = F5.vector([3])
    F7, F11 = FieldConfig(7), FieldConfig(11)
    # c and betas away from the defaults (c=3, betas=[2, 4] at p=11, K=2, d=3)
    explicit = select_params(F11, 2, 3, c=7, betas=[2, 5])
    assert params_to_json(explicit) != params_to_json(select_params(F11, 2, 3))
    # one residue short: the last evaluation point is the key anchor
    short = lcc_params(F7, 2, 2)
    assert short.gammas[-1] == short.alphas[-1]
    cases = [
        (select_params(F5, 2, 2, c=4, betas=[4]), lambda p: encode(p, data, z)),
        (explicit, lambda p: encode(
            p, Dataset([F11.vector([1, 9]), F11.vector([2, 0])]), F11.vector([3, 4]))),
        (shamir_params(F5, 2, 2),
         lambda p: shamir_encode(p, data, [z, F5.vector([4])])),
        (lcc_params(F5, 2, 1), lambda p: lcc_encode(p, data, z)),
        (short, lambda p: lcc_encode(
            p, Dataset([F7.vector([6]), F7.vector([5])]), F7.vector([4]))),
        (FreshmanParams(F5, 2, 1, 1, [[1]]),
         lambda p: make_handle(p).encode(data, [z])),
    ]
    for idx, (params, encoder) in enumerate(cases):
        shares = encoder(params)
        path = tmp_path / f"shares{idx}.json"
        write_shares(path, params, shares)
        loaded_params, loaded_shares = load_shares(path)
        assert params_to_json(loaded_params) == params_to_json(params)
        assert loaded_shares == shares


def test_outputs_roundtrip(tmp_path):
    outs = [F5.vector([1, 2]), F5.vector([0, 4])]
    path = tmp_path / "outputs.json"
    write_outputs(path, outs)
    assert load_outputs(path, F5) == outs


def test_schema_violationerrors(tmp_path):
    with pytest.raises(SchemaViolationError):
        load_task(_write(tmp_path / "a.json", {"p": 5, "m": 1}))  # missing keys
    with pytest.raises(SchemaViolationError):
        load_dataset(_write(tmp_path / "b.json", {"K": 1, "data": "nope"}), F5)
    bad = tmp_path / "c.json"
    bad.write_text("{not json")
    with pytest.raises(SchemaViolationError):
        load_dataset(bad, F5)
    # shares-file headers, read by load_shares with a share count that
    # matches the header wherever the header names a scheme
    with pytest.raises(SchemaViolationError):
        load_header(tmp_path, {"scheme": "mystery", "p": 5, "K": 1, "d": 1}, 2)
    with pytest.raises(SchemaViolationError):
        load_header(tmp_path, {"scheme": "freshman", "p": 5, "K": 1, "d": 4}, 2)
    # the scheme name is looked up in a table: unhashable or non-string names
    # must still be schema violations, not TypeErrors
    for name in (["lcc"], 3, None, {"lcc": 1}):
        with pytest.raises(SchemaViolationError):
            load_header(tmp_path, {"scheme": name, "p": 5, "K": 1, "d": 1}, 2)
    harmonic_doc = params_to_json(select_params(F5, 2, 2, c=4, betas=[4]))
    shamir_doc = params_to_json(shamir_params(F5, 2, 2))
    for doc, key, value, n in ((harmonic_doc, "c", [1], 4), (harmonic_doc, "betas", 3, 4),
                               (harmonic_doc, "c", None, 4), (shamir_doc, "thetas", "x", 6)):
        with pytest.raises(SchemaViolationError):
            load_header(tmp_path, {**doc, key: value}, n)
    with pytest.raises(SchemaViolationError):
        load_header(tmp_path, {key: v for key, v in harmonic_doc.items() if key != "betas"}, 4)


TERM = {"coeff": 1, "exps": [1]}
LOADERS = {"task": load_task, "dataset": lambda path: load_dataset(path, F5),
           "decoded": lambda path: load_decoded(path, F5)}


@pytest.mark.parametrize("kind,doc,error,message", [
    ("dataset", [[1], [2]], SchemaViolationError, "top level must be a JSON object"),
    ("dataset", {"K": 2, "data": [[1], []]}, SchemaViolationError,
     "data[1] must be a non-empty list"),
    ("dataset", {"K": 0, "data": [[1]]}, SchemaViolationError, "K must be >= 1, got 0"),
    ("task", {"p": 5, "m": 0, "n": 1, "g": [[]]}, SchemaViolationError,
     "need m >= 1 and n >= 1, got m=0, n=1"),
    ("task", {"p": 5, "m": 1, "n": 0, "g": []}, SchemaViolationError,
     "need m >= 1 and n >= 1, got m=1, n=0"),
    ("task", {"p": 5, "m": 1, "n": 2, "g": [[TERM]]}, CountMismatchError,
     "g must list 2 output coordinates"),
    ("task", {"p": 5, "m": 1, "n": 1, "g": [TERM]}, SchemaViolationError,
     "g[0] must be a list of terms"),
    ("task", {"p": 5, "m": 1, "n": 1, "g": [[TERM, 3]]}, SchemaViolationError,
     "g[0][1] must be an object"),
    ("task", {"p": 5, "m": 2, "n": 1, "g": [[TERM]]}, CountMismatchError,
     "g[0][0].exps must list 2 exponents"),
    ("decoded", {"f": []}, SchemaViolationError, "f must be a non-empty list"),
])
def test_malformed_files_are_refused(tmp_path, kind, doc, error, message):
    with pytest.raises(error) as info:
        LOADERS[kind](_write(tmp_path / "f.json", doc))
    assert message in str(info.value)


def load_header(tmp_path, doc, n):
    """load_shares on a file of the header ``doc`` and n one-coordinate shares."""
    return load_shares(_write(tmp_path / "header.json", {**doc, "shares": [[1]] * n}))


def test_residue_range_errors(tmp_path):
    with pytest.raises(ResidueRangeError):
        load_dataset(_write(tmp_path / "a.json", {"K": 1, "data": [[7]]}), F5)
    with pytest.raises(ResidueRangeError):
        load_dataset(_write(tmp_path / "b.json", {"K": 1, "data": [[-1]]}), F5)
    with pytest.raises(ResidueRangeError):
        load_task(_write(tmp_path / "c.json",
                         {"p": 5, "m": 1, "n": 1,
                          "g": [[{"coeff": 1, "exps": [9]}]]}))  # exps > p-1


@pytest.mark.parametrize("bad,error,message", [
    (True, SchemaViolationError, "data[1][3] must be an integer, got True"),
    (2.0, SchemaViolationError, "data[1][3] must be an integer, got 2.0"),
    (5, ResidueRangeError, "data[1][3]=5 outside [0, 5)"),
    (-1, ResidueRangeError, "data[1][3]=-1 outside [0, 5)"),
])
def test_bad_coordinate_after_valid_ones_is_named(tmp_path, bad, error, message):
    doc = {"K": 2, "data": [[0, 1, 2, 3], [4, 3, 2, bad]]}
    with pytest.raises(error) as info:
        load_dataset(_write(tmp_path / "d.json", doc), F5)
    assert str(info.value) == message


def test_count_mismatch_errors(tmp_path):
    with pytest.raises(CountMismatchError):
        load_dataset(_write(tmp_path / "a.json", {"K": 3, "data": [[1], [2]]}), F5)
    with pytest.raises(CountMismatchError):
        load_dataset(_write(tmp_path / "b.json",
                            {"K": 2, "data": [[1, 2], [3]]}), F5)  # ragged
    # share count disagreeing with the scheme's N
    params = select_params(F5, 2, 2, c=4, betas=[4])
    doc = params_to_json(params)
    doc["shares"] = [[1], [2], [3]]  # N should be 4
    with pytest.raises(CountMismatchError):
        load_shares(_write(tmp_path / "c.json", doc))


def test_share_count_is_checked_before_the_params_are_built(tmp_path, monkeypatch):
    # a header claiming K = 10^6 would cost O(K) inversions to validate
    def never(params):
        raise AssertionError("validate_params ran before the share count check")

    doc = params_to_json(select_params(FieldConfig(2**31 - 1), 2, 2))
    doc.update(K=10**6, shares=[[1], [2], [3], [4]])
    monkeypatch.setattr(harmonic, "validate_params", never)
    with pytest.raises(CountMismatchError):
        load_shares(_write(tmp_path / "huge.json", doc))


def test_shares_file_is_deterministic(tmp_path):
    params = select_params(F5, 2, 2, c=4, betas=[4])
    data = Dataset([F5.vector([1]), F5.vector([2])])
    shares = encode(params, data, F5.vector([3]))
    p1, p2 = tmp_path / "s1.json", tmp_path / "s2.json"
    write_shares(p1, params, shares)
    write_shares(p2, params, shares)
    assert p1.read_bytes() == p2.read_bytes()


# Every writer overwrites its path in place and cuts a regular file to the
# new length; each case writes one small document of its kind.
_PARAMS = select_params(F5, 2, 2, c=4, betas=[4])
_DATA = Dataset([F5.vector([1, 2]), F5.vector([3, 4])])
WRITERS = {
    "task": lambda path: write_task(
        path, PolyMap.from_terms(F5, 2, [[(2, (1, 1)), (1, (0, 1))], [(3, (2, 0))]])),
    "dataset": lambda path: write_dataset(path, _DATA),
    "shares": lambda path: write_shares(
        path, _PARAMS, encode(_PARAMS, _DATA, F5.vector([3, 0]))),
    "outputs": lambda path: write_outputs(path, [F5.vector([1, 2]), F5.vector([0, 4])]),
    "decoded": lambda path: write_decoded(path, F5.vector([4, 1, 0])),
}


def _fresh_bytes(tmp_path, kind):
    path = tmp_path / f"fresh-{kind}.json"
    WRITERS[kind](path)
    return path.read_bytes()


@pytest.mark.parametrize("kind", WRITERS)
@pytest.mark.parametrize("old", ["longer", "shorter", "empty"])
def test_overwrite_gives_the_bytes_of_a_fresh_write(tmp_path, kind, old):
    fresh = _fresh_bytes(tmp_path, kind)
    old_bytes = {"longer": fresh + b"x" * 5000, "shorter": fresh[:len(fresh) // 2],
                 "empty": b""}[old]
    path = tmp_path / f"{kind}.json"
    path.write_bytes(old_bytes)
    WRITERS[kind](path)
    assert path.read_bytes() == fresh


@pytest.mark.skipif(os.name != "posix", reason="POSIX modes")
@pytest.mark.parametrize("kind", WRITERS)
@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_new_file_mode_is_0o666_under_the_umask(tmp_path, kind, umask):
    path = tmp_path / f"{kind}.json"
    before = os.umask(umask)
    try:
        WRITERS[kind](path)
    finally:
        os.umask(before)
    assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask


@pytest.mark.skipif(os.name != "posix", reason="POSIX symlinks")
@pytest.mark.parametrize("kind", WRITERS)
def test_symlinked_path_updates_its_target_and_stays_a_link(tmp_path, kind):
    fresh = _fresh_bytes(tmp_path, kind)
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_bytes(b"y" * (len(fresh) + 5000))
    link.symlink_to(target.name)
    WRITERS[kind](link)
    assert link.is_symlink() and os.readlink(link) == target.name
    assert target.read_bytes() == fresh


@pytest.mark.parametrize("kind", WRITERS)
def test_devnull_is_accepted(kind):
    WRITERS[kind](os.devnull)


@pytest.mark.parametrize("kind", WRITERS)
def test_directory_path_raises_is_a_directory(tmp_path, kind):
    with pytest.raises(IsADirectoryError):
        WRITERS[kind](tmp_path)
