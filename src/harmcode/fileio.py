"""JSON file formats for scripted encode/evaluate/decode pipelines.

Schemas (all integers are residues in [0, p)):

  task     {"p": p, "m": m, "n": n,
            "g": [[{"coeff": c, "exps": [e_1..e_m]}, ...] x n]}
  dataset  {"K": K, "data": [[x_1..x_m] x K]}
  shares   {"scheme": name, "p": p, "K": K, "d": d, <points>,
            "shares": [[..] x N]}
           the scheme-specific <points> come from the scheme table
           (sim.SCHEMES): harmonic stores "c" and "betas", shamir
           "thetas", lcc "alphas"/"gammas", freshman none (its shares
           never depend on g).
  outputs  {"outputs": [[y_1..y_n] x N]}
  decoded  {"f": [y_1..y_n]}

Violations raise distinct HarmcodeErrors: SchemaViolationError for
structure and for a file that is not JSON (bad syntax, non-UTF-8 bytes,
nesting too deep, an integer past the digit limit), ResidueRangeError for
out-of-range values, CountMismatchError for row/vector counts that
disagree with the declared sizes. A path that cannot be opened raises OSError.

Every writer overwrites its path in place: it writes the new bytes from
offset 0 and then cuts a regular file to their length, since truncating an
existing file to zero first costs more than the whole write. A write is
neither atomic nor synced, as before: one cut short over a longer old file
leaves old bytes after the new ones, and a load refuses that file as not
valid JSON ("Extra data"), as it refused the empty file that a truncating
write cut short left.
"""

from __future__ import annotations

import json
import os
import stat
from collections.abc import Sequence

from .errors import (
    CountMismatchError,
    ResidueRangeError,
    SchemaViolationError,
)
from .field import FieldConfig, FieldVector
from .poly import Dataset, PolyMap
from .sim import SCHEMES, scheme_of, worker_count_table


def _load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as exc:  # JSON, UTF-8 and digit-limit errors
        raise SchemaViolationError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise SchemaViolationError(f"{path}: top level must be a JSON object")
    return doc


def _dump_json(path, doc: dict) -> None:
    """Write doc as one line of sorted-key JSON over path, in place.

    The file is opened without O_TRUNC, written from offset 0 and then cut
    to the new length, so a longer old file leaves no tail. Truncating an
    existing file to zero on open was the cost: writing a 14.8 kB shares
    file that way took 140-190 µs, and in place 10-14 µs (ext4, 2-vCPU Xeon
    VM, best of 5). Only a regular file is cut: /dev/null, a terminal or a
    FIFO is written as open(path, "w") writes it. The write is neither
    atomic nor synced; a new file gets 0o666 under the umask.
    """
    data = (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        written = 0
        while written < len(data):  # a pipe may take fewer bytes per call
            written += os.write(fd, data[written:])
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _get(doc: dict, key: str, where: str):
    if key not in doc:
        raise SchemaViolationError(f"{where}: missing key {key!r}")
    return doc[key]


def _as_int(value, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaViolationError(f"{what} must be an integer, got {value!r}")
    return value


def _as_residue(value, p: int, what: str) -> int:
    v = _as_int(value, what)
    if not 0 <= v < p:
        raise ResidueRangeError(f"{what}={v} outside [0, {p})")
    return v


_INT = frozenset({int})  # the type set of a row of plain ints; bool is a type of its own


def _as_matrix(value, p: int, what: str) -> list[list[int]]:
    """Rectangular list of residue rows with at least one column.

    A row of plain ints in [0, p) passes in one check at C speed; any other
    row is checked coordinate by coordinate, so the error names the first
    bad one.
    """
    if not isinstance(value, list) or not value:
        raise SchemaViolationError(f"{what} must be a non-empty list of rows")
    rows = []
    width = None
    for r, row in enumerate(value):
        if not isinstance(row, list) or not row:
            raise SchemaViolationError(f"{what}[{r}] must be a non-empty list")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise CountMismatchError(
                f"{what}[{r}] has {len(row)} entries, expected {width}")
        if set(map(type, row)) == _INT and 0 <= min(row) and max(row) < p:
            rows.append(row)
        else:  # name the first bad coordinate
            rows.append([_as_residue(v, p, f"{what}[{r}][{i}]") for i, v in enumerate(row)])
    return rows


# ---------------------------------------------------------------------------
# task and dataset files


def load_task(path) -> tuple[FieldConfig, PolyMap]:
    doc = _load_json(path)
    p = _as_int(_get(doc, "p", "task"), "p")
    field = FieldConfig(p)
    m = _as_int(_get(doc, "m", "task"), "m")
    n = _as_int(_get(doc, "n", "task"), "n")
    if m < 1 or n < 1:
        raise SchemaViolationError(f"task: need m >= 1 and n >= 1, got m={m}, n={n}")
    g_doc = _get(doc, "g", "task")
    if not isinstance(g_doc, list) or len(g_doc) != n:
        raise CountMismatchError(f"task: g must list {n} output coordinates")
    terms_per_output = []
    for t, coord in enumerate(g_doc):
        if not isinstance(coord, list):
            raise SchemaViolationError(f"task: g[{t}] must be a list of terms")
        terms = []
        for s, term in enumerate(coord):
            if not isinstance(term, dict):
                raise SchemaViolationError(f"task: g[{t}][{s}] must be an object")
            coeff = _as_residue(_get(term, "coeff", f"g[{t}][{s}]"), p,
                                f"g[{t}][{s}].coeff")
            exps = _get(term, "exps", f"g[{t}][{s}]")
            if not isinstance(exps, list) or len(exps) != m:
                raise CountMismatchError(f"task: g[{t}][{s}].exps must list {m} exponents")
            exps = [_as_int(e, f"g[{t}][{s}].exps[{i}]") for i, e in enumerate(exps)]
            for i, e in enumerate(exps):
                if not 0 <= e <= p - 1:
                    raise ResidueRangeError(
                        f"g[{t}][{s}].exps[{i}]={e} outside [0, {p - 1}]")
            terms.append((coeff, tuple(exps)))
        terms_per_output.append(terms)
    return field, PolyMap.from_terms(field, m, terms_per_output)


def write_task(path, g: PolyMap) -> None:
    doc = {
        "p": g.field.p,
        "m": g.m,
        "n": g.n,
        "g": [[{"coeff": mono.coeff, "exps": mono.exps}
               for mono in coord] for coord in g.outputs],
    }
    _dump_json(path, doc)


def load_dataset(path, field: FieldConfig) -> Dataset:
    doc = _load_json(path)
    K = _as_int(_get(doc, "K", "dataset"), "K")
    if K < 1:
        raise SchemaViolationError(f"dataset: K must be >= 1, got {K}")
    rows = _as_matrix(_get(doc, "data", "dataset"), field.p, "data")
    if len(rows) != K:
        raise CountMismatchError(f"dataset: declared K={K} but data has {len(rows)} rows")
    return Dataset([FieldVector._of(field, tuple(row)) for row in rows])


def write_dataset(path, data: Dataset) -> None:
    _dump_json(path, {"K": data.K, "data": [item.values() for item in data.items]})


# ---------------------------------------------------------------------------
# shares files (scheme parameters embedded)


def params_to_json(params) -> dict:
    scheme = scheme_of(params)
    doc = {"scheme": scheme.name, "p": params.field.p, "K": params.K, "d": params.d}
    for key in scheme.scalars:
        doc[key] = getattr(params, key)
    for key in scheme.lists:
        doc[key] = list(getattr(params, key))
    return doc


def _read_header(doc: dict):
    """The scheme entry, field, K, d and points of a shares-file header."""
    name = _get(doc, "scheme", "shares")
    scheme = SCHEMES.get(name) if isinstance(name, str) else None
    if scheme is None:
        raise SchemaViolationError(f"shares: unknown scheme {name!r}")
    p = _as_int(_get(doc, "p", "shares"), "p")
    field = FieldConfig(p)
    K = _as_int(_get(doc, "K", "shares"), "K")
    d = _as_int(_get(doc, "d", "shares"), "d")
    points = {key: _as_residue(_get(doc, key, "shares"), p, key) for key in scheme.scalars}
    for key in scheme.lists:
        values = _get(doc, key, "shares")
        if not isinstance(values, list):
            raise SchemaViolationError(f"shares: {key} must be a list")
        points[key] = [_as_residue(v, p, f"{key}[{i}]") for i, v in enumerate(values)]
    return scheme, field, K, d, points


def write_shares(path, params, shares: Sequence[FieldVector]) -> None:
    doc = params_to_json(params)
    doc["shares"] = [s.values() for s in shares]
    _dump_json(path, doc)


def load_shares(path):
    """Returns (params, shares). Share count must match the scheme's N.

    The count is checked against the header's K and d before the params are
    built, so a header claiming a huge K costs nothing to refuse.
    """
    doc = _load_json(path)
    p = _as_int(_get(doc, "p", "shares"), "p")
    rows = _as_matrix(_get(doc, "shares", "shares"), p, "shares")
    scheme, field, K, d, points = _read_header(doc)
    N = {row.scheme: row.workers for row in worker_count_table(K, d)}[scheme.name]
    if len(rows) != N:
        raise CountMismatchError(f"shares: scheme needs {N} shares, file has {len(rows)}")
    params = scheme.params(field, K, d, len(rows[0]), **points)
    return params, [FieldVector._of(field, tuple(row)) for row in rows]


# ---------------------------------------------------------------------------
# outputs and decoded-result files


def write_outputs(path, outputs: Sequence[FieldVector]) -> None:
    _dump_json(path, {"outputs": [o.values() for o in outputs]})


def load_outputs(path, field: FieldConfig) -> list[FieldVector]:
    doc = _load_json(path)
    rows = _as_matrix(_get(doc, "outputs", "outputs"), field.p, "outputs")
    return [FieldVector._of(field, tuple(row)) for row in rows]


def write_decoded(path, value: FieldVector) -> None:
    _dump_json(path, {"f": value.values()})


def load_decoded(path, field: FieldConfig) -> FieldVector:
    doc = _load_json(path)
    row = _get(doc, "f", "decoded")
    if not isinstance(row, list) or not row:
        raise SchemaViolationError("decoded: f must be a non-empty list")
    return FieldVector._of(field, tuple([_as_residue(v, field.p, f"f[{i}]")
                                         for i, v in enumerate(row)]))


__all__ = [
    "load_task", "write_task", "load_dataset", "write_dataset",
    "params_to_json", "write_shares", "load_shares",
    "write_outputs", "load_outputs", "write_decoded", "load_decoded",
]
