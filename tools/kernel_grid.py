"""Check and time the encode kernels of two source trees, case by case.

    python tools/kernel_grid.py equivalence PARENT_SRC [--out FILE]
    python tools/kernel_grid.py timing [--scheme S,...] [--p P,...] [--K K,...]
                                       [--d D,...] [--m M,...] [--out FILE]

Run from the root of a checkout.

``equivalence`` encodes and decodes every case of its grid through the
handles (``harmcode.sim.make_handle``) of two trees: PARENT_SRC, the
``src`` directory of another checkout, and this checkout's ``src``. Each
tree runs in its own subprocess with ``PYTHONPATH`` on it. A case is one
scheme, prime p, K, d and data width m. Its columns are drawn from
``random.Random`` seeded by the case, with coordinate 0 set to p-1 and
coordinate 1 to 0 in every column, the largest and the smallest residues.
Its shares are then decoded as the worker outputs. The grid is p in
{2, 3, 5, 7, 11, 13, 101, 2^30+3, 2^31-1}, all four schemes (freshman at
d = p), K in {1, 2, 3, 5, 8, 16}, d <= 3 and m in 1..44, 64, 128 and 512
(``GRIDS["full"]``; the tests run the corner ``GRIDS["small"]`` through
:func:`equivalence`). A case whose parameters a tree refuses
is recorded as refused. The command prints every case whose shares,
decoded residues or kernel taken differ, and the counts. The kernel taken
is the matrix narrow, the matrix wide, or the scheme's own wide encoder
(``own``). It exits 1 if any case's shares or decoded residues differ or a
tree fails to run, else 0: a kernel that changes and gives the same
residues is reported, not failed.

``timing`` times each kernel that can encode a shape with ``timeit`` (best
of 5 repeats): the matrix narrow and wide, and the scheme's own wide
encoder where it runs. For each shape it records which kernel the handle
takes and whether that one is within 1.10x of the fastest. With no shape
option it times the benchmark's workload shapes, read from
``perfbench/specs.py``: audit-tiny's at the width of the auditor's encode
calls. Otherwise it times every
combination of the lists given, with each list not given taken from these
defaults: harmonic, LCC and Shamir, p = 2^31-1, K = 8, d = 3 and m = 4;
a combination whose parameters are refused is skipped. It prints the
table and the counts.

``--out`` writes the command's JSON report to FILE. Stdlib only, like
``tools/mutants.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import itertools
import json
import os
import random
import subprocess
import sys
import timeit

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

TOP = 2**31 - 1
SCHEMES = ("harmonic", "lcc", "shamir", "freshman")
GRIDS = {
    "full": ((2, 3, 5, 7, 11, 13, 101, 2**30 + 3, TOP), (1, 2, 3, 5, 8, 16), (1, 2, 3),
             tuple(range(1, 45)) + (64, 128, 512)),
    "small": ((5, TOP), (1, 8), (1, 3), (1, 3, 4, 10, 64)),
}
WITHIN = 1.10


def cases(grid: str):
    """(scheme, p, K, d, m) of every case of the grid, freshman at d = p."""
    primes, Ks, ds, ms = GRIDS[grid]
    for scheme, p, K in itertools.product(SCHEMES, primes, Ks):
        for d in ((p,) if scheme == "freshman" else ds):
            for m in ms:
                yield scheme, p, K, d, m


def kernel_taken(handle) -> str:
    """Which kernel a handle's last encode ran: ``own`` where it built the
    scheme's own wide encoder, ``wide`` where it built the matrix's wide
    kernel, and ``narrow`` where it built neither."""
    if "_wide" not in vars(handle):
        return "narrow"
    return "own" if handle._ops is not None else "wide"


def case_columns(p: int, width: int, m: int, seed: str) -> list[tuple[int, ...]]:
    rng = random.Random(seed)
    cols = []
    for _ in range(width):
        col = [rng.randrange(p) for _ in range(m)]
        col[0] = p - 1
        if m > 1:
            col[1] = 0
        cols.append(tuple(col))
    return cols


def digest(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()[:16]


def run_cases(grid: str) -> dict:
    """Each case of the grid through the harmcode on sys.path: its kernel
    taken and the digests of its shares and decoded residues, or
    ``refused`` with the error's type."""
    import harmcode
    from harmcode.field import FieldConfig
    from harmcode.sim import SCHEMES as TABLE, make_handle

    out = {}
    for scheme, p, K, d, m in cases(grid):
        key = f"{scheme} p={p} K={K} d={d} m={m}"
        try:
            handle = make_handle(TABLE[scheme].params(FieldConfig(p), K, d, m))
            cols = case_columns(p, K + handle.num_keys, m, key)
            shares = handle.encode_residues(cols, m)
            decoded = handle.vector.apply_residues(shares, m)
        except harmcode.HarmcodeError as exc:
            out[key] = ["refused", type(exc).__name__, ""]
            continue
        out[key] = [kernel_taken(handle), digest(shares), digest(decoded)]
    return {"harmcode": harmcode.__file__, "cases": out}


def tree_cases(src: str, grid: str) -> dict:
    """:func:`run_cases` in a subprocess with PYTHONPATH on ``src``."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "_cases", grid],
                          env=env, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"cases from {src} failed:\n{proc.stderr}")
    report = json.loads(proc.stdout)
    if not report["harmcode"].startswith(os.path.abspath(src) + os.sep):
        raise RuntimeError(f"{src} imported harmcode from {report['harmcode']}")
    return report["cases"]


def equivalence(parent_src: str, grid: str) -> tuple[int, dict]:
    parent, tree = tree_cases(parent_src, grid), tree_cases(SRC, grid)
    diffs = {"shares": [], "decoded": [], "kernel": [], "refused": []}
    for key in parent.keys() | tree.keys():
        was, now = parent.get(key), tree.get(key)
        if was is None or now is None or ("refused" in (was[0], now[0]) and was != now):
            diffs["refused"].append([key, was, now])
            continue
        if was[0] != now[0]:
            diffs["kernel"].append([key, was[0], now[0]])
        if was[1] != now[1]:
            diffs["shares"].append([key, was[0], now[0]])
        if was[2] != now[2]:
            diffs["decoded"].append([key, was[0], now[0]])
    for kind in diffs:
        diffs[kind].sort()
        for row in diffs[kind]:
            print(kind, *row)
    counts = {kind: len(rows) for kind, rows in diffs.items()}
    refused = sum(tree[key][0] == "refused" == parent.get(key, [""])[0] for key in tree)
    print(f"{len(tree)} cases, {refused} refused by both trees; differences: "
          + ", ".join(f"{n} {k}" for k, n in counts.items()))
    failed = counts["shares"] or counts["decoded"] or counts["refused"]
    return (1 if failed else 0), {"parent_src": os.path.abspath(parent_src), "grid": grid,
                                  "cases": len(tree), "refused_by_both": refused,
                                  "counts": counts, "differences": diffs}


def best_time(fn, *args) -> float:
    """Seconds per call of fn(*args), the best of 5 repeats of enough calls
    to take about 0.02 s."""
    timer = timeit.Timer(lambda: fn(*args))
    number = max(1, int(0.02 / max(timer.timeit(1), 1e-7)))
    return min(timer.repeat(repeat=5, number=number)) / number


def time_shape(scheme: str, p: int, K: int, d: int, m: int) -> dict | None:
    """One row of the timing table, or None where the parameters are refused."""
    from harmcode import HarmcodeError
    from harmcode.field import FieldConfig
    from harmcode.linear import _apply_narrow, _apply_wide
    from harmcode.sim import SCHEMES as TABLE, make_handle

    try:
        params = TABLE[scheme].params(FieldConfig(p), K, d, m)
    except HarmcodeError:
        return None
    handle = make_handle(params)
    cols = case_columns(p, K + handle.num_keys, m, f"timing {scheme} {p} {K} {d} {m}")
    handle.encode_residues(cols, m)
    times = {"narrow": best_time(_apply_narrow, handle.matrix, cols, m, p),
             "wide": best_time(_apply_wide, handle.matrix, cols, m, p)}
    if handle._ops is not None:
        times["own"] = best_time(handle.scheme.fast_encode[0](params), cols, m)
    taken = kernel_taken(handle)
    return {"scheme": scheme, "p": p, "K": K, "d": d, "m": m, "threshold": handle._threshold,
            "taken": taken, "us": {k: round(v * 1e6, 2) for k, v in times.items()},
            "within": times[taken] <= WITHIN * min(times.values())}


def audit_width(scheme: str, p: int, K: int, d: int, m: int) -> int:
    """The coordinates in the auditor's widest encode call
    (``harmcode.sim.audit``) on one instance."""
    from harmcode.field import FieldConfig
    from harmcode.sim import _AUDIT_CALL_FLOOR, SCHEMES as TABLE, make_handle

    handle = make_handle(TABLE[scheme].params(FieldConfig(p), K, d, m))
    repeats = p ** ((K - 1 + handle.num_keys) * m)
    return min(max(1, _AUDIT_CALL_FLOOR // (repeats * m)), p ** m) * repeats * m


def workload_shapes() -> list[tuple]:
    """(scheme, p, K, d, m) of each scheme in each benchmark workload."""
    spec = importlib.util.spec_from_file_location(
        "specs", os.path.join(ROOT, "perfbench", "specs.py"))
    specs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(specs)
    shapes = []
    for name, sizes in specs.SIZES.items():
        if name != "audit-tiny":
            shapes += [(s, sizes["p"], sizes["K"], sizes["d"], sizes["m"])
                       for s in specs.SCHEMES]
    for s in specs.SCHEMES:
        inst = specs.AUDIT_TINY[s]
        shape = inst["p"], inst["K"], inst["d"]
        shapes.append((s, *shape, audit_width(s, *shape, inst["m"])))
    return shapes


def timing_shapes(args) -> list[tuple]:
    lists = (args.scheme, args.p, args.K, args.d, args.m)
    if not any(lists):
        return workload_shapes()
    schemes = args.scheme or ["harmonic", "lcc", "shamir"]
    return list(itertools.product(schemes, args.p or [TOP], args.K or [8], args.d or [3],
                                  args.m or [4]))


def timing(args) -> tuple[int, dict]:
    rows = []
    for shape in timing_shapes(args):
        row = time_shape(*shape)
        if row is None:
            print("refused", *shape)
            continue
        rows.append(row)
        us = " ".join(f"{k}={v}" for k, v in row["us"].items())
        print(f"{row['scheme']} p={row['p']} K={row['K']} d={row['d']} m={row['m']} "
              f"t={row['threshold']} takes {row['taken']} {'ok' if row['within'] else 'MISS'} "
              f"us: {us}", flush=True)
    within = sum(row["within"] for row in rows)
    print(f"{within} of {len(rows)} shapes take a kernel within {WITHIN}x of the fastest")
    return 0, {"within": WITHIN, "shapes": len(rows), "taken_within": within, "rows": rows}


def ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",")]


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["_cases"]:
        json.dump(run_cases(argv[1]), sys.stdout)
        return 0
    parser = argparse.ArgumentParser(prog="kernel_grid.py", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    eq = sub.add_parser("equivalence", help="compare shares, decodes and kernels with a tree")
    eq.add_argument("parent_src")
    eq.add_argument("--out")
    tm = sub.add_parser("timing", help="time each kernel per shape")
    tm.add_argument("--scheme", type=lambda s: s.split(","))
    for name in ("p", "K", "d", "m"):
        tm.add_argument(f"--{name}", type=ints)
    tm.add_argument("--out")
    args = parser.parse_args(argv)
    if args.command == "equivalence":
        code, report = equivalence(args.parent_src, "full")
    else:
        sys.path.insert(0, SRC)
        code, report = timing(args)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
