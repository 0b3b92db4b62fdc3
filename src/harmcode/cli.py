"""Command-line front end.

Commands:
  demo           reproduce the fixed F_5, K=2, d=2 worked example and verify
                 every coefficient against the frozen reference values
  validate       run randomized encode/compute/decode trials (JSON lines)
  privacy-audit  exhaustively audit per-worker share distributions (JSON)
  compare        print the worker counts of all schemes for a given (K, d)
  encode         dataset file -> shares file (never looks at the task:
                 encodings depend only on p, K, d)
  decode         shares-file parameters + outputs file -> decoded f vector

Exit codes: 0 success, 1 validity/golden/privacy failure, 2 usage or
configuration error, unreadable path or undecodable file (any HarmcodeError
or OSError, as one "error:" line). PRIVACY_AUDIT_BUDGET overrides the
auditor's state-count cap.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys

from . import baselines, fileio, harmonic, sim
from .errors import CountMismatchError, HarmcodeError
from .field import FieldConfig, sample_keys
from .poly import Dataset, PolyMap, random_dataset, random_poly

# Frozen reference values for the worked example (p=5, K=2, d=2, c=4, beta=4),
# as coefficient rows over (X1, X2, Z).
DEMO_P_ROWS = ((0, 0, 1), (3, 0, 3), (2, 2, 2))
DEMO_MATRIX = ((0, 0, 1), (2, 0, 4), (4, 3, 4), (2, 2, 2))
DEMO_DECODE = (2, 1, 3, 1)
DEMO_TRIALS = 100


class UsageError(HarmcodeError):
    """Semantically invalid flag combination."""


def _parse_betas(text):
    if text is None:
        return None
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"--betas must be comma-separated integers, got {text!r}") from exc


def _demo_quadratic_map(field: FieldConfig) -> PolyMap:
    """g(X) = A X^T X + B X + C over F_5 for 2x2 matrices, flattened row-major.

    Output (r,s) collects sum_{t,u} A[r][t] X[u][t] X[u][s]
    plus sum_u B[r][u] X[u][s] plus C[r][s].
    """
    A = ((1, 2), (3, 0))
    B = ((1, 0), (4, 2))
    C = ((2, 1), (0, 3))
    raw = []
    for r in range(2):
        for s in range(2):
            terms = []
            for t in range(2):
                for u in range(2):
                    exps = [0, 0, 0, 0]
                    exps[2 * u + t] += 1
                    exps[2 * u + s] += 1
                    terms.append((A[r][t], tuple(exps)))
            for u in range(2):
                exps = [0, 0, 0, 0]
                exps[2 * u + s] = 1
                terms.append((B[r][u], tuple(exps)))
            terms.append((C[r][s], (0, 0, 0, 0)))
            raw.append(terms)
    return PolyMap.from_terms(field, 4, raw)


def cmd_demo(args) -> int:
    field = FieldConfig(5)
    c = 4 if args.c is None else args.c
    betas = _parse_betas(args.betas)
    if betas is None and c == 4:
        betas = [4]
    params = harmonic.select_params(field, 2, 2, c=c, betas=betas)
    print(f"harmonic coding worked example (p=5, K=2, d=2, "
          f"c={params.c}, betas={list(params.betas)})")
    diffs = []

    p_rows = _probe_chain_rows(params)
    print("masking chain coefficients over (X1, X2, Z):")
    for j, row in enumerate(p_rows):
        print(f"  P{j} = {row}")
        if row != DEMO_P_ROWS[j]:
            diffs.append(f"P{j}: expected {DEMO_P_ROWS[j]}, got {row}")

    handle = sim.make_handle(params)
    print("encoding matrix rows over (X1, X2, Z):")
    for w, row in enumerate(handle.matrix.rows, start=1):
        print(f"  worker {w}: {row}")
        if row != DEMO_MATRIX[w - 1]:
            diffs.append(f"matrix row {w}: expected {DEMO_MATRIX[w - 1]}, got {row}")

    vector = handle.vector.weights
    print(f"decode vector: {vector}")
    if vector != DEMO_DECODE:
        diffs.append(f"decode vector: expected {DEMO_DECODE}, got {vector}")

    g = _demo_quadratic_map(field)
    rng = random.Random(20240405)
    exact = 0
    for _ in range(DEMO_TRIALS):
        data = random_dataset(rng, field, 2, 4)
        report = sim.run_trial(handle, g, data, rng.randrange(2**32))
        exact += report.exact_match
    print(f"matrix quadratic g over F_5 (m=4, n=4): {exact}/{DEMO_TRIALS} trials exact")
    if exact != DEMO_TRIALS:
        diffs.append(f"quadratic trial: expected {DEMO_TRIALS} exact, got {exact}")

    if diffs:
        for d in diffs:
            print(f"MISMATCH {d}")
        print("reference values NOT reproduced")
        return 1
    print("all reference values reproduced")
    return 0


def _probe_chain_rows(params) -> list[tuple[int, ...]]:
    """Coefficient rows of P_0..P_K over (X_1..X_K, Z) from one chain call.

    The chain acts on every coordinate alike, so with X_k the k-th and Z the
    last unit vector of width K+1, coordinate t of P_j is P_j's coefficient
    on column t.
    """
    K = params.K
    units = [params.field.vector([int(i == t) for i in range(K + 1)]) for t in range(K + 1)]
    chain = harmonic.intermediate_vars(params, Dataset(units[:K]), units[K])
    return [vec.values() for vec in chain]


def _build_handle(field, K, m, args):
    """The code of --scheme from the flags; --c/--betas only where it stores them."""
    scheme = sim.SCHEMES[args.scheme]
    flags = {"c": args.c, "betas": _parse_betas(args.betas)}
    points = {key: value for key, value in flags.items() if value is not None}
    ignored = [key for key in points if key not in scheme.scalars + scheme.lists]
    if ignored:
        raise UsageError(f"{scheme.name} takes no {' or '.join('--' + k for k in ignored)}")
    return sim.make_handle(scheme.params(field, K, args.d, m, **points))


def cmd_validate(args) -> int:
    if args.trials < 1:
        raise UsageError("--trials must be >= 1")
    m = 1 if args.m is None else args.m
    n = 1 if args.n is None else args.n
    if m < 1 or n < 1:
        raise UsageError("--m and --n must be >= 1")
    field = FieldConfig(args.p)
    fixed = _build_handle(field, args.K, m, args)
    task_g = None
    if args.task is not None:
        if fixed.worker_fn is not None:
            raise UsageError(f"{fixed.kind} fixes its own g; --task is not accepted")
        task_field, task_g = fileio.load_task(args.task)
        if task_field != field:
            raise UsageError(f"task file is over F_{task_field.p}, flags say F_{field.p}")
        if args.n is not None and args.n != task_g.n:
            raise UsageError(f"task file has n={task_g.n}, flags say --n {args.n}")
        if args.m is not None and args.m != task_g.m:
            raise UsageError(f"task file has m={task_g.m}, flags say --m {args.m}")
        m = task_g.m
    master = random.Random(args.seed)
    all_exact = True
    for _ in range(args.trials):
        if fixed.worker_fn is not None:
            # a scheme that fixes g (freshman) gets a fresh g per trial
            handle = sim.make_handle(
                _random_freshman_params(master, field, args.K, m, n))
            g = None
        else:
            handle = fixed
            g = task_g if task_g is not None else random_poly(master, field, m, n, args.d)
        data = random_dataset(master, field, args.K, m)
        report = sim.run_trial(handle, g, data, master.randrange(2**32))
        print(json.dumps(report.to_json()))
        all_exact &= report.exact_match
    return 0 if all_exact else 1


def _random_freshman_params(rng, field, K, m, n):
    while True:
        matrix = [[rng.randrange(field.p) for _ in range(m)] for _ in range(n)]
        if any(map(any, matrix)):
            return baselines.FreshmanParams(field, K, m, n, matrix)


def cmd_privacy_audit(args) -> int:
    m = 1 if args.m is None else args.m
    if m < 1:
        raise UsageError("--m must be >= 1")
    budget = sim.DEFAULT_AUDIT_BUDGET
    env = os.environ.get("PRIVACY_AUDIT_BUDGET")
    if env is not None:
        try:
            budget = int(env)
        except ValueError as exc:
            raise UsageError(f"PRIVACY_AUDIT_BUDGET must be an integer, got {env!r}") from exc
    field = FieldConfig(args.p)
    handle = _build_handle(field, args.K, m, args)
    if args.inject_leak:
        handle = sim.ClearStorageScheme(handle)
    report = sim.privacy_audit_exhaustive(handle, m=m, budget=budget)
    print(json.dumps(report.to_json(), indent=2))
    return 0 if report.all_private else 1


def cmd_compare(args) -> int:
    rows = sim.worker_count_table(args.K, args.d)
    if args.json:
        doc = {
            "K": args.K,
            "d": args.d,
            "workers": {row.scheme: row.workers for row in rows},
            "special_case_only": [row.scheme for row in rows if row.special_case_only],
        }
        print(json.dumps(doc))
        return 0
    print(f"worker counts for K={args.K}, d={args.d}")
    for row in rows:
        note = "  (requires deg g = field characteristic)" if row.special_case_only else ""
        print(f"  {row.scheme:<9} {row.workers}{note}")
    return 0


def cmd_encode(args) -> int:
    field = FieldConfig(args.p)
    data = fileio.load_dataset(args.data, field)
    handle = _build_handle(field, data.K, data.m, args)
    rng = random.Random(args.seed)
    keys = sample_keys(rng, field, handle.num_keys, data.m)
    shares = handle.encode(data, keys)
    fileio.write_shares(args.out, handle.params, shares)
    print(f"wrote {len(shares)} shares to {args.out}")
    return 0


def cmd_decode(args) -> int:
    params, shares = fileio.load_shares(args.shares)
    handle = sim.make_handle(params)
    outputs = fileio.load_outputs(args.outputs, params.field)
    if len(outputs) != handle.worker_count:
        raise CountMismatchError(
            f"outputs: scheme needs {handle.worker_count} worker outputs, "
            f"file has {len(outputs)}")
    decoded = handle.decode(outputs)
    fileio.write_decoded(args.out, decoded)
    print(f"wrote decoded vector (n={decoded.dim}) to {args.out}")
    return 0


# Every flag, declared once: name -> add_argument keywords.
_FLAGS = {
    "scheme": {"choices": tuple(sim.SCHEMES), "required": True},
    "p": {"type": int, "required": True},
    "K": {"type": int, "default": 2},
    "d": {"type": int, "required": True},
    "m": {"type": int, "default": None,
          "help": "data width (default: the task's m with --task, else 1)"},
    "n": {"type": int, "default": None,
          "help": "outputs of g (default: the task's n, else 1)"},
    "trials": {"type": int, "default": 100},
    "seed": {"type": int, "default": 0},
    "task": {"type": str, "default": None,
             "help": "fix g from a task file instead of sampling"},
    "c": {"type": int, "default": None},
    "betas": {"type": str, "default": None},
    "inject-leak": {"action": "store_true", "help": argparse.SUPPRESS},
    "json": {"action": "store_true"},
    "data": {"type": str, "required": True},
    "shares": {"type": str, "required": True},
    "outputs": {"type": str, "required": True},
    "out": {"type": str, "required": True},
}

# Each command: (name, handler, help, its flags in order). A trailing "!"
# makes that command's flag required, with no default.
_COMMANDS = (
    ("demo", cmd_demo, "reproduce the worked example", "c betas"),
    ("validate", cmd_validate, "randomized validity trials",
     "scheme p K d m n trials seed task c betas"),
    ("privacy-audit", cmd_privacy_audit, "exhaustive share-law audit",
     "scheme p K d m c betas inject-leak"),
    ("compare", cmd_compare, "worker counts per scheme", "K! d json"),
    ("encode", cmd_encode, "dataset file -> shares file", "scheme p d data out seed c betas"),
    ("decode", cmd_decode, "outputs file -> decoded f vector", "shares outputs out"),
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built by the first ``main`` call and kept: parsing
    leaves it unchanged, so later in-process calls reuse it."""
    parser = argparse.ArgumentParser(
        prog="harmcode",
        description="Privacy-preserving coded computation of g(X_1)+...+g(X_K) "
                    "over prime fields.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, func, help_text, flags in _COMMANDS:
        cmd = sub.add_parser(command, help=help_text)
        for flag in flags.split():
            name = flag.rstrip("!")
            kwargs = _FLAGS[name]
            if name != flag:
                kwargs = {**kwargs, "default": None, "required": True}
            cmd.add_argument(f"--{name}", **kwargs)
        cmd.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (HarmcodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
