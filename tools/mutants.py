"""Mutation check: every mutant in MUTANTS must be killed by its tests.

    python tools/mutants.py

Run from the root of a checkout. Each mutant is one edit to one file of the
package: for each, this copies ``src/`` to a temporary directory, replaces
the mutant's old text by its new text there, and runs the named test ids
with ``PYTHONPATH`` on the copy. The old text must occur exactly once in
the file, so a mutant that no longer matches the code shows as "stale"
rather than as a pass. Each mutant prints as killed (some named test
failed), survived (they all passed), stale, or error (pytest could not run
the named tests). The exit code is 1 if any mutant is not killed, else 0.

Stdlib only; pytest runs in a subprocess with the interpreter running this.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

Mutant = namedtuple("Mutant", ("name", "path", "old", "new", "tests"))

_THRESHOLDS = "tests/test_linear.py::test_handles_encode_narrow_below_their_threshold"
_ONE_RULE = "tests/test_linear.py::test_each_map_keeps_the_one_rule_and_dispatches_by_it"
_KERNELS = "tests/test_linear.py::test_both_kernels_agree_on_every_shape"
_LAYOUTS = "tests/test_linear.py::test_layout_bounds_every_slot"
_CHAIN = "tests/test_linear.py::test_packed_chain_encoder_matches_the_matrix_and_the_reference"
_UNIT_ROWS = "tests/test_linear.py::test_wide_rows_add_unit_terms_unmultiplied"
_EQUALITY = "tests/test_linear.py::test_maps_are_equal_by_kind_field_rows_and_key_split"
_STREAM = "tests/test_field.py::test_sampling_draws_the_randrange_stream"
_AUDIT = "tests/test_sim.py::test_batched_audit_matches_per_state_reference"

MUTANTS = [
    # the handle's kernel choice: one weighted count per wide encoder,
    # against the narrow matrix's m * (width + N/2 + 2)
    Mutant("narrow-below: packs dropped", "src/harmcode/linear.py",
           "wide = 2 * packs + products + additions + 2 * reductions",
           "wide = products + additions + 2 * reductions", (_THRESHOLDS,)),
    Mutant("narrow-below: products dropped", "src/harmcode/linear.py",
           "wide = 2 * packs + products + additions + 2 * reductions",
           "wide = 2 * packs + additions + 2 * reductions", (_THRESHOLDS,)),
    Mutant("narrow-below: additions dropped", "src/harmcode/linear.py",
           "wide = 2 * packs + products + additions + 2 * reductions",
           "wide = 2 * packs + products + 2 * reductions", (_THRESHOLDS,)),
    Mutant("narrow-below: reductions dropped", "src/harmcode/linear.py",
           "wide = 2 * packs + products + additions + 2 * reductions",
           "wide = 2 * packs + products + additions", (_THRESHOLDS,)),
    Mutant("narrow-below: the narrow kernel's width dropped", "src/harmcode/linear.py",
           "(2 * width + rows + 4)", "(rows + 4)", (_THRESHOLDS,)),
    Mutant("narrow-below: the narrow kernel's rows dropped", "src/harmcode/linear.py",
           "(2 * width + rows + 4)", "(2 * width + 4)", (_THRESHOLDS,)),
    Mutant("narrow-below: the narrow kernel's constant dropped", "src/harmcode/linear.py",
           "(2 * width + rows + 4)", "(2 * width + rows)", (_THRESHOLDS,)),
    Mutant("narrow-below: threshold one higher", "src/harmcode/linear.py",
           "return -(-2 * wide // (2 * width + rows + 4))",
           "return -(-2 * wide // (2 * width + rows + 4)) + 1", (_THRESHOLDS,)),
    Mutant("narrow-below: threshold one lower", "src/harmcode/linear.py",
           "return -(-2 * wide // (2 * width + rows + 4))",
           "return -(-2 * wide // (2 * width + rows + 4)) - 1", (_THRESHOLDS,)),
    Mutant("encode_residues: narrow at the threshold too", "src/harmcode/linear.py",
           "if m < self._threshold:", "if m <= self._threshold:", (_THRESHOLDS,)),
    Mutant("chain count: packs dropped", "src/harmcode/harmonic.py",
           "return K + 1, 2 * K * d, K * d, params.N - 1 + K",
           "return 0, 2 * K * d, K * d, params.N - 1 + K", (_THRESHOLDS,)),
    Mutant("chain count: products dropped", "src/harmcode/harmonic.py",
           "return K + 1, 2 * K * d, K * d, params.N - 1 + K",
           "return K + 1, 0, K * d, params.N - 1 + K", (_THRESHOLDS,)),
    Mutant("chain count: additions dropped", "src/harmcode/harmonic.py",
           "return K + 1, 2 * K * d, K * d, params.N - 1 + K",
           "return K + 1, 2 * K * d, 0, params.N - 1 + K", (_THRESHOLDS,)),
    Mutant("chain count: the chain's Barrett steps dropped", "src/harmcode/harmonic.py",
           "return K + 1, 2 * K * d, K * d, params.N - 1 + K",
           "return K + 1, 2 * K * d, K * d, params.N - 1", (_THRESHOLDS,)),
    Mutant("chain count: the shares' reductions dropped", "src/harmcode/harmonic.py",
           "return K + 1, 2 * K * d, K * d, params.N - 1 + K",
           "return K + 1, 2 * K * d, K * d, K", (_THRESHOLDS,)),
    Mutant("difference count: packs dropped", "src/harmcode/baselines.py",
           "return K + 1, 0, K * (K + 1) + N * K, N",
           "return 0, 0, K * (K + 1) + N * K, N", (_THRESHOLDS,)),
    Mutant("difference count: the table's additions dropped", "src/harmcode/baselines.py",
           "return K + 1, 0, K * (K + 1) + N * K, N",
           "return K + 1, 0, N * K, N", (_THRESHOLDS,)),
    Mutant("difference count: the shares' additions dropped", "src/harmcode/baselines.py",
           "return K + 1, 0, K * (K + 1) + N * K, N",
           "return K + 1, 0, K * (K + 1), N", (_THRESHOLDS,)),
    Mutant("difference count: reductions dropped", "src/harmcode/baselines.py",
           "return K + 1, 0, K * (K + 1) + N * K, N",
           "return K + 1, 0, K * (K + 1) + N * K, 0", (_THRESHOLDS,)),
    Mutant("handle: the matrix's threshold one higher", "src/harmcode/linear.py",
           "return self.matrix.narrow_below", "return self.matrix.narrow_below + 1",
           (_THRESHOLDS,)),
    # a map's own threshold, the least m with m * width >= nnz + rows +
    # 4 * width, kept when it is built, and the one comparison with it
    Mutant("narrow_below: nnz dropped", "src/harmcode/linear.py",
           "-(-(nnz + len(rows) + 4 * width) // width)",
           "-(-(len(rows) + 4 * width) // width)", (_ONE_RULE,)),
    Mutant("narrow_below: rows dropped", "src/harmcode/linear.py",
           "-(-(nnz + len(rows) + 4 * width) // width)",
           "-(-(nnz + 4 * width) // width)", (_ONE_RULE,)),
    Mutant("narrow_below: the packs' 4 * width dropped", "src/harmcode/linear.py",
           "-(-(nnz + len(rows) + 4 * width) // width)",
           "-(-(nnz + len(rows)) // width)", (_ONE_RULE,)),
    Mutant("narrow_below: a map of no terms at 1", "src/harmcode/linear.py",
           "// width) if nnz else 0", "// width) if nnz else 1", (_ONE_RULE,)),
    Mutant("_apply_rows: narrow at the threshold too", "src/harmcode/linear.py",
           "if m < lmap.narrow_below:", "if m <= lmap.narrow_below:", (_ONE_RULE,)),
    # slot sizes: each kernel's bound, the heaviest row, the layout itself
    # and the chain's bound
    Mutant("wide kernel: the slot bound halved", "src/harmcode/linear.py",
           "_layout(m, p, lmap.heaviest * (p - 1))",
           "_layout(m, p, lmap.heaviest * (p - 1) // 2)", (_KERNELS,)),
    Mutant("wide kernel: the (p - 1) factor dropped", "src/harmcode/linear.py",
           "_layout(m, p, lmap.heaviest * (p - 1))", "_layout(m, p, lmap.heaviest)",
           (_KERNELS,)),
    Mutant("narrow kernel: the (p - 1) factor dropped", "src/harmcode/linear.py",
           "_layout(len(rows), p, lmap.heaviest * (p - 1))", "_layout(len(rows), p, lmap.heaviest)",
           (_KERNELS,)),
    Mutant("heaviest: the largest coefficient", "src/harmcode/linear.py",
           "self.heaviest = max(map(sum, rows), default=0)",
           "self.heaviest = max(map(max, rows), default=0)", (_KERNELS,)),
    Mutant("heaviest: the first row's sum", "src/harmcode/linear.py",
           "self.heaviest = max(map(sum, rows), default=0)",
           "self.heaviest = sum(rows[0]) if rows else 0", (_KERNELS,)),
    Mutant("layout: s one bit short", "src/harmcode/linear.py",
           "s = top.bit_length()", "s = max(top.bit_length() - 1, 0)", (_KERNELS,)),
    Mutant("layout: slots past 8 bytes padded to 16", "src/harmcode/linear.py",
           'fmt = "<" + ("Q" + "x" * (width - 8)) * m',
           'width = 16\n        fmt = "<" + ("Q" + "x" * 8) * m', (_LAYOUTS,)),
    Mutant("layout: 1- and 2-byte slots rounded up to 4", "src/harmcode/linear.py",
           "width = 1 << (width - 1).bit_length()",
           "width = max(4, 1 << (width - 1).bit_length())", (_LAYOUTS,)),
    Mutant("chain: slots sized for _CHAIN_TERMS * (p - 1)", "src/harmcode/harmonic.py",
           "_CHAIN_TERMS * (p - 1) ** 2", "_CHAIN_TERMS * (p - 1)", (_CHAIN,)),
    # the wide kernel's rows
    Mutant("wide rows: the first product dropped", "src/harmcode/linear.py",
           "sum(products[1:], products[0]) if products else 0",
           "sum(products[1:]) if products else 0", (_UNIT_ROWS,)),
    Mutant("wide rows: every nonzero coefficient taken as 1", "src/harmcode/linear.py",
           "[packed[k] if c == 1 else c * packed[k] for k, c in row]",
           "[packed[k] for k, c in row]", (_UNIT_ROWS,)),
    Mutant("wide rows: an empty row sums to 1", "src/harmcode/linear.py",
           "sum(products[1:], products[0]) if products else 0",
           "sum(products[1:], products[0]) if products else 1", (_UNIT_ROWS,)),
    # map equality
    Mutant("__eq__: the key count dropped", "src/harmcode/linear.py",
           'for a in ("field", "rows", "K", "num_keys"))', 'for a in ("field", "rows", "K"))',
           (_EQUALITY,)),
    Mutant("__eq__: any LinearMap of the same rows", "src/harmcode/linear.py",
           "return type(other) is type(self) and all(",
           "return isinstance(other, LinearMap) and all(", (_EQUALITY,)),
    # the key draw: one getrandbits per round, rejected slots cut
    Mutant("draw: the words in reverse order", "src/harmcode/field.py",
           "return FieldVector._of(field, words.unpack(drawn))",
           "return FieldVector._of(field, words.unpack(drawn)[::-1])", (_STREAM,)),
    Mutant("draw: rejected slots not cut", "src/harmcode/field.py",
           '.to_bytes(4 * n, "little").replace(_REJECTED, b"")', '.to_bytes(4 * n, "little")',
           (_STREAM,)),
    # the auditor's law slices
    Mutant("auditor: coordinates not cut into m-tuples", "src/harmcode/sim.py",
           "shares = zip(*[shares] * m)", "pass", (_AUDIT,)),
    Mutant("auditor: half as many shares per slice", "src/harmcode/sim.py",
           "return zip(*[shares] * key_states)",
           "return zip(*[shares] * max(1, key_states // 2))", (_AUDIT,)),
    # the validity gate: decode weights, parameter checks, the auditor and
    # the oracle
    Mutant("harmonic decode: head weight off by one", "src/harmcode/harmonic.py",
           "weights = [rows[0][-2]]", "weights = [rows[0][-2] + 1]",
           ("tests/test_harmonic.py::test_decode_vector_fixture",)),
    Mutant("harmonic params: the ratio c/(c-K) accepted as a beta",
           "src/harmcode/harmonic.py",
           "for i in range(K + 1):\n        den = (c - i) % p",
           "for i in range(K):\n        den = (c - i) % p",
           ("tests/test_harmonic.py::test_corrupt_params_raise_at_decode",)),
    Mutant("auditor: conditional equality forced true", "src/harmcode/sim.py",
           "cond_equal.append(equal)", "cond_equal.append(True)",
           ("tests/test_sim.py::test_audit_clear_storage_leak_detected",)),
    Mutant("oracle: one input fewer", "src/harmcode/poly.py",
           "_gradient_sum(g, [item.values() for item in data.items])",
           "_gradient_sum(g, [item.values() for item in data.items[1:]])",
           ("tests/test_poly.py::test_direct_gradient_sum_examples",)),
]


def stale(mutant: Mutant, root: str = ROOT) -> bool:
    """Whether the mutant's old text does not occur exactly once in its file."""
    with open(os.path.join(root, mutant.path), encoding="utf-8") as fh:
        return fh.read().count(mutant.old) != 1


def run(mutant: Mutant) -> str:
    """'killed', 'survived', 'stale' or 'error' for one mutant."""
    if stale(mutant):
        return "stale"
    with tempfile.TemporaryDirectory(prefix="harmcode-mutant-") as tmp:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(tmp, "src"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        target = os.path.join(tmp, mutant.path)
        with open(target, encoding="utf-8") as fh:
            text = fh.read()
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=os.path.join(tmp, "src"), PYTHONDONTWRITEBYTECODE="1")
        code = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
    return {0: "survived", 1: "killed"}.get(code, "error")


def main() -> int:
    failed = 0
    for mutant in MUTANTS:
        verdict = run(mutant)
        failed += verdict != "killed"
        print(f"{verdict:8} {mutant.name}", flush=True)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
