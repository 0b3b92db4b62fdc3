"""The four workloads: inputs drawn from a seed, one timed operation per
scheme and round, an exactness check on each, and a traced replay that
splits the same operation into spans around each harmcode module.

A round runs the harmonic, LCC and Shamir schemes in turn on the same
inputs. Untraced, an operation is one public-API call sequence and is
timed whole; a result that fails its check is counted as a failure and its
time is dropped. Traced, the benchmark replays the operation step by step
through the module functions under spans and cross-checks the replay
against the untraced result.
"""

import contextlib
import gc
import io
import os
import random
import time

from harmcode import (
    ClearStorageScheme,
    EncodeStats,
    FieldConfig,
    PolyMap,
    baselines,
    cli,
    direct_gradient_sum,
    fileio,
    harmonic,
    random_dataset,
    sample_uniform_vector,
    sim,
)

import specs

ENCODE_SPAN = {
    "harmonic": "harmonic.encode",
    "lcc": "baselines.lcc_encode",
    "shamir": "baselines.shamir_encode",
}
PARAMS_SPAN = {
    "harmonic": "harmonic.select_params",
    "lcc": "baselines.params",
    "shamir": "baselines.params",
}


REFERENCE_STEPS = 4000


def reference_kernel():
    """A fixed pure-Python loop of multiply-adds mod 2^31 - 1, the scalar
    arithmetic the field layer does, independent of harmcode."""
    p = specs.P
    acc = 1
    for x in list(range(REFERENCE_STEPS)):
        acc = (acc * 48271 + x) % p
    return acc


def reference_seconds():
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


class Run:
    """Timings, per-round counts and failures of one benchmark run.

    A virtual machine on a shared host can switch, for seconds to minutes
    at a time, between a fast and a slower speed (about 1.6x apart on a
    2-vCPU VM), which moves every wall time with it. So each timed
    operation is bracketed by two runs of the reference kernel, and
    `ratios` keeps the operation's wall time divided by their mean: its
    cost in reference-kernel units, which the speed changes cancel out of.
    """

    def __init__(self):
        self.samples = {}
        self.ratios = {}
        self.references = []
        self.counts = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def fail(self, message):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def timed(self, op, fn, ok):
        """Time one operation; keep the time only if `ok(result)` holds.

        A full collection first, so that the previous operation's garbage
        is not collected on this one's clock; the reference kernel runs
        just before and just after the timed call.
        """
        self.attempted += 1
        gc.collect()
        before = reference_seconds()
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # a failed operation; the run goes on
            self.fail(f"{op}: {exc!r}")
            return None
        elapsed = time.perf_counter() - t0
        reference = (before + reference_seconds()) / 2
        if not ok(result):
            self.fail(f"{op}: result differs from the oracle")
            return None
        self.samples.setdefault(op, []).append(elapsed)
        self.ratios.setdefault(op, []).append(elapsed / reference)
        self.references.append(reference)
        return result

    def replay(self, op, fn):
        """Run one traced replay; `fn` returns the first failed check or None."""
        self.attempted += 1
        try:
            problem = fn()
        except Exception as exc:  # a failed operation; the run goes on
            problem = repr(exc)
        if problem:
            self.fail(f"{op} (traced): {problem}")

    def count(self, name, value):
        self.counts.setdefault(name, []).append(value)


def first_failure(checks):
    """The message of the first (holds, message) pair that does not hold."""
    return next((msg for holds, msg in checks if not holds), None)


def span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def fixed_shape_poly(rng, field, m, n, d):
    """A map g: F^m -> F^n with one monomial of each degree d, d-1, ..., 0
    per output; the seed picks the coefficients and variables.

    ``random_poly`` draws the number of terms from the seed too, which
    would make the workers' cost differ from seed to seed.
    """
    outputs = []
    for _ in range(n):
        terms = []
        for degree in range(d, -1, -1):
            exps = [0] * m
            for _ in range(degree):
                exps[rng.randrange(m)] += 1
            terms.append((rng.randrange(1, field.p), tuple(exps)))
        outputs.append(terms)
    return PolyMap.from_terms(field, m, outputs)


def draw_inputs(rng, field, sizes):
    """One round's g, dataset and key seed."""
    g = fixed_shape_poly(rng, field, sizes["m"], sizes["n"], sizes["d"])
    data = random_dataset(rng, field, sizes["K"], sizes["m"])
    return g, data, rng.randrange(2**32)


def expected_workers(scheme, K, d):
    return next(row.workers for row in sim.worker_count_table(K, d) if row.scheme == scheme)


def traced_keys(tracer, field, m, num_keys, key_seed):
    """The keys sim.run_trial and ``harmcode encode`` draw for `key_seed`."""
    with tracer.span("field.keygen"):
        rng = random.Random(key_seed)
        return [sample_uniform_vector(rng, field, m) for _ in range(num_keys)]


def traced_encode(tracer, run, scheme, params, data, keys):
    """Shares from the scheme's module function, with its counts checked."""
    if scheme == "harmonic":
        stats = EncodeStats()
        with tracer.span("harmonic.encode"):
            shares = harmonic.encode(params, data, keys[0], stats)
        run.count("harmonic.two_term_combos", stats.two_term_combos)
        problem = None
        if stats.two_term_combos != params.K * params.d:
            problem = f"{stats.two_term_combos} two-term combinations, expected K*d"
    else:
        with tracer.span(ENCODE_SPAN[scheme]):
            if scheme == "lcc":
                shares = baselines.lcc_encode(params, data, keys[0])
            else:
                shares = baselines.shamir_encode(params, data, keys)
        problem = None
    run.count("workers." + scheme, len(shares))
    if problem is None and len(shares) != expected_workers(scheme, params.K, params.d):
        problem = f"{len(shares)} {scheme} workers, worker_count_table disagrees"
    return shares, problem


def matrix_check(tracer, scheme, params, data, keys, shares):
    """Off the round path: the closed-form encoder must give the same shares."""
    if scheme != "harmonic":
        return None
    with tracer.span("harmonic.matrix_encode"):
        by_matrix = harmonic.encoding_matrix(params).apply(data, keys[0])
    if by_matrix != shares:
        return "encoding_matrix shares differ from the recursive encoder"
    return None


def traced_decode(tracer, scheme, params, outputs):
    if scheme == "harmonic":
        with tracer.span("harmonic.decode_vector"):
            vector = harmonic.decode_vector(params)
        with tracer.span("harmonic.decode_apply"):
            return vector.apply(outputs)
    if scheme == "lcc":
        with tracer.span("baselines.lcc_decode"):
            return baselines.lcc_decode(params, outputs)
    with tracer.span("baselines.shamir_decode"):
        return baselines.shamir_decode(params, outputs)


def traced_params(tracer, scheme, params):
    """Rebuild `params` off the round path, for the set-up layers."""
    with tracer.span(PARAMS_SPAN[scheme]):
        specs.scheme_params(scheme, params.field, params.K, params.d)


class TrialWorkload:
    """`wide` and `many-inputs`: one ``sim.run_trial`` per scheme and round."""

    def __init__(self, sizes, seed, params):
        self.sizes = sizes
        self.rng = random.Random(seed)
        self.field = FieldConfig(sizes["p"])
        self.handles = {s: sim.make_handle(pr) for s, pr in params.items()}

    def round(self, run, tracer=None):
        g, data, key_seed = draw_inputs(self.rng, self.field, self.sizes)
        for scheme, handle in self.handles.items():
            report = run.timed(scheme, lambda: sim.run_trial(handle, g, data, key_seed),
                               lambda r: r.exact_match)
            if tracer is not None and report is not None:
                run.replay(scheme, lambda: self.replay(
                    run, tracer, scheme, g, data, key_seed, report))

    def replay(self, run, tracer, scheme, g, data, key_seed, report):
        handle = self.handles[scheme]
        params = handle.params
        with tracer.span("round." + scheme):
            keys = traced_keys(tracer, self.field, data.m, handle.num_keys, key_seed)
            shares, problem = traced_encode(tracer, run, scheme, params, data, keys)
            with tracer.span("poly.eval." + scheme):
                outputs = [g.eval(x) for x in shares]
            decoded = traced_decode(tracer, scheme, params, outputs)
            with tracer.span("poly.oracle"):
                oracle = direct_gradient_sum(g, data)
        traced_params(tracer, scheme, params)
        problem = problem or matrix_check(tracer, scheme, params, data, keys, shares)
        return problem or first_failure([
            (decoded == oracle, "decode differs from direct_gradient_sum"),
            (decoded.values() == report.decoded, "replay decodes differently from run_trial"),
        ])


class TimedScheme:
    """Auditor-facing handle: forwards to `inner` and times each encode.

    The auditor calls encode tens of thousands of times per second, so
    the time is summed here instead of opening a span per call.
    """

    def __init__(self, inner, encode):
        self.inner = inner
        self._encode = encode
        self.calls = 0
        self.busy = 0.0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def encode(self, data, keys):
        t0 = time.perf_counter()
        shares = self._encode(data, keys)
        self.busy += time.perf_counter() - t0
        self.calls += 1
        return shares


class AuditWorkload:
    """`audit-tiny`: one exhaustive audit per instance and batch.

    The audit enumerates every dataset and key value, so the seed has
    nothing to draw but the worker the mutant leaks through.
    """

    def __init__(self, seed):
        self.sizes = specs.AUDIT_TINY
        params = specs.build_params("audit-tiny")
        self.params = params
        self.handles = {name: sim.make_handle(pr) for name, pr in params.items()}
        mutant_inner = self.handles["mutant"]
        self.leak = random.Random(seed).randrange(mutant_inner.worker_count)
        self.handles["mutant"] = ClearStorageScheme(mutant_inner, self.leak)

    def expected(self, name, report):
        if name == "mutant":
            flags = tuple(w != self.leak for w in range(len(report.conditional_equal_per_worker)))
            return report.conditional_equal_per_worker == flags
        return report.all_private

    def round(self, run, tracer=None):
        states = 0
        for name, handle in self.handles.items():
            m = self.sizes[name]["m"]
            report = run.timed(name, lambda: sim.privacy_audit_exhaustive(handle, m=m),
                               lambda r: self.expected(name, r))
            if report is not None:
                states += report.dataset_states * report.key_states
                if tracer is not None:
                    run.replay(name, lambda: self.replay(run, tracer, name, report))
        run.count("audit.states", states)

    def replay(self, run, tracer, name, report):
        handle = self.handles[name]
        params = self.params[name]
        if name == "harmonic":
            stats = EncodeStats()
            timed = TimedScheme(handle, lambda data, keys: harmonic.encode(
                params, data, keys[0], stats))
        else:
            stats = None
            timed = TimedScheme(handle, handle.encode)
        kind = self.sizes[name].get("inner", name)
        with tracer.span("round." + name):
            with tracer.span("sim.audit"):
                t0 = time.perf_counter()
                traced = sim.privacy_audit_exhaustive(timed, m=self.sizes[name]["m"])
                tracer.add(ENCODE_SPAN[kind], t0, timed.busy, timed.calls)
        checks = [(traced.to_json() == report.to_json(), "traced audit differs from untraced")]
        if stats is not None:
            combos = stats.two_term_combos / timed.calls
            run.count("harmonic.two_term_combos", combos)
            checks.append((combos == params.K * params.d,
                           f"{combos} two-term combinations per encode, expected K*d"))
        if name != "mutant":
            traced_params(tracer, name, params)
            run.count("workers." + name, handle.worker_count)
            checks.append((handle.worker_count == expected_workers(name, params.K, params.d),
                           "worker_count_table disagrees"))
        return first_failure(checks)


class FileWorkload:
    """`file-pipeline`: ``harmcode encode``, file-based workers, ``harmcode decode``."""

    def __init__(self, sizes, seed, params, workdir):
        self.sizes = sizes
        self.rng = random.Random(seed)
        self.field = FieldConfig(sizes["p"])
        self.params = params
        self.path = {name: os.path.join(workdir, name + ".json")
                     for name in ("data", "shares", "api_shares", "outputs", "decoded")}

    def round(self, run, tracer=None):
        g, data, key_seed = draw_inputs(self.rng, self.field, self.sizes)
        fileio.write_dataset(self.path["data"], data)
        oracle = direct_gradient_sum(g, data)
        shares_bytes = 0
        for scheme in specs.SCHEMES:
            result = run.timed(scheme, lambda: self.file_round(scheme, g, key_seed),
                               lambda r: r[0] == oracle)
            if result is not None:
                shares_bytes += os.path.getsize(self.path["shares"])
                if tracer is not None:
                    run.replay(scheme, lambda: self.replay(
                        run, tracer, scheme, g, data, key_seed, result[0]))
        run.count("fileio.shares_bytes", shares_bytes)

    def file_round(self, scheme, g, key_seed, tracer=None):
        """encode -> every worker -> decode through files; (decoded, outputs)."""
        path, sz = self.path, self.sizes
        with span(tracer, "cli.encode"):
            run_cli(["encode", "--scheme", scheme, "--p", str(sz["p"]), "--d", str(sz["d"]),
                     "--data", path["data"], "--out", path["shares"],
                     "--seed", str(key_seed)])
        with span(tracer, "fileio.load_shares"):
            params, shares = fileio.load_shares(path["shares"])
        with span(tracer, "poly.eval." + scheme):
            outputs = [g.eval(x) for x in shares]
        with span(tracer, "fileio.write_outputs"):
            fileio.write_outputs(path["outputs"], outputs)
        with span(tracer, "cli.decode"):
            run_cli(["decode", "--shares", path["shares"], "--outputs", path["outputs"],
                     "--out", path["decoded"]])
        with span(tracer, "fileio.load_decoded"):
            return fileio.load_decoded(path["decoded"], params.field), outputs

    def replay(self, run, tracer, scheme, g, data, key_seed, decoded):
        params = self.params[scheme]
        with tracer.span("round." + scheme):
            traced, outputs = self.file_round(scheme, g, key_seed, tracer)
        # Off the round path: the same shares and decode from the public API.
        keys = traced_keys(tracer, self.field, data.m,
                           sim.make_handle(params).num_keys, key_seed)
        shares, problem = traced_encode(tracer, run, scheme, params, data, keys)
        fileio.write_shares(self.path["api_shares"], params, shares)
        by_api = traced_decode(tracer, scheme, params, outputs)
        with tracer.span("poly.oracle"):
            oracle = direct_gradient_sum(g, data)
        traced_params(tracer, scheme, params)
        problem = problem or matrix_check(tracer, scheme, params, data, keys, shares)
        return problem or first_failure([
            (traced == decoded, "replay decodes differently from the untraced round"),
            (read_bytes(self.path["shares"]) == read_bytes(self.path["api_shares"]),
             "cli encode wrote other bytes than fileio.write_shares"),
            (by_api == oracle, "public-API decode of the file outputs differs from the oracle"),
        ])


def run_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"harmcode {argv[0]} exited with {code}")


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()
