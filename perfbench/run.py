"""harmcode benchmark: exact per-scheme round cost on four workloads.

    python3 perfbench/run.py --workload wide --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout. The package is imported from ./src and
nowhere else; without it the benchmark exits with code 2. The last line
of standard output is the result object; the line before it holds the
run's metadata, the wall-clock round times among it. ``--trace 1``
reports the per-layer metrics instead of the end-to-end ones and writes
the spans to perfbench/traces/.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

import specs
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("wide", "many-inputs", "audit-tiny", "file-pipeline")
SETUP_RUNS = 15

# Per-layer time metric -> the span whose per-round self time it reports.
LAYER_SPANS = {
    "field.keygen_s": "field.keygen",
    "harmonic.encode_s": "harmonic.encode",
    "harmonic.decode_vector_s": "harmonic.decode_vector",
    "harmonic.decode_apply_s": "harmonic.decode_apply",
    "harmonic.matrix_encode_s": "harmonic.matrix_encode",
    "harmonic.select_params_s": "harmonic.select_params",
    "baselines.params_s": "baselines.params",
    "baselines.lcc_encode_s": "baselines.lcc_encode",
    "baselines.lcc_decode_s": "baselines.lcc_decode",
    "baselines.shamir_encode_s": "baselines.shamir_encode",
    "baselines.shamir_decode_s": "baselines.shamir_decode",
    "poly.eval_s.harmonic": "poly.eval.harmonic",
    "poly.eval_s.lcc": "poly.eval.lcc",
    "poly.eval_s.shamir": "poly.eval.shamir",
    "poly.oracle_s": "poly.oracle",
    "audit.self_s": "sim.audit",
    "fileio.load_shares_s": "fileio.load_shares",
    "fileio.write_outputs_s": "fileio.write_outputs",
    "fileio.load_decoded_s": "fileio.load_decoded",
    "cli.encode_s": "cli.encode",
    "cli.decode_s": "cli.decode",
}
# Per-layer count metric -> unit; the value is the median over rounds.
LAYER_COUNTS = {
    "harmonic.two_term_combos": "count",
    "workers.harmonic": "count",
    "workers.lcc": "count",
    "workers.shamir": "count",
    "audit.states": "count",
    "fileio.shares_bytes": "bytes",
}


def percentile(xs, q):
    """The q-th percentile (inclusive interpolation); None without samples."""
    if not xs:
        return None
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


def setup_seconds(workload):
    """Median of SETUP_RUNS fresh-interpreter set-ups, after one that warms the
    bytecode cache."""
    cmd = [sys.executable, "-I", os.path.join(HERE, "setup_probe.py"), workload, SRC]
    times = []
    for i in range(SETUP_RUNS + 1):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        if i:
            times.append(float(out.stdout))
    return statistics.median(times)


def git_sha():
    """HEAD of the checkout if it is a git work tree, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def make_workload(name, seed, workdir):
    import workloads

    if name == "audit-tiny":
        return workloads.AuditWorkload(seed)
    params = specs.build_params(name)
    if name == "file-pipeline":
        return workloads.FileWorkload(specs.FILE_PIPELINE, seed, params, workdir)
    return workloads.TrialWorkload(specs.SIZES[name], seed, params)


def end_to_end(run, setup_s):
    """Round costs in reference-kernel units (see workloads.Run), set-up
    time and peak memory."""
    metrics = {}
    for scheme in specs.SCHEMES:
        xs = run.ratios.get(scheme, [])
        metrics[f"{scheme}.round_ref_p50"] = {"value": percentile(xs, 50), "unit": "ref"}
        metrics[f"{scheme}.round_ref_p90"] = {"value": percentile(xs, 90), "unit": "ref"}
    metrics["setup_s"] = {"value": setup_s, "unit": "s"}
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = {"value": rss_kib / 1024, "unit": "MB"}
    return metrics


def trace_overhead(run, tracer):
    """Traced minus untraced round median, summed over the round's operations."""
    total = 0.0
    for op, xs in run.samples.items():
        traced = tracer.durations("round." + op)
        if traced:
            total += statistics.median(traced) - statistics.median(xs)
    return total


def per_layer(run, tracer):
    selfs = tracer.median_self()
    metrics = {name: {"value": selfs.get(sp, 0.0), "unit": "s"}
               for name, sp in LAYER_SPANS.items()}
    # Time inside the schemes' encoders, measured by the auditor's handle.
    in_audit = tracer.per_round_self(under="sim.audit")
    by_round = {}
    for rounds in in_audit.values():
        for r, t in rounds.items():
            by_round[r] = by_round.get(r, 0.0) + t
    encode_s = statistics.median(by_round.values()) if by_round else 0.0
    metrics["audit.encode_s"] = {"value": encode_s, "unit": "s"}
    for name, unit in LAYER_COUNTS.items():
        xs = run.counts.get(name)
        metrics[name] = {"value": statistics.median(xs) if xs else 0, "unit": unit}
    states = metrics["audit.states"]["value"]
    batch = sum(statistics.median(xs) for xs in run.samples.values())
    metrics["audit.states_per_s"] = {"value": states / batch if states else 0.0,
                                     "unit": "1/s"}
    metrics["trace_overhead_s"] = {"value": trace_overhead(run, tracer), "unit": "s"}
    return metrics


def self_time_check(run, tracer):
    """Per operation: untraced median, traced median and the sum of the
    median self times of the spans under it."""
    out = {}
    records = tracer.records
    self_times = tracer.self_times()
    for op, xs in run.samples.items():
        root = "round." + op
        if not tracer.durations(root):
            continue
        per_name = {}
        for rec, self_t in zip(records, self_times):
            top = rec
            while top[1] >= 0:
                top = records[top[1]]
            if top[3] == root:
                per_name.setdefault(rec[3], {}).setdefault(rec[2], 0.0)
                per_name[rec[3]][rec[2]] += self_t
        out[op] = {
            "untraced_p50": statistics.median(xs),
            "traced_p50": statistics.median(tracer.durations(root)),
            "self_sum_p50": sum(statistics.median(v.values()) for v in per_name.values()),
        }
    return out


def smoke():
    """The paper's worked example (p=5, K=2, d=2, c=4, beta=4) through the
    benchmark's own round code, traced, in a few seconds."""
    import workloads
    from harmcode import FieldConfig, decode_vector, select_params

    demo = specs.DEMO
    params = select_params(FieldConfig(demo["p"]), demo["K"], demo["d"],
                           c=demo["c"], betas=list(demo["betas"]))
    vector = decode_vector(params).int_weights()
    run, tracer = workloads.Run(), Tracer()
    sizes = {"p": demo["p"], "K": demo["K"], "d": demo["d"], "m": 4, "n": 2}
    trial = workloads.TrialWorkload(sizes, 0, {"harmonic": params})
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-work-") as workdir:
        small = dict(specs.FILE_PIPELINE, K=2, m=4, n=2)
        rounds = [trial] * 20 + [
            workloads.AuditWorkload(0),
            workloads.FileWorkload(small, 0, specs.params_for(small), workdir),
        ]
        for workload in rounds:
            tracer.round += 1
            workload.round(run, tracer)
    problems = list(run.errors)
    if vector != demo["decode_vector"]:
        problems.insert(0, f"decode vector {vector}, expected {demo['decode_vector']}")
    for problem in problems:
        print("smoke FAIL:", problem)
    print(f"smoke: decode vector {vector}, {run.attempted} operations, {run.failed} failed")
    return 1 if problems or run.failed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="check the worked example and exit")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not os.path.isfile(os.path.join(SRC, "harmcode", "__init__.py")):
        print(f"error: no harmcode package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.smoke:
        return smoke()

    import workloads

    setup_s = setup_seconds(args.workload)
    run = workloads.Run()
    tracer = Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-work-") as workdir:
        workload = make_workload(args.workload, args.seed, workdir)
        workload.round(run)  # warm-up, untimed
        run.samples.clear()
        run.ratios.clear()
        run.references.clear()
        run.counts.clear()
        rounds = 0
        deadline = time.perf_counter() + args.seconds
        while time.perf_counter() < deadline:
            rounds += 1
            if tracer is not None:
                tracer.round = rounds
            workload.round(run, tracer)

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "sizes": specs.SIZES,
        "rounds": rounds,
        "samples": {op: len(xs) for op, xs in run.samples.items()},
        "round_s": {op: {"p50": percentile(xs, 50), "p90": percentile(xs, 90)}
                    for op, xs in run.samples.items()},
        "reference_s_p50": statistics.median(run.references) if run.references else None,
        "setup_runs": SETUP_RUNS,
        "fail_ratio": run.failed / run.attempted,
        "errors": run.errors,
    }
    if tracer is None:
        metrics = end_to_end(run, setup_s)
        meta["trace_overhead_s"] = None
    else:
        metrics = per_layer(run, tracer)
        meta["trace_overhead_s"] = metrics["trace_overhead_s"]["value"]
        meta["self_time_check"] = self_time_check(run, tracer)
        trace_dir = os.path.join(HERE, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.jsonl")
        tracer.write(trace_path)
        meta["trace_file"] = os.path.relpath(trace_path, ROOT)
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
