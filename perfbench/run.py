"""Benchmark harness for latticescarf: one process, one thread, stdlib only.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record

Run from the root of a source checkout; the package is imported from its
src/ directory.  A run times set-up (import plus building the workload's
inputs, repeated, median reported), then runs whole passes over the
workload's operations until S seconds have gone.  Every CLI operation is
`latticescarf.cli.main(argv)` in-process with stdout captured, and loads
its problem afresh; every random-lattice operation builds its lattice
afresh, so no fiber cache outlives its operation.  Each output is checked
as soon as its operation ends, outside the timed region.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 every operation runs plainly and then traced, with the
package's functions wrapped in spans (tracing.py), and the last line
holds the per-layer metrics.  The line before it is a JSON report with
run metadata, per-family times and the failures.  The first pass's
spans are written to perfbench/out/.

--record recomputes perfbench/expected.json (output digests and the
random-lattice pool) at the current source; do it only at a commit whose
outputs are known good, since later runs are checked against it.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED_PATH = os.path.join(HERE, "expected.json")
OUT_DIR = os.path.join(HERE, "out")

import tracing  # noqa: E402  (neither imports anything from the package)
import workloads  # noqa: E402

# Times are scaled to a reference machine speed.  On a shared host the
# same code runs up to about 1.5 times slower for minutes at a time, and
# up to 3 times slower in bursts of a second or so; its CPU time grows
# with its wall time.  So the harness times a fixed pure-Python kernel
# before the first timed step (operation or set-up repetition) and after
# each one, and multiplies each step's times by REFERENCE_KERNEL_S / (mean
# of the two samples around it).  A burst that slows a step slows the
# samples beside it too and is scaled away; samples further away tracked
# the steps worse.  The kernel builds, counts and sorts small tuples, the
# work the pipeline does most.  It runs with the garbage collector off, so
# the size of the heap the package leaves behind does not enter the
# scale.  REFERENCE_KERNEL_S is its time on an uncontended Intel Xeon core
# under Python 3.11, so scaled times read as wall times there.  Raw wall
# times stay in the report.
REFERENCE_KERNEL_S = 0.030
SETUP_MIN_REPS = 15
SETUP_MAX_REPS = 80
SETUP_MIN_TOTAL_S = 2.0


def die(message):
    print("error: %s" % message, file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import latticescarf afresh from this checkout's src/."""
    for name in [m for m in sys.modules if m == "latticescarf" or m.startswith("latticescarf.")]:
        del sys.modules[name]
    import latticescarf.cli

    if not os.path.abspath(latticescarf.__file__).startswith(SRC + os.sep):
        die("latticescarf was imported from %s, not from %s" % (latticescarf.__file__, SRC))
    return latticescarf


def kernel():
    xs = [(i % 101, (i * 7) % 103, i % 5) for i in range(40000)]
    counts = {}
    for x in xs:
        counts[x] = counts.get(x, 0) + 1
    xs.sort(reverse=True)
    return len(counts)


def kernel_s():
    """The machine's current speed, as the kernel's wall time."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def local_scales(kernels):
    """The scale of each timed step, from the kernel samples taken before
    it and after it: step i lies between kernels[i] and kernels[i + 1]."""
    return [REFERENCE_KERNEL_S / statistics.mean(kernels[i:i + 2]) for i in range(len(kernels) - 1)]


def timed_setup(workload, seed, expected):
    """Import + input building, repeated; returns the median scaled and
    raw wall times, the repetitions, the operations and set-up counts.
    After each repetition, untimed, the modules it left behind are
    collected and the kernel is sampled."""
    times = []
    kernels = [kernel_s()]
    while len(times) < SETUP_MIN_REPS or (
        sum(times) < SETUP_MIN_TOTAL_S and len(times) < SETUP_MAX_REPS
    ):
        t0 = time.perf_counter()
        import_package()
        ops, stats = workloads.build(workload, seed, expected)
        times.append(time.perf_counter() - t0)
        gc.collect()
        kernels.append(kernel_s())
    scaled = [t * x for t, x in zip(times, local_scales(kernels))]
    return statistics.median(scaled), statistics.median(times), len(times), ops, stats


# ---------------------------------------------------------------------------
# Passes.


def run_cli(main, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = main(argv)
        except SystemExit as e:
            rc = e.code
    return rc, out.getvalue()


def run_op(main, op, tracer=None):
    """Run one operation; returns (latency, wall time by command family,
    output or None, error or None).  With a tracer, the package's
    functions are wrapped in spans for the operation's duration, inside a
    root span of its own."""
    family_s = Counter()
    output = error = None
    restore = None
    gc.collect()  # start from a clean heap, as a fresh process would
    if tracer is not None:
        restore = tracing.install(tracer)
        root = tracer.open(tracer.intern("op"))
    t0 = time.perf_counter()
    try:
        if op.command:
            output = run_cli(main, op.argv)
        else:
            output = workloads.lattice_operation(op.rows, family_s)
    except Exception:
        error = traceback.format_exc(limit=-2).strip().splitlines()[-1]
    latency = time.perf_counter() - t0
    if restore is not None:
        tracer.close(root)
        restore()
    if op.command and output is not None:
        family_s[op.family] += latency
    return latency, family_s, output, error


def run_pass(ops, expected, oracle_cache, tracer=None):
    """One timed pass; returns its plain record, and with a tracer its
    traced record too.  With a tracer each operation runs plainly and then,
    straight after, traced, so both see the machine at the same speed.
    Each output is checked as soon as its latency is taken and then
    dropped, so the pass never holds more than one output.  Kernel
    samples are taken between plain runs only."""
    from latticescarf.cli import main

    records = [{"latency": {}, "family_s": {}, "failures": {}}]
    if tracer is not None:
        records.append({"latency": {}, "family_s": {}, "failures": {}})
    kernels = [kernel_s()]
    for index, op in enumerate(ops):
        for record, tr in zip(records, (None, tracer)):
            if tr is not None:
                tr.begin_op(index)
            latency, family_s, output, error = run_op(main, op, tr)
            record["latency"][op.id] = latency
            record["family_s"][op.id] = family_s
            reason = error or workloads.check(op, output, expected, oracle_cache)
            if reason:
                record["failures"][op.id] = reason
            if tr is not None and op.command and output is not None:
                tr.counts["cli.bytes_out"] += len(output[1].encode())
            del output
            if tr is None:
                kernels.append(kernel_s())
    scales = local_scales(kernels)
    for record in records:
        record["kernels"] = kernels
        record["scale"] = {op.id: x for op, x in zip(ops, scales)}
        record["seconds"] = sum(record["latency"][op.id] * x for op, x in zip(ops, scales))
    return records


# ---------------------------------------------------------------------------
# Metrics.


def tail(values):
    """(value, percentile) at the highest percentile with at least ten
    values beyond it."""
    xs = sorted(values)
    k = len(xs) - 10
    if k < 1:
        raise ValueError("op_tail_s needs at least 11 operations, got %d" % len(xs))
    return xs[k - 1], 100.0 * k / len(xs)


def metric(value, unit):
    return {"value": value, "unit": unit}


def pass_times(record, ops, raw=False):
    """(latency by operation, time by command family) of one pass, scaled
    unless raw."""
    latency, family_s = {}, Counter()
    for op in ops:
        x = 1.0 if raw else record["scale"][op.id]
        latency[op.id] = record["latency"][op.id] * x
        for f, t in record["family_s"][op.id].items():
            family_s[f] += t * x
    return latency, family_s


def end_to_end(plain, ops, setup_s, raw=False):
    """Timings are medians over passes; each operation's latency is its
    median over passes, and op_p50_s / op_tail_s are taken over those."""
    passes = [pass_times(r, ops, raw) for r in plain]
    per_op = [statistics.median(lat[op.id] for lat, _f in passes) for op in ops]
    tail_s, tail_pct = tail(per_op)
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "pass_s": metric(statistics.median(sum(lat.values()) for lat, _f in passes), "s"),
        "op_p50_s": metric(statistics.median(per_op), "s"),
        "op_tail_s": metric(tail_s, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    families = sorted({f for _lat, fam in passes for f in fam})
    family_s = {
        f + "_s": metric(statistics.median(fam[f] for _lat, fam in passes), "s")
        for f in families
    }
    return metrics, family_s, {"percentile": tail_pct, "operations": len(per_op)}


LAYER_COUNTS = (
    "homology.classes", "fibers.calls", "fibers.enumerated", "fibers.monomials",
    "fibers.max_size", "homology.gcd_facets", "scarf.components", "scarf.poset_pairs",
    "cli.bytes_out",
)


def ratio(a, b):
    return a / b if b else 0.0


def layer_values(record, tracer, stats, ops):
    """The per-layer figures of a pass's traced runs, times scaled as the
    plain runs beside them; a layer they never enter reads 0."""
    c = tracer.counts
    scale = [record["scale"][op.id] for op in ops]
    st = Counter()
    for (name, index), t in tracer.self_times().items():
        st[name] += t * scale[index]
    values = {name + "_s": st[name] for name in tracing.TIMED_LAYERS}
    values.update((name, c[name]) for name in LAYER_COUNTS)
    values.update({
        "homology.reduced_homology_max_s": tracer.max_duration("homology.reduced_homology", scale),
        "lattice_core.attempts": stats["attempts"],
        "lattice_core.accept_ratio": ratio(stats["accepted"], stats["attempts"]),
        "fibers.multi_ratio": ratio(c["fibers.multi"], c["fibers.enumerated"]),
        "homology.nonzero_ratio": ratio(c["homology.nonzero"], c["homology.rank_calls"]),
        "trace.unattributed_s": st["op"],
        "trace.spans": len(tracer),
        "trace.pass_s": record["seconds"],
    })
    return values


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "cli.bytes_out":
        return "bytes"
    return "count"


def per_layer(traced, plain):
    rows = [r["layers"] for r in traced]
    metrics = {
        name: metric(statistics.median(row[name] for row in rows), unit_of(name))
        for name in rows[0]
    }
    overhead = statistics.median(t["seconds"] - p["seconds"] for p, t in zip(plain, traced))
    metrics["trace.overhead_s"] = metric(overhead, "s")
    return metrics


def accounting(tracer, plain, ops):
    """Per problem: the untraced operation times of one pass against the
    layer self times of its traced runs (all spans but the per-operation
    root) and the root's self time, all scaled."""
    out = {}
    for op in ops:
        row = out.setdefault(op.problem, {"untraced_s": 0.0, "layer_self_s": 0.0, "unattributed_s": 0.0})
        row["untraced_s"] += plain["latency"][op.id] * plain["scale"][op.id]
    for (name, index), t in tracer.self_times().items():
        key = "unattributed_s" if name == "op" else "layer_self_s"
        out[ops[index].problem][key] += t * plain["scale"][ops[index].id]
    return out


def write_spans(workload, seed, tracer, ops):
    """The first pass's spans, one file per workload (a later run
    overwrites it)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "trace-%s.json" % workload)
    with open(path, "w") as fh:
        json.dump(
            dict(tracer.columns(), workload=workload, seed=seed, ops=[op.id for op in ops]),
            fh,
            separators=(",", ":"),
        )
    return os.path.relpath(path, ROOT)


def machine():
    """Python, CPU, commit and a digest of the package source."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    pkg = os.path.join(SRC, "latticescarf")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "commit": commit,
        "source_sha256": src.hexdigest(),
    }


# ---------------------------------------------------------------------------


def measure(args, expected):
    setup_s, raw_setup_s, setup_reps, ops, stats = timed_setup(args.workload, args.seed, expected)
    oracle_cache = {}
    plain, traced = [], []
    first_tracer = None
    failures = Counter()
    attempted = 0
    first_failure = {}
    deadline = time.perf_counter() + args.seconds
    while not plain or time.perf_counter() < deadline:
        tracer = tracing.Tracer() if args.trace else None
        records = run_pass(ops, expected, oracle_cache, tracer)
        for record in records:
            for op_id, reason in record["failures"].items():
                failures[op_id] += 1
                first_failure.setdefault(op_id, reason)
            attempted += len(ops)
        plain.append(records[0])
        if tracer is not None:
            records[1]["layers"] = layer_values(records[1], tracer, stats, ops)
            traced.append(records[1])
            if first_tracer is None:
                first_tracer = tracer
            del tracer

    kernels = [k for r in plain for k in r["kernels"]]
    e2e, families, tail_info = end_to_end(plain, ops, setup_s)
    raw_e2e, raw_families, _ = end_to_end(plain, ops, raw_setup_s, raw=True)
    report = {
        "meta": dict(
            machine(),
            workload=args.workload,
            seed=args.seed,
            operations=len(ops),
            operations_by_family=dict(Counter(op.family for op in ops)),
        ),
        "trace": args.trace,
        "seconds": args.seconds,
        "setup_repetitions": setup_reps,
        "passes": {"plain": len(plain), "traced": len(traced)},
        "kernel": {
            "samples": len(kernels),
            "median_s": statistics.median(kernels),
            "min_s": min(kernels),
            "max_s": max(kernels),
        },
        "op_tail": tail_info,
        "end_to_end": e2e,
        "families": families,
        "raw_wall": {"end_to_end": raw_e2e, "families": raw_families},
        "failed_ratio": ratio(sum(failures.values()), attempted),
        "failures": first_failure,
    }
    if args.trace:
        metrics = per_layer(traced, plain)
        report["per_layer"] = metrics
        report["missing_targets"] = first_tracer.missing_targets
        report["accounting"] = accounting(first_tracer, plain[0], ops)
        report["spans_file"] = write_spans(args.workload, args.seed, first_tracer, ops)
    else:
        metrics = e2e
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": sum(failures.values()),
        "metrics": metrics,
    }, sort_keys=True))


def record(expected_path):
    """Run every operation any seed can pick, record its output digest,
    then check it (so the oracle and verify checks must pass), and write
    the digests and the random pool."""
    import_package()
    from latticescarf.cli import main
    from latticescarf.homology import scan_degree_classes
    from latticescarf.lattice_core import positive_functional

    pool = []
    candidates = []
    for index in range(workloads.RANDOM_POOL):
        L = workloads.sample_pool_lattice(index, Counter())
        w = positive_functional(L)
        classes = len(scan_degree_classes(L, workloads.scan_bound(L, w), w))
        pool.append({"index": index, "classes": classes})
        if classes <= workloads.RANDOM_RECORD_CLASSES:
            candidates.append(workloads.random_op(index, L))
    for name in ("fixtures", "semigroups"):
        candidates += workloads.build(name, 0, None)[0]
    for name, degrees in workloads.QUERY_DEGREES.items():
        for degree in degrees:
            candidates += workloads.query_ops(name, degree)
    ops = {}
    seconds = {}
    for op in candidates:
        if op.command:
            output = run_cli(main, op.argv)
            ops[op.id] = {"sha256": workloads.digest(output[1])}
        else:
            summary, _zero = workloads.lattice_operation(op.rows, Counter())
            ops[op.id] = {"sha256": workloads.digest(workloads.summary_text(summary))}
        runs = [run_pass([op], {"ops": ops}, {})[0] for _ in range(1 if op.command else 5)]
        failures = [r["failures"][op.id] for r in runs if op.id in r["failures"]]
        if failures:
            die("%s: %s" % (op.id, failures[0]))
        seconds[op.id] = statistics.median(r["seconds"] for r in runs)
        print("%-60s %8.3f s" % (op.id, seconds[op.id]), file=sys.stderr)
    for p in pool:
        p["seconds"] = seconds.get("random/pool-%d" % p["index"])
    with open(expected_path, "w") as fh:
        json.dump({"recorded_with": machine(), "random_pool": pool, "ops": ops}, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main():
    p = argparse.ArgumentParser(description="latticescarf benchmark")
    p.add_argument("--workload", choices=sorted(workloads.SETUP))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true")
    args = p.parse_args()
    if not os.path.isfile(os.path.join(SRC, "latticescarf", "__init__.py")):
        die("no package source at %s; run from the root of a latticescarf checkout" % SRC)
    sys.path.insert(0, SRC)
    if args.record:
        record(EXPECTED_PATH)
        return
    if args.workload is None:
        p.error("--workload is required")
    if not os.path.isfile(EXPECTED_PATH):
        die("missing %s" % EXPECTED_PATH)
    with open(EXPECTED_PATH) as fh:
        expected = json.load(fh)
    measure(args, expected)


if __name__ == "__main__":
    main()
