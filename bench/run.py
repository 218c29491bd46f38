"""Run one workload of the polygraph benchmark and print its metrics.

    python3 bench/run.py --workload census --seed 1 --seconds 20 --trace 0

Workloads: census, periods, tails, reps (see workloads.py).  A pass runs
the workload's fixed op list once, in a fresh process, with one client in
a closed loop, and then checks every op's result.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 first times SETUP_SAMPLES fresh processes that only set up,
then starts passes one after another while they fit in --seconds (at
least MIN_PASSES), and takes each op's median latency over the passes.
Latencies are reference times (speed.py): wall time corrected by the
machine's speed, sampled with a fixed kernel around and inside each op,
because this shared machine's speed drifts by up to 1.8x.  It reports
wall_s (the sum of the op medians over the op list), op_p50_ms and
op_p90_ms (their quantiles), peak_rss_mb (the median of the pass
processes' ru_maxrss once the ops have run), and setup_s, the median over
the passes and the set-up processes of the reference time from before
`import polygraph` to the first op.  The human-readable lines also give
each pass's raw wall time and failed_frac, and name every failing op.
Every pass gets the same inputs, and each starts with cold caches.

--trace 1 runs one pass untraced in a child process, then the same pass
here with every public library function wrapped (tracer.py), and reports
the per-layer metrics, including trace.overhead_s (traced minus
untraced wall_s).  Spans go to .bench_out/trace-<workload>-<seed>.json.

--quick runs a few ops of each part, in one pass and one extra set-up,
for the smoke test only.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import SpeedProbe
from tracer import CALLS, EXTRA, RAISED, SELF, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("census", "periods", "tails", "reps")
CHILD_TIMEOUT_S = 150

# The traced run's metrics: "<layer>.<function>.<field>" reads a counter
# of that function; the others are derived in layer_metrics.
FIELDS = {"calls": CALLS, "self_s": SELF, "letters": EXTRA, "group_order_sum": EXTRA}
# The per-layer metrics are BENCHMARK.json's per_layer list.
PER_LAYER = [(m["name"], m["unit"])
             for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
# A --trace 0 run's fewest passes, and its extra set-up-only processes.
MIN_PASSES = 2
SETUP_SAMPLES = 4


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="a few ops per part (smoke test)")
    ap.add_argument("--role", choices=("pass", "setup"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def import_library():
    """Import polygraph from this checkout's src/ and the workload module."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import polygraph
        import workloads
    except ImportError as err:
        raise SystemExit(f"bench: cannot import polygraph from {src}: {err}")
    if src not in Path(polygraph.__file__).resolve().parents:
        raise SystemExit(f"bench: polygraph was imported from {polygraph.__file__}, not {src}")
    return workloads


def child(args, *extra):
    """Run this script in a fresh process and return its last stdout line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    if args.quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"bench: {' '.join(extra)} child failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_ops(ops, tracer=None, probe=None):
    """Run the op list in a closed loop; returns results, errors, wall
    latencies, the probe's reference latencies (if a probe is given), wall."""
    results, errors, latencies, reference = {}, {}, [], []
    perf = time.perf_counter
    start = perf()
    for n, op in enumerate(ops):
        entered = tracer.begin_op(n, op.kind) if tracer else None
        mark = probe.begin() if probe else None
        t0 = perf()
        try:
            results[op.name] = op.run(results)
        except Exception as err:  # one failing op must not stop the run
            errors[op.name] = f"raised {type(err).__name__}: {err}"
        t1 = perf()
        if tracer:
            tracer.end_op(entered, op.name, t0, t1)
        if probe:
            wall, ref = probe.end(mark)
            latencies.append(wall)
            reference.append(ref)
        else:
            latencies.append(t1 - t0)
    return results, errors, latencies, reference, perf() - start


def check_ops(ops, results, errors):
    failures = dict(errors)
    for op in ops:
        if op.name in failures:
            continue
        try:
            why = op.check(results[op.name], results)
        except Exception as err:  # a crashing check is a failed op, not a crashed run
            why = f"check raised {type(err).__name__}: {err}"
        if why:
            failures[op.name] = why
    return failures


def report(args, attempted, failed, failures, metrics, lines):
    print(f"workload {args.workload}  seed {args.seed}{'  (quick)' if args.quick else ''}")
    for line in lines:
        print("  " + line)
    for name, why in failures.items():
        print(f"  FAILED {name}: {why}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))


def one_pass(args):
    """Set up and run the op list once in this process; prints its figures."""
    with SpeedProbe() as probe:
        mark = probe.begin()
        ops = import_library().build(args.workload, args.seed, args.quick)
        _, setup = probe.end(mark)
        if args.role == "setup":
            print(json.dumps({"setup_s": setup}))
            return
        results, errors, lat, ref, _ = run_ops(ops, probe=probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures = check_ops(ops, results, errors)
    print(json.dumps({"latencies": lat, "reference": ref, "setup_s": setup,
                      "peak_rss_mb": peak_rss_mb, "failures": failures}))


def untraced(args):
    start = time.perf_counter()
    setups = [child(args, "--role", "setup")["setup_s"]
              for _ in range(1 if args.quick else SETUP_SAMPLES)]
    passes_from = time.perf_counter()
    passes = []
    while True:
        passes.append(child(args, "--role", "pass"))
        now = time.perf_counter()
        elapsed = now - start
        next_end = elapsed + (now - passes_from) / len(passes)
        if len(passes) >= (1 if args.quick else MIN_PASSES) and next_end > args.seconds:
            break
    setups += [p["setup_s"] for p in passes]
    # Each op's median reference latency over the passes: what is left of
    # machine noise in one pass moves only the ops it hit.
    lat = [statistics.median(op) for op in zip(*(p["reference"] for p in passes))]
    metrics = {
        "wall_s": (sum(lat), "s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(lat, n=10, method="inclusive")[8] * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    walls = [sum(p["latencies"]) for p in passes]
    failures = {name: why for p in passes for name, why in p["failures"].items()}
    attempted = len(lat) * len(passes)
    failed = sum(len(p["failures"]) for p in passes)
    lines = [f"{len(passes)} passes of {len(lat)} ops in {elapsed:.1f} s; each pass's raw "
             "wall_s (wall time, not speed-corrected): " + ", ".join(f"{w:.4g}" for w in walls)]
    lines += [f"{name:<12} {value:10.4f} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(f"{'failed_frac':<12} {failed / attempted:10.4f}  ({failed} of {attempted})")
    if max(walls) > args.seconds:
        print(f"bench: a pass took {max(walls):.1f} s, longer than --seconds {args.seconds}",
              file=sys.stderr)
    report(args, attempted, failed, failures, metrics, lines)


def layer_metrics(tracer, op_time, cache, overhead):
    """Every PER_LAYER metric from the tracer's counters."""
    tot = tracer.totals()

    def ratio(a, b):
        return a / b if b else 0.0

    def share(kind, prefix):
        own = sum(st[SELF] for name, st in tracer.kinds.get(kind, {}).items()
                  if name.startswith(prefix))
        return ratio(own, op_time.get(kind, 0.0))

    validate = tot["kgraph.validate_presentation"]
    periodic = tot["periodicity.is_periodic"]
    derived = {
        "kgraph.validate_presentation.accept_ratio": ratio(validate[CALLS] - validate[RAISED],
                                                           validate[CALLS]),
        "enumeration.candidates": tracer.edges[("enumeration.enumerate_presentations",
                                                "kgraph.validate_presentation")],
        "periodicity.is_periodic.certified_ratio": ratio(periodic[EXTRA], periodic[CALLS]),
        "periodicity.transducer_states": tot["periodicity.check_tail_condition"][EXTRA],
        "staralg.reduce_cache_hit_ratio": ratio(cache[0], cache[0] + cache[1]),
        "trace.overhead_s": overhead,
        "sweep.kgraph_self_share": share("sweep", "kgraph."),
        "rep1764.full_symmetry_subgroup_self_share": share(
            "rep1764-decompose", "groupcons.full_symmetry_subgroup"),
    }
    out = {}
    for name, unit in PER_LAYER:
        if name in derived:
            value = derived[name]
        else:
            function, field = name.rsplit(".", 1)
            value = tot[function][FIELDS[field]]
        out[name] = (value, unit)
    return out


def traced(args):
    base = child(args, "--role", "pass")
    tracer = Tracer()
    workloads = import_library()
    from polygraph import staralg
    wrapped = tracer.install()
    tracer.active = True
    ops = workloads.build(args.workload, args.seed, args.quick)
    info0 = staralg._reduce_adjoint_cached.cache_info()
    results, errors, lat, _, wall = run_ops(ops, tracer)
    info1 = staralg._reduce_adjoint_cached.cache_info()
    tracer.active = False
    failures = check_ops(ops, results, errors)

    op_time = {}
    for op, t in zip(ops, lat):
        op_time[op.kind] = op_time.get(op.kind, 0.0) + t
    overhead = wall - sum(base["latencies"])
    metrics = layer_metrics(tracer, op_time, (info1.hits - info0.hits, info1.misses - info0.misses),
                            overhead)
    out = ROOT / ".bench_out" / f"trace-{args.workload}-{args.seed}.json"
    out.parent.mkdir(exist_ok=True)
    with open(out, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "span_fields": ["id", "parent", "name", "start", "end", "op"],
                   "spans": tracer.spans, "spans_dropped": tracer.dropped,
                   "ops": [[op.name, t] for op, t in zip(ops, lat)],
                   "counters_by_kind": tracer.kinds,
                   "edges": [[a, b, n] for (a, b), n in tracer.edges.items()]}, fh)

    lines = [f"{len(ops)} ops; traced wall_s {wall:.3f} s, untraced {wall - overhead:.3f} s; "
             f"{wrapped} functions wrapped; {len(tracer.spans)} spans kept, "
             f"{tracer.dropped} dropped; spans in {out.relative_to(ROOT)}",
             "work inside forked --jobs worker processes (the census CLI ops) "
             "is outside the trace"]
    lines += [f"{name:<48} {value:14.6f} {unit}" if isinstance(value, float)
              else f"{name:<48} {value:14d} {unit}" for name, (value, unit) in metrics.items()]
    lines.append("self time by op kind (share of the kind's op time):")
    for kind, seconds in sorted(op_time.items(), key=lambda kv: -kv[1]):
        top = sorted(tracer.kinds.get(kind, {}).items(), key=lambda kv: -kv[1][SELF])[:4]
        parts = ", ".join(f"{name} {st[SELF] / seconds:.0%}" for name, st in top)
        lines.append(f"  {kind:<18} {seconds:8.3f} s: {parts}")
    report(args, len(ops), len(failures), failures, metrics, lines)


def main(argv=None):
    args = parse_args(argv)
    if args.role:
        one_pass(args)
    elif args.trace:
        traced(args)
    else:
        untraced(args)


if __name__ == "__main__":
    main()
