"""The repository benchmark: one workload per run, every answer checked.

Run from the repository root::

    python3 perfbench/run.py --workload table2 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload service --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --compare A.json B.json

Workloads (see ``workloads.py``): ``table2``, ``resynth``, ``service``.
The program under test is imported from ``src/`` of the checkout this
file sits in; the seed shapes the generated inputs only.

With ``--trace 0`` the run times passes over the fixed inputs until
``--seconds`` are used and reports the end-to-end metrics of
``BENCHMARK.json``.  With ``--trace 1`` it alternates untraced and traced
passes and reports the per-layer metrics, the tracing overhead being the
traced minus the untraced ``norm_cpu_s``.  Every end-to-end time is CPU
time of the main thread (the program runs serially on it), normalised to
a reference core speed by the probes of :mod:`speed`.  Either way the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; per-row tables come before it, and the full
result (and, traced, every span) is written under ``perfbench/results/``.
``--compare`` prints the per-row time ratios of two result files and
their geometric mean.
"""

import argparse
import gc
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from speed import Sampler, measure, normalise, probe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("table2", "resynth", "service")

#: Set-up is measured this many times, each in a fresh interpreter.
SETUP_PROBES = 7

#: Only the run's length is kept by the wall clock; times are CPU time.
wall_clock = time.perf_counter


def percentile(values, pct):
    """The ``pct``-th percentile (inclusive method) of ``values``."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def declared_metrics():
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


# ----------------------------------------------------------------------
# Set-up time: imports, input construction and service construction,
# each probe in a fresh interpreter so imports are paid again.
# ----------------------------------------------------------------------
def setup_probe(workload, seed, scratch):
    """Set-up's normalised CPU time, speed probes sampled throughout."""
    probe()                   # the first run pays the interpreter's warm-up
    steps = []
    with Sampler():
        workloads = measure(steps, "import", importlib.import_module,
                            "workloads")
        bench = measure(steps, "inputs", workloads.make, workload, seed,
                        scratch)
        directory = None
        if workload == "service":
            directory, _ = measure(steps, "workers", bench.start_workers)
    elapsed = sum(s for _, s in normalise(steps))
    if directory is not None:
        shutil.rmtree(directory, ignore_errors=True)
    print(json.dumps({"setup_s": elapsed}))
    return 0


def measure_setup(workload, seed, scratch):
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed),
             "--scratch", scratch],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError("set-up probe failed:\n" + done.stderr)
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(samples), samples


# ----------------------------------------------------------------------
# Per-layer metrics of one traced pass
# ----------------------------------------------------------------------
def layer_metrics(tracer, result):
    totals = tracer.layer_totals()

    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    def seconds(name):
        return totals.get(name, (0, 0.0))[1]

    bdd_hits, bdd_misses, bdd_peak = tracer.bdd
    layers = result.layers
    memo_total = layers["memo.hits"] + layers["memo.misses"]
    isop_calls = calls("isop")
    metrics = {
        "isop.calls": isop_calls,
        "isop.s": seconds("isop"),
        "isop.repeat_ratio": (tracer.isop_repeats / isop_calls
                              if isop_calls else 0.0),
        "minimize.calls": calls("minimize"),
        "minimize.s": seconds("minimize"),
        "minimize.eliminate_s": seconds("minimize.eliminate"),
        "quick.calls": calls("quick"),
        "quick.s": seconds("quick"),
        "brel.solve_s": seconds("brel"),
        "brel.explored": tracer.explored,
        "split.s": seconds("split"),
        "cost.s": seconds("cost"),
        "bdd.cache_hits": bdd_hits,
        "bdd.cache_misses": bdd_misses,
        "bdd.peak_nodes": bdd_peak,
        "memo.hit_ratio": (layers["memo.hits"] / memo_total
                           if memo_total else 0.0),
        "memo.signature_s": seconds("memo.signature"),
        "memo.instantiate_s": seconds("memo.instantiate"),
        "session.self_s": seconds("session"),
        "window.s": seconds("window"),
        "cutflex.s": seconds("cutflex"),
        "relio.calls": calls("relio"),
        "relio.s": seconds("relio"),
        "simulate.s": seconds("simulate"),
        "service.fingerprint_s": seconds("service.fingerprint"),
        "service.flush_s": seconds("service.flush"),
        "diskcache.get_s": seconds("diskcache.get"),
        "diskcache.put_s": seconds("diskcache.put"),
        "diskcache.merge_s": seconds("diskcache.merge"),
        "trace.spans": len(tracer.spans),
    }
    metrics.update(layers)
    return metrics


def is_time(name):
    return name.endswith("_s") or name.endswith(".s")


def op_medians(results):
    """Each operation's median normalised time over ``results`` (passes).

    Every pass runs the same operations on the same inputs, so the
    median over passes filters out noise local to one pass.
    """
    samples = {}
    for result in results:
        for key, seconds in normalise(result.ops):
            samples.setdefault(key, []).append(seconds)
    return {key: statistics.median(values)
            for key, values in samples.items()}


def tier_medians(timed, medians):
    """``{tier: [operation median, ...]}`` of the service requests."""
    tiers = {}
    for key, seconds in medians.items():
        tiers.setdefault(timed[0].tiers[key], []).append(seconds)
    return tiers


def tier_metrics(timed, medians):
    """Per-tier latency of the untraced service passes, in ms."""
    tiers = tier_medians(timed, medians) if timed[0].tiers else {}

    def tier_pct(tier, pct):
        values = tiers.get(tier)
        return percentile(values, pct) * 1000 if values else 0.0

    return {"service.ram_p50_ms": tier_pct("ram", 50),
            "service.disk_p50_ms": tier_pct("disk", 50),
            "service.engine_p90_ms": tier_pct("engine", 90)}


# ----------------------------------------------------------------------
# One benchmark run
# ----------------------------------------------------------------------
def run_passes(bench, seconds, trace):
    """Alternate untraced (and, tracing, traced) passes for ``seconds``."""
    from spans import Tracer
    tracer = Tracer() if trace else None
    passes = []          # (traced, PassResult, layer metrics or None)
    spans = []
    start = wall_clock()
    deadline = start + seconds
    while True:
        traced = trace and len(passes) % 2 == 1
        gc.collect()
        if traced:
            tracer.reset()
            tracer.install()
            try:
                result = bench.run_pass(tracer, len(passes))
            finally:
                tracer.uninstall()
            passes.append((True, result, layer_metrics(tracer, result)))
            spans.extend([len(passes) - 1] + list(span)
                         for span in tracer.spans)
        else:
            with Sampler():
                result = bench.run_pass(None, len(passes))
            passes.append((False, result, None))
        now = wall_clock()
        if (len(passes) >= (2 if trace else 1)
                and now + (now - start) / len(passes) > deadline):
            return passes, spans


def summarise_rows(bench, timed, medians):
    """Per-instance rows (per-tier rows for ``service``)."""
    if bench.name == "service":
        tiers = tier_medians(timed, medians)
        return {tier: {"seconds": statistics.median(values),
                       "p90_seconds": percentile(values, 90),
                       "count": len(values)}
                for tier, values in sorted(tiers.items())}
    return {key: dict(timed[0].rows[key], seconds=medians[key])
            for key in timed[0].rows}


def print_rows(workload, rows):
    if workload == "service":
        print("%-8s %10s %10s %10s" % ("tier", "per pass", "p50 ms",
                                       "p90 ms"))
        for tier, row in rows.items():
            print("%-8s %10d %10.3f %10.3f"
                  % (tier, row["count"], row["seconds"] * 1000,
                     row["p90_seconds"] * 1000))
        return
    columns = [c for c in next(iter(rows.values())) if c != "seconds"]
    print("%-8s %10s " % ("row", "seconds")
          + " ".join("%15s" % c for c in columns))
    for key, row in rows.items():
        print("%-8s %10.4f " % (key, row["seconds"])
              + " ".join("%15s" % row[c] for c in columns))


def run(args):
    import workloads
    declared = declared_metrics()
    tmp = os.path.join(RESULTS, "tmp")
    os.makedirs(tmp, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=tmp)
    try:
        setup_s, setup_samples = measure_setup(args.workload, args.seed,
                                               scratch)
        bench = workloads.make(args.workload, args.seed, scratch)
        bench.warm_up()
        passes, spans = run_passes(bench, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    results = [result for _, result, _ in passes]
    timed = [result for traced, result, _ in passes if not traced]
    medians = op_medians(timed)
    latencies = list(medians.values())
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    problems = [p for r in results for p in r.problems]
    qualities = {(r.total_cost, r.literals_after) for r in results}
    if len(qualities) > 1:
        problems.append("answer quality differs between passes: %s"
                        % sorted(qualities))
    pass_cpu = [sum(op[1] for op in r.ops) for r in timed]
    pass_norm = [sum(s for _, s in normalise(r.ops)) for r in timed]
    end_to_end = {
        "setup_s": setup_s,
        "norm_cpu_s": sum(latencies),
        "ops_per_norm_cpu_s": len(latencies) / sum(latencies),
        "op_norm_cpu_p50_ms": percentile(latencies, 50) * 1000,
        "op_norm_cpu_p99_ms": percentile(latencies, 99) * 1000,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "total_cost": timed[0].total_cost,
        "literals_after": timed[0].literals_after,
    }
    per_layer = None
    if args.trace:
        traced = [layers for flag, _, layers in passes if flag]
        per_layer = {}
        for name in traced[0]:
            values = [layers[name] for layers in traced]
            per_layer[name] = (statistics.median(values) if is_time(name)
                               else values[0])
            if not is_time(name) and len(set(values)) > 1:
                problems.append("counter %s differs between traced "
                                "passes: %s" % (name, values))
        per_layer.update(tier_metrics(timed, medians))
        traced_cpu = sum(op_medians(
            [r for flag, r, _ in passes if flag]).values())
        per_layer["trace.overhead_s"] = (traced_cpu
                                         - end_to_end["norm_cpu_s"])
    rows = summarise_rows(bench, timed, medians)

    reported = per_layer if args.trace else end_to_end
    units = declared["per_layer" if args.trace else "end_to_end"]
    if set(reported) != set(units):
        raise RuntimeError("metrics %s do not match BENCHMARK.json %s"
                           % (sorted(reported), sorted(units)))
    correct = failed == 0 and not problems

    print("workload %s, seed %d, %d passes (%d timed, %d ops), "
          "set-up samples %s"
          % (args.workload, args.seed, len(passes), len(timed),
             len(latencies), ["%.3f" % s for s in setup_samples]))
    print_rows(args.workload, rows)
    print("pass CPU s: %s" % ["%.3f" % c for c in pass_cpu])
    print("pass normalised CPU s: %s" % ["%.3f" % c for c in pass_norm])
    print("error_rate %.6f (%d of %d answers failed)"
          % (failed / attempted, failed, attempted))
    if args.trace:
        print("end-to-end (untraced passes of this run):")
        for name, value in end_to_end.items():
            print("  %-24s %14.6g %s" % (name, value,
                                         declared["end_to_end"][name]))
    print("norm_cpu_s and op_norm_cpu: each of the %d operations timed "
          "(normalised CPU) as its median over %d passes"
          % (len(latencies), len(timed)))
    print("%s metrics:" % ("per-layer" if args.trace else "end-to-end"))
    for name in units:
        print("  %-24s %14.6g %s" % (name, reported[name], units[name]))
    for problem in problems[:20]:
        print("PROBLEM: %s" % problem)

    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    with open(os.path.join(RESULTS, stem + ".json"), "w") as handle:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "correct": correct,
                   "attempted": attempted, "failed": failed,
                   "problems": problems, "end_to_end": end_to_end,
                   "report_cache_hits": sum(r.cache_hits for r in results),
                   "per_layer": per_layer, "rows": rows,
                   "pass_cpu_s": pass_cpu, "pass_norm_cpu_s": pass_norm,
                   "setup_samples": setup_samples,
                   "op_samples": [r.ops for r in timed]},
                  handle, indent=1, sort_keys=True)
    if args.trace:
        with open(os.path.join(RESULTS, "spans-" + stem + ".json"),
                  "w") as handle:
            json.dump({"fields": ["pass", "name", "start", "end",
                                  "parent", "run_id"],
                       "spans": spans}, handle)

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": reported[name], "unit": units[name]}
                    for name in units}}))
    return 0


# ----------------------------------------------------------------------
# Compare mode
# ----------------------------------------------------------------------
def compare(path_a, path_b):
    with open(path_a) as handle:
        base = json.load(handle)
    with open(path_b) as handle:
        other = json.load(handle)
    ratios = []
    print("%-10s %12s %12s %8s" % ("row", "A seconds", "B seconds",
                                   "B/A"))
    for key in sorted(set(base["rows"]) & set(other["rows"])):
        a = base["rows"][key]["seconds"]
        b = other["rows"][key]["seconds"]
        ratio = b / a
        ratios.append(ratio)
        print("%-10s %12.5f %12.5f %8.3f" % (key, a, b, ratio))
    if ratios:
        geomean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
        print("geometric mean B/A over %d rows: %.4f"
              % (len(ratios), geomean))
    for kind in ("end_to_end", "per_layer"):
        if base.get(kind) and other.get(kind):
            print("%s:" % kind)
            for name in base[kind]:
                a, b = base[kind][name], other[kind].get(name)
                ratio = "%.3f" % (b / a) if a and b is not None else "-"
                print("  %-26s %14.6g %14.6g %8s" % (name, a, b, ratio))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--scratch", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    source = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        print("error: no program to benchmark at %s" % source,
              file=sys.stderr)
        return 2
    sys.path.insert(0, source)
    if args.setup_probe:
        return setup_probe(args.workload, args.seed, args.scratch)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
