#!/usr/bin/env python3
"""Builds and runs the MariusGNN benchmark (see benchmark/README.md).

One run of one workload (the form BENCHMARK.json's command uses); the last
line of stdout is the result object {"correct", "attempted", "failed", "metrics"}:

    python3 benchmark/run.py --workload lp_mem --seed 1 --seconds 30 --trace 0

A suite: every workload in fresh processes, interleaved by repetition, printed
as `workload metric median q1 q3 n unit` and written to
build-benchmark/out/results.json:

    python3 benchmark/run.py [--workloads lp_mem,kge_disk] [--repeats 3] [--seed 1]
                             [--sets 1] [--trace 1] [--smoke] [--out FILE]

Verdicts for every (workload, metric) pair against the bounds in BENCHMARK.json:

    python3 benchmark/run.py --compare BASE.json NEW.json
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, "build-benchmark")
BINARY = os.path.join(BUILD, "mgnn_workloads")
OUT = os.path.join(BUILD, "out")
WORK = os.path.join(BUILD, "work")
RUN_TIMEOUT_S = 170
SMOKE_SECONDS = 3


def fail(message, code=1):
    print("error: " + message, file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the driver from the sources in this checkout."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the library sources (CMakeLists.txt, src/) are missing next to benchmark/", 2)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "benchmark"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "mgnn_workloads",
                  "-j", str(os.cpu_count() or 1)])
    tmp = os.path.join(BUILD, "tmp")  # the compiler's scratch files stay in the checkout
    os.makedirs(tmp, exist_ok=True)
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                              env=dict(os.environ, TMPDIR=tmp))
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            fail("build step failed: " + " ".join(cmd))


def run_once(workload, seed, seconds, trace, smoke):
    """Runs one workload in a fresh process; returns its record, or None if it crashed."""
    work = os.path.join(WORK, "%s-%d-%d" % (workload, seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(OUT, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--work", work]
    if trace:
        cmd += ["--trace-out", os.path.join(OUT, "trace_%s_s%d.json" % (workload, seed))]
    if smoke:
        cmd.append("--smoke")
    env = dict(os.environ, TMPDIR=work)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("error: %s timed out after %d s" % (workload, RUN_TIMEOUT_S), file=sys.stderr)
        return None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("error: %s exited with %d" % (workload, proc.returncode), file=sys.stderr)
        return None
    return json.loads(lines[-1])


def metric_specs(spec, trace):
    return spec["per_layer"] if trace else spec["end_to_end"]


def driver_mode(args, spec):
    """One run; prints the metrics and, last, the result object."""
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail("unknown workload %r (choose from %s)" % (args.workload, ", ".join(names)), 2)
    build()
    rec = run_once(args.workload, args.seed, args.seconds, args.trace, args.smoke)
    if rec is None:
        fail("the %s run did not complete" % args.workload)
    metrics = {}
    for m in metric_specs(spec, args.trace):
        if m["name"] not in rec["metrics"]:
            fail("the run did not report %s" % m["name"])
        value = rec["metrics"][m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print("%s %s %r %s" % (args.workload, m["name"], value, m["unit"]))
    for error in rec["errors"]:
        print("%s FAILED %s" % (args.workload, error))
    print(json.dumps({"correct": rec["correct"], "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": metrics}))


def quartiles(values):
    """(median, q1, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def summarize(runs, spec, trace):
    """{workload: {metric: {median, q1, q3, n, unit}}} over `runs`."""
    out = {}
    for w in sorted({r["workload"] for r in runs}):
        rows = {}
        for m in metric_specs(spec, trace):
            values = [r["metrics"][m["name"]] for r in runs
                      if r["workload"] == w and m["name"] in r["metrics"]]
            if values:
                med, q1, q3 = quartiles(values)
                rows[m["name"]] = {"median": med, "q1": q1, "q3": q3, "n": len(values),
                                   "unit": m["unit"]}
        out[w] = rows
    return out


def print_summary(summary):
    for w, rows in summary.items():
        for name, s in rows.items():
            print("%s %s %.6g %.6g %.6g %d %s" % (w, name, s["median"], s["q1"], s["q3"], s["n"],
                                                  s["unit"]))


def hash_problems(runs):
    """Epoch determinism hashes must agree across every run of one (workload, seed),
    traced or not, over the epochs both runs completed."""
    problems = []
    groups = {}
    for r in runs:
        groups.setdefault((r["workload"], r["seed"]), []).append(r)
    for (w, seed), group in sorted(groups.items()):
        ref = group[0]["epoch_hashes"]
        for r in group[1:]:
            n = min(len(ref), len(r["epoch_hashes"]))
            if ref[:n] != r["epoch_hashes"][:n]:
                problems.append("%s seed %d: per-epoch determinism hashes differ between runs"
                                % (w, seed))
                break
    return problems


def fingerprint(runs):
    cache = {}
    path = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.isfile(path):
        with open(path) as f:
            for line in f:
                key, sep, value = line.strip().partition("=")
                if sep:
                    cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    version = ""
    if compiler:
        proc = subprocess.run([compiler, "--version"], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        version = proc.stdout.splitlines()[0] if proc.stdout else ""
    return {
        "nproc": os.cpu_count(),
        "direct_io_tmpdir": bool(runs) and all(r["direct_io"] for r in runs),
        "compiler": os.path.basename(compiler),
        "compiler_version": version,
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "cxx_flags": cache.get("CMAKE_CXX_FLAGS", ""),
        "cxx_flags_release": cache.get("CMAKE_CXX_FLAGS_RELEASE", ""),
        "kernel": platform.release(),
        "machine": platform.machine(),
    }


def suite_mode(args, spec):
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    known = {w["name"] for w in spec["workloads"]}
    for w in workloads:
        if w not in known:
            fail("unknown workload %r" % w, 2)
    repeats = 1 if args.smoke else args.repeats
    build()
    runs, traces, problems = [], [], []

    def record(rec, w, **tags):
        if rec is None:
            problems.append("%s: run did not complete" % w)
            return False
        rec.update(tags)
        problems.extend("%s: %s" % (w, e) for e in rec["errors"])
        if not rec["correct"] and not rec["errors"]:
            problems.append("%s: %d of %d operations failed" % (w, rec["failed"],
                                                                 rec["attempted"]))
        return True

    for s in range(args.sets):
        for rep in range(repeats):
            for w in workloads:
                print("# set %d rep %d %s" % (s + 1, rep + 1, w), file=sys.stderr)
                rec = run_once(w, args.seed, args.seconds, False, args.smoke)
                if record(rec, w, set=s, rep=rep):
                    runs.append(rec)
    if args.trace:
        for w in workloads:
            print("# trace %s" % w, file=sys.stderr)
            rec = run_once(w, args.seed, args.seconds, True, args.smoke)
            if record(rec, w, set=-1, rep=0):
                traces.append(rec)
    problems.extend(hash_problems(runs + traces))

    sets = [summarize([r for r in runs if r["set"] == s], spec, False)
            for s in range(args.sets)]
    for s, summary in enumerate(sets):
        print("# end-to-end, set %d (%d repetitions, seed %d)" % (s + 1, repeats, args.seed))
        print_summary(summary)
    result = {"fingerprint": fingerprint(runs + traces),
              "settings": {"seconds": args.seconds, "seed": args.seed, "repeats": repeats,
                           "smoke": args.smoke},
              "sets": sets, "runs": runs, "traces": traces}
    if traces:
        per_layer = summarize(traces, spec, True)
        print("# per-layer (traced run)")
        print_summary(per_layer)
        overhead = {}
        for t in traces:
            untraced = [r["metrics"]["epoch_s"] for r in runs if r["workload"] == t["workload"]]
            if untraced:
                overhead[t["workload"]] = t["metrics"]["epoch_s"] / statistics.median(untraced)
                print("%s tracing_overhead %.4f ratio" % (t["workload"], overhead[t["workload"]]))
            share = t["metrics"]["core.replay_other_s"] / t["metrics"]["core.replay_s"]
            print("%s replay_other_share %.4f ratio" % (t["workload"], share))
            if share >= 0.05:
                problems.append("%s: the replay budget does not close (%.1f%% outside spans)"
                                % (t["workload"], 100 * share))
        result["per_layer"] = per_layer
        result["tracing_overhead"] = overhead
    if len(sets) > 1:
        print("# set 1 vs set 2")
        verdicts = compare_runs([r for r in runs if r["set"] == 0],
                                [r for r in runs if r["set"] == 1], spec)
        result["agreement"] = {}
        for (w, name), v in sorted(verdicts.items()):
            result["agreement"].setdefault(w, {})[name] = v
            if v in ("better", "worse") and not args.smoke:  # smoke timings are too short
                problems.append("%s %s: set 2 is %s than set 1 beyond the bound" % (w, name, v))
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    print("# wrote %s" % args.out)
    for p in problems:
        print("FAILED " + p)
    sys.exit(1 if problems else 0)


def compare_runs(base, new, spec):
    """Verdict per (workload, metric): better, within, worse or unresolved.

    A metric is `worse` when the new median is worse than the base median by more
    than the metric's bound (a share of the base median), `better` when it is
    better by more than the bound. It is `unresolved` when either side's spread
    (q3 - q1, as a share of its median) is wider than the bound, unless every run
    of one side beats every run of the other.
    """
    verdicts = {}
    for w in sorted({r["workload"] for r in base} & {r["workload"] for r in new}):
        for m in spec["end_to_end"]:
            a = [r["metrics"][m["name"]] for r in base if r["workload"] == w]
            b = [r["metrics"][m["name"]] for r in new if r["workload"] == w]
            if not a or not b:
                continue
            sign = 1.0 if m["better"] == "lower" else -1.0
            (ma, qa1, qa3), (mb, qb1, qb3) = quartiles(a), quartiles(b)
            change = sign * (mb - ma) / abs(ma) if ma else 0.0  # > 0: worse
            spread = max((qa3 - qa1) / abs(ma) if ma else 0.0,
                         (qb3 - qb1) / abs(mb) if mb else 0.0)
            new_wins = all(sign * y < sign * x for x in a for y in b)
            base_wins = all(sign * x < sign * y for x in a for y in b)
            if spread > m["bound"] and not (new_wins or base_wins):
                verdict = "unresolved"
            elif change > m["bound"]:
                verdict = "worse"
            elif change < -m["bound"]:
                verdict = "better"
            else:
                verdict = "within"
            verdicts[(w, m["name"])] = verdict
            print("%s %s base %.6g new %.6g change %+.2f%% bound %.0f%% spread %.2f%% %s" % (
                w, m["name"], ma, mb, 100 * change, 100 * m["bound"], 100 * spread, verdict))
        fa = sum(r["failed"] for r in base if r["workload"] == w)
        na = sum(r["attempted"] for r in base if r["workload"] == w)
        fb = sum(r["failed"] for r in new if r["workload"] == w)
        nb = sum(r["attempted"] for r in new if r["workload"] == w)
        verdict = "worse" if fb * max(na, 1) > fa * max(nb, 1) else "within"
        verdicts[(w, "failed_share")] = verdict
        print("%s failed_share base %d/%d new %d/%d %s" % (w, fa, na, fb, nb, verdict))
    return verdicts


def compare_mode(args, spec):
    sides = []
    for path in args.compare:
        with open(path) as f:
            sides.append(json.load(f)["runs"])
    verdicts = compare_runs(sides[0], sides[1], spec)
    sys.exit(1 if "worse" in verdicts.values() else 0)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run one workload once (result object last)")
    parser.add_argument("--workloads", help="comma-separated subset for a suite")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--sets", type=int, default=1, help="independent run sets")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one repetition")
    parser.add_argument("--out", default=os.path.join(OUT, "results.json"))
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else spec["run_seconds"]
    if args.compare:
        compare_mode(args, spec)
    elif args.workload:
        driver_mode(args, spec)
    else:
        suite_mode(args, spec)


if __name__ == "__main__":
    main()
