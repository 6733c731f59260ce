#!/usr/bin/env python3
"""Build and run the cgct benchmark; see benchmark/README.md.

One run of one workload (the last stdout line is the JSON result):
    python3 benchmark/run.py --workload hier16-tpcw --seed 7 --seconds 20 --trace 0
A session: every workload R times in rotating order, then one traced run
each; prints median/q1/q3/n per metric and writes results/benchmark/:
    python3 benchmark/run.py [--seed S] [--runs R] [--vary-seed]
Validate BENCHMARK.json and run each workload once, small, with the
invariant checker on (under 60 s once built):
    python3 benchmark/run.py --check
Compare two sessions metric by metric against the bounds:
    python3 benchmark/run.py --compare A.json B.json
"""

import argparse
import fcntl
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / "build-benchmark"
EXE = BUILD / "cgct_benchmark"
RESULTS = ROOT / "results" / "benchmark"
SPEC = ROOT / "BENCHMARK.json"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

WORKLOADS = ["sweep-default", "hier16-tpcw", "sampled-tpcw", "replay-tpch"]
DEFAULT_SEED = 20050609
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

# Per-layer metric -> (layer, end-to-end metric it should move, workloads
# on which it should move it). Written down before measuring, as the
# benchmark's attribution contract; --check keeps it in step with
# BENCHMARK.json.
LAYERS = {
    "sim.setup_ms": ("sim", "setup_s", "all"),
    "sim.run_s": ("sim", "sim_s_p25", "all"),
    "sim.collect_ms": ("sim", "sim_s_p25", "sweep-default"),
    "sim.ns_per_event": ("sim", "sim_kops_per_s",
                         "sweep-default, hier16-tpcw, replay-tpch"),
    "sim.allocs_per_kop": ("sim", "sim_kops_per_s", "all"),
    "sim.host_ns_per_op": ("sim", "sim_kops_per_s", "all"),
    "event.events_per_op": ("event", "sim_kops_per_s",
                            "hier16-tpcw, sweep-default, replay-tpch"),
    "event.kernel_ns_per_event": ("event", "sim_kops_per_s",
                                  "hier16-tpcw; not sampled-tpcw"),
    "workload.ns_per_op": ("workload", "sim_kops_per_s",
                           "sweep-default, hier16-tpcw, replay-tpch"),
    "workload.self_frac": ("workload", "sim_kops_per_s",
                           "sweep-default, hier16-tpcw, sampled-tpcw"),
    "workload.isolated_ns_per_op": ("workload", "sim_kops_per_s",
                                    "sampled-tpcw, sweep-default"),
    "cache.l2_ns_per_access": ("cache", "sim_kops_per_s",
                               "all, sampled-tpcw warming included"),
    "core.rca_ns_per_access": ("core", "sim_kops_per_s",
                               "sampled-tpcw, hier16-tpcw"),
    "snapshot.save_ms": ("snapshot", "sim_s_p25", "sampled-tpcw"),
    "snapshot.restore_ms": ("snapshot", "sim_s_p25", "sampled-tpcw"),
    "snapshot.bytes": ("snapshot", "peak_rss_mb", "sampled-tpcw"),
    "trace.overhead_ratio": ("trace", "sim_s_p25", "traced runs only"),
    "cpu.ipc": ("cpu", "sim_cycles", "all"),
    "cpu.stall_frac.ifetch": ("cpu", "sim_cycles", "all"),
    "cpu.stall_frac.load": ("cpu", "sim_cycles", "all"),
    "cpu.stall_frac.rob": ("cpu", "sim_cycles", "all"),
    "cpu.stall_frac.store": ("cpu", "sim_cycles", "all"),
    "cache.l1d_miss_ratio": ("cache", "sim_cycles", "all"),
    "cache.l2_miss_ratio": ("cache", "sim_cycles", "all"),
    "core.rca_evictions_per_kop": ("core", "avoided_frac",
                                   "sweep-default, hier16-tpcw"),
    "core.rca_evicted_empty_frac": ("core", "avoided_frac", "all"),
    "core.self_invalidations_per_kop": ("core", "avoided_frac", "all"),
    "coherence.requests_per_kop": ("coherence", "sim_kops_per_s", "all"),
    "coherence.oracle_unnecessary_frac": ("coherence", "avoided_frac", "all"),
    "interconnect.broadcasts_per_kop": ("interconnect", "avoided_frac",
                                        "all"),
    "interconnect.directs_per_kop": ("interconnect", "avoided_frac", "all"),
    "interconnect.interchip_per_kop": ("interconnect", "sim_cycles",
                                       "hier16-tpcw"),
    "interconnect.c2c_frac": ("interconnect", "sim_cycles", "replay-tpch"),
    "interconnect.bcast_per_100k_cycles": ("interconnect", "sim_cycles",
                                           "all"),
    "mem.avg_miss_latency_cycles": ("mem", "sim_cycles", "all"),
    "mem.memory_supplied_per_kop": ("mem", "sim_cycles", "all"),
    "prefetch.issued_per_kop": ("prefetch", "sim_cycles", "all"),
}

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


class BenchError(Exception):
    """An infrastructure failure: no result can be reported."""


# ---------------------------------------------------------------- build ---

def build():
    """Configure (once) and build the benchmark into build-benchmark/."""
    BUILD.mkdir(exist_ok=True)
    log_path = BUILD / "build.log"
    configure = ["cmake", "-S", str(ROOT / "benchmark"), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"]
    make = ["cmake", "--build", str(BUILD), "--target", "cgct_benchmark",
            "-j", str(min(2, os.cpu_count() or 1))]
    with open(BUILD / "build.lock", "w") as lock:
        # Runs that start together build once.
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [make]
        if not (BUILD / "CMakeCache.txt").exists():
            steps.insert(0, configure)
        with open(log_path, "w") as log:
            for cmd in steps:
                try:
                    rc = subprocess.run(cmd, stdout=log,
                                        stderr=subprocess.STDOUT,
                                        timeout=BUILD_TIMEOUT_S).returncode
                except subprocess.TimeoutExpired as e:
                    raise BenchError("build timed out") from e
                if rc != 0:
                    log.flush()
                    tail = log_path.read_text(errors="replace")[-3000:]
                    sys.stderr.write(tail)
                    raise BenchError(f"build failed: {' '.join(cmd)}")


# ------------------------------------------------------------------ run ---

def invoke(args):
    try:
        proc = subprocess.run(args, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"timed out: {' '.join(args)}") from e
    if proc.returncode != 0:
        raise BenchError(f"exit {proc.returncode}: {' '.join(args)}")
    return json.loads(proc.stdout)


def run_binary(workload, seed, seconds, trace, quick=False):
    """One benchmark process (after replay-tpch's input preparation).
    Returns (binary output, live-capture row or None)."""
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=BUILD))
    try:
        args = [str(EXE), "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace),
                "--scratch", str(tmp)]
        live_row = None
        if quick:
            args.append("--quick")
        elif workload == "replay-tpch":
            capture = tmp / "replay.trace"
            live_row = invoke([str(EXE), "--workload", workload, "--seed",
                               str(seed), "--prepare", str(capture)])["live_row"]
            args += ["--trace-file", str(capture)]
        if trace and not quick:
            RESULTS.mkdir(parents=True, exist_ok=True)
            args += ["--trace-out", str(RESULTS / f"{workload}.trace.json")]
        return invoke(args), live_row
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


# --------------------------------------------------------------- checks ---

def load_reference():
    """The recorded rows; the default-sweep rows must hash to the frozen
    digest of `cgct_sweep` with no arguments."""
    ref = json.loads(REFERENCE.read_text())
    sweep = ref["sweep-default"]
    csv = sweep["header"] + "\n" + "".join(r + "\n" for r in sweep["rows"])
    if hashlib.sha256(csv.encode()).hexdigest() != sweep["csv_sha256"]:
        raise BenchError("reference.json: default-sweep rows do not hash "
                         "to the frozen digest")
    return ref


def row_problems(row, sampled):
    """Conservation checks any correct run's CSV row passes."""
    cols = row.split(",")
    try:
        region, cycles, instructions = int(cols[1]), int(cols[3]), int(cols[4])
        requests, bcasts, directs, local = (int(c) for c in cols[5:9])
        avoided = float(cols[10])
    except (ValueError, IndexError):
        return ["unparseable row"]
    problems = []
    if cycles <= 0 or instructions <= 0 or requests <= 0:
        problems.append("empty run")
    # Sampled counts are each scaled and rounded separately.
    if abs(requests - (bcasts + directs + local)) > (3 if sampled else 0):
        problems.append("requests != broadcasts + directs + locals")
    if region == 0 and (directs or local):
        problems.append("a baseline run avoided broadcasts")
    if not 0.0 <= avoided <= 1.0:
        problems.append("avoided fraction outside [0, 1]")
    return problems


def sweep_key(row):
    return tuple(row.split(",")[:3])  # workload, region_bytes, seed


def check_run(workload, out, live_row, ref, seed):
    """Returns (attempted, failed, problems) for one run's output."""
    sampled = workload == "sampled-tpcw"
    wref = ref[workload]
    frozen = {sweep_key(r): r for r in ref["sweep-default"]["rows"]}
    problems = []
    failed = 0
    jobs = out["jobs"]

    def judge(label, row, expected, why):
        nonlocal failed
        bad = row_problems(row, sampled)
        if expected is not None and row != expected:
            bad.append(why)
        if bad:
            failed += 1
            problems.append(f"{label}: {'; '.join(bad)}")

    for i, job in enumerate(jobs):
        label = f"job {i}"
        if workload == "sweep-default":
            judge(label, job["row"], frozen.get(sweep_key(job["row"])),
                  "differs from the frozen default-sweep row")
        elif live_row is not None:
            judge(label, job["row"], live_row,
                  "replay differs from the live capture run")
        else:
            judge(label, job["row"], jobs[0]["row"],
                  "differs from the run's first job (same input)")
    for i, row in enumerate(out["golden"]):
        expected = (frozen.get(sweep_key(row)) if workload == "sweep-default"
                    else wref["golden"][i])
        judge(f"golden {i}", row, expected, "differs from reference.json")
    for i, row in enumerate(out["probe"]):
        judge(f"probe {i}", row, None, "")

    if seed == DEFAULT_SEED and jobs and "default_seed_row" in wref:
        if jobs[0]["row"] != wref["default_seed_row"]:
            problems.append("default-seed row differs from reference.json")
    if sampled and seed == DEFAULT_SEED and jobs:
        problems += sampled_ci_problems(jobs[0]["row"], wref["full_detail"])
    attempted = len(jobs) + len(out["golden"]) + len(out["probe"])
    return attempted, failed, problems


def sampled_ci_problems(row, full):
    """Each sampled estimate lies within its 95% CI of the full-detail
    run of the same seed (cycles are not gated: see README)."""
    c = row.split(",")
    pairs = {"avoided_fraction": (float(c[10]), float(c[21])),
             "l2_miss_ratio": (float(c[14]), float(c[22])),
             "avg_miss_latency": (float(c[15]), float(c[23]))}
    return [f"sampled {k} {est} is outside {full[k]} +- {ci}"
            for k, (est, ci) in pairs.items() if abs(est - full[k]) > ci]


def first_block_digest(out):
    rows = [j["row"] for j in out["jobs"]
            if j["block"] == 0 and not j["instrumented"]]
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


# ---------------------------------------------------------------- modes ---

def load_spec():
    return json.loads(SPEC.read_text())


def units(spec, section):
    return {m["name"]: m["unit"] for m in spec[section]}


def one_run(spec, ref, workload, seed, seconds, trace):
    """Run, check and shape one result as the benchmark contract has it."""
    out, live_row = run_binary(workload, seed, seconds, trace)
    attempted, failed, problems = check_run(workload, out, live_row, ref,
                                            seed)
    wanted = units(spec, "per_layer" if trace else "end_to_end")
    got = out["metrics"]
    missing = sorted(set(wanted) - set(got))
    if missing:
        raise BenchError(f"{workload}: no value for {', '.join(missing)}")
    for p in problems:
        print(f"CHECK FAILED {workload} seed {seed}: {p}", file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed,
              "metrics": {n: {"value": got[n], "unit": u}
                          for n, u in wanted.items()}}
    return result, out


def single_run_mode(args):
    spec = load_spec()
    ref = load_reference()
    build()
    result, _ = one_run(spec, ref, args.workload, args.seed,
                        args.seconds or spec["run_seconds"], args.trace)
    for name, m in result["metrics"].items():
        print(f"{args.workload:14s} {name:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))


def quartiles(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def summarize(runs, spec):
    out = {}
    for section in ("end_to_end", "per_layer"):
        for m in spec[section]:
            for w in WORKLOADS:
                vals = [r["metrics"][m["name"]]["value"] for r in runs
                        if r["workload"] == w and m["name"] in r["metrics"]]
                if not vals:
                    continue
                med, q1, q3 = quartiles(vals)
                out.setdefault(w, {})[m["name"]] = {
                    "unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                    "max": max(vals), "n": len(vals),
                    "spread": (q3 - q1) / med if med else 0.0}
    return out


def first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True).stdout
    except OSError:
        return "unknown"
    return out.splitlines()[0].strip() if out.strip() else "unknown"


def host_info():
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    m = re.search(r"CMAKE_CXX_COMPILER:\w+=(.*)",
                  (BUILD / "CMakeCache.txt").read_text())
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "compiler": first_line([m.group(1), "--version"]) if m
            else "unknown",
            "build_type": "Release",
            "git_sha": first_line(["git", "-C", str(ROOT), "rev-parse",
                                   "HEAD"])}


def print_summary(summary, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for w in WORKLOADS:
        if w not in summary:
            continue
        print(f"\n== {w}")
        print(f"{'metric':36s} {'unit':10s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'n':>3s}  spread/bound")
        for name, s in summary[w].items():
            sb = (f"{s['spread']:.3f}/{bounds[name]}" if name in bounds
                  else "")
            print(f"{name:36s} {s['unit']:10s} {s['median']:12.6g} "
                  f"{s['q1']:12.6g} {s['q3']:12.6g} {s['n']:3d}  {sb}")


def session_mode(args):
    spec = load_spec()
    ref = load_reference()
    build()
    seconds = args.seconds or spec["run_seconds"]
    runs, ok = [], True
    digests = {}
    plan = []
    for i in range(args.runs):
        seed = args.seed + i if args.vary_seed else args.seed
        k = i % len(WORKLOADS)
        plan += [(w, seed, 0) for w in WORKLOADS[k:] + WORKLOADS[:k]]
    plan += [(w, args.seed, 1) for w in WORKLOADS]
    for w, seed, trace in plan:
        result, out = one_run(spec, ref, w, seed, seconds, trace)
        ok = ok and result["correct"] and result["failed"] == 0
        digest = first_block_digest(out)
        digests.setdefault((w, seed), set()).add(digest)
        runs.append({"workload": w, "seed": seed, "trace": trace,
                     "digest": digest,
                     "calibration_s": out["calibration_s"], **result})
        print(f"{w:14s} seed {seed} trace {trace}: correct="
              f"{result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
    for (w, seed), ds in digests.items():
        if len(ds) != 1:
            ok = False
            print(f"NOT DETERMINISTIC: {w} seed {seed} gave {len(ds)} "
                  f"different first-block digests", file=sys.stderr)
    summary = summarize(runs, spec)
    print_summary(summary, spec)
    session = time.strftime("%Y%m%d-%H%M%S")
    doc = {"schema": "cgct-benchmark-session-v1", "session": session,
           "host": host_info(), "seed": args.seed, "runs": args.runs,
           "vary_seed": args.vary_seed, "seconds": seconds,
           "correct": ok, "summary": summary, "results": runs}
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"{session}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"\nsession written to {path.relative_to(ROOT)}; "
          f"all checks {'passed' if ok else 'FAILED'}")
    return 0 if ok else 1


def compare_mode(a_path, b_path):
    """Per (workload, metric): medians and quartiles of both sides, the
    ratio with its base, and a verdict under the metric's bound."""
    spec = load_spec()
    da = json.loads(Path(a_path).read_text())
    db = json.loads(Path(b_path).read_text())
    a, b = da["summary"], db["summary"]
    regressions = 0
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        for w in WORKLOADS:
            if name not in a.get(w, {}) or name not in b.get(w, {}):
                continue
            sa, sb = a[w][name], b[w][name]
            base = sa["median"]
            worse = ((sb["median"] - base) if lower
                     else (base - sb["median"])) / base if base else 0.0
            va, vb = ([r["metrics"][name]["value"] for r in d["results"]
                       if r["workload"] == w and r["trace"] == 0]
                      for d in (da, db))
            all_better = va and vb and (max(vb) < min(va) if lower
                                        else min(vb) > max(va))
            if max(sa["spread"], sb["spread"]) > m["bound"] and not all_better:
                verdict = "unresolved (spread > bound)"
            elif worse > m["bound"]:
                verdict = "REGRESSION"
                regressions += 1
            else:
                verdict = "no regression"
            print(f"{w:14s} {name:16s} A {sa['median']:.6g} "
                  f"[{sa['q1']:.6g}, {sa['q3']:.6g}] n={sa['n']}  "
                  f"B {sb['median']:.6g} [{sb['q1']:.6g}, {sb['q3']:.6g}] "
                  f"n={sb['n']}  B/A = {sb['median'] / base:.4f} "
                  f"(base A = {base:.6g} {m['unit']})  bound "
                  f"{m['bound']}: {verdict}")
    return 1 if regressions else 0


def validate_spec(spec, raw_size):
    """The benchmark contract's limits on BENCHMARK.json."""
    err = []
    if raw_size > 64 * 1024:
        err.append("file larger than 64 KiB")
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != keys:
        err.append(f"top-level keys must be exactly {sorted(keys)}")
        return err
    cmd = spec["command"]
    if (not isinstance(cmd, list) or not 1 <= len(cmd) <= 32
            or any(not isinstance(c, str) or len(c) > 200 or
                   c.startswith("/") or ".." in c.split("/") for c in cmd)):
        err.append("bad command")
    paths = spec["paths"]
    if not 1 <= len(paths) <= 16 or any(
            not PATH_RE.match(p) or p.startswith("/") or ".." in p.split("/")
            for p in paths):
        err.append("bad paths")
    rs = spec["run_seconds"]
    if not isinstance(rs, int) or not 1 <= rs <= 60:
        err.append("run_seconds must be a whole number from 1 to 60")
    names = []
    wl = spec["workloads"]
    if not 2 <= len(wl) <= 8:
        err.append("2 to 8 workloads")
    for w in wl:
        if set(w) != {"name", "why"}:
            err.append(f"workload keys: {w}")
        elif len(w["why"]) > 200 or "\n" in w["why"]:
            err.append(f"workload {w['name']}: why must be one line <= 200")
        names.append(w.get("name", ""))
    if sorted(names) != sorted(WORKLOADS):
        err.append(f"workloads must be {WORKLOADS}")
    e2e, layer = spec["end_to_end"], spec["per_layer"]
    if not 1 <= len(e2e) <= 16:
        err.append("1 to 16 end-to-end metrics")
    if not 1 <= len(layer) <= 128:
        err.append("1 to 128 per-layer metrics")
    for m in e2e:
        if set(m) != {"name", "unit", "better", "bound"}:
            err.append(f"end-to-end keys: {m}")
        elif not (isinstance(m["bound"], (int, float))
                  and 0 < m["bound"] <= 0.25):
            err.append(f"{m['name']}: bound must be in (0, 0.25]")
    for m in layer:
        if set(m) != {"name", "unit", "better"}:
            err.append(f"per-layer keys: {m}")
    for m in e2e + layer:
        names.append(m.get("name", ""))
        if not UNIT_RE.match(str(m.get("unit", ""))):
            err.append(f"{m.get('name')}: bad unit")
        if m.get("better") not in ("lower", "higher"):
            err.append(f"{m.get('name')}: better must be lower or higher")
    for n in names:
        if not NAME_RE.match(n):
            err.append(f"bad name {n!r}")
    dups = {n for n in names if names.count(n) > 1}
    if dups:
        err.append(f"names used twice: {sorted(dups)}")
    setup = [m for m in e2e if m.get("name") == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        err.append("setup_s (unit s, lower) is required")
    elif setup[0]["bound"] < max(m["bound"] for m in e2e):
        err.append("setup_s must have the largest bound")
    layer_names = {m["name"] for m in layer}
    if layer_names != set(LAYERS):
        err.append("per-layer metrics and run.py LAYERS differ: "
                   f"{sorted(layer_names ^ set(LAYERS))}")
    e2e_names = {m["name"] for m in e2e}
    for name, (_, moves, where) in LAYERS.items():
        if moves not in e2e_names or not where:
            err.append(f"{name}: must name the end-to-end metric and "
                       "workloads it moves")
    return err


def check_mode():
    t0 = time.monotonic()
    raw = SPEC.read_bytes()
    spec = json.loads(raw)
    errors = validate_spec(spec, len(raw))
    print(f"BENCHMARK.json: {len(spec['end_to_end'])} end-to-end and "
          f"{len(spec['per_layer'])} per-layer metrics, runs of "
          f"{spec['run_seconds']} s")
    ref = load_reference()
    build()
    for w in WORKLOADS:
        out, _ = run_binary(w, DEFAULT_SEED, 1, 0, quick=True)
        attempted, failed, problems = check_run(w, out, None, ref, None)
        errors += [f"{w}: {p}" for p in problems]
        print(f"{w:14s} {attempted} golden simulations with invariants "
              f"on, {failed} failed")
    for e in errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    print(f"--check {'passed' if not errors else 'FAILED'} in "
          f"{time.monotonic() - t0:.1f} s")
    return 1 if errors else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=0,
                    help="measured loop length (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--vary-seed", action="store_true",
                    help="session: run i uses seed + i")
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    try:
        if args.check:
            return check_mode()
        if args.compare:
            return compare_mode(*args.compare)
        if args.workload:
            single_run_mode(args)
            return 0
        return session_mode(args)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"benchmark: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
