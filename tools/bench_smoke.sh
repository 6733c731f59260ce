#!/usr/bin/env bash
# bench_smoke.sh — CI smoke for the event-kernel and memory-system perf
# gates.
#
#   tools/bench_smoke.sh <bench_event_queue-binary> [repo-root] \
#                        [bench_memory_system-binary] \
#                        [bench_trace_replay-binary] \
#                        [bench_sampling-binary] \
#                        [bench_topology-binary]
#
# 1. Runs bench_event_queue for a few iterations. The binary itself
#    enforces the zero-allocation contract (it exits non-zero if the
#    steady-state schedule/runOne loop touched the heap), so a pass here
#    is the allocation gate, not just a liveness check.
# 2. Validates the bench's JSON output against the expected schema.
# 3. Validates the recorded repo baselines — BENCH_kernel.json and
#    BENCH_sweep.json — against their schemas, so the committed perf
#    records can't silently rot.
# 4. Gates throughput: fresh numbers must reach a fraction of the
#    recorded baselines — event_queue.steady_events_per_sec from
#    BENCH_kernel.json at CGCT_BENCH_MIN_FRAC (default 0.65), and every
#    memory_system.*_ops_per_sec from BENCH_sweep.json at
#    CGCT_BENCH_MEM_MIN_FRAC (default 0.45; wider because that baseline
#    is a quiet-machine full-length run) — so a perf regression in
#    either hot path fails CI instead of slipping by. The slack absorbs
#    machine-to-machine variance; tighten it on a quiet dedicated box.
# 5. When the bench_memory_system binary is given, runs it too: its
#    measured loops (SoA cache/RCA lookups, open-addressed MSHR churn,
#    pooled waiter queues) enforce their own zero-allocation contract.
# 6. When the bench_trace_replay binary is given, runs the trace
#    frontend bench and holds replay_ops_per_sec to a fraction of
#    BENCH_trace.json (CGCT_BENCH_TRACE_MIN_FRAC, default 0.45) AND
#    requires replay to stay at least as fast as the synthetic
#    generator — mmap streaming decode regressing below generation
#    speed would make --replay the frontend bottleneck.
# 7. When the bench_sampling binary is given, runs the sampling bench
#    (docs/SAMPLING.md) and holds the sampled run's wall-clock lead over
#    full detail to a fraction of BENCH_sampling.json
#    (CGCT_BENCH_SAMPLING_MIN_FRAC, default 0.35) with a reportably
#    tight CI.
# 8. When the bench_topology binary is given, runs the interconnect
#    bench (docs/TOPOLOGY.md). The binary itself asserts digest
#    determinism and cgct_sweep --jobs byte-identity; the smoke gate
#    additionally holds the 16-node bus-bypass rate and inter-chip
#    reduction to a fraction of BENCH_topology.json
#    (CGCT_BENCH_TOPO_MIN_FRAC, default 0.9 — these are seeded workload
#    facts, not wall clock, so the slack is tight).
#
# Wired into ctest as the `bench_smoke` test (see tests/CMakeLists.txt).

set -u

bench="${1:?usage: bench_smoke.sh <bench_event_queue-binary> [repo-root] [bench_memory_system-binary] [bench_trace_replay-binary] [bench_sampling-binary] [bench_topology-binary]}"
root="${2:-$(cd "$(dirname "$0")/.." && pwd)}"
membench="${3:-}"
tracebench="${4:-}"
samplingbench="${5:-}"
topobench="${6:-}"

if [ ! -x "$bench" ]; then
    echo "bench_smoke: bench binary not found: $bench" >&2
    exit 1
fi

out="$("$bench" --events 50000)" || {
    echo "bench_smoke: bench_event_queue failed (allocation gate?)" >&2
    exit 1
}

json_check() {
    # json_check <json-string> <label> <required-key>...
    local payload="$1" label="$2"
    shift 2
    if command -v python3 >/dev/null 2>&1; then
        printf '%s' "$payload" | python3 -c '
import json, sys
label = sys.argv[1]
required = sys.argv[2:]
try:
    doc = json.load(sys.stdin)
except Exception as e:
    sys.exit(f"bench_smoke: {label}: invalid JSON: {e}")
missing = [k for k in required if k not in doc]
if missing:
    sys.exit(f"bench_smoke: {label}: missing keys: {missing}")
for k, v in doc.items():
    if k.endswith("_allocs") and v != 0:
        sys.exit(f"bench_smoke: {label}: {k} = {v}, expected 0")
' "$label" "$@"
        # Fallback without python3: key-presence grep only.
        local key
        for key in "$@"; do
            if ! printf '%s' "$payload" | grep -q "\"$key\""; then
                echo "bench_smoke: $label: missing key \"$key\"" >&2
                return 1
            fi
        done
    fi
}

json_check "$out" "bench_event_queue output" \
    schema events steady_events_per_sec steady_allocs \
    farmix_events_per_sec farmix_allocs depth16k_events_per_sec || exit 1

baseline="$root/BENCH_kernel.json"
if [ ! -f "$baseline" ]; then
    echo "bench_smoke: $baseline is missing (record the kernel perf" \
         "baseline; see docs/PERF.md)" >&2
    exit 1
fi
json_check "$(cat "$baseline")" "BENCH_kernel.json" \
    schema date build event_queue sweep || exit 1

# Throughput gate vs. the recorded baseline (needs python3 to compare).
min_frac="${CGCT_BENCH_MIN_FRAC:-0.65}"
if command -v python3 >/dev/null 2>&1; then
    python3 - "$baseline" "$min_frac" <<PYEOF || exit 1
import json, sys
fresh = json.loads("""$out""")
baseline = json.load(open(sys.argv[1]))
frac = float(sys.argv[2])
ref = baseline["event_queue"]["steady_events_per_sec"]
got = fresh["steady_events_per_sec"]
floor = frac * ref
if got < floor:
    sys.exit(f"bench_smoke: steady_events_per_sec {got:.3g} is below "
             f"{frac} x baseline {ref:.3g} (floor {floor:.3g}) — "
             f"event-kernel perf regression?")
print(f"bench_smoke: throughput {got:.3g} ev/s >= {frac} x "
      f"baseline {ref:.3g}")
PYEOF
else
    echo "bench_smoke: python3 missing, skipping throughput gate" >&2
fi

# The recorded end-to-end sweep baseline (before/after wall clock, output
# sha, and the memory-system microbench floors).
sweep_baseline="$root/BENCH_sweep.json"
if [ ! -f "$sweep_baseline" ]; then
    echo "bench_smoke: $sweep_baseline is missing (record the sweep perf" \
         "baseline; see docs/PERF.md)" >&2
    exit 1
fi
json_check "$(cat "$sweep_baseline")" "BENCH_sweep.json" \
    schema date build sweep memory_system || exit 1

# Memory-system hot-path gate: run the bench (its loops enforce the
# zero-allocation contract internally), validate the schema, and hold
# every pattern's throughput to the recorded floor.
if [ -n "$membench" ]; then
    if [ ! -x "$membench" ]; then
        echo "bench_smoke: bench_memory_system binary not found:" \
             "$membench" >&2
        exit 1
    fi
    mem_out="$("$membench" --ops 2000000)" || {
        echo "bench_smoke: bench_memory_system failed" \
             "(allocation gate?)" >&2
        exit 1
    }
    json_check "$mem_out" "bench_memory_system output" \
        schema ops cache_hit_ops_per_sec cache_hit_allocs \
        cache_mix_ops_per_sec cache_mix_allocs rca_mix_ops_per_sec \
        rca_mix_allocs mshr_churn_ops_per_sec mshr_churn_allocs || exit 1

    # The memory-system baseline was recorded on a quiet machine at the
    # full default op count; the CI run is short and may share the box,
    # so its default slack is wider (override: CGCT_BENCH_MEM_MIN_FRAC).
    mem_min_frac="${CGCT_BENCH_MEM_MIN_FRAC:-0.45}"
    if command -v python3 >/dev/null 2>&1; then
        python3 - "$sweep_baseline" "$mem_min_frac" <<PYEOF || exit 1
import json, sys
fresh = json.loads("""$mem_out""")
ref = json.load(open(sys.argv[1]))["memory_system"]
frac = float(sys.argv[2])
for key, base in ref.items():
    if not key.endswith("_ops_per_sec"):
        continue
    got = fresh[key]
    floor = frac * base
    if got < floor:
        sys.exit(f"bench_smoke: {key} {got:.3g} is below {frac} x "
                 f"baseline {base:.3g} (floor {floor:.3g}) — "
                 f"memory-system perf regression?")
    print(f"bench_smoke: {key} {got:.3g} >= {frac} x baseline {base:.3g}")
PYEOF
    else
        echo "bench_smoke: python3 missing, skipping memory gate" >&2
    fi
fi

# Trace frontend gate: replay decode throughput vs the recorded
# baseline, plus the structural invariant replay >= generator.
if [ -n "$tracebench" ]; then
    if [ ! -x "$tracebench" ]; then
        echo "bench_smoke: bench_trace_replay binary not found:" \
             "$tracebench" >&2
        exit 1
    fi
    trace_baseline="$root/BENCH_trace.json"
    if [ ! -f "$trace_baseline" ]; then
        echo "bench_smoke: $trace_baseline is missing (record the trace" \
             "frontend baseline; see docs/PERF.md)" >&2
        exit 1
    fi
    trace_out="$("$tracebench" --ops 1000000)" || {
        echo "bench_smoke: bench_trace_replay failed" >&2
        exit 1
    }
    json_check "$trace_out" "bench_trace_replay output" \
        schema ops cpus generator_ops_per_sec capture_ops_per_sec \
        replay_ops_per_sec replay_vs_generator || exit 1
    json_check "$(cat "$trace_baseline")" "BENCH_trace.json" \
        schema date build trace_replay || exit 1

    trace_min_frac="${CGCT_BENCH_TRACE_MIN_FRAC:-0.45}"
    if command -v python3 >/dev/null 2>&1; then
        python3 - "$trace_baseline" "$trace_min_frac" <<PYEOF || exit 1
import json, sys
fresh = json.loads("""$trace_out""")
ref = json.load(open(sys.argv[1]))["trace_replay"]
frac = float(sys.argv[2])
got = fresh["replay_ops_per_sec"]
base = ref["replay_ops_per_sec"]
floor = frac * base
if got < floor:
    sys.exit(f"bench_smoke: replay_ops_per_sec {got:.3g} is below "
             f"{frac} x baseline {base:.3g} (floor {floor:.3g}) — "
             f"trace decode perf regression?")
if got < fresh["generator_ops_per_sec"]:
    sys.exit("bench_smoke: replay decode is slower than the synthetic "
             "generator — --replay would bottleneck the frontend")
print(f"bench_smoke: replay {got:.3g} ops/s >= {frac} x baseline "
      f"{base:.3g}, and {fresh['replay_vs_generator']:.2f}x the "
      f"generator")
PYEOF
    else
        echo "bench_smoke: python3 missing, skipping trace gate" >&2
    fi
fi

# Sampling gate: the sampled run must keep a healthy wall-clock lead
# over the full-detail sweep cell it replaces, and its CI must stay
# tight enough to be worth reporting (docs/SAMPLING.md). The CI run is
# shorter than the recorded baseline, so the default slack is wide
# (override: CGCT_BENCH_SAMPLING_MIN_FRAC).
if [ -n "$samplingbench" ]; then
    if [ ! -x "$samplingbench" ]; then
        echo "bench_smoke: bench_sampling binary not found:" \
             "$samplingbench" >&2
        exit 1
    fi
    sampling_baseline="$root/BENCH_sampling.json"
    if [ ! -f "$sampling_baseline" ]; then
        echo "bench_smoke: $sampling_baseline is missing (record the" \
             "sampling baseline; see docs/SAMPLING.md)" >&2
        exit 1
    fi
    sampling_out="$("$samplingbench" --ops 400000)" || {
        echo "bench_smoke: bench_sampling failed" >&2
        exit 1
    }
    json_check "$sampling_out" "bench_sampling output" \
        schema ops seeds windows window_ops full_seconds \
        sampled_seconds speedup_vs_full_cell \
        window_cycles_ci95_rel || exit 1
    json_check "$(cat "$sampling_baseline")" "BENCH_sampling.json" \
        schema date build sampling || exit 1

    sampling_min_frac="${CGCT_BENCH_SAMPLING_MIN_FRAC:-0.35}"
    if command -v python3 >/dev/null 2>&1; then
        python3 - "$sampling_baseline" "$sampling_min_frac" <<PYEOF || exit 1
import json, sys
fresh = json.loads("""$sampling_out""")
ref = json.load(open(sys.argv[1]))["sampling"]
frac = float(sys.argv[2])
got = fresh["speedup_vs_full_cell"]
base = ref["speedup_vs_full_cell"]
floor = frac * base
if got < floor:
    sys.exit(f"bench_smoke: sampling speedup {got:.2f}x is below "
             f"{frac} x baseline {base:.2f}x (floor {floor:.2f}x) — "
             f"warm-path perf regression?")
if got < 1.0:
    sys.exit("bench_smoke: sampled run is slower than the full-detail "
             "cell it replaces — sampling has no point at this scale")
rel = fresh["window_cycles_ci95_rel"]
if rel > 0.5:
    sys.exit(f"bench_smoke: window-cycles CI is {rel:.0%} of the mean — "
             f"windows too small or too few to report")
print(f"bench_smoke: sampling speedup {got:.2f}x >= {frac} x baseline "
      f"{base:.2f}x, CI width {rel:.1%} of mean")
PYEOF
    else
        echo "bench_smoke: python3 missing, skipping sampling gate" >&2
    fi
fi

# Interconnect topology gate: the binary exits non-zero if repeated runs
# diverge or the cgct_sweep --jobs CSVs differ, so running it IS the
# determinism gate. The traffic ratios are deterministic workload facts
# (seeded runs, no wall clock involved), so the default slack is tight.
if [ -n "$topobench" ]; then
    if [ ! -x "$topobench" ]; then
        echo "bench_smoke: bench_topology binary not found:" \
             "$topobench" >&2
        exit 1
    fi
    topo_baseline="$root/BENCH_topology.json"
    if [ ! -f "$topo_baseline" ]; then
        echo "bench_smoke: $topo_baseline is missing (record the" \
             "interconnect baseline; see docs/TOPOLOGY.md)" >&2
        exit 1
    fi
    topo_out="$("$topobench" --ops 20000)" || {
        echo "bench_smoke: bench_topology failed (digest or --jobs" \
             "sweep mismatch?)" >&2
        exit 1
    }
    json_check "$topo_out" "bench_topology output" \
        schema nodes ops_per_cpu bus_interchip hier_local \
        hier_interchip hier_bypass_rate hier_interchip_reduction \
        dir_local dir_interchip dir_bypass_rate \
        dir_interchip_reduction stats_digest digests_identical \
        sweep_csv_digest sweep_jobs_identical || exit 1
    json_check "$(cat "$topo_baseline")" "BENCH_topology.json" \
        schema date build topology || exit 1

    topo_min_frac="${CGCT_BENCH_TOPO_MIN_FRAC:-0.9}"
    if command -v python3 >/dev/null 2>&1; then
        python3 - "$topo_baseline" "$topo_min_frac" <<PYEOF || exit 1
import json, sys
fresh = json.loads("""$topo_out""")
ref = json.load(open(sys.argv[1]))["topology"]
frac = float(sys.argv[2])
if fresh["sweep_jobs_identical"] is not True:
    sys.exit("bench_smoke: topology sweep CSVs differ across --jobs — "
             "determinism broken")
for key in ("hier_bypass_rate", "hier_interchip_reduction",
            "dir_bypass_rate", "dir_interchip_reduction"):
    got, base = fresh[key], ref[key]
    floor = frac * base
    if got < floor:
        sys.exit(f"bench_smoke: {key} {got:.3f} is below {frac} x "
                 f"baseline {base:.3f} (floor {floor:.3f}) — the "
                 f"escape filter stopped keeping requests on chip?")
    print(f"bench_smoke: {key} {got:.3f} >= {frac} x baseline "
          f"{base:.3f}")
print("bench_smoke: topology digests identical, --jobs CSVs identical")
PYEOF
    else
        echo "bench_smoke: python3 missing, skipping topology gate" >&2
    fi
fi

echo "bench_smoke: OK — allocation gates passed, JSON schemas valid"
