#!/usr/bin/env bash
# trace_replay_test.sh — end-to-end capture→replay byte-identity
# (docs/TRACE_FORMAT.md). For each benchmark profile: run the simulator
# with --capture, replay the resulting v2 trace, and require the two
# JSON results and --stats dumps to hash identically after normalizing
# the fields that legitimately differ (the workload label and, for
# replays, the seed the trace file does not carry). Also covers cgct_trace
# verify/info and its refusal of the retired record subcommand, and the
# rejection of legacy v1 files.
#
#   tools/trace_replay_test.sh <cgct_sim-binary> <cgct_trace-binary>
#
# Wired into ctest as `trace_replay_e2e` (see tests/CMakeLists.txt).

set -u

sim="${1:?usage: trace_replay_test.sh <cgct_sim> <cgct_trace>}"
trace="${2:?usage: trace_replay_test.sh <cgct_sim> <cgct_trace>}"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

sha() { sha256sum "$1" | cut -d' ' -f1; }

# The workload label ("tpc-w" vs "trace:/path/to/file") and the seed
# are the only fields allowed to differ between a live run and its
# replay; everything else — the JSON result and the --stats dump of
# every component counter — must be byte-identical.
normalize() {
    sed -e 's/"workload": "[^"]*"/"workload": "X"/' \
        -e 's/"seed": [0-9]*/"seed": 0/' "$1"
}

# Contract row 7 (docs/CONTRACTS.md): every profile at 10000 ops, and
# tpc-w and barnes at 8000 ops under a second seed.
while read -r bench ops seed; do
    cap="$tmp/$bench.$ops.trace"
    "$sim" "$bench" --ops "$ops" --seed "$seed" --capture "$cap" \
        --json --stats > "$tmp/$bench.live.json" 2> /dev/null
    if [ $? -ne 0 ] || [ ! -s "$cap" ]; then
        echo "trace_replay_test: capture run failed for $bench" >&2
        exit 1
    fi

    # The published capture must pass deep verification (hashes,
    # record walk) before it is trusted for replay.
    if ! "$trace" verify "$cap" > /dev/null; then
        echo "trace_replay_test: cgct_trace verify rejected $cap" >&2
        exit 1
    fi

    "$sim" --replay "$cap" --ops "$ops" --seed "$seed" \
        --json --stats > "$tmp/$bench.replay.json" 2> /dev/null
    if [ $? -ne 0 ]; then
        echo "trace_replay_test: replay run failed for $bench" >&2
        exit 1
    fi

    normalize "$tmp/$bench.live.json" > "$tmp/$bench.live.norm"
    normalize "$tmp/$bench.replay.json" > "$tmp/$bench.replay.norm"
    if [ "$(sha "$tmp/$bench.live.norm")" != \
         "$(sha "$tmp/$bench.replay.norm")" ]; then
        echo "trace_replay_test: $bench replay diverged from the live" \
             "run (diff follows)" >&2
        diff "$tmp/$bench.live.norm" "$tmp/$bench.replay.norm" >&2
        exit 1
    fi
done <<'RUNS'
ocean 10000 7
raytrace 10000 7
barnes 10000 7
specint2000rate 10000 7
specweb99 10000 7
specjbb2000 10000 7
tpc-w 10000 7
tpc-b 10000 7
tpc-h 10000 7
tpc-w 8000 77
barnes 8000 77
RUNS

# The default warmup of a replay comes from the trace header's declared
# op count, not from --ops: a capture at a non-default --ops replays with
# no --ops/--warmup to the live run's stats.
"$sim" tpc-w --ops 50000 --seed 7 --capture "$tmp/ops50k.trace" \
    --json > "$tmp/ops50k.live.json" 2> /dev/null &&
"$sim" --replay "$tmp/ops50k.trace" --json \
    > "$tmp/ops50k.replay.json" 2> /dev/null || {
    echo "trace_replay_test: 50000-op capture or replay failed" >&2
    exit 1
}
normalize "$tmp/ops50k.live.json" > "$tmp/ops50k.live.norm"
normalize "$tmp/ops50k.replay.json" > "$tmp/ops50k.replay.norm"
if ! cmp -s "$tmp/ops50k.live.norm" "$tmp/ops50k.replay.norm"; then
    echo "trace_replay_test: replay without --warmup diverged from the" \
         "live run (diff follows)" >&2
    diff "$tmp/ops50k.live.norm" "$tmp/ops50k.replay.norm" >&2
    exit 1
fi

# Replays are configuration-portable: the same trace replayed under a
# different region size must run to completion (different stats, same
# op stream).
"$sim" --replay "$tmp/tpc-w.10000.trace" --region 1024 --ops 10000 \
    --json > /dev/null 2>&1 || {
    echo "trace_replay_test: replay under a different config failed" >&2
    exit 1
}

# Capture → info: the directory totals must match what was asked for.
rec="$tmp/recorded.trace"
"$sim" ocean --nodes 4 --ops 5000 --seed 3 --capture "$rec" \
    > /dev/null || {
    echo "trace_replay_test: 5000-op ocean capture failed" >&2
    exit 1
}
info="$("$trace" info "$rec")"
echo "$info" | grep -q 'format version      2' || {
    echo "trace_replay_test: captured trace is not v2" >&2
    exit 1
}
echo "$info" | grep -q 'memory records      20000' || {
    echo "trace_replay_test: cgct_trace info reports wrong op count" >&2
    echo "$info" >&2
    exit 1
}

# The offline recorder is retired: cgct_sim --capture is the only one.
"$trace" record ocean "$tmp/retired.trace" --cpus 4 --ops 5000 \
    > /dev/null 2> "$tmp/retired.err"
status=$?
if [ "$status" -ne 1 ] ||
   ! grep -q "unknown command 'record'" "$tmp/retired.err"; then
    echo "trace_replay_test: cgct_trace record exited $status without" \
         "naming the unknown command" >&2
    cat "$tmp/retired.err" >&2
    exit 1
fi

# Captures are deterministic across worker-thread counts: cgct_sim
# --jobs sizes only the sampled window pool, so a capture must emit the
# same trace bytes at any job count.
"$sim" tpc-w --ops 10000 --seed 7 --jobs 1 \
    --capture "$tmp/jobs1.trace" --json > /dev/null 2>&1
"$sim" tpc-w --ops 10000 --seed 7 --jobs 2 \
    --capture "$tmp/jobs2.trace" --json > /dev/null 2>&1
if ! cmp -s "$tmp/jobs1.trace" "$tmp/jobs2.trace"; then
    echo "trace_replay_test: capture bytes depend on --jobs" >&2
    exit 1
fi

# A corrupted trace must be rejected, not replayed.
bad="$tmp/corrupt.trace"
cp "$tmp/tpc-w.10000.trace" "$bad"
printf '\xff' | dd of="$bad" bs=1 seek=100 conv=notrunc 2> /dev/null
if "$trace" verify "$bad" > /dev/null 2>&1; then
    echo "trace_replay_test: verify accepted a corrupted trace" >&2
    exit 1
fi

# A legacy v1 file (24-byte header: magic, version 1, one CPU, one op;
# then one 15-byte record) is refused with one clear message, as a
# fatal error (exit 1), never a crash.
v1="$tmp/legacy-v1.trace"
printf 'CGCT\001\000\000\000\001\000\000\000\000\000\000\000' > "$v1"
printf '\001\000\000\000\000\000\000\000' >> "$v1"
printf '\000\002\000\000\000\000\000\000\020\000\000\000\000\000\000' >> "$v1"
for cmd in "$sim --replay $v1 --nodes 1" "$trace info $v1"; do
    $cmd > /dev/null 2> "$tmp/v1.err"
    status=$?
    if [ "$status" -ne 1 ] ||
       ! grep -q 'legacy v1 trace is no longer supported' "$tmp/v1.err"; then
        echo "trace_replay_test: '$cmd' on a v1 trace exited $status" \
             "without the legacy-v1 message" >&2
        cat "$tmp/v1.err" >&2
        exit 1
    fi
done

echo "trace_replay_test: capture→replay byte-identity holds for all 9" \
     "profiles and a second seed; capture/info/verify paths" \
     "OK; record refused; v1 rejected"
