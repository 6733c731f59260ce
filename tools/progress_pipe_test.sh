#!/usr/bin/env bash
# progress_pipe_test.sh — regression test: live progress goes to stderr,
# never stdout, so piping a sweep's CSV somewhere with --progress forced
# on still parses cleanly; and the binary's CSV and JSON are the same
# bytes at --jobs 1 and --jobs 2.
#
#   tools/progress_pipe_test.sh <cgct_sweep-binary>
#
# Wired into ctest as `progress_pipe` (see tests/CMakeLists.txt).

set -u

sweep="${1:?usage: progress_pipe_test.sh <cgct_sweep>}"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

"$sweep" --benchmarks tpc-w --regions 0,512 --seeds 2 --ops 8000 \
    --progress --jobs 2 > "$tmp/out.csv" 2> "$tmp/err.txt"
status=$?
if [ "$status" -ne 0 ]; then
    echo "progress_pipe_test: sweep failed with $status" >&2
    exit 1
fi

# Progress actually fired, and fired on stderr.
if ! grep -q 'cgct_sweep:' "$tmp/err.txt"; then
    echo "progress_pipe_test: no progress output on stderr" >&2
    exit 1
fi
if grep -q 'cgct_sweep:' "$tmp/out.csv"; then
    echo "progress_pipe_test: progress output leaked into stdout" >&2
    exit 1
fi

# The piped CSV parses: right header, right row count, 16 fields per
# row, every row starts with the benchmark name.
rows=$(wc -l < "$tmp/out.csv")
if [ "$rows" -ne 5 ]; then
    echo "progress_pipe_test: expected 5 CSV lines (header + 4 rows)," \
         "got $rows" >&2
    exit 1
fi
if ! head -1 "$tmp/out.csv" | grep -q '^workload,region_bytes,seed,'; then
    echo "progress_pipe_test: bad CSV header" >&2
    exit 1
fi
bad=$(tail -n +2 "$tmp/out.csv" |
    awk -F, 'NF != 16 || $1 != "tpc-w" { print NR": "$0 }')
if [ -n "$bad" ]; then
    echo "progress_pipe_test: malformed CSV row(s): $bad" >&2
    exit 1
fi

# Same bytes as a --no-progress run: progress must not perturb results.
"$sweep" --benchmarks tpc-w --regions 0,512 --seeds 2 --ops 8000 \
    --no-progress --jobs 2 > "$tmp/quiet.csv" 2> /dev/null
if ! cmp -s "$tmp/out.csv" "$tmp/quiet.csv"; then
    echo "progress_pipe_test: --progress changed the emitted CSV" >&2
    exit 1
fi

# Same bytes at --jobs 1: rows stream in cell order whatever order the
# worker threads finish them in.
"$sweep" --benchmarks tpc-w --regions 0,512 --seeds 2 --ops 8000 \
    --no-progress --jobs 1 > "$tmp/serial.csv" 2> /dev/null
if ! cmp -s "$tmp/out.csv" "$tmp/serial.csv"; then
    echo "progress_pipe_test: --jobs 2 CSV differs from --jobs 1" >&2
    exit 1
fi
for jobs in 1 2; do
    "$sweep" --benchmarks tpc-w --regions 0,512 --seeds 2 --ops 8000 \
        --no-progress --jobs "$jobs" --format json \
        > "$tmp/jobs$jobs.json" 2> /dev/null || {
        echo "progress_pipe_test: --format json --jobs $jobs failed" >&2
        exit 1
    }
done
if ! grep -q '"workload": *"tpc-w"' "$tmp/jobs1.json"; then
    echo "progress_pipe_test: JSON output names no tpc-w run" >&2
    exit 1
fi
if ! cmp -s "$tmp/jobs1.json" "$tmp/jobs2.json"; then
    echo "progress_pipe_test: --jobs 2 JSON differs from --jobs 1" >&2
    exit 1
fi

echo "progress_pipe_test: CSV parses cleanly with --progress piped;" \
     "CSV and JSON identical at --jobs 1 and 2"
