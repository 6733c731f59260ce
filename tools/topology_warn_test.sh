#!/usr/bin/env bash
# topology_warn_test.sh — end-to-end check of the once-only fallback
# warning (docs/SAMPLING.md): a CLI request the run cannot honor must
# say so on stderr, name the reason, and say it exactly once, exercised
# through the real binaries rather than the unit harness. A sampled
# sweep that was not given --seeds, and a run that honors every flag on
# a non-default topology, must stay silent. A
# --regions value that is not a number or not a valid region size must
# fail before the CSV header.
#
#   tools/topology_warn_test.sh <cgct_sim-binary> <cgct_sweep-binary>
#
# Wired into ctest as `topology_warn` (see tests/CMakeLists.txt).

set -u

sim="${1:?usage: topology_warn_test.sh <cgct_sim> <cgct_sweep>}"
sweep="${2:?usage: topology_warn_test.sh <cgct_sim> <cgct_sweep>}"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

count() {
    # count <file> <literal> — occurrences of a literal string.
    grep -o -F -e "$2" "$1" | wc -l
}

# Leg 1: a sampled sweep ignores --seeds (confidence comes from the
# windows) — one warning for the whole matrix, not one per cell, and
# the CSV on stdout still parses.
"$sweep" --benchmarks tpc-w --regions 0,512 --seeds 3 --sample 2 \
    --ops 6000 --no-progress --jobs 2 \
    > "$tmp/sweep.csv" 2> "$tmp/sweep.err"
status=$?
if [ "$status" -ne 0 ]; then
    echo "topology_warn_test: cgct_sweep failed with $status" >&2
    exit 1
fi
n=$(count "$tmp/sweep.err" '--seeds 3 ignored')
if [ "$n" -ne 1 ]; then
    echo "topology_warn_test: expected the --seeds warning exactly" \
         "once on stderr, saw $n:" >&2
    cat "$tmp/sweep.err" >&2
    exit 1
fi
rows=$(wc -l < "$tmp/sweep.csv")
if [ "$rows" -ne 3 ]; then
    echo "topology_warn_test: expected 3 CSV lines (header + one row" \
         "per region), got $rows" >&2
    exit 1
fi
if ! head -1 "$tmp/sweep.csv" | grep -q '^workload,region_bytes,seed,'; then
    echo "topology_warn_test: bad CSV header" >&2
    exit 1
fi

# Leg 1b: a sampled sweep given no --seeds ignores nothing: no warning.
if ! "$sweep" --benchmarks tpc-w --regions 512 --ops 100000 --sample 4 \
         --window-ops 1000 --no-progress > /dev/null 2> "$tmp/noseeds.err" ||
   [ -s "$tmp/noseeds.err" ]; then
    echo "topology_warn_test: a sampled sweep without --seeds failed or" \
         "wrote to stderr:" >&2
    cat "$tmp/noseeds.err" >&2
    exit 1
fi

# Leg 2: a run that honors every flag warns about nothing.
"$sim" tpc-w --nodes 16 --topology hier --ops 4000 \
    > /dev/null 2> "$tmp/clean.err"
if grep -q 'ignored' "$tmp/clean.err"; then
    echo "topology_warn_test: clean run produced a fallback warning:" >&2
    cat "$tmp/clean.err" >&2
    exit 1
fi

# Leg 3: a --regions value the sweep cannot run fails before the CSV
# header, leaving stdout empty: "abc" is not a number, and 300 is not a
# power of two.
for leg in "abc:bad region size 'abc'" "300:power of two"; do
    regions="${leg%%:*}"
    reason="${leg#*:}"
    "$sweep" --benchmarks tpc-w --regions "$regions" --seeds 1 \
        --ops 4000 --no-progress > "$tmp/bad.csv" 2> "$tmp/bad.err"
    status=$?
    if [ "$status" -eq 0 ] || [ -s "$tmp/bad.csv" ] ||
       ! grep -q -F -e "$reason" "$tmp/bad.err"; then
        echo "topology_warn_test: --regions $regions exited $status;" \
             "expected a failure naming \"$reason\" and no stdout:" >&2
        cat "$tmp/bad.csv" "$tmp/bad.err" >&2
        exit 1
    fi
done

echo "topology_warn_test: the fallback warning fires exactly once and" \
     "names its reason; bad --regions fail before the header"
